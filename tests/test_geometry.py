"""Normal calibration, inference and Poisson heightmap integration."""

import pickle

import numpy as np
import pytest

from gripsense import geometry, sim
from gripsense.core import (DiffFrame, HeightMap, NormalMap, TactileFrame,
                            diff_image)
from oracles import (cap_normals_fd, fd_gradient_at, fit_rgb2normal_reference,
                     poisson_reference, rgb2normal_loss_and_grads)

rng = np.random.default_rng(5)


def _press_fixture(resolution=64, n=4, noise=0.0, seed=0):
    return sim.make_calibration_presses(n, rng=np.random.default_rng(seed),
                                        resolution=resolution,
                                        noise_sigma=noise)


class TestCalibrationDataset:
    def test_labels_match_analytic_cap_normals(self):
        presses = _press_fixture(n=1)
        frame, (cx, cy), contact_px, r_mm, ppm = presses[0]
        data = geometry.build_calibration_dataset(presses)
        h, w, _ = frame.values.shape
        xm, ym = np.meshgrid(np.arange(w), np.arange(h))
        dx = (xm.ravel() - cx) / ppm
        dy = (ym.ravel() - cy) / ppm
        inside = dx ** 2 + dy ** 2 <= (contact_px / ppm) ** 2
        n_in = int(inside.sum())
        got = data.normals[:n_in]                  # in-contact rows come first
        want = np.column_stack([dx[inside] / r_mm, dy[inside] / r_mm,
                                np.sqrt(r_mm ** 2 - dx[inside] ** 2
                                        - dy[inside] ** 2) / r_mm])
        assert np.allclose(got, want, atol=1e-12)

    def test_background_rows_are_flat_normals(self):
        data = geometry.build_calibration_dataset(_press_fixture(n=1))
        flat = data.normals[np.isclose(data.normals[:, 2], 1.0)]
        assert len(flat) >= len(data) // 3
        assert np.allclose(flat[:, :2], 0.0)

    def test_analytic_labels_agree_with_fd_oracle(self):
        xs = np.linspace(-2.5, 2.5, 21)
        want = cap_normals_fd(xs, xs, 5.0, 1.0)
        rho2 = np.add.outer(xs ** 2, xs ** 2)
        inside = rho2 < 1.0 * (2 * 5.0 - 1.0) - 0.5   # away from the rim
        xm, ym = np.meshgrid(xs, xs)
        got = np.dstack([xm / 5.0, ym / 5.0,
                         np.sqrt(np.maximum(25.0 - xm ** 2 - ym ** 2, 0)) / 5.0])
        assert np.max(np.abs(got[inside] - want[inside])) < 1e-4

    def test_rejects_bad_presses(self):
        with pytest.raises(ValueError):
            geometry.build_calibration_dataset([])
        frame, center, contact_px, r_mm, ppm = _press_fixture(n=1)[0]
        with pytest.raises(ValueError, match="center"):
            geometry.build_calibration_dataset(
                [(frame, (1e4, 1e4), contact_px, r_mm, ppm)])
        with pytest.raises(ValueError, match="contact radius"):
            geometry.build_calibration_dataset(
                [(frame, center, r_mm * ppm + 1.0, r_mm, ppm)])

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            geometry.CalibrationDataset(np.zeros((3, 4)), np.zeros((3, 3)))
        bad_n = np.zeros((3, 3))       # zero vectors are not unit normals
        with pytest.raises(ValueError):
            geometry.CalibrationDataset(np.zeros((3, 5)), bad_n)


@pytest.fixture(scope="module")
def data():
    return geometry.build_calibration_dataset(_press_fixture(n=3))


@pytest.fixture(scope="module")
def model(data):
    return geometry.fit_rgb2normal(data, epochs=200, seed=0)


class TestFit:
    def test_deterministic(self, data, model):
        again = geometry.fit_rgb2normal(data, epochs=200, seed=0)
        assert np.array_equal(model.w1, again.w1)
        assert model.final_loss == again.final_loss

    def test_seed_changes_init(self, data, model):
        other = geometry.fit_rgb2normal(data, epochs=200, seed=1)
        assert not np.array_equal(model.w1, other.w1)

    def test_loss_history_non_increasing(self, model):
        hist = np.array(model.loss_history)
        assert hist.shape == (201,)
        assert np.all(np.diff(hist) <= 1e-12)
        assert model.final_loss == hist[-1]
        assert model.final_loss < hist[0]

    def test_epoch_validation(self, data):
        with pytest.raises(ValueError):
            geometry.fit_rgb2normal(data, epochs=0)

    @pytest.mark.parametrize("rate", [0.0, -0.1, np.nan, np.inf])
    def test_learning_rate_validation(self, data, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            geometry.fit_rgb2normal(data, epochs=5, learning_rate=rate)

    def test_predictions_are_unit_normals(self, model):
        frame = _press_fixture(n=1, seed=3)[0][0]
        nm = geometry.predict_normals(frame, model)
        assert isinstance(nm, NormalMap)
        assert nm.values.shape == frame.values.shape
        norms = np.linalg.norm(nm.values, axis=2)
        assert np.max(np.abs(norms - 1.0)) < 1e-9
        assert nm.values[:, :, 2].min() > 0


def _params(model):
    return (model.w1, model.b1, model.w2, model.b2, model.w3, model.b3)


def _assert_fit_matches_oracle(data, epochs, model):
    params, history = fit_rgb2normal_reference(data, epochs, 0.1, seed=0)
    for got, want in zip(_params(model), params):
        assert np.array_equal(got, want)
    assert model.loss_history == tuple(history)


class TestTrainingKernel:
    """The allocation-free epoch against the allocating reference in
    ``oracles``, and against central differences of its own loss."""

    def test_fixture_fit_bit_equal_to_oracle(self, data, model):
        _assert_fit_matches_oracle(data, 200, model)

    def test_criterion8_recipe_bit_equal_to_oracle(self, data):
        # the criterion-8 recipe's 3 presses at 64 px are the fixture's data
        model = geometry.fit_rgb2normal(data, epochs=120, learning_rate=0.1,
                                        seed=0)
        _assert_fit_matches_oracle(data, 120, model)

    def test_fits_of_different_sizes_share_no_state(self, data):
        small = geometry.build_calibration_dataset(
            sim.make_calibration_presses(2, rng=np.random.default_rng(4),
                                         resolution=40))
        assert len(small) != len(data)
        for d in (small, data, small):
            _assert_fit_matches_oracle(
                d, 30, geometry.fit_rgb2normal(d, epochs=30, seed=0))

    def test_stale_buffers_are_never_read(self, data, model):
        x, t = data.features, data.normals[:, :2]
        want = rgb2normal_loss_and_grads(_params(model), x, t)
        buf = geometry._training_buffers(len(data))
        for b in buf:
            b.fill(np.nan)
        loss, grads = geometry._loss_and_grads(_params(model), x, t, buf)
        assert loss == want[0]
        for got, ref in zip(grads, want[1]):
            assert np.array_equal(got, ref)

    # An output bias of 2 moves |u| to where the radial squash bends.
    @pytest.mark.parametrize("shift", [0.0, 2.0])
    def test_gradients_match_finite_differences(self, data, model, shift):
        params = list(_params(model))
        params[5] = params[5] + [shift, 0.0]
        shapes = [p.shape for p in params]
        offsets = np.cumsum([0] + [p.size for p in params])
        x, t = data.features, data.normals[:, :2]
        buf = geometry._training_buffers(len(data))

        def unpack(flat):
            return [flat[lo:hi].reshape(s)
                    for s, lo, hi in zip(shapes, offsets[:-1], offsets[1:])]

        def f(flat):
            return geometry._loss_and_grads(unpack(flat), x, t, buf)[0]

        flat0 = np.concatenate([p.ravel() for p in params])
        _, grads = geometry._loss_and_grads(params, x, t, buf)
        flat_grad = np.concatenate([g.ravel() for g in grads])
        r = np.random.default_rng(0)
        check = sorted({int(i) for lo, hi in zip(offsets[:-1], offsets[1:])
                        for i in r.integers(lo, hi, 4)})
        fd = fd_gradient_at(f, flat0, check, eps=1e-6)
        for i in check:
            denom = max(abs(fd[i]), abs(flat_grad[i]), 1e-8)
            assert abs(fd[i] - flat_grad[i]) / denom < 1e-4


@pytest.fixture(scope="module")
def criterion8_model():
    presses = sim.make_calibration_presses(3, rng=np.random.default_rng(0),
                                           resolution=64)
    return geometry.fit_rgb2normal(geometry.build_calibration_dataset(presses),
                                   epochs=120, learning_rate=0.1, seed=0)


@pytest.fixture(scope="module")
def library_model():
    """The library-default recipe (criteria 1, 4 and 6), more curved than criterion 8's."""
    presses = sim.make_calibration_presses(8, rng=np.random.default_rng(0),
                                           resolution=128)
    return geometry.fit_rgb2normal(geometry.build_calibration_dataset(presses),
                                   epochs=1000, learning_rate=0.1, seed=0)


def _reference_normals(frame, model):
    """The float64 ``_forward``, clamped below unit norm, nz completing the unit vector."""
    params = (model.w1, model.b1, model.w2, model.b2, model.w3, model.b3)
    n2, _ = geometry._forward(params, geometry._pixel_features(frame.values))
    norm = np.linalg.norm(n2, axis=1, keepdims=True)
    n2 = n2 * np.minimum(1.0, geometry._NORM_CLAMP / np.maximum(norm, 1e-300))
    nz = np.sqrt(np.maximum(1.0 - np.sum(n2 * n2, axis=1), 0.0))
    return np.column_stack([n2, nz]).reshape(frame.values.shape)


def _kernel_normals(frame, model):
    """The float32 kernel on every pixel, nz completing the unit vector."""
    n2 = geometry._mlp(model, geometry._pixel_features(frame.values))
    nz = np.sqrt(np.maximum(1.0 - np.sum(n2 * n2, axis=1), 0.0))
    return np.column_stack([n2, nz]).reshape(frame.values.shape)


def _mlp_pixels(frame):
    """The pixels ``predict_normals`` sends to the MLP: largest |diff| above tau."""
    mag = np.abs(frame.values.astype(np.float32)).max(axis=2)
    return mag > geometry._LINEAR_TAU


def _check_prediction(frame, model):
    """Unit normals with nz > 0, and MLP pixels exactly the kernel's output."""
    got = geometry.predict_normals(frame, model).values
    assert np.max(np.abs(np.linalg.norm(got, axis=2) - 1.0)) < 1e-9
    assert got[:, :, 2].min() > 0
    sel = _mlp_pixels(frame)
    feats = geometry._pixel_features(frame.values)[sel.ravel()]
    assert np.array_equal(got[sel][:, :2], geometry._mlp(model, feats))
    return got, sel


# The stated bound of the first-order expansion against the MLP.
EXPANSION_NORMAL_TOL = 2e-3
EXPANSION_HEIGHT_TOL_MM = 5e-4


def _check_expansion(frame, model):
    got, sel = _check_prediction(frame, model)
    dense = _kernel_normals(frame, model)
    assert np.max(np.abs(got - dense)[~sel][:, :2],
                  initial=0.0) <= EXPANSION_NORMAL_TOL
    ppm = frame.px_per_mm
    h_got = geometry.integrate_normals(NormalMap(got), ppm).values
    h_dense = geometry.integrate_normals(NormalMap(dense), ppm).values
    assert np.max(np.abs(h_got - h_dense)) <= EXPANSION_HEIGHT_TOL_MM
    return sel


class TestInference:
    """The float32 kernel against the float64 training forward pass, and
    ``predict_normals`` against the kernel."""

    shape = (96, 128)

    def _frames(self):
        gel, rig = sim.GelModel(), sim.default_rig()
        ppm = self.shape[1] / gel.gel_size_mm
        flat = HeightMap(np.zeros(self.shape), ppm)
        background = sim.render_tactile(flat, rig, gel)
        press = sim.indent_heightmap(sim.Sphere(8.0), (16.0, 11.0), 1.0,
                                     self.shape, gel)
        noise = np.random.default_rng(7)
        frames = {
            "noisy press": sim.render_tactile(press, rig, gel, 0.01, noise),
            "flat": sim.render_tactile(flat, rig, gel, 0.01, noise),
            "saturated": TactileFrame(np.ones(self.shape + (3,)), ppm),
        }
        return {k: diff_image(f, background) for k, f in frames.items()}

    @staticmethod
    def _check_kernel(frame, model):
        got = _kernel_normals(frame, model)
        assert np.max(np.abs(got - _reference_normals(frame, model))) <= 1e-5
        return got

    def test_matches_float64_forward(self, criterion8_model):
        for frame in self._frames().values():
            self._check_kernel(frame, criterion8_model)

    def test_prediction_splits_into_mlp_and_expansion(self, criterion8_model):
        frames = self._frames()
        for frame in frames.values():
            _check_expansion(frame, criterion8_model)
        assert _mlp_pixels(frames["saturated"]).all()
        assert 0 < _mlp_pixels(frames["noisy press"]).mean() < 0.5

    # The kernel runs over bands of _BAND_PX pixel rows: 13 x 317 pixels end
    # in a short band, 3 x 5000 in three full ones and a short one.
    @pytest.mark.parametrize("shape", [(13, 317), (3, 5000)])
    def test_band_boundaries(self, criterion8_model, shape):
        n = shape[0] * shape[1]
        assert n > geometry._BAND_PX and n % geometry._BAND_PX
        values = np.random.default_rng(shape[1]).uniform(-0.3, 0.3, shape + (3,))
        frame = DiffFrame(values, 10.0)
        self._check_kernel(frame, criterion8_model)
        _check_prediction(frame, criterion8_model)

    def test_clamp_branch(self, criterion8_model):
        # The criterion-8 model keeps |(nx, ny)| below 0.14 even on the
        # saturated frame. An output bias of 12 puts |u| around the 10.7
        # where tanh(|u|) passes the clamp, mostly above it.
        m = criterion8_model
        loud = geometry.Rgb2NormalModel(m.w1, m.b1, m.w2, m.b2, m.w3,
                                        m.b3 + [12.0, 0.0])
        frame = self._frames()["noisy press"]
        dense = self._check_kernel(frame, loud)
        tangential = np.linalg.norm(dense[:, :, :2], axis=2)
        assert np.mean(np.isclose(tangential, geometry._NORM_CLAMP,
                                  rtol=0, atol=1e-12)) > 0.5
        got, sel = _check_prediction(frame, loud)
        # expansion pixels past the clamp are pulled back onto it
        tangential = np.linalg.norm(got[:, :, :2], axis=2)
        assert np.max(tangential) <= geometry._NORM_CLAMP + 1e-12
        assert np.any(np.isclose(tangential, geometry._NORM_CLAMP,
                                 rtol=0, atol=1e-12)[~sel])


class TestExpansion:
    """First-order expansion pixels against the MLP, on presses as a grasp
    renders them and on rasters too small for a 4 px node stride."""

    @staticmethod
    def _grasp(shape, sigma):
        """Approach, half press and full press of a 7 mm sphere, off centre."""
        gel, rig = sim.GelModel(), sim.default_rig()
        ppm = shape[1] / gel.gel_size_mm
        background = sim.render_tactile(HeightMap(np.zeros(shape), ppm), rig, gel)
        centre = np.array([shape[1], shape[0]]) / ppm / 2.0 + [1.0, -0.5]
        noise = np.random.default_rng(3)
        for depth in (0.0, 0.6, 1.2):
            raw = sim.indent_heightmap(sim.Sphere(7.0), tuple(centre), depth,
                                       shape, gel)
            yield diff_image(sim.render_tactile(raw, rig, gel, sigma, noise),
                             background)

    @pytest.mark.parametrize("sigma", [0.01, 0.02])
    @pytest.mark.parametrize("shape", [(128, 128), (240, 320)])
    @pytest.mark.parametrize("recipe", ["criterion8_model", "library_model"])
    def test_grasp_within_bound(self, request, recipe, shape, sigma):
        model = request.getfixturevalue(recipe)
        for frame in self._grasp(shape, sigma):
            sel = _check_expansion(frame, model)
            assert sel.mean() < 0.7

    @pytest.mark.parametrize("shape", [(8, 8), (13, 317)])
    @pytest.mark.parametrize("recipe", ["criterion8_model", "library_model"])
    def test_small_rasters_within_bound(self, request, recipe, shape):
        model = request.getfixturevalue(recipe)
        values = np.random.default_rng(1).normal(0.0, 0.012, shape + (3,))
        sel = _check_expansion(DiffFrame(values, 10.0), model)
        assert not sel.all()


    # An output bias of 2 moves |u| to where the squash bends, so the
    # q u u^T term of its Jacobian matters as much as the g I term.
    @pytest.mark.parametrize("shift", [0.0, 2.0])
    def test_jacobian_matches_finite_differences(self, criterion8_model, shift):
        m = criterion8_model
        model = geometry.Rgb2NormalModel(m.w1, m.b1, m.w2, m.b2, m.w3,
                                         m.b3 + [shift, 0.0])
        params = (model.w1, model.b1, model.w2, model.b2, model.w3, model.b3)
        r = np.random.default_rng(9)
        feats = np.column_stack([r.normal(0.0, 0.05, (500, 3)),
                                 r.uniform(-1.0, 1.0, (500, 2))])
        _, jac = geometry._mlp(model, feats, jacobian=True)
        for c in range(3):
            step = np.zeros(5)
            step[c] = 1e-5
            fd = (geometry._forward(params, feats + step)[0]
                  - geometry._forward(params, feats - step)[0]) / 2e-5
            assert np.max(np.abs(jac[:, :, c] - fd)) <= 1e-5


class TestRasterSlot:
    """The per-raster expansion is a cache on the model, not part of it."""

    @staticmethod
    def _frame(shape, seed):
        values = np.random.default_rng(seed).normal(0.0, 0.02, shape + (3,))
        return DiffFrame(values, 10.0)

    def test_pickled_model_carries_no_expansion(self, criterion8_model):
        frame = self._frame((24, 32), 0)
        want = geometry.predict_normals(frame, criterion8_model).values
        assert criterion8_model._raster is not None
        back = pickle.loads(pickle.dumps(criterion8_model))
        assert back._raster is None
        assert "_raster" not in repr(criterion8_model)
        assert np.array_equal(geometry.predict_normals(frame, back).values, want)

    def test_second_raster_replaces_slot(self, criterion8_model):
        a, b = self._frame((24, 32), 1), self._frame((17, 9), 2)
        first = geometry.predict_normals(a, criterion8_model).values
        assert criterion8_model._raster.shape == (8, 24, 32)
        geometry.predict_normals(b, criterion8_model)
        assert criterion8_model._raster.shape == (8, 17, 9)
        again = geometry.predict_normals(a, criterion8_model).values
        assert np.array_equal(again, first)


class TestIntegration:
    def test_recovers_smooth_zero_boundary_surface(self):
        n = 48
        x = np.linspace(0, np.pi, n)
        h_true = 0.5 * np.outer(np.sin(x), np.sin(x))
        gy, gx = np.gradient(h_true)               # slope in mm per pixel
        nx = -gx / np.sqrt(1 + gx ** 2 + gy ** 2)
        ny = -gy / np.sqrt(1 + gx ** 2 + gy ** 2)
        nz = 1.0 / np.sqrt(1 + gx ** 2 + gy ** 2)
        nm = NormalMap(np.dstack([nx, ny, nz]))
        hm = geometry.integrate_normals(nm, 1.0)
        err = hm.values - (h_true - h_true.min())
        assert np.sqrt(np.mean(err ** 2)) < 0.02

    def test_flat_normals_give_flat_heightmap(self):
        n = np.zeros((24, 24, 3))
        n[:, :, 2] = 1.0
        hm = geometry.integrate_normals(NormalMap(n), 4.0)
        assert np.max(np.abs(hm.values)) < 1e-9

    def test_output_gauge_min_zero(self):
        presses = _press_fixture(n=1)
        data = geometry.build_calibration_dataset(presses)
        model = geometry.fit_rgb2normal(data, epochs=150, seed=0)
        nm = geometry.predict_normals(presses[0][0], model)
        hm = geometry.integrate_normals(nm, presses[0][4])
        assert hm.values.min() == 0.0

    def test_px_per_mm_validation(self):
        n = np.zeros((8, 8, 3))
        n[:, :, 2] = 1.0
        with pytest.raises(ValueError):
            geometry.integrate_normals(NormalMap(n), 0.0)

    # 3x3 has a 1x1 interior (no tridiagonal solve), 3-row frames give
    # one-row blocks, 3-column frames one block; side - 1 is 127 and 239
    # (prime) at 128 and 240, and 11 * 29 at 320.
    @pytest.mark.parametrize("shape", [(3, 3), (3, 9), (9, 3), (3, 240),
                                       (240, 3), (17, 23), (128, 128),
                                       (240, 320)])
    def test_matches_sparse_poisson_oracle(self, shape):
        r = np.random.default_rng(sum(shape))
        n = np.dstack([r.normal(0.0, 0.3, shape + (2,)), np.ones(shape)])
        n /= np.linalg.norm(n, axis=2, keepdims=True)
        got = geometry.integrate_normals(NormalMap(n), 2.5).values
        want = poisson_reference(n, 2.5)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestReconstructionError:
    def test_gauge_invariant(self):
        a = HeightMap(rng.random((6, 6)), 1.0)
        b = HeightMap(a.values + 3.0, 1.0)
        assert geometry.reconstruction_error(a, b) < 1e-18

    def test_constant_offset_after_gauge(self):
        base = rng.random((5, 5))
        base -= base.min()
        lifted = base.copy()
        lifted[base > 0] += 0.1                    # offset the non-min region
        a = HeightMap(base, 1.0)
        b = HeightMap(lifted, 1.0)
        frac = np.mean(base > 0)
        assert geometry.reconstruction_error(a, b) == pytest.approx(
            0.01 * frac)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            geometry.reconstruction_error(HeightMap(np.zeros((4, 4)), 1.0),
                                          HeightMap(np.zeros((5, 5)), 1.0))


class TestPersistence:
    def test_roundtrip_bitexact_predictions(self, tmp_path):
        data = geometry.build_calibration_dataset(_press_fixture(n=2))
        model = geometry.fit_rgb2normal(data, epochs=100, seed=0)
        path = tmp_path / "m.txt"
        geometry.save_rgb2normal(model, path)
        back = geometry.load_rgb2normal(path)
        frame = _press_fixture(n=1, seed=4)[0][0]
        a = geometry.predict_normals(frame, model)
        b = geometry.predict_normals(frame, back)
        assert np.array_equal(a.values, b.values)
        assert back.final_loss is None

    def test_corrupt_file_raises(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("5 32 32 2\n1.0 2.0\n")
        with pytest.raises(ValueError):
            geometry.load_rgb2normal(p)
        p.write_text("7 9\n")
        with pytest.raises(ValueError):
            geometry.load_rgb2normal(p)


class TestEndToEnd:
    def test_sphere_press_reconstructs_to_low_error(self):
        res = 64
        gel = sim.GelModel()
        ppm = res / gel.gel_size_mm
        presses = _press_fixture(resolution=res, n=6)
        data = geometry.build_calibration_dataset(presses)
        model = geometry.fit_rgb2normal(data, epochs=400, seed=0)
        truth = sim.indent_heightmap(sim.Sphere(5.0), (15.0, 15.0), 0.9,
                                     (res, res), gel)
        img = sim.render_tactile(truth, sim.default_rig(), gel)
        flat = sim.render_tactile(HeightMap(np.zeros((res, res)), ppm),
                                  sim.default_rig(), gel)
        nm = geometry.predict_normals(diff_image(img, flat), model)
        hm = geometry.integrate_normals(nm, ppm)
        assert geometry.reconstruction_error(hm, truth) < 0.02
