"""Normal calibration, inference and Poisson heightmap integration."""

import dataclasses
import pickle

import numpy as np
import pytest

from gripsense import geometry, sim
from gripsense.core import (DiffFrame, HeightMap, NormalMap, TactileFrame,
                            diff_image)
from oracles import (ORACLE_NORMAL_TOL, cap_normals_fd,
                     contact_window_reference, fd_gradient_at,
                     fit_rgb2normal_reference, full_frame_normals_reference,
                     poisson_reference, rgb2normal_init,
                     rgb2normal_loss_and_grads, windowed_poisson_reference)

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


@pytest.fixture(scope="module")
def oracle_fit(data):
    """The reference L-BFGS's (params, loss history) on the fixture model's run."""
    return fit_rgb2normal_reference(data, 200, 0.1, seed=0)


class TestFit:
    def test_deterministic(self, data, model):
        again = geometry.fit_rgb2normal(data, epochs=200, seed=0)
        assert np.array_equal(model.w1, again.w1)
        assert model.final_loss == again.final_loss

    def test_seed_changes_init(self, data, model):
        other = geometry.fit_rgb2normal(data, epochs=200, seed=1)
        assert not np.array_equal(model.w1, other.w1)

    def test_loss_history_non_increasing(self, model, oracle_fit):
        hist = np.array(model.loss_history)
        # one loss per iteration run, plus the final one
        assert hist.size == len(oracle_fit[1]) <= 201
        assert np.all(np.diff(hist) <= 1e-12)
        assert model.final_loss == hist[-1]
        assert model.final_loss < hist[0]

    def test_epoch_validation(self, data):
        with pytest.raises(ValueError):
            geometry.fit_rgb2normal(data, epochs=0)

    @pytest.mark.parametrize("epochs", [np.nan, np.inf, 0, 2.5, True])
    def test_epochs_must_be_an_integer_at_least_one(self, data, epochs):
        with pytest.raises(ValueError, match="epochs must be an integer"):
            geometry.fit_rgb2normal(data, epochs=epochs)

    @pytest.mark.parametrize("rate", [0.0, -0.1, np.nan, np.inf])
    def test_learning_rate_validation(self, data, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            geometry.fit_rgb2normal(data, epochs=5, learning_rate=rate)

    def test_predictions_are_unit_normals(self, model):
        frame = _press_fixture(n=1, seed=3)[0][0]
        nm = geometry.predict_normals(frame, model)
        assert isinstance(nm, NormalMap)
        n = nm.raster()
        assert n.shape == frame.values.shape
        norms = np.linalg.norm(n, axis=2)
        assert np.max(np.abs(norms - 1.0)) < 1e-9
        assert n[:, :, 2].min() > 0


def _params(model):
    return (model.w1, model.b1, model.w2, model.b2, model.w3, model.b3)


# L-BFGS amplifies the round-off by which the kernel and the package's
# optimizer differ from their references; over 60 iterations the histories
# stay within 4e-12 of each other.
ORACLE_ITERATIONS = 60


def _assert_history_matches(got, want, iterations):
    """The first ``iterations`` + 1 losses agree to 1e-9 relative."""
    got, want = np.array(got[:iterations + 1]), np.array(want[:iterations + 1])
    assert got.size == want.size == iterations + 1
    assert np.max(np.abs(got - want) / want) <= 1e-9


class TestTrainingKernel:
    """The allocation-free loss and the package's L-BFGS against the
    allocating references in ``oracles``, and against central differences
    of the loss."""

    def test_fixture_fit_matches_oracle(self, model, oracle_fit):
        _assert_history_matches(model.loss_history, oracle_fit[1],
                                ORACLE_ITERATIONS)

    def test_criterion8_recipe_matches_oracle(self, data):
        # the criterion-8 recipe's 3 presses at 64 px are the fixture's data
        model = geometry.fit_rgb2normal(data, epochs=120, learning_rate=0.1,
                                        seed=0)
        _, history = fit_rgb2normal_reference(data, ORACLE_ITERATIONS, 0.1)
        _assert_history_matches(model.loss_history, history,
                                ORACLE_ITERATIONS)

    def test_fits_of_different_sizes_share_no_state(self, data):
        small = geometry.build_calibration_dataset(
            sim.make_calibration_presses(2, rng=np.random.default_rng(4),
                                         resolution=40))
        assert len(small) != len(data)
        for d in (small, data, small):
            model = geometry.fit_rgb2normal(d, epochs=30, seed=0)
            _, history = fit_rgb2normal_reference(d, 30, 0.1)
            _assert_history_matches(model.loss_history, history, 30)

    @pytest.mark.parametrize("recipe", ["criterion8_model", "library_model"])
    def test_final_loss_near_scipy_lbfgsb(self, request, recipe):
        # scipy's L-BFGS-B under the same iteration cap, from the same start
        from scipy.optimize import minimize
        model = request.getfixturevalue(recipe)
        data = _recipe_data(recipe)
        x, t = data.features, data.normals[:, :2]
        buf = geometry._training_buffers(len(data))
        start = rgb2normal_init(seed=0)
        shapes = [p.shape for p in start]
        bounds = np.cumsum([0] + [p.size for p in start])

        def f(flat):
            params = [flat[lo:hi].reshape(s)
                      for s, lo, hi in zip(shapes, bounds[:-1], bounds[1:])]
            loss, grads = geometry._loss_and_grads(params, x, t, buf)
            return loss, np.concatenate([g.ravel() for g in grads])

        result = minimize(f, np.concatenate([p.ravel() for p in start]),
                          jac=True, method="L-BFGS-B",
                          options={"maxiter": RECIPES[recipe][2]})
        assert abs(model.final_loss / result.fun - 1.0) <= 0.05

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


# the calibration recipes the fixtures of the same names fit:
# (presses, press raster side in px, epochs)
RECIPES = {"criterion8_model": (3, 64, 120), "library_model": (8, 128, 1000)}


def _recipe_data(recipe):
    presses, px, _ = RECIPES[recipe]
    return geometry.build_calibration_dataset(sim.make_calibration_presses(
        presses, rng=np.random.default_rng(0), resolution=px))


def _fit_recipe(recipe):
    return geometry.fit_rgb2normal(_recipe_data(recipe),
                                   epochs=RECIPES[recipe][2],
                                   learning_rate=0.1, seed=0)


@pytest.fixture(scope="module")
def criterion8_model():
    return _fit_recipe("criterion8_model")


@pytest.fixture(scope="module")
def library_model():
    """The library-default recipe (criteria 1, 4 and 6), more curved than criterion 8's."""
    return _fit_recipe("library_model")


def test_flat_frame_reads_no_phantom_height(criterion8_model):
    # A noisy flat frame on the tick raster must stay well under the 0.3 mm
    # contact threshold; an under-converged model read 0.21 mm here.
    gel, rig = sim.GelModel(), sim.default_rig()
    shape = (240, 320)
    ppm = shape[1] / gel.gel_size_mm
    flat = HeightMap(np.zeros(shape), ppm)
    background = sim.render_tactile(flat, rig, gel)
    img = sim.render_tactile(flat, rig, gel, 0.01, np.random.default_rng(0))
    normals = geometry.predict_normals(diff_image(img, background),
                                       criterion8_model)
    assert geometry.integrate_normals(normals, ppm).values.max() <= 0.1


def _reference_normals(frame, model):
    """The float64 ``_forward``, clamped below unit norm, nz completing the unit vector."""
    params = (model.w1, model.b1, model.w2, model.b2, model.w3, model.b3)
    n2, _ = geometry._forward(params, geometry._pixel_features(frame.values))
    norm = np.linalg.norm(n2, axis=1, keepdims=True)
    n2 = n2 * np.minimum(1.0, geometry._NORM_CLAMP / np.maximum(norm, 1e-300))
    nz = np.sqrt(np.maximum(1.0 - np.sum(n2 * n2, axis=1), 0.0))
    return np.column_stack([n2, nz]).reshape(frame.values.shape)


def _inside(normals):
    """The (H, W) mask of the normal map's contact window."""
    r0, r1, c0, c1 = normals.support
    inside = np.zeros(normals.frame_shape, bool)
    inside[r0:r1, c0:c1] = True
    return inside


def _check_prediction(frame, model):
    """Unit normals with nz > 0, exactly (0, 0, 1) outside the contact window,
    and within ``ORACLE_NORMAL_TOL`` of the float32 kernel on every pixel
    inside it. Returns the normal map."""
    normals = geometry.predict_normals(frame, model)
    got = normals.raster()
    assert np.max(np.abs(np.linalg.norm(got, axis=2) - 1.0)) < 1e-9
    assert got[:, :, 2].min() > 0
    inside = _inside(normals)
    assert np.all(got[~inside] == (0.0, 0.0, 1.0))
    want = full_frame_normals_reference(frame.values, model)
    assert np.max(np.abs(got - want)[inside], initial=0.0) <= ORACLE_NORMAL_TOL
    return normals


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
        got = full_frame_normals_reference(frame.values, model)
        assert np.max(np.abs(got - _reference_normals(frame, model))) <= 1e-5
        return got

    def test_matches_float64_forward(self, criterion8_model):
        for frame in self._frames().values():
            self._check_kernel(frame, criterion8_model)

    # The kernel runs over bands of _BAND_PX pixel rows: 13 x 317 pixels end
    # in a short band, 3 x 5000 and 8 x 1875 in three full ones and a short
    # one, which one call over all the pixels must give as separate calls
    # do. ``predict_normals`` hands the kernel whole window rows, at most
    # _BAND_PX pixels a call: bands of 12 rows and one of a row at 13 x 317,
    # four of 2 rows at 8 x 1875. With 3 rows no column can hold _HOT_COUNT
    # hot pixels, so that frame opens no window; the others open one over
    # the whole frame.
    @pytest.mark.parametrize("shape", [(13, 317), (3, 5000), (8, 1875)])
    def test_band_boundaries(self, criterion8_model, shape):
        n = shape[0] * shape[1]
        band = geometry._BAND_PX
        assert n > band and n % band
        values = np.random.default_rng(shape[1]).uniform(-0.3, 0.3, shape + (3,))
        frame = DiffFrame(values, 10.0)
        self._check_kernel(frame, criterion8_model)
        feats = geometry._pixel_features(values)
        banded = [geometry._mlp(criterion8_model, feats[s:s + band])
                  for s in range(0, n, band)]
        assert np.array_equal(geometry._mlp(criterion8_model, feats),
                              np.concatenate(banded))
        normals = _check_prediction(frame, criterion8_model)
        if shape[0] < geometry._HOT_COUNT:
            assert normals.support == (0, 0, 0, 0)
        else:
            assert normals.support == (0, shape[0], 0, shape[1])

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
        normals = _check_prediction(frame, loud)
        tangential = np.linalg.norm(normals.raster()[:, :, :2], axis=2)
        assert np.max(tangential) <= geometry._NORM_CLAMP + 1e-12
        assert np.any(np.isclose(tangential, geometry._NORM_CLAMP,
                                 rtol=0, atol=1e-12)[_inside(normals)])

    @staticmethod
    def _branch_model():
        """A model whose output is (20, 10) tanh(tanh(R)): exactly 0 at
        R = 0, under the 1e-6 where the squash takes its series at
        R = 1e-8, and past the clamp at R = 1."""
        z = np.zeros
        w1, w2, w3 = z((32, 5)), z((32, 32)), z((2, 32))
        w1[0, 0] = w2[0, 0] = 1.0
        w3[:, 0] = 20.0, 10.0
        return geometry.Rgb2NormalModel(w1, z(32), w2, z(32), w3, z(2))

    def test_tail_pass_spans_bands(self):
        # One ``_mlp`` pass over four bands, the clamp branch in the first
        # and the last and the series branch in the second, gives the bits
        # of one call per band; ``predict_normals`` passes over four bands of
        # window rows, here with the clamp in band 0 and the series in band 1.
        model, band = self._branch_model(), geometry._BAND_PX
        n = 3 * band + 1000
        assert n <= geometry._PASS_BANDS * band
        feats = np.random.default_rng(3).uniform(-0.3, 0.3, (n, 5))
        clamp = np.r_[100:200, n - 100:n]
        zero, tiny = np.r_[band:band + 100], np.r_[band + 100:band + 200]
        feats[clamp, 0] = 1.0
        feats[zero, 0] = 0.0
        feats[tiny, 0] = 1e-8
        got = geometry._mlp(model, feats)
        banded = [geometry._mlp(model, feats[s:s + band])
                  for s in range(0, n, band)]
        assert np.array_equal(got, np.concatenate(banded))
        norm = np.linalg.norm(got, axis=1)
        assert np.allclose(norm[clamp], geometry._NORM_CLAMP, rtol=0,
                           atol=1e-12)
        assert not got[zero].any()
        assert np.all((norm[tiny] > 0.0) & (norm[tiny] < 1e-6))
        off = np.delete(norm, clamp)                  # no other on the clamp
        assert np.all(off < geometry._NORM_CLAMP - 1e-6)

        rows = geometry._BAND_PX // 320               # window rows per band
        values = np.random.default_rng(4).uniform(-0.3, 0.3, (64, 320, 3))
        values[:, :, 1] = 0.5                         # every pixel hot
        values[:rows, :, 0] = 1.0
        values[rows:2 * rows, :, 0] = 0.0
        frame = DiffFrame(values, 10.0)
        normals = _check_prediction(frame, model)
        assert normals.support == (0, 64, 0, 320)
        got = normals.values
        assert np.array_equal(got, full_frame_normals_reference(values, model))
        assert np.allclose(np.linalg.norm(got[:rows, :, :2], axis=2),
                           geometry._NORM_CLAMP, rtol=0, atol=1e-12)
        assert np.array_equal(got[rows:2 * rows], np.broadcast_to(
            (0.0, 0.0, 1.0), got[rows:2 * rows].shape))


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
        # an infinite pitch would give all-zero slopes: a silent "no contact"
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                geometry.integrate_normals(NormalMap(n), bad)

    # Interior sides n = shape - 2 cover both parities of the folded sine
    # transform: odd n has a middle node of its own (1 at 3x3, 21 at 23),
    # even n none; n = 2 at (4, 4) and (4, 5) leaves one node per half, and
    # n = 1 one odd mode and no even ones.
    @pytest.mark.parametrize("shape", [(3, 3), (3, 9), (9, 3), (3, 240),
                                       (240, 3), (17, 23), (128, 128),
                                       (240, 320), (4, 4), (4, 5), (8, 8)])
    def test_matches_sparse_poisson_oracle(self, shape):
        r = np.random.default_rng(sum(shape))
        n = np.dstack([r.normal(0.0, 0.3, shape + (2,)), np.ones(shape)])
        n /= np.linalg.norm(n, axis=2, keepdims=True)
        got = geometry.integrate_normals(NormalMap(n), 2.5).values
        want = poisson_reference(n, 2.5)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("support, zero", [
        ((2, 13, 3, 20), False), ((0, 17, 0, 23), False), ((5, 5, 0, 23), True),
        ((4, 6, 2, 20), True), ((0, 17, 9, 11), True)])
    def test_solves_only_inside_support(self, support, zero):
        r = np.random.default_rng(4)
        n = np.dstack([r.normal(0.0, 0.3, (17, 23, 2)), np.ones((17, 23))])
        n /= np.linalg.norm(n, axis=2, keepdims=True)
        r0, r1, c0, c1 = support
        got = geometry.integrate_normals(
            NormalMap(n[r0:r1, c0:c1], support, (17, 23)), 2.5).values
        if zero:                    # empty, or no interior: no solve
            assert np.array_equal(got, np.zeros((17, 23)))
            return
        want = windowed_poisson_reference(n, support, 2.5)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestContactWindow:
    """The contact window ``predict_normals`` reads off the diff and the
    heights ``integrate_normals`` solves inside it, on rendered 240x320
    frames: the window matches its line-by-line definition and the heights
    the sparse solve of the window, or are exactly 0 without a window."""

    SHAPE = (240, 320)

    @classmethod
    def _render(cls, centres_mm, depth_mm=1.0, seed=0):
        """The diff of presses of a 7 mm sphere at ``centres_mm``, with noise."""
        gel, rig = sim.GelModel(), sim.default_rig()
        ppm = cls.SHAPE[1] / gel.gel_size_mm
        background = sim.render_tactile(HeightMap(np.zeros(cls.SHAPE), ppm),
                                        rig, gel)
        raw = np.zeros(cls.SHAPE)
        for centre in centres_mm:
            raw += sim.indent_heightmap(sim.Sphere(7.0), centre, depth_mm,
                                        cls.SHAPE, gel).values
        img = sim.render_tactile(HeightMap(raw, ppm), rig, gel, 0.01,
                                 np.random.default_rng(seed))
        return diff_image(img, background)

    @staticmethod
    def _check(diff, model):
        """The normals' window and heights against their references."""
        normals = geometry.predict_normals(diff, model)
        assert normals.support == contact_window_reference(diff.values)
        got = geometry.integrate_normals(normals, diff.px_per_mm).values
        want = windowed_poisson_reference(normals.raster(), normals.support,
                                          diff.px_per_mm)
        assert np.max(np.abs(got - want)) <= 1e-10 * max(np.max(want), 1e-300)
        return normals.support, got

    def test_no_contact_reads_exactly_zero(self, criterion8_model):
        support, height = self._check(self._render([], 0.0), criterion8_model)
        assert support == (0, 0, 0, 0)
        assert np.array_equal(height, np.zeros(self.SHAPE))

    @pytest.mark.parametrize("centres", [[(15.0, 10.0)], [(1.0, 11.0)],
                                         [(7.0, 6.0), (23.0, 16.0)]])
    def test_height_outside_window_is_the_gauge_constant(self, centres,
                                                          criterion8_model):
        # The solve is 0 on the window's edge and off it; the min-0 gauge
        # then lifts the whole frame by minus the interior's minimum, so
        # the height outside the window is one constant c >= 0, not zero
        # (about 7 um for the first contact here).
        support, height = self._check(self._render(centres), criterion8_model)
        r0, r1, c0, c1 = support
        outside = np.ones(self.SHAPE, bool)
        outside[r0:r1, c0:c1] = False
        c = height[outside]
        assert c.size and np.all(c == c[0]) and c[0] >= 0.0
        assert height.min() == 0.0
        _, flat = self._check(self._render([], 0.0), criterion8_model)
        assert np.array_equal(flat, np.zeros(self.SHAPE))

    def test_isolated_spikes_open_no_window(self, criterion8_model):
        diff = self._render([], 0.0, seed=1)
        values = diff.values.copy()
        r = np.random.default_rng(2)
        flat = r.choice(values.shape[0] * values.shape[1], 60, replace=False)
        values.reshape(-1, 3)[flat, r.integers(0, 3, 60)] = 0.5
        values[100, 40:47, 1] = -0.5            # 7 hot pixels in one row
        support, height = self._check(DiffFrame(values, diff.px_per_mm),
                                      criterion8_model)
        assert support == (0, 0, 0, 0)
        assert np.array_equal(height, np.zeros(self.SHAPE))

    def test_counts_on_their_thresholds(self, criterion8_model):
        """A line is in the window with exactly ``_HOT_COUNT`` hot pixels and
        out of it with one fewer, and a pixel is hot when its float32 |diff|
        exceeds float32(0.06): at float32(0.06) itself it is not, at the
        next float32 up it is, whatever float64 rounds to either."""
        k, margin = geometry._HOT_COUNT, geometry._WINDOW_MARGIN
        tau = np.float32(geometry._HOT_TAU)
        up = float(np.nextafter(tau, np.float32(1.0)))
        mid = (float(tau) + up) / 2.0                 # rounds to tau or up
        box = (16, 16 + k, 20, 20 + k)
        opened = (16 - margin, 16 + k + margin, 20 - margin, 20 + k + margin)
        cases = [(up, 1, opened), (-up, 2, opened),
                 (float(tau), 1, (0, 0, 0, 0)), (0.06, 0, (0, 0, 0, 0)),
                 (float(np.nextafter(mid, 0.0)), 1, (0, 0, 0, 0)),
                 (float(np.nextafter(mid, 1.0)), 1, opened)]
        for level, channel, want in cases:
            values = np.zeros((40, 56, 3))
            values[box[0]:box[1], box[2]:box[3], channel] = level
            values[:, :, (channel + 1) % 3] = 0.5 * level   # a lesser channel
            support, _ = self._check(DiffFrame(values, 10.0), criterion8_model)
            assert support == want, level
            # one pixel fewer drops its row and its column from the window
            values[box[0], box[2], channel] = float(tau)
            support, _ = self._check(DiffFrame(values, 10.0), criterion8_model)
            if want != (0, 0, 0, 0):
                assert support == (want[0] + 1, want[1], want[2] + 1, want[3])

    def test_contact_cut_by_the_frame_edge(self, criterion8_model):
        support, height = self._check(self._render([(1.0, 11.0)]),
                                      criterion8_model)
        r0, r1, c0, c1 = support
        assert c0 == 0 and 0 < r0 < r1 < self.SHAPE[0] and c1 < self.SHAPE[1]
        assert height.max() > 0.5

    def test_two_contacts_give_one_box_covering_both(self, criterion8_model):
        centres = [(7.0, 6.0), (23.0, 16.0)]
        support, _ = self._check(self._render(centres), criterion8_model)
        for centre in centres:
            alone = geometry.predict_normals(self._render([centre]),
                                             criterion8_model).support
            assert support[0] <= alone[0] and support[1] >= alone[1]
            assert support[2] <= alone[2] and support[3] >= alone[3]

    @pytest.mark.parametrize("shape", [(8, 8), (9, 13), (240, 320)])
    @pytest.mark.parametrize("kind", ["saturated", "black", "constant"])
    def test_extreme_frames(self, criterion8_model, kind, shape):
        """The frames of ``test_tick.py::test_tick_on_extreme_frames``; a
        window over the whole frame is the solve without one, bit for bit."""
        gel = sim.GelModel()
        ppm = shape[1] / gel.gel_size_mm
        background = sim.render_tactile(HeightMap(np.zeros(shape), ppm),
                                        sim.default_rig(), gel)
        level = {"saturated": 1.0, "black": 0.0, "constant": 0.5}[kind]
        diff = diff_image(TactileFrame(np.full(shape + (3,), level), ppm),
                          background)
        support, height = self._check(diff, criterion8_model)
        if kind != "constant":
            assert support == (0, shape[0], 0, shape[1])
        if support == (0, shape[0], 0, shape[1]):
            normals = geometry.predict_normals(diff, criterion8_model)
            whole = geometry.integrate_normals(NormalMap(normals.values), ppm)
            assert np.array_equal(height, whole.values)


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

    def test_pickle_round_trip(self, criterion8_model):
        back = pickle.loads(pickle.dumps(criterion8_model))
        for f in dataclasses.fields(back):
            assert np.array_equal(getattr(back, f.name),
                                  getattr(criterion8_model, f.name))
        values = np.random.default_rng(0).normal(0.0, 0.02, (24, 32, 3))
        values[4:13, :9] += 0.2             # a block of contact opens a window
        frame = DiffFrame(values, 10.0)
        got = geometry.predict_normals(frame, back)
        assert got.support != (0, 0, 0, 0)
        want = geometry.predict_normals(frame, criterion8_model)
        assert got.values.tobytes() == want.values.tobytes()

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
