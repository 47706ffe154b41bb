"""Synthetic sensor: shapes, rendering, marker motion, sequence generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripsense import sim
from gripsense.core import DiffFrame, HeightMap
from gripsense.slip import ContactMask
from oracles import (cap_height, cap_normals_fd, compression_clip_reference,
                     slip_masks_reference)

GEL = sim.GelModel()
rng = np.random.default_rng(11)


class TestShapes:
    def test_sphere_penetration_matches_oracle(self):
        xs = np.linspace(-6, 6, 41)
        xm, ym = np.meshgrid(xs, xs)
        got = sim.Sphere(5.0).penetration(xm, ym, 1.0)
        assert np.allclose(got, cap_height(xm, ym, 5.0, 1.0), atol=1e-12)

    def test_pyramid_apex_and_symmetry(self):
        p = sim.HexPyramid(10.0, 2.0)
        assert p.penetration(np.zeros(1), np.zeros(1), 1.0)[0] == 1.0
        xs = np.linspace(-6, 6, 25)
        xm, ym = np.meshgrid(xs, xs)
        pen = p.penetration(xm, ym, 1.0)
        assert np.allclose(pen, pen[::-1, :], atol=1e-12)   # y mirror
        assert np.allclose(pen, pen[:, ::-1], atol=1e-12)   # x mirror

    def test_fruit_surface_deterministic_and_bounded(self):
        f = sim.FruitSurface(0.5, 0.1, 12.0, phase_seed=9)
        xs = np.linspace(-3, 3, 15)
        xm, ym = np.meshgrid(xs, xs)
        a = f.penetration(xm, ym, 0.8)
        b = sim.FruitSurface(0.5, 0.1, 12.0, phase_seed=9).penetration(xm, ym, 0.8)
        assert np.array_equal(a, b)
        smooth = sim.FruitSurface(0.0, 0.0, 12.0).penetration(xm, ym, 0.8)
        assert np.all(a >= smooth - 1e-12)
        assert np.all(a <= smooth + 0.1 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            sim.Sphere(0.0)
        with pytest.raises(ValueError):
            sim.HexPyramid(10.0, -1.0)
        with pytest.raises(ValueError):
            sim.GraspScene(pose="upside_down")


class TestHeightmaps:
    def test_indent_matches_analytic_cap(self):
        hm = sim.indent_heightmap(sim.Sphere(5.0), (15.0, 15.0), 1.0, (64, 64))
        ppm = hm.px_per_mm
        xs = (np.arange(64) + 0.5) / ppm
        xm, ym = np.meshgrid(xs, xs)
        assert np.allclose(hm.values, cap_height(xm - 15, ym - 15, 5.0, 1.0),
                           atol=1e-12)

    def test_zero_depth_is_flat(self):
        hm = sim.indent_heightmap(sim.Sphere(5.0), (15.0, 15.0), 0.0, (32, 32))
        assert np.all(hm.values == 0.0)

    def test_depth_and_center_validation(self):
        with pytest.raises(ValueError):
            sim.indent_heightmap(sim.Sphere(5.0), (15.0, 15.0), 6.0, (32, 32))
        with pytest.raises(ValueError):
            sim.indent_heightmap(sim.Sphere(5.0), (40.0, 15.0), 1.0, (32, 32))
        with pytest.raises(ValueError):
            sim.indent_heightmap(sim.Sphere(5.0), (15.0, 15.0), -0.1, (32, 32))
        with pytest.raises(ValueError, match="non-negative"):
            sim.indent_heightmap(sim.Sphere(5.0), (15.0, 15.0), float("nan"),
                                 (32, 32))

    def test_press_smooths_but_preserves_volume_roughly(self):
        raw = sim.indent_heightmap(sim.Sphere(5.0), (15.0, 15.0), 1.0, (64, 64))
        smooth = sim.press(raw)
        assert smooth.values.max() < raw.values.max()
        assert np.isclose(smooth.values.sum(), raw.values.sum(), rtol=1e-6)

    # odd and even sides; at sigma 2.5 px the kernel radius, 10, reaches
    # past the 7- and 10-pixel sides, so every tap of those lands in padding
    @pytest.mark.parametrize("shape, sigma_px", [
        ((64, 64), 64 / 30.0), ((33, 48), 1.3), ((7, 10), 2.5), ((10, 7), 2.5),
        ((1, 12), 0.6), ((21, 5), 4.7), ((5, 33, 48), 1.3)])
    def test_press_bit_equal_to_ndimage(self, shape, sigma_px):
        # each raster of a stacked input blurs as it would alone
        from scipy.ndimage import gaussian_filter
        values = np.random.default_rng(sum(shape)).random(shape)
        if values.ndim == 2:
            raw = HeightMap(values, 2.0)
            gel = sim.GelModel(membrane_sigma_mm=sigma_px / raw.px_per_mm)
            got = sim.press(raw, gel).values[None]
        else:
            got = sim._gaussian_blur(values, sigma_px)
        assert got.shape == values.reshape((-1,) + shape[-2:]).shape
        for blurred, raster in zip(got, values.reshape(got.shape)):
            want = gaussian_filter(raster, sigma_px, mode="constant")
            assert blurred.tobytes() == want.tobytes()


class TestNormalsAndRendering:
    def test_flat_surface_normals_up(self):
        n = sim.surface_normals(HeightMap(np.zeros((16, 16)), 4.0))
        assert np.allclose(n[:, :, 2], 1.0)

    def test_normals_match_finite_difference_oracle(self):
        res, ppm = 64, 64 / 30.0
        hm = sim.indent_heightmap(sim.Sphere(5.0), (15.0, 15.0), 1.0,
                                  (res, res))
        n = sim.surface_normals(hm)
        xs = (np.arange(res) + 0.5) / ppm - 15.0
        want = cap_normals_fd(xs, xs, 5.0, 1.0)
        interior = np.ones((res, res), dtype=bool)
        interior[:2] = interior[-2:] = interior[:, :2] = interior[:, -2:] = False
        # c1 discontinuity at the cap rim makes finite differences disagree
        rho = np.hypot(*np.meshgrid(xs, xs))
        ring = np.abs(rho - np.sqrt(1.0 * (2 * 5.0 - 1.0))) < 2.0 / ppm
        ok = interior & ~ring
        assert np.max(np.abs(n[ok] - want[ok])) < 0.02

    def test_render_range_and_determinism(self):
        hm = sim.indent_heightmap(sim.Sphere(5.0), (15.0, 15.0), 1.0, (48, 48))
        a = sim.render_tactile(hm)
        b = sim.render_tactile(hm)
        assert np.array_equal(a.pixels, b.pixels)
        assert a.pixels.min() >= 0.0 and a.pixels.max() <= 1.0

    def test_noise_requires_rng(self):
        hm = sim.indent_heightmap(sim.Sphere(5.0), (15.0, 15.0), 1.0, (32, 32))
        with pytest.raises(ValueError):
            sim.render_tactile(hm, noise_sigma=0.05)
        noisy = sim.render_tactile(hm, noise_sigma=0.05,
                                   rng=np.random.default_rng(0))
        clean = sim.render_tactile(hm)
        assert not np.array_equal(noisy.pixels, clean.pixels)


class TestMarkers:
    def test_grid_count_and_margins(self):
        m = sim.marker_grid(GEL, 16.0, (480, 480))
        assert len(m) == GEL.marker_rows * GEL.marker_cols
        assert m.xy.min() > 0 and m.xy.max() < 479.0

    def test_zero_shear_or_empty_contact_is_identity(self):
        rest = sim.marker_grid(GEL, 8.0, (240, 240))
        empty = ContactMask(np.zeros((240, 240), dtype=bool), 0.3, 8.0)
        disc = _disc_mask(240, 8.0, (15.0, 15.0), 5.0)
        same = sim.deform_markers(rest, disc, np.zeros(2))
        assert np.array_equal(same.xy, rest.xy)
        same2 = sim.deform_markers(rest, empty, np.array([1.0, 0.0]))
        assert np.array_equal(same2.xy, rest.xy)

    def test_translation_moves_contact_markers_by_full_shear(self):
        rest = sim.marker_grid(GEL, 8.0, (240, 240))
        disc = _disc_mask(240, 8.0, (15.0, 15.0), 6.0)
        shear = np.array([2.0, -1.0])
        moved = sim.deform_markers(rest, disc, shear, "translation")
        inside = disc.values[np.clip(rest.xy[:, 1].astype(int), 0, 239),
                             np.clip(rest.xy[:, 0].astype(int), 0, 239)]
        assert inside.sum() >= 4
        delta = moved.xy - rest.xy
        assert np.allclose(delta[inside], shear * 8.0, atol=1e-9)
        far = np.linalg.norm(rest.xy - disc.centroid(), axis=1) > 100
        assert np.all(np.linalg.norm(delta[far], axis=1)
                      < np.linalg.norm(shear) * 8.0)

    def test_rotation_is_tangential(self):
        rest = sim.marker_grid(GEL, 8.0, (240, 240))
        disc = _disc_mask(240, 8.0, (15.0, 15.0), 6.0)
        moved = sim.deform_markers(rest, disc, np.array([0.5, 0.0]), "rotation")
        delta = moved.xy - rest.xy
        rel = rest.xy - disc.centroid()
        radial = np.abs(np.sum(delta * rel, axis=1))
        assert np.all(radial < 1e-9 + 1e-9 * np.linalg.norm(rel, axis=1))

    def test_mode_and_magnitude_validation(self):
        rest = sim.marker_grid(GEL, 8.0, (240, 240))
        disc = _disc_mask(240, 8.0, (15.0, 15.0), 5.0)
        with pytest.raises(ValueError):
            sim.deform_markers(rest, disc, np.array([1.0, 0.0]), "stretch")
        with pytest.raises(ValueError):
            sim.deform_markers(rest, disc, np.array([10.0, 0.0]))


class TestSlipSequence:
    def _seq(self, load=20.0, seed=0, n=120):
        scene = sim.GraspScene(pose="top", load_g=load)
        return sim.synth_slip_sequence(scene, n, GEL,
                                       np.random.default_rng(seed))

    def test_lengths_and_determinism(self):
        a = self._seq()
        b = self._seq()
        assert len(a) == 120
        assert len(a.tracks) == 120 and a.labels.shape == (120,)
        assert np.array_equal(a.object_track, b.object_track)
        assert np.allclose(a.tracks[50].xy, b.tracks[50].xy)

    def test_labels_consistent_with_true_diff(self):
        seq = self._seq(load=50.0)
        assert np.array_equal(seq.labels, seq.true_diff > 10.0)
        assert seq.labels.sum() > 0

    def test_zero_load_never_slips(self):
        seq = self._seq(load=0.0)
        assert seq.phase3_start is None
        assert not seq.labels.any()

    def test_phases_ordered(self):
        seq = self._seq(load=50.0)
        assert 0 < seq.phase2_start < seq.phase3_start < len(seq)

    def test_heavier_load_slips_earlier(self):
        early = self._seq(load=50.0).phase3_start
        late = self._seq(load=10.0).phase3_start
        assert early < late

    @pytest.mark.parametrize("pose, load, depth, noise", [
        ("top", 0.0, 1.0, 0.02), ("top", 10.0, 1.0, 0.02),
        ("top", 50.0, 1.0, 0.02), ("side", 0.0, 1.0, 0.02),
        ("side", 10.0, 1.0, 0.02), ("side", 50.0, 1.0, 0.02),
        # the cap covers the whole frame and its box is clipped on all sides
        ("top", 20.0, 16.0, 0.02),
        ("side", 50.0, 1.0, 0.0),
        # noise wide enough to pass the threshold off the cap
        ("top", 10.0, 2.0, 0.15),
        # the burst drives the centre into the clamp at the gel edge
        ("side", 2000.0, 1.0, 0.02),
    ])
    def test_masks_match_full_frame_formula(self, pose, load, depth, noise):
        scene = sim.GraspScene(pose=pose, load_g=load)
        seq = sim.synth_slip_sequence(scene, 24, GEL, np.random.default_rng(4),
                                      depth_mm=depth, mask_noise_mm=noise)
        want = slip_masks_reference(seq, 16.0, depth, np.random.default_rng(4),
                                    mask_noise_mm=noise)
        for mask, ref in zip(seq.masks, want):
            assert np.array_equal(mask.values, ref)
        if load == 2000.0:
            track_mm = seq.object_track / seq.px_per_mm
            assert np.ptp(track_mm[:, 0]) > 0
            assert track_mm[-1, 0] == GEL.gel_size_mm - (
                np.sqrt(2.0 * 16.0 * depth - depth ** 2) + 0.5)

    @pytest.mark.parametrize("depth", [0.0, 0.2, 0.3, 16.5, 40.0, np.nan])
    def test_depth_outside_cap_range_raises(self, depth):
        with pytest.raises(ValueError, match="depth"):
            sim.synth_slip_sequence(sim.GraspScene(), 20, GEL,
                                    np.random.default_rng(0), depth_mm=depth)

    def test_depth_at_sphere_radius_accepted(self):
        fruit = _FakeFruit(1.0, 24.0, "smooth")
        seq = sim.synth_slip_sequence(sim.GraspScene(fruit=fruit), 10, GEL,
                                      np.random.default_rng(0), depth_mm=12.0)
        assert all(m.area > 0 for m in seq.masks)

    def test_benchmark_grid_size(self):
        trials = sim.make_slip_benchmark(seed=1, loads=(10.0, 50.0),
                                         repeats=1, n_frames=60)
        assert len(trials) == 2 * 2 * 1
        poses = {t.pose for t in trials}
        assert poses == {"top", "side"}


class TestDatasets:
    def test_shear_dataset_shapes_and_determinism(self):
        pairs, labels = sim.make_shear_dataset(5, rng=np.random.default_rng(3))
        pairs2, labels2 = sim.make_shear_dataset(5, rng=np.random.default_rng(3))
        assert len(pairs) == 5 and labels.shape == (5, 2)
        assert np.array_equal(labels, labels2)
        rest, moved, mask = pairs[0]
        assert len(rest) == len(moved)
        assert mask.area > 0

    def test_force_samples_follow_linear_model(self):
        currents, forces = sim.make_force_samples(
            4000, np.random.default_rng(0), noise=0.0)
        fit = np.polynomial.polynomial.polyfit(forces, currents, 1)
        assert fit[1] == pytest.approx(sim.CURRENT_GAIN, abs=1e-9)
        assert fit[0] == pytest.approx(sim.CURRENT_OFFSET, abs=1e-9)
        assert forces.min() >= 0.5 and forces.max() <= 8.0

    def test_compression_clip_monotone_current(self):
        fruit = _FakeFruit(1.2, 20.0, "smooth")
        frames, currents = sim.synth_compression_clip(
            fruit, n_frames=8, rng=np.random.default_rng(0),
            resolution=48, current_noise=0.0)
        assert len(frames) == 8 and currents.shape == (8,)
        assert np.all(np.diff(currents) > 0)
        assert all(isinstance(f, DiffFrame) for f in frames)

    @pytest.mark.parametrize("fruit_type, noise_sigma, current_noise", [
        ("smooth", 0.0, 0.0), ("cherry_tomato", 0.01, sim.CURRENT_NOISE),
        ("strawberry", 0.02, 0.0), ("strawberry", 0.0, sim.CURRENT_NOISE)])
    def test_compression_clip_bit_equal_to_frame_loop(self, fruit_type,
                                                       noise_sigma,
                                                       current_noise):
        fruit = _FakeFruit(0.9, 18.0, fruit_type)
        kwargs = dict(n_frames=5, gel=GEL, rig=sim.default_rig(),
                      squeeze_mm=3.0, resolution=40, noise_sigma=noise_sigma,
                      current_noise=current_noise)
        frames, currents = sim.synth_compression_clip(
            fruit, rng=np.random.default_rng(6), **kwargs)
        want_frames, want_currents = compression_clip_reference(
            fruit, rng=np.random.default_rng(6), **kwargs)
        assert currents.tobytes() == want_currents.tobytes()
        assert len(frames) == len(want_frames)
        for frame, want in zip(frames, want_frames):
            assert frame.values.tobytes() == want.tobytes()
            assert frame.px_per_mm == 40 / GEL.gel_size_mm

    def test_compression_clip_checks_every_depth(self):
        # the gel takes 1.2 / 3.2 of the squeeze: 15 mm of a 40 mm squeeze,
        # deeper than the 10 mm fruit radius from the sixth of 8 frames on
        fruit = _FakeFruit(1.2, 20.0, "smooth")
        with pytest.raises(ValueError, match="exceeds shape height"):
            sim.synth_compression_clip(fruit, n_frames=8, squeeze_mm=40.0,
                                       resolution=32)
        for squeeze in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="non-negative"):
                sim.synth_compression_clip(fruit, n_frames=8,
                                           squeeze_mm=squeeze, resolution=32)

    def test_stiffer_fruit_draws_more_current(self):
        soft = sim.synth_compression_clip(
            _FakeFruit(0.6, 20.0, "smooth"), n_frames=6, resolution=48,
            rng=np.random.default_rng(0), current_noise=0.0)[1]
        firm = sim.synth_compression_clip(
            _FakeFruit(2.0, 20.0, "smooth"), n_frames=6, resolution=48,
            rng=np.random.default_rng(0), current_noise=0.0)[1]
        assert firm[-1] > soft[-1]

    def test_calibration_presses_geometry(self):
        presses = sim.make_calibration_presses(4, rng=np.random.default_rng(2),
                                               resolution=64)
        assert len(presses) == 4
        for frame, center, contact_px, radius_mm, ppm in presses:
            assert isinstance(frame, DiffFrame)
            assert frame.values.shape == (64, 64, 3)
            assert radius_mm == 5.0
            assert 0 < contact_px < radius_mm * ppm
            assert 0 <= center[0] <= 63 and 0 <= center[1] <= 63

    def test_calibration_press_validation(self):
        with pytest.raises(ValueError):
            sim.make_calibration_presses(0)
        with pytest.raises(ValueError):
            sim.make_calibration_presses(2, depth_range=(0.5, 6.0))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sequence_masks_never_empty(self, seed):
        scene = sim.GraspScene(load_g=20.0)
        seq = sim.synth_slip_sequence(scene, 30, GEL,
                                      np.random.default_rng(seed))
        assert all(m.area > 0 for m in seq.masks)


class _FakeFruit:
    def __init__(self, stiffness, diameter, fruit_type):
        self.stiffness_n_mm = stiffness
        self.diameter_mm = diameter
        self.fruit_type = fruit_type


def _disc_mask(size, ppm, center_mm, radius_mm):
    xs = (np.arange(size) + 0.5) / ppm
    xm, ym = np.meshgrid(xs, xs)
    inside = (xm - center_mm[0]) ** 2 + (ym - center_mm[1]) ** 2 \
        <= radius_mm ** 2
    return ContactMask(inside, 0.3, ppm)
