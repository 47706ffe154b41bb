"""Synthetic sensor: shapes, rendering, marker motion, sequence generators."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripsense import sim, softness
from gripsense.core import DiffFrame, HeightMap
from gripsense.slip import ContactMask
from oracles import (cap_height, cap_normals_fd, compression_clip_reference,
                     gradient_normals_reference, press, render_reference,
                     shade_reference, shear_dataset_reference,
                     slip_masks_reference, slip_tracks_reference)

GEL = sim.GelModel()
rng = np.random.default_rng(11)

# (rows, columns) of a patch of random heights on a 20 x 27 frame, or a
# whole-frame pattern: each case puts the heights' box somewhere else
HEIGHT_CASES = {
    "top edge": (slice(0, 4), slice(9, 16)),
    "bottom edge": (slice(16, 20), slice(9, 16)),
    "left edge": (slice(7, 12), slice(0, 3)),
    "right edge": (slice(7, 12), slice(24, 27)),
    "top-left corner": (slice(0, 2), slice(0, 2)),
    "top-right corner": (slice(0, 3), slice(25, 27)),
    "bottom-left corner": (slice(18, 20), slice(0, 3)),
    "bottom-right corner": (slice(19, 20), slice(26, 27)),
    "one pixel": (slice(9, 10), slice(13, 14)),
    "two pixels apart": None,
    "flat": None,
    "signed zeros": None,
    "everywhere": None,
    "negative": None,
}


def _heights(case):
    """The (20, 27) heights, in mm, of one of ``HEIGHT_CASES``."""
    r = np.random.default_rng(len(case))
    values = np.zeros((20, 27))
    if HEIGHT_CASES[case] is not None:
        patch = values[HEIGHT_CASES[case]]
        patch[:] = r.uniform(0.05, 0.8, patch.shape)
    elif case == "two pixels apart":
        values[4, 5], values[15, 21] = 0.3, 0.6
    elif case == "signed zeros":
        # a block of -0.0 wide enough that some blurred pixels sum only -0.0
        values[:] = np.where(r.random(values.shape) < 0.5, -0.0, 0.0)
        values[3:18, 3:24] = -0.0
    elif case == "everywhere":
        values[:] = r.uniform(0.05, 0.8, values.shape)
    elif case == "negative":
        values[5:14, 8:20] = -r.uniform(0.05, 0.8, (9, 12))
    return values


# the default rig, and one with zero and non-zero intensities in every
# light and every channel
_MIXED = np.array([[0.35, 0.0, 0.2], [0.0, 0.0, 0.5], [0.3, 0.25, 0.0]])
_DIRS = np.array([[0.5, 0.0, math.sqrt(0.75)], [-0.3, 0.4, math.sqrt(0.75)],
                  [0.0, -0.6, 0.8]])
RIGS = {"default": sim.default_rig(), "mixed": sim.LightRig(_DIRS, _MIXED)}


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

    @pytest.mark.parametrize("make, field", [
        (lambda: sim.GraspScene(load_g=np.nan), "load_g"),
        (lambda: sim.GraspScene(load_g=-1.0), "load_g"),
        (lambda: sim.Sphere(np.inf), "radius_mm"),
        (lambda: sim.Sphere(np.nan), "radius_mm"),
        (lambda: sim.HexPyramid(np.nan, 2.0), "base_diameter_mm"),
        (lambda: sim.HexPyramid(10.0, np.inf), "height_mm"),
        (lambda: sim.FruitSurface(np.nan, 0.1), "bump_density"),
        (lambda: sim.FruitSurface(0.5, np.inf), "bump_amplitude_mm"),
        (lambda: sim.FruitSurface(0.5, 0.1, np.nan), "base_radius_mm"),
        (lambda: sim.GelModel(gel_size_mm=np.inf), "gel_size_mm")])
    def test_scene_types_reject_non_finite_and_fractional(self, make, field):
        with pytest.raises(ValueError, match=field):
            make()


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
        smooth = sim._gaussian_blur(raw.values, raw.px_per_mm)
        assert smooth.max() < raw.values.max()
        assert np.isclose(smooth.sum(), raw.values.sum(), rtol=1e-6)

    # odd and even sides; at sigma 2.5 px the kernel radius, 10, reaches
    # past the 7- and 10-pixel sides, so every tap of those lands in padding
    @pytest.mark.parametrize("shape, sigma_px", [
        ((64, 64), 64 / 30.0), ((33, 48), 1.3), ((7, 10), 2.5), ((10, 7), 2.5),
        ((1, 12), 0.6), ((21, 5), 4.7), ((5, 33, 48), 1.3)])
    def test_press_bit_equal_to_ndimage(self, shape, sigma_px):
        # each raster of a stacked input blurs as it would alone; ``press``
        # is the single-raster ndimage oracle
        values = np.random.default_rng(sum(shape)).random(shape)
        got = sim._gaussian_blur(values, sigma_px)
        assert got.shape == values.shape
        for blurred, raster in zip(got.reshape((-1,) + shape[-2:]),
                                   values.reshape((-1,) + shape[-2:])):
            want = press(HeightMap(raster, 1.0), sigma_px).values
            assert blurred.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", sorted(HEIGHT_CASES) + ["stacked"])
    def test_blur_of_a_contact_box_bit_equal_to_ndimage(self, case):
        """Heights that touch each edge and corner, a one-pixel bump, flat
        and signed-zero rasters, and all of them stacked, whose box is their
        union: the blur of the box around the heights is ndimage's blur of
        each whole raster."""
        values = (np.array([_heights(name) for name in sorted(HEIGHT_CASES)])
                  if case == "stacked" else _heights(case))
        for sigma_px in (0.8, 1.3, 64 / 30.0):
            got = sim._gaussian_blur(values, sigma_px)
            want = [press(HeightMap(raster, 1.0), sigma_px).values
                    for raster in values.reshape((-1, 20, 27))]
            assert got.tobytes() == np.array(want).tobytes()


class TestNormalsAndRendering:
    def test_flat_surface_normals_up(self):
        n = sim._normals(np.zeros((16, 16)), 4.0)
        assert np.allclose(n[:, :, 2], 1.0)

    def test_normals_match_finite_difference_oracle(self):
        res, ppm = 64, 64 / 30.0
        hm = sim.indent_heightmap(sim.Sphere(5.0), (15.0, 15.0), 1.0,
                                  (res, res))
        n = sim._normals(hm.values, hm.px_per_mm)
        xs = (np.arange(res) + 0.5) / ppm - 15.0
        want = cap_normals_fd(xs, xs, 5.0, 1.0)
        interior = np.ones((res, res), dtype=bool)
        interior[:2] = interior[-2:] = interior[:, :2] = interior[:, -2:] = False
        # c1 discontinuity at the cap rim makes finite differences disagree
        rho = np.hypot(*np.meshgrid(xs, xs))
        ring = np.abs(rho - np.sqrt(1.0 * (2 * 5.0 - 1.0))) < 2.0 / ppm
        ok = interior & ~ring
        assert np.max(np.abs(n[ok] - want[ok])) < 0.02

    @pytest.mark.parametrize("shape", [(2, 2), (2, 7), (8, 8), (64, 48),
                                       (3, 40, 33)])
    def test_normals_bit_equal_to_gradient_stack(self, shape):
        values = np.random.default_rng(len(shape)).normal(0.0, 0.5, shape)
        got = sim._normals(values, 2.5)
        want = gradient_normals_reference(values, 2.5)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (4, 1, 6)])
    def test_normals_need_two_heights_per_axis(self, shape):
        with pytest.raises(ValueError, match="at least 2"):
            sim._normals(np.zeros(shape), 2.5)

    @pytest.mark.parametrize("rig", ["default", "mixed"])
    @pytest.mark.parametrize("case", sorted(HEIGHT_CASES))
    def test_render_bit_equal_to_full_frame_oracle(self, case, rig):
        """``render_tactile`` shades only around the heights; its frame is
        the whole-frame oracle's, byte for byte, with and without noise."""
        values, lights = _heights(case), RIGS[rig]
        hm = HeightMap(values, 2.5)
        got = sim.render_tactile(hm, lights).pixels
        want = render_reference(values, 2.5, lights)
        assert got.tobytes() == want.tobytes()
        got = sim.render_tactile(hm, lights, GEL, 0.02,
                                 np.random.default_rng(1)).pixels
        want = render_reference(values, 2.5, lights, 0.02,
                                np.random.default_rng(1))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rig", ["default", "mixed"])
    def test_stacked_shade_bit_equal_to_full_frame_oracle(self, rig):
        """Every height case in one stack, whose box is their union: each
        raster's unclipped image is the whole-frame oracle's."""
        lights = RIGS[rig]
        stack = np.array([_heights(name) for name in sorted(HEIGHT_CASES)])
        got = sim._shade(stack, 2.5, lights)
        want = shade_reference(stack, 2.5, lights)
        assert got.shape == stack.shape + (3,)
        assert got.tobytes() == want.tobytes()

    def test_flat_heights_take_no_normals(self, monkeypatch):
        """A flat frame is the flat gel's colour, found without a single
        normal."""
        calls = []
        normals = sim._normals
        monkeypatch.setattr(sim, "_normals",
                            lambda v, ppm: calls.append(v.shape) or normals(v, ppm))
        for lights in RIGS.values():
            for flat in (np.zeros((3, 20, 27)), np.full((20, 27), -0.0)):
                got = sim._shade(flat, 2.5, lights)
                want = shade_reference(flat, 2.5, lights)
                assert got.tobytes() == want.tobytes()
        assert calls == []

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_render_rejects_bad_noise(self, bad):
        hm = sim.indent_heightmap(sim.Sphere(5.0), (15.0, 15.0), 1.0, (32, 32))
        with pytest.raises(ValueError, match="noise_sigma"):
            sim.render_tactile(hm, noise_sigma=bad, rng=np.random.default_rng(0))

    def test_zero_noise_draws_nothing(self):
        hm = sim.indent_heightmap(sim.Sphere(5.0), (15.0, 15.0), 1.0, (32, 32))
        r = np.random.default_rng(0)
        state = r.bit_generator.state
        frame = sim.render_tactile(hm, noise_sigma=0.0, rng=r)
        assert r.bit_generator.state == state
        assert frame.pixels.tobytes() == sim.render_tactile(hm).pixels.tobytes()

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
        assert len(m) == sim.MARKER_ROWS * sim.MARKER_COLS
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
        inside = disc.raster()[np.clip(rest.xy[:, 1].astype(int), 0, 239),
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

    def test_frames_are_its_own_and_one_per_label(self):
        seq = self._seq(n=20)
        masks, tracks = list(seq.masks), list(seq.tracks)
        kept = dataclasses.replace(seq, masks=masks, tracks=tracks)
        masks.append(masks[0])
        tracks.pop()
        assert len(kept) == len(kept.tracks) == 20
        assert kept.masks == seq.masks and kept.tracks == seq.tracks
        for bad in ({"masks": masks}, {"tracks": tracks}):
            with pytest.raises(ValueError, match="differ in length"):
                dataclasses.replace(seq, **bad)

    def test_masks_hold_their_contact_box(self):
        """At 480x480 every mask keeps the box of its cap, not the frame:
        together at most a fifth of their whole rasters' bytes."""
        seq = self._seq(load=50.0, n=24)
        assert all(m.frame_shape == (480, 480) for m in seq.masks)
        held = sum(m.values.nbytes for m in seq.masks)
        assert 0 < held <= len(seq.masks) * 480 * 480 / 5

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

    @pytest.mark.parametrize("pose, load, depth", [
        ("top", 0.0, 1.0), ("top", 10.0, 1.0), ("top", 50.0, 1.0),
        ("side", 0.0, 1.0), ("side", 10.0, 1.0), ("side", 50.0, 1.0),
        # the cap covers the whole frame and its box is clipped on all sides
        ("top", 20.0, 16.0),
        # the burst drives the centre into the clamp at the gel edge
        ("side", 2000.0, 1.0),
    ])
    def test_masks_match_full_frame_formula(self, pose, load, depth):
        scene = sim.GraspScene(pose=pose, load_g=load)
        seq = sim.synth_slip_sequence(scene, 24, GEL, np.random.default_rng(4),
                                      depth_mm=depth)
        want = slip_masks_reference(seq, 16.0, depth, np.random.default_rng(4))
        for mask, ref in zip(seq.masks, want):
            assert np.array_equal(mask.raster(), ref)
        if load == 2000.0:
            track_mm = seq.object_track / seq.px_per_mm
            assert np.ptp(track_mm[:, 0]) > 0
            assert track_mm[-1, 0] == GEL.gel_size_mm - (
                np.sqrt(2.0 * 16.0 * depth - depth ** 2) + 0.5)

    @pytest.mark.parametrize("pose, jitter", [
        ("top", 0.3), ("side", 0.0), ("side", 2.0)])
    def test_tracks_match_per_frame_draws(self, pose, jitter):
        seq = sim.synth_slip_sequence(
            sim.GraspScene(pose=pose, load_g=50.0), 24, GEL,
            np.random.default_rng(6), marker_jitter_px=jitter)
        want = slip_tracks_reference(seq, GEL, np.random.default_rng(6),
                                     jitter)
        got = np.array([t.xy for t in seq.tracks])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["marker_jitter_px"])
    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_rejects_bad_noise(self, name, bad):
        with pytest.raises(ValueError, match=name):
            sim.synth_slip_sequence(sim.GraspScene(), 20, GEL,
                                    np.random.default_rng(0), **{name: bad})

    @pytest.mark.parametrize("depth", [0.0, 0.2, 0.3, 16.5, 40.0, np.nan])
    def test_depth_outside_cap_range_raises(self, depth):
        with pytest.raises(ValueError, match="depth"):
            sim.synth_slip_sequence(sim.GraspScene(), 20, GEL,
                                    np.random.default_rng(0), depth_mm=depth)

    def test_depth_at_sphere_radius_accepted(self):
        assert sim.SLIP_SPHERE_RADIUS_MM == 16.0
        seq = sim.synth_slip_sequence(sim.GraspScene(), 10, GEL,
                                      np.random.default_rng(0), depth_mm=16.0)
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

    @pytest.mark.parametrize("mask_px", [128, 240, 320])
    def test_shear_dataset_bit_equal_to_full_frame_oracle(self, mask_px):
        """The sphere evaluated in its contact box gives the whole frame's
        masks, moved markers and labels, byte for byte."""
        pairs, labels = sim.make_shear_dataset(
            12, rng=np.random.default_rng(mask_px), mask_px=mask_px)
        want_pairs, want_labels = shear_dataset_reference(
            12, GEL, np.random.default_rng(mask_px), mask_px)
        assert labels.tobytes() == want_labels.tobytes()
        for (rest, moved, mask), (want_rest, want_moved, want_mask) in zip(
                pairs, want_pairs, strict=True):
            assert rest.xy.tobytes() == want_rest.xy.tobytes()
            assert moved.xy.tobytes() == want_moved.xy.tobytes()
            assert mask.support == want_mask.support
            assert mask.frame_shape == want_mask.frame_shape
            assert mask.values.tobytes() == want_mask.values.tobytes()

    @pytest.mark.parametrize("mask_px", [0, -3, 2.5, float("nan"),
                                         float("inf")])
    def test_shear_dataset_rejects_bad_mask_px(self, mask_px):
        with pytest.raises(ValueError, match="mask_px"):
            sim.make_shear_dataset(2, mask_px=mask_px)

    def test_force_samples_follow_linear_model(self):
        """Currents are the linear motor model plus zero-mean noise of
        sigma ``CURRENT_NOISE``."""
        currents, forces = sim.make_force_samples(
            4000, np.random.default_rng(0))
        noise = currents - (sim.CURRENT_GAIN * forces + sim.CURRENT_OFFSET)
        assert abs(noise.mean()) < 4 * sim.CURRENT_NOISE / np.sqrt(4000)
        assert noise.std() == pytest.approx(sim.CURRENT_NOISE, rel=0.05)
        assert forces.min() >= 0.5 and forces.max() <= 8.0

    def test_compression_clip_monotone_current(self):
        """The current is the motor model of the gel's share of the force,
        which rises frame by frame, within 4 sigma of its noise."""
        fruit = _FakeFruit(1.2, 20.0, "smooth")
        frames, currents = sim.synth_compression_clip(
            fruit, n_frames=8, rng=np.random.default_rng(0), resolution=48)
        assert len(frames) == 8 and currents.shape == (8,)
        x_gel = sim.SQUEEZE_MM * np.arange(1, 9) / 8 * 1.2 / (
            sim.SERIES_STIFFNESS + 1.2)
        model = sim.CURRENT_GAIN * sim.SERIES_STIFFNESS * x_gel \
            + sim.CURRENT_OFFSET
        assert np.all(np.diff(model) > 0)
        assert np.all(np.abs(currents - model) < 4 * sim.CURRENT_NOISE)

    @pytest.mark.parametrize("fruit_type, noise_sigma", [
        ("smooth", 0.0), ("cherry_tomato", 0.01), ("strawberry", 0.02),
        ("strawberry", 0.0)])
    def test_compression_clip_bit_equal_to_frame_loop(self, fruit_type,
                                                       noise_sigma):
        fruit = _FakeFruit(0.9, 18.0, fruit_type)
        kwargs = dict(n_frames=5, resolution=40, noise_sigma=noise_sigma)
        frames, currents = sim.synth_compression_clip(
            fruit, rng=np.random.default_rng(6), **kwargs)
        want_frames, want_currents = compression_clip_reference(
            fruit, rng=np.random.default_rng(6), **kwargs)
        assert currents.tobytes() == want_currents.tobytes()
        assert len(frames) == len(want_frames)
        for frame, want in zip(frames, want_frames):
            assert frame.tobytes() == want.tobytes()

    def test_compression_clip_reaching_the_frame_edges_matches_oracle(self):
        """A fruit whose deepest cap, blurred, covers the whole gel: every
        box is clipped to the frame on all four sides."""
        fruit = _FakeFruit(20.0, 200.0, "strawberry")
        kwargs = dict(n_frames=4, resolution=32, noise_sigma=0.0)
        frames, currents = sim.synth_compression_clip(
            fruit, rng=np.random.default_rng(2), **kwargs)
        want_frames, want_currents = compression_clip_reference(
            fruit, rng=np.random.default_rng(2), **kwargs)
        assert currents.tobytes() == want_currents.tobytes()
        assert frames.tobytes() == np.array(want_frames).tobytes()
        edges = frames[-1]
        for edge in (edges[0], edges[-1], edges[:, 0], edges[:, -1]):
            assert np.all(edge.any(axis=-1))

    def test_compression_clip_is_one_stack_of_frame_views(self):
        """The clip's differences come back as one plain float64
        (T, H, W, 3) array in [-1, 1], whose frames are views of it."""
        fruit = _FakeFruit(1.2, 20.0, "cherry_tomato")
        frames, _ = sim.synth_compression_clip(
            fruit, n_frames=5, rng=np.random.default_rng(0), resolution=32,
            noise_sigma=0.01)
        assert type(frames) is np.ndarray and frames.dtype == np.float64
        assert frames.shape == (5, 32, 32, 3) and frames.flags.c_contiguous
        assert -1.0 <= frames.min() and frames.max() <= 1.0
        for t in (0, 4, -1):
            assert np.shares_memory(frames[t], frames) and frames[t].any()

    @pytest.mark.parametrize("name", ["noise_sigma"])
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_compression_clip_rejects_bad_noise(self, name, bad):
        with pytest.raises(ValueError, match=name):
            sim.synth_compression_clip(_FakeFruit(1.2, 20.0, "smooth"),
                                       n_frames=4, resolution=32,
                                       **{name: bad})

    def test_calibration_presses_reject_bad_noise(self):
        for bad in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="noise_sigma"):
                sim.make_calibration_presses(2, noise_sigma=bad)

    def test_compression_clip_checks_every_depth(self):
        # the gel takes 1.2 / 3.2 of the 3 mm squeeze, 1.125 mm, deeper
        # than the 1 mm fruit radius on the last of 8 frames alone
        fruit = _FakeFruit(1.2, 2.0, "smooth")
        with pytest.raises(ValueError, match="exceeds shape height"):
            sim.synth_compression_clip(fruit, n_frames=8, resolution=32)

    def test_stiffer_fruit_draws_more_current(self):
        soft = sim.synth_compression_clip(
            _FakeFruit(0.6, 20.0, "smooth"), n_frames=6, resolution=48,
            rng=np.random.default_rng(0))[1]
        firm = sim.synth_compression_clip(
            _FakeFruit(2.0, 20.0, "smooth"), n_frames=6, resolution=48,
            rng=np.random.default_rng(0))[1]
        assert firm[-1] > soft[-1]

    def test_calibration_presses_geometry(self):
        presses = sim.make_calibration_presses(4, rng=np.random.default_rng(2),
                                               resolution=64)
        assert len(presses) == 4
        for frame, center, contact_px, radius_mm in presses:
            assert isinstance(frame, DiffFrame)
            assert frame.shape == (64, 64, 3)
            assert frame.px_per_mm == 64 / GEL.gel_size_mm
            assert radius_mm == 5.0
            assert 0 < contact_px < radius_mm * frame.px_per_mm
            assert 0 <= center[0] <= 63 and 0 <= center[1] <= 63

    def test_calibration_press_validation(self):
        with pytest.raises(ValueError):
            sim.make_calibration_presses(0)
        # the presses reach 1.2 mm deep, so the sphere must be larger
        for radius in (1.2, 0.5, float("nan")):
            with pytest.raises(ValueError, match="sphere radius"):
                sim.make_calibration_presses(2, radius)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sequence_masks_never_empty(self, seed):
        scene = sim.GraspScene(load_g=20.0)
        seq = sim.synth_slip_sequence(scene, 30, GEL,
                                      np.random.default_rng(seed))
        assert all(m.area > 0 for m in seq.masks)


class TestBoxRendering:
    """A default squeeze clip, 24 frames of 64 x 64 for the library's
    hardest strawberry, renders only the box its contact reaches."""

    @staticmethod
    def _clip():
        fruit = _FakeFruit(
            softness.shore00_stiffness(max(softness.SHORE00_LEVELS)), 18.0,
            "strawberry")
        return sim.synth_compression_clip(fruit, rng=np.random.default_rng(0),
                                          noise_sigma=0.01)

    def test_default_clip_peak_memory(self):
        """The clip's traced peak stays under 2.5 times its 2.25 MB
        difference stack; shading the whole frame took 3.07 times."""
        self._clip()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            frames, _ = self._clip()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert frames.nbytes == 24 * 64 * 64 * 3 * 8
        assert peak <= 2.5 * frames.nbytes

    def test_default_clip_takes_normals_of_at_most_half_its_pixels(
            self, monkeypatch):
        sizes = []
        normals = sim._normals
        monkeypatch.setattr(
            sim, "_normals",
            lambda v, ppm: sizes.append(v.size) or normals(v, ppm))
        frames, _ = self._clip()
        assert 0 < sum(sizes) <= 0.5 * 24 * 64 * 64
        sizes.clear()
        sim.render_tactile(HeightMap(np.zeros((64, 64)), 64 / 30.0))
        assert sizes == []


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
