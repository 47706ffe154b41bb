"""Shared types, differencing and the text file formats."""

import ast
import dataclasses
import glob
import importlib
import os
import pickle
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gripsense
from gripsense import force, geometry, harvest, perception, sim, slip, softness
from gripsense.core import (DiffFrame, DisplacementField, HeightMap,
                            MarkerSet, NormalMap, TactileFrame,
                            _Frozen, _lbfgs, _poisson_solve, diff_image,
                            load_heightmap,
                            load_marker_tracks, save_heightmap,
                            save_marker_tracks)
from gripsense.slip import ContactMask

rng = np.random.default_rng(7)


class TestTactileFrame:
    def test_valid_roundtrip_properties(self):
        pixels = rng.random((8, 10, 3))
        f = TactileFrame(pixels, 4.0)
        assert f.pixels.tobytes() == pixels.tobytes() and f.px_per_mm == 4.0
        assert not f.pixels.flags.writeable

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            TactileFrame(rng.random((8, 10)), 4.0)
        with pytest.raises(ValueError):
            TactileFrame(rng.random((4, 4, 3)), 4.0)

    def test_rejects_out_of_range_and_nonfinite(self):
        bad = np.full((8, 8, 3), 1.5)
        with pytest.raises(ValueError):
            TactileFrame(bad, 4.0)
        nan = np.zeros((8, 8, 3))
        nan[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            TactileFrame(nan, 4.0)
        with pytest.raises(ValueError):
            TactileFrame(np.zeros((8, 8, 3)), 0.0)


@pytest.mark.parametrize("cls, lo, hi", [(TactileFrame, 0.0, 1.0),
                                         (DiffFrame, -1.0, 1.0)])
def test_frame_clips_slack_on_its_own_copy(cls, lo, hi):
    raw = rng.uniform(lo, hi, (8, 9, 3))
    raw[0, 0, 0], raw[1, 1, 1] = lo - 5e-10, hi + 5e-10
    raw[2, 2, 2] = -0.0
    kept = raw.copy()
    frame = cls(raw, 4.0)
    got = frame.pixels if cls is TactileFrame else frame.values
    assert np.array_equal(raw, kept)                  # the caller's array
    assert not got.flags.writeable and not np.shares_memory(got, raw)
    want = np.clip(kept, lo, hi)
    assert got.tobytes() == want.tobytes()            # bit for bit, -0.0 too
    inside = rng.uniform(lo, hi, (8, 9, 3)).astype(np.float32)
    frame = cls(inside, 4.0)
    got = frame.pixels if cls is TactileFrame else frame.values
    assert got.dtype == np.float64
    assert np.array_equal(got, inside.astype(np.float64))
    for bad in (np.inf, -np.inf, np.nan):
        v = kept.copy()
        v[3, 3, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            cls(v, 4.0)
    v = kept.copy()
    v[4, 4, 1] = hi + 2e-9
    with pytest.raises(ValueError, match="must lie in"):
        cls(v, 4.0)


class _WindowContract:
    """The window contract of ``core._Windowed``, one body a test, run on
    each windowed type by its ``Test`` class: ``support`` and
    ``frame_shape``, their checks and messages, and ``raster()``. A class
    builds its type from a 2-D boolean ``pattern`` (``make``) and gives the
    values that pattern stands for (``values``): False is the type's value
    outside the window."""

    @pytest.mark.parametrize("support", [
        (0, 4, 0), (0, 4, 0, 5, 0), 3, (0.0, 4, 0, 5), (0, 4.5, 0, 5),
        (True, 4, 0, 5), ("0", 4, 0, 5), (-1, 4, 0, 5), (0, 5, 0, 5),
        (0, 4, 0, 6), (3, 2, 0, 5), (0, 4, 4, 3)])
    def test_bad_support_window_rejected(self, support):
        with pytest.raises(ValueError, match="support"):
            self.make(np.zeros((4, 5)), support, (4, 5))

    @pytest.mark.parametrize("values_shape, support, frame_shape", [
        ((4, 5), (0, 4, 0, 4), (4, 5)), ((2, 3), (1, 3, 0, 2), (4, 5)),
        ((3, 2), (1, 3, 0, 2), (4, 5)), ((1, 1), (0, 0, 0, 0), (4, 5)),
        ((0, 0), (1, 1, 2, 4), (4, 5)), ((4, 5), None, (4, 6))])
    def test_window_shape_must_fill_its_support(self, values_shape, support,
                                                frame_shape):
        with pytest.raises(ValueError, match="do not fill the window"):
            self.make(np.zeros(values_shape), support, frame_shape)

    @pytest.mark.parametrize("frame_shape", [
        None, (4,), (4, 5, 3), (0, 5), (4, -1), (4.0, 5), (True, 5), "45"])
    def test_window_needs_a_frame_shape(self, frame_shape):
        with pytest.raises(ValueError, match="frame_shape"):
            self.make(np.zeros((0, 0)), (0, 0, 0, 0), frame_shape)

    @pytest.mark.parametrize("args, match", [
        (((3, 4), (0, 3, 0, 4)), "frame_shape"),
        (((3, 4), (0, 3, 0, 5), (6, 6)), "fill"),
        (((3, 4), (4, 7, 0, 4), (6, 6)), "window"),
        (((3, 4), None, (3, 5)), "fill"),
        pytest.param(((0, 4),), {"NormalMap": "must be non-empty",
                                 "ContactMask": "frame_shape"},
                     id="args4-frame_shape"),
        pytest.param(((4,),), {"NormalMap": r"must be \(h, w, 3\)",
                               "ContactMask": "2-D"}, id="args5-2-D"),
    ])
    def test_rejects_bad_window(self, args, match):
        if isinstance(match, dict):             # a whole raster's own check
            match = match[type(self).__name__.removeprefix("Test")]
        with pytest.raises(ValueError, match=match):
            self.make(np.zeros(args[0]), *args[1:])

    def test_raster_is_fresh_and_flat_outside_the_window(self):
        pattern = np.random.default_rng(5).random((3, 4)) < 0.5
        pattern[0, 0] = pattern[-1, -1] = True
        m = self.make(pattern, (1, 4, 2, 6), (6, 7))
        assert m.frame_shape == (6, 7)
        kept = m.values.copy()
        got = m.raster()
        assert got.flags.writeable and not np.shares_memory(got, m.values)
        assert not m.values.flags.writeable
        frame = np.zeros((6, 7), dtype=bool)
        frame[1:4, 2:6] = pattern
        want = self.values(frame)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(m.crop(got), m.values)
        got[1:4, 2:6] = self.values(np.zeros((3, 4), dtype=bool))
        assert np.all(got == self.values(np.zeros((1, 1), dtype=bool)))
        assert np.array_equal(m.values, kept)               # unchanged


class TestNormalMap(_WindowContract):
    @staticmethod
    def values(pattern):
        """Unit normals tilted toward +x where ``pattern`` holds, flat
        elsewhere."""
        return np.where(np.asarray(pattern, dtype=bool)[..., None],
                        (0.6, 0.0, 0.8), (0.0, 0.0, 1.0))

    def make(self, pattern, *window):
        return NormalMap(self.values(pattern), *window)

    def test_requires_unit_length_and_positive_nz(self):
        n = np.zeros((4, 4, 3))
        n[:, :, 2] = 1.0
        NormalMap(n)
        with pytest.raises(ValueError):
            NormalMap(n * 1.001)
        down = n.copy()
        down[:, :, 2] = -1.0
        with pytest.raises(ValueError):
            NormalMap(down)

    @pytest.mark.parametrize("support", [
        (0, 4, 0, 5), (1, 3, 2, 2), (0, 0, 0, 0), [4, 4, 5, 5],
        np.array([1, 2, 3, 4], dtype=np.int32)])
    def test_support_window_kept_as_ints(self, support):
        n = np.zeros((4, 5, 3))
        n[:, :, 2] = 1.0
        r0, r1, c0, c1 = support
        got = NormalMap(n[r0:r1, c0:c1], support, (4, 5)).support
        assert got == tuple(int(b) for b in support)
        assert all(type(b) is int for b in got)
        assert NormalMap(n).support == (0, 4, 0, 5)

    def test_whole_raster_is_one_full_window(self):
        n = self.values(np.random.default_rng(5).random((6, 7)) < 0.5)
        whole = NormalMap(n)
        assert whole.frame_shape == (6, 7) and whole.support == (0, 6, 0, 7)
        again = whole.raster()
        assert again.flags.writeable and not np.shares_memory(again,
                                                              whole.values)
        assert again.tobytes() == n.tobytes()

    def test_empty_window_is_flat_and_integrates_to_zero(self):
        nm = NormalMap(np.zeros((0, 0, 3)), (0, 0, 0, 0), (6, 7))
        assert nm.values.shape == (0, 0, 3) and nm.frame_shape == (6, 7)
        want = np.zeros((6, 7, 3))
        want[:, :, 2] = 1.0
        assert np.array_equal(nm.raster(), want)
        hm = geometry.integrate_normals(nm, 4.0)
        assert hm.values.shape == (6, 7)
        assert hm.values.tobytes() == np.zeros((6, 7)).tobytes()

    @pytest.mark.parametrize("component", [0, 2])
    def test_window_checked_for_unit_length(self, component):
        n = np.zeros((2, 3, 3))
        n[:, :, 2] = 1.0
        n[1, 2, component] = 0.5
        with pytest.raises(ValueError, match="unit length"):
            NormalMap(n, (1, 3, 0, 3), (4, 4))
        n[1, 2] = (0.0, 0.0, -1.0)
        with pytest.raises(ValueError, match="nz must be positive"):
            NormalMap(n, (1, 3, 0, 3), (4, 4))

    @pytest.mark.parametrize("component", [0, 2])
    def test_nan_component_rejected(self, component):
        n = np.zeros((4, 4, 3))
        n[:, :, 2] = 1.0
        n[1, 2, component] = np.nan
        with pytest.raises(ValueError, match="unit length"):
            NormalMap(n)


@pytest.mark.parametrize("pitch", [np.inf, np.nan, -1.0, 0.0])
@pytest.mark.parametrize("make", [
    lambda p: TactileFrame(np.zeros((8, 8, 3)), p),
    lambda p: DiffFrame(np.zeros((8, 8, 3)), p),
    lambda p: HeightMap(np.zeros((4, 4)), p),
], ids=["TactileFrame", "DiffFrame", "HeightMap"])
def test_pixel_pitch_must_be_finite_and_positive(make, pitch):
    with pytest.raises(ValueError, match="px_per_mm must be finite and positive"):
        make(pitch)


class TestHeightMap:
    def test_offset_heightmap_is_constructible(self):
        hm = HeightMap(np.full((4, 5), 0.1), 1.0)
        assert hm.shape == (4, 5)

    def test_rejects_nonfinite(self):
        for value in (np.inf, -np.inf, np.nan):
            bad = np.zeros((4, 4))
            bad[1, 1] = value
            with pytest.raises(ValueError, match="finite"):
                HeightMap(bad, 1.0)


@pytest.mark.parametrize("make", [
    lambda v: DiffFrame(v[:, :, None].repeat(3, axis=2), 1.0),
    lambda v: NormalMap(v[:, :, None].repeat(3, axis=2)),
    lambda v: HeightMap(v, 1.0),
    lambda v: DisplacementField(v[:, :, None].repeat(2, axis=2)),
], ids=["DiffFrame", "NormalMap", "HeightMap", "DisplacementField"])
@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_empty_raster_raises(make, shape):
    with pytest.raises(ValueError, match="must be non-empty"):
        make(np.zeros(shape))


@pytest.mark.parametrize("make, get", [
    (lambda v: NormalMap(v), lambda m: m.values),
    (lambda v: HeightMap(v[:, :, 2], 1.0), lambda m: m.values),
    (lambda v: DiffFrame(v, 1.0), lambda m: m.values),
], ids=["NormalMap", "HeightMap", "DiffFrame"])
def test_public_construction_copies(make, get):
    v = np.zeros((4, 5, 3))
    v[:, :, 2] = 1.0
    got = get(make(v))
    assert not got.flags.writeable and v.flags.writeable
    assert not np.shares_memory(got, v)


class TestMarkerSet:
    def test_unique_ids_required(self):
        with pytest.raises(ValueError):
            MarkerSet(np.array([1, 1]), np.zeros((2, 2)))

    def test_bounds_checked_when_given(self):
        with pytest.raises(ValueError):
            MarkerSet(np.array([0]), np.array([[5.0, 1.0]]),
                      frame_width=4.0, frame_height=4.0)

    @pytest.mark.parametrize("bounds", [
        {"frame_width": 4.0}, {"frame_height": 4.0}])
    def test_bounds_come_in_pairs(self, bounds):
        with pytest.raises(ValueError, match="given together"):
            MarkerSet([0], [[1.0, 1.0]], **bounds)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -4.0])
    @pytest.mark.parametrize("side", ["frame_width", "frame_height"])
    def test_bounds_must_be_finite_and_positive(self, side, bad):
        bounds = {"frame_width": 4.0, "frame_height": 4.0, side: bad}
        with pytest.raises(ValueError, match=f"{side} must be finite and positive"):
            MarkerSet([0], [[1.0, 1.0]], **bounds)

    def test_empty_and_moved(self):
        assert len(MarkerSet(np.empty(0, np.int64), np.empty((0, 2)))) == 0
        m = MarkerSet(np.array([3, 4]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        m2 = m.moved(np.array([[1.0, 0.0], [0.0, -1.0]]))
        assert np.allclose(m2.xy, [[2.0, 2.0], [3.0, 3.0]])
        assert np.array_equal(m2.ids, m.ids)


class TestContactMask(_WindowContract):
    @staticmethod
    def values(pattern):
        return np.asarray(pattern, dtype=bool)

    def make(self, pattern, *window):
        return ContactMask(self.values(pattern), 0.3, 1.0, *window)

    def test_area_and_centroid(self):
        v = np.zeros((6, 6), dtype=bool)
        v[2:4, 3:5] = True
        m = ContactMask(v, 0.3, 2.0)
        assert m.area == 4
        assert np.allclose(m.centroid(), [3.5, 2.5])

    def test_centroid_cached_and_readonly(self):
        v = np.zeros((5, 5), dtype=bool)
        v[1, 1] = True
        m = ContactMask(v, 0.3)
        c1 = m.centroid()
        assert m.centroid() is c1
        assert not c1.flags.writeable
        assert not m.values.flags.writeable

    @staticmethod
    def _nonzero_centroid(values):
        ys, xs = np.nonzero(values)
        return np.array([xs.mean(), ys.mean()])

    def test_centroid_bit_equal_to_nonzero_mean(self):
        r = np.random.default_rng(8)
        masks = [r.random((r.integers(1, 480), r.integers(1, 480)))
                 < r.uniform(0.001, 1.0) for _ in range(60)]
        masks += [r.random((480, 480)) < 0.5 for _ in range(10)]
        for shape, (y, x) in (((7, 9), (3, 4)), ((1, 1), (0, 0)),
                              ((480, 480), (479, 0)), ((5, 480), (4, 479))):
            single = np.zeros(shape, dtype=bool)
            single[y, x] = True
            masks.append(single)
        edges = np.zeros((300, 200), dtype=bool)
        edges[0, :] = edges[-1, 5:] = edges[:, 0] = edges[17:, -1] = True
        masks += [edges, np.ones((1024, 1024), dtype=bool)]
        for values in masks:
            if not values.any():
                continue
            got = ContactMask(values, 0.3).centroid()
            assert np.array_equal(got, self._nonzero_centroid(values))

    def test_empty_centroid_raises(self):
        m = ContactMask(np.zeros((4, 4), dtype=bool), 0.3)
        assert m.area == 0
        with pytest.raises(ValueError):
            m.centroid()

    @staticmethod
    def _resampled_raster(values, shape):
        """The nearest-neighbour resample of a whole raster."""
        (h, w), (oh, ow) = values.shape, shape
        ri = np.minimum((np.arange(oh) + 0.5) * h / oh, h - 1).astype(int)
        ci = np.minimum((np.arange(ow) + 0.5) * w / ow, w - 1).astype(int)
        return values[np.ix_(ri, ci)]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40),
           st.sampled_from(["empty", "full", "pixel", "blob"]),
           st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=3),
           st.tuples(st.integers(1, 50), st.integers(1, 50)),
           st.integers(0, 2 ** 32 - 1))
    def test_box_matches_whole_raster_formulas(self, h, w, kind, strays,
                                               shape, seed):
        """A mask built from a whole raster keeps the tight box of its
        pixels, and its area, centroid, membership, resample and raster
        equal the whole-raster formulas bit for bit, and so does a mask
        built from its nearest-neighbour map to another grid: empty, full,
        single-pixel and blob masks, blobs touching or cut by the frame
        edge, with stray pixels anywhere."""
        r = np.random.default_rng(seed)
        values = np.full((h, w), kind == "full")
        if kind == "pixel":
            values[r.integers(h), r.integers(w)] = True
        elif kind == "blob":
            yy, xx = np.ogrid[:h, :w]
            cy, cx = r.uniform(-0.2, 1.2, 2) * (h, w)
            values = (yy - cy) ** 2 + (xx - cx) ** 2 <= r.uniform(0, 12) ** 2
        for fy, fx in strays:
            values[min(int(fy * h), h - 1), min(int(fx * w), w - 1)] = True
        m = ContactMask(values, 0.3, 2.0)
        assert m.frame_shape == (h, w)
        assert m.raster().tobytes() == values.tobytes()
        assert m.area == np.count_nonzero(values)
        r0, r1, c0, c1 = m.support
        assert m.values.shape == (r1 - r0, c1 - c0)
        if m.area:
            assert m.values[[0, -1]].any(axis=1).all()
            assert m.values[:, [0, -1]].any(axis=0).all()
            assert m.centroid().tobytes() == \
                self._nonzero_centroid(values).tobytes()
        else:
            assert m.support == (0, 0, 0, 0)
        xy = r.uniform(-3.0, max(h, w) + 3.0, (20, 2))
        cells = np.rint(xy).astype(int)
        np.clip(cells, 0, np.array([w, h]) - 1, out=cells)
        assert np.array_equal(m.contains(xy), values[cells[:, 1], cells[:, 0]])
        on_grid, box, grid = m.on_grid(shape)
        small = ContactMask(on_grid, 0.3, 2.0, box, grid)
        assert small.frame_shape == shape
        assert small.raster().tobytes() == \
            self._resampled_raster(values, shape).tobytes()
        again = ContactMask(small.raster(), 0.3, 2.0)
        assert again.support == small.support
        assert again.values.tobytes() == small.values.tobytes()

    def test_window_input_keeps_the_tight_box(self):
        window = np.zeros((4, 5), dtype=bool)
        window[1:3, 2] = True
        m = ContactMask(window, 0.3, 1.0, (2, 6, 1, 6), (8, 9))
        assert m.support == (3, 5, 3, 4) and m.frame_shape == (8, 9)
        assert m.values.tolist() == [[True], [True]]
        assert np.array_equal(m.raster()[2:6, 1:6], window)
        assert m.raster().sum() == 2
        assert ContactMask(np.zeros_like(window), 0.3, 1.0, (2, 6, 1, 6),
                           (8, 9)).support == (0, 0, 0, 0)

    @pytest.mark.parametrize("threshold_mm, px_per_mm", [
        (0.0, 1.0), (-1.0, 1.0), (np.nan, 1.0), (np.inf, 1.0),
        (0.3, 0.0), (0.3, -16.0), (0.3, np.nan), (0.3, np.inf)])
    def test_rejects_bad_scalars(self, threshold_mm, px_per_mm):
        name = "threshold_mm" if px_per_mm == 1.0 else "px_per_mm"
        with pytest.raises(ValueError, match=f"{name} must be finite and "
                                             "positive"):
            ContactMask(np.eye(3, dtype=bool), threshold_mm, px_per_mm)

    @pytest.mark.parametrize("shape", [(0, 4), (-2, 4), (4, 0), (2.0, 4),
                                       (4,)])
    def test_resampled_rejects_bad_shape(self, shape):
        """The nearest-neighbour resample, ``on_grid``, takes a grid shape
        of two positive integers only."""
        with pytest.raises(ValueError, match="frame_shape"):
            ContactMask(np.eye(3, dtype=bool), 0.3).on_grid(shape)


class TestDiffImage:
    def test_subtracts_and_preserves_metadata(self):
        a = TactileFrame(np.full((8, 8, 3), 0.75), 2.0)
        b = TactileFrame(np.full((8, 8, 3), 0.25), 2.0)
        d = diff_image(a, b)
        assert isinstance(d, DiffFrame)
        assert np.allclose(d.values, 0.5)
        assert d.px_per_mm == 2.0

    def test_shape_mismatch_raises(self):
        a = TactileFrame(np.zeros((8, 8, 3)), 2.0)
        b = TactileFrame(np.zeros((8, 9, 3)), 2.0)
        with pytest.raises(ValueError):
            diff_image(a, b)


class TestHeightmapIO:
    def test_roundtrip(self, tmp_path):
        hm = HeightMap(rng.random((6, 7)), 4.27)
        p = tmp_path / "h.csv"
        save_heightmap(p, hm)
        back = load_heightmap(p)
        assert back.px_per_mm == pytest.approx(4.27)
        assert np.max(np.abs(back.values - hm.values)) <= 5e-7

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_heightmap(p)

    def test_unparsable_value_names_line(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("1.0,2.0\n3.0,x\n")
        with pytest.raises(ValueError, match="line 2"):
            load_heightmap(p)

    def test_empty_file_raises(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="line 1"):
            load_heightmap(p)


class TestMarkerTrackIO:
    def _tracks(self, n_frames=3, n=6):
        ids = np.arange(n)
        base = rng.uniform(5, 90, (n, 2))
        return [MarkerSet(ids, base + t, 100.0, 100.0)
                for t in range(n_frames)]

    def test_roundtrip(self, tmp_path):
        tracks = self._tracks()
        p = tmp_path / "m.csv"
        save_marker_tracks(p, tracks)
        back = load_marker_tracks(p)
        assert len(back) == len(tracks)
        for a, b in zip(tracks, back):
            assert np.array_equal(a.ids, b.ids)
            assert np.allclose(a.xy, b.xy, atol=1e-6)
            assert (b.frame_width, b.frame_height) == (100.0, 100.0)

    def test_grid_line_of_older_files_is_skipped(self, tmp_path):
        """Files written with a ``# grid rows cols`` comment load to the
        same ids, positions and bounds as without it."""
        tracks = self._tracks()
        p = tmp_path / "m.csv"
        save_marker_tracks(p, tracks)
        old = tmp_path / "old.csv"
        old.write_text("# grid 9 9\n" + p.read_text())
        for a, b in zip(load_marker_tracks(p), load_marker_tracks(old),
                        strict=True):
            assert a.ids.tobytes() == b.ids.tobytes()
            assert a.xy.tobytes() == b.xy.tobytes()
            assert (a.frame_width, a.frame_height) == \
                (b.frame_width, b.frame_height) == (100.0, 100.0)

    def test_empty_file_loads_as_empty_list(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("frame,id,x,y\n")
        assert load_marker_tracks(p) == []

    def test_frame_without_markers_round_trips(self, tmp_path):
        """A frame whose markers all dropped out writes no row; the
        ``# frames`` line keeps it, as an empty ``MarkerSet``, in place."""
        first, _, last = self._tracks()
        empty = MarkerSet(np.zeros(0, np.int64), np.zeros((0, 2)), 100.0, 100.0)
        p = tmp_path / "m.csv"
        save_marker_tracks(p, [first, empty, last])
        back = load_marker_tracks(p)
        assert [len(m) for m in back] == [6, 0, 6]
        for got, want in ((back[0], first), (back[2], last)):
            assert np.array_equal(got.ids, want.ids)
            assert np.allclose(got.xy, want.xy, atol=1e-6)
        assert (back[1].frame_width, back[1].frame_height) == (100.0, 100.0)

    @pytest.mark.parametrize("meta, frames, what", [
        ("", (0, 0, 2, 2), "frame 1 of 0..2 has no row"),
        ("", (0, -1), "frame -1 outside 0..0"),
        ("# frames 2\n", (0, 2), "frame 2 outside 0..1"),
    ], ids=["gap", "negative", "past_frames"])
    def test_frames_outside_0_to_T_raise(self, tmp_path, meta, frames, what):
        """Frames are 0..T-1, T from ``# frames`` or, in older files without
        it, one past the largest index; a gap is never renumbered away."""
        p = tmp_path / "m.csv"
        p.write_text(meta + "frame,id,x,y\n" + "".join(
            f"{t},{k},{k + 1.0},2.0\n" for k, t in enumerate(frames)))
        with pytest.raises(ValueError, match="^" + re.escape(f"{p}: {what}")):
            load_marker_tracks(p)


class TestFieldTypes:
    def test_displacement_field_validation(self):
        DisplacementField(np.zeros((4, 4, 2)))
        with pytest.raises(ValueError):
            DisplacementField(np.zeros((4, 4, 3)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_diff_of_frame_with_itself_is_zero(self, seed):
        r = np.random.default_rng(seed)
        f = TactileFrame(r.random((8, 8, 3)), 1.0)
        assert np.all(diff_image(f, f).values == 0.0)


def _flat(h, w):
    n = np.zeros((h, w, 3))
    n[:, :, 2] = 1.0
    return n


def _zeros(shapes):
    return [np.zeros(shape) for shape in shapes]


_MASK = ContactMask(np.eye(4, dtype=bool), 0.3)
_HEIGHT = HeightMap(np.zeros((4, 4)), 4.0)
_EMBEDDER = softness.ClipEmbedder(*_zeros(softness._EMBEDDER_SHAPES.values()))
# One instance of every frozen type of the package that holds an ndarray,
# directly or through a nested one.
_ARRAY_TYPES = {
    "TactileFrame": lambda: TactileFrame(np.zeros((8, 8, 3)), 4.0),
    "DiffFrame": lambda: DiffFrame(np.zeros((8, 8, 3)), 4.0),
    "NormalMap": lambda: NormalMap(_flat(4, 4)),
    "NormalMap window": lambda: NormalMap(_flat(2, 3), (1, 3, 0, 3), (4, 4)),
    "ContactMask window": lambda: ContactMask(np.eye(2, 3, dtype=bool), 0.3,
                                              1.0, (1, 3, 0, 3), (4, 4)),
    "HeightMap": lambda: _HEIGHT,
    "MarkerSet": lambda: MarkerSet([0, 1], [[1.0, 2.0], [3.0, 4.0]]),
    "DisplacementField": lambda: DisplacementField(np.zeros((3, 3, 2))),
    "Rgb2NormalModel": lambda: geometry.Rgb2NormalModel(*_zeros(
        [(32, 5), (32,), (32, 32), (32,), (2, 32), (2,)])),
    "CalibrationDataset": lambda: geometry.CalibrationDataset(
        np.zeros((2, 5)), _flat(1, 2)[0]),
    "HHDResult": lambda: force.hhd_decompose(
        DisplacementField(np.zeros((8, 8, 2)))),
    "ShearFeature": lambda: force.ShearFeature(np.zeros(10)),
    "ShearModel": lambda: force.ShearModel(np.zeros(10), np.zeros(10), 0.0, 0.0),
    "ContactMask": lambda: _MASK,
    "SlipReport": lambda: slip.SlipReport(*_zeros([(2, 2), (2, 2), (2,)]),
                                          np.zeros(2, bool)),
    "LightRig": sim.default_rig,
    "SqueezeFrames": lambda: sim.SqueezeFrames(np.zeros((2, 8, 8, 3)), 4.0),
    "SlipSequence": lambda: sim.SlipSequence(
        [_MASK], [MarkerSet([0], [[1.0, 1.0]])], *_zeros([(1, 2), (1,)]),
        np.zeros(1, bool), np.zeros(1), 0, None, 4.0, 100.0, "top"),
    "CompressionClip": lambda: softness.CompressionClip(
        np.zeros((4, 256)), np.zeros(4), "tomato", 10.0),
    "ClipEmbedder": lambda: _EMBEDDER,
    "RankerModel": lambda: softness.RankerModel(
        _EMBEDDER, np.zeros((softness.EMBED_DIM,) * 2)),
    "TrialOutcome": lambda: harvest.TrialOutcome(True, "none", 1, 1.0,
                                                 np.zeros(3)),
    "Percept": lambda: perception.Percept(_HEIGHT, _MASK, False, 0.0,
                                          (0.0, 0.0), 0.0),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_TYPES))
def test_array_types_compare_by_identity(name):
    """A field-wise ``==`` would ask an ndarray for one truth value and
    raise; these types compare by identity instead."""
    x = _ARRAY_TYPES[name]()
    assert type(x).__name__ == name.split()[0]
    assert x == x
    assert isinstance(x == pickle.loads(pickle.dumps(x)), bool)


def _with_caches():
    """Instances whose values kept on first use are filled: a mask's area
    and centroid, and a rest marker set's IDW neighbour table."""
    mask = ContactMask(np.eye(5, dtype=bool), 0.3)
    mask.centroid()
    rest = MarkerSet([0, 1, 2], [[1.0, 1.0], [6.0, 1.0], [1.0, 6.0]],
                     frame_width=8.0, frame_height=8.0)
    force.interpolate_markers(rest, rest, (4, 4))
    return {"ContactMask": mask, "MarkerSet": rest}


def _arrays(x, seen=None):
    """Every ndarray reachable from ``x`` through the attributes of the
    package's objects and through tuples, lists and dicts."""
    seen = set() if seen is None else seen
    if id(x) in seen:
        return
    seen.add(id(x))
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (tuple, list, dict)):
        for item in x.values() if isinstance(x, dict) else x:
            yield from _arrays(item, seen)
    elif type(x).__module__.startswith("gripsense."):
        yield from _arrays(vars(x), seen)


_CACHED = _with_caches()


@pytest.mark.parametrize("name", sorted(_ARRAY_TYPES) + [
    f"{name} with caches" for name in sorted(_CACHED)])
def test_arrays_read_only_when_built_and_unpickled(name):
    x = (_CACHED[name.split()[0]] if name.endswith(" with caches")
         else _ARRAY_TYPES[name]())
    copies = [x] + [pickle.loads(pickle.dumps(x, protocol))
                    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    copies.append(pickle.loads(pickle.dumps(copies[-1])))
    for copy in copies:
        arrays = list(_arrays(copy))
        assert arrays
        assert not any(a.flags.writeable for a in arrays)
        assert len(arrays) == len(list(_arrays(x)))     # caches pickle along


def test_every_array_type_is_registered():
    """A frozen type with an ndarray field holds the read-only invariant
    only through ``_Frozen`` and is tested only through ``_ARRAY_TYPES``."""
    found = set()
    for info in pkgutil.iter_modules(gripsense.__path__):
        module = importlib.import_module("gripsense." + info.name)
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and any("ndarray" in str(f.type)
                            for f in dataclasses.fields(obj))):
                found.add(obj)
    assert len(found) >= 19
    assert {cls.__name__ for cls in found} <= set(_ARRAY_TYPES)
    assert all(issubclass(cls, _Frozen) for cls in found)


def test_no_module_reads_another_modules_private_names():
    """Each rule has one owner: outside ``core``, whose docstring declares
    the kernels it shares, no module of the package imports an underscore
    name of another or reads one through the other module's name."""
    root = os.path.dirname(gripsense.__file__)
    offences = []
    for info in pkgutil.iter_modules(gripsense.__path__):
        with open(os.path.join(root, info.name + ".py")) as f:
            tree = ast.parse(f.read())
        modules = {}                              # local name -> module
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif node.module != "core" and alias.name.startswith("_"):
                    offences.append(f"{info.name}: {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and modules.get(node.value.id, "core") != "core"
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                offences.append(f"{info.name}: {node.value.id}.{node.attr}")
    assert not offences


def _resolve(dotted: str):
    """The object a dotted ``gripsense`` name stands for: a module, or an
    attribute of one."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        parent, _, leaf = dotted.rpartition(".")
        return getattr(_resolve(parent), leaf)


def test_every_gripsense_name_perfbench_uses_exists():
    """The benchmark scripts under ``perfbench/`` run against this package:
    every name they import from it, and every attribute they read through
    such a name, must exist, so a deleted or renamed name fails here before
    a benchmark run does."""
    bench = os.path.join(os.path.dirname(__file__), "..", "perfbench")
    names = set()
    for path in sorted(glob.glob(os.path.join(bench, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read())
        bound = {}                          # local name -> dotted name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name, a.name) for a in node.names
                             if a.name.split(".")[0] == "gripsense")
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "gripsense"):
                bound.update((a.asname or a.name, f"{node.module}.{a.name}")
                             for a in node.names)
        names.update(bound.values())
        names.update(f"{bound[node.value.id]}.{node.attr}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name)
                     and node.value.id in bound)
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (AttributeError, ModuleNotFoundError):
            missing.append(name)
    assert len(names) > 50 and not missing


def test_windowed_rasters_have_one_owner():
    """``core._Windowed`` alone resolves and checks a window and fills the
    frame around it: outside ``core`` no module calls ``_check_support`` or
    ``_check_frame_shape``, and no class defines ``raster``."""
    root = os.path.dirname(gripsense.__file__)
    offences = []
    for info in pkgutil.iter_modules(gripsense.__path__):
        if info.name == "core":
            continue
        with open(os.path.join(root, info.name + ".py")) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                if name in ("_check_support", "_check_frame_shape"):
                    offences.append(f"{info.name}: calls {name}")
            elif isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef) and item.name == "raster"
                    for item in node.body):
                offences.append(f"{info.name}: {node.name}.raster")
    assert not offences
    assert all(issubclass(cls, gripsense.core._Windowed)
               for cls in (NormalMap, ContactMask))


class TestLbfgs:
    """The shared optimizer of the calibration fits, on small functions."""

    @staticmethod
    def _rosenbrock(params):
        x, y = params[0][0], params[1]
        loss = (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2
        dx = -2.0 * (1.0 - x) - 400.0 * x * (y - x * x)
        return loss, (np.array([dx]), 200.0 * (y - x * x))

    def test_rosenbrock_reaches_minimum(self):
        # an array and a scalar parameter, the scalar coming back 0-d
        (x, y), history = _lbfgs(self._rosenbrock, [np.array([-1.2]), 1.0],
                                 500, 0.1)
        assert x.shape == (1,) and y.shape == ()
        assert abs(x[0] - 1.0) < 1e-4 and abs(y - 1.0) < 1e-4
        assert len(history) < 501
        assert np.all(np.diff(history) <= 0.0)
        assert history[-1] == self._rosenbrock([x, y])[0]

    def test_iteration_cap(self):
        _, history = _lbfgs(self._rosenbrock, [np.array([-1.2]), 1.0], 3, 0.1)
        assert len(history) == 4

    def test_stops_on_small_gradient(self):
        scale = np.array([1.0, 10.0, 100.0])

        def quadratic(params):
            return 0.5 * float(np.sum(scale * params[0] ** 2)), (scale * params[0],)

        (x,), history = _lbfgs(quadratic, [np.ones(3)], 100, 1.0)
        assert len(history) < 101
        assert np.max(np.abs(scale * x)) <= 1e-5

    def test_stops_on_small_reduction(self):
        # the first step lowers the loss by 2e-9, under 2.2e-9 times
        # max(|loss|, 1), although not relative to the loss itself (1e-5)
        def flat(params):
            return 1e-5 * float(params[0] @ params[0]), (2e-5 * params[0],)

        _, history = _lbfgs(flat, [np.ones(1)], 50, 1e-4)
        assert len(history) == 2
        assert 0.0 < history[0] - history[1] <= 2.2e-9

    def test_first_step_has_the_given_length(self):
        points = []

        def bowl(params):
            points.append(params[0].copy())
            return float(params[0] @ params[0]), (2.0 * params[0],)

        _lbfgs(bowl, [np.array([3.0, 4.0])], 1, 0.5)
        assert np.allclose(points[1], [2.7, 3.6], rtol=0, atol=1e-15)

    def test_evaluates_in_place_and_leaves_input_alone(self):
        start = [np.array([-1.2]), 1.0]
        seen = []

        def f(params):
            seen.append((id(params), id(params[0])))
            return self._rosenbrock(params)

        params, _ = _lbfgs(f, start, 20, 0.1)
        assert len(set(seen)) == 1 and seen[0] == (id(params), id(params[0]))
        assert start[0][0] == -1.2

    def test_non_finite_trial_backtracks(self):
        # the loss is NaN past 3, where a first step of length 100 lands
        def walled(params):
            x = params[0][0]
            loss = (x - 1.0) ** 2 if x < 3.0 else np.nan
            return loss, (np.array([2.0 * (x - 1.0)]),)

        (x,), history = _lbfgs(walled, [np.array([0.0])], 50, 100.0)
        assert abs(x[0] - 1.0) < 1e-5
        assert np.all(np.isfinite(history))

    def test_non_finite_start_raises(self):
        with pytest.raises(ValueError, match="initial"):
            _lbfgs(lambda p: (np.inf, (np.ones(1),)), [np.zeros(1)], 10, 0.1)


@pytest.mark.parametrize("shape", [(3, 11, 11), (4, 5, 8), (2, 1, 7)])
def test_poisson_stack_solves_each_grid_as_alone(shape):
    """A (k, h, w) stack is k independent Dirichlet problems, each solved
    bit for bit as its own 2-D call, and each satisfies the 5-point system."""
    k, h, w = shape
    rhs = np.random.default_rng(h * w).normal(size=shape)
    got = np.empty(shape)
    _poisson_solve(rhs.copy(), got, np.empty(shape))
    for grid, u in zip(rhs, got):
        alone = np.empty((h, w))
        _poisson_solve(grid.copy(), alone, np.empty((h, w)))
        assert alone.tobytes() == u.tobytes()
        lap = 4.0 * u
        lap[1:] -= u[:-1]
        lap[:-1] -= u[1:]
        lap[:, 1:] -= u[:, :-1]
        lap[:, :-1] -= u[:, 1:]
        assert np.max(np.abs(lap - grid)) < 1e-12 * np.max(np.abs(grid))


def test_package_reports_numba_absent():
    # perfbench/run.py records this constant in every benchmark result
    assert gripsense.USING_NUMBA is False


def _run_isolated(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports from this ``src``."""
    src = os.path.dirname(os.path.dirname(gripsense.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_package_import_leaves_scipy_unloaded():
    # the runtime is numpy only; scipy is a test dependency of the oracles
    out = _run_isolated(
        "import importlib, pkgutil, sys, gripsense\n"
        "for m in pkgutil.iter_modules(gripsense.__path__):\n"
        "    importlib.import_module('gripsense.' + m.name)\n"
        "assert 'gripsense.cli' in sys.modules\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_pipeline_runs_with_scipy_blocked():
    # a None entry makes every ``import scipy...`` raise ImportError
    out = _run_isolated(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from types import SimpleNamespace\n"
        "import numpy as np\n"
        "from gripsense import core, force, geometry, sim\n"
        "r = np.random.default_rng(0)\n"
        "bg = core.TactileFrame(r.uniform(0.3, 0.6, (64, 64, 3)), 2.0)\n"
        "fg = core.TactileFrame(r.uniform(0.3, 0.6, (64, 64, 3)), 2.0)\n"
        "shapes = [(32, 5), (32,), (32, 32), (32,), (2, 32), (2,)]\n"
        "model = geometry.Rgb2NormalModel(*[r.normal(0, 0.3, s) for s in shapes])\n"
        "normals = geometry.predict_normals(core.diff_image(fg, bg), model)\n"
        "hm = geometry.integrate_normals(normals, 2.0)\n"
        "field = core.DisplacementField(normals.raster()[:, :, :2])\n"
        "parts = force.hhd_decompose(field)\n"
        "fruit = SimpleNamespace(stiffness_n_mm=1.0, diameter_mm=18.0,\n"
        "                        fruit_type='strawberry')\n"
        "frames, currents = sim.synth_compression_clip(fruit, n_frames=4)\n"
        "print(hm.values.min(), np.isfinite(parts.H.values).all(), len(frames))")
    assert out.split() == ["0.0", "True", "4"]
