"""Shared types, rectification, differencing and the text file formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gripsense
from gripsense.core import (DiffFrame, DisplacementField, HeightMap,
                            MarkerSet, NormalMap, TactileFrame, _warp_bilinear,
                            diff_image, load_frame, load_heightmap,
                            load_marker_tracks, rectify_frame, save_frame,
                            save_heightmap, save_marker_tracks)
from gripsense.slip import ContactMask
from oracles import warp_reference

rng = np.random.default_rng(7)


class TestTactileFrame:
    def test_valid_roundtrip_properties(self):
        f = TactileFrame(rng.random((8, 10, 3)), 4.0, 1.5)
        assert (f.height, f.width) == (8, 10)
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


class TestNormalMap:
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

    @pytest.mark.parametrize("component", [0, 2])
    def test_nan_component_rejected(self, component):
        n = np.zeros((4, 4, 3))
        n[:, :, 2] = 1.0
        n[1, 2, component] = np.nan
        with pytest.raises(ValueError, match="unit length"):
            NormalMap(n)


class TestHeightMap:
    def test_gauged_sets_min_to_zero(self):
        hm = HeightMap(rng.random((5, 5)) + 2.0, 4.0)
        assert hm.gauged().values.min() == 0.0
        assert hm.shape == (5, 5)

    def test_offset_heightmap_is_constructible(self):
        HeightMap(np.full((4, 4), 0.1), 1.0)

    def test_rejects_nonfinite(self):
        bad = np.zeros((4, 4))
        bad[1, 1] = np.inf
        with pytest.raises(ValueError):
            HeightMap(bad, 1.0)


class TestMarkerSet:
    def test_unique_ids_required(self):
        with pytest.raises(ValueError):
            MarkerSet(np.array([1, 1]), np.zeros((2, 2)))

    def test_bounds_checked_when_given(self):
        with pytest.raises(ValueError):
            MarkerSet(np.array([0]), np.array([[5.0, 1.0]]),
                      frame_width=4.0, frame_height=4.0)

    def test_empty_and_moved(self):
        assert len(MarkerSet.empty()) == 0
        m = MarkerSet(np.array([3, 4]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        m2 = m.moved(np.array([[1.0, 0.0], [0.0, -1.0]]))
        assert np.allclose(m2.xy, [[2.0, 2.0], [3.0, 3.0]])
        assert np.array_equal(m2.ids, m.ids)


class TestContactMask:
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


class TestRectify:
    def test_axis_aligned_rectangle_is_identity(self):
        img = rng.random((10, 12, 3))
        corners = [(0, 0), (11, 0), (11, 9), (0, 9)]
        out = rectify_frame(img, corners, (10, 12), px_per_mm=3.0)
        assert np.allclose(out.pixels, img, atol=1e-9)
        assert out.px_per_mm == 3.0

    def test_grayscale_input_broadcasts(self):
        img = rng.random((10, 10))
        out = rectify_frame(img, [(0, 0), (9, 0), (9, 9), (0, 9)], (10, 10))
        assert out.pixels.shape == (10, 10, 3)
        assert np.allclose(out.pixels[:, :, 0], out.pixels[:, :, 2])

    def test_rejects_nonconvex_and_outside_corners(self):
        img = rng.random((10, 10, 3))
        with pytest.raises(ValueError):
            rectify_frame(img, [(0, 0), (9, 9), (9, 0), (0, 9)], (8, 8))
        with pytest.raises(ValueError):
            rectify_frame(img, [(-3, 0), (9, 0), (9, 9), (0, 9)], (8, 8))


def _random_homography(r):
    h = np.eye(3)
    h[:2, :2] += r.normal(0.0, 0.05, (2, 2))
    h[:2, 2] = r.normal(0.0, 2.0, 2)
    h[2, :2] = r.normal(0.0, 1e-3, 2)
    return h


class TestWarp:
    rng = np.random.default_rng(42)

    def test_matches_oracle(self):
        img = self.rng.random((12, 14, 3))
        hmat = _random_homography(self.rng)
        got = _warp_bilinear(img, hmat, 10, 11)
        want = warp_reference(img, hmat, 10, 11)
        assert np.allclose(got, want, atol=1e-12)

    def test_identity_is_exact(self):
        img = self.rng.random((9, 9, 3))
        out = _warp_bilinear(img, np.eye(3), 9, 9)
        assert np.allclose(out, img, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_output_within_input_range(self, seed):
        r = np.random.default_rng(seed)
        img = r.random((10, 10, 3))
        out = _warp_bilinear(img, _random_homography(r), 7, 7)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12


class TestDiffImage:
    def test_subtracts_and_preserves_metadata(self):
        a = TactileFrame(np.full((8, 8, 3), 0.75), 2.0, 9.0)
        b = TactileFrame(np.full((8, 8, 3), 0.25), 2.0)
        d = diff_image(a, b)
        assert isinstance(d, DiffFrame)
        assert np.allclose(d.values, 0.5)
        assert d.px_per_mm == 2.0 and d.timestamp == 9.0

    def test_shape_mismatch_raises(self):
        a = TactileFrame(np.zeros((8, 8, 3)), 2.0)
        b = TactileFrame(np.zeros((8, 9, 3)), 2.0)
        with pytest.raises(ValueError):
            diff_image(a, b)


class TestFrameIO:
    def test_roundtrip_quantized_to_8bit(self, tmp_path):
        f = TactileFrame(rng.random((9, 11, 3)), 5.0, 2.25)
        p = tmp_path / "frame.ppm"
        save_frame(p, f)
        g = load_frame(p)
        assert g.pixels.shape == f.pixels.shape
        assert g.px_per_mm == 5.0 and g.timestamp == 2.25
        assert np.max(np.abs(g.pixels - f.pixels)) <= 0.5 / 255.0 + 1e-12

    def test_exact_at_8bit_values(self, tmp_path):
        vals = np.linspace(0, 1, 256)[:192].reshape(8, 8, 3)
        vals = np.rint(vals * 255.0) / 255.0
        f = TactileFrame(vals, 1.0)
        save_frame(tmp_path / "f.ppm", f)
        assert np.array_equal(load_frame(tmp_path / "f.ppm").pixels, f.pixels)


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
        return [MarkerSet(ids, base + t, 2, 3, 100.0, 100.0)
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
            assert (b.grid_rows, b.grid_cols) == (2, 3)

    def test_single_markerset_accepted(self, tmp_path):
        p = tmp_path / "m.csv"
        save_marker_tracks(p, self._tracks(1)[0])
        assert len(load_marker_tracks(p)) == 1

    def test_empty_file_loads_as_empty_list(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("frame,id,x,y\n")
        assert load_marker_tracks(p) == []


class TestFieldTypes:
    def test_displacement_field_validation(self):
        DisplacementField(np.zeros((4, 4, 2)), 2.0, (1.0, 1.0))
        with pytest.raises(ValueError):
            DisplacementField(np.zeros((4, 4, 3)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_diff_of_frame_with_itself_is_zero(self, seed):
        r = np.random.default_rng(seed)
        f = TactileFrame(r.random((8, 8, 3)), 1.0)
        assert np.all(diff_image(f, f).values == 0.0)


def test_package_reports_numba_absent():
    # perfbench/run.py records this constant in every benchmark result
    assert gripsense.USING_NUMBA is False
