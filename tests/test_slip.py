"""Slip detection: segmentation, velocities, the threshold rule, scoring."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripsense import sim, slip
from gripsense.core import HeightMap, MarkerSet
from oracles import marker_velocity_reference

rng = np.random.default_rng(23)


def _disc(size, cx, cy, r):
    ys, xs = np.ogrid[:size, :size]
    return (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r


def _disc_masks(centers, size=96, r=10.0):
    return [slip.ContactMask(_disc(size, cx, cy, r), 0.3) for cx, cy in centers]


_EMPTY = slip.ContactMask(np.zeros((96, 96), dtype=bool), 0.3)


def _static_tracks(n_frames, xy):
    ids = np.arange(len(xy))
    return [MarkerSet(ids, xy) for _ in range(n_frames)]


class TestSegmentation:
    def test_strictly_greater_than_threshold(self):
        h = HeightMap(np.array([[0.0, 0.3], [0.31, 1.0]]).repeat(4, 0).repeat(4, 1), 2.0)
        m = slip.segment_contact(h, 0.3)
        assert m.area == 32                        # the 0.31 and 1.0 blocks
        assert m.px_per_mm == 2.0
        assert m.threshold_mm == 0.3

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            slip.segment_contact(HeightMap(np.zeros((8, 8)), 1.0), 0.0)

    def test_resample_preserves_coverage_fraction(self):
        m = slip.ContactMask(_disc(64, 32, 32, 20), 0.3, 2.0)
        cells, _, _ = m.on_grid((32, 32))
        frac_a = m.area / 64 ** 2
        frac_b = np.count_nonzero(cells) / 32 ** 2
        assert abs(frac_a - frac_b) < 0.02

    def test_equivalent_radius(self):
        m = slip.ContactMask(_disc(64, 32, 32, 12), 0.3)
        assert m.equivalent_radius_px() == pytest.approx(12.0, abs=0.2)

    def test_contains(self):
        m = slip.ContactMask(_disc(32, 16, 16, 5), 0.3)
        got = m.contains(np.array([[16.0, 16.0], [0.0, 0.0]]))
        assert got.tolist() == [True, False]


def _contains_reference(mask, xy):
    """Membership read off the whole raster: each position snapped to its
    pixel by ``np.rint`` and clipped to the frame, one at a time."""
    h, w = mask.frame_shape
    raster = mask.raster()
    return np.array([bool(raster[min(max(int(np.rint(y)), 0), h - 1),
                                 min(max(int(np.rint(x)), 0), w - 1)])
                     for x, y in xy], dtype=bool).reshape(len(xy))


class TestContains:
    """``ContactMask.contains`` against the raster, one position at a time."""

    @staticmethod
    def _coordinate(size, lo, hi):
        """Coordinates along an axis of ``size`` pixels whose mask box spans
        [lo, hi): anywhere on or off the frame, on the box's edges and half a
        pixel either side, where ``np.rint`` rounds half to even, and exactly
        on the half pixels."""
        edges = [b + d for b in (lo, hi - 1, 0, size - 1)
                 for d in (-1.0, -0.5, -0.49999, 0.0, 0.49999, 0.5, 1.0)]
        return st.one_of(st.floats(-2.0 * size, 3.0 * size),
                         st.sampled_from(edges),
                         st.integers(-3, size + 3).map(lambda k: k + 0.5))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_matches_the_raster(self, h, w, data):
        r0 = data.draw(st.integers(0, h))
        c0 = data.draw(st.integers(0, w))
        r1 = data.draw(st.integers(r0, h))
        c1 = data.draw(st.integers(c0, w))
        cells = data.draw(st.lists(st.booleans(), min_size=(r1 - r0) * (c1 - c0),
                                   max_size=(r1 - r0) * (c1 - c0)))
        values = np.zeros((h, w), bool)
        values[r0:r1, c0:c1] = np.reshape(cells, (r1 - r0, c1 - c0))
        mask = slip.ContactMask(values, 0.3)
        r0, r1, c0, c1 = mask.support           # the tight box, maybe empty
        n = data.draw(st.integers(0, 12))
        xs = data.draw(st.lists(self._coordinate(w, c0, c1), min_size=n,
                                max_size=n))
        ys = data.draw(st.lists(self._coordinate(h, r0, r1), min_size=n,
                                max_size=n))
        xy = np.column_stack([xs, ys]).reshape(n, 2)
        got = mask.contains(xy)
        assert got.dtype == bool and got.shape == (n,)
        assert np.array_equal(got, _contains_reference(mask, xy))

    def test_off_the_frame_reads_the_edge_pixels(self):
        """A position past any side of the frame snaps to the pixel on that
        edge, so a mask that covers the edge holds it, however far out:
        1e19 px once read as the opposite edge, cast to an integer first."""
        edge = np.zeros((6, 9), bool)
        edge[0, :] = edge[-1, :] = edge[:, 0] = edge[:, -1] = True
        xy = np.array([[-7.0, 2.0], [15.2, 3.0], [4.0, -0.6], [4.0, 9.0],
                       [-1.0, -1.0], [1e9, 1e9], [1e19, 3.0], [-1e300, 3.0],
                       [4.0, 1e30], [4.0, 2.0]])
        for mask in (slip.ContactMask(edge, 0.3),
                     slip.ContactMask(np.ones((6, 9), bool), 0.3)):
            want = _contains_reference(mask, xy)
            assert want[:-1].all()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.array_equal(mask.contains(xy), want)
        right = slip.ContactMask(edge * (np.arange(9) == 8), 0.3)
        assert right.contains([[1e19, 3.0], [-1e19, 3.0]]).tolist() == [True,
                                                                        False]

    def test_a_window_mask_of_a_larger_frame(self):
        """A mask built from a window reads the same as its whole-frame twin."""
        whole = np.zeros((30, 40), bool)
        whole[12:20, 0:7] = _disc(8, 3, 3, 3)[:, :7]
        window = slip.ContactMask(whole[10:22, 0:9], 0.3, 1.0, (10, 22, 0, 9),
                                  (30, 40))
        xy = np.array([[x, y] for x in np.arange(-3.0, 12.0, 0.5)
                       for y in np.arange(8.0, 24.0, 0.5)])
        want = _contains_reference(slip.ContactMask(whole, 0.3), xy)
        assert want.any() and not want.all()
        assert np.array_equal(window.contains(xy), want)


class TestObjectVelocity:
    def test_constant_motion_after_warmup(self):
        centers = [(20.0 + 2.0 * t, 30.0) for t in range(10)]
        v = slip.object_velocity(_disc_masks(centers))
        assert v.shape == (10, 2)
        assert np.allclose(v[0], 0.0)
        assert np.allclose(v[3:, 0], 2.0, atol=0.1)
        assert np.allclose(v[3:, 1], 0.0, atol=0.1)

    def test_static_masks_zero_velocity(self):
        v = slip.object_velocity(_disc_masks([(30.0, 30.0)] * 6))
        assert np.allclose(v, 0.0, atol=1e-12)

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            slip.object_velocity(_disc_masks([(30.0, 30.0)]))

    def test_all_contact_is_the_raw_centroid_difference(self):
        jitter = np.random.default_rng(4).normal(0, 1.5, (12, 2))
        centers = [(30.0 + dx, 30.0 + dy) for dx, dy in jitter]
        masks = _disc_masks(centers)
        want = np.zeros((12, 2))
        want[1:] = np.diff([m.centroid() for m in masks], axis=0)
        assert np.array_equal(slip.object_velocity(masks), want)

    def test_a_burst_shows_on_its_first_frame(self):
        """No lag: the one frame the object jumps on, and no later one,
        carries the jump."""
        centers = [(30.0, 30.0)] * 4 + [(44.0, 30.0)] + [(44.0, 30.0)] * 3
        v = slip.object_velocity(_disc_masks(centers))
        assert np.array_equal(np.flatnonzero(v[:, 0]), [4])
        assert v[4, 0] == pytest.approx(14.0)

    def test_no_contact_frame_splits_the_runs(self):
        centers = [(20.0 + 2.0 * t, 30.0 + 0.5 * t * t) for t in range(8)]
        masks = _disc_masks(centers)
        masks[1] = _EMPTY
        v = slip.object_velocity(masks)
        assert np.all(np.isfinite(v))
        assert np.array_equal(v[:3], np.zeros((3, 2)))
        assert np.array_equal(v[2:], slip.object_velocity(masks[2:]))
        assert np.all(np.abs(v[3:]) > 0.5)


class TestMarkerVelocity:
    def test_moving_markers_inside_static_mask(self):
        n = 8
        base = np.array([[40.0 + i * 2, 40.0 + j * 2]
                         for i in range(3) for j in range(3)])
        tracks = [MarkerSet(np.arange(9), base + [1.5 * t, 0.0])
                  for t in range(n)]
        masks = _disc_masks([(44.0, 44.0)] * n, r=20.0)
        v = slip.marker_velocity(tracks, masks)
        assert np.allclose(v[3:, 0], 1.5, atol=0.2)

    def test_nearest_marker_fallback_when_none_inside(self):
        # markers all sit far outside a tiny contact disc
        xy = np.array([[5.0, 5.0], [90.0, 5.0], [5.0, 90.0],
                       [90.0, 90.0], [50.0, 5.0]])
        tracks = [MarkerSet(np.arange(5), xy + [0.5 * t, 0.0])
                  for t in range(6)]
        masks = _disc_masks([(48.0, 48.0)] * 6, r=3.0)
        v = slip.marker_velocity(tracks, masks)
        assert np.all(np.isfinite(v))
        assert np.allclose(v[3:, 0], 0.5, atol=0.2)

    def test_no_contact_frame_gets_zero(self):
        base = np.array([[40.0 + i * 2, 40.0 + j * 2]
                         for i in range(3) for j in range(3)])
        tracks = [MarkerSet(np.arange(9), base + [1.5 * t, 0.0])
                  for t in range(8)]
        masks = _disc_masks([(44.0, 44.0)] * 8, r=20.0)
        want = slip.marker_velocity(tracks, masks)
        want[1] = 0.0
        masks[1] = _EMPTY
        v = slip.marker_velocity(tracks, masks)
        assert np.all(np.isfinite(v))
        assert np.array_equal(v, want)

    def test_no_common_id_gives_a_zero_step(self):
        """A step whose frames share no marker id compares nothing: both of
        its velocities are zero and it is not flagged, though the contact
        moved; the masks-only object series still shows the move."""
        a = MarkerSet(np.array([0, 1, 2]), rng.uniform(10, 80, (3, 2)))
        b = MarkerSet(np.array([3, 4, 5]), rng.uniform(10, 80, (3, 2)))
        masks = _disc_masks([(30.0, 40.0), (60.0, 40.0), (61.0, 40.0)])
        tracks = [a, b, b.moved(np.full((3, 2), 0.5))]
        report = slip.analyze_sequence(masks, tracks)
        ov = slip.object_velocity(masks)
        assert not report.marker_v[:2].any() and not report.object_v[:2].any()
        assert not report.flags.any()
        assert ov[1, 0] == pytest.approx(30.0)
        assert report.object_v[2].tobytes() == ov[2].tobytes()
        assert np.array_equal(report.marker_v,
                              slip.marker_velocity(tracks, masks))

    def test_dropped_marker_matched_by_id(self):
        """A marker lost in frame 2, with the rows reordered, leaves the two
        steps into and out of frame 2 on the other eight markers and every
        other step on all nine."""
        base = np.array([[40.0 + i * 2, 40.0 + j * 2]
                         for i in range(3) for j in range(3)])
        xy = [base + [1.5 * t, 0.5 * t] for t in range(6)]
        masks = _disc_masks([(44.0, 44.0)] * 6, r=20.0)
        keep = np.arange(9) != 3
        eight = slip.marker_velocity(
            [MarkerSet(np.arange(9)[keep], p[keep]) for p in xy], masks)
        tracks = [MarkerSet(np.arange(9), p) for p in xy]
        nine = slip.marker_velocity(tracks, masks)
        order = np.flatnonzero(keep)[::-1]     # marker 3 lost, rows reordered
        tracks[2] = MarkerSet(order, xy[2][order])
        got = slip.marker_velocity(tracks, masks)
        assert np.array_equal(got[2:4], eight[2:4])
        assert np.array_equal(got[[0, 1, 4, 5]], nine[[0, 1, 4, 5]])

    def test_length_mismatch_raises(self):
        tracks = _static_tracks(3, rng.uniform(20, 70, (4, 2)))
        with pytest.raises(ValueError):
            slip.marker_velocity(tracks, _disc_masks([(40.0, 40.0)] * 2))


class TestMarkerVelocityOracle:
    """The series, the step on each frame pair with a masked mean, byte-equal
    to ``marker_velocity_reference``'s boolean-index mean."""

    @pytest.fixture(scope="class")
    def seqs(self):
        return sim.make_slip_benchmark(seed=4, repeats=1, n_frames=40)

    @staticmethod
    def _same(tracks, masks):
        got = slip.marker_velocity(tracks, masks)
        want = marker_velocity_reference(tracks, masks)
        assert got.tobytes() == want.tobytes()
        return got

    def test_slip_benchmark_series_and_windows(self, seqs):
        for seq in seqs:
            self._same(seq.tracks, seq.masks)
            for t in range(0, len(seq.masks) - 6, 5):
                self._same(seq.tracks[t:t + 6], seq.masks[t:t + 6])

    def test_many_markers_inside(self):
        """Dozens of members a frame, each with its own step, so the sum's
        order shows in the bits."""
        r = np.random.default_rng(3)
        gx, gy = np.meshgrid(np.arange(9.0), np.arange(9.0))
        base = 20.0 + 7.0 * np.column_stack([gx.ravel(), gy.ravel()])
        tracks = [MarkerSet(np.arange(81), base + r.normal(0.0, 2.0, (81, 2)))
                  for _ in range(8)]
        masks = _disc_masks([(48.0 + t, 46.0) for t in range(8)], r=30.0)
        assert min(m.contains(k.xy).sum() for m, k in zip(masks, tracks)) > 40
        self._same(tracks, masks)

    def test_window_with_a_no_contact_frame(self, seqs):
        seq = seqs[0]
        empty = slip.ContactMask(np.zeros(seq.masks[0].frame_shape, bool), 0.3)
        masks = list(seq.masks[10:16])
        masks[2] = masks[5] = empty
        v = self._same(seq.tracks[10:16], masks)
        assert not v[2].any() and not v[5].any() and v[3].any()

    def test_frames_where_no_marker_is_inside(self):
        xy = np.array([[5.0, 5.0], [90.0, 5.0], [5.0, 90.0],
                       [90.0, 90.0], [50.0, 5.0], [48.0, 49.0]])
        tracks = [MarkerSet(np.arange(6), xy + [0.7 * t, -0.3 * t * t])
                  for t in range(6)]
        # a disc around marker 5 on even frames, a tiny far one on odd ones
        masks = _disc_masks([(48.0 + t, 49.0) if t % 2 == 0 else (70.0, 70.0)
                             for t in range(6)], r=4.0)
        for t in range(1, 6, 2):
            assert not masks[t].contains(tracks[t].xy).any()
        self._same(tracks, masks)

    def test_dropout_window(self, seqs):
        """Frames that lost some markers in reversed rows, and a frame that
        lost them all, whose two steps are zero."""
        seq = seqs[1]
        tracks = list(seq.tracks[20:27])
        ids = tracks[0].ids
        for t, lost in ((1, [3, 40]), (4, [3, 7, 80]), (6, ids)):
            keep = np.flatnonzero(~np.isin(ids, lost))[::-1]
            tracks[t] = MarkerSet(ids[keep], tracks[t].xy[keep])
        v = self._same(tracks, seq.masks[20:27])
        assert not v[6].any() and v[5].any()


_FRAME = st.tuples(
    st.sampled_from(("none", "far", "disc")),   # the frame's contact
    st.sets(st.integers(0, 5), max_size=3),      # marker ids it lost
    st.floats(38.0, 58.0), st.floats(38.0, 58.0), st.floats(4.0, 30.0))


class TestNewestVelocity:
    """The step the tick and harvest run on their newest frame pair against
    every row of the series."""

    @staticmethod
    def _window(frames, seed):
        """Masks and tracks of a few frames: contacts that are missing, far
        from every marker (the nearest-four fallback) or a disc among the
        markers, and frames that lost some of markers 0-5 in shuffled rows."""
        r = np.random.default_rng(seed)
        gx, gy = np.meshgrid(np.arange(4.0), np.arange(3.0))
        base = 30.0 + 12.0 * np.column_stack([gx.ravel(), gy.ravel()])
        drift = r.normal(0.0, 2.0, 2)
        masks, tracks = [], []
        for t, (kind, lost, cx, cy, radius) in enumerate(frames):
            masks.append(_EMPTY if kind == "none" else _disc_masks(
                [(cx, cy) if kind == "disc" else (92.0, 3.0)],
                r=radius if kind == "disc" else 2.0)[0])
            xy = base + t * drift + r.normal(0.0, 1.5, base.shape)
            keep = r.permutation(np.setdiff1d(np.arange(12), list(lost)))
            tracks.append(MarkerSet(keep, xy[keep]))
        return masks, tracks

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_FRAME, min_size=2, max_size=6), st.integers(0, 2**32 - 1))
    def test_every_series_row_is_the_step_on_its_pair(self, frames, seed):
        masks, tracks = self._window(frames, seed)
        report = slip.analyze_sequence(masks, tracks)
        ov = slip.object_velocity(masks)
        mv = slip.marker_velocity(tracks, masks)
        assert not ov[0].any() and not mv[0].any() and not report.flags[0]
        for t in range(1, len(masks)):
            v_obj, v_mark = slip.step_velocity(
                masks[t - 1], masks[t],
                *slip.match_markers(tracks[t - 1], tracks[t]))
            # frames share at least six ids, so the object rows agree
            for got in (report.object_v[t], ov[t]):
                assert got.tobytes() == v_obj.tobytes()
            for got in (report.marker_v[t], mv[t]):
                assert got.tobytes() == v_mark.tobytes()

    def test_window_cases_occur(self):
        """The frames above reach the fallback, a broken run and dropout."""
        frames = [("disc", set(), 48.0, 48.0, 20.0), ("none", {1}, 0, 0, 4.0),
                  ("disc", {2, 4}, 50.0, 47.0, 20.0), ("far", set(), 0, 0, 4.0)]
        masks, tracks = self._window(frames, 7)
        assert not masks[3].contains(tracks[3].xy).any()
        xy_1, xy_2 = slip.match_markers(tracks[1], tracks[2])
        assert len(xy_1) == len(xy_2) == 9
        v_obj, v_mark = slip.step_velocity(masks[1], masks[2], xy_1, xy_2)
        assert not v_obj.any() and v_mark.any()     # a run starts anew
        v_obj, v_mark = slip.step_velocity(
            masks[2], masks[3], *slip.match_markers(tracks[2], tracks[3]))
        assert v_obj.any() and v_mark.any()

    def test_checks_the_window(self):
        """The two frames' positions must be (N, 2) and match row for row."""
        disc = _disc_masks([(40.0, 40.0)])[0]
        xy = np.zeros((4, 2))
        for a, b in ((xy, xy[:3]), (xy, xy[:1]), (xy[:, 0], xy[:, 0])):
            with pytest.raises(ValueError, match="match row for row"):
                slip.step_velocity(disc, disc, a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_position_raises(self, bad, which):
        """A NaN position once read as a marker velocity of NaN, which the
        rule took for no slip; now the step raises, whether or not the frame
        has contact, and before ``contains`` casts it to a pixel."""
        disc = _disc_masks([(40.0, 40.0)])[0]
        xy = np.array([[40.0, 40.0], [41.0, 39.0], [80.0, 10.0]])
        moved = [xy, xy + 1.0]
        moved[which] = moved[which].copy()
        moved[which][1, which] = bad
        for cur in (disc, _EMPTY):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="must be finite"):
                    slip.step_velocity(disc, cur, *moved)


def _flags(ov, mv, threshold):
    """The threshold rule applied frame by frame."""
    return np.array([slip.detect_slip(o, m, threshold) for o, m in zip(ov, mv)])


class TestThresholdRule:
    def test_strictly_greater(self):
        assert not slip.detect_slip([10.0, 0.0], [0.0, 0.0], 10.0)
        assert slip.detect_slip([10.0 + 1e-9, 0.0], [0.0, 0.0], 10.0)
        assert not slip.detect_slip([6.0, 8.0], [0.0, 0.0], 10.0)
        assert slip.detect_slip([6.1, 8.1], [0.0, 0.0], 10.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 40.0), st.floats(0.0, 40.0))
    def test_monotone_in_threshold(self, seed, t_low, extra):
        r = np.random.default_rng(seed)
        ov = r.normal(0, 8, (30, 2))
        mv = r.normal(0, 8, (30, 2))
        low = _flags(ov, mv, t_low)
        high = _flags(ov, mv, t_low + extra)
        assert np.all(high <= low)        # raising the threshold never adds flags

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_rigid_common_motion_is_never_slip(self, seed):
        r = np.random.default_rng(seed)
        v = r.normal(0, 30, (20, 2))
        flags = _flags(v, v, 1e-12)
        assert not flags.any()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_unusable_thresholds(self, bad):
        """A threshold that is not finite and positive raises wherever the
        rule or the labels use it."""
        match = "threshold_px must be finite and positive"
        with pytest.raises(ValueError, match=match):
            slip.detect_slip(np.zeros(2), np.zeros(2), bad)
        masks = _disc_masks([(40.0, 40.0)] * 3)
        tracks = _static_tracks(3, np.array([[40.0, 40.0], [60.0, 60.0]]))
        with pytest.raises(ValueError, match=match):
            slip.analyze_sequence(masks, tracks, bad)
        with pytest.raises(ValueError, match=match):
            sim.synth_slip_sequence(sim.GraspScene(load_g=10.0), 10,
                                    threshold_px=bad)

    @pytest.mark.parametrize("v", [[np.nan, 0.0], [0.0, np.inf],
                                   [-np.inf, np.nan]])
    def test_non_finite_velocity_raises(self, v):
        """NaN is not greater than the threshold, so it once read as no
        slip."""
        with pytest.raises(ValueError, match="must be finite"):
            slip.detect_slip(v, [0.0, 0.0])
        with pytest.raises(ValueError, match="must be finite"):
            slip.detect_slip([0.0, 0.0], v)

    def test_huge_threshold_flags_nothing(self):
        ov = rng.normal(0, 50, (40, 2))
        mv = rng.normal(0, 50, (40, 2))
        assert not _flags(ov, mv, 1e9).any()


class TestAnalyzeSequence:
    @pytest.fixture(scope="class")
    def intact(self):
        scene = sim.GraspScene(load_g=20)
        return sim.synth_slip_sequence(scene, 200, rng=np.random.default_rng(3))

    def test_a_lost_marker_changes_only_its_two_steps(self, intact):
        """Marker 3 lost in frame 150 alone: every row but 150 and 151 keeps
        its bits, and frame 50's speed is the step on frames 49-50."""
        tracks = list(intact.tracks)
        keep = tracks[150].ids != 3
        tracks[150] = MarkerSet(tracks[150].ids[keep], tracks[150].xy[keep])
        want = slip.analyze_sequence(intact.masks, intact.tracks)
        got = slip.analyze_sequence(intact.masks, tracks)
        rows = np.setdiff1d(np.arange(200), [150, 151])
        for name in ("object_v", "marker_v", "speed_diff", "flags"):
            a, b = getattr(got, name), getattr(want, name)
            assert a[rows].tobytes() == b[rows].tobytes(), name
        assert len(slip.match_markers(tracks[149], tracks[150])[0]) == (
            len(intact.tracks[150]) - 1)
        v_obj, v_mark = slip.step_velocity(
            intact.masks[49], intact.masks[50],
            *slip.match_markers(tracks[49], tracks[50]))
        assert got.speed_diff[50] == np.linalg.norm(v_obj - v_mark)

    def test_consistent_with_components(self):
        scene = sim.GraspScene(load_g=50.0)
        seq = sim.synth_slip_sequence(scene, 80, rng=np.random.default_rng(1))
        report = slip.analyze_sequence(seq.masks, seq.tracks, 10.0)
        ov = slip.object_velocity(seq.masks)
        mv = slip.marker_velocity(seq.tracks, seq.masks)
        assert np.array_equal(report.object_v, ov)
        assert np.array_equal(report.marker_v, mv)
        assert np.array_equal(report.flags, _flags(ov, mv, 10.0))
        assert not hasattr(report, "f1")     # scores are a SlipScore

    def test_report_invariant_enforced(self):
        diff = np.array([1.0, 20.0])
        with pytest.raises(ValueError):
            slip.SlipReport(np.zeros((2, 2)), np.zeros((2, 2)), diff,
                            np.array([True, True]), 10.0)


class TestEvaluation:
    def test_exact_counts(self):
        pred = np.array([0, 1, 1, 0, 1], dtype=bool)
        truth = np.array([0, 1, 0, 1, 1], dtype=bool)
        out = slip.evaluate_slip_detector(pred, truth, fps=10.0)
        assert isinstance(out, slip.SlipScore)
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.f1 = 1.0
        assert out.precision == pytest.approx(2 / 3)
        assert out.recall == pytest.approx(2 / 3)
        assert out.f1 == pytest.approx(2 / 3)
        # first truth onset frame 1, first prediction frame 1
        assert out.mean_lead_s == pytest.approx(0.0)

    def test_lead_time_sign(self):
        pred = np.array([0, 1, 0, 1], dtype=bool)    # fires at frame 1
        truth = np.array([0, 0, 0, 1], dtype=bool)   # onset at frame 3
        out = slip.evaluate_slip_detector(pred, truth, fps=15.0)
        assert out.mean_lead_s == pytest.approx(2 / 15.0)

    @pytest.mark.parametrize("fps", [0.0, -15.0, np.nan, np.inf])
    def test_rejects_bad_fps(self, fps):
        """Before, 0 divided by zero on a trial with a hit and a negative
        rate flipped the lead's sign."""
        hit = np.array([0, 1, 1], dtype=bool)
        with pytest.raises(ValueError, match="fps must be finite and positive"):
            slip.evaluate_slip_detector(hit, hit, fps=fps)

    def test_multiple_trials_pooled(self):
        p1 = np.array([1, 0], dtype=bool)
        g1 = np.array([1, 0], dtype=bool)
        p2 = np.array([0, 0, 1], dtype=bool)
        g2 = np.array([0, 1, 1], dtype=bool)
        out = slip.evaluate_slip_detector([p1, p2], [g1, g2])
        assert out.precision == pytest.approx(1.0)
        assert out.recall == pytest.approx(2 / 3)

    def test_trial_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            slip.evaluate_slip_detector([np.zeros(3, bool)],
                                        [np.zeros(3, bool)] * 2)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            slip.evaluate_slip_detector([np.zeros(3, bool)],
                                        [np.zeros(4, bool)])

    def test_no_positives_gives_zero_scores(self):
        out = slip.evaluate_slip_detector(np.zeros(5, bool), np.zeros(5, bool))
        assert out.precision == 0.0 and out.recall == 0.0 and out.f1 == 0.0


class TestDetectorOnSimulator:
    def test_zero_load_trial_produces_no_flags(self):
        scene = sim.GraspScene(load_g=0.0)
        seq = sim.synth_slip_sequence(scene, 60, rng=np.random.default_rng(2),
                                      marker_jitter_px=0.1)
        report = slip.analyze_sequence(seq.masks, seq.tracks, 10.0)
        assert int(report.flags.sum()) == 0

    def test_loaded_trial_detects_slip_phase(self):
        scene = sim.GraspScene(load_g=50.0)
        seq = sim.synth_slip_sequence(scene, 100,
                                      rng=np.random.default_rng(3))
        report = slip.analyze_sequence(seq.masks, seq.tracks, 10.0)
        assert seq.labels.any()
        scored = slip.evaluate_slip_detector(report.flags, seq.labels)
        assert scored.f1 > 0.5

    def test_held_out_grid_under_ten_times_the_marker_jitter(self):
        """The raw two-frame rule on a grid no other test uses: seed 11,
        100-frame trials, 3 px marker jitter (the default is 0.3 px)."""
        seqs = sim.make_slip_benchmark(seed=11, repeats=1, n_frames=100,
                                       marker_jitter_px=3.0)
        preds = [slip.analyze_sequence(s.masks, s.tracks).flags for s in seqs]
        report = slip.evaluate_slip_detector(preds, [s.labels for s in seqs])
        assert report.f1 >= 0.95
