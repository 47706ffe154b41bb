"""Slip detection: segmentation, velocities, the threshold rule, scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripsense import sim, slip
from gripsense.core import HeightMap, MarkerSet
from oracles import trailing_mean_reference

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
        small = m.resampled((32, 32))
        frac_a = m.area / 64 ** 2
        frac_b = small.area / 32 ** 2
        assert abs(frac_a - frac_b) < 0.02
        assert small.px_per_mm == pytest.approx(1.0)

    def test_equivalent_radius(self):
        m = slip.ContactMask(_disc(64, 32, 32, 12), 0.3)
        assert m.equivalent_radius_px() == pytest.approx(12.0, abs=0.2)

    def test_contains(self):
        m = slip.ContactMask(_disc(32, 16, 16, 5), 0.3)
        got = m.contains(np.array([[16.0, 16.0], [0.0, 0.0]]))
        assert got.tolist() == [True, False]


class TestObjectVelocity:
    def test_constant_motion_after_warmup(self):
        centers = [(20.0 + 2.0 * t, 30.0) for t in range(10)]
        v = slip.object_velocity(_disc_masks(centers), smooth_window=1)
        assert v.shape == (10, 2)
        assert np.allclose(v[0], 0.0)
        assert np.allclose(v[3:, 0], 2.0, atol=0.1)
        assert np.allclose(v[3:, 1], 0.0, atol=0.1)

    def test_static_masks_zero_velocity(self):
        v = slip.object_velocity(_disc_masks([(30.0, 30.0)] * 6))
        assert np.allclose(v, 0.0, atol=1e-12)

    def test_smoothing_reduces_jitter(self):
        centers = [(30.0 + rng.normal(0, 1.5), 30.0) for _ in range(40)]
        raw = slip.object_velocity(_disc_masks(centers), smooth_window=1)
        smooth = slip.object_velocity(_disc_masks(centers), smooth_window=3)
        assert np.std(smooth[5:, 0]) < np.std(raw[5:, 0])

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            slip.object_velocity(_disc_masks([(30.0, 30.0)]))

    def test_all_contact_is_the_smoothed_centroid_difference(self):
        jitter = np.random.default_rng(4).normal(0, 1.5, (12, 2))
        centers = [(30.0 + dx, 30.0 + dy) for dx, dy in jitter]
        masks = _disc_masks(centers)
        cents = slip._trailing_mean(np.array([m.centroid() for m in masks]), 3)
        want = np.zeros_like(cents)
        want[1:] = np.diff(cents, axis=0)
        assert np.array_equal(slip.object_velocity(masks), want)

    @pytest.mark.parametrize("rows, cols, window", [
        (1, 2, 3), (2, 2, 3), (6, 18, 3), (200, 162, 3), (7, 1, 7),
        (9, 4, 12), (50, 2, 1), (40, 3, 5)])
    def test_trailing_mean_matches_row_loop(self, rows, cols, window):
        x = rng.normal(0.0, 100.0, (rows, cols)) + 160.0
        assert np.array_equal(slip._trailing_mean(x, window),
                              trailing_mean_reference(x, window))

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
        v = slip.marker_velocity(tracks, masks, smooth_window=1)
        assert np.allclose(v[2:, 0], 1.5, atol=0.2)

    def test_single_static_mask_accepted(self):
        tracks = _static_tracks(5, rng.uniform(20, 70, (6, 2)))
        mask = slip.ContactMask(_disc(96, 45, 45, 30), 0.3)
        v = slip.marker_velocity(tracks, mask)
        assert np.allclose(v, 0.0, atol=1e-12)

    def test_nearest_marker_fallback_when_none_inside(self):
        # markers all sit far outside a tiny contact disc
        xy = np.array([[5.0, 5.0], [90.0, 5.0], [5.0, 90.0],
                       [90.0, 90.0], [50.0, 5.0]])
        tracks = [MarkerSet(np.arange(5), xy + [0.5 * t, 0.0])
                  for t in range(6)]
        masks = _disc_masks([(48.0, 48.0)] * 6, r=3.0)
        v = slip.marker_velocity(tracks, masks, smooth_window=1)
        assert np.all(np.isfinite(v))
        assert np.allclose(v[2:, 0], 0.5, atol=0.2)

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

    def test_mismatched_ids_raise(self):
        a = MarkerSet(np.array([0, 1, 2]), rng.uniform(10, 80, (3, 2)))
        b = MarkerSet(np.array([0, 1, 5]), rng.uniform(10, 80, (3, 2)))
        with pytest.raises(ValueError):
            slip.marker_velocity([a, b], _disc_masks([(40.0, 40.0)] * 2))

    def test_length_mismatch_raises(self):
        tracks = _static_tracks(3, rng.uniform(20, 70, (4, 2)))
        with pytest.raises(ValueError):
            slip.marker_velocity(tracks, _disc_masks([(40.0, 40.0)] * 2))


class TestThresholdRule:
    def test_strictly_greater(self):
        assert not slip.detect_slip([10.0, 0.0], [0.0, 0.0], 10.0)
        assert slip.detect_slip([10.0 + 1e-9, 0.0], [0.0, 0.0], 10.0)
        assert not slip.detect_slip([6.0, 8.0], [0.0, 0.0], 10.0)
        assert slip.detect_slip([6.1, 8.1], [0.0, 0.0], 10.0)

    def test_series_matches_scalar_rule(self):
        ov = rng.normal(0, 8, (50, 2))
        mv = rng.normal(0, 8, (50, 2))
        flags = slip.detect_slip_series(ov, mv, 10.0)
        singles = [slip.detect_slip(o, m, 10.0) for o, m in zip(ov, mv)]
        assert flags.tolist() == singles

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 40.0), st.floats(0.0, 40.0))
    def test_monotone_in_threshold(self, seed, t_low, extra):
        r = np.random.default_rng(seed)
        ov = r.normal(0, 8, (30, 2))
        mv = r.normal(0, 8, (30, 2))
        low = slip.detect_slip_series(ov, mv, t_low)
        high = slip.detect_slip_series(ov, mv, t_low + extra)
        assert np.all(high <= low)        # raising the threshold never adds flags

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_rigid_common_motion_is_never_slip(self, seed):
        r = np.random.default_rng(seed)
        v = r.normal(0, 30, (20, 2))
        flags = slip.detect_slip_series(v, v, 1e-12)
        assert not flags.any()

    def test_huge_threshold_flags_nothing(self):
        ov = rng.normal(0, 50, (40, 2))
        mv = rng.normal(0, 50, (40, 2))
        assert not slip.detect_slip_series(ov, mv, 1e9).any()


class TestAnalyzeSequence:
    def test_consistent_with_components(self):
        scene = sim.GraspScene(load_g=50.0)
        seq = sim.synth_slip_sequence(scene, 80, rng=np.random.default_rng(1))
        report = slip.analyze_sequence(seq.masks, seq.tracks, 10.0, 3)
        ov = slip.object_velocity(seq.masks, 3)
        mv = slip.marker_velocity(seq.tracks, seq.masks, 3)
        assert np.array_equal(report.object_v, ov)
        assert np.array_equal(report.marker_v, mv)
        assert np.array_equal(report.flags,
                              slip.detect_slip_series(ov, mv, 10.0))
        assert report.precision is None

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
