"""Slip detection: contact segmentation, centroid/marker velocities, the
threshold rule, and the frame-level evaluation harness.

The rule is deliberately simple: a frame is a slip frame when the contact
region's centroid moves strictly more than ``threshold_px`` pixels per frame
relative to the mean motion of the markers inside that region. Centroids and
marker trajectories are smoothed with a short trailing moving average first
(window 3 by default, window 1 disables it) because single-pixel centroid
jitter otherwise dominates the finite difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Sequence

import numpy as np

from .core import HeightMap, MarkerSet

DEFAULT_THRESHOLD_PX = 10.0
DEFAULT_CONTACT_THRESHOLD_MM = 0.3
DEFAULT_SMOOTH_WINDOW = 3


@dataclass(frozen=True)
class ContactMask:
    """Boolean contact region, h > threshold_mm on the heightmap grid."""

    values: np.ndarray          # (H, W) bool
    threshold_mm: float
    px_per_mm: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=bool)
        if v.ndim != 2:
            raise ValueError("mask must be 2-D")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def area(self) -> int:
        cached = self.__dict__.get("_area")
        if cached is None:
            cached = int(np.count_nonzero(self.values))
            object.__setattr__(self, "_area", cached)
        return cached

    def centroid(self) -> np.ndarray:
        """Mask centroid as (x, y) pixels; requires a non-empty mask.

        The mask array is immutable, so the centroid is computed once and
        cached; callers that poll sliding windows pay for it only once. The
        coordinate sums are exact int64 dot products with the per-column and
        per-row pixel counts, so the one float division gives the same bits
        as the mean of the ``np.nonzero`` coordinates, without listing them.
        """
        cached = self.__dict__.get("_centroid")
        if cached is None:
            if self.area == 0:
                raise ValueError("centroid of an empty contact mask")
            h, w = self.values.shape
            sx = np.arange(w) @ np.count_nonzero(self.values, axis=0)
            sy = np.arange(h) @ np.count_nonzero(self.values, axis=1)
            cached = np.array([sx / self.area, sy / self.area])
            cached.setflags(write=False)
            object.__setattr__(self, "_centroid", cached)
        return cached

    def equivalent_radius_px(self) -> float:
        return float(np.sqrt(self.area / np.pi))

    def resampled(self, shape: tuple[int, int]) -> "ContactMask":
        """Nearest-neighbour resample onto a different grid resolution."""
        h, w = self.values.shape
        oh, ow = shape
        ri = np.minimum((np.arange(oh) + 0.5) * h / oh, h - 1).astype(int)
        ci = np.minimum((np.arange(ow) + 0.5) * w / ow, w - 1).astype(int)
        scale = self.px_per_mm * ow / w
        return ContactMask(self.values[np.ix_(ri, ci)], self.threshold_mm, scale)

    def contains(self, xy: np.ndarray) -> np.ndarray:
        """Membership test for (N, 2) pixel positions (x, y)."""
        xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
        h, w = self.values.shape
        cols = np.clip(np.rint(xy[:, 0]).astype(int), 0, w - 1)
        rows = np.clip(np.rint(xy[:, 1]).astype(int), 0, h - 1)
        return self.values[rows, cols]


def segment_contact(h: HeightMap, threshold_mm: float = DEFAULT_CONTACT_THRESHOLD_MM) -> ContactMask:
    """Threshold the heightmap into a contact mask (strictly greater than)."""
    if not threshold_mm > 0:
        raise ValueError("contact threshold must be positive")
    return ContactMask(h.values > threshold_mm, threshold_mm, h.px_per_mm)


def _trailing_mean(x: np.ndarray, window: int) -> np.ndarray:
    """Causal moving average; row t averages rows max(0, t-window+1)..t.

    Every row is a difference of two rows of one cumulative sum taken from
    row 0, so the rounding depends on where ``x`` starts, not only on the
    rows inside the window.
    """
    if window <= 1:
        return x.copy()
    csum = np.cumsum(x, axis=0, dtype=np.float64)
    total = csum.copy()
    total[window:] -= csum[:-window]
    count = np.minimum(np.arange(1, x.shape[0] + 1), window)
    return total / count.reshape((-1,) + (1,) * (x.ndim - 1))


def _centroid_velocity(cents: np.ndarray, smooth_window: int) -> np.ndarray:
    """Velocity (T, 2) over one run of contact frames from their centroids.

    The centroids are smoothed over the run, so the run's first row is its
    start; that row gets zero velocity.
    """
    v = np.zeros((cents.shape[0], 2))
    v[1:] = np.diff(_trailing_mean(cents, smooth_window), axis=0)
    return v


def _dragged_velocity(step: np.ndarray, xy: np.ndarray, inside: np.ndarray,
                      centroid) -> np.ndarray:
    """Mean (2,) of the per-marker steps (N, 2) over the markers a region drags.

    Those are the markers ``inside`` it; if noise leaves none inside, the
    four nearest the region centroid stand in. ``centroid`` is a zero-argument
    callable, evaluated only for that fallback.
    """
    if not inside.any():
        d = np.linalg.norm(xy - centroid(), axis=1)
        inside = np.zeros(len(d), dtype=bool)
        inside[np.argsort(d, kind="stable")[:4]] = True
    return step[inside].mean(axis=0)


def object_velocity(masks: Sequence[ContactMask],
                    smooth_window: int = DEFAULT_SMOOTH_WINDOW) -> np.ndarray:
    """Per-frame centroid velocity (T, 2) px/frame.

    Each maximal run of frames with contact is smoothed on its own, so a
    frame without contact never feeds a centroid into its neighbours. Frames
    without contact, and the first frame of each run, get zero velocity.
    """
    if len(masks) < 2:
        raise ValueError("need at least 2 frames of contact masks")
    v = np.zeros((len(masks), 2))
    at = 0
    for contact, run in groupby(masks, key=lambda m: m.area > 0):
        run = list(run)
        if contact:
            v[at:at + len(run)] = _centroid_velocity(
                np.array([m.centroid() for m in run]), smooth_window)
        at += len(run)
    return v


def marker_velocity(tracks: Sequence[MarkerSet],
                    masks: ContactMask | Sequence[ContactMask],
                    smooth_window: int = DEFAULT_SMOOTH_WINDOW) -> np.ndarray:
    """Mean velocity (T, 2) of the markers inside the contact region.

    Membership is evaluated against the frame's own mask (or a single static
    mask). If noise momentarily leaves no marker inside the region, the four
    markers nearest the region centroid stand in, so the series stays defined.
    A frame without contact has no region and gets zero velocity.
    """
    if len(tracks) < 2:
        raise ValueError("need at least 2 frames of marker tracks")
    if isinstance(masks, ContactMask):
        masks = [masks] * len(tracks)
    if len(masks) != len(tracks):
        raise ValueError("masks and tracks length mismatch")
    ids0 = tracks[0].ids
    if any(not np.array_equal(t.ids, ids0) for t in tracks[1:]):
        raise ValueError("marker ids must match across frames")
    pos = np.array([t.xy for t in tracks])        # (T, N, 2)
    pos_s = _trailing_mean(pos.reshape(len(tracks), -1), smooth_window).reshape(pos.shape)
    steps = np.diff(pos_s, axis=0)
    v = np.zeros((len(tracks), 2))
    for t in range(1, len(tracks)):
        if masks[t].area == 0:
            continue
        xy = tracks[t].xy
        v[t] = _dragged_velocity(steps[t - 1], xy, masks[t].contains(xy),
                                 masks[t].centroid)
    return v


def detect_slip(obj_v: np.ndarray, marker_v: np.ndarray,
                threshold_px: float = DEFAULT_THRESHOLD_PX) -> bool:
    """Slip iff the velocity difference magnitude strictly exceeds the threshold."""
    diff = np.asarray(obj_v, dtype=np.float64) - np.asarray(marker_v, dtype=np.float64)
    return bool(np.linalg.norm(diff) > threshold_px)


def detect_slip_series(obj_v: np.ndarray, marker_v: np.ndarray,
                       threshold_px: float = DEFAULT_THRESHOLD_PX) -> np.ndarray:
    """Vectorized threshold rule over (T, 2) velocity series."""
    diff = np.linalg.norm(np.asarray(obj_v) - np.asarray(marker_v), axis=1)
    return diff > threshold_px


@dataclass(frozen=True)
class SlipReport:
    """Per-frame detector outputs plus (when evaluated) summary metrics."""

    object_v: np.ndarray        # (T, 2)
    marker_v: np.ndarray        # (T, 2)
    speed_diff: np.ndarray      # (T,)
    flags: np.ndarray           # (T,) bool
    threshold_px: float = DEFAULT_THRESHOLD_PX
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    mean_lead_s: float | None = None

    def __post_init__(self):
        flags = np.asarray(self.flags, dtype=bool)
        diff = np.asarray(self.speed_diff, dtype=np.float64)
        if flags.shape != diff.shape:
            raise ValueError("flags and speed_diff shape mismatch")
        if not np.array_equal(flags, diff > self.threshold_px):
            raise ValueError("flags inconsistent with the threshold rule")


def analyze_sequence(masks: Sequence[ContactMask], tracks: Sequence[MarkerSet],
                     threshold_px: float = DEFAULT_THRESHOLD_PX,
                     smooth_window: int = DEFAULT_SMOOTH_WINDOW) -> SlipReport:
    """Run the full per-frame detector over one trial."""
    ov = object_velocity(masks, smooth_window)
    mv = marker_velocity(tracks, masks, smooth_window)
    diff = np.linalg.norm(ov - mv, axis=1)
    return SlipReport(ov, mv, diff, diff > threshold_px, threshold_px)


def _as_trials(x) -> list[np.ndarray]:
    x = list(x) if not isinstance(x, np.ndarray) else [x]
    if len(x) and np.asarray(x[0]).ndim == 0:      # a single flat series
        return [np.asarray(x, dtype=bool)]
    return [np.asarray(t, dtype=bool) for t in x]


def evaluate_slip_detector(predictions, ground_truth, fps: float = 15.0) -> SlipReport:
    """Frame-level precision/recall/F1 pooled over trials, plus mean lead time.

    Lead time for a trial is (ground-truth onset time - first predicted slip
    time); positive means the detector fired early. It is averaged over trials
    that contain at least one correctly detected slip frame.
    """
    preds = _as_trials(predictions)
    truths = _as_trials(ground_truth)
    if len(preds) != len(truths):
        raise ValueError("predictions and ground truth trial counts differ")
    tp = fp = fn = 0
    leads = []
    for p, g in zip(preds, truths):
        if p.shape != g.shape:
            raise ValueError("prediction/ground-truth length mismatch in a trial")
        tp += int(np.sum(p & g))
        fp += int(np.sum(p & ~g))
        fn += int(np.sum(~p & g))
        if np.any(p & g):
            t_gt = int(np.argmax(g))
            t_pred = int(np.argmax(p))
            leads.append((t_gt - t_pred) / fps)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    lead = float(np.mean(leads)) if leads else 0.0
    empty = np.zeros((0,))
    return SlipReport(np.zeros((0, 2)), np.zeros((0, 2)), empty,
                      empty.astype(bool), DEFAULT_THRESHOLD_PX,
                      precision, recall, f1, lead)
