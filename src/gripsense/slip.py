"""Slip detection: contact segmentation, centroid/marker velocities, the
threshold rule, and the frame-level evaluation harness.

The rule is deliberately simple: a frame is a slip frame when the contact
region's centroid moves strictly more than ``threshold_px`` pixels per frame
relative to the mean motion of the markers inside that region. Both motions
are the raw step from the frame before, with no smoothing, so a burst is
flagged on the frame it starts. ``step_velocity`` is the one code that
computes that step, from two frames alone with markers matched per step
(``match_markers``): the perception tick and harvest trials call it on their
newest pair, and ``object_velocity``, ``marker_velocity`` and
``analyze_sequence`` map it over every consecutive pair of a series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (HeightMap, MarkerSet, _check_positive, _freeze, _Frozen,
                   _Windowed)

DEFAULT_THRESHOLD_PX = 10.0
DEFAULT_CONTACT_THRESHOLD_MM = 0.3


@dataclass(frozen=True, eq=False)
class ContactMask(_Windowed):
    """Boolean contact region, h > threshold_mm on an (H, W) heightmap grid,
    held for the bounding box of its contact pixels only (``core._Windowed``):
    outside the box the mask is False by definition.

    Whether ``values`` is the whole raster or a window of the frame, the
    mask keeps the tight box of its True pixels, so every mask has one
    stored form; a mask without contact has the empty box (0, 0, 0, 0).
    """

    values: np.ndarray          # (r1 - r0, c1 - c0) bool
    threshold_mm: float
    px_per_mm: float = 1.0
    support: tuple | None = None
    frame_shape: tuple | None = None

    _OUTSIDE = False

    def __post_init__(self):
        _check_positive(self.threshold_mm, "threshold_mm")
        _check_positive(self.px_per_mm, "px_per_mm")
        v = np.asarray(self.values, dtype=bool)
        if v.ndim != 2:
            raise ValueError("mask must be 2-D")
        r0, _, c0, _ = self._resolve_window(v)
        # the box's first and last rows, then columns, with any contact
        rows = v.any(axis=1)
        if rows.any():
            top, bottom = int(rows.argmax()), rows.size - int(rows[::-1].argmax())
            cols = v[top:bottom].any(axis=0)
            left, right = int(cols.argmax()), cols.size - int(cols[::-1].argmax())
            v = v[top:bottom, left:right]
            box = (r0 + top, r0 + bottom, c0 + left, c0 + right)
        else:
            v, box = v[:0, :0], (0, 0, 0, 0)
        self._keep("values", v, bool)             # a copy of the box alone
        object.__setattr__(self, "support", box)

    @cached_property
    def area(self) -> int:
        return int(np.count_nonzero(self.values))

    def centroid(self) -> np.ndarray:
        """Mask centroid as (x, y) pixels; requires a non-empty mask.

        The mask array is immutable, so the centroid is computed once and
        cached; callers that poll sliding windows pay for it only once. The
        coordinate sums are exact int64 dot products of the box's frame
        coordinates with its per-column and per-row pixel counts, so the one
        float division gives the same bits as the mean of the whole raster's
        ``np.nonzero`` coordinates, without listing them.
        """
        return self._centroid

    @cached_property
    def _centroid(self) -> np.ndarray:
        if self.area == 0:
            raise ValueError("centroid of an empty contact mask")
        r0, r1, c0, c1 = self.support
        sx = np.arange(c0, c1) @ np.count_nonzero(self.values, axis=0)
        sy = np.arange(r0, r1) @ np.count_nonzero(self.values, axis=1)
        return _freeze(np.array([sx / self.area, sy / self.area]))

    def equivalent_radius_px(self) -> float:
        return float(np.sqrt(self.area / np.pi))

    def contains(self, xy: np.ndarray) -> np.ndarray:
        """Membership test for (N, 2) pixel positions (x, y), each snapped
        to the nearest pixel and clipped to the frame: a position is in the
        mask when its pixel lies in the box and the box holds True there.
        Only the positions inside the box read it."""
        xy = np.reshape(xy, (-1, 2))
        if self.area == 0:
            return np.zeros(len(xy), dtype=bool)
        (h, w), (r0, r1, c0, c1) = self.frame_shape, self.support
        # clipped before the cast to integers, which is undefined past
        # their range
        cells = np.rint(xy)
        x = np.minimum(np.maximum(cells[:, 0], 0), w - 1).astype(np.intp)
        y = np.minimum(np.maximum(cells[:, 1], 0), h - 1).astype(np.intp)
        inside = (x >= c0) & (x < c1) & (y >= r0) & (y < r1)
        inside[inside] = self.values[y[inside] - r0, x[inside] - c0]
        return inside


def segment_contact(h: HeightMap, threshold_mm: float = DEFAULT_CONTACT_THRESHOLD_MM) -> ContactMask:
    """Threshold the heightmap into a contact mask (strictly greater than)."""
    return ContactMask(h.values > threshold_mm, threshold_mm, h.px_per_mm)


def _object_step(prev, cur) -> np.ndarray:
    """Centroid step (2,) from contact ``prev`` to ``cur``; zero unless both
    have contact."""
    if prev.area and cur.area:
        return cur.centroid() - prev.centroid()
    return np.zeros(2)


def match_markers(prev: MarkerSet, cur: MarkerSet) -> tuple[np.ndarray, np.ndarray]:
    """Positions (N, 2) in ``prev`` and in ``cur`` of the marker ids both
    frames hold, row for row: the frames' own rows when their ids are equal,
    else the shared ids in id order. N is 0 when they share no id."""
    if np.array_equal(prev.ids, cur.ids):
        return prev.xy, cur.xy
    _, i, j = np.intersect1d(prev.ids, cur.ids, assume_unique=True,
                             return_indices=True)
    return prev.xy[i], cur.xy[j]


def step_velocity(prev, cur, xy_prev, xy_cur) -> tuple[np.ndarray, np.ndarray]:
    """Object and marker velocity (2,) px/frame of the step from frame
    ``prev`` to frame ``cur``, the one code that computes a slip velocity.

    The object velocity is the centroid step, zero unless both frames have
    contact. The marker velocity is the mean step ``xy_cur - xy_prev`` of
    the markers inside ``cur``'s contact, or of the four nearest its
    centroid (ties to the lower row) when none is inside. ``xy_prev`` and
    ``xy_cur`` hold (N, 2) positions of the same markers row for row
    (``match_markers``). A step into a frame without contact, or with no
    marker (N = 0), compares nothing: both velocities are zero. A
    non-finite position raises, before any contact is read. Of each
    contact the step reads only ``area``, ``centroid()`` and
    ``contains(xy)``.
    """
    xy_prev = np.asarray(xy_prev, dtype=np.float64)
    xy_cur = np.asarray(xy_cur, dtype=np.float64)
    if xy_prev.shape != xy_cur.shape or xy_cur.shape[1:] != (2,):
        raise ValueError("marker positions of the two frames must be (N, 2) "
                         "and match row for row")
    if not (np.isfinite(xy_prev).all() and np.isfinite(xy_cur).all()):
        raise ValueError("marker positions must be finite")
    if cur.area == 0 or not len(xy_cur):
        return np.zeros(2), np.zeros(2)
    inside = cur.contains(xy_cur)
    if not inside.any():
        d = np.linalg.norm(xy_cur - cur.centroid(), axis=1)
        inside[np.argsort(d, kind="stable")[:4]] = True
    moved = (xy_cur - xy_prev)[inside]
    return _object_step(prev, cur), moved.sum(axis=0) / len(moved)


def object_velocity(masks: Sequence[ContactMask]) -> np.ndarray:
    """Per-frame centroid velocity (T, 2) px/frame: frame t's centroid minus
    frame t-1's when both frames have contact, else zero (so the first
    frame, and the first of each run of contact frames, get zero). This is
    the object half of ``step_velocity`` on each frame pair, from the masks
    alone."""
    if len(masks) < 2:
        raise ValueError("need at least 2 frames of contact masks")
    v = np.zeros((len(masks), 2))
    v[1:] = [_object_step(prev, cur) for prev, cur in zip(masks, masks[1:])]
    return v


def _steps(tracks: Sequence[MarkerSet],
           masks: Sequence[ContactMask]) -> np.ndarray:
    """Object and marker velocities (2, T, 2): row 0 zero, row t the
    ``step_velocity`` from frame t-1 to frame t, markers matched per step."""
    if len(tracks) < 2:
        raise ValueError("need at least 2 frames of marker tracks")
    if len(masks) != len(tracks):
        raise ValueError("masks and tracks length mismatch")
    v = np.zeros((2, len(tracks), 2))
    for t in range(1, len(tracks)):
        v[:, t] = step_velocity(masks[t - 1], masks[t],
                                *match_markers(tracks[t - 1], tracks[t]))
    return v


def marker_velocity(tracks: Sequence[MarkerSet],
                    masks: Sequence[ContactMask]) -> np.ndarray:
    """Per-frame marker velocity (T, 2) px/frame: row t is the marker half
    of ``step_velocity`` from frame t-1 to frame t, with the markers both
    frames hold (``match_markers``), so a marker lost in one frame changes
    only the two steps that touch it. Row 0, a frame without contact, and a
    step whose frames share no marker id get zero.
    """
    return _steps(tracks, masks)[1]


def detect_slip(obj_v: np.ndarray, marker_v: np.ndarray,
                threshold_px: float = DEFAULT_THRESHOLD_PX) -> bool:
    """Slip iff the velocity difference magnitude strictly exceeds the
    threshold, which must be finite and positive. A non-finite velocity
    raises: NaN would otherwise read as no slip."""
    _check_positive(threshold_px, "threshold_px")
    diff = np.asarray(obj_v, dtype=np.float64) - np.asarray(marker_v, dtype=np.float64)
    if not np.isfinite(diff).all():
        raise ValueError("slip velocities must be finite")
    return bool(np.linalg.norm(diff) > threshold_px)


@dataclass(frozen=True, eq=False)
class SlipReport(_Frozen):
    """Per-frame detector outputs of one trial."""

    object_v: np.ndarray        # (T, 2)
    marker_v: np.ndarray        # (T, 2)
    speed_diff: np.ndarray      # (T,)
    flags: np.ndarray           # (T,) bool
    threshold_px: float = DEFAULT_THRESHOLD_PX

    def __post_init__(self):
        self._keep("object_v", self.object_v)
        self._keep("marker_v", self.marker_v)
        flags = self._keep("flags", self.flags, bool)
        diff = self._keep("speed_diff", self.speed_diff)
        if flags.shape != diff.shape:
            raise ValueError("flags and speed_diff shape mismatch")
        if not np.array_equal(flags, diff > self.threshold_px):
            raise ValueError("flags inconsistent with the threshold rule")


def analyze_sequence(masks: Sequence[ContactMask], tracks: Sequence[MarkerSet],
                     threshold_px: float = DEFAULT_THRESHOLD_PX) -> SlipReport:
    """Run the full per-frame detector over one trial: ``step_velocity`` on
    each frame pair, then the threshold rule; ``threshold_px`` must be
    finite and positive.

    A step whose two frames share no marker id compares nothing: both of its
    velocities are zero and it is not flagged, so there ``object_v`` differs
    from the masks-only ``object_velocity``.
    """
    _check_positive(threshold_px, "threshold_px")
    ov, mv = _steps(tracks, masks)
    diff = np.linalg.norm(ov - mv, axis=1)
    return SlipReport(ov, mv, diff, diff > threshold_px, threshold_px)


def _as_trials(x) -> list[np.ndarray]:
    x = list(x) if not isinstance(x, np.ndarray) else [x]
    if len(x) and np.asarray(x[0]).ndim == 0:      # a single flat series
        return [np.asarray(x, dtype=bool)]
    return [np.asarray(t, dtype=bool) for t in x]


@dataclass(frozen=True)
class SlipScore:
    """Pooled frame-level precision, recall and F1, and mean lead time (s)."""

    precision: float
    recall: float
    f1: float
    mean_lead_s: float


def evaluate_slip_detector(predictions, ground_truth, fps: float = 15.0) -> SlipScore:
    """Frame-level precision/recall/F1 pooled over trials, plus mean lead time.

    Lead time for a trial is (ground-truth onset time - first predicted slip
    time); positive means the detector fired early. It is averaged over trials
    that contain at least one correctly detected slip frame. ``fps`` must be
    finite and positive.
    """
    _check_positive(fps, "fps")
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
    return SlipScore(precision, recall, f1, lead)
