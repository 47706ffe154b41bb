"""Slip detection: contact segmentation, centroid/marker velocities, the
threshold rule, and the frame-level evaluation harness.

The rule is deliberately simple: a frame is a slip frame when the contact
region's centroid moves strictly more than ``threshold_px`` pixels per frame
relative to the mean motion of the markers inside that region. Both motions
are the raw step from the frame before, with no smoothing, so a burst is
flagged on the frame it starts. ``object_velocity`` and ``marker_velocity``
give whole series; ``newest_velocity``, the one entry of the perception tick
and of harvest trials, gives the newest frame alone from the two frames the
rule reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .core import (HeightMap, MarkerSet, _check_positive, _freeze, _Frozen,
                   _Windowed)

DEFAULT_THRESHOLD_PX = 10.0
DEFAULT_CONTACT_THRESHOLD_MM = 0.3
#: Frames of contact and marker history the slip rule reads each tick.
TICK_WINDOW = 2


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
        to the nearest pixel and clipped to the frame."""
        xy = np.reshape(xy, (-1, 2))
        if self.area == 0:
            return np.zeros(len(xy), dtype=bool)
        return _members([self], xy[None])[0]


def _members(masks: Sequence[ContactMask], xy: np.ndarray) -> np.ndarray:
    """(L, N) membership of positions ``xy`` (L, N, 2) in each of L masks
    with contact, as ``ContactMask.contains`` tests them: a position,
    snapped to the nearest pixel and clipped to the frame, is in a mask when
    clipping it to the mask's box leaves it where it is and the box holds
    True there. One pass over all masks, then one gather a mask."""
    # frame width and height, then the box's columns and rows, each (L, 1)
    w, h, c0, c1, r0, r1 = np.array(
        [m.frame_shape[::-1] + m.support[2:] + m.support[:2] for m in masks]
    ).T[:, :, None]
    cells = np.rint(xy).astype(int)
    x = np.clip(cells[..., 0], 0, w - 1)
    y = np.clip(cells[..., 1], 0, h - 1)
    bx = np.clip(x, c0, c1 - 1)
    by = np.clip(y, r0, r1 - 1)
    inside = (bx == x) & (by == y)
    bx -= c0
    by -= r0
    return inside & np.array([m.values[r, c] for m, r, c in zip(masks, by, bx)])


def segment_contact(h: HeightMap, threshold_mm: float = DEFAULT_CONTACT_THRESHOLD_MM) -> ContactMask:
    """Threshold the heightmap into a contact mask (strictly greater than)."""
    return ContactMask(h.values > threshold_mm, threshold_mm, h.px_per_mm)


def _object_step(prev, cur) -> np.ndarray:
    """Centroid step (2,) from contact ``prev`` to ``cur``; zero unless both
    have contact."""
    if prev.area and cur.area:
        return cur.centroid() - prev.centroid()
    return np.zeros(2)


def _member_velocity(steps: np.ndarray, inside: np.ndarray, xy: np.ndarray,
                     contacts) -> np.ndarray:
    """Mean (L, 2) of the (L, N, 2) marker steps over the markers each of L
    contacts drags: those ``inside`` it (L, N, filled in place), else the
    four of its positions ``xy`` (L, N, 2) nearest its centroid, ties to the
    lower index. Zeros stand in for the others in the sum, which keeps the
    bits of a mean over the members alone."""
    for row in np.flatnonzero(~inside.any(axis=1)):
        d = np.linalg.norm(xy[row] - contacts[row].centroid(), axis=1)
        inside[row, np.argsort(d, kind="stable")[:4]] = True
    return (np.add.reduce(steps * inside[:, :, None], axis=1)
            / inside.sum(axis=1)[:, None])


def object_velocity(masks: Sequence[ContactMask]) -> np.ndarray:
    """Per-frame centroid velocity (T, 2) px/frame: frame t's centroid minus
    frame t-1's when both frames have contact, else zero (so the first
    frame, and the first of each run of contact frames, get zero)."""
    if len(masks) < 2:
        raise ValueError("need at least 2 frames of contact masks")
    v = np.zeros((len(masks), 2))
    v[1:] = [_object_step(prev, cur) for prev, cur in zip(masks, masks[1:])]
    return v


def matched_positions(tracks: Sequence[MarkerSet]) -> np.ndarray:
    """Positions (T, N, 2) of the marker ids every frame holds: the frames'
    own rows, or the shared ids in id order when a frame lost some. A window
    with no common id raises ``ValueError``."""
    xys = [t.xy for t in tracks]
    if any(not np.array_equal(t.ids, tracks[0].ids) for t in tracks[1:]):
        ids = reduce(np.intersect1d, [t.ids for t in tracks])
        if ids.size == 0:
            raise ValueError("no marker id is common to every frame")
        xys = [t.xy[np.intersect1d(t.ids, ids, return_indices=True)[1]]
               for t in tracks]
    return np.array(xys)


def marker_velocity(tracks: Sequence[MarkerSet],
                    masks: Sequence[ContactMask]) -> np.ndarray:
    """Mean velocity (T, 2) of the markers inside the contact region: the
    member mean of each marker's step from the frame before.

    Membership is evaluated against the frame's own mask. If noise
    momentarily leaves no marker inside the region, the four markers nearest
    the region centroid stand in, so the series stays defined.
    A frame without contact has no region and gets zero velocity. Markers
    are matched by id (``matched_positions``).
    """
    if len(tracks) < 2:
        raise ValueError("need at least 2 frames of marker tracks")
    if len(masks) != len(tracks):
        raise ValueError("masks and tracks length mismatch")
    pos = matched_positions(tracks)
    v = np.zeros((len(tracks), 2))
    live = 1 + np.flatnonzero([m.area > 0 for m in masks[1:]])
    if not live.size:
        return v
    live_masks = [masks[t] for t in live]
    live_xy = pos[live]
    v[live] = _member_velocity(live_xy - pos[live - 1],
                               _members(live_masks, live_xy), live_xy,
                               live_masks)
    return v


def newest_velocity(contacts: Sequence, xy) -> tuple[np.ndarray, np.ndarray]:
    """Object and marker velocity (2,) of the newest frame of a window: the
    last rows of ``object_velocity(contacts)`` and ``marker_velocity`` over
    the same frames, bit for bit, from the last two frames alone through the
    same two steps (``_object_step`` and ``_member_velocity``). Of each
    contact the rule reads only ``area``, ``centroid()`` and
    ``contains(xy)``; ``xy`` holds the (T, N, 2) marker positions, oldest
    first, matched as ``matched_positions`` does.
    """
    xy = np.asarray(xy, dtype=np.float64)
    if len(contacts) < 2 or len(xy) != len(contacts):
        raise ValueError("need at least 2 frames, each with a contact and "
                         "marker positions")
    last = contacts[-1]
    if last.area == 0:
        return np.zeros(2), np.zeros(2)
    v_mark = _member_velocity((xy[-1] - xy[-2])[None],
                              last.contains(xy[-1])[None], xy[-1:], [last])[0]
    return _object_step(contacts[-2], last), v_mark


def detect_slip(obj_v: np.ndarray, marker_v: np.ndarray,
                threshold_px: float = DEFAULT_THRESHOLD_PX) -> bool:
    """Slip iff the velocity difference magnitude strictly exceeds the
    threshold, which must be finite and positive."""
    _check_positive(threshold_px, "threshold_px")
    diff = np.asarray(obj_v, dtype=np.float64) - np.asarray(marker_v, dtype=np.float64)
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
    """Run the full per-frame detector over one trial; ``threshold_px`` must
    be finite and positive."""
    _check_positive(threshold_px, "threshold_px")
    ov = object_velocity(masks)
    mv = marker_velocity(tracks, masks)
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
