"""Shared domain types, frame rectification, differencing, and file formats.

Conventions used throughout the package:

* images are (H, W, 3) float arrays with intensities in [0, 1], row-major,
  x = column index, y = row index;
* heightmaps are millimetres, positive toward the camera, with ``px_per_mm``
  giving the isotropic pixel pitch;
* marker positions are in frame pixels.

``rectify_frame`` resamples through the bilinear homography warp
``_warp_bilinear``.

Everything here is immutable after construction: arrays are copied and marked
read-only, so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np


def _readonly(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _clip_owned(a: np.ndarray, lo: float, hi: float, what: str) -> None:
    """Check that the caller's own copy ``a`` is finite and in [lo, hi] up to
    1e-9, clip the slack in place, and mark it read-only."""
    amin, amax = a.min(), a.max()        # NaN and inf propagate into these
    if not (np.isfinite(amin) and np.isfinite(amax)):
        raise ValueError(f"{what} must be finite")
    if amin < lo - 1e-9 or amax > hi + 1e-9:
        raise ValueError(f"{what} must lie in [{lo:g}, {hi:g}]")
    if amin < lo or amax > hi:
        np.clip(a, lo, hi, out=a)
    a.setflags(write=False)


@dataclass(frozen=True)
class TactileFrame:
    """One rectified RGB raster from a finger's sensing surface."""

    pixels: np.ndarray          # (H, W, 3), values in [0, 1]
    px_per_mm: float
    timestamp: float = 0.0

    def __post_init__(self):
        px = np.array(self.pixels, dtype=np.float64)
        if px.ndim != 3 or px.shape[2] != 3:
            raise ValueError(f"pixels must be (H, W, 3), got {px.shape}")
        if px.shape[0] < 8 or px.shape[1] < 8:
            raise ValueError(f"frame must be at least 8x8, got {px.shape[:2]}")
        _clip_owned(px, 0.0, 1.0, "pixel intensities")
        if not self.px_per_mm > 0:
            raise ValueError("px_per_mm must be positive")
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class DiffFrame:
    """Background-subtracted frame; values in [-1, 1] on the source grid."""

    values: np.ndarray          # (H, W, 3)
    px_per_mm: float
    timestamp: float = 0.0

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 3 or v.shape[2] != 3:
            raise ValueError(f"values must be (H, W, 3), got {v.shape}")
        _clip_owned(v, -1.0, 1.0, "diff values")
        if not self.px_per_mm > 0:
            raise ValueError("px_per_mm must be positive")
        object.__setattr__(self, "values", v)

    @property
    def shape(self) -> tuple:
        return self.values.shape


@dataclass(frozen=True)
class NormalMap:
    """Per-pixel unit surface normals (nx, ny, nz) with nz > 0."""

    values: np.ndarray          # (H, W, 3)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3 or v.shape[2] != 3:
            raise ValueError(f"values must be (H, W, 3), got {v.shape}")
        norms = np.sqrt(v[:, :, 0] ** 2 + v[:, :, 1] ** 2 + v[:, :, 2] ** 2)
        # written so that a NaN in any component fails it
        if not np.all(np.abs(norms - 1.0) <= 1e-6):
            raise ValueError("normals must be unit length to 1e-6")
        if np.min(v[:, :, 2]) <= 0:
            raise ValueError("nz must be positive everywhere")
        object.__setattr__(self, "values", _readonly(v))


@dataclass(frozen=True)
class HeightMap:
    """Reconstructed or simulated contact geometry in millimetres.

    After gauge fixing (done by the producers: normal integration and the
    simulator) the minimum value is 0; arbitrary offsets are still
    constructible because error metrics align gauges themselves.
    """

    values: np.ndarray          # (H, W), mm
    px_per_mm: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("heightmap values must be finite")
        if not self.px_per_mm > 0:
            raise ValueError("px_per_mm must be positive")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def gauged(self) -> "HeightMap":
        """Copy with the minimum shifted to exactly 0."""
        return HeightMap(self.values - self.values.min(), self.px_per_mm)


@dataclass(frozen=True)
class MarkerSet:
    """Snapshot of etched-marker centroids (id, x, y) for one frame."""

    ids: np.ndarray             # (N,) int64, unique
    xy: np.ndarray              # (N, 2) float, pixels
    grid_rows: int = 0
    grid_cols: int = 0
    frame_width: float | None = None
    frame_height: float | None = None

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        xy = np.asarray(self.xy, dtype=np.float64).reshape(-1, 2)
        if ids.shape[0] != xy.shape[0]:
            raise ValueError("ids and xy length mismatch")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("marker ids must be unique")
        if xy.size and not np.all(np.isfinite(xy)):
            raise ValueError("marker positions must be finite")
        if self.frame_width is not None and xy.size:
            if (xy[:, 0].min() < 0 or xy[:, 0].max() > self.frame_width
                    or xy[:, 1].min() < 0 or xy[:, 1].max() > self.frame_height):
                raise ValueError("marker positions outside frame bounds")
        object.__setattr__(self, "ids", _readonly(ids, np.int64))
        object.__setattr__(self, "xy", _readonly(xy))

    def __len__(self) -> int:
        return self.ids.shape[0]

    @classmethod
    def empty(cls) -> "MarkerSet":
        return cls(np.empty(0, dtype=np.int64), np.empty((0, 2)))

    def moved(self, delta_xy: np.ndarray) -> "MarkerSet":
        """Same markers displaced by ``delta_xy`` (N, 2) pixels."""
        return MarkerSet(self.ids, self.xy + delta_xy, self.grid_rows,
                         self.grid_cols, self.frame_width, self.frame_height)


@dataclass(frozen=True)
class ScalarField:
    """Grid scalar (potentials of the field decomposition)."""

    values: np.ndarray          # (H, W)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("scalar field must be 2-D")
        if not np.all(np.isfinite(v)):
            raise ValueError("scalar field must be finite")
        object.__setattr__(self, "values", _readonly(v))


@dataclass(frozen=True)
class DisplacementField:
    """Dense 2-D vector field of marker motion on a regular grid (pixels)."""

    values: np.ndarray          # (H, W, 2)
    spacing_px: float = 1.0     # frame pixels between adjacent grid nodes
    origin_px: tuple = (0.0, 0.0)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3 or v.shape[2] != 2:
            raise ValueError(f"values must be (H, W, 2), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("displacement values must be finite")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def shape(self) -> tuple:
        return self.values.shape


# ---------------------------------------------------------------------------
# rectification and differencing
# ---------------------------------------------------------------------------

def _homography_from_rect(corners: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """DLT solve for the map from output-rectangle corners to ``corners``.

    Corner order is top-left, top-right, bottom-right, bottom-left in
    (x, y) = (col, row) coordinates.
    """
    dst = np.asarray(corners, dtype=np.float64).reshape(4, 2)
    src = np.array([[0.0, 0.0], [out_w - 1.0, 0.0],
                    [out_w - 1.0, out_h - 1.0], [0.0, out_h - 1.0]])
    A = np.zeros((8, 8))
    b = np.zeros(8)
    for i, ((xo, yo), (xs, ys)) in enumerate(zip(src, dst)):
        A[2 * i] = [xo, yo, 1, 0, 0, 0, -xs * xo, -xs * yo]
        b[2 * i] = xs
        A[2 * i + 1] = [0, 0, 0, xo, yo, 1, -ys * xo, -ys * yo]
        b[2 * i + 1] = ys
    try:
        h = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("degenerate homography") from exc
    return np.append(h, 1.0).reshape(3, 3)


def _check_quad(corners: np.ndarray, width: int, height: int) -> None:
    c = np.asarray(corners, dtype=np.float64).reshape(4, 2)
    if c[:, 0].min() < 0 or c[:, 0].max() > width - 1 + 1e-9 \
            or c[:, 1].min() < 0 or c[:, 1].max() > height - 1 + 1e-9:
        raise ValueError("corners must lie inside the raw image")
    crosses = []
    for i in range(4):
        a = c[(i + 1) % 4] - c[i]
        bb = c[(i + 2) % 4] - c[(i + 1) % 4]
        crosses.append(a[0] * bb[1] - a[1] * bb[0])
    crosses = np.array(crosses)
    scale = max(1.0, np.abs(c).max() ** 2)
    if np.any(np.abs(crosses) < 1e-9 * scale):
        raise ValueError("degenerate homography")
    if not (np.all(crosses > 0) or np.all(crosses < 0)):
        raise ValueError("corners must form a convex quadrilateral")


# Sample coordinates this close to an integer are snapped onto it, so that
# identity / pure-integer-scaling homographies reproduce source pixels exactly
# instead of mixing in ~1e-12 of a neighbour.
_SNAP = 1e-9


def _warp_bilinear(img: np.ndarray, hmat: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resample ``img`` through homography ``hmat`` (output px -> source px).

    ``hmat`` maps homogeneous output coordinates (x=col, y=row, 1) to source
    coordinates. Samples are clamped to the source rectangle and blended
    bilinearly.
    """
    h, w, c = img.shape
    jj, ii = np.meshgrid(np.arange(out_w, dtype=np.float64),
                         np.arange(out_h, dtype=np.float64))
    denom = hmat[2, 0] * jj + hmat[2, 1] * ii + hmat[2, 2]
    u = (hmat[0, 0] * jj + hmat[0, 1] * ii + hmat[0, 2]) / denom
    v = (hmat[1, 0] * jj + hmat[1, 1] * ii + hmat[1, 2]) / denom

    ur = np.rint(u)
    u = np.where(np.abs(u - ur) < _SNAP, ur, u)
    vr = np.rint(v)
    v = np.where(np.abs(v - vr) < _SNAP, vr, v)

    u = np.clip(u, 0.0, w - 1.0)
    v = np.clip(v, 0.0, h - 1.0)
    u0 = np.minimum(np.floor(u), w - 2.0).astype(np.int64) if w > 1 else np.zeros_like(u, np.int64)
    v0 = np.minimum(np.floor(v), h - 2.0).astype(np.int64) if h > 1 else np.zeros_like(v, np.int64)
    fu = (u - u0)[..., None]
    fv = (v - v0)[..., None]
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)

    p00 = img[v0, u0]
    p01 = img[v0, u1]
    p10 = img[v1, u0]
    p11 = img[v1, u1]
    return ((1.0 - fv) * ((1.0 - fu) * p00 + fu * p01)
            + fv * ((1.0 - fu) * p10 + fu * p11))


def rectify_frame(raw: np.ndarray, corners, out_size: tuple[int, int],
                  px_per_mm: float = 1.0, timestamp: float = 0.0) -> TactileFrame:
    """Unwarp the quadrilateral ``corners`` of ``raw`` onto a full rectangle.

    ``out_size`` is (height, width). A four-point homography is fitted and the
    output sampled bilinearly; corners given as the exact output rectangle make
    this the identity on pixels.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim == 2:
        raw = raw[:, :, None].repeat(3, axis=2)
    out_h, out_w = int(out_size[0]), int(out_size[1])
    _check_quad(corners, raw.shape[1], raw.shape[0])
    hmat = _homography_from_rect(corners, out_h, out_w)
    pixels = _warp_bilinear(raw, hmat, out_h, out_w)
    return TactileFrame(np.clip(pixels, 0.0, 1.0), px_per_mm, timestamp)


def diff_image(contact: TactileFrame, background: TactileFrame) -> DiffFrame:
    """Pixelwise contact minus background."""
    if contact.pixels.shape != background.pixels.shape:
        raise ValueError(
            f"shape mismatch: {contact.pixels.shape} vs {background.pixels.shape}")
    return DiffFrame(contact.pixels - background.pixels,
                     contact.px_per_mm, contact.timestamp)


# ---------------------------------------------------------------------------
# persistence: P6 pixmap for frames, CSV for heightmaps and marker tracks
# ---------------------------------------------------------------------------

def save_frame(path, frame: TactileFrame) -> None:
    """Write an 8-bit binary portable pixmap with metadata comment lines."""
    h, w = frame.pixels.shape[:2]
    data = np.rint(frame.pixels * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(b"P6\n")
        f.write(f"# px_per_mm {frame.px_per_mm:.9g}\n".encode())
        f.write(f"# timestamp {frame.timestamp:.9g}\n".encode())
        f.write(f"{w} {h}\n255\n".encode())
        f.write(data.tobytes())


def load_frame(path) -> TactileFrame:
    with open(path, "rb") as f:
        blob = f.read()
    tokens: list[bytes] = []
    meta = {}
    pos = 0
    line_no = 1
    # header is whitespace/comment structured; consume until 4 tokens found
    while len(tokens) < 4:
        if pos >= len(blob):
            raise ValueError(f"line {line_no}: truncated pixmap header")
        nl = blob.find(b"\n", pos)
        if nl < 0:
            nl = len(blob)
        line = blob[pos:nl]
        if line.startswith(b"#"):
            parts = line[1:].split()
            if len(parts) == 2:
                try:
                    meta[parts[0].decode()] = float(parts[1])
                except ValueError:
                    pass
        else:
            for tok in line.split():
                tokens.append(tok)
                if len(tokens) == 4:
                    # pixel data begins one byte after this header line's newline
                    break
        pos = nl + 1
        line_no += 1
    if tokens[0] != b"P6":
        raise ValueError(f"line 1: expected P6 magic, got {tokens[0]!r}")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise ValueError(f"line {line_no - 1}: malformed pixmap dimensions") from exc
    if maxval != 255:
        raise ValueError(f"line {line_no - 1}: only maxval 255 supported")
    need = w * h * 3
    payload = blob[pos:pos + need]
    if len(payload) < need:
        raise ValueError(f"pixel data truncated: expected {need} bytes, got {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3) / 255.0
    return TactileFrame(pixels, meta.get("px_per_mm", 1.0), meta.get("timestamp", 0.0))


def save_heightmap(path, hm: HeightMap) -> None:
    """CSV of millimetre values, row-major, 6 decimal places."""
    if not np.all(np.isfinite(hm.values)):          # unreachable via HeightMap,
        raise ValueError("refusing to save non-finite heightmap")  # kept for raw arrays
    with open(path, "w") as f:
        f.write(f"# px_per_mm {hm.px_per_mm:.9g}\n")
        for row in hm.values:
            f.write(",".join(f"{v:.6f}" for v in row) + "\n")


def load_heightmap(path) -> HeightMap:
    px_per_mm = 1.0
    rows = []
    width = None
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "px_per_mm":
                    px_per_mm = float(parts[1])
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ValueError(
                    f"line {line_no}: expected {width} values, got {len(cells)}")
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ValueError(f"line {line_no}: unparsable value") from exc
    if not rows:
        raise ValueError("line 1: empty heightmap file")
    return HeightMap(np.array(rows), px_per_mm)


_MARKER_HEADER = "frame,id,x,y"


def save_marker_tracks(path, tracks: Sequence[MarkerSet] | MarkerSet) -> None:
    """Write marker tracks as CSV; the frame column indexes into the sequence."""
    if isinstance(tracks, MarkerSet):
        tracks = [tracks]
    with open(path, "w") as f:
        if tracks:
            first = tracks[0]
            f.write(f"# grid {first.grid_rows} {first.grid_cols}\n")
            if first.frame_width is not None:
                f.write(f"# bounds {first.frame_width:.9g} {first.frame_height:.9g}\n")
        f.write(_MARKER_HEADER + "\n")
        for t, ms in enumerate(tracks):
            for mid, (x, y) in zip(ms.ids, ms.xy):
                f.write(f"{t},{mid},{x:.6f},{y:.6f}\n")


def load_marker_tracks(path) -> list[MarkerSet]:
    """Read marker tracks; an empty or header-only file gives an empty list."""
    grid = (0, 0)
    bounds = (None, None)
    per_frame: dict[int, list] = {}
    header_seen = False
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 3 and parts[0] == "grid":
                    grid = (int(parts[1]), int(parts[2]))
                elif len(parts) == 3 and parts[0] == "bounds":
                    bounds = (float(parts[1]), float(parts[2]))
                continue
            if not header_seen:
                if line != _MARKER_HEADER:
                    raise ValueError(
                        f"line {line_no}: expected header '{_MARKER_HEADER}'")
                header_seen = True
                continue
            cells = line.split(",")
            if len(cells) != 4:
                raise ValueError(f"line {line_no}: expected 4 columns, got {len(cells)}")
            try:
                frame, mid = int(cells[0]), int(cells[1])
                x, y = float(cells[2]), float(cells[3])
            except ValueError as exc:
                raise ValueError(f"line {line_no}: unparsable row") from exc
            per_frame.setdefault(frame, []).append((mid, x, y))
    out = []
    for frame in sorted(per_frame):
        rows = per_frame[frame]
        ids = np.array([r[0] for r in rows], dtype=np.int64)
        xy = np.array([[r[1], r[2]] for r in rows])
        out.append(MarkerSet(ids, xy, grid[0], grid[1], bounds[0], bounds[1]))
    return out
