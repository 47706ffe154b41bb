"""Shared domain types, differencing, and file formats.

Conventions used throughout the package:

* images are (H, W, 3) float arrays with intensities in [0, 1], row-major,
  x = column index, y = row index;
* heightmaps are millimetres, positive toward the camera, with ``px_per_mm``
  giving the isotropic pixel pitch;
* marker positions are in frame pixels.

Two numerical kernels are shared by the stages. ``_poisson_solve`` is the one
fast-diagonalization solver of the 5-point Dirichlet Poisson problem: it
integrates geometry's heightmap, and it gives the Helmholtz decomposition in
``force`` both potentials, one stack of parity sub-grids at a time.
``_lbfgs`` is the numpy L-BFGS that both calibration fits, geometry's and
softness's, run.

Immutability has one owner, ``_Frozen``, the base of every frozen type of
the package with an array field. Its ``_keep`` sets each such field: it
copies the caller's array, or keeps an ``_Adopt``-wrapped one that a stage
has just built, runs the checks the type asks for and marks it read-only.
Unpickling marks the restored arrays read-only again, and values computed
once and kept (``functools.cached_property``) are frozen and pickle along,
so instances can be shared freely across threads, ticks and processes.
These types compare by identity (``eq=False``): a field-wise ``==`` would
ask an array for one truth value and raise.

A raster held for one window of its frame has one owner, ``_Windowed``,
the base of ``NormalMap`` and ``slip.ContactMask``: it resolves and checks
``support`` and ``frame_shape``, crops a frame-shaped array to the window,
fills the frame around it in ``raster()``, and maps the window onto another
grid of the same frame by nearest neighbour (``on_grid``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np


class _Adopt:
    """An array that a stage of this package has just built, of the dtype
    its type keeps, and keeps no other reference to: the type runs its
    checks on that array once, in place, marks it read-only and keeps it
    instead of a copy."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _owned(values, dtype=np.float64) -> np.ndarray:
    """The array a type keeps: an adopted one itself, else a copy."""
    if isinstance(values, _Adopt):
        return values.array
    return np.array(values, dtype=dtype)


def _freeze(x):
    """Mark every ndarray in ``x``, an array or a tuple, list or dict of
    them, nested to any depth, read-only; return ``x``."""
    if isinstance(x, np.ndarray):
        x.setflags(write=False)
    elif isinstance(x, (tuple, list, dict)):
        for item in x.values() if isinstance(x, dict) else x:
            _freeze(item)
    return x


class _Frozen:
    """Base of every frozen dataclass of the package that holds an array."""

    def _keep(self, name: str, values, dtype=np.float64, shape=None,
              finite: bool = False) -> np.ndarray:
        """Set field ``name`` to ``values``: an ``_Adopt`` array itself, else
        a ``dtype`` copy, checked to have ``shape`` and to be finite when
        asked, and marked read-only. Returns the kept array."""
        a = _owned(values, dtype)
        if shape is not None and a.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
        if finite and not np.all(np.isfinite(a)):
            raise ValueError(f"{name} must be finite")
        object.__setattr__(self, name, _freeze(a))
        return a

    def __setstate__(self, state: dict) -> None:
        # unpickled arrays come back writeable; nested frozen instances
        # restore their own
        self.__dict__.update(_freeze(state))


def _check_nonempty(v: np.ndarray, what: str) -> None:
    if v.size == 0:
        raise ValueError(f"{what} must be non-empty, got shape {v.shape}")


def _is_int(x) -> bool:
    """Whether ``x`` is a Python or numpy integer, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_int(value, what: str, least: int = 1) -> None:
    """Raise unless ``value`` is an integer (``_is_int``) >= ``least``."""
    if not (_is_int(value) and value >= least):
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")


def _ints(values, n: int, what: str) -> tuple:
    """``values`` as n Python ints, or ValueError unless it is n integers
    (bools excluded)."""
    values = tuple(values) if np.iterable(values) else (values,)
    if len(values) != n or not all(_is_int(b) for b in values):
        raise ValueError(f"{what} must be {n} integers, got {values}")
    return tuple(int(b) for b in values)


def _check_support(box, shape) -> tuple:
    """The window (r0, r1, c0, c1) as Python ints, or ValueError unless it is
    four integers with 0 <= r0 <= r1 <= H and 0 <= c0 <= c1 <= W."""
    r0, r1, c0, c1 = _ints(box, 4, "support")
    if not (0 <= r0 <= r1 <= shape[0] and 0 <= c0 <= c1 <= shape[1]):
        raise ValueError(f"support {box} is not a window of a {shape} raster")
    return r0, r1, c0, c1


def _check_frame_shape(shape) -> tuple:
    """``shape`` as (H, W) Python ints, or ValueError unless it is two
    positive integers."""
    h, w = _ints(shape, 2, "frame_shape")
    if h < 1 or w < 1:
        raise ValueError(f"frame_shape must be positive, got {shape}")
    return h, w


def _check_positive(value, what: str) -> None:
    """Raise unless ``value`` is a finite positive number."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{what} must be finite and positive, got {value}")


def _check_non_negative(value, what: str) -> None:
    """Raise unless ``value`` is a finite non-negative number."""
    if not (value >= 0 and math.isfinite(value)):
        raise ValueError(f"{what} must be finite and non-negative, got {value}")


class _Windowed(_Frozen):
    """Base of the frozen types that hold an (H, W) frame's raster for one
    window (r0, r1, c0, c1) of it only, rows r0:r1 and columns c0:c1:
    ``values`` is the window's raster, ``support`` the window (empty when
    r0 == r1 or c0 == c1) and ``frame_shape`` (H, W), both Python ints.
    Outside the window the raster is the type's ``_OUTSIDE`` by definition.
    ``values`` given without a ``support`` is the whole frame, and
    ``frame_shape`` defaults to its (H, W); given with one, it fills that
    window and ``frame_shape`` is required.
    """

    def _resolve_window(self, values: np.ndarray) -> tuple:
        """Check ``support`` and ``frame_shape`` against ``values``, store
        them, and return the window."""
        if self.support is None:
            shape = _check_frame_shape(values.shape[:2] if self.frame_shape
                                       is None else self.frame_shape)
            window = (0, shape[0], 0, shape[1])
        else:
            shape = _check_frame_shape(self.frame_shape)
            window = _check_support(self.support, shape)
        r0, r1, c0, c1 = window
        if values.shape[:2] != (r1 - r0, c1 - c0):
            raise ValueError(f"values of shape {values.shape} do not fill the "
                             f"window {window} of a {shape} frame")
        object.__setattr__(self, "support", window)
        object.__setattr__(self, "frame_shape", shape)
        return window

    def crop(self, a: np.ndarray) -> np.ndarray:
        """The window of a frame-shaped array ``a``, a view."""
        r0, r1, c0, c1 = self.support
        return a[r0:r1, c0:c1]

    def raster(self) -> np.ndarray:
        """A fresh, writeable array of the whole frame: ``values`` inside the
        window, ``_OUTSIDE`` outside it."""
        out = np.full(self.frame_shape + self.values.shape[2:], self._OUTSIDE,
                      self.values.dtype)
        self.crop(out)[...] = self.values
        return out

    def on_grid(self, shape) -> tuple:
        """The nearest-neighbour map of the window onto the grid of ``shape``
        = (oh, ow) over the same frame: (values, box, (oh, ow)). Grid row i
        reads frame row min(floor((i + 0.5) H / oh), H - 1), and columns
        likewise; the grid box (i0, i1, j0, j1) reads the window, whose
        entries it reads are ``values``, and only the window is read."""
        oh, ow = _check_frame_shape(shape)
        h, w = self.frame_shape
        r0, r1, c0, c1 = self.support
        ri = np.minimum((np.arange(oh) + 0.5) * h / oh, h - 1).astype(int)
        ci = np.minimum((np.arange(ow) + 0.5) * w / ow, w - 1).astype(int)
        i0, i1 = np.searchsorted(ri, (r0, r1))
        j0, j1 = np.searchsorted(ci, (c0, c1))
        return (self.values[np.ix_(ri[i0:i1] - r0, ci[j0:j1] - c0)],
                (i0, i1, j0, j1), (oh, ow))


# _lbfgs: curvature pairs kept, Armijo's sufficient-decrease constant, step
# halvings before a line search gives up, and the two stopping thresholds,
# scipy L-BFGS-B's defaults factr * eps and pgtol
_LBFGS_MEMORY = 10
_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 20
_LBFGS_FTOL = 2.2e-9
_LBFGS_GTOL = 1e-5


def _lbfgs(loss_and_grads, params, epochs: int, learning_rate: float):
    """Minimize ``loss_and_grads(params) -> (loss, grads)`` by L-BFGS.

    Limited-memory BFGS (Liu & Nocedal 1989): the two-loop recursion over
    the last 10 curvature pairs (s, y) gives the direction, a pair with
    s.y <= 0 being skipped, and Armijo backtracking halves a unit step until
    the loss falls enough; a trial loss that is not finite counts as a step
    too long. With an empty memory, at the start and after a line search
    that fails clears it, the step is -g scaled to length ``learning_rate``;
    if that one fails too the point is final. The run stops when the
    relative loss reduction is at most 2.2e-9, when max |g| is at most 1e-5,
    or after ``epochs`` iterations. ``epochs`` must be an integer >= 1 and
    ``learning_rate`` finite and positive.

    ``params`` (arrays or scalars) is copied into one flat vector, and
    ``loss_and_grads`` is always called with the same views into it, so
    every trial point is written in place. Returns (views, history): the
    minimizer and the loss before each iteration plus the final loss,
    non-increasing.
    """
    _check_int(epochs, "epochs")
    _check_positive(learning_rate, "learning_rate")
    x = np.concatenate([np.ravel(p) for p in params], dtype=np.float64)
    views, at = [], 0
    for p in params:
        size = int(np.size(p))
        views.append(x[at:at + size].reshape(np.shape(p)))
        at += size

    def evaluate():
        loss, grads = loss_and_grads(views)
        return loss, np.concatenate([np.ravel(g) for g in grads])

    loss, g = evaluate()
    if not np.isfinite(loss):
        raise ValueError(f"loss at the initial parameters is {loss}")
    history = [loss]
    memory = []                                 # (s, y, 1 / s.y), oldest first
    while len(history) <= epochs and np.max(np.abs(g)) > _LBFGS_GTOL:
        d = -g
        if memory:
            alphas = []
            for s, y, rho in reversed(memory):
                alphas.append(rho * (s @ d))
                d -= alphas[-1] * y
            s, y, rho = memory[-1]
            d /= rho * (y @ y)
            for (s, y, rho), a in zip(memory, reversed(alphas)):
                d += (a - rho * (y @ d)) * s
        if not memory or not g @ d < 0.0:
            memory.clear()
            d = g * (-learning_rate / np.linalg.norm(g))
        slope = g @ d
        start, step = x.copy(), 1.0
        for _ in range(_MAX_HALVINGS):
            np.add(start, step * d, out=x)
            trial, g_trial = evaluate()
            if np.isfinite(trial) and trial <= loss + _ARMIJO_C1 * step * slope:
                break
            step *= 0.5
        else:
            x[:] = start
            if not memory:
                break
            memory.clear()
            continue
        s, y = x - start, g_trial - g
        if s @ y > 0.0:
            memory = memory[1 - _LBFGS_MEMORY:] + [(s, y, 1.0 / (s @ y))]
        reduction = loss - trial
        scale = max(abs(loss), abs(trial), 1.0)
        loss, g = trial, g_trial
        history.append(loss)
        if reduction <= _LBFGS_FTOL * scale:
            break
    return views, history


def _sine_block(n: int, modes, nodes) -> np.ndarray:
    """Rows ``modes`` and columns ``nodes`` (both 1-based) of the orthonormal
    n-point DST-I matrix sqrt(2/(n+1)) sin(pi j k/(n+1)).

    The matrix is symmetric and its own inverse. Its entries take only the
    2(n+1) values of one sine table, indexed by (j k) mod 2(n+1), so no sine
    of a large argument is evaluated.
    """
    period = 2 * (n + 1)
    table = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.arange(period) / (n + 1))
    # int32 indices, where j k cannot overflow them, halve the bytes written
    dtype = np.int32 if period * period < 2 ** 31 else np.int64
    idx = np.multiply.outer(np.asarray(modes, dtype), np.asarray(nodes, dtype))
    idx %= period
    return table[idx]


def _folded_basis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-point DST-I matrix S split by mode parity, and its eigenvalues.

    In mode k, node n + 1 - j is (-1)^(k+1) times node j, so odd modes see
    only the sum of mirrored nodes and even modes only their difference.
    Returns the odd block (odd modes x nodes 1..ceil(n/2)), the even block
    (even modes x nodes 1..n//2) and the eigenvalues 2 - 2 cos(pi k/(n+1))
    of the Dirichlet [-1, 2, -1] chain, odd modes first, then even.
    """
    half = n - n // 2
    modes = np.concatenate([np.arange(1, n + 1, 2), np.arange(2, n + 1, 2)])
    lam = 2.0 - 2.0 * np.cos(np.pi * modes / (n + 1))
    s = _sine_block(n, modes, np.arange(1, half + 1))
    return s[:half], s[half:, :n // 2], lam


def _fold(x: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` the sum of x's mirrored rows (axis -2), an odd
    length's middle row alone after it, then the rows' difference."""
    n = x.shape[-2]
    p, q = n // 2, n - n // 2
    mirror = x[..., :-p - 1:-1, :]              # the last p rows, last first
    np.add(x[..., :p, :], mirror, out=out[..., :p, :])
    out[..., p:q, :] = x[..., p:q, :]
    np.subtract(x[..., :p, :], mirror, out=out[..., q:, :])


def _unfold(x: np.ndarray, out: np.ndarray) -> None:
    """The inverse of ``_fold``: x holds the mirrored sum, then difference."""
    n = x.shape[-2]
    p, q = n // 2, n - n // 2
    np.add(x[..., :p, :], x[..., q:, :], out=out[..., :p, :])
    out[..., p:q, :] = x[..., p:q, :]
    np.subtract(x[..., :p, :], x[..., q:, :],
                out=out[..., :-p - 1:-1, :])   # the last p rows


def _poisson_solve(rhs: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """Solve -laplacian(u) = rhs with zero Dirichlet data around each (h, w)
    grid of ``rhs`` (..., h, w), the 5-point Laplacian's [-1, 2, -1] chains
    along both axes, writing u into ``out``, which may be ``rhs``; ``rhs``
    and ``work``, a C-ordered array of its shape, are overwritten.

    Fast diagonalization (Lynch, Rice & Thomas 1964):
    u = Sy ((Sy rhs Sx) / (lam_y + lam_x)) Sx, with S the orthonormal
    type-I sine matrix, its own inverse. Each sine transform is two
    half-size products, one per mode parity, on the folded rows or, through
    the swapped last two axes, columns (``_fold``), and the spectral
    coefficients stay in that parity-blocked order, so nothing is
    interleaved. A square grid builds its basis once for both axes. Leading
    axes are a stack of independent grids, each solved as it would be alone.
    """
    ay, by, ly = _folded_basis(rhs.shape[-2])
    ax, bx, lx = ((ay, by, ly) if rhs.shape[-1] == rhs.shape[-2]
                  else _folded_basis(rhs.shape[-1]))
    hy, hx = ay.shape[0], ax.shape[0]
    a, b = work, rhs
    _fold(rhs, a)
    np.matmul(ay, a[..., :hy, :], out=b[..., :hy, :])   # modes down the rows
    np.matmul(by, a[..., hy:, :], out=b[..., hy:, :])
    _fold(b.swapaxes(-1, -2), a.swapaxes(-1, -2))
    np.matmul(a[..., :hx], ax.T, out=b[..., :hx])       # and across the columns
    np.matmul(a[..., hx:], bx.T, out=b[..., hx:])
    b /= np.add(ly[:, None], lx, out=a)
    np.matmul(b[..., :hx], ax, out=a[..., :hx])
    np.matmul(b[..., hx:], bx, out=a[..., hx:])
    _unfold(a.swapaxes(-1, -2), b.swapaxes(-1, -2))
    np.matmul(ay.T, b[..., :hy, :], out=a[..., :hy, :])
    np.matmul(by.T, b[..., hy:, :], out=a[..., hy:, :])
    _unfold(a, out)


def _clip_owned(a: np.ndarray, lo: float, hi: float, what: str) -> None:
    """Check that the caller's own copy ``a`` is finite and in [lo, hi] up to
    1e-9, and clip the slack in place."""
    amin, amax = a.min(), a.max()        # NaN and inf propagate into these
    if not (np.isfinite(amin) and np.isfinite(amax)):
        raise ValueError(f"{what} must be finite")
    if amin < lo - 1e-9 or amax > hi + 1e-9:
        raise ValueError(f"{what} must lie in [{lo:g}, {hi:g}]")
    if amin < lo or amax > hi:
        np.clip(a, lo, hi, out=a)


@dataclass(frozen=True, eq=False)
class TactileFrame(_Frozen):
    """One rectified RGB raster from a finger's sensing surface."""

    pixels: np.ndarray          # (H, W, 3), values in [0, 1]
    px_per_mm: float

    def __post_init__(self):
        px = _owned(self.pixels)
        if px.ndim != 3 or px.shape[2] != 3:
            raise ValueError(f"pixels must be (H, W, 3), got {px.shape}")
        if px.shape[0] < 8 or px.shape[1] < 8:
            raise ValueError(f"frame must be at least 8x8, got {px.shape[:2]}")
        _clip_owned(px, 0.0, 1.0, "pixel intensities")
        _check_positive(self.px_per_mm, "px_per_mm")
        self._keep("pixels", _Adopt(px))


@dataclass(frozen=True, eq=False)
class DiffFrame(_Frozen):
    """Background-subtracted frame; values in [-1, 1] on the source grid."""

    values: np.ndarray          # (H, W, 3)
    px_per_mm: float

    def __post_init__(self):
        v = _owned(self.values)
        if v.ndim != 3 or v.shape[2] != 3:
            raise ValueError(f"values must be (H, W, 3), got {v.shape}")
        _check_nonempty(v, "diff frame")
        _clip_owned(v, -1.0, 1.0, "diff values")
        _check_positive(self.px_per_mm, "px_per_mm")
        self._keep("values", _Adopt(v))

    @property
    def shape(self) -> tuple:
        return self.values.shape


@dataclass(frozen=True, eq=False)
class NormalMap(_Windowed):
    """Unit surface normals (nx, ny, nz) with nz > 0 of an (H, W) frame,
    held for its contact window only (``_Windowed``): outside the window the
    gel is taken to be undeformed and the normal is (0, 0, 1) by definition.
    An empty window (no contact) holds a (0, 0, 3) array.
    """

    values: np.ndarray          # (r1 - r0, c1 - c0, 3)
    support: tuple | None = None
    frame_shape: tuple | None = None

    _OUTSIDE = (0.0, 0.0, 1.0)

    def __post_init__(self):
        v = self._keep("values", self.values)
        if v.ndim != 3 or v.shape[2] != 3:
            raise ValueError(f"values must be (h, w, 3), got {v.shape}")
        if self.support is None:
            _check_nonempty(v, "normal map")
        self._resolve_window(v)
        if v.size == 0:
            return
        # |n| - 1 accumulated in one (h, w) buffer, each square taken in one
        # reused scratch plane; a NaN in any component makes the largest
        # deviation NaN, which fails the test
        dev = np.square(v[:, :, 0])
        sq = np.empty_like(dev)
        dev += np.square(v[:, :, 1], out=sq)
        dev += np.square(v[:, :, 2], out=sq)
        del sq
        np.sqrt(dev, out=dev)
        dev -= 1.0
        if not np.abs(dev, out=dev).max() <= 1e-6:
            raise ValueError("normals must be unit length to 1e-6")
        if np.min(v[:, :, 2]) <= 0:
            raise ValueError("nz must be positive everywhere")


@dataclass(frozen=True, eq=False)
class HeightMap(_Frozen):
    """Reconstructed or simulated contact geometry in millimetres.

    After gauge fixing (done by the producers: normal integration and the
    simulator) the minimum value is 0; arbitrary offsets are still
    constructible because error metrics align gauges themselves.
    """

    values: np.ndarray          # (H, W), mm
    px_per_mm: float

    def __post_init__(self):
        v = self._keep("values", self.values)
        if v.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {v.shape}")
        _check_nonempty(v, "heightmap")
        lo, hi = v.min(), v.max()        # NaN and inf propagate into these
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("heightmap values must be finite")
        _check_positive(self.px_per_mm, "px_per_mm")

    @property
    def shape(self) -> tuple:
        return self.values.shape


@dataclass(frozen=True, eq=False)
class MarkerSet(_Frozen):
    """Snapshot of etched-marker centroids (id, x, y) for one frame."""

    ids: np.ndarray             # (N,) int64, unique
    xy: np.ndarray              # (N, 2) float, pixels
    frame_width: float | None = None
    frame_height: float | None = None

    def __post_init__(self):
        ids = self._keep("ids", self.ids, np.int64)
        xy = self._keep("xy", np.reshape(self.xy, (-1, 2)))
        if ids.shape[0] != xy.shape[0]:
            raise ValueError("ids and xy length mismatch")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("marker ids must be unique")
        if xy.size and not np.all(np.isfinite(xy)):
            raise ValueError("marker positions must be finite")
        bounds = (self.frame_width, self.frame_height)
        if bounds != (None, None):
            if None in bounds:
                raise ValueError(f"frame bounds must be given together, got {bounds}")
            _check_positive(self.frame_width, "frame_width")
            _check_positive(self.frame_height, "frame_height")
            if xy.size and (xy.min() < 0 or np.any(xy.max(axis=0) > bounds)):
                raise ValueError("marker positions outside frame bounds")

    def __len__(self) -> int:
        return self.ids.shape[0]

    @cached_property
    def _idw_tables(self) -> dict:
        """``force.interpolate_markers``'s tables from these rest positions."""
        return {}

    def moved(self, delta_xy: np.ndarray) -> "MarkerSet":
        """Same markers displaced by ``delta_xy`` (N, 2) pixels."""
        return MarkerSet(self.ids, self.xy + delta_xy, self.frame_width,
                         self.frame_height)


@dataclass(frozen=True, eq=False)
class ScalarField(_Frozen):
    """Grid scalar (potentials of the field decomposition)."""

    values: np.ndarray          # (H, W)

    def __post_init__(self):
        v = self._keep("values", self.values, finite=True)
        if v.ndim != 2:
            raise ValueError("scalar field must be 2-D")
        _check_nonempty(v, "scalar field")


@dataclass(frozen=True, eq=False)
class DisplacementField(_Frozen):
    """Dense 2-D vector field of marker motion on a regular grid (pixels)."""

    values: np.ndarray          # (H, W, 2)

    def __post_init__(self):
        v = self._keep("values", self.values, finite=True)
        if v.ndim != 3 or v.shape[2] != 2:
            raise ValueError(f"values must be (H, W, 2), got {v.shape}")
        _check_nonempty(v, "displacement field")

    @property
    def shape(self) -> tuple:
        return self.values.shape


# ---------------------------------------------------------------------------
# differencing
# ---------------------------------------------------------------------------

def diff_image(contact: TactileFrame, background: TactileFrame) -> DiffFrame:
    """Pixelwise contact minus background, subtracted into the returned array."""
    if contact.pixels.shape != background.pixels.shape:
        raise ValueError(
            f"shape mismatch: {contact.pixels.shape} vs {background.pixels.shape}")
    return DiffFrame(_Adopt(np.subtract(contact.pixels, background.pixels)),
                     contact.px_per_mm)


# ---------------------------------------------------------------------------
# persistence: model weights, CSV for heightmaps and marker tracks
# ---------------------------------------------------------------------------

def _save_arrays(path, header: str, arrays) -> None:
    """A ``header`` line, then each array's values, flattened, on a line of
    its own, whitespace-separated at full precision."""
    lines = [header] + [" ".join(f"{v:.17g}" for v in np.ravel(a))
                        for a in arrays]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _load_arrays(path, header: str, shapes) -> list[np.ndarray]:
    """The arrays of a ``_save_arrays`` file, reshaped to ``shapes``;
    ValueError unless it starts with ``header`` and holds exactly the values
    the shapes take."""
    with open(path) as f:
        tokens = f.read().split()
    head = header.split()
    if tokens[:len(head)] != head:
        raise ValueError(f"expected header {header!r}, "
                         f"found {' '.join(tokens[:len(head)])!r}")
    values = np.array([float(t) for t in tokens[len(head):]])
    sizes = [int(np.prod(s)) for s in shapes]
    if values.size != sum(sizes):
        raise ValueError(f"expected {sum(sizes)} values, found {values.size}")
    return [part.reshape(s) for part, s in
            zip(np.split(values, np.cumsum(sizes)[:-1]), shapes)]


def _finite(text: str) -> float:
    """The finite number a table cell holds, or ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _read_meta(words: list, spec: dict) -> dict:
    """A comment line's ``key v…`` groups as ``{key: values}`` when its first
    word is a key of ``spec``, else nothing. Every key on such a line must be
    in ``spec``, which holds one cast per value; values must be finite and
    positive."""
    found = {}
    while words and words[0] in spec:
        key, casts = words[0], spec[words[0]]
        texts, words = words[1:1 + len(casts)], words[1 + len(casts):]
        try:
            found[key] = tuple(c(t) for c, t in zip(casts, texts, strict=True))
            ok = all(v > 0 and math.isfinite(v) for v in found[key])
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"# {key} needs {len(casts)} positive value(s), "
                             f"got {' '.join(texts)!r}")
    if found and words:
        raise ValueError(f"unknown metadata key {words[0]!r}")
    return found


def _read_table(path, parse_row, header: str | None = None,
                meta: dict | None = None, empty_ok: bool = False):
    """``(metadata, rows)`` of the CSV table at ``path``: blank lines are
    skipped, comment lines read by ``_read_meta``, the ``header`` line, if
    given, must come first, and each row, with as many cells as the header
    (or the first row), is ``parse_row(cells)``. Every ValueError, the row
    parser's too, is raised as ``"<path>, line N: …"``, as is a table
    without rows unless ``empty_ok``."""
    found, rows, lineno = {}, [], 0
    width = header and len(header.split(","))
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            try:
                if line.startswith("#"):
                    found.update(_read_meta(line[1:].split(), meta or {}))
                elif line and header:           # the header, still to come
                    if line != header:
                        raise ValueError(f"expected header {header!r}")
                    header = None
                elif line:
                    cells = [c.strip() for c in line.split(",")]
                    width = width or len(cells)
                    if len(cells) != width:
                        raise ValueError(
                            f"expected {width} values, got {len(cells)}")
                    rows.append(parse_row(cells))
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
    if not (rows or empty_ok):
        raise ValueError(f"{path}, line {lineno + 1}: expected a row, "
                         f"found the end of the file")
    return found, rows


def save_heightmap(path, hm: HeightMap) -> None:
    """CSV of millimetre values, row-major, 6 decimal places."""
    with open(path, "w") as f:
        f.write(f"# px_per_mm {hm.px_per_mm:.9g}\n")
        for row in hm.values:
            f.write(",".join(f"{v:.6f}" for v in row) + "\n")


def load_heightmap(path) -> HeightMap:
    """Read a ``save_heightmap`` file; ``px_per_mm`` is 1 without its line."""
    meta, rows = _read_table(path, lambda cells: [_finite(c) for c in cells],
                             meta={"px_per_mm": (float,)})
    return HeightMap(np.array(rows), meta.get("px_per_mm", (1.0,))[0])


_MARKER_HEADER = "frame,id,x,y"


def save_marker_tracks(path, tracks: Sequence[MarkerSet] | MarkerSet) -> None:
    """Write marker tracks as CSV; the frame column indexes into the sequence."""
    if isinstance(tracks, MarkerSet):
        tracks = [tracks]
    with open(path, "w") as f:
        if tracks and tracks[0].frame_width is not None:
            first = tracks[0]
            f.write(f"# bounds {first.frame_width:.9g} {first.frame_height:.9g}\n")
        f.write(_MARKER_HEADER + "\n")
        for t, ms in enumerate(tracks):
            for mid, (x, y) in zip(ms.ids, ms.xy):
                f.write(f"{t},{mid},{x:.6f},{y:.6f}\n")


def load_marker_tracks(path) -> list[MarkerSet]:
    """Read marker tracks; an empty or header-only file gives an empty list.
    Comment lines but ``# bounds`` (older files' ``# grid``) are skipped."""
    meta, rows = _read_table(
        path, lambda c: (int(c[0]), int(c[1]), _finite(c[2]), _finite(c[3])),
        _MARKER_HEADER, {"bounds": (float, float)}, empty_ok=True)
    bounds = meta.get("bounds", (None, None))
    per_frame: dict[int, list] = {}
    for frame, mid, x, y in rows:
        per_frame.setdefault(frame, []).append((mid, x, y))
    out = []
    for frame in sorted(per_frame):
        ids, xs, ys = zip(*per_frame[frame])
        try:
            out.append(MarkerSet(np.array(ids, dtype=np.int64),
                                 np.column_stack([xs, ys]), *bounds))
        except ValueError as exc:
            raise ValueError(f"{path}, frame {frame}: {exc}") from None
    return out
