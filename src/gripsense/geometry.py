"""Contact-geometry reconstruction.

Calibration maps background-subtracted RGB to surface normals with a small
MLP fitted by full-batch L-BFGS; a Poisson solve turns the predicted normal
field into a heightmap with ``core._poisson_solve``, the fast
diagonalization by type-I sine transforms that the Helmholtz decomposition
in ``force`` also runs; numpy is the only dependency.
Training is hand-rolled (forward, analytic backprop, the numpy L-BFGS
``core._lbfgs``) because the model is tiny and the package needs
deterministic, dependency-free fitting. ``epochs`` is the iteration cap and
``learning_rate`` the first step length. Loss evaluations are
allocation-free: the (N, 32) and (N, 2) work arrays are allocated once per
fit and filled in place, and the parameters are views into the optimizer's
one flat vector. Fresh 1.6 MB temporaries are mapped from the OS anew each
time, and their page faults were about half of an evaluation (6408 samples
on a 2-core host: 13-19 ms before, 6-8 ms after).
Inference runs the float32 MLP on every window pixel (the contact window,
below), a forward pass separate from the float64 ``_forward``, which is the
training path and the reference the float32 pass is tested against.

Both normal inference and the Poisson solve run only inside the contact
window that ``predict_normals`` reads off the frame's largest-channel |diff|
and hands on as ``NormalMap.support``: the rows and columns with at least 8
pixels above 0.06 (6 sigma of the sensor noise), plus an 8 px margin.
Outside the window the gel is taken to be undeformed: its normals are
(0, 0, 1) by definition, so a ``NormalMap`` holds only the window's.
The solve takes zero height on the window's edge, the assumption the
whole-frame solve makes on the frame's edge; the min-0 gauge then lifts
the frame by minus the interior's minimum, so outside the window the
height is one constant c >= 0, not zero. A frame without contact gets an
empty window and exactly zero height without an MLP call or a solve. A
gripper contact covers about a 100x100 box of a 240x320 frame, so the
|diff| pass that finds the window is the only inference work done on
every pixel. Neither pass reads ``DiffFrame.values``: each subtracts the
frame's two camera frames itself (``DiffFrame.subtract``), the window pass
straight into float32 and the MLP's feature fill for the window's rows
only, so no float64 difference of the whole frame is built.

Both tick stages write their result once, into the array they return, and
hand it to ``NormalMap`` or ``HeightMap`` wrapped in ``core._Adopt``, so the
type checks it in place instead of copying it. ``predict_normals`` runs the
MLP's hidden layers on the window one band of whole rows at a time and its
float64 tail once per pass of several bands, which writes the pass's
normals straight into the window-sized output; ``integrate_normals`` builds
both slope fields, one after the other, in one buffer that then serves as
the Poisson solve's work array. The reason is page faults: whether glibc
serves a fresh full-frame array from pages it holds or from newly mapped
ones depends on what the process allocated before, and at 240x320 copies
and temporaries of about 23 MB a tick cost up to about 1500 minor faults
per tick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DiffFrame, HeightMap, NormalMap, _Adopt, _check_positive,
                   _Frozen, _lbfgs, _load_arrays, _poisson_solve,
                   _save_arrays)

LAYER_SIZES = (5, 32, 32, 2)
_WEIGHT_SHAPES = ((32, 5), (32,), (32, 32), (32,), (2, 32), (2,))
_WEIGHTS_HEADER = " ".join(str(s) for s in LAYER_SIZES)
DEFAULT_EPOCHS = 1000
DEFAULT_LEARNING_RATE = 0.1

_NORM_CLAMP = 1.0 - 1e-9
# Pixel rows per inference band: the two (band, 32) float32 hidden buffers
# take 1 MB together, so a band's activations stay in a core's L2 cache.
_BAND_PX = 4096
# Bands per pass of the float64 tail. Its 40 B a pixel live in the hidden
# buffers' 256 B a band row, which hold up to 6.4 bands; 4 keep the pass's
# arrays at 640 kB, in L2 beside the layer-3 output.
_PASS_BANDS = 4
# The contact window that ``predict_normals`` hands ``integrate_normals``.
# A pixel is hot when its largest channel |diff| exceeds _HOT_TAU, 6 sigma of
# the 0.01 sensor noise, so untouched gel is hot in about 2e-9 of its pixels.
# A row or column joins the window only with at least _HOT_COUNT hot pixels,
# so isolated noise spikes open none. The window then extends _WINDOW_MARGIN
# px past those rows and columns, over the contact's rim, where |diff| is
# under 6 sigma but the slopes are not yet zero (the pyramid and grasp
# reconstructions erred about equally at margins of 4 to 16 px).
_HOT_TAU = 0.06
_HOT_COUNT = 8
_WINDOW_MARGIN = 8


@dataclass(frozen=True, eq=False)
class Rgb2NormalModel(_Frozen):
    """MLP weights for the RGB-to-normal mapping.

    Input 5 (diff R, G, B, normalized x, y), two tanh hidden layers of 32,
    linear output 2 squashed radially so (nx, ny) always has norm < 1;
    nz = sqrt(1 - nx^2 - ny^2) then makes the normal unit by construction.
    ``loss_history`` holds the loss before each L-BFGS iteration plus the
    final value, and is empty for models loaded from disk.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    loss_history: tuple = ()

    def __post_init__(self):
        for name, shape in zip(("w1", "b1", "w2", "b2", "w3", "b3"),
                               _WEIGHT_SHAPES):
            self._keep(name, getattr(self, name), shape=shape, finite=True)

    @property
    def final_loss(self) -> float | None:
        """Loss after the last step; None without a history (a loaded model)."""
        return self.loss_history[-1] if self.loss_history else None


@dataclass(frozen=True, eq=False)
class CalibrationDataset(_Frozen):
    """(feature, unit normal) pairs sampled from sphere presses."""

    features: np.ndarray        # (N, 5)
    normals: np.ndarray         # (N, 3)

    def __post_init__(self):
        f = self._keep("features", self.features)
        n = self._keep("normals", self.normals)
        if f.ndim != 2 or f.shape[1] != 5:
            raise ValueError("features must be (N, 5)")
        if n.shape != (f.shape[0], 3):
            raise ValueError("normals must be (N, 3)")
        if f.shape[0] == 0:
            raise ValueError("calibration dataset must be non-empty")
        if np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) > 1e-6:
            raise ValueError("ground-truth normals must be unit length")

    def __len__(self) -> int:
        return self.features.shape[0]


def _grid_coords(h: int, w: int):
    """Column and row coordinates scaled to [-1, 1]."""
    return (2.0 * np.arange(w) / max(w - 1, 1) - 1.0,
            2.0 * np.arange(h) / max(h - 1, 1) - 1.0)


def _pixel_features(values: np.ndarray) -> np.ndarray:
    """(H*W, 5) rows of (R, G, B, x, y) with coordinates scaled to [-1, 1]."""
    h, w, _ = values.shape
    xm, ym = np.meshgrid(*_grid_coords(h, w))
    return np.column_stack([values.reshape(-1, 3), xm.ravel(), ym.ravel()])


def build_calibration_dataset(presses) -> CalibrationDataset:
    """Label sphere-press frames with analytic cap normals.

    Each press is (DiffFrame, center px (x, y), contact radius px, sphere
    radius mm), at the frame's pitch. In-contact pixels get the sphere
    normal at their offset from the center; an equal-sized, evenly strided
    sample of out-of-contact pixels gets the flat normal (0, 0, 1) so the
    model also learns the background.
    """
    if not presses:
        raise ValueError("need at least one calibration press")
    feats, norms = [], []
    for frame, center, contact_radius_px, sphere_radius_mm in presses:
        cx, cy = float(center[0]), float(center[1])
        h, w, _ = frame.shape
        px_per_mm = frame.px_per_mm
        if not (0.0 <= cx <= w - 1 and 0.0 <= cy <= h - 1):
            raise ValueError("sphere center outside the frame")
        if not contact_radius_px < sphere_radius_mm * px_per_mm:
            raise ValueError("contact radius must be below the sphere radius")
        pix = _pixel_features(frame.values)
        xm, ym = np.meshgrid(np.arange(w), np.arange(h))
        dx_mm = (xm.ravel() - cx) / px_per_mm
        dy_mm = (ym.ravel() - cy) / px_per_mm
        rho2 = dx_mm ** 2 + dy_mm ** 2
        inside = rho2 <= (contact_radius_px / px_per_mm) ** 2
        r = sphere_radius_mm
        nz = np.sqrt(np.maximum(r * r - rho2[inside], 0.0)) / r
        feats.append(pix[inside])
        norms.append(np.column_stack([dx_mm[inside] / r, dy_mm[inside] / r, nz]))
        out_idx = np.nonzero(~inside)[0]
        take = min(len(out_idx), max(int(inside.sum()), 1))
        if take:
            sel = out_idx[np.linspace(0, len(out_idx) - 1, take).astype(int)]
            feats.append(pix[sel])
            flat = np.zeros((len(sel), 3))
            flat[:, 2] = 1.0
            norms.append(flat)
    return CalibrationDataset(np.vstack(feats), np.vstack(norms))


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _radial_gain(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """tanh(r)/r, with its series 1 - r^2/3 below 1e-6 where the quotient is
    0/0, written into ``out`` when given."""
    g = np.tanh(r, out=out)
    big = r >= 1e-6
    np.divide(g, r, out=g, where=big)
    if not big.all():
        small = ~big
        g[small] = 1.0 - r[small] * r[small] / 3.0
    return g


def _squash(u: np.ndarray):
    """Radial tanh: n = u * tanh(|u|)/|u|, smooth at 0, norm always < 1.

    Returns n plus the factors needed by the backward pass.
    """
    r = np.linalg.norm(u, axis=1)
    small = r < 1e-6
    g = _radial_gain(r)
    sech2 = 1.0 / np.cosh(np.clip(r, 0.0, 20.0)) ** 2
    q = np.where(small, -2.0 / 3.0,
                 (sech2 - g) / np.where(small, 1.0, r * r))
    return u * g[:, None], g, q


def _forward(params, x):
    w1, b1, w2, b2, w3, b3 = params
    z1 = np.tanh(x @ w1.T + b1)
    z2 = np.tanh(z1 @ w2.T + b2)
    u = z2 @ w3.T + b3
    n, g, q = _squash(u)
    return n, (x, z1, z2, u, g, q)


def _loss_and_grads(params, x, t, buf):
    """Loss and gradients of one full-batch evaluation, in preallocated arrays.

    ``buf`` holds the three (N, 32) and two (N, 2) float64 work arrays of
    ``_training_buffers``, overwritten on every call; only the radial
    squash's small per-sample results are fresh. Every product and
    elementwise step is the one ``_forward`` and a plain backward pass take,
    in the same order, so the result is bit-identical to theirs.
    """
    w1, b1, w2, b2, w3, b3 = params
    z1, z2, dz, u, du = buf
    np.matmul(x, w1.T, out=z1)
    z1 += b1
    np.tanh(z1, out=z1)
    np.matmul(z1, w2.T, out=z2)
    z2 += b2
    np.tanh(z2, out=z2)
    np.matmul(z2, w3.T, out=u)
    u += b3
    n, g, q = _squash(u)
    n -= t                                   # the residual
    loss = float(np.sum(np.multiply(n, n, out=du)) / x.shape[0])
    n *= 2.0
    n /= x.shape[0]                          # dloss/dn
    s = np.sum(np.multiply(u, n, out=du), axis=1)
    s *= q
    np.multiply(n, g[:, None], out=du)
    u *= s[:, None]
    du += u
    dw3 = du.T @ z2
    db3 = du.sum(axis=0)
    # tanh' = 1 - tanh^2 in place, each layer's only after its weight
    # gradient has used the activation
    np.matmul(du, w3, out=dz)
    dz *= np.subtract(1.0, np.square(z2, out=z2), out=z2)
    dw2 = dz.T @ z1
    db2 = dz.sum(axis=0)
    np.matmul(dz, w2, out=z2)
    z2 *= np.subtract(1.0, np.square(z1, out=z1), out=z1)
    dw1 = z2.T @ x
    db1 = z2.sum(axis=0)
    return loss, (dw1, db1, dw2, db2, dw3, db3)


def _training_buffers(n: int) -> tuple:
    """The per-fit work arrays of ``_loss_and_grads`` for n samples."""
    return tuple(np.empty((n, width)) for width in (LAYER_SIZES[1],) * 3
                 + (LAYER_SIZES[3],) * 2)


def fit_rgb2normal(data: CalibrationDataset, epochs: int = DEFAULT_EPOCHS,
                   learning_rate: float = DEFAULT_LEARNING_RATE,
                   seed: int = 0) -> Rgb2NormalModel:
    """Full-batch L-BFGS on mean squared (nx, ny) error.

    ``epochs`` is the iteration cap: the fit stops earlier once it has
    converged (``core._lbfgs``). ``learning_rate`` is the first step
    length, along -g. Deterministic for a given seed; ``loss_history``
    holds one loss per iteration plus the final one and is non-increasing.
    A non-finite loss at the initial weights raises. The work arrays are
    allocated once per call and reused by every loss evaluation.
    """
    rng = np.random.default_rng(seed)
    params = []
    for fan_out, fan_in in ((32, 5), (32, 32), (2, 32)):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params.append(rng.uniform(-limit, limit, (fan_out, fan_in)))
        params.append(np.zeros(fan_out))
    x = data.features
    t = data.normals[:, :2]
    buf = _training_buffers(len(data))
    params, history = _lbfgs(lambda p: _loss_and_grads(p, x, t, buf), params,
                             epochs, learning_rate)
    return Rgb2NormalModel(*params, loss_history=tuple(history))


def _mlp_kernel(model: Rgb2NormalModel, band: int) -> tuple:
    """The float32 weights and biases ``_mlp`` multiplies by, and its work
    memory for bands of up to ``band`` pixel rows: the (2, band, 32)
    float32 hidden buffers, the same memory as float64 for the tail, and
    the (_PASS_BANDS * band, 2) float32 layer-3 output of a pass."""
    f32 = np.float32
    hidden = np.empty((2, band, LAYER_SIZES[1]), f32)
    return (np.ascontiguousarray(model.w1.T, f32), model.b1.astype(f32),
            np.ascontiguousarray(model.w2.T, f32), model.b2.astype(f32),
            np.ascontiguousarray(model.w3.T, f32), hidden,
            hidden.reshape(-1).view(np.float64),
            np.empty((_PASS_BANDS * band, LAYER_SIZES[3]), f32))


def _mlp(model: Rgb2NormalModel, feats: np.ndarray) -> np.ndarray:
    """The float32 inference pass over pixel rows, which
    ``predict_normals`` runs on every window pixel (through
    ``_window_normals``); the feature-level reference of the tests.

    ``feats`` is (N, 5): diff R, G, B and normalized x, y, as in training.
    Returns (N, 2) float64 (nx, ny), clamped below unit norm. The hidden
    layers run in float32 and agree with the float64 ``_forward`` to about
    1e-6 per component; the radial squash runs in float64. The hidden
    layers run over bands of at most ``_BAND_PX`` rows, the float64 tail
    over passes of ``_PASS_BANDS`` bands (``_infer``), all in one
    ``_mlp_kernel``'s work memory, so no temporary grows with N.
    """
    n = feats.shape[0]
    out = np.empty((n, 2))
    _infer(model, feats, _mlp_kernel(model, max(1, min(n, _BAND_PX))), out)
    return out


def _infer(model: Rgb2NormalModel, feats: np.ndarray, kernel: tuple,
           n2: np.ndarray, nz: np.ndarray | None = None) -> None:
    """The MLP over feature rows ``feats`` (N, 5): write (nx, ny) into
    ``n2`` (N, 2) and, when given, nz into ``nz`` (N,).

    The hidden layers run a band of the kernel's rows at a time, and layer
    3 writes each band's output into the float32 buffer of a pass of
    ``_PASS_BANDS`` bands, whose float64 tail then runs once (``_tail``).
    """
    w1, b1, w2, b2, w3, (z1, z2), tail, u32 = kernel
    band, step = z1.shape[0], u32.shape[0]
    for p in range(0, feats.shape[0], step):
        f = feats[p:p + step]
        n = f.shape[0]
        for s in range(0, n, band):
            e = min(s + band, n)
            a, b = z1[:e - s], z2[:e - s]
            np.matmul(f[s:e].astype(np.float32, copy=False), w1, out=a)
            a += b1
            np.tanh(a, out=a)
            np.matmul(a, w2, out=b)
            b += b2
            np.tanh(b, out=b)
            np.matmul(b, w3, out=u32[s:e])
        _tail(model, u32[:n], tail, n2[p:p + n],
              None if nz is None else nz[p:p + n])


def _tail(model: Rgb2NormalModel, u32: np.ndarray, tail: np.ndarray,
          n2: np.ndarray, nz: np.ndarray | None) -> None:
    """The float64 end of the MLP on a pass's layer-3 output ``u32``
    (n, 2), in place: the output bias, the radial squash, the clamp below
    unit norm, and nz = sqrt(1 - nx^2 - ny^2) when ``nz`` is given. Its five
    (n,) arrays are views of ``tail``, the hidden buffers' memory, which the
    pass no longer needs. Every step is elementwise, so the bits do not
    depend on how many bands a pass holds."""
    n = u32.shape[0]
    # one column at a time: an (n, 2) operand would run numpy's inner loop
    # over 2 elements per pixel
    u0, u1, r, gain, t = tail[:5 * n].reshape(5, n)
    np.add(u32[:, 0], model.b3[0], out=u0)
    np.add(u32[:, 1], model.b3[1], out=u1)
    np.multiply(u0, u0, out=r)
    r += np.multiply(u1, u1, out=t)
    np.sqrt(r, out=r)
    _radial_gain(r, gain)
    over = np.multiply(r, gain, out=t) > _NORM_CLAMP
    if over.any():
        gain[over] = _NORM_CLAMP / r[over]
    nx = np.multiply(u0, gain, out=n2[:, 0])
    ny = np.multiply(u1, gain, out=n2[:, 1])
    if nz is not None:
        np.multiply(nx, nx, out=nz)
        nz += np.multiply(ny, ny, out=t)
        np.subtract(1.0, nz, out=nz)
        np.sqrt(np.maximum(nz, 0.0, out=nz), out=nz)


def predict_normals(frame: DiffFrame, model: Rgb2NormalModel) -> NormalMap:
    """Per-pixel inference inside the contact window; output normals are
    unit length with nz > 0, held for the window only: outside it they are
    (0, 0, 1) by definition.

    The result's ``support`` is the contact window, read off the frame's
    float32 largest-channel |diff|, which ``DiffFrame.subtract`` writes
    straight from the frame's two camera frames: the rows and columns with
    at least ``_HOT_COUNT`` pixels above ``_HOT_TAU``, widened by
    ``_WINDOW_MARGIN`` px and clipped to the frame, or the empty window
    (0, 0, 0, 0) when no row or no column has that many. That one pass,
    which counts the hot pixels of each row and each column with
    ``np.count_nonzero``, is all the work outside the window, where the gel
    is taken to be undeformed; a frame without contact makes no MLP call
    and holds a (0, 0, 3) array.

    It runs the float32 MLP on every window pixel (``_window_normals``),
    which agrees with the float64 ``_forward`` to about 1e-6 per component;
    its (nx, ny) is clamped below unit norm and nz, in float64, completes
    the unit vector.
    """
    h, w, _ = frame.shape
    # The float32 frame's largest |diff|; one contiguous subtraction of the
    # whole frame is faster than three of its strided channels.
    a = frame.subtract(..., np.empty((h, w, 3), np.float32))
    np.abs(a, out=a)
    mag = np.maximum(a[:, :, 0], a[:, :, 1])
    np.maximum(mag, a[:, :, 2], out=mag)
    del a
    hot = mag > _HOT_TAU
    del mag
    r0, r1 = _span(np.count_nonzero(hot, axis=1))
    c0, c1 = _span(np.count_nonzero(hot, axis=0))
    del hot
    if r1 <= r0 or c1 <= c0:
        return NormalMap(_Adopt(np.empty((0, 0, 3))), (0, 0, 0, 0), (h, w))
    support = (r0, r1, c0, c1)
    out = np.empty((r1 - r0, c1 - c0, 3))
    _window_normals(model, frame, support, out)
    return NormalMap(_Adopt(out), support, (h, w))


def _window_normals(model: Rgb2NormalModel, frame: DiffFrame,
                    window: tuple, out: np.ndarray) -> None:
    """Write the normals of ``predict_normals`` inside ``window`` =
    (r0, r1, c0, c1) of ``frame`` into ``out``, an (r1 - r0, c1 - c0, 3)
    array.

    The hidden layers run over bands of whole rows, about ``_BAND_PX``
    pixels each (of ``_BAND_PX`` pixels when a row is wider), the float64
    tail over passes of ``_PASS_BANDS`` bands (``_infer``), which write
    (nx, ny) and nz straight into ``out``. Each pass's diff is subtracted
    from the frame's two camera frames into one reused (rows, w, 5) float32
    feature block, so no temporary grows with the window's height.
    """
    r0, r1, c0, c1 = window
    xn, yn = _grid_coords(*frame.shape[:2])
    h, w = out.shape[:2]
    step = max(1, _BAND_PX // w)                # window rows per band
    kernel = _mlp_kernel(model, min(step * w, h * w, _BAND_PX))
    rows = _PASS_BANDS * step
    feats = np.empty((min(rows, h), w, 5), np.float32)
    feats[:, :, 3] = xn[c0:c1]
    flat = out.reshape(-1, 3)
    for s in range(0, h, rows):
        e = min(s + rows, h)
        f = feats[:e - s]
        # a channel at a time: subtracting (rows, w, 3) at once would run
        # numpy's inner loop over 3 values per pixel
        for c in range(3):
            frame.subtract((slice(r0 + s, r0 + e), slice(c0, c1), c),
                           f[:, :, c])
        f[:, :, 4] = yn[r0 + s:r0 + e, None]
        _infer(model, f.reshape(-1, 5), kernel, flat[s * w:e * w, :2],
               flat[s * w:e * w, 2])


def _span(counts: np.ndarray) -> tuple[int, int]:
    """The window along one axis from its hot-pixel counts per line: the
    first to one past the last line with at least ``_HOT_COUNT``, widened by
    ``_WINDOW_MARGIN`` and clipped to the axis; (0, 0) if no line has that
    many."""
    full = np.flatnonzero(counts >= _HOT_COUNT)
    if full.size == 0:
        return 0, 0
    return (max(int(full[0]) - _WINDOW_MARGIN, 0),
            min(int(full[-1]) + 1 + _WINDOW_MARGIN, counts.size))


# ---------------------------------------------------------------------------
# Poisson integration
# ---------------------------------------------------------------------------

def integrate_normals(n: NormalMap, px_per_mm: float) -> HeightMap:
    """Poisson integration of the normal field into a heightmap.

    The slope field g = (-nx/nz, -ny/nz)/px_per_mm (mm per pixel) feeds
    grad h = g; the equation laplacian(h) = div g is solved inside the
    normal map's ``support`` window, with zero height on the window's edge:
    the gel is undeformed there, as it is on the frame's edge. The result is
    gauge-fixed so its minimum is exactly 0, which lifts the frame by minus
    the interior's minimum when that is negative: outside the window the
    height is that one constant c >= 0, not zero. An empty window, or one
    under 3 px on a side, has no interior and gives zero height without a
    solve. Solving only where the contact is also keeps the noise slopes of
    untouched gel out of the solution, where the whole-frame solve
    integrates them into a low-frequency offset.

    The interior 5-point system is solved exactly in float64 by
    ``core._poisson_solve``, fast diagonalization with the type-I sine
    transform; every interior size, 1x1 included, takes the same path. It
    agrees with a sparse direct solve to 1e-13 relative up to 480x640.
    """
    _check_positive(px_per_mm, "px_per_mm")
    full = np.zeros(n.frame_shape)
    if min(full.shape) < 3:
        raise ValueError("normal map too small to integrate")
    v = n.values
    h, w = v.shape[:2]
    if h < 3 or w < 3:                  # no interior, nothing to solve
        return HeightMap(_Adopt(full), px_per_mm)
    # Slopes of the opposite sign, so ``rhs`` is -div g on the interior.
    # One buffer holds the x slopes, then the y slopes, then the solve's
    # work array.
    buf = np.empty(max((h - 2) * w, h * (w - 2)))
    gx = np.divide(v[1:-1, :, 0], v[1:-1, :, 2],
                   out=buf[:(h - 2) * w].reshape(h - 2, w))
    gx /= px_per_mm
    rhs = np.subtract(gx[:, 2:], gx[:, :-2])
    gy = np.divide(v[:, 1:-1, 1], v[:, 1:-1, 2],
                   out=buf[:h * (w - 2)].reshape(h, w - 2))
    gy /= px_per_mm
    rhs += gy[2:]
    rhs -= gy[:-2]
    rhs /= 2.0
    interior = n.crop(full)[1:-1, 1:-1]
    _poisson_solve(rhs, interior, buf[:rhs.size].reshape(rhs.shape))
    # The frame's minimum is min(0, interior's minimum), for the height is 0
    # off the interior; a minimum of 0 leaves the gauge as it is.
    low = interior.min()
    if low < 0.0:
        full -= low
    return HeightMap(_Adopt(full), px_per_mm)


def reconstruction_error(predicted: HeightMap, truth: HeightMap) -> float:
    """Mean squared difference in mm^2 after aligning both gauges to min 0."""
    if predicted.values.shape != truth.values.shape:
        raise ValueError("heightmap shapes differ")
    p = predicted.values - predicted.values.min()
    t = truth.values - truth.values.min()
    return float(np.mean((p - t) ** 2))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_rgb2normal(model: Rgb2NormalModel, path) -> None:
    """Layer-size header plus whitespace-separated weights, full precision."""
    _save_arrays(path, _WEIGHTS_HEADER, (model.w1, model.b1, model.w2,
                                         model.b2, model.w3, model.b3))


def load_rgb2normal(path) -> Rgb2NormalModel:
    return Rgb2NormalModel(*_load_arrays(path, _WEIGHTS_HEADER, _WEIGHT_SHAPES))
