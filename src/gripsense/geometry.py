"""Contact-geometry reconstruction.

Calibration maps background-subtracted RGB to surface normals with a small
MLP trained by full-batch gradient descent; a Poisson solve turns the
predicted normal field into a heightmap, by a type-I discrete sine transform
along the rows and tridiagonal solves down the columns (Hockney 1965).
Training is hand-rolled (forward, analytic backprop, plain GD) because the
model is tiny and the package needs deterministic, dependency-free fitting.
Its epochs are allocation-free: the (N, 32) and (N, 2) work arrays are
allocated once per fit and filled in place. Fresh 1.6 MB temporaries are
mapped from the OS anew each time, and their page faults were about half of
an epoch (6408 samples on a 2-core host: 13-19 ms before, 6-8 ms after).
The fitted weights are bit-identical either way.
Inference runs the MLP only where the contact changed the image: pixels
whose largest channel |diff| exceeds a fixed tau run a separate float32
forward pass, and every other pixel takes the model's first-order expansion
at zero diff, n0(x, y) + J(x, y) . rgb, the reference-frame idea of
GelSight (Johnson & Adelson 2009) to first order. n0 and J are built once
per raster on a grid of nodes at most 4 px and 0.025 normalized units
apart and interpolated bilinearly; expansion pixels stay within 2e-3 per
normal component of the MLP. The float64 ``_forward`` is the training path
and the reference the float32 pass is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft
from scipy.linalg import lapack

from .core import DiffFrame, HeightMap, NormalMap

LAYER_SIZES = (5, 32, 32, 2)
DEFAULT_EPOCHS = 1000
DEFAULT_LEARNING_RATE = 0.1
DEFAULT_SPHERE_RADIUS_MM = 5.0

_NORM_CLAMP = 1.0 - 1e-9
# Pixel rows per inference band: the two (band, 32) float32 hidden buffers
# take 1 MB together, so a band's activations stay in a core's L2 cache.
_BAND_PX = 4096
# Pixels whose largest channel |diff| is at most this take the first-order
# expansion instead of the MLP. Fixed, not adapted to the frame, so the
# error bound in ``predict_normals`` holds for every frame: the dropped
# second-order term grows as tau^2 (up to 1.2e-3 per component at 0.025
# with the more curved library-default model; 1e-3 would need tau = 0.02,
# which sends 12-19% of a grasp's pixels to the MLP instead of 3.5-11%).
# It is 2.5 sigma of the 0.01 sensor noise, so untouched gel stays on the
# linear path.
_LINEAR_TAU = 0.025
# Largest expansion node spacing, in px and in normalized coordinates. The
# second bound matters on small rasters, where a 4 px stride spans a large
# part of the model's coordinate range (alone, it left J off by 2e-2 at
# 13x317 and 8e-2 at 8x8).
_NODE_PX = 4.0
_NODE_NORM = 0.025


@dataclass(frozen=True)
class Rgb2NormalModel:
    """MLP weights for the RGB-to-normal mapping.

    Input 5 (diff R, G, B, normalized x, y), two tanh hidden layers of 32,
    linear output 2 squashed radially so (nx, ny) always has norm < 1;
    nz = sqrt(1 - nx^2 - ny^2) then makes the normal unit by construction.
    ``final_loss`` is the training loss after the last step (None for models
    loaded from disk); ``loss_history`` holds the loss before each step plus
    the final value.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    final_loss: float | None = None
    loss_history: tuple = ()
    # per-raster slot: the last raster's first-order expansion planes
    # (``_expansion``); not part of the model's value, so left out of
    # comparison, repr, pickling and the saved file
    _raster: np.ndarray | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_raster", None)
        return state

    def __post_init__(self):
        shapes = {"w1": (32, 5), "b1": (32,), "w2": (32, 32), "b2": (32,),
                  "w3": (2, 32), "b3": (2,)}
        for name, shape in shapes.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite weights")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class CalibrationDataset:
    """(feature, unit normal) pairs sampled from sphere presses."""

    features: np.ndarray        # (N, 5)
    normals: np.ndarray         # (N, 3)
    sphere_radius_mm: float = DEFAULT_SPHERE_RADIUS_MM

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        n = np.asarray(self.normals, dtype=np.float64)
        if f.ndim != 2 or f.shape[1] != 5:
            raise ValueError("features must be (N, 5)")
        if n.shape != (f.shape[0], 3):
            raise ValueError("normals must be (N, 3)")
        if f.shape[0] == 0:
            raise ValueError("calibration dataset must be non-empty")
        if np.max(np.abs(np.linalg.norm(n, axis=1) - 1.0)) > 1e-6:
            raise ValueError("ground-truth normals must be unit length")
        f = f.copy(); f.setflags(write=False)
        n = n.copy(); n.setflags(write=False)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "normals", n)

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
    radius mm, px_per_mm). In-contact pixels get the sphere normal at their
    offset from the center; an equal-sized, evenly strided sample of
    out-of-contact pixels gets the flat normal (0, 0, 1) so the model also
    learns the background.
    """
    if not presses:
        raise ValueError("need at least one calibration press")
    feats, norms = [], []
    radius_mm = DEFAULT_SPHERE_RADIUS_MM
    for frame, center, contact_radius_px, sphere_radius_mm, px_per_mm in presses:
        cx, cy = float(center[0]), float(center[1])
        h, w, _ = frame.values.shape
        if not (0.0 <= cx <= w - 1 and 0.0 <= cy <= h - 1):
            raise ValueError("sphere center outside the frame")
        if not contact_radius_px < sphere_radius_mm * px_per_mm:
            raise ValueError("contact radius must be below the sphere radius")
        radius_mm = float(sphere_radius_mm)
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
    return CalibrationDataset(np.vstack(feats), np.vstack(norms), radius_mm)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _radial_gain(r: np.ndarray) -> np.ndarray:
    """tanh(r)/r, with its series 1 - r^2/3 below 1e-6 where the quotient is 0/0."""
    small = r < 1e-6
    g = np.tanh(r)
    g /= np.where(small, 1.0, r)
    if np.any(small):
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
    """Loss and gradients of one full-batch epoch, in preallocated arrays.

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
    """Full-batch gradient descent on mean squared (nx, ny) error.

    Deterministic for a given seed. At the default learning rate the recorded
    loss history is non-increasing; a diverging run (non-finite loss) raises
    instead of returning garbage weights. The work arrays are allocated once
    per call and reused by every epoch.
    """
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if not (np.isfinite(learning_rate) and learning_rate > 0.0):
        raise ValueError("learning_rate must be finite and positive, "
                         f"got {learning_rate}")
    rng = np.random.default_rng(seed)
    params = []
    for fan_out, fan_in in ((32, 5), (32, 32), (2, 32)):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params.append(rng.uniform(-limit, limit, (fan_out, fan_in)))
        params.append(np.zeros(fan_out))
    x = data.features
    t = data.normals[:, :2]
    buf = _training_buffers(len(data))
    history = []
    loss = np.inf
    for _ in range(epochs):
        loss, grads = _loss_and_grads(params, x, t, buf)
        if not np.isfinite(loss):
            raise ValueError("diverged; reduce learning rate")
        history.append(loss)
        params = [p - learning_rate * dp for p, dp in zip(params, grads)]
    final, _ = _loss_and_grads(params, x, t, buf)
    if not np.isfinite(final):
        raise ValueError("diverged; reduce learning rate")
    history.append(final)
    return Rgb2NormalModel(*params, final_loss=final, loss_history=tuple(history))


def _mlp(model: Rgb2NormalModel, feats: np.ndarray, jacobian: bool = False):
    """The float32 inference pass over pixel rows.

    ``feats`` is (N, 5): diff R, G, B and normalized x, y, as in training.
    Returns (N, 2) float64 (nx, ny), clamped below unit norm. The hidden
    layers run in float32 and agree with the float64 ``_forward`` to about
    1e-6 per component; the radial squash runs in float64. Everything runs
    over bands of ``_BAND_PX`` rows, reusing the hidden buffers, so no
    temporary grows with N. With ``jacobian`` it also returns (N, 2, 3)
    float32 d(nx, ny)/d(R, G, B) of the unclamped squash, by backprop
    through both layers.
    """
    f32 = np.float32
    n = feats.shape[0]
    w1, b1 = np.ascontiguousarray(model.w1.T, f32), model.b1.astype(f32)
    w2, b2 = np.ascontiguousarray(model.w2.T, f32), model.b2.astype(f32)
    w3 = np.ascontiguousarray(model.w3.T, f32)
    band = max(1, min(n, _BAND_PX))
    z1 = np.empty((band, LAYER_SIZES[1]), f32)
    z2 = np.empty((band, LAYER_SIZES[2]), f32)
    out = np.empty((n, 2))
    if jacobian:
        # d(u_k)/d(z1) = (tanh'(layer 2) * w3[k]) @ W2; both k in one product
        back2 = np.hstack([w3[:, k, None] * model.w2 for k in range(2)]).astype(f32)
        back1 = np.ascontiguousarray(model.w1[:, :3], f32)
        dz = np.empty((band, 2 * LAYER_SIZES[1]), f32)
        jac = np.empty((n, 2, 3), f32)
    for s in range(0, n, band):
        e = min(s + band, n)
        a, b = z1[:e - s], z2[:e - s]
        np.matmul(feats[s:e].astype(f32, copy=False), w1, out=a)
        a += b1
        np.tanh(a, out=a)
        np.matmul(a, w2, out=b)
        b += b2
        np.tanh(b, out=b)
        u = (b @ w3).astype(np.float64)
        u += model.b3
        r = np.sqrt(u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1])
        gain = _radial_gain(r)
        over = r * gain > _NORM_CLAMP
        if np.any(over):
            gain[over] = _NORM_CLAMP / r[over]
        np.multiply(u, gain[:, None], out=out[s:e])
        if not jacobian:
            continue
        # tanh' = 1 - tanh^2, in place: the activations are spent
        s1 = np.subtract(1.0, np.square(a, out=a), out=a)
        s2 = np.subtract(1.0, np.square(b, out=b), out=b)
        d = np.matmul(s2, back2, out=dz[:e - s])
        d[:, :LAYER_SIZES[1]] *= s1
        d[:, LAYER_SIZES[1]:] *= s1
        du = (d.reshape(-1, LAYER_SIZES[1]) @ back1).reshape(e - s, 2, 3)
        # the squash's Jacobian is g I + q u u^T, as in the training backward pass
        _, g, q = _squash(u)
        u = u.astype(f32)
        udu = u[:, :1] * du[:, 0] + u[:, 1:] * du[:, 1]     # u . du per RGB channel
        for k in range(2):
            jac[s:e, k] = g[:, None] * du[:, k] + (q * u[:, k])[:, None] * udu
    return (out, jac) if jacobian else out


def _interpolation(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Expansion nodes along one axis, in normalized coordinates, and the
    (nodes, size) float32 weights that take node values to pixels bilinearly.

    Nodes are evenly spaced from the first pixel to the last, no farther
    apart than ``_NODE_PX`` px nor ``_NODE_NORM`` in normalized
    coordinates; where that puts them under a pixel apart, every pixel is a
    node and the weights are the identity.
    """
    step = min(_NODE_PX, _NODE_NORM * max(size - 1, 1) / 2.0)
    count = int(np.ceil((size - 1) / step)) + 1
    if count >= size:
        return _grid_coords(1, size)[0], np.eye(size, dtype=np.float32)
    t = np.arange(size) * ((count - 1) / (size - 1))
    left = np.minimum(t.astype(np.intp), count - 2)
    frac = t - left
    weights = np.zeros((count, size), np.float32)
    weights[left, np.arange(size)] = 1.0 - frac
    weights[left + 1, np.arange(size)] = frac
    return np.linspace(-1.0, 1.0, count), weights


def _expansion(model: Rgb2NormalModel, h: int, w: int) -> np.ndarray:
    """(8, H, W) float32 planes n0x, n0y, d(nx)/dRGB, d(ny)/dRGB at zero diff.

    The MLP and its Jacobian are evaluated at the nodes of
    ``_interpolation`` and interpolated bilinearly by two products. The
    planes live in the model's per-raster slot, which holds only the last
    raster's.
    """
    held = model._raster
    if held is not None and held.shape[1:] == (h, w):
        return held
    (yn, wy), (xn, wx) = _interpolation(h), _interpolation(w)
    feats = np.zeros((yn.size * xn.size, 5))
    feats[:, 3] = np.tile(xn, yn.size)
    feats[:, 4] = np.repeat(yn, xn.size)
    n0, jac = _mlp(model, feats, jacobian=True)
    nodes = np.column_stack([n0, jac.reshape(-1, 6)]).T.astype(np.float32)
    planes = wy.T @ nodes.reshape(8, yn.size, xn.size) @ wx
    object.__setattr__(model, "_raster", planes)
    return planes


def predict_normals(frame: DiffFrame, model: Rgb2NormalModel) -> NormalMap:
    """Per-pixel inference; output normals are unit length with nz > 0.

    Only pixels whose largest channel |diff| exceeds ``_LINEAR_TAU`` run
    the float32 MLP (``_mlp``). Every other pixel, on gel the contact left
    untouched, gets the model's first-order expansion at zero diff,
    n0(x, y) + J(x, y) . rgb, with n0 and J = d(nx, ny)/d(R, G, B) built once
    per raster (``_expansion``) at nodes no farther apart than ``_NODE_PX``
    px and ``_NODE_NORM`` in normalized coordinates, then interpolated
    bilinearly. Those pixels are within 2e-3 per component of the MLP, and
    the heights integrated from them within 5e-4 mm, on the tested
    calibration recipes; MLP pixels agree with the float64 ``_forward`` to
    about 1e-6. tau is a constant rather than fitted to each frame's noise,
    so that bound holds on every frame. The clamp below unit norm is applied
    again after the linear step, and nz is float64.
    """
    h, w, _ = frame.values.shape
    planes = _expansion(model, h, w).reshape(8, -1)
    rgb = frame.values.reshape(-1, 3).T.astype(np.float32)
    # Full-frame temporaries are reused: fresh ones measured slower.
    tmp = np.empty(h * w, np.float32)
    lin = planes[:2].copy()
    for c in range(3):
        for k in range(2):
            lin[k] += np.multiply(planes[2 + 3 * k + c], rgb[c], out=tmp)
    mag = np.abs(rgb[0])
    for c in (1, 2):
        np.maximum(mag, np.abs(rgb[c], out=tmp), out=mag)
    idx = np.flatnonzero(mag > _LINEAR_TAU)
    n2 = lin.astype(np.float64)
    t2 = n2[0] * n2[0]
    t2 += n2[1] * n2[1]
    over = t2 > _NORM_CLAMP * _NORM_CLAMP
    if np.any(over):
        n2[:, over] *= _NORM_CLAMP / np.sqrt(t2[over])
        t2[over] = n2[0, over] * n2[0, over] + n2[1, over] * n2[1, over]
    xn, yn = _grid_coords(h, w)
    feats = np.empty((idx.size, 5), np.float32)
    feats[:, :3] = rgb[:, idx].T
    feats[:, 3] = xn[idx % w]
    feats[:, 4] = yn[idx // w]
    mlp = _mlp(model, feats)
    n2[:, idx] = mlp.T
    t2[idx] = mlp[:, 0] * mlp[:, 0] + mlp[:, 1] * mlp[:, 1]
    nz = np.subtract(1.0, t2, out=t2)
    np.sqrt(np.maximum(nz, 0.0, out=nz), out=nz)
    return NormalMap(np.stack([n2[0], n2[1], nz], axis=1).reshape(h, w, 3))


# ---------------------------------------------------------------------------
# Poisson integration
# ---------------------------------------------------------------------------

def integrate_normals(n: NormalMap, px_per_mm: float) -> HeightMap:
    """Poisson integration of the normal field into a heightmap.

    The slope field g = (-nx/nz, -ny/nz)/px_per_mm (mm per pixel) feeds
    grad h = g; the equation laplacian(h) = div g is solved with zero height
    on the frame edge (the gel is undeformed there) and the result is
    gauge-fixed so its minimum is exactly 0.

    The interior 5-point system is solved exactly in float64 by Hockney's
    method (J. ACM 1965). The orthonormal type-I discrete sine transform
    along each row, its own inverse, diagonalizes the x half of the
    Laplacian with eigenvalues lam_x[k] = 2 cos(pi k / (W - 1)) - 2. For
    each x-mode k what remains down the columns is the symmetric positive
    definite tridiagonal system with diagonal 2 - lam_x[k] and off-diagonal
    -1 (the negated equation). The modes are laid end to end, decoupled by
    zeros on the off-diagonal, and solved by one LAPACK ``dptsv`` call; the
    inverse sine transform along the rows gives the heights. Unlike a sine
    transform down the columns too, the cost does not depend on how H - 1
    factors.
    """
    if not px_per_mm > 0:
        raise ValueError("px_per_mm must be positive")
    v = n.values
    h, w = v.shape[:2]
    if h < 3 or w < 3:
        raise ValueError("normal map too small to integrate")
    m, k = h - 2, w - 2
    # slopes of the opposite sign, so ``rhs`` is -div g on the interior
    gx = v[1:-1, :, 0] / v[1:-1, :, 2] / px_per_mm
    gy = v[:, 1:-1, 1] / v[:, 1:-1, 2] / px_per_mm
    rhs = (gx[:, 2:] - gx[:, :-2] + gy[2:] - gy[:-2]) / 2.0
    coef = fft.dst(rhs, type=1, norm="ortho", axis=1, overwrite_x=True)
    modes = coef.T.reshape(-1)                  # x-mode k is modes[k*m:(k+1)*m]
    lam_x = 2.0 * np.cos(np.pi * np.arange(1, k + 1) / (k + 1)) - 2.0
    diag = np.repeat(2.0 - lam_x, m)
    if diag.size == 1:
        # a 1x1 interior; dptsv's wrapper refuses an empty off-diagonal
        modes /= diag
    else:
        off = np.full(diag.size - 1, -1.0)
        off[m - 1::m] = 0.0
        *_, modes, info = lapack.dptsv(diag, off, modes, overwrite_d=1,
                                       overwrite_e=1, overwrite_b=1)
        if info != 0:
            raise ValueError(f"tridiagonal Poisson solve failed (info={info})")
    full = np.zeros((h, w))
    full[1:-1, 1:-1] = fft.dst(modes.reshape(k, m).T, type=1, norm="ortho",
                               axis=1, overwrite_x=True)
    full -= full.min()
    return HeightMap(full, px_per_mm)


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
    parts = [" ".join(str(s) for s in LAYER_SIZES)]
    for arr in (model.w1, model.b1, model.w2, model.b2, model.w3, model.b3):
        parts.append(" ".join(f"{v:.17g}" for v in arr.ravel()))
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


def load_rgb2normal(path) -> Rgb2NormalModel:
    with open(path) as f:
        tokens = f.read().split()
    sizes = tokens[:len(LAYER_SIZES)]
    if [int(float(s)) for s in sizes] != list(LAYER_SIZES):
        raise ValueError(f"unsupported layer sizes {sizes}")
    vals = np.array([float(t) for t in tokens[len(LAYER_SIZES):]])
    shapes = [(32, 5), (32,), (32, 32), (32,), (2, 32), (2,)]
    need = sum(int(np.prod(s)) for s in shapes)
    if vals.size != need:
        raise ValueError(f"expected {need} weights, found {vals.size}")
    arrs, at = [], 0
    for s in shapes:
        cnt = int(np.prod(s))
        arrs.append(vals[at:at + cnt].reshape(s))
        at += cnt
    return Rgb2NormalModel(*arrs, final_loss=None)
