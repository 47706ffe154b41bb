"""Contact-geometry reconstruction.

Calibration maps background-subtracted RGB to surface normals with a small
MLP trained by full-batch gradient descent; a Poisson solve turns the
predicted normal field into a heightmap, by a type-I discrete sine transform
along the rows and tridiagonal solves down the columns (Hockney 1965).
Training is hand-rolled (forward, analytic backprop, plain GD) because the
model is tiny and the package needs deterministic, dependency-free fitting.
Inference runs a separate float32 forward pass over bands of rows small
enough for the hidden activations to stay in cache; the float64
``_forward`` is the training path and the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft
from scipy.linalg import lapack

from .core import DiffFrame, HeightMap, NormalMap

LAYER_SIZES = (5, 32, 32, 2)
DEFAULT_EPOCHS = 1000
DEFAULT_LEARNING_RATE = 0.1
DEFAULT_SPHERE_RADIUS_MM = 5.0

_NORM_CLAMP = 1.0 - 1e-9
# Pixels per inference band: the two (band, 32) float32 hidden buffers take
# 1 MB together, so a band's activations stay in a core's L2 cache.
_BAND_PX = 4096


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


def _loss_and_grads(params, x, t):
    w1, b1, w2, b2, w3, b3 = params
    n, (x, z1, z2, u, g, q) = _forward(params, x)
    diff = n - t
    loss = float(np.sum(diff * diff) / x.shape[0])
    dn = 2.0 * diff / x.shape[0]
    du = dn * g[:, None] + u * (np.sum(u * dn, axis=1) * q)[:, None]
    dw3 = du.T @ z2
    db3 = du.sum(axis=0)
    dz2 = (du @ w3) * (1.0 - z2 * z2)
    dw2 = dz2.T @ z1
    db2 = dz2.sum(axis=0)
    dz1 = (dz2 @ w2) * (1.0 - z1 * z1)
    dw1 = dz1.T @ x
    db1 = dz1.sum(axis=0)
    return loss, (dw1, db1, dw2, db2, dw3, db3)


def fit_rgb2normal(data: CalibrationDataset, epochs: int = DEFAULT_EPOCHS,
                   learning_rate: float = DEFAULT_LEARNING_RATE,
                   seed: int = 0) -> Rgb2NormalModel:
    """Full-batch gradient descent on mean squared (nx, ny) error.

    Deterministic for a given seed. At the default learning rate the recorded
    loss history is non-increasing; a diverging run (non-finite loss) raises
    instead of returning garbage weights.
    """
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    rng = np.random.default_rng(seed)
    params = []
    for fan_out, fan_in in ((32, 5), (32, 32), (2, 32)):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params.append(rng.uniform(-limit, limit, (fan_out, fan_in)))
        params.append(np.zeros(fan_out))
    x = data.features
    t = data.normals[:, :2]
    history = []
    loss = np.inf
    for _ in range(epochs):
        loss, grads = _loss_and_grads(params, x, t)
        if not np.isfinite(loss):
            raise ValueError("diverged; reduce learning rate")
        history.append(loss)
        params = [p - learning_rate * dp for p, dp in zip(params, grads)]
    final, _ = _loss_and_grads(params, x, t)
    if not np.isfinite(final):
        raise ValueError("diverged; reduce learning rate")
    history.append(final)
    return Rgb2NormalModel(*params, final_loss=final, loss_history=tuple(history))


def predict_normals(frame: DiffFrame, model: Rgb2NormalModel) -> NormalMap:
    """Per-pixel inference; output normals are unit length with nz > 0.

    The hidden layers run in float32 and agree with the float64 ``_forward``
    to about 1e-6 per component. Layer 1 multiplies only the RGB columns;
    its (x, y) columns, the same for every frame of a size, enter as a
    per-column plus a per-row bias. The frame is processed in bands of
    whole rows of about ``_BAND_PX`` pixels (at least one row), reusing two
    float32 hidden buffers, so the activations stay in cache. The
    radial squash, the clamp below unit norm and nz run in float64 per band
    and are written straight into the (H, W, 3) output.
    """
    h, w, _ = frame.values.shape
    f32 = np.float32
    xn, yn = _grid_coords(h, w)
    w1 = model.w1[:, :3].T.astype(f32)
    col_bias = (xn[:, None] * model.w1[:, 3]).astype(f32)
    row_bias = (yn[:, None, None] * model.w1[:, 4] + model.b1).astype(f32)
    w2, b2 = model.w2.T.astype(f32), model.b2.astype(f32)
    w3 = model.w3.T.astype(f32)
    rows = max(1, _BAND_PX // w)
    z1 = np.empty((rows * w, LAYER_SIZES[1]), f32)
    z2 = np.empty((rows * w, LAYER_SIZES[2]), f32)
    out = np.empty((h, w, 3))
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        npx = (r1 - r0) * w
        a, b = z1[:npx], z2[:npx]
        np.matmul(frame.values[r0:r1].reshape(npx, 3).astype(f32), w1, out=a)
        a3 = a.reshape(r1 - r0, w, -1)
        a3 += col_bias
        a3 += row_bias[r0:r1]
        np.tanh(a, out=a)
        np.matmul(a, w2, out=b)
        b += b2
        np.tanh(b, out=b)
        u = np.array((b @ w3).T, dtype=np.float64, order="C")
        u += model.b3[:, None]
        r = np.sqrt(u[0] * u[0] + u[1] * u[1])
        gain = _radial_gain(r)
        over = r * gain > _NORM_CLAMP
        if np.any(over):
            gain[over] = _NORM_CLAMP / r[over]
        band = out[r0:r1].reshape(npx, 3)
        nx = np.multiply(u[0], gain, out=band[:, 0])
        ny = np.multiply(u[1], gain, out=band[:, 1])
        np.sqrt(np.maximum(1.0 - (nx * nx + ny * ny), 0.0), out=band[:, 2])
    return NormalMap(out)


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
