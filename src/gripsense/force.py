"""3-D force estimation.

Normal force is a linear map from motor current. Shear force comes from the
marker displacement field: dense interpolation, Helmholtz decomposition into
a curl-free part P, a divergence-free part S, and a harmonic remainder H,
then a 10-entry polynomial feature of the in-contact means feeding per-axis
least squares. The marker displacements reach the grid by inverse-distance
weighting, ``_idw_interpolate``.

The decomposition computes P as the least-squares projection of the field
onto discrete gradients and S as the projection onto discrete rotations,
with both potentials pinned to zero on the one-node boundary ring. Central
differences with zero extension make the two subspaces exactly orthogonal
and make constants exactly harmonic, so the decomposition reproduces every
closed-form case to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .core import DisplacementField, MarkerSet, ScalarField
from .slip import ContactMask

FEATURE_NAMES = ("vx", "vy", "px", "px2", "py", "py2", "sx", "sx2", "sy", "sy2")


# ---------------------------------------------------------------------------
# normal force
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalForceModel:
    """F = slope * current + intercept."""

    slope: float
    intercept: float
    fitted: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.slope) and np.isfinite(self.intercept)):
            raise ValueError("coefficients must be finite")


def fit_normal_force(samples) -> NormalForceModel:
    """Ordinary least squares of force on current.

    ``samples`` is a sequence of (current, force) pairs. All-identical
    currents leave the slope unidentifiable and raise.
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be (current, force) pairs")
    if arr.shape[0] < 2 or np.ptp(arr[:, 0]) == 0.0:
        raise ValueError("rank deficient: need at least 2 distinct currents")
    design = np.column_stack([arr[:, 0], np.ones(arr.shape[0])])
    coef, *_ = np.linalg.lstsq(design, arr[:, 1], rcond=None)
    return NormalForceModel(float(coef[0]), float(coef[1]))


def predict_normal_force(current, model: NormalForceModel):
    """slope * I + intercept, elementwise over array input."""
    if not model.fitted:
        raise ValueError("normal-force model is not fitted")
    out = model.slope * np.asarray(current, dtype=np.float64) + model.intercept
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# marker-field interpolation
# ---------------------------------------------------------------------------

# Squared-distance threshold under which an IDW query point is considered
# coincident with a data point and copies its value exactly.
_COINCIDENT_SQ = 1e-24


def _idw_interpolate(px: np.ndarray, py: np.ndarray, vals: np.ndarray,
                     node_x: np.ndarray, node_y: np.ndarray,
                     k: int = 4, power: float = 2.0) -> np.ndarray:
    """Inverse-distance-weighted interpolation of scattered samples onto a grid.

    ``(px, py)`` are N sample positions with values ``vals`` (N, C); the output
    grid has node columns at ``node_x`` and rows at ``node_y``. For each node
    the ``k`` nearest samples are blended with weights d^-power. Ties in
    distance are broken by sample index (lowest first) so results are
    deterministic; a node coinciding with a sample copies that sample's value.
    """
    n = px.shape[0]
    k = min(k, n)
    gh, gw = node_y.shape[0], node_x.shape[0]
    gx, gy = np.meshgrid(node_x, node_y)
    d2 = ((gx.ravel()[:, None] - px[None, :]) ** 2
          + (gy.ravel()[:, None] - py[None, :]) ** 2)
    # k passes of argmin, which returns the first minimum, so exact distance
    # ties go to the lowest sample index, as a stable sort would order them
    rows = np.arange(d2.shape[0])
    order = np.empty((d2.shape[0], k), dtype=np.intp)
    dk = np.empty((d2.shape[0], k))
    for j in range(k):
        order[:, j] = np.argmin(d2, axis=1)
        dk[:, j] = d2[rows, order[:, j]]
        d2[rows, order[:, j]] = np.inf
    out = np.empty((gh * gw, vals.shape[1]))
    exact = dk[:, 0] < _COINCIDENT_SQ
    wgt = 1.0 / np.maximum(dk, _COINCIDENT_SQ) ** (power / 2.0)
    wgt /= wgt.sum(axis=1, keepdims=True)
    out[:] = np.einsum("nk,nkc->nc", wgt, vals[order])
    if np.any(exact):
        out[exact] = vals[order[exact, 0]]
    return out.reshape(gh, gw, vals.shape[1])


def interpolate_markers(before: MarkerSet, after: MarkerSet,
                        grid: tuple[int, int]) -> DisplacementField:
    """Scatter per-marker displacements to a regular grid by IDW (k=4, p=2).

    Matching is by marker id; at least 3 shared markers are required. The
    grid spans the frame bounds when ``before`` has them, otherwise the
    bounding box of the matched rest positions.
    """
    gh, gw = int(grid[0]), int(grid[1])
    if gh < 2 or gw < 2:
        raise ValueError("grid must be at least 2x2")
    ib = {int(m): k for k, m in enumerate(before.ids)}
    shared = [int(m) for m in after.ids if int(m) in ib]
    if len(shared) < 3:
        raise ValueError("need at least 3 matched markers")
    ia = {int(m): k for k, m in enumerate(after.ids)}
    bsel = np.array([ib[m] for m in shared])
    asel = np.array([ia[m] for m in shared])
    rest = before.xy[bsel]
    disp = after.xy[asel] - rest
    if before.frame_width is not None:
        x0, x1 = 0.0, float(before.frame_width)
        y0, y1 = 0.0, float(before.frame_height)
    else:
        x0, x1 = float(rest[:, 0].min()), float(rest[:, 0].max())
        y0, y1 = float(rest[:, 1].min()), float(rest[:, 1].max())
    if x1 <= x0 or y1 <= y0:
        raise ValueError("degenerate marker extent")
    node_x = np.linspace(x0, x1, gw)
    node_y = np.linspace(y0, y1, gh)
    vals = _idw_interpolate(rest[:, 0], rest[:, 1], disp, node_x, node_y)
    return DisplacementField(vals, float(node_x[1] - node_x[0]), (x0, y0))


# ---------------------------------------------------------------------------
# Helmholtz decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HHDResult:
    """Curl-free P, divergence-free S, harmonic H, and their potentials."""

    P: DisplacementField
    S: DisplacementField
    H: DisplacementField
    phi: ScalarField
    psi: ScalarField


_HHD_CACHE: dict = {}


def _central_diff_ops(h: int, w: int):
    """Sparse central-difference d/dx, d/dy with zero extension (row-major)."""

    def band(n):
        d = sparse.diags([0.5, -0.5], [1, -1], (n, n))
        return d

    gx = sparse.kron(sparse.identity(h), band(w), format="csr")
    gy = sparse.kron(band(h), sparse.identity(w), format="csr")
    return gx, gy


def _hhd_operators(h: int, w: int):
    key = (h, w)
    if key not in _HHD_CACHE:
        gx, gy = _central_diff_ops(h, w)
        interior = np.zeros((h, w), dtype=bool)
        interior[1:-1, 1:-1] = True
        idx = np.flatnonzero(interior.ravel())
        e = sparse.csr_matrix(
            (np.ones(idx.size), (idx, np.arange(idx.size))), shape=(h * w, idx.size))
        a = (gx @ e).tocsr()
        b = (gy @ e).tocsr()
        k = (a.T @ a + b.T @ b).tocsc()
        _HHD_CACHE[key] = (a, b, splu(k))
    return _HHD_CACHE[key]


def hhd_decompose(v: DisplacementField) -> HHDResult:
    """Split a displacement field into curl-free + divergence-free + harmonic.

    Both potentials vanish on the frame edge (the gel is pinned there); the
    projections are exact least squares, so P + S + H always reconstructs the
    input and the remainder H is orthogonal to both model subspaces.
    """
    vals = v.values
    h, w = vals.shape[:2]
    if h < 8 or w < 8:
        raise ValueError("field must be at least 8x8")
    a, b, solver = _hhd_operators(h, w)
    vx = vals[:, :, 0].ravel()
    vy = vals[:, :, 1].ravel()
    try:
        phi_i = solver.solve(a.T @ vx + b.T @ vy)
        psi_i = solver.solve(b.T @ vx - a.T @ vy)
    except RuntimeError as exc:                    # pragma: no cover
        raise ValueError(f"potential solve failed: {exc}") from exc
    if not (np.all(np.isfinite(phi_i)) and np.all(np.isfinite(psi_i))):
        raise ValueError("potential solve failed: non-finite solution")
    p = np.dstack([(a @ phi_i).reshape(h, w), (b @ phi_i).reshape(h, w)])
    s = np.dstack([(b @ psi_i).reshape(h, w), (-(a @ psi_i)).reshape(h, w)])
    hh = vals - p - s
    phi = np.zeros((h, w))
    phi[1:-1, 1:-1] = phi_i.reshape(h - 2, w - 2)
    psi = np.zeros((h, w))
    psi[1:-1, 1:-1] = psi_i.reshape(h - 2, w - 2)
    mk = lambda f: DisplacementField(f, v.spacing_px, v.origin_px)
    return HHDResult(mk(p), mk(s), mk(hh), ScalarField(phi), ScalarField(psi))


def curl(field: DisplacementField) -> np.ndarray:
    """Discrete curl_z (central differences, zero extension), for diagnostics."""
    gx, gy = _central_diff_ops(*field.values.shape[:2])
    h, w = field.values.shape[:2]
    return (gx @ field.values[:, :, 1].ravel()
            - gy @ field.values[:, :, 0].ravel()).reshape(h, w)


def divergence(field: DisplacementField) -> np.ndarray:
    gx, gy = _central_diff_ops(*field.values.shape[:2])
    h, w = field.values.shape[:2]
    return (gx @ field.values[:, :, 0].ravel()
            + gy @ field.values[:, :, 1].ravel()).reshape(h, w)


# ---------------------------------------------------------------------------
# shear features and regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShearFeature:
    """10-vector of in-contact means: v, then P and S with squared terms.

    ``contact=False`` marks a frame with no contact on the field grid; its
    values are all zero and it predicts zero shear.
    """

    values: np.ndarray          # (10,)
    contact: bool = True

    def __post_init__(self):
        val = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if val.shape != (10,):
            raise ValueError("shear feature must have 10 entries")
        if not np.all(np.isfinite(val)):
            raise ValueError("shear feature must be finite")
        val = val.copy()
        val.setflags(write=False)
        object.__setattr__(self, "values", val)


def shear_features(v: DisplacementField, hhd: HHDResult,
                   mask: ContactMask) -> ShearFeature:
    """[vx, vy, px, px^2, py, py^2, sx, sx^2, sy, sy^2] averaged over contact.

    The mask is resampled to the field grid if resolutions differ; squared
    entries are squares of the means, not means of squares. A mask that is
    empty on the field grid gives the all-zero no-contact feature.
    """
    h, w = v.values.shape[:2]
    if mask.values.shape != (h, w):
        mask = mask.resampled((h, w))
    m = mask.values
    if not m.any():
        return ShearFeature(np.zeros(10), contact=False)

    def mean2(f):
        return f.values[m].mean(axis=0)

    vb = mean2(v)
    pb = mean2(hhd.P)
    sb = mean2(hhd.S)
    return ShearFeature(np.array([
        vb[0], vb[1],
        pb[0], pb[0] ** 2, pb[1], pb[1] ** 2,
        sb[0], sb[0] ** 2, sb[1], sb[1] ** 2,
    ]))


@dataclass(frozen=True)
class ShearModel:
    """Per-axis linear readout: F_axis = w_axis . x + b_axis."""

    w_x: np.ndarray             # (10,)
    w_y: np.ndarray             # (10,)
    b_x: float
    b_y: float

    def __post_init__(self):
        for name in ("w_x", "w_y"):
            w = np.asarray(getattr(self, name), dtype=np.float64).reshape(-1)
            if w.shape != (10,):
                raise ValueError(f"{name} must have 10 entries")
            if not np.all(np.isfinite(w)):
                raise ValueError(f"{name} must be finite")
            w = w.copy()
            w.setflags(write=False)
            object.__setattr__(self, name, w)
        if not (np.isfinite(self.b_x) and np.isfinite(self.b_y)):
            raise ValueError("biases must be finite")


def _as_feature_matrix(features) -> np.ndarray:
    rows = [f.values if isinstance(f, ShearFeature) else np.asarray(f, float)
            for f in features]
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 10:
        raise ValueError("features must be (N, 10)")
    return x


def fit_shear_model(features, labels) -> ShearModel:
    """Per-axis ordinary least squares with a shared bias column.

    No-contact features carry no shear signal and are refused.
    """
    features = list(features)
    if any(isinstance(f, ShearFeature) and not f.contact for f in features):
        raise ValueError("cannot fit shear on a no-contact feature")
    x = _as_feature_matrix(features)
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (x.shape[0], 2):
        raise ValueError("labels must be (N, 2) shear forces")
    if x.shape[0] < 11:
        raise ValueError("need at least 11 samples (10 features + bias)")
    design = np.column_stack([x, np.ones(x.shape[0])])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise ValueError("rank deficient shear design matrix")
    return ShearModel(coef[:10, 0], coef[:10, 1], float(coef[10, 0]),
                      float(coef[10, 1]))


def predict_shear(feature, model: ShearModel) -> tuple[float, float]:
    """(F_x, F_y) from a feature; exactly (0.0, 0.0) for a no-contact one."""
    if isinstance(feature, ShearFeature) and not feature.contact:
        return (0.0, 0.0)
    x = feature.values if isinstance(feature, ShearFeature) \
        else np.asarray(feature, dtype=np.float64).reshape(-1)
    if x.shape != (10,):
        raise ValueError("feature must have 10 entries")
    return (float(x @ model.w_x + model.b_x), float(x @ model.w_y + model.b_y))


def build_shear_features(pairs, grid: tuple[int, int] = (24, 24)) -> list[ShearFeature]:
    """Marker pairs to regression features: interpolate, decompose, average.

    ``pairs`` is a sequence of (rest markers, moved markers, contact mask)
    triples as produced by the shear dataset generator. Each triple runs the
    full field pipeline on the given grid.
    """
    out = []
    for rest, moved, mask in pairs:
        field = interpolate_markers(rest, moved, grid)
        out.append(shear_features(field, hhd_decompose(field), mask))
    return out


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_normal_force(model: NormalForceModel, path) -> None:
    with open(path, "w") as f:
        f.write(f"normal_force {model.slope:.17g} {model.intercept:.17g}\n")


def load_normal_force(path) -> NormalForceModel:
    with open(path) as f:
        tokens = f.read().split()
    if len(tokens) != 3 or tokens[0] != "normal_force":
        raise ValueError("not a normal-force model file")
    return NormalForceModel(float(tokens[1]), float(tokens[2]))


def save_shear(model: ShearModel, path) -> None:
    with open(path, "w") as f:
        f.write("shear\n")
        f.write(" ".join(f"{v:.17g}" for v in model.w_x) + f" {model.b_x:.17g}\n")
        f.write(" ".join(f"{v:.17g}" for v in model.w_y) + f" {model.b_y:.17g}\n")


def load_shear(path) -> ShearModel:
    with open(path) as f:
        tokens = f.read().split()
    if len(tokens) != 23 or tokens[0] != "shear":
        raise ValueError("not a shear model file")
    vals = np.array([float(t) for t in tokens[1:]])
    return ShearModel(vals[:10], vals[11:21], float(vals[10]), float(vals[21]))
