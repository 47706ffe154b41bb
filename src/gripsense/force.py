"""3-D force estimation.

Normal force is a linear map from motor current. Shear force comes from the
marker displacement field: dense interpolation, Helmholtz decomposition into
a curl-free part P, a divergence-free part S, and a harmonic remainder H,
then a 10-entry polynomial feature of the in-contact means feeding per-axis
least squares. The marker displacements reach the grid by inverse-distance
weighting (Shepard 1968). The rest markers and the grid nodes do not move,
so each node's four nearest rest markers and their weights, the neighbour
table of ``_idw_table``, are fixed: ``interpolate_markers`` keeps it on the
rest ``MarkerSet``, one per grid, and a tick is one gather of the
displacements (``_idw_gather``).

The decomposition computes P as the least-squares projection of the field
onto discrete gradients and S as the projection onto discrete rotations,
with both potentials pinned to zero on the one-node boundary ring. Central
differences with zero extension make the two subspaces exactly orthogonal
and make constants exactly harmonic, so the decomposition reproduces every
closed-form case to machine precision. They also link only nodes two apart,
so the potentials' normal equations split into four Dirichlet Poisson
problems, one per parity sub-grid, which ``core._poisson_solve`` solves in
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DisplacementField, MarkerSet, _Adopt, _freeze, _Frozen,
                   _poisson_solve)
from .slip import ContactMask


# ---------------------------------------------------------------------------
# normal force
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalForceModel:
    """F = slope * current + intercept."""

    slope: float
    intercept: float

    def __post_init__(self):
        if not (np.isfinite(self.slope) and np.isfinite(self.intercept)):
            raise ValueError("coefficients must be finite")


def fit_normal_force(samples) -> NormalForceModel:
    """Ordinary least squares of force on current.

    ``samples`` is a sequence of (current, force) pairs. All-identical
    currents leave the slope unidentifiable and raise.
    """
    if not isinstance(samples, np.ndarray):
        samples = list(samples)
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be (current, force) pairs")
    if arr.shape[0] < 2 or np.ptp(arr[:, 0]) == 0.0:
        raise ValueError("rank deficient: need at least 2 distinct currents")
    design = np.column_stack([arr[:, 0], np.ones(arr.shape[0])])
    coef, *_ = np.linalg.lstsq(design, arr[:, 1], rcond=None)
    return NormalForceModel(float(coef[0]), float(coef[1]))


def predict_normal_force(current, model: NormalForceModel):
    """slope * I + intercept: a float for a Python int or float, with the
    same IEEE operations as the array path, elementwise over array input.
    A non-finite current raises ``ValueError`` naming it: a NaN force would
    pass for a reading."""
    if isinstance(current, (int, float)):
        if not math.isfinite(current):
            raise ValueError(f"motor current must be finite, got {current}")
        return float(model.slope * current + model.intercept)
    current = np.asarray(current, dtype=np.float64)
    bad = ~np.isfinite(current)
    if bad.any():
        raise ValueError(f"motor current must be finite, got {current[bad][0]}")
    out = model.slope * current + model.intercept
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# marker-field interpolation
# ---------------------------------------------------------------------------

#: Marker-field interpolation grid (rows, columns) of the shear features.
FIELD_GRID = (24, 24)

# Squared-distance threshold under which an IDW query point is considered
# coincident with a data point and copies its value exactly.
_COINCIDENT_SQ = 1e-24


def _idw_table(xy: np.ndarray, node_x: np.ndarray, node_y: np.ndarray) -> tuple:
    """(order, weights, exact) for each node of the grid with columns at
    ``node_x`` and rows at ``node_y``, row-major: the indices of its k = 4
    nearest samples at ``xy`` (N, 2), or all N when fewer, distance ties
    going to the lowest index, their normalised 1/d^2 weights, and whether
    it coincides with the nearest."""
    k = min(4, xy.shape[0])
    gx, gy = np.meshgrid(node_x, node_y)
    d2 = ((gx.ravel()[:, None] - xy[None, :, 0]) ** 2
          + (gy.ravel()[:, None] - xy[None, :, 1]) ** 2)
    # k passes of argmin, which returns the first minimum, so exact distance
    # ties go to the lowest sample index, as a stable sort would order them
    rows = np.arange(d2.shape[0])
    order = np.empty((d2.shape[0], k), dtype=np.intp)
    dk = np.empty((d2.shape[0], k))
    for j in range(k):
        order[:, j] = np.argmin(d2, axis=1)
        dk[:, j] = d2[rows, order[:, j]]
        d2[rows, order[:, j]] = np.inf
    exact = dk[:, 0] < _COINCIDENT_SQ
    wgt = 1.0 / np.maximum(dk, _COINCIDENT_SQ)
    wgt /= wgt.sum(axis=1, keepdims=True)
    return order, wgt, exact


def _idw_gather(table: tuple, vals: np.ndarray) -> np.ndarray:
    """The (nodes, C) blend of the sample values ``vals`` (N, C) that an
    ``_idw_table`` prescribes; a coinciding node copies its sample."""
    order, wgt, exact = table
    out = np.einsum("nk,nkc->nc", wgt, vals[order])
    if np.any(exact):
        out[exact] = vals[order[exact, 0]]
    return out


def interpolate_markers(before: MarkerSet, after: MarkerSet,
                        grid: tuple[int, int]) -> DisplacementField:
    """Scatter per-marker displacements to a regular grid by IDW (k=4, p=2).

    Matching is by marker id; at least 3 shared markers are required. The
    grid spans the frame bounds when ``before`` has them, otherwise the
    bounding box of the matched rest positions.

    The rest positions and the grid fix each node's neighbours and weights
    (``_idw_table``); only the displacements change from call to call. When
    ``after`` holds ``before``'s ids in the same order, the table is kept on
    ``before``, one per grid, so later calls with that rest set are one
    gather; ``before``'s arrays are read-only, so it cannot go stale. Any
    other id set builds a table for the shared markers, in ``after``'s
    order, and does not keep it.
    """
    gh, gw = int(grid[0]), int(grid[1])
    if gh < 2 or gw < 2:
        raise ValueError("grid must be at least 2x2")
    keep = np.array_equal(before.ids, after.ids)
    if keep:
        rest, disp = before.xy, after.xy - before.xy
    else:
        asel = np.flatnonzero(np.isin(after.ids, before.ids))
        by_id = np.argsort(before.ids)
        rest = before.xy[by_id[np.searchsorted(before.ids, after.ids[asel],
                                               sorter=by_id)]]
        disp = after.xy[asel] - rest
    if len(rest) < 3:
        raise ValueError("need at least 3 matched markers")
    tables = before._idw_tables if keep else {}
    if (gh, gw) not in tables:
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
        tables[gh, gw] = _freeze(_idw_table(rest, node_x, node_y))
    return DisplacementField(
        _Adopt(_idw_gather(tables[gh, gw], disp).reshape(gh, gw, 2)))


# ---------------------------------------------------------------------------
# Helmholtz decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HHDResult:
    """Curl-free P, divergence-free S and harmonic H."""

    P: DisplacementField
    S: DisplacementField
    H: DisplacementField


def _central_diff(f: np.ndarray, axis: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """d/dx (axis -1) or d/dy (axis -2) of (..., H, W) arrays, zero-extended,
    written into ``out`` when given."""
    lead = (slice(None),) * (axis % f.ndim)
    out = np.empty_like(f) if out is None else out
    out[lead + (slice(None, -1),)] = f[lead + (slice(1, None),)]
    out[lead + (-1,)] = 0.0
    out[lead + (slice(1, None),)] -= f[lead + (slice(None, -1),)]
    out *= 0.5
    return out


def hhd_decompose(v: DisplacementField) -> HHDResult:
    """Split a displacement field into curl-free + divergence-free + harmonic.

    P is the gradient of a potential phi, S the rotated gradient of a
    potential psi, both zero on the frame edge (the gel is pinned there) and
    neither returned; the projections are exact least squares, so P + S + H
    always reconstructs the input and the remainder H is orthogonal to both
    model subspaces.

    Central differences link only nodes two apart, so on each parity
    sub-grid of the interior, rows and columns each of one parity, the
    normal equations' operator is exactly 1/4 of the 5-point Dirichlet
    Laplacian, and the parities do not couple. Both potentials are
    ``core._poisson_solve`` of 4 rhs on each sub-grid; the sub-grids of one
    shape, all four on an even interior, go to the solver as one stack,
    gathered from the rhs and scattered into the potentials by one index
    each. The rhs, -4 div v and 4 curl v, is differenced on the interior
    alone, and the fields keep the arrays built here (``core._Adopt``).
    """
    vals = v.values
    h, w = vals.shape[:2]
    if h < 8 or w < 8:
        raise ValueError("field must be at least 8x8")
    # The interior's rhs in a (2, 2m, 2n) array, whose parity sub-grids are
    # one reshape away: (oy, ox, potential, row, column). The extra row and
    # column an odd interior leaves are never read.
    m, n = (h - 1) // 2, (w - 1) // 2
    rhs = np.empty((2, 2 * m, 2 * n))
    rhs_phi, rhs_psi = rhs[:, :h - 2, :w - 2]
    ddx = vals[1:-1, 2:] - vals[1:-1, :-2]      # both components, interior
    ddx *= 0.5
    ddy = vals[2:, 1:-1] - vals[:-2, 1:-1]
    ddy *= 0.5
    np.add(ddx[:, :, 0], ddy[:, :, 1], out=rhs_phi)
    rhs_phi *= -4.0
    np.subtract(ddx[:, :, 1], ddy[:, :, 0], out=rhs_psi)
    rhs_psi *= 4.0
    pots = np.zeros((2, h, w))
    split = (2, m, 2, n, 2)
    sub_rhs = rhs.reshape(split).transpose(2, 4, 0, 1, 3)
    sub_pots = pots[:, 1:2 * m + 1, 1:2 * n + 1].reshape(split).transpose(
        2, 4, 0, 1, 3)
    grids = {}                  # the parities (oy, ox) of each sub-grid shape
    for oy in (0, 1):
        for ox in (0, 1):
            grids.setdefault(((h - 1 - oy) // 2, (w - 1 - ox) // 2),
                             []).append((oy, ox))
    for (sh, sw), parities in grids.items():
        oy, ox = zip(*parities)
        b = sub_rhs[oy, ox, :, :sh, :sw].reshape(-1, sh, sw)
        _poisson_solve(b, b, np.empty_like(b))
        sub_pots[oy, ox, :, :sh, :sw] = b.reshape(len(oy), 2, sh, sw)
    if not np.all(np.isfinite(pots)):
        raise ValueError("potential solve failed: non-finite solution")
    grad = np.empty((2, h, w, 2))               # d/dx, d/dy of phi and psi
    _central_diff(pots, -1, grad[..., 0])
    _central_diff(pots, -2, grad[..., 1])
    p, s = grad[0], grad[1, :, :, ::-1] * [1.0, -1.0]
    mk = lambda f: DisplacementField(_Adopt(f))
    return HHDResult(mk(p), mk(s), mk(vals - p - s))


def curl(field: DisplacementField) -> np.ndarray:
    """Discrete curl_z (central differences, zero extension), for diagnostics."""
    f = field.values
    return _central_diff(f[:, :, 1], -1) - _central_diff(f[:, :, 0], -2)


def divergence(field: DisplacementField) -> np.ndarray:
    f = field.values
    return _central_diff(f[:, :, 0], -1) + _central_diff(f[:, :, 1], -2)


# ---------------------------------------------------------------------------
# shear features and regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ShearFeature(_Frozen):
    """10-vector of in-contact means: v, then P and S with squared terms.

    ``contact=False`` marks a frame with no contact on the field grid; its
    values are all zero and it predicts zero shear.
    """

    values: np.ndarray          # (10,)
    contact: bool = True

    def __post_init__(self):
        self._keep("values", np.ravel(self.values), shape=(10,), finite=True)


def shear_features(v: DisplacementField, hhd: HHDResult,
                   mask: ContactMask) -> ShearFeature:
    """[vx, vy, px, px^2, py, py^2, sx, sx^2, sy, sy^2] averaged over contact.

    The mask is read on the field grid by its nearest-neighbour map,
    ``on_grid``; squared entries are squares of the means, not means of
    squares. A mask that is empty on the field grid gives the all-zero
    no-contact feature.
    """
    inside, (r0, r1, c0, c1), _ = mask.on_grid(v.values.shape[:2])
    if not inside.any():
        return ShearFeature(np.zeros(10), contact=False)

    def mean2(f):
        return f.values[r0:r1, c0:c1][inside].mean(axis=0)

    vb = mean2(v)
    pb = mean2(hhd.P)
    sb = mean2(hhd.S)
    return ShearFeature(np.array([
        vb[0], vb[1],
        pb[0], pb[0] ** 2, pb[1], pb[1] ** 2,
        sb[0], sb[0] ** 2, sb[1], sb[1] ** 2,
    ]))


@dataclass(frozen=True, eq=False)
class ShearModel(_Frozen):
    """Per-axis linear readout: F_axis = w_axis . x + b_axis."""

    w_x: np.ndarray             # (10,)
    w_y: np.ndarray             # (10,)
    b_x: float
    b_y: float

    def __post_init__(self):
        for name in ("w_x", "w_y"):
            self._keep(name, np.ravel(getattr(self, name)), shape=(10,),
                       finite=True)
        if not (np.isfinite(self.b_x) and np.isfinite(self.b_y)):
            raise ValueError("biases must be finite")


def fit_shear_model(features, labels) -> ShearModel:
    """Per-axis ordinary least squares with a shared bias column over
    ``ShearFeature``s. No-contact features carry no shear signal and are
    refused.
    """
    features = list(features)
    if not all(isinstance(f, ShearFeature) for f in features):
        raise ValueError("features must be ShearFeatures")
    if not all(f.contact for f in features):
        raise ValueError("cannot fit shear on a no-contact feature")
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (len(features), 2):
        raise ValueError("labels must be (N, 2) shear forces")
    if len(features) < 11:
        raise ValueError("need at least 11 samples (10 features + bias)")
    design = np.column_stack([[f.values for f in features],
                              np.ones(len(features))])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise ValueError("rank deficient shear design matrix")
    return ShearModel(coef[:10, 0], coef[:10, 1], float(coef[10, 0]),
                      float(coef[10, 1]))


def predict_shear(feature: ShearFeature, model: ShearModel) -> tuple[float, float]:
    """(F_x, F_y) from a ``ShearFeature``; exactly (0.0, 0.0) for a
    no-contact one."""
    if not isinstance(feature, ShearFeature):
        raise ValueError("feature must be a ShearFeature")
    if not feature.contact:
        return (0.0, 0.0)
    x = feature.values
    return (float(x @ model.w_x + model.b_x), float(x @ model.w_y + model.b_y))


def build_shear_features(pairs) -> list[ShearFeature]:
    """Marker pairs to regression features: interpolate, decompose, average.

    ``pairs`` is a sequence of (rest markers, moved markers, contact mask)
    triples as produced by the shear dataset generator. Each triple runs the
    full field pipeline on ``FIELD_GRID``.
    """
    out = []
    for rest, moved, mask in pairs:
        field = interpolate_markers(rest, moved, FIELD_GRID)
        out.append(shear_features(field, hhd_decompose(field), mask))
    return out

