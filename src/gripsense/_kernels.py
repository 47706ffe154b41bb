"""Hot per-pixel kernels: homography warping and scattered-data interpolation.

Both kernels exist twice: a pure-numpy implementation (always available) and a
numba-compiled version. The accelerated aliases ``warp_bilinear`` and
``idw_interpolate`` resolve at import time; setting the environment variable
``GRIPSENSE_DISABLE_NUMBA=1`` before import forces the numpy path. The two
paths are kept arithmetically identical (same summation order, same tie
breaks) so results agree to machine precision; ``benchmarks/bench_kernels.py``
compares their throughput.
"""

from __future__ import annotations

import os

import numpy as np

_flag = os.environ.get("GRIPSENSE_DISABLE_NUMBA", "").strip().lower()
_DISABLED = _flag not in ("", "0", "false")

try:
    if _DISABLED:
        raise ImportError("numba disabled by GRIPSENSE_DISABLE_NUMBA")
    from numba import njit

    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False

# Sample coordinates this close to an integer are snapped onto it, so that
# identity / pure-integer-scaling homographies reproduce source pixels exactly
# instead of mixing in ~1e-12 of a neighbour.
_SNAP = 1e-9

# Squared-distance threshold under which an IDW query point is considered
# coincident with a data point and copies its value exactly.
_COINCIDENT_SQ = 1e-24


def warp_bilinear_numpy(img: np.ndarray, hmat: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
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


def idw_interpolate_numpy(px: np.ndarray, py: np.ndarray, vals: np.ndarray,
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


if HAS_NUMBA:

    @njit(cache=True)
    def _warp_bilinear_nb(img, hmat, out_h, out_w):  # pragma: no cover - numba
        h, w, c = img.shape
        out = np.empty((out_h, out_w, c))
        for i in range(out_h):
            for j in range(out_w):
                denom = hmat[2, 0] * j + hmat[2, 1] * i + hmat[2, 2]
                u = (hmat[0, 0] * j + hmat[0, 1] * i + hmat[0, 2]) / denom
                v = (hmat[1, 0] * j + hmat[1, 1] * i + hmat[1, 2]) / denom
                ur = np.rint(u)
                if abs(u - ur) < _SNAP:
                    u = ur
                vr = np.rint(v)
                if abs(v - vr) < _SNAP:
                    v = vr
                if u < 0.0:
                    u = 0.0
                elif u > w - 1.0:
                    u = w - 1.0
                if v < 0.0:
                    v = 0.0
                elif v > h - 1.0:
                    v = h - 1.0
                u0 = int(np.floor(u))
                if u0 > w - 2:
                    u0 = max(w - 2, 0)
                v0 = int(np.floor(v))
                if v0 > h - 2:
                    v0 = max(h - 2, 0)
                fu = u - u0
                fv = v - v0
                u1 = min(u0 + 1, w - 1)
                v1 = min(v0 + 1, h - 1)
                for ch in range(c):
                    out[i, j, ch] = ((1.0 - fv) * ((1.0 - fu) * img[v0, u0, ch]
                                                  + fu * img[v0, u1, ch])
                                     + fv * ((1.0 - fu) * img[v1, u0, ch]
                                             + fu * img[v1, u1, ch]))
        return out

    @njit(cache=True)
    def _idw_interpolate_nb(px, py, vals, node_x, node_y, k, power):  # pragma: no cover
        n = px.shape[0]
        if k > n:
            k = n
        gh = node_y.shape[0]
        gw = node_x.shape[0]
        c = vals.shape[1]
        out = np.empty((gh, gw, c))
        bd = np.empty(k)
        bi = np.empty(k, dtype=np.int64)
        for gi in range(gh):
            y = node_y[gi]
            for gj in range(gw):
                x = node_x[gj]
                cnt = 0
                for p in range(n):
                    d2 = (x - px[p]) ** 2 + (y - py[p]) ** 2
                    if cnt < k:
                        pos = cnt
                        while pos > 0 and bd[pos - 1] > d2:
                            bd[pos] = bd[pos - 1]
                            bi[pos] = bi[pos - 1]
                            pos -= 1
                        bd[pos] = d2
                        bi[pos] = p
                        cnt += 1
                    elif d2 < bd[k - 1]:
                        pos = k - 1
                        while pos > 0 and bd[pos - 1] > d2:
                            bd[pos] = bd[pos - 1]
                            bi[pos] = bi[pos - 1]
                            pos -= 1
                        bd[pos] = d2
                        bi[pos] = p
                if bd[0] < _COINCIDENT_SQ:
                    for ch in range(c):
                        out[gi, gj, ch] = vals[bi[0], ch]
                    continue
                wsum = 0.0
                for q in range(k):
                    wsum += 1.0 / bd[q] ** (power / 2.0)
                for ch in range(c):
                    acc = 0.0
                    for q in range(k):
                        acc += (1.0 / bd[q] ** (power / 2.0)) * vals[bi[q], ch]
                    out[gi, gj, ch] = acc / wsum
        return out

    def warp_bilinear(img, hmat, out_h, out_w):
        return _warp_bilinear_nb(np.ascontiguousarray(img, dtype=np.float64),
                                 np.ascontiguousarray(hmat, dtype=np.float64),
                                 int(out_h), int(out_w))

    def idw_interpolate(px, py, vals, node_x, node_y, k=4, power=2.0):
        return _idw_interpolate_nb(np.ascontiguousarray(px, dtype=np.float64),
                                   np.ascontiguousarray(py, dtype=np.float64),
                                   np.ascontiguousarray(vals, dtype=np.float64),
                                   np.ascontiguousarray(node_x, dtype=np.float64),
                                   np.ascontiguousarray(node_y, dtype=np.float64),
                                   int(k), float(power))

else:
    warp_bilinear = warp_bilinear_numpy
    idw_interpolate = idw_interpolate_numpy

USING_NUMBA = HAS_NUMBA
