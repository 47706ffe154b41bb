"""Independent reference implementations used to check the package.

Everything here is deliberately naive: dense matrices, per-pixel loops,
finite differences, direct least squares. Slow but transparent, so test
failures always indicate a defect in the package, not in the oracle.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve


# ---------------------------------------------------------------------------
# interpolation and warping
# ---------------------------------------------------------------------------

def idw_reference(px, py, vals, node_x, node_y, k=4, power=2.0):
    """Per-node loop version of k-nearest inverse-distance interpolation."""
    px = np.asarray(px, float)
    py = np.asarray(py, float)
    vals = np.asarray(vals, float)
    out = np.empty((len(node_y), len(node_x), vals.shape[1]))
    for i, ny in enumerate(node_y):
        for j, nx in enumerate(node_x):
            d2 = (px - nx) ** 2 + (py - ny) ** 2
            order = sorted(range(len(px)), key=lambda t: (d2[t], t))[:k]
            if d2[order[0]] < 1e-24:
                out[i, j] = vals[order[0]]
                continue
            w = d2[order] ** (-power / 2.0)
            out[i, j] = (w[:, None] * vals[order]).sum(axis=0) / w.sum()
    return out


def warp_reference(img, hmat, out_h, out_w):
    """Per-pixel homography warp with bilinear blending and edge clamping."""
    h, w, c = img.shape
    out = np.empty((out_h, out_w, c))
    for i in range(out_h):
        for j in range(out_w):
            x, y, z = hmat @ np.array([j, i, 1.0])
            u, v = x / z, y / z
            if abs(u - round(u)) < 1e-9:
                u = round(u)
            if abs(v - round(v)) < 1e-9:
                v = round(v)
            u = min(max(u, 0.0), w - 1.0)
            v = min(max(v, 0.0), h - 1.0)
            j0, i0 = int(np.floor(u)), int(np.floor(v))
            j1, i1 = min(j0 + 1, w - 1), min(i0 + 1, h - 1)
            fu, fv = u - j0, v - i0
            out[i, j] = ((1 - fv) * ((1 - fu) * img[i0, j0] + fu * img[i0, j1])
                         + fv * ((1 - fu) * img[i1, j0] + fu * img[i1, j1]))
    return out


# ---------------------------------------------------------------------------
# discrete vector calculus on (H, W) grids, matching the package ordering
# ---------------------------------------------------------------------------

def grad_matrices(h, w):
    """Central-difference d/dx and d/dy with zero extension, as dense matrices.

    Fields are flattened row-major; x is the column direction.
    """
    n = h * w
    gx = np.zeros((n, n))
    gy = np.zeros((n, n))
    for i in range(h):
        for j in range(w):
            r = i * w + j
            if j + 1 < w:
                gx[r, i * w + j + 1] += 0.5
            if j - 1 >= 0:
                gx[r, i * w + j - 1] -= 0.5
            if i + 1 < h:
                gy[r, (i + 1) * w + j] += 0.5
            if i - 1 >= 0:
                gy[r, (i - 1) * w + j] -= 0.5
    return gx, gy


def interior_embedding(h, w):
    """(h*w, (h-2)*(w-2)) extension-by-zero of interior nodes."""
    cols = []
    for i in range(1, h - 1):
        for j in range(1, w - 1):
            e = np.zeros(h * w)
            e[i * w + j] = 1.0
            cols.append(e)
    return np.array(cols).T


def hhd_projection_reference(fields):
    """Least-squares Helmholtz splitting of stacked (K, H, W, 2) fields.

    Potentials live on interior nodes (zero Dirichlet ring). The curl-free
    part is the least-squares projection onto {grad(phi)}, the
    divergence-free part onto {rot(psi)}; both projections are computed by
    one dense solve over all K right-hand sides at once.
    """
    fields = np.asarray(fields, float)
    if fields.ndim == 3:
        fields = fields[None]
    k, h, w, _ = fields.shape
    gx, gy = grad_matrices(h, w)
    e = interior_embedding(h, w)
    bx, by = gx @ e, gy @ e                       # gradient basis
    v = fields.reshape(k, h * w, 2)
    vx, vy = v[:, :, 0].T, v[:, :, 1].T           # (hw, K)
    basis_g = np.vstack([bx, by])                 # (2hw, m)
    basis_r = np.vstack([by, -bx])                # rot(psi) = (dpsi/dy, -dpsi/dx)
    stacked = np.vstack([vx, vy])                 # (2hw, K)
    cg, *_ = np.linalg.lstsq(basis_g, stacked, rcond=None)
    cr, *_ = np.linalg.lstsq(basis_r, stacked, rcond=None)
    pg = basis_g @ cg
    pr = basis_r @ cr
    p = np.stack([pg[:h * w].T, pg[h * w:].T], axis=-1).reshape(k, h, w, 2)
    s = np.stack([pr[:h * w].T, pr[h * w:].T], axis=-1).reshape(k, h, w, 2)
    return p, s, fields - p - s


def curl_central(field):
    """Central-difference curl_z with zero extension, matching grad_matrices."""
    f = np.asarray(field, float)
    h, w, _ = f.shape
    gx, gy = grad_matrices(h, w)
    return (gx @ f[:, :, 1].ravel() - gy @ f[:, :, 0].ravel()).reshape(h, w)


def div_central(field):
    f = np.asarray(field, float)
    h, w, _ = f.shape
    gx, gy = grad_matrices(h, w)
    return (gx @ f[:, :, 0].ravel() + gy @ f[:, :, 1].ravel()).reshape(h, w)


def poisson_reference(normals, px_per_mm):
    """Heightmap (H, W) from unit normals by a sparse direct Poisson solve.

    The slope field (-nx/nz, -ny/nz)/px_per_mm gives div g by central
    differences at each interior pixel. The 5-point Laplacian over interior
    pixels is assembled stencil by stencil, with zero height on the frame
    edge, solved by ``spsolve`` and gauged to min 0.
    """
    n = np.asarray(normals, float)
    h, w, _ = n.shape
    gx = -n[:, :, 0] / n[:, :, 2] / px_per_mm
    gy = -n[:, :, 1] / n[:, :, 2] / px_per_mm
    hi, wi = h - 2, w - 2
    rows, cols, vals = [], [], []
    rhs = np.zeros(hi * wi)
    for i in range(1, h - 1):
        for j in range(1, w - 1):
            r = (i - 1) * wi + (j - 1)
            rhs[r] = (gx[i, j + 1] - gx[i, j - 1] + gy[i + 1, j] - gy[i - 1, j]) / 2.0
            rows.append(r); cols.append(r); vals.append(-4.0)
            for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 1 <= a <= h - 2 and 1 <= b <= w - 2:
                    rows.append(r); cols.append((a - 1) * wi + (b - 1)); vals.append(1.0)
    lap = sparse.csc_matrix((vals, (rows, cols)), shape=(hi * wi, hi * wi))
    full = np.zeros((h, w))
    full[1:-1, 1:-1] = np.reshape(spsolve(lap, rhs), (hi, wi))
    return full - full.min()


# ---------------------------------------------------------------------------
# analytic sphere cap
# ---------------------------------------------------------------------------

def cap_height(dx_mm, dy_mm, radius_mm, depth_mm):
    """Height of a spherical cap pressed depth_mm into a flat plane."""
    rho2 = dx_mm ** 2 + dy_mm ** 2
    sag = radius_mm - np.sqrt(np.maximum(radius_mm ** 2 - rho2, 0.0))
    return np.where(rho2 <= radius_mm ** 2,
                    np.maximum(depth_mm - sag, 0.0), 0.0)


def cap_normals_fd(xs_mm, ys_mm, radius_mm, depth_mm, eps=1e-6):
    """Unit surface normals of the cap by central finite differences."""
    xm, ym = np.meshgrid(xs_mm, ys_mm)
    hx = (cap_height(xm + eps, ym, radius_mm, depth_mm)
          - cap_height(xm - eps, ym, radius_mm, depth_mm)) / (2 * eps)
    hy = (cap_height(xm, ym + eps, radius_mm, depth_mm)
          - cap_height(xm, ym - eps, radius_mm, depth_mm)) / (2 * eps)
    n = np.dstack([-hx, -hy, np.ones_like(hx)])
    return n / np.linalg.norm(n, axis=2, keepdims=True)


# ---------------------------------------------------------------------------
# scalar-valued function gradients by central differences
# ---------------------------------------------------------------------------

def fd_gradient(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at flat vector x."""
    x = np.asarray(x, float)
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy(); xp[i] += eps
        xm = x.copy(); xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
    return g


def fd_gradient_at(f, x, indices, eps=1e-6):
    """Central differences only at the given flat indices (for big models)."""
    x = np.asarray(x, float)
    out = {}
    for i in indices:
        xp = x.copy(); xp[i] += eps
        xm = x.copy(); xm[i] -= eps
        out[i] = (f(xp) - f(xm)) / (2 * eps)
    return out


# ---------------------------------------------------------------------------
# least squares
# ---------------------------------------------------------------------------

def ols_reference(features, targets):
    """Dense normal-equation-free least squares via numpy lstsq."""
    a = np.asarray(features, float)
    b = np.asarray(targets, float)
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    return coef


def quadrature_abs_integral(field_2d, spacing=1.0):
    """Rectangle-rule integral of |f| over the grid."""
    return float(np.abs(field_2d).sum() * spacing * spacing)
