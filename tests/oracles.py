"""Independent reference implementations used to check the package.

Everything here is deliberately naive: dense matrices, per-pixel loops,
finite differences, direct least squares. Slow but transparent, so test
failures always indicate a defect in the package, not in the oracle.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve


# ---------------------------------------------------------------------------
# interpolation
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


def frames_of(diff_values, px_per_mm=10.0):
    """A difference in [-1, 1] as the ``DiffFrame`` of two camera frames:
    its positive part, and its zeros with their sign, in the contact frame
    and its negative part in the background, so the frames subtract back to
    it bit for bit."""
    from gripsense.core import DiffFrame, TactileFrame

    v = np.asarray(diff_values, np.float64)
    keep = v >= 0.0
    return DiffFrame(TactileFrame(np.where(keep, v, 0.0), px_per_mm),
                     TactileFrame(np.where(keep, 0.0, -v), px_per_mm))


def contact_window_reference(diff_values, tau=0.06, count=8, margin=8):
    """The contact window (r0, r1, c0, c1) by its definition, line by line.

    A pixel is hot when its largest float32 channel |diff| exceeds tau; the
    window spans the rows and the columns holding at least ``count`` hot
    pixels, widened by ``margin`` and clipped to the frame, and is
    (0, 0, 0, 0) when no row or no column holds that many.
    """
    v = np.asarray(diff_values, np.float32)
    h, w, _ = v.shape
    hot = [[max(abs(float(c)) for c in v[i, j]) > np.float32(tau)
            for j in range(w)] for i in range(h)]
    rows = [i for i in range(h) if sum(hot[i]) >= count]
    cols = [j for j in range(w) if sum(hot[i][j] for i in range(h)) >= count]
    if not rows or not cols:
        return 0, 0, 0, 0
    return (max(rows[0] - margin, 0), min(rows[-1] + 1 + margin, h),
            max(cols[0] - margin, 0), min(cols[-1] + 1 + margin, w))


def on_grid_reference(windowed, shape):
    """``core._Windowed.on_grid`` by its first formula: both index maps
    built whole, bounded by a searchsorted over a tuple and read through
    ``np.ix_``."""
    (oh, ow), (h, w) = shape, windowed.frame_shape
    r0, r1, c0, c1 = windowed.support
    ri = np.minimum((np.arange(oh) + 0.5) * h / oh, h - 1).astype(int)
    ci = np.minimum((np.arange(ow) + 0.5) * w / ow, w - 1).astype(int)
    i0, i1 = np.searchsorted(ri, (r0, r1))
    j0, j1 = np.searchsorted(ci, (c0, c1))
    return (windowed.values[np.ix_(ri[i0:i1] - r0, ci[j0:j1] - c0)],
            (i0, i1, j0, j1), (oh, ow))


def windowed_poisson_reference(normals, support, px_per_mm):
    """Heights solved only inside ``support`` = (r0, r1, c0, c1): the sparse
    ``poisson_reference`` of the window's normals, zero outside, and the
    whole frame gauged to min 0; all zero when the window has no interior."""
    n = np.asarray(normals, float)
    r0, r1, c0, c1 = support
    full = np.zeros(n.shape[:2])
    if r1 - r0 >= 3 and c1 - c0 >= 3:
        inner = poisson_reference(n[r0:r1, c0:c1], px_per_mm)
        full[r0:r1, c0:c1] = inner - inner[0, 0]     # zero on the window's edge
    return full - full.min()


# How far ``predict_normals`` may move from ``full_frame_normals_reference``
# inside the contact window: per normal component, the float32 kernel's
# stated agreement with the float64 forward pass (its results per row depend
# on which rows it bands together), and in mm, the heights solved from them.
# The height bound scales with the largest height where that exceeds 1 mm:
# with most normals on the clamp, nz near 4e-5 turns a 6e-10 change of a
# normal into heights of 2000 mm that move by 2e-7 mm.
ORACLE_NORMAL_TOL = 1e-6
ORACLE_HEIGHT_TOL_MM = 1e-8


def height_tolerance_mm(heights):
    """``ORACLE_HEIGHT_TOL_MM`` for heights up to 1 mm, relative above."""
    return ORACLE_HEIGHT_TOL_MM * max(1.0, float(np.max(np.abs(heights))))


def full_frame_normals_reference(diff_values, model):
    """(H, W, 3) normals of ``geometry.predict_normals`` as if its contact
    window were the whole frame: the float32 MLP on every pixel, then nz."""
    from gripsense import geometry

    n2 = geometry._mlp(model, geometry._pixel_features(diff_values))
    nz = np.sqrt(np.maximum(1.0 - (n2[:, 0] * n2[:, 0] + n2[:, 1] * n2[:, 1]),
                            0.0))
    return np.column_stack([n2, nz]).reshape(diff_values.shape)


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


# ---------------------------------------------------------------------------
# training losses and gradients as first written: fresh temporaries per
# epoch and einsum contractions, the references for the package's
# allocation-free and BLAS-product training kernels, and the textbook
# L-BFGS that fits with them
# ---------------------------------------------------------------------------

def rgb2normal_loss_and_grads(params, x, t):
    """Mean squared (nx, ny) error of the RGB-to-normal MLP and its gradients."""
    from gripsense import geometry
    w1, b1, w2, b2, w3, b3 = params
    n, (x, z1, z2, u, g, q) = geometry._forward(params, x)
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


def lbfgs_reference(fun, params, epochs, first_step, memory=10):
    """Textbook L-BFGS (Nocedal & Wright, Algorithm 7.4 with Armijo
    backtracking) over a list of arrays and scalars; returns (params, loss
    history).

    ``fun(params)`` gives (loss, grads). Every quantity is a fresh flat
    vector. The first direction, and the first after a line search that
    fails, is -g at length ``first_step``; every other one starts from a
    unit step. Pairs with s.y <= 0 are dropped; the run stops at a relative
    loss reduction of 2.2e-9, max |g| of 1e-5, or ``epochs`` iterations.
    """
    shapes = [np.shape(p) for p in params]
    bounds = np.cumsum([0] + [int(np.prod(s)) for s in shapes])

    def unpack(v):
        return [v[lo:hi].reshape(s) if s else float(v[lo])
                for s, lo, hi in zip(shapes, bounds[:-1], bounds[1:])]

    def f(v):
        loss, grads = fun(unpack(v))
        return loss, np.concatenate([np.ravel(gr) for gr in grads])

    x = np.concatenate([np.ravel(p) for p in params])
    fx, g = f(x)
    history = [fx]
    ss, ys = [], []
    while len(history) <= epochs and np.abs(g).max() > 1e-5:
        if ss:
            q = g.copy()
            alpha = [0.0] * len(ss)
            for i in range(len(ss) - 1, -1, -1):
                alpha[i] = (ss[i] @ q) / (ys[i] @ ss[i])
                q = q - alpha[i] * ys[i]
            r = q * (ss[-1] @ ys[-1]) / (ys[-1] @ ys[-1])
            for i in range(len(ss)):
                beta = (ys[i] @ r) / (ys[i] @ ss[i])
                r = r + ss[i] * (alpha[i] - beta)
            p = -r
        if not ss or g @ p >= 0:
            ss, ys = [], []
            p = -first_step * g / np.sqrt(g @ g)
        t = 1.0
        for _ in range(20):
            f_new, g_new = f(x + t * p)
            if np.isfinite(f_new) and f_new <= fx + 1e-4 * t * (g @ p):
                break
            t = t / 2
        else:
            if not ss:
                break
            ss, ys = [], []
            continue
        x_new = x + t * p
        s, y = x_new - x, g_new - g
        if s @ y > 0:
            ss, ys = (ss + [s])[-memory:], (ys + [y])[-memory:]
        stalled = fx - f_new <= 2.2e-9 * max(abs(fx), abs(f_new), 1.0)
        x, fx, g = x_new, f_new, g_new
        history.append(fx)
        if stalled:
            break
    return unpack(x), history


def rgb2normal_init(seed=0):
    """The package's Glorot initialisation of the RGB-to-normal MLP."""
    rng = np.random.default_rng(seed)
    params = []
    for fan_out, fan_in in ((32, 5), (32, 32), (2, 32)):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params.append(rng.uniform(-limit, limit, (fan_out, fan_in)))
        params.append(np.zeros(fan_out))
    return params


def fit_rgb2normal_reference(data, epochs, learning_rate, seed=0):
    """``lbfgs_reference`` over ``rgb2normal_loss_and_grads`` from
    ``rgb2normal_init``; returns (params, loss history)."""
    x, t = data.features, data.normals[:, :2]
    return lbfgs_reference(lambda p: rgb2normal_loss_and_grads(p, x, t),
                           rgb2normal_init(seed), epochs, learning_rate)


def ranker_loss_and_grads(params, patches, forces, idx_a, idx_b, labels):
    """Pairwise cross entropy of the softness ranker and its gradients."""
    from gripsense import softness
    w_query, w_key, w_value = params[2:5]
    comparator, bias = params[7], params[8]
    emb, (x, q, k, v, attn) = softness._forward(params, patches, forces)
    w = comparator - comparator.T
    ea, eb = emb[idx_a], emb[idx_b]
    logits = np.einsum("kd,de,ke->k", ea, w, eb) + bias
    loss = float(np.mean(np.logaddexp(0.0, logits) - labels * logits))

    dlogit = (0.5 * (1.0 + np.tanh(0.5 * logits)) - labels) / logits.size
    demb = np.zeros_like(emb)
    np.add.at(demb, idx_a, dlogit[:, None] * (eb @ w.T))
    np.add.at(demb, idx_b, dlogit[:, None] * (ea @ w))
    dw = ea.T @ (dlogit[:, None] * eb)
    d_comp = dw - dw.T
    d_bias = float(dlogit.sum())

    token = softness.TOKEN_DIM
    dz, dg = demb[:, :token], demb[:, token:]
    d_w_force = (dg * forces.mean(axis=1)[:, None]).sum(axis=0)
    d_b_force = dg.sum(axis=0)

    frames = softness.CLIP_FRAMES
    dzt = np.broadcast_to(dz[:, None, :] / frames, attn.shape[:2] + dz.shape[-1:])
    dv = attn.transpose(0, 2, 1) @ dzt
    ds_attn = dzt @ v.transpose(0, 2, 1)
    ds = attn * (ds_attn - (ds_attn * attn).sum(axis=2, keepdims=True))
    scale = 1.0 / np.sqrt(token)
    dq = ds @ k * scale
    dk = ds.transpose(0, 2, 1) @ q * scale
    dx = dq @ w_query.T + dk @ w_key.T + dv @ w_value.T
    d_w_query = np.einsum("cif,cig->fg", x, dq)
    d_w_key = np.einsum("cif,cig->fg", x, dk)
    d_w_value = np.einsum("cif,cig->fg", x, dv)
    d_w_patch = np.einsum("cip,cit->pt", patches, dx)
    d_b_patch = dx.sum(axis=(0, 1))
    return loss, (d_w_patch, d_b_patch, d_w_query, d_w_key, d_w_value,
                  d_w_force, d_b_force, d_comp, d_bias)


def patch16_reference(values):
    """One (H, W, 3) difference frame mean-pooled to a flat 16x16 grayscale
    patch, one frame at a time, as ``softness._patch16`` was first written."""
    gray = values.mean(axis=2)
    h, w = gray.shape
    rows = np.arange(16) * h // 16
    cols = np.arange(16) * w // 16
    pooled = np.add.reduceat(gray, rows, axis=0)
    pooled /= np.diff(np.append(rows, h))[:, None]
    pooled = np.add.reduceat(pooled, cols, axis=1)
    pooled /= np.diff(np.append(cols, w))[None, :]
    return pooled.ravel()


def train_ranker_reference(patches, forces, idx_a, idx_b, labels, epochs,
                           learning_rate, seed=0):
    """``lbfgs_reference`` over ``ranker_loss_and_grads`` from the package's
    initialisation; returns (params, loss history)."""
    from gripsense import softness
    return lbfgs_reference(
        lambda p: ranker_loss_and_grads(tuple(p), patches, forces, idx_a,
                                        idx_b, labels),
        softness._init_params(seed), epochs, learning_rate)


# ---------------------------------------------------------------------------
# contact rasters as first written: whole-frame masks that the package's
# contact-sized simulation must reproduce bit for bit
# ---------------------------------------------------------------------------

def marker_velocity_reference(tracks, masks):
    """``slip.marker_velocity`` one frame pair at a time: the markers of
    frame t that frame t-1 holds too (by a dict of ids; in the frames' own
    rows when their ids are equal, else in id order), those
    ``ContactMask.contains`` finds inside frame t's mask, or the four
    nearest its centroid when none is, averaged with a boolean-index mean of
    each marker's raw step from frame t-1. A frame without contact, or a
    pair with no shared id, gets zero."""
    v = np.zeros((len(tracks), 2))
    for t in range(1, len(tracks)):
        a, b = tracks[t - 1], tracks[t]
        ids = list(b.ids) if list(a.ids) == list(b.ids) else sorted(
            set(a.ids.tolist()) & set(b.ids.tolist()))
        if masks[t].area == 0 or not ids:
            continue
        row_a = {i: k for k, i in enumerate(a.ids.tolist())}
        row_b = {i: k for k, i in enumerate(b.ids.tolist())}
        xy_a = a.xy[[row_a[i] for i in ids]]
        xy_b = b.xy[[row_b[i] for i in ids]]
        inside = masks[t].contains(xy_b)
        if not inside.any():
            d = np.linalg.norm(xy_b - masks[t].centroid(), axis=1)
            inside = np.zeros(len(d), dtype=bool)
            inside[np.argsort(d, kind="stable")[:4]] = True
        v[t] = (xy_b - xy_a)[inside].mean(axis=0)
    return v


def paint_disc_mask(center_px, window_px=320, radius_px=8, px_per_mm=24.0):
    """The harvest contact as a raster: a disc stencil painted into a
    ``window_px`` square at the clamped, rounded position, on row
    ``window_px // 2``."""
    from gripsense.slip import ContactMask
    yy, xx = np.ogrid[-radius_px:radius_px + 1, -radius_px:radius_px + 1]
    stencil = (yy * yy + xx * xx) <= radius_px * radius_px
    values = np.zeros((window_px, window_px), dtype=bool)
    cx = int(round(min(max(center_px, radius_px), window_px - radius_px - 1)))
    cy = window_px // 2
    values[cy - radius_px:cy + radius_px + 1,
           cx - radius_px:cx + radius_px + 1] = stencil
    return ContactMask(values, threshold_mm=0.3, px_per_mm=px_per_mm)


def run_trial_reference(fruit, cfg, seed=0):
    """``harvest.run_trial`` at its default settings, as a loop over painted
    disc masks and the public ``object_velocity`` and ``marker_velocity``
    over the last six frames."""
    from gripsense import harvest
    from gripsense.core import MarkerSet
    from gripsense.force import predict_normal_force
    from gripsense.sim import CURRENT_GAIN, CURRENT_NOISE, CURRENT_OFFSET
    from gripsense.slip import detect_slip, marker_velocity, object_velocity
    rng = np.random.default_rng(seed)
    model = harvest._FORCE_MODEL
    measured = fruit.diameter_mm + rng.normal(
        0.0, harvest.DEFAULT_DIAMETER_NOISE_MM)
    state = harvest.GraspState(
        state="detect", opening_mm=harvest.START_OPENING_MM,
        commanded_force_n=harvest.INITIAL_FORCE_N[fruit.fruit_type],
        measured_diameter_mm=max(1.0, measured), fruit_type=fruit.fruit_type)
    rest = np.stack(np.meshgrid([-20.0, 0.0, 20.0], [-20.0, 0.0, 20.0]),
                    axis=-1).reshape(-1, 2) + 160.0
    masks, tracks, trace = [], [], []
    slip_mm = 0.0

    def outcome(success, mode):
        return harvest.TrialOutcome(success, mode, state.attempt,
                                    state.peak_force_n, np.array(trace))

    for _ in range(harvest.MAX_TICKS):
        pull = 0.0
        if state.state == "hold_pull":
            pull = harvest.PULL_MAX_N * min(
                1.0, (state.phase_ticks + 1) / harvest.PULL_RAMP_TICKS)
        contact, slip_rate, detached, bruised = harvest.fruit_response(
            fruit, state.opening_mm, pull)
        if bruised:
            return outcome(False, "bruise")
        if detached:
            return outcome(True, "none")
        slip_mm += slip_rate * harvest.SLIP_TRAVEL_MM
        if slip_mm > harvest._patch_radius_mm(fruit, state.opening_mm):
            return outcome(False, "slip_drop")
        current = (CURRENT_GAIN * contact + CURRENT_OFFSET
                   + rng.normal(0.0, CURRENT_NOISE))
        f_est = max(0.0, float(predict_normal_force(current, model)))
        trace.append(f_est)
        masks.append(paint_disc_mask(
            32.0 + slip_mm * harvest.DEFAULT_PX_PER_MM))
        tracks.append(MarkerSet(np.arange(9), rest + rng.normal(
            0.0, harvest.DEFAULT_MARKER_JITTER_PX, rest.shape)))
        slip_flag = False
        if len(masks) >= 2:
            slip_flag = detect_slip(
                object_velocity(masks[-6:])[-1],
                marker_velocity(tracks[-6:], masks[-6:])[-1])
        attempt_before = state.attempt
        state = harvest.step_controller(state, (slip_flag, f_est), cfg)
        if state.attempt != attempt_before:
            slip_mm = 0.0
        if state.state == "done":
            return outcome(False, "max_retries")
    return outcome(False, "max_retries")


def slip_masks_reference(seq, sphere_radius_mm, depth_mm, rng,
                         marker_jitter_px=0.3):
    """Whole-frame contact masks of a ``synth_slip_sequence`` result.

    Every pixel gets cap height plus its N(0, 0.02 mm) noise draw,
    thresholded at 0.3 mm.
    ``rng`` must be in the state the sequence's generator was in before it
    was drawn; each frame draws its mask noise, then its marker jitter. The
    object track is in pixels; ``px_per_mm`` must be a power of two so that
    dividing it back to mm is exact.
    """
    ppm = seq.px_per_mm
    size = seq.masks[0].frame_shape[0]
    xs = (np.arange(size) + 0.5) / ppm
    xm, ym = np.meshgrid(xs, xs)
    n_markers = len(seq.tracks[0])
    out = []
    for cx, cy in seq.object_track / ppm:
        pen = cap_height(xm - cx, ym - cy, sphere_radius_mm, depth_mm)
        noisy = pen + rng.normal(0.0, 0.02, pen.shape)
        rng.normal(0.0, marker_jitter_px, (n_markers, 2))
        out.append(noisy > 0.3)
    return out


def slip_tracks_reference(seq, gel, rng, marker_jitter_px=0.3):
    """Marker tracks (T, N, 2) of a ``synth_slip_sequence`` result: the rest
    grid moved by the jitter-free marker speed along the pose's direction,
    plus one ``normal`` draw a frame, clipped to the frame. ``rng`` as for
    ``slip_masks_reference``."""
    from gripsense import sim
    size = seq.masks[0].frame_shape[0]
    pos = sim.marker_grid(gel, seq.px_per_mm, (size, size)).xy
    direction = np.array([0.0, 1.0] if seq.pose == "top" else [1.0, 0.0])
    out = []
    for t, speed in enumerate(seq.marker_speed):
        rng.normal(0.0, 0.02, (size, size))
        if t > 0:
            pos = pos + speed * direction
        jitter = rng.normal(0.0, marker_jitter_px, pos.shape)
        out.append(np.clip(pos + jitter, 0, size - 1))
    return np.array(out)


def gradient_normals_reference(values, px_per_mm):
    """(..., H, W, 3) unit normals: ``np.gradient`` slopes in mm per mm,
    stacked as (-gx, -gy, 1) and divided by their ``np.linalg.norm``."""
    gy, gx = np.gradient(values, axis=(-2, -1))
    gx = gx * px_per_mm
    gy = gy * px_per_mm
    n = np.stack([-gx, -gy, np.ones_like(gx)], axis=-1)
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


def shade_reference(values, px_per_mm, rig):
    """(..., H, W, 3) noise-free, unclipped image of heights (..., H, W),
    shaded over the whole frame: ``gradient_normals_reference`` normals,
    each light's n . l clamped at 0, and per channel the gel's background
    colour plus every light's intensity times it, all three channels, light
    after light."""
    from gripsense import sim
    n = gradient_normals_reference(values, px_per_mm)
    img = np.empty(values.shape + (3,))
    img[:] = sim.BACKGROUND_COLOR
    for ldir, lint in zip(rig.directions, rig.intensities):
        shade = np.maximum(n.reshape(-1, 3) @ ldir, 0.0).reshape(values.shape)
        for c in range(3):
            img[..., c] += shade * lint[c]
    return img


def render_reference(values, px_per_mm, rig, noise_sigma=0.0, rng=None):
    """``shade_reference`` plus N(0, noise_sigma) pixel noise when
    ``noise_sigma`` > 0, clipped to [0, 1]."""
    img = shade_reference(values, px_per_mm, rig)
    if noise_sigma > 0:
        img += rng.normal(0.0, noise_sigma, img.shape)
    return np.clip(img, 0.0, 1.0)


def press(raw, sigma_px=None):
    """Membrane smoothing of a single heightmap: Gaussian blur by
    ``scipy.ndimage.gaussian_filter`` with zero padding, at ``sigma_px`` or
    else at the membrane scale, ``sim.MEMBRANE_SIGMA_MM`` in pixels."""
    from scipy.ndimage import gaussian_filter

    from gripsense import sim
    from gripsense.core import HeightMap

    if sigma_px is None:
        sigma_px = sim.MEMBRANE_SIGMA_MM * raw.px_per_mm
    return HeightMap(gaussian_filter(raw.values, sigma_px, mode="constant"),
                     raw.px_per_mm)


def compression_clip_reference(fruit, n_frames, rng, resolution, noise_sigma):
    """A ``synth_compression_clip`` result rendered one whole frame at a time.

    Each frame is its own full-frame heightmap, ``press`` blur,
    ``render_reference`` and difference under the default gel and rig;
    frame t draws its current noise, then its pixel noise. ``rng`` must be
    in the state the clip's generator was in.
    """
    from gripsense import sim

    gel, rig = sim.GelModel(), sim.default_rig()
    kf, kg = fruit.stiffness_n_mm, sim.SERIES_STIFFNESS
    density, amplitude = sim.TEXTURE_PARAMS.get(fruit.fruit_type, (0.0, 0.0))
    shape = sim.FruitSurface(density, amplitude,
                             base_radius_mm=fruit.diameter_mm / 2.0,
                             phase_seed=int(rng.integers(1 << 31)))
    grid = (resolution, resolution)
    ppm = resolution / gel.gel_size_mm
    center = (gel.gel_size_mm / 2.0, gel.gel_size_mm / 2.0)
    background = render_reference(
        press(sim.indent_heightmap(shape, center, 0.0, grid, gel)).values,
        ppm, rig)
    frames, currents = [], np.empty(n_frames)
    for t in range(n_frames):
        x_gel = sim.SQUEEZE_MM * (t + 1) / n_frames * kf / (kg + kf)
        currents[t] = sim.CURRENT_GAIN * (kg * x_gel) + sim.CURRENT_OFFSET \
            + rng.normal(0.0, sim.CURRENT_NOISE)
        hm = press(sim.indent_heightmap(shape, center, x_gel, grid, gel))
        frames.append(render_reference(hm.values, ppm, rig, noise_sigma,
                                       rng) - background)
    return frames, currents


def shear_dataset_reference(n, gel, rng, mask_px):
    """``make_shear_dataset`` evaluated over the whole frame: every pixel's
    sphere penetration, thresholded at 0.3 mm into a whole-raster
    ``ContactMask``; the same draws in the same order."""
    from gripsense import sim
    from gripsense.slip import ContactMask

    ppm = mask_px / gel.gel_size_mm
    xs = (np.arange(mask_px) + 0.5) / ppm
    xm, ym = np.meshgrid(xs, xs)
    rest = sim.marker_grid(gel, ppm, (mask_px, mask_px))
    pairs, labels = [], np.empty((n, 2))
    for i in range(n):
        radius = rng.uniform(10.0, 20.0)
        depth = rng.uniform(0.8, 1.5)
        cx, cy = gel.gel_size_mm / 2.0 + rng.uniform(-2.0, 2.0, 2)
        pen = sim.Sphere(radius).penetration(xm - cx, ym - cy, depth)
        mask = ContactMask(pen > 0.3, 0.3, ppm)
        mag = rng.uniform(0.5, 4.0)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        shear = mag * np.array([np.cos(ang), np.sin(ang)])
        moved = sim.deform_markers(rest, mask, shear, "translation", gel)
        moved = moved.moved(rng.normal(0.0, sim.SHEAR_JITTER_PX,
                                       moved.xy.shape))
        pairs.append((rest, moved, mask))
        labels[i] = sim.SHEAR_FORCE_PER_MM * shear \
            * (1.0 + rng.normal(0.0, 0.08)) + rng.normal(0.0, 0.02, 2)
    return pairs, labels
