"""Deterministic synthetic tactile sensor.

Generates everything the physical gripper would: indentation heightmaps for
spheres / hex pyramids / procedural fruit surfaces, membrane smoothing,
three-light Lambertian rendering into RGB frames, marker-field deformation
under translational and rotational shear, stick-slip grasp sequences, and
squeeze clips with a motor-current trace. All randomness comes from an
explicitly passed ``numpy.random.Generator``, so identical seeds give
bit-identical outputs and scenes are safe to generate in parallel.

Slip sequences draw their mask noise over the whole frame, which keeps the
random stream of every frame the same, but evaluate the indenter only in
the box around the pressed cap: outside it the penetration is exactly zero.

Rendering works on the box the contact reaches. ``_shade`` takes normals,
light products and channel sums only in the box of the non-zero heights,
grown by 2 px; every other pixel gets the flat gel's colour, the background
plus intensity * l_z summed in light order, which is what the same
arithmetic gives for the normal (0, 0, 1). The membrane blur runs
on the box of its non-zero input grown by the kernel radius, and shear
samples evaluate their sphere only around its contact (``_cap_box``). Each
output pixel keeps its arithmetic, so every frame, mask and label is
bit-identical to computing the whole frame.

A squeeze clip renders as one (T, H, W) stack: the fruit's dome and bump
texture are evaluated once per clip, on the deepest frame's cap box, and the
blur and the shading run over all frames at once. Its random draws stay per
frame and in the same order, the current noise and then the pixel noise, so
a clip is bit-identical to rendering its frames one by one. The clip comes
back as a ``SqueezeFrames``, the difference stack with its frames as views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (DiffFrame, HeightMap, MarkerSet, TactileFrame, _Adopt,
                   _check_int, _check_non_negative, _check_positive,
                   _clip_owned, _Frozen, _owned, diff_image)
from .slip import (DEFAULT_CONTACT_THRESHOLD_MM, DEFAULT_THRESHOLD_PX,
                   ContactMask)

# Combined gel + drive-train stiffness seen in series with the fruit during a
# squeeze (N/mm). The split of commanded jaw travel between gel indentation
# and fruit deformation, and hence both the visual and the current channel,
# follows from this one constant.
SERIES_STIFFNESS = 2.0

# Linear motor model: current = CURRENT_GAIN * F_n + CURRENT_OFFSET + noise.
CURRENT_GAIN = 0.8
CURRENT_OFFSET = 0.2
CURRENT_NOISE = 0.06
# Range of the forces (N) that ``make_force_samples`` draws uniformly.
_FORCE_RANGE_N = (0.5, 8.0)

# ``make_shear_dataset``: marker tracking jitter (px) and shear force per mm
# of drag (N/mm).
SHEAR_JITTER_PX = 0.3
SHEAR_FORCE_PER_MM = 0.8
# Radius (mm) of the sphere that ``synth_slip_sequence`` presses and drags.
SLIP_SPHERE_RADIUS_MM = 16.0

# ``default_rig``: LED elevation, per-channel intensity and azimuths (deg).
_RIG_ELEVATION_DEG = 60.0
_RIG_INTENSITY = 0.55
_RIG_AZIMUTHS_DEG = (0.0, 120.0, 240.0)

# Procedural surface texture parameters per fruit type tag:
# (spatial frequency 1/mm, bump amplitude mm). "smooth" is the textureless
# reference used by the softness evaluation.
TEXTURE_PARAMS = {
    "smooth": (0.0, 0.0),
    "cherry_tomato": (0.45, 0.035),
    "strawberry": (0.25, 0.09),
}


@dataclass(frozen=True)
class GelModel:
    """Elastomer pad geometry and appearance."""

    gel_size_mm: float = 30.0
    membrane_sigma_mm: float = 1.0
    marker_rows: int = 9
    marker_cols: int = 9
    background_color: tuple = (0.30, 0.30, 0.30)

    def __post_init__(self):
        _check_positive(self.gel_size_mm, "gel_size_mm")
        _check_positive(self.membrane_sigma_mm, "membrane_sigma_mm")
        _check_int(self.marker_rows, "marker_rows")
        _check_int(self.marker_cols, "marker_cols")


@dataclass(frozen=True, eq=False)
class LightRig(_Frozen):
    """Directional lights: unit directions toward the light, RGB intensities."""

    directions: np.ndarray      # (L, 3)
    intensities: np.ndarray     # (L, 3)

    def __post_init__(self):
        d = self._keep("directions", np.reshape(self.directions, (-1, 3)))
        i = self._keep("intensities", np.reshape(self.intensities, (-1, 3)))
        if d.shape[0] != i.shape[0]:
            raise ValueError("directions and intensities count mismatch")
        norms = np.linalg.norm(d, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("light directions must be unit vectors")
        if np.min(d[:, 2]) <= 0:
            raise ValueError("light directions must have positive z")


def default_rig() -> LightRig:
    """Three LEDs 120 degrees apart at 60 degrees elevation, one per colour
    channel.

    Channel-pure intensities make the RGB-to-normal mapping invertible:
    each channel is an independent Lambertian measurement of the normal.
    """
    el = math.radians(_RIG_ELEVATION_DEG)
    dirs, ints = [], []
    for ch, az_deg in enumerate(_RIG_AZIMUTHS_DEG):
        az = math.radians(az_deg)
        dirs.append([math.cos(az) * math.cos(el), math.sin(az) * math.cos(el),
                     math.sin(el)])
        rgb = [0.0, 0.0, 0.0]
        rgb[ch] = _RIG_INTENSITY
        ints.append(rgb)
    return LightRig(np.array(dirs), np.array(ints))


# ---------------------------------------------------------------------------
# indenter shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sphere:
    radius_mm: float

    def __post_init__(self):
        _check_positive(self.radius_mm, "radius_mm")

    @property
    def max_depth_mm(self) -> float:
        return self.radius_mm

    def penetration(self, dx_mm, dy_mm, depth_mm):
        rho2 = dx_mm ** 2 + dy_mm ** 2
        r = self.radius_mm
        sag = r - np.sqrt(np.maximum(r * r - rho2, 0.0))
        return np.where(rho2 <= r * r, np.maximum(depth_mm - sag, 0.0), 0.0)


@dataclass(frozen=True)
class HexPyramid:
    """Six-sided pyramid indenting apex first."""

    base_diameter_mm: float
    height_mm: float

    def __post_init__(self):
        _check_positive(self.base_diameter_mm, "base_diameter_mm")
        _check_positive(self.height_mm, "height_mm")

    @property
    def max_depth_mm(self) -> float:
        return self.height_mm

    def penetration(self, dx_mm, dy_mm, depth_mm):
        apothem = 0.5 * self.base_diameter_mm * math.cos(math.pi / 6.0)
        # hexagon as the intersection of three slabs, normals 0/60/120 degrees
        d = np.abs(dx_mm)
        for ang in (math.pi / 3.0, 2.0 * math.pi / 3.0):
            d = np.maximum(d, np.abs(dx_mm * math.cos(ang) + dy_mm * math.sin(ang)))
        hexd = d / apothem
        return np.maximum(depth_mm - self.height_mm * hexd, 0.0)


@dataclass(frozen=True)
class FruitSurface:
    """Broad dome with a procedural bump texture.

    The bump field is a fixed sum of oriented cosines whose orientations and
    phases derive from ``phase_seed``, so the same shape always produces the
    same surface.
    """

    bump_density: float         # spatial frequency, 1/mm
    bump_amplitude_mm: float
    base_radius_mm: float = 15.0
    phase_seed: int = 0

    def __post_init__(self):
        _check_positive(self.base_radius_mm, "base_radius_mm")
        _check_non_negative(self.bump_density, "bump_density")
        _check_non_negative(self.bump_amplitude_mm, "bump_amplitude_mm")

    @property
    def max_depth_mm(self) -> float:
        return self.base_radius_mm

    def _bumps(self, x_mm, y_mm):
        if self.bump_amplitude_mm == 0.0 or self.bump_density == 0.0:
            return np.zeros_like(x_mm)
        rng = np.random.default_rng(self.phase_seed)
        acc = np.zeros_like(x_mm)
        for _ in range(6):
            theta = rng.uniform(0.0, math.pi)
            freq = self.bump_density * rng.uniform(0.7, 1.3)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            acc += np.cos(2.0 * math.pi * freq
                          * (x_mm * math.cos(theta) + y_mm * math.sin(theta)) + phase)
        return (acc / 6.0 + 1.0) * 0.5 * self.bump_amplitude_mm   # in [0, amp]

    def penetration(self, dx_mm, dy_mm, depth_mm):
        r = self.base_radius_mm
        rho2 = dx_mm ** 2 + dy_mm ** 2
        sag = r - np.sqrt(np.maximum(r * r - rho2, 0.0))
        base = np.where(rho2 <= r * r, depth_mm - sag, -1.0)
        gate = np.clip(base / 0.2, 0.0, 1.0)      # bumps fade in over 0.2 mm
        return np.maximum(base, 0.0) + gate * self._bumps(dx_mm, dy_mm)


@dataclass(frozen=True)
class GraspScene:
    """A grasp configuration for sequence synthesis."""

    pose: str = "top"
    load_g: float = 0.0

    def __post_init__(self):
        if self.pose not in ("top", "side"):
            raise ValueError(f"unknown grasp pose {self.pose!r}")
        _check_non_negative(self.load_g, "load_g")


# ---------------------------------------------------------------------------
# heightmaps and rendering
# ---------------------------------------------------------------------------

def _grid_mm(grid: tuple[int, int], gel: GelModel):
    h, w = int(grid[0]), int(grid[1])
    px_per_mm = w / gel.gel_size_mm
    xs = (np.arange(w) + 0.5) / px_per_mm
    ys = (np.arange(h) + 0.5) / px_per_mm
    return np.meshgrid(xs, ys), px_per_mm


def _check_depth(shape, depth_mm: float) -> None:
    """Raise unless ``shape`` can indent ``depth_mm``: 0 <= depth <= height."""
    if not depth_mm >= 0:           # NaN fails here too
        raise ValueError(f"depth must be non-negative, got {depth_mm}")
    if depth_mm > shape.max_depth_mm:
        raise ValueError(
            f"depth {depth_mm} mm exceeds shape height {shape.max_depth_mm} mm")


def indent_heightmap(shape, center_mm: tuple[float, float], depth_mm: float,
                     grid: tuple[int, int], gel: GelModel = GelModel()) -> HeightMap:
    """Analytic penetration of ``shape`` into a flat gel plane, clamped at 0."""
    _check_depth(shape, depth_mm)
    (xm, ym), px_per_mm = _grid_mm(grid, gel)
    extent_y = grid[0] / px_per_mm
    if not (0.0 <= center_mm[0] <= gel.gel_size_mm and 0.0 <= center_mm[1] <= extent_y):
        raise ValueError("indent center outside the gel")
    if depth_mm == 0.0:
        return HeightMap(np.zeros((int(grid[0]), int(grid[1]))), px_per_mm)
    pen = shape.penetration(xm - center_mm[0], ym - center_mm[1], depth_mm)
    return HeightMap(pen, px_per_mm)


def _box(occupied: np.ndarray, margin: int):
    """(r0, r1, c0, c1): the bounding box of the True pixels of
    ``occupied`` (..., H, W) over all its leading axes, grown by ``margin``
    and clipped to the frame; None when no pixel is True."""
    if occupied.ndim > 2:
        occupied = occupied.any(axis=tuple(range(occupied.ndim - 2)))
    rows = np.flatnonzero(occupied.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(occupied.any(axis=0))
    h, w = occupied.shape
    return (max(int(rows[0]) - margin, 0), min(int(rows[-1]) + 1 + margin, h),
            max(int(cols[0]) - margin, 0), min(int(cols[-1]) + 1 + margin, w))


def _gaussian_blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of the last two axes of ``x`` with zero
    padding; leading axes index independent rasters.

    Each raster is bit-equal to
    ``scipy.ndimage.gaussian_filter(raster, sigma, mode="constant")``: the
    same normalized kernel exp(-t^2 / 2 sigma^2) of radius int(4 sigma + 0.5),
    axis -2 before axis -1, and per output pixel the same summation order,
    x[i] w0 and then (x[i - j] + x[i + j]) w_j added for j from the radius
    down to 1.

    Only the box of the elements other than +0.0, over all rasters, grown by
    the radius, is blurred: every output pixel outside it sums nothing but
    +0.0 and is +0.0, and inside it the zeros beyond the box are the padding's.
    """
    radius = int(4.0 * sigma + 0.5)
    out = np.zeros(x.shape)
    box = _box((x != 0) | np.signbit(x), radius)
    if box is None:
        return out
    r0, r1, c0, c1 = box
    x = x[..., r0:r1, c0:c1]
    taps = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    taps = taps / taps.sum()
    for _ in range(2):      # axis -2, then axis -2 of the transpose: axis -1
        n = x.shape[-2]
        # row-major whatever x's layout, so every pass runs on contiguous rows
        padded = np.zeros(x.shape[:-2] + (n + 2 * radius, x.shape[-1]))
        padded[..., radius:radius + n, :] = x
        acc = padded[..., radius:radius + n, :] * taps[radius]
        pair = np.empty_like(acc)
        for j in range(radius, 0, -1):
            np.add(padded[..., radius - j:radius - j + n, :],
                   padded[..., radius + j:radius + j + n, :], out=pair)
            pair *= taps[radius + j]
            acc += pair
        x = acc.swapaxes(-1, -2)
    out[..., r0:r1, c0:c1] = x
    return out


def _normals(values: np.ndarray, px_per_mm: float) -> np.ndarray:
    """(..., H, W, 3) unit normals of heights (..., H, W) in mm.

    Per pixel (-gx, -gy, 1) / sqrt(gx^2 + gy^2 + 1), with the slopes in mm
    per mm by central differences, one-sided on the edges, as
    ``np.gradient`` takes them. Each slope is differenced straight into its
    plane of the result, and the third plane holds gy^2 until it gets 1, so
    the norm is the only other full-size array; the result is bit-identical
    to normalizing ``np.stack`` of ``np.gradient``'s slopes by
    ``np.linalg.norm``.
    """
    if min(values.shape[-2:]) < 2:
        raise ValueError("need at least 2 heights along each axis for slopes")
    n = np.empty(values.shape + (3,))
    for k, axis in ((0, -1), (1, -2)):
        f, g = np.moveaxis(values, axis, -1), np.moveaxis(n[..., k], axis, -1)
        np.subtract(f[..., 2:], f[..., :-2], out=g[..., 1:-1])
        g[..., 1:-1] /= 2.0
        np.subtract(f[..., 1], f[..., 0], out=g[..., 0])
        np.subtract(f[..., -1], f[..., -2], out=g[..., -1])
        g *= -px_per_mm                           # mm per mm, and negated
    norm = np.multiply(n[..., 0], n[..., 0])
    norm += np.multiply(n[..., 1], n[..., 1], out=n[..., 2])
    norm += 1.0
    np.sqrt(norm, out=norm)
    n[..., 2] = 1.0
    n /= norm[..., None]
    return n


def _shade(values: np.ndarray, px_per_mm: float, rig: LightRig,
           gel: GelModel) -> np.ndarray:
    """Noise-free, unclipped (..., H, W, 3) image of heights (..., H, W):
    per channel, background + sum over lights of intensity * max(0, n . l).

    Only the box of the non-zero heights over all rasters, grown by 2 px, is
    shaded; every pixel outside it gets the flat gel's colour, the same sum
    for the normal (0, 0, 1), whose n . l is exactly l_z. With the 2 px
    margin the slopes at the box edge, one-sided in the box and central in
    the frame, are both zero, so each shaded pixel's normal is the frame's.
    In the box each light's n . l is one product over all pixels of all
    rasters, and each channel with a non-zero intensity is accumulated in
    place, light after light; the skipped +0.0 products would change no sum.
    """
    flat = np.array(gel.background_color, dtype=np.float64)
    for ldir, lint in zip(rig.directions, rig.intensities):
        flat += ldir[2] * lint
    img = np.empty(values.shape + (3,))
    img[:] = flat
    box = _box(values != 0, 2)
    if box is None:
        return img
    r0, r1, c0, c1 = box
    n = _normals(values[..., r0:r1, c0:c1], px_per_mm)
    inside = img[..., r0:r1, c0:c1, :]
    inside[:] = gel.background_color
    shade, term = np.empty(n.shape[:-1]), np.empty(n.shape[:-1])
    for ldir, lint in zip(rig.directions, rig.intensities):
        np.matmul(n.reshape(-1, 3), ldir, out=shade.reshape(-1))
        np.maximum(shade, 0.0, out=shade)
        for c in np.flatnonzero(lint):
            inside[..., c] += np.multiply(shade, lint[c], out=term)
    return img


def render_tactile(h: HeightMap, rig: LightRig = default_rig(),
                   gel: GelModel = GelModel(), noise_sigma: float = 0.0,
                   rng: np.random.Generator | None = None) -> TactileFrame:
    """Lambertian shading of the heightmap under the rig, plus pixel noise.

    Per channel: background + sum over lights of intensity * max(0, n . l),
    shaded only around the contact and the flat gel's colour elsewhere
    (``_shade``). Deterministic for identical inputs; noise requires an
    explicit ``rng``, and a ``noise_sigma`` of 0 draws nothing.
    """
    _check_non_negative(noise_sigma, "noise_sigma")
    img = _shade(h.values, h.px_per_mm, rig, gel)
    if noise_sigma > 0.0:
        if rng is None:
            raise ValueError("pixel noise requires an explicit rng")
        img += rng.normal(0.0, noise_sigma, img.shape)
    return TactileFrame(np.clip(img, 0.0, 1.0, out=img), h.px_per_mm)


def marker_grid(gel: GelModel, px_per_mm: float, frame: tuple[int, int]) -> MarkerSet:
    """Rest marker positions: a uniform grid with one-pitch margins."""
    h, w = frame
    xs = (np.arange(gel.marker_cols) + 1.0) * w / (gel.marker_cols + 1.0)
    ys = (np.arange(gel.marker_rows) + 1.0) * h / (gel.marker_rows + 1.0)
    gx, gy = np.meshgrid(xs, ys)
    xy = np.column_stack([gx.ravel(), gy.ravel()])
    ids = np.arange(xy.shape[0], dtype=np.int64)
    return MarkerSet(ids, xy, float(w - 1), float(h - 1))


def deform_markers(rest: MarkerSet, contact: ContactMask, shear_mm: np.ndarray,
                   mode: str = "translation", gel: GelModel = GelModel()) -> MarkerSet:
    """Displace markers under a shear applied to the contact region.

    Translation: markers inside the contact move by the full shear; outside,
    the displacement falls off with a membrane-scale Gaussian along the shear
    direction and a much slower, gel-scale decay across it. The anisotropy
    keeps the dense interpolated field close to curl-free, which is what a
    dragged membrane actually does.

    Rotation: rigid in-contact rotation about the region centroid (the shear
    magnitude is the rim arc length in mm), radial Gaussian falloff outside;
    tangential motion with radial magnitude modulation is divergence-free.
    """
    shear_mm = np.asarray(shear_mm, dtype=np.float64).reshape(2)
    mag = float(np.linalg.norm(shear_mm))
    if mag >= gel.gel_size_mm / 4.0:
        raise ValueError("shear magnitude must be below a quarter gel size")
    if mode not in ("translation", "rotation"):
        raise ValueError(f"unknown deformation mode {mode!r}")
    # sheared markers may legitimately leave the camera rectangle, so the
    # result carries no frame bounds
    unbounded = MarkerSet(rest.ids, rest.xy)
    if mag == 0.0 or contact.area == 0:
        return unbounded
    ppm = contact.px_per_mm
    c = contact.centroid()
    a_px = contact.equivalent_radius_px()
    sigma_px = max(gel.membrane_sigma_mm, 1e-9) * ppm
    rel = rest.xy - c
    if mode == "translation":
        u = shear_mm / mag
        vperp = np.array([-u[1], u[0]])
        t = rel @ u
        s = rel @ vperp
        d_par = np.maximum(np.abs(t) - a_px, 0.0)
        d_perp = np.maximum(np.abs(s) - a_px, 0.0)
        long_px = gel.gel_size_mm * ppm
        w = np.exp(-0.5 * (d_par / sigma_px) ** 2) \
            * np.exp(-0.5 * (d_perp / long_px) ** 2)
        delta = w[:, None] * (shear_mm * ppm)[None, :]
    else:
        rho = np.linalg.norm(rel, axis=1)
        theta = mag * ppm / a_px                  # rim arc of |shear| mm
        w = np.exp(-0.5 * (np.maximum(rho - a_px, 0.0) / sigma_px) ** 2)
        tangent = np.column_stack([-rel[:, 1], rel[:, 0]])
        delta = theta * w[:, None] * tangent
    return unbounded.moved(delta)


def _cap_box(center_mm, radius_mm: float, depth_mm: float, px_per_mm: float,
             size: int) -> tuple[int, int, int, int]:
    """(r0, r1, c0, c1): the pixels of a (size, size) frame that a sphere of
    ``radius_mm`` pressed ``depth_mm`` <= radius deep at ``center_mm``
    reaches, its cap of radius sqrt(depth (2 radius - depth)) plus a 2 px
    guard far wider than the rounding of the pixel-centre coordinates; the
    penetration is +0.0 everywhere outside it."""
    reach = math.sqrt(depth_mm * (2.0 * radius_mm - depth_mm)) * px_per_mm + 2.0
    cx, cy = np.asarray(center_mm) * px_per_mm - 0.5
    return (max(int(cy - reach), 0), min(int(cy + reach) + 2, size),
            max(int(cx - reach), 0), min(int(cx + reach) + 2, size))


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SlipSequence(_Frozen):
    """One simulated grasp trial: detector inputs plus exact ground truth.

    ``masks`` and ``tracks`` are what the detector sees (noisy); the object
    track and labels are exact. Labels are True exactly on frames where the
    true object-minus-marker speed exceeds the slip threshold, so detector
    scores measure perception noise and the lag a rule adds, nothing else.
    """

    masks: tuple
    tracks: tuple
    object_track: np.ndarray    # (T, 2) exact centre, px
    marker_speed: np.ndarray    # (T,) exact jitter-free marker speed, px/frame
    labels: np.ndarray          # (T,) bool
    true_diff: np.ndarray       # (T,) exact speed difference, px/frame
    phase2_start: int
    phase3_start: int | None
    px_per_mm: float
    load_g: float
    pose: str

    def __post_init__(self):
        for name in ("object_track", "marker_speed", "true_diff"):
            self._keep(name, getattr(self, name))
        self._keep("labels", self.labels, bool)
        for name in ("masks", "tracks"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not len(self.masks) == len(self.tracks) == len(self.labels):
            raise ValueError("masks, tracks and labels differ in length")

    def __len__(self) -> int:
        return len(self.masks)


def synth_slip_sequence(scene: GraspScene, n_frames: int = 200,
                        gel: GelModel = GelModel(),
                        rng: np.random.Generator | None = None,
                        px_per_mm: float = 16.0,
                        threshold_px: float = DEFAULT_THRESHOLD_PX,
                        depth_mm: float = 1.0,
                        mask_noise_mm: float = 0.02,
                        marker_jitter_px: float = 0.3) -> SlipSequence:
    """Static -> incipient -> stick-slip grasp sequence with exact labels.

    Phase 1 is static. Phase 2 ramps a slow joint object+marker creep
    (markers follow the object; no slip). Phase 3 onset comes earlier and
    slip bursts run faster under heavier external load; bursts are short
    (stick-slip), matching how a held object actually loses grip, and keep
    the contact patch inside the gel. Zero load never enters phase 3.

    Each frame's mask is cap height plus N(0, ``mask_noise_mm``) noise,
    above 0.3 mm. A frame draws its noise, the whole frame's and then its
    markers' N(0, ``marker_jitter_px``) jitter, as one block of standard
    normals into one reused buffer, and scales it: the same stream and, as
    numpy's ``normal`` is 0.0 + sigma * z, the same sums, but for the sign of
    a zero that is added to a non-negative cap or a positive marker
    coordinate. The cap is evaluated only in the box around its support,
    where it is not zero; ``depth_mm`` must lie in (0.3, sphere radius] so
    that the cap reaches the threshold and that support is a true spherical
    cap. Off the box the mask is the noise alone above 0.3 mm, which no
    pixel reaches when ``mask_noise_mm`` times the frame's largest draw does
    not (rounding sigma * z is monotone in z); then the mask is built from
    the box alone, else from the whole frame. Each ``ContactMask`` keeps
    only the bounding box of its pixels above the threshold, the cap's
    unless the noise alone crosses it. Negative or non-finite noise levels
    raise, and so does a ``threshold_px`` that is not finite and positive.
    """
    if n_frames < 10:
        raise ValueError("need at least 10 frames")
    _check_positive(threshold_px, "threshold_px")
    _check_non_negative(mask_noise_mm, "mask_noise_mm")
    _check_non_negative(marker_jitter_px, "marker_jitter_px")
    sphere_r = SLIP_SPHERE_RADIUS_MM
    if not depth_mm > DEFAULT_CONTACT_THRESHOLD_MM:
        raise ValueError(f"depth {depth_mm} mm must exceed the "
                         f"{DEFAULT_CONTACT_THRESHOLD_MM} mm contact threshold")
    if depth_mm > sphere_r:
        raise ValueError(
            f"depth {depth_mm} mm exceeds sphere radius {sphere_r} mm")
    rng = np.random.default_rng(0) if rng is None else rng
    load = scene.load_g
    size_px = int(round(gel.gel_size_mm * px_per_mm))
    # radius of the pressed cap: the sphere penetrates the gel exactly there
    cap_r_mm = math.sqrt(2.0 * sphere_r * depth_mm - depth_mm ** 2)

    t2 = int(round(0.30 * n_frames))
    has_slip = load > 0
    t3 = int(round(n_frames * min(max(0.78 - 0.004 * load, 0.35), 0.95))) \
        if has_slip else None
    v_full = 18.0 + 0.25 * load                   # px/frame during a burst
    creep_cap = 2.0                               # marker drag during bursts
    burst = np.array([1.0, 1.0, 1.0, 1.0, 0.35])  # per-burst velocity profile
    n_bursts = 2
    if has_slip:
        period = max(len(burst) + 4, (n_frames - t3) // n_bursts)

    # commanded per-frame speeds
    v_obj = np.zeros(n_frames)
    v_mark = np.zeros(n_frames)
    ramp_end = t3 if has_slip else n_frames
    for t in range(t2, ramp_end):
        frac = (t - t2 + 1) / max(ramp_end - t2, 1)
        v_obj[t] = 0.5 * frac                     # slow joint creep
        v_mark[t] = 0.9 * v_obj[t]
    if has_slip:
        for t in range(t3, n_frames):
            k = (t - t3) % period
            if k < len(burst):
                v_obj[t] = v_full * burst[k]
            v_mark[t] = min(v_obj[t], creep_cap)

    direction = np.array([0.0, 1.0]) if scene.pose == "top" else np.array([1.0, 0.0])
    margin = cap_r_mm + 0.5
    start = np.full(2, gel.gel_size_mm / 2.0)
    start -= direction * (gel.gel_size_mm / 2.0 - margin)
    centers_mm = start[None, :] + np.cumsum(v_obj)[:, None] / px_per_mm * direction
    # the commanded travel fits inside the pad for every supported load; the
    # clamp is a guard so extreme settings can never push masks off the frame
    hi = gel.gel_size_mm - margin
    centers_mm = np.clip(centers_mm, margin, hi)

    # ground truth from the realized track, so labels stay consistent with
    # the returned trajectories even if the clamp engages
    v_real = np.zeros(n_frames)
    v_real[1:] = np.linalg.norm(np.diff(centers_mm, axis=0), axis=1) * px_per_mm
    true_diff = np.abs(v_real - v_mark)
    labels = true_diff > threshold_px

    rest = marker_grid(gel, px_per_mm, (size_px, size_px))
    xs = (np.arange(size_px) + 0.5) / px_per_mm
    sphere = Sphere(sphere_r)

    # one frame's standard normals: its mask noise, then its marker jitter
    z = np.empty(size_px * size_px + rest.xy.size)
    z_mask = z[:size_px * size_px].reshape(size_px, size_px)
    z_jitter = z[size_px * size_px:].reshape(rest.xy.shape)
    masks, tracks = [], []
    marker_pos = rest.xy.copy()
    for t in range(n_frames):
        rng.standard_normal(out=z)
        # the penetration is +0.0 off the cap, where pen + noise is the noise
        # itself; so only the box around the cap adds the penetration
        r0, r1, c0, c1 = _cap_box(centers_mm[t], sphere_r, depth_mm,
                                  px_per_mm, size_px)
        pen = sphere.penetration(xs[None, c0:c1] - centers_mm[t, 0],
                                 xs[r0:r1, None] - centers_mm[t, 1], depth_mm)
        box = (pen + mask_noise_mm * z_mask[r0:r1, c0:c1]
               > DEFAULT_CONTACT_THRESHOLD_MM)
        if mask_noise_mm * z_mask.max() > DEFAULT_CONTACT_THRESHOLD_MM:
            values = mask_noise_mm * z_mask > DEFAULT_CONTACT_THRESHOLD_MM
            values[r0:r1, c0:c1] = box
            masks.append(ContactMask(values, DEFAULT_CONTACT_THRESHOLD_MM,
                                     px_per_mm))
        else:
            masks.append(ContactMask(box, DEFAULT_CONTACT_THRESHOLD_MM,
                                     px_per_mm, (r0, r1, c0, c1),
                                     (size_px, size_px)))
        if t > 0:
            marker_pos = marker_pos + v_mark[t] * direction
        jitter = marker_jitter_px * z_jitter
        tracks.append(MarkerSet(rest.ids, np.clip(marker_pos + jitter, 0, size_px - 1),
                                float(size_px - 1), float(size_px - 1)))
    return SlipSequence(masks, tracks, centers_mm * px_per_mm, v_mark, labels,
                        true_diff, t2, t3, px_per_mm, load, scene.pose)


def make_slip_benchmark(seed: int = 0, poses: Sequence[str] = ("top", "side"),
                        loads: Sequence[float] = (10.0, 20.0, 50.0),
                        repeats: int = 2, n_frames: int = 200,
                        **kwargs) -> list[SlipSequence]:
    """The pose x load x repeat trial grid used by the slip evaluation."""
    rng = np.random.default_rng(seed)
    out = []
    for pose in poses:
        for load in loads:
            for _ in range(repeats):
                scene = GraspScene(pose=pose, load_g=load)
                out.append(synth_slip_sequence(scene, n_frames, rng=rng,
                                               **kwargs))
    return out


def make_calibration_presses(n: int = 8, sphere_radius_mm: float = 5.0,
                             rng: np.random.Generator | None = None,
                             resolution: int = 128,
                             depth_range: tuple[float, float] = (0.4, 1.2),
                             noise_sigma: float = 0.0):
    """Sphere presses with analytic contact geometry for normal calibration.

    Returns (diff frame, center px, contact radius px, sphere radius mm,
    px_per_mm) tuples. Renders skip membrane smoothing so the analytic cap
    normals label in-contact pixels exactly.
    """
    if n < 1:
        raise ValueError("need at least one press")
    if not 0.0 < depth_range[0] <= depth_range[1] < sphere_radius_mm:
        raise ValueError("depth range must lie strictly inside (0, radius)")
    _check_non_negative(noise_sigma, "noise_sigma")
    rng = np.random.default_rng(0) if rng is None else rng
    gel, rig = GelModel(), default_rig()
    grid = (resolution, resolution)
    ppm = resolution / gel.gel_size_mm
    flat = render_tactile(HeightMap(np.zeros(grid), ppm), rig, gel)
    sphere = Sphere(sphere_radius_mm)
    margin = sphere_radius_mm
    presses = []
    for _ in range(n):
        depth = rng.uniform(depth_range[0], depth_range[1])
        cx, cy = rng.uniform(margin, gel.gel_size_mm - margin, 2)
        raw = indent_heightmap(sphere, (cx, cy), depth, grid, gel)
        img = render_tactile(raw, rig, gel, noise_sigma,
                             rng if noise_sigma > 0 else None)
        contact_px = math.sqrt(depth * (2.0 * sphere_radius_mm - depth)) * ppm
        presses.append((diff_image(img, flat),
                        (cx * ppm - 0.5, cy * ppm - 0.5),
                        contact_px, sphere_radius_mm, ppm))
    return presses


def make_shear_dataset(n: int = 300, rng: np.random.Generator | None = None,
                       mask_px: int = 240):
    """Translation-shear samples with force labels for the shear regression.

    Each sample presses a random sphere into the gel, drags the contact by a
    random shear, and labels it with a force proportional to the shear plus
    multiplicative (8%) and small additive noise; marker positions carry
    tracking jitter. Returns (list of (rest, moved, mask), labels (n, 2) N).

    The sphere is evaluated only in the box its contact can reach
    (``_cap_box``), and each ``ContactMask`` is built from that window of the
    (mask_px, mask_px) frame: outside it the penetration is +0.0, so the
    mask, and with it every marker and label, is the whole frame's.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if not (mask_px >= 1 and math.isfinite(mask_px)
            and mask_px == int(mask_px)):
        raise ValueError(f"mask_px must be a positive whole number of "
                         f"pixels, got {mask_px}")
    size = int(mask_px)
    rng = np.random.default_rng(0) if rng is None else rng
    gel = GelModel()
    ppm = size / gel.gel_size_mm
    xs = (np.arange(size) + 0.5) / ppm
    rest = marker_grid(gel, ppm, (size, size))
    pairs, labels = [], np.empty((n, 2))
    for i in range(n):
        radius = rng.uniform(10.0, 20.0)
        depth = rng.uniform(0.8, 1.5)
        cx, cy = gel.gel_size_mm / 2.0 + rng.uniform(-2.0, 2.0, 2)
        r0, r1, c0, c1 = _cap_box((cx, cy), radius, depth, ppm, size)
        pen = Sphere(radius).penetration(xs[None, c0:c1] - cx,
                                         xs[r0:r1, None] - cy, depth)
        mask = ContactMask(pen > DEFAULT_CONTACT_THRESHOLD_MM,
                           DEFAULT_CONTACT_THRESHOLD_MM, ppm,
                           support=(r0, r1, c0, c1), frame_shape=(size, size))
        mag = rng.uniform(0.5, 4.0)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        shear = mag * np.array([np.cos(ang), np.sin(ang)])
        moved = deform_markers(rest, mask, shear, "translation", gel)
        moved = moved.moved(rng.normal(0.0, SHEAR_JITTER_PX, moved.xy.shape))
        pairs.append((rest, moved, mask))
        labels[i] = SHEAR_FORCE_PER_MM * shear * (1.0 + rng.normal(0.0, 0.08)) \
            + rng.normal(0.0, 0.02, 2)
    return pairs, labels


@dataclass(frozen=True, eq=False)
class SqueezeFrames(_Frozen):
    """The difference frames of one squeeze clip, held as one (T, H, W, 3)
    stack: a sequence of T ``DiffFrame`` views of it, so a consumer of the
    whole clip reads ``values`` without stacking the frames again."""

    values: np.ndarray          # (T, H, W, 3), values in [-1, 1]
    px_per_mm: float

    def __post_init__(self):
        v = _owned(self.values)
        if v.ndim != 4 or v.shape[-1] != 3:
            raise ValueError(f"values must be (T, H, W, 3), got {v.shape}")
        # every frame's DiffFrame check, once over the stack
        _clip_owned(v, -1.0, 1.0, "diff values")
        _check_positive(self.px_per_mm, "px_per_mm")
        self._keep("values", _Adopt(v))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, t: int) -> DiffFrame:
        return DiffFrame(_Adopt(self.values[t]), self.px_per_mm)


def synth_compression_clip(fruit, n_frames: int = 24, gel: GelModel = GelModel(),
                           rig: LightRig = default_rig(),
                           rng: np.random.Generator | None = None,
                           squeeze_mm: float = 3.0, resolution: int = 64,
                           noise_sigma: float = 0.0,
                           current_noise: float = CURRENT_NOISE):
    """Squeeze a fruit; return (``SqueezeFrames``, motor-current trace).

    The jaws command ``squeeze_mm`` of travel split between gel and fruit in
    series, so a stiffer fruit indents the gel faster (contact area grows
    faster) and raises the current faster. ``fruit`` needs ``stiffness_n_mm``,
    ``diameter_mm`` and ``fruit_type`` attributes.

    The clip renders as one (n_frames, H, W) stack: every gel depth is
    checked as ``indent_heightmap`` checks it, the fruit's dome and bumps are
    evaluated once, and the blur and the shading run over the whole stack,
    each only in the box the fruit reaches (``_gaussian_blur``, ``_shade``).
    The random draws stay in a per-frame loop in the order of rendering the
    frames one by one (frame t's current noise, then its pixel noise), so
    the frames and currents are bit-identical to that. Noise levels of 0
    draw nothing; negative or non-finite ones raise.
    """
    if n_frames < 4:
        raise ValueError("need at least 4 frames")
    _check_non_negative(noise_sigma, "noise_sigma")
    _check_non_negative(current_noise, "current_noise")
    rng = np.random.default_rng(0) if rng is None else rng
    kf = fruit.stiffness_n_mm
    kg = SERIES_STIFFNESS
    density, amplitude = TEXTURE_PARAMS.get(fruit.fruit_type, (0.0, 0.0))
    shape = FruitSurface(density, amplitude,
                         base_radius_mm=fruit.diameter_mm / 2.0,
                         phase_seed=int(rng.integers(1 << 31)))
    grid = (resolution, resolution)
    (xm, ym), ppm = _grid_mm(grid, gel)
    background = render_tactile(HeightMap(np.zeros(grid), ppm), rig, gel)
    s = squeeze_mm * np.arange(1, n_frames + 1) / n_frames
    x_gel = s * kf / (kg + kf)
    for depth in x_gel:
        _check_depth(shape, depth)
    currents = CURRENT_GAIN * (kg * x_gel) + CURRENT_OFFSET
    mid = gel.gel_size_mm / 2.0
    # the dome and its bumps are +0.0 off the cap of the deepest frame
    r0, r1, c0, c1 = _cap_box((mid, mid), shape.base_radius_mm, x_gel.max(),
                              ppm, resolution)
    pressed = np.zeros((n_frames,) + grid)
    pressed[:, r0:r1, c0:c1] = shape.penetration(xm[r0:r1, c0:c1] - mid,
                                                 ym[r0:r1, c0:c1] - mid,
                                                 x_gel[:, None, None])
    # the penetration stack is freed once blurred
    pressed = _gaussian_blur(pressed, gel.membrane_sigma_mm * ppm)
    img = _shade(pressed, ppm, rig, gel)
    for t in range(n_frames):
        if current_noise > 0:
            currents[t] += rng.normal(0.0, current_noise)
        if noise_sigma > 0:
            img[t] += rng.normal(0.0, noise_sigma, img.shape[1:])
    # every frame's TactileFrame check, once over the stack
    _clip_owned(np.clip(img, 0.0, 1.0, out=img), 0.0, 1.0, "pixel intensities")
    img -= background.pixels          # the difference stack, in place
    return SqueezeFrames(_Adopt(img), ppm), currents


def make_force_samples(n: int = 10000, rng: np.random.Generator | None = None,
                       noise: float = CURRENT_NOISE):
    """(current, force) samples from the linear motor model with current
    noise, forces uniform in [0.5, 8] N."""
    rng = np.random.default_rng(0) if rng is None else rng
    forces = rng.uniform(_FORCE_RANGE_N[0], _FORCE_RANGE_N[1], n)
    currents = CURRENT_GAIN * forces + CURRENT_OFFSET + rng.normal(0.0, noise, n)
    return currents, forces
