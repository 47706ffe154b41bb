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

A squeeze clip renders as one (T, H, W) stack: the fruit's dome and bump
texture are evaluated once per clip, and the blur and the shading run over
all frames at once, with each pixel's arithmetic unchanged. Its random draws
stay per frame and in the same order, the current noise and then the pixel
noise, so a clip is bit-identical to rendering its frames one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (DiffFrame, HeightMap, MarkerSet, TactileFrame, _Adopt,
                   _clip_owned, diff_image)
from .slip import DEFAULT_CONTACT_THRESHOLD_MM, ContactMask

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
_SHEAR_JITTER_PX = 0.3
_SHEAR_FORCE_PER_MM = 0.8

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
        if not self.membrane_sigma_mm > 0:
            raise ValueError("membrane_sigma_mm must be positive")
        if not self.gel_size_mm > 0:
            raise ValueError("gel_size_mm must be positive")
        if self.marker_rows < 1 or self.marker_cols < 1:
            raise ValueError("marker grid must be at least 1x1")


@dataclass(frozen=True)
class LightRig:
    """Directional lights: unit directions toward the light, RGB intensities."""

    directions: np.ndarray      # (L, 3)
    intensities: np.ndarray     # (L, 3)

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=np.float64).reshape(-1, 3)
        i = np.asarray(self.intensities, dtype=np.float64).reshape(-1, 3)
        if d.shape[0] != i.shape[0]:
            raise ValueError("directions and intensities count mismatch")
        norms = np.linalg.norm(d, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("light directions must be unit vectors")
        if np.min(d[:, 2]) <= 0:
            raise ValueError("light directions must have positive z")
        d = d.copy(); d.setflags(write=False)
        i = i.copy(); i.setflags(write=False)
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "intensities", i)


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
        if not self.radius_mm > 0:
            raise ValueError("sphere radius must be positive")

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
        if self.base_diameter_mm <= 0 or self.height_mm <= 0:
            raise ValueError("pyramid dimensions must be positive")

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
        if self.base_radius_mm <= 0:
            raise ValueError("base radius must be positive")
        if self.bump_density < 0 or self.bump_amplitude_mm < 0:
            raise ValueError("bump parameters must be non-negative")

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

    fruit: object | None = None         # FruitModel from the harvest module
    pose: str = "top"
    load_g: float = 0.0

    def __post_init__(self):
        if self.pose not in ("top", "side"):
            raise ValueError(f"unknown grasp pose {self.pose!r}")
        if self.load_g < 0:
            raise ValueError("external load must be non-negative")


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


def _gaussian_blur(x: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of the last two axes of ``x`` with zero
    padding; leading axes index independent rasters.

    Each raster is bit-equal to
    ``scipy.ndimage.gaussian_filter(raster, sigma, mode="constant")``: the
    same normalized kernel exp(-t^2 / 2 sigma^2) of radius int(4 sigma + 0.5),
    axis -2 before axis -1, and per output pixel the same summation order,
    x[i] w0 and then (x[i - j] + x[i + j]) w_j added for j from the radius
    down to 1.
    """
    radius = int(4.0 * sigma + 0.5)
    taps = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    taps = taps / taps.sum()
    for _ in range(2):      # axis -2, then axis -2 of the transpose: axis -1
        n = x.shape[-2]
        # row-major whatever x's layout, so every pass runs on contiguous rows
        padded = np.zeros(x.shape[:-2] + (n + 2 * radius, x.shape[-1]))
        padded[..., radius:radius + n, :] = x
        out = padded[..., radius:radius + n, :] * taps[radius]
        pair = np.empty_like(out)
        for j in range(radius, 0, -1):
            np.add(padded[..., radius - j:radius - j + n, :],
                   padded[..., radius + j:radius + j + n, :], out=pair)
            pair *= taps[radius + j]
            out += pair
        x = out.swapaxes(-1, -2)
    return np.ascontiguousarray(x)


def press(raw: HeightMap, gel: GelModel = GelModel()) -> HeightMap:
    """Membrane smoothing: Gaussian blur at the membrane scale."""
    sigma_px = gel.membrane_sigma_mm * raw.px_per_mm
    if sigma_px <= 0:
        return HeightMap(raw.values.copy(), raw.px_per_mm)
    return HeightMap(_gaussian_blur(raw.values, sigma_px), raw.px_per_mm)


def _normals(values: np.ndarray, px_per_mm: float) -> np.ndarray:
    """(..., H, W, 3) unit normals of heights (..., H, W) in mm."""
    gy, gx = np.gradient(values, axis=(-2, -1))   # mm per px
    gx = gx * px_per_mm                           # mm per mm
    gy = gy * px_per_mm
    n = np.stack([-gx, -gy, np.ones_like(gx)], axis=-1)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    return n


def surface_normals(h: HeightMap) -> np.ndarray:
    """(H, W, 3) unit normals from heightmap gradients, z toward the camera."""
    return _normals(h.values, h.px_per_mm)


def _shade(values: np.ndarray, px_per_mm: float, rig: LightRig,
           gel: GelModel) -> np.ndarray:
    """Noise-free, unclipped (..., H, W, 3) image of heights (..., H, W):
    per channel, background + sum over lights of intensity * max(0, n . l).

    Each light's n . l is one product over all pixels of all rasters, and
    each channel is accumulated in place, light after light.
    """
    n = _normals(values, px_per_mm).reshape(-1, 3)
    img = np.empty(values.shape + (3,))
    img[:] = np.asarray(gel.background_color)
    for ldir, lint in zip(rig.directions, rig.intensities):
        shade = np.maximum(n @ ldir, 0.0).reshape(values.shape)
        for c in range(3):
            img[..., c] += shade * lint[c]
    return img


def render_tactile(h: HeightMap, rig: LightRig = default_rig(),
                   gel: GelModel = GelModel(), noise_sigma: float = 0.0,
                   rng: np.random.Generator | None = None,
                   timestamp: float = 0.0) -> TactileFrame:
    """Lambertian shading of the heightmap under the rig, plus pixel noise.

    Per channel: background + sum over lights of intensity * max(0, n . l).
    Deterministic for identical inputs; noise requires an explicit ``rng``.
    """
    img = _shade(h.values, h.px_per_mm, rig, gel)
    if noise_sigma > 0.0:
        if rng is None:
            raise ValueError("pixel noise requires an explicit rng")
        img += rng.normal(0.0, noise_sigma, img.shape)
    return TactileFrame(np.clip(img, 0.0, 1.0, out=img), h.px_per_mm, timestamp)


def marker_grid(gel: GelModel, px_per_mm: float, frame: tuple[int, int]) -> MarkerSet:
    """Rest marker positions: a uniform grid with one-pitch margins."""
    h, w = frame
    xs = (np.arange(gel.marker_cols) + 1.0) * w / (gel.marker_cols + 1.0)
    ys = (np.arange(gel.marker_rows) + 1.0) * h / (gel.marker_rows + 1.0)
    gx, gy = np.meshgrid(xs, ys)
    xy = np.column_stack([gx.ravel(), gy.ravel()])
    ids = np.arange(xy.shape[0], dtype=np.int64)
    return MarkerSet(ids, xy, gel.marker_rows, gel.marker_cols,
                     float(w - 1), float(h - 1))


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
    unbounded = MarkerSet(rest.ids, rest.xy, rest.grid_rows, rest.grid_cols)
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


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlipSequence:
    """One simulated grasp trial: detector inputs plus exact ground truth.

    ``masks`` and ``tracks`` are what the detector sees (noisy); the object
    track and labels are exact. Labels are True exactly on frames where the
    true object-minus-marker speed exceeds the slip threshold, so detector
    scores measure perception noise and smoothing lag, nothing else.
    """

    masks: list
    tracks: list
    object_track: np.ndarray    # (T, 2) exact centre, px
    marker_speed: np.ndarray    # (T,) exact jitter-free marker speed, px/frame
    labels: np.ndarray          # (T,) bool
    true_diff: np.ndarray       # (T,) exact speed difference, px/frame
    phase2_start: int
    phase3_start: int | None
    px_per_mm: float
    load_g: float
    pose: str

    def __len__(self) -> int:
        return len(self.masks)


def synth_slip_sequence(scene: GraspScene, n_frames: int = 200,
                        gel: GelModel = GelModel(),
                        rng: np.random.Generator | None = None,
                        px_per_mm: float = 16.0,
                        threshold_px: float = 10.0,
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
    above 0.3 mm. The noise is drawn over the whole frame, but the cap is
    evaluated only in the box around its support, where it is not zero;
    ``depth_mm`` must lie in (0.3, sphere radius] so that the cap reaches
    the threshold and that support is a true spherical cap.
    """
    if n_frames < 10:
        raise ValueError("need at least 10 frames")
    sphere_r = (scene.fruit.diameter_mm / 2.0
                if scene.fruit is not None else 16.0)
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
    a_px = cap_r_mm * px_per_mm

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
    # pixel-index reach of the cap around its centre, plus a guard margin
    # far wider than the rounding of the pixel-centre coordinates
    reach = a_px + 2.0

    masks, tracks = [], []
    marker_pos = rest.xy.copy()
    for t in range(n_frames):
        # the penetration is +0.0 off the cap, where pen + noise is the noise
        # itself; so the full-frame draw keeps the stream, and only the box
        # around the cap adds the penetration
        noise = rng.normal(0.0, mask_noise_mm, (size_px, size_px))
        values = noise > DEFAULT_CONTACT_THRESHOLD_MM
        cx, cy = centers_mm[t] * px_per_mm - 0.5
        c0, c1 = max(int(cx - reach), 0), min(int(cx + reach) + 2, size_px)
        r0, r1 = max(int(cy - reach), 0), min(int(cy + reach) + 2, size_px)
        pen = sphere.penetration(xs[None, c0:c1] - centers_mm[t, 0],
                                 xs[r0:r1, None] - centers_mm[t, 1], depth_mm)
        values[r0:r1, c0:c1] = (pen + noise[r0:r1, c0:c1]
                                > DEFAULT_CONTACT_THRESHOLD_MM)
        masks.append(ContactMask(values, DEFAULT_CONTACT_THRESHOLD_MM, px_per_mm))
        if t > 0:
            marker_pos = marker_pos + v_mark[t] * direction
        jitter = rng.normal(0.0, marker_jitter_px, marker_pos.shape)
        tracks.append(MarkerSet(rest.ids, np.clip(marker_pos + jitter, 0, size_px - 1),
                                rest.grid_rows, rest.grid_cols,
                                float(size_px - 1), float(size_px - 1)))
    return SlipSequence(masks, tracks, centers_mm * px_per_mm, v_mark, labels,
                        true_diff, t2, t3, px_per_mm, load, scene.pose)


def make_slip_benchmark(gel: GelModel = GelModel(), seed: int = 0,
                        poses: Sequence[str] = ("top", "side"),
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
                out.append(synth_slip_sequence(scene, n_frames, gel, rng, **kwargs))
    return out


def make_calibration_presses(n: int = 8, sphere_radius_mm: float = 5.0,
                             gel: GelModel = GelModel(),
                             rig: LightRig = default_rig(),
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
    rng = np.random.default_rng(0) if rng is None else rng
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


def make_shear_dataset(n: int = 300, gel: GelModel = GelModel(),
                       rng: np.random.Generator | None = None,
                       mask_px: int = 240):
    """Translation-shear samples with force labels for the shear regression.

    Each sample presses a random sphere into the gel, drags the contact by a
    random shear, and labels it with a force proportional to the shear plus
    multiplicative (8%) and small additive noise; marker positions carry
    tracking jitter. Returns (list of (rest, moved, mask), labels (n, 2) N).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(0) if rng is None else rng
    ppm = mask_px / gel.gel_size_mm
    xs = (np.arange(mask_px) + 0.5) / ppm
    xm, ym = np.meshgrid(xs, xs)
    rest = marker_grid(gel, ppm, (mask_px, mask_px))
    pairs, labels = [], np.empty((n, 2))
    for i in range(n):
        radius = rng.uniform(10.0, 20.0)
        depth = rng.uniform(0.8, 1.5)
        cx, cy = gel.gel_size_mm / 2.0 + rng.uniform(-2.0, 2.0, 2)
        pen = Sphere(radius).penetration(xm - cx, ym - cy, depth)
        mask = ContactMask(pen > DEFAULT_CONTACT_THRESHOLD_MM,
                           DEFAULT_CONTACT_THRESHOLD_MM, ppm)
        mag = rng.uniform(0.5, 4.0)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        shear = mag * np.array([np.cos(ang), np.sin(ang)])
        moved = deform_markers(rest, mask, shear, "translation", gel)
        moved = moved.moved(rng.normal(0.0, _SHEAR_JITTER_PX, moved.xy.shape))
        pairs.append((rest, moved, mask))
        labels[i] = _SHEAR_FORCE_PER_MM * shear * (1.0 + rng.normal(0.0, 0.08)) \
            + rng.normal(0.0, 0.02, 2)
    return pairs, labels


def synth_compression_clip(fruit, n_frames: int = 24, gel: GelModel = GelModel(),
                           rig: LightRig = default_rig(),
                           rng: np.random.Generator | None = None,
                           squeeze_mm: float = 3.0, resolution: int = 64,
                           noise_sigma: float = 0.0,
                           current_noise: float = CURRENT_NOISE):
    """Squeeze a fruit; return (DiffFrames, motor-current trace).

    The jaws command ``squeeze_mm`` of travel split between gel and fruit in
    series, so a stiffer fruit indents the gel faster (contact area grows
    faster) and raises the current faster. ``fruit`` needs ``stiffness_n_mm``,
    ``diameter_mm`` and ``fruit_type`` attributes.

    The clip renders as one (n_frames, H, W) stack: every gel depth is
    checked as ``indent_heightmap`` checks it, the fruit's dome and bumps are
    evaluated once, and the blur and the shading run over the whole stack.
    The random draws stay in a per-frame loop in the order of rendering the
    frames one by one (frame t's current noise, then its pixel noise), so
    the frames and currents are bit-identical to that.
    """
    if n_frames < 4:
        raise ValueError("need at least 4 frames")
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
    pen = shape.penetration(xm - mid, ym - mid, x_gel[:, None, None])
    img = _shade(_gaussian_blur(pen, gel.membrane_sigma_mm * ppm), ppm, rig, gel)
    for t in range(n_frames):
        if current_noise > 0:
            currents[t] += rng.normal(0.0, current_noise)
        if noise_sigma > 0:
            img[t] += rng.normal(0.0, noise_sigma, img.shape[1:])
    # every frame's TactileFrame check, once over the stack
    _clip_owned(np.clip(img, 0.0, 1.0, out=img), 0.0, 1.0, "pixel intensities")
    diff = np.subtract(img, background.pixels)
    frames = [DiffFrame(_Adopt(d), ppm) for d in diff]
    return frames, currents


def make_force_samples(n: int = 10000, rng: np.random.Generator | None = None,
                       noise: float = CURRENT_NOISE):
    """(current, force) samples from the linear motor model with current
    noise, forces uniform in [0.5, 8] N."""
    rng = np.random.default_rng(0) if rng is None else rng
    forces = rng.uniform(_FORCE_RANGE_N[0], _FORCE_RANGE_N[1], n)
    currents = CURRENT_GAIN * forces + CURRENT_OFFSET + rng.normal(0.0, noise, n)
    return currents, forces
