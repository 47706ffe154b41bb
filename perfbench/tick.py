"""The 15 Hz perception tick as the controller runs it, plus its inputs.

One tick: image diff, RGB-to-normal MLP, Poisson heightmap, contact mask,
slip rule over a trailing six-frame window, normal force from motor current
and shear force from the marker field. Every library call goes through its
module attribute, so a traced run sees each one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from gripsense import core, force, geometry, sim, slip

WINDOW = 6                  # trailing frames the slip rule looks at
FIELD_GRID = (24, 24)       # marker-field interpolation grid
SHEAR_N_PER_MM = 0.8        # shear force per mm of drag, as in sim.make_shear_dataset
NORMAL_N_PER_MM = sim.SERIES_STIFFNESS
PIXEL_NOISE = 0.01
MARKER_JITTER_PX = 0.3
SLIP_STEP_PX = 14.0         # object travel per slip frame, above the 10 px rule

# frames per phase of one scripted grasp
APPROACH, PRESS, HOLD, DRAG, SLIDE = 1, 6, 36, 26, 6
GRASP_FRAMES = APPROACH + PRESS + HOLD + DRAG + SLIDE
# grasp k uses entry k of each ladder; the seed sets direction, placement
# and noise, so quality figures compare like with like across seeds
RADIUS_MM = (7.0, 8.5)
DEPTH_MM = (1.1, 1.3)
SHEAR_MM = (1.5, 2.2)
SHEAR_DEG = (30.0, 210.0)


class TickFailed(Exception):
    """A tick raised; ``layer`` names the module whose call raised."""

    def __init__(self, layer: str):
        super().__init__(layer)
        self.layer = layer


@dataclass(frozen=True)
class Models:
    geometry: object
    normal_force: object
    shear: object


@dataclass(frozen=True)
class Sensor:
    background: core.TactileFrame
    rest: core.MarkerSet
    px_per_mm: float


@dataclass(frozen=True)
class Percept:
    height: core.HeightMap
    mask: slip.ContactMask
    slipping: bool
    normal_n: float
    shear_n: tuple


def new_history() -> deque:
    return deque(maxlen=WINDOW)


def tick(frame, markers, current, models: Models, sensor: Sensor,
         history: deque) -> Percept:
    """One perception tick; ``history`` carries (mask, markers) between ticks."""
    layer = "core"
    try:
        diff = core.diff_image(frame, sensor.background)
        layer = "geometry"
        normals = geometry.predict_normals(diff, models.geometry)
        height = geometry.integrate_normals(normals, sensor.px_per_mm)
        layer = "slip"
        mask = slip.segment_contact(height)
        history.append((mask, markers))
        slipping = False
        if len(history) >= 2:
            masks = [m for m, _ in history]
            tracks = [t for _, t in history]
            v_obj = slip.object_velocity(masks)[-1]
            v_mark = slip.marker_velocity(tracks, masks)[-1]
            slipping = slip.detect_slip(v_obj, v_mark)
        layer = "force"
        f_n = force.predict_normal_force(current, models.normal_force)
        field = force.interpolate_markers(sensor.rest, markers, FIELD_GRID)
        feat = force.shear_features(field, force.hhd_decompose(field), mask)
        shear = force.predict_shear(feat, models.shear)
    except ValueError as exc:
        raise TickFailed(layer) from exc
    return Percept(height, mask, slipping, f_n, shear)


# ---------------------------------------------------------------------------
# scripted grasps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScriptFrame:
    """One rendered frame with the ground truth the tick is scored against."""

    pixels: np.ndarray          # (H, W, 3) float32
    markers: core.MarkerSet
    current: float              # motor current, with sensor noise
    height: np.ndarray          # (H, W) float32, mm
    normal_n: float
    shear_n: np.ndarray         # (2,)
    slipping: bool
    contact: bool


def make_sensor(shape) -> Sensor:
    gel = sim.GelModel()
    ppm = shape[1] / gel.gel_size_mm
    flat = core.HeightMap(np.zeros(shape), ppm)
    return Sensor(sim.render_tactile(flat, sim.default_rig(), gel),
                  sim.marker_grid(gel, ppm, shape), ppm)


def grasp_script(rng: np.random.Generator, shape, n_grasps: int,
                 sensor: Sensor) -> list[ScriptFrame]:
    """Scripted grasps: approach, press ramp, hold, shear drag, then slip.

    Approach frames see no contact. During the drag the markers follow
    ``sim.deform_markers`` while the object stays put; during the slip the
    object slides SLIP_STEP_PX per frame and the markers stay dragged.
    """
    gel = sim.GelModel()
    rig = sim.default_rig()
    ppm = sensor.px_per_mm
    extent = np.array([shape[1], shape[0]]) / ppm
    frames = []
    for g in range(n_grasps):
        sphere = sim.Sphere(RADIUS_MM[g % len(RADIUS_MM)])
        depth = DEPTH_MM[g % len(DEPTH_MM)]
        angle = np.radians(SHEAR_DEG[g % len(SHEAR_DEG)])
        u = np.array([np.cos(angle), np.sin(angle)])
        shear_mm = SHEAR_MM[g % len(SHEAR_MM)] * u
        step_mm = SLIP_STEP_PX / ppm
        center = (extent / 2.0 - u * step_mm * SLIDE / 2.0
                  + rng.uniform(-0.5, 0.5, 2))
        phases = ([(0.0, 0.0, 0)] * APPROACH
                  + [(depth * (k + 1) / PRESS, 0.0, 0) for k in range(PRESS)]
                  + [(depth, 0.0, 0)] * HOLD
                  + [(depth, (k + 1) / DRAG, 0) for k in range(DRAG)]
                  + [(depth, 1.0, k + 1) for k in range(SLIDE)])
        drag_mask = None
        for d, drag, slid in phases:
            c = center + u * step_mm * slid
            raw = sim.indent_heightmap(sphere, tuple(c), d, shape, gel)
            img = sim.render_tactile(raw, rig, gel, PIXEL_NOISE, rng)
            mask = slip.ContactMask(raw.values > 0.3, 0.3, ppm)
            if drag > 0.0 and slid == 0:
                drag_mask = mask
            moved = sensor.rest
            if drag > 0.0:
                moved = sim.deform_markers(sensor.rest, drag_mask,
                                           drag * shear_mm, "translation", gel)
            moved = moved.moved(rng.normal(0.0, MARKER_JITTER_PX, moved.xy.shape))
            f_n = NORMAL_N_PER_MM * d
            current = (sim.CURRENT_GAIN * f_n + sim.CURRENT_OFFSET
                       + rng.normal(0.0, sim.CURRENT_NOISE))
            frames.append(ScriptFrame(
                img.pixels.astype(np.float32), moved, float(current),
                raw.values.astype(np.float32), f_n,
                SHEAR_N_PER_MM * drag * shear_mm, slid > 0, mask.area > 0))
    return frames
