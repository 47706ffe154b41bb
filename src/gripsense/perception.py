"""The 15 Hz perception tick.

One tick: image diff, RGB-to-normal MLP, Poisson heightmap, contact mask,
normal force from motor current, shear force from the marker field, and the
slip rule's raw two-frame step from the previous frame to this one, run by
``slip.newest_velocity`` as in harvest trials. ``Perception`` holds the
calibrated models, the sensor's flat background and rest marker grid, and
the slip history the rule reads: the previous frame's contact and markers.
Library calls go through their module attribute, so a tracer that re-binds
them sees each.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import core, force, geometry, slip

@dataclass(frozen=True, eq=False)
class Percept:
    """What one tick reports.

    ``slip_speed_px`` is |v_obj - v_mark|, the speed the slip rule compared
    with its threshold; it is 0.0 before the history holds two frames.
    """

    height: core.HeightMap
    mask: slip.ContactMask
    slipping: bool
    normal_n: float
    shear_n: tuple[float, float]
    slip_speed_px: float


class Perception:
    """The tick's models, sensor references and slip history.

    ``background`` is the frame of the untouched gel, and its pitch is the
    pitch of every heightmap; ``rest`` is the marker grid at rest.
    """

    def __init__(self, geometry_model, normal_force_model, shear_model,
                 background: core.TactileFrame, rest: core.MarkerSet):
        self.geometry_model = geometry_model
        self.normal_force_model = normal_force_model
        self.shear_model = shear_model
        self.background = background
        self.rest = rest
        # (mask, markers) of the frames before the newest that the rule reads
        self._history = deque(maxlen=slip.TICK_WINDOW - 1)

    def tick(self, frame: core.TactileFrame, markers: core.MarkerSet,
             current: float) -> Percept:
        """One perception tick on a frame, its markers and the motor current.

        The frame joins the slip history only when the whole tick succeeds,
        so a tick that raises ``ValueError`` (for example on fewer than 3
        markers matched to the rest grid) leaves the history as it was.
        """
        diff = core.diff_image(frame, self.background)
        normals = geometry.predict_normals(diff, self.geometry_model)
        height = geometry.integrate_normals(normals, self.background.px_per_mm)
        mask = slip.segment_contact(height)
        normal_n = force.predict_normal_force(current, self.normal_force_model)
        feature = force.build_shear_features([(self.rest, markers, mask)])[0]
        shear_n = force.predict_shear(feature, self.shear_model)
        window = [*self._history, (mask, markers)]
        slipping, speed = False, 0.0
        if len(window) >= 2:
            masks, tracks = zip(*window)
            v_obj, v_mark = slip.newest_velocity(
                masks, slip.matched_positions(tracks))
            slipping = slip.detect_slip(v_obj, v_mark)
            speed = float(np.linalg.norm(v_obj - v_mark))
        self._history.append((mask, markers))
        return Percept(height, mask, slipping, normal_n, shear_n, speed)
