"""The 15 Hz perception tick.

One tick: image diff, RGB-to-normal MLP, Poisson heightmap, contact mask,
normal force from motor current, shear force from the marker field, and the
slip rule's raw two-frame step from the previous frame to this one,
``slip.step_velocity`` as in harvest trials, with the markers both frames
hold (``slip.match_markers``). ``Perception`` holds the calibrated models,
the sensor's flat background and rest marker grid, and what the step reads
of the previous frame: its contact and markers.
Library calls go through their module attribute, so a tracer that re-binds
them sees each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, force, geometry, slip

@dataclass(frozen=True, eq=False)
class Percept:
    """What one tick reports.

    ``slip_speed_px`` is |v_obj - v_mark|, the speed the slip rule compared
    with its threshold; it is 0.0 on the first tick, which has no previous
    frame.
    """

    height: core.HeightMap
    mask: slip.ContactMask
    slipping: bool
    normal_n: float
    shear_n: tuple[float, float]
    slip_speed_px: float


class Perception:
    """The tick's models, sensor references and previous frame.

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
        # (mask, markers) of the last frame whose tick succeeded, or None
        self._previous = None

    def tick(self, frame: core.TactileFrame, markers: core.MarkerSet,
             current: float) -> Percept:
        """One perception tick on a frame, its markers and the motor current.

        The frame becomes the previous frame only when the whole tick
        succeeds, so a tick that raises ``ValueError`` (for example on fewer
        than 3 markers matched to the rest grid) leaves the previous frame
        as it was.
        """
        diff = core.diff_image(frame, self.background)
        normals = geometry.predict_normals(diff, self.geometry_model)
        height = geometry.integrate_normals(normals, self.background.px_per_mm)
        mask = slip.segment_contact(height)
        normal_n = force.predict_normal_force(current, self.normal_force_model)
        feature = force.build_shear_features([(self.rest, markers, mask)])[0]
        shear_n = force.predict_shear(feature, self.shear_model)
        slipping, speed = False, 0.0
        if self._previous is not None:
            prev_mask, prev_markers = self._previous
            v_obj, v_mark = slip.step_velocity(
                prev_mask, mask, *slip.match_markers(prev_markers, markers))
            slipping = slip.detect_slip(v_obj, v_mark)
            speed = float(np.linalg.norm(v_obj - v_mark))
        self._previous = (mask, markers)
        return Percept(height, mask, slipping, normal_n, shear_n, speed)
