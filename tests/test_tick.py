"""The criterion-8 perception tick over windows that hold a no-contact frame.

A grasp sees no contact before the press. Every frame must get a finite
heightmap, slip decision and forces, also while a frame without contact sits
in its six-frame slip window. A frame whose contact is empty on the 24x24
marker-field grid has no region to take shear features from, and its shear
force is exactly zero.
"""

from collections import deque

import numpy as np
import pytest

from gripsense import core, force, geometry, sim, slip
from gripsense.core import HeightMap

WINDOW = 6
FIELD = (24, 24)
SHAPE = (240, 320)
DEPTH_MM = 1.1
PRESS = 6


@pytest.fixture(scope="module")
def stack():
    presses = sim.make_calibration_presses(3, rng=np.random.default_rng(0),
                                           resolution=64)
    geo = geometry.fit_rgb2normal(geometry.build_calibration_dataset(presses),
                                  epochs=120, learning_rate=0.1, seed=0)
    nf = force.fit_normal_force(np.column_stack(
        sim.make_force_samples(2000, rng=np.random.default_rng(1))))
    pairs, labels = sim.make_shear_dataset(40, rng=np.random.default_rng(2))
    sh = force.fit_shear_model(force.build_shear_features(pairs), labels)
    return geo, nf, sh


# A held press, the approach frame, then the press ramp.
DEPTHS = [DEPTH_MM, 0.0] + [DEPTH_MM * (k + 1) / PRESS for k in range(PRESS)]


def _grasp(rest, ppm):
    """The frames of ``DEPTHS``, rendered: (image, markers, motor current)."""
    gel, rig = sim.GelModel(), sim.default_rig()
    rng = np.random.default_rng(11)
    sphere = sim.Sphere(7.0)
    center = (SHAPE[1] / ppm / 2.0, SHAPE[0] / ppm / 2.0)
    frames = []
    for d in DEPTHS:
        raw = sim.indent_heightmap(sphere, center, d, SHAPE, gel)
        img = sim.render_tactile(raw, rig, gel, 0.01, rng)
        markers = rest.moved(rng.normal(0.0, 0.3, rest.xy.shape))
        current = sim.CURRENT_GAIN * sim.SERIES_STIFFNESS * d + sim.CURRENT_OFFSET
        frames.append((img, markers, current))
    return frames


def test_contact_ticks_survive_a_no_contact_frame_in_the_window(stack):
    geo, nf, sh = stack
    gel = sim.GelModel()
    ppm = SHAPE[1] / gel.gel_size_mm
    background = sim.render_tactile(HeightMap(np.zeros(SHAPE), ppm),
                                    sim.default_rig(), gel)
    rest = sim.marker_grid(gel, ppm, SHAPE)
    history = deque(maxlen=WINDOW)

    def tick(img, markers, current):
        diff = core.diff_image(img, background)
        height = geometry.integrate_normals(geometry.predict_normals(diff, geo), ppm)
        mask = slip.segment_contact(height)
        history.append((mask, markers))
        v_obj = v_mark = np.zeros(2)
        if len(history) > 1:
            masks = [m for m, _ in history]
            v_obj = slip.object_velocity(masks)[-1]
            v_mark = slip.marker_velocity([t for _, t in history], masks)[-1]
        flag = slip.detect_slip(v_obj, v_mark, 10.0)
        f_n = force.predict_normal_force(current, nf)
        field = force.interpolate_markers(rest, markers, FIELD)
        feat = force.shear_features(field, force.hhd_decompose(field), mask)
        return height, v_obj, v_mark, flag, f_n, force.predict_shear(feat, sh)

    # The approach frame and the first press frame, 1.1/6 mm deep, are
    # shallower than the contact threshold.
    no_contact = [d <= slip.DEFAULT_CONTACT_THRESHOLD_MM for d in DEPTHS]
    gap_windows = no_shear = 0
    for k, (img, markers, current) in enumerate(_grasp(rest, ppm)):
        height, v_obj, v_mark, flag, f_n, shear = tick(img, markers, current)
        mask = history[-1][0]
        assert (mask.area == 0) == no_contact[k]
        assert np.all(np.isfinite(height.values))
        assert np.all(np.isfinite(v_obj)) and np.all(np.isfinite(v_mark))
        assert isinstance(flag, bool)
        assert np.isfinite(f_n) and np.all(np.isfinite(shear))
        # Shear features read the mask on the field grid, where a contact of
        # a few dozen pixels can vanish as well.
        if mask.resampled(FIELD).area == 0:
            assert shear == (0.0, 0.0)
            no_shear += 1
        gap_windows += any(m.area == 0 for m, _ in history)
    assert no_shear == 2                        # approach and first press frame
    assert gap_windows == sum(any(no_contact[max(0, k - WINDOW + 1):k + 1])
                              for k in range(len(DEPTHS)))
