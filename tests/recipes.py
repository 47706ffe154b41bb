"""The small model recipe of acceptance criterion 8, shared by the tests that
run the perception tick.

3 sphere presses at 64 px fit the RGB-to-normal model in at most 120
L-BFGS iterations, 2000 motor-current samples fit the normal-force line and
40 sheared presses fit the shear model. ``demos/time_perception_tick.py``
writes the same recipe out, since demos do not import tests.
"""

import numpy as np

from gripsense import force, geometry, sim


def criterion8_geometry_model():
    """The RGB-to-normal model of the recipe."""
    presses = sim.make_calibration_presses(3, rng=np.random.default_rng(0),
                                           resolution=64)
    return geometry.fit_rgb2normal(geometry.build_calibration_dataset(presses),
                                   epochs=120, learning_rate=0.1, seed=0)


def criterion8_shear_model():
    """The shear model of the recipe."""
    pairs, labels = sim.make_shear_dataset(40, rng=np.random.default_rng(2))
    return force.fit_shear_model(force.build_shear_features(pairs), labels)


def criterion8_models():
    """(geometry, normal-force, shear) models, in ``Perception``'s order."""
    nf = force.fit_normal_force(np.column_stack(
        sim.make_force_samples(2000, rng=np.random.default_rng(1))))
    return criterion8_geometry_model(), nf, criterion8_shear_model()
