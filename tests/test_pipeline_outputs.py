"""What the geometry stages of the tick hand on: exact bits, allocations and
the invariants of their typed outputs.

``core.diff_image``, ``geometry.predict_normals`` and
``geometry.integrate_normals`` each write their result once, into the array
they return, and check it in place. The digests pin their output bits on
scripted 240x320 grasp frames, the allocation budget bounds each stage's
transient memory, and the property test holds the invariants of the typed
outputs on saturated, black, constant and random frames.
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gripsense import geometry, sim
from gripsense.core import HeightMap, TactileFrame, diff_image
from recipes import criterion8_geometry_model

SHAPE = (240, 320)


def _grasp():
    """Background, then approach, half and full press of a 7 mm sphere with
    sensor noise, and a saturated frame, at 240x320."""
    gel, rig = sim.GelModel(), sim.default_rig()
    ppm = SHAPE[1] / gel.gel_size_mm
    background = sim.render_tactile(HeightMap(np.zeros(SHAPE), ppm), rig, gel)
    noise = np.random.default_rng(14)
    frames = []
    for depth in (0.0, 0.6, 1.2):
        raw = sim.indent_heightmap(sim.Sphere(7.0), (16.5, 11.0), depth,
                                   SHAPE, gel)
        frames.append(sim.render_tactile(raw, rig, gel, 0.01, noise))
    frames.append(TactileFrame(np.ones(SHAPE + (3,)), ppm))
    return background, frames


def _digests() -> list:
    """SHA-256 of the diff, normal and height rasters of every ``_grasp``
    frame under the criterion-8 model, and of the full press under the same
    model with an output bias of 12, which puts most pixels on the clamp."""
    def sha(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    model = criterion8_geometry_model()
    loud = geometry.Rgb2NormalModel(model.w1, model.b1, model.w2, model.b2,
                                    model.w3, model.b3 + [12.0, 0.0])
    background, frames = _grasp()
    ppm = background.px_per_mm
    out = []
    for m, frame in [(model, f) for f in frames] + [(loud, frames[2])]:
        diff = diff_image(frame, background)
        normals = geometry.predict_normals(diff, m)
        height = geometry.integrate_normals(normals, ppm)
        out.append([sha(diff.values), sha(normals.values), sha(height.values)])
    return out


# Computed with single-threaded BLAS (numpy 2.4, OpenBLAS 0.3.31 on x86-64
# Haswell kernels); the thread count changes the summation order of the
# Poisson solve's products, so the test pins it.
DIGESTS = [
    ["3e5e93efa35ffe8507a431138b4aa2691160b5417157e986eda922d0859b4edd",
     "c96cdbe6bcc5044f3029aa79c4cae6ea63aa66b458f06b6c654c05433a292d5d",
     "aacd4c6d4bae00af5a988a5b375fe864936dce5a32e1371a233bae423b9560d8"],
    ["24e86794aac04f6548d259490d9576217b93ab34b7d437478acc24ed64a5473c",
     "d0a8b7783b79e51afe3117b397ed79c99bce5380ff04ac5027e35c552f0420ff",
     "1374cf106856870a6074f2374b937827cb0f4ce45708f931207ac62d0bd83660"],
    ["aee268aa42f68390d08727becd191906d97587104edc77a6b49d88463b62f78d",
     "8aef8f6dc58da19cf27268251337cfcf13d12d8aa9bcd53a8ed7567097431d81",
     "1a42fc66ab179a92d8d7632460b5603dabe4c64fb45ba0451d8b80ed4b134b45"],
    ["f75e1c910f3f4a07df903896c0ec0a51d4bdd6aa928eb59af90495dfb5e31cb3",
     "24bc830a700a79489c1e3f1c9f091d34611ca111f0d0a053d2ec2c595e187884",
     "fe548950c0e4dc09acfe6ee266907a7f92d4f9cd017c142a746e87e7107a4e16"],
    ["aee268aa42f68390d08727becd191906d97587104edc77a6b49d88463b62f78d",
     "7248aeb70100d09ab1138d2e8bab7ca4b9885ce4843fefa2fe20d9906fa1fa1e",
     "c3d90ddb79495dc71d9cfb9376a8971bc6c46a0e880721b1ce1b220c255a60dd"],
]


def test_outputs_match_pinned_digests():
    src = os.path.dirname(os.path.dirname(geometry.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == DIGESTS


@pytest.fixture(scope="module")
def model():
    return criterion8_geometry_model()


@pytest.fixture(scope="module")
def grasp():
    return _grasp()


# The most a stage may hold at once while it runs, its output included, as a
# multiple of the output's bytes. numpy reports its array allocations to
# tracemalloc, so the figure is the same on every run.
ALLOCATION_BUDGET = {"diff_image": 1.1, "predict_normals": 3.0,
                     "integrate_normals": 5.5}


@pytest.mark.parametrize("stage", sorted(ALLOCATION_BUDGET))
def test_stage_allocation_within_budget(model, grasp, stage):
    background, frames = grasp
    ppm = background.px_per_mm
    # the full press; the first prediction also builds the raster's
    # expansion planes, which later ticks reuse
    diff = diff_image(frames[2], background)
    normals = geometry.predict_normals(diff, model)
    run = {"diff_image": lambda: diff_image(frames[2], background),
           "predict_normals": lambda: geometry.predict_normals(diff, model),
           "integrate_normals": lambda: geometry.integrate_normals(normals, ppm),
           }[stage]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= ALLOCATION_BUDGET[stage] * out.values.nbytes


def _frame(kind, shape, level, seed):
    r = np.random.default_rng(seed)
    pixels = {"saturated": np.ones(shape + (3,)),
              "black": np.zeros(shape + (3,)),
              "constant": np.full(shape + (3,), level),
              "random": r.random(shape + (3,))}[kind]
    return TactileFrame(pixels, 4.0, 0.5)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["saturated", "black", "constant", "random"]),
       st.integers(8, 40), st.integers(8, 40), st.floats(0.0, 1.0),
       st.integers(0, 10_000))
@example("random", 8, 8, 0.5, 0)
@example("saturated", 8, 8, 1.0, 1)
def test_pipeline_outputs_hold_their_invariants(model, kind, h, w, level, seed):
    background = TactileFrame(np.random.default_rng(seed + 1).uniform(
        0.2, 0.8, (h, w, 3)), 4.0)
    contact = _frame(kind, (h, w), level, seed)
    diff = diff_image(contact, background)
    normals = geometry.predict_normals(diff, model)
    height = geometry.integrate_normals(normals, 4.0)
    for out, inputs in ((diff.values, (contact.pixels, background.pixels)),
                        (normals.values, (diff.values, model._raster)),
                        (height.values, (normals.values,))):
        assert not out.flags.writeable
        assert not any(np.shares_memory(out, a) for a in inputs)
    n = normals.values
    assert np.max(np.abs(np.linalg.norm(n, axis=2) - 1.0)) <= 1e-6
    assert n[:, :, 2].min() > 0
    assert np.all(np.isfinite(height.values))
    assert height.values.min() == 0.0


if __name__ == "__main__":
    print(json.dumps(_digests()))
