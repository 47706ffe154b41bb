"""What the geometry stages of the tick hand on: exact bits, allocations and
the invariants of their typed outputs.

``core.diff_image``, ``geometry.predict_normals`` and
``geometry.integrate_normals`` each write their result once, into the array
they return, and check it in place. The digests pin their output bits on
scripted 240x320 grasp frames under single-threaded BLAS, a two-thread run
must reproduce them within a stated tolerance, the allocation budget bounds
each stage's transient memory, and the property test holds the invariants of
the typed outputs on saturated, black, constant and random frames.
"""

import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gripsense import geometry, sim
from gripsense.core import HeightMap, NormalMap, TactileFrame, diff_image
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


def _cases(model, frames) -> list:
    """(model, frame) for every ``_grasp`` frame under ``model``, then for
    the full press under ``model`` with an output bias of 12, which puts
    most pixels on the clamp."""
    loud = geometry.Rgb2NormalModel(model.w1, model.b1, model.w2, model.b2,
                                    model.w3, model.b3 + [12.0, 0.0])
    return [(model, f) for f in frames] + [(loud, frames[2])]


def _outputs() -> list:
    """[diff, normals, heights] rasters of every case under the criterion-8
    model."""
    background, frames = _grasp()
    ppm = background.px_per_mm
    out = []
    for m, frame in _cases(criterion8_geometry_model(), frames):
        diff = diff_image(frame, background)
        normals = geometry.predict_normals(diff, m)
        height = geometry.integrate_normals(normals, ppm)
        out.append([diff.values, normals.values, height.values])
    return out


def _run_outputs(path, threads: int) -> list:
    """``_outputs`` computed in a subprocess with ``threads`` BLAS threads,
    handed back through the .npz file ``path``."""
    src = os.path.dirname(os.path.dirname(geometry.__file__))
    n = str(threads)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=n,
               OMP_NUM_THREADS=n, MKL_NUM_THREADS=n)
    subprocess.run([sys.executable, __file__, str(path)], env=env, check=True)
    with np.load(path) as saved:
        flat = [saved[f"arr_{k}"] for k in range(len(saved.files))]
    return [flat[k:k + 3] for k in range(0, len(flat), 3)]


@pytest.fixture(scope="module")
def single_thread_outputs(tmp_path_factory):
    return _run_outputs(tmp_path_factory.mktemp("blas") / "one.npz", 1)


# SHA-256 of the diff, normal and height rasters of each of ``_cases``:
# approach, half press, full press, saturated frame and the loud full press.
# Computed with single-threaded BLAS (numpy 2.4, OpenBLAS 0.3.31 on x86-64
# Haswell kernels); the thread count changes the summation order of the
# Poisson solve's products, so the test pins it. The heights are solved in
# each frame's contact window (all zero on the approach frame, the whole
# frame on the saturated one); ``test_windowed_heights_match_the_cropped_solve``
# ties them to the solve of the window's own normal map.
DIGESTS = [
    ["3e5e93efa35ffe8507a431138b4aa2691160b5417157e986eda922d0859b4edd",
     "c96cdbe6bcc5044f3029aa79c4cae6ea63aa66b458f06b6c654c05433a292d5d",
     "34c69899504b36f13e8b22120cf0fd894e61fcd6b046fb8535b79cc491fa3b3f"],
    ["24e86794aac04f6548d259490d9576217b93ab34b7d437478acc24ed64a5473c",
     "d0a8b7783b79e51afe3117b397ed79c99bce5380ff04ac5027e35c552f0420ff",
     "16d56eeef8337ac9f134c587440ff7f684bcbc3a905f77aa249ecec53d651d0e"],
    ["aee268aa42f68390d08727becd191906d97587104edc77a6b49d88463b62f78d",
     "8aef8f6dc58da19cf27268251337cfcf13d12d8aa9bcd53a8ed7567097431d81",
     "d73a50883b27825dcb039b464bb4cfcec2a40ecab55c2a5aad2c13846768b394"],
    ["f75e1c910f3f4a07df903896c0ec0a51d4bdd6aa928eb59af90495dfb5e31cb3",
     "24bc830a700a79489c1e3f1c9f091d34611ca111f0d0a053d2ec2c595e187884",
     "fe548950c0e4dc09acfe6ee266907a7f92d4f9cd017c142a746e87e7107a4e16"],
    ["aee268aa42f68390d08727becd191906d97587104edc77a6b49d88463b62f78d",
     "7248aeb70100d09ab1138d2e8bab7ca4b9885ce4843fefa2fe20d9906fa1fa1e",
     "11b4895b9bf6f53eeef48731e61bb00a04bc0e54e7a4502ae8f7f2e71e585ae3"],
]


def test_outputs_match_pinned_digests(single_thread_outputs):
    def sha(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    assert [[sha(a) for a in case] for case in single_thread_outputs] == DIGESTS


# Under one and two BLAS threads, diff and normals agree bit for bit and the
# heights to this tolerance relative to each frame's largest height: only the
# Poisson solve's products change their summation order.
CROSS_THREAD_RTOL = 1e-12


def test_outputs_agree_across_blas_threads(single_thread_outputs, tmp_path):
    two = _run_outputs(tmp_path / "two.npz", 2)
    assert len(two) == len(single_thread_outputs)
    for (d1, n1, h1), (d2, n2, h2) in zip(single_thread_outputs, two):
        assert d1.tobytes() == d2.tobytes()
        assert n1.tobytes() == n2.tobytes()
        assert np.max(np.abs(h1 - h2)) <= CROSS_THREAD_RTOL * np.max(h1)


def test_windowed_heights_match_the_cropped_solve(model, grasp):
    """The heights of every digest case are ``integrate_normals`` of the
    contact window's own ``NormalMap``, padded with its edge value. The
    approach frame opens no window and reads exactly 0; the saturated
    frame's window is the whole frame."""
    background, frames = grasp
    ppm = background.px_per_mm
    h, w = SHAPE
    supports = []
    for m, frame in _cases(model, frames):
        normals = geometry.predict_normals(diff_image(frame, background), m)
        got = geometry.integrate_normals(normals, ppm).values
        r0, r1, c0, c1 = normals.support
        supports.append(normals.support)
        if r1 - r0 < 3 or c1 - c0 < 3:
            assert np.array_equal(got, np.zeros(SHAPE))
            continue
        crop = NormalMap(normals.values[r0:r1, c0:c1])
        want = np.pad(geometry.integrate_normals(crop, ppm).values,
                      ((r0, h - r1), (c0, w - c1)), mode="edge")
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
    approach, half, full, saturated, loud = supports
    assert approach == (0, 0, 0, 0) and saturated == (0, h, 0, w)
    assert half != (0, h, 0, w) and loud == full


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
    np.savez(sys.argv[1], *[a for case in _outputs() for a in case])
