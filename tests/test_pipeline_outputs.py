"""What the geometry stages of the tick hand on: exact bits, allocations and
the invariants of their typed outputs.

``core.diff_image``, ``geometry.predict_normals`` and
``geometry.integrate_normals`` each write their result once, into the array
they return, and check it in place. The digests pin their output bits on
scripted 240x320 grasp frames, and those of the marker-field outputs of one
dragged marker set, under single-threaded BLAS; a two-thread run must
reproduce them within stated tolerances, the normals agree with their whole-frame
computation inside the contact window and are flat outside it, the
allocation budget bounds each stage's transient memory, and the property
test holds the invariants of the typed outputs on saturated, black, constant
and random frames.
"""

import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gripsense import force, geometry, sim, slip
from gripsense.core import HeightMap, NormalMap, TactileFrame, diff_image
from gripsense.force import FIELD_GRID
from gripsense.perception import Perception
from oracles import (ORACLE_NORMAL_TOL, full_frame_normals_reference,
                     height_tolerance_mm)
from recipes import (criterion8_geometry_model, criterion8_models,
                     criterion8_shear_model)

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
    model, the normals as ``NormalMap.raster`` gives the whole frame."""
    background, frames = _grasp()
    ppm = background.px_per_mm
    out = []
    for m, frame in _cases(criterion8_geometry_model(), frames):
        diff = diff_image(frame, background)
        normals = geometry.predict_normals(diff, m)
        height = geometry.integrate_normals(normals, ppm)
        out.append([diff.values, normals.raster(), height.values])
    return out


def _force_outputs() -> list:
    """[IDW field, HHD P, S and H, potentials phi and psi, predicted shear]
    of one 240x320 marker grid dragged by (1.2, -0.9) mm over the full
    press's contact, on the 24x24 field grid of the tick, under the
    criterion-8 shear model."""
    gel = sim.GelModel()
    ppm = SHAPE[1] / gel.gel_size_mm
    rest = sim.marker_grid(gel, ppm, SHAPE)
    contact = slip.segment_contact(sim.indent_heightmap(
        sim.Sphere(7.0), (16.5, 11.0), 1.2, SHAPE, gel))
    dragged = sim.deform_markers(rest, contact, np.array([1.2, -0.9]))
    field = force.interpolate_markers(rest, dragged, FIELD_GRID)
    hhd = force.hhd_decompose(field)
    shear = force.predict_shear(force.shear_features(field, hhd, contact),
                                criterion8_shear_model())
    return [field.values, hhd.P.values, hhd.S.values, hhd.H.values,
            hhd.phi.values, hhd.psi.values, np.array(shear)]


def _save_outputs(path) -> None:
    """Write ``_outputs`` and ``_force_outputs`` to the .npz file ``path``."""
    geo = [a for case in _outputs() for a in case]
    np.savez(path, **{f"g{k}": a for k, a in enumerate(geo)},
             **{f"f{k}": a for k, a in enumerate(_force_outputs())})


def _run_outputs(path, threads: int) -> tuple:
    """(``_outputs``, ``_force_outputs``) computed in a subprocess with
    ``threads`` BLAS threads, handed back through the .npz file ``path``."""
    src = os.path.dirname(os.path.dirname(geometry.__file__))
    n = str(threads)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=n,
               OMP_NUM_THREADS=n, MKL_NUM_THREADS=n)
    subprocess.run([sys.executable, __file__, str(path)], env=env, check=True)
    with np.load(path) as saved:
        def group(tag):
            count = sum(name.startswith(tag) for name in saved.files)
            return [saved[f"{tag}{k}"] for k in range(count)]
        geo, forces = group("g"), group("f")
    return [geo[k:k + 3] for k in range(0, len(geo), 3)], forces


@pytest.fixture(scope="module")
def single_thread_outputs(tmp_path_factory):
    return _run_outputs(tmp_path_factory.mktemp("blas") / "one.npz", 1)


# SHA-256 of the diff, normal and height rasters of each of ``_cases``:
# approach, half press, full press, saturated frame and the loud full press.
# Computed with single-threaded BLAS (numpy 2.4, OpenBLAS 0.3.31 on x86-64
# Haswell kernels); the thread count changes the summation order of the
# Poisson solve's products, so the test pins it. Normals and heights are
# computed in each frame's contact window (none on the approach frame, the
# whole frame on the saturated one), and the normals are flat outside it;
# ``test_windowed_heights_match_the_cropped_solve`` ties the heights to the
# solve of the window's own normal map, and
# ``test_normals_match_the_full_frame_oracle`` both to the whole-frame normals.
DIGESTS = [
    ["3e5e93efa35ffe8507a431138b4aa2691160b5417157e986eda922d0859b4edd",
     "bee895b752b9f2ed1d846238f1d4f797eb00d60e1ea083fd8442516e8a089966",
     "34c69899504b36f13e8b22120cf0fd894e61fcd6b046fb8535b79cc491fa3b3f"],
    ["24e86794aac04f6548d259490d9576217b93ab34b7d437478acc24ed64a5473c",
     "58840792502d0167b96c6e21861733aeda0cddb773546e66d3d079db7564981e",
     "ec95432f3d1b60f94e87651685c63790c7a30fb7719083a98f7334228e6c688d"],
    ["aee268aa42f68390d08727becd191906d97587104edc77a6b49d88463b62f78d",
     "b64ea375652d1a576218338048c562d92ff5ea8c302d106fa318303adee38817",
     "da99db186c941ef1f581e17f8da5388b7b81c2baffb715af87f5622dc6db0b4f"],
    ["f75e1c910f3f4a07df903896c0ec0a51d4bdd6aa928eb59af90495dfb5e31cb3",
     "24bc830a700a79489c1e3f1c9f091d34611ca111f0d0a053d2ec2c595e187884",
     "fe548950c0e4dc09acfe6ee266907a7f92d4f9cd017c142a746e87e7107a4e16"],
    ["aee268aa42f68390d08727becd191906d97587104edc77a6b49d88463b62f78d",
     "ce406897656188ab8c795bf2c2293d4c4dcbad4f6478f5c03bd8159d44e014d8",
     "040bd8969ad38fee44ed771633b04204ec487e925574b464ebc4d832b61cf0b9"],
]


# SHA-256 of each of ``_force_outputs``: the IDW field, the HHD's P, S, H,
# phi and psi, and the predicted shear, under single-threaded BLAS as above.
FORCE_DIGESTS = [
    "a31d2d1a66859b0cb3327387eb2ad65fc418c70b2553a1a9ccbadd31ba008bca",
    "caf5836a09c5dd25ebff54080ed70ec7a6d037b0fe05e8d2ba5c5a8b01867120",
    "3392b0dea6f97de32a08659c825dd8512fdbf01ff3b68e5ee5a328c3b44e4c72",
    "11bfd19ad89196c333a569d460f51f3feae09af078a231c4e3306c01e4dd90a8",
    "22a3d265101ed92bbf585455bc12db34c3227a05b6ab77785f460183c036c557",
    "d6b037e44b42f2789718ca85a00d905dfce40d1a7b60168569b334df4e187617",
    "2d4255dc3aae20996e936c81562e03f7436dc6bfc249673ceea464719cc366c0",
]


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_outputs_match_pinned_digests(single_thread_outputs):
    cases, forces = single_thread_outputs
    assert [[_sha(a) for a in case] for case in cases] == DIGESTS
    assert [_sha(a) for a in forces] == FORCE_DIGESTS


# Under one and two BLAS threads, diff and normals agree bit for bit and the
# heights to this tolerance relative to each frame's largest height: only the
# Poisson solve's products change their summation order. Of the marker-field
# outputs, the IDW field calls no BLAS routine and agrees bit for bit; the
# HHD's potentials and fields come from the same Poisson solver's products,
# on a stack of parity sub-grids, and the shear from a least-squares fit and
# a dot product, so each is held to the same
# tolerance relative to its own largest magnitude (all were byte-equal on a
# 2-core x86-64 host with OpenBLAS 0.3.31).
CROSS_THREAD_RTOL = 1e-12


def test_outputs_agree_across_blas_threads(single_thread_outputs, tmp_path):
    cases, forces = single_thread_outputs
    two_cases, two_forces = _run_outputs(tmp_path / "two.npz", 2)
    assert len(two_cases) == len(cases)
    for (d1, n1, h1), (d2, n2, h2) in zip(cases, two_cases):
        assert d1.tobytes() == d2.tobytes()
        assert n1.tobytes() == n2.tobytes()
        assert np.max(np.abs(h1 - h2)) <= CROSS_THREAD_RTOL * np.max(h1)
    field, *rest = forces
    two_field, *two_rest = two_forces
    assert len(rest) == len(two_rest) == 6
    assert field.tobytes() == two_field.tobytes()
    for a, b in zip(rest, two_rest):
        assert np.max(np.abs(a - b)) <= CROSS_THREAD_RTOL * np.max(np.abs(a))
    assert np.max(np.abs(rest[-1])) > 0.1       # the drag reads as shear


def test_normals_match_the_full_frame_oracle(model, grasp, monkeypatch):
    """Every digest case against ``full_frame_normals_reference``: exactly
    flat outside the window, within the oracle's tolerances inside it, and
    bit for bit on the saturated frame's whole-frame window; the approach
    frame opens no window, reads zero height and makes no ``_mlp`` call."""
    background, frames = grasp
    ppm = background.px_per_mm
    h, w = SHAPE
    calls, mlp = [], geometry._mlp
    monkeypatch.setattr(geometry, "_mlp",
                        lambda *a, **k: calls.append(a) or mlp(*a, **k))
    supports = []
    for m, frame in _cases(model, frames):
        diff = diff_image(frame, background)
        del calls[:]
        normals = geometry.predict_normals(diff, m)
        made = len(calls)
        heights = geometry.integrate_normals(normals, ppm).values
        want = full_frame_normals_reference(diff.values, m)
        r0, r1, c0, c1 = normals.support
        want_heights = geometry.integrate_normals(
            NormalMap(want[r0:r1, c0:c1], normals.support, SHAPE), ppm).values
        supports.append(normals.support)
        inside = np.zeros(SHAPE, bool)
        inside[r0:r1, c0:c1] = True
        got = normals.raster()
        assert np.array_equal(got[inside].reshape(normals.values.shape),
                              normals.values)
        assert np.all(got[~inside] == (0.0, 0.0, 1.0))
        assert np.max(np.abs(got - want)[inside],
                      initial=0.0) <= ORACLE_NORMAL_TOL
        assert (np.max(np.abs(heights - want_heights))
                <= height_tolerance_mm(want_heights))
        if normals.support == (0, h, 0, w):
            assert np.array_equal(got, want)
            assert np.array_equal(heights, want_heights)
        if not inside.any():
            assert made == 0 and not heights.any()
    assert supports[0] == (0, 0, 0, 0) and supports[3] == (0, h, 0, w)


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
        crop = NormalMap(normals.values)
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


# The most a stage may hold at once while it runs, its output included, in
# bytes per frame pixel. numpy reports its array allocations to tracemalloc,
# so the figure is the same on every run. The diff is 24 B a pixel and the
# heights 8; the normals are 24 B a window pixel, so their stage holds the
# most on the saturated frame, whose window is the whole frame.
ALLOCATION_BUDGET = {"diff_image": 26.4, "predict_normals": 48.0,
                     "integrate_normals": 44.0}


def _peak_bytes(run) -> int:
    """The most ``run()`` holds at once, its result included, in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("stage", sorted(ALLOCATION_BUDGET))
def test_stage_allocation_within_budget(model, grasp, stage):
    """Every window case: the approach frame opens none, the half and full
    press one each, and the saturated frame's is the whole frame."""
    background, frames = grasp
    ppm = background.px_per_mm
    h, w = SHAPE
    for frame in frames:
        diff = diff_image(frame, background)
        normals = geometry.predict_normals(diff, model)
        run = {"diff_image": lambda: diff_image(frame, background),
               "predict_normals": lambda: geometry.predict_normals(diff, model),
               "integrate_normals":
                   lambda: geometry.integrate_normals(normals, ppm),
               }[stage]
        assert _peak_bytes(run) <= ALLOCATION_BUDGET[stage] * h * w


# The most one ``Perception.tick`` may hold at once at 240x320: bytes per
# frame pixel for the whole-frame rasters (diff, largest |diff|, heights,
# mask) plus bytes per pixel of the contact window for its normals and
# Poisson buffers. At 48 B a pixel, the grasp ticks fit only when the
# normals are held for the window alone.
TICK_BUDGET_PER_PX = 48.0
TICK_BUDGET_PER_WINDOW_PX = 40.0


def test_tick_allocation_within_budget(grasp):
    """Two passes over the grasp, the first tick filling the rest markers'
    IDW table: each tick's peak within its frame and window budget."""
    background, frames = grasp
    rest = sim.marker_grid(sim.GelModel(), background.px_per_mm, SHAPE)
    perception = Perception(*criterion8_models(), background, rest)
    r = np.random.default_rng(3)
    for frame in frames * 2:
        markers = rest.moved(r.normal(0.0, 0.3, rest.xy.shape))
        r0, r1, c0, c1 = geometry.predict_normals(
            diff_image(frame, background), perception.geometry_model).support
        budget = (TICK_BUDGET_PER_PX * SHAPE[0] * SHAPE[1]
                  + TICK_BUDGET_PER_WINDOW_PX * (r1 - r0) * (c1 - c0))
        peak = _peak_bytes(lambda: perception.tick(frame, markers, 2.6))
        assert peak <= budget


def _frame(kind, shape, level, seed):
    r = np.random.default_rng(seed)
    pixels = {"saturated": np.ones(shape + (3,)),
              "black": np.zeros(shape + (3,)),
              "constant": np.full(shape + (3,), level),
              "random": r.random(shape + (3,))}[kind]
    return TactileFrame(pixels, 4.0)


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
                        (normals.values, (diff.values,)),
                        (height.values, (normals.values,))):
        assert not out.flags.writeable
        assert not any(np.shares_memory(out, a) for a in inputs)
    n = normals.raster()
    assert np.max(np.abs(np.linalg.norm(n, axis=2) - 1.0)) <= 1e-6
    assert n[:, :, 2].min() > 0
    assert np.all(np.isfinite(height.values))
    assert height.values.min() == 0.0


if __name__ == "__main__":
    _save_outputs(sys.argv[1])
