"""The perception tick, ``gripsense.perception.Perception``, on scripted grasps.

A grasp sees no contact before the press. Every frame must get a finite
heightmap, slip decision and forces, also while a frame without contact sits
in its slip window. A frame whose contact is empty on the 24x24
marker-field grid has no region to take shear features from, and its shear
force is exactly zero. The library tick must also match the benchmark's own
tick bit for bit, and a frame that lost markers must not stall the stream.
Saturated, black and constant frames, down to the 8x8 minimum raster, give
finite percepts too.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripsense import core, geometry, sim, slip
from gripsense.core import HeightMap, MarkerSet
from gripsense.force import FIELD_GRID
from gripsense.perception import Percept, Perception
from oracles import full_frame_normals_reference, height_tolerance_mm
from recipes import criterion8_models

ROOT = Path(__file__).resolve().parent.parent
SHAPE = (240, 320)
DEPTH_MM = 1.1
PRESS = 6


@pytest.fixture(scope="module")
def stack():
    """The models of acceptance criterion 8."""
    return criterion8_models()


# A held press, the approach frame, then the press ramp.
DEPTHS = [DEPTH_MM, 0.0] + [DEPTH_MM * (k + 1) / PRESS for k in range(PRESS)]


def _sensor():
    """(background, rest markers, px_per_mm) of the SHAPE raster."""
    gel = sim.GelModel()
    ppm = SHAPE[1] / gel.gel_size_mm
    background = sim.render_tactile(HeightMap(np.zeros(SHAPE), ppm),
                                    sim.default_rig(), gel)
    return background, sim.marker_grid(gel, ppm, SHAPE), ppm


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


def _same(p, q):
    """Bit-equal heights, masks, slip flags and forces."""
    return (np.array_equal(p.height.values, q.height.values)
            and np.array_equal(p.mask.raster(), q.mask.raster())
            and p.slipping == q.slipping and p.normal_n == q.normal_n
            and p.shear_n == q.shear_n)


def test_contact_ticks_survive_a_no_contact_frame_in_the_window(stack):
    background, rest, ppm = _sensor()
    perception = Perception(*stack, background, rest)
    # The approach frame and the first press frame, 1.1/6 mm deep, are
    # shallower than the contact threshold.
    no_contact = [d <= slip.DEFAULT_CONTACT_THRESHOLD_MM for d in DEPTHS]
    window = 2                  # the slip step reads this frame and the last
    masks = []
    gap_windows = no_shear = 0
    for k, frame in enumerate(_grasp(rest, ppm)):
        p = perception.tick(*frame)
        masks.append(p.mask)
        assert (p.mask.area == 0) == no_contact[k]
        assert np.all(np.isfinite(p.height.values))
        assert np.isfinite(p.slip_speed_px)
        assert isinstance(p.slipping, bool)
        assert np.isfinite(p.normal_n) and np.all(np.isfinite(p.shear_n))
        # Shear features read the mask on the field grid, where a contact of
        # a few dozen pixels can vanish as well.
        if not p.mask.on_grid(FIELD_GRID)[0].any():
            assert p.shear_n == (0.0, 0.0)
            no_shear += 1
        gap_windows += any(m.area == 0 for m in masks[-window:])
    assert no_shear == 2                        # approach and first press frame
    assert gap_windows == sum(any(no_contact[max(0, k - window + 1):k + 1])
                              for k in range(len(DEPTHS)))


def test_library_tick_matches_benchmark_tick(stack):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import tick as tk

    sensor = tk.make_sensor(SHAPE)
    models = tk.Models(*stack)
    history = tk.new_history()
    perception = Perception(*stack, sensor.background, sensor.rest)
    script = tk.grasp_script(np.random.default_rng(5), SHAPE, 1, sensor)
    assert len(script) == tk.GRASP_FRAMES
    flags = []
    for fr in script:
        frame = core.TactileFrame(fr.pixels, sensor.px_per_mm)
        want = tk.tick(frame, fr.markers, fr.current, models, sensor, history)
        got = perception.tick(frame, fr.markers, fr.current)
        assert _same(got, want)
        flags.append(got.slipping)
    assert 0 < sum(flags) < len(flags)


def _drop(markers, keep):
    return MarkerSet(markers.ids[keep], markers.xy[keep])


def test_marker_dropout_does_not_stall_the_stream(stack):
    background, rest, ppm = _sensor()
    frames = _grasp(rest, ppm)
    img, markers, current = frames[4]
    frames[4] = (img, _drop(markers, slice(1, None)), current)
    perception = Perception(*stack, background, rest)
    for frame in frames:
        assert np.isfinite(perception.tick(*frame).slip_speed_px)


def test_failed_tick_leaves_the_history_untouched(stack):
    background, rest, ppm = _sensor()
    frames = _grasp(rest, ppm)
    clean = Perception(*stack, background, rest)
    seen_bad = Perception(*stack, background, rest)
    for k, frame in enumerate(frames):
        img, markers, current = frame
        if k == 3:          # a NaN current once ticked to a NaN normal_n
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match="current must be finite"):
                    seen_bad.tick(img, markers, bad)
        if k == 5:
            with pytest.raises(ValueError, match="3 matched markers"):
                seen_bad.tick(img, _drop(markers, slice(0, 2)), current)
        if k == 6:          # once integrated at the background's pitch
            with pytest.raises(ValueError, match="pitch mismatch"):
                seen_bad.tick(core.TactileFrame(img.pixels, ppm / 2.0),
                              markers, current)
        p, q = seen_bad.tick(*frame), clean.tick(*frame)
        assert _same(p, q) and p.slip_speed_px == q.slip_speed_px


@pytest.fixture(scope="module")
def sensor_grasp():
    """(background, rest markers, the frames of ``_grasp``)."""
    background, rest, ppm = _sensor()
    return background, rest, _grasp(rest, ppm)


# Per frame: all markers (None), too few to match (0-2), or a partial set.
_KEEP = st.one_of(st.none(), st.integers(0, 2), st.integers(3, 81))


@settings(max_examples=12, deadline=None)
@given(keep=st.lists(_KEEP, min_size=len(DEPTHS), max_size=len(DEPTHS)),
       seed=st.integers(0, 2 ** 16))
def test_marker_dropout_property(stack, sensor_grasp, keep, seed):
    """Over generated per-frame dropout: every tick gives a finite percept
    or raises ``ValueError`` with the previous frame as it was, fewer than 3
    markers always raise, and every percept equals that of a stream that
    never saw the failed ticks: with only full and too-few frames, the clean
    stream of the full frames."""
    background, rest, frames = sensor_grasp
    rng = np.random.default_rng(seed)
    perception = Perception(*stack, background, rest)
    reference = Perception(*stack, background, rest)
    for (img, markers, current), n in zip(frames, keep):
        if n is not None:
            markers = _drop(markers, np.sort(rng.permutation(len(markers))[:n]))
        before = perception._previous
        try:
            p = perception.tick(img, markers, current)
        except ValueError:
            assert perception._previous is before
            continue
        assert n is None or n >= 3
        assert np.isfinite(p.normal_n) and np.all(np.isfinite(p.shear_n))
        assert np.isfinite(p.slip_speed_px)
        q = reference.tick(img, markers, current)
        assert _same(p, q) and p.slip_speed_px == q.slip_speed_px


def _rest_grid(shape):
    """A 3x3 rest marker grid one pixel in from the edges; ``sim.marker_grid``
    puts its 9x9 grid off frames narrower than 10 px."""
    h, w = shape
    gx, gy = np.meshgrid(np.linspace(1.0, w - 2.0, 3),
                         np.linspace(1.0, h - 2.0, 3))
    return MarkerSet(np.arange(9), np.column_stack([gx.ravel(), gy.ravel()]),
                     float(w - 1), float(h - 1))


@pytest.mark.parametrize("shape", [(8, 8), (9, 13), (64, 64)],
                         ids=["8x8", "9x13", "64x64"])
@pytest.mark.parametrize("kind", ["saturated", "black", "constant"])
def test_tick_on_extreme_frames(stack, kind, shape):
    """Three ticks, two of them with a slip step, on frames no gel contact
    makes, down to the 8x8 minimum: each percept is finite and has the raster's shape."""
    gel = sim.GelModel()
    ppm = shape[1] / gel.gel_size_mm
    background = sim.render_tactile(HeightMap(np.zeros(shape), ppm),
                                    sim.default_rig(), gel)
    level = {"saturated": 1.0, "black": 0.0, "constant": 0.5}[kind]
    frame = core.TactileFrame(np.full(shape + (3,), level), ppm)
    rest = _rest_grid(shape)
    perception = Perception(*stack, background, rest)
    rng = np.random.default_rng(3)
    for _ in range(3):
        markers = rest.moved(rng.normal(0.0, 0.3, rest.xy.shape))
        p = perception.tick(frame, markers, 2.6)
        assert isinstance(p, Percept) and isinstance(p.slipping, bool)
        assert p.height.shape == p.mask.frame_shape == shape
        assert np.all(np.isfinite(p.height.values))
        assert np.isfinite(p.normal_n) and np.all(np.isfinite(p.shear_n))
        assert np.isfinite(p.slip_speed_px)
    # The Poisson solve's window: the whole frame is the solve without one,
    # bit for bit, and no window gives exactly zero height.
    normals = geometry.predict_normals(core.diff_image(frame, background),
                                       stack[0])
    if normals.support == (0, shape[0], 0, shape[1]):
        whole = geometry.integrate_normals(core.NormalMap(normals.values), ppm)
        assert np.array_equal(p.height.values, whole.values)
    else:
        assert normals.support == (0, 0, 0, 0)
        assert np.array_equal(p.height.values, np.zeros(shape))
    if kind != "constant":
        assert normals.support == (0, shape[0], 0, shape[1])


def _press_frame(centres_mm, ppm, rng):
    """A noisy SHAPE frame of 7 mm sphere presses 1 mm deep at ``centres_mm``."""
    gel = sim.GelModel()
    raw = np.zeros(SHAPE)
    for centre in centres_mm:
        raw += sim.indent_heightmap(sim.Sphere(7.0), centre, 1.0, SHAPE,
                                    gel).values
    return sim.render_tactile(HeightMap(raw, ppm), sim.default_rig(), gel,
                              0.01, rng)


def test_tick_solves_heights_in_the_contact_window(stack):
    """No contact reads exactly zero height; a contact cut by the frame edge
    and two separate contacts get one window holding all their contact
    pixels, with one constant height outside it, zero before the gauge; a
    saturated frame is solved over the whole frame."""
    background, rest, ppm = _sensor()
    perception = Perception(*stack, background, rest)
    rng = np.random.default_rng(8)
    h, w = SHAPE
    cases = {"approach": _press_frame([], ppm, rng),
             "edge": _press_frame([(1.0, 11.0)], ppm, rng),
             "two": _press_frame([(7.0, 6.0), (23.0, 16.0)], ppm, rng),
             "saturated": core.TactileFrame(np.ones(SHAPE + (3,)), ppm)}
    for name, frame in cases.items():
        p = perception.tick(frame, rest.moved(rng.normal(0.0, 0.3,
                                                         rest.xy.shape)), 2.6)
        normals = geometry.predict_normals(
            core.diff_image(frame, background), stack[0])
        r0, r1, c0, c1 = normals.support
        outside = np.ones(SHAPE, bool)
        outside[r0:r1, c0:c1] = False
        if name == "approach":
            assert normals.support == (0, 0, 0, 0)
            assert np.array_equal(p.height.values, np.zeros(SHAPE))
        elif name == "saturated":
            assert normals.support == (0, h, 0, w)
            whole = geometry.integrate_normals(core.NormalMap(normals.values),
                                               ppm)
            assert np.array_equal(p.height.values, whole.values)
        else:
            assert p.mask.area > 0 and not p.mask.raster()[outside].any()
            assert np.ptp(p.height.values[outside]) == 0.0
            if name == "edge":
                assert c0 == 0 and r0 > 0 and r1 < h and c1 < w
            else:           # the mask has a blob in each far corner region
                ys, xs = np.nonzero(p.mask.raster())
                assert xs.min() < w / 3 and xs.max() > 2 * w / 3


def test_tick_heights_match_the_full_frame_oracle(stack, monkeypatch):
    """Every tick's heights against those solved, in the same window, from
    the normals computed on the whole frame: within the oracle's tolerance
    on the grasp, bit for bit on a saturated frame, and exactly zero with no
    MLP call on the approach frame, which opens no window; every other
    frame runs the MLP once, over its window (``_window_normals``)."""
    background, rest, ppm = _sensor()
    perception = Perception(*stack, background, rest)
    calls, window_normals = [], geometry._window_normals
    monkeypatch.setattr(geometry, "_window_normals",
                        lambda *a: calls.append(a) or window_normals(*a))
    saturated = core.TactileFrame(np.ones(SHAPE + (3,)), ppm)
    frames = _grasp(rest, ppm) + [(saturated, rest, 2.6)]
    empty = 0
    for img, markers, current in frames:
        del calls[:]
        p = perception.tick(img, markers, current)
        made = len(calls)
        diff = core.diff_image(img, background)
        support = geometry.predict_normals(diff, stack[0]).support
        r0, r1, c0, c1 = support
        want = geometry.integrate_normals(core.NormalMap(
            full_frame_normals_reference(diff.values, stack[0])[r0:r1, c0:c1],
            support, SHAPE), ppm).values
        err = np.max(np.abs(p.height.values - want))
        assert err <= height_tolerance_mm(want)
        if support == (0, SHAPE[0], 0, SHAPE[1]):
            assert np.array_equal(p.height.values, want)
        if support[0] == support[1] or support[2] == support[3]:
            assert made == 0
            assert np.array_equal(p.height.values, np.zeros(SHAPE))
            empty += 1
        else:
            assert made == 1 and calls[0][2] == support
    assert empty == 1 and support == (0, SHAPE[0], 0, SHAPE[1])
