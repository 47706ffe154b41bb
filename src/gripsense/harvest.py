"""Simulated harvest trials comparing three grasp control strategies.

Each trial runs a 15 Hz perception and control loop against a lumped fruit
model: contact force from jaw squeeze, pull transmitted through a friction
cap, detachment and bruising as force thresholds. The controller only sees
what the perception stack reports, a normal-force estimate decoded from the
simulated motor current and a slip flag from the marker-versus-object
velocity rule, so the three strategies differ exactly in how they use those
two percepts.

The contact seen by the slip rule is a small disc, ``ContactDisc``, in a
square tracking window whose centre follows the slid object. It is held as
its whole-pixel centre, which is exactly its centroid, and marker membership
is a distance test on the markers' pixels, so a tick does no per-pixel work.
The rule is ``slip.newest_velocity``, as in ``Perception.tick``: the raw
step of the disc and the markers from the previous tick to this one. The
controller reads the slip flag only while pulling under a closed-loop
strategy (``_reads_slip``), so a trial computes the flag on those ticks
alone; every tick still draws its noise and extends the window, so the
flag on a reading tick is the one an every-tick rule would give.

A tick is otherwise scalar work in Python floats and ints: the plant, the
controller and the force decoder take and give numbers, the contact disc
builds its centroid array only when the slip rule asks for it, and the
trial draws its noise in blocks of whole ticks (``run_trial``).
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (_check_int, _check_non_negative, _check_positive, _freeze,
                   _Frozen)
from .force import fit_normal_force, predict_normal_force
from .sim import CURRENT_GAIN, CURRENT_NOISE, CURRENT_OFFSET, make_force_samples
from .slip import (DEFAULT_THRESHOLD_PX, TICK_WINDOW, detect_slip,
                   newest_velocity)
# Unused here, but bound on purpose: perfbench's span tracer test takes
# ``harvest.object_velocity`` as its example of a name re-bound across layers.
from .slip import object_velocity  # noqa: F401

STRATEGIES = ("open_loop", "slip", "slip_force")
STATES = ("detect", "approach", "close", "hold_pull", "retry", "done")
FAILURE_MODES = ("none", "slip_drop", "bruise", "max_retries")
#: The fruit types of the ablation grid, in its seeding order.
FRUIT_TYPES = ("cherry_tomato", "strawberry")

#: Jaw travel per tick while closing (mm); bounds force overshoot to
#: stiffness * CLOSING_SPEED_MM for the force-targeted strategy.
CLOSING_SPEED_MM = 0.25
START_OPENING_MM = 40.0
#: Jaw clearance over the measured diameter after the approach move.
APPROACH_CLEARANCE_MM = 6.0
PULL_MAX_N = 8.0
PULL_RAMP_TICKS = 20
HOLD_TICKS = 30
#: Object travel per tick at full slip (mm); scaled by the slip rate.
SLIP_TRAVEL_MM = 1.25
MAX_TICKS = 400
DEFAULT_PX_PER_MM = 24.0
DEFAULT_DIAMETER_NOISE_MM = 1.0
DEFAULT_MARKER_JITTER_PX = 0.3
_TRACK_WINDOW_PX = 320
_DISC_RADIUS_PX = 8
#: Ticks of noise a trial draws at once (``run_trial``).
_NOISE_BLOCK_TICKS = 32

#: ``slip_force``'s commanded force per fruit type: where it starts, and how
#: much each retry raises it (N).
INITIAL_FORCE_N = {"cherry_tomato": 1.2, "strawberry": 2.0}
FORCE_INCREMENT_N = {"cherry_tomato": 0.3, "strawberry": 1.0}

#: (mean, sd) draws for each fruit attribute; stem factor is deterministic.
#: Tuned so the open-loop baseline fails at roughly field-trial rates while
#: the commanded-force schedule stays below typical bruise thresholds.
DEFAULT_POPULATIONS = {
    "cherry_tomato": {
        "diameter_mm": (28.3, 1.5),
        "stiffness_n_mm": (1.3, 0.12),
        "detach_force_n": (1.3, 0.22),
        "bruise_force_n": (6.0, 0.5),
        "friction": (1.0, 0.05),
        "stem_stiffness_factor": 1.0,
    },
    "strawberry": {
        "diameter_mm": (30.0, 2.5),
        "stiffness_n_mm": (0.85, 0.10),
        "detach_force_n": (1.57, 0.32),
        "bruise_force_n": (3.8, 0.4),
        "friction": (1.1, 0.05),
        "stem_stiffness_factor": 1.4,
    },
}


@dataclass(frozen=True)
class FruitModel:
    """Lumped mechanical description of one fruit on its stem.

    ``stem_stiffness_factor`` scales the pull needed to detach: a stiffer
    stem transmits less of the applied pull into the abscission zone.
    Configurations with bruise force at or below detachment force are legal
    to construct (they model unharvestable fruit) but fail every strategy.
    Every number must be finite, and positive but for the detachment force,
    which may be zero; ``ValueError`` names the field that is not.
    """

    fruit_type: str
    diameter_mm: float
    stiffness_n_mm: float
    detach_force_n: float
    bruise_force_n: float
    friction: float
    stem_stiffness_factor: float = 1.0

    def __post_init__(self):
        if self.fruit_type not in DEFAULT_POPULATIONS:
            raise ValueError(f"unknown fruit type {self.fruit_type!r}")
        for name in ("diameter_mm", "stiffness_n_mm", "bruise_force_n",
                     "friction", "stem_stiffness_factor"):
            _check_positive(getattr(self, name), name)
        _check_non_negative(self.detach_force_n, "detach_force_n")


@dataclass(frozen=True)
class StrategyConfig:
    """Parameters of one control strategy.

    ``open_loop`` closes to measured diameter minus ``close_margin_mm`` and
    pulls once. ``slip`` additionally re-closes by ``retry_increment_mm``
    whenever slip is flagged while pulling. ``slip_force`` closes until the
    estimated normal force reaches a commanded value that starts at the
    per-fruit initial force and rises by the per-fruit increment on slip.
    The margin must be finite and non-negative, the increment finite and
    positive, and ``max_retries`` an integer of at least 1.
    """

    strategy: str
    close_margin_mm: float = 2.0
    retry_increment_mm: float = 2.0
    max_retries: int = 3

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        _check_non_negative(self.close_margin_mm, "close_margin_mm")
        _check_positive(self.retry_increment_mm, "retry_increment_mm")
        _check_int(self.max_retries, "max_retries")

    def initial_force(self, fruit_type: str) -> float:
        if fruit_type not in INITIAL_FORCE_N:
            raise ValueError(f"no initial force for fruit type {fruit_type!r}")
        return INITIAL_FORCE_N[fruit_type]

    def force_increment(self, fruit_type: str) -> float:
        if fruit_type not in FORCE_INCREMENT_N:
            raise ValueError(f"no force increment for fruit type {fruit_type!r}")
        return FORCE_INCREMENT_N[fruit_type]


@dataclass(frozen=True)
class GraspState:
    """Controller state carried across ticks.

    ``measured_diameter_mm`` and ``fruit_type`` are the detection results
    (ground truth plus measurement noise) injected when the trial starts;
    ``phase_ticks`` counts ticks spent in the current state. The opening,
    the forces and the diameter must be finite and non-negative, and the
    counts integers, ``attempt`` from 1 and ``phase_ticks`` from 0. A trial
    builds one state a tick, so the checks are scalar comparisons.
    """

    state: str
    opening_mm: float
    commanded_force_n: float
    attempt: int = 1
    peak_force_n: float = 0.0
    measured_diameter_mm: float = 0.0
    fruit_type: str = "cherry_tomato"
    phase_ticks: int = 0

    def __post_init__(self):
        if self.state not in STATES:
            raise ValueError(f"unknown state {self.state!r}")
        if self.fruit_type not in DEFAULT_POPULATIONS:
            raise ValueError(f"unknown fruit type {self.fruit_type!r}")
        # NaN, negatives and infinities all fail the chained comparison
        for name in ("opening_mm", "commanded_force_n", "peak_force_n",
                     "measured_diameter_mm"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)}")
        _check_int(self.attempt, "attempt")
        _check_int(self.phase_ticks, "phase_ticks", 0)


@dataclass(frozen=True, eq=False)
class TrialOutcome(_Frozen):
    """Result of one harvest trial."""

    success: bool
    failure_mode: str
    attempts: int
    peak_force_n: float
    force_trace: np.ndarray

    def __post_init__(self):
        if self.failure_mode not in FAILURE_MODES:
            raise ValueError(f"unknown failure mode {self.failure_mode!r}")
        if self.success and self.failure_mode != "none":
            raise ValueError("successful trials cannot carry a failure mode")
        if not self.success and self.failure_mode == "none":
            raise ValueError("failed trials need a failure mode")
        self._keep("force_trace", self.force_trace)


def fruit_response(fruit: FruitModel, opening_mm: float, pull_n: float):
    """Plant-side mechanics for one tick.

    Returns (contact force N, slip rate in [0, 1], detached, bruised).
    The pull transmitted to the stem is capped by the friction cone
    ``friction * contact_force``; the slip rate is the fraction of the pull
    the cone cannot carry, so it decreases monotonically with grip force
    and is 1 when the jaws are not touching the fruit. The opening and the
    pull must be finite and non-negative.
    """
    if not 0.0 <= opening_mm < math.inf:
        raise ValueError(f"opening_mm must be finite and non-negative, "
                         f"got {opening_mm}")
    if not 0.0 <= pull_n < math.inf:
        raise ValueError(f"pull_n must be finite and non-negative, got {pull_n}")
    contact = fruit.stiffness_n_mm * max(0.0, fruit.diameter_mm - opening_mm)
    grip_limit = fruit.friction * contact
    transmitted = min(pull_n, grip_limit)
    detached = transmitted >= fruit.detach_force_n * fruit.stem_stiffness_factor
    bruised = contact > fruit.bruise_force_n
    slip_rate = 0.0
    if pull_n > 0.0:
        slip_rate = min(1.0, max(0.0, (pull_n - grip_limit) / pull_n))
    return contact, slip_rate, detached, bruised


def _close_target(state: GraspState, cfg: StrategyConfig) -> float:
    squeeze = cfg.close_margin_mm + (state.attempt - 1) * cfg.retry_increment_mm
    return max(0.0, state.measured_diameter_mm - squeeze)


def _reads_slip(state: GraspState, cfg: StrategyConfig) -> bool:
    """Whether ``step_controller`` reads the slip flag in ``state``: only
    while pulling, and only under a closed-loop strategy."""
    return state.state == "hold_pull" and cfg.strategy != "open_loop"


def step_controller(state: GraspState, percepts, cfg: StrategyConfig) -> GraspState:
    """One tick of the grasp state machine.

    ``percepts`` is (slip flag, normal-force estimate N). The done state is
    absorbing and the attempt counter never exceeds ``cfg.max_retries``.
    """
    slip_flag, f_n = percepts
    name, opening, attempt = state.state, state.opening_mm, state.attempt
    commanded, phase = state.commanded_force_n, state.phase_ticks + 1
    if name == "done":
        phase = state.phase_ticks
    elif name == "detect":
        name, phase = "approach", 0
    elif name == "approach":
        # The arm move also pre-opens the jaws to just over the fruit.
        opening = min(opening, state.measured_diameter_mm + APPROACH_CLEARANCE_MM)
        name, phase = "close", 0
    elif name == "close":
        if cfg.strategy == "slip_force":
            if f_n >= commanded:
                name, phase = "hold_pull", 0
            else:
                opening = max(0.0, opening - CLOSING_SPEED_MM)
        else:
            target = _close_target(state, cfg)
            if opening <= target:
                name, phase = "hold_pull", 0
            else:
                opening = max(target, opening - CLOSING_SPEED_MM)
    elif name == "hold_pull":
        if slip_flag and _reads_slip(state, cfg):
            if attempt >= cfg.max_retries:
                name = "done"
            else:
                name, phase = "retry", 0
        elif state.phase_ticks >= HOLD_TICKS:
            if cfg.strategy == "open_loop" or attempt >= cfg.max_retries:
                name = "done"
            else:
                name, phase = "retry", 0
    else:
        # retry: bump the attempt, raise the commanded force for slip_force,
        # and re-enter the closing phase.
        if cfg.strategy == "slip_force":
            commanded += cfg.force_increment(state.fruit_type)
        name, attempt, phase = "close", attempt + 1, 0
    return GraspState(name, opening, commanded, attempt,
                      max(state.peak_force_n, float(f_n)),
                      state.measured_diameter_mm, state.fruit_type, phase)


# The controller's current-to-force decoder, fitted on a fixed draw.
_FORCE_MODEL = fit_normal_force(np.column_stack(
    make_force_samples(rng=np.random.default_rng(1234))))


class ContactDisc:
    """The trial's contact: a disc of radius ``_DISC_RADIUS_PX`` on the
    middle row of the tracking window, centred on the whole pixel nearest
    ``center_px`` and clamped inside the window, so that pixel is exactly
    its centroid. Its ``area``, ``centroid()`` and ``contains(xy)`` are the
    painted raster's, without painting it. The centre is kept as an int;
    the centroid array is built on the first ``centroid()`` or
    ``contains`` call, which a trial makes only on the ticks that read the
    slip flag."""

    #: the stencil's pixels (dx, dy), dx * dx + dy * dy <= radius ** 2
    area = sum(2 * math.isqrt(_DISC_RADIUS_PX ** 2 - dy * dy) + 1
               for dy in range(-_DISC_RADIUS_PX, _DISC_RADIUS_PX + 1))

    def __init__(self, center_px: float):
        self._cx = int(round(min(max(center_px, _DISC_RADIUS_PX),
                                 _TRACK_WINDOW_PX - _DISC_RADIUS_PX - 1)))

    def centroid(self) -> np.ndarray:
        return self._centroid

    @cached_property
    def _centroid(self) -> np.ndarray:
        return _freeze(np.array([self._cx, _TRACK_WINDOW_PX // 2], float))

    def contains(self, xy: np.ndarray) -> np.ndarray:
        """Which of the (N, 2) positions, snapped to the nearest pixel of
        the window as ``ContactMask.contains`` snaps them, are on the disc."""
        d = np.clip(np.rint(xy), 0, _TRACK_WINDOW_PX - 1) - self._centroid
        return (d * d).sum(axis=1) <= _DISC_RADIUS_PX ** 2


def _patch_radius_mm(fruit: FruitModel, opening_mm: float) -> float:
    """Contact patch radius from spherical-cap geometry of the jaw squeeze."""
    depth = max(0.0, fruit.diameter_mm - opening_mm) / 2.0
    return math.sqrt(max(0.0, depth * (fruit.diameter_mm - depth)))


def run_trial(fruit: FruitModel, cfg: StrategyConfig, seed: int = 0,
              diameter_noise_mm: float = DEFAULT_DIAMETER_NOISE_MM,
              px_per_mm: float = DEFAULT_PX_PER_MM,
              threshold_px: float = DEFAULT_THRESHOLD_PX) -> TrialOutcome:
    """Run one seeded perception-control loop until the trial resolves.

    Success means detached without bruising and without the cumulative slip
    displacement exceeding the contact patch radius (the drop rule). The
    force trace holds the per-tick normal-force estimates the controller
    actually saw: the motor current, with ``sim.CURRENT_NOISE`` added,
    decoded by the fixed ``_FORCE_MODEL``. The slip flag is computed only
    on the ticks where the controller reads it (``_reads_slip``); the
    others hand it False, which it ignores.

    After the measured diameter's draw, the trial draws its noise as
    blocks of standard normals z, ``_NOISE_BLOCK_TICKS`` ticks at a time and
    19 a tick, the current's and then the nine markers' (x, y), and uses
    sigma * z. That is the stream and the bits of one ``normal(0.0, sigma)``
    call a tick for the current and one for the markers: numpy's ``normal``
    is 0.0 + sigma * z from the same standard normals, which differs from
    sigma * z only in the sign of a zero, and that is added to a positive
    current or marker coordinate. Draws a trial does not reach are never
    read.

    Raises ``ValueError`` unless ``diameter_noise_mm`` is finite and
    non-negative and ``px_per_mm`` and ``threshold_px`` are finite and
    positive.
    """
    _check_non_negative(diameter_noise_mm, "diameter_noise_mm")
    _check_positive(px_per_mm, "px_per_mm")
    _check_positive(threshold_px, "threshold_px")
    rng = np.random.default_rng(seed)
    measured = fruit.diameter_mm + (
        rng.normal(0.0, diameter_noise_mm) if diameter_noise_mm > 0 else 0.0)
    state = GraspState(state="detect", opening_mm=START_OPENING_MM,
                       commanded_force_n=cfg.initial_force(fruit.fruit_type),
                       measured_diameter_mm=max(1.0, measured),
                       fruit_type=fruit.fruit_type)
    marker_rest = np.stack(np.meshgrid([-20.0, 0.0, 20.0], [-20.0, 0.0, 20.0]),
                           axis=-1).reshape(-1, 2) + _TRACK_WINDOW_PX / 2.0
    contacts, positions = deque(maxlen=TICK_WINDOW), deque(maxlen=TICK_WINDOW)
    trace = []
    slip_mm = 0.0
    start_px = 4.0 * _DISC_RADIUS_PX

    for tick in range(MAX_TICKS):
        at = tick % _NOISE_BLOCK_TICKS
        if at == 0:
            z = rng.standard_normal((_NOISE_BLOCK_TICKS, 1 + marker_rest.size))
            current_noise = (CURRENT_NOISE * z[:, 0]).tolist()
            jittered = marker_rest + DEFAULT_MARKER_JITTER_PX * z[:, 1:].reshape(
                (-1,) + marker_rest.shape)
        pull = 0.0
        if state.state == "hold_pull":
            pull = PULL_MAX_N * min(1.0, (state.phase_ticks + 1) / PULL_RAMP_TICKS)
        contact, slip_rate, detached, bruised = fruit_response(
            fruit, state.opening_mm, pull)
        if bruised:
            return TrialOutcome(False, "bruise", state.attempt,
                                state.peak_force_n, np.array(trace))
        if detached:
            return TrialOutcome(True, "none", state.attempt,
                                state.peak_force_n, np.array(trace))

        slip_mm += slip_rate * SLIP_TRAVEL_MM
        if slip_mm > _patch_radius_mm(fruit, state.opening_mm):
            return TrialOutcome(False, "slip_drop", state.attempt,
                                state.peak_force_n, np.array(trace))

        current = CURRENT_GAIN * contact + CURRENT_OFFSET + current_noise[at]
        f_est = max(0.0, predict_normal_force(current, _FORCE_MODEL))
        trace.append(f_est)

        contacts.append(ContactDisc(start_px + slip_mm * px_per_mm))
        positions.append(jittered[at])
        # A trial pulls only after detect, approach and close, so a reading
        # tick has both frames of the window.
        slip_flag = _reads_slip(state, cfg) and detect_slip(
            *newest_velocity(contacts, positions), threshold_px)

        attempt_before = state.attempt
        state = step_controller(state, (slip_flag, f_est), cfg)
        if state.attempt != attempt_before:
            # Re-closing re-forms the contact patch around the slid fruit.
            slip_mm = 0.0
        if state.state == "done":
            return TrialOutcome(False, "max_retries", state.attempt,
                                state.peak_force_n, np.array(trace))
    return TrialOutcome(False, "max_retries", state.attempt,
                        state.peak_force_n, np.array(trace))


def sample_fruit(fruit_type: str, rng: np.random.Generator) -> FruitModel:
    """Draw one fruit from the default population for its type."""
    if fruit_type not in DEFAULT_POPULATIONS:
        raise ValueError(f"unknown fruit type {fruit_type!r}")
    pop = DEFAULT_POPULATIONS[fruit_type]

    def draw(key):
        mean, sd = pop[key]
        return rng.normal(mean, sd)

    diameter = float(np.clip(draw("diameter_mm"), 22.0, 36.0))
    stiffness = max(0.5, draw("stiffness_n_mm"))
    detach = max(0.4, draw("detach_force_n"))
    bruise = max(detach + 1.0, draw("bruise_force_n"))
    friction = max(0.8, draw("friction"))
    return FruitModel(fruit_type, diameter, stiffness, detach, bruise,
                      friction, pop["stem_stiffness_factor"])


def paired_trials(fruit_type: str, n: int, seed: int, f_idx: int) -> list:
    """(fruit, trial seed) for each of ``n`` trials of the ``f_idx``-th fruit
    type of a seeded grid: trial t's first spawn of ``SeedSequence((seed,
    f_idx, t))`` draws its fruit and the second seeds it, so every strategy
    run on these sees the same fruits. ValueError unless ``n`` >= 1."""
    _check_int(n, "trials")
    seqs = [np.random.SeedSequence((seed, f_idx, t)) for t in range(n)]
    return [(sample_fruit(fruit_type, np.random.default_rng(s.spawn(1)[0])),
             s.spawn(1)[0]) for s in seqs]


@dataclass(frozen=True)
class StrategySummary:
    """Aggregate over one (fruit type, strategy) cell of the ablation."""

    fruit_type: str
    strategy: str
    n_trials: int
    success_rate: float
    mean_attempts: float
    force_mean: float
    force_var: float
    failure_counts: dict

    @classmethod
    def of(cls, fruit_type: str, strategy: str, outcomes) -> "StrategySummary":
        """A cell's summary; force statistics are over the trials' peaks."""
        peaks = np.array([o.peak_force_n for o in outcomes])
        return cls(fruit_type, strategy, len(outcomes),
                   float(np.mean([o.success for o in outcomes])),
                   float(np.mean([o.attempts for o in outcomes])),
                   float(peaks.mean()), float(peaks.var()),
                   dict(Counter(o.failure_mode for o in outcomes
                                if not o.success)))


def run_experiment(trials_per_cell: int = 50, seed: int = 0,
                   fruit_types=FRUIT_TYPES, strategies=STRATEGIES) -> list:
    """Seeded three-strategy ablation over sampled fruit populations.

    The fruit drawn for trial ``i`` of a fruit type is identical across
    strategies (``paired_trials``), so strategy comparisons are paired.
    """
    if trials_per_cell < 8:
        raise ValueError("need at least 8 trials per cell")
    summaries = []
    for f_idx, fruit_type in enumerate(fruit_types):
        cell = paired_trials(fruit_type, trials_per_cell, seed, f_idx)
        for strategy in strategies:
            cfg = StrategyConfig(strategy=strategy)
            summaries.append(StrategySummary.of(fruit_type, strategy, [
                run_trial(fruit, cfg, seed=trial_seed)
                for fruit, trial_seed in cell]))
    return summaries
