"""Simulated harvest trials comparing three grasp control strategies.

Each trial runs a 15 Hz perception and control loop against a lumped fruit
model: contact force from jaw squeeze, pull transmitted through a friction
cap, detachment and bruising as force thresholds. The controller only sees
what the perception stack reports, a normal-force estimate decoded from the
simulated motor current and a slip flag from the marker-versus-object
velocity rule, so the three strategies differ exactly in how they use those
two percepts.

The contact seen by the slip rule is a small disc in a square tracking
window whose centre follows the slid object. It is held as its whole-pixel
centre, which is exactly its centroid, and marker membership is a distance
test on the markers' pixels, so a tick does no per-pixel work. The rule
itself runs the kernels of ``slip.object_velocity`` and
``slip.marker_velocity`` on the newest frame of a six-frame window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .force import fit_normal_force, predict_normal_force
from .sim import CURRENT_GAIN, CURRENT_NOISE, CURRENT_OFFSET, make_force_samples
from .slip import (DEFAULT_SMOOTH_WINDOW, DEFAULT_THRESHOLD_PX, TICK_WINDOW,
                   _centroid_velocity, _dragged_velocity, _trailing_mean,
                   detect_slip)
# Unused here, but bound on purpose: perfbench's span tracer test takes
# ``harvest.object_velocity`` as its example of a name re-bound across layers.
from .slip import object_velocity  # noqa: F401

STRATEGIES = ("open_loop", "slip", "slip_force")
STATES = ("detect", "approach", "close", "hold_pull", "retry", "done")
FAILURE_MODES = ("none", "slip_drop", "bruise", "max_retries")

TICK_HZ = 15.0
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
        if self.diameter_mm <= 0 or self.stiffness_n_mm <= 0:
            raise ValueError("diameter and stiffness must be positive")
        if self.detach_force_n < 0 or self.bruise_force_n <= 0:
            raise ValueError("force thresholds must be non-negative")
        if self.friction <= 0 or self.stem_stiffness_factor <= 0:
            raise ValueError("friction and stem factor must be positive")


@dataclass(frozen=True)
class StrategyConfig:
    """Parameters of one control strategy.

    ``open_loop`` closes to measured diameter minus ``close_margin_mm`` and
    pulls once. ``slip`` additionally re-closes by ``retry_increment_mm``
    whenever slip is flagged while pulling. ``slip_force`` closes until the
    estimated normal force reaches a commanded value that starts at the
    per-fruit initial force and rises by the per-fruit increment on slip.
    """

    strategy: str
    close_margin_mm: float = 2.0
    retry_increment_mm: float = 2.0
    max_retries: int = 3

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.close_margin_mm < 0:
            raise ValueError("close_margin_mm must be non-negative")
        if self.retry_increment_mm <= 0:
            raise ValueError("retry_increment_mm must be positive")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")

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
    ``phase_ticks`` counts ticks spent in the current state.
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
        if self.opening_mm < 0 or not np.isfinite(self.opening_mm):
            raise ValueError("opening_mm must be finite and non-negative")
        if self.attempt < 1:
            raise ValueError("attempt count starts at 1")


@dataclass(frozen=True)
class TrialOutcome:
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
        object.__setattr__(self, "force_trace",
                           np.asarray(self.force_trace, dtype=np.float64))


def fruit_response(fruit: FruitModel, opening_mm: float, pull_n: float):
    """Plant-side mechanics for one tick.

    Returns (contact force N, slip rate in [0, 1], detached, bruised).
    The pull transmitted to the stem is capped by the friction cone
    ``friction * contact_force``; the slip rate is the fraction of the pull
    the cone cannot carry, so it decreases monotonically with grip force
    and is 1 when the jaws are not touching the fruit.
    """
    if opening_mm < 0:
        raise ValueError("opening_mm must be non-negative")
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


def step_controller(state: GraspState, percepts, cfg: StrategyConfig) -> GraspState:
    """One tick of the grasp state machine.

    ``percepts`` is (slip flag, normal-force estimate N). The done state is
    absorbing and the attempt counter never exceeds ``cfg.max_retries``.
    """
    slip_flag, f_n = percepts
    peak = max(state.peak_force_n, float(f_n))
    step = {"peak_force_n": peak, "phase_ticks": state.phase_ticks + 1}

    def moved(**kw):
        merged = {**state.__dict__, **step, **kw}
        return GraspState(**merged)

    if state.state == "done":
        return moved(phase_ticks=state.phase_ticks)
    if state.state == "detect":
        return moved(state="approach", phase_ticks=0)
    if state.state == "approach":
        # The arm move also pre-opens the jaws to just over the fruit.
        pre = min(state.opening_mm,
                  state.measured_diameter_mm + APPROACH_CLEARANCE_MM)
        return moved(state="close", opening_mm=pre, phase_ticks=0)
    if state.state == "close":
        if cfg.strategy == "slip_force":
            if f_n >= state.commanded_force_n:
                return moved(state="hold_pull", phase_ticks=0)
            return moved(opening_mm=max(0.0, state.opening_mm - CLOSING_SPEED_MM))
        target = _close_target(state, cfg)
        if state.opening_mm <= target:
            return moved(state="hold_pull", phase_ticks=0)
        return moved(opening_mm=max(target, state.opening_mm - CLOSING_SPEED_MM))
    if state.state == "hold_pull":
        if slip_flag and cfg.strategy != "open_loop":
            if state.attempt >= cfg.max_retries:
                return moved(state="done")
            return moved(state="retry", phase_ticks=0)
        if state.phase_ticks >= HOLD_TICKS:
            if cfg.strategy == "open_loop" or state.attempt >= cfg.max_retries:
                return moved(state="done")
            return moved(state="retry", phase_ticks=0)
        return moved()
    # retry: bump the attempt, raise the commanded force for slip_force,
    # and re-enter the closing phase.
    commanded = state.commanded_force_n
    if cfg.strategy == "slip_force":
        commanded += cfg.force_increment(state.fruit_type)
    return moved(state="close", attempt=state.attempt + 1,
                 commanded_force_n=commanded, phase_ticks=0)


# The controller's current-to-force decoder, fitted on a fixed draw.
_FORCE_MODEL = fit_normal_force(np.column_stack(
    make_force_samples(rng=np.random.default_rng(1234))))


def _disc_centre(center_px: float) -> tuple[int, int]:
    """Pixel (column, row) of the contact disc whose centroid tracks the object.

    The disc has radius ``_DISC_RADIUS_PX`` and is clamped to lie inside the
    ``_TRACK_WINDOW_PX`` square tracking window. It is symmetric about its
    whole-pixel centre, so that centre is exactly its centroid.
    """
    cx = int(round(min(max(center_px, _DISC_RADIUS_PX),
                       _TRACK_WINDOW_PX - _DISC_RADIUS_PX - 1)))
    return cx, _TRACK_WINDOW_PX // 2


def _disc_contains(centre: tuple[int, int], xy: np.ndarray) -> np.ndarray:
    """Which of the (N, 2) positions fall on a pixel of the contact disc.

    Positions snap to the nearest pixel of the tracking window, clipped at
    its border, as ``ContactMask.contains`` does on a raster.
    """
    cols = np.clip(np.rint(xy[:, 0]).astype(int), 0, _TRACK_WINDOW_PX - 1)
    rows = np.clip(np.rint(xy[:, 1]).astype(int), 0, _TRACK_WINDOW_PX - 1)
    dc, dr = cols - centre[0], rows - centre[1]
    return dc * dc + dr * dr <= _DISC_RADIUS_PX * _DISC_RADIUS_PX


def _newest_velocities(centres, positions):
    """Object and marker velocity of the newest frame in the slip window.

    ``centres`` holds the disc centre and ``positions`` the (N, 2) marker
    positions of each frame in the window, oldest first. The values are the
    last rows of ``object_velocity`` and ``marker_velocity`` over the same
    frames' disc masks: the same kernels, smoothed from the window's start.
    """
    cents = np.array(centres, dtype=np.float64)
    v_obj = _centroid_velocity(cents, DEFAULT_SMOOTH_WINDOW)[-1]
    pos = np.array(positions)
    pos_s = _trailing_mean(pos.reshape(len(pos), -1), DEFAULT_SMOOTH_WINDOW)
    step = (pos_s[-1] - pos_s[-2]).reshape(-1, 2)
    v_mark = _dragged_velocity(step, positions[-1],
                               _disc_contains(centres[-1], positions[-1]),
                               lambda: cents[-1])
    return v_obj, v_mark


def _patch_radius_mm(fruit: FruitModel, opening_mm: float) -> float:
    """Contact patch radius from spherical-cap geometry of the jaw squeeze."""
    depth = max(0.0, fruit.diameter_mm - opening_mm) / 2.0
    return float(np.sqrt(max(0.0, depth * (fruit.diameter_mm - depth))))


def run_trial(fruit: FruitModel, cfg: StrategyConfig, seed: int = 0,
              diameter_noise_mm: float = DEFAULT_DIAMETER_NOISE_MM,
              marker_jitter_px: float = DEFAULT_MARKER_JITTER_PX,
              px_per_mm: float = DEFAULT_PX_PER_MM,
              threshold_px: float = DEFAULT_THRESHOLD_PX) -> TrialOutcome:
    """Run one seeded perception-control loop until the trial resolves.

    Success means detached without bruising and without the cumulative slip
    displacement exceeding the contact patch radius (the drop rule). The
    force trace holds the per-tick normal-force estimates the controller
    actually saw: the motor current, with ``sim.CURRENT_NOISE`` added,
    decoded by the fixed ``_FORCE_MODEL``.
    """
    rng = np.random.default_rng(seed)
    measured = fruit.diameter_mm + (
        rng.normal(0.0, diameter_noise_mm) if diameter_noise_mm > 0 else 0.0)
    state = GraspState(state="detect", opening_mm=START_OPENING_MM,
                       commanded_force_n=cfg.initial_force(fruit.fruit_type),
                       measured_diameter_mm=max(1.0, measured),
                       fruit_type=fruit.fruit_type)
    marker_rest = np.stack(np.meshgrid([-20.0, 0.0, 20.0], [-20.0, 0.0, 20.0]),
                           axis=-1).reshape(-1, 2) + _TRACK_WINDOW_PX / 2.0
    centres, positions = deque(maxlen=TICK_WINDOW), deque(maxlen=TICK_WINDOW)
    trace = []
    slip_mm = 0.0
    start_px = 4.0 * _DISC_RADIUS_PX

    for _ in range(MAX_TICKS):
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

        current = (CURRENT_GAIN * contact + CURRENT_OFFSET
                   + rng.normal(0.0, CURRENT_NOISE))
        f_est = max(0.0, float(predict_normal_force(current, _FORCE_MODEL)))
        trace.append(f_est)

        centres.append(_disc_centre(start_px + slip_mm * px_per_mm))
        jitter = (rng.normal(0.0, marker_jitter_px, marker_rest.shape)
                  if marker_jitter_px > 0 else 0.0)
        positions.append(marker_rest + jitter)
        slip_flag = len(centres) >= 2 and detect_slip(
            *_newest_velocities(centres, positions), threshold_px)

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


def run_experiment(trials_per_cell: int = 50, seed: int = 0,
                   fruit_types=("cherry_tomato", "strawberry"),
                   strategies=STRATEGIES) -> list:
    """Seeded three-strategy ablation over sampled fruit populations.

    The fruit drawn for trial ``i`` of a fruit type is identical across
    strategies, so strategy comparisons are paired. Force statistics are
    over the per-trial peak normal-force estimates.
    """
    if trials_per_cell < 8:
        raise ValueError("need at least 8 trials per cell")
    summaries = []
    for f_idx, fruit_type in enumerate(fruit_types):
        fruits, seeds = [], []
        for trial in range(trials_per_cell):
            seq = np.random.SeedSequence((seed, f_idx, trial))
            fruits.append(sample_fruit(fruit_type,
                                       np.random.default_rng(seq.spawn(1)[0])))
            seeds.append(seq.spawn(1)[0])
        for strategy in strategies:
            cfg = StrategyConfig(strategy=strategy)
            outcomes = [run_trial(fruit, cfg, seed=trial_seed)
                        for fruit, trial_seed in zip(fruits, seeds)]
            peaks = np.array([o.peak_force_n for o in outcomes])
            failures = {}
            for o in outcomes:
                if not o.success:
                    failures[o.failure_mode] = failures.get(o.failure_mode, 0) + 1
            summaries.append(StrategySummary(
                fruit_type, strategy, trials_per_cell,
                float(np.mean([o.success for o in outcomes])),
                float(np.mean([o.attempts for o in outcomes])),
                float(peaks.mean()), float(peaks.var()), failures))
    return summaries
