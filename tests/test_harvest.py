"""Harvest ablation: fruit mechanics, grasp controller, seeded trials."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripsense import harvest, slip
from gripsense.sim import CURRENT_NOISE
from oracles import paint_disc_mask, run_trial_reference

TOMATO = harvest.FruitModel("cherry_tomato", diameter_mm=28.0,
                            stiffness_n_mm=1.3, detach_force_n=1.3,
                            bruise_force_n=6.0, friction=1.0)


def _state(**kw):
    base = dict(state="close", opening_mm=30.0, commanded_force_n=0.0,
                measured_diameter_mm=28.0, fruit_type="cherry_tomato")
    base.update(kw)
    return harvest.GraspState(**base)


class TestFruitModel:
    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            harvest.FruitModel("cherry_tomato", -1.0, 1.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            harvest.FruitModel("cherry_tomato", 28.0, 1.0, 1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            harvest.FruitModel("durian", 28.0, 1.0, 1.0, 2.0, 1.0)

    @pytest.mark.parametrize("field", [
        "diameter_mm", "stiffness_n_mm", "detach_force_n", "bruise_force_n",
        "friction", "stem_stiffness_factor"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejects_non_finite_and_negative_fields(self, field, bad):
        # unchecked, a NaN diameter ran 400 ticks and ended as max_retries
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(TOMATO, **{field: bad})

    def test_fragile_configuration_constructible(self):
        fragile = harvest.FruitModel("strawberry", 30.0, 0.9,
                                     detach_force_n=5.0, bruise_force_n=2.5,
                                     friction=1.1)
        assert fragile.bruise_force_n < fragile.detach_force_n


class TestFruitResponse:
    def test_open_jaws_no_force_full_slip(self):
        contact, slip_rate, detached, bruised = harvest.fruit_response(
            TOMATO, TOMATO.diameter_mm + 2.0, 3.0)
        assert contact == 0.0
        assert slip_rate == 1.0
        assert not detached and not bruised

    def test_contact_force_is_linear_in_squeeze(self):
        c1 = harvest.fruit_response(TOMATO, 27.0, 0.0)[0]
        c2 = harvest.fruit_response(TOMATO, 26.0, 0.0)[0]
        assert c1 == pytest.approx(TOMATO.stiffness_n_mm * 1.0)
        assert c2 == pytest.approx(TOMATO.stiffness_n_mm * 2.0)

    def test_deep_squeeze_bruises(self):
        out = harvest.fruit_response(TOMATO, 28.0 - 5.0, 0.0)
        assert out[0] > TOMATO.bruise_force_n
        assert out[3] is True

    def test_detaches_when_grip_transmits_enough_pull(self):
        # 2 mm squeeze: grip limit 2.6 N > detach 1.3 N, pull 2.0 N
        contact, slip_rate, detached, bruised = harvest.fruit_response(
            TOMATO, 26.0, 2.0)
        assert detached and not bruised
        assert slip_rate == 0.0

    def test_slip_rate_monotone_in_grip(self):
        pull = 4.0
        rates = [harvest.fruit_response(TOMATO, 28.0 - s, pull)[1]
                 for s in (0.5, 1.0, 2.0, 3.0)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[0] > 0.0

    def test_zero_detach_force_always_detaches_under_pull(self):
        easy = harvest.FruitModel("cherry_tomato", 28.0, 1.3, 0.0, 6.0, 1.0)
        assert harvest.fruit_response(easy, 27.0, 0.5)[2]

    def test_negative_opening_raises(self):
        with pytest.raises(ValueError):
            harvest.fruit_response(TOMATO, -1.0, 0.0)

    @pytest.mark.parametrize("opening, pull, name", [
        (np.nan, 0.0, "opening_mm"), (np.inf, 0.0, "opening_mm"),
        (27.0, np.nan, "pull_n"), (27.0, -1.0, "pull_n"),
        (27.0, np.inf, "pull_n")])
    def test_rejects_garbage_inputs(self, opening, pull, name):
        # unchecked, a NaN or negative pull read as zero slip
        with pytest.raises(ValueError, match=name):
            harvest.fruit_response(TOMATO, opening, pull)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 40.0), st.floats(0.0, 8.0))
    def test_slip_rate_always_a_fraction(self, opening, pull):
        _, rate, _, _ = harvest.fruit_response(TOMATO, opening, pull)
        assert 0.0 <= rate <= 1.0


class TestStrategyConfig:
    def test_schedules(self):
        assert harvest.INITIAL_FORCE_N == {"cherry_tomato": 1.2,
                                           "strawberry": 2.0}
        assert harvest.FORCE_INCREMENT_N == {"cherry_tomato": 0.3,
                                             "strawberry": 1.0}

    def test_fruit_tables_name_the_same_fruit_types(self):
        """The force schedule is read by fruit type without a check: every
        table must hold exactly the ablation's fruit types."""
        for table in (harvest.DEFAULT_POPULATIONS, harvest.INITIAL_FORCE_N,
                      harvest.FORCE_INCREMENT_N):
            assert set(table) == set(harvest.FRUIT_TYPES)

    def test_validation(self):
        with pytest.raises(ValueError):
            harvest.StrategyConfig(strategy="telepathy")
        with pytest.raises(ValueError):
            harvest.StrategyConfig(strategy="slip", max_retries=0)
        # a fruit type without a force schedule never reaches the controller
        with pytest.raises(ValueError, match="unknown fruit type"):
            harvest.GraspState("detect", 40.0, 1.0, fruit_type="durian")
        with pytest.raises(ValueError, match="unknown fruit type"):
            dataclasses.replace(TOMATO, fruit_type="durian")

    @pytest.mark.parametrize("kw", [
        {"close_margin_mm": np.nan}, {"close_margin_mm": np.inf},
        {"close_margin_mm": -0.5}, {"retry_increment_mm": np.nan},
        {"retry_increment_mm": np.inf}, {"retry_increment_mm": 0.0},
        {"max_retries": 2.5}, {"max_retries": 3.0}, {"max_retries": True},
        {"max_retries": 0}])
    def test_rejects_non_finite_and_fractional_settings(self, kw):
        # unchecked, a NaN margin turned a slip trial into a bruise
        with pytest.raises(ValueError, match=next(iter(kw))):
            harvest.StrategyConfig(strategy="slip", **kw)

    def test_accepts_numpy_integer_retries(self):
        cfg = harvest.StrategyConfig(strategy="slip", max_retries=np.int64(2))
        assert cfg.max_retries == 2


class TestGraspState:
    @pytest.mark.parametrize("kw, name", [
        ({"commanded_force_n": np.nan}, "commanded_force_n"),
        ({"measured_diameter_mm": np.nan}, "measured_diameter_mm"),
        ({"peak_force_n": np.nan}, "peak_force_n"),
        ({"peak_force_n": -1.0}, "peak_force_n"),
        ({"opening_mm": np.inf}, "opening_mm"),
        ({"phase_ticks": -1}, "phase_ticks"),
        ({"phase_ticks": 2.0}, "phase_ticks"),
        ({"attempt": 1.5}, "attempt"),
        ({"attempt": 0}, "attempt"),
        ({"fruit_type": "banana"}, "fruit type"),
        ({"state": "dance"}, "state")])
    def test_rejects_garbage(self, kw, name):
        with pytest.raises(ValueError, match=name):
            _state(**kw)


class TestController:
    CFG = harvest.StrategyConfig(strategy="slip")

    def test_detect_then_approach_preopens(self):
        s = _state(state="detect", opening_mm=40.0)
        s = harvest.step_controller(s, (False, 0.0), self.CFG)
        assert s.state == "approach"
        s = harvest.step_controller(s, (False, 0.0), self.CFG)
        assert s.state == "close"
        assert s.opening_mm == pytest.approx(28.0 + 6.0)

    def test_close_descends_to_target_then_holds(self):
        target = 28.0 - 2.0
        s = _state(opening_mm=target + 0.5)
        s = harvest.step_controller(s, (False, 0.0), self.CFG)
        assert s.opening_mm == pytest.approx(target + 0.25)
        s = harvest.step_controller(s, (False, 0.0), self.CFG)
        assert s.opening_mm == pytest.approx(target)
        s = harvest.step_controller(s, (False, 0.0), self.CFG)
        assert s.state == "hold_pull"

    def test_slip_triggers_retry_with_deeper_target(self):
        s = _state(state="hold_pull")
        s = harvest.step_controller(s, (True, 1.0), self.CFG)
        assert s.state == "retry"
        s = harvest.step_controller(s, (False, 1.0), self.CFG)
        assert s.state == "close" and s.attempt == 2
        assert harvest._close_target(s, self.CFG) == pytest.approx(28.0 - 4.0)

    def test_open_loop_ignores_slip(self):
        cfg = harvest.StrategyConfig(strategy="open_loop")
        s = _state(state="hold_pull")
        s = harvest.step_controller(s, (True, 1.0), cfg)
        assert s.state == "hold_pull"

    def test_slip_force_closes_until_commanded_force(self):
        cfg = harvest.StrategyConfig(strategy="slip_force")
        s = _state(commanded_force_n=1.2, opening_mm=30.0)
        s = harvest.step_controller(s, (False, 0.5), cfg)
        assert s.state == "close" and s.opening_mm == pytest.approx(29.75)
        s = harvest.step_controller(s, (False, 1.3), cfg)
        assert s.state == "hold_pull"

    def test_slip_force_retry_raises_commanded_force(self):
        cfg = harvest.StrategyConfig(strategy="slip_force")
        s = _state(state="retry", commanded_force_n=1.2)
        s = harvest.step_controller(s, (False, 0.0), cfg)
        assert s.commanded_force_n == pytest.approx(1.5)
        s = _state(state="retry", commanded_force_n=1.5, attempt=2)
        s = harvest.step_controller(s, (False, 0.0), cfg)
        assert s.commanded_force_n == pytest.approx(1.8)

    def test_retry_capped_at_max_retries(self):
        s = _state(state="hold_pull", attempt=3)
        s = harvest.step_controller(s, (True, 1.0), self.CFG)
        assert s.state == "done"

    def test_hold_expiry_open_loop_finishes(self):
        cfg = harvest.StrategyConfig(strategy="open_loop")
        s = _state(state="hold_pull", phase_ticks=harvest.HOLD_TICKS)
        s = harvest.step_controller(s, (False, 1.0), cfg)
        assert s.state == "done"

    def test_done_is_absorbing(self):
        s = _state(state="done")
        s2 = harvest.step_controller(s, (True, 99.0), self.CFG)
        assert s2.state == "done"
        s3 = harvest.step_controller(s2, (False, 0.0), self.CFG)
        assert s3.state == "done"

    def test_peak_force_tracked(self):
        s = _state(state="hold_pull")
        s = harvest.step_controller(s, (False, 2.5), self.CFG)
        s = harvest.step_controller(s, (False, 1.0), self.CFG)
        assert s.peak_force_n == pytest.approx(2.5)


class TestReadsSlip:
    """``_reads_slip`` against ``step_controller``: the slip flag changes a
    step only where the predicate says the controller reads it, so a trial
    that computes the flag only there hands the controller the same
    decisions."""

    @staticmethod
    def _inputs():
        """Every state, with phase ticks and attempts on both sides of
        ``HOLD_TICKS`` and the default ``max_retries`` of 3, forces on both
        sides of the commanded force, and openings above and below the
        close target."""
        hold = harvest.HOLD_TICKS
        for name in harvest.STATES:
            for phase in (0, 1, hold - 1, hold, hold + 1):
                for attempt in (1, 2, 3, 4):
                    for opening in (20.0, 30.0):
                        s = _state(state=name, phase_ticks=phase,
                                   attempt=attempt, opening_mm=opening,
                                   commanded_force_n=1.2)
                        for f_n in (0.0, 1.0, 2.5):
                            yield s, f_n

    @pytest.mark.parametrize("strategy", harvest.STRATEGIES)
    def test_flag_matters_only_where_read(self, strategy):
        cfg = harvest.StrategyConfig(strategy=strategy)
        read, changed = 0, 0
        for s, f_n in self._inputs():
            flagged = harvest.step_controller(s, (True, f_n), cfg)
            clear = harvest.step_controller(s, (False, f_n), cfg)
            if harvest._reads_slip(s, cfg):
                read += 1
                changed += flagged != clear
            else:
                assert flagged == clear, (s, f_n)
        if strategy == "open_loop":
            assert read == 0
        else:
            assert changed > 0


class TestTrialOutcome:
    def test_success_requires_mode_none(self):
        with pytest.raises(ValueError):
            harvest.TrialOutcome(True, "bruise", 1, 1.0, np.zeros(3))
        with pytest.raises(ValueError):
            harvest.TrialOutcome(False, "none", 1, 1.0, np.zeros(3))
        out = harvest.TrialOutcome(False, "slip_drop", 2, 1.0, np.zeros(3))
        assert out.attempts == 2


class TestRunTrial:
    def test_deterministic(self):
        cfg = harvest.StrategyConfig(strategy="slip_force")
        a = harvest.run_trial(TOMATO, cfg, seed=7)
        b = harvest.run_trial(TOMATO, cfg, seed=7)
        assert a.success == b.success and a.attempts == b.attempts
        assert a.peak_force_n == b.peak_force_n
        assert np.array_equal(a.force_trace, b.force_trace)

    def test_zero_detach_force_succeeds_first_attempt_everywhere(self):
        easy = harvest.FruitModel("cherry_tomato", 28.0, 1.3, 0.0, 6.0, 1.0)
        for strategy in harvest.STRATEGIES:
            cfg = harvest.StrategyConfig(strategy=strategy)
            out = harvest.run_trial(easy, cfg, seed=0, diameter_noise_mm=0.0)
            assert out.success, strategy
            assert out.attempts == 1

    def test_fragile_fruit_bruises_open_loop_but_not_slip_force(self):
        # open_loop squeezes 4 mm (3.6 N), past the 2.9 N bruise threshold;
        # slip_force stops at its 2.0 N setpoint, enough to detach at 2.0 N
        fragile = harvest.FruitModel("strawberry", 30.0, 0.9,
                                     detach_force_n=2.0, bruise_force_n=2.9,
                                     friction=1.1)
        blind = harvest.run_trial(
            fragile, harvest.StrategyConfig(strategy="open_loop",
                                            close_margin_mm=4.0),
            seed=1, diameter_noise_mm=0.0)
        careful = harvest.run_trial(
            fragile, harvest.StrategyConfig(strategy="slip_force"),
            seed=1, diameter_noise_mm=0.0)
        assert blind.failure_mode == "bruise"
        assert careful.success
        assert careful.peak_force_n < blind.peak_force_n

    @pytest.mark.parametrize("kw", [
        {"diameter_noise_mm": -1.0}, {"diameter_noise_mm": np.nan},
        {"diameter_noise_mm": np.inf}, {"px_per_mm": 0.0},
        {"px_per_mm": -24.0}, {"px_per_mm": np.nan}, {"px_per_mm": np.inf},
        {"threshold_px": 0.0}, {"threshold_px": -1.0},
        {"threshold_px": np.nan}, {"threshold_px": np.inf}])
    @pytest.mark.parametrize("strategy", harvest.STRATEGIES)
    def test_rejects_bad_settings(self, kw, strategy):
        # unchecked, a negative or NaN noise reads as no noise and a bad
        # pitch or threshold as a slip drop or a bruise; the threshold is
        # checked up front, for an open-loop trial never reads it
        berry = harvest.sample_fruit("strawberry", np.random.default_rng(0))
        with pytest.raises(ValueError, match=next(iter(kw))):
            harvest.run_trial(berry, harvest.StrategyConfig(strategy=strategy),
                              seed=1, **kw)

    def test_force_trace_covers_trial(self):
        out = harvest.run_trial(TOMATO,
                                harvest.StrategyConfig(strategy="slip"),
                                seed=3)
        assert len(out.force_trace) > 10
        assert np.all(np.isfinite(out.force_trace))
        assert out.peak_force_n == pytest.approx(out.force_trace.max(),
                                                 abs=1e-9)


class TestNoiseBlocks:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, 99991])
    def test_block_draw_equals_normal_calls(self, seed):
        """``run_trial``'s noise: a block of standard normals scaled by
        sigma is, byte for byte, one ``normal(0.0, sigma)`` call a tick for
        the current and one for the (9, 2) markers. A numpy release that
        changed ``Generator.normal`` would fail here."""
        ticks, calls = 40, np.random.default_rng(seed)
        current = np.empty(ticks)
        markers = np.empty((ticks, 9, 2))
        for t in range(ticks):
            current[t] = calls.normal(0.0, CURRENT_NOISE)
            markers[t] = calls.normal(0.0, harvest.DEFAULT_MARKER_JITTER_PX,
                                      (9, 2))
        z = np.random.default_rng(seed).standard_normal((ticks, 19))
        assert (CURRENT_NOISE * z[:, 0]).tobytes() == current.tobytes()
        assert (harvest.DEFAULT_MARKER_JITTER_PX
                * z[:, 1:].reshape(ticks, 9, 2)).tobytes() == markers.tobytes()


class TestContactDisc:
    """The contact disc against the painted raster it replaces."""

    @pytest.mark.parametrize("center_px", [-50.0, 0.0, 7.6, 8.0, 8.5, 9.5,
                                           32.0, 100.25, 311.0, 311.4,
                                           311.6, 400.0])
    def test_centroid_is_the_clamped_centre(self, center_px):
        disc = harvest.ContactDisc(center_px)
        raster = paint_disc_mask(center_px)
        assert disc.centroid().tobytes() == raster.centroid().tobytes()
        assert disc.area == raster.area == 197

    def test_membership_matches_raster(self):
        r = np.random.default_rng(5)
        centres = np.concatenate([r.uniform(-20.0, 340.0, 40),
                                  [8.0, 311.0, -1.0, 330.0]])
        for center_px in centres:
            disc = harvest.ContactDisc(center_px)
            cx, cy = disc.centroid()
            # markers near the disc, on every pixel of its stencil square,
            # and past the window border
            yy, xx = np.mgrid[-9:10, -9:10]
            xy = np.column_stack([
                np.concatenate([r.normal(cx, 6.0, 200), xx.ravel() + cx,
                                r.uniform(-30.0, 350.0, 50)]),
                np.concatenate([r.normal(cy, 6.0, 200), yy.ravel() + cy,
                                r.uniform(-30.0, 350.0, 50)])])
            raster = paint_disc_mask(center_px).contains(xy)
            got = disc.contains(xy)
            assert raster.any()
            assert np.array_equal(got, raster)

    def test_trial_builds_no_raster(self, monkeypatch):
        def refuse(self):
            raise AssertionError("harvest built a contact raster")
        monkeypatch.setattr(slip.ContactMask, "__post_init__", refuse)
        out = harvest.run_trial(TOMATO, harvest.StrategyConfig(strategy="slip"),
                                seed=3)
        assert len(out.force_trace) > 10


def _criterion7_grid():
    """Fruits and trial seeds of ``run_experiment(50, seed=0)``, its grid."""
    for f_idx, fruit_type in enumerate(("cherry_tomato", "strawberry")):
        for trial in range(50):
            seq = np.random.SeedSequence((0, f_idx, trial))
            fruit = harvest.sample_fruit(
                fruit_type, np.random.default_rng(seq.spawn(1)[0]))
            yield fruit, seq.spawn(1)[0]


def _same_outcome(got, want):
    return (got.success == want.success
            and got.failure_mode == want.failure_mode
            and got.attempts == want.attempts
            and got.peak_force_n == want.peak_force_n
            and got.force_trace.shape == want.force_trace.shape
            and np.array_equal(got.force_trace, want.force_trace))


class TestTrialAgainstRasterLoop:
    @pytest.mark.parametrize("strategy", harvest.STRATEGIES)
    def test_criterion7_grid_matches_reference(self, strategy):
        cfg = harvest.StrategyConfig(strategy=strategy)
        modes = set()
        for fruit, seed in _criterion7_grid():
            got = harvest.run_trial(fruit, cfg, seed=seed)
            want = run_trial_reference(fruit, cfg, seed=seed)
            assert _same_outcome(got, want), (fruit, seed)
            modes.add(got.failure_mode)
        assert len(modes) >= 2

    def test_slip_rule_sees_reference_velocities(self, monkeypatch):
        # The velocities reaching the threshold rule, bit for bit: harvest
        # reads a two-frame window, the reference the series of the last six
        # frames, and the raw step makes their newest rows equal.
        # The reference runs the rule on every tick; harvest must run it on
        # exactly the ticks whose flag the controller reads, those in
        # hold_pull under a closed-loop strategy, and on no other.
        pending, ticks = [], []

        def recording(obj_v, marker_v, threshold_px=10.0):
            pending.append((np.array(obj_v), np.array(marker_v)))
            return slip_rule(obj_v, marker_v, threshold_px)

        def stepping(state, percepts, cfg):
            assert len(pending) <= 1
            ticks.append((state.state, pending.pop() if pending else None))
            return step(state, percepts, cfg)

        def run(trial, fruit, cfg, seed):
            ticks.clear()
            trial(fruit, cfg, seed=seed)
            assert not pending
            return list(ticks)

        slip_rule, step = slip.detect_slip, harvest.step_controller
        monkeypatch.setattr(harvest, "detect_slip", recording)
        monkeypatch.setattr(slip, "detect_slip", recording)
        monkeypatch.setattr(harvest, "step_controller", stepping)
        calls = dict.fromkeys(harvest.STRATEGIES, 0)
        for n, (fruit, seed) in enumerate(_criterion7_grid()):
            if n % 10:
                continue
            for strategy in harvest.STRATEGIES:
                cfg = harvest.StrategyConfig(strategy=strategy)
                got = [v for _, v in run(harvest.run_trial, fruit, cfg, seed)
                       if v is not None]
                want = [v for state, v in
                        run(run_trial_reference, fruit, cfg, seed)
                        if state == "hold_pull" and strategy != "open_loop"]
                assert len(got) == len(want)
                for (ov, mv), (ov_ref, mv_ref) in zip(got, want):
                    assert np.array_equal(ov, ov_ref)
                    assert np.array_equal(mv, mv_ref)
                calls[strategy] += len(got)
        assert calls["open_loop"] == 0
        assert calls["slip"] > 6 and calls["slip_force"] > 6


class TestPopulation:
    def test_sample_clipping_and_types(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            f = harvest.sample_fruit("cherry_tomato", rng)
            assert 22.0 <= f.diameter_mm <= 36.0
            assert f.stiffness_n_mm >= 0.5
            assert f.detach_force_n >= 0.4
            assert f.bruise_force_n >= f.detach_force_n + 1.0
            assert f.friction >= 0.8

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError):
            harvest.sample_fruit("durian", np.random.default_rng(0))

    def test_strawberries_softer_than_tomatoes_on_average(self):
        rng = np.random.default_rng(1)
        toms = [harvest.sample_fruit("cherry_tomato", rng).stiffness_n_mm
                for _ in range(100)]
        berries = [harvest.sample_fruit("strawberry", rng).stiffness_n_mm
                   for _ in range(100)]
        assert np.mean(berries) < np.mean(toms)


class TestExperiment:
    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            harvest.run_experiment(trials_per_cell=4)

    def test_summaries_shape_and_pairing(self):
        out = harvest.run_experiment(trials_per_cell=8, seed=0,
                                     fruit_types=("cherry_tomato",),
                                     strategies=("open_loop", "slip"))
        assert len(out) == 2
        for s in out:
            assert s.fruit_type == "cherry_tomato"
            assert s.n_trials == 8
            assert 0.0 <= s.success_rate <= 1.0
            assert s.force_var >= 0.0
            assert sum(s.failure_counts.values()) == round(
                (1.0 - s.success_rate) * s.n_trials)
        # same seed and fruit index: both strategies saw identical fruits,
        # so a rerun of the first cell reproduces it exactly
        again = harvest.run_experiment(trials_per_cell=8, seed=0,
                                       fruit_types=("cherry_tomato",),
                                       strategies=("open_loop",))[0]
        assert again.success_rate == out[0].success_rate
        assert again.force_mean == out[0].force_mean

    def test_criterion7_summaries_pinned(self, monkeypatch):
        """``run_experiment(50, seed=0)``, the criterion-7 grid, exactly; and
        the traffic of its trials: the plant is stepped 13,329 times, and
        the slip rule runs on the 1,415 ticks that read its flag."""
        calls = {"fruit_response": 0, "step_velocity": 0}

        def counted(name):
            fn = getattr(harvest, name)

            def call(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(harvest, name, call)

        counted("fruit_response")
        counted("step_velocity")
        got = [(s.fruit_type, s.strategy, s.success_rate, s.mean_attempts,
                s.force_mean, s.force_var, s.failure_counts)
               for s in harvest.run_experiment(50, seed=0)]
        assert got == [
            ("cherry_tomato", "open_loop", 0.76, 1.0, 2.7164629102872033,
             1.896445898849458, {"slip_drop": 11, "bruise": 1}),
            ("cherry_tomato", "slip", 0.98, 1.22, 3.252547661449912,
             1.0395431039331442, {"bruise": 1}),
            ("cherry_tomato", "slip_force", 1.0, 1.68, 1.6565082182566568,
             0.06135206864493045, {}),
            ("strawberry", "open_loop", 0.32, 1.0, 1.7950322557985074,
             0.8258357491227375, {"slip_drop": 33, "bruise": 1}),
            ("strawberry", "slip", 0.8, 1.72, 2.9020893868601836,
             0.4742903143316509, {"bruise": 9, "slip_drop": 1}),
            ("strawberry", "slip_force", 0.98, 1.52, 2.72081674729663,
             0.27485910785723716, {"bruise": 1}),
        ]
        assert calls == {"fruit_response": 13329, "step_velocity": 1415}
