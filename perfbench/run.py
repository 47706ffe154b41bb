"""gripsense benchmark: run one workload on one seed and print its metrics.

    python3 perfbench/run.py --workload tick_240x320 --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ``src/``. Inputs
are generated from ``--seed`` before anything is timed. With ``--trace 0``
the last stdout line holds the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` every public function of the seven layers is wrapped and the
line holds the per-layer metrics instead. Untraced times are reported at
nominal host speed (``hostspeed.py``); the traced run reports them as
measured. Both modes apply the same correctness gates: a violation is
counted as a failure and the exit code is 1. The full result, with the
machine record, goes to ``perfbench/out/<workload>-seed<n>-trace<k>.json``
(spans beside it).
"""

from __future__ import annotations

import os

# One client thread and single-threaded BLAS: never more threads than cores,
# and steadier timings on a shared host. Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "gripsense" / "__init__.py").is_file():
    sys.exit(f"gripsense sources not found under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gripsense  # noqa: E402
from gripsense import harvest  # noqa: E402

import stages  # noqa: E402
import tick as tk  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "tick_p50_ms": ("ms", "lower"),
    "tick_p95_ms": ("ms", "lower"),
    "ticks_per_s": ("1/s", "higher"),
    "calibrate_s": ("s", "lower"),
    "slip_eval_s": ("s", "lower"),
    "harvest_s": ("s", "lower"),
    "fail_frac": ("frac", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "recon_mse_mm2": ("mm2", "lower"),
    "normal_force_mae_n": ("N", "lower"),
    "shear_force_mae_n": ("N", "lower"),
    "slip_f1": ("frac", "higher"),
    "rank_acc": ("frac", "higher"),
    "harvest_success": ("frac", "higher"),
}

PER_LAYER = {
    "geometry.predict_normals.ms": ("ms", "lower"),
    "geometry.predict_normals.ns_per_px": ("ns/px", "lower"),
    "geometry.integrate_normals.ms": ("ms", "lower"),
    "geometry.integrate_normals.cold_ms": ("ms", "lower"),
    "geometry.fit_rgb2normal.s": ("s", "lower"),
    "geometry.fit_rgb2normal.iters": ("count", "lower"),
    "geometry.fit_rgb2normal.final_loss": ("loss", "lower"),
    "core.diff_image.ms": ("ms", "lower"),
    "force.interpolate_markers.ms": ("ms", "lower"),
    "force.hhd_decompose.ms": ("ms", "lower"),
    "force.hhd_decompose.cold_ms": ("ms", "lower"),
    "force.build_shear_features.s": ("s", "lower"),
    "slip.segment_contact.ms": ("ms", "lower"),
    "slip.object_velocity.ms": ("ms", "lower"),
    "slip.marker_velocity.ms": ("ms", "lower"),
    "slip.object_velocity.calls": ("count", "lower"),
    "slip.analyze_sequence.s": ("s", "lower"),
    "sim.make_slip_benchmark.s": ("s", "lower"),
    "sim.make_calibration_presses.s": ("s", "lower"),
    "sim.make_shear_dataset.s": ("s", "lower"),
    "sim.synth_compression_clip.s": ("s", "lower"),
    "softness.build_clip_library.s": ("s", "lower"),
    "softness.train_ranker.s": ("s", "lower"),
    "softness.train_ranker.iters": ("count", "lower"),
    "harvest.run_trial.ms": ("ms", "lower"),
    "harvest.run_trial.ticks": ("count", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "tick.failed_at.slip": ("count", "lower"),
    "tick.layer_cover": ("frac", "higher"),
    "trace.overhead_est_pct": ("%", "lower"),
}


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        # the ceiling keeps git from searching above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gripsense").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "using_numba": bool(gripsense.USING_NUMBA),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------

def run_probes(profile, models, sensor, script, seed) -> list[dict]:
    """Set-up cost in fresh processes: a harvest trial offline, else a tick."""
    if profile.offline:
        op = "trial"
        fruit = harvest.sample_fruit("strawberry", stages._rng(seed, 3))
        payload = (fruit, harvest.StrategyConfig(strategy="slip_force"), seed)
    else:
        op = "tick"
        fr = script[tk.APPROACH + tk.PRESS]            # first hold frame
        payload = (models, sensor, fr.pixels, fr.markers, fr.current)
    data = pickle.dumps(payload)
    out = []
    for _ in range(profile.probes):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), op],
                              input=data, capture_output=True, timeout=120,
                              check=True)
        out.append(json.loads(proc.stdout.decode().strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run_workload(name: str, profile, seed: int, seconds: float, trace: bool) -> dict:
    rec = stages.Record()
    sensor = tk.make_sensor(profile.raster)
    script = tk.grasp_script(stages._rng(seed, 0), profile.raster,
                             profile.grasps, sensor)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(gripsense)
    t_run = time.perf_counter()
    # The traced run does not sample host speed: its spans would hold the
    # sampler's time.
    try:
        with nullcontext() if trace else rec.speed.sampling():
            def calibrate():
                return stages.calibrate(profile, seed, rec, tracer)

            def slip_and_harvest(sub_seed):
                stages.run_slip(profile, sub_seed, rec)
                stages.run_harvest(profile, sub_seed, rec)

            models = calibrate()
            while profile.offline and sum(rec.seconds("calibrate", False)) < seconds:
                models = calibrate()
            with rec.speed.paused(), (tracer.paused() if tracer else nullcontext()):
                probes = run_probes(profile, models, sensor, script, seed)
            stages.run_ticks(script, sensor, models,
                             0.0 if profile.offline else seconds,
                             profile.min_ok_ticks, rec, tracer,
                             score=not profile.offline)
            if profile.offline:
                t0 = time.perf_counter()
                slip_and_harvest(seed)
                while time.perf_counter() - t0 < seconds:
                    slip_and_harvest(seed)
            else:
                # Every companion round repeats the same work, on seed 0
                # whatever the run seed: their few trials would otherwise
                # measure the draw, not the code.
                for r in range(profile.rounds):
                    slip_and_harvest(0)
                    if r:                # calibrate's first round ran already
                        calibrate()
    finally:
        if tracer:
            tracer.uninstall()
    run_s = time.perf_counter() - t_run

    rec.failed += len(rec.gates.violations)
    tick_ms = np.array(rec.seconds("tick")) * 1e3
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": not rec.gates.violations,
        "attempted": rec.attempted, "failed": rec.failed,
        "gates": rec.gates.checked, "violations": rec.gates.violations,
        "failed_at": rec.failed_at, "probes": probes,
        "ticks": {"attempted": rec.counters["ticks"], "ok": len(tick_ms),
                  "p50_ms": float(np.percentile(tick_ms, 50)),
                  "raw_p50_ms": float(np.percentile(rec.seconds("tick", False), 50)) * 1e3,
                  "raster": list(profile.raster),
                  "slip_f1_vs_script": rec.quality["tick_slip_f1"][0]},
        "stage_seconds": {k: rec.seconds(k) for k in ("calibrate", "slip", "harvest")},
        "raw_stage_seconds": {k: rec.seconds(k, False)
                              for k in ("calibrate", "slip", "harvest")},
        "host_speed": {"samples": len(rec.speed.t),
                       "median_ref_s": float(np.median(rec.speed.ref)) if rec.speed.ref else None},
        "run_s": run_s,
    }
    if tracer:
        result["metrics"], result["layers"] = layer_metrics(tracer, rec, profile, run_s)
        result["tracer"] = tracer
    else:
        result["metrics"] = end_to_end_metrics(rec, probes, tick_ms)
    return result


def end_to_end_metrics(rec, probes, tick_ms) -> dict:
    tick_s = tick_ms.sum() / 1e3 + sum(rec.seconds("tick_failed"))
    q = rec.quality
    values = {
        "setup_s": float(np.median([p["setup_s"] for p in probes])),
        "tick_p50_ms": float(np.percentile(tick_ms, 50)),
        "tick_p95_ms": float(np.percentile(tick_ms, 95)),
        "ticks_per_s": len(tick_ms) / tick_s,
        "calibrate_s": float(np.median(rec.seconds("calibrate"))),
        "slip_eval_s": float(np.median(rec.seconds("slip"))),
        "harvest_s": float(np.median(rec.seconds("harvest"))),
        # Only ticks fail (and gates); dividing by every operation would let a
        # faster offline stage, repeated more often, dilute it.
        "fail_frac": rec.failed / rec.counters["ticks"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{k: float(np.mean(q[k])) for k in ("recon_mse_mm2", "normal_force_mae_n",
                                             "shear_force_mae_n", "slip_f1",
                                             "rank_acc", "harvest_success")},
    }
    return {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}


def layer_metrics(tracer, rec, profile, run_s):
    nid, start, dur, parent, op, self_t = tracer.table()
    names = np.array(tracer.names)[nid]
    layer = np.array([n.split(".")[0] for n in names])
    tick_ops = np.unique(op[names == "bench.tick"])
    in_tick = np.isin(op, tick_ops)

    def sel(fn, where=None):
        m = names == fn
        return dur[m if where is None else m & where]

    trial_ops = op[names == "harvest.run_trial"]
    ticks_per_trial = (np.isin(op, trial_ops) & (names == "harvest.fruit_response")).sum() \
        / max(len(trial_ops), 1)
    def tick_ms(fn):                     # per-call median on the tick path
        return np.median(sel(fn, in_tick)) * 1e3

    tick_wall = sel("bench.tick").sum()
    covered = self_t[in_tick & (layer != "bench")].sum()
    n_px = profile.raster[0] * profile.raster[1]
    values = {
        "geometry.predict_normals.ms": tick_ms("geometry.predict_normals"),
        "geometry.predict_normals.ns_per_px":
            tick_ms("geometry.predict_normals") * 1e6 / n_px,
        "geometry.integrate_normals.ms": tick_ms("geometry.integrate_normals"),
        "geometry.integrate_normals.cold_ms": sel("geometry.integrate_normals")[0] * 1e3,
        "geometry.fit_rgb2normal.s": sel("geometry.fit_rgb2normal").sum(),
        "geometry.fit_rgb2normal.iters": rec.counters["geometry.fit_rgb2normal.iters"],
        "geometry.fit_rgb2normal.final_loss": rec.counters["geometry.fit_rgb2normal.final_loss"],
        "core.diff_image.ms": tick_ms("core.diff_image"),
        "force.interpolate_markers.ms": tick_ms("force.interpolate_markers"),
        "force.hhd_decompose.ms": tick_ms("force.hhd_decompose"),
        "force.hhd_decompose.cold_ms": sel("force.hhd_decompose")[0] * 1e3,
        "force.build_shear_features.s": sel("force.build_shear_features").sum(),
        "slip.segment_contact.ms": np.median(sel("slip.segment_contact")) * 1e3,
        "slip.object_velocity.ms": np.median(sel("slip.object_velocity")) * 1e3,
        "slip.marker_velocity.ms": np.median(sel("slip.marker_velocity")) * 1e3,
        "slip.object_velocity.calls": len(sel("slip.object_velocity")),
        "slip.analyze_sequence.s": sel("slip.analyze_sequence").sum(),
        "sim.make_slip_benchmark.s": sel("sim.make_slip_benchmark").sum(),
        "sim.make_calibration_presses.s": sel("sim.make_calibration_presses").sum(),
        "sim.make_shear_dataset.s": sel("sim.make_shear_dataset").sum(),
        "sim.synth_compression_clip.s": sel("sim.synth_compression_clip").sum(),
        "softness.build_clip_library.s": sel("softness.build_clip_library").sum(),
        "softness.train_ranker.s": sel("softness.train_ranker").sum(),
        "softness.train_ranker.iters": rec.counters["softness.train_ranker.iters"],
        "harvest.run_trial.ms": np.median(sel("harvest.run_trial")) * 1e3,
        "harvest.run_trial.ticks": ticks_per_trial,
        **{f"{name}.self_s": self_t[layer == name].sum() for name in LAYERS},
        "tick.failed_at.slip": rec.failed_at.get("slip", 0),
        "tick.layer_cover": covered / tick_wall,
        # an estimate: spans times one wrapper call's cost, not a paired run
        "trace.overhead_est_pct": 100.0 * len(dur) * tracer.span_cost_s() / run_s,
    }
    metrics = {k: {"value": float(values[k]), "unit": PER_LAYER[k][0]} for k in PER_LAYER}

    # per-layer table: self time over the whole run and inside ticks
    layers = {}
    for name in ("bench",) + LAYERS:
        m = layer == name
        layers[name] = {"self_s": float(self_t[m].sum()), "calls": int(m.sum()),
                        "tick_self_s": float(self_t[m & in_tick].sum()),
                        "tick_calls": int((m & in_tick).sum())}
    return metrics, layers


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_report(result) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"run={result['run_s']:.1f}s attempted={result['attempted']} "
          f"failed={result['failed']} failed_at={result['failed_at']}")
    t = result["ticks"]
    print(f"# ticks: {t['attempted']} attempted, {t['ok']} ok at "
          f"{t['raster'][0]}x{t['raster'][1]} (p95 has {int(t['ok'] * 0.05)} beyond it)")
    if result["violations"]:
        print(f"# GATE VIOLATIONS: {result['violations']}")
    if "layers" in result:
        layers = result["layers"]
        in_ticks = t["ok"] and result["workload"].startswith("tick_")
        key, calls = ("tick_self_s", "tick_calls") if in_ticks else ("self_s", "calls")
        total = sum(v[key] for v in layers.values()) or 1.0
        ranked = sorted((k for k in layers if k != "bench"),
                        key=lambda k: -layers[k][key])
        scope = "within ticks" if in_ticks else "whole run"
        print(f"# per-layer self time ({scope}); top layer: {ranked[0]}")
        for k in ranked + ["bench"]:
            v = layers[k]
            print(f"#   {k:9s} {v[key]:9.3f} s  {100 * v[key] / total:5.1f}%  "
                  f"{v[calls]:8d} calls")
    for k, v in result["metrics"].items():
        print(f"#   {k:38s} {v['value']:.6g} {v['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(stages.PROFILES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    result = run_workload(args.workload, stages.PROFILES[args.workload],
                          args.seed, args.seconds, bool(args.trace))
    result["machine"] = machine_record()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("tracer", None)
    if tracer:
        tracer.write(out / f"{stem}.spans.jsonl.gz")
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1, default=float))
    print_report(result)
    print(json.dumps({"machine": result["machine"]}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
