"""Smoke tests for the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import stages  # noqa: E402
import tick as tk  # noqa: E402
from spans import Tracer  # noqa: E402

import gripsense  # noqa: E402
from gripsense import geometry, harvest, slip  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(profile: stages.Profile) -> stages.Profile:
    """Smallest sizes that still run every stage, without the acceptance gates."""
    cal = replace(profile.calibration, presses=3, press_px=64, epochs=120,
                  force_samples=200, shear_samples=16, shear_px=None,
                  shear_holdout=4, rank_cells=1, rank_epochs=3)
    return replace(profile, offline=False, calibration=cal, raster=(96, 128),
                   grasps=1, min_ok_ticks=5, probes=1, rounds=2,
                   slip=stages.SlipEval(1, 12, (20.0,), ("top",)),
                   harvest=stages.Harvest(8, ("cherry_tomato",)))


def _run(workload, trace):
    return run.run_workload(workload, tiny(stages.PROFILES[workload]),
                            seed=3, seconds=0.0, trace=trace)


def test_benchmark_json_matches_the_emitted_metrics():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == sorted(stages.PROFILES,
                                                                 reverse=True)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[key]}
        assert declared == table
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", sorted(stages.PROFILES))
def test_every_end_to_end_metric_on_every_workload(workload):
    result = _run(workload, trace=False)
    assert result["correct"], result["violations"]
    metrics = result["metrics"]
    assert set(metrics) == set(run.END_TO_END)
    for name, m in metrics.items():
        assert m["unit"] == run.END_TO_END[name][0]
        assert np.isfinite(m["value"]) and m["value"] > 0, name
    # no-contact frames fail in slip today, and are counted, not skipped
    assert result["failed_at"].get("slip", 0) == result["failed"] > 0
    assert metrics["fail_frac"]["value"] == result["failed"] / result["ticks"]["attempted"]


def test_offline_path_applies_every_gate():
    profile = replace(tiny(stages.PROFILES["offline"]), offline=True)
    result = run.run_workload("offline", profile, seed=3, seconds=0.0, trace=False)
    assert {"pyramid_mse_mm2<=0.05", "shear_r2>=0.90", "rank_acc>=0.90",
            "slip_f1>=0.69", "cherry_tomato_success_ordering",
            "cherry_tomato_force_var"} <= set(result["gates"])
    # a violated gate is a failure too
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["correct"] == (not result["violations"])
    assert result["failed"] == result["failed_at"]["slip"] + len(result["violations"])
    assert [p["setup_s"] > 0 for p in result["probes"]] == [True]


@pytest.mark.parametrize("workload", sorted(stages.PROFILES))
def test_every_per_layer_metric_on_every_workload(workload):
    original = geometry.predict_normals
    result = _run(workload, trace=True)
    assert geometry.predict_normals is original          # wrappers removed
    assert result["correct"], result["violations"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    for name, m in result["metrics"].items():
        assert m["unit"] == run.PER_LAYER[name][0]
        assert np.isfinite(m["value"]), name
    assert result["metrics"]["tick.failed_at.slip"]["value"] == result["failed"]


def test_tracer_wraps_rebound_names_and_derives_self_time():
    tracer = Tracer()
    tracer.install(gripsense)
    try:
        assert harvest.object_velocity is slip.object_velocity
        assert harvest.predict_normal_force.__wrapped__.__module__ == "gripsense.force"
        mask = slip.ContactMask(np.ones((4, 4), bool), 0.3)
        with tracer.op("bench.tick"):
            harvest.object_velocity([mask, mask])
    finally:
        tracer.uninstall()
    assert not hasattr(harvest.object_velocity, "__wrapped__")
    nid, start, dur, parent, op, self_t = tracer.table()
    names = [tracer.names[i] for i in nid]
    assert names == ["bench.tick", "slip.object_velocity"]
    assert parent.tolist() == [-1, 0] and op.tolist() == [0, 0]
    assert np.isclose(self_t[0], dur[0] - dur[1]) and self_t[1] == dur[1]


def test_host_speed_scales_intervals_to_nominal_speed():
    speed = hostspeed.Speed()
    start, end = (10.0, 0.0), (12.0, 0.5)         # 0.5 s of it was sampling
    assert speed.seconds(start, end) == 1.5      # no samples: as measured
    speed.t = [9.5, 10.5, 11.5, 20.0]
    speed.ref = [2 * hostspeed.NOMINAL_S] * 3 + [100.0]   # host at half speed
    assert speed.seconds(start, end) == 0.75
    far = (30.0, 0.5), (31.0, 0.5)               # none near: the nearest one
    assert speed.factor(*far) == hostspeed.NOMINAL_S / 100.0
    live = hostspeed.Speed()
    with live.sampling():
        t0 = live.mark()
        while live.mark()[0] - t0[0] < 3 * hostspeed.PERIOD_S:
            pass
    assert len(live.t) >= 2 and live.mark()[1] > 0


def test_inputs_come_from_the_seed():
    sensor = tk.make_sensor((96, 128))
    a, b, c = (tk.grasp_script(np.random.default_rng(s), (96, 128), 1, sensor)
               for s in (5, 5, 6))
    assert len(a) == tk.GRASP_FRAMES
    assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))
    assert not all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, c))
    assert not a[0].contact and a[-1].slipping


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "offline", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
