"""Every demo runs to completion at a small size.

``detect_slip.py`` is left out: it has no size flag, takes about 15 s, and
acceptance criterion 5 runs the same slip benchmark.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# demo -> (small-size arguments, a phrase of its report)
DEMOS = {
    "compare_strategies": (["--trials", "8"], "paired trials per cell"),
    "decompose_field": (["--size", "16"], "pure gradient field"),
    "estimate_normal_force": (["--samples", "200"], "samples: r2"),
    "estimate_shear": (["--samples", "40", "--holdout", "10"], "held out 10"),
    "rank_softness": (["--train-trials", "1", "--test-trials", "1",
                       "--epochs", "5"], "aggregate"),
    "reconstruct_pyramid": (["--resolution", "32", "--presses", "2",
                             "--epochs", "5"], "pyramid reconstruction"),
    "time_perception_tick": (["--resolution", "32", "--width", "48",
                              "--ticks", "2"], "ms at 32x48"),
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo):
    args, phrase = DEMOS[demo]
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py"), *args],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.returncode == 0, out.stderr
    assert phrase in out.stdout
