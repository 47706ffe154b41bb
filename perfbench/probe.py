"""Fresh-process set-up cost: the gripsense import plus the first, cold operation.

Run by ``run.py`` as a child process with the inputs of the cold operation
pickled on stdin (they come from the parent, which generated them). Prints
one JSON line with ``import_s``, ``cold_s`` and ``setup_s`` at nominal host
speed (``hostspeed.py``, sampled in this process), and ``raw_setup_s`` as
measured. Unpickling the inputs is not timed, and neither is the numpy
import, which the sampler needs before the clock starts.

    python3 perfbench/probe.py {tick|trial} < payload.pickle
"""

import json
import pickle
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hostspeed import Speed  # noqa: E402  (imports numpy)


def main(op: str) -> None:
    speed = Speed()
    with speed.sampling():
        m0 = speed.mark()
        from gripsense import core, force, geometry, harvest, sim, slip, softness  # noqa: F401
        import tick as tk
        m1 = speed.mark()
        payload = pickle.load(sys.stdin.buffer)
        if op == "tick":
            models, sensor, pixels, markers, current = payload
            frame = core.TactileFrame(pixels, sensor.px_per_mm)
        m2 = speed.mark()
        if op == "tick":
            tk.tick(frame, markers, current, models, sensor, tk.new_history())
        elif op == "trial":
            fruit, cfg, seed = payload
            harvest.run_trial(fruit, cfg, seed=seed)
        else:
            raise SystemExit(f"unknown cold operation {op!r}")
        m3 = speed.mark()
    import_s, cold_s = speed.seconds(m0, m1), speed.seconds(m2, m3)
    print(json.dumps({"import_s": import_s, "cold_s": cold_s,
                      "setup_s": import_s + cold_s,
                      "raw_setup_s": speed.raw(m0, m1) + speed.raw(m2, m3)}))


if __name__ == "__main__":
    main(sys.argv[1])
