"""Summarize saved benchmark results: spread per metric, tracing overhead.

    python3 perfbench/report.py perfbench/out/tick_240x320-seed*-trace0.json

For each workload and metric it prints the median, the quartiles and the
interquartile range as a share of the median (the spread BENCHMARK.json
bounds). Where a traced and an untraced result share workload and seed, it
also prints the tracing overhead: traced over untraced tick p50 and run time,
both as measured.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main(paths) -> None:
    bounds = {}
    if BENCHMARK.is_file():
        bench = json.loads(BENCHMARK.read_text())
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = [json.loads(Path(p).read_text()) for p in paths]
    by_workload = defaultdict(lambda: defaultdict(list))
    for r in results:
        for name, m in r["metrics"].items():
            by_workload[(r["workload"], r["trace"])][name].append(m["value"])
    for (workload, trace), metrics in sorted(by_workload.items()):
        n = len(next(iter(metrics.values())))
        print(f"{workload} trace={trace} runs={n}")
        for name, values in metrics.items():
            if n < 2:
                print(f"  {name:38s} {values[0]:.6g}")
                continue
            q1, med, q3, rel = spread(values)
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound={bound} {'OK' if rel < bound / 3 else 'WIDE'}"
            print(f"  {name:38s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={rel:.4f}{flag}")
    pairs = defaultdict(dict)
    for r in results:
        pairs[(r["workload"], r["seed"])][r["trace"]] = r
    for (workload, seed), pair in sorted(pairs.items()):
        if 0 in pair and 1 in pair:
            # as measured: the traced run does not scale to nominal host speed
            plain, traced = pair[0]["ticks"]["raw_p50_ms"], pair[1]["ticks"]["raw_p50_ms"]
            run0, run1 = pair[0]["run_s"], pair[1]["run_s"]
            print(f"tracing overhead {workload} seed={seed}: tick p50 "
                  f"{traced:.2f} ms traced vs {plain:.2f} ms untraced "
                  f"({100 * (traced / plain - 1):+.1f}%), run {run1:.1f} s vs "
                  f"{run0:.1f} s ({100 * (run1 / run0 - 1):+.1f}%)")


if __name__ == "__main__":
    main(sys.argv[1:])
