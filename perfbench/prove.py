"""Repeat the benchmark over several seeds and report how steady it is.

    python3 perfbench/prove.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/prove.py --workloads fused_blob --seeds 1 2 3 4 5
    python3 perfbench/prove.py --seeds 1 2 3 4 5 6 7 8 9 10 --baseline perfbench/baseline.json

Run from the repository root. Each run is ``BENCHMARK.json``'s command with
its ``run_seconds``, one seed after another. For every end-to-end metric the
script prints the median and the spread, the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound. ``--baseline`` also makes one traced run
per workload and writes medians, quartiles, every value, the per-layer
metrics and the environment to the given file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return result


def spread(values) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--baseline", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for name in names:
        runs = [run_once(spec, name, seed, 0) for seed in args.seeds]
        rows = {}
        print(f"== {name}: {len(runs)} runs")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            flag = "" if sp <= bound / 3 else "  <-- above bound/3"
            if metric != "setup_s":
                worst = max(worst, sp / bound)
            print(f"  {metric:>18} median {med:12.5g}  spread {sp:7.4f}  bound {bound}{flag}")
            rows[metric] = {"unit": runs[0]["metrics"][metric]["unit"], "median": med,
                            "q1": q1, "q3": q3, "spread": sp, "values": values}
        out["workloads"][name] = {"end_to_end": rows}
        if args.baseline:
            traced = run_once(spec, name, args.seeds[0], 1)
            out["workloads"][name]["per_layer_seed"] = args.seeds[0]
            out["workloads"][name]["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()}
            report = ROOT / "perfbench" / "out" / f"{name}-seed{args.seeds[0]}-trace1.json"
            out["environment"] = json.loads(report.read_text())["environment"]
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    if args.baseline:
        args.baseline.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
