"""anchorpose benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload fused_blob --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``. The
workloads are defined in ``perfbench/workloads.py`` and listed, with the
reason each was chosen, in ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

- ``scenes_per_s``: scene evaluations done in the timed loop per second.
- ``scene_p50_ms`` and ``scene_tail_ms``: the median per-scene time and the
  highest percentile with at least ten samples above it (the 11th largest;
  the maximum below 22 samples, where the 11th largest would not lie above
  the median). The report records the percentile and the
  sample count. In-memory workloads time every evaluation; the sweep command
  handles all scenes at once, so there each sample is one command's wall
  time divided by its evaluations.
- ``setup_s``: the median of three set-ups (model, diameter, anchor sets and
  scenes; the ``gen`` stage for the sweep).
- ``peak_rss_mb``: peak resident memory of this process plus the largest
  waited-for child (a pool worker).
- ``solved_frac``: evaluations whose solve did not raise, over those
  attempted. Its complement is the result's ``failed`` count.
- ``adds_auc`` and ``add01d_pct``: the ``evaluate_batch`` average row of the
  first pass (for the sweep, averaged over its modes).
- ``maps_kb_per_scene``: the in-memory ``DenseMaps`` arrays, computed from
  their shapes for the sweep, whose maps stay in the workers.

``--trace 1`` runs an untraced loop and then a traced loop, each for half of
``--seconds``, and reports the per-layer metrics: each layer's self time and
counters from the traced loop (and the traced set-up), plus the tracing
overhead as traced minus untraced scenes per second. The spans are written to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A wrong output (a
pose that is not a proper rotation, a CLI exit code other than 0, a rerun or a
``--jobs 2`` run that does not reproduce the first output, or summary values
that differ from those recorded for the seed in ``perfbench/expected.json``)
makes the run print ``"correct": false`` and exit 1. The full report (metric
details, environment, per-layer calls and counters) goes to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
clock = time.perf_counter


def environment() -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


def tail(samples) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    above it, i.e. the 11th largest; the maximum when there are fewer than 22,
    since the 11th largest of fewer would not lie above the median."""
    s = sorted(samples)
    if len(s) < 22:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def timed_loop(wl, state, tracer, seconds: float) -> dict:
    """Units until ``seconds`` have passed; the first unit always completes."""
    samples, units, evals, failed, pool = [], [], 0, 0, []
    start = clock()
    while True:
        t0, c0 = clock(), children_cpu()
        u = wl.unit(state, tracer, start + seconds)
        dt, cpu = clock() - t0, children_cpu() - c0
        samples += u.scene_ms if u.scene_ms is not None else [dt * 1e3 / u.evaluations]
        units.append(u)
        pool.append((cpu, dt))
        evals += u.evaluations
        failed += u.failed
        if clock() - start >= seconds:
            break
    return {"wall_s": clock() - start, "samples": samples, "units": units,
            "evaluations": evals, "failed": failed, "pool": pool}


def check_expected(name: str, seed: int, unit) -> str:
    """Compare the summary values with those recorded for this seed."""
    with open(HERE / "expected.json") as f:
        expected = json.load(f)
    rec = expected["values"].get(name, {}).get(str(seed))
    if rec is None:
        return "unrecorded seed"
    tol = expected["tolerance"]
    for key, got in (("adds_auc", unit.adds_auc), ("add01d_pct", unit.add01d_pct)):
        if not abs(got - rec[key]) <= tol[key]:
            from workloads import CheckFailed
            raise CheckFailed(f"{name} seed {seed}: {key} {got!r} != recorded {rec[key]!r}")
    return "matches recorded"


def e2e_metrics(loop, setup_times) -> tuple[dict, dict]:
    first = loop["units"][0]
    tail_ms, tail_pct = tail(loop["samples"])
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "scenes_per_s": loop["evaluations"] / loop["wall_s"],
        "scene_p50_ms": statistics.median(loop["samples"]),
        "scene_tail_ms": tail_ms,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": (self_rss + child_rss) / 1024.0,
        "solved_frac": (loop["evaluations"] - loop["failed"]) / loop["evaluations"],
        "adds_auc": first.adds_auc,
        "add01d_pct": first.add01d_pct,
        "maps_kb_per_scene": first.maps_bytes / 1024.0,
    }
    details = {"tail_percentile": tail_pct, "samples": len(loop["samples"]),
               "samples_ms": loop["samples"],
               "units": len(loop["units"]), "setup_times_s": setup_times,
               "self_peak_rss_kb": self_rss, "largest_child_peak_rss_kb": child_rss}
    return values, details


def layer_metrics(summary, wl, traced, untraced) -> dict:
    def per_call(name, scale):
        row = summary.get(name)
        return scale * row["self_s"] / row["calls"] if row else 0.0

    def counter(names, key):
        rows = [summary[n] for n in names if n in summary and key in summary[n]["counters"]]
        calls = sum(r["calls"] for r in rows)
        return sum(r["counters"][key] * r["calls"] for r in rows) / calls if calls else 0.0

    gn_names = ("solver.solve_fused", "solver.solve_2d3d")
    gn = [summary[n] for n in gn_names if n in summary]
    gn_calls = sum(r["calls"] for r in gn)
    jobs = wl.params.get("jobs")
    pool_cpu = statistics.median(c for c, _ in traced["pool"]) if jobs else 0.0
    pool_util = (statistics.median(c / (dt * jobs) for c, dt in traced["pool"])
                 if jobs else 0.0)
    gt_maps = "correspondence.ground_truth_maps"
    tr_sps = traced["evaluations"] / traced["wall_s"]
    un_sps = untraced["evaluations"] / untraced["wall_s"]
    return {
        "mesh.diameter_s": per_call("mesh.diameter", 1.0),
        "synth.make_benchmark_s": per_call("synth.make_benchmark", 1.0),
        "synth.tight_roi_ms": per_call("synth.tight_roi", 1e3),
        "codec.build_anchor_set_ms": per_call("codec.build_anchor_set", 1e3),
        "correspondence.ground_truth_maps_ms": per_call(gt_maps, 1e3),
        "correspondence.corrupt_ms": per_call("correspondence.corrupt", 1e3),
        "correspondence.region_bytes": counter((gt_maps,), "region_bytes"),
        "correspondence.fg_cells": counter((gt_maps,), "fg_cells"),
        "solver.extract_ms": per_call("solver.extract_correspondences", 1e3),
        "solver.corr_n": counter(("solver.extract_correspondences",), "corr_n"),
        "solver.ransac_ms": per_call("solver.ransac", 1e3),
        "solver.ransac_inlier_ratio": counter(("solver.ransac",), "inlier_ratio"),
        "solver.gn_ms": 1e3 * sum(r["self_s"] for r in gn) / gn_calls if gn_calls else 0.0,
        "solver.gn_iters": counter(gn_names, "gn_iters"),
        "solver.gn_steps_accepted": counter(gn_names, "gn_steps_accepted"),
        "solver.solve_3d3d_ms": per_call("solver.solve_3d3d", 1e3),
        "metrics.adds_ms": per_call("metrics.adds_metric", 1e3),
        "metrics.add_ms": per_call("metrics.add_metric", 1e3),
        "metrics.evaluate_batch_ms": per_call("metrics.evaluate_batch", 1e3),
        "cli.pool_cpu_s": pool_cpu,
        "cli.pool_util": pool_util,
        "trace.untraced_scenes_per_s": un_sps,
        "trace.traced_scenes_per_s": tr_sps,
        "trace.overhead_scenes_per_s": tr_sps - un_sps,
    }


def run(args, spec) -> int:
    import workloads
    from tracing import NoTrace, Tracer, layer_summary
    from workloads import CheckFailed

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{wl.name}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    quiet = NoTrace()
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "params": wl.params, "environment": environment()}
    loop = untraced = None
    try:
        setup_times = []
        if tracer:
            tracer.install(workloads)
        for rep in range(workloads.SETUP_REPEATS):
            d = work / f"setup{rep}"
            d.mkdir(parents=True)
            state = None  # release the previous set-up's inputs first
            t0 = clock()
            with (tracer or quiet).span("setup"):
                state = wl.setup(args.seed, d, tracer or quiet)
            setup_times.append(clock() - t0)
            if rep:
                shutil.rmtree(work / f"setup{rep - 1}")
        if tracer:
            tracer.uninstall()
        wl.warmup(state, quiet)
        if tracer:
            untraced = timed_loop(wl, state, quiet, args.seconds / 2.0)
            tracer.install(workloads)
            loop = timed_loop(wl, state, tracer, args.seconds / 2.0)
            tracer.uninstall()
        else:
            loop = timed_loop(wl, state, quiet, args.seconds)
        # The first unit is the one that always runs to the end.
        first = (untraced or loop)["units"][0]
        report["expected"] = check_expected(wl.name, args.seed, first)
        correct, error = True, None
    except CheckFailed as exc:
        correct, error = False, str(exc)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    metrics, units = {}, {}
    if loop is not None:
        if tracer:
            summary = layer_summary(tracer.spans)
            metrics = layer_metrics(summary, wl, loop, untraced)
            report["layers"] = summary
            spans = OUT / f"{wl.name}-seed{args.seed}-spans.json"
            tracer.dump(spans)
            report["spans_file"] = str(spans.relative_to(ROOT))
        else:
            metrics, report["e2e_details"] = e2e_metrics(loop, setup_times)
        declared = spec["per_layer" if tracer else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if set(units) != set(metrics):
            raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    if error:
        report["error"] = error
        print(f"check failed: {error}", file=sys.stderr)
    attempted = loop["evaluations"] if loop else 1
    failed = loop["failed"] if loop else 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    report["result"] = result
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(report, f, indent=1)
    for k, v in metrics.items():
        print(f"{k:>36} {v:14.6g} {units[k]}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "anchorpose" / "__init__.py").is_file():
        print(f"error: no anchorpose sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
