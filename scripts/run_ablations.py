#!/usr/bin/env python3
"""Generate a benchmark and run all three ablation sweeps into one directory.

Usage:
    python scripts/run_ablations.py --out out/ablations --seed 7 [--scenes 200]

Produces anchor_sweep.csv (anchor-count tradeoff), corr_sweep.csv
(2d3d / 3d3d / fused correspondence families), and k_sweep.csv (raw vs
crop-adjusted intrinsics), plus the benchmark itself.
"""

import argparse
import sys
from pathlib import Path

from anchorpose.cli import main as cli


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scenes", type=int, default=200)
    ap.add_argument("--shape", default="blob")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)

    bench = args.out / "bench"
    seed = ["--seed", str(args.seed)]
    sweep = seed + ["--scenes", str(bench), "--jobs", str(args.jobs)]
    steps = [
        ["gen", "--out", str(bench), "--shape", args.shape,
         "--scenes", str(args.scenes), "--width", "320", "--height", "240",
         "--fx", "300", "--fy", "300", "--depth-range", "0.7", "1.4", *seed],
        ["ablate-anchors", "--out", str(args.out / "anchor_sweep.csv"), *sweep],
        ["ablate-corr", "--out", str(args.out / "corr_sweep.csv"), *sweep],
        ["ablate-k", "--out", str(args.out / "k_sweep.csv"), *sweep],
    ]
    for step in steps:
        code = cli(step)
        if code != 0:
            return code
    for name in ("anchor_sweep.csv", "corr_sweep.csv", "k_sweep.csv"):
        print(f"--- {name}")
        print((args.out / name).read_text())
    return 0


if __name__ == "__main__":
    sys.exit(run())
