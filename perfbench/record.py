"""Record each seed's summary values into ``perfbench/expected.json``.

    python3 perfbench/record.py --workloads fused_blob sweep_jobs2 --first 0 --count 64

Run from the repository root. For every workload and seed the script sets up,
runs one untimed unit (which checks its own outputs) and stores the unit's
``adds_auc`` and ``add01d_pct``. ``run.py`` fails a run whose values differ
from the stored ones by more than ``tolerance``: 0.002 in AUC (0.2 mm of mean
ADD) and 5 points of 0.1d accuracy (one scene in one mode row of the 8-scene
sweep), so a solver change may move a borderline scene but wrong answers
fail. Regenerate only when the answers are meant to change, and
say why in the change that does it.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--first", type=int, default=0)
    p.add_argument("--count", type=int, default=64)
    args = p.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads
    from tracing import NoTrace

    quiet = NoTrace()
    (HERE / "out").mkdir(exist_ok=True)
    for name in args.workloads:
        wl = workloads.WORKLOADS[name]
        values = {}
        for seed in range(args.first, args.first + args.count):
            work = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=HERE / "out"))
            try:
                state = wl.setup(seed, work, quiet)
                wl.warmup(state, quiet)
                unit = wl.unit(state, quiet, float("inf"))
            finally:
                shutil.rmtree(work)
            values[str(seed)] = {"adds_auc": unit.adds_auc, "add01d_pct": unit.add01d_pct}
            print(f"{name} seed {seed}: {values[str(seed)]}", flush=True)
        with open(EXPECTED, "r+") as f:
            fcntl.flock(f, fcntl.LOCK_EX)
            expected = json.load(f)
            expected["values"].setdefault(name, {}).update(values)
            f.seek(0)
            f.truncate()
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
