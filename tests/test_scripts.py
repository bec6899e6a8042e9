"""The experiment scripts under scripts/, run through their run() functions."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solver_noise_sweep_jobs2_matches_serial(capsys):
    sweep = _load("solver_noise_sweep")
    outs = []
    for jobs in ("1", "2"):
        assert sweep.run(["--seed", "7", "--scenes", "3", "--jobs", jobs]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert lines[0].split() == ["depth", "mm", "px", "|", "2d3d", "deg", "3d3d", "deg",
                                "fused", "deg"]
    # one row per (depth sigma, pixel sigma) pair, each with three mean errors
    assert len(lines) == 1 + len(sweep.DEPTH_SIGMAS) * len(sweep.UV_SIGMAS)
    for line in lines[1:]:
        assert all(float(x) >= 0.0 for x in line.split("|")[1].split())


def test_run_ablations_writes_three_csvs(tmp_path, capsys):
    # --jobs reaches the three sweeps only; gen would reject it with exit 2
    out = tmp_path / "ablations"
    assert _load("run_ablations").run(["--out", str(out), "--seed", "7", "--scenes", "3",
                                       "--jobs", "2"]) == 0
    headers = {
        "anchor_sweep.csv": "K,covering_radius,add01d_pct,auc,deg10cm10_pct",
        "corr_sweep.csv": "mode,add01d_pct,auc,deg10cm10_pct,mean_rot_deg,mean_trans_m",
        "k_sweep.csv": "intrinsic,add01d_pct,auc,deg10cm10_pct,mean_rot_deg",
    }
    firsts = {}
    for name, header in headers.items():
        lines = (out / name).read_text().splitlines()
        assert lines[0] == header
        firsts[name] = [line.split(",")[0] for line in lines[1:]]
    assert firsts["anchor_sweep.csv"] == ["1", "4", "8", "16", "32", "64", "128"]
    assert firsts["corr_sweep.csv"] == ["2d3d", "3d3d", "fused"]
    assert firsts["k_sweep.csv"] == ["k_org", "k_crop"]
    assert (out / "bench" / "manifest.json").exists()
    assert "--- k_sweep.csv" in capsys.readouterr().out
