"""The ablation sweeps' outputs and the work they do per scene.

``GOLDEN`` pins the three sweep CSVs of small ``gen`` benches to their bytes
before sweeps ran one task per scene, so a refactor of the sweep driver that
moves any row fails here, even if ``--jobs 1`` and ``--jobs 2`` still agree.
The count tests pin how often a sweep builds maps and computes ADD-S.
"""

import functools
import multiprocessing
import os
import signal
from pathlib import Path

import pytest

from anchorpose import cli, correspondence, solver
from anchorpose.cli import main
from anchorpose.codec import build_anchor_set
from anchorpose.synth import make_model

_CAMERA = ["--points", "800", "--width", "160", "--height", "120", "--fx", "170",
           "--fy", "170", "--depth-range", "0.6", "1.0"]

# gen arguments of each bench. "sliver" shows 5% of the object on 4x4 maps, so
# some scenes keep too few cells to solve and yield worst-case records.
BENCHES = {
    "blob": ["--seed", "11", "--shape", "blob", "--scenes", "4", *_CAMERA,
             "--occlusion-levels", "1.0", "0.6"],
    "cube": ["--seed", "11", "--shape", "cube", "--scenes", "4", *_CAMERA,
             "--occlusion-levels", "1.0", "0.6"],
    "sliver": ["--seed", "4", "--shape", "blob", "--scenes", "4", *_CAMERA,
               "--occlusion-levels", "0.05"],
    "three": ["--seed", "11", "--shape", "blob", "--scenes", "3", *_CAMERA],
}

# (case name, bench, sweep command and its arguments after --scenes)
CASES = [
    ("blob-anchors", "blob", ["ablate-anchors", "--res", "24", "--k-list", "1", "8"]),
    ("blob-anchors-absolute", "blob",
     ["ablate-anchors", "--res", "24", "--k-list", "4", "16", "--absolute-sigma", "0.003"]),
    # at res 40 one scene keeps 1002 correspondences, so MAX_CORR trims it
    ("blob-corr", "blob", ["ablate-corr", "--res", "40", "--k", "8"]),
    ("blob-k", "blob", ["ablate-k", "--res", "24", "--k", "8"]),
    ("cube-anchors", "cube", ["ablate-anchors", "--res", "24", "--k-list", "1", "8"]),
    ("cube-corr", "cube", ["ablate-corr", "--res", "24", "--k", "8"]),
    ("cube-k", "cube", ["ablate-k", "--res", "24", "--k", "8"]),
    ("sliver-anchors", "sliver",
     ["ablate-anchors", "--res", "4", "--k-list", "1", "8", "--noise-rel", "0.5"]),
    ("sliver-corr", "sliver",
     ["ablate-corr", "--res", "4", "--k", "8", "--residual-sigma", "0.02",
      "--depth-sigma", "0.01", "--uv-sigma", "6"]),
    ("sliver-k", "sliver", ["ablate-k", "--res", "4", "--k", "8", "--uv-sigma", "4"]),
]

GOLDEN = {
    "blob-anchors": (
        "K,covering_radius,add01d_pct,auc,deg10cm10_pct\n"
        "1,0.14302847619841155,25.0,0.8119401337032741,100.0\n"
        "8,0.059375536688698625,100.0,0.9088174954748941,100.0\n"
    ),
    "blob-anchors-absolute": (
        "K,covering_radius,add01d_pct,auc,deg10cm10_pct\n"
        "4,0.08914661781097422,100.0,0.9719618742219137,100.0\n"
        "16,0.04505086594216474,100.0,0.9519320246711497,100.0\n"
    ),
    "blob-corr": (
        "mode,add01d_pct,auc,deg10cm10_pct,mean_rot_deg,mean_trans_m\n"
        "2d3d,100.0,0.9481470686669204,100.0,0.7338794330232379,0.00507226001777331\n"
        "3d3d,100.0,0.9988368863590196,100.0,0.05090340863913085,9.795973246923621e-05\n"
        "fused,100.0,0.9987740885964441,100.0,0.06741001617301196,9.895747384796592e-05\n"
    ),
    "blob-k": (
        "intrinsic,add01d_pct,auc,deg10cm10_pct,mean_rot_deg\n"
        "k_org,0.0,0.0,0.0,29.54764163967038\n"
        "k_crop,100.0,0.9629902058792092,100.0,0.5435329909622197\n"
    ),
    "cube-anchors": (
        "K,covering_radius,add01d_pct,auc,deg10cm10_pct\n"
        "1,0.20784609690826547,100.0,0.862798235788248,100.0\n"
        "8,0.07211102550927985,100.0,0.9272146582938656,100.0\n"
    ),
    "cube-corr": (
        "mode,add01d_pct,auc,deg10cm10_pct,mean_rot_deg,mean_trans_m\n"
        "2d3d,100.0,0.9543534389445144,100.0,1.4144405625433274,0.004609503605748353\n"
        "3d3d,100.0,0.9979495710327169,100.0,0.16015341007402756,9.983063531910638e-05\n"
        "fused,100.0,0.9979711043662912,100.0,0.15999775741313949,9.769518522832681e-05\n"
    ),
    "cube-k": (
        "intrinsic,add01d_pct,auc,deg10cm10_pct,mean_rot_deg\n"
        "k_org,0.0,0.0,0.0,25.87742869823621\n"
        "k_crop,100.0,0.9726477824955588,100.0,0.5619057514653865\n"
    ),
    "sliver-anchors": (
        "K,covering_radius,add01d_pct,auc,deg10cm10_pct\n"
        "1,0.13686729142140436,0.0,0.0,0.0\n"
        "8,0.05421695469968833,0.0,0.0,0.0\n"
    ),
    "sliver-corr": (
        "mode,add01d_pct,auc,deg10cm10_pct,mean_rot_deg,mean_trans_m\n"
        "2d3d,0.0,0.0,0.0,180.0,0.13744174905821507\n"
        "3d3d,0.0,0.0679004070415643,0.0,140.38799853478596,0.11610154509128265\n"
        "fused,0.0,0.0,0.0,171.76404631026992,0.13288953168485942\n"
    ),
    "sliver-k": (
        "intrinsic,add01d_pct,auc,deg10cm10_pct,mean_rot_deg\n"
        "k_org,0.0,0.0,0.0,180.0\n"
        "k_crop,0.0,0.0,0.0,180.0\n"
    ),
}


def make_bench(root: Path, name: str) -> Path:
    out = root / name
    if not out.exists():
        assert main(["gen", "--out", str(out), *BENCHES[name]]) == 0
    return out


def run_case(root: Path, bench: str, argv: list, jobs: int) -> str:
    out = root / f"{argv[0]}-{bench}-jobs{jobs}.csv"
    assert main([argv[0], "--seed", "3", "--out", str(out),
                 "--scenes", str(make_bench(root, bench)), *argv[1:],
                 "--jobs", str(jobs)]) == 0
    return out.read_text()


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("sweeps")


# jobs 3 splits the 4 scenes of a bench into uneven shares (2, 1, 1)
@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("name, bench, argv", CASES, ids=[c[0] for c in CASES])
def test_csv_bytes_are_pinned(root, name, bench, argv, jobs):
    assert run_case(root, bench, argv, jobs) == GOLDEN[name]


def _recording(monkeypatch, context) -> list:
    """Make the sweeps start their workers from ``context``; returns the list
    of worker processes they start."""
    started = []

    class Recording:
        Pipe = staticmethod(context.Pipe)

        @staticmethod
        def Process(**kwargs):
            started.append(context.Process(**kwargs))
            return started[-1]

    monkeypatch.setattr(cli, "_mp_context", Recording)
    return started


def test_spawned_workers_match_pinned_csv(root, monkeypatch):
    # A spawned worker inherits nothing from the parent but what it is sent,
    # as under forkserver, the default start method from Python 3.14.
    started = _recording(monkeypatch, multiprocessing.get_context("spawn"))
    name, bench, argv = next(c for c in CASES if c[0] == "blob-corr")
    assert run_case(root, bench, argv, 2) == GOLDEN[name]
    assert [p.exitcode for p in started] == [0]


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    fn = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


@pytest.mark.parametrize("name, bench, argv", [c for c in CASES if c[1] == "sliver"],
                         ids=[c[0] for c in CASES if c[1] == "sliver"])
def test_sliver_bench_pins_failure_records(root, monkeypatch, name, bench, argv):
    failures = _count_calls(monkeypatch, "_failure_record")
    run_case(root, bench, argv, 1)
    assert failures


@pytest.mark.parametrize("bench", ["blob", "cube"])
@pytest.mark.parametrize("argv, builds_per_scene, variants", [
    (["ablate-anchors", "--res", "24", "--k-list", "1", "8", "16"], 3, 3),
    (["ablate-corr", "--res", "24", "--k", "8"], 1, 3),
    (["ablate-k", "--res", "24", "--k", "8"], 1, 2),
], ids=["anchors", "corr", "k"])
def test_sweep_shares_maps_and_skips_unread_adds(root, monkeypatch, bench, argv,
                                                 builds_per_scene, variants):
    # One maps build per scene and anchor set: ablate-corr's modes and
    # ablate-k's intrinsics share one. ADD-S only for a symmetric object,
    # whose sweep columns read it; every record on these benches is solved.
    make_bench(root, bench)
    maps = _count_calls(monkeypatch, "ground_truth_maps")
    adds = _count_calls(monkeypatch, "adds_metric")
    run_case(root, bench, argv, 1)
    scenes = 4
    assert len(maps) == builds_per_scene * scenes
    assert len(adds) == (variants * scenes if bench == "cube" else 0)


@pytest.mark.parametrize("argv, variants", [
    (["ablate-corr", "--res", "24", "--k", "8"], 3),
    (["ablate-k", "--res", "24", "--k", "8"], 2),
], ids=["corr", "k"])
def test_sweep_scene_solves_its_set_once(root, monkeypatch, argv, variants):
    # Every variant of a scene solves from one CorrSet, which caches its
    # spread test and its all-rows Kabsch alignment: each runs once per set.
    # (Batched Kabsch calls are RANSAC's minimal-sample hypotheses.)
    make_bench(root, "blob")
    sets, spread, kabsch = [], [], []
    record, spread_ok, align = cli.scene_eval_record, solver._spread_ok, solver._kabsch

    def solved(model, scene, corr, *args, **kwargs):
        sets.append(corr)
        return record(model, scene, corr, *args, **kwargs)

    def all_rows(obj, cam, w):
        if obj.ndim == 2:
            kabsch.append(obj)
        return align(obj, cam, w)

    monkeypatch.setattr(cli, "scene_eval_record", solved)
    monkeypatch.setattr(solver, "_spread_ok", lambda pts: spread.append(pts) or spread_ok(pts))
    monkeypatch.setattr(solver, "_kabsch", all_rows)
    run_case(root, "blob", argv, 1)
    scenes = 4
    assert len(sets) == variants * scenes
    distinct = sets[::variants]
    assert all(corr is distinct[i // variants] for i, corr in enumerate(sets))
    for calls in (spread, kabsch):
        assert [pts is corr.obj_pts for pts, corr in zip(calls, distinct)] == [True] * scenes
        assert len(calls) == scenes


@pytest.mark.parametrize("bench", ["blob", "cube"])
def test_adds_structures_cached_for_symmetric_models_only(root, monkeypatch, bench):
    # The sweep caches the neighbour rows and gaps before the pool starts, so
    # the workers inherit them, but only ADD-S reads them, and only a
    # symmetric object's sweep computes ADD-S.
    at_pool, models, pmap = [], [], cli._pmap

    def spy(shared, *args):
        models.append(shared[0])
        at_pool.append({"neighbours", "half_gap"} & set(vars(shared[0])))
        return pmap(shared, *args)

    monkeypatch.setattr(cli, "_pmap", spy)
    run_case(root, bench, ["ablate-k", "--res", "24", "--k", "8"], 1)
    adds = {"neighbours", "half_gap"} if bench == "cube" else set()
    assert at_pool == [adds]
    assert {"neighbours", "half_gap"} & set(vars(models[0])) == adds


def test_pool_never_outnumbers_the_scenes(root, monkeypatch):
    started = _recording(monkeypatch, cli._mp_context)
    argv = ["ablate-corr", "--res", "24", "--k", "8"]
    assert run_case(root, "three", argv, 64) == run_case(root, "three", argv, 1)
    assert len(started) == 2  # the calling process runs the third share


def test_pool_of_one_runs_serially(monkeypatch):
    started = _recording(monkeypatch, cli._mp_context)
    monkeypatch.setattr(cli, "_scene_task", lambda shared, item: item)
    assert cli._pmap(None, ["a"], 64) == ["a"]
    assert cli._pmap(None, [], 64) == []
    assert started == []


@pytest.fixture
def forked_failures(monkeypatch):
    """Fork the sweeps' workers, so a patched ``cli._scene_task`` reaches
    them, and bound each test by an alarm instead of letting a hung worker
    hang the suite. Afterwards every worker has been joined and no child
    process is left."""
    started = _recording(monkeypatch, multiprocessing.get_context("fork"))

    def timed_out(*_):
        raise TimeoutError("the sweep did not return")

    old = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert None not in [p.exitcode for p in started]
    assert multiprocessing.active_children() == []


def _fail_on_scene(monkeypatch, scene: int, fail) -> None:
    task = cli._scene_task

    def failing(shared, item):
        if item[0] == scene:
            fail()
        return task(shared, item)

    monkeypatch.setattr(cli, "_scene_task", failing)


def _raise_nonfinite():
    raise correspondence.NonFinite("scene maps hold NaN")


# At --jobs 2 on 4 scenes the caller runs scenes 0 and 2, the worker 1 and 3.
@pytest.mark.parametrize("scene, jobs", [(1, 1), (0, 2), (1, 2)],
                         ids=["serial", "caller-share", "worker-share"])
def test_scene_error_keeps_its_exit_code(root, monkeypatch, forked_failures, scene, jobs):
    make_bench(root, "blob")
    _fail_on_scene(monkeypatch, scene, _raise_nonfinite)
    out = root / f"nonfinite-{scene}-{jobs}.csv"
    assert main(["ablate-corr", "--seed", "3", "--out", str(out), "--scenes",
                 str(root / "blob"), "--res", "24", "--k", "8", "--jobs", str(jobs)]) == 4
    assert not out.exists()


def test_dead_worker_fails_the_sweep(root, monkeypatch, forked_failures):
    make_bench(root, "blob")
    caller = os.getpid()

    def die_in_worker():
        if os.getpid() != caller:
            os._exit(1)

    _fail_on_scene(monkeypatch, 1, die_in_worker)
    out = root / "dead-worker.csv"
    assert main(["ablate-corr", "--seed", "3", "--out", str(out), "--scenes",
                 str(root / "blob"), "--res", "24", "--k", "8", "--jobs", "2"]) == 1
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("cmd", ["ablate-anchors", "ablate-corr", "ablate-k"])
def test_jobs_below_one_exit_2_before_any_file_is_read(tmp_path, cmd, jobs):
    out = tmp_path / "sweep.csv"
    assert main([cmd, "--seed", "3", "--out", str(out), "--scenes", str(tmp_path / "missing"),
                 "--jobs", jobs]) == 2
    assert not out.exists()


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_functions_reject_jobs_below_one(jobs):
    model = make_model("blob", 100, 0.12, 5)
    anchors = build_anchor_set(model, 4)
    for sweep in (functools.partial(cli.ablate_anchors_rows, model, [], k_list=(1, 4)),
                  functools.partial(cli.ablate_corr_rows, model, anchors, []),
                  functools.partial(cli.ablate_k_rows, model, anchors, [])):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            sweep(jobs=jobs)
