"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from anchorpose.camera_crop import crop_affine
from anchorpose.cli import ablate_anchors_rows, ablate_corr_rows, ablate_k_rows, main
from anchorpose.codec import build_anchor_set, decode_points, encode_points
from anchorpose.correspondence import (
    NoiseSpec,
    ground_truth_maps,
    loss_coarse,
    loss_fine,
    loss_mask,
    loss_total,
)
from anchorpose.geom import Intrinsics, Pose, backproject_grid
from anchorpose.mesh import ObjectModel
from anchorpose.metrics import add_auc, add_metric, adds_metric
from anchorpose.solver import (
    CorrSet,
    pose_error,
    ransac,
    solve_2d3d,
    solve_3d3d,
    solve_fused,
)
from anchorpose.synth import SceneConfig, make_benchmark, make_model, tight_roi
from conftest import TEST_K, random_rotation_aa, rodrigues

SHAPES = ("cube", "cylinder", "icosphere", "blob")
K_LIST = (1, 4, 8, 16, 32, 64, 128)


def _report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def models():
    return {shape: make_model(shape, 26000, 0.12, 5) for shape in SHAPES}


@pytest.fixture(scope="module")
def benchmark200():
    model = make_model("blob", 2500, 0.12, 7)
    cfg = SceneConfig(seed=101, width=320, height=240, intrinsics=TEST_K,
                      depth_range=(0.7, 1.4), occluders=None)
    return model, make_benchmark(model, cfg, 200, [1.0])


def test_c1_codec_exactness(models):
    t0 = time.time()
    total = 0
    for shape, model in models.items():
        anchors = build_anchor_set(model, 32)
        idx, res = encode_points(model.points, anchors)
        decoded = decode_points(idx, res, anchors)
        assert np.array_equal(decoded, model.points), f"{shape}: round trip not exact"
        norms = np.linalg.norm(res, axis=1)
        assert norms.max() <= anchors.covering_radius, f"{shape}: residual bound"
        total += len(model.points)
    elapsed = time.time() - t0
    ok = total >= 100_000 and elapsed < 5.0
    _report("criterion 1 (codec exactness)", ok,
            f"{total} points over {len(models)} shapes, zero round-trip error, "
            f"residuals within covering radius, {elapsed:.2f}s < 5s")


def test_c2_covering_radius_monotonicity(models):
    details = []
    for shape, model in models.items():
        covs = [build_anchor_set(model, k).covering_radius for k in K_LIST]
        assert all(a >= b for a, b in zip(covs, covs[1:])), f"{shape}: not monotone"
        details.append(f"{shape} cov32/diam={covs[K_LIST.index(32)] / model.diameter:.3f}")
    ico = models["icosphere"]
    ratio = build_anchor_set(ico, 32).covering_radius / ico.diameter
    ok = ratio <= 0.35
    _report("criterion 2 (covering-radius monotonicity)", ok,
            f"non-increasing over K={K_LIST} on all shapes; icosphere "
            f"cov(32) = {ratio:.3f} x diameter <= 0.35 ({'; '.join(details)})")


def test_c3_intrinsic_adjustment(benchmark200):
    model, scenes = benchmark200
    t0 = time.time()
    anchors = build_anchor_set(model, 32)

    # dual-path grid-map equality on every cell of every scene
    worst = 0.0
    from anchorpose.camera_crop import adjust_intrinsics, make_grid_maps

    for scene in scenes:
        roi = tight_roi(scene, 64)
        grids = make_grid_maps(scene.depth, roi, scene.intrinsics)
        kc = adjust_intrinsics(scene.intrinsics, crop_affine(roi))
        jj, ii = np.meshgrid(np.arange(64), np.arange(64))
        alt = backproject_grid(jj.astype(float), ii.astype(float),
                               grids.cam_xyz[..., 2], kc)
        alt[~grids.valid] = 0.0
        worst = max(worst, float(np.abs(alt - grids.cam_xyz).max()))

    rows = ablate_k_rows(model, anchors, scenes, uv_sigma=0.5, seed=3, res=64)
    acc_org, acc_crop = rows[0][1], rows[1][1]
    elapsed = time.time() - t0
    ok = acc_crop > acc_org and worst < 1e-9 and elapsed < 60.0
    _report("criterion 3 (intrinsic adjustment)", ok,
            f"200 scenes, 0.5px noise: crop-adjusted {acc_crop:.1f}% > raw "
            f"{acc_org:.1f}% ADD(-S) 0.1d; dual-path max {worst:.2e} m < 1e-9; "
            f"{elapsed:.1f}s < 60s")


def _rand_pose(rng):
    return Pose(random_rotation_aa(rng),
                [rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), rng.uniform(0.5, 1.5)])


def _projected(cam, k):
    return np.column_stack([k.fx * cam[:, 0] / cam[:, 2] + k.cx,
                            k.fy * cam[:, 1] / cam[:, 2] + k.cy])


def test_c4_solver_exactness():
    k = Intrinsics(500.0, 500.0, 320.0, 240.0)
    rng = np.random.default_rng(42)
    worst3, worst2, worstf = (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)
    for i in range(1000):
        pose = _rand_pose(rng)
        obj = rng.uniform(-0.06, 0.06, (50, 3))
        cam = pose.apply(obj)
        uv = _projected(cam, k)
        worst3 = max(worst3, pose_error(solve_3d3d(CorrSet(obj, cam)).pose, pose))

        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        init = Pose(rodrigues(axis, np.radians(5.0)) @ pose.rotation,
                    pose.translation + rng.normal(size=3) * 0.05 / np.sqrt(3))
        worst2 = max(worst2, pose_error(
            solve_2d3d(CorrSet(obj, img_pts=uv), k, init=init).pose, pose))

        worstf = max(worstf, pose_error(
            solve_fused(CorrSet(obj, cam, uv), k, seed=i, ransac_iters=64).pose, pose))

    exact_ok = all(w[0] < 1e-6 and w[1] < 1e-8 for w in (worst3, worst2, worstf))

    successes = 0
    for trial in range(100):
        trng = np.random.default_rng(10_000 + trial)
        pose = _rand_pose(trng)
        obj = trng.uniform(-0.06, 0.06, (200, 3))
        cam = pose.apply(obj)
        out = trng.choice(200, 60, replace=False)  # 30% gross outliers
        cam[out] = pose.apply(trng.uniform(-0.06, 0.06, (60, 3)))
        rep = ransac(CorrSet(obj, cam), "3d3d", inlier_tol=0.005, seed=trial)
        rot, trans = pose_error(rep.pose, pose)
        successes += (rot < 0.5 and trans < 0.005)

    ok = exact_ok and successes >= 99
    _report("criterion 4 (solver exactness)", ok,
            f"1000 noise-free poses each: 3d3d {worst3[0]:.1e}deg/{worst3[1]:.1e}m, "
            f"2d3d {worst2[0]:.1e}deg/{worst2[1]:.1e}m, "
            f"fused {worstf[0]:.1e}deg/{worstf[1]:.1e}m (< 1e-6deg / 1e-8m); "
            f"RANSAC 30% outliers: {successes}/100 within 0.5deg/5mm")


def test_c5_correspondence_ablation_trend(benchmark200):
    model, scenes = benchmark200
    anchors = build_anchor_set(model, 32)
    # mixed noise: depth sigma <= 2mm and pixel noise >= 1px per the trend claim
    _, stats = ablate_corr_rows(model, anchors, scenes, residual_sigma=0.001,
                                depth_sigma=0.001, uv_sigma=2.0, seed=3, res=64)
    rot = {mode: stats[mode]["mean_rot_deg"] for mode in stats}
    fused_ok = rot["fused"] <= 1.05 * min(rot["2d3d"], rot["3d3d"])
    order_ok = rot["3d3d"] < rot["2d3d"]
    ok = fused_ok and order_ok
    _report("criterion 5 (correspondence ablation trend)", ok,
            f"mean rotation over 200 scenes: 2d3d {rot['2d3d']:.4f}deg, "
            f"3d3d {rot['3d3d']:.4f}deg, fused {rot['fused']:.4f}deg; fused <= "
            f"1.05 x min and 3d3d beats 2d3d at depth sigma 1mm / pixel sigma 2px")


def test_c6_residual_representation_trend():
    model = make_model("blob", 2500, 0.12, 7)
    wins = []
    for master in range(10):
        cfg = SceneConfig(seed=1000 + master, width=320, height=240,
                          intrinsics=TEST_K, depth_range=(0.7, 1.4), occluders=None)
        scenes = make_benchmark(model, cfg, 24, [1.0])
        rows = ablate_anchors_rows(model, scenes, k_list=(1, 32), noise_rel=0.08,
                                   seed=master, res=48)
        wins.append(rows[1][2] >= rows[0][2])  # add01d_pct at K=32 vs K=1
    ok = all(wins)
    _report("criterion 6 (residual representation trend)", ok,
            f"ADD(-S) 0.1d at K=32 >= K=1 under covering-radius-relative noise "
            f"in {sum(wins)}/10 master seeds")


def test_c7_metrics_correctness():
    rng = np.random.default_rng(0)
    model = ObjectModel("cloud", rng.normal(size=(64, 3)) * 0.05)

    violations = 0
    for _ in range(10_000):
        a = Pose(random_rotation_aa(rng), rng.normal(size=3) * 0.1)
        b = Pose(random_rotation_aa(rng), rng.normal(size=3) * 0.1)
        if adds_metric(model, a, b) > add_metric(model, a, b) + 1e-12:
            violations += 1

    trans_exact = add_metric(model, Pose(np.eye(3), [0.02, 0, 0]), Pose.identity())
    auc_zero = add_auc([0.0] * 5)
    auc_half = add_auc([0.05], max_threshold=0.10)

    kd_worst = 0.0
    big = ObjectModel("big", rng.normal(size=(400, 3)) * 0.05)
    for _ in range(100):
        a = Pose(random_rotation_aa(rng), rng.normal(size=3) * 0.05)
        b = Pose(random_rotation_aa(rng), rng.normal(size=3) * 0.05)
        kd_worst = max(kd_worst, abs(adds_metric(big, a, b, method="kdtree")
                                     - adds_metric(big, a, b, method="exact")))

    ok = (violations == 0 and abs(trans_exact - 0.02) <= 1e-15 and auc_zero == 1.0
          and abs(auc_half - 0.5) <= 1e-12 and kd_worst <= 1e-12)
    _report("criterion 7 (metrics correctness)", ok,
            f"ADD-S <= ADD on 10^4 pose pairs ({violations} violations); pure "
            f"translation ADD = 0.02 to 1e-15 (per-point float re-rounding); "
            f"AUC closed forms exact; "
            f"kd-tree vs exact ADD-S max diff {kd_worst:.2e} <= 1e-12")


def test_c8_loss_sanity():
    from conftest import scene_bundle

    model, anchors, scene, roi = scene_bundle(77)
    maps = ground_truth_maps(scene, anchors, roi)
    lm = loss_mask(maps.mask, maps.mask)
    lc = loss_coarse(maps.region_probs, maps.classes, maps.mask)
    lf = loss_fine(maps.residual, maps.residual, maps.mask)
    lt = loss_total(lc, lf, lm, 0.0)

    k = 32
    probs = np.full((16, 16, k + 1), 1.0 / (k + 1))
    uniform = loss_coarse(probs, np.zeros((16, 16), dtype=int), np.ones((16, 16)))

    ok = (lm == 0.0 and lc <= 1e-11 and lf == 0.0 and lt <= 1e-11
          and abs(uniform - math.log(33.0)) <= 1e-9)
    _report("criterion 8 (loss sanity)", ok,
            f"at ground truth: mask {lm}, coarse {lc:.1e} <= 1e-11, fine {lf}; "
            f"uniform coarse {uniform:.12f} = ln(33) +- 1e-9")


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_c9_cli_determinism(tmp_path):
    gen_args = ["gen", "--shape", "blob", "--scenes", "4", "--points", "1500",
                "--width", "256", "--height", "192", "--fx", "260", "--fy", "260",
                "--depth-range", "0.7", "1.2", "--seed", "7"]
    outputs = {}
    for run in ("a", "b"):
        base = tmp_path / run
        bench = base / "bench"
        assert main(gen_args + ["--out", str(bench)]) == 0
        anchors = base / "anchors.json"
        assert main(["anchors", "--seed", "7", "--out", str(anchors),
                     "--model", str(bench / "model.ply"), "--k", "16"]) == 0
        maps = base / "maps"
        assert main(["encode", "--seed", "7", "--out", str(maps),
                     "--scenes", str(bench), "--anchors", str(anchors),
                     "--res", "32"]) == 0
        noisy = base / "noisy"
        assert main(["corrupt", "--seed", "7", "--out", str(noisy),
                     "--maps", str(maps), "--residual-sigma", "0.001",
                     "--label-flip", "0.01"]) == 0
        poses = base / "poses.json"
        assert main(["solve", "--seed", "7", "--out", str(poses),
                     "--maps", str(noisy), "--anchors", str(anchors),
                     "--mode", "fused"]) == 0
        summary = base / "summary.csv"
        assert main(["eval", "--seed", "7", "--out", str(summary),
                     "--pred", str(poses), "--scenes", str(bench)]) == 0
        aa = base / "anchors_sweep.csv"
        assert main(["ablate-anchors", "--seed", "3", "--out", str(aa),
                     "--scenes", str(bench), "--k-list", "1", "8",
                     "--res", "24"]) == 0
        ac = base / "corr_sweep.csv"
        assert main(["ablate-corr", "--seed", "3", "--out", str(ac),
                     "--scenes", str(bench), "--res", "24", "--k", "16"]) == 0
        ak = base / "k_sweep.csv"
        assert main(["ablate-k", "--seed", "3", "--out", str(ak),
                     "--scenes", str(bench), "--res", "24", "--k", "16"]) == 0
        outputs[run] = [bench, anchors, maps, noisy, poses, summary, aa, ac, ak]

    names = ["gen", "anchors", "encode", "corrupt", "solve", "eval",
             "ablate-anchors", "ablate-corr", "ablate-k"]
    mismatched = [n for n, pa, pb in zip(names, outputs["a"], outputs["b"])
                  if _digest(pa) != _digest(pb)]
    ok = not mismatched
    _report("criterion 9 (CLI determinism)", ok,
            "all 9 subcommands rerun byte-identical"
            + (f"; mismatches: {mismatched}" if mismatched else ""))
