import dataclasses
import hashlib

import numpy as np
import pytest
from scipy.stats import chi2

from anchorpose import solver
from anchorpose.camera_crop import adjust_intrinsics, crop_affine
from anchorpose.correspondence import NoiseSpec, corrupt, ground_truth_maps
from anchorpose.geom import NEAR_EPS, Intrinsics, Pose
from anchorpose.mesh import ObjectModel
from anchorpose.solver import (
    PREEMPT_LEADERS,
    PREEMPT_SUBSET,
    CorrSet,
    Degenerate,
    NoConsensus,
    NoForeground,
    _best_3d3d,
    _draw_samples,
    _full_consensus,
    _hypotheses_3d3d,
    _metric_normal,
    _pixel_normal,
    _so3_exp,
    _spread_ok,
    _triple_spread_ok,
    extract_correspondences,
    pose_error,
    ransac,
    solve_2d3d,
    solve_3d3d,
    solve_fused,
)
from anchorpose.synth import SceneConfig, _render, tight_roi
from anchorpose.codec import build_anchor_set
from conftest import TEST_K, random_rotation_aa, rodrigues, scene_bundle

K = Intrinsics(500.0, 500.0, 320.0, 240.0)


def _rand_pose(rng):
    return Pose(random_rotation_aa(rng),
                [rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), rng.uniform(0.5, 1.5)])


def _perturbed(pose, rng, deg=5.0, dt=0.05):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    d_rot = rodrigues(axis, np.radians(deg))
    return Pose(d_rot @ pose.rotation,
                pose.translation + rng.normal(size=3) * dt / np.sqrt(3))


def _projected(pts_cam, k):
    return np.column_stack([
        k.fx * pts_cam[:, 0] / pts_cam[:, 2] + k.cx,
        k.fy * pts_cam[:, 1] / pts_cam[:, 2] + k.cy,
    ])


def _clean_corr(rng, n=60, k=K):
    pose = _rand_pose(rng)
    obj = rng.uniform(-0.06, 0.06, (n, 3))
    cam = pose.apply(obj)
    return pose, CorrSet(obj, cam, _projected(cam, k))


class TestExtract:
    def test_counts_match_mask(self, blob_anchors):
        model, anchors, scene, roi = scene_bundle(31)
        maps = ground_truth_maps(scene, anchors, roi)
        corr = extract_correspondences(maps, anchors)
        assert len(corr) == int(maps.mask.sum())
        np.testing.assert_array_equal(corr.weights, 1.0)

    def test_all_background_raises(self):
        model, anchors, scene, _ = scene_bundle(31)
        from anchorpose.camera_crop import Roi

        empty = ground_truth_maps(scene, anchors, Roi(8.0, 8.0, 16.0, 16.0, 16))
        with pytest.raises(NoForeground):
            extract_correspondences(empty, anchors)

    def test_obj_points_on_surface_for_aligned_scene(self):
        # pixel-aligned fixture: model points ARE backprojected pixel centers,
        # so grid cells reproduce them and decoded points sit on the surface
        k = Intrinsics(100.0, 100.0, 32.0, 32.0)
        us, vs = np.meshgrid(np.arange(20.0, 44.0), np.arange(20.0, 44.0))
        z = 1.0 + 0.002 * (us - 32.0) + 0.001 * (vs - 32.0)
        pts = np.stack([(us - k.cx) * z / k.fx, (vs - k.cy) * z / k.fy, z], axis=-1)
        model = ObjectModel("gridplane", pts.reshape(-1, 3))
        cfg = SceneConfig(seed=0, width=64, height=64, intrinsics=k,
                          depth_range=(0.5, 2.0), occluders=None)
        scene = _render(model, Pose.identity(), cfg)
        anchors = build_anchor_set(model, 16)
        from anchorpose.camera_crop import Roi

        roi = Roi(32.0, 32.0, 24.0, 24.0, 24)  # integer-aligned unit-scale crop
        maps = ground_truth_maps(scene, anchors, roi)
        corr = extract_correspondences(maps, anchors)
        from scipy.spatial import cKDTree

        d, _ = cKDTree(model.points).query(corr.obj_pts)
        assert d.max() < 1e-9

    def test_background_class_cells_dropped(self):
        model, anchors, scene, roi = scene_bundle(32)
        maps = ground_truth_maps(scene, anchors, roi)
        noisy = corrupt(maps, NoiseSpec(0.0, 1.0, 0.0, 0.0, seed=3))
        corr = extract_correspondences(noisy, anchors)
        # flips resample uniformly over K+1, so ~1/(K+1) cells become background
        expected = int(maps.mask.sum()) * anchors.k / (anchors.k + 1)
        assert len(corr) < int(maps.mask.sum())
        assert abs(len(corr) - expected) < 0.1 * expected


class TestSolve3d3d:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            pose, corr = _clean_corr(rng)
            rot, trans = pose_error(solve_3d3d(corr).pose, pose)
            assert rot < 1e-6 and trans < 1e-8

    def test_minimal_three_points(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            pose = _rand_pose(rng)
            obj = rng.uniform(-0.06, 0.06, (3, 3))
            corr = CorrSet(obj, pose.apply(obj))
            rot, trans = pose_error(solve_3d3d(corr).pose, pose)
            assert rot < 1e-5 and trans < 1e-8

    def test_collinear_degenerate(self):
        obj = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(Degenerate):
            solve_3d3d(CorrSet(obj, obj + 0.1))

    def test_too_few_points(self):
        obj = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        with pytest.raises(Degenerate):
            solve_3d3d(CorrSet(obj, obj))

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(2)
        pose, corr = _clean_corr(rng, n=40)
        base = solve_3d3d(corr).pose
        for _ in range(10):
            q = random_rotation_aa(rng)
            rotated = CorrSet(corr.obj_pts, corr.cam_pts @ q.T, weights=corr.weights)
            got = solve_3d3d(rotated).pose
            np.testing.assert_allclose(got.rotation, q @ base.rotation, atol=1e-9)
            np.testing.assert_allclose(got.translation, q @ base.translation, atol=1e-9)

    def test_uniform_weights_equal_unweighted_kabsch(self):
        # textbook unweighted Kabsch as the oracle
        rng = np.random.default_rng(3)
        pose, corr = _clean_corr(rng, n=50)
        noisy_cam = corr.cam_pts + rng.normal(0, 0.002, corr.cam_pts.shape)
        corr = CorrSet(corr.obj_pts, noisy_cam)
        a, b = corr.obj_pts, corr.cam_pts
        a0, b0 = a - a.mean(0), b - b.mean(0)
        u, _, vt = np.linalg.svd(a0.T @ b0)
        d = np.sign(np.linalg.det(vt.T @ u.T))
        r_ref = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
        t_ref = b.mean(0) - r_ref @ a.mean(0)
        got = solve_3d3d(corr).pose
        np.testing.assert_allclose(got.rotation, r_ref, atol=1e-12)
        np.testing.assert_allclose(got.translation, t_ref, atol=1e-12)

    def test_weights_bias_solution(self):
        rng = np.random.default_rng(4)
        pose, corr = _clean_corr(rng, n=30)
        bad_cam = corr.cam_pts.copy()
        bad_cam[:10] += 0.05  # corrupt a third of the points
        w = np.ones(30)
        w[:10] = 1e-9
        weighted = solve_3d3d(CorrSet(corr.obj_pts, bad_cam, weights=w))
        rot, trans = pose_error(weighted.pose, pose)
        assert rot < 1e-3 and trans < 1e-5

    def test_gaussian_noise_statistical_bound(self):
        # mean translation error over 500 trials <= 2*sigma/sqrt(N)
        rng = np.random.default_rng(5)
        sigma, n = 0.005, 500
        errs = []
        for _ in range(500):
            pose = _rand_pose(rng)
            obj = rng.uniform(-0.06, 0.06, (n, 3))
            cam = pose.apply(obj) + rng.normal(0, sigma, (n, 3))
            _, trans = pose_error(solve_3d3d(CorrSet(obj, cam)).pose, pose)
            errs.append(trans)
        assert np.mean(errs) <= 2.0 * sigma / np.sqrt(n)

    def test_rmse_reported(self):
        rng = np.random.default_rng(6)
        pose, corr = _clean_corr(rng)
        rep = solve_3d3d(corr)
        assert rep.rmse < 1e-12
        assert rep.mode == "3d3d"
        assert rep.inlier_count == len(corr)


class TestSolve2d3d:
    def test_noise_free_recovery_with_perturbed_init(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pose = _rand_pose(rng)
            obj = rng.uniform(-0.06, 0.06, (50, 3))
            uv = _projected(pose.apply(obj), K)
            rep = solve_2d3d(CorrSet(obj, img_pts=uv), K, init=_perturbed(pose, rng))
            rot, trans = pose_error(rep.pose, pose)
            assert rot < 1e-6 and trans < 1e-8

    def test_planar_points_accepted(self):
        rng = np.random.default_rng(8)
        pose = _rand_pose(rng)
        obj = rng.uniform(-0.06, 0.06, (20, 3))
        obj[:, 2] = 0.0
        uv = _projected(pose.apply(obj), K)
        rep = solve_2d3d(CorrSet(obj, img_pts=uv), K, init=_perturbed(pose, rng, 2, 0.02))
        rot, trans = pose_error(rep.pose, pose)
        assert rot < 1e-5 and trans < 1e-7

    def test_five_points_degenerate(self):
        rng = np.random.default_rng(9)
        pose = _rand_pose(rng)
        obj = rng.uniform(-0.06, 0.06, (5, 3))
        uv = _projected(pose.apply(obj), K)
        with pytest.raises(Degenerate):
            solve_2d3d(CorrSet(obj, img_pts=uv), K)

    def test_collinear_degenerate(self):
        obj = np.outer(np.linspace(0, 1, 8), [1.0, 0.0, 0.0])
        uv = np.tile([320.0, 240.0], (8, 1))
        with pytest.raises(Degenerate):
            solve_2d3d(CorrSet(obj, img_pts=uv), K)

    def test_objective_trace_monotone(self):
        rng = np.random.default_rng(10)
        pose = _rand_pose(rng)
        obj = rng.uniform(-0.06, 0.06, (80, 3))
        uv = _projected(pose.apply(obj), K) + rng.normal(0, 1.0, (80, 2))
        rep = solve_2d3d(CorrSet(obj, img_pts=uv), K, init=_perturbed(pose, rng))
        assert len(rep.trace) >= 2
        assert all(a > b for a, b in zip(rep.trace, rep.trace[1:]))

    def test_default_init_from_cam_points(self):
        rng = np.random.default_rng(11)
        pose, corr = _clean_corr(rng)
        rep = solve_2d3d(corr, K)  # init=None -> closed-form 3d-3d
        rot, trans = pose_error(rep.pose, pose)
        assert rot < 1e-6 and trans < 1e-8


class TestRansac:
    def test_no_outliers_matches_direct_solve(self):
        rng = np.random.default_rng(12)
        pose, corr = _clean_corr(rng, n=100)
        rep = ransac(corr, "3d3d", inlier_tol=0.005, seed=0)
        assert rep.inlier_count == 100
        direct = solve_3d3d(corr)
        np.testing.assert_allclose(rep.pose.rotation, direct.pose.rotation, atol=1e-9)
        np.testing.assert_allclose(rep.pose.translation, direct.pose.translation,
                                   atol=1e-9)

    def test_thirty_percent_outliers(self, stops):
        ok = 0
        for trial in range(20):
            rng = np.random.default_rng(20_000 + trial)
            pose = _rand_pose(rng)
            obj = rng.uniform(-0.06, 0.06, (200, 3))
            cam = pose.apply(obj)
            out = rng.choice(200, 60, replace=False)
            cam[out] = pose.apply(rng.uniform(-0.06, 0.06, (60, 3)))
            rep = ransac(CorrSet(obj, cam), "3d3d", inlier_tol=0.005, seed=trial)
            rot, trans = pose_error(rep.pose, pose)
            ok += (rot < 0.5 and trans < 0.005)
        assert ok == 20
        assert stops == [False] * 20

    def test_all_outliers_no_consensus(self):
        rng = np.random.default_rng(13)
        obj = rng.uniform(-0.06, 0.06, (50, 3))
        cam = rng.uniform(-0.5, 0.5, (50, 3)) + [0, 0, 1.0]
        with pytest.raises(NoConsensus):
            ransac(CorrSet(obj, cam), "3d3d", inlier_tol=1e-6, seed=0)

    def test_bit_reproducible(self):
        rng = np.random.default_rng(14)
        pose, corr = _clean_corr(rng, n=80)
        noisy = CorrSet(corr.obj_pts,
                        corr.cam_pts + np.random.default_rng(1).normal(0, 0.002, (80, 3)))
        a = ransac(noisy, "3d3d", inlier_tol=0.005, seed=99)
        b = ransac(noisy, "3d3d", inlier_tol=0.005, seed=99)
        assert a.pose.rotation.tobytes() == b.pose.rotation.tobytes()
        assert a.pose.translation.tobytes() == b.pose.translation.tobytes()
        assert a.inlier_count == b.inlier_count

    def test_2d3d_mode_requires_intrinsics(self):
        rng = np.random.default_rng(15)
        pose, corr = _clean_corr(rng)
        with pytest.raises(ValueError):
            ransac(corr, "2d3d", inlier_tol=2.0, seed=0)
        rep = ransac(corr, "2d3d", inlier_tol=2.0, seed=0, k=K)
        rot, trans = pose_error(rep.pose, pose)
        assert rot < 1e-4 and trans < 1e-5

    @pytest.mark.parametrize("mode", ["3d3d", "2d3d"])
    @pytest.mark.parametrize("name, value", [
        ("max_iters", 0), ("max_iters", -3), ("inlier_tol", 0.0), ("inlier_tol", -1.0),
        ("inlier_tol", float("nan")), ("inlier_tol", float("inf")),
    ])
    def test_invalid_arguments_rejected(self, mode, name, value):
        _, corr = _clean_corr(np.random.default_rng(15))
        with pytest.raises(ValueError, match=name):
            ransac(corr, mode, **{"inlier_tol": 2.0, name: value}, seed=0, k=K)


def _draws(n, iters, seed):
    """The minimal samples and the scoring subset that
    ``ransac(..., "3d3d", max_iters=iters, seed=seed)`` draws."""
    rng = np.random.default_rng(seed)
    samples = _draw_samples(rng, n, 3, iters)
    return samples, np.sort(rng.choice(n, min(n, PREEMPT_SUBSET), replace=False))


@pytest.fixture
def stops(monkeypatch):
    """Whether each ``ransac`` 3d3d call stopped at full consensus, in order.

    ``_consensus_3d3d`` runs once per call; it may test for full consensus
    twice, before and after building the hypotheses past the first
    ``PREEMPT_LEADERS``."""
    fired, inner = [], solver._consensus_3d3d

    def spy(*args):
        hyps, refit = inner(*args)
        fired.append(refit is not None)
        return hyps, refit

    monkeypatch.setattr(solver, "_consensus_3d3d", spy)
    return fired


def _best(corr, samples, subset, tol):
    """``_best_3d3d`` of the hypotheses ``ransac`` builds from these draws."""
    return _best_3d3d(corr, *_hypotheses_3d3d(corr, samples, subset, tol), tol)


def _reference_best_3d3d(corr, samples, tol, subset=None):
    """Per-hypothesis loop that batched 3d3d scoring must reproduce.

    Without ``subset`` every hypothesis competes (exhaustive scoring). With
    it, only those whose inlier count on the subset rows is at least the
    PREEMPT_LEADERS-th largest, ties included, do (the preemptive rule).
    Returns the winner as (count, rmse, index, pose, inlier mask) and the
    number of samples skipped as degenerate."""
    hyps, votes, skipped = {}, {}, 0
    for it, sample in enumerate(samples):
        try:
            hyp = solve_3d3d(corr.subset(sample)).pose
        except Degenerate:
            skipped += 1
            continue
        norms = np.linalg.norm(hyp.apply(corr.obj_pts) - corr.cam_pts, axis=1)
        hyps[it] = (hyp, norms)
        votes[it] = 0 if subset is None else int((norms[subset] < tol).sum())
    ranked = sorted(votes.values(), reverse=True)
    cut = ranked[PREEMPT_LEADERS - 1] if len(ranked) >= PREEMPT_LEADERS else -1
    best = None
    for it, (hyp, norms) in hyps.items():
        if votes[it] < cut:
            continue
        inliers = norms < tol
        count = int(inliers.sum())
        if count == 0:
            continue
        rmse = float(np.sqrt((norms[inliers] ** 2).mean()))
        if best is None or (count, -rmse, -it) > (best[0], -best[1], -best[2]):
            best = (count, rmse, it, hyp, inliers)
    return best, skipped


class TestBatchedRansac3d3d:
    @pytest.mark.parametrize("case", ["outliers", "collinear", "preemptive"])
    def test_matches_reference_loop(self, case, stops):
        rng = np.random.default_rng(40)
        pose = _rand_pose(rng)
        if case == "collinear":
            # 12 of 20 points on one line: about a fifth of the draws are collinear
            n = 20
            obj = rng.uniform(-0.06, 0.06, (n, 3))
            obj[:12] = np.outer(np.linspace(-0.05, 0.05, 12), [0.3, -0.5, 0.8])
        else:
            # at most PREEMPT_SUBSET points, the subset is all of them and
            # scoring is exhaustive; above, only the leaders are scored in full
            n = PREEMPT_SUBSET if case == "outliers" else 2 * PREEMPT_SUBSET
            obj = rng.uniform(-0.06, 0.06, (n, 3))
        cam = pose.apply(obj) + rng.normal(0, 0.001, (n, 3))
        if case != "collinear":
            m = 3 * n // 10  # 30% gross outliers
            out = rng.choice(n, m, replace=False)
            cam[out] = pose.apply(rng.uniform(-0.06, 0.06, (m, 3)))
        corr = CorrSet(obj, cam, weights=rng.uniform(0.5, 1.0, n))
        samples, subset = _draws(n, 128, seed=5)
        assert (len(subset) < n) == (case == "preemptive")

        ref, skipped = _reference_best_3d3d(
            corr, samples, 0.005, subset if case == "preemptive" else None)
        count, rmse, index, hyp, inliers = _best(corr, samples, subset, 0.005)
        assert (count, index) == (ref[0], ref[2])
        assert rmse == pytest.approx(ref[1], rel=1e-12)
        np.testing.assert_array_equal(inliers, ref[4])
        assert hyp.rotation.tobytes() == ref[3].rotation.tobytes()
        assert hyp.translation.tobytes() == ref[3].translation.tobytes()
        assert (skipped > 0) == (case == "collinear")

        rep = ransac(corr, "3d3d", inlier_tol=0.005, max_iters=128, seed=5)
        refit = solve_3d3d(corr.subset(np.nonzero(ref[4])[0])).pose
        # every collinear-case row is an inlier, so that call stops early
        assert stops == [case == "collinear"]
        assert rep.inlier_count == ref[0]
        assert rep.pose.rotation.tobytes() == refit.rotation.tobytes()
        assert rep.pose.translation.tobytes() == refit.translation.tobytes()

    def test_only_leaders_are_scored_in_full(self):
        # Two exact poses: A holds 80 subset rows and 10 others, B 20 subset
        # rows and 90 others. Exhaustive scoring picks B (110 inliers); the
        # subset ranks the A hypotheses first, so preemption picks A (90).
        rng = np.random.default_rng(46)
        n = 2 * PREEMPT_SUBSET
        samples, subset = _draws(n, 128, seed=5)
        rest = np.setdiff1d(np.arange(n), subset)
        group_a = np.concatenate([subset[:80], rest[:10]])
        obj = rng.uniform(-0.06, 0.06, (n, 3))
        pose_a, pose_b = _rand_pose(rng), _rand_pose(rng)
        cam = pose_b.apply(obj)
        cam[group_a] = pose_a.apply(obj[group_a])
        corr = CorrSet(obj, cam)
        assert np.isin(samples, group_a).all(axis=1).sum() >= PREEMPT_LEADERS

        assert _reference_best_3d3d(corr, samples, 0.005)[0][0] == 110
        ref, _ = _reference_best_3d3d(corr, samples, 0.005, subset)
        count, _, index, _, inliers = _best(corr, samples, subset, 0.005)
        assert (count, index) == (ref[0], ref[2]) and count == 90
        np.testing.assert_array_equal(np.nonzero(inliers)[0], np.sort(group_a))

    def test_ties_go_to_the_lower_index(self):
        rng = np.random.default_rng(43)
        pose, corr = _clean_corr(rng, n=30)
        corr = CorrSet(corr.obj_pts, corr.cam_pts + rng.normal(0, 0.001, (30, 3)))
        (a, b), subset = _draws(30, 2, seed=1)
        count, rmse, index, _, _ = _best(corr, np.array([a, b, a, b]), subset, 0.005)
        assert index in (0, 1)

    def test_zero_weight_samples_skipped(self):
        # 1 of the 20 three-point subsets of 6 carries no weight at all
        rng = np.random.default_rng(45)
        pose, corr = _clean_corr(rng, n=6)
        corr = CorrSet(corr.obj_pts, corr.cam_pts, weights=[0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        samples, _ = _draws(6, 64, seed=0)
        assert (corr.weights[samples].sum(axis=1) == 0).any()
        rep = ransac(corr, "3d3d", inlier_tol=0.005, max_iters=64, seed=0)
        assert rep.inlier_count == 6
        rot, trans = pose_error(rep.pose, pose)
        assert rot < 1e-6 and trans < 1e-8

    def test_all_samples_collinear_no_consensus(self):
        rng = np.random.default_rng(44)
        obj = np.outer(np.linspace(-0.05, 0.05, 10), [0.3, -0.5, 0.8])
        corr = CorrSet(obj, _rand_pose(rng).apply(obj))
        with pytest.raises(NoConsensus):
            ransac(corr, "3d3d", inlier_tol=0.005, max_iters=32, seed=0)

    def test_support_below_ten_percent_no_consensus(self):
        rng = np.random.default_rng(41)
        n = 50
        obj = rng.uniform(-0.06, 0.06, (n, 3))
        cam = rng.uniform(-0.3, 0.3, (n, 3)) + [0.0, 0.0, 1.0]
        # the first drawn sample plus one more point agree on a pose: 4 of 50
        samples, subset = _draws(n, 64, seed=0)
        first = samples[0]
        support = np.append(first, np.setdiff1d(np.arange(n), first)[0])
        cam[support] = _rand_pose(rng).apply(obj[support])
        corr = CorrSet(obj, cam)
        best = _best(corr, samples, subset, 0.005)
        assert best is not None and 0 < best[0] < 0.1 * n
        with pytest.raises(NoConsensus):
            ransac(corr, "3d3d", inlier_tol=0.005, max_iters=64, seed=0)


def _consensus_corr(seed, n, sigma, weighted):
    """A sweep-like set: exact correspondences plus ``sigma`` of camera noise
    per axis, far below the 1 cm tolerance, so every row is an inlier."""
    rng = np.random.default_rng(seed)
    pose = _rand_pose(rng)
    obj = rng.uniform(-0.06, 0.06, (n, 3))
    cam = pose.apply(obj) + rng.normal(0, sigma, (n, 3))
    return pose, CorrSet(obj, cam, weights=rng.uniform(0.5, 1.0, n) if weighted else None)


class TestFullConsensus:
    """``ransac`` skips the leaders' tie-break when a hypothesis holds every
    row and the all-rows refit is sound; it returns what the full path does."""

    @pytest.mark.parametrize("sigma", [0.0, 0.001])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("n", [60, PREEMPT_SUBSET, 800])
    def test_equals_refit_of_reference_winner(self, stops, sigma, weighted, n):
        _, corr = _consensus_corr(300, n, sigma, weighted)
        samples, subset = _draws(n, 128, seed=300)
        ref, _ = _reference_best_3d3d(corr, samples, 0.01, subset)
        assert ref[0] == n
        refit = solve_3d3d(corr.subset(np.nonzero(ref[4])[0]))
        rep = ransac(corr, "3d3d", 0.01, 128, 300)
        assert stops == [True]
        assert (rep.inlier_count, rep.rmse) == (n, refit.rmse)
        assert rep.pose.rotation.tobytes() == refit.pose.rotation.tobytes()
        assert rep.pose.translation.tobytes() == refit.pose.translation.tobytes()

    def test_outliers_cost_no_extra_scoring(self, monkeypatch, stops):
        # With a third of the rows gross outliers no hypothesis has the full
        # subset vote, so only the subset pass and the leaders are scored.
        columns, inner = [], solver._sq_planes
        monkeypatch.setattr(solver, "_sq_planes",
                            lambda obj, cam, rot, t: columns.append(len(rot)) or
                            inner(obj, cam, rot, t))
        _, corr = _consensus_corr(302, 800, 0.001, False)
        cam = corr.cam_pts.copy()
        cam[::3] += 0.05
        rep = ransac(CorrSet(corr.obj_pts, cam), "3d3d", 0.01, 128, 302)
        assert stops == [False] and rep.inlier_count == 533
        assert len(columns) == 2 and columns[0] == 128

    @pytest.fixture
    def built(self, monkeypatch):
        """The sample rows of each ``_hypotheses_3d3d`` call, in order."""
        rows, inner = [], solver._hypotheses_3d3d

        def spy(corr, samples, *args):
            rows.append(samples)
            return inner(corr, samples, *args)

        monkeypatch.setattr(solver, "_hypotheses_3d3d", spy)
        return rows

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("n", [60, 800])
    def test_consensus_builds_only_the_first_leaders(self, built, stops, n, weighted):
        _, corr = _consensus_corr(300, n, 0.001, weighted)
        ransac(corr, "3d3d", 0.01, 128, 300)
        samples, _ = _draws(n, 128, seed=300)
        assert stops == [True]
        assert len(built) == 1
        np.testing.assert_array_equal(built[0], samples[:PREEMPT_LEADERS])

    @pytest.mark.parametrize("seed", [302, 303])
    def test_outliers_build_each_hypothesis_once(self, built, stops, seed):
        _, corr = _consensus_corr(seed, 800, 0.001, False)
        cam = corr.cam_pts.copy()
        cam[::3] += 0.05
        ransac(CorrSet(corr.obj_pts, cam), "3d3d", 0.01, 128, seed)
        samples, subset = _draws(800, 128, seed)
        assert solver._no_full_vote(corr.obj_pts[subset], cam[subset], 0.01)
        assert stops == [False]
        assert len(built) == 1
        np.testing.assert_array_equal(built[0], samples)

    def test_unsettled_prefix_builds_the_rest_once(self, built, stops):
        # One row sits 1.5 tol off exact correspondences: every pair length
        # stays within 2 tol, so the first hypotheses are built and tested,
        # but none holds that row and the other 120 are built after them.
        tol, n = 0.01, 2 * PREEMPT_SUBSET
        pose, corr = _consensus_corr(301, n, 0.0, False)
        samples, subset = _draws(n, 128, seed=301)
        row = np.setdiff1d(subset, samples)[0]
        cam = corr.cam_pts.copy()
        cam[row] += 1.5 * tol * pose.rotation[:, 0]
        corr = CorrSet(corr.obj_pts, cam)
        assert not solver._no_full_vote(corr.obj_pts[subset], cam[subset], tol)
        rep = ransac(corr, "3d3d", tol, 128, 301)
        assert stops == [False] and rep.inlier_count == n - 1
        assert [len(rows) for rows in built] == [PREEMPT_LEADERS, 128 - PREEMPT_LEADERS]
        np.testing.assert_array_equal(np.concatenate(built), samples)
        ref, _ = _reference_best_3d3d(corr, samples, tol, subset)
        refit = solve_3d3d(corr.subset(np.nonzero(ref[4])[0])).pose
        assert rep.pose.rotation.tobytes() == refit.rotation.tobytes()
        assert rep.pose.translation.tobytes() == refit.translation.tobytes()

    @pytest.mark.parametrize("n", [60, 800])
    @pytest.mark.parametrize("sigma", [0.0, 0.001, 0.004, 0.008])
    def test_no_full_vote_never_rules_out_a_consensus(self, n, sigma):
        # The pair test may only answer True when no hypothesis gets the full
        # vote: check it against the votes of many hypotheses.
        for seed in range(5):
            _, corr = _consensus_corr(400 + seed, n, sigma, False)
            samples, subset = _draws(n, 128, seed)
            votes = _hypotheses_3d3d(corr, samples, subset, 0.01)[2]
            if solver._no_full_vote(corr.obj_pts[subset], corr.cam_pts[subset], 0.01):
                assert not (votes == len(subset)).any()
            elif sigma == 0.0:
                assert (votes == len(subset)).all()

    @pytest.mark.parametrize("iters", [1, PREEMPT_LEADERS])
    def test_few_hypotheses_are_built_in_one_pass(self, built, stops, iters):
        _, corr = _consensus_corr(300, 100, 0.001, False)
        ransac(corr, "3d3d", 0.01, iters, 300)
        assert [len(rows) for rows in built] == [iters]

    def test_degenerate_refit_returns_the_winner(self, stops):
        # 1000 points on a line, one of them 1e-9 m off it: the set as a whole
        # is collinear to the 1e-9 rule, but a triple holding that point is not
        rng = np.random.default_rng(47)
        n, seed = 1000, 3
        line = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
        obj = np.outer(np.linspace(-0.06, 0.06, n), line)
        obj[n // 3] += 1e-9 * np.cross(line, [1.0, 0.0, 0.0]) / np.linalg.norm(line[1:])
        corr = CorrSet(obj, Pose(random_rotation_aa(rng), [0.0, 0.0, 1.0]).apply(obj))
        samples, subset = _draws(n, 128, seed)
        votes = _hypotheses_3d3d(corr, samples, subset, 0.01)[2]
        assert not _spread_ok(corr.obj_pts) and (votes == len(subset)).any()
        with pytest.raises(Degenerate):
            solve_3d3d(corr)

        ref, _ = _reference_best_3d3d(corr, samples, 0.01, subset)
        rep = ransac(corr, "3d3d", 0.01, 128, seed)
        assert stops == [False]
        assert rep.inlier_count == ref[0] == n
        assert rep.pose.rotation.tobytes() == ref[3].rotation.tobytes()
        assert rep.pose.translation.tobytes() == ref[3].translation.tobytes()

    @pytest.mark.parametrize("offset, stop", [(0.5e-9, False), (2e-9, True)])
    def test_rounding_margin(self, stops, offset, stop):
        # One row that no sample holds sits tol * (1 - offset) from every
        # hypothesis: an inlier either way, but inside the 1e-9 margin only
        # the full path may count it.
        tol, n = 0.01, 2 * PREEMPT_SUBSET
        pose, corr = _consensus_corr(301, n, 0.0, False)
        samples, subset = _draws(n, 128, seed=301)
        row = np.setdiff1d(np.arange(n), samples)[0]
        cam = corr.cam_pts.copy()
        cam[row] += tol * (1.0 - offset) * pose.rotation[:, 0]
        corr = CorrSet(corr.obj_pts, cam)
        rot, t, votes = _hypotheses_3d3d(corr, samples, subset, tol)
        dist = np.linalg.norm(corr.obj_pts[row] @ rot.transpose(0, 2, 1) + t - cam[row],
                              axis=-1)
        assert np.all((dist < tol) & ((dist < tol * (1 - 1e-9)) == stop))

        rep = ransac(corr, "3d3d", tol, 128, 301)
        refit = solve_3d3d(corr.subset(np.arange(n)))
        assert stops == [stop]
        assert (rep.inlier_count, rep.rmse) == (n, refit.rmse)
        assert rep.pose.rotation.tobytes() == refit.pose.rotation.tobytes()
        assert rep.pose.translation.tobytes() == refit.pose.translation.tobytes()


# sha256 of ransac(..., "3d3d", 0.01, 128, seed)'s pose, inlier count and rmse
# on _consensus_corr sets, pinned from the code that scored every leader on
# all rows before the full-consensus stop.
PINNED_RANSAC_3D3D = {
    "0/u/60/300": "e7f923694e28d16640964295513344301302bd0e40fd04a3e7a0690924330db1",
    "0/u/60/301": "a4faf5eafe07dfc8db3f9ffaa9da8dc35f3b3604ad06a44de5865511eaea3bb2",
    "0/u/100/300": "4a2240746ccf244b3ff8773c67535876d8e5389a565c3450c78e2c7c2b3d2e68",
    "0/u/100/301": "0e43111e961c4db78009257f7710352a2061cb6ffbfd81c812cc3eb37b5d4d16",
    "0/u/800/300": "803e4ac7fc1298e1425d140163f32b3598aa331ac12aedf15f58d4c7ae3d1be8",
    "0/u/800/301": "b382d3f8772256d4cdaf97bcb89ae4ff4446ea80d89c384e76aa6e7a1c04f89d",
    "0/w/60/300": "37c2108cd4e13daf33bf93ee673e6ee4f6249908577febc1045acbfe70f24341",
    "0/w/60/301": "df18f500000d4fef600ff682d7217878c96db223b002c027e22c4726edcb7a6d",
    "0/w/100/300": "7466e1c6b819747ff4b0de9ef2dac5726864e19d0948b8d1b9caa4c9c087ee60",
    "0/w/100/301": "04952d9fc052edc46fbf7a0557ca00dfc78287254bb3df5df085e73c06b8c679",
    "0/w/800/300": "c4c5b0ce7386a62868c77fc27584a93778a6cd8040f666db61c5442babd66266",
    "0/w/800/301": "fb1e03affd10dd1f717873d3a24a315e9c95f48be5a0c4b148612159b28215dc",
    "0.001/u/60/300": "5351258f14fe983d73d7ba836788734c90153db5b525b91f07f6de5f0ae552d7",
    "0.001/u/60/301": "20f10cea880b28d63928486b662948b3ca2f75c1826d1176dcb26f66fa35b3c3",
    "0.001/u/100/300": "b6ae49ca5ed75d9aa1966f66c2c4be71ccd6707e6dc825dad6d75ef296ac26ea",
    "0.001/u/100/301": "abbc7280be9630d3a4294bbe89250b340b266d0e2ac939259c37d41ae047077e",
    "0.001/u/800/300": "82108f7f28859f46939a3f072c35e2097cd477c07737381e39a493f2bb8547f5",
    "0.001/u/800/301": "89b29530fc6d72173dc62aefe08b67f2c12ac95f7f5520f06c6a8a388e9a98cf",
    "0.001/w/60/300": "13c0650b6a291aab5b4628a10a7740fae3f749b51682a6a961762bc5e793bb6a",
    "0.001/w/60/301": "84782db336784f63dfcf2f0845e43f72987e9e9b519925a0095d157a3df48657",
    "0.001/w/100/300": "129f03dfd0d437b1fa5fd84d50bbb387f1150f710566b8cb5fc49584bf9ca250",
    "0.001/w/100/301": "e2b9f250d9666e68d305402e547df7d50c7ad794ce5c6d3d798e35ba4cddb937",
    "0.001/w/800/300": "b821f366ae1cad8cd79b4bebe2bc2594be6444971aac15a4773b3c7ae47fa458",
    "0.001/w/800/301": "458cb2ece9a762bfd328f05767cad2db663e276534b764b87c2d83c993c4ea37",
}


@pytest.mark.parametrize("case", sorted(PINNED_RANSAC_3D3D))
def test_ransac_3d3d_bytes_are_pinned(case, stops):
    sigma, weighted, n, seed = case.split("/")
    _, corr = _consensus_corr(int(seed), int(n), float(sigma), weighted == "w")
    rep = ransac(corr, "3d3d", 0.01, 128, int(seed))
    assert stops == [True]
    assert _digest(rep.pose.rotation, rep.pose.translation,
                   [rep.inlier_count, rep.rmse]) == PINNED_RANSAC_3D3D[case]


def _near_collinear_triples(rng, n, log_lo, log_hi):
    """(n, 3, 3) triples along a random line, each pushed off it by a random
    perpendicular of 10**uniform(log_lo, log_hi) times its length along it."""
    base = rng.normal(size=(n, 1, 3))
    d = rng.normal(size=(n, 1, 3))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    perp = rng.normal(size=(n, 3, 3))
    perp -= (perp * d).sum(axis=-1, keepdims=True) * d
    ratio = 10.0 ** rng.uniform(log_lo, log_hi, (n, 1, 1))
    scale = rng.uniform(1e-3, 1.0, (n, 1, 1))
    return base + scale * (rng.normal(size=(n, 3, 1)) * d + ratio * perp)


class TestTripleSpread:
    """The closed-form 3-point spread test equals the SVD one exactly."""

    @pytest.mark.parametrize("seed, case", enumerate(
        ["random", "collinear", "collinear-grid", "coincident", "near-coincident",
         "near-collinear"]))
    def test_matches_svd(self, seed, case):
        rng = np.random.default_rng(seed)
        n = 5000
        line = rng.normal(size=(n, 1, 3)), rng.normal(size=(n, 1, 3))
        tri = {
            "random": lambda: rng.normal(size=(n, 3, 3)) * rng.uniform(1e-3, 1.0, (n, 1, 1)),
            "collinear": lambda: line[0] + rng.normal(size=(n, 3, 1)) * line[1],
            "collinear-grid": lambda: line[0] + rng.integers(-4, 4, (n, 3, 1)) / 8 * line[1],
            "coincident": lambda: np.repeat(line[0], 3, axis=1),
            "near-coincident": lambda: line[0] + rng.normal(size=(n, 3, 3)) * 1e-12,
            "near-collinear": lambda: _near_collinear_triples(rng, n, -10.0, -7.0),
        }[case]()
        expected = _spread_ok(tri)
        np.testing.assert_array_equal(_triple_spread_ok(tri), expected)
        if case in ("collinear", "coincident"):
            assert not expected.any()
        if case == "near-collinear":  # both sides of the 1e-9 rule are covered
            assert 0.2 < expected.mean() < 0.8

    @pytest.mark.parametrize("exponent", [-7, -8, -9.5, -10])
    def test_near_collinear_decade(self, exponent):
        tri = _near_collinear_triples(np.random.default_rng(int(-exponent * 10)), 5000,
                                      exponent - 0.25, exponent + 0.25)
        np.testing.assert_array_equal(_triple_spread_ok(tri), _spread_ok(tri))


class TestDrawSamples:
    @pytest.mark.parametrize("m", [3, 6])
    def test_rows_hold_distinct_indices_in_range(self, m):
        for n in (m, m + 1, 50, 5000):
            samples = _draw_samples(np.random.default_rng(n), n, m, 2000)
            assert samples.shape == (2000, m) and samples.dtype == np.intp
            assert samples.min() >= 0 and samples.max() < n
            assert (np.diff(np.sort(samples, axis=1), axis=1) > 0).all()

    @pytest.mark.parametrize("m", [3, 6])
    def test_same_seed_same_array(self, m):
        a = _draw_samples(np.random.default_rng(8), 40, m, 128)
        b = _draw_samples(np.random.default_rng(8), 40, m, 128)
        c = _draw_samples(np.random.default_rng(9), 40, m, 128)
        assert np.array_equal(a, b) and not np.array_equal(a, c)

    @pytest.mark.parametrize("m", [3, 6])
    def test_n_equal_to_m_gives_permutations(self, m):
        samples = _draw_samples(np.random.default_rng(3), m, m, 500)
        assert (np.sort(samples, axis=1) == np.arange(m)).all()
        assert len({tuple(row) for row in samples}) > 1

    def test_ordered_triples_uniform(self):
        draws = 100_000
        samples = _draw_samples(np.random.default_rng(2024), 6, 3, draws)
        counts = np.bincount(samples @ [36, 6, 1], minlength=216)
        seen = counts[counts > 0]
        assert len(seen) == 120  # 6 * 5 * 4 ordered triples, all hit
        expected = draws / 120
        stat = float(((seen - expected) ** 2 / expected).sum())
        assert chi2.sf(stat, df=119) > 1e-3


def _noisy_fused_corr(seed, n=1000):
    """A fused set with 5 mm metric and 1 px pixel noise."""
    rng = np.random.default_rng(seed)
    pose = _rand_pose(rng)
    obj = rng.uniform(-0.06, 0.06, (n, 3))
    cam = pose.apply(obj)
    img = _projected(cam, K) + rng.normal(0, 1.0, (n, 2))
    return pose, CorrSet(obj, cam + rng.normal(0, 0.005, (n, 3)), img,
                         rng.uniform(0.5, 1.0, n))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# sha256 of each solve's pose, trace, inlier count, rmse and iterations on
# _noisy_fused_corr sets, pinned from the code whose Gauss-Newton evaluated
# every accepted point twice: once objective-only in the line search, then
# again with its normal equations.
_SOLVES = {
    "fused": lambda corr, seed: solve_fused(corr, K, seed=seed, ransac_iters=32),
    "2d3d": lambda corr, seed: solve_2d3d(corr, K),
    "ransac-2d3d": lambda corr, seed: ransac(corr, "2d3d", 2.0, 12, seed, k=K),
}
PINNED_SOLVES = {
    "fused/200": "c614695811740237bf7b0cbd1cb6d6620edb4f8fd3c37f927fada9b2dd662463",
    "fused/201": "7b6ff7267079fc68b9f6c8d0775dcfecf14a3a494c6fec56297a99b1de8c4985",
    "fused/202": "b958f334125eae82b9bfad38989b04151a72014b434b852fdd57dc2a11c6010b",
    "2d3d/200": "10f0abc7e0dbaf90f76af7ae31a7a303ade99e13841b45e62fc6f819da69bb33",
    "2d3d/201": "59e246050e6216504d8b43b0e010cf830199a10a2c90c90b3fd95880b0231654",
    "2d3d/202": "9dfb3504c95ab87a38d741cfa723127f678223bc07087ea5850b637a4b9383a2",
    "ransac-2d3d/200": "8a875a19f2480ca084ac5ba5093a4a3aea24ffa1cf08bd557b3acc0cf5a110a4",
    "ransac-2d3d/201": "73e8bb76a4459ec37003ced6a8f18540c423bab45566bfa096bc3b823939f288",
    "ransac-2d3d/202": "fa74d6d256cceb2be86f7f47b88c1c47bd0c3e3fb59529e40c71fcfcbd8760cf",
}


@pytest.mark.parametrize("case", sorted(PINNED_SOLVES))
def test_solve_bytes_are_pinned(case):
    route, seed = case.rsplit("/", 1)
    _, corr = _noisy_fused_corr(int(seed), n=1000 if route != "ransac-2d3d" else 200)
    rep = _SOLVES[route](corr, int(seed))
    got = _digest(rep.pose.rotation, rep.pose.translation, rep.trace,
                  [rep.inlier_count, rep.rmse, rep.iterations])
    assert got == PINNED_SOLVES[case]


def _captured_evaluate(monkeypatch, solve, *args, **kw):
    """The ``evaluate(R, t)`` that ``solve`` hands to ``_gauss_newton``."""
    captured, inner = [], solver._gauss_newton

    def gauss_newton(evaluate, *gn_args, **gn_kw):
        captured.append(evaluate)
        return inner(evaluate, *gn_args, **gn_kw)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_gauss_newton", gauss_newton)
        solve(*args, **kw)
    return captured[0]


class TestGaussNewtonStopRule:
    def _counting_solve(self, monkeypatch, solve, corr, **kw):
        """``solve(corr, K, **kw)``, also returning the number of evaluations
        that follow each deferred normal-equation step (one run per line
        search) and the (R, t, phi) of every evaluation in order."""
        runs, points = [], []
        inner = solver._gauss_newton

        def gauss_newton(evaluate, pose, max_iters, n_res, **gn_kw):
            def counted(rot, t):
                if runs:
                    runs[-1] += 1
                phi, normal = evaluate(rot, t)
                points.append((rot, t, phi))

                def counted_normal():
                    runs.append(0)
                    return normal()
                return phi, counted_normal
            return inner(counted, pose, max_iters, n_res, **gn_kw)

        with monkeypatch.context() as patch:
            patch.setattr(solver, "_gauss_newton", gauss_newton)
            return solve(corr, K, **kw), runs, points

    @pytest.mark.parametrize("seed", range(6))
    def test_converges_without_confirming_line_search(self, monkeypatch, seed):
        pose, corr = _noisy_fused_corr(100 + seed)
        init = _perturbed(pose, np.random.default_rng(seed), deg=3.0, dt=0.02)
        rep, runs, _ = self._counting_solve(monkeypatch, solve_fused, corr, init=init)
        assert max(runs) < 21  # no line search halved 20 times without a decrease
        assert rep.iterations <= 6
        assert all(b < a for a, b in zip(rep.trace, rep.trace[1:]))

        again, runs, points = self._counting_solve(monkeypatch, solve_fused, corr,
                                                   init=rep.pose)
        assert again.iterations <= 1 and runs == [0] and len(points) == 1
        assert pose_error(again.pose, rep.pose)[0] < 1e-6

    @pytest.mark.parametrize("solve", [solve_fused, solve_2d3d], ids=["fused", "2d3d"])
    def test_each_point_evaluated_once(self, monkeypatch, solve):
        """m accepted and h rejected trials make 1 + m + h evaluations, and the
        deferred step runs once per iteration: at the start point and at each
        accepted point that does not end the solve."""
        rejected_total = 0
        for seed in range(6):
            pose, corr = _noisy_fused_corr(100 + seed)
            init = _perturbed(pose, np.random.default_rng(seed), deg=150.0, dt=0.1)
            rep, runs, points = self._counting_solve(monkeypatch, solve, corr, init=init)
            accepted, rejected, phi = [], 0, points[0][2]
            for _, _, trial in points[1:]:
                if trial < phi:
                    accepted.append(trial)
                    phi = trial
                else:
                    rejected += 1
            assert accepted == rep.trace[1:]
            assert len(points) == 1 + len(accepted) + rejected
            assert len(runs) == rep.iterations
            keys = {(r.tobytes(), t.tobytes()) for r, t, _ in points}
            assert len(keys) == len(points)  # no point is evaluated twice
            rejected_total += rejected
        if solve is solve_2d3d:  # from 150 degrees off, full pixel steps overshoot
            assert rejected_total > 0

    @pytest.mark.parametrize("route", ["fused", "2d3d", "metric", "pixel"])
    def test_deferred_step_survives_later_evaluations(self, monkeypatch, route):
        pose, corr = _noisy_fused_corr(7, n=300)
        w = corr.weights
        if route == "fused":
            evaluate = _captured_evaluate(monkeypatch, solve_fused, corr, K, init=pose)
        elif route == "2d3d":
            evaluate = _captured_evaluate(monkeypatch, solve_2d3d, corr, K, init=pose)
        elif route == "metric":
            def evaluate(rot, t):
                return _metric_normal(corr.obj_pts @ rot.T, corr.cam_pts, w, t, w.sum())
        else:
            def evaluate(rot, t):
                return _pixel_normal(corr.obj_pts @ rot.T, corr.img_pts, w, t, K)
        rng = np.random.default_rng(3)
        first = _perturbed(pose, rng, deg=2.0, dt=0.01)
        phi, step = evaluate(first.rotation, first.translation)
        alone = evaluate(first.rotation, first.translation)[1]()
        for _ in range(3):
            later = _perturbed(pose, rng, deg=10.0, dt=0.05)
            later_phi, later_step = evaluate(later.rotation, later.translation)
            later_step()
            assert later_phi != phi
        jtj, jtr = step()
        assert np.array_equal(jtj, alone[0]) and np.array_equal(jtr, alone[1])


# The stacked analytic Jacobians that the accumulated normal equations replace:
# residuals scaled by sqrt(w) and their (len, 6) Jacobian with respect to the
# left update (w, dt).

def _stacked_metric(obj, cam, scale, rot, t):
    """(R a + t - b) * scale flattened, rows s [-[R a]x, I]."""
    q = obj @ rot.T
    r = ((q + t - cam) * scale[:, None]).ravel()
    q0, q1, q2 = (q * scale[:, None]).T
    zero = np.zeros(len(q))
    j = np.stack([zero, q2, -q1, scale, zero, zero,
                  -q2, zero, q0, zero, scale, zero,
                  q1, -q0, zero, zero, zero, scale], axis=1)
    return r, j.reshape(-1, 6)


def _stacked_pixel(obj, img, scale, rot, t, k):
    """(pi(R a + t) - x) * scale flattened, rows s [(R a) x g, g] for each row g
    of the pinhole derivative; 0 depth derivative where the clamp is active."""
    q = obj @ rot.T
    p = q + t
    z = np.maximum(p[:, 2], NEAR_EPS)
    uv = np.column_stack([k.fx * p[:, 0] / z + k.cx, k.fy * p[:, 1] / z + k.cy])
    r = ((uv - img) * scale[:, None]).ravel()
    front = p[:, 2] > NEAR_EPS
    a, b = k.fx / z * scale, k.fy / z * scale
    cu = np.where(front, -a * p[:, 0] / z, 0.0)
    cv = np.where(front, -b * p[:, 1] / z, 0.0)
    q0, q1, q2 = q.T
    zero = np.zeros(len(q))
    j = np.stack([q1 * cu, q2 * a - q0 * cu, -q1 * a, a, zero, cu,
                  q1 * cv - q2 * b, -q0 * cv, q0 * b, zero, b, cv], axis=1)
    return r, j.reshape(-1, 6)


def _central_jacobian(fn, rot, t, h=1e-6):
    """Central differences of fn under the left update exp([w]x) R, t + dt."""
    cols = []
    for j in range(6):
        d = np.zeros(6)
        d[j] = h
        plus = fn(_so3_exp(d[:3]) @ rot, t + d[3:])
        minus = fn(_so3_exp(-d[:3]) @ rot, t - d[3:])
        cols.append((plus - minus) / (2.0 * h))
    return np.column_stack(cols)


def _jacobian_case(seed=42, n=40):
    """A pose, object points whose first 3 lie behind the camera (the
    NEAR_EPS depth clamp is active there), metric and pixel targets and
    per-point weights."""
    rng = np.random.default_rng(seed)
    pose = _rand_pose(rng)
    rot, t = pose.rotation, pose.translation
    cam = np.column_stack([rng.uniform(-0.2, 0.2, (n, 2)), rng.uniform(0.5, 1.5, n)])
    cam[:3, 2] = -0.3
    obj = (cam - t) @ rot
    return (rot, t, obj, cam + rng.normal(0, 0.01, (n, 3)),
            rng.uniform(0.0, 640.0, (n, 2)), rng.uniform(0.25, 4.0, n))


@pytest.mark.parametrize("family", ["metric", "pixel"])
def test_analytic_jacobian_matches_central_differences(family):
    rot, t, obj, target_m, target_px, w = _jacobian_case()
    scale = np.sqrt(w)
    if family == "metric":
        def fn(r, tr):
            return _stacked_metric(obj, target_m, scale, r, tr)
    else:
        def fn(r, tr):
            return _stacked_pixel(obj, target_px, scale, r, tr, K)

    _, jac = fn(rot, t)
    num = _central_jacobian(lambda r, tr: fn(r, tr)[0], rot, t)
    rel = np.abs(jac - num).max(axis=1) / np.abs(jac).max(axis=1)
    assert rel.max() < 1e-6


@pytest.mark.parametrize("family", ["metric", "pixel", "fused"])
def test_normal_equations_match_stacked_jacobian(family):
    rot, t, obj, target_m, target_px, w = _jacobian_case()
    q = obj @ rot.T
    # fused weights as solve_fused forms them: w / sigma^2 per family
    w_m, w_px = (w / 0.005 ** 2, w / 2.0 ** 2) if family == "fused" else (w, w)
    stacked, normal = [], []
    if family in ("metric", "fused"):
        stacked.append(_stacked_metric(obj, target_m, np.sqrt(w_m), rot, t))
        phi, step = _metric_normal(q, target_m, w_m, t, w_m.sum())
        normal.append((phi, *step()))
    if family in ("pixel", "fused"):
        stacked.append(_stacked_pixel(obj, target_px, np.sqrt(w_px), rot, t, K))
        phi, step = _pixel_normal(q, target_px, w_px, t, K)
        normal.append((phi, *step()))
        assert (q + t)[:3, 2].max() < NEAR_EPS  # clamped rows are covered
    r = np.concatenate([s[0] for s in stacked])
    jac = np.concatenate([s[1] for s in stacked])
    phi, jtj, jtr = (sum(parts) for parts in zip(*normal))
    assert phi == pytest.approx(float(r @ r), rel=1e-12)
    np.testing.assert_allclose(jtj, jac.T @ jac, rtol=1e-12)
    np.testing.assert_allclose(jtr, jac.T @ r, rtol=1e-12)


class TestSolveFused:
    def test_noise_free_matches_3d3d(self):
        rng = np.random.default_rng(16)
        for seed in range(20):
            pose, corr = _clean_corr(rng)
            rep = solve_fused(corr, K, seed=seed, ransac_iters=32)
            ref = solve_3d3d(corr)
            assert np.abs(rep.pose.rotation - ref.pose.rotation).max() < 1e-8
            assert np.abs(rep.pose.translation - ref.pose.translation).max() < 1e-8

    def test_missing_img_pts_rejected(self):
        rng = np.random.default_rng(17)
        pose, corr = _clean_corr(rng)
        with pytest.raises(ValueError):
            solve_fused(CorrSet(corr.obj_pts, corr.cam_pts), K)

    @pytest.mark.parametrize("name", ["sigma_m", "sigma_px"])
    @pytest.mark.parametrize("value", [0.0, -0.005, float("nan"), float("inf")])
    def test_invalid_sigma_rejected(self, name, value):
        _, corr = _clean_corr(np.random.default_rng(17))
        with pytest.raises(ValueError, match=name):
            solve_fused(corr, K, **{name: value})

    def test_report_metadata(self):
        rng = np.random.default_rng(18)
        pose, corr = _clean_corr(rng)
        rep = solve_fused(corr, K, ransac_iters=32)
        assert rep.mode == "fused"
        obj = rep.to_json()
        assert set(obj) == {"pose", "inlier_count", "rmse", "iterations", "mode"}


class TestPoseError:
    def test_identical(self):
        rng = np.random.default_rng(19)
        pose = _rand_pose(rng)
        assert pose_error(pose, pose) == (0.0, 0.0)

    def test_known_rotation_translation(self):
        gt = Pose.identity()
        rot5 = rodrigues([0, 0, 1.0], np.radians(5.0))
        pred = Pose(rot5, [0.0, 0.0, 0.05])
        rot, trans = pose_error(pred, gt)
        assert rot == pytest.approx(5.0, abs=1e-9)
        assert trans == pytest.approx(0.05, abs=1e-15)

    def test_range(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            a, b = _rand_pose(rng), _rand_pose(rng)
            rot, trans = pose_error(a, b)
            assert 0.0 <= rot <= 180.0
            assert trans >= 0.0

    def test_near_pi(self):
        pred = Pose(rodrigues([1.0, 0, 0], np.pi - 1e-7), np.zeros(3))
        rot, _ = pose_error(pred, Pose.identity())
        assert rot == pytest.approx(np.degrees(np.pi - 1e-7), abs=1e-4)


class TestCorrSetValidation:
    def test_needs_some_observation(self):
        with pytest.raises(ValueError):
            CorrSet(np.zeros((4, 3)))

    @pytest.mark.parametrize("field, bad", [("obj_pts", np.nan), ("cam_pts", np.inf),
                                            ("img_pts", -np.inf)])
    def test_non_finite_points_rejected(self, field, bad):
        rng = np.random.default_rng(0)
        arrays = {"obj_pts": rng.normal(size=(4, 3)), "cam_pts": rng.normal(size=(4, 3)),
                  "img_pts": rng.normal(size=(4, 2))}
        arrays[field][2, 1] = bad
        with pytest.raises(ValueError, match=field):
            CorrSet(**arrays)

    def test_arrays_are_read_only_copies(self):
        rng = np.random.default_rng(0)
        arrays = {"obj_pts": rng.normal(size=(4, 3)), "cam_pts": rng.normal(size=(4, 3)),
                  "img_pts": rng.normal(size=(4, 2)), "weights": rng.uniform(0.5, 1.0, 4)}
        corr = CorrSet(**arrays)
        for name, a in arrays.items():
            a[0] = 7.0  # the caller's arrays stay writeable and are not shared
            assert getattr(corr, name)[0].max() != 7.0
            with pytest.raises(ValueError, match="read-only"):
                getattr(corr, name)[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            corr.weights = np.ones(4)
        with pytest.raises(ValueError, match="read-only"):
            CorrSet(np.zeros((4, 3)), img_pts=np.zeros((4, 2))).weights[0] = 2.0

    def test_solves_share_one_cache_per_set(self, monkeypatch):
        spread, kabsch = [], []
        monkeypatch.setattr(solver, "_spread_ok",
                            lambda pts: spread.append(pts) or _spread_ok(pts))
        inner = solver._kabsch
        monkeypatch.setattr(solver, "_kabsch",
                            lambda obj, cam, w: kabsch.append(obj) or inner(obj, cam, w))
        _, corr = _noisy_fused_corr(3, n=200)
        a = solve_3d3d(corr)
        solve_2d3d(corr, K)
        b = solve_3d3d(corr)
        assert [p is corr.obj_pts for p in spread + kabsch] == [True, True]
        assert a is not b and (a.pose, a.rmse) == (b.pose, b.rmse)

        part = corr.subset(np.arange(100))
        c = solve_3d3d(part)
        assert [p is part.obj_pts for p in spread[1:] + kabsch[1:]] == [True, True]
        assert c.rmse != a.rmse

    def test_a_report_cannot_change_the_cache(self):
        _, corr = _noisy_fused_corr(4, n=100)
        first = solve_3d3d(corr)
        rmse, rot = first.rmse, first.pose.rotation.copy()
        first.rmse, first.inlier_count = -1.0, 0
        first.trace.append(1.0)
        with pytest.raises(ValueError, match="read-only"):
            first.pose.rotation[0, 0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.pose.rotation = np.eye(3)
        again = solve_3d3d(corr)
        assert (again.rmse, again.inlier_count, again.trace) == (rmse, 100, [])
        assert again.pose.rotation.tobytes() == rot.tobytes()

    def test_weight_rules(self):
        obj = np.random.default_rng(0).normal(size=(4, 3))
        with pytest.raises(ValueError):
            CorrSet(obj, obj, weights=np.array([1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            CorrSet(obj, obj, weights=np.zeros(4))
