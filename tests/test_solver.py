import numpy as np
import pytest
from scipy.stats import chi2

from anchorpose import solver
from anchorpose.camera_crop import adjust_intrinsics, crop_affine
from anchorpose.correspondence import NoiseSpec, corrupt, ground_truth_maps
from anchorpose.geom import Intrinsics, Pose
from anchorpose.mesh import ObjectModel
from anchorpose.solver import (
    CorrSet,
    Degenerate,
    NoConsensus,
    NoForeground,
    _best_3d3d,
    _draw_samples,
    _metric_residuals,
    _pixel_residuals,
    _so3_exp,
    extract_correspondences,
    pose_error,
    ransac,
    solve_2d3d,
    solve_3d3d,
    solve_fused,
)
from anchorpose.synth import SceneConfig, render, tight_roi
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
        scene = render(model, Pose.identity(), cfg)
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

    def test_thirty_percent_outliers(self):
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


def _draws(n, iters, seed):
    """The minimal samples ``ransac(..., "3d3d", max_iters=iters, seed=seed)`` draws."""
    return _draw_samples(np.random.default_rng(seed), n, 3, iters)


def _reference_best_3d3d(corr, samples, tol):
    """Per-hypothesis loop that batched 3d3d scoring must reproduce.

    Returns the winner as (count, rmse, index, pose, inlier mask) and the
    number of samples skipped as degenerate."""
    best, skipped = None, 0
    for it, sample in enumerate(samples):
        try:
            hyp = solve_3d3d(corr.subset(sample)).pose
        except Degenerate:
            skipped += 1
            continue
        norms = np.linalg.norm(hyp.apply(corr.obj_pts) - corr.cam_pts, axis=1)
        inliers = norms < tol
        count = int(inliers.sum())
        if count == 0:
            continue
        rmse = float(np.sqrt((norms[inliers] ** 2).mean()))
        if best is None or (count, -rmse, -it) > (best[0], -best[1], -best[2]):
            best = (count, rmse, it, hyp, inliers)
    return best, skipped


class TestBatchedRansac3d3d:
    @pytest.mark.parametrize("case", ["outliers", "collinear"])
    def test_matches_reference_loop(self, case):
        rng = np.random.default_rng(40)
        pose = _rand_pose(rng)
        if case == "outliers":
            n = 200
            obj = rng.uniform(-0.06, 0.06, (n, 3))
        else:
            # 12 of 20 points on one line: about a fifth of the draws are collinear
            n = 20
            obj = rng.uniform(-0.06, 0.06, (n, 3))
            obj[:12] = np.outer(np.linspace(-0.05, 0.05, 12), [0.3, -0.5, 0.8])
        cam = pose.apply(obj) + rng.normal(0, 0.001, (n, 3))
        if case == "outliers":
            out = rng.choice(n, 60, replace=False)  # 30% gross outliers
            cam[out] = pose.apply(rng.uniform(-0.06, 0.06, (60, 3)))
        corr = CorrSet(obj, cam, weights=rng.uniform(0.5, 1.0, n))
        samples = _draws(n, 128, seed=5)

        ref, skipped = _reference_best_3d3d(corr, samples, 0.005)
        count, rmse, index, hyp, inliers = _best_3d3d(corr, samples, 0.005)
        assert (count, index) == (ref[0], ref[2])
        assert rmse == pytest.approx(ref[1], rel=1e-12)
        np.testing.assert_array_equal(inliers, ref[4])
        assert hyp.rotation.tobytes() == ref[3].rotation.tobytes()
        assert hyp.translation.tobytes() == ref[3].translation.tobytes()
        assert (skipped > 0) == (case == "collinear")

        rep = ransac(corr, "3d3d", inlier_tol=0.005, max_iters=128, seed=5)
        refit = solve_3d3d(corr.subset(np.nonzero(ref[4])[0])).pose
        assert rep.inlier_count == ref[0]
        assert rep.pose.rotation.tobytes() == refit.rotation.tobytes()
        assert rep.pose.translation.tobytes() == refit.translation.tobytes()

    def test_ties_go_to_the_lower_index(self):
        rng = np.random.default_rng(43)
        pose, corr = _clean_corr(rng, n=30)
        corr = CorrSet(corr.obj_pts, corr.cam_pts + rng.normal(0, 0.001, (30, 3)))
        a, b = _draws(30, 2, seed=1)
        count, rmse, index, _, _ = _best_3d3d(corr, np.array([a, b, a, b]), 0.005)
        assert index in (0, 1)

    def test_zero_weight_samples_skipped(self):
        # 1 of the 20 three-point subsets of 6 carries no weight at all
        rng = np.random.default_rng(45)
        pose, corr = _clean_corr(rng, n=6)
        corr = CorrSet(corr.obj_pts, corr.cam_pts, weights=[0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        samples = _draws(6, 64, seed=0)
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
        samples = _draws(n, 64, seed=0)
        first = samples[0]
        support = np.append(first, np.setdiff1d(np.arange(n), first)[0])
        cam[support] = _rand_pose(rng).apply(obj[support])
        corr = CorrSet(obj, cam)
        best = _best_3d3d(corr, samples, 0.005)
        assert best is not None and 0 < best[0] < 0.1 * n
        with pytest.raises(NoConsensus):
            ransac(corr, "3d3d", inlier_tol=0.005, max_iters=64, seed=0)


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


class TestGaussNewtonStopRule:
    def _counting_solve(self, monkeypatch, corr, **kw):
        """solve_fused, also returning the lengths of the residual-only runs
        that follow each Jacobian evaluation (one run per line search)."""
        runs = []
        inner = solver._gauss_newton

        def gauss_newton(residual_fn, pose, max_iters, **gn_kw):
            def counted(rot, t, jac=False):
                if jac:
                    runs.append(0)
                elif runs:
                    runs[-1] += 1
                return residual_fn(rot, t, jac)
            return inner(counted, pose, max_iters, **gn_kw)

        with monkeypatch.context() as patch:
            patch.setattr(solver, "_gauss_newton", gauss_newton)
            return solve_fused(corr, K, **kw), runs

    @pytest.mark.parametrize("seed", range(6))
    def test_converges_without_confirming_line_search(self, monkeypatch, seed):
        pose, corr = _noisy_fused_corr(100 + seed)
        init = _perturbed(pose, np.random.default_rng(seed), deg=3.0, dt=0.02)
        rep, runs = self._counting_solve(monkeypatch, corr, init=init)
        assert max(runs) < 21  # no line search halved 20 times without a decrease
        assert rep.iterations <= 6
        assert all(b < a for a, b in zip(rep.trace, rep.trace[1:]))

        again, runs = self._counting_solve(monkeypatch, corr, init=rep.pose)
        assert again.iterations <= 1 and runs == [0]
        assert pose_error(again.pose, rep.pose)[0] < 1e-6


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


@pytest.mark.parametrize("family", ["metric", "pixel"])
def test_analytic_jacobian_matches_central_differences(family):
    rng = np.random.default_rng(42)
    pose = _rand_pose(rng)
    rot, t = pose.rotation, pose.translation
    n = 40
    cam = np.column_stack([rng.uniform(-0.2, 0.2, (n, 2)), rng.uniform(0.5, 1.5, n)])
    cam[:3, 2] = -0.3  # behind the camera: the NEAR_EPS depth clamp is active
    obj = (cam - t) @ rot
    scale = rng.uniform(0.5, 2.0, n)
    if family == "metric":
        target = cam + rng.normal(0, 0.01, (n, 3))

        def fn(r, tr, jac=False):
            return _metric_residuals(obj, target, scale, r, tr, jac)
    else:
        target = rng.uniform(0.0, 640.0, (n, 2))

        def fn(r, tr, jac=False):
            return _pixel_residuals(obj, target, scale, r, tr, K, jac)

    res, jac = fn(rot, t, True)
    np.testing.assert_array_equal(res, fn(rot, t))
    num = _central_jacobian(fn, rot, t)
    rel = np.abs(jac - num).max(axis=1) / np.abs(jac).max(axis=1)
    assert rel.max() < 1e-6


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

    def test_weight_rules(self):
        obj = np.random.default_rng(0).normal(size=(4, 3))
        with pytest.raises(ValueError):
            CorrSet(obj, obj, weights=np.array([1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            CorrSet(obj, obj, weights=np.zeros(4))
