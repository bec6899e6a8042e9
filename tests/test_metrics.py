import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.spatial import cKDTree

from anchorpose import metrics
from anchorpose.geom import Pose
from anchorpose.mesh import ObjectModel
from anchorpose.metrics import (
    EmptyInput,
    EvalRecord,
    ZeroDiameter,
    add_01d,
    add_auc,
    add_metric,
    adds_metric,
    deg_cm,
    evaluate_batch,
    format_summary_table,
    write_summary_csv,
)
from anchorpose.synth import make_model
from conftest import random_rotation_aa, rodrigues

CUBE = ObjectModel("cube", np.array(
    [[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)]
))


def _record(add=0.0, add_s=0.0, rot=0.0, trans=0.0, diameter=0.2, symmetric=False,
            obj="o"):
    return EvalRecord(obj, add, add_s, rot, trans, diameter, symmetric)


class TestAdd:
    def test_identical_poses(self):
        pose = Pose.identity()
        assert add_metric(CUBE, pose, pose) == 0.0

    def test_pure_translation_exact(self):
        pred = Pose(np.eye(3), [0.02, 0.0, 0.0])
        assert add_metric(CUBE, pred, Pose.identity()) == pytest.approx(0.02, abs=1e-15)

    def test_cube_rotation_brute_force(self):
        rot90 = rodrigues([0.0, 0.0, 1.0], np.pi / 2)
        pred, gt = Pose(rot90, np.zeros(3)), Pose.identity()
        brute = np.mean([
            np.linalg.norm(rot90 @ p - p) for p in CUBE.points
        ])
        assert add_metric(CUBE, pred, gt) == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-6, 1e-2, 1.0, 1e3])
    def test_row_norms_equal_linalg_norm(self, scale):
        d = np.random.default_rng(1).normal(size=(50_000, 3)) * scale
        assert metrics._row_norms(d).tobytes() == np.linalg.norm(d, axis=1).tobytes()

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = Pose(random_rotation_aa(rng), rng.normal(size=3))
            b = Pose(random_rotation_aa(rng), rng.normal(size=3))
            assert add_metric(CUBE, a, b) == pytest.approx(
                add_metric(CUBE, b, a), rel=1e-12)


class TestAddS:
    def test_identical_poses(self):
        assert adds_metric(CUBE, Pose.identity(), Pose.identity()) == 0.0

    def test_cube_symmetry_rotation_is_zero(self):
        # 90-degree z rotation maps the corner set onto itself
        pred = Pose(rodrigues([0.0, 0.0, 1.0], np.pi / 2), np.zeros(3))
        assert adds_metric(CUBE, pred, Pose.identity()) < 1e-12

    def test_never_exceeds_add(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a = Pose(random_rotation_aa(rng), rng.normal(size=3) * 0.1)
            b = Pose(random_rotation_aa(rng), rng.normal(size=3) * 0.1)
            assert adds_metric(CUBE, a, b) <= add_metric(CUBE, a, b) + 1e-12

    def test_not_symmetric_counterexample(self):
        # scan seeded configurations: closest-point matching is directional,
        # so some pose/cloud pair must show a large argument-order gap
        rng = np.random.default_rng(0)
        max_gap = 0.0
        for _ in range(200):
            model = ObjectModel("asym", rng.normal(size=(6, 3)) * 0.1)
            pred = Pose(random_rotation_aa(rng), rng.normal(size=3) * 0.05)
            ab = adds_metric(model, pred, Pose.identity())
            ba = adds_metric(model, Pose.identity(), pred)
            max_gap = max(max_gap, abs(ab - ba) / max(ab, ba))
        assert max_gap > 0.1

    def test_kdtree_matches_exact(self):
        rng = np.random.default_rng(2)
        model = ObjectModel("r", rng.normal(size=(300, 3)) * 0.05)
        for _ in range(100):
            a = Pose(random_rotation_aa(rng), rng.normal(size=3) * 0.05)
            b = Pose(random_rotation_aa(rng), rng.normal(size=3) * 0.05)
            exact = adds_metric(model, a, b, method="exact")
            fast = adds_metric(model, a, b, method="kdtree")
            assert fast == pytest.approx(exact, abs=1e-12)


class TestAddSModelFrameTree:
    """The default search path against the exact scan."""

    MODEL = ObjectModel("r", np.random.default_rng(5).normal(size=(900, 3)) * 0.05)
    DUPLICATED = ObjectModel("d", np.repeat(MODEL.points[:400], 2, axis=0))

    @staticmethod
    def _assert_matches_exact(model, pairs):
        for pred, gt in pairs:
            fast = adds_metric(model, pred, gt)
            assert np.isfinite(fast)
            assert abs(fast - adds_metric(model, pred, gt, method="exact")) <= 1e-12

    @staticmethod
    def _pairs(rng, deg_lo, deg_hi, trans_sigma, count=12):
        pairs = []
        for _ in range(count):
            gt = Pose(random_rotation_aa(rng), rng.normal(size=3) * 0.1 + [0, 0, 1])
            err = rodrigues(rng.normal(size=3), np.radians(rng.uniform(deg_lo, deg_hi)))
            pred = Pose(err @ gt.rotation, gt.translation + rng.normal(size=3) * trans_sigma)
            pairs.append((pred, gt))
        return pairs

    def test_near_identity_poses(self):
        rng = np.random.default_rng(6)
        self._assert_matches_exact(self.MODEL, self._pairs(rng, 0.0, 0.5, 1e-4))

    def test_large_rotation_errors(self):
        rng = np.random.default_rng(7)
        self._assert_matches_exact(self.MODEL, self._pairs(rng, 90.0, 180.0, 0.02))

    def test_pred_equal_gt_is_zero(self):
        # the identity maps every point exactly onto its partner: a zero
        # paired-distance bound
        rng = np.random.default_rng(8)
        poses = [Pose.identity()] + [Pose(random_rotation_aa(rng), rng.normal(size=3))
                                     for _ in range(5)]
        for gt in poses:
            assert adds_metric(self.MODEL, gt, gt) == 0.0
            assert adds_metric(self.MODEL, gt, gt, method="kdtree") == 0.0

    def test_symmetric_model(self):
        # a cylinder turned about its axis (z): many near-ties between partners
        model = make_model("cylinder", 2000, 0.1, 0)
        assert model.symmetric
        rng = np.random.default_rng(9)
        pairs = []
        for angle in (0.3, 1.0, np.pi / 2, 2.5):
            gt = Pose(random_rotation_aa(rng), [0.0, 0.0, 1.0])
            pred = Pose(gt.rotation @ rodrigues([0.0, 0.0, 1.0], angle), gt.translation)
            pairs.append((pred, gt))
        pairs += self._pairs(rng, 0.0, 2.0, 1e-3, count=4)
        self._assert_matches_exact(model, pairs)

    @staticmethod
    def _error_pose(seed, log_angle, log_shift):
        rng = np.random.default_rng(seed)
        gt = Pose(random_rotation_aa(rng), rng.normal(size=3) * 0.1 + [0, 0, 1])
        err = rodrigues(rng.normal(size=3), 10.0 ** log_angle)
        return Pose(err @ gt.rotation,
                    gt.translation + rng.normal(size=3) * 10.0 ** log_shift), gt

    # Both paths average the same per-point distances the same way, so they
    # agree bit for bit.
    @given(seed=st.integers(0, 2**32 - 1), log_angle=st.floats(-9.0, 0.5),
           log_shift=st.floats(-9.0, -1.0))
    @example(seed=0, log_angle=-9.0, log_shift=-9.0)  # every point keeps its own partner
    @example(seed=0, log_angle=0.5, log_shift=-1.0)  # no point does
    @settings(max_examples=30, deadline=None)
    def test_kdtree_equals_exact_bit_for_bit(self, seed, log_angle, log_shift):
        pred, gt = self._error_pose(seed, log_angle, log_shift)
        for model in (self.MODEL, self.DUPLICATED):
            assert (adds_metric(model, pred, gt, method="kdtree")
                    == adds_metric(model, pred, gt, method="exact"))

    def test_pose_errors_span_own_partner_shortcut(self):
        # the property's two examples: the paired distance is below half the
        # nearest-point gap everywhere, then nowhere
        for (log_angle, log_shift), share in [((-9.0, -9.0), 1.0), ((0.5, -1.0), 0.0)]:
            pred, gt = self._error_pose(0, log_angle, log_shift)
            q = (pred.apply(self.MODEL.points) - gt.translation) @ gt.rotation
            d = np.linalg.norm(q - self.MODEL.points, axis=1)
            assert np.mean(d < self.MODEL.half_gap) == share

    def test_duplicated_points_have_zero_gap(self):
        assert not self.DUPLICATED.half_gap.any()

    def test_two_point_model(self):
        model = ObjectModel("two", [[0.0, 0.0, 0.0], [0.03, 0.04, 0.0]])
        np.testing.assert_array_equal(model.half_gap, [0.025, 0.025])
        for seed, log_angle in enumerate((-6.0, -1.0, 0.5)):
            pred, gt = self._error_pose(seed, log_angle, -2.0)
            assert (adds_metric(model, pred, gt, method="kdtree")
                    == adds_metric(model, pred, gt, method="exact"))

    def test_neighbour_rows_built_once(self):
        model = ObjectModel("t", np.random.default_rng(10).normal(size=(600, 3)))
        rows, reach = model.neighbours
        adds_metric(model, Pose.identity(), Pose(np.eye(3), [0.01, 0.0, 0.0]))
        assert model.neighbours[0] is rows and model.neighbours[1] is reach
        assert not rows.flags.writeable and not reach.flags.writeable


def _brute_neighbours(points, k):
    """Sorted squared distances from each point to every other point, as
    the search computes them, ((dx^2 + dy^2) + dz^2)."""
    e = (points[None, :, :] - points[:, None, :]) ** 2
    d2 = (e[..., 0] + e[..., 1]) + e[..., 2]
    np.fill_diagonal(d2, np.inf)
    return np.sort(d2, axis=1)[:, :k], d2


class TestNeighbourRows:
    """``ObjectModel.neighbours`` and ``half_gap`` against brute force and
    scipy's kd tree."""

    @pytest.mark.parametrize("n, seed, dup", [
        (1, 0, False), (2, 0, False), (9, 1, False), (17, 2, False), (18, 3, False),
        (300, 4, False), (900, 5, False), (900, 6, True), (1200, 7, False)])
    def test_rows_are_the_k_nearest(self, n, seed, dup):
        pts = np.random.default_rng(seed).normal(size=(n, 3)) * 0.05
        if dup:
            pts = np.repeat(pts[: n // 3], 3, axis=0)
        model = ObjectModel("r", pts)
        rows, reach = model.neighbours
        k = min(16, len(pts) - 1)
        assert rows.shape == (1 + k, len(pts))
        np.testing.assert_array_equal(rows[0], np.arange(len(pts)))
        want, d2 = _brute_neighbours(model.points, k)
        got = np.take_along_axis(d2, rows[1:].T, axis=1)
        np.testing.assert_array_equal(got, want)  # the k nearest, nearest first
        assert (rows[1:] != rows[0]).all()
        if k < len(pts) - 1:
            np.testing.assert_array_equal(reach, np.sqrt(want[:, -1]))
        else:
            assert np.isinf(reach).all()

    @pytest.mark.parametrize("shape", ["blob", "cube", "cylinder", "icosphere"])
    def test_half_gap_matches_kdtree_query(self, shape):
        # the cKDTree k=2 query that half_gap came from, bit for bit
        model = make_model(shape, 2500, 0.12, 7)
        d, _ = cKDTree(model.points).query(model.points, k=2)
        np.testing.assert_array_equal(model.half_gap, 0.5 * d[:, 1])
        # the rows hold the 16 nearest; which of a tie is kept may differ
        d, _ = cKDTree(model.points).query(model.points, k=17)
        rows, reach = model.neighbours
        e = (model.points[rows[1:]] - model.points) ** 2
        np.testing.assert_array_equal(np.sqrt((e[..., 0] + e[..., 1]) + e[..., 2]).T, d[:, 1:])
        np.testing.assert_array_equal(reach, d[:, -1])

    def test_nearest_walk_matches_brute_force(self):
        rng = np.random.default_rng(11)
        model = ObjectModel("w", rng.normal(size=(2000, 3)) * 0.05)
        q = rng.normal(size=(400, 3)) * 0.06
        e = (model.points[None, :, :] - q[:, None, :]) ** 2
        d2 = (e[..., 0] + e[..., 1]) + e[..., 2]
        want = d2.argmin(axis=1)
        # any bound at or above the nearest point's distance gives the same answer
        for bound2 in (d2.min(axis=1), d2[np.arange(len(q)), rng.integers(0, 2000, len(q))],
                       np.full(len(q), np.inf)):
            np.testing.assert_array_equal(model.nearest(q, bound2), want)


class TestAddSNeighbourSearch:
    """Each step of the default ADD-S search (own-partner shortcut, neighbour
    rows, kd walk) fires on the 2500-point README blob and on a model whose
    points all repeat, and the result equals the exact scan's."""

    BLOB = make_model("blob", 2500, 0.12, 7)
    DUPLICATED = ObjectModel("d", np.repeat(BLOB.points[:1250], 2, axis=0))
    GT = Pose(rodrigues([0.3, -0.5, 0.8], 0.7), [0.02, -0.01, 0.9])

    @staticmethod
    def _steps(monkeypatch, model, pred, gt):
        """ADD-S and the number of points each step settled: the own-partner
        shortcut, the neighbour rows and the kd walk."""
        scored, walked = [], []
        score, nearest = metrics.sq_dists_to, ObjectModel.nearest

        def spy_score(points, ids, q):
            scored.append(ids.shape[1])
            return score(points, ids, q)

        def spy_nearest(self, q, bound2):
            walked.append(len(q))
            return nearest(self, q, bound2)

        with monkeypatch.context() as m:
            m.setattr(metrics, "sq_dists_to", spy_score)
            m.setattr(ObjectModel, "nearest", spy_nearest)
            value = adds_metric(model, pred, gt)
        rows = sum(scored)
        return value, (len(model.points) - rows, rows - sum(walked), sum(walked))

    # (model, error angle in rad, x shift in m, which steps settle points)
    @pytest.mark.parametrize("name, angle, shift, fires", [
        ("BLOB", 1e-7, 0.0, (True, False, False)),
        ("BLOB", 0.05, 0.0, (True, True, False)),
        ("BLOB", 0.1, 0.003, (True, True, True)),
        ("BLOB", 0.4, 0.0, (True, True, True)),
        ("DUPLICATED", 1e-7, 0.0, (False, True, False)),
        ("DUPLICATED", 0.1, 0.003, (False, True, True)),
    ])
    def test_steps_fire_and_match_exact(self, monkeypatch, name, angle, shift, fires):
        model = getattr(self, name)
        pred = Pose(rodrigues([1.0, 2.0, -0.5], angle) @ self.GT.rotation,
                    self.GT.translation + [shift, 0.0, 0.0])
        value, steps = self._steps(monkeypatch, model, pred, self.GT)
        assert tuple(count > 0 for count in steps) == fires
        assert value == adds_metric(model, pred, self.GT, method="exact")


class TestAuc:
    def test_all_zero(self):
        assert add_auc([0.0, 0.0, 0.0]) == 1.0

    def test_all_beyond_threshold(self):
        assert add_auc([0.1, 0.5, 2.0], max_threshold=0.1) == 0.0

    def test_single_half_distance(self):
        assert add_auc([0.05], max_threshold=0.10) == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_mixture(self):
        # 0 contributes 1.0, 0.025 contributes 0.75, 0.2 contributes 0
        val = add_auc([0.0, 0.025, 0.2], max_threshold=0.10)
        assert val == pytest.approx((1.0 + 0.75 + 0.0) / 3.0, abs=1e-12)

    def test_monotone_in_each_distance(self):
        d = [0.01, 0.04, 0.07]
        base = add_auc(d)
        for i in range(3):
            worse = list(d)
            worse[i] += 0.01
            assert add_auc(worse) <= base

    @given(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=30), st.randoms())
    @settings(max_examples=50)
    def test_permutation_invariance(self, distances, pyrandom):
        shuffled = list(distances)
        pyrandom.shuffle(shuffled)
        assert add_auc(shuffled) == pytest.approx(add_auc(distances), abs=1e-15)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            add_auc([])


class TestThresholds:
    def test_perfect_pose(self):
        rec = _record()
        assert add_01d(rec) and deg_cm(rec)

    def test_boundary_is_strict(self):
        boundary = 0.1 * 0.2  # the exact float the comparison computes
        rec = _record(add=boundary, add_s=boundary, diameter=0.2)
        assert not add_01d(rec)
        assert not deg_cm(_record(rot=10.0))
        assert not deg_cm(_record(trans=0.10))

    def test_symmetric_dispatch(self):
        rec = _record(add=1.0, add_s=1e-6, diameter=0.2, symmetric=True)
        assert add_01d(rec)
        rec = _record(add=1.0, add_s=1e-6, diameter=0.2, symmetric=False)
        assert not add_01d(rec)

    def test_zero_diameter(self):
        with pytest.raises(ZeroDiameter):
            add_01d(_record(diameter=0.0))

    def test_record_invariant(self):
        with pytest.raises(ValueError):
            EvalRecord("o", 0.1, 0.2, 0.0, 0.0, 0.2, False)  # add_s > add

    @pytest.mark.parametrize("add_s", [-1e-3, float("nan")])
    def test_record_rejects_negative_or_nan_add_s(self, add_s):
        with pytest.raises(ValueError):
            EvalRecord("o", 0.1, add_s, 0.0, 0.0, 0.2, False)

    def test_only_an_asymmetric_record_may_omit_add_s(self):
        rec = EvalRecord("o", 0.1, None, 0.0, 0.0, 0.2, False)
        assert add_01d(rec) is False  # reads add alone
        with pytest.raises(ValueError):
            EvalRecord("o", 0.1, None, 0.0, 0.0, 0.2, True)


class TestEvaluateBatch:
    def test_records_without_add_s_leave_only_its_auc_unset(self, tmp_path):
        full = [_record(add=0.02 * i, add_s=0.01 * i, rot=5.0 * i, obj=o)
                for i in range(4) for o in ("a", "b")]
        rows = evaluate_batch(full)
        bare = [EvalRecord(r.object_id, r.add, None if r.object_id == "a" else r.add_s,
                           r.rot_deg, r.trans_m, r.diameter, r.symmetric) for r in full]
        got = evaluate_batch(bare)
        assert [r["add_s_auc"] for r in got] == [None, rows[1]["add_s_auc"], None]
        for row, ref in zip(got, rows):
            assert {c: v for c, v in row.items() if c != "add_s_auc"} == \
                {c: v for c, v in ref.items() if c != "add_s_auc"}
        with pytest.raises(TypeError):  # no made-up ADD-S AUC reaches a file
            write_summary_csv(got, tmp_path / "summary.csv")
        assert not (tmp_path / "summary.csv").exists()

    def test_single_object_perfect(self):
        rows = evaluate_batch([_record() for _ in range(5)])
        per, avg = rows
        assert per["add_s_auc"] == 1.0
        assert per["adds_auc_mixed"] == 1.0
        assert per["add01d_pct"] == 100.0
        assert per["deg10cm10_pct"] == 100.0
        assert avg["object_id"] == "avg(1)"

    def test_unweighted_object_average(self):
        good = [_record(obj="a") for _ in range(9)]
        bad = [_record(obj="b", add=1.0, add_s=1.0, rot=90.0, trans=1.0)]
        rows = evaluate_batch(good + bad)
        avg = rows[-1]
        assert avg["add01d_pct"] == pytest.approx(50.0)
        assert avg["deg10cm10_pct"] == pytest.approx(50.0)

    def test_independent_recomputation(self):
        rng = np.random.default_rng(3)
        records = [
            _record(add=float(a), add_s=float(min(a, s)), rot=float(r),
                    trans=float(t), obj="x")
            for a, s, r, t in rng.uniform(0, 0.3, (50, 4))
        ]
        row = evaluate_batch(records)[0]
        dists = [r.add for r in records]  # non-symmetric -> add
        acc = np.mean([d < 0.1 * 0.2 for d in dists]) * 100
        auc = np.mean([max(0.0, (0.1 - min(d, 0.1)) / 0.1) for d in dists])
        assert row["add01d_pct"] == pytest.approx(acc, abs=1e-12)
        assert row["adds_auc_mixed"] == pytest.approx(auc, abs=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            evaluate_batch([])

    def test_csv_and_table(self, tmp_path):
        rows = evaluate_batch([_record()])
        write_summary_csv(rows, tmp_path / "summary.csv")
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == "object_id,add_s_auc,adds_auc_mixed,add01d_pct,deg10cm10_pct"
        assert len(lines) == 3
        table = format_summary_table(rows)
        assert "avg(1)" in table
