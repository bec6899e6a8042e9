import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from anchorpose.camera_crop import Roi
from anchorpose.geom import Intrinsics, Pose
from anchorpose.mesh import ObjectModel
from anchorpose.synth import (
    BinUnfillable,
    Occluder,
    ObjectOutOfView,
    SceneConfig,
    load_scene,
    make_benchmark,
    make_model,
    random_pose,
    random_rotation,
    render,
    save_scene,
    tight_roi,
)
from conftest import TEST_K, small_config


class TestMakeModel:
    def test_cube_diameter(self):
        m = make_model("cube", 600, 0.1, 0)
        assert m.diameter == pytest.approx(0.1 * math.sqrt(3), abs=1e-9)
        assert m.symmetric

    def test_icosphere_radius(self):
        m = make_model("icosphere", 2000, 0.1, 0)
        r = np.linalg.norm(m.points - m.points.mean(axis=0), axis=1)
        assert np.abs(r - 0.05).max() < 1e-9

    def test_deterministic_bitwise(self):
        a = make_model("blob", 1500, 0.12, 42)
        b = make_model("blob", 1500, 0.12, 42)
        assert np.array_equal(a.points, b.points)

    def test_blob_depends_on_seed_and_asymmetric(self):
        a = make_model("blob", 1500, 0.12, 1)
        b = make_model("blob", 1500, 0.12, 2)
        assert not np.array_equal(a.points, b.points)
        assert not a.symmetric
        # mirroring the blob does not map it onto itself
        mirrored = a.points * np.array([-1.0, 1.0, 1.0])
        d, _ = cKDTree(a.points).query(mirrored)
        assert d.max() > 1e-4

    def test_point_budget(self):
        for shape in ("cube", "cylinder", "icosphere", "blob"):
            assert len(make_model(shape, 3000, 0.1, 3).points) >= 3000

    def test_min_points(self):
        with pytest.raises(ValueError):
            make_model("cube", 3, 0.1, 0)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            make_model("torus", 100, 0.1, 0)


class TestRender:
    def test_single_point_at_principal_ray(self):
        model = ObjectModel("pt", [[0.0, 0.0, 0.0]])
        cfg = small_config(0)
        scene = render(model, Pose(np.eye(3), [0.0, 0.0, 1.0]), cfg)
        ys, xs = np.nonzero(scene.depth.data > 0)
        assert len(ys) == 1
        assert (xs[0], ys[0]) == (TEST_K.cx, TEST_K.cy)
        assert scene.depth.data[ys[0], xs[0]] == 1.0
        assert scene.vis_mask[ys[0], xs[0]]
        assert scene.visible_fraction == 1.0

    def test_half_occluder_fraction(self):
        model = make_model("icosphere", 4000, 0.12, 0)
        cfg = small_config(1)
        pose = Pose(np.eye(3), [0.0, 0.0, 0.9])
        # left half of the image occluded at 0.5 m
        occ = [Occluder(-1.0, -1.0, cfg.width / 2.0, cfg.height + 1.0, 0.5)]
        scene = render(model, pose, cfg, occluders=occ)
        assert abs(scene.visible_fraction - 0.5) < 0.1

    def test_vis_pixels_near_surface(self):
        # sigma=0: every visible pixel backprojects close to the posed model
        model = make_model("blob", 2500, 0.12, 3)
        cfg = small_config(2)
        pose = random_pose(np.random.default_rng(5), cfg)
        scene = render(model, pose, cfg)
        ys, xs = np.nonzero(scene.vis_mask)
        z = scene.depth.data[ys, xs]
        pts = np.column_stack([
            (xs - TEST_K.cx) * z / TEST_K.fx,
            (ys - TEST_K.cy) * z / TEST_K.fy,
            z,
        ])
        d, _ = cKDTree(pose.apply(model.points)).query(pts)
        footprint = 2.0 * z.max() * math.sqrt(2) / TEST_K.fx
        assert d.max() <= footprint

    def test_zbuffer_brute_force(self):
        model = make_model("cube", 600, 0.1, 0)
        cfg = small_config(3)
        pose = random_pose(np.random.default_rng(8), cfg)
        scene = render(model, pose, cfg)
        cam = pose.apply(model.points)
        u = TEST_K.fx * cam[:, 0] / cam[:, 2] + TEST_K.cx
        v = TEST_K.fy * cam[:, 1] / cam[:, 2] + TEST_K.cy
        px, py = np.floor(u + 0.5).astype(int), np.floor(v + 0.5).astype(int)
        ys, xs = np.nonzero(scene.vis_mask)
        for y, x in list(zip(ys, xs))[:200]:
            here = (px == x) & (py == y)
            assert here.any()
            assert scene.depth.data[y, x] == cam[here, 2].min()

    def test_depth_noise_clamped_positive(self):
        model = make_model("cube", 600, 0.1, 0)
        cfg = small_config(4, depth_sigma=0.05)
        scene = render(model, Pose(np.eye(3), [0.0, 0.0, 0.8]), cfg)
        assert scene.depth.data[scene.vis_mask].min() > 0

    def test_render_deterministic(self):
        model = make_model("blob", 1500, 0.12, 3)
        cfg = small_config(5, occluded=True, depth_sigma=0.002)
        pose = random_pose(np.random.default_rng(6), cfg)
        a = render(model, pose, cfg)
        b = render(model, pose, cfg)
        assert np.array_equal(a.depth.data, b.depth.data)
        assert np.array_equal(a.vis_mask, b.vis_mask)

    def test_object_out_of_view(self):
        model = ObjectModel("pt", [[0.0, 0.0, 0.0]])
        with pytest.raises(ObjectOutOfView):
            render(model, Pose(np.eye(3), [0.0, 0.0, -1.0]), small_config(0))


class TestBenchmark:
    def test_unoccluded_level_exact(self):
        model = make_model("blob", 1500, 0.12, 3)
        scenes = make_benchmark(model, small_config(9), 6, [1.0])
        assert len(scenes) == 6
        assert all(s.visible_fraction == 1.0 for s in scenes)

    def test_seed_stability(self):
        model = make_model("blob", 1500, 0.12, 3)
        a = make_benchmark(model, small_config(10, occluded=True), 4, [0.6])
        b = make_benchmark(model, small_config(10, occluded=True), 4, [0.6])
        for s, t in zip(a, b):
            assert np.array_equal(s.depth.data, t.depth.data)
            assert s.gt_pose.to_json() == t.gt_pose.to_json()

    def test_occlusion_levels_achievable(self):
        model = make_model("blob", 2500, 0.12, 3)
        levels = [0.9, 0.5, 0.2]
        scenes = make_benchmark(model, small_config(11, occluded=True), 9, levels)
        assert len(scenes) == 9
        for i, level in enumerate(np.repeat(levels, 3)):
            assert abs(scenes[i].visible_fraction - level) <= 0.1

    def test_unfillable_bin(self):
        # no occluders configured but a heavy-occlusion target requested
        model = make_model("blob", 1500, 0.12, 3)
        with pytest.raises(BinUnfillable):
            make_benchmark(model, small_config(12), 1, [0.2])

    def test_rotation_sampler_uniformity_sanity(self):
        rng = np.random.default_rng(0)
        rots = [random_rotation(rng) for _ in range(500)]
        for r in rots[:50]:
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
        # column-z directions should average out near zero for a uniform sample
        mean_dir = np.mean([r[:, 2] for r in rots], axis=0)
        assert np.linalg.norm(mean_dir) < 0.15


class TestSceneIo:
    def test_round_trip(self, tmp_path):
        model = make_model("blob", 1500, 0.12, 3)
        cfg = small_config(13, occluded=True)
        scenes = make_benchmark(model, cfg, 1, [0.8])
        save_scene(scenes[0], tmp_path / "s0.npz")
        back = load_scene(tmp_path / "s0.npz")
        assert back.object_id == scenes[0].object_id
        assert back.gt_pose.to_json() == scenes[0].gt_pose.to_json()
        assert back.intrinsics == scenes[0].intrinsics
        assert back.visible_fraction == scenes[0].visible_fraction
        assert np.array_equal(back.vis_mask, scenes[0].vis_mask)
        assert back.depth.data.dtype == np.float64
        assert np.array_equal(back.depth.data, scenes[0].depth.data)

    def test_tight_roi_square_around_mask(self):
        model = make_model("blob", 2500, 0.12, 3)
        cfg = small_config(14)
        scene = render(model, random_pose(np.random.default_rng(2), cfg), cfg)
        roi = tight_roi(scene, 64)
        ys, xs = np.nonzero(scene.vis_mask)
        assert roi.size_u == roi.size_v
        assert roi.size_u == max(xs.max() - xs.min() + 1, ys.max() - ys.min() + 1)
        assert roi.center_u == (xs.min() + xs.max()) / 2.0


def _nonzero_roi(mask, out_res):
    """Full-frame np.nonzero reference for tight_roi."""
    vs, us = np.nonzero(mask)
    side = float(max(us.max() - us.min() + 1, vs.max() - vs.min() + 1))
    return Roi((float(us.min()) + float(us.max())) / 2.0,
               (float(vs.min()) + float(vs.max())) / 2.0, side, side, out_res)


def _masks():
    rng = np.random.default_rng(11)
    for _ in range(40):
        h, w = rng.integers(1, 40, 2)
        mask = rng.random((h, w)) < rng.uniform(0.001, 0.5)
        if mask.any():
            yield mask
    for h, w, v, u in [(1, 1, 0, 0), (9, 7, 4, 3), (9, 7, 0, 0), (9, 7, 8, 6), (9, 7, 0, 6)]:
        mask = np.zeros((h, w), dtype=bool)
        mask[v, u] = True  # single pixel, also on corners
        yield mask
    edges = np.zeros((12, 20), dtype=bool)
    edges[0, 5], edges[11, 7], edges[3, 0], edges[4, 19] = True, True, True, True
    yield edges
    yield np.ones((5, 8), dtype=bool)


def test_tight_roi_matches_nonzero_reference():
    for i, mask in enumerate(_masks()):
        assert tight_roi(SimpleNamespace(vis_mask=mask), 32) == _nonzero_roi(mask, 32), i


def test_tight_roi_empty_mask_out_of_view():
    with pytest.raises(ObjectOutOfView):
        tight_roi(SimpleNamespace(vis_mask=np.zeros((6, 9), dtype=bool)), 32)


def test_scene_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(seed=0, depth_range=(2.0, 1.0))
    with pytest.raises(TypeError):
        SceneConfig()  # seed is mandatory
