import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from anchorpose.camera_crop import Roi
from anchorpose.geom import Intrinsics, Pose
from anchorpose.mesh import ObjectModel
from anchorpose import synth
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


def _icosphere_dirs_loop(n_points):
    """The per-vertex loop that ``_icosphere_dirs`` vectorizes, as an oracle."""
    verts, faces = synth._icosahedron()
    f = max(1, math.ceil(math.sqrt(max(n_points - 2, 1) / 10.0)))
    pts = []
    for tri in faces:
        a, b, c = verts[tri]
        for i in range(f + 1):
            for j in range(f + 1 - i):
                k = f - i - j
                pts.append((i * a + j * b + k * c) / f)
    pts = synth._dedupe(np.asarray(pts))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


@pytest.mark.parametrize("n_points", [4, 12, 50, 642, 2500, 10000, 26000])
def test_icosphere_dirs_equal_the_loop(n_points):
    assert synth._icosphere_dirs(n_points).tobytes() == _icosphere_dirs_loop(n_points).tobytes()


# sha256 of make_model(shape, n, 0.12, 7).points, pinned from the code that
# built icosphere vertices one at a time in a Python loop.
PINNED_MODELS = {
    "cube/4": "e8418f2ea4ac1fe42f17d4beceaaaeb39cb0bdbfc68bb1b828bd7fa44512ed2d",
    "cube/50": "3aa13277787ae1f18c4b0749bbaca1ec81584c4851ca7188f801904b1887c707",
    "cube/642": "7d25645dbd535631b7fd1a4fc70357af42fa979350cd51914fb9db9760ea0eeb",
    "cube/2500": "4d8d536780a616b30e3446be3abbafe849583ee9e371f437945edc57a71f60bb",
    "cube/10000": "2d041ee15dbf45a54d42bb91c3767a93c0dd65f3fc4872b2e3ff66c65b2ab701",
    "cylinder/4": "b783575f09845d96b3caca25a39284f5efe4532d3091566bda8b9965f908e147",
    "cylinder/50": "8958072fe7e0ac2b7b55546a775d068c83c44ccc46852a43c0358175eec2ff89",
    "cylinder/642": "f205d1281b144260e8de266191aa56b36c4c3c0ae98bf24e18ab0b21b11d5a4d",
    "cylinder/2500": "a981a89dbdb30e3d34361fa3df844c8ab818a55e16237308e9e12bcf07a10bec",
    "cylinder/10000": "d6093d4b291abd08b120166290613ae5f515cd5064841d6f7c041dff7de7da0f",
    "icosphere/4": "2ddafe77f0d673f0bd36235253bbb68aa3fbd8f5b063175182ed7e4544e53d74",
    "icosphere/50": "c90c076fa56b9b8de7b0ac1fc5b78a3a3c665ca977e4786875428060755350e4",
    "icosphere/642": "ae881e00a94922e128f1fcb41b33e695182f315a8963a113b291f0d3bd7c0038",
    "icosphere/2500": "afbfd46ff846360bb455691b3fca130d5f161a6e7818695acf4edb799ca7e1b6",
    "icosphere/10000": "d9e5ea159b6a7dcadb9cb6c7ac224fd5c6721fed98b53b247dff4c11cc053b16",
    "blob/4": "506272530e3d4695f1c4bf0e95b944a8f29d18fe1f18cdec828aa040edac03e9",
    "blob/50": "0bc71316ab15b7e77d887fd54ac6b3d563a7c9182ec99ecc0a467b25fe95c2f1",
    "blob/642": "cf596dfa9438519db0a29088ae67089279ace1394a2f8c7221b3b5570694b3ad",
    "blob/2500": "249c33940b5818efbb63341b80bcddd5558291ff95434449ca623e2d0dbfd762",
    "blob/10000": "eb281bde3381d2b8ea2be1ac8cf0d9df90d80d8e68be91632d9a97e62a59ce0f",
}


@pytest.mark.parametrize("case", sorted(PINNED_MODELS))
def test_model_bytes_are_pinned(case):
    shape, n = case.split("/")
    points = make_model(shape, int(n), 0.12, 7).points
    assert hashlib.sha256(points.tobytes()).hexdigest() == PINNED_MODELS[case]


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
