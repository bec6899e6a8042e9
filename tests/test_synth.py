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
    SceneSample,
    _render,
    load_scene,
    lookup_pixels,
    make_benchmark,
    make_model,
    random_pose,
    random_rotation,
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


def _dense(scene):
    """The scene's (height, width) depth and visibility images."""
    depth = np.zeros(scene.height * scene.width)
    depth[scene.pixels] = scene.depth
    vis = np.zeros(scene.height * scene.width, dtype=bool)
    vis[scene.pixels] = scene.visible
    return depth.reshape(scene.height, scene.width), vis.reshape(scene.height, scene.width)


class TestRender:
    def test_single_point_at_principal_ray(self):
        model = ObjectModel("pt", [[0.0, 0.0, 0.0]])
        cfg = small_config(0)
        scene = _render(model, Pose(np.eye(3), [0.0, 0.0, 1.0]), cfg)
        depth, vis_mask = _dense(scene)
        ys, xs = np.nonzero(depth > 0)
        assert len(ys) == 1
        assert (xs[0], ys[0]) == (TEST_K.cx, TEST_K.cy)
        assert depth[ys[0], xs[0]] == 1.0
        assert vis_mask[ys[0], xs[0]]
        assert scene.visible_fraction == 1.0

    def test_half_occluder_fraction(self):
        model = make_model("icosphere", 4000, 0.12, 0)
        cfg = small_config(1)
        pose = Pose(np.eye(3), [0.0, 0.0, 0.9])
        # left half of the image occluded at 0.5 m
        occ = [Occluder(-1.0, -1.0, cfg.width / 2.0, cfg.height + 1.0, 0.5)]
        scene = _render(model, pose, cfg, occluders=occ)
        assert abs(scene.visible_fraction - 0.5) < 0.1

    def test_vis_pixels_near_surface(self):
        # sigma=0: every visible pixel backprojects close to the posed model
        model = make_model("blob", 2500, 0.12, 3)
        cfg = small_config(2)
        pose = random_pose(np.random.default_rng(5), cfg)
        depth, vis_mask = _dense(_render(model, pose, cfg))
        ys, xs = np.nonzero(vis_mask)
        z = depth[ys, xs]
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
        depth, vis_mask = _dense(_render(model, pose, cfg))
        cam = pose.apply(model.points)
        u = TEST_K.fx * cam[:, 0] / cam[:, 2] + TEST_K.cx
        v = TEST_K.fy * cam[:, 1] / cam[:, 2] + TEST_K.cy
        px, py = np.floor(u + 0.5).astype(int), np.floor(v + 0.5).astype(int)
        ys, xs = np.nonzero(vis_mask)
        for y, x in list(zip(ys, xs))[:200]:
            here = (px == x) & (py == y)
            assert here.any()
            assert depth[y, x] == cam[here, 2].min()

    def test_depth_noise_clamped_positive(self):
        model = make_model("cube", 600, 0.1, 0)
        cfg = small_config(4, depth_sigma=0.05)
        depth, vis_mask = _dense(_render(model, Pose(np.eye(3), [0.0, 0.0, 0.8]), cfg))
        assert depth[vis_mask].min() > 0

    def test_render_deterministic(self):
        model = make_model("blob", 1500, 0.12, 3)
        cfg = small_config(5, occluded=True, depth_sigma=0.002)
        pose = random_pose(np.random.default_rng(6), cfg)
        a = _dense(_render(model, pose, cfg))
        b = _dense(_render(model, pose, cfg))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_object_out_of_view(self):
        model = ObjectModel("pt", [[0.0, 0.0, 0.0]])
        with pytest.raises(ObjectOutOfView):
            _render(model, Pose(np.eye(3), [0.0, 0.0, -1.0]), small_config(0))


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
            assert np.array_equal(_dense(s)[0], _dense(t)[0])
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
        (back_depth, back_vis), (depth, vis) = _dense(back), _dense(scenes[0])
        assert np.array_equal(back_vis, vis)
        assert back.depth.dtype == np.float64
        assert np.array_equal(back_depth, depth)

    def test_tight_roi_square_around_mask(self):
        model = make_model("blob", 2500, 0.12, 3)
        cfg = small_config(14)
        scene = _render(model, random_pose(np.random.default_rng(2), cfg), cfg)
        roi = tight_roi(scene, 64)
        ys, xs = np.nonzero(_dense(scene)[1])
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


def _masked_scene(mask, rng):
    """A scene stand-in whose visible pixels are ``mask``, among pixels with
    depth that also hold some hidden (occluder) ones."""
    pixels = np.flatnonzero(mask | (rng.random(mask.shape) < 0.1))
    return SimpleNamespace(width=mask.shape[1], pixels=pixels, visible=mask.ravel()[pixels])


def test_tight_roi_matches_nonzero_reference():
    rng = np.random.default_rng(3)
    for i, mask in enumerate(_masks()):
        assert tight_roi(_masked_scene(mask, rng), 32) == _nonzero_roi(mask, 32), i


def test_tight_roi_empty_mask_out_of_view():
    mask = np.zeros((6, 9), dtype=bool)
    with pytest.raises(ObjectOutOfView):
        tight_roi(_masked_scene(mask, np.random.default_rng(4)), 32)


def _scene_fields(**changes):
    fields = dict(object_id="pt", gt_pose=Pose(np.eye(3), [0.0, 0.0, 1.0]),
                  intrinsics=TEST_K, visible_fraction=1.0, width=4, height=3,
                  pixels=np.array([1, 5, 11]), depth=np.array([1.0, 0.5, 2.0]),
                  visible=np.array([True, False, True]))
    return {**fields, **changes}


# The archive faults of tests/test_cli.py's _SCENE_FAULTS reach these checks
# through load_scene; these are the rest.
@pytest.mark.parametrize("changes", [
    {"depth": np.array([1.0, -0.5, 2.0])},
    {"depth": np.array([1.0, np.nan, 2.0])},
    {"width": True},
    {"width": 0},
    {"visible_fraction": 1.5},
], ids=["negative_depth", "nan_depth", "bool_width", "zero_width",
        "visible_fraction_above_1"])
def test_scene_sample_validation(changes):
    with pytest.raises(ValueError):
        SceneSample(**_scene_fields(**changes))


def test_scene_sample_arrays_read_only():
    scene = SceneSample(**_scene_fields())
    for a in (scene.pixels, scene.depth, scene.visible):
        with pytest.raises(ValueError):
            a[0] = a[1]


def test_lookup_pixels():
    scene = SceneSample(**_scene_fields())
    depth, visible = lookup_pixels(scene, np.array([[-1, 0, 1], [5, 11, 12]]))
    assert np.array_equal(depth, [[0.0, 0.0, 1.0], [0.5, 2.0, 0.0]])
    assert np.array_equal(visible, [[False, False, True], [False, True, False]])
    empty = SceneSample(**_scene_fields(pixels=np.array([], dtype=np.int64),
                                        depth=np.array([]), visible=np.array([], bool)))
    depth, visible = lookup_pixels(empty, np.array([-1, 0, 11]))
    assert not depth.any() and not visible.any()


def _dense_render(model, pose, config, occluders):
    """Reference render: z-buffers the full (height, width) image, then keeps
    the pixels with depth; returns (pixels, depth, visible, visible_fraction).
    The poses it is given put every model point in front of the camera."""
    w, h = config.width, config.height
    cam = pose.apply(model.points)
    z = cam[:, 2]
    px = np.floor(config.intrinsics.fx * cam[:, 0] / z + config.intrinsics.cx + 0.5)
    py = np.floor(config.intrinsics.fy * cam[:, 1] / z + config.intrinsics.cy + 0.5)
    px, py = px.astype(np.int64), py.astype(np.int64)
    ok = (z > 0) & (px >= 0) & (px < w) & (py >= 0) & (py < h)
    if occluders is None:  # the seeded sample that render draws
        occluders = synth._sample_occluders(
            config.occluders, synth._rng(config.seed, synth._STREAM_OCCLUDERS),
            (px[ok].min(), py[ok].min(), px[ok].max(), py[ok].max()), float(z[ok].min()))
    zbuf_obj = np.full(h * w, np.inf)
    np.minimum.at(zbuf_obj, py[ok] * w + px[ok], z[ok])
    zbuf_obj = zbuf_obj.reshape(h, w)
    zbuf_occ = np.full((h, w), np.inf)
    for occ in occluders:
        u0, v0 = max(0, math.floor(occ.u_lo)), max(0, math.floor(occ.v_lo))
        u1, v1 = min(w, math.ceil(occ.u_hi)), min(h, math.ceil(occ.v_hi))
        if u0 < u1 and v0 < v1:
            np.minimum(zbuf_occ[v0:v1, u0:u1], occ.depth, out=zbuf_occ[v0:v1, u0:u1])
    vis = zbuf_obj < zbuf_occ
    zbuf = np.minimum(zbuf_obj, zbuf_occ)
    depth = np.where(np.isfinite(zbuf), zbuf, 0.0)
    if config.depth_sigma > 0:
        noise = synth._rng(config.seed, synth._STREAM_SENSOR).normal(
            0.0, config.depth_sigma, (h, w))
        depth = np.where(depth > 0, np.maximum(depth + noise, 1e-6), 0.0)
    pixels = np.flatnonzero(depth)
    return (pixels, depth.ravel()[pixels], vis.ravel()[pixels],
            float(vis.sum() / np.isfinite(zbuf_obj).sum()))


def _edge_occluders(cfg, rng):
    """Random rectangles, some past each image edge and some off the image."""
    w, h = cfg.width, cfg.height
    occ = []
    for u_lo, v_lo, u_hi, v_hi in [(-50, 30, 40, 90), (w - 30, 10, w + 60, 70),
                                   (100, -40, 180, 20), (60, h - 25, 150, h + 80),
                                   (-90, -90, -10, -10), (w + 5, 20, w + 90, 90),
                                   (30, h + 0.5, 90, h + 40), (-5, -5, w + 5, 0.4)]:
        jitter = rng.uniform(-3.0, 3.0, 4)
        occ.append(Occluder(u_lo + jitter[0], v_lo + jitter[1], u_hi + jitter[2],
                            v_hi + jitter[3], rng.uniform(0.3, 1.5)))
    return [occ[j] for j in rng.permutation(len(occ))[:rng.integers(1, len(occ) + 1)]]


def test_make_benchmark_finishes_only_the_scenes_it_keeps(monkeypatch):
    # A rejected attempt stops at its visible fraction: it builds no
    # SceneSample and draws no sensor noise.
    built, streams = [], []
    scene_sample, rng = synth.SceneSample, synth._rng
    monkeypatch.setattr(synth, "SceneSample",
                        lambda **fields: built.append(1) or scene_sample(**fields))
    monkeypatch.setattr(synth, "_rng",
                        lambda seed, stream: streams.append(stream) or rng(seed, stream))
    model = make_model("blob", 1500, 0.12, 3)
    cfg = small_config(11, occluded=True, depth_sigma=0.002)
    scenes = make_benchmark(model, cfg, 6, [0.9, 0.5, 0.2])
    assert streams.count(synth._STREAM_OCCLUDERS) > len(scenes)  # attempts were rejected
    assert len(built) == len(scenes) == 6
    assert streams.count(synth._STREAM_SENSOR) == len(scenes)


@pytest.mark.parametrize("shape", ["cube", "blob"])
@pytest.mark.parametrize("depth_sigma", [0.0, 0.003])
def test_windowed_render_matches_dense_reference(shape, depth_sigma):
    model = make_model(shape, 900, 0.12, 5)
    rng = np.random.default_rng(17)
    checked = 0
    for i in range(30):
        cfg = small_config(100 + i, occluded=True, depth_sigma=depth_sigma,
                           center_margin=0.02)
        pose = random_pose(rng, cfg)
        occluders = _edge_occluders(cfg, rng) if i % 3 else None
        try:
            scene = _render(model, pose, cfg, occluders)
        except ObjectOutOfView:
            continue
        pixels, depth, visible, fraction = _dense_render(model, pose, cfg, occluders)
        assert np.array_equal(scene.pixels, pixels)
        assert np.array_equal(scene.depth, depth)
        assert np.array_equal(scene.visible, visible)
        assert scene.visible_fraction == fraction
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("w, h, window", [
    (640, 480, (0, 480, 0, 640)),     # the whole field, 25-row blocks
    (640, 480, (37, 38, 5, 6)),       # one pixel inside the second block
    (640, 480, (25, 75, 100, 300)),   # rows start and end on block edges
    (320, 240, (51, 240, 0, 320)),    # a partial last block
    (20000, 3, (1, 3, 19990, 20000)),  # rows wider than a block
])
def test_window_noise_equals_the_full_field(w, h, window):
    v0, v1, u0, u1 = window
    full = np.random.default_rng(9).normal(0.0, 0.002, (h, w))
    got = synth._window_noise(np.random.default_rng(9), 0.002, w, v0, v1, u0, u1)
    assert np.array_equal(got, full[v0:v1, u0:u1])


def test_scene_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(seed=0, depth_range=(2.0, 1.0))
    with pytest.raises(TypeError):
        SceneConfig()  # seed is mandatory
