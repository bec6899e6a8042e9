import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from anchorpose.camera_crop import GridMaps, Roi, crop_affine
from anchorpose.codec import AnchorSet, build_anchor_set, decode_points
from anchorpose.correspondence import (
    DenseMaps,
    MapsHeader,
    NoiseSpec,
    NonFinite,
    ObjectMismatch,
    ShapeMismatch,
    corrupt,
    ground_truth_maps,
    load_dense_maps,
    loss_coarse,
    loss_fine,
    loss_mask,
    loss_total,
    save_dense_maps,
    write_loss_csv,
)
from anchorpose.geom import project
from anchorpose.synth import make_model
from conftest import scene_bundle


@pytest.fixture(scope="module")
def gt_setup():
    model, anchors, scene, roi = scene_bundle(21)
    maps = ground_truth_maps(scene, anchors, roi)
    return model, anchors, scene, roi, maps


def _synthetic_maps(res=128, k=2, mask_value=1.0):
    """Hand-built all-foreground maps for statistical corruption tests."""
    pts = np.zeros((k, 3))
    pts[:, 0] = 0.05 * np.arange(k)
    anchors = AnchorSet("synthetic", pts, 0.05 * k)
    roi = Roi(res / 2.0, res / 2.0, float(res), float(res), res)
    uv = np.stack(np.meshgrid(np.arange(res), np.arange(res))[::1], axis=-1).astype(float)
    cam = np.zeros((res, res, 3))
    cam[..., 2] = 1.0
    grids = GridMaps(uv.astype(float), cam, np.ones((res, res), bool), roi)
    return DenseMaps(
        mask=np.full((res, res), mask_value),
        classes=np.zeros((res, res), dtype=int),
        residual=np.zeros((res, res, 3)),
        grids=grids,
        anchors=anchors,
    )


class TestGroundTruthMaps:
    def test_masked_cells_reproject_onto_their_cell(self, gt_setup):
        model, anchors, scene, roi, maps = gt_setup
        sel = maps.mask > 0.5
        obj = decode_points(maps.classes[sel], maps.residual[sel], anchors)
        kc = __import__("anchorpose").camera_crop.adjust_intrinsics(
            scene.intrinsics, crop_affine(roi))
        a = crop_affine(roi)
        cell_uv = a.apply(maps.grids.uv[sel])
        worst = 0.0
        for p, target in zip(obj[:300], cell_uv[:300]):
            uv = project(p, scene.gt_pose, kc)
            worst = max(worst, float(np.abs(uv - target).max()))
        assert worst < 0.75

    def test_background_cells_are_class_k(self, gt_setup):
        _, anchors, _, _, maps = gt_setup
        assert (maps.classes[maps.mask == 0.0] == anchors.k).all()
        assert (maps.classes[maps.mask == 1.0] < anchors.k).all()

    def test_residual_bounded_by_covering_radius(self, gt_setup):
        _, anchors, _, _, maps = gt_setup
        # grid cells hold near-surface points; discretization adds one pixel
        # footprint on top of the model-point bound
        norms = np.linalg.norm(maps.residual[maps.mask > 0.5], axis=1)
        assert norms.max() <= anchors.covering_radius + 2.5e-3

    def test_anchor_xyz_consistent_with_class(self, gt_setup):
        _, anchors, _, _, maps = gt_setup
        sel = maps.mask > 0.5
        np.testing.assert_array_equal(
            maps.anchor_xyz[sel], anchors.anchors[maps.classes[sel]]
        )
        np.testing.assert_array_equal(maps.anchor_xyz[~sel], 0.0)

    def test_roi_without_object_gives_empty_mask(self, gt_setup):
        model, anchors, scene, _, _ = gt_setup
        corner = Roi(8.0, 8.0, 16.0, 16.0, 16)  # top-left corner, no object
        maps = ground_truth_maps(scene, anchors, corner)
        assert maps.mask.sum() == 0.0
        assert (maps.classes == anchors.k).all()

    def test_object_mismatch(self, gt_setup):
        _, _, scene, roi, _ = gt_setup
        other = build_anchor_set(make_model("cube", 600, 0.1, 0), 8)
        with pytest.raises(ObjectMismatch):
            ground_truth_maps(scene, other, roi)

    def test_tight_roi_centers_object(self):
        # with the crop-adjusted frame, object cells center in the output
        from conftest import scene_bundle

        for seed in (3, 21, 55, 89):
            _, anchors, scene, roi = scene_bundle(seed)
            maps = ground_truth_maps(scene, anchors, roi)
            cells = np.argwhere(maps.mask > 0.5)  # (row, col) = (v, u)
            center = (roi.out_res - 1) / 2.0
            offset = np.abs(cells.mean(axis=0) - center).max()
            assert offset < 0.05 * roi.out_res


class TestDenseMapsValidation:
    @pytest.mark.parametrize("field, value", [
        ("mask", np.nan), ("residual", np.inf), ("uv", np.nan), ("cam_xyz", -np.inf),
        ("classes", -1), ("classes", 3), ("classes", 0.5),
    ])
    def test_rejected(self, field, value):
        maps = _synthetic_maps(res=8, k=2)
        arrays = {"mask": maps.mask, "classes": maps.classes, "residual": maps.residual,
                  "uv": maps.grids.uv, "cam_xyz": maps.grids.cam_xyz}
        bad = arrays[field].astype(type(value))
        bad.flat[5] = value
        arrays[field] = bad
        with pytest.raises(ValueError):
            DenseMaps(arrays["mask"], arrays["classes"], arrays["residual"],
                      GridMaps(arrays["uv"], arrays["cam_xyz"], maps.grids.valid,
                               maps.grids.roi), maps.anchors)


# Noise settings of the fused_blob benchmark workload, alone, without its
# label flips and with each of the last three stages switched on.
_FUSED_BLOB_NOISE = NoiseSpec(residual_sigma=0.005, label_flip_prob=0.02, seed=11)
_CORRUPT_SPECS = {
    "residual": replace(_FUSED_BLOB_NOISE, label_flip_prob=0.0),
    "fused-blob": _FUSED_BLOB_NOISE,
    "mask": replace(_FUSED_BLOB_NOISE, mask_flip_prob=0.05),
    "depth": replace(_FUSED_BLOB_NOISE, depth_sigma=0.002),
    "uv": replace(_FUSED_BLOB_NOISE, uv_sigma=1.0),
}
# sha256 of every array corrupt returns under each spec, pinned from the code
# that made every draw of every stage whatever the settings.
PINNED_CORRUPT = {
    "residual": "ce799a48257bbb5301cf2eba670bd4f9abf2a624b5853e5fe1c19f665eb8fdef",
    "fused-blob": "59ac7bbcdb5f7e23723af30d392d7a034aa39a4b2544d081416408f2a82adda4",
    "mask": "b8aa43ac69280e80971bea44bad109cf810167653f564f3e47427c74c1bcc9ea",
    "depth": "bb930c8c7093b6b8a1f3186a3c436279ad84cf7399ad811cb292f81665b3ab61",
    "uv": "1b436ed01f3a8b997422922799c0763a8e0be052fd20d935997ff238fc065d3c",
}


class TestCorrupt:
    @pytest.mark.parametrize("case", sorted(PINNED_CORRUPT))
    def test_arrays_are_pinned(self, gt_setup, case):
        *_, maps = gt_setup
        out = corrupt(maps, _CORRUPT_SPECS[case])
        h = hashlib.sha256()
        for a in (out.mask, out.classes, out.residual, out.grids.uv, out.grids.cam_xyz,
                  out.grids.valid):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == PINNED_CORRUPT[case]

    def test_zero_noise_is_identity(self, gt_setup):
        *_, maps = gt_setup
        out = corrupt(maps, NoiseSpec(0.0, 0.0, 0.0, 0.0, seed=1))
        assert np.array_equal(out.mask, maps.mask)
        assert np.array_equal(out.classes, maps.classes)
        assert np.array_equal(out.residual, maps.residual)
        assert np.array_equal(out.grids.cam_xyz, maps.grids.cam_xyz)
        assert np.array_equal(out.grids.uv, maps.grids.uv)

    def test_deterministic_given_seed(self, gt_setup):
        *_, maps = gt_setup
        spec = NoiseSpec(0.004, 0.1, 0.01, 0.002, seed=7, uv_sigma=0.5)
        a = corrupt(maps, spec)
        b = corrupt(maps, spec)
        assert np.array_equal(a.residual, b.residual)
        assert np.array_equal(a.classes, b.classes)
        assert np.array_equal(a.mask, b.mask)

    def test_residual_noise_half_normal_mean(self):
        maps = _synthetic_maps(res=128)  # 16384 masked cells
        sigma = 0.005
        out = corrupt(maps, NoiseSpec(sigma, 0.0, 0.0, 0.0, seed=3))
        delta = np.abs(out.residual - maps.residual)
        expected = sigma * math.sqrt(2.0 / math.pi)
        for axis in range(3):
            assert abs(delta[..., axis].mean() - expected) < 0.05 * expected

    def test_label_flip_prob_one_uniform(self):
        maps = _synthetic_maps(res=128, k=32)
        out = corrupt(maps, NoiseSpec(0.0, 1.0, 0.0, 0.0, seed=4))
        same = (out.classes == maps.classes).mean()
        assert abs(same - 1.0 / 33.0) < 0.005

    def test_mask_flip_fraction(self):
        maps = _synthetic_maps(res=128)
        out = corrupt(maps, NoiseSpec(0.0, 0.0, 0.25, 0.0, seed=5))
        flipped = (out.mask != maps.mask).mean()
        assert abs(flipped - 0.25) < 0.02

    def test_depth_noise_moves_along_ray(self, gt_setup):
        *_, maps = gt_setup
        out = corrupt(maps, NoiseSpec(0.0, 0.0, 0.0, 0.01, seed=6))
        valid = maps.grids.valid
        before = maps.grids.cam_xyz[valid]
        after = out.grids.cam_xyz[valid]
        # uv unchanged, direction preserved, z actually perturbed
        assert np.array_equal(out.grids.uv, maps.grids.uv)
        cross = np.linalg.norm(np.cross(before, after), axis=1)
        assert cross.max() < 1e-12
        assert np.abs(after[:, 2] - before[:, 2]).std() > 0.005

    def test_uv_noise_in_crop_units(self, gt_setup):
        *_, maps = gt_setup
        sigma = 0.5
        out = corrupt(maps, NoiseSpec(0.0, 0.0, 0.0, 0.0, seed=8, uv_sigma=sigma))
        a = crop_affine(maps.grids.roi)
        d_crop = a.apply(out.grids.uv) - a.apply(maps.grids.uv)
        assert abs(d_crop.std() - sigma) < 0.05 * sigma

    def test_anchor_xyz_rederived_after_flip(self):
        maps = _synthetic_maps(res=16, k=2)
        out = corrupt(maps, NoiseSpec(0.0, 1.0, 0.0, 0.0, seed=9))
        classes = out.classes
        fg = classes < 2
        np.testing.assert_array_equal(out.anchor_xyz[fg],
                                      maps.anchors.anchors[classes[fg]])
        np.testing.assert_array_equal(out.anchor_xyz[~fg], 0.0)


class TestLosses:
    def test_mask_identical(self):
        m = np.ones((8, 8))
        assert loss_mask(m, m) == 0.0

    def test_mask_all_ones_vs_zeros(self):
        assert loss_mask(np.ones((8, 8)), np.zeros((8, 8))) == 1.0

    def test_mask_half_cells(self):
        pred = np.zeros((4, 4))
        pred[:2] = 1.0
        assert loss_mask(pred, np.zeros((4, 4))) == 0.5

    def test_mask_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            loss_mask(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_coarse_perfect_prediction(self):
        classes = np.array([[0, 1], [2, 1]])
        probs = np.eye(3)[classes]
        assert loss_coarse(probs, classes, np.ones((2, 2))) <= 1e-11

    def test_coarse_uniform_is_log_33(self):
        k = 32
        probs = np.full((10, 10, k + 1), 1.0 / (k + 1))
        classes = np.zeros((10, 10), dtype=int)
        val = loss_coarse(probs, classes, np.ones((10, 10)))
        assert val == pytest.approx(math.log(33.0), abs=1e-9)

    def test_coarse_half_probability(self):
        probs = np.zeros((4, 4, 3))
        probs[..., 0] = 0.5
        probs[..., 1] = 0.5
        classes = np.zeros((4, 4), dtype=int)
        val = loss_coarse(probs, classes, np.ones((4, 4)))
        assert val == pytest.approx(math.log(2.0), rel=1e-12)

    def test_coarse_mask_scales_inside_log(self):
        # probabilities are multiplied by the mask before the clamp and log
        probs = np.ones((1, 1, 2)) * np.array([1.0, 0.0])
        classes = np.zeros((1, 1), dtype=int)
        val = loss_coarse(probs, classes, np.full((1, 1), 0.5))
        assert val == pytest.approx(math.log(2.0), rel=1e-12)

    def test_coarse_zero_at_ground_truth_with_background(self, gt_setup):
        *_, maps = gt_setup
        assert loss_coarse(maps.region_probs, maps.classes, maps.mask) <= 1e-11

    def test_fine_zero_and_offset(self):
        gt = np.zeros((6, 6, 3))
        mask = np.ones((6, 6))
        assert loss_fine(gt, gt, mask) == 0.0
        pred = gt + np.array([0.01, 0.0, 0.0])
        assert loss_fine(pred, gt, mask) == pytest.approx(0.01, rel=1e-12)

    def test_fine_empty_mask(self):
        z = np.zeros((4, 4, 3))
        assert loss_fine(z + 1.0, z, np.zeros((4, 4))) == 0.0

    def test_fine_constant_shift_triangle_bound(self):
        rng = np.random.default_rng(0)
        gt = rng.normal(size=(8, 8, 3))
        pred = gt.copy()
        mask = np.ones((8, 8))
        base = loss_fine(pred, gt, mask)
        c = np.array([0.01, -0.02, 0.005])
        shifted = loss_fine(pred + c, gt, mask)
        assert shifted <= base + np.abs(c).sum() + 1e-12
        assert shifted == pytest.approx(np.abs(c).sum(), rel=1e-12)

    def test_total(self):
        assert loss_total(0.0, 0.0, 0.0, 0.0) == 0.0
        assert loss_total(1.0, 2.0, 3.0, 4.0) == 10.0
        with pytest.raises(NonFinite):
            loss_total(float("nan"), 0.0, 0.0, 0.0)
        with pytest.raises(NonFinite):
            loss_total(0.0, float("inf"), 0.0, 0.0)


class TestMapsIo:
    def test_round_trip(self, tmp_path, gt_setup):
        model, anchors, scene, roi, maps = gt_setup
        header = MapsHeader("s0", scene.object_id, scene.intrinsics, scene.gt_pose)
        save_dense_maps(maps, tmp_path / "maps.npz", header)
        back, back_header = load_dense_maps(tmp_path / "maps.npz")
        assert back_header.scene_id == "s0" and back_header.object_id == scene.object_id
        assert back_header.intrinsics == scene.intrinsics
        for name in ("rotation", "translation"):
            got, want = getattr(back_header.gt_pose, name), getattr(scene.gt_pose, name)
            assert np.array_equal(got, want)
        for name in ("mask", "classes", "residual"):
            got, want = getattr(back, name), getattr(maps, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for name in ("uv", "cam_xyz", "valid"):
            got, want = getattr(back.grids, name), getattr(maps.grids, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert back.grids.roi == maps.grids.roi
        assert back.anchors.object_id == maps.anchors.object_id
        np.testing.assert_array_equal(back.anchors.anchors, maps.anchors.anchors)

    def test_loss_csv_format(self, tmp_path):
        rows = [("s0", 0.0, 1.5, 0.25, 2.0), ("s1", 0.1, 1.0, 0.5, None)]
        write_loss_csv(rows, tmp_path / "losses.csv")
        text = (tmp_path / "losses.csv").read_text().splitlines()
        assert text[0] == "scene_id,loss_mask,loss_coarse,loss_fine,loss_total"
        assert text[1] == "s0,0.0,1.5,0.25,2.0"
        assert text[2] == "s1,0.1,1.0,0.5,"
