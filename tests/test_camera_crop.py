import numpy as np
import pytest

from anchorpose.camera_crop import (
    CORR_RES,
    EmptyIntersection,
    Roi,
    adjust_intrinsics,
    cell_sample_grid,
    crop_affine,
    make_grid_maps,
)
from anchorpose.geom import CropAffine, Intrinsics, Pose, backproject_grid, project
from conftest import random_rotation_aa

K = Intrinsics(500.0, 500.0, 320.0, 240.0)


def _grid_maps(data, roi, k):
    """``make_grid_maps`` on the dense (height, width) depth image ``data``,
    sampled at the cell centers of ``roi``."""
    u, v, flat = cell_sample_grid(roi, data.shape[1], data.shape[0])
    return make_grid_maps(u, v, np.where(flat >= 0, data.ravel()[flat], 0.0), roi, k)


def _roi_from_window(u0, v0, size, out_res):
    return Roi(u0 + size / 2.0, v0 + size / 2.0, size, size, out_res)


class TestCropAffine:
    def test_endpoint_oracle(self):
        roi = _roi_from_window(100.0, 50.0, 200.0, 400)
        a = crop_affine(roi)
        assert a.scale_u == a.scale_v == 2.0
        np.testing.assert_allclose(a.apply([100.0, 50.0]), [0.0, 0.0], atol=0)
        np.testing.assert_allclose(a.apply([300.0, 250.0]), [400.0, 400.0], atol=0)

    def test_identity_crop(self):
        a = crop_affine(_roi_from_window(0.0, 0.0, 640.0, 640))
        assert (a.scale_u, a.scale_v, a.offset_u, a.offset_v) == (1.0, 1.0, 0.0, 0.0)

    def test_window_center_maps_to_output_center(self):
        roi = Roi(211.0, 87.0, 130.0, 130.0, 64)
        np.testing.assert_allclose(
            crop_affine(roi).apply([211.0, 87.0]), [32.0, 32.0], atol=1e-12
        )


class TestAdjustIntrinsics:
    def test_formula_oracle(self):
        a = CropAffine(2.0, 2.0, -200.0, -100.0)  # window top-left (100, 50), scale 2
        kc = adjust_intrinsics(K, a)
        assert kc.fx == 1000.0
        assert kc.cx == 2.0 * (320.0 - 100.0)
        assert kc.cy == 2.0 * (240.0 - 50.0)

    def test_identity_affine(self):
        assert adjust_intrinsics(K, CropAffine(1.0, 1.0, 0.0, 0.0)) == K

    def test_projection_consistency_random_points(self):
        # project through K_crop == warp of projection through K_org
        rng = np.random.default_rng(0)
        roi = _roi_from_window(140.0, 80.0, 170.0, 64)
        a = crop_affine(roi)
        kc = adjust_intrinsics(K, a)
        pose = Pose(random_rotation_aa(rng), [0.02, -0.01, 0.9])
        worst = 0.0
        for _ in range(100):
            p = rng.uniform(-0.06, 0.06, 3)
            direct = project(p, pose, kc)
            warped = a.apply(project(p, pose, K))
            worst = max(worst, float(np.abs(direct - warped).max()))
        assert worst < 1e-9

    def test_principal_point_stays_inside(self):
        roi = _roi_from_window(300.0, 200.0, 100.0, 64)  # cx=320 inside [300, 400]
        kc = adjust_intrinsics(K, crop_affine(roi))
        assert 0.0 <= kc.cx <= roi.out_res


class TestGridMaps:
    def test_constant_depth_principal_point(self):
        k = Intrinsics(500.0, 500.0, 320.0, 320.0)
        roi = _roi_from_window(0.0, 0.0, 640.0, 640)
        grids = _grid_maps(np.ones((640, 640)), roi, k)
        np.testing.assert_allclose(grids.cam_xyz[320, 320], [0.0, 0.0, 1.0], atol=1e-12)
        assert grids.valid.all()

    def test_dual_path_equality(self):
        # xyz through K_org + warp == xyz through K_crop at cell centers
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(20):
            data = rng.uniform(0.5, 2.0, (60, 80))
            data[rng.random((60, 80)) < 0.2] = 0.0
            size = rng.uniform(10.0, 70.0)
            roi = Roi(rng.uniform(0, 80), rng.uniform(0, 60), size, size,
                      int(rng.integers(8, 48)))
            grids = _grid_maps(data, roi, K)
            kc = adjust_intrinsics(K, crop_affine(roi))
            jj, ii = np.meshgrid(np.arange(roi.out_res), np.arange(roi.out_res))
            alt = backproject_grid(jj.astype(float), ii.astype(float),
                                   grids.cam_xyz[..., 2], kc)
            alt[~grids.valid] = 0.0
            worst = max(worst, float(np.abs(alt - grids.cam_xyz).max()))
        assert worst < 1e-9

    def test_zero_depth_invalid(self):
        data = np.ones((48, 48))
        data[:, :24] = 0.0
        grids = _grid_maps(data, _roi_from_window(0.0, 0.0, 48.0, 48), K)
        assert not grids.valid[:, :24].any()
        np.testing.assert_array_equal(grids.cam_xyz[:, :24], 0.0)
        assert grids.valid[:, 24:].all()

    def test_out_of_image_cells_invalid_not_clamped(self):
        roi = _roi_from_window(-24.0, 0.0, 48.0, 48)  # left half outside
        grids = _grid_maps(np.ones((48, 48)), roi, K)
        assert not grids.valid[:, :20].any()
        assert grids.valid[:, 30:].all()

    def test_empty_intersection(self):
        with pytest.raises(EmptyIntersection):
            _grid_maps(np.ones((48, 48)), _roi_from_window(100.0, 0.0, 20.0, 16), K)

    @pytest.mark.parametrize("field", ["center_u", "center_v", "size_u", "size_v"])
    def test_roi_rejects_non_finite(self, field):
        values = {"center_u": 10.0, "center_v": 10.0, "size_u": 8.0, "size_v": 8.0,
                  "out_res": 4, field: np.nan}
        with pytest.raises(ValueError, match="finite"):
            Roi(**values)

    def test_default_resolutions(self):
        assert CORR_RES == 64
