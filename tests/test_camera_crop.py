import numpy as np
import pytest

from anchorpose.camera_crop import (
    CORR_RES,
    DepthImage,
    EmptyIntersection,
    MalformedImage,
    Roi,
    adjust_intrinsics,
    crop_affine,
    dzi_jitter,
    make_grid_maps,
    read_pfm,
    write_pfm,
)
from anchorpose.geom import CropAffine, Intrinsics, Pose, backproject_grid, project
from conftest import random_rotation_aa

K = Intrinsics(500.0, 500.0, 320.0, 240.0)


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
        assert adjust_intrinsics(K, CropAffine.identity()) == K

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


class TestDziJitter:
    def test_degenerate_jitter_is_squaring_only(self):
        box = Roi(100.0, 80.0, 60.0, 40.0, 64)
        out = dzi_jitter(box, rng_seed=0, shift_ratio=0.0, zoom=1.0)
        assert (out.center_u, out.center_v) == (100.0, 80.0)
        assert out.size_u == out.size_v == 60.0  # max side, squared
        assert out.out_res == 64

    def test_deterministic_given_seed(self):
        box = Roi(100.0, 80.0, 60.0, 40.0, 64)
        assert dzi_jitter(box, 123) == dzi_jitter(box, 123)
        assert dzi_jitter(box, 123) != dzi_jitter(box, 124)

    def test_default_parameters(self):
        import inspect

        sig = inspect.signature(dzi_jitter)
        assert sig.parameters["shift_ratio"].default == 0.25
        assert sig.parameters["zoom"].default == 1.5

    def test_jitter_ranges(self):
        box = Roi(100.0, 80.0, 60.0, 40.0, 64)
        for seed in range(200):
            out = dzi_jitter(box, seed)
            assert abs(out.center_u - 100.0) <= 0.25 * 60.0 + 1e-9
            assert abs(out.center_v - 80.0) <= 0.25 * 40.0 + 1e-9
            assert out.size_u == out.size_v
            assert 1.5 * 0.75 * 60.0 - 1e-9 <= out.size_u <= 1.5 * 1.25 * 60.0 + 1e-9


class TestGridMaps:
    def test_constant_depth_principal_point(self):
        depth = DepthImage.from_array(np.ones((640, 640)))
        k = Intrinsics(500.0, 500.0, 320.0, 320.0)
        roi = _roi_from_window(0.0, 0.0, 640.0, 640)
        grids = make_grid_maps(depth, roi, k)
        np.testing.assert_allclose(grids.cam_xyz[320, 320], [0.0, 0.0, 1.0], atol=1e-12)
        assert grids.valid.all()

    def test_dual_path_equality(self):
        # xyz through K_org + warp == xyz through K_crop at cell centers
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(20):
            data = rng.uniform(0.5, 2.0, (60, 80))
            data[rng.random((60, 80)) < 0.2] = 0.0
            depth = DepthImage.from_array(data)
            size = rng.uniform(10.0, 70.0)
            roi = Roi(rng.uniform(0, 80), rng.uniform(0, 60), size, size,
                      int(rng.integers(8, 48)))
            grids = make_grid_maps(depth, roi, K)
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
        grids = make_grid_maps(
            DepthImage.from_array(data), _roi_from_window(0.0, 0.0, 48.0, 48), K
        )
        assert not grids.valid[:, :24].any()
        np.testing.assert_array_equal(grids.cam_xyz[:, :24], 0.0)
        assert grids.valid[:, 24:].all()

    def test_out_of_image_cells_invalid_not_clamped(self):
        depth = DepthImage.from_array(np.ones((48, 48)))
        roi = _roi_from_window(-24.0, 0.0, 48.0, 48)  # left half outside
        grids = make_grid_maps(depth, roi, K)
        assert not grids.valid[:, :20].any()
        assert grids.valid[:, 30:].all()

    def test_empty_intersection(self):
        depth = DepthImage.from_array(np.ones((48, 48)))
        with pytest.raises(EmptyIntersection):
            make_grid_maps(depth, _roi_from_window(100.0, 0.0, 20.0, 16), K)

    def test_depth_image_validation(self):
        with pytest.raises(ValueError):
            DepthImage.from_array(np.array([[1.0, -0.5]]))
        with pytest.raises(ValueError):
            DepthImage.from_array(np.array([[np.nan]]))

    def test_default_resolutions(self):
        assert CORR_RES == 64


class TestPfm:
    def test_round_trip_gray(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(17, 23)).astype(np.float32)
        write_pfm(tmp_path / "g.pfm", a)
        back = read_pfm(tmp_path / "g.pfm")
        np.testing.assert_array_equal(back, a.astype(np.float64))

    def test_round_trip_color(self, tmp_path):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(9, 11, 3)).astype(np.float32)
        write_pfm(tmp_path / "c.pfm", a)
        np.testing.assert_array_equal(read_pfm(tmp_path / "c.pfm"), a)

    def test_header_and_row_order(self, tmp_path):
        # 2x2: scanlines stored bottom-up, little-endian, scale -1.0
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        write_pfm(tmp_path / "o.pfm", a)
        raw = (tmp_path / "o.pfm").read_bytes()
        assert raw.startswith(b"Pf\n2 2\n-1.0\n")
        body = np.frombuffer(raw.split(b"-1.0\n", 1)[1], dtype="<f4")
        np.testing.assert_array_equal(body, [3.0, 4.0, 1.0, 2.0])

    @pytest.mark.parametrize("raw", [
        b"Pf\n2 2\n",                                        # truncated header
        b"P6\n2 2\n-1.0\n" + bytes(16),                        # bad magic
        b"Pf\n2 x\n-1.0\n" + bytes(16),                        # bad dimensions
        b"Pf\n2 2\n-1.0\n" + bytes(15),                        # short body
        b"Pf\n2 2\n-1.0\n" + np.array([0, np.nan, 1, 2], "<f4").tobytes(),
        b"Pf\n2 2\n-1.0\n" + np.array([0, 1, -np.inf, 2], "<f4").tobytes(),
    ])
    def test_malformed_file_rejected(self, tmp_path, raw):
        (tmp_path / "bad.pfm").write_bytes(raw)
        with pytest.raises(MalformedImage):
            read_pfm(tmp_path / "bad.pfm")
