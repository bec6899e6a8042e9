import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorpose.geom import (
    CropAffine,
    Intrinsics,
    NotARotation,
    PointBehindCamera,
    Pose,
    backproject_grid,
    project,
)
from conftest import random_rotation_aa, rodrigues

K = Intrinsics(500.0, 500.0, 320.0, 240.0)


class TestProject:
    def test_principal_point(self):
        uv = project((0.0, 0.0, 1.0), Pose.identity(), K)
        np.testing.assert_allclose(uv, [320.0, 240.0], atol=0)

    def test_hand_oracle(self):
        # u = fx*X/Z + cx with (X, Y, Z) = p + t
        pose = Pose(np.eye(3), [0.0, 0.0, 1.0])
        uv = project((0.1, -0.05, 0.5), pose, K)
        np.testing.assert_allclose(
            uv, [500 * 0.1 / 1.5 + 320, 500 * -0.05 / 1.5 + 240], rtol=1e-14
        )

    def test_behind_camera(self):
        with pytest.raises(PointBehindCamera):
            project((0.0, 0.0, -1.0), Pose.identity(), K)

    def test_scale_consistency(self):
        # scaling the camera-frame point leaves the pixel unchanged
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.uniform([-0.5, -0.5, 0.3], [0.5, 0.5, 2.0])
            s = rng.uniform(0.1, 10.0)
            uv1 = project(p, Pose.identity(), K)
            uv2 = project(s * p, Pose.identity(), K)
            np.testing.assert_allclose(uv1, uv2, atol=1e-9)


class TestBackproject:
    def test_principal_point(self):
        np.testing.assert_allclose(backproject_grid(320, 240, 1.0, K), [0, 0, 1], atol=0)

    def test_hand_oracle(self):
        np.testing.assert_allclose(
            backproject_grid(420, 240, 2.0, K), [(420 - 320) * 2 / 500, 0.0, 2.0], rtol=1e-15
        )

    @given(
        x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0), z=st.floats(0.1, 5.0)
    )
    @settings(max_examples=50)
    def test_round_trip(self, x, y, z):
        uv = project((x, y, z), Pose.identity(), K)
        np.testing.assert_allclose(backproject_grid(uv[0], uv[1], z, K), [x, y, z], atol=1e-9)

    def test_round_trip_through_pose(self):
        # backprojecting at the transformed depth recovers the transformed point
        rng = np.random.default_rng(1)
        for _ in range(100):
            pose = Pose(random_rotation_aa(rng), rng.uniform(-0.2, 0.2, 3) + [0, 0, 1.5])
            p = rng.uniform(-0.1, 0.1, 3)
            pc = pose.apply(p)
            uv = project(p, pose, K)
            np.testing.assert_allclose(backproject_grid(uv[0], uv[1], pc[2], K), pc, atol=1e-9)


class TestPoseAlgebra:
    def test_invariants_enforced(self):
        with pytest.raises(NotARotation):
            Pose(np.eye(3) * 1.001, np.zeros(3))
        with pytest.raises(NotARotation):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    @pytest.mark.parametrize("field, index, bad", [
        ("rotation", (0, 0), np.nan), ("rotation", (2, 1), np.inf),
        ("translation", 0, np.nan), ("translation", 2, -np.inf),
    ])
    def test_non_finite_is_a_value_error_not_a_rotation_fault(self, field, index, bad):
        values = {"rotation": np.eye(3), "translation": np.zeros(3)}
        values[field][index] = bad
        with pytest.raises(ValueError, match="finite") as exc:
            Pose(**values)
        assert not isinstance(exc.value, NotARotation)

    def test_callers_arrays_stay_writeable(self):
        r, t = np.eye(3), np.zeros(3)
        pose = Pose(r, t)
        assert r.flags.writeable and t.flags.writeable
        assert not (pose.rotation.flags.writeable or pose.translation.flags.writeable)
        r[0, 0] = 2.0
        t[0] = 1.0
        np.testing.assert_array_equal(pose.rotation, np.eye(3))
        np.testing.assert_array_equal(pose.translation, np.zeros(3))


class TestSerialization:
    def test_pose_json_round_trip(self):
        rng = np.random.default_rng(6)
        pose = Pose(random_rotation_aa(rng), rng.normal(size=3))
        back = Pose.from_json(pose.to_json())
        np.testing.assert_array_equal(back.rotation, pose.rotation)
        np.testing.assert_array_equal(back.translation, pose.translation)

    def test_pose_json_layout(self):
        obj = Pose.identity().to_json()
        assert sorted(obj) == ["R", "t"]
        assert len(obj["R"]) == 9 and len(obj["t"]) == 3
        assert obj["R"][:3] == [1.0, 0.0, 0.0]  # row-major

    def test_intrinsics_json(self):
        back = Intrinsics.from_json(K.to_json())
        assert back == K

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            Intrinsics(-1.0, 500.0, 0.0, 0.0)

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_intrinsics_reject_non_finite(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            Intrinsics(**{**K.to_json(), field: bad})


class TestCropAffine:
    def test_positive_scale_rule(self):
        with pytest.raises(ValueError):
            CropAffine(0.0, 1.0, 0.0, 0.0)


def test_rodrigues_oracle_consistency():
    # the test-side oracle itself must produce rotations
    rng = np.random.default_rng(11)
    r = rodrigues(rng.normal(size=3), 1.234)
    assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
