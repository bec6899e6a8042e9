import math
import struct

import numpy as np
import pytest

from anchorpose.mesh import (
    EmptyModel,
    KTooLarge,
    ObjectModel,
    ParseError,
    UnsupportedPlyVariant,
    diameter,
    fps,
    load_ply,
    load_registry,
    load_registry_model,
    save_registry,
    write_ply,
)
from anchorpose.synth import SHAPES, make_model
from conftest import rodrigues

UNIT_CUBE_CORNERS = np.array(
    [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
)

CUBE_ASCII_PLY = (
    "ply\nformat ascii 1.0\ncomment unit cube corners\n"
    "element vertex 8\n"
    "property float x\nproperty float y\nproperty float z\n"
    "end_header\n"
    + "".join(f"{x:g} {y:g} {z:g}\n" for x, y, z in UNIT_CUBE_CORNERS)
)

# values exactly representable in float32 so ascii and binary twins agree
TETRA = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.5, 0.0), (0.25, 0.25, 1.0)]


def _tetra_ascii(path):
    txt = (
        "ply\nformat ascii 1.0\nelement vertex 4\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
        + "".join(f"{x:g} {y:g} {z:g}\n" for x, y, z in TETRA)
    )
    path.write_text(txt)


def _tetra_binary(path):
    header = (
        b"ply\nformat binary_little_endian 1.0\nelement vertex 4\n"
        b"property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    body = b"".join(struct.pack("<3f", *p) for p in TETRA)
    path.write_bytes(header + body)


class TestLoadPly:
    def test_ascii_cube(self, tmp_path):
        f = tmp_path / "cube.ply"
        f.write_text(CUBE_ASCII_PLY)
        model = load_ply(f)
        assert len(model.points) == 8
        np.testing.assert_array_equal(model.points, UNIT_CUBE_CORNERS)
        assert model.diameter == pytest.approx(math.sqrt(3), abs=1e-12)
        assert model.id == "cube"

    def test_binary_matches_ascii_bitwise(self, tmp_path):
        a, b = tmp_path / "a.ply", tmp_path / "b.ply"
        _tetra_ascii(a)
        _tetra_binary(b)
        np.testing.assert_array_equal(load_ply(a).points, load_ply(b).points)

    def test_empty_vertex_list(self, tmp_path):
        f = tmp_path / "empty.ply"
        f.write_text(
            "ply\nformat ascii 1.0\nelement vertex 0\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        )
        with pytest.raises(ParseError):
            load_ply(f)

    def test_big_endian_rejected(self, tmp_path):
        f = tmp_path / "be.ply"
        f.write_text(
            "ply\nformat binary_big_endian 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        )
        with pytest.raises(UnsupportedPlyVariant):
            load_ply(f)

    def test_missing_xyz_rejected(self, tmp_path):
        f = tmp_path / "no_z.ply"
        f.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nend_header\n0 0\n"
        )
        with pytest.raises(UnsupportedPlyVariant):
            load_ply(f)

    def test_truncated_binary_offset(self, tmp_path):
        f = tmp_path / "trunc.ply"
        header = (
            b"ply\nformat binary_little_endian 1.0\nelement vertex 4\n"
            b"property float x\nproperty float y\nproperty float z\nend_header\n"
        )
        f.write_bytes(header + b"\x00" * 10)  # 38 bytes short
        with pytest.raises(ParseError) as exc:
            load_ply(f)
        assert exc.value.offset == len(header)

    def test_faces_and_extra_properties_skipped(self, tmp_path):
        f = tmp_path / "faces.ply"
        f.write_text(
            "ply\nformat ascii 1.0\n"
            "element vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\n"
            "element face 1\n"
            "property list uchar int vertex_indices\n"
            "end_header\n"
            "0 0 0 255\n1 0 0 255\n0 1 0 255\n"
            "3 0 1 2\n"
        )
        model = load_ply(f)
        np.testing.assert_array_equal(model.points, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_binary_faces_skipped(self, tmp_path):
        f = tmp_path / "bfaces.ply"
        header = (
            b"ply\nformat binary_little_endian 1.0\n"
            b"element face 1\n"
            b"property list uchar int vertex_indices\n"
            b"element vertex 2\n"
            b"property double x\nproperty double y\nproperty double z\n"
            b"end_header\n"
        )
        body = struct.pack("<B3i", 3, 0, 1, 2) + struct.pack("<6d", 0, 0, 0, 1, 2, 3)
        f.write_bytes(header + body)
        np.testing.assert_array_equal(load_ply(f).points, [[0, 0, 0], [1, 2, 3]])

    def test_mm_to_m(self, tmp_path):
        f = tmp_path / "mm.ply"
        f.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
            "1000 0 500\n"
        )
        np.testing.assert_allclose(load_ply(f, mm_to_m=True).points, [[1.0, 0.0, 0.5]])

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 3))
        for binary in (True, False):
            f = tmp_path / f"rt_{binary}.ply"
            write_ply(f, pts, binary=binary)
            np.testing.assert_array_equal(load_ply(f).points, pts)


def _fps_points(model, k):
    idx, _ = fps(model.points, k)
    return model.points[idx]


class TestFps:
    def test_k_equals_n_returns_all(self):
        model = ObjectModel("cube", UNIT_CUBE_CORNERS)
        picked = _fps_points(model, 8)
        assert {tuple(p) for p in picked} == {tuple(p) for p in UNIT_CUBE_CORNERS}

    def test_seed_tie_break_lowest_index(self):
        # centered cube: all corners equidistant from the centroid
        centered = ObjectModel("c", UNIT_CUBE_CORNERS - 0.5)
        d = np.linalg.norm(centered.points - centered.points.mean(0), axis=1)
        assert np.allclose(d, d[0])  # exhaustive check: the tie is real
        np.testing.assert_array_equal(_fps_points(centered, 1)[0], centered.points[0])

    def test_second_point_by_brute_force(self):
        model = ObjectModel("cube", UNIT_CUBE_CORNERS)
        seed = _fps_points(model, 1)[0]
        best = max(model.points, key=lambda p: np.linalg.norm(p - seed))
        np.testing.assert_array_equal(_fps_points(model, 2)[1], best)

    def test_prefix_property(self, blob_model):
        full = _fps_points(blob_model, 64)
        for k in (1, 4, 16, 32):
            np.testing.assert_array_equal(_fps_points(blob_model, k), full[:k])

    def test_anchors_are_model_points(self, blob_model):
        picked = _fps_points(blob_model, 32)
        pts = {p.tobytes() for p in blob_model.points}
        assert all(p.tobytes() in pts for p in picked)

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            fps(UNIT_CUBE_CORNERS, 9)

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            fps(UNIT_CUBE_CORNERS, 0)

    def test_covering_radius_non_increasing(self, blob_model):
        from anchorpose.codec import build_anchor_set

        covs = [build_anchor_set(blob_model, k).covering_radius
                for k in (1, 2, 4, 8, 16, 32, 64)]
        assert all(a >= b for a, b in zip(covs, covs[1:]))


def _planar_grid():
    u, v = np.meshgrid(np.linspace(-0.05, 0.05, 30), np.linspace(-0.03, 0.03, 20))
    return np.column_stack([u.ravel(), v.ravel(), np.zeros(u.size)]) @ rodrigues(
        [1.0, 2.0, 0.5], 0.7).T


# Degenerate inputs: fewer than 4 points, flat or collinear sets (no convex
# hull), repeated points; and README-sized models with many tied distances.
_ODD_POINT_SETS = {
    "two_points": lambda: np.array([[0.1, -0.2, 0.3], [0.4, 0.5, -0.6]]),
    "three_points": lambda: np.random.default_rng(3).normal(size=(3, 3)),
    "four_coplanar": lambda: np.array(
        [[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, 0.7, 0.0], [0.3, 0.7, 0.0]]) + 0.1,
    "collinear": lambda: np.outer(np.random.default_rng(4).uniform(-1, 1, 200),
                                  [0.01, -0.02, 0.03]) + [0.5, 0.25, 0.125],
    "planar_grid": _planar_grid,
    "duplicated": lambda: np.repeat(np.random.default_rng(5).normal(size=(150, 3)), 3, axis=0),
    "blob_2500": lambda: make_model("blob", 2500, 0.12, 7).points,
    "icosphere_2500": lambda: make_model("icosphere", 2500, 0.12, 7).points,
}


class TestExtents:
    def test_cube_diameter(self):
        assert diameter(ObjectModel("c", UNIT_CUBE_CORNERS)) == pytest.approx(
            math.sqrt(3), abs=1e-12
        )

    def test_single_point(self):
        assert diameter(ObjectModel("p", [[1.0, 2.0, 3.0]])) == 0.0

    def test_empty_model(self):
        with pytest.raises(EmptyModel):
            ObjectModel("none", np.empty((0, 3)))

    @pytest.mark.parametrize("shape", ["random", *SHAPES, *_ODD_POINT_SETS])
    def test_diameter_brute_force_oracle(self, shape):
        if shape in _ODD_POINT_SETS:
            pts = _ODD_POINT_SETS[shape]()
            brute = max(np.sqrt(((pts[i:i + 256, None, :] - pts[None, :, :]) ** 2)
                                .sum(-1).max()) for i in range(0, len(pts), 256))
            assert diameter(ObjectModel("r", pts)) == brute
        elif shape == "random":
            pts = np.random.default_rng(2).normal(size=(60, 3))
        else:
            pts = make_model(shape, 300, 0.12, 7).points
        brute = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1).max())
        assert diameter(ObjectModel("r", pts)) == pytest.approx(brute, rel=1e-12)


def test_registry_round_trip(tmp_path):
    write_ply(tmp_path / "m.ply", UNIT_CUBE_CORNERS)
    entries = [{"id": "cube8", "path": "m.ply", "symmetric": True, "mm_to_m": False}]
    save_registry(entries, tmp_path / "registry.json")
    loaded = load_registry(tmp_path / "registry.json")
    assert loaded == entries
    model = load_registry_model(tmp_path / "registry.json", loaded[0])
    assert model.id == "cube8" and model.symmetric
    np.testing.assert_array_equal(model.points, UNIT_CUBE_CORNERS)
