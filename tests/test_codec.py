import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorpose.codec import (
    AnchorSet,
    DEFAULT_ANCHOR_COUNT,
    IndexOutOfRange,
    build_anchor_set,
    decode_points,
    encode_points,
    load_anchor_set,
    save_anchor_set,
)
from anchorpose.mesh import ObjectModel

CUBE = ObjectModel("cube", np.array(
    [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
))


class TestBuildAnchorSet:
    def test_all_points_are_anchors(self):
        a = build_anchor_set(CUBE, 8)
        assert a.covering_radius == 0.0

    def test_single_anchor_covering_radius_brute_force(self):
        a = build_anchor_set(CUBE, 1)
        brute = max(np.linalg.norm(p - a.anchors[0]) for p in CUBE.points)
        assert a.covering_radius == pytest.approx(brute, abs=0)
        assert a.covering_radius == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_default_anchor_count(self, blob_model):
        assert DEFAULT_ANCHOR_COUNT == 32
        assert build_anchor_set(blob_model).k == 32

    def test_anchors_pairwise_distinct(self, blob_anchors):
        d = blob_anchors.anchors
        gram = ((d[:, None, :] - d[None, :, :]) ** 2).sum(-1)
        gram[np.diag_indices(len(d))] = np.inf
        assert gram.min() > 0

    def test_duplicate_anchors_rejected(self):
        with pytest.raises(ValueError):
            AnchorSet("x", np.zeros((2, 3)), 0.0)


class TestEncodeDecode:
    def test_anchor_point_is_zero_residual(self, blob_anchors):
        idx, res = encode_points(blob_anchors.anchors[[0, 5, 31]], blob_anchors)
        np.testing.assert_array_equal(idx, [0, 5, 31])
        np.testing.assert_array_equal(res, np.zeros((3, 3)))

    def test_nearest_by_brute_force(self):
        anchors = build_anchor_set(CUBE, 8)
        p = np.array([0.1, 0.0, 0.0])
        idx, res = encode_points(p, anchors)
        brute = int(np.argmin([np.linalg.norm(p - a) for a in anchors.anchors]))
        assert idx.tolist() == [brute]
        np.testing.assert_array_equal(anchors.anchors[idx[0]], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(res, [[0.1, 0.0, 0.0]], atol=0)

    def test_tie_breaks_to_lowest_index(self):
        anchors = AnchorSet("pair", np.array([[0.0, 0, 0], [1.0, 0, 0]]), 1.0)
        idx, _ = encode_points(np.array([[0.5, 0.0, 0.0], [0.5, 1.0, -1.0]]), anchors)
        np.testing.assert_array_equal(idx, [0, 0])

    def test_decode_anchor(self, blob_anchors):
        np.testing.assert_array_equal(
            decode_points([3], np.zeros((1, 3)), blob_anchors), blob_anchors.anchors[[3]]
        )

    def test_background_not_decodable(self, blob_anchors):
        with pytest.raises(IndexOutOfRange):
            decode_points([blob_anchors.k], np.zeros((1, 3)), blob_anchors)
        with pytest.raises(IndexOutOfRange):
            decode_points([0, blob_anchors.k], np.zeros((2, 3)), blob_anchors)
        with pytest.raises(IndexOutOfRange):
            decode_points([-1], np.zeros((1, 3)), blob_anchors)

    def test_round_trip_exact_on_model(self, blob_model, blob_anchors):
        idx, res = encode_points(blob_model.points, blob_anchors)
        back = decode_points(idx, res, blob_anchors)
        assert np.array_equal(back, blob_model.points)

    def test_residual_bound(self, blob_model, blob_anchors):
        _, res = encode_points(blob_model.points, blob_anchors)
        norms = np.linalg.norm(res, axis=1)
        assert norms.max() <= blob_anchors.covering_radius + 1e-12

    def test_covering_radius_monotone_in_k(self, blob_model):
        covs = [build_anchor_set(blob_model, k).covering_radius
                for k in (4, 8, 16, 32)]
        assert all(a >= b for a, b in zip(covs, covs[1:]))

    def test_partition_covers_model(self, blob_model, blob_anchors):
        idx, _ = encode_points(blob_model.points, blob_anchors)
        assert idx.shape == (len(blob_model.points),)
        assert idx.min() >= 0 and idx.max() < blob_anchors.k
        # every region with an anchor in the model is hit by its own anchor
        anchor_idx, _ = encode_points(blob_anchors.anchors, blob_anchors)
        np.testing.assert_array_equal(anchor_idx, np.arange(blob_anchors.k))

    @given(coords=st.lists(st.floats(-0.08, 0.08), min_size=3, max_size=3))
    @settings(max_examples=100)
    def test_round_trip_near_exact_off_grid(self, coords, blob_anchors):
        # arbitrary (non grid-snapped) points reconstruct to float precision
        p = np.array(coords)
        back = decode_points(*encode_points(p, blob_anchors), blob_anchors)
        np.testing.assert_allclose(back, p[None], atol=1e-15)


def test_anchor_set_json_round_trip(tmp_path, blob_anchors):
    path = tmp_path / "anchors.json"
    save_anchor_set(blob_anchors, path)
    with open(path) as f:
        raw = json.load(f)
    assert raw["object_id"] == blob_anchors.object_id
    assert len(raw["anchors"]) == blob_anchors.k
    back = load_anchor_set(path)
    np.testing.assert_array_equal(back.anchors, blob_anchors.anchors)
    assert back.covering_radius == blob_anchors.covering_radius
