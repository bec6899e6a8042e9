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
    nearest_anchor,
)
from anchorpose.mesh import ObjectModel
from anchorpose.synth import SHAPES, make_model

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


def test_anchor_set_json_round_trip(blob_anchors):
    raw = json.loads(json.dumps(blob_anchors.to_json()))
    assert raw["object_id"] == blob_anchors.object_id
    assert len(raw["anchors"]) == blob_anchors.k
    back = AnchorSet.from_json(raw)
    np.testing.assert_array_equal(back.anchors, blob_anchors.anchors)
    assert back.covering_radius == blob_anchors.covering_radius


def _broadcast_nearest(points, anchors, block=16384):
    """Reference: the (N, K, 3) broadcast formula ``nearest_anchor`` replaced."""
    idx = np.empty(len(points), dtype=np.intp)
    dist = np.empty(len(points))
    for i in range(0, len(points), block):
        d2 = ((points[i : i + block, None, :] - anchors[None, :, :]) ** 2).sum(-1)
        idx[i : i + block] = np.argmin(d2, axis=1)
        dist[i : i + block] = np.sqrt(d2[np.arange(len(d2)), idx[i : i + block]])
    return idx, dist


class TestNearestAnchor:
    """Indices are identical to the broadcast formula's."""

    def _assert_matches_reference(self, points, anchors):
        idx = nearest_anchor(points, anchors)
        np.testing.assert_array_equal(idx, _broadcast_nearest(points, anchors)[0])
        return idx

    @pytest.mark.parametrize("seed, n, k", [(0, 1100, 32), (1, 1100, 1), (2, 257, 128)])
    def test_random_points(self, seed, n, k):
        rng = np.random.default_rng(seed)
        self._assert_matches_reference(rng.normal(size=(n, 3)) * 0.05,
                                       rng.normal(size=(k, 3)) * 0.05)

    def test_model_points_and_fps_anchors(self, blob_model, blob_anchors):
        self._assert_matches_reference(blob_model.points, blob_anchors.anchors)

    def test_exact_ties_pick_lowest_index(self):
        # midpoints and cell centres of a unit grid are equidistant (exactly,
        # in binary) from two, four or eight anchors; shuffled anchor order
        # makes "lowest index" differ from "first in grid order"
        grid = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
                         for z in (0.0, 1.0)])
        anchors = grid[np.random.default_rng(3).permutation(8)]
        points = np.array([[0.5, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.5, 0.5],
                           [0.0, 1.0, 0.5], [1.0, 0.5, 1.0]])
        idx = self._assert_matches_reference(points, anchors)
        for p, i in zip(points, idx):
            d_all = np.linalg.norm(anchors - p, axis=1)
            tied = np.flatnonzero(d_all == d_all.min())
            assert len(tied) >= 2
            assert i == tied[0]
            assert d_all[i] == d_all.min()

    def test_rows_beyond_one_block(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(-0.1, 0.1, size=(2 * 16384 + 5, 3))
        self._assert_matches_reference(points, rng.uniform(-0.1, 0.1, size=(32, 3)))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", [300, 2500])
@pytest.mark.parametrize("k", [1, 2, 7, 32, 128])
def test_covering_radius_equals_nearest_anchor_oracle(shape, n, k):
    """FPS's radius equals the largest nearest-anchor distance, bit for bit."""
    model = make_model(shape, n, 0.12, 7)
    anchors = build_anchor_set(model, k)
    assert anchors.covering_radius == _broadcast_nearest(model.points, anchors.anchors)[1].max()
