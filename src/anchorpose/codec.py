"""Residual anchor coding of object-surface coordinates.

A point on the object is stored as (nearest-anchor class, residual vector).
Anchors come from farthest point sampling, which partitions the surface
into nearest-anchor regions; the covering radius of the anchor set bounds
every residual produced from model points, so growing the anchor count
shrinks the space the fine part has to cover.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .mesh import ObjectModel, fps

DEFAULT_ANCHOR_COUNT = 32


class IndexOutOfRange(ValueError):
    """Anchor index outside [0, K); the background class is not decodable."""


@dataclass
class AnchorSet:
    """K anchor points for one object, plus the cached covering radius."""

    object_id: str
    anchors: np.ndarray  # (K, 3) float64, meters, object frame
    covering_radius: float

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.anchors, dtype=np.float64))
        if a.ndim != 2 or a.shape[1] != 3 or len(a) < 1:
            raise ValueError(f"anchors must be (K>=1, 3), got shape {a.shape}")
        if len(a) > 1:
            d2 = ((a[:, None, :] - a[None, :, :]) ** 2).sum(-1)
            d2[np.diag_indices(len(a))] = np.inf
            if not d2.min() > 0:
                raise ValueError("anchors must be pairwise distinct")
        if not self.covering_radius >= 0:
            raise ValueError("covering_radius must be >= 0")
        a.setflags(write=False)
        self.anchors = a

    @property
    def k(self) -> int:
        return len(self.anchors)

    def to_json(self) -> dict:
        return {
            "object_id": self.object_id,
            "anchors": [[float(x) for x in a] for a in self.anchors],
            "covering_radius": float(self.covering_radius),
        }

    @staticmethod
    def from_json(obj: dict) -> "AnchorSet":
        return AnchorSet(
            obj["object_id"],
            np.asarray(obj["anchors"], dtype=np.float64),
            float(obj.get("covering_radius", 0.0)),
        )


def build_anchor_set(model: ObjectModel, k: int = DEFAULT_ANCHOR_COUNT) -> AnchorSet:
    """FPS anchors plus the covering radius over all model points."""
    anchors = fps(model, k)
    _, dist = nearest_anchor(model.points, anchors)
    return AnchorSet(model.id, anchors, float(dist.max()))


def nearest_anchor(points: np.ndarray, anchors: np.ndarray):
    """Index of and distance to the nearest anchor for (N, 3) points.

    Ties resolve to the lowest anchor index.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    idx = np.empty(len(pts), dtype=np.intp)
    dist = np.empty(len(pts))
    block = 16384
    for i in range(0, len(pts), block):
        d2 = ((pts[i : i + block, None, :] - anchors[None, :, :]) ** 2).sum(-1)
        idx[i : i + block] = np.argmin(d2, axis=1)
        dist[i : i + block] = np.sqrt(d2[np.arange(len(d2)), idx[i : i + block]])
    return idx, dist


def encode_points(points, anchors: AnchorSet):
    """Encode (N, 3) points as (nearest anchor indices (N,), point - anchor (N, 3))."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    idx, _ = nearest_anchor(pts, anchors.anchors)
    return idx, pts - anchors.anchors[idx]


def decode_points(indices, residuals, anchors: AnchorSet) -> np.ndarray:
    """Reconstruct anchor + residual from (N,) indices and (N, 3) residuals.

    The background index K is not decodable.
    """
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= anchors.k):
        raise IndexOutOfRange(f"anchor index outside [0, {anchors.k})")
    return anchors.anchors[idx] + np.asarray(residuals, dtype=np.float64)


def save_anchor_set(anchors: AnchorSet, path) -> None:
    with open(path, "w") as f:
        json.dump(anchors.to_json(), f, indent=2, sort_keys=True)
        f.write("\n")


def load_anchor_set(path) -> AnchorSet:
    with open(path) as f:
        return AnchorSet.from_json(json.load(f))
