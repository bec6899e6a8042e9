"""Residual anchor coding of object-surface coordinates.

A point on the object is stored as (nearest-anchor class, residual vector).
Anchors come from farthest point sampling, which partitions the surface
into nearest-anchor regions; the covering radius of the anchor set bounds
every residual produced from model points, so growing the anchor count
shrinks the space the fine part has to cover.
"""

from __future__ import annotations

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
            float(obj["covering_radius"]),
        )


def build_anchor_set(model: ObjectModel, k: int = DEFAULT_ANCHOR_COUNT) -> AnchorSet:
    """FPS anchors plus the covering radius over all model points, from one FPS."""
    idx, radius = fps(model.points, k)
    return AnchorSet(model.id, model.points[idx], radius)


def nearest_anchor(points: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Index of the nearest anchor for (N, 3) points.

    Ties resolve to the lowest anchor index. The squared distances are built
    as (N, K) planes, one coordinate at a time and summed x + y + z: the
    order of ``((p - a) ** 2).sum(-1)``, so the indices equal that
    formula's without its (N, K, 3) temporary.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    a = np.asarray(anchors, dtype=np.float64)
    idx = np.empty(len(pts), dtype=np.intp)
    block = 16384
    for i in range(0, len(pts), block):
        p = pts[i : i + block]
        d2 = np.subtract.outer(p[:, 0], a[:, 0])
        d2 *= d2
        for c in (1, 2):
            dc = np.subtract.outer(p[:, c], a[:, c])
            dc *= dc
            d2 += dc
        idx[i : i + block] = np.argmin(d2, axis=1)
    return idx


def encode_points(points, anchors: AnchorSet):
    """Encode (N, 3) points as (nearest anchor indices (N,), point - anchor (N, 3))."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    idx = nearest_anchor(pts, anchors.anchors)
    return idx, pts - anchors.anchors[idx]


def decode_points(indices, residuals, anchors: AnchorSet) -> np.ndarray:
    """Reconstruct anchor + residual from (N,) indices and (N, 3) residuals.

    The background index K is not decodable.
    """
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= anchors.k):
        raise IndexOutOfRange(f"anchor index outside [0, {anchors.k})")
    return anchors.anchors[idx] + np.asarray(residuals, dtype=np.float64)

