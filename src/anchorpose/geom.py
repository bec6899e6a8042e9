"""Rigid-body poses, the pinhole camera model, and the crop affine.

Conventions used throughout the package:

* a pose maps object-frame points into the camera frame,
  ``x_cam = R @ x_obj + t``, with ``t`` in meters;
* image ``u`` points right, ``v`` points down, and pixel centers sit at
  integer coordinates, so pixel ``(0, 0)`` is the center of the top-left
  pixel and backprojection is exact at integer pixels;
* projection divides by the camera-frame depth ``Zc``, which must exceed
  ``NEAR_EPS`` for a point to count as being in front of the camera.

All types here are immutable values and all operations are pure functions,
so everything is safe to share across threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Near-plane epsilon: avoids division blowup without rejecting legitimate
# close-range geometry.
NEAR_EPS = 1e-9

_ORTHO_TOL = 1e-9


class PointBehindCamera(ValueError):
    """Projection was requested for a point at or behind the image plane."""


class NotARotation(ValueError):
    """A matrix expected to be a rotation is not orthonormal with det +1."""


def _vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Pose:
    """Rigid transform: 3x3 rotation plus translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
        t = _vec3(self.translation)
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise ValueError("pose values must be finite")
        ortho = float(np.abs(r.T @ r - np.eye(3)).max())
        if not ortho < _ORTHO_TOL:
            raise NotARotation(f"R^T R deviates from identity by {ortho:.3e}")
        det = float(np.linalg.det(r))
        if not abs(det - 1.0) < _ORTHO_TOL:
            raise NotARotation(f"det(R) = {det!r}, expected +1")
        object.__setattr__(self, "rotation", _frozen(r))
        object.__setattr__(self, "translation", _frozen(t))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        """Map object-frame points, shape (3,) or (N, 3), into the camera frame."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def to_json(self) -> dict:
        return {
            "R": [float(x) for x in self.rotation.ravel()],
            "t": [float(x) for x in self.translation],
        }

    @staticmethod
    def from_json(obj: dict) -> "Pose":
        r = np.asarray(obj["R"], dtype=np.float64).reshape(3, 3)
        return Pose(r, np.asarray(obj["t"], dtype=np.float64))


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera matrix parameters, all in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy]).all():
            raise ValueError("intrinsics must be finite")
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")

    def to_json(self) -> dict:
        return {"fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy}

    @staticmethod
    def from_json(obj: dict) -> "Intrinsics":
        return Intrinsics(
            float(obj["fx"]), float(obj["fy"]), float(obj["cx"]), float(obj["cy"])
        )


@dataclass(frozen=True)
class CropAffine:
    """2D crop/zoom affine: ``u' = scale_u * u + offset_u`` and likewise for v.

    Represents the 3x3 matrix [[s_u, 0, o_u], [0, s_v, o_v], [0, 0, 1]]
    by its four free parameters.
    """

    scale_u: float
    scale_v: float
    offset_u: float
    offset_v: float

    def __post_init__(self):
        if not (self.scale_u > 0 and self.scale_v > 0):
            raise ValueError("affine scales must be positive")

    def apply(self, uv) -> np.ndarray:
        """Map pixel coordinates, shape (2,) or (..., 2)."""
        uv = np.asarray(uv, dtype=np.float64)
        out = np.empty_like(uv)
        out[..., 0] = self.scale_u * uv[..., 0] + self.offset_u
        out[..., 1] = self.scale_v * uv[..., 1] + self.offset_v
        return out


def project(point, pose: Pose, k: Intrinsics) -> np.ndarray:
    """Project an object-frame point to pixel coordinates (u, v).

    The scalar pinhole reference the crop-intrinsics tests compare against;
    the solvers project in bulk inside their residuals. Raises PointBehindCamera when the camera-frame depth is <= NEAR_EPS.
    """
    xc = pose.apply(_vec3(point))
    z = xc[2]
    if not z > NEAR_EPS:
        raise PointBehindCamera(f"camera-frame depth {z!r} <= {NEAR_EPS}")
    return np.array([k.fx * xc[0] / z + k.cx, k.fy * xc[1] / z + k.cy])


def backproject_grid(u, v, depth, k: Intrinsics) -> np.ndarray:
    """Vectorized backprojection; caller is responsible for masking depth <= 0."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    out = np.empty(u.shape + (3,))
    out[..., 0] = (u - k.cx) * depth / k.fx
    out[..., 1] = (v - k.cy) * depth / k.fy
    out[..., 2] = depth
    return out
