"""RoI cropping with intrinsic adjustment, grid maps, and the .npz archive.

Cropping an image window and resampling it to a square output is an affine
map A on pixel coordinates; applying the same A on the left of the camera
matrix yields crop intrinsics under which projection into the output is
exact. Grid maps carry, per output cell, the original-image uv coordinate
of the cell center and the camera-frame xyz point obtained from the depth
at its nearest pixel; computing xyz through the original intrinsics plus
the warp or directly through the crop intrinsics must agree to float
precision.

Scenes and dense maps are stored the same way on disk: one uncompressed
``.npz`` holding arrays and a JSON header with a format tag, read without
pickle support. Every input file, these archives and the JSON manifests,
registry and poses alike, is parsed under ``parsing``, the one place that
turns what reading or validating it raises into ``MalformedInput``.
"""

from __future__ import annotations

import json
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .geom import CropAffine, Intrinsics, backproject_grid, json_number

# Default resolution of the dense correspondence maps.
CORR_RES = 64


class EmptyIntersection(ValueError):
    """The crop window does not overlap the image."""


class MalformedInput(ValueError):
    """An input file (a scene or maps ``.npz``, a manifest, registry or poses
    JSON) that cannot be read or fails validation."""


@dataclass(frozen=True)
class Roi:
    """A crop window in the original image plus the square output resolution.

    ``center_*`` and ``size_*`` are in original-image pixels; ``out_res``
    is the side length of the resampled output in cells.
    """

    center_u: float
    center_v: float
    size_u: float
    size_v: float
    out_res: int

    def __post_init__(self):
        if not np.isfinite([self.center_u, self.center_v, self.size_u, self.size_v]).all():
            raise ValueError("crop window must be finite")
        if not (self.size_u > 0 and self.size_v > 0):
            raise ValueError("crop sizes must be positive")
        if not self.out_res >= 2:
            raise ValueError("out_res must be >= 2")

    @property
    def u0(self) -> float:
        return self.center_u - self.size_u / 2.0

    @property
    def v0(self) -> float:
        return self.center_v - self.size_v / 2.0

    def to_json(self) -> dict:
        return {
            "cu": self.center_u,
            "cv": self.center_v,
            "su": self.size_u,
            "sv": self.size_v,
            "res": self.out_res,
        }

    @staticmethod
    def from_json(obj: dict) -> "Roi":
        res = obj["res"]
        if isinstance(res, bool) or not isinstance(res, int):
            raise TypeError(f"res {res!r} is not an integer")
        return Roi(*(json_number(obj[key]) for key in ("cu", "cv", "su", "sv")), res)


@dataclass
class GridMaps:
    """Per-cell uv (original-image pixels), camera xyz, and validity grids.

    ``roi`` records the crop the maps were built from; the crop affine and
    hence the output-frame coordinates of every cell derive from it.
    """

    uv: np.ndarray       # (R, R, 2) float64
    cam_xyz: np.ndarray  # (R, R, 3) float64, zeros where invalid
    valid: np.ndarray    # (R, R) bool
    roi: Roi

    def __post_init__(self):
        r = self.roi.out_res
        if self.uv.shape != (r, r, 2) or self.cam_xyz.shape != (r, r, 3):
            raise ValueError("grid shapes inconsistent with roi.out_res")
        if self.valid.shape != (r, r) or self.valid.dtype != bool:
            raise ValueError("valid must be a (R, R) bool grid")
        if np.any(self.cam_xyz[~self.valid] != 0):
            raise ValueError("cam_xyz must be zero where invalid")

    @property
    def out_res(self) -> int:
        return self.roi.out_res


def crop_affine(roi: Roi) -> CropAffine:
    """Affine mapping original pixels to output cells for this RoI."""
    su = roi.out_res / roi.size_u
    sv = roi.out_res / roi.size_v
    return CropAffine(su, sv, -su * roi.u0, -sv * roi.v0)


def adjust_intrinsics(k_org: Intrinsics, a: CropAffine) -> Intrinsics:
    """Crop intrinsics: the affine applied on the left of the camera matrix."""
    return Intrinsics(
        a.scale_u * k_org.fx,
        a.scale_v * k_org.fy,
        a.scale_u * k_org.cx + a.offset_u,
        a.scale_v * k_org.cy + a.offset_v,
    )


def cell_sample_grid(roi: Roi, width: int, height: int):
    """Continuous uv of each output cell center and its nearest pixel.

    Returns (u, v, flat): (R, R) float grids of original-image coordinates
    and the flat index ``py * width + px`` of each cell's nearest pixel, -1
    for a cell outside the image. Raises ``EmptyIntersection`` when the crop
    window does not overlap the ``width`` x ``height`` image.
    """
    if (roi.u0 > width - 0.5 or roi.u0 + roi.size_u < -0.5
            or roi.v0 > height - 0.5 or roi.v0 + roi.size_v < -0.5):
        raise EmptyIntersection("crop window does not overlap the image")
    a = crop_affine(roi)
    jj, ii = np.meshgrid(np.arange(roi.out_res), np.arange(roi.out_res))
    u = (jj - a.offset_u) / a.scale_u
    v = (ii - a.offset_v) / a.scale_v
    px = np.floor(u + 0.5).astype(np.int64)
    py = np.floor(v + 0.5).astype(np.int64)
    inside = (px >= 0) & (px < width) & (py >= 0) & (py < height)
    return u, v, np.where(inside, py * width + px, -1)


def make_grid_maps(u: np.ndarray, v: np.ndarray, depth: np.ndarray, roi: Roi,
                   k_org: Intrinsics) -> GridMaps:
    """Build uv / camera-xyz / validity grids from the cell centers (u, v)
    of ``roi`` and the depth sampled at them.

    The depth of a cell is its nearest pixel's (never interpolated, which
    would fabricate 3D points across depth discontinuities); cells falling
    outside the image or on zero depth carry 0 and are marked invalid
    rather than clamped.
    """
    valid = depth > 0
    cam = backproject_grid(u, v, depth, k_org)
    cam[~valid] = 0.0
    return GridMaps(np.stack([u, v], axis=-1), cam, valid, roi)


# ---------------------------------------------------------------------------
# Archive i/o: one uncompressed .npz of named arrays plus a JSON header
# (`meta`), the envelope of both the scene and the dense-maps files

def save_archive(path, fmt: str, meta: dict, arrays: dict) -> None:
    """Write ``arrays`` as they are, then ``meta`` tagged with the format
    ``fmt`` as a JSON string, to the ``.npz`` file ``path``."""
    np.savez(path, **arrays,
             meta=np.array(json.dumps({"format": fmt, **meta}, sort_keys=True)))


@contextmanager
def parsing(path):
    """Re-raise every fault met while reading or validating the input file
    ``path`` as ``MalformedInput``: a file that is not a zip or is cut short,
    a missing key, a wrong type or a bad value, including text that is not
    UTF-8 or not JSON, or a pose whose matrix is not a rotation."""
    try:
        yield
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"{path} is malformed: {exc!r}") from exc


def load_archive(path, fmt: str, names, build):
    """``build(arrays, meta)`` on the arrays ``names`` and the JSON header of
    the ``fmt`` archive ``path``, read with ``allow_pickle=False``.

    Raises ``MalformedInput`` when the file is not a readable ``.npz``,
    lacks an array, holds a pickled one, its header is not a ``fmt`` header,
    or ``build`` raises KeyError, TypeError or ValueError.
    """
    with parsing(path):
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as z:
            arrays = {name: z[name] for name in names}
            meta = json.loads(str(z["meta"]))
        if not isinstance(meta, dict) or meta.get("format") != fmt:
            raise ValueError(f"meta is not an {fmt} header")
        return build(arrays, meta)
