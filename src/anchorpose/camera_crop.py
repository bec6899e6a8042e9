"""RoI cropping with intrinsic adjustment, zoom-in jitter, and grid maps.

Cropping an image window and resampling it to a square output is an affine
map A on pixel coordinates; applying the same A on the left of the camera
matrix yields crop intrinsics under which projection into the output is
exact. Grid maps carry, per output cell, the original-image uv coordinate
of the cell center and the camera-frame xyz point obtained from the depth
image; computing xyz through the original intrinsics plus the warp or
directly through the crop intrinsics must agree to float precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import CropAffine, Intrinsics, backproject_grid

# Default resolution of the dense correspondence maps.
CORR_RES = 64

DZI_SHIFT_RATIO = 0.25
DZI_ZOOM = 1.5


class EmptyIntersection(ValueError):
    """The crop window does not overlap the image."""


class MalformedImage(ValueError):
    """A PFM/PGM file with a bad header, a short body or non-finite values."""


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
        return Roi(
            float(obj["cu"]), float(obj["cv"]),
            float(obj["su"]), float(obj["sv"]), int(obj["res"]),
        )


@dataclass
class DepthImage:
    """Row-major depth grid in meters; 0 encodes invalid."""

    width: int
    height: int
    data: np.ndarray  # (height, width) float64

    def __post_init__(self):
        d = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if d.shape != (self.height, self.width):
            raise ValueError(
                f"data shape {d.shape} != (height={self.height}, width={self.width})"
            )
        if not np.all(np.isfinite(d)):
            raise ValueError("depth values must be finite")
        if d.size and d.min() < 0:
            raise ValueError("depth values must be >= 0")
        d.setflags(write=False)
        self.data = d

    @staticmethod
    def from_array(a) -> "DepthImage":
        a = np.asarray(a, dtype=np.float64)
        return DepthImage(a.shape[1], a.shape[0], a)


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


def dzi_jitter(gt_box: Roi, rng_seed, shift_ratio: float = DZI_SHIFT_RATIO,
               zoom: float = DZI_ZOOM) -> Roi:
    """Zoom-in augmentation jitter for a ground-truth box.

    Shifts the center by uniform(-shift_ratio, shift_ratio) of the box size
    per axis and scales the size by uniform(1-shift_ratio, 1+shift_ratio),
    then squares the window at zoom times the larger side so the object
    keeps its aspect ratio and fills roughly 1/zoom of the output.
    """
    rng = np.random.default_rng(rng_seed)
    du = rng.uniform(-shift_ratio, shift_ratio)
    dv = rng.uniform(-shift_ratio, shift_ratio)
    ds = rng.uniform(1.0 - shift_ratio, 1.0 + shift_ratio)
    cu = gt_box.center_u + du * gt_box.size_u
    cv = gt_box.center_v + dv * gt_box.size_v
    side = zoom * max(gt_box.size_u * ds, gt_box.size_v * ds)
    return Roi(cu, cv, side, side, gt_box.out_res)


def cell_sample_grid(roi: Roi, width: int, height: int):
    """Continuous uv of each output cell center plus nearest sample pixels.

    Returns (u, v, px, py, inside): (R, R) float grids of original-image
    coordinates, integer nearest-neighbor pixel indices, and an in-image
    mask.
    """
    a = crop_affine(roi)
    jj, ii = np.meshgrid(np.arange(roi.out_res), np.arange(roi.out_res))
    u = (jj - a.offset_u) / a.scale_u
    v = (ii - a.offset_v) / a.scale_v
    px = np.floor(u + 0.5).astype(np.int64)
    py = np.floor(v + 0.5).astype(np.int64)
    inside = (px >= 0) & (px < width) & (py >= 0) & (py < height)
    return u, v, px, py, inside


def make_grid_maps(depth: DepthImage, roi: Roi, k_org: Intrinsics) -> GridMaps:
    """Build uv / camera-xyz / validity grids for a crop of a depth image.

    Depth is sampled nearest-neighbor (never interpolated, which would
    fabricate 3D points across depth discontinuities); cells falling
    outside the image or on zero depth are marked invalid rather than
    clamped.
    """
    if (roi.u0 > depth.width - 0.5 or roi.u0 + roi.size_u < -0.5
            or roi.v0 > depth.height - 0.5 or roi.v0 + roi.size_v < -0.5):
        raise EmptyIntersection("crop window does not overlap the image")

    u, v, px, py, inside = cell_sample_grid(roi, depth.width, depth.height)
    d = np.zeros_like(u)
    d[inside] = depth.data[py[inside], px[inside]]
    valid = inside & (d > 0)

    cam = backproject_grid(u, v, d, k_org)
    cam[~valid] = 0.0
    return GridMaps(np.stack([u, v], axis=-1), cam, valid, roi)


# ---------------------------------------------------------------------------
# PFM i/o (little-endian portable float maps, scale -1.0, bottom-up rows)

def write_pfm(path, data) -> None:
    a = np.asarray(data, dtype="<f4")
    if a.ndim == 2:
        magic = b"Pf"
    elif a.ndim == 3 and a.shape[2] == 3:
        magic = b"PF"
    else:
        raise ValueError(f"PFM supports (H, W) or (H, W, 3), got {a.shape}")
    with open(path, "wb") as f:
        f.write(magic + b"\n")
        f.write(f"{a.shape[1]} {a.shape[0]}\n".encode("ascii"))
        f.write(b"-1.0\n")
        f.write(np.flipud(a).tobytes())


def read_pfm(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    parts = raw.split(b"\n", 3)
    if len(parts) < 4:
        raise MalformedImage("truncated PFM header")
    magic, dims, scale, body = parts
    if magic not in (b"Pf", b"PF"):
        raise MalformedImage(f"bad PFM magic {magic!r}")
    try:
        w, h = (int(x) for x in dims.split())
        scale = float(scale)
    except ValueError as exc:
        raise MalformedImage(f"bad PFM header: {exc}") from None
    dtype = "<f4" if scale < 0 else ">f4"
    channels = 3 if magic == b"PF" else 1
    count = w * h * channels
    if len(body) < 4 * count:
        raise MalformedImage(f"PFM body holds {len(body)} of {4 * count} bytes")
    arr = np.frombuffer(body, dtype=dtype, count=count).astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise MalformedImage("PFM holds non-finite values")
    shape = (h, w, 3) if channels == 3 else (h, w)
    return np.flipud(arr.reshape(shape)).copy()
