"""Dense per-pixel correspondence maps and their supervision losses.

Ground-truth maps are built by backprojecting a scene's depth through the
crop grid, mapping camera points into the object frame with the inverse
ground-truth pose, and residual-coding the result. A seeded corruption
stage stands in for a learned predictor's error so solver and metric
behavior can be studied under controlled noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .camera_crop import (
    GridMaps,
    Roi,
    cell_sample_grid,
    crop_affine,
    load_archive,
    make_grid_maps,
    save_archive,
)
from .codec import AnchorSet, encode_points
from .geom import Intrinsics, Pose
from .synth import SceneSample


class ObjectMismatch(ValueError):
    """Scene and anchor set refer to different objects."""


class ShapeMismatch(ValueError):
    """Loss inputs have inconsistent shapes."""


class NonFinite(ValueError):
    """A loss component is NaN or infinite."""


@dataclass
class DenseMaps:
    """Per-cell mask, region class and residual over one crop grid.

    ``classes`` holds each cell's nearest-anchor index in [0, K), or K for
    background. Ground-truth maps have a binary mask; corrupted maps keep
    the same layout. ``anchors`` records the coding anchor set the maps
    were built against.
    """

    mask: np.ndarray      # (R, R) float64 in [0, 1]
    classes: np.ndarray   # (R, R) integer in [0, K]; K is background
    residual: np.ndarray  # (R, R, 3) float64
    grids: GridMaps
    anchors: AnchorSet

    def __post_init__(self):
        r = self.grids.out_res
        if self.mask.shape != (r, r) or self.classes.shape != (r, r):
            raise ValueError("mask/classes shape inconsistent with grids")
        if self.residual.shape != (r, r, 3):
            raise ValueError("residual must be (R, R, 3)")
        if not np.issubdtype(self.classes.dtype, np.integer):
            raise ValueError(f"classes must be integers, got {self.classes.dtype}")
        if self.classes.min() < 0 or self.classes.max() > self.k:
            raise ValueError(f"classes outside [0, {self.k}]")
        for name, a in (("mask", self.mask), ("residual", self.residual),
                        ("uv", self.grids.uv), ("cam_xyz", self.grids.cam_xyz)):
            if not np.issubdtype(a.dtype, np.floating) or not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite floats")

    @property
    def k(self) -> int:
        return self.anchors.k

    @property
    def region_probs(self) -> np.ndarray:
        """(R, R, K+1) float64 one-hot rows of ``classes``, built on each read;
        kept because ``loss_coarse`` scores probabilities and the benchmark
        harness (``perfbench``) sizes this array."""
        probs = np.zeros(self.classes.shape + (self.k + 1,))
        np.put_along_axis(probs, self.classes[..., None], 1.0, axis=-1)
        return probs

    @property
    def anchor_xyz(self) -> np.ndarray:
        """(R, R, 3) anchor of each cell's class, zeros for background; kept
        only because the benchmark harness (``perfbench``) reads it."""
        return np.vstack([self.anchors.anchors, np.zeros((1, 3))])[self.classes]


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded corruption model standing in for network prediction error.

    ``residual_sigma`` is i.i.d. per-cell Gaussian noise on the residual
    plane, ``residual_bias_sigma`` a per-map constant offset (correlated
    error); ``uv_sigma`` is pixel noise in output-cell units. Defaults are
    harness conventions.
    """

    residual_sigma: float = 0.005
    label_flip_prob: float = 0.02
    mask_flip_prob: float = 0.0
    depth_sigma: float = 0.0
    seed: int = 0
    residual_bias_sigma: float = 0.0
    uv_sigma: float = 0.0

    def __post_init__(self):
        for p in (self.label_flip_prob, self.mask_flip_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("flip probabilities must be in [0, 1]")
        for s in (self.residual_sigma, self.depth_sigma,
                  self.residual_bias_sigma, self.uv_sigma):
            if not s >= 0.0:
                raise ValueError("noise sigmas must be >= 0")


def ground_truth_maps(scene: SceneSample, anchors: AnchorSet, roi: Roi) -> DenseMaps:
    """Supervision targets for one scene crop.

    Cells whose sample pixel is a visible object pixel get mask 1 and the
    region class and residual of the camera point mapped back into the
    object frame; everything else is background (class K).
    """
    if scene.object_id != anchors.object_id:
        raise ObjectMismatch(
            f"scene object {scene.object_id!r} != anchors object {anchors.object_id!r}"
        )
    grids = make_grid_maps(scene.depth, roi, scene.intrinsics)
    _, _, px, py, inside = cell_sample_grid(roi, scene.depth.width, scene.depth.height)
    vis = np.zeros_like(inside)
    vis[inside] = scene.vis_mask[py[inside], px[inside]]
    fg = grids.valid & vis

    r = roi.out_res
    classes = np.full((r, r), anchors.k, dtype=np.intp)
    residual = np.zeros((r, r, 3))
    if fg.any():
        pose = scene.gt_pose
        obj_pts = (grids.cam_xyz[fg] - pose.translation) @ pose.rotation
        classes[fg], residual[fg] = encode_points(obj_pts, anchors)

    return DenseMaps(
        mask=fg.astype(np.float64),
        classes=classes,
        residual=residual,
        grids=grids,
        anchors=anchors,
    )


def corrupt(maps: DenseMaps, noise: NoiseSpec) -> DenseMaps:
    """Apply the noise model; deterministic given ``noise.seed``.

    Draw order is fixed (residual, labels, mask, depth, uv) and every draw
    covers the full grid, so results depend only on the seed and shapes.
    """
    rng = np.random.default_rng(noise.seed)
    r = maps.grids.out_res
    k = maps.k
    masked = maps.mask > 0.5

    residual = maps.residual.copy()
    res_noise = rng.normal(0.0, 1.0, (r, r, 3))
    bias = rng.normal(0.0, 1.0, 3)
    if noise.residual_sigma > 0:
        residual[masked] += noise.residual_sigma * res_noise[masked]
    if noise.residual_bias_sigma > 0:
        residual[masked] += noise.residual_bias_sigma * bias

    classes = maps.classes.copy()
    flip_draw = rng.random((r, r))
    resampled = rng.integers(0, k + 1, (r, r))
    if noise.label_flip_prob > 0:
        flip = masked & (flip_draw < noise.label_flip_prob)
        classes[flip] = resampled[flip]

    mask = maps.mask.copy()
    mask_draw = rng.random((r, r))
    if noise.mask_flip_prob > 0:
        flip = mask_draw < noise.mask_flip_prob
        mask[flip] = 1.0 - mask[flip]

    cam_xyz = maps.grids.cam_xyz.copy()
    depth_noise = rng.normal(0.0, 1.0, (r, r))
    if noise.depth_sigma > 0:
        valid = maps.grids.valid
        z = cam_xyz[..., 2]
        z_new = np.maximum(z + noise.depth_sigma * depth_noise, 1e-6)
        factor = np.where(valid, z_new / np.where(valid, z, 1.0), 1.0)
        cam_xyz *= factor[..., None]

    uv = maps.grids.uv.copy()
    uv_noise = rng.normal(0.0, 1.0, (r, r, 2))
    if noise.uv_sigma > 0:
        a = crop_affine(maps.grids.roi)
        uv[..., 0] += (noise.uv_sigma / a.scale_u) * uv_noise[..., 0]
        uv[..., 1] += (noise.uv_sigma / a.scale_v) * uv_noise[..., 1]

    return DenseMaps(
        mask=mask,
        classes=classes,
        residual=residual,
        grids=GridMaps(uv, cam_xyz, maps.grids.valid.copy(), maps.grids.roi),
        anchors=maps.anchors,
    )


# ---------------------------------------------------------------------------
# Losses

def loss_mask(pred_mask, gt_mask) -> float:
    """Mean absolute difference over all cells."""
    pred = np.asarray(pred_mask, dtype=np.float64)
    gt = np.asarray(gt_mask, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"{pred.shape} vs {gt.shape}")
    return float(np.abs(pred - gt).mean())


def loss_coarse(pred_probs, gt_classes, pred_mask) -> float:
    """Mask-gated cross-entropy of the region classification.

    Predicted probabilities are multiplied by the predicted mask value
    (no renormalization) and clamped to 1e-12 before the log; the mean runs
    over cells with nonzero mask so the loss is exactly 0 when prediction
    equals ground truth (zero-mask cells would otherwise each contribute
    -log of the clamp). Returns 0 when no cell is masked.
    """
    probs = np.asarray(pred_probs, dtype=np.float64)
    classes = np.asarray(gt_classes)
    mask = np.asarray(pred_mask, dtype=np.float64)
    if probs.shape[:-1] != classes.shape or mask.shape != classes.shape:
        raise ShapeMismatch(
            f"probs {probs.shape}, classes {classes.shape}, mask {mask.shape}"
        )
    sel = mask > 0
    if not sel.any():
        return 0.0
    p = np.take_along_axis(probs, classes[..., None].astype(np.intp), axis=-1)[..., 0]
    p = np.maximum(p[sel] * mask[sel], 1e-12)
    return float(-np.log(p).mean())


def loss_fine(pred_residual, gt_residual, mask) -> float:
    """Mean (mask-weighted) L1 residual error over masked cells; 0 if none."""
    pred = np.asarray(pred_residual, dtype=np.float64)
    gt = np.asarray(gt_residual, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    if pred.shape != gt.shape or m.shape != pred.shape[:-1]:
        raise ShapeMismatch(f"pred {pred.shape}, gt {gt.shape}, mask {m.shape}")
    sel = m > 0
    if not sel.any():
        return 0.0
    l1 = np.abs(pred - gt).sum(axis=-1)
    return float((m[sel] * l1[sel]).mean())


def loss_total(l_coarse: float, l_fine: float, l_mask: float, l_pose: float) -> float:
    """Unweighted sum of the four supervision terms."""
    terms = (l_coarse, l_fine, l_mask, l_pose)
    for t in terms:
        if not math.isfinite(t):
            raise NonFinite(f"loss component {t!r} is not finite")
    return float(sum(terms))


def write_loss_csv(rows, path) -> None:
    """Rows of (scene_id, loss_mask, loss_coarse, loss_fine, loss_total)."""
    lines = ["scene_id,loss_mask,loss_coarse,loss_fine,loss_total"]
    for scene_id, lm, lc, lf, lt in rows:
        vals = ",".join("" if v is None else repr(float(v)) for v in (lm, lc, lf, lt))
        lines.append(f"{scene_id},{vals}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Serialization: one archive (see ``camera_crop.save_archive``) per scene

MAPS_FORMAT = "anchorpose-maps-v2"
_MAPS_ARRAYS = ("classes", "mask", "residual", "uv", "cam_xyz", "valid")


@dataclass(frozen=True)
class MapsHeader:
    """What a maps file records about its scene beside the arrays: the scene
    and object ids, the original camera and the ground-truth pose."""

    scene_id: str
    object_id: str
    intrinsics: Intrinsics
    gt_pose: Pose

    def __post_init__(self):
        for name in ("scene_id", "object_id"):
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"{name} {getattr(self, name)!r} is not a string")


def save_dense_maps(maps: DenseMaps, path, header: MapsHeader) -> None:
    """Write ``maps`` to the ``.npz`` file ``path``, losslessly.

    The arrays keep their dtypes; ``meta`` holds the format tag, the anchor
    set, the crop and the ``header`` fields.
    """
    g = maps.grids
    save_archive(path, MAPS_FORMAT, {
        "anchors": maps.anchors.to_json(), "roi": g.roi.to_json(),
        "scene_id": header.scene_id, "object_id": header.object_id,
        "intrinsics": header.intrinsics.to_json(), "gt_pose": header.gt_pose.to_json(),
    }, {"classes": maps.classes, "mask": maps.mask, "residual": maps.residual,
        "uv": g.uv, "cam_xyz": g.cam_xyz, "valid": g.valid})


def _maps_from(a: dict, meta: dict) -> tuple[DenseMaps, MapsHeader]:
    grids = GridMaps(a["uv"], a["cam_xyz"], a["valid"], Roi.from_json(meta["roi"]))
    maps = DenseMaps(a["mask"], a["classes"], a["residual"], grids,
                     AnchorSet.from_json(meta["anchors"]))
    header = MapsHeader(meta["scene_id"], meta["object_id"],
                        Intrinsics.from_json(meta["intrinsics"]),
                        Pose.from_json(meta["gt_pose"]))
    if header.object_id != maps.anchors.object_id:
        raise ValueError(f"header object_id {header.object_id!r} is not the anchor "
                         f"set's {maps.anchors.object_id!r}")
    return maps, header


def load_dense_maps(path) -> tuple[DenseMaps, MapsHeader]:
    """Returns (DenseMaps, MapsHeader). Raises ``MalformedInput`` for a file
    that is not a readable maps ``.npz``, lacks a header key, whose arrays or
    header values fail validation (a scene or object id that is not a string
    among them), or whose header names another object than its anchor set."""
    return load_archive(path, MAPS_FORMAT, _MAPS_ARRAYS, _maps_from)
