"""Synthetic depth scenes: procedural models, pose sampling, z-buffer splats.

The generator stands in for a real sensor-plus-annotation pipeline: it
splats model points into a z-buffer depth image, optionally drops
rectangular occluder planes in front of the object, and adds Gaussian
sensor noise. Everything is a pure function of (config, seed), so scenes
are exactly reproducible. On disk a scene is one sparse ``.npz`` archive
(``save_scene``): only the pixels with positive depth, in float64, so a
loaded scene equals the generated one bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .camera_crop import DepthImage, Roi, load_archive, save_archive
from .geom import NEAR_EPS, Intrinsics, Pose, backproject_grid
from .mesh import ObjectModel

_STREAM_OCCLUDERS = 1
_STREAM_SENSOR = 2

SHAPES = ("cube", "cylinder", "icosphere", "blob")

# Poses sample_scene draws for one scene before it gives up on the target.
MAX_ATTEMPTS = 100


class ObjectOutOfView(ValueError):
    """The posed object contributes no visible pixel."""


class BinUnfillable(RuntimeError):
    """Rejection sampling could not hit an occlusion target."""


@dataclass(frozen=True)
class Occluder:
    """An axis-aligned rectangle of constant depth in image space."""

    u_lo: float
    v_lo: float
    u_hi: float
    v_hi: float
    depth: float


@dataclass(frozen=True)
class OccluderSpec:
    """How to sample occluder planes relative to the object's pixel extent."""

    count_range: tuple = (1, 3)
    rel_size: tuple = (0.25, 1.3)
    rel_offset: float = 0.8
    depth_frac: tuple = (0.35, 0.85)


@dataclass(frozen=True)
class SceneConfig:
    seed: int
    width: int = 640
    height: int = 480
    intrinsics: Intrinsics = Intrinsics(550.0, 550.0, 320.0, 240.0)
    depth_range: tuple = (0.4, 2.0)
    center_margin: float = 0.3
    occluders: OccluderSpec | None = OccluderSpec()
    depth_sigma: float = 0.0

    def __post_init__(self):
        if not (0 < self.depth_range[0] < self.depth_range[1]):
            raise ValueError("depth range must be positive and increasing")


@dataclass
class SceneSample:
    """Ground truth for one synthetic frame."""

    object_id: str
    gt_pose: Pose
    depth: DepthImage
    vis_mask: np.ndarray  # (H, W) bool, pixels owned by the object
    intrinsics: Intrinsics
    visible_fraction: float

    def __post_init__(self):
        m = np.asarray(self.vis_mask, dtype=bool)
        if m.shape != self.depth.data.shape:
            raise ValueError("vis_mask shape differs from depth shape")
        if np.any(self.depth.data[m] <= 0):
            raise ValueError("visible pixels must have positive depth")
        if not 0.0 <= self.visible_fraction <= 1.0:
            raise ValueError("visible_fraction must be in [0, 1]")
        self.vis_mask = m


def _rng(seed, stream) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), stream]))


# ---------------------------------------------------------------------------
# Procedural models
#
# Coordinates are built from exactly mirrored grids and exact quarter-turn
# trig so that symmetric surface points carry exact-zero coordinates; this
# keeps anchor/residual round trips bitwise.

def _sym_coords(half: float, m: int) -> np.ndarray:
    """m (odd) values spanning [-half, half] with exact 0 and mirror symmetry."""
    pos = np.linspace(0.0, half, (m + 1) // 2)
    return np.concatenate([-pos[:0:-1], pos])


def _circle(n: int):
    """cos/sin of 2*pi*k/n for k < n, exact at quarter turns."""
    k = np.arange(n)
    ang = 2.0 * np.pi * k / n
    c = np.cos(ang)
    s = np.sin(ang)
    quarter = (4 * k) % n == 0
    qi = ((4 * k[quarter]) // n) % 4
    c[quarter] = np.array([1.0, 0.0, -1.0, 0.0])[qi]
    s[quarter] = np.array([0.0, 1.0, 0.0, -1.0])[qi]
    return c, s


def _dedupe(pts: np.ndarray) -> np.ndarray:
    pts = pts.copy()
    pts[pts == 0.0] = 0.0  # normalize -0.0 so bitwise dedupe works
    return np.unique(pts, axis=0)


# Coordinate grid for procedural models: 2^-53 m. Snapping to an absolute
# power-of-two grid (a sub-attometer change) makes anchor/residual coding
# exactly invertible in floats: point, anchor, and their difference are all
# grid multiples, so subtract-then-add reproduces the point bitwise.
_COORD_GRID = 2.0 ** -53


def _snap(pts: np.ndarray) -> np.ndarray:
    snapped = np.round(pts / _COORD_GRID) * _COORD_GRID
    snapped[snapped == 0.0] = 0.0
    return snapped


def _cube_points(n_points: int, scale: float) -> np.ndarray:
    half = scale / 2.0
    m = 3
    while 6 * m * m - 12 * m + 8 < n_points:
        m += 2
    c = _sym_coords(half, m)
    a, b = (x.ravel() for x in np.meshgrid(c, c))
    hs = np.full_like(a, half)
    faces = [
        np.column_stack([hs, a, b]), np.column_stack([-hs, a, b]),
        np.column_stack([a, hs, b]), np.column_stack([a, -hs, b]),
        np.column_stack([a, b, hs]), np.column_stack([a, b, -hs]),
    ]
    return _dedupe(np.vstack(faces))


def _cylinder_points(n_points: int, scale: float) -> np.ndarray:
    r = scale / 2.0
    half_h = scale / 2.0
    n_t = max(8, int(round(math.sqrt(n_points))))
    m_z = max(3, -(-int(0.6 * n_points) // n_t))
    if m_z % 2 == 0:
        m_z += 1
    m_r = max(2, -(-int(0.25 * n_points) // (2 * n_t)))
    while True:
        c, s = _circle(n_t)
        zs = _sym_coords(half_h, m_z)
        side = np.column_stack([
            np.tile(r * c, m_z), np.tile(r * s, m_z), np.repeat(zs, n_t),
        ])
        rings = []
        for j in range(1, m_r):
            rj = r * j / m_r
            rings.append(np.column_stack([rj * c, rj * s]))
        disk = np.vstack(rings) if rings else np.empty((0, 2))
        caps = [np.array([[0.0, 0.0, half_h], [0.0, 0.0, -half_h]])]
        for sign in (1.0, -1.0):
            caps.append(np.column_stack([disk, np.full(len(disk), sign * half_h)]))
        pts = _dedupe(np.vstack([side] + caps))
        if len(pts) >= n_points:
            return pts
        m_z += 2
        m_r += 1


_ICO_BASE = None


def _icosahedron():
    global _ICO_BASE
    if _ICO_BASE is None:
        p = (1.0 + math.sqrt(5.0)) / 2.0
        v = np.array([
            [-1, p, 0], [1, p, 0], [-1, -p, 0], [1, -p, 0],
            [0, -1, p], [0, 1, p], [0, -1, -p], [0, 1, -p],
            [p, 0, -1], [p, 0, 1], [-p, 0, -1], [-p, 0, 1],
        ], dtype=np.float64)
        f = np.array([
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ])
        _ICO_BASE = (v, f)
    return _ICO_BASE


def _icosphere_dirs(n_points: int) -> np.ndarray:
    """Unit directions from a subdivided icosahedron with >= n_points vertices."""
    verts, faces = _icosahedron()
    f = max(1, math.ceil(math.sqrt(max(n_points - 2, 1) / 10.0)))
    i, j = np.divmod(np.arange((f + 1) ** 2), f + 1)
    keep = i + j <= f  # the barycentric grid (i, j, f - i - j) of each face
    i, j = i[keep, None], j[keep, None]
    a, b, c = (verts[faces[:, m], None] for m in range(3))  # (20, 1, 3) face corners
    pts = _dedupe(((i * a + j * b + (f - i - j) * c) / f).reshape(-1, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _blob_radial(dirs: np.ndarray, seed) -> np.ndarray:
    """Smooth low-frequency radial gain in [0.65, 1.35], seeded, asymmetric."""
    rng = np.random.default_rng(seed)
    g = np.ones(len(dirs))
    for _ in range(4):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        freq = rng.uniform(1.0, 2.5)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.04, 0.10)
        g += amp * np.cos(freq * np.pi * (dirs @ axis) + phase)
    return np.clip(g, 0.65, 1.35)


def make_model(shape: str, n_points: int, scale: float, seed: int) -> ObjectModel:
    """Deterministic procedural surface point set.

    ``scale`` is the bounding size (cube side, cylinder diameter/height,
    sphere diameter). Cube, cylinder and icosphere are flagged symmetric;
    the blob (radially perturbed sphere) is the asymmetric test object.
    """
    if n_points < 4:
        raise ValueError("n_points must be >= 4")
    if shape == "cube":
        pts, symmetric = _cube_points(n_points, scale), True
    elif shape == "cylinder":
        pts, symmetric = _cylinder_points(n_points, scale), True
    elif shape == "icosphere":
        pts, symmetric = _icosphere_dirs(n_points) * (scale / 2.0), True
    elif shape == "blob":
        dirs = _icosphere_dirs(n_points)
        g = _blob_radial(dirs, seed)
        pts, symmetric = dirs * (g * scale / 2.0)[:, None], False
    else:
        raise ValueError(f"unknown shape {shape!r}; choose from {SHAPES}")
    model_id = f"{shape}-{n_points}-{scale:g}-{seed}"
    return ObjectModel(model_id, _snap(pts), symmetric=symmetric)


# ---------------------------------------------------------------------------
# Rendering

def _splat(points_cam: np.ndarray, k: Intrinsics, width: int, height: int):
    """Project points and z-buffer them; returns (zbuf, px, py, kept mask)."""
    z = points_cam[:, 2]
    front = z > NEAR_EPS
    u = np.where(front, k.fx * points_cam[:, 0] / np.where(front, z, 1.0) + k.cx, -1.0)
    v = np.where(front, k.fy * points_cam[:, 1] / np.where(front, z, 1.0) + k.cy, -1.0)
    px = np.floor(u + 0.5).astype(np.int64)
    py = np.floor(v + 0.5).astype(np.int64)
    ok = front & (px >= 0) & (px < width) & (py >= 0) & (py < height)
    zbuf = np.full(height * width, np.inf)
    np.minimum.at(zbuf, py[ok] * width + px[ok], z[ok])
    return zbuf.reshape(height, width), px, py, ok


def _sample_occluders(spec: OccluderSpec, rng: np.random.Generator,
                      box, z_near: float) -> list[Occluder]:
    u_lo, v_lo, u_hi, v_hi = box
    cu, cv = (u_lo + u_hi) / 2.0, (v_lo + v_hi) / 2.0
    radius = max(u_hi - u_lo, v_hi - v_lo) / 2.0 + 1.0
    count = int(rng.integers(spec.count_range[0], spec.count_range[1] + 1))
    occluders = []
    for _ in range(count):
        du, dv = rng.uniform(-spec.rel_offset, spec.rel_offset, 2) * radius
        hu, hv = rng.uniform(spec.rel_size[0], spec.rel_size[1], 2) * radius
        d = max(0.05, rng.uniform(*spec.depth_frac) * z_near)
        occluders.append(Occluder(cu + du - hu, cv + dv - hv,
                                  cu + du + hu, cv + dv + hv, d))
    return occluders


def render(model: ObjectModel, pose: Pose, config: SceneConfig,
           occluders: list[Occluder] | None = None) -> SceneSample:
    """Point-splat z-buffer render of the posed model, occluders first.

    Occluders default to a seeded sample from ``config.occluders`` (none if
    that is None); pass an explicit list to override. Gaussian depth noise
    of ``config.depth_sigma`` is added after z-buffering, clamped positive.
    """
    w, h = config.width, config.height
    cam = pose.apply(model.points)
    zbuf_obj, px, py, ok = _splat(cam, config.intrinsics, w, h)
    unocc = np.isfinite(zbuf_obj)
    if not unocc.any():
        raise ObjectOutOfView("no model point projects into the image")

    if occluders is None:
        if config.occluders is None:
            occluders = []
        else:
            box = (px[ok].min(), py[ok].min(), px[ok].max(), py[ok].max())
            occluders = _sample_occluders(
                config.occluders, _rng(config.seed, _STREAM_OCCLUDERS),
                box, float(cam[ok, 2].min()),
            )

    zbuf_occ = np.full((h, w), np.inf)
    for occ in occluders:
        u0, v0 = max(0, math.floor(occ.u_lo)), max(0, math.floor(occ.v_lo))
        u1, v1 = min(w, math.ceil(occ.u_hi)), min(h, math.ceil(occ.v_hi))
        if u0 < u1 and v0 < v1:
            np.minimum(zbuf_occ[v0:v1, u0:u1], occ.depth, out=zbuf_occ[v0:v1, u0:u1])

    vis = zbuf_obj < zbuf_occ
    if not vis.any():
        raise ObjectOutOfView("object is fully occluded")

    zbuf = np.minimum(zbuf_obj, zbuf_occ)
    depth = np.where(np.isfinite(zbuf), zbuf, 0.0)
    if config.depth_sigma > 0:
        noise = _rng(config.seed, _STREAM_SENSOR).normal(0.0, config.depth_sigma, (h, w))
        depth = np.where(depth > 0, np.maximum(depth + noise, 1e-6), 0.0)

    return SceneSample(
        object_id=model.id,
        gt_pose=pose,
        depth=DepthImage(w, h, depth),
        vis_mask=vis,
        intrinsics=config.intrinsics,
        visible_fraction=float(vis.sum() / unocc.sum()),
    )


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform rotation matrix via the subgroup-algorithm quaternion sample."""
    u1, u2, u3 = rng.random(3)
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    x = a * math.sin(2.0 * math.pi * u2)
    y = a * math.cos(2.0 * math.pi * u2)
    z = b * math.sin(2.0 * math.pi * u3)
    w = b * math.cos(2.0 * math.pi * u3)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def random_pose(rng: np.random.Generator, config: SceneConfig) -> Pose:
    """Uniform rotation; translation placing the origin uniformly in view."""
    rot = random_rotation(rng)
    depth = rng.uniform(*config.depth_range)
    m = config.center_margin
    cu = rng.uniform(m * config.width, (1.0 - m) * config.width)
    cv = rng.uniform(m * config.height, (1.0 - m) * config.height)
    return Pose(rot, backproject_grid(cu, cv, depth, config.intrinsics))


def sample_scene(model: ObjectModel, config: SceneConfig, target_level: float,
                 level_index: int, slot: int) -> SceneSample:
    """Rejection-sample one scene whose visible fraction is within 0.1 of target."""
    for attempt in range(MAX_ATTEMPTS):
        ss = np.random.SeedSequence([config.seed, level_index, slot, attempt])
        rng_pose = np.random.default_rng(ss)
        scene_seed = int(ss.generate_state(1)[0])
        cfg = replace(
            config, seed=scene_seed,
            occluders=None if target_level >= 0.999 else config.occluders,
        )
        pose = random_pose(rng_pose, config)
        try:
            scene = render(model, pose, cfg)
        except ObjectOutOfView:
            continue
        if abs(scene.visible_fraction - target_level) <= 0.1:
            return scene
    raise BinUnfillable(
        f"no scene within 0.1 of visibility {target_level} in {MAX_ATTEMPTS} attempts"
    )


def level_slots(n_scenes: int, n_levels: int) -> list[tuple[int, int]]:
    """(occlusion level index, slot within the level) of each benchmark scene.

    The scenes form consecutive blocks, one per level; the first
    ``n_scenes % n_levels`` blocks hold one scene more.
    """
    return [(li, slot) for li in range(n_levels)
            for slot in range(n_scenes // n_levels + (li < n_scenes % n_levels))]


def make_benchmark(model: ObjectModel, config: SceneConfig, n_scenes: int,
                   occlusion_levels=(1.0,)) -> list[SceneSample]:
    """n_scenes scenes split over the occlusion targets as ``level_slots`` says."""
    if n_scenes < 1:
        raise ValueError("n_scenes must be >= 1")
    levels = list(occlusion_levels)
    return [sample_scene(model, config, levels[li], li, slot)
            for li, slot in level_slots(n_scenes, len(levels))]


def tight_roi(scene: SceneSample, out_res: int) -> Roi:
    """Square RoI around the visible object pixels."""
    vs = np.flatnonzero(scene.vis_mask.any(axis=1))
    if len(vs) == 0:
        raise ObjectOutOfView("scene has no visible pixels")
    v0, v1 = vs[0], vs[-1]
    us = np.flatnonzero(scene.vis_mask[v0:v1 + 1].any(axis=0))
    u0, u1 = us[0], us[-1]
    side = float(max(u1 - u0 + 1, v1 - v0 + 1))
    return Roi((float(u0) + float(u1)) / 2.0, (float(v0) + float(v1)) / 2.0,
               side, side, out_res)


# ---------------------------------------------------------------------------
# Scene archive i/o: the pixels with positive depth, stored sparsely

SCENE_FORMAT = "anchorpose-scene-v1"
_SCENE_ARRAYS = {"pixels": np.int64, "depth": np.float64, "visible": np.bool_}


def save_scene(scene: SceneSample, path) -> None:
    """Write ``scene`` to the ``.npz`` file ``path``, losslessly.

    ``pixels`` holds the increasing flat indices of the pixels with positive
    depth, ``depth`` and ``visible`` their float64 depths and visibility (a
    visible pixel always has positive depth); ``meta`` holds the format tag,
    the image size and the scene's ground truth.
    """
    d = scene.depth
    pixels = np.flatnonzero(d.data).astype(np.int64)
    save_archive(path, SCENE_FORMAT, {
        "width": d.width, "height": d.height, "object_id": scene.object_id,
        "pose": scene.gt_pose.to_json(), "intrinsics": scene.intrinsics.to_json(),
        "visible_fraction": scene.visible_fraction,
    }, {"pixels": pixels, "depth": d.data.ravel()[pixels],
        "visible": scene.vis_mask.ravel()[pixels]})


def _scene_from(a: dict, meta: dict) -> SceneSample:
    w, h = int(meta["width"]), int(meta["height"])
    if not isinstance(meta["object_id"], str):
        raise TypeError(f"object_id {meta['object_id']!r} is not a string")
    p = a["pixels"]
    for name, dtype in _SCENE_ARRAYS.items():
        if a[name].dtype != dtype or a[name].shape != (len(p),):
            raise ValueError(f"{name} is not {len(p)} values of {np.dtype(dtype)}")
    if np.any(np.diff(p) <= 0) or (len(p) and (p[0] < 0 or p[-1] >= w * h)):
        raise ValueError(f"pixels are not increasing indices in [0, {w * h})")
    if not np.all(a["depth"] > 0):  # false for NaN too; DepthImage rejects inf
        raise ValueError("depth values must be positive")
    depth = np.zeros(h * w)
    depth[p] = a["depth"]
    vis = np.zeros(h * w, dtype=bool)
    vis[p] = a["visible"]
    return SceneSample(
        object_id=meta["object_id"],
        gt_pose=Pose.from_json(meta["pose"]),
        depth=DepthImage(w, h, depth.reshape(h, w)),
        vis_mask=vis.reshape(h, w),
        intrinsics=Intrinsics.from_json(meta["intrinsics"]),
        visible_fraction=float(meta["visible_fraction"]),
    )


def load_scene(path) -> SceneSample:
    """Read a ``save_scene`` archive. Raises ``MalformedInput`` for a file
    that is not a readable scene ``.npz``, lacks a header key, or whose
    arrays or header values fail validation."""
    return load_archive(path, SCENE_FORMAT, _SCENE_ARRAYS, _scene_from)
