"""Synthetic depth scenes: procedural models, pose sampling, z-buffer splats.

The generator stands in for a real sensor-plus-annotation pipeline: it
splats model points into a z-buffer depth image, optionally drops
rectangular occluder planes in front of the object, and adds Gaussian
sensor noise. Everything is a pure function of (config, seed), so scenes
are exactly reproducible. A scene holds only the pixels with positive
depth, in memory as on disk (one ``.npz`` archive, ``save_scene``), so a
loaded scene equals the generated one bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .camera_crop import Roi, load_archive, save_archive
from .geom import NEAR_EPS, Intrinsics, Pose, backproject_grid, json_number
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

    def __post_init__(self):
        if not self.depth > 0:
            raise ValueError("occluder depth must be positive")


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


_SCENE_ARRAYS = {"pixels": np.int64, "depth": np.float64, "visible": np.bool_}


@dataclass(frozen=True)
class SceneSample:
    """Ground truth for one synthetic frame of ``width`` x ``height`` pixels.

    Only the pixels with positive depth are held: ``pixels`` are their
    increasing flat indices ``v * width + u``, ``depth`` their depths in
    meters and ``visible`` whether the object owns them. Every other pixel
    has depth 0 (invalid) and is not visible. The arrays are read-only.
    """

    object_id: str
    gt_pose: Pose
    intrinsics: Intrinsics
    visible_fraction: float
    width: int
    height: int
    pixels: np.ndarray   # (n,) int64
    depth: np.ndarray    # (n,) float64
    visible: np.ndarray  # (n,) bool

    def __post_init__(self):
        if not isinstance(self.object_id, str):
            raise TypeError(f"object_id {self.object_id!r} is not a string")
        for size in (self.width, self.height):
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 1:
                raise ValueError(f"image size {size!r} is not an integer >= 1")
        n = int(self.width) * int(self.height)
        if n > np.iinfo(np.int64).max:
            raise ValueError(f"{self.width} x {self.height} pixels overflow an int64 index")
        p = self.pixels
        for name, dtype in _SCENE_ARRAYS.items():
            a = getattr(self, name)
            if a.dtype != dtype or a.shape != (len(p),):
                raise ValueError(f"{name} is not {len(p)} values of {np.dtype(dtype)}")
            a.setflags(write=False)
        if np.any(np.diff(p) <= 0) or (len(p) and (p[0] < 0 or p[-1] >= n)):
            raise ValueError(f"pixels are not increasing indices in [0, {n})")
        if not np.all((self.depth > 0) & (self.depth < np.inf)):  # false for NaN too
            raise ValueError("depth values must be positive and finite")
        if not 0.0 <= self.visible_fraction <= 1.0:
            raise ValueError("visible_fraction must be in [0, 1]")


def lookup_pixels(scene: SceneSample, flat: np.ndarray):
    """(depth, visible) of ``scene`` at the flat pixel indices ``flat``, any
    shape: depth 0 and not visible where a pixel has no depth or an index is
    negative."""
    p = scene.pixels
    if len(p) == 0:
        return np.zeros(flat.shape), np.zeros(flat.shape, dtype=bool)
    i = np.minimum(np.searchsorted(p, flat), len(p) - 1)
    hit = p[i] == flat
    return np.where(hit, scene.depth[i], 0.0), hit & scene.visible[i]


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
    """The distinct rows of ``pts``, sorted as ``np.unique(pts, axis=0)``
    sorts them (first column first), with -0.0 read as 0.0."""
    pts = pts.copy()
    pts[pts == 0.0] = 0.0  # normalize -0.0 so the rows compare bitwise
    pts = pts[np.lexsort(pts.T[::-1])]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    return pts[keep]


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


@dataclass(frozen=True)
class _Splat:
    """An attempt z-buffered over the object's own pixel box
    [u0, u1) x [v0, v1): the object's depths there, which of them the
    occluders leave visible, and the occluder rectangles on the image."""

    box: tuple        # (u0, v0, u1, v1)
    zbuf: np.ndarray  # object depth per box pixel, inf where no point lands
    visible: np.ndarray
    rects: list       # (u0, v0, u1, v1, depth), clipped to the image
    visible_fraction: float


def _splat(model: ObjectModel, pose: Pose, config: SceneConfig,
           occluders: list[Occluder] | None) -> _Splat:
    """Project the posed model, place the occluders and z-buffer the
    object's pixel box: all that the visible fraction needs."""
    w, h, k = config.width, config.height, config.intrinsics
    cam = pose.apply(model.points)
    z = cam[:, 2]
    front = z > NEAR_EPS
    z_div = np.where(front, z, 1.0)  # a point behind the camera fails ``ok`` below
    px = np.floor(k.fx * cam[:, 0] / z_div + k.cx + 0.5).astype(np.int64)
    py = np.floor(k.fy * cam[:, 1] / z_div + k.cy + 0.5).astype(np.int64)
    ok = front & (px >= 0) & (px < w) & (py >= 0) & (py < h)
    if not ok.all():
        if not ok.any():
            raise ObjectOutOfView("no model point projects into the image")
        px, py, z = px[ok], py[ok], z[ok]
    u0, v0, u1, v1 = int(px.min()), int(py.min()), int(px.max()) + 1, int(py.max()) + 1

    if occluders is None:
        if config.occluders is None:
            occluders = []
        else:
            occluders = _sample_occluders(
                config.occluders, _rng(config.seed, _STREAM_OCCLUDERS),
                (u0, v0, u1 - 1, v1 - 1), float(z.min()),
            )
    rects = [(max(0, math.floor(o.u_lo)), max(0, math.floor(o.v_lo)),
              min(w, math.ceil(o.u_hi)), min(h, math.ceil(o.v_hi)), o.depth)
             for o in occluders]
    rects = [r for r in rects if r[0] < r[2] and r[1] < r[3]]

    zbuf = np.full((v1 - v0, u1 - u0), np.inf)
    np.minimum.at(zbuf.reshape(-1), (py - v0) * (u1 - u0) + (px - u0), z)
    zbuf_occ = np.full_like(zbuf, np.inf)
    for ru0, rv0, ru1, rv1, d in rects:
        part = zbuf_occ[max(rv0 - v0, 0):max(rv1 - v0, 0), max(ru0 - u0, 0):max(ru1 - u0, 0)]
        np.minimum(part, d, out=part)
    vis = zbuf < zbuf_occ
    n_vis = np.count_nonzero(vis)
    if n_vis == 0:
        raise ObjectOutOfView("object is fully occluded")
    return _Splat((u0, v0, u1, v1), zbuf, vis, rects,
                  n_vis / np.count_nonzero(zbuf < np.inf))


def _window_noise(rng: np.random.Generator, sigma: float, w: int,
                  v0: int, v1: int, u0: int, u1: int) -> np.ndarray:
    """Rows v0:v1, columns u0:u1 of the row-major (h, w) normal field of
    ``rng``. ``normal`` fills row-major, so drawing rows 0..v1 in blocks of
    at most 16384 values (one row when w is larger) gives the same values
    as the full field; the rows from v1 on are never drawn."""
    step = max(1, 16384 // w)
    out = np.empty((v1 - v0, u1 - u0))
    for r0 in range(0, v1, step):
        r1 = min(r0 + step, v1)
        block = rng.normal(0.0, sigma, (r1 - r0, w))
        if r1 > v0:
            lo = max(r0, v0)
            out[lo - v0:r1 - v0] = block[lo - r0:, u0:u1]
    return out


def _finish(model: ObjectModel, pose: Pose, config: SceneConfig, s: _Splat) -> SceneSample:
    """The scene of splat ``s``: z-buffer the window that can hold depth,
    the object's box united with the occluder rectangles, then add noise."""
    w, h = config.width, config.height
    boxes = np.array([s.box, *(r[:4] for r in s.rects)])
    u0, v0 = boxes[:, :2].min(axis=0)
    u1, v1 = boxes[:, 2:].max(axis=0)
    # The window [u0, u1) x [v0, v1); its z-buffer is indexed from (u0, v0).
    zbuf = np.full((v1 - v0, u1 - u0), np.inf)
    for ru0, rv0, ru1, rv1, d in s.rects:
        part = zbuf[rv0 - v0:rv1 - v0, ru0 - u0:ru1 - u0]
        np.minimum(part, d, out=part)
    bu0, bv0, bu1, bv1 = s.box
    box = (slice(bv0 - v0, bv1 - v0), slice(bu0 - u0, bu1 - u0))
    part = zbuf[box]
    np.minimum(part, s.zbuf, out=part)
    vis = np.zeros(zbuf.shape, dtype=bool)
    vis[box] = s.visible

    has_depth = zbuf < np.inf
    depth = zbuf[has_depth]
    if config.depth_sigma > 0:
        noise = _window_noise(_rng(config.seed, _STREAM_SENSOR), config.depth_sigma,
                              w, v0, v1, u0, u1)
        depth = np.maximum(depth + noise[has_depth], 1e-6)
    rows, cols = np.nonzero(has_depth)

    return SceneSample(
        object_id=model.id, gt_pose=pose, intrinsics=config.intrinsics,
        visible_fraction=s.visible_fraction, width=w, height=h,
        pixels=((rows + v0) * w + (cols + u0)).astype(np.int64),
        depth=depth, visible=vis[has_depth],
    )


def _render(model: ObjectModel, pose: Pose, config: SceneConfig,
            occluders: list[Occluder] | None = None) -> SceneSample:
    """Point-splat z-buffer render of the posed model, occluders first.

    Occluders default to a seeded sample from ``config.occluders`` (none if
    that is None); pass an explicit list to override. Gaussian depth noise
    of ``config.depth_sigma`` is added after z-buffering, clamped positive.
    """
    return _finish(model, pose, config, _splat(model, pose, config, occluders))


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
            splat = _splat(model, pose, cfg, None)
        except ObjectOutOfView:
            continue
        if abs(splat.visible_fraction - target_level) <= 0.1:
            return _finish(model, pose, cfg, splat)
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
    vs, us = np.divmod(scene.pixels[scene.visible], scene.width)
    if len(vs) == 0:
        raise ObjectOutOfView("scene has no visible pixels")
    v0, v1 = vs[0], vs[-1]  # pixels increase, so their rows do too
    u0, u1 = us.min(), us.max()
    side = float(max(u1 - u0 + 1, v1 - v0 + 1))
    return Roi((float(u0) + float(u1)) / 2.0, (float(v0) + float(v1)) / 2.0,
               side, side, out_res)


# ---------------------------------------------------------------------------
# Scene archive i/o: the pixels with positive depth, stored sparsely

SCENE_FORMAT = "anchorpose-scene-v1"


def save_scene(scene: SceneSample, path) -> None:
    """Write ``scene`` to the ``.npz`` file ``path``, losslessly: its arrays
    as they are, and in ``meta`` the format tag, the image size and the
    scene's ground truth."""
    save_archive(path, SCENE_FORMAT, {
        "width": scene.width, "height": scene.height, "object_id": scene.object_id,
        "pose": scene.gt_pose.to_json(), "intrinsics": scene.intrinsics.to_json(),
        "visible_fraction": scene.visible_fraction,
    }, {name: getattr(scene, name) for name in _SCENE_ARRAYS})


def _scene_from(a: dict, meta: dict) -> SceneSample:
    return SceneSample(
        object_id=meta["object_id"], gt_pose=Pose.from_json(meta["pose"]),
        intrinsics=Intrinsics.from_json(meta["intrinsics"]),
        visible_fraction=json_number(meta["visible_fraction"]),
        width=meta["width"], height=meta["height"], **a,
    )


def load_scene(path) -> SceneSample:
    """Read a ``save_scene`` archive. Raises ``MalformedInput`` for a file
    that is not a readable scene ``.npz``, lacks a header key, or whose
    arrays or header values fail validation."""
    return load_archive(path, SCENE_FORMAT, _SCENE_ARRAYS, _scene_from)
