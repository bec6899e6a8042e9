"""Object models: point clouds, PLY ingestion, farthest point sampling.

Models are point clouds in the object frame, in meters (a loader flag
converts millimeter-unit files). Supported PLY flavors are ascii and
binary-little-endian with float/double vertex x/y/z properties; faces and
extra properties are skipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy.spatial import cKDTree


class EmptyModel(ValueError):
    """Operation requires at least one model point."""


class KTooLarge(ValueError):
    """Requested more samples than the model has points."""


class ParseError(ValueError):
    """Malformed PLY data. Carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnsupportedPlyVariant(ValueError):
    """Structurally valid PLY that this loader does not handle."""


@dataclass
class ObjectModel:
    """A point-cloud object model. Treat as immutable after construction."""

    id: str
    points: np.ndarray  # (N, 3) float64, meters, object frame
    symmetric: bool = False

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got shape {pts.shape}")
        if len(pts) == 0:
            raise EmptyModel("model has no points")
        pts.setflags(write=False)
        self.points = pts

    @cached_property
    def diameter(self) -> float:
        """Max pairwise point distance, computed on first use."""
        return diameter(self)

    @cached_property
    def kdtree(self) -> cKDTree:
        """kd-tree over ``points`` (object frame), built on first use. scipy's
        kd-tree module is imported here, so only ADD-S pays for loading it."""
        from scipy.spatial import cKDTree

        return cKDTree(self.points)

    @cached_property
    def half_gap(self) -> np.ndarray:
        """(N,) half the distance from each point to its nearest other point,
        from one k=2 query of ``kdtree``, computed on first use: 0 for a
        repeated point, inf in a one-point model."""
        d, _ = self.kdtree.query(self.points, k=2)
        gap = 0.5 * d[:, 1]
        gap.setflags(write=False)
        return gap


# ---------------------------------------------------------------------------
# PLY i/o

_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


def _header_lines(raw: bytes):
    """Yield (offset, text) header lines up to and including end_header."""
    offset = 0
    while True:
        end = raw.find(b"\n", offset)
        if end < 0:
            raise ParseError("unterminated header", offset)
        text = raw[offset:end].rstrip(b"\r").decode("ascii", "replace")
        yield offset, text
        offset = end + 1
        if text.strip() == "end_header":
            return


def _parse_header(raw: bytes):
    lines = _header_lines(raw)
    off, magic = next(lines)
    if magic.strip() != "ply":
        raise ParseError("missing 'ply' magic", off)
    fmt = None
    elements = []  # (name, count, [(kind, dtype..., name)])
    data_offset = None
    for off, text in lines:
        words = text.split()
        if not words or words[0] == "comment" or words[0] == "obj_info":
            continue
        if words[0] == "format":
            if len(words) < 2:
                raise ParseError("bad format line", off)
            fmt = words[1]
        elif words[0] == "element":
            if len(words) != 3:
                raise ParseError("bad element line", off)
            try:
                count = int(words[2])
            except ValueError:
                raise ParseError("bad element count", off) from None
            elements.append((words[1], count, []))
        elif words[0] == "property":
            if not elements:
                raise ParseError("property before any element", off)
            if words[1] == "list":
                if len(words) != 5:
                    raise ParseError("bad list property", off)
                ct, it = words[2], words[3]
                if ct not in _PLY_TYPES or it not in _PLY_TYPES:
                    raise ParseError(f"unknown list property types {ct}/{it}", off)
                elements[-1][2].append(("list", _PLY_TYPES[ct], _PLY_TYPES[it], words[4]))
            else:
                if len(words) != 3:
                    raise ParseError("bad property line", off)
                if words[1] not in _PLY_TYPES:
                    raise ParseError(f"unknown property type {words[1]}", off)
                elements[-1][2].append(("scalar", _PLY_TYPES[words[1]], words[2]))
        elif words[0] == "end_header":
            data_offset = off + len(raw[off:raw.find(b"\n", off) + 1])
            break
        else:
            raise ParseError(f"unexpected header keyword {words[0]!r}", off)
    if fmt is None or data_offset is None:
        raise ParseError("header missing format or end_header", 0)
    if fmt == "binary_big_endian":
        raise UnsupportedPlyVariant("binary_big_endian PLY is not supported")
    if fmt not in ("ascii", "binary_little_endian"):
        raise UnsupportedPlyVariant(f"unknown PLY format {fmt!r}")
    return fmt, elements, data_offset


def _vertex_xyz_slots(props):
    slots = {}
    for i, p in enumerate(props):
        if p[0] == "scalar" and p[-1] in ("x", "y", "z"):
            if p[1] not in ("f4", "f8"):
                raise UnsupportedPlyVariant(f"vertex {p[-1]} has non-float type")
            slots[p[-1]] = i
    if sorted(slots) != ["x", "y", "z"]:
        raise UnsupportedPlyVariant("vertex element lacks float x/y/z properties")
    return slots["x"], slots["y"], slots["z"]


def _read_ascii(raw, elements, data_offset):
    offset = data_offset
    n = len(raw)
    verts = None
    for name, count, props in elements:
        rows = []
        for _ in range(count):
            if offset >= n:
                raise ParseError(f"unexpected end of data in element {name!r}", offset)
            end = raw.find(b"\n", offset)
            if end < 0:
                end = n
            line_off = offset
            tokens = raw[offset:end].split()
            offset = end + 1
            if name != "vertex":
                continue
            vals = []
            ti = 0
            try:
                for p in props:
                    if p[0] == "list":
                        cnt = int(tokens[ti])
                        ti += 1 + cnt
                        vals.append(np.nan)
                    else:
                        vals.append(float(tokens[ti]))
                        ti += 1
            except (IndexError, ValueError):
                raise ParseError(f"bad vertex line in element {name!r}", line_off) from None
            rows.append(vals)
        if name == "vertex":
            verts = (rows, props)
    return verts, offset


def _read_binary(raw, elements, data_offset):
    offset = data_offset
    verts = None
    for name, count, props in elements:
        has_list = any(p[0] == "list" for p in props)
        if not has_list:
            dt = np.dtype([(f"p{i}", "<" + p[1]) for i, p in enumerate(props)])
            need = count * dt.itemsize
            if offset + need > len(raw):
                raise ParseError(f"truncated data in element {name!r}", offset)
            if name == "vertex":
                arr = np.frombuffer(raw, dtype=dt, count=count, offset=offset)
                verts = (arr, props)
            offset += need
        else:
            # Walk instance by instance; list lengths live in the stream.
            for _ in range(count):
                for p in props:
                    if p[0] == "scalar":
                        size = np.dtype(p[1]).itemsize
                        if offset + size > len(raw):
                            raise ParseError(f"truncated data in element {name!r}", offset)
                        offset += size
                    else:
                        csize = np.dtype(p[1]).itemsize
                        if offset + csize > len(raw):
                            raise ParseError(f"truncated list count in {name!r}", offset)
                        cnt = int(
                            np.frombuffer(raw, dtype="<" + p[1], count=1, offset=offset)[0]
                        )
                        offset += csize
                        isize = np.dtype(p[2]).itemsize * cnt
                        if offset + isize > len(raw):
                            raise ParseError(f"truncated list data in {name!r}", offset)
                        offset += isize
            if name == "vertex":
                raise UnsupportedPlyVariant("vertex elements with list properties")
    return verts, offset


def load_ply(path, *, mm_to_m: bool = False, model_id: str | None = None,
             symmetric: bool = False) -> ObjectModel:
    """Load vertex positions from an ascii or binary-little-endian PLY file.

    Points are kept in file order. Units are taken as-is unless ``mm_to_m``
    scales them by 0.001.
    """
    path = Path(path)
    raw = path.read_bytes()
    fmt, elements, data_offset = _parse_header(raw)
    names = [e[0] for e in elements]
    if "vertex" not in names:
        raise UnsupportedPlyVariant("no vertex element")
    vcount = elements[names.index("vertex")][1]
    if vcount == 0:
        raise ParseError("empty vertex list", data_offset)

    if fmt == "ascii":
        verts, _ = _read_ascii(raw, elements, data_offset)
        rows, props = verts
        ix, iy, iz = _vertex_xyz_slots(props)
        arr = np.asarray(rows, dtype=np.float64)
        pts = arr[:, [ix, iy, iz]]
    else:
        verts, _ = _read_binary(raw, elements, data_offset)
        arr, props = verts
        ix, iy, iz = _vertex_xyz_slots(props)
        pts = np.column_stack(
            [arr[f"p{ix}"], arr[f"p{iy}"], arr[f"p{iz}"]]
        ).astype(np.float64)

    if not np.all(np.isfinite(pts)):
        raise ParseError("non-finite vertex coordinate", data_offset)
    if mm_to_m:
        pts = pts * 0.001
    return ObjectModel(model_id or path.stem, pts, symmetric=symmetric)


def write_ply(path, points, *, binary: bool = True) -> None:
    """Write a point cloud as a PLY with double-precision x/y/z vertices."""
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    fmt = "binary_little_endian" if binary else "ascii"
    header = (
        "ply\n"
        f"format {fmt} 1.0\n"
        f"element vertex {len(pts)}\n"
        "property double x\n"
        "property double y\n"
        "property double z\n"
        "end_header\n"
    )
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        if binary:
            f.write(pts.astype("<f8").tobytes())
        else:
            for p in pts:
                f.write(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n".encode("ascii"))


# ---------------------------------------------------------------------------
# Sampling and extents

def _sq_dists(points: np.ndarray, p: np.ndarray) -> np.ndarray:
    """((dx^2 + dy^2) + dz^2) from every point to ``p``."""
    d = points - p
    d *= d
    return d[:, 0] + d[:, 1] + d[:, 2]


def fps(points: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Greedy farthest point sampling: (k,) indices and the covering radius.

    The seed is the point farthest from the centroid; every later pick
    maximizes the distance to the chosen set. Ties resolve to the lowest
    index, so the picks for k' < k are always a prefix of the picks for k.
    The covering radius is the largest distance from a point to its nearest
    pick, read from the running nearest-pick distances after the last pick.
    """
    n = len(points)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise KTooLarge(f"k={k} exceeds point count {n}")
    idx = np.empty(k, dtype=np.intp)
    idx[0] = int(np.argmax(_sq_dists(points, points.mean(axis=0))))
    min_d = _sq_dists(points, points[idx[0]])
    for i in range(1, k):
        idx[i] = int(np.argmax(min_d))
        np.minimum(min_d, _sq_dists(points, points[idx[i]]), out=min_d)
    return idx, float(np.sqrt(min_d.max()))


_DIAMETER_LEAF = 16  # at most this many points in a kd leaf of the diameter search
_DIAMETER_BATCH = 1 << 15  # squared distances scored per batch of leaf pairs


def _double_normal_d2(points: np.ndarray) -> float:
    """A squared distance between two points, from farthest-point hops.

    Starts at the point farthest from the centroid and hops, at most four
    times, to the farthest point from the current one while that distance
    grows: a lower bound on the squared diameter, usually equal to it.
    """
    i = int(np.argmax(_sq_dists(points, points.mean(axis=0))))
    best = 0.0
    for _ in range(4):
        d2 = _sq_dists(points, points[i])
        i = int(np.argmax(d2))
        if not d2[i] > best:
            break
        best = float(d2[i])
    return best


def _median_kd(points: np.ndarray):
    """Median kd split of ``points`` into 2**depth leaves of at most
    ``_DIAMETER_LEAF`` points.

    Returns (depth, order, lo, hi). ``points[order]`` lists the points leaf
    by leaf; at level l, node i holds positions [i*N >> l, (i+1)*N >> l) of
    that order, split at its middle along its widest axis, and ``lo[l]`` /
    ``hi[l]`` are the (2**l, 3) node bounding boxes.
    """
    n = len(points)
    depth = 0
    while -(-n // (1 << depth)) > _DIAMETER_LEAF:
        depth += 1
    rank = np.empty((3, n), dtype=np.intp)  # per-axis rank: unique integer sort keys
    for axis in range(3):
        rank[axis, np.argsort(points[:, axis], kind="stable")] = np.arange(n)
    order = np.arange(n)
    lo, hi = [], []
    for level in range(depth + 1):
        starts = (np.arange(1 << level) * n) >> level
        p = points[order]
        lo.append(np.minimum.reduceat(p, starts))
        hi.append(np.maximum.reduceat(p, starts))
        if level < depth:
            node = np.repeat(np.arange(1 << level), np.diff(starts, append=n))
            axis = np.argmax(hi[-1] - lo[-1], axis=1)[node]
            order = order[np.argsort(node * n + rank[axis, order])]
    return depth, order, lo, hi


def _far_leaf_pairs(lo, hi, best: float):
    """Leaf pairs (a <= b) whose boxes' farthest corners lie more than
    sqrt(``best``) apart, found level by level from the root."""
    a = b = np.zeros(1, dtype=np.intp)
    for lo_l, hi_l in zip(lo[1:], hi[1:]):
        ca = (2 * a[:, None] + [0, 0, 1, 1]).ravel()
        cb = (2 * b[:, None] + [0, 1, 0, 1]).ravel()
        keep = ca <= cb
        ca, cb = ca[keep], cb[keep]
        e = np.maximum(hi_l[ca] - lo_l[cb], hi_l[cb] - lo_l[ca])
        e *= e
        keep = e[:, 0] + e[:, 1] + e[:, 2] > best
        a, b = ca[keep], cb[keep]
    return a, b


def diameter(model: ObjectModel) -> float:
    """Exact max pairwise point distance.

    The result equals ``np.sqrt(((p[:, None] - p[None]) ** 2).sum(-1).max())``
    bit for bit, without scoring every pair: farthest-point hops give a
    lower bound, the points are split into median kd leaves, and every pair
    of boxes whose farthest corners are no farther apart than the bound is
    dropped. The surviving leaf pairs are scored as exact coordinate
    differences, ((dx^2 + dy^2) + dz^2). Rounding is monotone, so a box
    pair's corner bound is never below the computed distance of a point pair
    inside it, and no dropped pair can beat the bound. See Har-Peled, "A
    practical approach for computing the diameter of a point set" (SoCG 2001).
    """
    pts = model.points
    n = len(pts)
    best = _double_normal_d2(pts)
    depth, order, lo, hi = _median_kd(pts)
    a, b = _far_leaf_pairs(lo, hi, best)
    # leaf rows padded with their own last point, which repeats a distance
    starts = (np.arange(1 << depth) * n) >> depth
    size = np.diff(starts, append=n)
    width = int(size.max())
    slots = starts[:, None] + np.minimum(np.arange(width), size[:, None] - 1)
    x, y, z = (np.ascontiguousarray(pts[order[slots], axis]) for axis in range(3))
    step = max(1, _DIAMETER_BATCH // (width * width))
    diff_buf, d2_buf = np.empty((2, step, width, width))
    for s in range(0, len(a), step):
        ia, ib = a[s:s + step], b[s:s + step]
        diff, d2 = diff_buf[:len(ia)], d2_buf[:len(ia)]
        np.subtract(x[ia][:, :, None], x[ib][:, None, :], out=d2)
        d2 *= d2
        for c in (y, z):
            np.subtract(c[ia][:, :, None], c[ib][:, None, :], out=diff)
            diff *= diff
            d2 += diff
        best = max(best, float(d2.max()))
    return float(np.sqrt(best))


# ---------------------------------------------------------------------------
# Model registry

def save_registry(entries: list[dict], path) -> None:
    """Write a model registry: a list of {id, path, symmetric, mm_to_m}."""
    with open(path, "w") as f:
        json.dump(entries, f, indent=2, sort_keys=True)
        f.write("\n")


def load_registry(path) -> list[dict]:
    with open(path) as f:
        entries = json.load(f)
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise TypeError(f"{path} is not a list of registry entries")
    for e in entries:
        e.setdefault("symmetric", False)
        e.setdefault("mm_to_m", False)
    return entries


def load_registry_model(registry_path, entry: dict) -> ObjectModel:
    """Resolve a registry entry's path relative to the registry file."""
    base = Path(registry_path).parent
    return load_ply(
        base / entry["path"],
        mm_to_m=entry.get("mm_to_m", False),
        model_id=entry["id"],
        symmetric=entry.get("symmetric", False),
    )
