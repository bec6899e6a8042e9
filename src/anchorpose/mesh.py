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
from typing import NamedTuple

import numpy as np


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
    def kd(self) -> MedianKd:
        """Median kd tree over ``points``, built on first use; the diameter
        and the nearest-point searches walk it."""
        return _median_kd(self.points)

    @cached_property
    def neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, reach), computed on first use: ``rows[:, i]`` lists point
        i, then its K nearest other points, nearest first, and every other
        point closer to point i than ``reach[i]`` is among them.

        K is ``_NEIGHBOURS``, or N - 1 in a smaller model. The reach is the
        K-th neighbour's distance, inf where the row holds every other
        point. ``rows`` is (1 + K, N), so that gathering the rows of many
        points reads contiguous memory.
        """
        rows, reach = _neighbour_rows(self.points, self.kd)
        rows.setflags(write=False)
        reach.setflags(write=False)
        return rows, reach

    @cached_property
    def half_gap(self) -> np.ndarray:
        """(N,) half the distance from each point to its nearest other point,
        its first neighbour, computed on first use: 0 for a repeated point,
        inf in a one-point model."""
        rows, _ = self.neighbours
        if len(rows) > 1:
            gap = 0.5 * np.sqrt(sq_dists_to(self.points, rows[1], self.points.T))
        else:
            gap = np.full(len(rows), np.inf)
        gap.setflags(write=False)
        return gap

    def nearest(self, q: np.ndarray, bound2: np.ndarray) -> np.ndarray:
        """Index of the point nearest to each row of ``q`` (M, 3), given a
        point within squared distance ``bound2`` (M,) of each (inf will do).

        Each query first descends ``kd`` by its split planes to the leaf it
        falls in, whose nearest point may lower its bound. Then it walks
        ``kd`` from the root, ``_WALK_LEVELS`` levels per step, keeping a
        (query, node) pair while the node's box lies within the bound, and
        scores the points of the leaves it keeps. Distances are compared as
        computed, ((dx^2 + dy^2) + dz^2); rounding is monotone, so a box's
        computed distance never exceeds that of a point inside it, and the
        leaf that holds the nearest point is never dropped. Ties go to the
        lowest index.
        """
        lo, hi, leaves, _, xyz = self.kd
        depth = len(lo) - 1
        q = np.ascontiguousarray(q.T)
        # first, the bound of the leaf each query falls in
        cols = np.arange(q.shape[1])
        node = np.zeros(len(cols), dtype=np.intp)
        for level in range(depth):
            axis = np.argmax(hi[level] - lo[level], axis=0).take(node)
            right = 2 * node + 1
            split = lo[level + 1].take(axis * (2 << level) + right)
            node = right - (q.take(axis * len(cols) + cols) < split)
        bound2 = np.minimum(bound2, _leaf_sq_dists(xyz, node, q).min(axis=0))
        qi = cols
        node = np.zeros(len(qi), dtype=np.intp)
        level = 0
        while level < depth:
            step = min(_WALK_LEVELS, depth - level)
            level += step
            qi = np.repeat(qi, 1 << step)
            node = ((node << step)[:, None] + np.arange(1 << step)).ravel()
            at = q.take(qi, axis=1)
            keep = _box_gap2(at, at, lo[level].take(node, axis=1),
                             hi[level].take(node, axis=1)) <= bound2.take(qi)
            qi, node = qi.compress(keep), node.compress(keep)
        d2 = _leaf_sq_dists(xyz, node, q.take(qi, axis=1))
        pair = d2.min(axis=0)
        # qi is sorted and every query keeps the leaf of its nearest point,
        # so each query's pairs are one run
        best = np.minimum.reduceat(pair, _runs(qi))
        at = np.flatnonzero(pair == best.take(qi))  # the pairs that hold a nearest point
        qi = qi.take(at)
        hit = np.where(d2.take(at, axis=1).T == best.take(qi)[:, None],
                       leaves.take(node.take(at), axis=0), len(self.points))
        return np.minimum.reduceat(hit.min(axis=1), _runs(qi))


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


_KD_LEAF = 16  # at most this many points in a median kd leaf
_DIAMETER_BATCH = 1 << 15  # squared distances scored per batch of leaf pairs
_NEIGHBOURS = 16  # K: a neighbour row holds a point and its K nearest others
_NEIGHBOUR_BATCH = 1 << 16  # squared distances scored per block of leaves
_WALK_LEVELS = 2  # kd levels descended per step of a nearest-point walk


def _sq_sum(parts) -> np.ndarray:
    """((dx^2 + dy^2) + dz^2) from three coordinate differences, which it
    squares and sums in place."""
    dx, dy, dz = parts
    dx *= dx
    dy *= dy
    dz *= dz
    dx += dy
    dx += dz
    return dx


def sq_dists_to(points: np.ndarray, ids: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from the columns of ``q`` (3, ...) to
    ``points[ids]``, with ``ids`` broadcast against ``q[0]``."""
    return _sq_sum([points[:, axis].take(ids) - q[axis] for axis in range(3)])


def _leaf_sq_dists(xyz: np.ndarray, node: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(W, M) squared distances from each column of ``q`` (3, M) to the
    slots of the leaf ``node`` (M,), read from ``MedianKd.xyz``."""
    return _sq_sum([xyz[axis].take(node, axis=1) - q[axis] for axis in range(3)])


def _runs(qi: np.ndarray) -> np.ndarray:
    """Start of each run of equal values in the sorted ``qi``."""
    return np.flatnonzero(np.diff(qi, prepend=-1))


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


class MedianKd(NamedTuple):
    """Median kd split of a point set into 2**depth leaves of at most
    ``_KD_LEAF`` points. At level l, node i holds positions
    [i*N >> l, (i+1)*N >> l) of the leaf-by-leaf order, split at its middle
    along its widest axis."""

    lo: list  # per level l, the (3, 2**l) low corners of the node bounding boxes
    hi: list  # and their high corners
    leaves: np.ndarray  # (2**depth, W) point indices leaf by leaf, padded with the leaf's last
    size: np.ndarray  # (2**depth,) points per leaf
    xyz: np.ndarray  # (3, W, 2**depth) coordinates of the ``leaves`` slots


def _median_kd(points: np.ndarray) -> MedianKd:
    n = len(points)
    depth = 0
    while -(-n // (1 << depth)) > _KD_LEAF:
        depth += 1
    rank = np.empty((3, n), dtype=np.intp)  # per-axis rank: unique integer sort keys
    for axis in range(3):
        rank[axis, np.argsort(points[:, axis], kind="stable")] = np.arange(n)
    order = np.arange(n)
    lo, hi = [], []
    for level in range(depth + 1):
        starts = (np.arange(1 << level) * n) >> level
        p = points[order]
        lo.append(np.ascontiguousarray(np.minimum.reduceat(p, starts).T))
        hi.append(np.ascontiguousarray(np.maximum.reduceat(p, starts).T))
        if level < depth:
            node = np.repeat(np.arange(1 << level), np.diff(starts, append=n))
            axis = np.argmax(hi[-1] - lo[-1], axis=0)[node]
            order = order[np.argsort(node * n + rank[axis, order])]
    size = np.diff(starts, append=n)
    slots = starts[:, None] + np.minimum(np.arange(int(size.max())), size[:, None] - 1)
    leaves = order[slots]
    xyz = np.ascontiguousarray(points[leaves].transpose(2, 1, 0))
    return MedianKd(lo, hi, leaves, size, xyz)


def _leaf_pairs(lo, hi, keep):
    """Leaf pairs (a, b), found level by level from the root: a child pair
    of a kept pair is kept where ``keep(level, a, b)`` holds."""
    a = b = np.zeros(1, dtype=np.intp)
    for level in range(1, len(lo)):
        ca = (2 * a[:, None] + [0, 0, 1, 1]).ravel()
        cb = (2 * b[:, None] + [0, 1, 0, 1]).ravel()
        kept = keep(level, ca, cb)
        a, b = ca[kept], cb[kept]
    return a, b


def _box_gap2(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Squared distance between the nearest points of two boxes, per
    column of (3, M) corners."""
    g = np.maximum(lo_b - hi_a, lo_a - hi_b)
    np.maximum(g, 0.0, out=g)
    return _sq_sum(g)


def _k_nearest(points: np.ndarray, kd: MedianKd, a, b, k: int):
    """Each point's k nearest other points among the leaves b paired with
    its own leaf a: (N, k) indices, nearest first, and their squared
    distances.

    Leaves are scored in blocks of about ``_NEIGHBOUR_BATCH`` distances, in
    order of their partner count, so each block pads its partner lists only
    to its own longest.
    """
    leaves, size = kd.leaves, kd.size
    width = leaves.shape[1]
    by_a = np.argsort(a, kind="stable")
    a, b = a[by_a], b[by_a]
    count = np.bincount(a, minlength=len(leaves))
    first = np.cumsum(count) - count
    rows = np.empty((len(points), k), dtype=np.intp)
    d2k = np.empty((len(points), k))
    order = np.argsort(count, kind="stable")
    s = 0
    while s < len(order):
        block = order[s:s + max(1, _NEIGHBOUR_BATCH // (width * width * count[order[s]]))]
        s += len(block)
        col = np.arange(count[block[-1]])
        partner = np.where(col < count[block, None],
                           b[np.minimum(first[block, None] + col, len(b) - 1)], -1)
        real = (np.arange(width) < size[partner][..., None]) & (partner >= 0)[..., None]
        c = np.where(real, leaves[partner], -1).reshape(len(block), -1)  # -1: no point
        own = leaves[block]
        d2 = sq_dists_to(points, c[:, None], points.T[:, own, None])
        d2[(c[:, None] < 0) | (c[:, None] == own[..., None])] = np.inf
        pick = np.argpartition(d2, k - 1, axis=2)[..., :k]
        dk = np.take_along_axis(d2, pick, axis=2)
        by_d = np.argsort(dk, axis=2, kind="stable")
        pick = np.take_along_axis(pick, by_d, axis=2)
        rows[own] = np.take_along_axis(np.broadcast_to(c[:, None], d2.shape), pick, axis=2)
        d2k[own] = np.take_along_axis(dk, by_d, axis=2)
    return rows, d2k


def _neighbour_rows(points: np.ndarray, kd: MedianKd):
    """``ObjectModel.neighbours``: rows of each point and its K =
    min(``_NEIGHBOURS``, N - 1) nearest other points, and their reach.

    Two passes over the kd leaves, each scoring a point only against the
    leaves paired with its own. First, every point's K-th nearest among the
    leaves of its smallest ancestor node with at least K + 1 points bounds
    its K-th neighbour's distance; the largest bound in a leaf serves every
    point in it. Then the leaf pairs (a, b) are found from the root as the
    diameter's are, keeping a pair while its boxes' nearest corners lie
    within leaf a's bound, and the true K nearest are read from them. A
    dropped leaf's box, and so each of its points, lies beyond the bound,
    which no K-th neighbour exceeds. Both passes compare computed squared
    distances, and a box's computed gap never exceeds that of a point pair
    inside it.
    """
    n = len(points)
    k = min(_NEIGHBOURS, n - 1)
    if k == 0:
        return np.zeros((1, 1), dtype=np.intp), np.full(1, np.inf)
    lo, hi, leaves = kd.lo, kd.hi, kd.leaves
    depth = len(lo) - 1
    up = depth - max(lv for lv in range(depth + 1) if n >> lv > k)
    a = np.repeat(np.arange(1 << depth), 1 << up)
    _, d2k = _k_nearest(points, kd, a, (a >> up << up) + np.arange(len(a)) % (1 << up), k)
    bound = d2k[leaves, -1].max(axis=1)
    bounds = [bound.reshape(1 << lv, -1).max(axis=1) for lv in range(depth + 1)]
    a, b = _leaf_pairs(lo, hi, lambda lv, a, b: _box_gap2(
        lo[lv][:, a], hi[lv][:, a], lo[lv][:, b], hi[lv][:, b]) <= bounds[lv][a])
    rows, d2k = _k_nearest(points, kd, a, b, k)
    reach = np.sqrt(d2k[:, -1]) if k < n - 1 else np.full(n, np.inf)
    return np.ascontiguousarray(np.vstack([np.arange(n), rows.T])), reach


def diameter(model: ObjectModel) -> float:
    """Exact max pairwise point distance.

    The result equals ``np.sqrt(((p[:, None] - p[None]) ** 2).sum(-1).max())``
    bit for bit, without scoring every pair: farthest-point hops give a
    lower bound, the points are split into median kd leaves (``model.kd``),
    and every pair of boxes whose farthest corners are no farther apart than
    the bound is dropped. The surviving leaf pairs are scored as exact
    coordinate differences, ((dx^2 + dy^2) + dz^2). Rounding is monotone, so
    a box pair's corner bound is never below the computed distance of a point
    pair inside it, and no dropped pair can beat the bound. See Har-Peled, "A
    practical approach for computing the diameter of a point set" (SoCG 2001).
    """
    pts = model.points
    best = _double_normal_d2(pts)
    lo, hi, _, _, xyz = model.kd

    def far(level, a, b, bound=best):
        e = np.maximum(hi[level][:, a] - lo[level][:, b], hi[level][:, b] - lo[level][:, a])
        return (a <= b) & (_sq_sum(e) > bound)

    a, b = _leaf_pairs(lo, hi, far)
    # leaf rows padded with their own last point, which repeats a distance
    width = xyz.shape[1]
    x, y, z = (np.ascontiguousarray(c.T) for c in xyz)
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
