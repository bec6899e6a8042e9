"""Pose evaluation metrics: average distance, thresholds, and AUC summaries."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import ObjectModel, sq_dists_to
from .geom import Pose

AUC_MAX_THRESHOLD = 0.10  # meters; community convention, the AUC range evaluate_batch reports
ADD_DIAMETER_FRACTION = 0.1  # add_01d passes below this share of the diameter
DEG_THRESHOLD = 10.0
CM_THRESHOLD = 0.10  # meters


class EmptyInput(ValueError):
    """Metric aggregation requires at least one value."""


class ZeroDiameter(ValueError):
    """Relative thresholds require a positive object diameter."""


@dataclass
class EvalRecord:
    """Per-sample evaluation numbers for one predicted pose.

    ``add_s`` may be None for an asymmetric object, whose symmetry-dispatched
    metrics read ``add`` alone; the ablation sweeps skip it there.
    """

    object_id: str
    add: float
    add_s: float | None
    rot_deg: float
    trans_m: float
    diameter: float
    symmetric: bool

    def __post_init__(self):
        for name in ("add", "rot_deg", "trans_m", "diameter"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if self.add_s is None:
            if self.symmetric:
                raise ValueError("a symmetric object's record needs add_s")
        elif not 0 <= self.add_s <= self.add + 1e-12:
            raise ValueError("add_s must be >= 0 and cannot exceed add")


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (N, 3) array, summed as
    ``np.linalg.norm(d, axis=1)`` sums it, ((x^2 + y^2) + z^2), but over whole
    columns rather than row by row."""
    x, y, z = d.T
    return np.sqrt((x * x + y * y) + z * z)


def add_metric(model: ObjectModel, pred: Pose, gt: Pose) -> float:
    """Mean paired distance between the two transformed point sets."""
    diff = pred.apply(model.points) - gt.apply(model.points)
    return float(_row_norms(diff).mean())


def adds_metric(model: ObjectModel, pred: Pose, gt: Pose, method: str = "kdtree") -> float:
    """Mean closest-point distance from predicted-pose points to gt-pose points.

    ``method`` selects the search over the model's own neighbour rows and
    kd tree, used at every model size, or the exact O(N^2) scan kept as its
    reference. Both compute the same nearest distances and take their mean
    the same way, so they agree bit for bit.

    Closest-point distances do not change when one rigid motion moves both
    sets, so the ``"kdtree"`` path maps the predicted points back by gt^-1
    and searches the model points for each query q_i. Its own partner,
    point i, lies at the paired (ADD) distance d_i. Every test below keeps
    1e-9 relative margins:

    - If d_i is below ``model.half_gap[i]``, the partner is the unique
      nearest point (triangle inequality) and is kept.
    - Otherwise q_i is scored against point i's neighbour row
      (``model.neighbours``). The row's best lies at u <= d_i, so the
      nearest point lies within d_i + u of point i. If that is below the
      row's reach, the row holds every such point and its best is the
      nearest.
    - The queries left walk the kd tree (``model.nearest``), pruned by box
      distance <= u.

    Each step compares the same computed squared distances,
    ((dx^2 + dy^2) + dz^2), and ties go to the lowest index. The distance of
    each found pair is taken between the camera-frame points, as in the
    exact scan, so ``pred == gt`` gives 0.0.
    """
    a = pred.apply(model.points)
    b = gt.apply(model.points)
    if method == "kdtree":
        pts = model.points
        q = (a - gt.translation) @ gt.rotation
        e = q - pts
        e *= e
        d = np.sqrt((e[:, 0] + e[:, 1]) + e[:, 2])
        rest = np.flatnonzero(~(d * (1 + 1e-9) < model.half_gap * (1 - 1e-9)))
        if len(rest):
            rows, reach = model.neighbours
            cand = rows.take(rest, axis=1)
            d2 = sq_dists_to(pts, cand, q.take(rest, axis=0).T)
            u2 = d2.min(axis=0)
            j = np.arange(len(q))
            j[rest] = np.where(d2 == u2, cand, len(q)).min(axis=0)
            far = ~((d[rest] + np.sqrt(u2)) * (1 + 1e-9) < reach.take(rest) * (1 - 1e-9))
            if far.any():
                j[rest[far]] = model.nearest(q.take(rest[far], axis=0), u2[far])
            b = b.take(j, axis=0)
        return float(_row_norms(a - b).mean())
    if method != "exact":
        raise ValueError(f"unknown method {method!r}")
    near = np.empty(len(a))
    block = 1024
    for i in range(0, len(a), block):
        d2 = ((a[i : i + block, None, :] - b[None, :, :]) ** 2).sum(-1)
        near[i : i + block] = np.sqrt(d2.min(axis=1))
    return float(near.mean())


def add_auc(distances, max_threshold: float = AUC_MAX_THRESHOLD) -> float:
    """Exact area under the accuracy-vs-threshold step curve, normalized.

    Each distance d contributes max(0, (max - min(d, max)) / max) / N, i.e.
    the curve is integrated from threshold 0 to ``max_threshold``.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.size == 0:
        raise EmptyInput("no distances")
    if not (np.all(np.isfinite(d)) and d.min() >= 0):
        raise ValueError("distances must be finite and >= 0")
    return float(np.clip(1.0 - d / max_threshold, 0.0, 1.0).mean())


def add_01d(record: EvalRecord) -> bool:
    """Symmetry-dispatched distance below ``ADD_DIAMETER_FRACTION`` of the diameter.

    Uses add_s for symmetric objects and add otherwise; the comparison is
    strictly less-than, so boundary ties fail.
    """
    if not record.diameter > 0:
        raise ZeroDiameter("diameter must be positive")
    d = record.add_s if record.symmetric else record.add
    return bool(d < ADD_DIAMETER_FRACTION * record.diameter)


def deg_cm(record: EvalRecord) -> bool:
    """Rotation below ``DEG_THRESHOLD`` degrees and translation below
    ``CM_THRESHOLD`` meters."""
    return bool(record.rot_deg < DEG_THRESHOLD and record.trans_m < CM_THRESHOLD)


SUMMARY_COLUMNS = ("object_id", "add_s_auc", "adds_auc_mixed", "add01d_pct", "deg10cm10_pct")


def evaluate_batch(records) -> list[dict]:
    """Per-object rows plus an unweighted average row.

    Columns: ADD-S AUC, symmetry-dispatched ADD(-S) AUC, ADD(-S) 0.1d
    accuracy %, and 10 deg / 10 cm accuracy %. ADD-S AUC is None in a row
    with a record that has no ADD-S, and in the average row when any row's
    is None; ``write_summary_csv`` and ``format_summary_table`` reject such
    rows.
    """
    records = list(records)
    if not records:
        raise EmptyInput("no records")
    by_obj: dict[str, list[EvalRecord]] = {}
    for r in records:
        by_obj.setdefault(r.object_id, []).append(r)
    rows = []
    for obj_id in sorted(by_obj):
        recs = by_obj[obj_id]
        mixed = [r.add_s if r.symmetric else r.add for r in recs]
        rows.append({
            "object_id": obj_id,
            "add_s_auc": None if any(r.add_s is None for r in recs)
            else add_auc([r.add_s for r in recs]),
            "adds_auc_mixed": add_auc(mixed),
            "add01d_pct": 100.0 * np.mean([add_01d(r) for r in recs]),
            "deg10cm10_pct": 100.0 * np.mean([deg_cm(r) for r in recs]),
        })
    avg = {"object_id": f"avg({len(rows)})"}
    for col in SUMMARY_COLUMNS[1:]:
        values = [row[col] for row in rows]
        avg[col] = None if None in values else float(np.mean(values))
    rows.append(avg)
    return rows


def write_summary_csv(rows, path) -> None:
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in rows:
        lines.append(",".join(
            [str(row["object_id"])] + [repr(float(row[c])) for c in SUMMARY_COLUMNS[1:]]
        ))
    Path(path).write_text("\n".join(lines) + "\n")


def format_summary_table(rows) -> str:
    """Human-readable fixed-width rendering of ``evaluate_batch`` rows."""
    header = f"{'object':<24}{'ADD-S AUC':>11}{'ADD(-S) AUC':>13}{'0.1d %':>9}{'10d10cm %':>11}"
    out = [header, "-" * len(header)]
    for row in rows:
        out.append(
            f"{row['object_id']:<24}{row['add_s_auc']:>11.4f}"
            f"{row['adds_auc_mixed']:>13.4f}{row['add01d_pct']:>9.2f}"
            f"{row['deg10cm10_pct']:>11.2f}"
        )
    return "\n".join(out)
