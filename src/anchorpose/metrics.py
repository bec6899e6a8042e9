"""Pose evaluation metrics: average distance, thresholds, and AUC summaries."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import ObjectModel
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
    """Per-sample evaluation numbers for one predicted pose."""

    object_id: str
    add: float
    add_s: float
    rot_deg: float
    trans_m: float
    diameter: float
    symmetric: bool

    def __post_init__(self):
        for name in ("add", "add_s", "rot_deg", "trans_m", "diameter"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not self.add_s <= self.add + 1e-12:
            raise ValueError("add_s cannot exceed add")


def add_metric(model: ObjectModel, pred: Pose, gt: Pose) -> float:
    """Mean paired distance between the two transformed point sets."""
    diff = pred.apply(model.points) - gt.apply(model.points)
    return float(np.linalg.norm(diff, axis=1).mean())


def adds_metric(model: ObjectModel, pred: Pose, gt: Pose, method: str = "kdtree") -> float:
    """Mean closest-point distance from predicted-pose points to gt-pose points.

    ``method`` selects the kd-tree search, used at every model size, or the
    exact O(N^2) scan kept as its reference; both compute the same nearest
    distances.

    Closest-point distances do not change when one rigid motion moves both
    sets, so the kd-tree path maps the predicted points back by gt^-1 and
    queries ``model.kdtree``, the model's cached tree. Point i's own partner
    lies at its paired (ADD) distance, so the largest paired distance bounds
    every query; enlarged by a relative 1e-9 and an absolute term that keeps
    its square above zero, it excludes no nearest point and prunes most of
    the tree. A point whose paired distance is below half the gap to its
    nearest other model point (``model.half_gap``, with 1e-9 relative
    margins) has its own partner as its unique nearest point, by the
    triangle inequality, so only the other points are queried; the tree
    would return the same partners. The distance of each found pair is
    taken between the camera-frame points, as in the exact scan, so
    ``pred == gt`` gives 0.0.
    """
    a = pred.apply(model.points)
    b = gt.apply(model.points)
    if method == "kdtree":
        q = (a - gt.translation) @ gt.rotation
        d = np.linalg.norm(q - model.points, axis=1)
        bound = float(d.max())
        j = np.arange(len(q))
        rest = np.flatnonzero(~(d * (1 + 1e-9) < model.half_gap * (1 - 1e-9)))
        if len(rest):
            _, j[rest] = model.kdtree.query(
                q[rest], distance_upper_bound=bound * (1 + 1e-9) + 1e-150)
        return float(np.linalg.norm(a - b[j], axis=1).mean())
    if method != "exact":
        raise ValueError(f"unknown method {method!r}")
    total = 0.0
    block = 1024
    for i in range(0, len(a), block):
        d2 = ((a[i : i + block, None, :] - b[None, :, :]) ** 2).sum(-1)
        total += np.sqrt(d2.min(axis=1)).sum()
    return float(total / len(a))


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
    accuracy %, and 10 deg / 10 cm accuracy %.
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
            "add_s_auc": add_auc([r.add_s for r in recs]),
            "adds_auc_mixed": add_auc(mixed),
            "add01d_pct": 100.0 * np.mean([add_01d(r) for r in recs]),
            "deg10cm10_pct": 100.0 * np.mean([deg_cm(r) for r in recs]),
        })
    avg = {"object_id": f"avg({len(rows)})"}
    for col in SUMMARY_COLUMNS[1:]:
        avg[col] = float(np.mean([row[col] for row in rows]))
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
