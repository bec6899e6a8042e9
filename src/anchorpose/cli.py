"""Command-line front end: generate, code, corrupt, solve, evaluate, ablate.

Every subcommand is a pure function of its on-disk inputs, flags, and the
required --seed, so reruns produce byte-identical CSV/JSON outputs. The three
ablations (`ablate_anchors_rows`, `ablate_corr_rows`, `ablate_k_rows`) are
plain functions over in-memory benchmarks: each declares its map groups, an
anchor set with the variants (solver mode, intrinsics, fused sigmas) that
solve from it, and hands them to one sweep driver, which runs one task per
scene on `--jobs` worker processes. On a scene, each group's maps are built,
corrupted and read once, and every variant of the group solves from those
correspondences; each variant is then scored through `scene_eval_record`,
which computes ADD-S only for a symmetric object.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import camera_crop, codec, correspondence, geom, mesh, metrics, solver, synth
from .camera_crop import adjust_intrinsics, crop_affine, parsing
from .codec import AnchorSet, build_anchor_set
from .correspondence import (
    MapsHeader,
    NoiseSpec,
    corrupt,
    ground_truth_maps,
    load_dense_maps,
    loss_coarse,
    loss_fine,
    loss_mask,
    loss_total,
    save_dense_maps,
    write_loss_csv,
)
from .geom import Intrinsics, Pose
from .mesh import ObjectModel, load_registry, load_registry_model, save_registry, write_ply
from .metrics import (
    EvalRecord,
    add_metric,
    adds_metric,
    evaluate_batch,
    format_summary_table,
    write_summary_csv,
)
from .solver import (
    extract_correspondences,
    pose_error,
    ransac,
    solve_2d3d,
    solve_3d3d,
    solve_fused,
)
from .synth import SceneConfig, load_scene, make_benchmark, make_model, save_scene, tight_roi

DEFAULT_K_LIST = (1, 4, 8, 16, 32, 64, 128)


class IdMismatch(ValueError):
    """Predicted poses and ground-truth scenes disagree on ids."""


# ---------------------------------------------------------------------------
# Small deterministic-output helpers

def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header: str, rows: list[list]) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _fmt(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _child_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


_shared = None  # the sweep inputs, set once in each pool worker (never in the caller)


def _set_shared(shared) -> None:
    global _shared
    _shared = shared


def _shared_scene_task(item):
    return _scene_task(_shared, item)


def _check_jobs(jobs: int) -> None:
    """Raise ValueError unless ``jobs`` (the sweeps' worker count) is >= 1."""
    if not jobs >= 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs!r}")


def _pmap(shared, items, jobs: int) -> list:
    """``[_scene_task(shared, it) for it in items]``, on min(``jobs``,
    ``len(items)``) worker processes when that is more than one.

    ``shared`` (the model, scenes and map groups) reaches each worker once,
    through the pool initializer, so a task sends only its small ``item``
    (a scene index and that scene's draws) rather than megabytes of depth
    images. Both are plain data, so any start method can ship them.
    """
    workers = min(jobs, len(items))
    if workers <= 1:
        return [_scene_task(shared, it) for it in items]
    with ProcessPoolExecutor(max_workers=workers, initializer=_set_shared,
                             initargs=(shared,)) as ex:
        return list(ex.map(_shared_scene_task, items))


# ---------------------------------------------------------------------------
# Scene pipeline shared by the solve/eval commands and the sweeps

MAX_CORR = 800  # the sweeps' cap on correspondences per solve; `solve` has none


def _solve(corr: solver.CorrSet, k: Intrinsics, mode: str, *, sigma_m: float,
           sigma_px: float, seed: int) -> solver.SolveReport:
    """One pose solve in ``mode`` (3d3d, 2d3d or fused) with camera ``k``;
    ``seed`` seeds the fused solver's RANSAC initialization."""
    if mode not in ("3d3d", "2d3d", "fused"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "3d3d":
        return solve_3d3d(corr)
    if mode == "2d3d":
        return solve_2d3d(corr, k)
    return solve_fused(corr, k, sigma_m=sigma_m, sigma_px=sigma_px, seed=seed)


def _score(model: ObjectModel, pose: Pose, scene: synth.SceneSample, *,
           adds: bool = True) -> EvalRecord:
    """The record of ``pose``; without ADD-S (None) when ``adds`` is false."""
    rot, trans = pose_error(pose, scene.gt_pose)
    return EvalRecord(
        scene.object_id,
        add_metric(model, pose, scene.gt_pose),
        adds_metric(model, pose, scene.gt_pose) if adds else None,
        rot, trans, model.diameter, model.symmetric,
    )


def _failure_record(model: ObjectModel) -> EvalRecord:
    d = model.diameter
    return EvalRecord(model.id, d, d, 180.0, d, d, model.symmetric)


@dataclass(frozen=True)
class _Variant:
    """One sweep row's setting: the solver mode, the crop-adjusted ("crop")
    or raw ("org") camera matrix, and the fused solver's residual scales.
    The anchor set is its map group's."""

    mode: str
    intrinsic: str = "crop"
    sigma_m: float = solver.SIGMA_M
    sigma_px: float = solver.SIGMA_PX


def scene_eval_record(model: ObjectModel, scene: synth.SceneSample, corr: solver.CorrSet,
                      k: Intrinsics, *, mode: str, sigma_m: float, sigma_px: float,
                      solver_seed: int) -> EvalRecord:
    """Solve one sweep variant from a scene's correspondences and score it.

    A solve that raises one of ``solver.SOLVE_ERRORS`` (a degenerate set, no
    RANSAC consensus) yields a deterministic worst-case record instead, so
    sweeps never die half way. ADD-S is computed only for a symmetric
    object: the sweep columns read it for no other.
    """
    try:
        report = _solve(corr, k, mode, sigma_m=sigma_m, sigma_px=sigma_px, seed=solver_seed)
    except solver.SOLVE_ERRORS:
        return _failure_record(model)
    return _score(model, report.pose, scene, adds=model.symmetric)


def _scene_task(shared, item) -> list[EvalRecord]:
    """Every variant's record on one scene, in the order ``_sweep`` returns.

    Each map group runs ``ground_truth_maps``, ``corrupt`` under its drawn
    ``NoiseSpec`` and the extraction of at most ``MAX_CORR`` correspondences
    once; its variants then solve from those with the drawn solver seed. A
    group whose extraction raises one of ``solver.SOLVE_ERRORS`` (no
    foreground left) gives each of its variants the worst-case record.
    """
    model, scenes, groups, res = shared
    i, draws = item
    scene = scenes[i]
    roi = tight_roi(scene, res)
    ks = {"crop": adjust_intrinsics(scene.intrinsics, crop_affine(roi)),
          "org": scene.intrinsics}
    records = []
    for (anchors, variants), (noise, solver_seed) in zip(groups, draws):
        noisy = corrupt(ground_truth_maps(scene, anchors, roi), noise)
        try:
            corr = extract_correspondences(noisy, noisy.anchors)
        except solver.SOLVE_ERRORS:
            records += [_failure_record(model) for _ in variants]
            continue
        if len(corr) > MAX_CORR:
            idx = np.round(np.linspace(0, len(corr) - 1, MAX_CORR)).astype(np.intp)
            corr = corr.subset(np.unique(idx))
        records += [scene_eval_record(model, scene, corr, ks[v.intrinsic], mode=v.mode,
                                      sigma_m=v.sigma_m, sigma_px=v.sigma_px,
                                      solver_seed=solver_seed)
                    for v in variants]
    return records


def _sweep(model: ObjectModel, scenes, groups: list[tuple[AnchorSet, list[_Variant]]],
           draw, *, res: int, jobs: int) -> list[list[EvalRecord]]:
    """Score every variant on every scene; one list of records per variant.

    ``groups`` declares the sweep's map groups: (anchor set, the variants
    that solve from its maps). ``draw(g, i)`` gives group ``g``'s
    (NoiseSpec, solver seed) on scene ``i``. The draws are evaluated here
    and shipped in each scene's item, so no closure reaches a worker. There
    is one pool task per scene (``_scene_task``); the model, scenes and
    groups reach each worker once. The variants come back in group order,
    each group's in turn, whatever ``jobs`` is (ValueError below 1).
    """
    _check_jobs(jobs)
    # Cached here, so pool workers inherit them; only ADD-S, which a sweep
    # computes for a symmetric model alone, reads the neighbour rows and gaps.
    model.diameter
    if model.symmetric:
        model.neighbours, model.half_gap
    items = [(i, [draw(g, i) for g in range(len(groups))]) for i in range(len(scenes))]
    by_scene = _pmap((model, scenes, groups, res), items, jobs)
    return [[recs[j] for recs in by_scene] for j in range(sum(len(vs) for _, vs in groups))]


def _summary_cells(records) -> list:
    summary = evaluate_batch(records)[-1]
    return [summary["add01d_pct"], summary["adds_auc_mixed"], summary["deg10cm10_pct"]]


def ablate_anchors_rows(model: ObjectModel, scenes, *, k_list=DEFAULT_K_LIST,
                        noise_rel: float = 0.08, absolute_sigma: float | None = None,
                        seed: int = 0, res: int = 64, jobs: int = 1) -> list[list]:
    """Anchor-count sweep rows: K, covering_radius, add01d_pct, auc, deg10cm10_pct.

    The corruption scales with each anchor set's covering radius (both the
    i.i.d. and the per-scene-bias residual components), modeling prediction
    error that shrinks with the coding's output range; ``absolute_sigma``
    switches to a fixed-sigma variant for contrast. The K=1 row is the
    direct-coordinate baseline (single anchor, residual = full coordinate
    offset).
    """
    anchor_sets = [build_anchor_set(model, k) for k in k_list]

    def draw(g, i):
        radius = anchor_sets[g].covering_radius
        sigma = absolute_sigma if absolute_sigma is not None else noise_rel * radius
        return NoiseSpec(residual_sigma=sigma, label_flip_prob=0.0, residual_bias_sigma=sigma,
                         seed=_child_seed(seed, k_list[g], i)), 0

    groups = [(anchors, [_Variant("3d3d")]) for anchors in anchor_sets]
    records = _sweep(model, scenes, groups, draw, res=res, jobs=jobs)
    return [[str(k), anchors.covering_radius, *_summary_cells(recs)]
            for k, anchors, recs in zip(k_list, anchor_sets, records)]


def ablate_corr_rows(model: ObjectModel, anchors: AnchorSet, scenes, *,
                     residual_sigma: float = 0.001, depth_sigma: float = 0.001,
                     uv_sigma: float = 2.0, seed: int = 0, res: int = 64,
                     jobs: int = 1) -> tuple[list[list], dict]:
    """Correspondence-family sweep: rows 2d3d, 3d3d, fused under mixed noise.

    Returns (csv rows, per-mode mean rotation/translation errors). The
    fused solver is balanced with the actual noise scales.
    """
    sigma_m = max(1e-6, math.hypot(residual_sigma, depth_sigma))
    sigma_px = max(0.25, uv_sigma)
    modes = ("2d3d", "3d3d", "fused")
    variants = [_Variant(mode, sigma_m=sigma_m, sigma_px=sigma_px) for mode in modes]

    def draw(g, i):
        return NoiseSpec(residual_sigma=residual_sigma, label_flip_prob=0.0,
                         depth_sigma=depth_sigma, uv_sigma=uv_sigma,
                         seed=_child_seed(seed, 17, i)), _child_seed(seed, 23, i)

    rows, stats = [], {}
    for mode, recs in zip(modes, _sweep(model, scenes, [(anchors, variants)], draw,
                                        res=res, jobs=jobs)):
        mean_rot = float(np.mean([r.rot_deg for r in recs]))
        mean_trans = float(np.mean([r.trans_m for r in recs]))
        stats[mode] = {"mean_rot_deg": mean_rot, "mean_trans_m": mean_trans}
        rows.append([mode, *_summary_cells(recs), mean_rot, mean_trans])
    return rows, stats


def ablate_k_rows(model: ObjectModel, anchors: AnchorSet, scenes, *,
                  uv_sigma: float = 0.5, seed: int = 0, res: int = 64,
                  jobs: int = 1) -> list[list]:
    """Intrinsic-adjustment sweep: reprojection solving with the raw vs the
    crop-adjusted camera matrix. Rows: k_org then k_crop."""
    intrinsics = ("org", "crop")
    variants = [_Variant("2d3d", intrinsic) for intrinsic in intrinsics]

    def draw(g, i):
        return NoiseSpec(residual_sigma=0.0, label_flip_prob=0.0, uv_sigma=uv_sigma,
                         seed=_child_seed(seed, 29, i)), 0

    records = _sweep(model, scenes, [(anchors, variants)], draw, res=res, jobs=jobs)
    return [[f"k_{intrinsic}", *_summary_cells(recs), float(np.mean([r.rot_deg for r in recs]))]
            for intrinsic, recs in zip(intrinsics, records)]


# ---------------------------------------------------------------------------
# Subcommands

def cmd_gen(args: argparse.Namespace) -> int:
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    model = make_model(args.shape, args.points, args.scale, args.seed)
    write_ply(out / "model.ply", model.points)
    save_registry([{
        "id": model.id, "path": "model.ply",
        "symmetric": model.symmetric, "mm_to_m": False,
    }], out / "registry.json")

    levels = args.occlusion_levels
    config = SceneConfig(
        seed=args.seed,
        width=args.width, height=args.height,
        intrinsics=Intrinsics(args.fx, args.fy, args.width / 2.0, args.height / 2.0),
        depth_range=tuple(args.depth_range),
        depth_sigma=args.depth_sigma,
    )
    scenes = make_benchmark(model, config, args.scenes, levels)
    level_of = [levels[li] for li, _ in synth.level_slots(args.scenes, len(levels))]

    entries = []
    for i, scene in enumerate(scenes):
        name = f"scene_{i:04d}"
        save_scene(scene, out / f"{name}.npz")
        entries.append({
            "id": name, "file": f"{name}.npz", "object_id": scene.object_id,
            "visible_fraction": scene.visible_fraction,
            "target_level": level_of[i],
        })
    _write_json(out / "manifest.json", {
        "config": {
            "shape": args.shape, "points": args.points, "scale": args.scale,
            "seed": args.seed, "width": args.width, "height": args.height,
            "fx": args.fx, "fy": args.fy, "depth_range": list(args.depth_range),
            "depth_sigma": args.depth_sigma, "occlusion_levels": list(levels),
        },
        "scenes": entries,
    })
    print(f"wrote {len(scenes)} scenes to {out}")
    return 0


def _load_benchmark_dir(scenes_dir: Path):
    """A ``gen`` benchmark's (id, scene) pairs and registry models by object id."""
    manifest_path = scenes_dir / "manifest.json"
    with parsing(manifest_path), open(manifest_path) as f:
        manifest = json.load(f)
        if not isinstance(manifest["scenes"], list):
            raise TypeError("'scenes' is not a list")
        entries = [(e["id"], scenes_dir / e["file"]) for e in manifest["scenes"]]
        if not all(isinstance(scene_id, str) for scene_id, _ in entries):
            raise TypeError("a scene id is not a string")
    scenes = [(scene_id, load_scene(path)) for scene_id, path in entries]
    reg_path = scenes_dir / "registry.json"
    with parsing(reg_path):
        models = {e["id"]: load_registry_model(reg_path, e) for e in load_registry(reg_path)}
    for scene_id, scene in scenes:
        if scene.object_id not in models:
            raise IdMismatch(f"{reg_path} has no object {scene.object_id!r} ({scene_id})")
    return scenes, models


def cmd_encode(args: argparse.Namespace) -> int:
    scenes, models = _load_benchmark_dir(args.scenes)
    anchor_sets = {oid: build_anchor_set(models[oid], args.k)
                   for oid in {scene.object_id for _, scene in scenes}}
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for scene_id, scene in scenes:
        roi = tight_roi(scene, args.res)
        maps = ground_truth_maps(scene, anchor_sets[scene.object_id], roi)
        name = f"{scene_id}.npz"
        save_dense_maps(maps, out / name, MapsHeader(scene_id, scene.object_id,
                                                     scene.intrinsics, scene.gt_pose))
        entries.append({"id": scene_id, "file": name})
    _write_json(out / "manifest.json", {"maps": entries, "res": args.res})
    print(f"encoded {len(entries)} scenes -> {out}")
    return 0


def _maps_files(path: Path) -> list[Path]:
    """``path`` itself when it is one maps file, else the files listed in the
    ``manifest.json`` of the maps directory ``path``."""
    if path.is_file():
        return [path]
    with parsing(path / "manifest.json"), open(path / "manifest.json") as f:
        return [path / e["file"] for e in json.load(f)["maps"]]


def cmd_corrupt(args: argparse.Namespace) -> int:
    files = _maps_files(args.maps)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    entries, loss_rows = [], []
    for i, path in enumerate(sorted(files)):
        maps, header = load_dense_maps(path)
        noise = NoiseSpec(
            residual_sigma=args.residual_sigma,
            label_flip_prob=args.label_flip,
            mask_flip_prob=args.mask_flip,
            depth_sigma=args.depth_sigma,
            uv_sigma=args.uv_sigma,
            residual_bias_sigma=args.residual_bias_sigma,
            seed=_child_seed(args.seed, i),
        )
        noisy = corrupt(maps, noise)
        save_dense_maps(noisy, out / path.name, header)
        entries.append({"id": header.scene_id, "file": path.name})

        lm = loss_mask(noisy.mask, maps.mask)
        lc = loss_coarse(noisy.region_probs, maps.classes, noisy.mask)
        lf = loss_fine(noisy.residual, maps.residual, maps.mask)
        try:
            corr = extract_correspondences(noisy, maps.anchors)
            rot, trans = pose_error(solve_3d3d(corr).pose, header.gt_pose)
            lt = loss_total(lc, lf, lm, math.radians(rot) + trans)
        except solver.SOLVE_ERRORS:
            lt = None
        loss_rows.append((header.scene_id, lm, lc, lf, lt))
    _write_json(out / "manifest.json", {"maps": entries})
    write_loss_csv(loss_rows, out / "losses.csv")
    print(f"corrupted {len(entries)} map sets -> {out}")
    return 0


def _check_solve_flags(args: argparse.Namespace) -> tuple[float, int, dict]:
    """Reject a ``solve`` flag that the chosen mode cannot take or would
    ignore, or a value the solver would reject (exit 2), before any file is
    read. Returns the resolved (inlier_tol, max_iters, sigmas)."""
    if args.ransac and args.mode == "fused":
        raise ValueError("--ransac needs --mode 3d3d or 2d3d; the fused solver "
                         "runs its own robust initialization")
    for flag, value, needs, used in (
        ("--inlier-tol", args.inlier_tol, "--ransac", args.ransac),
        ("--max-iters", args.max_iters, "--ransac", args.ransac),
        ("--sigma-m", args.sigma_m, "--mode fused", args.mode == "fused"),
        ("--sigma-px", args.sigma_px, "--mode fused", args.mode == "fused"),
    ):
        if value is not None and not used:
            raise ValueError(f"{flag} has no effect without {needs}")
    inlier_tol = (solver.RANSAC_INLIER_TOL.get(args.mode) if args.inlier_tol is None
                  else args.inlier_tol)
    max_iters = solver.RANSAC_ITERS if args.max_iters is None else args.max_iters
    sigmas = {"sigma_m": solver.SIGMA_M if args.sigma_m is None else args.sigma_m,
              "sigma_px": solver.SIGMA_PX if args.sigma_px is None else args.sigma_px}
    if args.ransac:
        solver.check_solve_values(max_iters=max_iters, inlier_tol=inlier_tol)
    if args.mode == "fused":
        solver.check_solve_values(**sigmas)
    return inlier_tol, max_iters, sigmas


def cmd_solve(args: argparse.Namespace) -> int:
    inlier_tol, max_iters, sigmas = _check_solve_flags(args)
    files = _maps_files(args.maps)
    results = []
    for i, path in enumerate(sorted(files)):
        maps, header = load_dense_maps(path)
        k_crop = adjust_intrinsics(header.intrinsics, crop_affine(maps.grids.roi))
        corr, seed = extract_correspondences(maps, maps.anchors), _child_seed(args.seed, i)
        report = (ransac(corr, args.mode, inlier_tol, max_iters, seed, k=k_crop) if args.ransac
                  else _solve(corr, k_crop, args.mode, **sigmas, seed=seed))
        results.append({"scene_id": header.scene_id, "object_id": header.object_id,
                        **report.to_json()})
    _write_json(args.out, results)
    print(f"solved {len(results)} map sets -> {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    with parsing(args.pred), open(args.pred) as f:
        preds = json.load(f)
    scenes, models = _load_benchmark_dir(args.scenes)
    gt = dict(scenes)
    with parsing(args.pred):
        pred_ids = [p["scene_id"] for p in preds]
        poses = [Pose.from_json(p["pose"]) for p in preds]
        if not all(isinstance(p["scene_id"], str) and isinstance(p.get("object_id", ""), str)
                   for p in preds):
            raise TypeError("a scene or object id is not a string")
    if sorted(pred_ids) != sorted(gt):
        raise IdMismatch("prediction scene ids do not match the benchmark")
    records = []
    for p, pose in zip(preds, poses):
        scene = gt[p["scene_id"]]
        if p.get("object_id", scene.object_id) != scene.object_id:
            raise IdMismatch(f"object id mismatch for scene {p['scene_id']}")
        records.append(_score(models[scene.object_id], pose, scene))
    rows = evaluate_batch(records)
    write_summary_csv(rows, args.out)
    print(format_summary_table(rows))
    return 0


def _scenes_and_model(args: argparse.Namespace):
    _check_jobs(args.jobs)  # before any file is read
    scenes, models = _load_benchmark_dir(args.scenes)
    ids = {s.object_id for _, s in scenes}
    if len(ids) != 1:
        raise ValueError("ablation sweeps expect a single-object benchmark")
    model = models[ids.pop()]
    return [s for _, s in scenes], model


def cmd_ablate_anchors(args: argparse.Namespace) -> int:
    scenes, model = _scenes_and_model(args)
    rows = ablate_anchors_rows(
        model, scenes, k_list=args.k_list, noise_rel=args.noise_rel,
        absolute_sigma=args.absolute_sigma, seed=args.seed,
        res=args.res, jobs=args.jobs,
    )
    _write_csv(args.out, "K,covering_radius,add01d_pct,auc,deg10cm10_pct", rows)
    print(f"anchor sweep ({len(rows)} rows) -> {args.out}")
    return 0


def cmd_ablate_corr(args: argparse.Namespace) -> int:
    scenes, model = _scenes_and_model(args)
    anchors = build_anchor_set(model, args.k)
    rows, _ = ablate_corr_rows(
        model, anchors, scenes, residual_sigma=args.residual_sigma,
        depth_sigma=args.depth_sigma, uv_sigma=args.uv_sigma,
        seed=args.seed, res=args.res, jobs=args.jobs,
    )
    _write_csv(args.out, "mode,add01d_pct,auc,deg10cm10_pct,mean_rot_deg,mean_trans_m", rows)
    print(f"correspondence sweep -> {args.out}")
    return 0


def cmd_ablate_k(args: argparse.Namespace) -> int:
    scenes, model = _scenes_and_model(args)
    anchors = build_anchor_set(model, args.k)
    rows = ablate_k_rows(model, anchors, scenes, uv_sigma=args.uv_sigma,
                         seed=args.seed, res=args.res, jobs=args.jobs)
    _write_csv(args.out, "intrinsic,add01d_pct,auc,deg10cm10_pct,mean_rot_deg", rows)
    print(f"intrinsic sweep -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch

_EXIT_CODES: list[tuple[tuple, int]] = [
    ((IdMismatch, correspondence.ObjectMismatch, correspondence.ShapeMismatch), 5),
    ((synth.BinUnfillable, synth.ObjectOutOfView, mesh.KTooLarge, mesh.EmptyModel,
      metrics.EmptyInput, metrics.ZeroDiameter), 6),
    ((*solver.SOLVE_ERRORS, geom.PointBehindCamera, geom.NotARotation,
      camera_crop.EmptyIntersection, correspondence.NonFinite, codec.IndexOutOfRange), 4),
    ((camera_crop.MalformedInput, mesh.ParseError, mesh.UnsupportedPlyVariant, OSError), 3),
    ((ValueError,), 2),
]


def exit_code_for(exc: BaseException) -> int:
    for classes, code in _EXIT_CODES:
        if isinstance(exc, classes):
            return code
    return 1


def _build_parser() -> argparse.ArgumentParser:
    # argparse's formatter reads the terminal width (less 2) each time it is
    # made, once per argument added; read it once for the whole parser
    fmt = functools.partial(argparse.HelpFormatter,
                            width=shutil.get_terminal_size().columns - 2)
    common = argparse.ArgumentParser(add_help=False, formatter_class=fmt)
    common.add_argument("--seed", type=int, required=True, help="master RNG seed")
    common.add_argument("--out", type=Path, required=True, help="output path")
    sweep = argparse.ArgumentParser(add_help=False, parents=[common], formatter_class=fmt)
    sweep.add_argument("--scenes", type=Path, required=True)
    sweep.add_argument("--res", type=int, default=camera_crop.CORR_RES)
    sweep.add_argument("--jobs", type=int, default=1, help="parallel scene workers")

    p = argparse.ArgumentParser(prog="anchorpose", description=__doc__, formatter_class=fmt)
    add_parser = functools.partial(p.add_subparsers(dest="command", required=True).add_parser,
                                   formatter_class=fmt)

    g = add_parser("gen", parents=[common], help="generate a synthetic benchmark")
    g.add_argument("--shape", choices=synth.SHAPES, default="blob")
    g.add_argument("--scenes", type=int, default=50)
    g.add_argument("--points", type=int, default=2500)
    g.add_argument("--scale", type=float, default=0.12)
    g.add_argument("--width", type=int, default=640)
    g.add_argument("--height", type=int, default=480)
    g.add_argument("--fx", type=float, default=550.0)
    g.add_argument("--fy", type=float, default=550.0)
    g.add_argument("--depth-range", type=float, nargs=2, default=(0.5, 1.6))
    g.add_argument("--depth-sigma", type=float, default=0.0)
    g.add_argument("--occlusion-levels", type=float, nargs="+", default=[1.0])

    e = add_parser("encode", parents=[common], help="ground-truth maps for a benchmark")
    e.add_argument("--scenes", type=Path, required=True)
    e.add_argument("--k", type=int, default=codec.DEFAULT_ANCHOR_COUNT)
    e.add_argument("--res", type=int, default=camera_crop.CORR_RES)

    c = add_parser("corrupt", parents=[common], help="noise maps and emit losses.csv")
    c.add_argument("--maps", type=Path, required=True)
    c.add_argument("--residual-sigma", type=float, default=0.005)
    c.add_argument("--residual-bias-sigma", type=float, default=0.0)
    c.add_argument("--label-flip", type=float, default=0.02)
    c.add_argument("--mask-flip", type=float, default=0.0)
    c.add_argument("--depth-sigma", type=float, default=0.0)
    c.add_argument("--uv-sigma", type=float, default=0.0)

    s = add_parser("solve", parents=[common], help="recover poses from maps")
    s.add_argument("--maps", type=Path, required=True)
    s.add_argument("--mode", choices=("3d3d", "2d3d", "fused"), default="fused")
    s.add_argument("--ransac", action="store_true")
    s.add_argument("--inlier-tol", type=float, default=None,
                   help="RANSAC inlier tolerance (default: {3d3d} m for 3d3d, {2d3d} px "
                        "for 2d3d)".format(**solver.RANSAC_INLIER_TOL))
    s.add_argument("--max-iters", type=int, default=None,
                   help=f"RANSAC hypotheses (default: {solver.RANSAC_ITERS})")
    s.add_argument("--sigma-m", type=float, default=None,
                   help=f"fused metric residual scale, meters (default: {solver.SIGMA_M})")
    s.add_argument("--sigma-px", type=float, default=None,
                   help=f"fused reprojection residual scale, pixels (default: {solver.SIGMA_PX})")

    v = add_parser("eval", parents=[common], help="summarize predicted poses")
    v.add_argument("--pred", type=Path, required=True)
    v.add_argument("--scenes", type=Path, required=True)

    aa = add_parser("ablate-anchors", parents=[sweep], help="anchor-count sweep CSV")
    aa.add_argument("--k-list", type=int, nargs="+", default=list(DEFAULT_K_LIST))
    aa.add_argument("--noise-rel", type=float, default=0.08)
    aa.add_argument("--absolute-sigma", type=float, default=None)

    ac = add_parser("ablate-corr", parents=[sweep], help="correspondence-family sweep CSV")
    ac.add_argument("--k", type=int, default=codec.DEFAULT_ANCHOR_COUNT)
    ac.add_argument("--residual-sigma", type=float, default=0.001)
    ac.add_argument("--depth-sigma", type=float, default=0.001)
    ac.add_argument("--uv-sigma", type=float, default=2.0)

    ak = add_parser("ablate-k", parents=[sweep], help="intrinsic-adjustment sweep CSV")
    ak.add_argument("--k", type=int, default=codec.DEFAULT_ANCHOR_COUNT)
    ak.add_argument("--uv-sigma", type=float, default=0.5)
    return p


_COMMANDS = {
    "gen": cmd_gen,
    "encode": cmd_encode,
    "corrupt": cmd_corrupt,
    "solve": cmd_solve,
    "eval": cmd_eval,
    "ablate-anchors": cmd_ablate_anchors,
    "ablate-corr": cmd_ablate_corr,
    "ablate-k": cmd_ablate_k,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - map every failure to an exit code
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
