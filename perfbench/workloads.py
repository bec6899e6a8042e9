"""The benchmark's two workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` (timed
as ``setup_s``) and then runs whole *units* in the timed loop: one pass over
every scene for the in-memory workload, one ``ablate-corr`` command for the
CLI workload. A scene evaluation is one encode -> corrupt -> solve ->
score over one scene; a sweep counts one per (scene, mode).

Every unit checks its own outputs and raises ``CheckFailed`` when they are
wrong: each pose is a proper rotation, every CLI exit code is 0, and each
unit reproduces the first unit's outputs exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from anchorpose import cli
from anchorpose.camera_crop import adjust_intrinsics, crop_affine
from anchorpose.codec import build_anchor_set
from anchorpose.correspondence import NoiseSpec, corrupt, ground_truth_maps
from anchorpose.geom import Intrinsics
from anchorpose.metrics import EvalRecord, add_metric, adds_metric, evaluate_batch
from anchorpose.solver import (
    Degenerate,
    DegenerateConfiguration,
    NoConsensus,
    NoForeground,
    extract_correspondences,
    pose_error,
    ransac,
    solve_fused,
)
from anchorpose.synth import SceneConfig, make_benchmark, make_model, tight_roi

SOLVE_ERRORS = (NoForeground, DegenerateConfiguration, Degenerate, NoConsensus)
SETUP_REPEATS = 3
# The README walkthrough's camera, as `anchorpose gen` builds it by default.
WIDTH, HEIGHT, FOCAL, DEPTH_RANGE = 640, 480, 550.0, (0.5, 1.6)


class CheckFailed(Exception):
    """A program output is wrong; the run must not report a result."""


@dataclass
class Unit:
    """What one timed unit did. ``scene_ms`` is None when the unit cannot
    time scenes one by one (a CLI command processes all of them)."""

    evaluations: int
    failed: int
    scene_ms: list | None
    adds_auc: float | None  # None for a pass cut short
    add01d_pct: float | None
    maps_bytes: float  # per scene


def child_seed(*parts) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def check_rotation(rot, where: str) -> None:
    rot = np.asarray(rot, dtype=np.float64).reshape(3, 3)
    if not (np.all(np.isfinite(rot))
            and np.abs(rot.T @ rot - np.eye(3)).max() < 1e-9
            and abs(np.linalg.det(rot) - 1.0) < 1e-9):
        raise CheckFailed(f"{where}: pose is not a proper rotation")


def _maps_nbytes(maps) -> int:
    return sum(a.nbytes for a in (maps.mask, maps.region_probs, maps.anchor_xyz,
                                  maps.residual, maps.grids.uv, maps.grids.cam_xyz,
                                  maps.grids.valid))


def _scene_config(seed: int) -> SceneConfig:
    return SceneConfig(seed=seed, width=WIDTH, height=HEIGHT,
                       intrinsics=Intrinsics(FOCAL, FOCAL, WIDTH / 2.0, HEIGHT / 2.0),
                       depth_range=DEPTH_RANGE)


# ---------------------------------------------------------------------------
# In-memory workload: the library API, one scene evaluation at a time


class FusedBlob:
    name = "fused_blob"
    # The object is the README's (`gen --seed 7`), fixed so that seed-to-seed
    # differences come from the scenes and the noise alone.
    params = {"shape": "blob", "points": 2500, "scale": 0.12, "model_seed": 7, "k": 32,
              "res": 64, "residual_sigma": 0.005, "label_flip": 0.02,
              "occlusion_levels": [1.0, 0.7, 0.4], "scenes": 120,
              "mode": "ransac 3d3d (tol 0.01 m, 128 hypotheses) -> solve_fused",
              "metric": "ADD (asymmetric)"}

    def setup(self, seed, work, tracer):
        p = self.params
        model = make_model(p["shape"], p["points"], p["scale"], p["model_seed"])
        model.diameter
        anchors = build_anchor_set(model, p["k"])
        scenes = make_benchmark(model, _scene_config(seed), p["scenes"],
                                p["occlusion_levels"])
        return {"seed": seed, "model": model, "anchors": anchors, "scenes": scenes}

    def evaluate(self, state, i, scene):
        """Returns (EvalRecord, solved pose or None, maps bytes)."""
        p, seed, model, anchors = self.params, state["seed"], state["model"], state["anchors"]
        roi = tight_roi(scene, p["res"])
        maps = ground_truth_maps(scene, anchors, roi)
        noisy = corrupt(maps, NoiseSpec(residual_sigma=p["residual_sigma"],
                                        label_flip_prob=p["label_flip"],
                                        seed=child_seed(seed, 1, i)))
        k_crop = adjust_intrinsics(scene.intrinsics, crop_affine(roi))
        try:
            corr = extract_correspondences(noisy, anchors)
            init = ransac(corr, "3d3d", 0.01, 128, child_seed(seed, 2, i)).pose
            pose = solve_fused(corr, k_crop, init=init).pose
        except SOLVE_ERRORS:
            return cli._failure_record(model), None, _maps_nbytes(maps)
        rot, trans = pose_error(pose, scene.gt_pose)
        rec = EvalRecord(scene.object_id, add_metric(model, pose, scene.gt_pose),
                         adds_metric(model, pose, scene.gt_pose),
                         rot, trans, model.diameter, model.symmetric)
        return rec, pose, _maps_nbytes(maps)

    def order(self, state):
        """Scene indices interleaved across occlusion levels, so a pass cut
        short by the deadline still covers every level evenly."""
        n, levels = len(state["scenes"]), len(self.params["occlusion_levels"])
        # make_benchmark's split: consecutive blocks, the first n % levels one longer.
        counts = [n // levels + (lv < n % levels) for lv in range(levels)]
        starts = [sum(counts[:lv]) for lv in range(levels)]
        return [starts[lv] + j for j in range(counts[0]) for lv in range(levels)
                if j < counts[lv]]

    def warmup(self, state, tracer) -> None:
        # First calls pay lazy library set-up (LAPACK code paths).
        self.evaluate(state, 0, state["scenes"][0])
        state["first"] = None

    def unit(self, state, tracer, deadline) -> Unit:
        """One pass; passes after the first stop at ``deadline``."""
        first = state["first"]
        times, maps_bytes, failed, values, records = [], [], 0, {}, []
        for i in self.order(state):
            if first is not None and time.perf_counter() >= deadline:
                break
            tracer.scene = str(i)
            t0 = time.perf_counter()
            with tracer.span("scene"):
                rec, pose, nbytes = self.evaluate(state, i, state["scenes"][i])
            times.append((time.perf_counter() - t0) * 1e3)
            tracer.scene = None
            if pose is None:
                failed += 1
            else:
                check_rotation(pose.rotation, f"{self.name} scene {i}")
            records.append(rec)
            maps_bytes.append(nbytes)
            values[i] = (rec.add, rec.add_s, rec.rot_deg, rec.trans_m)
        if first is None:
            state["first"] = values
            avg = evaluate_batch(records)[-1]
            auc, pct = float(avg["adds_auc_mixed"]), float(avg["add01d_pct"])
        elif any(first[key] != val for key, val in values.items()):
            raise CheckFailed(f"{self.name}: a pass changed its answers")
        else:
            auc = pct = None
        return Unit(len(times), failed, times, auc, pct, float(np.mean(maps_bytes)))


# ---------------------------------------------------------------------------
# CLI workload: `anchorpose.cli.main` in this process, files in a work dir


def run_cli(tracer, *argv) -> None:
    with tracer.span(f"cli.{argv[0].replace('-', '_')}"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
    if code != 0:
        raise CheckFailed(f"`anchorpose {argv[0]}` exited {code}")


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class SweepJobs2:
    name = "sweep_jobs2"
    params = {"shape": "blob", "points": 2500, "k": 32, "res": 64,
              "residual_sigma": 0.001, "depth_sigma": 0.001, "uv_sigma": 2.0,
              "occlusion_levels": [1.0], "scenes": 8, "jobs": 2,
              "mode": "ablate-corr: 2d3d, 3d3d, fused", "metric": "ADD (asymmetric)"}

    def setup(self, seed, work, tracer):
        p = self.params
        run_cli(tracer, "gen", "--seed", seed, "--out", work / "bench", "--shape", p["shape"],
                "--points", p["points"], "--scenes", p["scenes"],
                "--occlusion-levels", *p["occlusion_levels"])
        return {"seed": seed, "work": work}

    def _sweep(self, state, tracer, jobs: int) -> bytes:
        p, out = self.params, state["work"] / f"corr_jobs{jobs}.csv"
        run_cli(tracer, "ablate-corr", "--seed", state["seed"], "--out", out,
                "--scenes", state["work"] / "bench", "--jobs", jobs, "--k", p["k"],
                "--res", p["res"], "--residual-sigma", p["residual_sigma"],
                "--depth-sigma", p["depth_sigma"], "--uv-sigma", p["uv_sigma"])
        return out.read_bytes()

    def warmup(self, state, tracer) -> None:
        # Untimed serial run: the reference every --jobs 2 CSV must equal.
        state["serial_csv"] = self._sweep(state, tracer, 1)

    def unit(self, state, tracer, deadline) -> Unit:
        p = self.params
        got = self._sweep(state, tracer, p["jobs"])
        if got != state["serial_csv"]:
            raise CheckFailed("sweep_jobs2: --jobs 2 CSV differs from the serial CSV")
        rows = _csv_rows(got.decode())
        r = p["res"]
        # Maps live in the workers; their size follows from the array shapes.
        maps_bytes = r * r * (8 * (1 + (p["k"] + 1) + 3 + 3 + 2 + 3) + 1)
        return Unit(3 * p["scenes"], 0, None,
                    float(np.mean([float(row["auc"]) for row in rows])),
                    float(np.mean([float(row["add01d_pct"]) for row in rows])),
                    float(maps_bytes))


WORKLOADS = {w.name: w for w in (FusedBlob(), SweepJobs2())}
