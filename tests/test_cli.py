import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from anchorpose.cli import exit_code_for, main, IdMismatch
from anchorpose.camera_crop import Roi, adjust_intrinsics, crop_affine
from anchorpose.correspondence import ground_truth_maps
from anchorpose.solver import extract_correspondences, solve_2d3d, pose_error
from anchorpose.codec import build_anchor_set
from anchorpose.synth import SceneConfig, make_model, render, random_pose
from anchorpose import mesh, solver, synth
from conftest import TEST_K


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small gen->anchors->encode->corrupt->solve chain reused by tests."""
    root = tmp_path_factory.mktemp("pipeline")
    bench = root / "bench"
    assert main([
        "gen", "--seed", "7", "--out", str(bench), "--shape", "blob",
        "--scenes", "4", "--points", "1500", "--width", "256", "--height", "192",
        "--fx", "260", "--fy", "260", "--depth-range", "0.7", "1.2",
    ]) == 0
    anchors = root / "anchors.json"
    assert main(["anchors", "--seed", "7", "--out", str(anchors),
                 "--model", str(bench / "model.ply"), "--k", "16"]) == 0
    maps = root / "maps"
    assert main(["encode", "--seed", "7", "--out", str(maps), "--scenes", str(bench),
                 "--anchors", str(anchors), "--res", "32"]) == 0
    noisy = root / "noisy"
    assert main(["corrupt", "--seed", "7", "--out", str(noisy), "--maps", str(maps),
                 "--residual-sigma", "0.001", "--label-flip", "0.01"]) == 0
    poses = root / "poses.json"
    assert main(["solve", "--seed", "7", "--out", str(poses), "--maps", str(noisy),
                 "--anchors", str(anchors), "--mode", "3d3d"]) == 0
    return root, bench, anchors, maps, noisy, poses


class TestPipeline:
    def test_gen_layout(self, pipeline):
        _, bench, *_ = pipeline
        assert (bench / "model.ply").exists()
        assert (bench / "registry.json").exists()
        manifest = json.loads((bench / "manifest.json").read_text())
        assert len(manifest["scenes"]) == 4
        for e in manifest["scenes"]:
            d = bench / e["dir"]
            assert (d / "depth.pfm").exists()
            assert (d / "vis_mask.pgm").exists()
            assert (d / "scene.json").exists()
            scene_meta = json.loads((d / "scene.json").read_text())
            assert set(scene_meta) == {"object_id", "pose", "intrinsics",
                                       "visible_fraction"}

    def test_losses_csv_written(self, pipeline):
        *_, noisy, _ = pipeline
        lines = (noisy / "losses.csv").read_text().splitlines()
        assert lines[0] == "scene_id,loss_mask,loss_coarse,loss_fine,loss_total"
        assert len(lines) == 5

    def test_solve_output(self, pipeline):
        *_, poses = pipeline
        entries = json.loads(poses.read_text())
        assert len(entries) == 4
        assert {e["mode"] for e in entries} == {"3d3d"}
        assert all("pose" in e and "rmse" in e for e in entries)

    def test_eval_summary(self, pipeline, tmp_path):
        root, bench, *_rest, poses = pipeline
        out = tmp_path / "summary.csv"
        assert main(["eval", "--seed", "7", "--out", str(out),
                     "--pred", str(poses), "--scenes", str(bench)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "object_id,add_s_auc,adds_auc_mixed,add01d_pct,deg10cm10_pct"
        avg = lines[-1].split(",")
        assert avg[0] == "avg(1)"
        assert float(avg[3]) == 100.0  # mild corruption still solves well

    def test_eval_id_mismatch(self, pipeline, tmp_path):
        root, bench, *_rest, poses = pipeline
        broken = json.loads(poses.read_text())
        broken[0]["scene_id"] = "scene_9999"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(broken))
        code = main(["eval", "--seed", "7", "--out", str(tmp_path / "s.csv"),
                     "--pred", str(bad), "--scenes", str(bench)])
        assert code == 5

    def test_maps_dir_holds_manifest_and_one_npz_per_scene(self, pipeline):
        *_, maps, noisy, _ = pipeline
        for d in (maps, noisy):
            manifest = json.loads((d / "manifest.json").read_text())
            files = [e["file"] for e in manifest["maps"]]
            assert files == [f"scene_{i:04d}.npz" for i in range(4)]
            assert sorted(p.name for p in d.iterdir()) == sorted(
                ["manifest.json", *files] + (["losses.csv"] if d == noisy else []))

    def test_solve_single_maps_file(self, pipeline, tmp_path):
        root, bench, anchors, maps, *_ = pipeline
        single = sorted(maps.glob("*.npz"))[0]
        out = tmp_path / "one.json"
        assert main(["solve", "--seed", "7", "--out", str(out), "--maps", str(single),
                     "--anchors", str(anchors), "--mode", "fused"]) == 0
        entries = json.loads(out.read_text())
        assert len(entries) == 1 and entries[0]["mode"] == "fused"

    def test_solve_ransac_2d3d(self, pipeline, tmp_path):
        root, bench, anchors, maps, *_ = pipeline
        out = tmp_path / "r.json"
        assert main(["solve", "--seed", "7", "--out", str(out), "--maps", str(maps),
                     "--anchors", str(anchors), "--mode", "2d3d", "--ransac",
                     "--inlier-tol", "2.0", "--max-iters", "32"]) == 0

    def test_solve_ransac_2d3d_default_tolerance_is_pixels(self, pipeline, tmp_path):
        *_, anchors, maps, noisy, _ = pipeline
        out = tmp_path / "r.json"
        assert main(["solve", "--seed", "7", "--out", str(out), "--maps", str(noisy),
                     "--anchors", str(anchors), "--mode", "2d3d", "--ransac",
                     "--max-iters", "32"]) == 0
        assert {e["mode"] for e in json.loads(out.read_text())} == {"2d3d"}

    def test_solve_fused_rejects_ransac(self, pipeline, tmp_path):
        *_, anchors, maps, noisy, _ = pipeline
        out = tmp_path / "f.json"
        assert main(["solve", "--seed", "7", "--out", str(out), "--maps", str(noisy),
                     "--anchors", str(anchors), "--mode", "fused", "--ransac"]) == 2
        assert not out.exists()


def _truncate(path: Path) -> None:
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])


def _edit_arrays(edit):
    """A fault that rewrites a maps .npz after ``edit`` changed its arrays."""
    def apply(path: Path) -> None:
        with np.load(path) as z:
            arrays = dict(z)
        edit(arrays)
        np.savez(path, **arrays)
    return apply


def _nan_foreground_residual(arrays) -> None:
    arrays["residual"][arrays["mask"] > 0.5] = np.nan


def _class_k_plus_1(arrays) -> None:
    k = len(json.loads(str(arrays["meta"]))["anchors"]["anchors"])
    arrays["classes"][0, 0] = k + 1


_MAPS_FAULTS = {
    "truncated": _truncate,
    "not_a_zip": lambda path: path.write_bytes(b"not a zip archive\n"),
    "missing_array": _edit_arrays(lambda a: a.pop("residual")),
    "class_k_plus_1": _edit_arrays(_class_k_plus_1),
    "wrong_shape_residual": _edit_arrays(lambda a: a.update(residual=a["residual"][1:])),
    "pickled_array": _edit_arrays(lambda a: a.update(residual=a["residual"].astype(object))),
}


def _solve_broken_maps(pipeline, tmp_path, fault) -> int:
    root, bench, anchors, maps, *_ = pipeline
    broken = tmp_path / "scene.npz"
    shutil.copyfile(sorted(maps.glob("*.npz"))[0], broken)
    fault(broken)
    return main(["solve", "--seed", "7", "--out", str(tmp_path / "p.json"),
                 "--maps", str(broken), "--anchors", str(anchors), "--mode", "fused"])


class TestMalformedFiles:
    """Broken input files exit 3, the README's I/O-or-parse code."""

    @pytest.mark.parametrize("name", ["depth.pfm", "vis_mask.pgm"])
    def test_truncated_scene_file(self, pipeline, tmp_path, name):
        root, bench, anchors, *_ = pipeline
        copy = tmp_path / "bench"
        shutil.copytree(bench, copy)
        _truncate(next(copy.glob(f"*/{name}")))
        code = main(["encode", "--seed", "7", "--out", str(tmp_path / "maps"),
                     "--scenes", str(copy), "--anchors", str(anchors), "--res", "32"])
        assert code == 3

    def test_nan_residual_on_foreground(self, pipeline, tmp_path):
        assert _solve_broken_maps(pipeline, tmp_path,
                                  _edit_arrays(_nan_foreground_residual)) == 3

    @pytest.mark.parametrize("fault", list(_MAPS_FAULTS))
    def test_malformed_maps_file(self, pipeline, tmp_path, fault):
        assert _solve_broken_maps(pipeline, tmp_path, _MAPS_FAULTS[fault]) == 3

    def test_maps_manifest_without_file_list(self, pipeline, tmp_path):
        # the layout of a maps directory from before the .npz format
        root, bench, anchors, *_ = pipeline
        (tmp_path / "manifest.json").write_text(
            json.dumps({"maps": [{"id": "scene_0000", "dir": "scene_0000"}]}))
        code = main(["solve", "--seed", "7", "--out", str(tmp_path / "p.json"),
                     "--maps", str(tmp_path), "--anchors", str(anchors), "--mode", "fused"])
        assert code == 3


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("ablate") / "bench"
    assert main([
        "gen", "--seed", "11", "--out", str(out), "--shape", "blob",
        "--scenes", "6", "--points", "1500", "--width", "256", "--height", "192",
        "--fx", "260", "--fy", "260", "--depth-range", "0.7", "1.2",
    ]) == 0
    return out


class TestAblations:
    def test_anchor_sweep_format_and_zero_noise(self, bench, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["ablate-anchors", "--seed", "3", "--out", str(out),
                     "--scenes", str(bench), "--k-list", "1", "8", "32",
                     "--noise-rel", "0.0", "--res", "32"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "K,covering_radius,add01d_pct,auc,deg10cm10_pct"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == ["1", "8", "32"]
        # zero noise: every K solves perfectly; AUC agrees across K up to the
        # float-level pose differences of exact recovery
        for r in rows:
            assert float(r[2]) == 100.0 and float(r[4]) == 100.0
        aucs = [float(r[3]) for r in rows]
        assert max(aucs) - min(aucs) < 1e-9

    def test_corr_sweep_row_order(self, bench, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["ablate-corr", "--seed", "3", "--out", str(out),
                     "--scenes", str(bench), "--res", "32", "--k", "16"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mode,add01d_pct,auc,deg10cm10_pct,mean_rot_deg,mean_trans_m"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["2d3d", "3d3d", "fused"]

    def test_k_sweep_rows_and_ordering(self, bench, tmp_path):
        out = tmp_path / "k.csv"
        assert main(["ablate-k", "--seed", "3", "--out", str(out),
                     "--scenes", str(bench), "--res", "32", "--k", "16"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "intrinsic,add01d_pct,auc,deg10cm10_pct,mean_rot_deg"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == ["k_org", "k_crop"]
        assert float(rows[1][1]) > float(rows[0][1])  # crop strictly better

    def test_rerun_identical_csv(self, bench, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["ablate-k", "--seed", "3", "--out", str(out),
                         "--scenes", str(bench), "--res", "32", "--k", "16"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("cmd, extra", [
        ("ablate-anchors", ["--k-list", "1", "8"]),
        ("ablate-corr", ["--k", "16"]),
        ("ablate-k", ["--k", "16"]),
    ])
    def test_jobs2_csv_equals_serial(self, bench, tmp_path, cmd, extra):
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            assert main([cmd, "--seed", "3", "--out", str(out), "--scenes", str(bench),
                         "--res", "32", "--jobs", jobs, *extra]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestDeterminismAndErrors:
    def test_gen_rerun_identical_tree(self, tmp_path):
        args = ["gen", "--seed", "21", "--shape", "cube", "--scenes", "2",
                "--points", "700", "--width", "200", "--height", "150",
                "--fx", "220", "--fy", "220", "--depth-range", "0.6", "1.0"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert _tree_digest(a) == _tree_digest(b)

    def test_missing_input_exit_code(self, tmp_path):
        code = main(["anchors", "--seed", "1", "--out", str(tmp_path / "a.json"),
                     "--model", str(tmp_path / "missing.ply")])
        assert code == 3

    def test_unwritable_output(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["gen", "--seed", "1", "--out", str(blocker / "nested"),
                     "--scenes", "1", "--points", "700"])
        assert code == 3

    def test_jobs_rejected_outside_sweeps(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--seed", "1", "--out", str(tmp_path / "b"), "--scenes", "1",
                  "--jobs", "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "b").exists()

    def test_exit_code_table(self):
        assert exit_code_for(IdMismatch("x")) == 5
        assert exit_code_for(synth.BinUnfillable("x")) == 6
        assert exit_code_for(solver.NoConsensus("x")) == 4
        assert exit_code_for(mesh.ParseError("x", 0)) == 3
        assert exit_code_for(ValueError("x")) == 2
        assert exit_code_for(RuntimeError("x")) == 1

    def test_k_too_large_exit_code(self, tmp_path):
        mesh.write_ply(tmp_path / "tiny.ply", np.eye(3) * 0.1)
        code = main(["anchors", "--seed", "1", "--out", str(tmp_path / "a.json"),
                     "--model", str(tmp_path / "tiny.ply"), "--k", "99"])
        assert code == 6


def test_identity_crop_makes_both_intrinsic_rows_equal():
    # library-level check of the ablate-k degeneracy: A = I -> identical solves
    model = make_model("blob", 1500, 0.12, 3)
    cfg = SceneConfig(seed=5, width=96, height=96,
                      intrinsics=TEST_K, depth_range=(0.9, 1.1), occluders=None,
                      center_margin=0.45)
    scene = render(model, random_pose(np.random.default_rng(4), cfg), cfg)
    anchors = build_anchor_set(model, 16)
    roi = Roi(48.0, 48.0, 96.0, 96.0, 96)  # full image, scale 1
    maps = ground_truth_maps(scene, anchors, roi)
    corr = extract_correspondences(maps, anchors)
    k_crop = adjust_intrinsics(scene.intrinsics, crop_affine(roi))
    assert k_crop == scene.intrinsics
    a = solve_2d3d(corr, scene.intrinsics)
    b = solve_2d3d(corr, k_crop)
    assert pose_error(a.pose, b.pose) == (0.0, 0.0)
