import argparse
import hashlib
import importlib
import json
import pkgutil
import shlex
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorpose
from anchorpose.cli import exit_code_for, main, IdMismatch
from anchorpose.camera_crop import Roi, adjust_intrinsics, crop_affine
from anchorpose.correspondence import ground_truth_maps
from anchorpose.solver import extract_correspondences, solve_2d3d, pose_error
from anchorpose.codec import build_anchor_set
from anchorpose.geom import Intrinsics
from anchorpose.synth import SceneConfig, make_model, render, random_pose
from anchorpose import camera_crop, cli, mesh, solver, synth
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
    """One small gen->encode->corrupt->solve chain reused by tests."""
    root = tmp_path_factory.mktemp("pipeline")
    bench = root / "bench"
    assert main([
        "gen", "--seed", "7", "--out", str(bench), "--shape", "blob",
        "--scenes", "4", "--points", "1500", "--width", "256", "--height", "192",
        "--fx", "260", "--fy", "260", "--depth-range", "0.7", "1.2",
    ]) == 0
    maps = root / "maps"
    assert main(["encode", "--seed", "7", "--out", str(maps), "--scenes", str(bench),
                 "--k", "16", "--res", "32"]) == 0
    noisy = root / "noisy"
    assert main(["corrupt", "--seed", "7", "--out", str(noisy), "--maps", str(maps),
                 "--residual-sigma", "0.001", "--label-flip", "0.01"]) == 0
    poses = root / "poses.json"
    assert main(["solve", "--seed", "7", "--out", str(poses), "--maps", str(noisy),
                 "--mode", "3d3d"]) == 0
    return root, bench, maps, noisy, poses


class TestPipeline:
    def test_gen_layout(self, pipeline):
        _, bench, *_ = pipeline
        assert (bench / "model.ply").exists()
        assert (bench / "registry.json").exists()
        manifest = json.loads((bench / "manifest.json").read_text())
        assert len(manifest["scenes"]) == 4
        files = [e["file"] for e in manifest["scenes"]]
        assert files == [f"scene_{i:04d}.npz" for i in range(4)]
        assert sorted(p.name for p in bench.iterdir()) == sorted(
            ["manifest.json", "model.ply", "registry.json", *files])
        for name in files:
            with np.load(bench / name) as z:
                assert {k: z[k].dtype for k in z.files if k != "meta"} == {
                    "pixels": np.int64, "depth": np.float64, "visible": bool}
                assert set(json.loads(str(z["meta"]))) == {
                    "format", "width", "height", "object_id", "pose", "intrinsics",
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
        root, bench, maps, *_ = pipeline
        single = sorted(maps.glob("*.npz"))[0]
        out = tmp_path / "one.json"
        assert main(["solve", "--seed", "7", "--out", str(out), "--maps", str(single),
                     "--mode", "fused"]) == 0
        entries = json.loads(out.read_text())
        assert len(entries) == 1 and entries[0]["mode"] == "fused"

    def test_solve_ransac_2d3d(self, pipeline, tmp_path):
        root, bench, maps, *_ = pipeline
        out = tmp_path / "r.json"
        assert main(["solve", "--seed", "7", "--out", str(out), "--maps", str(maps),
                     "--mode", "2d3d", "--ransac",
                     "--inlier-tol", "2.0", "--max-iters", "32"]) == 0

    def test_solve_ransac_2d3d_default_tolerance_is_pixels(self, pipeline, tmp_path):
        *_, maps, noisy, _ = pipeline
        out = tmp_path / "r.json"
        assert main(["solve", "--seed", "7", "--out", str(out), "--maps", str(noisy),
                     "--mode", "2d3d", "--ransac",
                     "--max-iters", "32"]) == 0
        assert {e["mode"] for e in json.loads(out.read_text())} == {"2d3d"}

    @pytest.mark.parametrize("flags", [
        ["--mode", "3d3d", "--inlier-tol", "5"],
        ["--mode", "2d3d", "--max-iters", "32"],
        ["--mode", "3d3d", "--ransac", "--sigma-m", "0.01"],
        ["--mode", "2d3d", "--sigma-px", "2.0"],
    ])
    def test_solve_rejects_flags_the_mode_ignores(self, pipeline, tmp_path, flags):
        *_, maps, noisy, _ = pipeline
        out = tmp_path / "x.json"
        assert main(["solve", "--seed", "7", "--out", str(out), "--maps", str(noisy),
                     *flags]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("implicit, explicit", [
        (["--mode", "3d3d", "--ransac"], ["--max-iters", "256"]),
        (["--mode", "fused"], ["--sigma-m", "0.005", "--sigma-px", "1.0"]),
    ])
    def test_solve_defaults_resolve(self, pipeline, tmp_path, implicit, explicit):
        *_, maps, noisy, _ = pipeline
        outs = []
        for extra in ([], explicit):
            out = tmp_path / f"{len(extra)}.json"
            assert main(["solve", "--seed", "7", "--out", str(out), "--maps", str(noisy),
                         *implicit, *extra]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_solve_fused_rejects_ransac(self, pipeline, tmp_path):
        *_, maps, noisy, _ = pipeline
        out = tmp_path / "f.json"
        assert main(["solve", "--seed", "7", "--out", str(out), "--maps", str(noisy),
                     "--mode", "fused", "--ransac"]) == 2
        assert not out.exists()


def _truncate(path: Path) -> None:
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])


def _truncate_member(name):
    """A fault that drops the last byte of array ``name`` inside an .npz archive."""
    def apply(path: Path) -> None:
        with zipfile.ZipFile(path) as z:
            members = {m: z.read(m) for m in z.namelist()}
        members[f"{name}.npy"] = members[f"{name}.npy"][:-1]
        with zipfile.ZipFile(path, "w") as z:
            for m, data in members.items():
                z.writestr(m, data)
    return apply


def _edit_arrays(edit):
    """A fault that rewrites an .npz archive after ``edit`` changed its arrays."""
    def apply(path: Path) -> None:
        with np.load(path) as z:
            arrays = dict(z)
        edit(arrays)
        np.savez(path, **arrays)
    return apply


def _edit_meta(edit):
    """A fault that rewrites an .npz archive after ``edit`` changed its JSON header."""
    return _edit_arrays(lambda a: a.update(
        meta=np.array(json.dumps(edit(json.loads(str(a["meta"])))))))


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


def _set_item(name, index, value):
    """A fault that sets item ``index`` of the array ``name``."""
    return _edit_arrays(lambda a: a[name].__setitem__(index, value))


def _pixel_past_the_end(arrays) -> None:
    meta = json.loads(str(arrays["meta"]))
    arrays["pixels"][-1] = meta["width"] * meta["height"]


def _swap_first_pixels(arrays) -> None:
    arrays["pixels"][[0, 1]] = arrays["pixels"][[1, 0]]


def _zero_hidden_depth(arrays) -> None:
    # a hidden pixel, so only the archive's own depth check can see it
    arrays["depth"][0], arrays["visible"][0] = 0.0, False


def _shorten(name):
    return _edit_arrays(lambda a: a.update({name: a[name][:-1]}))


def _retype(name, dtype):
    return _edit_arrays(lambda a: a.update({name: a[name].astype(dtype)}))


# Faults of a gen scene archive; each must exit 3 from encode.
_SCENE_FAULTS = {
    "truncated": _truncate,
    "not_a_zip": lambda path: path.write_bytes(b"not a zip archive\n"),
    "missing_array": _edit_arrays(lambda a: a.pop("visible")),
    "pickled_array": _retype("depth", object),
    "float32_depth": _retype("depth", np.float32),
    "int32_pixels": _retype("pixels", np.int32),
    "uint8_visible": _retype("visible", np.uint8),
    "nan_depth": _set_item("depth", 0, np.nan),
    "inf_depth": _set_item("depth", 0, np.inf),
    "zero_depth": _edit_arrays(_zero_hidden_depth),
    "negative_depth": _set_item("depth", 0, -0.5),
    "negative_pixel": _set_item("pixels", 0, -1),
    "pixel_past_the_end": _edit_arrays(_pixel_past_the_end),
    "unsorted_pixels": _edit_arrays(_swap_first_pixels),
    "repeated_pixel": _edit_arrays(lambda a: a["pixels"].__setitem__(1, a["pixels"][0])),
    "short_depth": _shorten("depth"),
    "short_visible": _shorten("visible"),
    "one_depth_for_all": _edit_arrays(lambda a: a.update(depth=a["depth"][:1])),
    "bad_format_tag": _edit_meta(lambda meta: {**meta, "format": "anchorpose-maps-v2"}),
}


def _nan_vertex(path: Path) -> None:
    points = mesh.load_ply(path).points.copy()
    points[0, 1] = np.nan
    mesh.write_ply(path, points)


# Faults of a benchmark's registry model; each must exit 3 from encode and eval.
_PLY_FAULTS = {
    "truncated": _truncate,
    "no_ply_magic": lambda path: path.write_bytes(path.read_bytes()[4:]),
    "nan_vertex": _nan_vertex,
    "empty": lambda path: path.write_bytes(b""),
}


def _drop(key):
    return lambda obj: {k: v for k, v in obj.items() if k != key}


def _in_first(edit):
    return lambda entries: [edit(entries[0]), *entries[1:]]


def _at(key, edit):
    """Apply ``edit`` to the value under ``key``."""
    return lambda obj: {**obj, key: edit(obj[key])}


def _put(key, value):
    return lambda obj: {**obj, key: value}


def _set(key, index, value):
    """Replace item ``index`` of the list under ``key``."""
    return _at(key, lambda v: [*v[:index], value, *v[index + 1:]])


def _short_rotation(pose):
    return {**pose, "R": pose["R"][:8]}


_NAN, _INF = float("nan"), float("inf")
_REFLECTION = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0]  # diag(1, 1, -1): det -1


# (file, edit of its parsed JSON) per fault; each must exit 3. A "scene"
# fault edits the JSON header of a gen scene archive, read by encode; a
# "header" fault edits the JSON header of a maps file, read by both solve and
# corrupt.
_JSON_FAULTS = {
    "scene_without_object_id": ("scene", _drop("object_id")),
    "scene_without_pose": ("scene", _drop("pose")),
    "scene_without_intrinsics": ("scene", _drop("intrinsics")),
    "scene_without_visible_fraction": ("scene", _drop("visible_fraction")),
    "scene_rotation_of_8": ("scene", _at("pose", _short_rotation)),
    "scene_nan_translation": ("scene", _at("pose", _set("t", 0, _NAN))),
    "scene_object_id_a_list": ("scene", _put("object_id", ["blob"])),
    "scene_not_a_rotation": ("scene", _at("pose", _put("R", _REFLECTION))),
    "registry_entry_without_id": ("registry", _in_first(_drop("id"))),
    "registry_entry_without_path": ("registry", _in_first(_drop("path"))),
    "registry_not_a_list": ("registry", lambda entries: entries[0]),
    "anchors_without_object_id": ("header", _at("anchors", _drop("object_id"))),
    "anchors_without_anchors": ("header", _at("anchors", _drop("anchors"))),
    "anchors_a_list": ("header", _at("anchors", lambda obj: [obj])),
    "anchors_without_covering_radius": ("header", _at("anchors", _drop("covering_radius"))),
    "header_without_scene_id": ("header", _drop("scene_id")),
    "header_without_object_id": ("header", _drop("object_id")),
    "header_object_id_not_the_anchors": ("header", _put("object_id", "other")),
    "header_without_intrinsics": ("header", _drop("intrinsics")),
    "header_without_gt_pose": ("header", _drop("gt_pose")),
    "header_intrinsics_without_fx": ("header", _at("intrinsics", _drop("fx"))),
    "header_rotation_of_8": ("header", _at("gt_pose", _short_rotation)),
    "header_nan_cx": ("header", _at("intrinsics", _put("cx", _NAN))),
    "header_inf_fx": ("header", _at("intrinsics", _put("fx", _INF))),
    "header_nan_roi_cu": ("header", _at("roi", _put("cu", _NAN))),
    "header_nan_translation": ("header", _at("gt_pose", _set("t", 0, _NAN))),
    "header_not_a_rotation": ("header", _at("gt_pose", _put("R", _REFLECTION))),
    "header_scene_id_a_list": ("header", _put("scene_id", ["scene_0000"])),
    "poses_entry_without_scene_id": ("poses", _in_first(_drop("scene_id"))),
    "poses_entry_without_pose": ("poses", _in_first(_drop("pose"))),
    "poses_rotation_of_8": ("poses", _in_first(_at("pose", _short_rotation))),
    "poses_nan_translation": ("poses", _in_first(_at("pose", _set("t", 0, _NAN)))),
    "poses_nan_rotation": ("poses", _in_first(_at("pose", _set("R", 0, _NAN)))),
    "poses_not_a_rotation": ("poses", _in_first(_at("pose", _put("R", _REFLECTION)))),
    "poses_scene_id_a_list": ("poses", _in_first(_put("scene_id", ["scene_0000"]))),
    "poses_object_id_a_list": ("poses", _in_first(_put("object_id", ["blob"]))),
    "poses_not_a_list": ("poses", lambda entries: entries[0]),
}


def _solve_broken_maps(pipeline, tmp_path, fault) -> int:
    root, bench, maps, *_ = pipeline
    broken = tmp_path / "scene.npz"
    shutil.copyfile(sorted(maps.glob("*.npz"))[0], broken)
    fault(broken)
    return main(["solve", "--seed", "7", "--out", str(tmp_path / "p.json"),
                 "--maps", str(broken), "--mode", "fused"])


class TestMalformedFiles:
    """Broken input files exit 3, the README's I/O-or-parse code."""

    # The ids name the files that held a scene's depth and visibility
    # before both became arrays of the one scene archive.
    @pytest.mark.parametrize("array", [pytest.param("depth", id="depth.pfm"),
                                       pytest.param("visible", id="vis_mask.pgm")])
    def test_truncated_scene_file(self, pipeline, tmp_path, array):
        root, bench, *_ = pipeline
        copy = tmp_path / "bench"
        shutil.copytree(bench, copy)
        _truncate_member(array)(copy / "scene_0000.npz")
        code = main(["encode", "--seed", "7", "--out", str(tmp_path / "maps"),
                     "--scenes", str(copy), "--k", "16", "--res", "32"])
        assert code == 3

    @pytest.mark.parametrize("fault", list(_SCENE_FAULTS))
    def test_malformed_scene_archive(self, pipeline, tmp_path, fault):
        root, bench, *_ = pipeline
        copy = tmp_path / "bench"
        shutil.copytree(bench, copy)
        _SCENE_FAULTS[fault](copy / "scene_0000.npz")
        code = main(["encode", "--seed", "7", "--out", str(tmp_path / "maps"),
                     "--scenes", str(copy), "--k", "16", "--res", "32"])
        assert code == 3

    @pytest.mark.parametrize("command", ["encode", "eval"])
    @pytest.mark.parametrize("fault", list(_PLY_FAULTS))
    def test_malformed_model_ply(self, pipeline, tmp_path, fault, command):
        _, bench, _, _, poses = pipeline
        copy = tmp_path / "bench"
        shutil.copytree(bench, copy)
        _PLY_FAULTS[fault](copy / "model.ply")
        argv = {"encode": ["--k", "16"], "eval": ["--pred", str(poses)]}[command]
        assert main([command, "--seed", "7", "--out", str(tmp_path / "out"),
                     "--scenes", str(copy), *argv]) == 3

    def test_nan_residual_on_foreground(self, pipeline, tmp_path):
        assert _solve_broken_maps(pipeline, tmp_path,
                                  _edit_arrays(_nan_foreground_residual)) == 3

    @pytest.mark.parametrize("fault", list(_MAPS_FAULTS))
    def test_malformed_maps_file(self, pipeline, tmp_path, fault):
        assert _solve_broken_maps(pipeline, tmp_path, _MAPS_FAULTS[fault]) == 3

    def test_maps_manifest_without_file_list(self, pipeline, tmp_path):
        # the layout of a maps directory from before the .npz format
        root, bench, *_ = pipeline
        (tmp_path / "manifest.json").write_text(
            json.dumps({"maps": [{"id": "scene_0000", "dir": "scene_0000"}]}))
        code = main(["solve", "--seed", "7", "--out", str(tmp_path / "p.json"),
                     "--maps", str(tmp_path), "--mode", "fused"])
        assert code == 3

    @pytest.mark.parametrize("manifest", [
        {"scenes": [{"id": "scene_0000"}]},
        {"maps": []},
        {"scenes": {"scene_0000": "scene_0000"}},
        {"scenes": {}},
        {"scenes": "scene_0000"},
        {"scenes": [{"id": "scene_0000", "dir": "scene_0000"}]},
        {"scenes": [{"id": 0, "file": "scene_0000.npz"}]},
    ], ids=["entry_without_dir", "no_scenes", "scenes_dict", "scenes_empty_dict",
            "scenes_string", "old_dir_layout", "id_not_a_string"])
    def test_malformed_benchmark_manifest(self, pipeline, tmp_path, manifest):
        root, bench, *_ = pipeline
        copy = tmp_path / "bench"
        shutil.copytree(bench, copy)
        (copy / "manifest.json").write_text(json.dumps(manifest))
        code = main(["encode", "--seed", "7", "--out", str(tmp_path / "maps"),
                     "--scenes", str(copy), "--k", "16", "--res", "32"])
        assert code == 3

    # Each file holds a byte that is not UTF-8, and is malformed even when
    # read as Latin-1.
    @pytest.mark.parametrize("target, text", [
        ("bench/manifest.json", b'{"scenes": "\xff"}'),
        ("bench/registry.json", b'[{"id": "\xff"}]'),
        ("maps/manifest.json", b'{"maps": "\xff"}'),
        ("poses.json", b'[{"scene_id": "\xff"}]'),
    ], ids=["benchmark_manifest", "registry", "maps_manifest", "poses"])
    def test_non_utf8_json_input(self, pipeline, tmp_path, target, text):
        _, bench, maps, _, poses = pipeline
        shutil.copytree(bench, tmp_path / "bench")
        shutil.copytree(maps, tmp_path / "maps")
        shutil.copyfile(poses, tmp_path / "poses.json")
        (tmp_path / target).write_bytes(text)
        argv = {"bench": ["encode", "--scenes", tmp_path / "bench", "--k", "16"],
                "maps": ["solve", "--maps", tmp_path / "maps", "--mode", "3d3d"],
                "poses.json": ["eval", "--pred", tmp_path / "poses.json",
                               "--scenes", tmp_path / "bench"]}[target.split("/")[0]]
        assert main([*map(str, argv), "--seed", "7", "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("fault", list(_JSON_FAULTS))
    def test_malformed_json_input(self, pipeline, tmp_path, fault):
        root, bench, maps, noisy, poses = pipeline
        target, edit = _JSON_FAULTS[fault]
        if target == "header":
            broken = tmp_path / "scene.npz"
            shutil.copyfile(sorted(maps.glob("*.npz"))[0], broken)
            _edit_meta(edit)(broken)
            runs = [["solve", "--maps", broken, "--mode", "3d3d"], ["corrupt", "--maps", broken]]
        else:
            shutil.copytree(bench, tmp_path / "bench")
            shutil.copyfile(poses, tmp_path / "poses.json")
            path = tmp_path / {"scene": "bench/scene_0000.npz",
                               "registry": "bench/registry.json",
                               "poses": "poses.json"}[target]
            if target == "scene":
                _edit_meta(edit)(path)
            else:
                path.write_text(json.dumps(edit(json.loads(path.read_text()))))
            bench = tmp_path / "bench"
            runs = [["eval", "--pred", path, "--scenes", bench] if target == "poses"
                    else ["encode", "--scenes", bench, "--k", "16", "--res", "32"]]
        codes = [main([*map(str, argv), "--seed", "7", "--out", str(tmp_path / f"out{n}")])
                 for n, argv in enumerate(runs)]
        assert codes == [3] * len(runs)


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


def test_cli_chain_equals_in_memory_rows(tmp_path):
    # gen stores depth losslessly, so the sweeps on a gen bench read the very
    # scenes make_benchmark builds in memory
    bench = tmp_path / "bench"
    assert main(["gen", "--seed", "5", "--out", str(bench), "--shape", "blob",
                 "--scenes", "4", "--points", "1500", "--width", "256", "--height", "192",
                 "--fx", "260", "--fy", "250", "--depth-range", "0.7", "1.2",
                 "--depth-sigma", "0.001", "--occlusion-levels", "1.0", "0.7"]) == 0
    model = make_model("blob", 1500, 0.12, 5)
    config = SceneConfig(seed=5, width=256, height=192,
                         intrinsics=Intrinsics(260.0, 250.0, 128.0, 96.0),
                         depth_range=(0.7, 1.2), depth_sigma=0.001)
    scenes = synth.make_benchmark(model, config, 4, [1.0, 0.7])
    anchors = build_anchor_set(model, 16)
    expected = {
        "ablate-anchors": cli.ablate_anchors_rows(model, scenes, k_list=(1, 8), seed=3, res=32),
        "ablate-corr": cli.ablate_corr_rows(model, anchors, scenes, seed=3, res=32)[0],
        "ablate-k": cli.ablate_k_rows(model, anchors, scenes, seed=3, res=32),
    }
    for cmd, extra in (("ablate-anchors", ["--k-list", "1", "8"]),
                       ("ablate-corr", ["--k", "16"]), ("ablate-k", ["--k", "16"])):
        out, ref = tmp_path / f"{cmd}.csv", tmp_path / f"{cmd}.ref.csv"
        assert main([cmd, "--seed", "3", "--out", str(out), "--scenes", str(bench),
                     "--res", "32", *extra]) == 0
        cli._write_csv(ref, out.read_text().splitlines()[0], expected[cmd])
        assert out.read_bytes() == ref.read_bytes(), cmd


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_jobs2_equals_serial_for_any_seed(tmp_path_factory, seed):
    root = tmp_path_factory.mktemp("jobs")
    bench = root / "bench"
    assert main(["gen", "--seed", str(seed), "--out", str(bench), "--shape", "blob",
                 "--scenes", "3", "--points", "600", "--width", "160", "--height", "120",
                 "--fx", "170", "--fy", "170", "--depth-range", "0.6", "1.0"]) == 0
    for cmd, extra in (("ablate-anchors", ["--k-list", "1", "8"]),
                       ("ablate-corr", ["--k", "8"]), ("ablate-k", ["--k", "8"])):
        outs = []
        for jobs in ("1", "2"):
            out = root / f"{cmd}{jobs}.csv"
            assert main([cmd, "--seed", str(seed), "--out", str(out), "--scenes", str(bench),
                         "--res", "24", *extra, "--jobs", jobs]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], cmd


class TestDeterminismAndErrors:
    def test_gen_rerun_identical_tree(self, tmp_path):
        args = ["gen", "--seed", "21", "--shape", "cube", "--scenes", "2",
                "--points", "700", "--width", "200", "--height", "150",
                "--fx", "220", "--fy", "220", "--depth-range", "0.6", "1.0"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert _tree_digest(a) == _tree_digest(b)

    def test_missing_input_exit_code(self, pipeline, tmp_path):
        _, bench, *_ = pipeline
        copy = tmp_path / "bench"
        shutil.copytree(bench, copy)
        (copy / "model.ply").unlink()
        code = main(["encode", "--seed", "1", "--out", str(tmp_path / "maps"),
                     "--scenes", str(copy)])
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

    def test_every_package_exception_has_a_contract_code(self):
        # a new exception class must get its own row, not fall through to 2 or 1
        modules = [importlib.import_module(f"anchorpose.{m.name}")
                   for m in pkgutil.iter_modules(anchorpose.__path__)]
        classes = {obj for module in modules for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj.__module__ == module.__name__}
        assert camera_crop.MalformedInput in classes and solver.Degenerate in classes
        codes = {cls.__name__: exit_code_for(cls.__new__(cls)) for cls in classes}
        assert {name: code for name, code in codes.items() if not 3 <= code <= 6} == {}

    def test_k_too_large_exit_code(self, pipeline, tmp_path):
        _, bench, *_ = pipeline
        code = main(["encode", "--seed", "1", "--out", str(tmp_path / "maps"),
                     "--scenes", str(bench), "--k", "99999"])
        assert code == 6

    @pytest.mark.parametrize("command", ["encode", "eval"])
    def test_object_missing_from_registry(self, pipeline, tmp_path, command):
        # the scene and its prediction agree on an object the registry lacks
        _, bench, _, _, poses = pipeline
        copy = tmp_path / "bench"
        shutil.copytree(bench, copy)
        _edit_meta(_put("object_id", "other"))(copy / "scene_0000.npz")
        preds = tmp_path / "poses.json"
        preds.write_text(json.dumps(_in_first(_put("object_id", "other"))(
            json.loads(poses.read_text()))))
        argv = {"encode": ["--k", "16"], "eval": ["--pred", str(preds)]}[command]
        assert main([command, "--seed", "1", "--out", str(tmp_path / "out"),
                     "--scenes", str(copy), *argv]) == 5


@pytest.mark.parametrize("columns", ["80", "200"])
def test_help_text_at_terminal_width(monkeypatch, capsys, columns):
    # the parser reads the terminal width once, and every --help prints what
    # argparse's own formatter, which reads the width itself, prints
    monkeypatch.setenv("COLUMNS", columns)
    calls = []
    real = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    parser = cli._build_parser()
    assert len(calls) == 1
    subparsers = parser._subparsers._group_actions[0].choices
    assert len(subparsers) == 8
    for argv, p in [([], parser), *(([name], sub) for name, sub in subparsers.items())]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        printed = capsys.readouterr().out
        p.formatter_class = argparse.HelpFormatter
        assert printed == p.format_help()


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


def _readme_walkthrough() -> list[str]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI walkthrough", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("anchorpose ")]


def test_readme_walkthrough_runs(tmp_path):
    # the README's own commands, on 2 scenes instead of 50
    lines = _readme_walkthrough()
    assert len(lines) == 8
    for line in lines:
        argv = line.replace("out/", f"{tmp_path}/").replace("--scenes 50", "--scenes 2")
        assert main(shlex.split(argv)[1:]) == 0, line
