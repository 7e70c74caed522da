"""Command-line entry point, run in-process."""

import csv
import json
import platform
import shutil

import numpy as np
import pytest
import scipy

from segreg.baselines import icp, ransac_icp
from segreg.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_USAGE, main
from segreg.fileio import (
    load_ply,
    load_pose,
    load_sample,
    save_checkpoint,
    save_ply,
    save_pose,
    save_sample,
    write_manifest,
)
from segreg.geometry import PointCloud, RigidTransform, rotation_angle_deg
from segreg.networks import RegNetConfig, SegNetConfig
from segreg.phantom import PhantomConfig, RegistrationSample, generate_phantom
from segreg.training import init_params


def test_gradcheck_command_writes_all_passing_checks(tmp_path):
    assert main(["gradcheck", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "gradcheck.json").read_text())
    assert len(doc) == 27
    assert all(entry["passed"] for entry in doc)


def collapsing_cloud():
    """Five points inside one voxel: every pyramid collapses at level 1."""
    pos = np.random.default_rng(0).uniform(0.0, 1e-3, size=(5, 3))
    return PointCloud(pos, colors=np.full((5, 3), 0.5))


def test_register_too_sparse_cloud_exits_with_data_error(tmp_path):
    seg, reg = SegNetConfig(), RegNetConfig()
    save_checkpoint(tmp_path / "model.npz", init_params(seg, reg, 0), seg, reg)
    cloud = collapsing_cloud()
    save_ply(cloud, tmp_path / "pre.ply")
    save_ply(cloud, tmp_path / "intra.ply")
    code = main(["register", "--pre", str(tmp_path / "pre.ply"),
                 "--intra", str(tmp_path / "intra.ply"),
                 "--out", str(tmp_path / "pose.json"),
                 "--checkpoint", str(tmp_path / "model.npz")])
    assert code == EXIT_DATA
    assert not (tmp_path / "pose.json").exists()


@pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
def test_register_on_a_non_finite_ply_position_exits_with_data_error(tmp_path, fmt, capsys):
    cloud = collapsing_cloud()
    save_ply(cloud, tmp_path / "intra.ply")
    header = ("ply\nformat {} 1.0\nelement vertex 2\nproperty double x\n"
              "property double y\nproperty double z\nend_header\n").format(fmt)
    body = (b"0 0 0\n1e400 0 0\n" if fmt == "ascii"
            else np.array([[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0]]).tobytes())
    (tmp_path / "pre.ply").write_bytes(header.encode("ascii") + body)
    code = main(["register", "--pre", str(tmp_path / "pre.ply"),
                 "--intra", str(tmp_path / "intra.ply"),
                 "--out", str(tmp_path / "pose.json"), "--baseline", "icp"])
    assert code == EXIT_DATA
    assert "malformed PLY at byte" in capsys.readouterr().err
    assert not (tmp_path / "pose.json").exists()


def test_register_on_collinear_clouds_exits_with_numeric_error(tmp_path, capsys):
    """Points on one line build a pyramid, but every pose hypothesis fitted
    to them is rank-deficient: registration fails and no pose is written."""
    seg, reg = SegNetConfig(), RegNetConfig()
    save_checkpoint(tmp_path / "model.npz", init_params(seg, reg, 0), seg, reg)
    line = np.linspace(-1, 1, 200)[:, None] * np.array([[0.6, 0.0, 0.8]])
    cloud = PointCloud(line, colors=np.full((200, 3), 0.5))
    save_ply(cloud, tmp_path / "pre.ply")
    save_ply(cloud, tmp_path / "intra.ply")
    code = main(["register", "--pre", str(tmp_path / "pre.ply"),
                 "--intra", str(tmp_path / "intra.ply"),
                 "--out", str(tmp_path / "pose.json"),
                 "--checkpoint", str(tmp_path / "model.npz")])
    assert code == EXIT_NUMERIC
    assert "registration failed: degenerate correspondence set" in capsys.readouterr().err
    assert not (tmp_path / "pose.json").exists()


def write_sparse_dataset(path):
    cloud = collapsing_cloud()
    sample = RegistrationSample(cloud, cloud, RigidTransform.identity(), np.zeros((3, 3)),
                                np.zeros(5, dtype=np.int64), 0.2, np.zeros(3),
                                PhantomConfig())
    save_sample(sample, path / "sample_0000")
    write_manifest(path, ["sample_0000"])


def test_train_on_too_sparse_sample_exits_with_data_error(tmp_path):
    write_sparse_dataset(tmp_path / "data")
    assert main(["train", "--dataset", str(tmp_path / "data"),
                 "--out", str(tmp_path / "run"), "--iters", "1",
                 "--warmup", "0"]) == EXIT_DATA


def test_eval_carries_wall_time_from_pose_json(tmp_path):
    data, preds, out = tmp_path / "data", tmp_path / "preds", tmp_path / "eval"
    assert main(["generate", "--out", str(data), "--n-samples", "1",
                 "--n-vertebrae", "2", "--points-pre", "1024",
                 "--points-intra", "512"]) == 0
    preds.mkdir()
    sample = load_sample(data / "sample_0000")
    save_pose(sample.T_gt, preds / "sample_0000.pose.json",
              extra={"info": {"wall_time_s": 1.25}})
    assert main(["eval", "--dataset", str(data), "--predictions", str(preds),
                 "--out", str(out)]) == 0
    with open(out / "records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert all(float(r["wall_time_s"]) == 1.25 for r in rows)


def test_train_that_diverges_exits_with_numeric_error(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--n-samples", "1",
                 "--n-vertebrae", "2", "--points-pre", "1024",
                 "--points-intra", "512"]) == 0
    (data / "sample_0000").rename(data / "case_a")     # the manifest's name is reported
    write_manifest(data, ["case_a"])
    code = main(["train", "--dataset", str(data), "--out", str(tmp_path / "run"),
                 "--lr0", "1e300", "--iters", "4", "--warmup", "0",
                 "--checkpoint-every", "0"])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "training aborted" in err and "'case_a'" in err


@pytest.mark.parametrize("settings", [["--iters", "2"],
                                      ["--iters", "2", "--warmup", "0", "--lr0", "0"],
                                      ["--tau", "0"], ["--n-fine-pairs", "0"],
                                      ["--checkpoint-every", "-1"],
                                      ["--tau", "nan"], ["--tau", "inf"],
                                      ["--lr0", "nan"], ["--lr0", "inf"],
                                      ["--mode", "two_step", "--phase1-iters", "-5"]])
def test_train_with_invalid_settings_exits_with_usage_error(tmp_path, settings, capsys):
    write_sparse_dataset(tmp_path / "data")
    code = main(["train", "--dataset", str(tmp_path / "data"),
                 "--out", str(tmp_path / "run"), *settings])
    assert code == EXIT_USAGE
    assert "invalid training settings" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def small_pair_on_disk(tmp_path):
    sample = generate_phantom(PhantomConfig(seed=4, n_vertebrae=2, points_pre=1024,
                                            points_intra=512))
    pre, intra = tmp_path / "pre.ply", tmp_path / "intra.ply"
    save_ply(sample.preoperative, pre)
    save_ply(sample.intraoperative, intra)
    return pre, intra


def test_register_checkpoint_with_emit_mask_writes_the_labeled_intra_cloud(tmp_path):
    pre, intra = small_pair_on_disk(tmp_path)
    seg, reg = SegNetConfig(), RegNetConfig()
    save_checkpoint(tmp_path / "model.npz", init_params(seg, reg, 0), seg, reg)
    assert main(["register", "--pre", str(pre), "--intra", str(intra),
                 "--out", str(tmp_path / "pose.json"),
                 "--checkpoint", str(tmp_path / "model.npz"),
                 "--emit-mask", str(tmp_path / "mask.ply")]) == 0
    _, meta = load_pose(tmp_path / "pose.json")
    given, labeled = load_ply(intra), load_ply(tmp_path / "mask.ply")
    assert labeled.labels.shape == (len(given),)
    assert labeled.labels.mean() == meta["info"]["mask_mean"]
    assert np.array_equal(labeled.positions, given.positions)
    np.testing.assert_allclose(labeled.colors, given.colors, rtol=0, atol=1 / 255)


def test_register_baseline_with_emit_mask_exits_with_usage_error(tmp_path):
    pre, intra = small_pair_on_disk(tmp_path)
    code = main(["register", "--pre", str(pre), "--intra", str(intra),
                 "--out", str(tmp_path / "pose.json"), "--baseline", "icp",
                 "--emit-mask", str(tmp_path / "mask.ply")])
    assert code == EXIT_USAGE
    assert not (tmp_path / "pose.json").exists()
    assert not (tmp_path / "mask.ply").exists()


@pytest.mark.parametrize("baseline, n_points", [("icp", 2), ("ransac_icp", 8)])
def test_register_baseline_on_too_few_points_exits_with_data_error(tmp_path, baseline,
                                                                   n_points, capsys):
    pre, intra = small_pair_on_disk(tmp_path)
    save_ply(PointCloud(load_ply(pre).positions[:n_points]), pre)
    code = main(["register", "--pre", str(pre), "--intra", str(intra),
                 "--out", str(tmp_path / "pose.json"), "--baseline", baseline])
    assert code == EXIT_DATA
    assert "cannot register inputs" in capsys.readouterr().err
    assert not (tmp_path / "pose.json").exists()


def test_register_ransac_icp_baseline_matches_in_process_call(tmp_path):
    pre, intra = small_pair_on_disk(tmp_path)
    assert main(["register", "--pre", str(pre), "--intra", str(intra),
                 "--out", str(tmp_path / "pose.json"), "--baseline", "ransac_icp",
                 "--seed", "5"]) == 0
    pose, _ = load_pose(tmp_path / "pose.json")
    expected = ransac_icp(load_ply(pre), load_ply(intra), np.random.default_rng(5)).transform
    np.testing.assert_allclose(pose.rotation, expected.rotation, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pose.translation, expected.translation, rtol=0, atol=1e-12)


def test_register_pose_info_splits_the_learned_wall_time(tmp_path):
    pre, intra = small_pair_on_disk(tmp_path)
    seg, reg = SegNetConfig(), RegNetConfig()
    save_checkpoint(tmp_path / "model.npz", init_params(seg, reg, 0), seg, reg)
    assert main(["register", "--pre", str(pre), "--intra", str(intra),
                 "--out", str(tmp_path / "learned.json"),
                 "--checkpoint", str(tmp_path / "model.npz")]) == 0
    pose, meta = load_pose(tmp_path / "learned.json")
    info = meta["info"]
    assert info["rotation_deg"] == rotation_angle_deg(pose.rotation)
    assert info["prepare_s"] >= 0 and info["infer_s"] >= 0
    assert 0 <= info["vote_margin"] <= info["votes"]
    assert info["prepare_s"] + info["infer_s"] <= info["wall_time_s"]
    assert main(["register", "--pre", str(pre), "--intra", str(intra),
                 "--out", str(tmp_path / "icp.json"), "--baseline", "icp"]) == 0
    info = load_pose(tmp_path / "icp.json")[1]["info"]
    assert sorted(info) == ["converged", "final_rms", "iterations_used", "wall_time_s"]
    expected = icp(load_ply(pre), load_ply(intra))
    assert info["iterations_used"] == expected.iterations_used
    assert info["final_rms"] == expected.final_rms


def pinned_environment(monkeypatch):
    """Pin one thread variable and unset the other; the manifest
    ``environment`` a command then records."""
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": None}


def test_registers_into_one_directory_each_keep_their_own_manifest(tmp_path, monkeypatch):
    environment = pinned_environment(monkeypatch)
    pre, intra = small_pair_on_disk(tmp_path)
    preds = tmp_path / "preds"
    for name, seed in (("a", 3), ("b", 4)):
        assert main(["register", "--pre", str(pre), "--intra", str(intra),
                     "--out", str(preds / f"{name}.pose.json"), "--baseline", "ransac_icp",
                     "--seed", str(seed)]) == 0
    for name, seed in (("a", 3), ("b", 4)):
        manifest = load_pose(preds / f"{name}.pose.json")[1]["manifest"]
        assert manifest["command"] == "register"
        assert manifest["environment"] == environment
        assert manifest["args"]["seed"] == seed
        assert manifest["args"]["out"] == str(preds / f"{name}.pose.json")
    assert sorted(p.name for p in preds.iterdir()) == ["a.pose.json", "b.pose.json"]


def small_phantom_without_intra_colors():
    sample = generate_phantom(PhantomConfig(seed=4, n_vertebrae=2, points_pre=1024,
                                            points_intra=512))
    sample.intraoperative = PointCloud(sample.intraoperative.positions)
    return sample


def test_register_checkpoint_with_colorless_intra_exits_with_data_error(tmp_path, capsys):
    seg, reg = SegNetConfig(), RegNetConfig()
    save_checkpoint(tmp_path / "model.npz", init_params(seg, reg, 0), seg, reg)
    sample = small_phantom_without_intra_colors()
    save_ply(sample.preoperative, tmp_path / "pre.ply")
    save_ply(sample.intraoperative, tmp_path / "intra.ply")
    code = main(["register", "--pre", str(tmp_path / "pre.ply"),
                 "--intra", str(tmp_path / "intra.ply"),
                 "--out", str(tmp_path / "pose.json"),
                 "--checkpoint", str(tmp_path / "model.npz")])
    assert code == EXIT_DATA
    assert "no colors" in capsys.readouterr().err
    assert not (tmp_path / "pose.json").exists()


def test_train_on_colorless_intra_exits_with_data_error(tmp_path, capsys):
    save_sample(small_phantom_without_intra_colors(), tmp_path / "data" / "sample_0000")
    write_manifest(tmp_path / "data", ["sample_0000"])
    assert main(["train", "--dataset", str(tmp_path / "data"),
                 "--out", str(tmp_path / "run"), "--iters", "1",
                 "--warmup", "0"]) == EXIT_DATA
    assert "sample_0000: intraoperative cloud has no colors" in capsys.readouterr().err


def dataset_with_prediction(tmp_path, text):
    """A one-sample dataset and a prediction directory holding ``text`` as its pose."""
    data, preds = tmp_path / "data", tmp_path / "preds"
    assert main(["generate", "--out", str(data), "--n-samples", "1",
                 "--n-vertebrae", "2", "--points-pre", "1024",
                 "--points-intra", "512"]) == 0
    preds.mkdir()
    (preds / "sample_0000.pose.json").write_text(text)
    return data, preds


BAD_POSES = {
    "not_json": "{rotation: [",
    "not_a_rotation": json.dumps({"rotation": (2 * np.eye(3)).tolist(),
                                  "translation": [0, 0, 0]}),
    "no_rotation": json.dumps({"translation": [0, 0, 0]}),
    "no_translation": json.dumps({"rotation": np.eye(3).tolist()}),
    "rotation_not_numbers": json.dumps({"rotation": {"x": 1}, "translation": [0, 0, 0]}),
    "nan_translation": json.dumps({"rotation": np.eye(3).tolist(),
                                   "translation": [0, float("nan"), 0]}),
    "nan_rotation": json.dumps({"rotation": [[1, 0, 0], [0, 1, 0], [0, 0, float("nan")]],
                                "translation": [0, 0, 0]}),
    "info_not_object": json.dumps({"rotation": np.eye(3).tolist(), "translation": [0, 0, 0],
                                   "info": [1.25]}),
    "wall_time_not_number": json.dumps({"rotation": np.eye(3).tolist(),
                                        "translation": [0, 0, 0],
                                        "info": {"wall_time_s": "1.25 s"}}),
}


@pytest.mark.parametrize("kind", sorted(BAD_POSES))
def test_eval_with_bad_pose_file_exits_with_data_error(tmp_path, kind, capsys):
    data, preds = dataset_with_prediction(tmp_path, BAD_POSES[kind])
    assert main(["eval", "--dataset", str(data), "--predictions", str(preds),
                 "--out", str(tmp_path / "eval")]) == EXIT_DATA
    assert "cannot read prediction" in capsys.readouterr().err


def test_ablate_with_pose_file_lacking_rotation_exits_with_data_error(tmp_path):
    data, preds = dataset_with_prediction(tmp_path, BAD_POSES["no_rotation"])
    assert main(["ablate", "--dataset", str(data), "--out", str(tmp_path / "ablate"),
                 "--pred-a", str(preds), "--pred-b", str(preds)]) == EXIT_DATA


def test_ablate_with_a_missing_pose_file_exits_with_data_error(tmp_path, capsys):
    identity = json.dumps({"rotation": np.eye(3).tolist(), "translation": [0, 0, 0]})
    data, preds = dataset_with_prediction(tmp_path, identity)
    (tmp_path / "empty").mkdir()
    assert main(["ablate", "--dataset", str(data), "--out", str(tmp_path / "ablate"),
                 "--pred-a", str(preds), "--pred-b", str(tmp_path / "empty")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "cannot assemble ablation inputs: missing prediction" in err
    assert f"{tmp_path / 'empty' / 'sample_0000.pose.json'}" in err
    assert not (tmp_path / "ablate").exists()


def test_ablate_with_identical_predictions_writes_report_and_exits_with_data_error(tmp_path):
    data, preds = dataset_with_prediction(tmp_path, "{}")
    save_pose(load_sample(data / "sample_0000").T_gt, preds / "sample_0000.pose.json")
    out = tmp_path / "ablate"
    assert main(["ablate", "--dataset", str(data), "--out", str(out),
                 "--pred-a", str(preds), "--pred-b", str(preds)]) == EXIT_DATA
    assert "Wilcoxon signed-rank undefined" in (out / "ablation_report.txt").read_text()
    assert (out / "run_manifest.json").exists()


def test_register_with_missing_checkpoint_exits_with_data_error(tmp_path, capsys):
    pre, intra = small_pair_on_disk(tmp_path)
    code = main(["register", "--pre", str(pre), "--intra", str(intra),
                 "--out", str(tmp_path / "pose.json"),
                 "--checkpoint", str(tmp_path / "missing.npz")])
    assert code == EXIT_DATA
    assert "cannot load inputs" in capsys.readouterr().err
    assert not (tmp_path / "pose.json").exists()


@pytest.mark.parametrize("damage", ["not_an_archive", "truncated", "npy_array"])
def test_register_with_corrupt_checkpoint_exits_with_data_error(tmp_path, damage, capsys):
    pre, intra = small_pair_on_disk(tmp_path)
    seg, reg = SegNetConfig(), RegNetConfig()
    ckpt = tmp_path / "model.npz"
    save_checkpoint(ckpt, init_params(seg, reg, 0), seg, reg)
    body = ckpt.read_bytes()
    if damage == "npy_array":
        np.save(ckpt.with_suffix(".npy"), np.zeros(3))
        ckpt = ckpt.with_suffix(".npy")
    else:
        ckpt.write_bytes(b"not a checkpoint\n" if damage == "not_an_archive"
                         else body[: len(body) // 2])
    code = main(["register", "--pre", str(pre), "--intra", str(intra),
                 "--out", str(tmp_path / "pose.json"), "--checkpoint", str(ckpt)])
    assert code == EXIT_DATA
    assert "cannot load inputs" in capsys.readouterr().err
    assert not (tmp_path / "pose.json").exists()


def test_train_resume_from_missing_checkpoint_exits_with_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--n-samples", "1",
                 "--n-vertebrae", "2", "--points-pre", "1024",
                 "--points-intra", "512"]) == 0
    code = main(["train", "--dataset", str(data), "--out", str(tmp_path / "run"),
                 "--iters", "1", "--warmup", "0",
                 "--resume", str(tmp_path / "missing.npz")])
    assert code == EXIT_DATA
    assert "cannot load inputs" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def drop(key):
    def damage(header, arrays):
        del (arrays if key.startswith("param/") else header)[key]
        return header
    return damage


def unknown_config_key(header, arrays):
    header["seg_config"]["colour_jitter"] = 0.1
    return header


def foreign_rng_state(header, arrays):
    header["rng_state"] = {"bit_generator": "MT19937"}
    return header


def config_value(config, field, value):
    """The header describes a network other than the one the arrays hold, or
    one that no config accepts."""
    def damage(header, arrays):
        header[config][field] = value
        return header
    return damage


def reshaped(key):
    """``key`` holds an array with one axis more than ``reg_sp_w``."""
    def damage(header, arrays):
        arrays[key] = np.zeros((1,) + arrays["param/reg_sp_w"].shape)
        return header
    return damage


MALFORMED_CHECKPOINTS = {
    "no_param_names": drop("param_names"),
    "no_step": drop("step"),
    "no_seg_config": drop("seg_config"),
    "no_reg_config": drop("reg_config"),
    "no_param_array": drop("param/seg_enc0_w"),
    "unknown_config_key": unknown_config_key,
    "foreign_rng_state": foreign_rng_state,
    "header_not_object": lambda header, arrays: [header],
    "other_width_factor": config_value("reg_config", "width_factor", 0.5),
    "param_of_another_shape": reshaped("param/reg_sp_w"),
    "momentum_of_another_shape": reshaped("momentum/reg_sp_w"),
    "negative_width_factor": config_value("seg_config", "width_factor", -1.0),
    # a step that is not a count of steps taken
    "text_step": lambda header, arrays: header | {"step": "abc"},
    "negative_step": lambda header, arrays: header | {"step": -5},
    "boolean_step": lambda header, arrays: header | {"step": True},
    "fractional_step": lambda header, arrays: header | {"step": 2.5},
}


def rewritten_checkpoint(path, damage):
    """A valid checkpoint rewritten by ``damage(header, arrays)``, which
    edits the arrays in place and returns the new header."""
    seg, reg = SegNetConfig(), RegNetConfig()
    save_checkpoint(path, init_params(seg, reg, 0), seg, reg)
    with np.load(path) as z:
        arrays = {key: z[key] for key in z.files}
    header = json.loads(bytes(arrays["__header__"]).decode("utf-8"))
    header = damage(header, arrays)
    arrays["__header__"] = np.frombuffer(json.dumps(header).encode("utf-8"), np.uint8)
    np.savez(path, **arrays)
    return path


def malformed_checkpoint(path, kind):
    """A valid checkpoint with one header field or array damaged."""
    return rewritten_checkpoint(path, MALFORMED_CHECKPOINTS[kind])


@pytest.mark.parametrize("kind", sorted(MALFORMED_CHECKPOINTS))
def test_register_with_malformed_checkpoint_exits_with_data_error(tmp_path, kind, capsys):
    pre, intra = small_pair_on_disk(tmp_path)
    ckpt = malformed_checkpoint(tmp_path / "model.npz", kind)
    code = main(["register", "--pre", str(pre), "--intra", str(intra),
                 "--out", str(tmp_path / "pose.json"), "--checkpoint", str(ckpt)])
    assert code == EXIT_DATA
    assert "cannot load inputs: malformed checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "pose.json").exists()


@pytest.mark.parametrize("kind", sorted(MALFORMED_CHECKPOINTS))
def test_train_resume_from_malformed_checkpoint_exits_with_data_error(tmp_path, kind, capsys):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--n-samples", "1",
                 "--n-vertebrae", "2", "--points-pre", "1024",
                 "--points-intra", "512"]) == 0
    ckpt = malformed_checkpoint(tmp_path / "model.npz", kind)
    code = main(["train", "--dataset", str(data), "--out", str(tmp_path / "run"),
                 "--iters", "1", "--warmup", "0", "--resume", str(ckpt)])
    assert code == EXIT_DATA
    assert "cannot load inputs: malformed checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_version_2_checkpoint_exits_with_data_error(tmp_path, capsys):
    """Version 2 headers carried the network constants in the configs."""
    def version_2(header, arrays):
        header["seg_config"].update(stages=5, kernel_size=15, base_radius_mult=2.5,
                                    kernel_seed=17)
        return header | {"version": 2}

    pre, intra = small_pair_on_disk(tmp_path)
    ckpt = rewritten_checkpoint(tmp_path / "model.npz", version_2)
    code = main(["register", "--pre", str(pre), "--intra", str(intra),
                 "--out", str(tmp_path / "pose.json"), "--checkpoint", str(ckpt)])
    assert code == EXIT_DATA
    assert "cannot load inputs: unsupported checkpoint version 2" in capsys.readouterr().err


def loading_argv(tmp_path, command, ckpt):
    """``register --checkpoint ckpt`` on a small pair, or ``train --resume
    ckpt`` on a one-sample dataset, both with ``--out tmp_path/out``."""
    if command == "register":
        pre, intra = small_pair_on_disk(tmp_path)
        argv = ["register", "--pre", str(pre), "--intra", str(intra), "--checkpoint"]
    else:
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data), "--n-samples", "1",
                     "--n-vertebrae", "2", "--points-pre", "1024",
                     "--points-intra", "512"]) == 0
        argv = ["train", "--dataset", str(data), "--iters", "1", "--warmup", "0", "--resume"]
    return argv + [str(ckpt), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("command", ["register", "train"])
def test_version_3_checkpoint_exits_with_data_error(tmp_path, command, capsys):
    """Version 3 headers carried each network's widths, voxel and neighbor
    cap, which are now class constants."""
    def version_3(header, arrays):
        for key, cfg in (("seg_config", SegNetConfig), ("reg_config", RegNetConfig)):
            header[key].update(widths=list(cfg.widths), initial_voxel=cfg.initial_voxel,
                               max_neighbors=cfg.max_neighbors)
        return header | {"version": 3}

    ckpt = rewritten_checkpoint(tmp_path / "model.npz", version_3)
    assert main(loading_argv(tmp_path, command, ckpt)) == EXIT_DATA
    assert "cannot load inputs: unsupported checkpoint version 3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["register", "train"])
def test_version_4_checkpoint_exits_with_data_error(tmp_path, command, capsys):
    """Version 4 headers are laid out as version 5's, but their registration
    weights were trained on offsets rotated into per-point local frames."""
    ckpt = rewritten_checkpoint(tmp_path / "model.npz",
                                lambda header, arrays: header | {"version": 4})
    assert main(loading_argv(tmp_path, command, ckpt)) == EXIT_DATA
    assert "cannot load inputs: unsupported checkpoint version 4" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_version_1_checkpoint_exits_with_data_error(tmp_path, capsys):
    pre, intra = small_pair_on_disk(tmp_path)
    ckpt = rewritten_checkpoint(tmp_path / "model.npz",
                                lambda header, arrays: header | {"version": 1})
    code = main(["register", "--pre", str(pre), "--intra", str(intra),
                 "--out", str(tmp_path / "pose.json"), "--checkpoint", str(ckpt)])
    assert code == EXIT_DATA
    assert "unsupported checkpoint version 1" in capsys.readouterr().err


@pytest.mark.parametrize("factor", ["-1", "0", "nan"])
def test_train_with_a_width_factor_that_is_not_positive_exits_with_usage_error(
        tmp_path, factor, capsys):
    """The networks are checked before the dataset is read or --out is made."""
    out = tmp_path / "run"
    code = main(["train", "--dataset", str(tmp_path / "missing"), "--out", str(out),
                 "--width-factor", factor])
    assert code == EXIT_USAGE
    assert "invalid training settings: SegNetConfig(" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("step", [2, 4])
def test_train_resume_at_or_past_iters_exits_with_usage_error(tmp_path, step, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    assert main(["generate", "--out", str(data), "--n-samples", "1",
                 "--n-vertebrae", "2", "--points-pre", "1024",
                 "--points-intra", "512"]) == 0
    seg, reg = SegNetConfig(), RegNetConfig()
    save_checkpoint(tmp_path / "model.npz", init_params(seg, reg, 0), seg, reg, step=step)
    code = main(["train", "--dataset", str(data), "--out", str(out),
                 "--iters", "2", "--warmup", "0", "--resume", str(tmp_path / "model.npz")])
    assert code == EXIT_USAGE
    assert "invalid training settings" in capsys.readouterr().err
    assert not out.exists()


def test_train_resume_with_another_width_factor_exits_with_usage_error(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    assert main(["generate", "--out", str(data), "--n-samples", "1",
                 "--n-vertebrae", "2", "--points-pre", "1024",
                 "--points-intra", "512"]) == 0
    seg, reg = SegNetConfig(width_factor=0.5), RegNetConfig(width_factor=0.5)
    save_checkpoint(tmp_path / "model.npz", init_params(seg, reg, 0), seg, reg)
    code = main(["train", "--dataset", str(data), "--out", str(out), "--iters", "1",
                 "--warmup", "0", "--resume", str(tmp_path / "model.npz")])
    assert code == EXIT_USAGE
    assert "invalid training settings" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_two_checkpoints_writes_report_and_records_for_both_names(tmp_path):
    """Two samples are two paired cases, too few for the Wilcoxon test: the
    report and records are written and the command exits with a data error."""
    data, out = tmp_path / "data", tmp_path / "ablate"
    assert main(["generate", "--out", str(data), "--n-samples", "2",
                 "--n-vertebrae", "2", "--points-pre", "1024",
                 "--points-intra", "512"]) == 0
    seg, reg = SegNetConfig(), RegNetConfig()
    for seed in (0, 1):
        save_checkpoint(tmp_path / f"seed{seed}.npz", init_params(seg, reg, seed), seg, reg)
    assert main(["ablate", "--dataset", str(data), "--out", str(out),
                 "--checkpoint-a", str(tmp_path / "seed0.npz"),
                 "--checkpoint-b", str(tmp_path / "seed1.npz"),
                 "--name-a", "seed0", "--name-b", "seed1"]) == EXIT_DATA
    report = (out / "ablation_report.txt").read_text()
    assert "Wilcoxon signed-rank undefined: need at least 6 non-zero differences, got 2" in report
    with open(out / "records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 2 samples x 2 methods x 6 landmarks (3 per vertebra)
    assert len(rows) == 24
    assert {(r["sample_id"], r["method"]) for r in rows} == {
        (s, m) for s in ("sample_0000", "sample_0001") for m in ("seed0", "seed1")}
    # the ablation registers each pair as `segreg register --checkpoint` does
    sample_dir = data / "sample_0000"
    assert main(["register", "--pre", str(sample_dir / "pre.ply"),
                 "--intra", str(sample_dir / "intra.ply"),
                 "--out", str(tmp_path / "pose.json"),
                 "--checkpoint", str(tmp_path / "seed0.npz")]) == 0
    pose, _ = load_pose(tmp_path / "pose.json")
    sample = load_sample(sample_dir)
    want = np.linalg.norm(pose.apply_points(sample.landmarks)
                          - sample.T_gt.apply_points(sample.landmarks), axis=1)
    got = [float(r["tre_units"]) for r in rows
           if (r["sample_id"], r["method"]) == ("sample_0000", "seed0")]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_ablate_checkpoints_on_colorless_dataset_exits_with_data_error(tmp_path, capsys):
    save_sample(small_phantom_without_intra_colors(), tmp_path / "data" / "sample_0000")
    write_manifest(tmp_path / "data", ["sample_0000"])
    seg, reg = SegNetConfig(), RegNetConfig()
    ckpt = tmp_path / "model.npz"
    save_checkpoint(ckpt, init_params(seg, reg, 0), seg, reg)
    assert main(["ablate", "--dataset", str(tmp_path / "data"),
                 "--out", str(tmp_path / "ablate"),
                 "--checkpoint-a", str(ckpt), "--checkpoint-b", str(ckpt)]) == EXIT_DATA
    assert "sample_0000: intraoperative cloud has no colors" in capsys.readouterr().err


def test_generate_train_register_eval_ablate_chain_exits_zero(tmp_path, monkeypatch):
    """The documented workflow on six tiny phantoms, the fewest paired cases
    the ablation's Wilcoxon test accepts, every step exiting 0."""
    environment = pinned_environment(monkeypatch)
    data, model = tmp_path / "data", tmp_path / "model"
    assert main(["generate", "--out", str(data), "--n-samples", "6", "--n-vertebrae", "2",
                 "--points-pre", "1024", "--points-intra", "512"]) == 0
    # the generator settings are kept once, in the run manifest
    run_manifest = json.loads((data / "run_manifest.json").read_text())
    assert run_manifest["environment"] == environment
    settings = run_manifest["args"]
    assert (settings["n_vertebrae"], settings["points_pre"], settings["points_intra"]) == (
        2, 1024, 512)
    assert "config" not in json.loads((data / "manifest.json").read_text())
    assert main(["train", "--dataset", str(data), "--out", str(model),
                 "--iters", "2", "--warmup", "0"]) == 0
    for name in (f"sample_{i:04d}" for i in range(6)):
        pair = ["--pre", str(data / name / "pre.ply"),
                "--intra", str(data / name / "intra.ply"), "--out"]
        assert main(["register", *pair, str(tmp_path / "learned" / f"{name}.pose.json"),
                     "--checkpoint", str(model / "checkpoint_000002.npz")]) == 0
        assert main(["register", *pair, str(tmp_path / "icp" / f"{name}.pose.json"),
                     "--baseline", "icp"]) == 0
    for method in ("learned", "icp"):
        assert main(["eval", "--dataset", str(data), "--predictions", str(tmp_path / method),
                     "--out", str(tmp_path / f"eval_{method}"), "--method", method]) == 0
    assert main(["ablate", "--dataset", str(data), "--out", str(tmp_path / "ablate"),
                 "--pred-a", str(tmp_path / "learned"), "--pred-b", str(tmp_path / "icp")]) == 0
    report = (tmp_path / "ablate" / "ablation_report.txt").read_text()
    assert "Wilcoxon signed-rank: p = " in report


def write_manifest_text(text):
    def damage(data):
        (data / "manifest.json").write_text(text)
    return damage


def truncate_mask(data):
    path = data / "sample_0000" / "mask.txt"
    path.write_text("\n".join(path.read_text().split()[:-1]) + "\n")


def pose_field(key, value):
    """Set a field of the sample's pose.json; None drops it."""
    def damage(data):
        path = data / "sample_0000" / "pose.json"
        doc = json.loads(path.read_text())
        doc.pop(key)
        if value is not None:
            doc[key] = value
        path.write_text(json.dumps(doc))
    return damage


def nan_landmark(data):
    path = data / "sample_0000" / "landmarks.csv"
    path.write_text(path.read_text() + "nan,0.0,0.0\n")


def non_binary_mask(data):
    path = data / "sample_0000" / "mask.txt"
    labels = path.read_text().split()
    path.write_text("\n".join(["7"] + labels[1:]) + "\n")


def two_column_landmarks(data):
    (data / "sample_0000" / "landmarks.csv").write_text("x,y\n0.1,0.2\n0.3,0.4\n")


def header_only_landmarks(data):
    (data / "sample_0000" / "landmarks.csv").write_text("x,y,z\n")


def manifest_naming(name):
    """A manifest that names the one sample ``name``, with the sample and its
    prediction copied to where that name points, so only the name is wrong."""
    def damage(data):
        shutil.copytree(data / "sample_0000", data / name)
        preds = data.parent / "preds"
        pred = preds / f"{name}.pose.json"
        pred.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(preds / "sample_0000.pose.json", pred)
        write_manifest_text(json.dumps({"format_version": 1, "samples": [name]}))(data)
    return damage


EVERY_DATASET_COMMAND = ("train", "eval", "ablate")
# damage to a valid one-sample dataset, and the commands that read the damage
BAD_DATASETS = {
    "manifest_not_an_object": (write_manifest_text("[]"), ("eval",)),
    "manifest_without_samples": (write_manifest_text('{"format_version": 1}'), ("eval",)),
    "samples_not_a_list": (write_manifest_text(
        '{"format_version": 1, "samples": 1}'), ("eval",)),
    "empty_samples": (write_manifest_text('{"format_version": 1, "samples": []}'),
                      EVERY_DATASET_COMMAND),
    "duplicate_samples": (write_manifest_text(
        '{"format_version": 1, "samples": ["sample_0000", "sample_0000"]}'),
        EVERY_DATASET_COMMAND),
    "sample_outside_dataset": (manifest_naming("../a/sample_0000"), EVERY_DATASET_COMMAND),
    "nested_sample_name": (manifest_naming("a/b"), EVERY_DATASET_COMMAND),
    "mask_shorter_than_intra_cloud": (truncate_mask, ("train",)),
    "mask_label_not_binary": (non_binary_mask, ("train",)),
    "pose_without_scale": (pose_field("scale", None), ("eval",)),
    "negative_scale": (pose_field("scale", -0.2), ("eval",)),
    "center_not_xyz": (pose_field("center", "abc"), ("eval",)),
    "nan_landmark": (nan_landmark, ("eval",)),
    "landmarks_not_xyz": (two_column_landmarks, ("eval",)),
    "no_landmarks": (header_only_landmarks, ("eval",)),
}


@pytest.mark.parametrize("kind", sorted(BAD_DATASETS))
def test_malformed_dataset_exits_with_data_error(tmp_path, kind, capsys):
    identity = json.dumps({"rotation": np.eye(3).tolist(), "translation": [0, 0, 0]})
    data, preds = dataset_with_prediction(tmp_path, identity)
    damage, commands = BAD_DATASETS[kind]
    damage(data)
    out = tmp_path / "out"
    # each command, and the prefix of its data-error message
    runs = {
        "train": (["train", "--dataset", str(data), "--out", str(out), "--mode", "two_step",
                   "--iters", "2", "--phase1-iters", "1", "--warmup", "0",
                   "--checkpoint-every", "0"], "cannot load inputs"),
        "eval": (["eval", "--dataset", str(data), "--predictions", str(preds),
                  "--out", str(out)], "cannot load dataset"),
        "ablate": (["ablate", "--dataset", str(data), "--out", str(out),
                    "--pred-a", str(preds), "--pred-b", str(preds)],
                   "cannot assemble ablation inputs"),
    }
    for command in commands:
        args, prefix = runs[command]
        assert main(args) == EXIT_DATA, command
        assert prefix in capsys.readouterr().err, command
        assert not out.exists(), command


@pytest.mark.parametrize("flag", ["--pre", "--intra", "--checkpoint"])
def test_register_with_a_directory_for_an_input_file_exits_with_data_error(
        tmp_path, flag, capsys):
    pre, intra = small_pair_on_disk(tmp_path)
    seg, reg = SegNetConfig(), RegNetConfig()
    save_checkpoint(tmp_path / "model.npz", init_params(seg, reg, 0), seg, reg)
    inputs = {"--pre": str(pre), "--intra": str(intra),
              "--checkpoint": str(tmp_path / "model.npz"), flag: str(tmp_path)}
    code = main(["register", *[v for item in inputs.items() for v in item],
                 "--out", str(tmp_path / "pose.json")])
    assert code == EXIT_DATA
    assert "cannot load inputs" in capsys.readouterr().err
    assert not (tmp_path / "pose.json").exists()


def test_dataset_commands_with_a_directory_for_a_file_exit_with_data_error(tmp_path):
    data, preds = dataset_with_prediction(tmp_path, "{}")
    (preds / "sample_0000.pose.json").unlink()
    (preds / "sample_0000.pose.json").mkdir()
    assert main(["eval", "--dataset", str(data), "--predictions", str(preds),
                 "--out", str(tmp_path / "eval")]) == EXIT_DATA
    assert main(["ablate", "--dataset", str(data), "--out", str(tmp_path / "ablate"),
                 "--pred-a", str(preds), "--pred-b", str(preds)]) == EXIT_DATA
    assert main(["ablate", "--dataset", str(data), "--out", str(tmp_path / "ablate"),
                 "--checkpoint-a", str(preds), "--checkpoint-b", str(preds)]) == EXIT_DATA
    assert main(["train", "--dataset", str(data), "--out", str(tmp_path / "run"),
                 "--iters", "1", "--warmup", "0", "--resume", str(preds)]) == EXIT_DATA
    assert not (tmp_path / "run").exists()


# a bare element line, and a vertex property without a name
SHORT_HEADER_LINES = {
    "element_without_name": "element",
    "element_without_count": "element vertex",
    "property_without_name": "property double",
}


@pytest.mark.parametrize("kind", sorted(SHORT_HEADER_LINES))
def test_register_with_short_ply_header_line_exits_with_data_error(tmp_path, kind, capsys):
    pre, intra = small_pair_on_disk(tmp_path)
    lines = ["ply", "format ascii 1.0", "element vertex 1", "property double x",
             "property double y", "property double z", "end_header", "0 0 0"]
    at = 2 if kind.startswith("element") else 3
    lines.insert(at, SHORT_HEADER_LINES[kind])
    pre.write_text("\n".join(lines) + "\n")
    code = main(["register", "--pre", str(pre), "--intra", str(intra),
                 "--out", str(tmp_path / "pose.json"), "--baseline", "icp"])
    assert code == EXIT_DATA
    assert "malformed PLY" in capsys.readouterr().err
    assert not (tmp_path / "pose.json").exists()


@pytest.mark.parametrize("count", ["abc", "1.5"])
def test_register_with_non_integer_vertex_count_exits_with_data_error(tmp_path, count,
                                                                      capsys):
    pre, intra = small_pair_on_disk(tmp_path)
    pre.write_text("\n".join(["ply", "format ascii 1.0", f"element vertex {count}",
                              "property double x", "property double y",
                              "property double z", "end_header", "0 0 0"]) + "\n")
    code = main(["register", "--pre", str(pre), "--intra", str(intra),
                 "--out", str(tmp_path / "pose.json"), "--baseline", "icp"])
    assert code == EXIT_DATA
    assert "malformed PLY at byte 21" in capsys.readouterr().err
    assert not (tmp_path / "pose.json").exists()


# an ascii value outside its declared type: (property lines, the vertex row)
OUT_OF_RANGE_VALUES = {
    "uchar_red_300": (["uchar red", "uchar green", "uchar blue"], "0 0 0 300 0 0"),
    "int_label_past_int32": (["int label"], "0 0 0 99999999999"),
}


@pytest.mark.parametrize("kind", sorted(OUT_OF_RANGE_VALUES))
def test_register_with_an_out_of_range_ascii_value_exits_with_data_error(tmp_path, kind,
                                                                         capsys):
    pre, intra = small_pair_on_disk(tmp_path)
    props, row = OUT_OF_RANGE_VALUES[kind]
    header = "\n".join(["ply", "format ascii 1.0", "element vertex 1", "property double x",
                        "property double y", "property double z"]
                       + [f"property {p}" for p in props] + ["end_header"]) + "\n"
    pre.write_text(header + row + "\n")
    code = main(["register", "--pre", str(pre), "--intra", str(intra),
                 "--out", str(tmp_path / "pose.json"), "--baseline", "icp"])
    assert code == EXIT_DATA
    assert f"malformed PLY at byte {len(header)}: " in capsys.readouterr().err
    assert not (tmp_path / "pose.json").exists()


def test_two_step_train_reports_phase1_accuracy_per_sample(tmp_path):
    data, out = tmp_path / "data", tmp_path / "run"
    assert main(["generate", "--out", str(data), "--n-samples", "2", "--n-vertebrae", "2",
                 "--points-pre", "1024", "--points-intra", "512"]) == 0
    assert main(["train", "--dataset", str(data), "--out", str(out), "--mode", "two_step",
                 "--iters", "2", "--phase1-iters", "1", "--warmup", "0",
                 "--checkpoint-every", "0"]) == 0
    lines = (out / "phase1_segmentation_report.txt").read_text().splitlines()
    assert [line.split(":")[0] for line in lines] == ["sample_0000", "sample_0001", "mean"]
    accs = [float(line.split()[-1]) for line in lines]
    assert all(0.0 <= a <= 1.0 for a in accs)
    assert accs[2] == pytest.approx(np.mean(accs[:2]), abs=2e-4)  # 4-decimal rounding
    assert (out / "checkpoint_000002.npz").exists()


@pytest.mark.parametrize("n_samples", ["0", "-2"])
def test_generate_without_samples_exits_with_usage_error(tmp_path, n_samples, capsys):
    code = main(["generate", "--out", str(tmp_path / "data"), "--n-samples", n_samples])
    assert code == EXIT_USAGE
    assert "--n-samples must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


BAD_PHANTOM_SETTINGS = [
    ("--noise-sigma", "-1", "noise_sigma must be non-negative"),
    ("--occlusion-patches", "-1", "occlusion_patches must be non-negative"),
    ("--points-pre", "50", "point counts must be at least 100"),
    ("--exposure-fraction", "2", "fractions must lie in [0, 1]"),
    ("--n-vertebrae", "0", "need at least one vertebra"),
]


@pytest.mark.parametrize("flag, value, message", BAD_PHANTOM_SETTINGS,
                         ids=[flag for flag, _, _ in BAD_PHANTOM_SETTINGS])
def test_generate_with_a_bad_phantom_setting_exits_with_usage_error(
        tmp_path, flag, value, message, capsys):
    code = main(["generate", "--out", str(tmp_path / "data"), "--n-samples", "1",
                 "--n-vertebrae", "2", "--points-pre", "1024", "--points-intra", "512",
                 flag, value])
    assert code == EXIT_USAGE
    assert f"invalid phantom settings: {message}" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


# inputs that do not exist show that the flag is checked before any is read
NEGATIVE_INTEGER_FLAGS = {
    "generate_seed": ["generate", "--seed", "-1"],
    "train_seed": ["train", "--dataset", "missing", "--seed", "-1"],
    "train_log_every": ["train", "--dataset", "missing", "--log-every", "-1"],
    "register_seed": ["register", "--pre", "missing.ply", "--intra", "missing.ply",
                      "--baseline", "ransac_icp", "--seed", "-1"],
    "gradcheck_seed": ["gradcheck", "--seed", "-1"],
}


@pytest.mark.parametrize("argv", NEGATIVE_INTEGER_FLAGS.values(), ids=NEGATIVE_INTEGER_FLAGS)
def test_negative_integer_flag_exits_with_usage_error_before_any_work(
        tmp_path, argv, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: segreg")
    assert f"argument {argv[-2]}: expected a non-negative integer, got '-1'" in err
    assert not (tmp_path / "out").exists()


def test_generate_failure_of_the_generator_exits_with_data_error(tmp_path, capsys):
    """Settings the config accepts but no phantom satisfies: every retry
    misses the overlap guarantee."""
    code = main(["generate", "--out", str(tmp_path / "data"), "--n-samples", "1",
                 "--n-vertebrae", "2", "--points-pre", "1024", "--points-intra", "512",
                 "--exposure-fraction", "0"])
    assert code == EXIT_DATA
    assert "generation failed: phantom generation failed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "register", "eval"])
def test_command_with_an_unwritable_out_exits_with_data_error(tmp_path, command, capsys):
    identity = json.dumps({"rotation": np.eye(3).tolist(), "translation": [0, 0, 0]})
    data, preds = dataset_with_prediction(tmp_path, identity)
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"        # a directory under a regular file
    args = {
        "generate": ["generate", "--out", str(out), "--n-samples", "1",
                     "--n-vertebrae", "2", "--points-pre", "1024", "--points-intra", "512"],
        "register": ["register", "--pre", str(data / "sample_0000" / "pre.ply"),
                     "--intra", str(data / "sample_0000" / "intra.ply"),
                     "--out", str(out / "pose.json"), "--baseline", "icp"],
        "eval": ["eval", "--dataset", str(data), "--predictions", str(preds),
                 "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert main(args) == EXIT_DATA
    assert "cannot write outputs" in capsys.readouterr().err
