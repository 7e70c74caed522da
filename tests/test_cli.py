"""Command-line entry point, run in-process."""

import csv
import json

import numpy as np

from segreg.cli import EXIT_DATA, main
from segreg.fileio import (
    load_sample,
    save_checkpoint,
    save_ply,
    save_pose,
    save_sample,
    write_manifest,
)
from segreg.geometry import PointCloud, RigidTransform
from segreg.networks import RegNetConfig, SegNetConfig
from segreg.phantom import PhantomConfig, RegistrationSample
from segreg.training import init_params


def test_gradcheck_command_writes_all_passing_checks(tmp_path):
    assert main(["gradcheck", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "gradcheck.json").read_text())
    assert len(doc) == 16
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


def test_train_on_too_sparse_sample_exits_with_data_error(tmp_path):
    cloud = collapsing_cloud()
    sample = RegistrationSample(cloud, cloud, RigidTransform.identity(), np.zeros((3, 3)),
                                np.zeros(5, dtype=np.int64), 0.2, np.zeros(3),
                                PhantomConfig())
    save_sample(sample, tmp_path / "data" / "sample_0000")
    write_manifest(tmp_path / "data", ["sample_0000"])
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
