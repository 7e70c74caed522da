"""The benchmark's workloads: register, train and baselines.

Each workload makes its phantoms from the workload seed and cycles through a
fixed set of ``units`` (distinct inputs) in a closed loop, one operation at a
time.  ``run`` is the timed call and returns the seconds of each named
timing; ``check`` verifies its outputs (valid pose, finite TRE or loss, and
the same result on every repeat of a unit).  ``cli_args``/``check_cli`` do
the same for the matching ``segreg`` command.  Accuracy figures come from
the fixed units, never from how many repeats fit in the run, so they repeat
exactly for a given seed.

segreg functions are called through their modules (``pipeline.register_pair``)
so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from segreg import baselines, evaluation, fileio, phantom, pipeline, training
from segreg.geometry import RigidTransform
from segreg.networks import RegNetConfig, SegNetConfig


class CheckFailed(Exception):
    """An operation returned an output that fails the benchmark's checks."""


@dataclass(frozen=True)
class Size:
    phantom: dict = field(default_factory=dict)   # PhantomConfig overrides
    register_pairs: int = 7
    train_samples: int = 4                        # prepared training set
    train_steps: int = 16                         # steps per timed train() call
    cli_datasets: int = 6                         # one-sample datasets for `segreg train`
    cli_train_iters: int = 2
    baseline_pairs: int = 6
    setups: int = 3                               # set-ups per run, for setup_s


SIZES = {
    "full": Size(),                                # `segreg generate` defaults
    "tiny": Size(phantom=dict(n_vertebrae=2, points_pre=1024, points_intra=512),
                 register_pairs=1, train_samples=1, train_steps=2, cli_datasets=1,
                 baseline_pairs=1, setups=1),
}

# phantom seeds are 10000 * seed + offset + i, so workloads never share one
SEED_OFFSETS = {"register": 1000, "train": 2000, "baselines": 3000}


def phantom_seeds(workload: str, seed: int, count: int) -> list[int]:
    return [10_000 * seed + SEED_OFFSETS[workload] + i for i in range(count)]


def _valid_pose(T: RigidTransform) -> RigidTransform:
    if not (np.all(np.isfinite(T.rotation)) and np.all(np.isfinite(T.translation))):
        raise CheckFailed("pose has non-finite entries")
    try:
        return RigidTransform(T.rotation, T.translation)
    except ValueError as exc:
        raise CheckFailed(f"invalid pose: {exc}") from exc


def _tre_mm(sample, T: RigidTransform) -> np.ndarray:
    err = evaluation.tre(sample.landmarks, T, sample.T_gt, sample.scale)["mm"]
    if not np.all(np.isfinite(err)):
        raise CheckFailed("TRE is not finite")
    return err


def _same_pose(a: RigidTransform, b: RigidTransform, tol: float, what: str) -> None:
    diff = max(np.max(np.abs(a.rotation - b.rotation)),
               np.max(np.abs(a.translation - b.translation)))
    if diff > tol:
        raise CheckFailed(f"{what}: poses differ by {diff:.3g}")


def _pose_key(T: RigidTransform) -> bytes:
    return T.rotation.tobytes() + T.translation.tobytes()


class Workload:
    name = ""
    op_timing = ""         # the timing reported as op_s
    cli_timing = ""        # the timing reported as cli_s
    steps_per_op = 1       # pairs or steps in one run() call

    def __init__(self, seed: int, size: Size, work_dir: Path):
        self.seed = seed
        self.size = size
        self.dir = work_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.configs = (SegNetConfig(), RegNetConfig(), pipeline.MatcherConfig())
        self.diagnostics: dict[int, dict] = {}
        self._seen: dict = {}

    def _repeat(self, key, value, what: str) -> None:
        """Every repeat of a unit must reproduce its first result exactly."""
        first = self._seen.setdefault(key, value)
        if first != value:
            raise CheckFailed(f"{what} changed on a repeat of the same input")

    def _generate(self, seeds: list[int]) -> list:
        return [phantom.generate_phantom(phantom.PhantomConfig(seed=s, **self.size.phantom))
                for s in seeds]

    def guards(self) -> dict:
        """Accuracy figures that must repeat exactly for a given seed."""
        return {}

    def counts(self) -> dict:
        """Per-pair counts read from the operations' own results."""
        return {}


class Register(Workload):
    """Learned pipeline on fresh pairs with deterministic untrained weights."""

    name = "register"
    op_timing = "register_s"
    cli_timing = "cli_register_s"

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        self.units = size.register_pairs
        self.seeds = phantom_seeds(self.name, seed, self.units)

    def setup(self) -> None:
        seg, reg, _ = self.configs
        self.checkpoint = self.dir / "model.npz"
        fileio.save_checkpoint(self.checkpoint, training.init_params(seg, reg, self.seed),
                               seg, reg)
        self.params, seg, reg, _ = fileio.load_checkpoint(self.checkpoint)
        self.configs = (seg, reg, self.configs[2])
        self.truth, self.inputs, self.files = [], [], []
        for i, sample in enumerate(self._generate(self.seeds)):
            pre, intra = self.dir / f"pair{i}_pre.ply", self.dir / f"pair{i}_intra.ply"
            fileio.save_ply(sample.preoperative, pre)
            fileio.save_ply(sample.intraoperative, intra)
            # the in-process run reads the files the CLI reads (colors are
            # stored as bytes), so both must give the same pose
            loaded_intra = fileio.load_ply(intra)
            self.inputs.append(phantom.RegistrationSample(
                preoperative=fileio.load_ply(pre), intraoperative=loaded_intra,
                T_gt=None, landmarks=np.zeros((0, 3)),
                gt_mask=np.zeros(len(loaded_intra), dtype=np.int64),
                scale=1.0, center=np.zeros(3), config=phantom.PhantomConfig()))
            self.truth.append(sample)
            self.files.append((pre, intra))
        self.poses: dict[int, RigidTransform] = {}
        self.check(0, self.run(0)[1])                 # warm-up

    def run(self, unit: int):
        seg, reg, match = self.configs
        t0 = time.perf_counter()
        prepared = pipeline.prepare_sample(self.inputs[unit], seg, reg, match,
                                           with_ground_truth=False)
        result = pipeline.register_pair(self.params, prepared, seg, reg, match)
        return {"register_s": time.perf_counter() - t0}, result

    def check(self, unit: int, result) -> None:
        pose = _valid_pose(result.transform)
        err = _tre_mm(self.truth[unit], pose)
        self._repeat(unit, _pose_key(pose), "register_pair pose")
        self.poses[unit] = pose
        info = result.info
        self.diagnostics[unit] = {
            "phantom_seed": self.seeds[unit], "tre_mm": float(np.median(err)),
            "n_coarse": info["n_coarse"], "n_fine": info["n_fine"],
            "inliers": info["inliers"], "path": info["path"],
            "mask_mean": info["mask_mean"]}

    def cli_args(self, unit: int) -> list[str]:
        pre, intra = self.files[unit]
        return ["register", "--pre", str(pre), "--intra", str(intra),
                "--out", str(self.dir / f"cli_pose{unit}.json"),
                "--checkpoint", str(self.checkpoint)]

    def check_cli(self, unit: int) -> None:
        out = self.dir / f"cli_pose{unit}.json"
        try:
            pose, _ = fileio.load_pose(out)
        finally:
            out.unlink(missing_ok=True)
        if unit in self.poses:
            _same_pose(pose, self.poses[unit], 1e-9, "CLI and in-process registration")

    def counts(self) -> dict:
        rows = list(self.diagnostics.values())
        n_coarse = float(np.mean([r["n_coarse"] for r in rows])) if rows else 0.0
        n_fine = float(np.mean([r["n_fine"] for r in rows])) if rows else 0.0
        return {"matching.n_coarse": n_coarse, "matching.n_fine": n_fine,
                "matching.fine_per_coarse": n_fine / n_coarse if n_coarse else 0.0}


class Train(Workload):
    """End-to-end training steps on phantoms prepared with ground truth."""

    name = "train"
    op_timing = "train_step_s"
    cli_timing = "cli_train_s"

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        # units are the CLI datasets; every train() call is the same operation
        self.units = size.cli_datasets
        self.steps_per_op = size.train_steps
        self.seeds = phantom_seeds(self.name, seed, max(size.cli_datasets, size.train_samples))

    def setup(self) -> None:
        seg, reg, match = self.configs
        samples = self._generate(self.seeds)
        for i, sample in enumerate(samples[:self.units]):
            dataset = self.dir / f"dataset{i}"
            fileio.save_sample(sample, dataset / "sample_0000")
            fileio.write_manifest(dataset, ["sample_0000"], seed=self.seeds[i])
        self.prepared = [pipeline.prepare_sample(s, seg, reg, match, sample_id=f"sample_{i:04d}")
                         for i, s in enumerate(samples[:self.size.train_samples])]
        self._train(3)                    # warm-up: a process's first steps are slow

    def _train(self, steps: int):
        seg, reg, match = self.configs
        cfg = training.TrainConfig(total_iters=steps, warmup_iters=0,
                                   checkpoint_every=0, seed=self.seed)
        return training.train([p.sample for p in self.prepared], cfg, seg, reg, match,
                              prepared=self.prepared)

    def run(self, unit: int):
        t0 = time.perf_counter()
        result = self._train(self.steps_per_op)
        return {"train_step_s": (time.perf_counter() - t0) / self.steps_per_op}, result

    def check(self, unit: int, result) -> None:
        curve = [tuple(row) for row in result.curve]
        if len(curve) != self.steps_per_op:
            raise CheckFailed(f"loss curve has {len(curve)} rows for {self.steps_per_op} steps")
        totals = np.array([row[2] for row in curve])
        if not np.all(np.isfinite(totals)):
            raise CheckFailed("training loss is not finite")
        # every call starts from the same seed, so every curve is the same
        self._repeat("curve", curve, "training loss curve")
        self.diagnostics[0] = {"train_loss": float(totals.mean()),
                               "phantom_seeds": self.seeds[:self.size.train_samples]}

    def _cli_out(self, unit: int) -> Path:
        return self.dir / f"cli_train{unit}"

    def cli_args(self, unit: int) -> list[str]:
        return ["train", "--dataset", str(self.dir / f"dataset{unit}"),
                "--out", str(self._cli_out(unit)),
                "--iters", str(self.size.cli_train_iters), "--warmup", "0",
                "--checkpoint-every", "0", "--seed", str(self.seed)]

    def check_cli(self, unit: int) -> None:
        out = self._cli_out(unit)
        iters = self.size.cli_train_iters
        try:
            _, _, _, state = fileio.load_checkpoint(out / f"checkpoint_{iters:06d}.npz")
            with open(out / "loss_curve.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if state["step"] != iters or len(rows) != iters:
            raise CheckFailed(f"segreg train wrote step {state['step']} and "
                              f"{len(rows)} curve rows for {iters} iterations")
        totals = tuple(float(r["total"]) for r in rows)
        if not np.all(np.isfinite(totals)):
            raise CheckFailed("segreg train loss is not finite")
        self._repeat(("cli", unit), totals, "segreg train loss curve")

    def guards(self) -> dict:
        return {"train_loss": self.diagnostics[0]["train_loss"]} if self.diagnostics else {}


class Baselines(Workload):
    """ICP and RANSAC+ICP on phantom pairs; no learned layer runs."""

    name = "baselines"
    op_timing = "ransac_icp_s"
    cli_timing = "cli_icp_s"

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        self.units = size.baseline_pairs
        self.seeds = phantom_seeds(self.name, seed, self.units)

    def setup(self) -> None:
        self.truth, self.files = [], []
        for i, sample in enumerate(self._generate(self.seeds)):
            pre, intra = self.dir / f"pair{i}_pre.ply", self.dir / f"pair{i}_intra.ply"
            fileio.save_ply(sample.preoperative, pre)
            fileio.save_ply(sample.intraoperative, intra)
            self.truth.append(sample)
            self.files.append((pre, intra))
        self.poses: dict[int, RigidTransform] = {}
        self.errors: dict[int, dict] = {}
        # warm-up: the descriptor code paths (k-d trees, eigh, histograms)
        baselines.local_descriptors(self.truth[0].intraoperative, radius=0.15)

    def run(self, unit: int):
        sample = self.truth[unit]
        pre, intra = sample.preoperative, sample.intraoperative
        t0 = time.perf_counter()
        plain = baselines.icp(pre, intra)
        t1 = time.perf_counter()
        ransac = baselines.ransac_icp(pre, intra, np.random.default_rng([self.seed, unit]))
        t2 = time.perf_counter()
        return {"icp_s": t1 - t0, "ransac_icp_s": t2 - t1}, (plain, ransac)

    def check(self, unit: int, result) -> None:
        plain, ransac = result
        icp_pose, ransac_pose = _valid_pose(plain.transform), _valid_pose(ransac.transform)
        icp_err = _tre_mm(self.truth[unit], icp_pose)
        ransac_err = _tre_mm(self.truth[unit], ransac_pose)
        self._repeat(unit, _pose_key(icp_pose) + _pose_key(ransac_pose), "baseline poses")
        self.poses[unit] = icp_pose
        self.errors[unit] = {"icp_tre_mm": icp_err, "ransac_icp_tre_mm": ransac_err}
        self.diagnostics[unit] = {
            "phantom_seed": self.seeds[unit], "icp_iterations": plain.iterations_used,
            "icp_tre_mm": float(np.median(icp_err)),
            "ransac_icp_tre_mm": float(np.median(ransac_err))}

    def cli_args(self, unit: int) -> list[str]:
        pre, intra = self.files[unit]
        return ["register", "--pre", str(pre), "--intra", str(intra),
                "--out", str(self.dir / f"cli_pose{unit}.json"), "--baseline", "icp"]

    def check_cli(self, unit: int) -> None:
        out = self.dir / f"cli_pose{unit}.json"
        try:
            pose, _ = fileio.load_pose(out)
        finally:
            out.unlink(missing_ok=True)
        if unit in self.poses:
            _same_pose(pose, self.poses[unit], 1e-9, "CLI and in-process ICP")

    def guards(self) -> dict:
        """Median landmark TRE over all pairs, per method."""
        if len(self.errors) < self.units:
            return {}
        return {key: float(np.median(np.concatenate([e[key] for e in self.errors.values()])))
                for key in ("icp_tre_mm", "ransac_icp_tre_mm")}

    def counts(self) -> dict:
        rows = list(self.diagnostics.values())
        return {"baselines.icp_iterations":
                float(np.mean([r["icp_iterations"] for r in rows])) if rows else 0.0}


WORKLOADS = {w.name: w for w in (Register, Train, Baselines)}
