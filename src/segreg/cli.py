"""Command-line entry point: generate / train / register / eval / ablate /
gradcheck.

Every command is deterministic given its flags and seed and records its
resolved configuration and the environment that ran it (python, numpy and
scipy versions, thread settings): ``register`` in its pose JSON's
``manifest`` field (poses share directories), the others in
run_manifest.json.  Exit codes:
0 success, 1 usage error, 2 data error (also unwritable outputs),
3 numerical failure.

Commands raise: the rules of the ``_exits`` block around each step pick
the exit code and message, and ``main`` prints the message; its own rule
gives an ``OSError`` no command rule claims exit 2.  Only
``_exits``, ``main`` and the ablation's Wilcoxon report catch exceptions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import scipy

from segreg import __version__
from segreg.baselines import icp, ransac_icp
from segreg.evaluation import (
    evaluate_pose,
    format_summary,
    summarize,
    wilcoxon_signed_rank,
    write_records,
)
from segreg.fileio import (
    load_checkpoint,
    load_ply,
    load_pose,
    load_sample,
    read_manifest,
    save_ply,
    save_pose,
    save_sample,
    write_manifest,
)
from segreg.geometry import PointCloud
from segreg.gradcheck import COMPONENTS, run_checks
from segreg.gumbel import hard_mask
from segreg.kpconv import SparseCloudError
from segreg.networks import RegNetConfig, SegNetConfig, seg_forward
from segreg.phantom import (
    POSE_MAX_ROTATION_DEG,
    PhantomConfig,
    RegistrationSample,
    generate_phantom,
)
from segreg.pipeline import (
    MatcherConfig,
    RegistrationError,
    prepare_sample,
    register_pair,
)
from segreg.training import TrainConfig, TrainingDiverged, resume_step, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
# farthest a point may lie from the origin where register needs unit-sphere
# clouds; the phantoms stay within 1 + POSE_MAX_TRANSLATION of it
MAX_INPUT_RADIUS = 2.0


class _Exit(Exception):
    """A failed command: ``main`` prints the message and returns the code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _exits(*rules):
    """Rules ``(exception types, exit code, message prefix)`` are tried in
    order, as ``except`` clauses are; the first that matches a raised
    exception turns it into ``_Exit(code, "prefix: <exception>")``."""
    try:
        yield
    except Exception as exc:
        for types, code, prefix in rules:
            if isinstance(exc, types):
                raise _Exit(code, f"{prefix}: {exc}") from exc
        raise


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _Exit(EXIT_USAGE, f"error: {message}")


def _run_manifest(command: str, args: dict) -> dict:
    """The command, its resolved flags, and the environment that ran it: the
    python, numpy and scipy versions and the BLAS thread settings (unset is
    null).  The git revision is not recorded; no subprocess is started."""
    resolved = {k: v for k, v in args.items() if k not in ("fn", "command")}
    environment = {"python": ".".join(map(str, sys.version_info[:3])),
                   "numpy": np.__version__, "scipy": scipy.__version__}
    environment.update({name: os.environ.get(name)
                        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")})
    return {"command": command, "version": __version__, "args": resolved,
            "environment": environment}


def _write_run_manifest(out_dir: Path, command: str, args: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = _run_manifest(command, args)
    (out_dir / "run_manifest.json").write_text(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    if args.n_samples < 1:
        raise _Exit(EXIT_USAGE, f"error: --n-samples must be at least 1, got {args.n_samples}")
    out = Path(args.out)
    knobs = {f.name: getattr(args, f.name) for f in fields(PhantomConfig) if f.name != "seed"}
    with _exits((ValueError, EXIT_USAGE, "invalid phantom settings")):
        cfg = PhantomConfig(seed=args.seed, **knobs)
    with _exits((RuntimeError, EXIT_DATA, "generation failed")):
        dirs = []
        for i in range(args.n_samples):
            sample = generate_phantom(replace(cfg, seed=args.seed + i))
            name = f"sample_{i:04d}"
            save_sample(sample, out / name)
            dirs.append(name)
        write_manifest(out, dirs, seed=args.seed)
    _write_run_manifest(out, "generate", vars(args))
    print(f"wrote {args.n_samples} samples to {out}")
    return EXIT_OK


def _load_dataset(path: str, colors: bool = False):
    """``(name, sample)`` for every sample the manifest under ``path`` lists;
    with ``colors``, every intraoperative cloud must carry colors."""
    root = Path(path)
    dataset = [(name, load_sample(root / name)) for name in read_manifest(root)["samples"]]
    if colors:
        for name, sample in dataset:
            _require_colors(sample.intraoperative, name)
    return dataset


def _require_colors(cloud, where: str) -> None:
    """The segmentation network reads the intraoperative colors."""
    if cloud.colors is None:
        raise ValueError(f"{where}: intraoperative cloud has no colors")


def _register_with_model(model, pre, intra):
    """The learned pipeline on one pair, ``model`` as ``load_checkpoint``
    returns it; the pair carries no ground truth.  The result's ``info``
    gains the seconds spent preparing the pair (pyramids, influence tables
    and patches: ``prepare_s``) and registering it (``infer_s``)."""
    params, seg_cfg, reg_cfg, _ = model
    sample = RegistrationSample(
        preoperative=pre, intraoperative=intra,
        T_gt=None, landmarks=np.zeros((0, 3)),
        gt_mask=np.zeros(len(intra), dtype=np.int64),
        scale=1.0, center=np.zeros(3), config=PhantomConfig())
    match_cfg = MatcherConfig()
    t0 = time.perf_counter()
    prepared = prepare_sample(sample, seg_cfg, reg_cfg, match_cfg,
                              with_ground_truth=False)
    t1 = time.perf_counter()
    result = register_pair(params, prepared, seg_cfg, reg_cfg, match_cfg)
    result.info["prepare_s"] = t1 - t0
    result.info["infer_s"] = time.perf_counter() - t1
    return result


def _read_predictions(dataset, directory):
    """``({name: (pose, info)}, missing names)`` from each sample's
    ``<name>.pose.json`` under ``directory``.  A pose that does not load, an
    ``info`` that is not an object or a ``wall_time_s`` that is not a number
    is a data error naming the file."""
    found, missing = {}, []
    for name, _ in dataset:
        path = Path(directory) / f"{name}.pose.json"
        if not path.exists():
            missing.append(name)
            continue
        with _exits(((OSError, ValueError), EXIT_DATA, f"cannot read prediction {path}")):
            pose, meta = load_pose(path)
            info = meta.get("info", {})
            if not isinstance(info, dict):
                raise ValueError(f"info must be an object, got {info!r}")
            wall = info.get("wall_time_s", 0.0)
            if isinstance(wall, bool) or not isinstance(wall, (int, float)):
                raise ValueError(f"info.wall_time_s must be a number, got {wall!r}")
        found[name] = pose, info
    return found, missing


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    with _exits((ValueError, EXIT_USAGE, "invalid training settings")):
        cfg = TrainConfig(lr0=args.lr0, warmup_iters=args.warmup,
                          total_iters=args.iters, mode=args.mode,
                          tau=args.tau, tau_anneal=args.tau_anneal,
                          phase1_iters=args.phase1_iters, seed=args.seed,
                          checkpoint_every=args.checkpoint_every,
                          n_fine_pairs=args.n_fine_pairs)
        seg_cfg = SegNetConfig(width_factor=args.width_factor)
        reg_cfg = RegNetConfig(width_factor=args.width_factor)
    with _exits(((OSError, ValueError), EXIT_DATA, "cannot load inputs")):
        dataset = _load_dataset(args.dataset, colors=True)
        resume = load_checkpoint(args.resume) if args.resume is not None else None
    if resume is not None:      # a network config holds only its width factor
        if resume[1:3] != (seg_cfg, reg_cfg):
            raise _Exit(EXIT_USAGE, "invalid training settings: the checkpoint's width "
                        f"factors {resume[1].width_factor}, {resume[2].width_factor} "
                        f"are not --width-factor {args.width_factor}")
        # before any sample is prepared or --out is made
        with _exits((ValueError, EXIT_USAGE, "invalid training settings")):
            resume_step(resume, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    samples = [s for _, s in dataset]
    with _exits((SparseCloudError, EXIT_DATA, "cannot train on dataset"),
                (TrainingDiverged, EXIT_NUMERIC, "training aborted"),
                (ValueError, EXIT_USAGE, "invalid training settings")):
        prepared = [prepare_sample(s, seg_cfg, reg_cfg, MatcherConfig(), sample_id=name)
                    for name, s in dataset]
        result = train(samples, cfg, seg_cfg, reg_cfg, out_dir=out, resume=resume,
                       prepared=prepared, log_every=args.log_every)
    _write_run_manifest(out, "train", vars(args))
    if args.mode == "two_step":
        _report_phase1_accuracy(dataset, prepared, result.params, out)
    print(f"finished {cfg.total_iters} iterations; checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def _report_phase1_accuracy(dataset, prepared, params, out: Path) -> None:
    accs = [float((hard_mask(seg_forward(params, p.seg_ctx)) == p.sample.gt_mask).mean())
            for p in prepared]
    report = "\n".join(
        f"{name}: seg accuracy vs gt_mask {a:.4f}"
        for (name, _), a in zip(dataset, accs))
    report += f"\nmean: {np.mean(accs):.4f}\n"
    (out / "phase1_segmentation_report.txt").write_text(report)
    print(f"phase-1 segmentation accuracy: mean {np.mean(accs):.4f}")


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

def cmd_register(args) -> int:
    if (args.checkpoint is None) == (args.baseline is None):
        raise _Exit(EXIT_USAGE, "choose exactly one of --checkpoint or --baseline")
    if args.emit_mask and args.baseline is not None:
        raise _Exit(EXIT_USAGE, "--emit-mask needs a checkpoint run")
    with _exits(((OSError, ValueError), EXIT_DATA, "cannot load inputs")):
        pre = load_ply(args.pre)
        intra = load_ply(args.intra)
        if args.baseline != "icp":  # the networks' and descriptors' radii; ICP has none
            for path, cloud in ((args.pre, pre), (args.intra, intra)):
                radius = np.linalg.norm(cloud.positions, axis=1).max()
                if radius > MAX_INPUT_RADIUS:
                    raise ValueError(f"{path}: a point lies {radius:.4g} from the origin, "
                                     f"past {MAX_INPUT_RADIUS:g}; normalize the clouds to "
                                     "the unit sphere")
        if args.checkpoint is not None:
            _require_colors(intra, args.intra)
            model = load_checkpoint(args.checkpoint)

    t0 = time.perf_counter()
    with _exits((SparseCloudError, EXIT_DATA, "cannot register inputs"),
                ((RegistrationError, ValueError), EXIT_NUMERIC, "registration failed")):
        if args.baseline is not None:
            report = (icp(pre, intra) if args.baseline == "icp"
                      else ransac_icp(pre, intra, np.random.default_rng(args.seed)))
            T = report.transform
            info = {"final_rms": report.final_rms, "converged": report.converged,
                    "iterations_used": report.iterations_used}
        else:
            out = _register_with_model(model, pre, intra)
            T, mask, info = out.transform, out.mask, out.info
    info["wall_time_s"] = time.perf_counter() - t0

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    manifest = _run_manifest("register", vars(args))
    save_pose(T, out_path, extra={"info": info, "manifest": manifest})
    if args.emit_mask:
        labeled = PointCloud(intra.positions, colors=intra.colors,
                             labels=mask.astype(np.int64))
        save_ply(labeled, args.emit_mask)
    print(f"pose written to {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    with _exits(((OSError, ValueError), EXIT_DATA, "cannot load dataset")):
        dataset = _load_dataset(args.dataset)
    predictions, missing = _read_predictions(dataset, args.predictions)
    samples = dict(dataset)
    records = [evaluate_pose(name, args.method, samples[name], T,
                             float(info.get("wall_time_s", 0.0)))
               for name, (T, info) in predictions.items()]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if records:
        write_records(records, out / "records.csv")
        tre_mm = [v for r in records for v in r.tre_mm]
        report = [
            format_summary(f"TRE ({args.method})", summarize(tre_mm)),
            format_summary(f"RMSE ({args.method})",
                           summarize([r.rmse_mm for r in records])),
        ]
        (out / "summary.txt").write_text("\n".join(report) + "\n")
        print("\n".join(report))
    _write_run_manifest(out, "eval", vars(args))
    if missing:
        raise _Exit(EXIT_DATA, "missing predictions for: " + ", ".join(missing))
    return EXIT_OK


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def cmd_ablate(args) -> int:
    have_ckpts = args.checkpoint_a is not None and args.checkpoint_b is not None
    have_preds = args.pred_a is not None and args.pred_b is not None
    if have_ckpts == have_preds:
        raise _Exit(EXIT_USAGE,
                    "choose either --checkpoint-a/--checkpoint-b or --pred-a/--pred-b")
    # a prediction file the reader rejects keeps its message under this prefix
    with _exits(((OSError, ValueError, _Exit), EXIT_DATA, "cannot assemble ablation inputs"),
                (RegistrationError, EXIT_NUMERIC, "registration failed during ablation")):
        dataset = _load_dataset(args.dataset, colors=have_ckpts)
        if have_ckpts:      # poses: {name: pose} of method a, then of method b
            models = [load_checkpoint(c) for c in (args.checkpoint_a, args.checkpoint_b)]
            poses = [{name: _register_with_model(m, s.preoperative, s.intraoperative).transform
                      for name, s in dataset} for m in models]
        else:
            poses = []
            for directory in (args.pred_a, args.pred_b):
                found, missing = _read_predictions(dataset, directory)
                if missing:
                    raise FileNotFoundError(
                        f"missing prediction {Path(directory) / missing[0]}.pose.json")
                poses.append({name: pose for name, (pose, _) in found.items()})

    rec_a, rec_b = ([evaluate_pose(name, method, s, by_name[name]) for name, s in dataset]
                    for method, by_name in zip((args.name_a, args.name_b), poses))
    # one paired case per sample: the landmarks of a sample share its pose,
    # so they are not independent cases
    med_a = [float(np.median(r.tre_mm)) for r in rec_a]
    med_b = [float(np.median(r.tre_mm)) for r in rec_b]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_records(rec_a + rec_b, out / "records.csv")
    lines = [
        "Paired comparison of per-sample median landmark TRE (one case per sample)",
        format_summary(args.name_a, summarize(med_a)),
        format_summary(args.name_b, summarize(med_b)),
    ]
    code = EXIT_OK
    try:    # an undefined test is still reported, then exits with a data error
        p, r = wilcoxon_signed_rank(med_a, med_b)
        lines.append(f"Wilcoxon signed-rank: p = {p:.6g}, effect size r = {r:.3f}")
    except ValueError as exc:
        lines.append(f"Wilcoxon signed-rank undefined: {exc}")
        code = EXIT_DATA
    (out / "ablation_report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    _write_run_manifest(out, "ablate", vars(args))
    return code


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    with _exits((ValueError, EXIT_USAGE, "error")):
        results = run_checks(args.component, seed=args.seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"{status} {r.component:8s} {r.name:30s} "
              f"max_rel_err={r.max_rel_error:.3e} tol={r.tolerance:.0e}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        doc = [dict(component=r.component, name=r.name,
                    max_rel_error=r.max_rel_error, tolerance=r.tolerance,
                    passed=r.passed) for r in results]
        (out / "gradcheck.json").write_text(json.dumps(doc, indent=2) + "\n")
        _write_run_manifest(out, "gradcheck", vars(args))
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _non_negative_int(text: str) -> int:
    """A seed or a step interval: decimal digits, which ``int`` always parses."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> _Parser:
    # the docstring's last paragraph is about the code, not for --help
    p = _Parser(prog="segreg", description=__doc__.rsplit("\n\n", 1)[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic phantom dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--n-samples", type=int, default=8)
    for f in fields(PhantomConfig):     # annotations are strings: parse as the default's type
        kind = _non_negative_int if f.name == "seed" else type(f.default)
        g.add_argument("--" + f.name.replace("_", "-"), type=kind, default=f.default)
    g.set_defaults(fn=cmd_generate)

    t = sub.add_parser("train", help="train the joint model on a dataset")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--mode", choices=["end_to_end", "two_step"], default=TrainConfig.mode)
    t.add_argument("--iters", type=int, default=TrainConfig.total_iters)
    t.add_argument("--warmup", type=int, default=TrainConfig.warmup_iters)
    t.add_argument("--lr0", type=float, default=TrainConfig.lr0)
    t.add_argument("--tau", type=float, default=TrainConfig.tau)
    t.add_argument("--tau-anneal", action="store_true",
                   help="anneal the Gumbel temperature linearly from --tau to 0.1 "
                        "over the first half of the iterations")
    t.add_argument("--phase1-iters", type=int, default=TrainConfig.phase1_iters)
    t.add_argument("--n-fine-pairs", type=int, default=TrainConfig.n_fine_pairs)
    t.add_argument("--width-factor", type=float, default=RegNetConfig.width_factor,
                   help="positive scale of every layer width of both networks; a "
                        "scaled width is rounded and at least 2 (default: %(default)s)")
    t.add_argument("--seed", type=_non_negative_int, default=TrainConfig.seed)
    t.add_argument("--checkpoint-every", type=int, default=TrainConfig.checkpoint_every)
    t.add_argument("--resume", default=None,
                   help="checkpoint to continue from; the new loss_curve.csv "
                        "holds only the steps from the checkpoint's step on")
    t.add_argument("--log-every", type=_non_negative_int, default=0)
    t.set_defaults(fn=cmd_train)

    r = sub.add_parser(
        "register", help="register one preoperative/intraoperative pair",
        description="Register one preoperative/intraoperative pair.  The learned "
                    "backbone is not rotation-invariant: it serves the relative poses "
                    "it was trained on, and the phantoms draw at most "
                    f"{POSE_MAX_ROTATION_DEG:g} degrees.  The pose JSON's "
                    "info.rotation_deg is the returned pose's angle.")
    r.add_argument("--pre", required=True)
    r.add_argument("--intra", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--checkpoint", default=None)
    r.add_argument("--baseline", choices=["icp", "ransac_icp"], default=None)
    r.add_argument("--emit-mask", default=None)
    r.add_argument("--seed", type=_non_negative_int, default=0)
    r.set_defaults(fn=cmd_register)

    e = sub.add_parser("eval", help="evaluate pose predictions against a dataset")
    e.add_argument("--dataset", required=True)
    e.add_argument("--predictions", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--method", default="model")
    e.set_defaults(fn=cmd_eval)

    a = sub.add_parser("ablate", help="paired comparison of two models/predictions")
    a.add_argument("--dataset", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--checkpoint-a", default=None)
    a.add_argument("--checkpoint-b", default=None)
    a.add_argument("--pred-a", default=None)
    a.add_argument("--pred-b", default=None)
    a.add_argument("--name-a", default="method_a")
    a.add_argument("--name-b", default="method_b")
    a.set_defaults(fn=cmd_ablate)

    c = sub.add_parser("gradcheck", help="finite-difference checks of every operator")
    c.add_argument("--component", choices=list(COMPONENTS), default=None)
    c.add_argument("--seed", type=_non_negative_int, default=0)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with _exits((OSError, EXIT_DATA, "cannot write outputs")):
            return args.fn(args)
    except _Exit as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
