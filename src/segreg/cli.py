"""Command-line entry point: generate / train / register / eval / ablate /
gradcheck.

Every command is deterministic given its flags and seed and writes a
run_manifest.json capturing the resolved configuration.  Exit codes:
0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

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
from segreg.gradcheck import COMPONENTS, run_checks
from segreg.kpconv import SparseCloudError
from segreg.networks import RegNetConfig, SegNetConfig
from segreg.phantom import PhantomConfig, generate_phantom
from segreg.pipeline import (
    MatcherConfig,
    RegistrationError,
    prepare_sample,
    register_pair,
)
from segreg.training import TrainConfig, TrainingDiverged, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_run_manifest(out_dir: Path, command: str, args: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = {k: v for k, v in args.items() if k not in ("fn", "command")}
    doc = {"command": command, "version": __version__, "args": resolved}
    (out_dir / "run_manifest.json").write_text(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    out = Path(args.out)
    cfg_common = dict(
        n_vertebrae=args.n_vertebrae, points_pre=args.points_pre,
        points_intra=args.points_intra, exposure_fraction=args.exposure_fraction,
        clutter_fraction=args.clutter_fraction, noise_sigma=args.noise_sigma,
        occlusion_patches=args.occlusion_patches)
    try:
        dirs = []
        for i in range(args.n_samples):
            sample = generate_phantom(PhantomConfig(seed=args.seed + i, **cfg_common))
            name = f"sample_{i:04d}"
            save_sample(sample, out / name)
            dirs.append(name)
        write_manifest(out, dirs, config=dict(cfg_common), seed=args.seed)
    except (ValueError, RuntimeError) as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_DATA
    _write_run_manifest(out, "generate", vars(args))
    print(f"wrote {args.n_samples} samples to {out}")
    return EXIT_OK


def _load_dataset(path: str):
    root = Path(path)
    manifest = read_manifest(root)
    names = manifest["samples"]
    return [(name, load_sample(root / name)) for name in names]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    try:
        dataset = _load_dataset(args.dataset)
    except (FileNotFoundError, ValueError) as exc:
        print(f"cannot load dataset: {exc}", file=sys.stderr)
        return EXIT_DATA
    seg_cfg = SegNetConfig(width_factor=args.width_factor)
    reg_cfg = RegNetConfig(width_factor=args.width_factor)
    cfg = TrainConfig(lr0=args.lr0, warmup_iters=args.warmup,
                      total_iters=args.iters, mode=args.mode,
                      tau=args.tau, tau_anneal=args.tau_anneal,
                      phase1_iters=args.phase1_iters, seed=args.seed,
                      checkpoint_every=args.checkpoint_every,
                      n_fine_pairs=args.n_fine_pairs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = train([s for _, s in dataset], cfg, seg_cfg, reg_cfg,
                       out_dir=out, resume_from=args.resume,
                       log_every=args.log_every)
    except SparseCloudError as exc:
        print(f"cannot train on dataset: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _write_run_manifest(out, "train", vars(args))
    if args.mode == "two_step":
        _report_phase1_accuracy(dataset, result, seg_cfg, out)
    print(f"finished {cfg.total_iters} iterations; checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def _report_phase1_accuracy(dataset, result, seg_cfg, out: Path) -> None:
    from segreg.gumbel import hard_mask
    from segreg.networks import build_context, seg_forward

    accs = []
    for name, sample in dataset:
        ctx = build_context(sample.intraoperative, seg_cfg)
        mask = hard_mask(seg_forward(result.params, ctx, seg_cfg))
        accs.append(float((mask == sample.gt_mask).mean()))
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
        print("choose exactly one of --checkpoint or --baseline", file=sys.stderr)
        return EXIT_USAGE
    try:
        pre = load_ply(args.pre)
        intra = load_ply(args.intra)
    except (FileNotFoundError, ValueError) as exc:
        print(f"cannot load inputs: {exc}", file=sys.stderr)
        return EXIT_DATA

    t0 = time.perf_counter()
    mask = None
    try:
        if args.baseline is not None:
            if args.baseline == "icp":
                report = icp(pre, intra)
            else:
                report = ransac_icp(pre, intra, np.random.default_rng(args.seed))
            T = report.transform
            info = {"final_rms": report.final_rms, "converged": report.converged}
        else:
            params, seg_cfg, reg_cfg, _ = load_checkpoint(args.checkpoint)
            from segreg.phantom import RegistrationSample

            sample = RegistrationSample(
                preoperative=pre, intraoperative=intra,
                T_gt=None, landmarks=np.zeros((0, 3)),
                gt_mask=np.zeros(len(intra), dtype=np.int64),
                scale=1.0, center=np.zeros(3), config=PhantomConfig())
            prepared = prepare_sample(sample, seg_cfg, reg_cfg, MatcherConfig(),
                                      with_ground_truth=False)
            out = register_pair(params, prepared, seg_cfg, reg_cfg, MatcherConfig())
            T, mask, info = out.transform, out.mask, out.info
    except SparseCloudError as exc:
        print(f"cannot register inputs: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (RegistrationError, ValueError) as exc:
        print(f"registration failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    info["wall_time_s"] = time.perf_counter() - t0

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_pose(T, out_path, extra={"info": info})
    if args.emit_mask:
        if mask is None:
            print("--emit-mask needs a checkpoint run", file=sys.stderr)
            return EXIT_USAGE
        from segreg.geometry import PointCloud

        labeled = PointCloud(intra.positions, colors=intra.colors,
                             labels=mask.astype(np.int64))
        save_ply(labeled, args.emit_mask)
    _write_run_manifest(out_path.parent, "register", vars(args))
    print(f"pose written to {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    try:
        dataset = _load_dataset(args.dataset)
    except (FileNotFoundError, ValueError) as exc:
        print(f"cannot load dataset: {exc}", file=sys.stderr)
        return EXIT_DATA
    pred_dir = Path(args.predictions)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    records, missing = [], []
    for name, sample in dataset:
        pose_path = pred_dir / f"{name}.pose.json"
        if not pose_path.exists():
            missing.append(name)
            continue
        T, meta = load_pose(pose_path)
        wall = float(meta.get("info", {}).get("wall_time_s", 0.0))
        records.append(evaluate_pose(name, args.method, sample, T, wall))
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
        print("missing predictions for: " + ", ".join(missing), file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def _predict_dataset(dataset, checkpoint):
    params, seg_cfg, reg_cfg, _ = load_checkpoint(checkpoint)
    match_cfg = MatcherConfig()
    out = {}
    for name, sample in dataset:
        prepared = prepare_sample(sample, seg_cfg, reg_cfg, match_cfg,
                                  with_ground_truth=False)
        out[name] = register_pair(params, prepared, seg_cfg, reg_cfg,
                                  match_cfg).transform
    return out


def _poses_from_dir(dataset, directory):
    poses = {}
    for name, _ in dataset:
        path = Path(directory) / f"{name}.pose.json"
        if not path.exists():
            raise FileNotFoundError(f"missing prediction {path}")
        poses[name], _ = load_pose(path)
    return poses


def cmd_ablate(args) -> int:
    have_ckpts = args.checkpoint_a is not None and args.checkpoint_b is not None
    have_preds = args.pred_a is not None and args.pred_b is not None
    if have_ckpts == have_preds:
        print("choose either --checkpoint-a/--checkpoint-b or --pred-a/--pred-b",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        dataset = _load_dataset(args.dataset)
        if have_ckpts:
            poses_a = _predict_dataset(dataset, args.checkpoint_a)
            poses_b = _predict_dataset(dataset, args.checkpoint_b)
        else:
            poses_a = _poses_from_dir(dataset, args.pred_a)
            poses_b = _poses_from_dir(dataset, args.pred_b)
    except (FileNotFoundError, ValueError) as exc:
        print(f"cannot assemble ablation inputs: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RegistrationError as exc:
        print(f"registration failed during ablation: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    tre_a, tre_b, rec_a, rec_b = [], [], [], []
    for name, sample in dataset:
        ra = evaluate_pose(name, args.name_a, sample, poses_a[name])
        rb = evaluate_pose(name, args.name_b, sample, poses_b[name])
        rec_a.append(ra)
        rec_b.append(rb)
        tre_a.extend(ra.tre_mm)
        tre_b.extend(rb.tre_mm)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_records(rec_a + rec_b, out / "records.csv")
    stats_a = summarize(tre_a)
    stats_b = summarize(tre_b)
    lines = [
        "Paired TRE comparison (per landmark, per sample)",
        format_summary(args.name_a, stats_a),
        format_summary(args.name_b, stats_b),
    ]
    try:
        p, r = wilcoxon_signed_rank(tre_a, tre_b)
        lines.append(f"Wilcoxon signed-rank: p = {p:.6g}, effect size r = {r:.3f}")
    except ValueError as exc:
        lines.append(f"Wilcoxon signed-rank undefined: {exc}")
        (out / "ablation_report.txt").write_text("\n".join(lines) + "\n")
        print("\n".join(lines))
        _write_run_manifest(out, "ablate", vars(args))
        return EXIT_DATA
    (out / "ablation_report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    _write_run_manifest(out, "ablate", vars(args))
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    try:
        results = run_checks(args.component, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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

def build_parser() -> _Parser:
    p = _Parser(prog="segreg", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic phantom dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--n-samples", type=int, default=8)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n-vertebrae", type=int, default=5)
    g.add_argument("--points-pre", type=int, default=8192)
    g.add_argument("--points-intra", type=int, default=2048)
    g.add_argument("--exposure-fraction", type=float, default=0.85)
    g.add_argument("--clutter-fraction", type=float, default=0.35)
    g.add_argument("--noise-sigma", type=float, default=0.0008)
    g.add_argument("--occlusion-patches", type=int, default=2)
    g.set_defaults(fn=cmd_generate)

    t = sub.add_parser("train", help="train the joint model on a dataset")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--mode", choices=["end_to_end", "two_step"], default="end_to_end")
    t.add_argument("--iters", type=int, default=5000)
    t.add_argument("--warmup", type=int, default=500)
    t.add_argument("--lr0", type=float, default=1e-4)
    t.add_argument("--tau", type=float, default=1.0)
    t.add_argument("--tau-anneal", action="store_true")
    t.add_argument("--phase1-iters", type=int, default=1000)
    t.add_argument("--n-fine-pairs", type=int, default=12)
    t.add_argument("--width-factor", type=float, default=0.25)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--checkpoint-every", type=int, default=1000)
    t.add_argument("--resume", default=None)
    t.add_argument("--log-every", type=int, default=0)
    t.set_defaults(fn=cmd_train)

    r = sub.add_parser("register", help="register one preoperative/intraoperative pair")
    r.add_argument("--pre", required=True)
    r.add_argument("--intra", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--checkpoint", default=None)
    r.add_argument("--baseline", choices=["icp", "ransac_icp"], default=None)
    r.add_argument("--emit-mask", default=None)
    r.add_argument("--seed", type=int, default=0)
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
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
