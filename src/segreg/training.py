"""Training loop: warm-up + cosine learning rate, momentum SGD with gradient
clipping, end-to-end and two-step modes, checkpointing and exact resume.

End-to-end mode backpropagates the registration dual loss through the shared
backbone and, via the straight-through mask, into the segmentation logits.
Two-step mode first trains the segmentation network alone with cross entropy
against weak labels, then freezes it (hard argmax, no noise) and trains only
the registration stack.  Both modes share every parameter shape, so their
checkpoints are interchangeable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from segreg.autodiff import NonFiniteError, Tape, Tensor, backward
from segreg.fileio import load_checkpoint, save_checkpoint
from segreg.gumbel import hard_mask
from segreg.matching import NoPositivePairsError
from segreg.networks import (
    RegNetConfig,
    SegNetConfig,
    init_reg_params,
    init_seg_params,
    seg_forward,
)
from segreg.phantom import RegistrationSample, mm_to_units, weak_labels
from segreg.pipeline import (
    MatcherConfig,
    PreparedSample,
    prepare_sample,
    segmentation_cross_entropy,
    training_loss,
)

__all__ = ["TrainConfig", "TrainResult", "TrainingDiverged", "lr_at", "train",
           "init_params", "tau_at"]


class TrainingDiverged(RuntimeError):
    def __init__(self, sample_id: str, step: int, checkpoint: str | None):
        super().__init__(
            f"non-finite loss at step {step} on sample {sample_id!r}; "
            f"last good checkpoint: {checkpoint}")
        self.sample_id = sample_id
        self.step = step
        self.checkpoint = checkpoint


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 1e-4
    warmup_iters: int = 500
    total_iters: int = 5000
    momentum: float = 0.9
    clip_norm: float = 10.0
    tau: float = 1.0
    tau_anneal: bool = False          # linear 1.0 -> 0.1 over the first half
    mode: str = "end_to_end"          # or "two_step"
    phase1_iters: int = 1000          # two-step: segmentation pretraining
    weak_label_mm: float = 3.0
    n_fine_pairs: int = 12
    seed: int = 0
    checkpoint_every: int = 1000

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ValueError("lr0 must be positive")
        if not 0 <= self.warmup_iters < self.total_iters:
            raise ValueError("need 0 <= warmup_iters < total_iters")
        if self.mode not in ("end_to_end", "two_step"):
            raise ValueError(f"unknown mode {self.mode!r}")


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear ramp to lr0 over the warm-up, then cosine decay to zero."""
    if step < 0 or step > cfg.total_iters:
        raise ValueError(f"step {step} outside [0, {cfg.total_iters}]")
    if step <= cfg.warmup_iters:
        if cfg.warmup_iters == 0:
            return cfg.lr0
        return cfg.lr0 * step / cfg.warmup_iters
    progress = (step - cfg.warmup_iters) / (cfg.total_iters - cfg.warmup_iters)
    return cfg.lr0 * 0.5 * (1.0 + math.cos(math.pi * progress))


def tau_at(step: int, cfg: TrainConfig) -> float:
    if not cfg.tau_anneal:
        return cfg.tau
    half = max(1, cfg.total_iters // 2)
    frac = min(step / half, 1.0)
    return cfg.tau + frac * (0.1 - cfg.tau)


def init_params(seg_cfg: SegNetConfig, reg_cfg: RegNetConfig, seed: int
                ) -> dict[str, Tensor]:
    rng = np.random.default_rng([seed, 0xC0FFEE])
    params = init_seg_params(seg_cfg, rng)
    params.update(init_reg_params(reg_cfg, rng))
    return params


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    curve: list                      # rows: (step, lr, total, coarse, fine)
    checkpoint_path: str | None
    info: dict = field(default_factory=dict)


def _clip_and_step(params, grads_of, velocity, lr, momentum, clip_norm):
    total = 0.0
    for name in grads_of:
        g = params[name].grad
        if g is not None:
            total += float(np.sum(g * g))
    total = math.sqrt(total)
    scale = 1.0 if total <= clip_norm else clip_norm / total
    for name in grads_of:
        p = params[name]
        g = p.grad
        if g is None:
            continue
        v = velocity.get(name)
        v = momentum * v + g * scale if v is not None else g * scale
        velocity[name] = v
        p.data = p.data - lr * v
        p.grad = None
    return total


def train(samples: list[RegistrationSample], cfg: TrainConfig,
          seg_cfg: SegNetConfig | None = None,
          reg_cfg: RegNetConfig | None = None,
          match_cfg: MatcherConfig | None = None,
          out_dir: str | Path | None = None,
          resume_from: str | Path | None = None,
          prepared: list[PreparedSample] | None = None,
          log_every: int = 0) -> TrainResult:
    """Run the configured training mode over the sample set (batch size 1)."""
    seg_cfg = seg_cfg or SegNetConfig()
    reg_cfg = reg_cfg or RegNetConfig()
    match_cfg = match_cfg or MatcherConfig()
    if not samples:
        raise ValueError("training needs at least one sample")
    if prepared is None:
        prepared = [prepare_sample(s, seg_cfg, reg_cfg, match_cfg,
                                   sample_id=f"sample_{i:04d}")
                    for i, s in enumerate(samples)]

    if resume_from is not None:
        params, seg_cfg, reg_cfg, state = load_checkpoint(resume_from)
        velocity = dict(state["momentum"])
        start_step = int(state["step"])
        rng = np.random.default_rng(cfg.seed)
        if state["rng_state"]:
            rng.bit_generator.state = state["rng_state"]
    else:
        params = init_params(seg_cfg, reg_cfg, cfg.seed)
        velocity: dict[str, np.ndarray] = {}
        start_step = 0
        rng = np.random.default_rng(cfg.seed)

    seg_names = [n for n in params if n.startswith("seg_")]
    reg_names = [n for n in params if n.startswith("reg_")]
    weak_masks: list[np.ndarray] | None = None
    if cfg.mode == "two_step":
        weak_masks = [
            weak_labels(p.sample.intraoperative, p.sample.preoperative,
                        p.sample.T_gt,
                        mm_to_units(cfg.weak_label_mm, p.sample.scale))
            for p in prepared
        ]

    curve = []
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    last_ckpt: str | None = None
    skipped = 0

    def save(step):
        nonlocal last_ckpt
        if out_dir is None:
            return
        path = out_dir / f"checkpoint_{step:06d}.npz"
        save_checkpoint(path, params, seg_cfg, reg_cfg, step=step,
                        momentum=velocity, rng_state=rng.bit_generator.state,
                        train_config=asdict(cfg))
        last_ckpt = str(path)

    for step in range(start_step, cfg.total_iters):
        idx = int(rng.integers(len(prepared)))
        p = prepared[idx]
        lr = lr_at(step + 1, cfg)
        tau = tau_at(step, cfg)

        two_step_phase1 = cfg.mode == "two_step" and step < cfg.phase1_iters
        two_step_phase2 = cfg.mode == "two_step" and not two_step_phase1
        try:
            # overflow surfaces as NonFiniteError from Tensor, not as a warning
            with np.errstate(over="ignore", invalid="ignore"):
                mask_override = None
                if two_step_phase2:
                    # frozen segmentation: plain forward outside the tape
                    frozen_logits = seg_forward(params, p.seg_ctx, seg_cfg)
                    mask_override = hard_mask(frozen_logits)
                with Tape():
                    if two_step_phase1:
                        logits = seg_forward(params, p.seg_ctx, seg_cfg)
                        loss = segmentation_cross_entropy(logits, weak_masks[idx])
                        total, coarse, fine = loss.item(), loss.item(), 0.0
                        if not np.isfinite(total):
                            raise FloatingPointError
                        backward(loss)
                        _clip_and_step(params, seg_names, velocity, lr,
                                       cfg.momentum, cfg.clip_norm)
                    else:
                        dual, _ = training_loss(params, p, seg_cfg, reg_cfg,
                                                match_cfg, rng, tau=tau,
                                                n_fine_pairs=cfg.n_fine_pairs,
                                                mask_override=mask_override)
                        total = dual.total.item()
                        coarse, fine = dual.coarse.item(), dual.fine.item()
                        if not np.isfinite(total):
                            raise FloatingPointError
                        backward(dual.total)
                        names = reg_names if two_step_phase2 else seg_names + reg_names
                        _clip_and_step(params, names, velocity, lr,
                                       cfg.momentum, cfg.clip_norm)
        except NoPositivePairsError:
            skipped += 1
            curve.append((step, lr, float("nan"), float("nan"), float("nan")))
            continue
        except (FloatingPointError, NonFiniteError):
            raise TrainingDiverged(p.sample_id or str(idx), step, last_ckpt)
        finally:
            for param in params.values():
                param.grad = None

        curve.append((step, lr, total, coarse, fine))
        if log_every and (step % log_every == 0 or step == cfg.total_iters - 1):
            print(f"step {step:6d} lr {lr:.2e} loss {total:8.4f} "
                  f"(coarse {coarse:7.4f} fine {fine:7.4f})", flush=True)
        if cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0:
            save(step + 1)

    if out_dir is not None:
        save(cfg.total_iters)
        _write_curve(curve, out_dir / "loss_curve.csv")
    return TrainResult(params, curve, last_ckpt, {"skipped": skipped})


def _write_curve(curve, path):
    import csv
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "lr", "total", "coarse", "fine"])
        for row in curve:
            w.writerow([row[0]] + [repr(float(v)) for v in row[1:]])
