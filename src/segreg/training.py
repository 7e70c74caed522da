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

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from segreg.autodiff import NonFiniteError, Tape, Tensor, backward, quiet
from segreg.fileio import save_checkpoint
from segreg.gumbel import hard_mask, straight_through_mask
from segreg.matching import NoPositivePairsError
from segreg.networks import RegNetConfig, SegNetConfig, init_weights, seg_forward
from segreg.phantom import RegistrationSample, mm_to_units, weak_labels
from segreg.pipeline import (
    MatcherConfig,
    PreparedSample,
    prepare_sample,
    segmentation_cross_entropy,
    training_loss,
)

__all__ = ["TrainConfig", "TrainResult", "TrainingDiverged", "lr_at", "train",
           "init_params", "resume_step", "tau_at"]

MOMENTUM = 0.9
CLIP_NORM = 10.0                      # global gradient-norm clip
WEAK_LABEL_MM = 3.0                   # two-step: weak bone labels within 3 mm


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
    tau: float = 1.0
    tau_anneal: bool = False          # linear tau -> 0.1 over the first half
    mode: str = "end_to_end"          # or "two_step"
    phase1_iters: int = 1000          # two-step: segmentation pretraining
    n_fine_pairs: int = 12
    seed: int = 0
    checkpoint_every: int = 1000

    def __post_init__(self):
        if not 0 < self.lr0 < math.inf:
            raise ValueError("lr0 must be positive and finite")
        if not 0 <= self.warmup_iters < self.total_iters:
            raise ValueError("need 0 <= warmup_iters < total_iters")
        if self.mode not in ("end_to_end", "two_step"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if self.phase1_iters < 0:
            raise ValueError("phase1_iters must be >= 0")
        if self.n_fine_pairs < 1:
            raise ValueError("n_fine_pairs must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0: no periodic checkpoints)")


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
    return init_weights(seg_cfg, rng) | init_weights(reg_cfg, rng)


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    # rows: (step, lr, total, coarse, fine, pre-clip gradient norm); NaN: skipped
    curve: list
    checkpoint_path: str | None


def _clip_and_step(params, grads_of, velocity, lr):
    """One momentum step on ``grads_of``, clipped to ``CLIP_NORM`` globally;
    returns the gradient norm before the clip."""
    total = 0.0
    for name in grads_of:
        g = params[name].grad
        if g is not None:
            total += float(np.sum(g * g))
    total = math.sqrt(total)
    scale = 1.0 if total <= CLIP_NORM else CLIP_NORM / total
    for name in grads_of:
        p = params[name]
        g = p.grad
        if g is None:
            continue
        v = velocity.get(name)
        v = MOMENTUM * v + g * scale if v is not None else g * scale
        velocity[name] = v
        p.data = p.data - lr * v
        p.grad = None
    return total


def resume_step(resume: tuple | None, cfg: TrainConfig) -> int:
    """The step a run starts from: 0, or the step of ``resume``, a checkpoint
    as ``fileio.load_checkpoint`` returns it; one at or past
    ``cfg.total_iters`` leaves no step to run and is a ValueError."""
    if resume is None:
        return 0
    step = resume[3]["step"]
    if step >= cfg.total_iters:
        raise ValueError(f"resume checkpoint is at step {step}; "
                         f"total_iters {cfg.total_iters} leaves no step to run")
    return step


def train(samples: list[RegistrationSample], cfg: TrainConfig,
          seg_cfg: SegNetConfig = SegNetConfig(),
          reg_cfg: RegNetConfig = RegNetConfig(),
          match_cfg: MatcherConfig = MatcherConfig(),
          out_dir: str | Path | None = None,
          resume: tuple | None = None,
          prepared: list[PreparedSample] | None = None,
          log_every: int = 0) -> TrainResult:
    """Run the configured training mode over the sample set (batch size 1),
    continuing from ``resume``, a checkpoint as ``fileio.load_checkpoint``
    returns it, when given; ``resume_step`` rejects one with no step left.

    This function decides each step's intraoperative mask and makes the
    sample's intra registration context hold it: end to end, the
    straight-through Gumbel mask of the segmentation logits, drawn on the
    tape before the fine pairs; in two-step phase 2, the frozen hard mask,
    held off the tape, with its level-0 mix, when each sample is first drawn.
    A resumed run's curve, and its ``loss_curve.csv``, hold only the rows
    from the resume step on.
    """
    start_step = resume_step(resume, cfg)
    if not samples:
        raise ValueError("training needs at least one sample")
    if prepared is None:
        prepared = [prepare_sample(s, seg_cfg, reg_cfg, match_cfg,
                                   sample_id=f"sample_{i:04d}")
                    for i, s in enumerate(samples)]

    rng = np.random.default_rng(cfg.seed)
    if resume is not None:
        params, seg_cfg, reg_cfg, state = resume
        velocity = dict(state["momentum"])
        if state["rng_state"]:
            rng.bit_generator.state = state["rng_state"]
    else:
        params = init_params(seg_cfg, reg_cfg, cfg.seed)
        velocity: dict[str, np.ndarray] = {}

    seg_names = [n for n in params if n.startswith("seg_")]
    reg_names = [n for n in params if n.startswith("reg_")]
    weak_masks: list[np.ndarray] | None = None
    frozen_ctxs = {}       # two-step phase 2: intra contexts holding frozen masks, by index
    if cfg.mode == "two_step":
        weak_masks = [weak_labels(p.sample.intraoperative, p.sample.preoperative, p.sample.T_gt,
                                  mm_to_units(WEAK_LABEL_MM, p.sample.scale))
                      for p in prepared]

    curve = []
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    last_ckpt: str | None = None

    def save(step):
        nonlocal last_ckpt
        if out_dir is None:
            return
        path = out_dir / f"checkpoint_{step:06d}.npz"
        save_checkpoint(path, params, seg_cfg, reg_cfg, step=step,
                        momentum=velocity, rng_state=rng.bit_generator.state)
        last_ckpt = str(path)

    for step in range(start_step, cfg.total_iters):
        idx = int(rng.integers(len(prepared)))
        p = prepared[idx]
        lr = lr_at(step + 1, cfg)

        two_step_phase1 = cfg.mode == "two_step" and step < cfg.phase1_iters
        two_step_phase2 = cfg.mode == "two_step" and not two_step_phase1
        try:
            # overflow surfaces as NonFiniteError from Tensor, not as a warning
            with quiet():
                if two_step_phase2:
                    # frozen segmentation: seg_* never steps, so one mask per sample
                    if idx not in frozen_ctxs:
                        frozen = hard_mask(seg_forward(params, p.seg_ctx)).astype(np.float64)
                        frozen_ctxs[idx] = p.reg_ctx_intra.holding(Tensor(frozen.reshape(-1, 1)))
                    intra_ctx = frozen_ctxs[idx]
                with Tape():
                    if two_step_phase1:
                        logits = seg_forward(params, p.seg_ctx)
                        loss = segmentation_cross_entropy(logits, weak_masks[idx])
                        total, coarse, fine = loss.item(), loss.item(), 0.0
                        backward(loss)
                        grad_norm = _clip_and_step(params, seg_names, velocity, lr)
                    else:
                        if cfg.mode == "end_to_end":
                            mask, _ = straight_through_mask(
                                seg_forward(params, p.seg_ctx), tau_at(step, cfg), rng)
                            intra_ctx = p.reg_ctx_intra.holding(mask)
                        dual = training_loss(params, p, intra_ctx, rng, cfg.n_fine_pairs)
                        total = dual.total.item()
                        coarse, fine = dual.coarse.item(), dual.fine.item()
                        backward(dual.total)
                        names = reg_names if two_step_phase2 else seg_names + reg_names
                        grad_norm = _clip_and_step(params, names, velocity, lr)
        except NoPositivePairsError:
            curve.append((step, lr) + (float("nan"),) * 4)
            continue
        except NonFiniteError:
            raise TrainingDiverged(p.sample_id or str(idx), step, last_ckpt)
        finally:
            for param in params.values():
                param.grad = None

        curve.append((step, lr, total, coarse, fine, grad_norm))
        if log_every and (step % log_every == 0 or step == cfg.total_iters - 1):
            print(f"step {step:6d} lr {lr:.2e} loss {total:8.4f} "
                  f"(coarse {coarse:7.4f} fine {fine:7.4f})", flush=True)
        if cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0:
            save(step + 1)

    if out_dir is not None:
        save(cfg.total_iters)
        _write_curve(curve, out_dir / "loss_curve.csv")
    return TrainResult(params, curve, last_ckpt)


def _write_curve(curve, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "lr", "total", "coarse", "fine", "grad_norm"])
        for row in curve:
            w.writerow([row[0]] + [repr(float(v)) for v in row[1:]])
