"""Training loop: the dual loss's registration gradients match finite
differences, divergence is reported as TrainingDiverged, the fused tape nodes
train exactly as the composed operations they replace, a step that reads
what its prepared sample holds equals one that derives it again, a sample
without positive superpoint pairs skips its steps, a run resumed from a
mid-run checkpoint ends exactly where an unbroken run does, two-step phase 2
computes each sample's frozen mask once, the loss curve records the pre-clip
gradient norm, and the learning-rate and temperature schedules follow their
definitions."""

import copy
import csv
import dataclasses

import numpy as np
import pytest

from segreg import autodiff, matching, networks, pipeline, training
from segreg.autodiff import Tape, Tensor, backward
from segreg.fileio import load_checkpoint, save_checkpoint
from segreg.geometry import RigidTransform
from segreg.gumbel import hard_mask, straight_through_mask
from segreg.phantom import PhantomConfig, generate_phantom
from segreg.training import TrainConfig, TrainingDiverged, train
from reference_ops import (
    add_at_rows,
    composed_linear_head,
    composed_norm_act,
    composed_normalize_scores_with_slack,
    per_step_seg_forward,
    per_step_training_loss,
)


def tiny_phantom():
    return generate_phantom(PhantomConfig(seed=0, n_vertebrae=2, points_pre=1024,
                                          points_intra=512))


@pytest.mark.parametrize("gumbel", [True, False], ids=["gumbel", "mask_override"])
def test_training_loss_matches_finite_differences(gumbel):
    """Registration-parameter gradients of the dual loss, at four entries each
    of the first convolution, the superpoint head and the dense head.  Each call
    draws the same Gumbel noise and fine pairs from a fresh generator.  (The
    straight-through segmentation gradient is by design not the derivative of
    the hard forward, so segmentation parameters are not checked.)"""
    sample = tiny_phantom()
    seg, reg, match = networks.SegNetConfig(), networks.RegNetConfig(), pipeline.MatcherConfig()
    prepared = pipeline.prepare_sample(sample, seg, reg, match)
    params = training.init_params(seg, reg, 0)
    fixed = Tensor(sample.gt_mask.astype(np.float64).reshape(-1, 1))

    def loss():
        rng = np.random.default_rng(7)
        mask = fixed
        if gumbel:
            mask, _ = straight_through_mask(networks.seg_forward(params, prepared.seg_ctx),
                                            1.0, rng)
        return pipeline.training_loss(params, prepared, mask, rng, 12).total

    with Tape():
        backward(loss())
    grads = {name: p.grad for name, p in params.items()}
    for param in params.values():
        param.grad = None
    h = 1e-6
    pick = np.random.default_rng(3)
    for name in ("reg_enc0_w", "reg_sp_w", "reg_dense_w"):
        flat = params[name].data.reshape(-1)
        entries = pick.choice(flat.size, size=4, replace=False)
        fd = np.empty(entries.size)
        for k, i in enumerate(entries):
            keep = flat[i]
            flat[i] = keep + h
            plus = loss().item()
            flat[i] = keep - h
            minus = loss().item()
            flat[i] = keep
            fd[k] = (plus - minus) / (2.0 * h)
        analytic = grads[name].reshape(-1)[entries]
        # relative to the largest entry checked: these gradients are ~1e-2,
        # below the unit floor of autodiff.max_relative_error
        scale = np.max(np.abs(fd))
        assert scale > 0.0, name
        assert np.max(np.abs(analytic - fd)) / scale < 1e-4, name


def test_training_loss_tape_does_not_grow_with_fine_pairs():
    """The fine loss scores its pairs as one stack, so the tape of one
    ``training_loss`` call records as many nodes for 1 pair as for 12."""
    seg, reg, match = networks.SegNetConfig(), networks.RegNetConfig(), pipeline.MatcherConfig()
    prepared = pipeline.prepare_sample(tiny_phantom(), seg, reg, match)
    assert len(prepared.gt_pairs) > 12
    params = training.init_params(seg, reg, 0)
    mask = Tensor(prepared.sample.gt_mask.astype(np.float64).reshape(-1, 1))
    nodes = []
    for n_fine_pairs in (1, 12):
        with Tape() as tape:
            pipeline.training_loss(params, prepared, mask, np.random.default_rng(0),
                                   n_fine_pairs)
            nodes.append(len(tape))
    assert nodes[0] == nodes[1]


def test_exploding_learning_rate_raises_training_diverged():
    sample = tiny_phantom()
    cfg = TrainConfig(lr0=1e300, warmup_iters=0, total_iters=4, checkpoint_every=0)
    with pytest.raises(TrainingDiverged) as info:
        train([sample], cfg)
    assert info.value.step == 1
    assert info.value.checkpoint is None


@pytest.mark.parametrize("mode", ["end_to_end", "two_step"])
def test_fused_nodes_train_exactly_as_composed_ops(mode, monkeypatch):
    sample = tiny_phantom()
    cfg = TrainConfig(lr0=1e-2, warmup_iters=0, total_iters=3, checkpoint_every=0,
                      mode=mode, phase1_iters=1)
    prepared = [pipeline.prepare_sample(sample, networks.SegNetConfig(),
                                        networks.RegNetConfig(), pipeline.MatcherConfig())]
    fused = train([sample], cfg, prepared=prepared)
    for module in (pipeline, matching):
        monkeypatch.setattr(module, "normalize_scores_with_slack",
                            composed_normalize_scores_with_slack)
    monkeypatch.setattr(networks, "_norm_act", composed_norm_act)
    monkeypatch.setattr(networks, "_linear_head", composed_linear_head)
    monkeypatch.setattr(autodiff, "scatter_add_rows", add_at_rows)
    composed = train([sample], cfg, prepared=prepared)
    assert len(fused.curve) == 3 and np.all(np.isfinite([row[2] for row in fused.curve]))
    assert fused.curve == composed.curve
    assert fused.params.keys() == composed.params.keys()
    for name, param in fused.params.items():
        assert np.array_equal(param.data, composed.params[name].data), name


@pytest.fixture(scope="module")
def train_phantoms():
    """The benchmark's ``train`` phantoms at seed 0, prepared with ground
    truth, and their superpoint overlaps."""
    configs = networks.SegNetConfig(), networks.RegNetConfig(), pipeline.MatcherConfig()
    prepared = [pipeline.prepare_sample(generate_phantom(PhantomConfig(seed=2000 + i)),
                                        *configs) for i in range(4)]
    overlaps = [matching.superpoint_overlap_labels(p.pre_view, p.intra_view, p.sample.T_gt)
                for p in prepared]
    return prepared, overlaps


def one_step(mode, prepared, seg_forward, loss_fn):
    """The loss and every parameter gradient of one step of ``mode`` on
    ``prepared``, from fresh seed-0 parameters and a fresh seed-5 generator,
    with ``seg_forward`` and ``loss_fn(params, prepared, mask, rng)``."""
    params = training.init_params(networks.SegNetConfig(), networks.RegNetConfig(), 0)
    rng = np.random.default_rng(5)
    frozen = None
    if mode == "two_step_phase2":
        frozen = Tensor(hard_mask(seg_forward(params, prepared.seg_ctx)).astype(np.float64)
                        .reshape(-1, 1))
    with Tape():
        if mode == "two_step_phase1":
            loss = pipeline.segmentation_cross_entropy(seg_forward(params, prepared.seg_ctx),
                                                       prepared.sample.gt_mask)
        else:
            mask = frozen
            if mode == "end_to_end":
                mask, _ = straight_through_mask(seg_forward(params, prepared.seg_ctx), 1.0, rng)
            loss = loss_fn(params, prepared, mask, rng).total
        backward(loss)
    return loss.data, {name: p.grad for name, p in params.items()}


@pytest.mark.parametrize("mode", ["end_to_end", "two_step_phase1", "two_step_phase2"])
def test_step_on_prepared_constants_equals_the_per_step_reference_bit_for_bit(
        mode, train_phantoms):
    """A step reads the circle loss's targets, the fixed inputs and their
    level-0 mixes from the prepared sample; the reference derives them from
    the overlap and the clouds at every step.  Losses and gradients agree
    to the bit on every benchmark training phantom."""
    prepared, overlaps = train_phantoms
    for p, overlap in zip(prepared, overlaps):
        loss, grads = one_step(mode, p, networks.seg_forward,
                               lambda *args: pipeline.training_loss(*args, 12))
        want_loss, want = one_step(mode, p, per_step_seg_forward,
                                   lambda *args: per_step_training_loss(*args[:2], overlap,
                                                                        *args[2:], 12))
        assert np.array_equal(loss, want_loss)
        assert grads.keys() == want.keys()
        for name, g in grads.items():
            assert (g is None) == (want[name] is None), name
            assert g is None or np.array_equal(g, want[name]), name


def test_sample_without_positive_pairs_skips_its_steps():
    """A pose that puts the clouds apart leaves no superpoint overlap:
    preparing the sample works, its step raises ``NoPositivePairsError``,
    and a run records NaN rows for its steps and trains on."""
    sample = tiny_phantom()
    apart = dataclasses.replace(sample, T_gt=RigidTransform(np.eye(3), np.array([10.0, 0, 0])))
    configs = networks.SegNetConfig(), networks.RegNetConfig(), pipeline.MatcherConfig()
    prepared = [pipeline.prepare_sample(s, *configs) for s in (sample, apart)]
    assert prepared[1].targets.positives == 0 and len(prepared[1].gt_pairs) == 0
    params = training.init_params(*configs[:2], 0)
    mask = Tensor(np.ones((len(apart.intraoperative), 1)))
    with Tape(), pytest.raises(matching.NoPositivePairsError, match="no positive"):
        pipeline.training_loss(params, prepared[1], mask, np.random.default_rng(0), 12)
    cfg = TrainConfig(lr0=1e-3, warmup_iters=0, total_iters=6, checkpoint_every=0, seed=1)
    result = train([sample, apart], cfg, prepared=prepared)
    skipped = [np.isnan(row[2]) for row in result.curve]
    assert len(result.curve) == 6 and any(skipped) and not all(skipped)
    assert all(np.isnan(row[2:]).all() == s for row, s in zip(result.curve, skipped))


class Interrupted(Exception):
    pass


@pytest.mark.parametrize("mode", ["end_to_end", "two_step"])
def test_resume_from_mid_run_checkpoint_is_exact(mode, tmp_path, monkeypatch):
    sample = tiny_phantom()
    # two-step: the resumed run starts at the first phase-2 step
    cfg = TrainConfig(lr0=3e-3, warmup_iters=0, total_iters=4, checkpoint_every=2,
                      mode=mode, phase1_iters=2)
    prepared = [pipeline.prepare_sample(sample, networks.SegNetConfig(),
                                        networks.RegNetConfig(), pipeline.MatcherConfig())]
    full = train([sample], cfg, out_dir=tmp_path / "full", prepared=prepared)

    # the learning rate depends on total_iters, so the 2-step run is this
    # 4-step schedule stopped right after its step-2 checkpoint
    def save_then_stop(path, *args, step, **kwargs):
        save_checkpoint(path, *args, step=step, **kwargs)
        if step == 2:
            raise Interrupted

    monkeypatch.setattr(training, "save_checkpoint", save_then_stop)
    with pytest.raises(Interrupted):
        train([sample], cfg, out_dir=tmp_path / "cut", prepared=prepared)
    monkeypatch.undo()
    resume = load_checkpoint(tmp_path / "cut" / "checkpoint_000002.npz")
    resumed = train([sample], cfg, out_dir=tmp_path / "resumed", resume=resume,
                    prepared=prepared)

    assert len(full.curve) == 4 and np.all(np.isfinite([row[2] for row in full.curve]))
    assert resumed.curve == full.curve[2:]
    final = [load_checkpoint(tmp_path / run / "checkpoint_000004.npz")
             for run in ("full", "resumed")]
    (params, _, _, state), (params_r, _, _, state_r) = final
    assert state_r["step"] == state["step"] == 4
    assert state_r["rng_state"] == state["rng_state"]
    assert params.keys() == params_r.keys() == resumed.params.keys()
    assert state["momentum"].keys() == state_r["momentum"].keys() == params.keys()
    for name, param in params.items():
        assert np.array_equal(param.data, params_r[name].data), name
        assert np.array_equal(full.params[name].data, resumed.params[name].data), name
        assert np.array_equal(state["momentum"][name], state_r["momentum"][name]), name


def test_two_step_phase2_computes_each_frozen_mask_once(monkeypatch):
    """Phase 2 never steps the segmentation, so it runs ``seg_forward`` the
    first time each sample is drawn, not at every step."""
    sample = tiny_phantom()
    p = pipeline.prepare_sample(sample, networks.SegNetConfig(), networks.RegNetConfig(),
                                pipeline.MatcherConfig())
    # a second sample with its own segmentation context object
    prepared = [p, dataclasses.replace(p, seg_ctx=copy.copy(p.seg_ctx))]
    calls = []

    def counting_seg_forward(params, ctx):
        calls.append(id(ctx))
        return networks.seg_forward(params, ctx)

    monkeypatch.setattr(training, "seg_forward", counting_seg_forward)
    cfg = TrainConfig(lr0=1e-3, warmup_iters=0, total_iters=7, checkpoint_every=0,
                      mode="two_step", phase1_iters=1)
    result = train([sample, sample], cfg, prepared=prepared)
    assert np.all(np.isfinite([row[2] for row in result.curve]))
    phase2 = calls[1:]                      # the first call is the phase-1 step
    assert 1 <= len(phase2) == len(set(phase2)) <= len(prepared) < cfg.total_iters - 1


def test_loss_curve_records_the_gradient_norm_before_the_clip(tmp_path, monkeypatch):
    """The sixth curve entry, and the grad_norm column of loss_curve.csv, is
    the global norm of the step's gradients before clipping; a skipped step
    has NaN.  The clip norm is lowered so that every step clips."""
    sample = tiny_phantom()
    prepared = [pipeline.prepare_sample(sample, networks.SegNetConfig(),
                                        networks.RegNetConfig(), pipeline.MatcherConfig())]
    norms = []
    clip_and_step, training_loss = training._clip_and_step, training.training_loss

    def measuring_clip_and_step(params, names, velocity, lr):
        grads = [params[n].grad for n in names if params[n].grad is not None]
        norms.append(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
        return clip_and_step(params, names, velocity, lr)

    def skipping_second_step(params, p, mask, rng, n_fine_pairs):
        if len(norms) == 1 and not skipped:
            skipped.append(True)
            raise matching.NoPositivePairsError("no overlap")
        return training_loss(params, p, mask, rng, n_fine_pairs)

    skipped = []
    monkeypatch.setattr(training, "CLIP_NORM", 1e-6)
    monkeypatch.setattr(training, "_clip_and_step", measuring_clip_and_step)
    monkeypatch.setattr(training, "training_loss", skipping_second_step)
    cfg = TrainConfig(lr0=1e-3, warmup_iters=0, total_iters=3, checkpoint_every=0)
    result = train([sample], cfg, out_dir=tmp_path, prepared=prepared)

    recorded = [row[5] for row in result.curve]
    assert np.isnan(recorded[1]) and len(norms) == 2
    np.testing.assert_allclose([recorded[0], recorded[2]], norms, rtol=1e-12)
    assert min(norms) > 1e-6
    with open(tmp_path / "loss_curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["step", "lr", "total", "coarse", "fine", "grad_norm"]
    assert [float(r["grad_norm"]) for r in rows[::2]] == [recorded[0], recorded[2]]
    assert rows[1]["grad_norm"] == "nan"


def test_lr_ramps_over_warmup_then_decays_to_zero():
    cfg = TrainConfig(lr0=2e-3, warmup_iters=10, total_iters=30)
    assert training.lr_at(0, cfg) == 0.0
    assert training.lr_at(5, cfg) == pytest.approx(1e-3)
    assert training.lr_at(10, cfg) == 2e-3
    assert training.lr_at(20, cfg) == pytest.approx(1e-3)       # half-way down the cosine
    assert training.lr_at(30, cfg) == pytest.approx(0.0, abs=1e-18)
    decay = [training.lr_at(s, cfg) for s in range(10, 31)]
    assert all(a > b for a, b in zip(decay, decay[1:]))


def test_lr_without_warmup_starts_at_lr0():
    cfg = TrainConfig(lr0=1e-2, warmup_iters=0, total_iters=4)
    assert training.lr_at(0, cfg) == 1e-2
    assert training.lr_at(2, cfg) == pytest.approx(5e-3)


@pytest.mark.parametrize("step", [-1, 31])
def test_lr_outside_the_schedule_is_a_value_error(step):
    with pytest.raises(ValueError):
        training.lr_at(step, TrainConfig(warmup_iters=10, total_iters=30))


def test_tau_is_constant_without_annealing():
    cfg = TrainConfig(tau=0.7, warmup_iters=0, total_iters=20)
    assert {training.tau_at(s, cfg) for s in range(21)} == {0.7}


def test_tau_anneals_linearly_to_a_tenth_over_the_first_half():
    cfg = TrainConfig(tau_anneal=True, warmup_iters=0, total_iters=20)
    assert training.tau_at(0, cfg) == 1.0
    assert training.tau_at(5, cfg) == pytest.approx(0.55)
    assert training.tau_at(10, cfg) == pytest.approx(0.1)
    assert all(training.tau_at(s, cfg) == training.tau_at(10, cfg) for s in range(10, 21))
    ramp = [training.tau_at(s, cfg) for s in range(11)]
    assert all(a > b for a, b in zip(ramp, ramp[1:]))
