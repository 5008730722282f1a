"""Dataset streaming, AdamW, and the MSE training loop.

Scenes are fixed up front; the additive noise (and the SNR draw) is
regenerated for every batch so the model cannot fit a frozen noise
realization.  All randomness is derived from (seed, epoch/step) via
``numpy.random.SeedSequence`` so interrupted runs resume exactly.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .evaluate import psnr
from .model import model_forward, model_forward_tensor, save_checkpoint
from .signals import SceneConfig, minmax_normalize, render_targets, sample_scene, synthesize_batch

VALIDATION_SNR_DB = 20.0
VALIDATION_SEED = 1234


@dataclass
class TrainConfig:
    n_scenes: int = 10000
    batch: int = 256
    lr: float = 0.003
    epochs: int = 20
    snr_lo_db: float = -10.0
    snr_hi_db: float = 40.0
    weight_decay: float = 0.0
    seed: int = 0
    sigma_f: float | None = None
    val_scenes: int = 500
    lr_final_frac: float = 0.1  # cosine decay floor as a fraction of lr
    checkpoint_path: str | None = None  # rewritten at the end of every epoch
    log_path: str | None = None

    def __post_init__(self):
        if self.n_scenes < 1:
            raise ValueError("n_scenes must be at least 1")
        if self.batch < 1:
            raise ValueError("batch size must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.sigma_f is not None and not (np.isfinite(self.sigma_f) and self.sigma_f > 0):
            raise ValueError(f"sigma_f must be positive and finite or null, got {self.sigma_f}")
        lo, hi = self.snr_lo_db, self.snr_hi_db
        if not (np.isfinite(lo) and np.isfinite(hi) or lo == hi == np.inf):
            raise ValueError(f"snr_lo_db and snr_hi_db must be finite, or both inf, got {lo}, {hi}")
        if lo > hi:
            raise ValueError("snr_lo_db must not exceed snr_hi_db")


@dataclass
class TrainHistory:
    losses: list = field(default_factory=list)
    val_psnr: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)


def make_batch(scenes, model_cfg, train_cfg, rng):
    """Fresh noisy inputs and (noise-free) targets for a list of scenes.

    Scene by scene, ``rng`` draws the SNR and then the noise; the rest is
    computed once for the whole batch.
    """
    if train_cfg.snr_lo_db == np.inf:  # both bounds are inf
        snrs = [np.inf] * len(scenes)
    else:
        # a generator, so each SNR is drawn just before its scene's noise
        snrs = (float(rng.uniform(train_cfg.snr_lo_db, train_cfg.snr_hi_db)) for _ in scenes)
    inputs = minmax_normalize(synthesize_batch(scenes, model_cfg.n, snrs, rng))
    return inputs, render_targets(scenes, model_cfg.n_sr, train_cfg.sigma_f)


def adamw_step(store, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    """One decoupled-weight-decay Adam update over every parameter.

    Complex parameters are two independent real tensors in the store, so
    they update as independent real coordinates.  Decay is applied before
    the Adam step.  ``store.step`` must already count this step (used for
    bias correction).
    """
    b1, b2 = betas
    t = store.step
    for name in store.names():
        param = store.params[name]
        grad = param.grad if param.grad is not None else np.zeros_like(param.data)
        state = store.opt_state.setdefault(
            name, {"m": np.zeros_like(param.data), "v": np.zeros_like(param.data)}
        )
        if weight_decay:
            param.data *= 1.0 - lr * weight_decay
        state["m"] = b1 * state["m"] + (1.0 - b1) * grad
        state["v"] = b2 * state["v"] + (1.0 - b2) * grad**2
        m_hat = state["m"] / (1.0 - b1**t)
        v_hat = state["v"] / (1.0 - b2**t)
        param.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def _cosine_lr(cfg, step, total_steps):
    floor = cfg.lr * cfg.lr_final_frac
    if total_steps <= 1:
        return cfg.lr
    phase = np.pi * step / (total_steps - 1)
    return floor + 0.5 * (cfg.lr - floor) * (1.0 + np.cos(phase))


def _mse_loss(store, inputs, targets):
    out = model_forward_tensor(Tensor(inputs), store)
    diff = out - targets
    return (diff * diff).mean()


def validation_psnr(store, scenes, train_cfg):
    """Mean PSNR of the model on held-out scenes at ``VALIDATION_SNR_DB``.

    The model runs on stacked signals, ``train_cfg.batch`` scenes per call;
    ``model_forward`` runs a call with enough work as two halves on two
    CPUs (from 4 scenes at the default config, 64 at the toy one).
    """
    model_cfg = store.config
    rng = np.random.default_rng(np.random.SeedSequence([VALIDATION_SEED]))
    signals = synthesize_batch(scenes, model_cfg.n, [VALIDATION_SNR_DB] * len(scenes), rng)
    estimates = np.concatenate([
        model_forward(signals[i : i + train_cfg.batch], store)
        for i in range(0, len(scenes), train_cfg.batch)
    ])
    targets = render_targets(scenes, model_cfg.n_sr, train_cfg.sigma_f)
    values = [psnr(estimate, target) for estimate, target in zip(estimates, targets)]
    return float(np.mean(values))


def train(store, train_cfg, scenes=None, val_scenes=None):
    """Minimize MSE over the scene set; returns (store, history).

    ``store`` is updated in place and also returned.  Deterministic for a
    fixed seed: batch order, noise draws, and the single-threaded update
    order are all derived from it.
    """
    model_cfg = store.config
    scene_cfg = SceneConfig(n_sr=model_cfg.n_sr)
    if scenes is None:
        rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 0]))
        scenes = [sample_scene(rng, scene_cfg) for _ in range(train_cfg.n_scenes)]
    if val_scenes is None and train_cfg.val_scenes:
        rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 1]))
        val_scenes = [sample_scene(rng, scene_cfg) for _ in range(train_cfg.val_scenes)]

    history = TrainHistory()
    steps_per_epoch = max(1, len(scenes) // train_cfg.batch)
    total_steps = steps_per_epoch * train_cfg.epochs
    log_rows = []
    # store.step is a global counter, so a run resumed from a checkpoint
    # replays the exact same batch order, noise draws, and lr schedule
    tic = time.perf_counter()
    while store.step < total_steps:
        step_index = store.step
        epoch = step_index // steps_per_epoch
        b = step_index % steps_per_epoch
        order_rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 2, epoch]))
        order = order_rng.permutation(len(scenes))
        batch_ids = order[b * train_cfg.batch : (b + 1) * train_cfg.batch]
        noise_rng = np.random.default_rng(
            np.random.SeedSequence([train_cfg.seed, 3, step_index])
        )
        inputs, targets = make_batch(
            [scenes[i] for i in batch_ids], model_cfg, train_cfg, noise_rng
        )
        store.zero_grad()
        loss = _mse_loss(store, inputs, targets)
        value = loss.item()
        if not np.isfinite(value):
            raise RuntimeError(
                f"training diverged: non-finite loss {value} at step {step_index}"
            )
        loss.backward()
        lr = _cosine_lr(train_cfg, step_index, total_steps)
        store.step += 1
        adamw_step(store, lr, weight_decay=train_cfg.weight_decay)
        history.losses.append(value)
        log_rows.append((store.step, value, lr, time.perf_counter() - tic))
        if store.step % steps_per_epoch == 0:
            history.epoch_seconds.append(time.perf_counter() - tic)
            tic = time.perf_counter()
            if val_scenes:
                history.val_psnr.append(validation_psnr(store, val_scenes, train_cfg))
            if train_cfg.checkpoint_path:
                save_checkpoint(store, train_cfg.checkpoint_path)
    # every run that takes a step ends on an epoch boundary, saved above
    if train_cfg.checkpoint_path and not history.losses:
        save_checkpoint(store, train_cfg.checkpoint_path)
    if train_cfg.log_path:
        with open(train_cfg.log_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "loss", "lr", "wallclock_s"])
            writer.writerows(log_rows)
    return store, history
