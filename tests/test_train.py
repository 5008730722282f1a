import importlib
import shutil

import numpy as np
import pytest

from spectralsr.autodiff import Tensor
from spectralsr.evaluate import psnr
from spectralsr.model import (
    ParameterStore,
    init_model,
    load_checkpoint,
    micro_config,
    model_forward,
    save_checkpoint,
)
from spectralsr.signals import SceneConfig, render_target, sample_scene, synthesize
from spectralsr.train import (
    VALIDATION_SEED,
    VALIDATION_SNR_DB,
    TrainConfig,
    adamw_step,
    make_batch,
    train,
    validation_psnr,
)

train_module = importlib.import_module("spectralsr.train")  # the package exports a train function


def micro_train_cfg(**kw):
    base = dict(n_scenes=8, batch=4, epochs=2, seed=0, val_scenes=0, lr=1e-3)
    base.update(kw)
    return TrainConfig(**base)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(n_scenes=0)
    with pytest.raises(ValueError):
        TrainConfig(batch=0)
    for epochs in (0, -1):
        with pytest.raises(ValueError, match="epochs must be at least 1"):
            TrainConfig(epochs=epochs)
    with pytest.raises(ValueError):
        TrainConfig(snr_lo_db=10.0, snr_hi_db=0.0)


@pytest.mark.parametrize("lo, hi", [
    (-np.inf, 10.0), (np.nan, 10.0), (0.0, np.inf), (0.0, np.nan), (-np.inf, np.inf),
])
def test_train_config_rejects_non_finite_snr_bounds(lo, hi):
    with pytest.raises(ValueError, match="must be finite, or both inf"):
        TrainConfig(snr_lo_db=lo, snr_hi_db=hi)


def test_make_batch_shapes_and_noise_regeneration():
    cfg = micro_config()
    tc = micro_train_cfg()
    rng = np.random.default_rng(0)
    scenes = [sample_scene(rng, SceneConfig(n_sr=cfg.n_sr)) for _ in range(3)]
    x1, y1 = make_batch(scenes, cfg, tc, np.random.default_rng(1))
    x2, y2 = make_batch(scenes, cfg, tc, np.random.default_rng(2))
    assert x1.shape == (3, cfg.n) and y1.shape == (3, cfg.n_sr)
    # targets depend only on the scenes; inputs carry fresh noise
    assert np.array_equal(y1, y2)
    assert not np.array_equal(x1, x2)
    assert np.all(np.abs(x1) <= 1.0 + 1e-12)  # normalized inputs


def test_make_batch_noiseless_when_snr_infinite():
    cfg = micro_config()
    tc = micro_train_cfg(snr_lo_db=np.inf, snr_hi_db=np.inf)
    scenes = [sample_scene(np.random.default_rng(0), SceneConfig(n_sr=cfg.n_sr))]
    x1, _ = make_batch(scenes, cfg, tc, np.random.default_rng(1))
    x2, _ = make_batch(scenes, cfg, tc, np.random.default_rng(2))
    assert np.array_equal(x1, x2)


class TestAdamW:
    def test_matches_reference_implementation(self):
        # independent scalar AdamW oracle, decoupled decay applied first
        rng = np.random.default_rng(0)
        data = rng.normal(size=5)
        grad = rng.normal(size=5)
        param = Tensor(data.copy(), requires_grad=True)
        param.grad = grad.copy()
        store = ParameterStore(config=None, params={"p": param})
        store.step = 1
        lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.1
        adamw_step(store, lr, betas=(b1, b2), eps=eps, weight_decay=wd)

        ref = data * (1 - lr * wd)
        m = (1 - b1) * grad
        v = (1 - b2) * grad**2
        ref -= lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        assert np.allclose(param.data, ref, atol=1e-15)

    def test_bias_correction_uses_step(self):
        param = Tensor(np.zeros(1), requires_grad=True)
        param.grad = np.ones(1)
        store = ParameterStore(config=None, params={"p": param})
        store.step = 1
        adamw_step(store, lr=0.1)
        # with bias correction the very first update has magnitude ~lr
        assert param.data[0] == pytest.approx(-0.1, rel=1e-6)

    def test_missing_grad_treated_as_zero(self):
        param = Tensor(np.ones(2), requires_grad=True)
        store = ParameterStore(config=None, params={"p": param})
        store.step = 1
        adamw_step(store, lr=0.1)
        assert np.array_equal(param.data, np.ones(2))


class TestTrainLoop:
    def test_loss_decreases_and_history_lengths(self):
        cfg = micro_config()
        store = init_model(cfg, np.random.default_rng(0))
        tc = micro_train_cfg(epochs=4, lr=3e-3)
        store, hist = train(store, tc)
        assert len(hist.losses) == 8  # 2 steps/epoch * 4 epochs
        assert len(hist.epoch_seconds) == 4
        assert hist.losses[-1] < hist.losses[0]
        assert store.step == 8

    def test_determinism_across_runs(self):
        cfg = micro_config()
        tc = micro_train_cfg()
        a, ha = train(init_model(cfg, np.random.default_rng(1)), tc)
        b, hb = train(init_model(cfg, np.random.default_rng(1)), tc)
        assert ha.losses == hb.losses
        for name in a.names():
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_resume_replays_identical_trajectory(self, tmp_path):
        # constant lr so the schedule does not depend on the planned total;
        # what's under test is the (seed, step)-keyed batch and noise replay
        cfg = micro_config()
        ckpt = tmp_path / "mid.ckpt"
        full_store, full_hist = train(
            init_model(cfg, np.random.default_rng(2)),
            micro_train_cfg(epochs=4, lr_final_frac=1.0),
        )
        _, h1 = train(
            init_model(cfg, np.random.default_rng(2)),
            micro_train_cfg(epochs=2, lr_final_frac=1.0, checkpoint_path=str(ckpt)),
        )
        resumed = load_checkpoint(ckpt)
        resumed, h2 = train(resumed, micro_train_cfg(epochs=4, lr_final_frac=1.0))
        assert h1.losses + h2.losses == full_hist.losses
        for name in full_store.names():
            assert np.allclose(
                resumed.params[name].data, full_store.params[name].data, atol=1e-12
            )

    def test_checkpoint_at_each_epoch_end_resumes_to_the_same_bits(self, tmp_path, monkeypatch):
        cfg = micro_config()
        ckpt = tmp_path / "run.ckpt"
        saved = []

        def save_and_keep(store, path):
            save_checkpoint(store, path)
            saved.append(store.step)
            shutil.copy(path, tmp_path / f"step{store.step}.ckpt")

        monkeypatch.setattr(train_module, "save_checkpoint", save_and_keep)
        tc = micro_train_cfg(epochs=3, checkpoint_path=str(ckpt))  # 2 steps per epoch
        full, full_hist = train(init_model(cfg, np.random.default_rng(6)), tc)
        assert saved == [2, 4, 6]
        resumed, hist = train(load_checkpoint(tmp_path / "step2.ckpt"), tc)
        assert hist.losses == full_hist.losses[2:]
        for name in full.names():
            assert np.array_equal(resumed.params[name].data, full.params[name].data)

    def test_divergence_guard(self):
        cfg = micro_config()
        store = init_model(cfg, np.random.default_rng(3))
        store.params["head.b"].data[:] = np.inf
        with pytest.raises(RuntimeError, match="diverged"):
            train(store, micro_train_cfg())

    def test_writes_log_and_checkpoint(self, tmp_path):
        cfg = micro_config()
        ckpt, log = tmp_path / "m.ckpt", tmp_path / "log.csv"
        store = init_model(cfg, np.random.default_rng(4))
        train(store, micro_train_cfg(checkpoint_path=str(ckpt), log_path=str(log)))
        assert ckpt.exists()
        lines = log.read_text().strip().split("\n")
        assert lines[0] == "step,loss,lr,wallclock_s"
        assert len(lines) == 5  # header + 4 steps

    def test_validation_psnr_recorded(self):
        cfg = micro_config()
        store = init_model(cfg, np.random.default_rng(5))
        tc = micro_train_cfg(val_scenes=2)
        _, hist = train(store, tc)
        assert len(hist.val_psnr) == 2
        assert all(np.isfinite(v) for v in hist.val_psnr)


@pytest.mark.parametrize("batch", [1, 3, 8])
def test_validation_psnr_equals_the_mean_of_per_scene_psnrs(batch):
    cfg = micro_config()
    store = init_model(cfg, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    scenes = [sample_scene(rng, SceneConfig(n_sr=cfg.n_sr)) for _ in range(7)]
    train_cfg = TrainConfig(batch=batch, sigma_f=1.5 / cfg.n_sr)
    noise = np.random.default_rng(np.random.SeedSequence([VALIDATION_SEED]))
    expected = np.mean([
        psnr(model_forward(synthesize(scene, cfg.n, VALIDATION_SNR_DB, noise), store),
             render_target(scene, cfg.n_sr, train_cfg.sigma_f))
        for scene in scenes
    ])
    assert validation_psnr(store, scenes, train_cfg) == pytest.approx(expected, rel=1e-9)
