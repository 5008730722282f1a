import importlib
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralsr.autodiff import Tensor
from spectralsr.evaluate import psnr
from spectralsr.model import (
    ParameterStore,
    init_model,
    load_checkpoint,
    micro_config,
    model_forward,
    save_checkpoint,
    toy_config,
)
from spectralsr.signals import (
    SceneConfig,
    render_target,
    sample_scene,
    spectrum_grid,
    synthesize,
    wrapped_distance,
)
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


# -- make_batch against the per-scene loop it replaced ------------------------


def loop_synthesize(scene, n, snr_db, rng):
    t = np.arange(n)
    clean = (scene.amps[:, None] * np.exp(2j * np.pi * scene.freqs[:, None] * t)).sum(axis=0)
    if snr_db == np.inf:
        return clean
    power = np.mean(np.abs(clean) ** 2)
    sigma = np.sqrt(power / np.float64(10.0) ** (snr_db / 10.0) / 2.0)
    return clean + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def loop_normalize(x):
    centered = x - x.mean()
    peak = np.abs(centered).max()
    return np.zeros_like(x) if peak < 1e-300 else centered / peak


def loop_render(scene, n_sr, sigma_f):
    sigma_f = 0.12 / n_sr if sigma_f is None else sigma_f
    radius = int(min(sigma_f * np.sqrt(2.0 * 746.0) * n_sr, n_sr)) + 2
    if 2 * radius + 1 < n_sr:
        nearest = np.rint((scene.freqs[:, None] + 0.5) * n_sr).astype(np.int64)
        bins = (nearest + np.arange(-radius, radius + 1)) % n_sr
    else:
        bins = np.broadcast_to(np.arange(n_sr), (scene.count, n_sr))
    d = wrapped_distance(spectrum_grid(n_sr)[bins], scene.freqs[:, None])
    values = np.abs(scene.amps)[:, None] * np.exp(-(d**2) / (2.0 * sigma_f**2))
    out = np.zeros(n_sr)
    np.add.at(out, bins.ravel(), values.ravel())
    return out


def loop_make_batch(scenes, model_cfg, train_cfg, rng):
    """make_batch as it was, one scene at a time."""
    inputs = np.empty((len(scenes), model_cfg.n), dtype=np.complex128)
    targets = np.empty((len(scenes), model_cfg.n_sr))
    for i, scene in enumerate(scenes):
        if train_cfg.snr_lo_db == np.inf:
            snr = np.inf
        else:
            snr = float(rng.uniform(train_cfg.snr_lo_db, train_cfg.snr_hi_db))
        inputs[i] = loop_normalize(loop_synthesize(scene, model_cfg.n, snr, rng))
        targets[i] = loop_render(scene, model_cfg.n_sr, train_cfg.sigma_f)
    return inputs, targets


# sigma_f in bins: the default 0.12, 2 bins, and 30 bins, whose window spans all 1024 bins
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(count=st.integers(1, 40), sigma_bins=st.sampled_from([None, 2.0, 30.0]),
       snr=st.one_of(st.just((np.inf, np.inf)),
                     st.tuples(st.floats(-20.0, 40.0), st.floats(0.0, 30.0)).map(lambda p: (p[0], p[0] + p[1]))),
       seed=st.integers(0, 2**16))
def test_make_batch_matches_the_per_scene_loop_bit_for_bit(count, sigma_bins, snr, seed):
    cfg = toy_config()
    tc = TrainConfig(n_scenes=count, batch=count, snr_lo_db=snr[0], snr_hi_db=snr[1],
                     sigma_f=None if sigma_bins is None else sigma_bins / cfg.n_sr)
    rng = np.random.default_rng([seed, 0])
    scenes = [sample_scene(rng, SceneConfig(n_sr=cfg.n_sr)) for _ in range(count)]
    got_rng, ref_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    inputs, targets = make_batch(scenes, cfg, tc, got_rng)
    ref_inputs, ref_targets = loop_make_batch(scenes, cfg, tc, ref_rng)
    assert np.array_equal(inputs, ref_inputs)
    assert np.array_equal(targets, ref_targets)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state  # the same draws


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
