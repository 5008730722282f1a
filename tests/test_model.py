import json
import re
import threading
import tracemalloc

import numpy as np
import pytest

from spectralsr import model
from spectralsr.autodiff import Tensor
from spectralsr.cvops import CTensor
from spectralsr.model import (
    CheckpointError,
    ModelConfig,
    ParameterStore,
    config_from_json,
    default_config,
    init_model,
    load_checkpoint,
    mf_forward,
    micro_config,
    model_forward,
    model_forward_tensor,
    param_count,
    save_checkpoint,
    toy_config,
)
from spectralsr.signals import minmax_normalize, read_file, write_file
from spectralsr.train import TrainConfig


def make_store(variant="swinfreq", seed=0):
    return init_model(micro_config(variant), np.random.default_rng(seed))


@pytest.fixture
def split_micro_batches(monkeypatch):
    """Let ``model_forward`` split a micro batch of 4 rows, even where the process may use one CPU."""
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(model, "_MIN_PIECE_FEATURES", 0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="variant"):
            ModelConfig(variant="resnet")
        with pytest.raises(ValueError, match="divide"):
            ModelConfig(variant="swinfreq", inner=100, window=16)
        with pytest.raises(ValueError, match="divide"):
            ModelConfig(variant="swinfreq", inner=250, window=2, n_sr=4096)

    @pytest.mark.parametrize("field", ["window", "inner", "n_sr"])
    def test_rejects_non_positive_size(self, field):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            ModelConfig(variant="swinfreq", **{field: 0})

    @pytest.mark.parametrize("value, match", [
        ([], "must be a JSON object"),
        ({"variant": "swinfreq", "nn": 8}, "no field 'nn'"),
        ({"variant": "swinfreq", "n": "8"}, "n must be int"),
        ({"variant": "swinfreq", "n": True}, "n must be int"),
        ({"variant": "swinfreq", "n": 8.0}, "n must be int"),
        ({"n": 8}, "needs variant"),
    ])
    def test_from_json_rejects(self, value, match):
        with pytest.raises(ValueError, match=match):
            config_from_json(ModelConfig, value)

    def test_from_json_field_types(self):
        assert config_from_json(ModelConfig, {"variant": "swinfreq"}) == ModelConfig("swinfreq")
        cfg = config_from_json(TrainConfig, {"lr": 1, "sigma_f": None, "log_path": "x.csv"})
        assert (cfg.lr, cfg.sigma_f, cfg.log_path) == (1, None, "x.csv")
        for value in ("abc", False, None):
            with pytest.raises(ValueError, match="lr must be float"):
                config_from_json(TrainConfig, {"lr": value})
        with pytest.raises(ValueError, match=r"sigma_f must be float \| null"):
            config_from_json(TrainConfig, {"sigma_f": "0.1"})

    def test_derived_geometry(self):
        cfg = default_config("swinfreq")
        assert cfg.stride == 16
        assert cfg.head_kernel == 32
        assert not cfg.is_complex
        assert default_config("cvswinfreq").is_complex

    def test_hash_is_stable_and_sensitive(self):
        a = default_config("swinfreq")
        b = default_config("swinfreq")
        c = default_config("cvswinfreq")
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()


class TestInitAndCount:
    def test_full_size_param_counts(self):
        real = param_count(default_config("swinfreq"))
        cplx = param_count(default_config("cvswinfreq"))
        # the real and complex variants are deliberately sized near each
        # other, with the complex one slightly larger
        assert abs(real - 249_700) / 249_700 < 0.10
        assert abs(cplx - 260_200) / 260_200 < 0.10
        assert cplx > real

    def test_init_is_deterministic_per_seed(self):
        a, b = make_store(seed=3), make_store(seed=3)
        c = make_store(seed=4)
        for name in a.names():
            assert np.array_equal(a.params[name].data, b.params[name].data)
        assert any(
            not np.array_equal(a.params[n].data, c.params[n].data) for n in a.names()
        )

    def test_key_bias_only_in_complex_variant(self):
        real = make_store("swinfreq").names()
        assert not any(".attn.bk" in n for n in real)
        assert "blocks.0.layers.0.attn.bq" in real
        cplx = make_store("cvswinfreq").names()
        assert "blocks.0.layers.0.attn.bk.re" in cplx
        assert "blocks.0.layers.0.attn.bk.im" in cplx

    def test_complex_weights_paired(self):
        store = make_store("cvswinfreq")
        res = [n for n in store.names() if n.endswith(".re")]
        for name in res:
            assert name[:-3] + ".im" in store.params

    def test_store_add_get_round_trip(self):
        store = ParameterStore(micro_config())
        real = Tensor(np.ones(3), requires_grad=True)
        cplx = CTensor.from_numpy(np.array([1 + 2j, 3 - 1j]), requires_grad=True)
        store.add("w", real)
        store.add("z", cplx)
        assert store.names() == ["w", "z.im", "z.re"]
        assert store.get("w") is real
        back = store.get("z")
        assert isinstance(back, CTensor)
        assert back.re is cplx.re and back.im is cplx.im
        with pytest.raises(KeyError):
            store.get("absent")


class TestForward:
    @pytest.mark.parametrize("variant", ["swinfreq", "cvswinfreq"])
    def test_output_shape_and_nonnegativity(self, variant):
        cfg = micro_config(variant)
        store = init_model(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        sig = rng.normal(size=(3, cfg.n)) + 1j * rng.normal(size=(3, cfg.n))
        out = model_forward(sig, store)
        assert out.shape == (3, cfg.n_sr)
        assert np.all(out >= 0)

    def test_single_signal_round_trip(self):
        cfg = micro_config()
        store = init_model(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(2)
        sig = rng.normal(size=cfg.n) + 1j * rng.normal(size=cfg.n)
        single = model_forward(sig, store)
        batched = model_forward(sig[None], store)
        assert single.shape == (cfg.n_sr,)
        assert np.allclose(single, batched[0], atol=1e-12)

    def test_forward_normalizes_input(self):
        # scaling and shifting the raw signal must not change the output
        cfg = micro_config()
        store = init_model(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(3)
        sig = rng.normal(size=cfg.n) + 1j * rng.normal(size=cfg.n)
        out1 = model_forward(sig, store)
        out2 = model_forward(5.0 * sig + (2.0 - 1j), store)
        assert np.allclose(out1, out2, atol=1e-9)

    @staticmethod
    def _assert_rejects_wrong_length(shape_of):
        store = make_store()
        n = store.config.n
        threads = threading.active_count()
        with pytest.raises(ValueError, match=re.escape(f"expected input length {n}, got {n + 1}")):
            model_forward(np.ones(shape_of(n + 1), dtype=complex), store)
        assert threading.active_count() == threads

    def test_rejects_wrong_length(self, split_micro_batches):
        self._assert_rejects_wrong_length(lambda length: (length,))

    def test_rejects_wrong_length_of_a_batch_that_splits(self, split_micro_batches):
        self._assert_rejects_wrong_length(lambda length: (4, length))

    @pytest.mark.parametrize("fn", [mf_forward, model_forward_tensor])
    def test_graph_rejects_unbatched_input(self, fn):
        # the graph is batch-only; model_forward adds the batch axis
        store = make_store()
        x = CTensor.from_numpy(np.ones(store.config.n, dtype=complex))
        with pytest.raises(ValueError, match="batch"):
            fn(x, store)


class TestInferenceWithoutTape:
    @pytest.mark.parametrize("variant", ["swinfreq", "cvswinfreq"])
    @pytest.mark.parametrize("batch", [3, 4, 5])  # unsplit, 2 + 2 and 2 + 3 rows
    def test_no_parameter_gradient_and_same_output_as_taped_graph(self, variant, batch, split_micro_batches):
        cfg = micro_config(variant)
        store = init_model(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(4)
        sig = rng.normal(size=(batch, cfg.n)) + 1j * rng.normal(size=(batch, cfg.n))
        out = model_forward(sig, store)
        assert all(t.grad is None for t in store.params.values())
        normalized = np.stack([minmax_normalize(row) for row in sig])
        taped = model_forward_tensor(CTensor.from_numpy(normalized), store)
        assert taped._parents
        assert np.array_equal(out, taped.data)

    @pytest.mark.parametrize("rows, cpus, pieces",
                             [(1023, 2, [1023]), (1024, 2, [512, 512]), (1024, 1, [1024])])
    def test_splits_only_a_batch_with_enough_work_on_two_cpus(self, monkeypatch, rows, cpus, pieces):
        # a micro row holds inner * channels = 32 feature values
        store = make_store()
        calls = []

        def recording(x, store):
            calls.append(x.shape[0])
            return model_forward_tensor(x, store)

        monkeypatch.setattr(model, "model_forward_tensor", recording)
        monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
        rng = np.random.default_rng(7)
        sig = rng.normal(size=(rows, store.config.n)) + 1j * rng.normal(size=(rows, store.config.n))
        whole = model_forward_tensor(Tensor(minmax_normalize(sig)), store).data
        assert np.array_equal(model_forward(sig, store), whole)
        assert sorted(calls) == pieces

    def test_default_cvswinfreq_batch_memory(self):
        # the taped graph of this call holds about 700 MiB of arrays
        cfg = default_config("cvswinfreq")
        store = init_model(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(5)
        sig = rng.normal(size=(4, cfg.n)) + 1j * rng.normal(size=(4, cfg.n))
        tracemalloc.start()
        try:
            out = model_forward(sig, store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (4, cfg.n_sr)
        assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        store = make_store("cvswinfreq", seed=5)
        store.step = 42
        store.opt_state["head.w"] = {
            "m": np.full_like(store.params["head.w"].data, 0.5),
            "v": np.full_like(store.params["head.w"].data, 0.25),
        }
        path = tmp_path / "m.ckpt"
        save_checkpoint(store, path)
        back = load_checkpoint(path)
        assert back.step == 42
        assert back.config == store.config
        assert back.names() == store.names()
        for name in store.names():
            assert np.array_equal(back.params[name].data, store.params[name].data)
        assert back.opt_state.keys() == store.opt_state.keys()
        for key in ("m", "v"):
            assert np.array_equal(back.opt_state["head.w"][key], store.opt_state["head.w"][key])

    def test_forward_identical_after_reload(self, tmp_path):
        store = make_store(seed=6)
        path = tmp_path / "m.ckpt"
        save_checkpoint(store, path)
        back = load_checkpoint(path)
        rng = np.random.default_rng(7)
        sig = rng.normal(size=store.config.n) + 1j * rng.normal(size=store.config.n)
        assert np.array_equal(model_forward(sig, store), model_forward(sig, back))

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_rejects_version_1(self, tmp_path):
        store = make_store()
        path = tmp_path / "m.ckpt"
        save_checkpoint(store, path)
        raw = path.read_bytes()
        size = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8 : 8 + size])
        header["version"] = 1
        text = json.dumps(header).encode()
        path.write_bytes(raw[:4] + len(text).to_bytes(4, "little") + text + raw[8 + size :])
        with pytest.raises(CheckpointError, match="unsupported file version 1"):
            load_checkpoint(path)

    def test_rejects_truncation(self, tmp_path):
        store = make_store()
        path = tmp_path / "m.ckpt"
        save_checkpoint(store, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_config_mismatch(self, tmp_path):
        store = make_store()
        path = tmp_path / "m.ckpt"
        save_checkpoint(store, path)
        with pytest.raises(CheckpointError, match="different config"):
            load_checkpoint(path, expected_config=toy_config("swinfreq"))

    @staticmethod
    def save_edited(tmp_path, edit):
        store = make_store()
        edit(store.params)
        path = tmp_path / "m.ckpt"
        save_checkpoint(store, path)
        return path

    def test_rejects_missing_parameter(self, tmp_path):
        path = self.save_edited(tmp_path, lambda p: p.pop("head.b"))
        with pytest.raises(CheckpointError, match="parameter head.b is missing"):
            load_checkpoint(path)

    def test_rejects_extra_parameter(self, tmp_path):
        path = self.save_edited(tmp_path, lambda p: p.update({"head.extra": Tensor(np.zeros(2))}))
        with pytest.raises(CheckpointError, match="unexpected parameter head.extra"):
            load_checkpoint(path)

    def test_rejects_misshaped_parameter(self, tmp_path):
        path = self.save_edited(tmp_path, lambda p: p.update({"head.w": Tensor(np.zeros(8))}))
        with pytest.raises(CheckpointError, match=r"head.w has shape \(8,\), expected \(2, 1, 4\)"):
            load_checkpoint(path)

    @staticmethod
    def save_with_config(tmp_path, stored):
        """A micro checkpoint whose stored config is replaced by ``stored``."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_store(), path)
        header, payload = read_file(path)
        write_file(path, {**header, "config": stored}, payload)
        return path

    def test_rejects_a_stored_config_that_fails_its_hash(self, tmp_path):
        path = self.save_with_config(tmp_path, {**micro_config().__dict__, "channels": 4})
        with pytest.raises(CheckpointError, match="config hash mismatch"):
            load_checkpoint(path)

    def test_rejects_unknown_config_key(self, tmp_path):
        path = self.save_with_config(tmp_path, {**micro_config().__dict__, "extra": 1})
        with pytest.raises(CheckpointError, match="stored config: .* no field 'extra'"):
            load_checkpoint(path)

    def test_rejects_config_that_is_not_an_object(self, tmp_path):
        path = self.save_with_config(tmp_path, [])
        with pytest.raises(CheckpointError, match="stored config: .* must be a JSON object"):
            load_checkpoint(path)

    @staticmethod
    def save_with_opt_state(tmp_path, opt_state):
        store = make_store()
        store.opt_state = opt_state
        path = tmp_path / "m.ckpt"
        save_checkpoint(store, path)
        return path

    def test_rejects_misshaped_optimizer_entry(self, tmp_path):
        path = self.save_with_opt_state(
            tmp_path, {"head.w": {"m": np.zeros(3), "v": np.zeros((2, 1, 4))}}
        )
        with pytest.raises(CheckpointError,
                           match=r"opt.m.head.w has shape \(3,\), expected \(2, 1, 4\)"):
            load_checkpoint(path)

    def test_rejects_optimizer_entry_without_parameter(self, tmp_path):
        entry = {"m": np.zeros(1), "v": np.zeros(1)}
        path = self.save_with_opt_state(tmp_path, {"head.gone": entry})
        with pytest.raises(CheckpointError, match="opt.m.head.gone names no parameter"):
            load_checkpoint(path)

    def test_rejects_optimizer_entry_without_its_pair(self, tmp_path):
        path = self.save_with_opt_state(tmp_path, {"head.b": {"m": np.zeros(1), "v": np.zeros(1)}})
        raw = path.read_bytes()
        # rename opt.v.head.b to opt.m.head.b: the file then holds two m entries and no v
        path.write_bytes(raw.replace(b"opt.v.head.b", b"opt.m.head.b"))
        with pytest.raises(CheckpointError, match="opt.v.head.b is missing"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt")
