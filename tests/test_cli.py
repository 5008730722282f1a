import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import spectralsr
from spectralsr.classical import music, omp, periodogram
from spectralsr.cli import main
from spectralsr.evaluate import ESTIMATORS, make_method, omp_spectrum
from spectralsr.model import init_model, load_checkpoint, micro_config, save_checkpoint
from spectralsr.signals import (
    MAGIC,
    Dataset,
    FrequencyScene,
    read_dataset,
    read_file,
    synthesize,
    write_dataset,
    write_file,
)


def run(argv):
    return main([str(a) for a in argv])


MICRO_TRAIN = {
    "model": {"preset": "micro"},
    "train": {"n_scenes": 8, "batch": 4, "epochs": 2, "val_scenes": 0},
}


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def write_signals(path, signals):
    """A dataset of ``signals``, each with the same one-tone scene."""
    write_dataset(path, Dataset([FrequencyScene([0.1], [1.0])] * len(signals), signals))


def test_generate_creates_dataset(tmp_path):
    out = tmp_path / "data.bin"
    code = run(["generate", "--n", 5, "--out", out, "--seed", 3,
                "--signal-dim", 16, "--n-sr", 128, "--snr", 10.0])
    assert code == 0
    data = read_dataset(out)
    assert data.signals.shape == (5, 16)
    assert len(data.scenes) == 5
    assert data.meta["snr_db"] == 10.0


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    args = ["generate", "--n", 4, "--seed", 9, "--signal-dim", 16, "--n-sr", 64]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_writes_checkpoint_and_log(tmp_path):
    cfg = write_config(tmp_path, MICRO_TRAIN)
    ckpt, log = tmp_path / "m.ckpt", tmp_path / "log.csv"
    assert run(["train", "--config", cfg, "--out", ckpt, "--log", log]) == 0
    store = load_checkpoint(ckpt)
    assert store.step == 4
    assert log.read_text().startswith("step,loss,lr")


def test_train_bad_config_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"model": {"preset": "gigantic"}})
    assert run(["train", "--config", cfg, "--out", tmp_path / "m.ckpt"]) == 2
    cfg2 = tmp_path / "nonjson.json"
    cfg2.write_text("{not json")
    assert run(["train", "--config", cfg2, "--out", tmp_path / "m.ckpt"]) == 2


def test_eval_periodogram_report(tmp_path, capsys):
    data = tmp_path / "d.bin"
    run(["generate", "--n", 3, "--out", data, "--seed", 1,
         "--signal-dim", 32, "--n-sr", 256])
    out = tmp_path / "report.json"
    assert run(["eval", "--data", data, "--method", "periodogram", "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["records"] == 3
    assert np.isfinite(report["mean_psnr_db"])


def test_eval_model_roundtrip(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"preset": "micro"},
        "train": {"n_scenes": 4, "batch": 2, "epochs": 1, "val_scenes": 0},
    })
    ckpt = tmp_path / "m.ckpt"
    run(["train", "--config", cfg, "--out", ckpt])
    data = tmp_path / "d.bin"
    run(["generate", "--n", 2, "--out", data, "--seed", 1,
         "--signal-dim", 8, "--n-sr", 32])
    out = tmp_path / "report.json"
    assert run(["eval", "--data", data, "--method", "model",
                "--checkpoint", ckpt, "--out", out]) == 0
    assert json.loads(out.read_text())["method"] == "model"


def test_eval_model_without_checkpoint_exits_2(tmp_path):
    data = tmp_path / "d.bin"
    run(["generate", "--n", 1, "--out", data, "--signal-dim", 8, "--n-sr", 32])
    assert run(["eval", "--data", data, "--method", "model"]) == 2


def test_eval_missing_data_exits_1(tmp_path):
    assert run(["eval", "--data", tmp_path / "absent.bin"]) == 1


def test_compare_resolution_outputs_are_reproducible(tmp_path):
    args = ["compare", "--methods", "periodogram,music", "--experiment",
            "resolution", "--trials", 5, "--n", 32, "--n-grid", 256, "--seed", 4]
    p1, p2 = tmp_path / "r1", tmp_path / "r2"
    assert run(args + ["--out", p1]) == 0
    assert run(args + ["--out", p2]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
    header = (tmp_path / "r1.csv").read_text().split("\n")[0]
    assert header == "x,music,periodogram"


def test_compare_sidelobe_writes_condition_files(tmp_path):
    prefix = tmp_path / "side"
    assert run(["compare", "--methods", "periodogram", "--experiment", "sidelobe",
                "--n", 32, "--n-grid", 128, "--out", prefix]) == 0
    files = sorted(p.name for p in tmp_path.glob("side_*.csv"))
    assert files == [
        "side_sep0.6_snr0dB.csv",
        "side_sep0.6_snr20dB.csv",
        "side_sep1.5_snr0dB.csv",
        "side_sep1.5_snr20dB.csv",
    ]


def test_baseline_runs_all_methods(tmp_path):
    rng = np.random.default_rng(0)
    sig = rng.normal(size=(2, 32)) + 1j * rng.normal(size=(2, 32))
    src = tmp_path / "sig.bin"
    write_signals(src, sig)
    for method in ("periodogram", "music", "omp"):
        out = tmp_path / f"{method}.bin"
        order = None if method == "periodogram" else 2
        assert run(["baseline", "--method", method, "--data", src, "--out", out, "--n-grid", 128]
                   + ([] if order is None else ["--order", order])) == 0
        header, spectra = read_file(out)
        assert header == {"method": method, "order": order, "n_grid": 128}
        assert spectra.shape == (2, 128)
        assert np.all(spectra >= 0)


def test_baseline_and_make_method_dispatch_to_the_classical_estimators(tmp_path):
    rng = np.random.default_rng(1)
    sig = rng.normal(size=(3, 32)) + 1j * rng.normal(size=(3, 32))
    n_grid, order = 128, 2
    expected = {
        "periodogram": lambda s, k: periodogram(s, n_fft=n_grid),
        "music": lambda s, k: music(s, k, n_grid=n_grid),
        "omp": lambda s, k: omp_spectrum(omp(s, n_grid, k), n_grid),
    }
    write_signals(tmp_path / "sig.bin", sig)
    for method, spectrum in expected.items():
        out = tmp_path / f"{method}.bin"
        assert run(["baseline", "--method", method, "--data", tmp_path / "sig.bin",
                    "--out", out, "--n-grid", n_grid]
                   + ([] if method == "periodogram" else ["--order", order])) == 0
        np.testing.assert_array_equal(read_file(out)[1], [spectrum(s, order) for s in sig])
        scene = FrequencyScene([0.1, 0.2, 0.3], np.ones(3))
        np.testing.assert_array_equal(
            make_method(method, n_grid)(sig[0], scene), spectrum(sig[0], scene.count)
        )


def test_baseline_bad_input_exits_1(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX1234")
    assert run(["baseline", "--method", "periodogram", "--data", bad,
                "--out", tmp_path / "o.bin"]) == 1


@pytest.mark.parametrize("method", ["periodogram", "music", "omp"])
def test_generate_then_baseline_gives_the_estimator_spectra(tmp_path, method):
    data, out = tmp_path / "d.bin", tmp_path / "s.bin"
    assert run(["generate", "--n", 3, "--signal-dim", 16, "--n-sr", 64, "--out", data]) == 0
    order = None if method == "periodogram" else 1
    assert run(["baseline", "--method", method, "--n-grid", 64, "--data", data, "--out", out]
               + ([] if order is None else ["--order", order])) == 0
    header, spectra = read_file(out)
    assert header == {"method": method, "order": order, "n_grid": 64}
    expected = [ESTIMATORS[method](s, 1, 64) for s in read_dataset(data).signals]
    assert np.array_equal(spectra, expected)


def test_eval_on_a_spectra_file_exits_1_with_one_line(tmp_path, capsys):
    data, spectra = tmp_path / "d.bin", tmp_path / "s.bin"
    run(["generate", "--n", 2, "--signal-dim", 8, "--n-sr", 32, "--out", data])
    run(["baseline", "--method", "periodogram", "--n-grid", 32, "--data", data, "--out", spectra])
    capsys.readouterr()
    assert run(["eval", "--data", spectra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(spectra) in err and "scenes" in err


# each command's input in the layout that the one container replaced:
# its magic and the start of its header
@pytest.mark.parametrize("old_start, command", [
    (b"SSR1\x01" + (1).to_bytes(4, "little") + (8).to_bytes(4, "little"),
     ["baseline", "--method", "periodogram", "--data", "{old}", "--out", "{dir}/o.bin"]),
    (b"SSRD" + (2).to_bytes(4, "little") + b"{}", ["eval", "--data", "{old}"]),
    (b"SSRC" + (2).to_bytes(4, "little"),
     ["eval", "--data", "{data}", "--method", "model", "--checkpoint", "{old}"]),
], ids=["records", "dataset", "checkpoint"])
def test_a_file_in_an_old_layout_exits_1_with_one_line(tmp_path, capsys, old_start, command):
    old, data = tmp_path / "old.bin", tmp_path / "d.bin"
    old.write_bytes(old_start + bytes(64))
    run(["generate", "--n", 2, "--signal-dim", 8, "--n-sr", 32, "--out", data])
    capsys.readouterr()
    assert run([a.format(old=old, data=data, dir=tmp_path) for a in command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(old) in err and "bad magic" in err


def test_generate_at_an_snr_whose_noise_scale_underflows_is_noiseless(tmp_path):
    out = tmp_path / "d.bin"
    assert run(["generate", "--n", 2, "--snr", 4000, "--signal-dim", 8, "--n-sr", 32,
                "--out", out]) == 0
    data = read_dataset(out)
    clean = [synthesize(scene, 8) for scene in data.scenes]
    assert np.array_equal(data.signals, clean)


def test_train_at_an_snr_whose_noise_scale_underflows_runs(tmp_path):
    cfg = write_config(tmp_path, {**MICRO_TRAIN, "train": {
        **MICRO_TRAIN["train"], "snr_lo_db": 3500.0, "snr_hi_db": 4000.0}})
    assert run(["train", "--config", cfg, "--out", tmp_path / "m.ckpt"]) == 0
    assert load_checkpoint(tmp_path / "m.ckpt").step == 4


# cut length inside each field of a dataset file, from the file bytes and
# the header length; the record count and length are the header's "shape"
TRUNCATIONS = {
    "magic": lambda raw, json_len: 2,
    "scene-header-length": lambda raw, json_len: 6,
    "scene-header": lambda raw, json_len: 8 + json_len // 2,
    "count-length-header": lambda raw, json_len: raw.index(b'"shape": [') + 12,
    "payload": lambda raw, json_len: len(raw) - 5,
}


@pytest.mark.parametrize("field", list(TRUNCATIONS))
def test_eval_truncated_dataset_exits_1_with_one_line(tmp_path, capsys, field):
    data = tmp_path / "d.bin"
    run(["generate", "--n", 2, "--out", data, "--signal-dim", 8, "--n-sr", 32])
    raw = data.read_bytes()
    json_len = int.from_bytes(raw[4:8], "little")
    cut = tmp_path / "cut.bin"
    cut.write_bytes(raw[: TRUNCATIONS[field](raw, json_len)])
    capsys.readouterr()
    assert run(["eval", "--data", cut]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(cut) in err


def strict_json(text):
    """Parse ``text``, refusing the non-standard Infinity / NaN tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_compare_noiseless_config_is_strict_json(tmp_path):
    prefix = tmp_path / "r"
    assert run(["compare", "--methods", "periodogram", "--experiment", "resolution",
                "--snr", "inf", "--trials", 2, "--n-grid", 256, "--out", prefix]) == 0
    report = strict_json((tmp_path / "r.json").read_text())
    assert report["config"]["snr_db"] == "inf"
    assert float(report["config"]["snr_db"]) == np.inf


@pytest.mark.parametrize("command", [
    ["generate", "--n", 1],
    ["compare", "--methods", "periodogram", "--experiment", "resolution", "--trials", 1],
])
def test_nan_snr_is_a_usage_error(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command + ["--out", tmp_path / "x", "--snr", "nan"])
    assert exc.value.code == 2
    assert "not nan" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["generate", "--n", 1],
    ["compare", "--methods", "periodogram", "--experiment", "resolution", "--trials", 1],
])
def test_minus_inf_snr_is_a_usage_error(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command + ["--out", tmp_path / "x", "--snr=-inf"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "not -inf" in err
    assert not list(tmp_path.iterdir())


def test_eval_noiseless_data_meta_is_strict_json(tmp_path):
    data, out = tmp_path / "d.bin", tmp_path / "e.json"
    run(["generate", "--n", 2, "--out", data, "--snr", "inf",
         "--signal-dim", 16, "--n-sr", 128])
    assert run(["eval", "--data", data, "--out", out]) == 0
    report = strict_json(out.read_text())
    assert report["data_meta"]["snr_db"] == "inf"


def test_eval_header_without_scenes_exits_1_with_one_line(tmp_path, capsys):
    data = tmp_path / "d.bin"
    write_file(data, {}, np.zeros((0, 8), complex))
    assert run(["eval", "--data", data]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(data) in err and "scenes" in err


@pytest.mark.parametrize("method", ["periodogram", "music", "omp"])
def test_eval_signals_of_no_samples_exit_1_with_one_line(tmp_path, capsys, method):
    data = tmp_path / "d.bin"
    write_signals(data, np.zeros((2, 0), complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would print before the error line
        assert run(["eval", "--data", data, "--method", method]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(data) in err and "no samples" in err


def test_eval_psnr_below_float64_range_exits_1_with_one_line(tmp_path, capsys):
    # samples of 1e100 give a periodogram of about 1e200, whose squared error overflows
    data = tmp_path / "d.bin"
    write_signals(data, np.full((2, 16), 1e100, complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would print before the error line
        assert run(["eval", "--data", data, "--method", "periodogram", "--out", tmp_path / "r.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "PSNR" in err and "float64" in err
    assert str(data) in err and "signal 0" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("command", [
    ["eval", "--method", "music"],
    ["baseline", "--method", "periodogram"],
])
def test_a_non_finite_signal_sample_exits_1_with_one_line(tmp_path, capsys, command, bad):
    data, out = tmp_path / "d.bin", tmp_path / "out.bin"
    signals = np.ones((3, 16), complex)
    signals[2, 5] = bad
    write_signals(data, signals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command + ["--data", data, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(data) in err and "signal 2" in err
    assert not out.exists()


def test_generate_noiseless_header_is_strict_json(tmp_path):
    data = tmp_path / "d.bin"
    assert run(["generate", "--n", 2, "--out", data, "--snr", "inf",
                "--signal-dim", 8, "--n-sr", 32]) == 0
    raw = data.read_bytes()
    assert raw[:4] == MAGIC
    json_len = int.from_bytes(raw[4:8], "little")
    header = strict_json(raw[8 : 8 + json_len].decode())
    assert header["snr_db"] == "inf"


def eval_micro_model(tmp_path, capsys, edit):
    """Exit code and stderr of ``eval --method model`` on a micro checkpoint
    whose parameters ``edit`` changed before saving."""
    store = init_model(micro_config(), np.random.default_rng(0))
    edit(store.params)
    ckpt, data = tmp_path / "m.ckpt", tmp_path / "d.bin"
    save_checkpoint(store, ckpt)
    run(["generate", "--n", 2, "--out", data, "--signal-dim", 8, "--n-sr", 32])
    capsys.readouterr()
    code = run(["eval", "--data", data, "--method", "model", "--checkpoint", ckpt])
    return code, capsys.readouterr().err


def test_eval_checkpoint_missing_a_parameter_exits_1_with_one_line(tmp_path, capsys):
    code, err = eval_micro_model(tmp_path, capsys, lambda p: p.pop("head.b"))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "head.b" in err


def test_eval_nan_estimate_exits_1_with_one_line(tmp_path, capsys):
    code, err = eval_micro_model(tmp_path, capsys, lambda p: p["head.b"].data.fill(np.nan))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-finite" in err


@pytest.mark.parametrize("payload", [
    [],
    {**MICRO_TRAIN, "train": {**MICRO_TRAIN["train"], "lr": "abc"}},
    {**MICRO_TRAIN, "train": {**MICRO_TRAIN["train"], "epochs": "1"}},
    {**MICRO_TRAIN, "model": {"preset": "micro", "n": "8"}},
    {**MICRO_TRAIN, "model": {"preset": "micro", "window": 0}},
    {**MICRO_TRAIN, "train": {**MICRO_TRAIN["train"], "n_scenes": 0}},
    {**MICRO_TRAIN, "train": {**MICRO_TRAIN["train"], "epochs": 0}},
    {**MICRO_TRAIN, "train": {**MICRO_TRAIN["train"], "epochs": -2}},
    {**MICRO_TRAIN, "train": {**MICRO_TRAIN["train"], "snr_lo_db": float("-inf")}},
    {**MICRO_TRAIN, "train": {**MICRO_TRAIN["train"], "snr_lo_db": float("nan")}},
    {**MICRO_TRAIN, "train": {**MICRO_TRAIN["train"], "snr_hi_db": float("inf")}},
    {**MICRO_TRAIN, "train": {**MICRO_TRAIN["train"], "lr": -0.5}},
    {**MICRO_TRAIN, "train": {**MICRO_TRAIN["train"], "sigma_f": -1.0}},
], ids=["not-an-object", "lr-string", "epochs-string", "n-string", "window-zero",
        "n-scenes-zero", "epochs-zero", "epochs-negative", "snr-lo-minus-inf", "snr-lo-nan",
        "snr-hi-inf-alone", "lr-negative", "sigma-f-negative"])
def test_train_mistyped_config_exits_2_with_one_error_line(tmp_path, capsys, payload):
    cfg = write_config(tmp_path, payload)
    assert run(["train", "--config", cfg, "--out", tmp_path / "m.ckpt"]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "Traceback" not in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("stored", [{**micro_config().__dict__, "extra": 1}, []],
                         ids=["unknown-key", "not-an-object"])
def test_eval_checkpoint_with_corrupt_config_exits_1_with_one_line(tmp_path, capsys, stored):
    ckpt, data = tmp_path / "m.ckpt", tmp_path / "d.bin"
    save_checkpoint(init_model(micro_config(), np.random.default_rng(0)), ckpt)
    header, payload = read_file(ckpt)
    write_file(ckpt, {**header, "config": stored}, payload)
    run(["generate", "--n", 2, "--out", data, "--signal-dim", 8, "--n-sr", 32])
    capsys.readouterr()
    assert run(["eval", "--data", data, "--method", "model", "--checkpoint", ckpt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(ckpt) in err and "stored config" in err


@pytest.mark.parametrize("command", [
    ["eval", "--data", "{dir}"],
    ["baseline", "--method", "periodogram", "--data", "{dir}", "--out", "{dir}/o.bin"],
    ["generate", "--n", 1, "--out", "{dir}"],
], ids=["eval", "baseline", "generate"])
def test_directory_path_exits_1_with_one_line(tmp_path, capsys, command):
    assert run([str(a).format(dir=tmp_path) for a in command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err


@pytest.mark.parametrize("command", [
    ["compare", "--methods", "omp", "--experiment", "resolution", "--n-grid", 0],
    ["compare", "--methods", "omp", "--experiment", "resolution", "--n-grid", -5],
    ["compare", "--methods", "omp", "--experiment", "resolution", "--trials", 0],
    ["baseline", "--method", "music", "--data", "{dir}/s.bin", "--n-grid", 0],
    ["generate", "--n", 1, "--n-sr", 0],
    ["generate", "--n", 0],
    ["generate", "--n", 1, "--signal-dim", 0],
    ["generate", "--n", 1, "--l-min", 0],
    ["generate", "--n", 1, "--l-max", 0],
    ["compare", "--methods", "omp", "--experiment", "resolution", "--n", 0],
    ["baseline", "--method", "music", "--data", "{dir}/s.bin", "--order", 0],
    ["baseline", "--method", "omp", "--data", "{dir}/s.bin", "--order", -1],
], ids=["compare-n-grid-0", "compare-n-grid-negative", "compare-trials-0", "baseline-n-grid-0",
        "generate-n-sr-0", "generate-n-0", "generate-signal-dim-0", "generate-l-min-0",
        "generate-l-max-0", "compare-n-0", "baseline-order-0", "baseline-order-negative"])
def test_grid_size_and_trials_below_one_are_usage_errors(command, tmp_path, capsys):
    write_signals(tmp_path / "s.bin", np.ones((1, 8), dtype=complex))
    argv = [str(a).format(dir=tmp_path) for a in command] + ["--out", tmp_path / "x"]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "must be at least 1" in err
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("n_sr", [None, 0])
def test_eval_header_with_bad_n_sr_exits_1_with_one_line(tmp_path, capsys, n_sr):
    data = tmp_path / "d.bin"
    run(["generate", "--n", 2, "--out", data, "--signal-dim", 8, "--n-sr", 32])
    raw = data.read_bytes()
    json_len = int.from_bytes(raw[4:8], "little")
    header = json.loads(raw[8 : 8 + json_len])
    header["n_sr"] = n_sr
    text = json.dumps(header).encode()
    data.write_bytes(raw[:4] + len(text).to_bytes(4, "little") + text + raw[8 + json_len :])
    capsys.readouterr()
    assert run(["eval", "--data", data]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(data) in err and "n_sr" in err


def test_generate_snr_too_low_for_a_finite_noise_scale_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "d.bin"
    assert run(["generate", "--n", 2, "--snr", -4000, "--signal-dim", 8, "--n-sr", 32,
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "SNR -4000.0 dB" in err and "Traceback" not in err
    assert not out.exists()


def test_import_and_classical_baseline_do_not_load_scipy(tmp_path):
    # scipy serves only the GELU activation, so it is imported there
    write_signals(tmp_path / "s.bin", np.ones((2, 16), dtype=complex))
    script = textwrap.dedent("""
        import json, sys
        import spectralsr
        from spectralsr.cli import main

        def scipy_modules():
            return [m for m in sys.modules if m.split(".")[0] == "scipy"]

        after_import = scipy_modules()
        code = main(["baseline", "--method", "music", "--data", sys.argv[1],
                     "--out", sys.argv[2], "--n-grid", "64", "--order", "2"])
        print(json.dumps([after_import, code, scipy_modules()]))
    """)
    src = Path(spectralsr.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", script, tmp_path / "s.bin", tmp_path / "o.bin"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], 0, []]
    assert read_file(tmp_path / "o.bin")[1].shape == (2, 64)


def test_generate_l_min_above_l_max_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "d.bin"
    assert run(["generate", "--n", 1, "--l-min", 5, "--l-max", 2, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "--l-min 5 exceeds --l-max 2" in err
    assert not out.exists()


@pytest.mark.parametrize("scenes, signals", [(2, 5), (0, 0)], ids=["count-mismatch", "empty"])
def test_eval_dataset_without_one_scene_per_signal_exits_1_with_one_line(
    tmp_path, capsys, scenes, signals
):
    data = tmp_path / "d.bin"
    scene = FrequencyScene([0.1], [1.0])
    write_dataset(data, Dataset([scene] * scenes, np.ones((signals, 8), complex), {"n_sr": 32}))
    assert run(["eval", "--data", data]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(data) in err


@pytest.mark.parametrize("experiment", ["psnr", "sidelobe", "resolution"])
@pytest.mark.parametrize("n, n_grid", [(64, 32), (8, 64)], ids=["n", "n-grid"])
def test_compare_checkpoint_of_another_size_is_a_usage_error(
    tmp_path, capsys, experiment, n, n_grid
):
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(init_model(micro_config(), np.random.default_rng(0)), ckpt)  # n 8, n_sr 32
    out = tmp_path / "c"
    code = run(["compare", "--methods", "model,periodogram", "--checkpoint", ckpt,
                "--experiment", experiment, "--n", n, "--n-grid", n_grid, "--trials", 2,
                "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1
    line = next(x for x in err.splitlines() if x.startswith("error: "))
    assert "n = 8" in line and "n_sr = 32" in line
    assert f"--n is {n}" in line and f"--n-grid is {n_grid}" in line
    assert not list(tmp_path.glob("c*"))


@pytest.mark.parametrize("signal_dim, n_sr", [(16, 32), (8, 64)], ids=["n", "n-sr"])
def test_eval_checkpoint_of_another_size_is_a_usage_error(tmp_path, capsys, signal_dim, n_sr):
    ckpt, data = tmp_path / "m.ckpt", tmp_path / "d.bin"
    save_checkpoint(init_model(micro_config(), np.random.default_rng(0)), ckpt)  # n 8, n_sr 32
    run(["generate", "--n", 2, "--out", data, "--signal-dim", signal_dim, "--n-sr", n_sr])
    capsys.readouterr()
    out = tmp_path / "e.json"
    code = run(["eval", "--data", data, "--method", "model", "--checkpoint", ckpt, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1
    line = next(x for x in err.splitlines() if x.startswith("error: "))
    assert "n = 8" in line and "n_sr = 32" in line
    assert f"n = {signal_dim} samples" in line and f"n_sr = {n_sr} bins" in line
    assert str(data) in line
    assert not out.exists()


@pytest.mark.parametrize("experiment,flags", [
    ("psnr", ["--snr", 5]),
    ("sidelobe", ["--snr", 5]),
    ("sidelobe", ["--trials", 3]),
], ids=["psnr-snr", "sidelobe-snr", "sidelobe-trials"])
def test_compare_flag_the_experiment_does_not_use_is_a_usage_error(
        tmp_path, capsys, experiment, flags):
    code = run(["compare", "--methods", "periodogram", "--experiment", experiment,
                "--n", 16, "--n-grid", 64, "--out", tmp_path / "x"] + flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and "Traceback" not in err
    line = next(x for x in err.splitlines() if x.startswith("error: "))
    assert line == f"error: --experiment {experiment} does not use {flags[0]}"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command,message", [
    (["baseline", "--method", "periodogram", "--order", 7, "--out", "{dir}/s.bin"],
     "--method periodogram does not use --order"),
    (["eval", "--method", "periodogram", "--checkpoint", "{dir}/none.ckpt"],
     "--checkpoint is used by the model method only"),
    (["compare", "--methods", "periodogram", "--experiment", "sidelobe", "--checkpoint",
      "{dir}/none.ckpt", "--n", 16, "--n-grid", 64, "--out", "{dir}/x"],
     "--checkpoint is used by the model method only"),
], ids=["baseline-order", "eval-checkpoint", "compare-checkpoint"])
def test_a_flag_that_no_chosen_method_uses_is_a_usage_error(tmp_path, capsys, command, message):
    data = tmp_path / "d.bin"
    write_signals(data, np.ones((2, 16), complex))
    argv = [str(a).format(dir=tmp_path) for a in command]
    if argv[0] != "compare":
        argv += ["--data", str(data)]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert err.count("error: ") == 1 and "Traceback" not in err
    assert f"error: {message}" in err.splitlines()
    assert out == "" and [p.name for p in tmp_path.iterdir()] == ["d.bin"]


def test_compare_resolution_defaults_to_20_db_and_200_trials(tmp_path):
    prefix = tmp_path / "r"
    assert run(["compare", "--methods", "periodogram", "--experiment", "resolution",
                "--n", 16, "--n-grid", 64, "--out", prefix]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["config"]["snr_db"] == 20.0 and report["config"]["trials"] == 200
    assert set(report["trial_counts"]) == {200}


MALFORMED_SCENES = {
    # amps_re [1, 1] with amps_im [0] used to broadcast into a two-tone scene
    "unequal-lengths": {"freqs": [0.1, 0.2], "amps_re": [1.0, 1.0], "amps_im": [0.0]},
    "nested-lists": {"freqs": [[0.1]], "amps_re": [[1.0]], "amps_im": [[0.0]]},
    "bool-freq": {"freqs": [True], "amps_re": [1.0], "amps_im": [0.0]},
    # |amp| = 1.4e308 is finite, but its square, which targets and PSNR take, is not
    "overflowing-amp": {"freqs": [0.1], "amps_re": [1e308], "amps_im": [1e308]},
    # a JSON integer beyond float64's range used to end in an OverflowError traceback
    "huge-integer": {"freqs": [0.1], "amps_re": [10**400], "amps_im": [0]},
}


@pytest.mark.parametrize("method", ["periodogram", "music"])
@pytest.mark.parametrize("case", sorted(MALFORMED_SCENES))
def test_eval_malformed_scene_exits_1_with_one_line(tmp_path, capsys, case, method):
    data = tmp_path / "d.bin"
    write_file(data, {"n_sr": 64, "scenes": [MALFORMED_SCENES[case]]}, np.ones((1, 16), complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would print before the error line
        assert run(["eval", "--data", data, "--method", method]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(data) in err and "scene" in err
