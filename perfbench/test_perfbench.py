"""Fast tests of the benchmark's own code, at tiny sizes.

Each output check is shown to reject a deliberately wrong output, and
both modes of every workload are run end to end at ``workloads.TINY``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from spectralsr import classical, evaluate, signals
from spectralsr import model as smodel
from spectralsr.autodiff import Tensor

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: spec[0] for name, spec in tracing.PER_LAYER.items()
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_plain_run_reports_every_end_to_end_metric(name):
    result, details, tracer = workloads.run_benchmark(name, 2, 0.01, 0, sizes=workloads.TINY)
    assert result["correct"], details.get("failure")
    assert result["failed"] == 0 and result["attempted"] >= workloads.MIN_ROUNDS
    assert tracer is None
    assert set(result["metrics"]) == set(workloads.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["items_per_s"]["n"] >= workloads.MIN_ROUNDS


# a per-layer metric that each workload must move, to show its layer was traced
LAYER_SEEN = {
    "train-swinfreq": [
        "autodiff.backward_s", "autodiff.tape_nodes", "train.adamw_s", "train.make_batch_s",
        "train.validation_s", "cvops.norm_s",
    ],
    "infer-swinfreq": ["model.sstb0_s", "model.head_s", "model.normalize_s", "autodiff.tape_mib"],
    "infer-cvswinfreq": ["model.mf_s", "cvops.wmsa_s", "cvops.mlp_s"],
    "sweep-resolution": ["classical.periodogram_ms", "classical.music_ms", "evaluate.decision_ms"],
    "sweep-psnr": ["classical.omp_iterations", "signals.render_target_ms", "evaluate.driver_s"],
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    result, details, tracer = workloads.run_benchmark(name, 4, 0.01, 1, sizes=workloads.TINY)
    assert result["correct"], details.get("failure")
    assert set(result["metrics"]) == set(tracing.PER_LAYER)
    for metric in LAYER_SEEN[name]:
        assert result["metrics"][metric]["value"] > 0, metric
    assert set(details["overhead"]) == {"items_per_s", "latency_ms"}
    assert tracer.spans and all(end >= start for _, start, end, _ in tracer.spans)
    # every wrapper was taken out again
    assert not hasattr(smodel.model_forward, "__wrapped__")
    assert not hasattr(Tensor.backward, "__wrapped__")


def test_self_and_inclusive_times():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        [tracing.OVERHEAD, 2.0, 3.0, 1],
        ["c", 5.0, 6.0, 0],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert tracing.inclusive_times(spans) == [9.0, 2.0, 1.0, 1.0]


def test_missing_package_exits_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    args = ["--workload", "sweep-psnr", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(args) == 1


# -- each check rejects a wrong output ----------------------------------------


def _signal(n=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_spectrum_check_rejects_a_negative_value():
    spectrum = np.abs(_signal(64))
    checks.check_spectrum(spectrum, 64, "test")
    spectrum[5] = -1e-3
    with pytest.raises(checks.CheckError, match="negative"):
        checks.check_spectrum(spectrum, 64, "test")


def test_periodogram_check_rejects_the_wrong_dft_sign():
    x = _signal()
    checks.check_periodogram(x, classical.periodogram(x, n_fft=128), 128)
    wrong_sign = np.fft.fftshift(np.abs(np.fft.ifft(x, 128) * 128) ** 2) / len(x) ** 2
    with pytest.raises(checks.CheckError, match="DFT sum"):
        checks.check_periodogram(x, wrong_sign, 128)


def test_model_output_check_rejects_bad_outputs():
    out = np.abs(np.random.default_rng(1).standard_normal((2, 32)))
    checks.check_model_output(out, 2, 32)
    for bad in (out[:1], -out, np.zeros_like(out), np.where(out > 1, np.nan, out)):
        with pytest.raises(checks.CheckError):
            checks.check_model_output(bad, 2, 32)


def test_batched_row_check_rejects_a_differing_row():
    cfg = smodel.micro_config("swinfreq")
    store = smodel.init_model(cfg, np.random.default_rng(2))
    batch = np.stack([_signal(cfg.n, 3), _signal(cfg.n, 4)])
    out = smodel.model_forward(batch, store)
    single = smodel.model_forward(batch[1], store)
    checks.check_close(out[1], single, "row")
    with pytest.raises(checks.CheckError, match="differs"):
        checks.check_close(out[1] * (1 + 1e-6), single, "row")


def test_invariance_check_rejects_a_changed_output():
    cfg = smodel.micro_config("cvswinfreq")
    store = smodel.init_model(cfg, np.random.default_rng(6))
    x = np.stack([_signal(cfg.n, 6), _signal(cfg.n, 7)])
    reference = smodel.model_forward(x, store)
    checks.check_close(smodel.model_forward(2.5 * x + (0.3 - 0.7j), store), reference, "affine", rtol=1e-8)
    x_changed = x.copy()
    x_changed[0, 0] += 0.1
    with pytest.raises(checks.CheckError):
        checks.check_close(smodel.model_forward(x_changed, store), reference, "affine", rtol=1e-8)


def test_directional_derivative_check_rejects_a_wrong_gradient():
    cfg = smodel.micro_config("swinfreq")
    store = smodel.init_model(cfg, np.random.default_rng(8))
    inputs = np.stack([_signal(cfg.n, 9), _signal(cfg.n, 10)])
    targets = np.abs(np.random.default_rng(11).standard_normal((2, cfg.n_sr)))
    params = [store.params[name] for name in store.names()]

    def loss():
        return workloads._mse(store, inputs, targets)

    def doubled_gradient():
        inner = loss()
        return Tensor(inner.data, _parents=(inner,), _backward=lambda g: inner._accumulate(2.0 * g))

    before = [p.data.copy() for p in params]
    checks.check_directional_derivative(*checks.directional_derivative(loss, params, np.random.default_rng(12)))
    assert all(np.array_equal(p.data, b) for p, b in zip(params, before))
    tape, numeric = checks.directional_derivative(doubled_gradient, params, np.random.default_rng(12))
    with pytest.raises(checks.CheckError, match="central differences"):
        checks.check_directional_derivative(tape, numeric)


def test_loss_check_rejects_a_rising_or_non_finite_loss():
    checks.check_losses([1.0, 0.7, 0.5])
    for bad in ([1.0, 1.2], [1.0, float("nan"), 0.5], [1.0]):
        with pytest.raises(checks.CheckError):
            checks.check_losses(bad)


def test_on_grid_checks_reject_a_shifted_bin():
    n, n_grid, k = 32, 512, 77
    tone = signals.FrequencyScene([-0.5 + k / n_grid], [1.0])
    found = classical.omp(signals.synthesize(tone, n), n_grid, 1)
    checks.check_omp_bins(found.freqs, [k], n_grid)
    with pytest.raises(checks.CheckError, match="OMP"):
        checks.check_omp_bins(found.freqs + 1.0 / n_grid, [k], n_grid)
    pseudo = classical.music(signals.synthesize(tone, n), 1, n // 2, n_grid)
    checks.check_music_peaks(pseudo, [k])
    with pytest.raises(checks.CheckError, match="MUSIC"):
        checks.check_music_peaks(np.roll(pseudo, 1), [k])


def test_report_check_rejects_bad_reports():
    methods = {name: evaluate.make_method(name, 256) for name in workloads.METHODS}
    seps = [8.0, 16.0]
    report = evaluate.resolution_sweep(methods, separations=seps, trials=2, n=16, n_grid=256, seed=1)
    checks.check_report(report, workloads.METHODS, 2, seps, probabilities=True)
    with pytest.raises(checks.CheckError, match="trial counts"):
        checks.check_report(report, workloads.METHODS, 3, seps, probabilities=True)
    with pytest.raises(checks.CheckError, match="x values"):
        checks.check_report(report, workloads.METHODS, 2, [8.0, 32.0], probabilities=True)
    report.config["snr_db"] = float("nan")
    with pytest.raises(checks.CheckError, match="NaN"):
        checks.check_report(report, workloads.METHODS, 2, seps, probabilities=True)
    report.curves["music"][0] = 1.2
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_report(report, workloads.METHODS, 2, seps, probabilities=True)
    report.curves["music"][0] = float("nan")
    with pytest.raises(checks.CheckError, match="non-finite"):
        checks.check_report(report, workloads.METHODS, 2, seps, probabilities=True)


def test_rayleigh_check_rejects_music_behind_the_periodogram():
    checks.check_music_beats_periodogram(5, 5, 0.5)
    with pytest.raises(checks.CheckError, match="MUSIC"):
        checks.check_music_beats_periodogram(4, 5, 0.5)
