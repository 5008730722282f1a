"""PSNR, the two-peak resolution criterion, and Monte Carlo experiment drivers.

Every experiment derives per-trial random streams from a master seed via
``numpy.random.SeedSequence`` spawning, and all methods in a comparison
see the same scene and noise realizations (paired trials).  Reports embed
the full configuration and seed and contain no timestamps, so reruns with
the same seed are byte-identical.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from .classical import music, omp, periodogram
from .signals import (
    FrequencyScene,
    SceneConfig,
    json_safe,
    render_target,
    sample_scene,
    spectrum_grid,
    synthesize,
)

PSNR_CAP_DB = 150.0

# estimators that take only a signal and a model order
CLASSICAL_METHODS = ("periodogram", "music", "omp")
METHODS = CLASSICAL_METHODS + ("model",)


def psnr(estimate, target):
    """10 log10(max(target)^2 / MSE), capped at 150 dB.

    An estimate with a NaN or infinite value has no PSNR: it raises
    ``ValueError``, so a diverged model cannot score as a perfect one.
    """
    estimate = np.asarray(estimate, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if estimate.shape != target.shape:
        raise ValueError("estimate and target must have equal lengths")
    if not np.all(np.isfinite(estimate)):
        raise ValueError("PSNR undefined for an estimate with a non-finite value")
    peak = target.max()
    if peak <= 0:
        raise ValueError("PSNR undefined for an all-zero target")
    mse = np.mean((estimate - target) ** 2)
    if mse == 0.0:
        return PSNR_CAP_DB
    return float(min(PSNR_CAP_DB, 10.0 * np.log10(peak**2 / mse)))


def _nearest_bin(f, n_grid):
    return int(np.round((f + 0.5) * n_grid)) % n_grid


def wrapped_midpoint(f1, f2):
    d = (f2 - f1 + 0.5) % 1.0 - 0.5
    mid = f1 + d / 2.0
    return (mid + 0.5) % 1.0 - 0.5


def resolution_decision(spectrum, f1, f2):
    """1 iff the dip at the wrapped midpoint falls below min(peaks)/sqrt(2).

    Spectrum values are read at the nearest grid bins.
    """
    spectrum = np.asarray(spectrum)
    n_grid = len(spectrum)
    y1 = spectrum[_nearest_bin(f1, n_grid)]
    y2 = spectrum[_nearest_bin(f2, n_grid)]
    y_mid = spectrum[_nearest_bin(wrapped_midpoint(f1, f2), n_grid)]
    return 1 if y_mid < min(y1, y2) / np.sqrt(2.0) else 0


# -- estimator handles -------------------------------------------------


def omp_spectrum(result, n_grid):
    """Render an OMP result as |amp| spikes at the nearest grid bins."""
    out = np.zeros(n_grid)
    for f, a in zip(result.freqs, result.amps):
        out[_nearest_bin(f, n_grid)] += np.abs(a)
    return out


def classical_spectrum(name, signal, order, n_grid):
    """Spectrum of ``signal`` on ``n_grid`` bins by one of ``CLASSICAL_METHODS``.

    ``order`` is the component count music and omp assume; the
    periodogram ignores it.
    """
    if name == "periodogram":
        return periodogram(signal, n_fft=n_grid)
    if name == "music":
        return music(signal, order=order, m=len(signal) // 2, n_grid=n_grid)
    if name == "omp":
        return omp_spectrum(omp(signal, n_grid, sparsity=order), n_grid)
    raise ValueError(f"unknown method {name!r}")


def make_method(name, n_grid, checkpoint=None):
    """Build a ComplexSignal -> RealSpectrum callable.

    ``name`` is one of ``METHODS``; model needs a loaded parameter store
    as ``checkpoint``.  music and omp take the true component count as a
    priori knowledge, so the callable signature is (signal, scene).
    """
    if name in CLASSICAL_METHODS:
        return lambda signal, scene: classical_spectrum(name, signal, scene.count, n_grid)
    if name == "model":
        if checkpoint is None:
            raise ValueError("the model method needs a loaded checkpoint")
        from .model import model_forward

        return lambda signal, scene: model_forward(signal, checkpoint)
    raise ValueError(f"unknown method {name!r}")


@dataclass
class ExperimentReport:
    """One experiment's curves plus everything needed to reproduce them."""

    experiment: str
    x_values: list
    curves: dict  # method name -> list of y values
    trial_counts: list
    config: dict = field(default_factory=dict)
    seed: int = 0
    errors: dict = field(default_factory=dict)  # method -> failed-trial count

    def to_json(self):
        """Strict JSON: an undefined curve point (every trial of the method
        failed, NaN in ``curves``) is written as ``null``, an infinite
        config value (``snr_db`` of a noiseless run) as a string."""
        payload = {
            "experiment": self.experiment,
            "x_values": list(self.x_values),
            "curves": {
                k: [None if np.isnan(y) else y for y in v] for k, v in sorted(self.curves.items())
            },
            "trial_counts": list(self.trial_counts),
            "config": json_safe(self.config),
            "seed": self.seed,
            "errors": dict(sorted(self.errors.items())),
            "version": 1,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self):
        methods = sorted(self.curves)
        buf = io.StringIO()
        buf.write(",".join(["x"] + methods) + "\n")
        for i, x in enumerate(self.x_values):
            row = [repr(float(x))] + [repr(float(self.curves[m][i])) for m in methods]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()


def _trial_streams(seed, count):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def resolution_sweep(
    methods,
    separations=None,
    snr_db=20.0,
    trials=200,
    n=64,
    n_grid=4096,
    seed=0,
):
    """Resolution probability of two-tone scenes versus separation.

    Separations are in units of 1/n_grid; each trial draws a random base
    frequency and random phases for the two unit-amplitude tones.
    """
    if separations is None:
        separations = [0.3 + 0.1 * i for i in range(8)]  # 0.3 .. 1.0
    curves = {name: [] for name in methods}
    errors = {name: 0 for name in methods}
    for sep in separations:
        delta = sep / n_grid
        hits = {name: 0 for name in methods}
        counts = {name: 0 for name in methods}
        for rng in _trial_streams([seed, int(round(sep * 1000))], trials):
            f1 = float(rng.uniform(-0.5, 0.5))
            f2 = wrapped_midpoint(f1, f1 + 2 * delta)  # i.e. f1 + delta, wrapped
            phases = rng.uniform(0.0, 2.0 * np.pi, size=2)
            scene = FrequencyScene([f1, f2], np.exp(1j * phases))
            signal = synthesize(scene, n, snr_db, rng)
            for name, method in methods.items():
                try:
                    spec = method(signal, scene)
                except Exception:
                    errors[name] += 1
                    continue
                hits[name] += resolution_decision(spec, f1, f2)
                counts[name] += 1
        for name in methods:
            curves[name].append(hits[name] / counts[name] if counts[name] else float("nan"))
    return ExperimentReport(
        experiment="resolution",
        x_values=list(separations),
        curves=curves,
        trial_counts=[trials] * len(separations),
        config={"snr_db": snr_db, "n": n, "n_grid": n_grid, "trials": trials},
        seed=seed,
        errors=errors,
    )


def psnr_vs_snr(
    methods,
    snr_grid=None,
    trials=200,
    n=64,
    n_grid=4096,
    seed=0,
    scene_cfg=None,
):
    """Mean reconstruction PSNR per SNR point, paired across methods."""
    if snr_grid is None:
        snr_grid = list(range(-10, 45, 5))
    scene_cfg = scene_cfg or SceneConfig(n_sr=n_grid)
    curves = {name: [] for name in methods}
    errors = {name: 0 for name in methods}
    for snr_db in snr_grid:
        sums = {name: [] for name in methods}
        for rng in _trial_streams([seed, int(snr_db) + 1000], trials):
            scene = sample_scene(rng, scene_cfg)
            signal = synthesize(scene, n, snr_db, rng)
            target = render_target(scene, n_grid)
            for name, method in methods.items():
                try:
                    sums[name].append(psnr(method(signal, scene), target))
                except Exception:
                    errors[name] += 1
        for name in methods:
            curves[name].append(float(np.mean(sums[name])) if sums[name] else float("nan"))
    return ExperimentReport(
        experiment="psnr_vs_snr",
        x_values=list(snr_grid),
        curves=curves,
        trial_counts=[trials] * len(snr_grid),
        config={"n": n, "n_grid": n_grid, "trials": trials},
        seed=seed,
        errors=errors,
    )


def sidelobe_experiment(
    methods,
    separations=(0.6, 1.5),
    snrs_db=(20.0, 0.0),
    n=64,
    n_grid=4096,
    seed=0,
):
    """Raw spectra for a grid of (separation, SNR) two-tone conditions.

    Returns {condition id: csv text}; each CSV has one row per grid bin
    with columns frequency, per-method spectra, and constant ground-truth
    marker columns.
    """
    grid = spectrum_grid(n_grid)
    outputs = {}
    for sep in separations:
        for snr_db in snrs_db:
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, int(sep * 10), int(snr_db)])
            )
            f1 = 0.1
            f2 = f1 + sep / n_grid
            scene = FrequencyScene([f1, f2], np.ones(2, dtype=np.complex128))
            signal = synthesize(scene, n, snr_db, rng)
            names = sorted(methods)
            spectra = {name: methods[name](signal, scene) for name in names}
            buf = io.StringIO()
            buf.write(",".join(["frequency"] + names + ["truth_f1", "truth_f2"]) + "\n")
            for k in range(n_grid):
                row = [repr(float(grid[k]))]
                row += [repr(float(spectra[name][k])) for name in names]
                row += [repr(float(f1)), repr(float(f2))]
                buf.write(",".join(row) + "\n")
            outputs[f"sep{sep}_snr{snr_db:g}dB"] = buf.getvalue()
    return outputs
