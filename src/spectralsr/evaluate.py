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


def psnr(estimate, target):
    """10 log10(max(target)^2 / MSE), capped at 150 dB.

    An estimate with a NaN or infinite value has no PSNR: it raises
    ``ValueError``, so a diverged model cannot score as a perfect one.
    So does a PSNR below float64's range, when the squared error
    overflows or the peak-to-error ratio underflows to 0.
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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mse = np.mean((estimate - target) ** 2)
        if mse == 0.0:
            return PSNR_CAP_DB
        value = 10.0 * np.log10(peak**2 / mse)
    if not value > -np.inf:  # NaN or -inf
        raise ValueError("PSNR below float64's range: the squared error overflows "
                         "or dwarfs the squared peak")
    return float(min(PSNR_CAP_DB, value))


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


# name -> (signal, order, n_grid) -> spectrum; ``order`` is the component
# count music and omp assume.  Each name is looked up at call time, so
# wrappers installed on this module see every call.
ESTIMATORS = {
    "periodogram": lambda signal, order, n_grid: periodogram(signal, n_fft=n_grid),
    "music": lambda signal, order, n_grid: music(signal, order, n_grid=n_grid),
    "omp": lambda signal, order, n_grid: omp_spectrum(omp(signal, n_grid, order), n_grid),
}
CLASSICAL_METHODS = tuple(ESTIMATORS)
METHODS = CLASSICAL_METHODS + ("model",)


def make_method(name, n_grid, checkpoint=None):
    """Build a ComplexSignal -> RealSpectrum callable.

    ``name`` is one of ``METHODS``; model needs a loaded parameter store
    as ``checkpoint``.  music and omp take the true component count as a
    priori knowledge, so the callable signature is (signal, scene).
    """
    if name in ESTIMATORS:
        estimator = ESTIMATORS[name]
        return lambda signal, scene: estimator(signal, scene.count, n_grid)
    if name == "model":
        if checkpoint is None:
            raise ValueError("the model method needs a loaded checkpoint")
        from .model import model_forward

        return lambda signal, scene: model_forward(signal, checkpoint)
    raise ValueError(f"unknown method {name!r}")


def _csv(header, columns):
    """CSV text: ``header``, then one row per position of the equal-length
    ``columns`` (``ValueError`` if they are not), each value as ``repr(float(value))``."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in zip(*columns, strict=True):
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    return buf.getvalue()


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
    failures: dict = field(default_factory=dict)  # method -> "<ExcType>: <message>", first failure

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
            "failures": dict(sorted(self.failures.items())),
            "version": 2,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self):
        methods = sorted(self.curves)
        return _csv(["x"] + methods, [self.x_values] + [self.curves[m] for m in methods])


def _paired_trials(experiment, methods, x_values, trials, seed, key, draw, score, config):
    """Mean of ``score(method(signal, scene), truth)`` per method and x value,
    every method run on the same ``draw(x, rng)`` of each trial stream spawned
    from ``[seed, key(x)]``.  A trial whose call or score raises is a failure
    of that method; a point where every trial failed is NaN."""
    curves = {name: [] for name in methods}
    errors = {name: 0 for name in methods}
    failures = {}
    for x in x_values:
        scores = {name: [] for name in methods}
        for stream in np.random.SeedSequence([seed, key(x)]).spawn(trials):
            rng = np.random.default_rng(stream)
            signal, scene, truth = draw(x, rng)
            for name, method in methods.items():
                try:
                    scores[name].append(score(method(signal, scene), truth))
                except Exception as exc:
                    errors[name] += 1
                    failures.setdefault(name, f"{type(exc).__name__}: {exc}")
        for name in methods:
            curves[name].append(float(np.mean(scores[name])) if scores[name] else float("nan"))
    return ExperimentReport(experiment, list(x_values), curves, [trials] * len(x_values),
                            config, seed, errors, failures)


def _snr_key(snr_db):
    """A non-negative int seed key, distinct for each distinct SNR, ``inf``
    and negative SNRs included: the bits of the float64 value."""
    return int((np.float64(snr_db) + 0.0).view(np.uint64))  # + 0.0 maps -0.0 to 0.0


def resolution_sweep(methods, separations=None, snr_db=20.0, trials=200, n=64, n_grid=4096, seed=0):
    """Resolution probability of two-tone scenes versus separation.

    Separations are in units of 1/n_grid; the default runs from 0.25/n to
    2/n, a quarter to twice the Rayleigh limit.  Each trial draws a random
    base frequency and random phases for the two unit-amplitude tones.
    """
    if separations is None:
        separations = [k * n_grid / (4 * n) for k in range(1, 9)]

    def draw(sep, rng):
        f1 = float(rng.uniform(-0.5, 0.5))
        f2 = wrapped_midpoint(f1, f1 + 2 * (sep / n_grid))  # i.e. f1 + sep/n_grid, wrapped
        scene = FrequencyScene([f1, f2], np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2)))
        return synthesize(scene, n, snr_db, rng), scene, (f1, f2)

    return _paired_trials(
        "resolution", methods, separations, trials, seed,
        key=lambda sep: int(round(sep * 1000)),
        draw=draw,
        score=lambda spectrum, tones: resolution_decision(spectrum, *tones),
        config={"snr_db": snr_db, "n": n, "n_grid": n_grid, "trials": trials},
    )


def psnr_vs_snr(methods, snr_grid=None, trials=200, n=64, n_grid=4096, seed=0):
    """Mean reconstruction PSNR per SNR point, paired across methods."""
    if snr_grid is None:
        snr_grid = list(range(-10, 45, 5))

    def draw(snr_db, rng):
        scene = sample_scene(rng, SceneConfig(n_sr=n_grid))
        return synthesize(scene, n, snr_db, rng), scene, render_target(scene, n_grid)

    return _paired_trials(
        "psnr_vs_snr", methods, snr_grid, trials, seed,
        key=_snr_key,
        draw=draw,
        score=lambda estimate, target: psnr(estimate, target),
        config={"n": n, "n_grid": n_grid, "trials": trials},
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
                np.random.SeedSequence([seed, int(round(sep * 1000)), _snr_key(snr_db)])
            )
            f1 = 0.1
            f2 = f1 + sep / n_grid
            scene = FrequencyScene([f1, f2], np.ones(2, dtype=np.complex128))
            signal = synthesize(scene, n, snr_db, rng)
            names = sorted(methods)
            spectra = [methods[name](signal, scene) for name in names]
            outputs[f"sep{sep}_snr{snr_db:g}dB"] = _csv(
                ["frequency"] + names + ["truth_f1", "truth_f2"],
                [grid] + spectra + [[f1] * n_grid, [f2] * n_grid],
            )
    return outputs
