"""Output checks for the benchmark workloads.

Each check compares a program output against a computation written here,
apart from the program, or against a property the method must have.  A
failing check raises ``CheckError`` with the reason.  None of them
compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math

import numpy as np


class CheckError(Exception):
    """A program output failed a correctness check."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


# -- spectra -------------------------------------------------------------


def check_spectrum(spectrum, length, what):
    """Finite, non-negative, of the grid's length and not all zero."""
    spectrum = np.asarray(spectrum)
    require(spectrum.shape == (length,), f"{what}: shape {spectrum.shape}, expected ({length},)")
    require(np.all(np.isfinite(spectrum)), f"{what}: non-finite value")
    require(np.all(spectrum >= 0.0), f"{what}: negative value {spectrum.min()!r}")
    require(np.any(spectrum > 0.0), f"{what}: all zero")


def dft_periodogram(signal, n_grid):
    """|sum_t x[t] exp(-j 2 pi f_k t)|^2 / N^2 on f_k = -0.5 + k / n_grid."""
    signal = np.asarray(signal, dtype=np.complex128)
    n = len(signal)
    freqs = -0.5 + np.arange(n_grid) / n_grid
    kernel = np.exp(-2j * np.pi * np.outer(freqs, np.arange(n)))
    return np.abs(kernel @ signal) ** 2 / n**2


def check_periodogram(signal, spectrum, n_grid):
    """The periodogram equals the explicit DFT sum to rounding."""
    check_spectrum(spectrum, n_grid, "periodogram")
    reference = dft_periodogram(signal, n_grid)
    scale = reference.max()
    err = np.max(np.abs(np.asarray(spectrum) - reference))
    require(err <= 1e-9 * scale, f"periodogram differs from the DFT sum by {err:.3g} (peak {scale:.3g})")


def grid_bins(freqs, n_grid):
    """Nearest grid index of each frequency on f_k = -0.5 + k / n_grid."""
    return np.sort(np.round((np.asarray(freqs) + 0.5) * n_grid).astype(int) % n_grid)


def check_omp_bins(found_freqs, true_bins, n_grid):
    """OMP on a noiseless on-grid scene selects exactly the true bins."""
    found = grid_bins(found_freqs, n_grid)
    require(
        np.array_equal(found, np.sort(true_bins)),
        f"OMP selected bins {found.tolist()}, expected {sorted(true_bins)}",
    )


def check_music_peaks(pseudo, true_bins):
    """The largest local maxima of a noiseless MUSIC spectrum sit at the true bins."""
    pseudo = np.asarray(pseudo)
    check_spectrum(pseudo, len(pseudo), "MUSIC")
    peaks = np.flatnonzero((pseudo > np.roll(pseudo, 1)) & (pseudo >= np.roll(pseudo, -1)))
    top = np.sort(peaks[np.argsort(pseudo[peaks])[::-1][: len(true_bins)]])
    require(
        np.array_equal(top, np.sort(true_bins)),
        f"MUSIC peaks at bins {top.tolist()}, expected {sorted(true_bins)}",
    )


# -- experiment reports ----------------------------------------------------


def check_report(report, methods, trials_per_point, x_values, probabilities):
    """Curves cover every method and x value, counts match the request,
    resolution probabilities lie in [0, 1], and the JSON has no NaN."""
    require(list(report.x_values) == list(x_values), f"x values {report.x_values}, expected {x_values}")
    require(
        list(report.trial_counts) == [trials_per_point] * len(x_values),
        f"trial counts {report.trial_counts}, expected {trials_per_point} per point",
    )
    require(sorted(report.curves) == sorted(methods), f"curves for {sorted(report.curves)}")
    for name, curve in report.curves.items():
        require(len(curve) == len(x_values), f"{name}: {len(curve)} points")
        for y in curve:
            require(math.isfinite(y), f"{name}: non-finite curve value {y!r}")
            if probabilities:
                require(0.0 <= y <= 1.0, f"{name}: probability {y!r} outside [0, 1]")
    text = report.to_json()

    def reject(token):
        raise CheckError(f"report JSON contains {token}")

    json.loads(text, parse_constant=reject)


def check_music_beats_periodogram(music_hits, periodogram_hits, separation):
    """Below the Rayleigh limit MUSIC resolves at least as often as the periodogram."""
    require(
        music_hits >= periodogram_hits,
        f"at separation {separation}/N MUSIC resolved {music_hits} trials, "
        f"the periodogram {periodogram_hits}",
    )


# -- models ------------------------------------------------------------------


def check_model_output(out, batch, n_sr):
    """Shape [batch, n_sr]; finite, non-negative and not all zero."""
    out = np.asarray(out)
    require(out.shape == (batch, n_sr), f"model output shape {out.shape}, expected ({batch}, {n_sr})")
    require(np.all(np.isfinite(out)), "model output has a non-finite value")
    require(np.all(out >= 0.0), f"model output has a negative value {out.min()!r}")
    require(np.any(out > 0.0), "model output is all zero")


def check_close(actual, expected, what, rtol=1e-9):
    """Equal to rounding: every entry within rtol of the larger magnitude."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    require(actual.shape == expected.shape, f"{what}: shape {actual.shape} vs {expected.shape}")
    scale = max(np.max(np.abs(expected)), np.max(np.abs(actual)), 1e-300)
    err = np.max(np.abs(actual - expected))
    require(err <= rtol * scale, f"{what}: differs by {err:.3g} (scale {scale:.3g})")


def check_losses(losses):
    """Every step's loss is finite and the last is below the first."""
    require(len(losses) >= 2, f"only {len(losses)} training steps ran")
    require(all(math.isfinite(v) for v in losses), "non-finite training loss")
    require(losses[-1] < losses[0], f"loss did not fall: {losses[0]!r} -> {losses[-1]!r}")


def directional_derivative(loss_fn, params, rng, steps=(1e-6, 1e-7)):
    """<grad, v> along a random unit direction v, and the central
    difference (L(p + h v) - L(p - h v)) / 2h for each step h.

    ``loss_fn`` builds a scalar loss Tensor from the current values of the
    ``params`` Tensors; their data are restored exactly afterwards.
    """
    for p in params:
        p.grad = None
    loss_fn().backward()
    direction = [rng.standard_normal(p.data.shape) for p in params]
    norm = math.sqrt(sum(float(np.sum(v * v)) for v in direction))
    direction = [v / norm for v in direction]
    tape = sum(
        float(np.sum(p.grad * v)) for p, v in zip(params, direction) if p.grad is not None
    )
    saved = [p.data.copy() for p in params]
    numeric = []
    try:
        for h in steps:
            values = []
            for sign in (1.0, -1.0):
                for p, base, v in zip(params, saved, direction):
                    p.data = base + sign * h * v
                values.append(loss_fn().item())
            numeric.append((values[0] - values[1]) / (2.0 * h))
    finally:
        for p, base in zip(params, saved):
            p.data = base
            p.grad = None
    return tape, numeric


def check_directional_derivative(tape, numeric, rtol=1e-5):
    """The tape agrees with the central difference at one of its steps.

    ReLU, clamps and masks make the loss piecewise smooth.  A step that
    crosses a kink gives a wrong difference (seen at h = 1e-5 on one seed
    in ten), so one agreeing step suffices; a wrong gradient fails every step.
    """
    errors = [abs(tape - n) / max(abs(tape), abs(n), 1e-300) for n in numeric]
    require(
        tape != 0.0 and min(errors) <= rtol,
        f"tape directional derivative {tape!r} vs central differences {numeric!r}",
    )
