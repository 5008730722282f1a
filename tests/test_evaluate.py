import json
import warnings

import numpy as np
import pytest

from spectralsr.classical import omp
from spectralsr.evaluate import (
    ExperimentReport,
    make_method,
    omp_spectrum,
    psnr,
    psnr_vs_snr,
    resolution_decision,
    resolution_sweep,
    sidelobe_experiment,
    wrapped_midpoint,
)
from spectralsr.model import init_model, micro_config
from spectralsr.signals import FrequencyScene, spectrum_grid, synthesize


def sidelobe_noise(separations, snrs_db):
    """The unit-norm noise of each ``sidelobe_experiment`` condition, in its order."""
    noise = []

    def record(signal, scene):
        drawn = signal - synthesize(scene, len(signal))
        noise.append(drawn / np.linalg.norm(drawn))
        return np.zeros(64)

    sidelobe_experiment({"record": record}, separations=separations, snrs_db=snrs_db,
                        n=32, n_grid=64, seed=0)
    return noise


class TestPsnr:
    def test_matches_hand_computation(self):
        target = np.array([0.0, 2.0, 0.0, 0.0])
        est = target + np.array([0.1, -0.1, 0.1, -0.1])
        expected = 10 * np.log10(4.0 / 0.01)
        assert psnr(est, target) == pytest.approx(expected)

    def test_perfect_reconstruction_hits_cap(self):
        t = np.array([0.0, 1.0])
        assert psnr(t, t) == 150.0

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            psnr(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            psnr(np.ones(3), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_estimate_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            psnr(np.full(4, bad), np.array([0.0, 1.0, 0.5, 0.0]))

    @pytest.mark.parametrize("estimate, target", [
        (np.full(4, 1e200), np.array([0.0, 1.0, 0.5, 0.0])),      # the squared error overflows
        (np.full(4, 1e100), np.array([0.0, 1e-250, 0.0, 0.0])),   # peak^2 / mse underflows to 0
        (np.array([-1e308, 0.0]), np.array([1e308, 0.0])),        # the error itself overflows
    ])
    def test_a_psnr_below_float64_range_raises_without_a_warning(self, estimate, target):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float64"):
                psnr(estimate, target)

    def test_an_overflowing_peak_over_a_finite_error_is_the_cap(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert psnr(np.array([1e200, 1.0]), np.array([1e200, 0.0])) == 150.0


class TestResolutionDecision:
    def test_clear_dip_resolved(self):
        spec = np.zeros(100)
        spec[20] = 1.0
        spec[30] = 0.8
        spec[25] = 0.1
        assert resolution_decision(spec, -0.5 + 20 / 100, -0.5 + 30 / 100) == 1

    def test_filled_valley_unresolved(self):
        spec = np.zeros(100)
        spec[20] = 1.0
        spec[30] = 0.8
        spec[25] = 0.7  # above 0.8/sqrt(2)
        assert resolution_decision(spec, -0.5 + 20 / 100, -0.5 + 30 / 100) == 0

    def test_threshold_is_exact(self):
        spec = np.zeros(100)
        spec[20] = 1.0
        spec[30] = 1.0
        spec[25] = 1.0 / np.sqrt(2.0)  # not strictly below -> unresolved
        assert resolution_decision(spec, -0.5 + 20 / 100, -0.5 + 30 / 100) == 0

    def test_wrapped_midpoint_crosses_band_edge(self):
        # the short arc from 0.48 to -0.48 passes through the band edge
        assert abs(wrapped_midpoint(0.48, -0.48)) == pytest.approx(0.5)
        assert abs(wrapped_midpoint(0.45, -0.45)) == pytest.approx(0.5)
        assert wrapped_midpoint(0.1, 0.3) == pytest.approx(0.2)


class TestMethods:
    def test_omp_spectrum_places_spikes(self):
        grid = spectrum_grid(64)
        sig = synthesize(FrequencyScene([grid[10]], [2.0]), 16)
        spec = omp_spectrum(omp(sig, 64, sparsity=1), 64)
        assert int(np.argmax(spec)) == 10
        assert spec[10] == pytest.approx(2.0 * np.sqrt(16), rel=1e-8)

    def test_make_method_periodogram_and_music(self):
        scene = FrequencyScene([0.1, 0.3], [1.0, 1.0])
        sig = synthesize(scene, 64)
        for name in ("periodogram", "music", "omp"):
            spec = make_method(name, 256)(sig, scene)
            assert spec.shape == (256,)
            assert np.all(spec >= 0)

    def test_make_method_model_requires_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoint"):
            make_method("model", 256)
        with pytest.raises(ValueError, match="unknown method"):
            make_method("matrix-pencil", 256)

    def test_make_method_model_runs(self):
        cfg = micro_config()
        store = init_model(cfg, np.random.default_rng(0))
        scene = FrequencyScene([0.1], [1.0])
        sig = synthesize(scene, cfg.n)
        spec = make_method("model", cfg.n_sr, checkpoint=store)(sig, scene)
        assert spec.shape == (cfg.n_sr,)


class TestReport:
    def make_report(self):
        return ExperimentReport(
            experiment="demo",
            x_values=[0.5, 1.0],
            curves={"b": [1.0, 2.0], "a": [3.0, 4.0]},
            trial_counts=[10, 10],
            config={"n": 64},
            seed=3,
        )

    def test_json_is_deterministic_and_sorted(self):
        r = self.make_report()
        text = r.to_json()
        assert text == self.make_report().to_json()
        payload = json.loads(text)
        assert list(payload["curves"]) == ["a", "b"]
        assert payload["seed"] == 3

    def test_csv_layout(self):
        lines = self.make_report().to_csv().strip().split("\n")
        assert lines[0] == "x,a,b"
        assert lines[1] == "0.5,3.0,1.0"


class TestExperiments:
    def test_resolution_sweep_periodogram_behavior(self):
        # separations are in units of 1/n_grid; with n=64 and n_grid=1024
        # the Rayleigh limit 1/n sits at 16 bins.  Far below it the
        # periodogram almost never resolves; at twice it, almost always.
        report = resolution_sweep(
            {"periodogram": make_method("periodogram", 1024)},
            separations=[0.3, 32.0],
            trials=20,
            n=64,
            n_grid=1024,
            seed=0,
        )
        lo, hi = report.curves["periodogram"]
        assert lo <= 0.1
        assert hi >= 0.9
        assert report.errors["periodogram"] == 0

    def test_resolution_sweep_default_separations_span_the_rayleigh_limit(self):
        # the defaults are 0.25/n .. 2/n; at twice the Rayleigh limit the
        # periodogram resolves almost every trial
        report = resolution_sweep(
            {"periodogram": make_method("periodogram", 512)}, trials=20, n=32, n_grid=512, seed=0
        )
        assert report.x_values == [4.0 * k for k in range(1, 9)]
        assert report.curves["periodogram"][-1] >= 0.9

    def test_resolution_sweep_is_reproducible(self):
        kw = dict(separations=[0.5], trials=10, n=32, n_grid=256, seed=5)
        a = resolution_sweep({"periodogram": make_method("periodogram", 256)}, **kw)
        b = resolution_sweep({"periodogram": make_method("periodogram", 256)}, **kw)
        assert a.to_json() == b.to_json()

    def test_psnr_vs_snr_improves_with_snr(self):
        report = psnr_vs_snr(
            {"periodogram": make_method("periodogram", 512)},
            snr_grid=[-10, 30],
            trials=15,
            n=64,
            n_grid=512,
            seed=1,
        )
        lo, hi = report.curves["periodogram"]
        assert hi > lo

    def test_failing_method_counted_not_fatal(self):
        def broken(signal, scene):
            raise RuntimeError("boom")

        report = resolution_sweep(
            {"broken": broken, "periodogram": make_method("periodogram", 256)},
            separations=[0.5],
            trials=5,
            n=32,
            n_grid=256,
            seed=2,
        )
        assert report.errors["broken"] == 5
        assert np.isnan(report.curves["broken"][0])
        assert report.errors["periodogram"] == 0
        assert report.failures == {"broken": "RuntimeError: boom"}
        payload = json.loads(report.to_json())
        assert payload["failures"] == {"broken": "RuntimeError: boom"}
        assert payload["version"] == 2

    def test_json_writes_null_for_an_undefined_point(self):
        def broken(signal, scene):
            raise RuntimeError("boom")

        report = resolution_sweep(
            {"broken": broken, "periodogram": make_method("periodogram", 256)},
            separations=[0.5, 1.0], trials=3, n=32, n_grid=256, seed=2,
        )

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        payload = json.loads(report.to_json(), parse_constant=reject)
        assert payload["curves"]["broken"] == [None, None]
        assert payload["curves"]["periodogram"] == report.curves["periodogram"]
        assert all(np.isnan(y) for y in report.curves["broken"])

    def test_sidelobe_grid_outputs(self):
        out = sidelobe_experiment(
            {"periodogram": make_method("periodogram", 128)},
            separations=(0.6,),
            snrs_db=(20.0,),
            n=32,
            n_grid=128,
            seed=0,
        )
        assert list(out) == ["sep0.6_snr20dB"]
        lines = out["sep0.6_snr20dB"].strip().split("\n")
        assert lines[0] == "frequency,periodogram,truth_f1,truth_f2"
        assert len(lines) == 129

    def test_sidelobe_separations_draw_their_own_noise(self):
        # 0.6 and 0.65 once shared a seed key, int(sep * 10) = 6, and so their noise
        noise = sidelobe_noise(separations=(0.6, 0.65), snrs_db=(0.0,))
        assert len(noise) == 2 and not np.allclose(noise[0], noise[1], atol=0.1)

    def test_nan_estimate_counts_as_error_in_psnr_sweep(self):
        def diverged(signal, scene):
            return np.full(256, np.nan)

        report = psnr_vs_snr(
            {"diverged": diverged, "periodogram": make_method("periodogram", 256)},
            snr_grid=[10],
            trials=4,
            n=32,
            n_grid=256,
            seed=3,
        )
        assert report.errors == {"diverged": 4, "periodogram": 0}
        assert report.failures == {
            "diverged": "ValueError: PSNR undefined for an estimate with a non-finite value"
        }
        assert json.loads(report.to_json())["curves"]["diverged"] == [None]


class TestSnrSeedKeys:
    """Sweep trial streams are keyed by the SNR itself, not a truncation of it."""

    @staticmethod
    def psnr_scenes(snr_db):
        scenes = []

        def record(signal, scene):
            scenes.append(list(scene.freqs))
            return np.ones(256)

        report = psnr_vs_snr({"record": record}, snr_grid=[snr_db], trials=2, n=32, n_grid=256,
                             seed=1)
        assert report.errors == {"record": 0}
        return scenes

    def test_a_noiseless_point_runs(self):
        assert len(self.psnr_scenes(np.inf)) == 2

    def test_a_negative_snr_runs(self):
        assert len(self.psnr_scenes(-10)) == 2

    def test_nearby_snrs_draw_their_own_scenes(self):
        # int(snr_db) once keyed 10.2 and 10.7 dB alike, so they shared every scene
        assert self.psnr_scenes(10.2) != self.psnr_scenes(10.7)

    def test_sidelobe_snrs_draw_their_own_noise(self):
        noise = sidelobe_noise(separations=(0.6,), snrs_db=(10.2, 10.7))
        assert len(noise) == 2 and not np.allclose(noise[0], noise[1], atol=0.1)
