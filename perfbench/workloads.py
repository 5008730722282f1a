"""The benchmark's workloads and the loop that measures them.

Every workload is built from a seed, sets itself up, then runs identical
rounds until the run's time is up.  A round returns its timings, the
operations it attempted and the ones that failed.  The program is called
only through attributes of its modules (``smodel.model_forward``, not a
name imported here), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import gc
import importlib
import resource
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

import checks
import tracing
from spectralsr import classical, evaluate, signals
from spectralsr import model as smodel
from spectralsr.autodiff import Tensor
from spectralsr.cvops import CTensor

# the package re-exports the function ``train`` under the submodule's name
strain = importlib.import_module("spectralsr.train")

METHODS = ("periodogram", "music", "omp")
MIN_ROUNDS = 3  # so that a median and quartiles exist


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests use ``TINY``."""

    train_config: str = "toy"
    train_batch: int = 256       # scenes per step, as in acceptance criterion 7
    val_scenes: int = 16         # validation signals per epoch
    grad_batch: int = 4          # scenes in the directional-derivative check
    infer_config: str = "default"
    infer_batch: int = 4         # default cvswinfreq at batch 4 peaks at 1.4 GB
    infer_pool: int = 4          # distinct input batches, cycled through
    infer_snr_db: float = 10.0
    n: int = 64
    n_grid: int = 4096
    separations: tuple = (0.5, 1.0, 1.5, 2.0)  # two-tone separations in units of 1/n
    resolution_snr_db: float = 20.0
    resolution_trials: int = 5   # per separation and sweep call
    psnr_snrs_db: tuple = (0.0, 10.0, 20.0, 30.0)
    psnr_trials: int = 5         # per SNR and sweep call
    setup_repeats: int = 3
    checked_spectra: int = 8     # spectra per method kept for the output checks


FULL = Sizes()
TINY = Sizes(
    train_config="micro", train_batch=32, val_scenes=2, grad_batch=2,
    infer_config="micro", infer_batch=2, infer_pool=2,
    n_grid=1024, resolution_trials=3, psnr_snrs_db=(10.0, 30.0), psnr_trials=1,
    setup_repeats=2,
)

CONFIGS = {"toy": smodel.toy_config, "default": smodel.default_config, "micro": smodel.micro_config}


def _copy_store(store):
    params = {
        name: Tensor(t.data.copy(), requires_grad=True) for name, t in store.params.items()
    }
    return smodel.ParameterStore(store.config, params)


def _mse(store, inputs, targets):
    out = smodel.model_forward_tensor(CTensor.from_numpy(inputs), store)
    diff = out - targets
    return (diff * diff).mean()


class TrainWorkload:
    """``train()`` in epochs of one step of 256 scenes, each followed by
    validation.  Rounds come in pairs: the first starts from the initial
    parameters, the second continues from it.

    Every pair repeats the same computation, so timings differ only by the
    machine's noise.  Restarting also keeps the model away from the
    all-zero output that longer training reaches (see the README), where
    every gradient is exactly zero and the gradient check would be empty.
    """

    def __init__(self, variant, seed, sizes):
        self.variant, self.seed, self.sizes = variant, seed, sizes
        self.rounds = 0

    def setup(self):
        sizes = self.sizes
        cfg = CONFIGS[sizes.train_config](self.variant)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        self.initial = smodel.init_model(cfg, rng)
        scene_cfg = signals.SceneConfig(n_sr=cfg.n_sr)
        self.scenes = [signals.sample_scene(rng, scene_cfg) for _ in range(sizes.train_batch)]
        self.val = [signals.sample_scene(rng, scene_cfg) for _ in range(sizes.val_scenes)]
        self.train_cfg = strain.TrainConfig(
            n_scenes=sizes.train_batch, batch=sizes.train_batch, epochs=1, seed=self.seed,
            val_scenes=sizes.val_scenes,
        )
        # warm-up: one full-size step with validation, on a copy
        strain.train(_copy_store(self.initial), self.train_cfg, scenes=self.scenes, val_scenes=self.val[:1])

    def round(self):
        first = self.rounds % 2 == 0
        self.rounds += 1
        if first:
            self.store = _copy_store(self.initial)
        cfg = replace(self.train_cfg, epochs=1 if first else 2)
        start = time.perf_counter()
        _, history = strain.train(self.store, cfg, scenes=self.scenes, val_scenes=self.val)
        elapsed = time.perf_counter() - start
        checks.require(
            len(history.losses) == 1 and len(history.val_psnr) == 1,
            f"{len(history.losses)} steps and {len(history.val_psnr)} validations in one epoch",
        )
        checks.require(np.isfinite(history.val_psnr[0]), "non-finite validation PSNR")
        if first:
            self.first_loss = history.losses[0]
        else:
            checks.check_losses([self.first_loss, history.losses[0]])
        figures = {"items_per_s": [self.sizes.train_batch / elapsed], "latency_ms": [elapsed * 1e3]}
        return figures, 1, 0

    def check(self):
        store = self.store
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2]))
        inputs, targets = strain.make_batch(
            self.scenes[: self.sizes.grad_batch], store.config, self.train_cfg, rng
        )
        params = [store.params[name] for name in store.names()]
        tape, numeric = checks.directional_derivative(lambda: _mse(store, inputs, targets), params, rng)
        checks.check_directional_derivative(tape, numeric)


class InferWorkload:
    """``model_forward`` at the default config: one batched call, then each
    of its signals alone, checked against the batched rows."""

    def __init__(self, variant, seed, sizes):
        self.variant, self.seed, self.sizes = variant, seed, sizes
        self.rounds = 0

    def setup(self):
        sizes = self.sizes
        cfg = CONFIGS[sizes.infer_config](self.variant)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        self.store = smodel.init_model(cfg, rng)
        scene_cfg = signals.SceneConfig(n_sr=cfg.n_sr)
        self.pool = [
            np.stack([
                signals.synthesize(signals.sample_scene(rng, scene_cfg), cfg.n, sizes.infer_snr_db, rng)
                for _ in range(sizes.infer_batch)
            ])
            for _ in range(sizes.infer_pool)
        ]
        smodel.model_forward(self.pool[0], self.store)
        smodel.model_forward(self.pool[0][0], self.store)

    def round(self):
        batch = self.pool[self.rounds % len(self.pool)]
        self.rounds += 1
        n_sr = self.store.config.n_sr
        start = time.perf_counter()
        out = smodel.model_forward(batch, self.store)
        elapsed = time.perf_counter() - start
        # the graph of a forward call is cyclic garbage; collect it outside
        # the timed call so each call starts from the same heap
        gc.collect()
        checks.check_model_output(out, len(batch), n_sr)
        figures = {"items_per_s": [len(batch) / elapsed], "latency_ms": []}
        for i, row in enumerate(batch):
            start = time.perf_counter()
            single = smodel.model_forward(row, self.store)
            figures["latency_ms"].append((time.perf_counter() - start) * 1e3)
            gc.collect()
            checks.check_model_output(single[None], 1, n_sr)
            checks.check_close(out[i], single, f"batched row {i} against its batch-1 output")
        return figures, 1 + len(batch), 0

    def check(self):
        x = self.pool[0]
        shifted = smodel.model_forward(2.5 * x + (0.3 - 0.7j), self.store)
        checks.check_close(shifted, smodel.model_forward(x, self.store), "model_forward(a x + b)", rtol=1e-8)


class SweepWorkload:
    """One Monte Carlo sweep call per round, all three classical methods per trial."""

    probabilities = False  # whether the curves are resolution probabilities

    def __init__(self, seed, sizes):
        self.seed, self.sizes = seed, sizes
        self.rounds = 0
        self.kept = {name: [] for name in METHODS}

    def _capturing(self, name, method):
        kept, limit = self.kept[name], self.sizes.checked_spectra

        def run(signal, scene):
            spectrum = method(signal, scene)
            if len(kept) < limit:
                kept.append((signal, spectrum))
            return spectrum

        return run

    def setup(self):
        self.methods = {
            name: self._capturing(name, evaluate.make_method(name, self.sizes.n_grid))
            for name in METHODS
        }
        self.sweep(self.x_values()[:1], seed=self.seed, trials=1)

    def round(self):
        trials, x_values = self.trials, self.x_values()
        start = time.perf_counter()
        report = self.sweep(x_values, seed=self.seed * 10_000 + self.rounds, trials=trials)
        elapsed = time.perf_counter() - start
        self.rounds += 1
        points = len(x_values)
        checks.check_report(report, METHODS, trials, x_values, self.probabilities)
        self.after(report)
        figures = {"items_per_s": [trials * points / elapsed], "latency_ms": [elapsed * 1e3]}
        return figures, trials * points * len(METHODS), sum(report.errors.values())

    def after(self, report):
        pass

    def check(self):
        sizes = self.sizes
        n, n_grid = sizes.n, sizes.n_grid
        checks.require(all(self.kept[name] for name in METHODS), "no spectra were kept for checking")
        for signal, spectrum in self.kept["periodogram"]:
            checks.check_periodogram(signal, spectrum, n_grid)
        for name in ("music", "omp"):
            for _, spectrum in self.kept[name]:
                checks.check_spectrum(spectrum, n_grid, name)
        # noiseless on-grid scenes
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 3]))
        min_gap = 3 * n_grid // n
        for _ in range(4):
            k = int(rng.integers(n_grid))
            tone = signals.FrequencyScene([-0.5 + k / n_grid], [np.exp(2j * np.pi * rng.uniform())])
            found = classical.omp(signals.synthesize(tone, n), n_grid, 1)
            checks.check_omp_bins(found.freqs, [k], n_grid)
            count = int(rng.integers(1, 5))
            while True:
                bins = np.sort(rng.choice(n_grid, count, replace=False))
                if np.diff(np.r_[bins, bins[0] + n_grid]).min() >= min_gap:
                    break
            amps = rng.uniform(0.5, 1.0, count) * np.exp(2j * np.pi * rng.uniform(size=count))
            scene = signals.FrequencyScene(-0.5 + bins / n_grid, amps)
            pseudo = classical.music(signals.synthesize(scene, n), count, n // 2, n_grid)
            checks.check_music_peaks(pseudo, bins)


class ResolutionWorkload(SweepWorkload):
    """``resolution_sweep`` at model order 2, separations given in units of 1/N."""

    probabilities = True

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.trials = sizes.resolution_trials
        self.narrow = {name: 0 for name in METHODS}

    def x_values(self):
        # resolution_sweep takes separations in units of 1/n_grid
        sizes = self.sizes
        return [s * sizes.n_grid / sizes.n for s in sizes.separations]

    def sweep(self, x_values, seed, trials):
        sizes = self.sizes
        return evaluate.resolution_sweep(
            self.methods, separations=x_values, snr_db=sizes.resolution_snr_db,
            trials=trials, n=sizes.n, n_grid=sizes.n_grid, seed=seed,
        )

    def after(self, report):
        for name in METHODS:
            self.narrow[name] += round(report.curves[name][0] * self.trials)

    def check(self):
        super().check()
        checks.check_music_beats_periodogram(
            self.narrow["music"], self.narrow["periodogram"], self.sizes.separations[0]
        )


class PsnrWorkload(SweepWorkload):
    """``psnr_vs_snr`` on scenes of 1 to 10 tones, so OMP runs up to 10 iterations."""

    def __init__(self, seed, sizes):
        super().__init__(seed, sizes)
        self.trials = sizes.psnr_trials

    def x_values(self):
        return list(self.sizes.psnr_snrs_db)

    def sweep(self, x_values, seed, trials):
        sizes = self.sizes
        return evaluate.psnr_vs_snr(
            self.methods, snr_grid=x_values, trials=trials,
            n=sizes.n, n_grid=sizes.n_grid, seed=seed,
        )


WORKLOADS = {
    "train-swinfreq": lambda seed, sizes: TrainWorkload("swinfreq", seed, sizes),
    "infer-swinfreq": lambda seed, sizes: InferWorkload("swinfreq", seed, sizes),
    "infer-cvswinfreq": lambda seed, sizes: InferWorkload("cvswinfreq", seed, sizes),
    "sweep-resolution": ResolutionWorkload,
    "sweep-psnr": PsnrWorkload,
}

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mib": "MiB", "items_per_s": "items/s", "latency_ms": "ms"}


def summarize(values):
    """Sample count, median and quartiles of one metric's samples."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def run_benchmark(name, seed, seconds, trace, sizes=FULL, import_s=0.0):
    """Set up, measure for ``seconds`` and check one workload.

    Returns ``(result, details, tracer)``: ``result`` is the object the
    command prints, ``details`` the per-metric sample summaries, and
    ``tracer`` the spans of a traced run (``None`` otherwise).  A traced
    run measures the first half of its time untraced and the second half
    traced; its metrics are the per-layer ones, and the end-to-end
    figures of both halves give the tracing overhead.
    """
    factory = WORKLOADS[name]
    setup_times = []
    for _ in range(sizes.setup_repeats):
        workload = None  # free the previous set-up before timing the next
        gc.collect()
        start = time.perf_counter()
        workload = factory(seed, sizes)
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    gc.collect()

    counts = {"attempted": 0, "failed": 0}
    plain = {"items_per_s": [], "latency_ms": []}
    traced = {"items_per_s": [], "latency_ms": []}

    def measure(duration, samples):
        start = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - start < duration:
            figures, attempted, failed = workload.round()
            rounds += 1
            counts["attempted"] += attempted
            counts["failed"] += failed
            for key, values in figures.items():
                samples[key].extend(values)
            gc.collect()

    tracer = None
    failure = None
    try:
        if trace:
            measure(seconds / 2, plain)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                measure(seconds / 2, traced)
            finally:
                tracer.uninstall()
        else:
            measure(seconds, plain)
        workload.check()
    except checks.CheckError as exc:
        failure = str(exc)

    details = {"setup_s": summarize(setup_times), "import_s": import_s}
    metrics = {}
    if all(plain.values()) and (not trace or all(traced.values())):
        details.update({key: summarize(values) for key, values in plain.items()})
        if trace:
            details["traced"] = {key: summarize(values) for key, values in traced.items()}
            details["overhead"] = {
                key: details["traced"][key]["median"] - details[key]["median"] for key in plain
            }
            slowdown = details["items_per_s"]["median"] / details["traced"]["items_per_s"]["median"]
            metrics = tracing.per_layer_metrics(tracer, (slowdown - 1.0) * 100.0)
        else:
            values = {
                "setup_s": import_s + statistics.median(setup_times),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "items_per_s": details["items_per_s"]["median"],
                "latency_ms": details["latency_ms"]["median"],
            }
            metrics = {key: {"value": v, "unit": END_TO_END_UNITS[key]} for key, v in values.items()}
    if failure is not None:
        details["failure"] = failure
    result = {
        "correct": failure is None,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }
    return result, details, tracer
