"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces chosen functions of the ``spectralsr`` modules
with wrappers that record one span each (name, start, end, parent span)
and puts the originals back on ``uninstall``.  A function imported by
name into another module is replaced there too, so every call site is
seen.  No package file is touched.

``per_layer_metrics`` turns the spans into the per-layer figures listed
in ``BENCHMARK.json``: self times (a span's duration minus the part its
child spans cover, except for the ``INCLUSIVE`` metrics) and counts,
normalised per step, per signal or per call as ``PER_LAYER`` says.
"""

from __future__ import annotations

import sys
import time

# The tracer's own work inside a traced call (walking the autodiff graph)
# runs in a span of this name, so it is subtracted from its parent's self
# time and counted in no layer.
OVERHEAD = "trace.overhead"

# (module, attribute, span name).  ``Tensor.backward`` is a method and is
# wrapped on the class; ``sstb_forward`` gets its block index appended.
TRACED = [
    ("autodiff", "Tensor.backward", "autodiff.backward"),
    ("autodiff", "softmax", "cvops.softmax"),
    ("cvops", "cv_softmax", "cvops.cv_softmax"),
    ("cvops", "layer_norm", "cvops.layer_norm"),
    ("cvops", "cv_layer_norm", "cvops.cv_layer_norm"),
    ("cvops", "wmsa", "cvops.wmsa"),
    ("cvops", "mlp", "cvops.mlp"),
    ("model", "mf_forward", "model.mf"),
    ("model", "sstb_forward", "model.sstb"),
    ("model", "sr_forward", "model.head"),
    ("model", "model_forward", "model.normalize"),
    ("model", "model_forward_tensor", "model.forward_tensor"),
    ("train", "make_batch", "train.make_batch"),
    ("train", "_mse_loss", "train.forward"),
    ("train", "adamw_step", "train.adamw"),
    ("train", "validation_psnr", "train.validation"),
    ("signals", "render_target", "signals.render_target"),
    ("signals", "synthesize", "signals.synthesize"),
    ("signals", "sample_scene", "signals.sample_scene"),
    ("classical", "periodogram", "classical.periodogram"),
    ("classical", "music", "classical.music"),
    ("classical", "omp", "classical.omp"),
    ("evaluate", "resolution_decision", "evaluate.decision"),
    ("evaluate", "psnr", "evaluate.psnr"),
    ("evaluate", "resolution_sweep", "evaluate.driver"),
    ("evaluate", "psnr_vs_snr", "evaluate.driver"),
]

MAX_BLOCKS = 4  # default_config has four SSTBs; the toy config has two

# metric name -> (unit, spans whose self times it sums or None for a
# count, normaliser).  Normalisers: "step" (Tensor.backward calls),
# "epoch" (validation_psnr calls), "signal" (rows through
# model_forward_tensor), "call" (calls of the named spans), "trial" (trials
# resolution_sweep and psnr_vs_snr report).
PER_LAYER = {
    "autodiff.backward_s": ("s", ["autodiff.backward"], "step"),
    "autodiff.tape_nodes": ("count", None, None),
    "autodiff.tape_mib": ("MiB", None, None),
    "train.make_batch_s": ("s", ["train.make_batch"], "step"),
    "train.forward_s": ("s", ["train.forward"], "step"),
    "train.adamw_s": ("s", ["train.adamw"], "step"),
    "train.validation_s": ("s", ["train.validation"], "epoch"),
    "model.mf_s": ("s", ["model.mf"], "signal"),
    **{f"model.sstb{i}_s": ("s", [f"model.sstb{i}"], "signal") for i in range(MAX_BLOCKS)},
    "model.head_s": ("s", ["model.head"], "signal"),
    "model.normalize_s": ("s", ["model.normalize"], "signal"),
    "cvops.wmsa_s": ("s", ["cvops.wmsa"], "signal"),
    "cvops.softmax_s": ("s", ["cvops.softmax", "cvops.cv_softmax"], "signal"),
    "cvops.norm_s": ("s", ["cvops.layer_norm", "cvops.cv_layer_norm"], "signal"),
    "cvops.mlp_s": ("s", ["cvops.mlp"], "signal"),
    "signals.render_target_ms": ("ms", ["signals.render_target"], "call"),
    "signals.synthesize_ms": ("ms", ["signals.synthesize"], "call"),
    "signals.sample_scene_ms": ("ms", ["signals.sample_scene"], "call"),
    "classical.periodogram_ms": ("ms", ["classical.periodogram"], "call"),
    "classical.music_ms": ("ms", ["classical.music"], "call"),
    "classical.omp_ms": ("ms", ["classical.omp"], "call"),
    "classical.omp_iterations": ("count", None, None),
    "evaluate.decision_ms": ("ms", ["evaluate.decision"], "call"),
    "evaluate.psnr_ms": ("ms", ["evaluate.psnr"], "call"),
    "evaluate.driver_s": ("s", ["evaluate.driver"], "trial"),
    "trace.overhead_pct": ("%", None, None),
}

# Metrics that keep their children's time: the whole training forward and
# validation, and whole blocks, so that identical blocks compare directly.
INCLUSIVE = {"train.forward_s", "train.validation_s"} | {
    f"model.sstb{i}_s" for i in range(MAX_BLOCKS)
}


def tape_size(root):
    """Nodes reachable from ``root`` through ``_parents`` and the MiB their
    arrays hold (computed from array sizes, not measured)."""
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.data.nbytes
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), nbytes / 2**20


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._restore = []
        self.tapes = {"loss": [], "output": []}  # (nodes, MiB) per graph
        self.rows = 0            # signals through model_forward_tensor
        self.omp_iterations = []
        self.trials = 0          # trials reported by the sweep functions

    # -- spans ---------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _measure_tape(self, kind, root):
        index = self._open(OVERHEAD)
        try:
            self.tapes[kind].append(tape_size(root))
        finally:
            self._close(index)

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            span = name
            if name == "model.sstb":
                span = f"model.sstb{kwargs.get('block_index', args[2] if len(args) > 2 else 0)}"
            elif name == "autodiff.backward":
                tracer._measure_tape("loss", args[0])
            index = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if name == "model.forward_tensor":
                tracer.rows += args[0].shape[0]
                tracer._measure_tape("output", result)
            elif name == "classical.omp":
                tracer.omp_iterations.append(len(result.residual_history) - 1)
            elif name == "evaluate.driver":
                tracer.trials += sum(result.trial_counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function in ``TRACED`` wherever the package refers to it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "spectralsr" or n.startswith("spectralsr.")]
        for module_name, attr, span in TRACED:
            home = sys.modules[f"spectralsr.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(original, span))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []


def self_times(spans):
    """Per span: duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def inclusive_times(spans):
    """Per span: duration minus the tracer's own overhead spans beneath it."""
    out = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if name == OVERHEAD:
            while parent >= 0:
                out[parent] -= end - start
                parent = spans[parent][3]
    return out


def per_layer_metrics(tracer, overhead_pct):
    """Every metric in ``PER_LAYER``; 0 where the workload ran no such work."""
    self_sum, incl_sum, calls = {}, {}, {}
    for span, own, inclusive in zip(
        tracer.spans, self_times(tracer.spans), inclusive_times(tracer.spans)
    ):
        name = span[0]
        self_sum[name] = self_sum.get(name, 0.0) + own
        incl_sum[name] = incl_sum.get(name, 0.0) + inclusive
        calls[name] = calls.get(name, 0) + 1
    denominators = {
        "step": calls.get("autodiff.backward", 0),
        "epoch": calls.get("train.validation", 0),
        "signal": tracer.rows,
        "trial": tracer.trials,
    }
    tape = tracer.tapes["loss"] or tracer.tapes["output"]
    metrics = {}
    for metric, (unit, names, per) in PER_LAYER.items():
        if metric == "autodiff.tape_nodes":
            value = max((n for n, _ in tape), default=0)
        elif metric == "autodiff.tape_mib":
            value = max((mib for _, mib in tape), default=0.0)
        elif metric == "classical.omp_iterations":
            its = tracer.omp_iterations
            value = sum(its) / len(its) if its else 0.0
        elif metric == "trace.overhead_pct":
            value = overhead_pct
        else:
            times = incl_sum if metric in INCLUSIVE else self_sum
            total = sum(times.get(name, 0.0) for name in names)
            count = sum(calls.get(name, 0) for name in names)
            denominator = count if per == "call" else denominators[per]
            scale = 1e3 if unit == "ms" else 1.0
            value = total * scale / denominator if denominator else 0.0
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
