"""SwinFreq / CVSwinFreq forward graphs, parameter store, and checkpoints.

Both variants share the complex front end (linear + conv spectral feature
extractor) and the real transposed-convolution head.  The real variant
takes the modulus right after the front end; the complex variant carries
complex features through every block and takes the modulus just before
the head.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import math
import os
import typing
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .autodiff import Tensor, conv1d, conv_transpose1d, no_grad
from .cvops import (
    AttentionParams,
    CTensor,
    cprelu,
    cv_layer_norm,
    cv_linear,
    init_params,
    layer_norm,
    mlp,
    wmsa,
)
from .signals import is_shape, minmax_normalize, read_file, write_file

VARIANTS = ("swinfreq", "cvswinfreq")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters shared by both variants."""

    variant: str
    n: int = 64          # input samples
    n_sr: int = 4096     # output grid
    channels: int = 32   # feature channels C
    inner: int = 256     # inner feature length M
    window: int = 16     # attention window W
    heads: int = 8
    attn_dim: int = 4    # per-head dimension d
    depth: int = 3       # layers per block D
    blocks: int = 4      # block count B
    mf_mid: int = 2      # front-end intermediate channels
    mlp_ratio: int = 4

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        for name, value in asdict(self).items():
            if name != "variant" and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.inner % self.window != 0:
            raise ValueError("window must divide the inner feature length")
        if self.n_sr % self.inner != 0:
            raise ValueError("inner feature length must divide the output grid size")
        if (self.n_sr // self.inner) % 2 != 0:
            raise ValueError("upsampling stride must be even")

    @property
    def stride(self):
        return self.n_sr // self.inner

    @property
    def head_kernel(self):
        return 2 * self.stride

    @property
    def is_complex(self):
        return self.variant == "cvswinfreq"

    def hash(self):
        payload = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def config_from_json(cls, value):
    """``cls(**value)`` for a config dataclass ``cls`` and a decoded JSON ``value``.

    Raises ``ValueError`` unless ``value`` is an object whose keys are
    fields of ``cls``, that gives every field without a default, and whose
    values match their field's annotation: an ``int`` field takes no bool,
    a ``float`` field also takes an int, and ``X | None`` also takes null.
    """
    if not isinstance(value, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(value).__name__}")
    hints = typing.get_type_hints(cls)
    by_name = {f.name: f for f in fields(cls)}
    for name, item in value.items():
        if name not in by_name:
            raise ValueError(f"{cls.__name__} has no field {name!r}")
        types = typing.get_args(hints[name]) or (hints[name],)
        accepted = types + (int,) if float in types else types
        if not isinstance(item, accepted) or isinstance(item, bool) and bool not in types:
            expected = " | ".join("null" if t is type(None) else t.__name__ for t in types)
            raise ValueError(f"{cls.__name__}.{name} must be {expected}, got {item!r}")
    missing = [
        name for name, f in by_name.items()
        if name not in value and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValueError(f"{cls.__name__} needs {', '.join(missing)}")
    return cls(**value)


def default_config(variant):
    """Full-size configs; the complex variant halves the attention
    dimension and MLP ratio so the two models end up a similar size."""
    if variant == "swinfreq":
        return ModelConfig(variant="swinfreq", attn_dim=4, mlp_ratio=4)
    if variant == "cvswinfreq":
        return ModelConfig(variant="cvswinfreq", attn_dim=2, mlp_ratio=2)
    raise ValueError(f"unknown variant {variant!r}")


def micro_config(variant="swinfreq"):
    """Tiny config for gradient checking."""
    return ModelConfig(
        variant=variant, n=8, n_sr=32, channels=2, inner=16, window=4,
        heads=1, attn_dim=2, depth=1, blocks=1, mf_mid=1, mlp_ratio=2,
    )


def toy_config(variant="swinfreq"):
    """Desk-scale config used by the training sanity experiment."""
    return ModelConfig(
        variant=variant, n=64, n_sr=1024, channels=8, inner=64, window=8,
        heads=2, attn_dim=4 if variant == "swinfreq" else 2, depth=2,
        blocks=2, mf_mid=2, mlp_ratio=4 if variant == "swinfreq" else 2,
    )


class ParameterStore:
    """Named flat collection of real learnable tensors.

    ``add`` stores a complex parameter as a ``<name>.re`` / ``<name>.im``
    pair, so the scalar count already counts a complex weight as two.
    """

    def __init__(self, config, params=None, step=0, opt_state=None):
        self.config = config
        self.params: dict[str, Tensor] = params or {}
        self.step = step
        self.opt_state = opt_state or {}

    def add(self, name, tensor):
        if isinstance(tensor, CTensor):
            self.params[name + ".re"] = tensor.re
            self.params[name + ".im"] = tensor.im
        else:
            self.params[name] = tensor

    def get(self, name):
        """The real tensor ``name`` if stored, else the complex pair under it."""
        if name in self.params:
            return self.params[name]
        return CTensor(self.params[name + ".re"], self.params[name + ".im"])

    def count(self):
        return sum(t.size for t in self.params.values())

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def names(self):
        return sorted(self.params)


def _zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def _czeros(shape):
    return CTensor(_zeros(shape), _zeros(shape))


def _const(shape, value):
    return Tensor(np.full(shape, float(value)), requires_grad=True)


# layer-norm affine names (cv_layer_norm's affine order) and initial values, by is_complex
_NORM_INIT = {
    False: {"gamma": 1.0, "beta": 0.0},
    True: {"g_rr": 1.0, "g_ri": 0.0, "g_ir": 0.0, "g_ii": 1.0, "b_re": 0.0, "b_im": 0.0},
}


def _add_norm(store, prefix, c, is_complex):
    for name, value in _NORM_INIT[is_complex].items():
        store.add(f"{prefix}.{name}", _const(c, value))


def init_model(cfg, rng):
    """Create a freshly initialized parameter store for ``cfg``."""
    store = ParameterStore(cfg)
    c, w = cfg.channels, cfg.window
    h, d = cfg.heads, cfg.attn_dim
    hidden = cfg.mlp_ratio * c
    cx = cfg.is_complex

    add = store.add
    rayleigh = "cv_kaiming_rayleigh"
    add("mf.linear.w", init_params((cfg.n, cfg.inner * cfg.mf_mid), rayleigh, rng, cfg.n))
    add("mf.linear.b", _czeros(cfg.inner * cfg.mf_mid))
    add("mf.conv.w", init_params((c, cfg.mf_mid, 3), rayleigh, rng, cfg.mf_mid * 3))
    add("mf.conv.b", _czeros(c))

    kind = rayleigh if cx else "real_kaiming"
    bias = _czeros if cx else _zeros

    def weight(shape, fan_in):
        return init_params(shape, kind, rng, fan_in)

    for i in range(cfg.blocks):
        for k in range(cfg.depth):
            p = f"blocks.{i}.layers.{k}"
            _add_norm(store, p + ".ln1", c, cx)
            for name in ("wq", "wk", "wv"):
                add(f"{p}.attn.{name}", weight((h, c, d), c))
            # a real key bias only shifts each softmax row by a constant,
            # so it has no effect and is only created for the complex variant
            for name in ("bq", "bk", "bv") if cx else ("bq", "bv"):
                add(f"{p}.attn.{name}", bias((h, d)))
            add(p + ".attn.rpe", bias((h, 2 * w - 1)))
            add(p + ".attn.out_w", weight((h * d, c), h * d))
            add(p + ".attn.out_b", bias(c))
            _add_norm(store, p + ".ln2", c, cx)
            add(p + ".mlp.w1", weight((c, hidden), c))
            add(p + ".mlp.b1", bias(hidden))
            add(p + ".mlp.w2", weight((hidden, c), hidden))
            add(p + ".mlp.b2", bias(c))
            if cx:
                add(p + ".mlp.slope_re", _const((), 0.25))
                add(p + ".mlp.slope_im", _const((), 0.25))
        add(f"blocks.{i}.conv.w", weight((c, c, 3), c * 3))
        add(f"blocks.{i}.conv.b", bias(c))

    add("head.w", init_params((c, 1, cfg.head_kernel), "real_kaiming", rng, c * cfg.head_kernel))
    add("head.b", _zeros(1))
    return store


def param_count(cfg):
    """Total real scalar count for the architecture (complex counts as 2)."""
    return init_model(cfg, np.random.default_rng(0)).count()


# -- forward passes ----------------------------------------------------


def mf_forward(x, store):
    """Complex front end: linear N -> M*mid, reshape, conv to C channels.

    ``x`` is a complex [B, N] ``Tensor``.  Returns [B, M, C]; real
    (modulus) for the swinfreq variant.
    """
    cfg = store.config
    if x.ndim != 2:
        raise ValueError(f"expected a [batch, {cfg.n}] input, got shape {x.shape}")
    if x.shape[-1] != cfg.n:
        raise ValueError(f"expected input length {cfg.n}, got {x.shape[-1]}")
    y = cv_linear(x, store.get("mf.linear.w"), store.get("mf.linear.b"))
    y = y.reshape(x.shape[0], cfg.mf_mid, cfg.inner)
    y = _channel_conv(y, store.get("mf.conv.w"), store.get("mf.conv.b"))
    y = y.transpose((0, 2, 1))  # [B, M, C]
    if cfg.is_complex:
        return y
    return y.modulus()


def _norm(x, store, prefix):
    cx = store.config.is_complex
    affine = [store.get(f"{prefix}.{name}") for name in _NORM_INIT[cx]]
    return cv_layer_norm(x, affine) if cx else layer_norm(x, *affine)


def _attn_params(store, prefix, cfg):
    get = store.get
    return AttentionParams(
        wq=get(prefix + ".wq"), wk=get(prefix + ".wk"), wv=get(prefix + ".wv"),
        bq=get(prefix + ".bq"), bk=get(prefix + ".bk") if cfg.is_complex else None,
        bv=get(prefix + ".bv"),
        rpe=get(prefix + ".rpe"), out_w=get(prefix + ".out_w"),
        out_b=get(prefix + ".out_b"), heads=cfg.heads, dim=cfg.attn_dim,
    )


def sstl_forward(g, store, prefix, shift):
    """One (CV)SSTL: pre-norm attention and MLP, both with residuals."""
    cfg = store.config
    get = store.get
    g1 = wmsa(_norm(g, store, prefix + ".ln1"), _attn_params(store, prefix + ".attn", cfg),
              cfg.window, shift=shift) + g
    act = None
    if cfg.is_complex:
        sre, sim = get(prefix + ".mlp.slope_re"), get(prefix + ".mlp.slope_im")
        act = lambda z: cprelu(z, sre, sim)
    out = mlp(_norm(g1, store, prefix + ".ln2"),
              get(prefix + ".mlp.w1"), get(prefix + ".mlp.b1"),
              get(prefix + ".mlp.w2"), get(prefix + ".mlp.b2"), activation=act)
    return out + g1


def _channel_conv(x, weight, bias):
    """Shape-preserving 3-tap convolution of [B, Cin, M] to [B, Cout, M] plus a bias."""
    return conv1d(x, weight, padding=1) + bias.reshape(1, -1, 1)


def sstb_forward(f, store, block_index):
    """One (CV)SSTB: D chained layers, inner residual, closing convolution.

    Layer 1 uses the standard partition (shift 0); even layers shift by
    floor(W/2).
    """
    cfg = store.config
    g = f
    for k in range(cfg.depth):
        shift = 0 if k % 2 == 0 else cfg.window // 2
        g = sstl_forward(g, store, f"blocks.{block_index}.layers.{k}", shift)
    y = _channel_conv((f + g).transpose((0, 2, 1)), store.get(f"blocks.{block_index}.conv.w"),
                      store.get(f"blocks.{block_index}.conv.b"))
    return y.transpose((0, 2, 1))


def sr_forward(f0, store):
    """Residual block stack plus transposed-convolution reconstruction."""
    cfg = store.config
    f = f0
    for i in range(cfg.blocks):
        f = sstb_forward(f, store, i)
    head_in = f0 + f
    if cfg.is_complex:
        head_in = head_in.modulus()
    y = head_in.transpose((0, 2, 1))  # [B, C, M]
    crop = (cfg.head_kernel - cfg.stride) // 2
    y = conv_transpose1d(y, store.get("head.w"), stride=cfg.stride, crop=crop)
    y = y + store.get("head.b").reshape(1, 1, 1)
    y = y.relu()
    return y.reshape(y.shape[0], cfg.n_sr)


def model_forward_tensor(x, store):
    """Differentiable forward on an already-normalized complex tensor."""
    return sr_forward(mf_forward(x, store), store)


# A split batch keeps at least this many rows per piece: numpy sends a
# 1-row ``x @ W`` to gemv, whose sums round differently from the GEMM of a
# larger batch (up to 2.7e-15 relative in the front end's linear layer).
_MIN_PIECE_ROWS = 2
# ...and at least this many feature values (rows * inner * channels) per
# piece.  On smaller pieces most of the time is Python code under the
# interpreter lock, so the two threads take turns and pay for each
# hand-off.  On a 2-CPU machine with one BLAS thread the split broke even
# at 16384 values per piece (toy, 32 rows) and paid from the default
# config's 2-row pieces on; README "Batched inference on two CPUs" has
# the timings.
_MIN_PIECE_FEATURES = 16384


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def model_forward(signal, store):
    """Full inference: normalize, run the graph, return numpy spectra.

    Runs under :func:`~spectralsr.autodiff.no_grad`, so no tape is built
    and each intermediate is freed as soon as the next op has used it.

    The model treats each row on its own, so a batch whose halves each
    keep at least ``_MIN_PIECE_ROWS`` rows and ``_MIN_PIECE_FEATURES``
    feature values (from 4 rows at the default config, 64 at the toy one),
    in a process that may use at least two CPUs, is normalized whole and
    then run as two halves: the second in a worker thread (under a copy of
    the caller's context, so ``no_grad`` holds there too), the first in
    the caller's thread.  The worker is joined before anything is returned
    or raised, and the result is bit-identical to the unsplit call.
    Other batches run in the caller's thread alone.
    """
    arr = minmax_normalize(np.atleast_2d(np.asarray(signal, dtype=np.complex128)))
    with no_grad():
        cfg, half = store.config, len(arr) // 2
        if (arr.ndim == 2 and half >= _MIN_PIECE_ROWS
                and half * cfg.inner * cfg.channels >= _MIN_PIECE_FEATURES and _usable_cpus() >= 2):
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(1) as pool:
                second = pool.submit(contextvars.copy_context().run, model_forward_tensor,
                                     Tensor(arr[half:]), store)
                first = model_forward_tensor(Tensor(arr[:half]), store)
            result = np.concatenate([first.data, second.result().data])
        else:
            result = model_forward_tensor(Tensor(arr), store).data
    return result[0] if np.asarray(signal).ndim == 1 else result


# -- checkpoints -------------------------------------------------------


def save_checkpoint(store, path):
    """Write config, step, parameters and optimizer state to one file.

    The header lists every entry's name and shape in name order, and the
    payload holds the entries in that order as one flat float64 array.
    """
    entries = {name: tensor.data for name, tensor in store.params.items()}
    for name, state in store.opt_state.items():
        entries.update({f"opt.{key}.{name}": np.asarray(state[key]) for key in ("m", "v")})
    names = sorted(entries)
    header = {
        "config": asdict(store.config),
        "config_hash": store.config.hash(),
        "step": store.step,
        "entries": [[name, list(entries[name].shape)] for name in names],
    }
    write_file(path, header, np.concatenate([entries[name].ravel() for name in names]))


class CheckpointError(RuntimeError):
    pass


def load_checkpoint(path, expected_config=None):
    """Read a checkpoint; verifies the stored config hash and optionally
    that it matches ``expected_config``."""
    try:
        header, flat = read_file(path)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    try:
        cfg = config_from_json(ModelConfig, header.get("config"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: stored config: {exc}") from exc
    stored_hash = header.get("config_hash")
    if cfg.hash() != stored_hash:
        raise CheckpointError(f"{path}: config hash mismatch (corrupt header)")
    if expected_config is not None and expected_config.hash() != stored_hash:
        raise CheckpointError(
            f"{path}: checkpoint was trained with a different config"
        )
    step, entries = header.get("step"), header.get("entries")
    if type(step) is not int or step < 0:
        raise CheckpointError(f"{path}: step must be a non-negative integer, got {step!r}")
    if not isinstance(entries, list) or not all(
        isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and is_shape(e[1])
        for e in entries
    ):
        raise CheckpointError(f"{path}: entries must be a list of [name, shape] pairs")
    sizes = [math.prod(shape) for _, shape in entries]
    if flat.dtype != np.float64 or flat.shape != (sum(sizes),):
        raise CheckpointError(
            f"{path}: the entries hold {sum(sizes)} values, the payload has {flat.dtype} shape {flat.shape}"
        )
    params: dict[str, Tensor] = {}
    opt_state: dict[str, dict] = {}
    for (name, shape), data in zip(entries, np.split(flat, np.cumsum(sizes)[:-1])):
        try:
            data = data.reshape(shape)
        except ValueError as exc:  # more dimensions than numpy supports
            raise CheckpointError(f"{path}: {name}: {exc}") from exc
        if name.startswith("opt.m."):
            opt_state.setdefault(name[6:], {})["m"] = data
        elif name.startswith("opt.v."):
            opt_state.setdefault(name[6:], {})["v"] = data
        else:
            params[name] = Tensor(data, requires_grad=True)
    _check_params(path, cfg, params, opt_state)
    return ParameterStore(cfg, params, step=step, opt_state=opt_state)


def _check_params(path, cfg, params, opt_state):
    """Raise ``CheckpointError`` naming the first parameter, in name order,
    that is missing, extra, or shaped unlike in ``init_model(cfg)``, then
    the first optimizer entry that lacks its ``m`` / ``v`` pair, names no
    parameter, or is shaped unlike its parameter."""
    expected = init_model(cfg, np.random.default_rng(0)).params
    for name in sorted(expected.keys() | params.keys()):
        if name not in params:
            raise CheckpointError(f"{path}: parameter {name} is missing")
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected parameter {name}")
        if params[name].shape != expected[name].shape:
            raise CheckpointError(
                f"{path}: parameter {name} has shape {params[name].shape}, "
                f"expected {expected[name].shape}"
            )
    for name in sorted(opt_state):
        for key in ("m", "v"):
            entry = f"opt.{key}.{name}"
            if key not in opt_state[name]:
                raise CheckpointError(f"{path}: optimizer entry {entry} is missing")
            if name not in expected:
                raise CheckpointError(f"{path}: optimizer entry {entry} names no parameter")
            if opt_state[name][key].shape != expected[name].shape:
                raise CheckpointError(
                    f"{path}: optimizer entry {entry} has shape {opt_state[name][key].shape}, "
                    f"expected {expected[name].shape}"
                )
