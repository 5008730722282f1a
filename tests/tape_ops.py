"""Tape ops that no model uses, for the composite oracles of the unit tests.

The package keeps only the ops its models run; a one-node op is checked
against a composite written from elementwise ops, some of which are
these.  Each follows the package's gradient convention: a complex
tensor's gradient is dL/dRe + i dL/dIm.  :func:`composite_wmsa` is the
window attention as the chain of such nodes that ``cvops.wmsa`` replaces.
"""

import numpy as np

from spectralsr.autodiff import ROOT_EPS, Tensor, softmax
from spectralsr.cvops import (
    _rpe_index,
    cv_softmax,
    cyclic_shift,
    shift_attention_mask,
    window_partition,
    window_reverse,
)


def _wrap(t):
    return t if isinstance(t, Tensor) else Tensor(t)


def real_part(z):
    return Tensor(z.data.real, _parents=(z,), _backward=lambda g: z._accumulate(g))


def imag_part(z):
    return Tensor(z.data.imag, _parents=(z,), _backward=lambda g: z._accumulate(1j * g))


def join(re, im):
    """The complex tensor ``re + i im`` of two real tensors of one shape."""
    data = np.empty(re.shape, dtype=np.complex128)
    data.real = re.data
    data.imag = im.data

    def back(g):
        re._accumulate(g.real)
        im._accumulate(g.imag)

    return Tensor(data, _parents=(re, im), _backward=back)


def div(a, b):
    """``a / b`` of tensors or constants."""
    a, b = _wrap(a), _wrap(b)

    def back(g):
        a._accumulate(g / np.conj(b.data))
        b._accumulate(-g * np.conj(a.data) / np.conj(b.data) ** 2)

    return Tensor(a.data / b.data, _parents=(a, b), _backward=back)


def sqrt(x):
    """Square root of a real tensor; ``ROOT_EPS`` floors the derivative's denominator."""
    root = np.sqrt(x.data)

    def back(g):
        x._accumulate(g / (2.0 * np.maximum(root, ROOT_EPS)))

    return Tensor(root, _parents=(x,), _backward=back)


def swap_last2(x):
    """``x`` with its last two axes swapped."""
    return x.transpose(tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2))


def gather_last(x, idx):
    """Fancy-index the last axis with an integer array (duplicates allowed)."""
    idx = np.asarray(idx)

    def back(g):
        full = np.zeros_like(x.data)
        flat = full.reshape(-1, x.shape[-1])
        rows = np.arange(flat.shape[0])[:, None]
        # np.add.at is unbuffered, so duplicate indices of a row add up
        np.add.at(flat, (rows, idx.reshape(1, -1)), g.reshape(flat.shape[0], -1))
        x._accumulate(full)

    return Tensor(x.data[..., idx], _parents=(x,), _backward=back)


def composite_wmsa(x, params, window, shift=0, return_weights=False):
    """``cvops.wmsa`` as a chain of small tape nodes: roll, partition, one
    GEMM per projection, scale, ``q @ kᵀ``, positional bias, mask, softmax,
    ``attn @ v``, head merge, output projection, reverse and roll back."""
    m, c = x.shape[-2], x.shape[-1]
    h, d = params.heads, params.dim
    if shift:
        x = cyclic_shift(x, -shift)
    win = window_partition(x, window)  # [..., nw, W, C]
    nw = win.shape[-3]
    lead = win.shape[:-3]

    def heads(weight, bias):
        """One GEMM for all heads: [..., nw, W, C] @ [C, h*d], then [..., h, nw, W, d]."""
        y = win @ weight.transpose((1, 0, 2)).reshape(c, h * d)
        if bias is not None:
            y = y + bias.reshape(h * d)
        n = len(lead)
        return y.reshape(*lead, nw, window, h, d).transpose(
            tuple(range(n)) + (n + 2, n, n + 1, n + 3)
        )

    q = heads(params.wq, params.bq) * (1.0 / np.sqrt(d))
    k = heads(params.wk, params.bk)
    v = heads(params.wv, params.bv)
    # plain (not conjugate) transpose of K on the complex path
    logits = q @ swap_last2(k)
    logits = logits + gather_last(params.rpe, _rpe_index(window)).reshape(h, 1, window, window)
    mask = shift_attention_mask(m, window, shift)[None] if shift else None
    if logits.data.dtype.kind == "c":
        attn = cv_softmax(logits, modulus_bias=mask)
    else:
        attn = softmax(logits if mask is None else logits + mask)
    ctx = attn @ v  # [..., h, nw, W, d]
    perm = tuple(range(ctx.ndim - 4)) + (ctx.ndim - 3, ctx.ndim - 2, ctx.ndim - 4, ctx.ndim - 1)
    ctx = ctx.transpose(perm).reshape(*lead, nw, window, h * d)
    out = window_reverse(ctx @ params.out_w + params.out_b, window)
    if shift:
        out = cyclic_shift(out, shift)
    if return_weights:
        return out, attn
    return out
