"""Complex-valued differentiable operators built on the real autodiff engine.

A complex tensor is a pair of real :class:`~spectralsr.autodiff.Tensor`
objects (real and imaginary parts).  A real loss is then differentiated
with respect to both parts independently, which makes finite-difference
validation straightforward (see :func:`grad_check`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, conv1d, modulus, no_grad, softmax, where

SOFTMAX_EPS = 1e-12  # below this modulus the phase is defined as 1
NORM_EPS = 1e-5  # variance ridge of the real and complex layer norms
MASK_NEG = -1e9  # additive attention logit of a masked pair


@dataclass
class CTensor:
    """A complex tensor as independent real/imaginary real tensors."""

    re: Tensor
    im: Tensor

    @property
    def shape(self):
        return self.re.shape

    @property
    def ndim(self):
        return self.re.ndim

    def numpy(self):
        return self.re.data + 1j * self.im.data

    @staticmethod
    def from_numpy(z, requires_grad=False):
        z = np.asarray(z, dtype=np.complex128)
        return CTensor(Tensor(z.real.copy(), requires_grad), Tensor(z.imag.copy(), requires_grad))

    def __add__(self, other):
        return CTensor(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        """Scale both parts by a real constant or real tensor."""
        return CTensor(self.re * other, self.im * other)

    def reshape(self, *shape):
        return CTensor(self.re.reshape(*shape), self.im.reshape(*shape))

    def transpose(self, axes):
        return CTensor(self.re.transpose(axes), self.im.transpose(axes))

    def swap_last2(self):
        return CTensor(self.re.swap_last2(), self.im.swap_last2())

    def roll(self, shift, axis):
        return CTensor(self.re.roll(shift, axis), self.im.roll(shift, axis))

    def gather_last(self, idx):
        return CTensor(self.re.gather_last(idx), self.im.gather_last(idx))

    def __matmul__(self, other):
        return cmatmul(self, other)

    def modulus(self):
        return modulus(self.re, self.im)


def _gauss(product, x, w):
    """A real-bilinear ``product`` of complex ``x`` and ``w`` in three real products.

    Re(y) = k1 - k3, Im(y) = k1 + k2 with
    k1 = (Re x + Im x) Re w, k2 = Re x (Im w - Re w), k3 = Im x (Re w + Im w).
    """
    k1 = product(x.re + x.im, w.re)
    k2 = product(x.re, w.im - w.re)
    k3 = product(x.im, w.re + w.im)
    return CTensor(k1 - k3, k1 + k2)


def cmatmul(x, w):
    """Complex matrix product via Gauss' three-multiplication trick."""
    return _gauss(operator.matmul, x, w)


def cv_linear(x, weight, bias=None):
    """y = x W + b for complex x [..., in], W [in, out], b [out]."""
    y = cmatmul(x, weight)
    return y if bias is None else y + bias


def cv_conv1d(x, kernel, padding=0):
    """Complex 1-D convolution, x [B, Cin, M], kernel [Cout, Cin, k].

    Uses the same three-product decomposition as :func:`cmatmul`; the
    identity holds for any bilinear product.
    """
    return _gauss(lambda a, b: conv1d(a, b, padding=padding), x, kernel)


def cv_softmax(x, modulus_bias=None):
    """Softmax on the moduli, over the last axis, with phases carried through unchanged.

    Entries with modulus below ``SOFTMAX_EPS`` are treated as having phase 1
    (output is the real weight).  ``modulus_bias`` is an additive constant
    array applied to the moduli before the softmax (used for attention
    masking: large negative bias drives the weight to zero).
    """
    m = x.modulus()
    logits = m if modulus_bias is None else m + np.asarray(modulus_bias, dtype=np.float64)
    w = softmax(logits)
    small = m.data < SOFTMAX_EPS
    scale = w / m.clamp_min(SOFTMAX_EPS)
    out_re = where(small, w, scale * x.re)
    out_im = where(small, Tensor(np.zeros_like(m.data)), scale * x.im)
    return CTensor(out_re, out_im)


def layer_norm(x, gamma, beta):
    """Standard layer norm over the last axis for real tensors, as one node.

    With ``xhat = (x - mean) * rstd`` and ``gh = g * gamma``, backward is
    ``rstd * (gh - mean(gh) - xhat * mean(gh * xhat))`` for ``x``,
    ``sum(g * xhat)`` for ``gamma`` and ``sum(g)`` for ``beta``.
    """
    scale = 1.0 / x.shape[-1]
    c = x.data - x.data.sum(axis=-1, keepdims=True) * scale
    std = np.sqrt((c * c).sum(axis=-1, keepdims=True) * scale + NORM_EPS)
    xhat = c / std
    rstd = 1.0 / std

    def back(g):
        gh = g * gamma.data
        mean_gh = gh.sum(axis=-1, keepdims=True) * scale
        mean_ghx = (gh * xhat).sum(axis=-1, keepdims=True) * scale
        x._accumulate(rstd * (gh - mean_gh - xhat * mean_ghx))
        gamma._accumulate(g * xhat)
        beta._accumulate(g)

    return Tensor(xhat * gamma.data + beta.data, _parents=(x, gamma, beta), _backward=back)


def cv_layer_norm(x, affine=None):
    """Whitening layer norm for complex tensors over the last (channel) axis.

    Subtracts the complex mean, then whitens the 2x2 covariance of
    (Re, Im) aggregated over channels with a closed-form inverse matrix
    square root (ridge ``NORM_EPS`` on the diagonal), then applies the
    optional affine: the per-channel tensors ``(g_rr, g_ri, g_ir, g_ii,
    b_re, b_im)`` of a 2x2 real matrix and a complex shift.
    """
    if x.shape[-1] < 2:
        raise ValueError("complex layer norm needs at least 2 channels")
    cr = x.re - x.re.mean(axis=-1, keepdims=True)
    ci = x.im - x.im.mean(axis=-1, keepdims=True)
    vrr = (cr * cr).mean(axis=-1, keepdims=True) + NORM_EPS
    vii = (ci * ci).mean(axis=-1, keepdims=True) + NORM_EPS
    vri = (cr * ci).mean(axis=-1, keepdims=True)
    # closed-form inverse sqrt of [[vrr, vri], [vri, vii]]
    s = (vrr * vii - vri * vri).sqrt()
    t = (vrr + vii + 2.0 * s).sqrt()
    inv = 1.0 / (s * t)
    wr = ((vii + s) * cr - vri * ci) * inv
    wi = (-vri * cr + (vrr + s) * ci) * inv
    if affine is None:
        return CTensor(wr, wi)
    g_rr, g_ri, g_ir, g_ii, b_re, b_im = affine
    return CTensor(g_rr * wr + g_ri * wi + b_re, g_ir * wr + g_ii * wi + b_im)


def prelu(x, slope):
    """PReLU with a learnable negative slope, as one node.

    Backward: ``g * (1 if x > 0 else slope)`` for ``x`` and
    ``sum(g * min(x, 0))`` for ``slope``.
    """
    neg = np.minimum(x.data, 0.0)

    def back(g):
        x._accumulate(g * np.where(x.data > 0.0, 1.0, slope.data))
        slope._accumulate(g * neg)

    return Tensor(np.maximum(x.data, 0.0) + slope.data * neg, _parents=(x, slope), _backward=back)


def cprelu(x, slope_re, slope_im):
    """PReLU applied independently to real and imaginary parts."""
    return CTensor(prelu(x.re, slope_re), prelu(x.im, slope_im))


def gelu(x):
    """Exact (erf-based) GELU ``x * Phi(x)`` as one node.

    Backward: ``g * (Phi(x) + x * phi(x))``, with ``Phi`` from the forward
    ``erf`` call and ``phi`` the standard normal density.  ``erf`` is
    the package's only scipy use, so scipy is imported here, on the first
    GELU, rather than with the package.
    """
    from scipy.special import erf

    cdf2 = erf(x.data * (1.0 / np.sqrt(2.0))) + 1.0  # 2 * Phi(x)

    def back(g):
        density = np.exp(-0.5 * x.data**2) * (1.0 / np.sqrt(2.0 * np.pi))
        x._accumulate(g * (0.5 * cdf2 + x.data * density))

    return Tensor(x.data * 0.5 * cdf2, _parents=(x,), _backward=back)


def window_partition(x, window):
    """[..., M, C] -> [..., M/W, W, C] contiguous non-overlapping windows."""
    m, c = x.shape[-2], x.shape[-1]
    if m % window != 0:
        raise ValueError(f"window size {window} does not divide length {m}")
    lead = x.shape[:-2]
    return x.reshape(*lead, m // window, window, c)


def window_reverse(x, window):
    """Inverse of :func:`window_partition`."""
    lead = x.shape[:-3]
    nw, w, c = x.shape[-3], x.shape[-2], x.shape[-1]
    if w != window:
        raise ValueError("window size mismatch")
    return x.reshape(*lead, nw * w, c)


def cyclic_shift(x, shift):
    """Circular rotation along the sequence axis (second to last)."""
    if shift % x.shape[-2] == 0:
        return x
    return x.roll(shift, axis=x.ndim - 2)


def shift_attention_mask(m, window, shift):
    """Additive mask [M/W, W, W] forbidding cross-segment pairs after a
    cyclic shift by ``-shift``: position p in the rolled sequence came from
    original index (p + shift) mod M, and pairs may only attend within a
    contiguous original segment."""
    nw = m // window
    mask = np.zeros((nw, window, window))
    if shift == 0:
        return mask
    p = np.arange(m)
    wrapped = (p + shift) >= m
    wrapped = wrapped.reshape(nw, window)
    cross = wrapped[:, :, None] != wrapped[:, None, :]
    mask[cross] = MASK_NEG
    return mask


@dataclass
class AttentionParams:
    """Projections and relative positional table for one (CV)W-MSA layer.

    ``wq/wk/wv`` have shape [h, C, d]; ``rpe`` has shape [h, 2W-1] and is
    expanded to per-pair biases by relative offset; ``out_w`` maps the
    h*d concatenation back to C channels.  All tensors are ``Tensor`` for
    the real path or ``CTensor`` for the complex path.

    ``bk`` is ``None`` on the real path: a key bias adds ``q_i . bk`` to
    every logit of row ``i``, and softmax is unchanged by a constant added
    to a whole row, so the term has no effect and a zero gradient.  A real
    ``bk`` may still be passed and is applied.  The complex path keeps
    ``bk`` because the modulus softmax is not shift-invariant.
    """

    wq: object
    wk: object
    wv: object
    bq: object
    bk: object
    bv: object
    rpe: object
    out_w: object
    out_b: object
    heads: int
    dim: int


def _rpe_index(window):
    rel = np.arange(window)[:, None] - np.arange(window)[None, :]
    return rel + window - 1


def wmsa(x, params, window, shift=0, return_weights=False):
    """Windowed multi-head self-attention with optional shifted partition.

    ``x`` is [..., M, C], real (``Tensor``) or complex (``CTensor``), and
    ``params`` holds tensors of the same kind.  The two paths differ only
    in the softmax: the complex one weights by modulus and keeps phases.
    When ``shift`` > 0 the sequence is cyclically rotated by ``-shift``
    before partitioning and cross-segment pairs are masked out; the
    rotation is undone on the way out.
    """
    m, c = x.shape[-2], x.shape[-1]
    h, d = params.heads, params.dim
    if shift:
        x = cyclic_shift(x, -shift)
    win = window_partition(x, window)  # [..., nw, W, C]
    nw = win.shape[-3]
    lead = win.shape[:-3]
    # insert a head axis so [h, C, d] projections broadcast over windows
    wide = win.reshape(*lead, 1, nw, window, c)

    q = wide @ params.wq.reshape(h, 1, c, d) + params.bq.reshape(h, 1, 1, d)
    k = wide @ params.wk.reshape(h, 1, c, d)
    if params.bk is not None:
        k = k + params.bk.reshape(h, 1, 1, d)
    v = wide @ params.wv.reshape(h, 1, c, d) + params.bv.reshape(h, 1, 1, d)
    # plain (not conjugate) transpose of K on the complex path
    logits = (q @ k.swap_last2()) * (1.0 / np.sqrt(d))
    logits = logits + params.rpe.gather_last(_rpe_index(window)).reshape(h, 1, window, window)
    mask = shift_attention_mask(m, window, shift)[None]
    if isinstance(logits, CTensor):
        attn = cv_softmax(logits, modulus_bias=mask)
    else:
        attn = softmax(logits + mask, axis=-1)
    ctx = attn @ v  # [..., h, nw, W, d]
    perm = tuple(range(ctx.ndim - 4)) + (ctx.ndim - 3, ctx.ndim - 2, ctx.ndim - 4, ctx.ndim - 1)
    ctx = ctx.transpose(perm).reshape(*lead, nw, window, h * d)
    out = window_reverse(ctx @ params.out_w + params.out_b, window)
    if shift:
        out = cyclic_shift(out, shift)
    if return_weights:
        return out, attn
    return out


def mlp(x, w1, b1, w2, b2, activation=None):
    """Two linear layers with a nonlinearity in between.

    ``activation`` defaults to GELU, which is real-only; complex inputs
    pass a CTensor -> CTensor callable (typically CPReLU).
    """
    hidden = x @ w1 + b1
    hidden = gelu(hidden) if activation is None else activation(hidden)
    return hidden @ w2 + b2


def init_params(shape, kind, rng, fan_in):
    """Draw an initial weight tensor.

    ``cv_kaiming_rayleigh``: complex weights with Rayleigh modulus
    (scale 1/sqrt(fan_in)) and uniform phase, returned as a CTensor.
    ``real_kaiming``: zero-mean normal with std 1/sqrt(fan_in).
    ``fan_in`` is given by the caller: for a convolution kernel it is
    input channels times taps, which no rule on the shape alone gives.
    """
    shape = tuple(shape)
    if kind == "cv_kaiming_rayleigh":
        sigma = 1.0 / np.sqrt(fan_in)
        mod = sigma * np.sqrt(-2.0 * np.log(rng.uniform(1e-300, 1.0, size=shape)))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=shape)
        return CTensor(
            Tensor(mod * np.cos(phase), requires_grad=True),
            Tensor(mod * np.sin(phase), requires_grad=True),
        )
    if kind == "real_kaiming":
        return Tensor(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape), requires_grad=True)
    raise ValueError(f"unknown init kind: {kind}")


def _leaf_tensors(leaves):
    flat = []
    for leaf in leaves:
        if isinstance(leaf, CTensor):
            flat.extend([leaf.re, leaf.im])
        else:
            flat.append(leaf)
    return flat


def grad_check(fn, leaves, eps=1e-5):
    """Max relative error between reverse-mode and central-difference grads.

    ``fn`` rebuilds a scalar loss Tensor from the current leaf values;
    real and imaginary parts of complex leaves are perturbed independently.
    Only the analytic pass records a tape; the central differences need
    forward values alone and run under :func:`no_grad`.
    """
    flat = _leaf_tensors(leaves)
    for t in flat:
        t.zero_grad()
    fn().backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in flat]
    worst = 0.0
    with no_grad():
        for t, ana in zip(flat, analytic):
            it = np.nditer(t.data, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = t.data[idx]
                t.data[idx] = orig + eps
                hi = fn().item()
                t.data[idx] = orig - eps
                lo = fn().item()
                t.data[idx] = orig
                num = (hi - lo) / (2.0 * eps)
                err = abs(ana[idx] - num) / max(1e-8, abs(num))
                worst = max(worst, err)
    return worst
