"""Complex-valued differentiable operators on the autodiff engine.

A complex value on the tape is a plain complex128
:class:`~spectralsr.autodiff.Tensor`, whose gradient is
``dL/dRe + i dL/dIm``, so a complex product is one complex ``@`` or
``conv1d`` call and the real and complex models share one graph.  A
complex parameter is a :class:`CTensor`: a ``Tensor`` that stores a pair
of real leaves (``<name>.re`` / ``<name>.im``), so optimizers,
checkpoints and :func:`grad_check` see only real tensors and perturb the
real and imaginary parts independently.  The layer ops (attention, the
norms, GELU, CPReLU, the modulus softmax) are each one tape node with a
closed-form backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ROOT_EPS, Tensor, _conj, _unbroadcast, conv1d, no_grad, softmax, softmax_array

SOFTMAX_EPS = 1e-12  # below this modulus the phase is defined as 1
NORM_EPS = 1e-5  # variance ridge of the real and complex layer norms
MASK_NEG = -1e9  # additive attention logit of a masked pair


class CTensor(Tensor):
    """A complex parameter stored as two real leaves, ``re`` and ``im``.

    Its ``data`` is ``re + i im``, read at each use, so a part changed in
    place (by an optimizer step or :func:`grad_check`) is seen by the next
    op.  It records nothing on the tape: a gradient handed to it is summed
    down to its shape, and its real part goes to ``re`` and its imaginary
    part to ``im``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im
        self.grad = None
        self.requires_grad = re.requires_grad or im.requires_grad
        self._parents = ()
        self._backward = None

    @property
    def data(self):
        data = np.empty(self.re.shape, dtype=np.complex128)
        data.real = self.re.data
        data.imag = self.im.data
        return data

    @property
    def shape(self):
        return self.re.shape

    def _accumulate(self, grad):
        if self.requires_grad:
            grad = _unbroadcast(grad, self.shape)
            self.re._accumulate(grad.real)
            self.im._accumulate(grad.imag)

    @staticmethod
    def from_numpy(z, requires_grad=False):
        """A constant complex ``Tensor``, or with ``requires_grad`` a pair of real leaves."""
        z = np.asarray(z, dtype=np.complex128)
        if requires_grad:
            return CTensor(Tensor(z.real.copy(), True), Tensor(z.imag.copy(), True))
        return Tensor(z)


def cv_linear(x, weight, bias=None):
    """y = x W + b for complex x [..., in], W [in, out], b [out]."""
    y = x @ weight
    return y if bias is None else y + bias


cv_conv1d = conv1d  # complex 1-D convolution: conv1d on complex tensors


def cv_softmax(x, modulus_bias=None):
    """Softmax on the moduli, over the last axis, with phases carried through unchanged.

    Entries with modulus below ``SOFTMAX_EPS`` are treated as having phase 1
    (output is the real weight).  ``modulus_bias`` is an additive constant
    array applied to the moduli before the softmax (used for attention
    masking: large negative bias drives the weight to zero).

    One node on a complex ``x``.  With moduli ``m``, phases ``u = x / m``,
    weights ``w``, ``gw = Re(g conj(u))`` and ``gm = w (gw - sum(gw w))``,
    the backward is ``gm u + w (g - gw u) / m``; below ``SOFTMAX_EPS`` the
    phase is constant and only the modulus term ``gm x / max(m, ROOT_EPS)``
    is left.
    """
    zd = x.data
    m = np.abs(zd)
    w = softmax_array(m if modulus_bias is None else m + modulus_bias)
    out = (w / np.maximum(m, SOFTMAX_EPS)) * zd
    any_small = m.min() < SOFTMAX_EPS
    if any_small:
        small = m < SOFTMAX_EPS
        out[small] = w[small]

    def back(g):
        inv_m = 1.0 / np.maximum(m, SOFTMAX_EPS)
        u = zd * inv_m
        if any_small:
            u[small] = 1.0
        gw = g.real * u.real + g.imag * u.imag
        gm = w * (gw - np.einsum("...i,...i->...", gw, w)[..., None])
        wm = w * inv_m
        gz = (gm - wm * gw) * u + wm * g
        if any_small:
            gz[small] = gm[small] * zd[small] / np.maximum(m[small], ROOT_EPS)
        x._accumulate(gz)

    return Tensor(out, _parents=(x,), _backward=back)


def layer_norm(x, gamma, beta):
    """Standard layer norm over the last axis for real tensors, as one node.

    With ``xhat = (x - mean) * rstd`` and ``gh = g * gamma``, backward is
    ``rstd * (gh - mean(gh) - xhat * mean(gh * xhat))`` for ``x``,
    ``sum(g * xhat)`` for ``gamma`` and ``sum(g)`` for ``beta``.  The row
    sums go through ``einsum``, as in :func:`softmax_array`.
    """
    scale = 1.0 / x.shape[-1]
    c = x.data - np.einsum("...i->...", x.data)[..., None] * scale
    std = np.sqrt(np.einsum("...i,...i->...", c, c)[..., None] * scale + NORM_EPS)
    xhat = c / std
    rstd = 1.0 / std

    def back(g):
        gh = g * gamma.data
        mean_gh = np.einsum("...i->...", gh)[..., None] * scale
        mean_ghx = np.einsum("...i,...i->...", gh, xhat)[..., None] * scale
        x._accumulate(rstd * (gh - mean_gh - xhat * mean_ghx))
        gamma._accumulate(g * xhat)
        beta._accumulate(g)

    return Tensor(xhat * gamma.data + beta.data, _parents=(x, gamma, beta), _backward=back)


def cv_layer_norm(x, affine=None):
    """Whitening layer norm for complex tensors over the last (channel) axis.

    Subtracts the complex mean, ``c = z - mean(z)``, then whitens the 2x2
    covariance ``V`` of (Re c, Im c) aggregated over channels (ridge
    ``NORM_EPS`` on the diagonal) with its closed-form inverse matrix
    square root.  A real-linear map of the plane is ``a c + b conj(c)``
    with complex ``a`` and ``b``; for ``V^(-1/2)`` they are
    ``a = ((vrr + vii) / 2 + s) / (s t)`` and
    ``b = ((vii - vrr) / 2 - i vri) / (s t)`` per row, with
    ``s = sqrt(det V)`` and ``t = sqrt(vrr + vii + 2 s)``.  The optional
    affine is the per-channel tensors ``(g_rr, g_ri, g_ir, g_ii, b_re,
    b_im)`` of a 2x2 real matrix and a complex shift (see :func:`_plane_affine`).

    The whitening is one node, whose backward runs its per-row steps in
    reverse; both square roots floor their value at ``ROOT_EPS`` there.
    """
    if x.shape[-1] < 2:
        raise ValueError("complex layer norm needs at least 2 channels")
    scale = 1.0 / x.shape[-1]
    c = x.data - x.data.sum(axis=-1, keepdims=True) * scale
    cr, ci = c.real, c.imag
    vrr = (cr * cr).sum(axis=-1, keepdims=True) * scale + NORM_EPS
    vii = (ci * ci).sum(axis=-1, keepdims=True) * scale + NORM_EPS
    vri = (cr * ci).sum(axis=-1, keepdims=True) * scale
    s = np.sqrt(vrr * vii - vri * vri)
    t = np.sqrt(vrr + vii + 2.0 * s)
    inv = 1.0 / (s * t)
    alpha = ((vrr + vii) * 0.5 + s) * inv
    beta = np.empty(inv.shape, dtype=np.complex128)
    beta.real = (vii - vrr) * 0.5 * inv
    beta.imag = -(vri * inv)

    def back(g):
        # the forward steps in reverse: alpha and beta, 1 / (s t), t, s, the covariance, c
        g_alpha = np.einsum("...i,...i->...", g, c.conj()).real[..., None]
        g_beta = np.einsum("...i,...i->...", g, c)[..., None]
        g_br, g_bi = g_beta.real, g_beta.imag
        g_inv = g_alpha * ((vrr + vii) * 0.5 + s) + g_br * (vii - vrr) * 0.5 - g_bi * vri
        g_st = -g_inv * inv * inv
        g_u = g_st * s / (2.0 * np.maximum(t, ROOT_EPS))
        g_d = (g_alpha * inv + g_st * t + 2.0 * g_u) / (2.0 * np.maximum(s, ROOT_EPS))
        g_vrr = ((g_alpha - g_br) * 0.5 * inv + g_u + g_d * vii) * (2.0 * scale)
        g_vii = ((g_alpha + g_br) * 0.5 * inv + g_u + g_d * vrr) * (2.0 * scale)
        g_vri = (-(g_bi * inv) - 2.0 * g_d * vri) * scale
        g_c = alpha * g + beta * g.conj()
        g_c.real += g_vrr * cr + g_vri * ci
        g_c.imag += g_vii * ci + g_vri * cr
        x._accumulate(g_c - g_c.sum(axis=-1, keepdims=True) * scale)

    w = Tensor(alpha * c + beta * c.conj(), _parents=(x,), _backward=back)
    return w if affine is None else _plane_affine(w, *affine)


def _plane_affine(w, g_rr, g_ri, g_ir, g_ii, b_re, b_im):
    """Per channel, the real 2x2 matrix ``[[g_rr, g_ri], [g_ir, g_ii]]`` applied
    to (Re w, Im w) plus the shift ``b_re + i b_im``, as one node.

    Forward: ``A w + B conj(w) + b`` with ``A = (g_rr + g_ii + i (g_ir -
    g_ri)) / 2`` and ``B = (g_rr - g_ii + i (g_ir + g_ri)) / 2``.
    Backward: ``conj(A) g + B conj(g)`` for ``w``; the sums over rows of
    ``Re g Re w``, ``Re g Im w``, ``Im g Re w`` and ``Im g Im w`` for the
    four matrix entries, and of ``Re g`` and ``Im g`` for the shift.
    """
    wd = w.data
    a = 0.5 * (g_rr.data + g_ii.data + 1j * (g_ir.data - g_ri.data))
    b = 0.5 * (g_rr.data - g_ii.data + 1j * (g_ir.data + g_ri.data))
    out = a * wd + b * wd.conj() + (b_re.data + 1j * b_im.data)

    def back(g):
        w._accumulate(a.conj() * g + b * g.conj())
        c = wd.shape[-1]
        gr, gi = g.real.reshape(-1, c), g.imag.reshape(-1, c)
        wr, wi = wd.real.reshape(-1, c), wd.imag.reshape(-1, c)
        for param, left, right in ((g_rr, gr, wr), (g_ri, gr, wi), (g_ir, gi, wr), (g_ii, gi, wi)):
            param._accumulate(np.einsum("rc,rc->c", left, right))
        b_re._accumulate(gr)
        b_im._accumulate(gi)

    return Tensor(out, _parents=(w, g_rr, g_ri, g_ir, g_ii, b_re, b_im), _backward=back)


def cprelu(x, slope_re, slope_im):
    """PReLU applied independently to the real and imaginary parts, as one node.

    Each part ``p`` maps to ``max(p, 0) + slope * min(p, 0)``, computed as
    ``p + (slope - 1) min(p, 0)`` on the interleaved (Re, Im) values.
    Backward: each part of ``g`` times ``1`` where that part of ``z`` is
    positive and its slope elsewhere, for ``z``; ``sum(Re(g) * min(Re z,
    0))`` and ``sum(Im(g) * min(Im z, 0))`` for the two slopes.
    """
    zd = np.ascontiguousarray(x.data)
    out = np.minimum(zd.reshape(-1).view(np.float64), 0.0).view(np.complex128).reshape(zd.shape)
    out.real *= slope_re.data - 1.0
    out.imag *= slope_im.data - 1.0
    out += zd

    def back(g):
        gz = np.empty_like(zd)
        gz.real = g.real * np.where(zd.real > 0.0, 1.0, slope_re.data)
        gz.imag = g.imag * np.where(zd.imag > 0.0, 1.0, slope_im.data)
        x._accumulate(gz)
        slope_re._accumulate(g.real * np.minimum(zd.real, 0.0))
        slope_im._accumulate(g.imag * np.minimum(zd.imag, 0.0))

    return Tensor(out, _parents=(x, slope_re, slope_im), _backward=back)


def gelu(x):
    """Exact GELU ``x * Phi(x)`` as one node, ``Phi`` the standard normal
    CDF (scipy's ``ndtr``).

    Backward: ``g * (Phi(x) + x * phi(x))``, with ``Phi`` kept from the
    forward and ``phi`` the standard normal density, built in place.
    ``ndtr`` is the package's only scipy use, so scipy is imported here,
    on the first GELU, rather than with the package.
    """
    from scipy.special import ndtr

    cdf = ndtr(x.data)

    def back(g):
        grad = np.square(x.data)
        grad *= -0.5
        np.exp(grad, out=grad)
        grad *= 1.0 / np.sqrt(2.0 * np.pi)
        grad *= x.data
        grad += cdf
        grad *= g
        x._accumulate(grad)

    return Tensor(x.data * cdf, _parents=(x,), _backward=back)


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
    h*d concatenation back to C channels.  All tensors are real for the
    real path and complex (typically ``CTensor`` pairs) for the complex path.

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
    """Windowed multi-head self-attention with optional shifted partition, as one node.

    ``x`` is a real or complex [..., M, C] ``Tensor``, and ``params``
    holds tensors of the same dtype.  The two paths differ only in the
    softmax, picked by dtype: the complex one weights by modulus and
    keeps phases.
    When ``shift`` > 0 the sequence is cyclically rotated by ``-shift``
    before partitioning and cross-segment pairs are masked out; the
    rotation is undone on the way out.  With ``return_weights`` the
    attention weights [..., h, M/W, W, W] come back too, as a constant.

    The forward is one GEMM of the R = (leading dims)·M input rows by the
    [C, 3·h·d] stacked Q, K and V weights, the biases and the scale on q,
    ``q @ kᵀ`` per window and head (a plain transpose on the complex path),
    the positional bias and the mask, the softmax, ``attn @ v``, the head
    merge to [R, h·d] and one GEMM by ``out_w``.  The backward keeps only
    the input rows, q, k, v, the softmax's own arrays and the merged
    context, and runs the closed form on flat rows: one GEMM each for
    ``out_w``, the context, the input and the QKV weights, ``einsum`` row
    sums for the biases, and the ``rpe`` gradient summed over the leading
    dims and the windows, then scattered over its 2W-1 offsets.  The
    softmax is the ``softmax`` / ``cv_softmax`` node on a leaf of its own,
    whose backward hands the logits' gradient to that leaf.
    """
    m, c = x.shape[-2], x.shape[-1]
    if m % window != 0:
        raise ValueError(f"window size {window} does not divide length {m}")
    h, d = params.heads, params.dim
    hd, nw, lead = h * d, m // window, x.shape[:-2]
    scale = 1.0 / np.sqrt(d)

    def heads(a):
        """[R, h*d] rows -> a [..., h, nw, W, d] view."""
        return np.moveaxis(a.reshape(*lead, nw, window, h, d), -2, -4)

    rows = (np.roll(x.data, -shift, axis=-2) if shift else x.data).reshape(-1, c)
    projections = (params.wq, params.wk, params.wv)
    biases = (params.bq, params.bk, params.bv)
    w_qkv = np.concatenate([p.data.transpose(1, 0, 2).reshape(c, hd) for p in projections], axis=1)
    qkv = rows @ w_qkv  # [R, 3*h*d]: q, k, v side by side
    for i, bias in enumerate(biases):
        if bias is not None:
            qkv[:, i * hd : (i + 1) * hd] += bias.data.reshape(hd)
    qkv[:, :hd] *= scale
    q, k, v = (heads(qkv[:, i * hd : (i + 1) * hd]) for i in range(3))
    logits = q @ np.swapaxes(k, -1, -2)  # [..., h, nw, W, W]
    rel = _rpe_index(window)
    logits += params.rpe.data[:, rel].reshape(h, 1, window, window)
    # the unshifted partition has no masked pair, so it adds no mask
    mask = shift_attention_mask(m, window, shift)[None] if shift else None
    complex_valued = logits.dtype.kind == "c"
    if mask is not None and not complex_valued:
        logits += mask
    leaf = Tensor(logits, requires_grad=True)
    attn = cv_softmax(leaf, modulus_bias=mask) if complex_valued else softmax(leaf)
    # the leaf only collects the logits' gradient: it need not keep the logits
    leaf.data = attn.data
    merged = np.empty((len(rows), hd), dtype=np.result_type(attn.data, v))
    np.matmul(attn.data, v, out=heads(merged))  # the heads merged: [R, h*d]
    out_w = params.out_w.data
    y = (merged @ out_w + params.out_b.data).reshape(x.shape)
    if shift:
        y = np.roll(y, shift, axis=-2)

    def back(g):
        g = (np.roll(g, -shift, axis=-2) if shift else g).reshape(-1, c)
        params.out_b._accumulate(np.einsum("rc->c", g))
        params.out_w._accumulate(_conj(merged).T @ g)
        g_ctx = heads(g @ _conj(out_w).T)
        attn._backward(g_ctx @ _conj(np.swapaxes(v, -1, -2)))
        g_logits = leaf.grad
        g_rel = np.einsum("lhnk->hk", g_logits.reshape(-1, h, nw, window * window))
        g_rpe = np.zeros((h, 2 * window - 1), dtype=g_rel.dtype)
        np.add.at(g_rpe, (slice(None), rel.reshape(-1)), g_rel)
        params.rpe._accumulate(g_rpe)
        g_qkv = np.empty(qkv.shape, dtype=np.result_type(g_logits, qkv))
        g_q, g_k, g_v = (heads(g_qkv[:, i * hd : (i + 1) * hd]) for i in range(3))
        np.matmul(g_logits, _conj(k), out=g_q)
        g_q *= scale
        np.matmul(np.swapaxes(g_logits, -1, -2), _conj(q), out=g_k)
        np.matmul(_conj(np.swapaxes(attn.data, -1, -2)), g_ctx, out=g_v)
        g_bias = np.einsum("rk->k", g_qkv)
        g_w = _conj(rows).T @ g_qkv
        for i, (weight, bias) in enumerate(zip(projections, biases)):
            cols = slice(i * hd, (i + 1) * hd)
            weight._accumulate(g_w[:, cols].reshape(c, h, d).transpose(1, 0, 2))
            if bias is not None:
                bias._accumulate(g_bias[cols].reshape(h, d))
        g_x = (g_qkv @ _conj(w_qkv).T).reshape(x.shape)
        x._accumulate(np.roll(g_x, shift, axis=-2) if shift else g_x)

    parents = (x, *projections, *(b for b in biases if b is not None), params.rpe, params.out_w, params.out_b)
    out = Tensor(y, _parents=parents, _backward=back)
    if return_weights:
        return out, Tensor(attn.data)
    return out


def mlp(x, w1, b1, w2, b2, activation=None):
    """Two linear layers with a nonlinearity in between.

    ``activation`` defaults to GELU, which is real-only; complex inputs
    pass a complex ``Tensor`` -> ``Tensor`` callable (typically CPReLU).
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
