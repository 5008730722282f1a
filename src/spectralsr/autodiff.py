"""Minimal reverse-mode autodiff engine over numpy float64 and complex128 arrays.

A ``Tensor`` holds float64 or complex128 data.  The gradient of a real
loss ``L`` with respect to a complex tensor ``z`` is stored as
``dL/dRe(z) + i dL/dIm(z)`` (the conjugate-Wirtinger convention), so each
op's backward is the real one with conjugated operands: ``y = a * b``
hands ``g * conj(b)`` to ``a`` and ``y = x @ w`` hands ``g @ wᴴ`` to
``x`` and ``xᴴ @ g`` to ``w``.  A real tensor that receives a complex
gradient keeps its real part (``Tensor._accumulate``), which is the
gradient with respect to a real coordinate.  A complex parameter is a
``Tensor`` subclass that stores two real leaves
(:class:`spectralsr.cvops.CTensor`); every other value on the tape is a
plain ``Tensor``.  ``relu``, :func:`softmax` and :func:`conv_transpose1d`
take real tensors only.  ``+`` and ``*`` take a ``Tensor`` on the left
(there are no reflected operators): write ``t * 2.0``, not ``2.0 * t``.

Each op builds its output with ``Tensor(data, _parents=..., _backward=...)``;
the constructor records that tape entry only while grad mode is on, so
inside :func:`no_grad` every intermediate is freed as soon as the next op
has used it.

An op's backward closure holds only its math: it hands each parent's
gradient, in any shape that broadcasts to the parent's, to
``parent._accumulate``.  That method alone skips parents that need no
gradient, sums broadcast axes away and adds up the contributions.
Gradients are never written in place, so one array may be handed to
several parents, or kept as a ``.grad``, without copying.

Importing this module sets glibc's malloc policy for the process (see
:func:`_keep_freed_heap`): freed blocks under 32 MiB stay in the heap
instead of going back to the kernel.  With glibc's defaults every op
output of a model call faulted its pages in afresh: a default-config
batch-4 ``model_forward`` took about 16.7k minor page faults for
swinfreq and 49.7k for cvswinfreq (65 and 190 MiB of newly zeroed pages
per call, counted at the third call); with this policy it takes none.
No arithmetic changes.  The cost: the resident set of the process no
longer shrinks below its high-water mark for blocks under 32 MiB, while
the peak itself (``ru_maxrss``) hardly moves.  On a C library without
``mallopt`` nothing is set.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import math

import numpy as np

__all__ = ["Tensor", "no_grad", "softmax", "conv1d", "conv_transpose1d"]

ROOT_EPS = 1e-12  # modulus and square roots floor their value at this in their derivatives

_GRAD_ENABLED = contextvars.ContextVar("spectralsr_grad_enabled", default=True)

# mallopt(3) parameters.  Any mallopt call freezes glibc's dynamic mmap
# threshold at its current value, so setting the trim threshold alone left
# every block above 128 KiB mmapped (more faults than the defaults).  The
# mmap threshold is therefore pinned at 32 MiB, the ceiling the dynamic one
# reaches on 64-bit (DEFAULT_MMAP_THRESHOLD_MAX); larger blocks still go
# back to the kernel when freed.  Trimming is switched off outright (-1):
# a 128 MiB trim threshold still refaulted most of a toy training round's
# tape (about 214 MiB) every step.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024
_TRIM_DISABLED = -1


def _keep_freed_heap():
    """Keep freed heap blocks under 32 MiB in the process for the next op
    (glibc ``mallopt``); a C library without ``mallopt`` is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_DISABLED)


_keep_freed_heap()


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block.

    Op outputs get no parents, no backward closure and
    ``requires_grad=False``.  Leaves created with an explicit
    ``requires_grad=True`` keep the flag.  The previous mode is restored
    on exit, also after an exception and when nested.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _conj(a):
    """The complex conjugate of ``a``; a real array is returned as it is."""
    return a.conj() if a.dtype.kind == "c" else a


def _as_data(data):
    """``data`` as a float64 array, or as complex128 when it is complex."""
    data = np.asarray(data)
    if data.dtype.char in "dD":  # float64, complex128
        return data
    return data.astype(np.complex128 if data.dtype.kind == "c" else np.float64)


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting.

    The leading axes are summed as one, by ``einsum`` over a [lead, rest]
    view, which is about four times as fast as ``sum`` over those axes.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        rest = grad.shape[extra:]
        flat = grad.reshape(math.prod(grad.shape[:extra]), math.prod(rest))
        grad = np.einsum("ij->j", flat).reshape(rest)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An n-d float64 or complex128 array with an optional gradient and a
    recorded reverse pass.  Any other input dtype becomes float64, or
    complex128 when it is complex."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = _as_data(data)
        self.grad = None
        if _parents:
            if not _GRAD_ENABLED.get():
                _parents, _backward = (), None
            elif not requires_grad:
                requires_grad = any(p.requires_grad for p in _parents)
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    # -- bookkeeping ---------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return math.prod(self.shape)

    @property
    def ndim(self):
        return len(self.shape)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, grad):
        """Add ``grad``, in any shape that broadcasts to this tensor's, to ``.grad``.

        A real tensor keeps only the real part of a complex gradient.  A
        later gradient is added out of place.  The first one is kept by
        reference when its dtype and memory layout match the data's, else
        copied into an array laid out like the data, so downstream BLAS
        calls see the same dtype and strides either way.
        """
        if not self.requires_grad:
            return
        grad = _unbroadcast(grad, self.shape)
        if grad.dtype.kind == "c" and self.data.dtype.kind != "c":
            grad = grad.real
        if self.grad is not None:
            self.grad = self.grad + grad
        elif grad.strides == self.data.strides and grad.dtype == self.data.dtype:
            self.grad = grad
        else:
            self.grad = np.empty_like(self.data)
            self.grad[...] = grad

    def zero_grad(self):
        self.grad = None

    def item(self):
        return float(self.data)

    def numpy(self):
        return self.data

    def backward(self):
        """Reverse pass from a scalar output."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                # Interior node: its grad has been fully propagated and no
                # later node in the sweep reads it.  Drop the tape references
                # so large intermediates are freed as the sweep proceeds
                # (closures + parent links form cycles the refcounter can't
                # otherwise break).
                node._parents = ()
                node._backward = None
                if node is not self:
                    node.grad = None

    # -- elementwise arithmetic ---------------------------------------

    @staticmethod
    def _wrap(other):
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = Tensor._wrap(other)

        def back(g):
            self._accumulate(g)
            other._accumulate(g)

        return Tensor(self.data + other.data, _parents=(self, other), _backward=back)

    def __neg__(self):
        def back(g):
            self._accumulate(-g)

        return Tensor(-self.data, _parents=(self,), _backward=back)

    def __sub__(self, other):
        return self + (-Tensor._wrap(other))

    def __mul__(self, other):
        other = Tensor._wrap(other)

        def back(g):
            self._accumulate(g * _conj(other.data))
            other._accumulate(g * _conj(self.data))

        return Tensor(self.data * other.data, _parents=(self, other), _backward=back)

    # -- transcendental ------------------------------------------------

    def relu(self):
        def back(g):
            self._accumulate(g * (self.data > 0.0))

        return Tensor(np.maximum(self.data, 0.0), _parents=(self,), _backward=back)

    def modulus(self):
        """``|x|``; the backward ``g x / max(|x|, ROOT_EPS)`` stays bounded at 0."""
        m = np.abs(self.data)

        def back(g):
            self._accumulate(g * self.data / np.maximum(m, ROOT_EPS))

        return Tensor(m, _parents=(self,), _backward=back)

    # -- reductions ----------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def back(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), _parents=(self,), _backward=back)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- shape manipulation -------------------------------------------

    def reshape(self, *shape):
        def back(g):
            self._accumulate(g.reshape(self.shape))

        return Tensor(self.data.reshape(shape), _parents=(self,), _backward=back)

    def transpose(self, axes):
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))

        def back(g):
            self._accumulate(g.transpose(inv))

        return Tensor(self.data.transpose(axes), _parents=(self,), _backward=back)

    def roll(self, shift, axis):
        def back(g):
            self._accumulate(np.roll(g, -shift, axis=axis))

        return Tensor(np.roll(self.data, shift, axis=axis), _parents=(self,), _backward=back)

    # -- linear algebra ------------------------------------------------

    def __matmul__(self, other):
        other = Tensor._wrap(other)

        def back(g):
            self._accumulate(g @ _conj(np.swapaxes(other.data, -1, -2)))
            other._accumulate(_conj(np.swapaxes(self.data, -1, -2)) @ g)

        return Tensor(self.data @ other.data, _parents=(self, other), _backward=back)


def _last_axis_max(a):
    """``a.max(axis=-1, keepdims=True)`` by halving the last axis with
    ``np.maximum``: a reduction over a short last axis takes about twice as
    long (16 entries, as in an attention row)."""
    while a.shape[-1] > 1:
        half = a.shape[-1] // 2
        top = np.maximum(a[..., :half], a[..., half : 2 * half])
        a = np.maximum(top, a[..., -1:]) if a.shape[-1] % 2 else top
    return a


def softmax_array(a):
    """The softmax of a float64 array over its last axis, the row maximum
    subtracted first.  The row sums go through ``einsum``, which is about
    four times as fast as ``sum`` over a short last axis."""
    y = a - _last_axis_max(a)
    np.exp(y, out=y)
    y /= np.einsum("...i->...", y)[..., None]
    return y


def softmax(x):
    """Numerically stable softmax over the last axis as one node.

    Backward: ``y * (g - sum(g * y))``, the row sum taken by ``einsum``
    as in :func:`softmax_array`.
    """
    y = softmax_array(x.data)

    def back(g):
        x._accumulate(y * (g - np.einsum("...i,...i->...", g, y)[..., None]))

    return Tensor(y, _parents=(x,), _backward=back)


def conv1d(x, w, stride=1, padding=0):
    """Cross-correlation of ``x`` [B, Cin, M] with kernels ``w`` [Cout, Cin, k],
    real or complex."""
    xd, wd = x.data, w.data
    if xd.ndim != 3 or wd.ndim != 3:
        raise ValueError("conv1d expects x [B, Cin, M] and w [Cout, Cin, k]")
    if xd.shape[1] != wd.shape[1]:
        raise ValueError(f"channel mismatch: input {xd.shape[1]} vs kernel {wd.shape[1]}")
    k = wd.shape[2]
    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding))) if padding else xd
    m_out = (xp.shape[2] - k) // stride + 1
    if m_out < 1:
        raise ValueError("kernel longer than padded input")
    patches = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)[:, :, ::stride]

    def back(g):
        # conj(einsum(conj(g), patches)) conjugates the small gradient, not the patches
        w._accumulate(_conj(np.einsum("bom,bcmk->ock", _conj(g), patches, optimize=True)))
        wc = _conj(wd)
        gx = np.zeros(xp.shape, dtype=data.dtype)
        for t in range(k):
            gx[:, :, t : t + stride * m_out : stride] += np.einsum(
                "bom,oc->bcm", g, wc[:, :, t], optimize=True
            )
        x._accumulate(gx[:, :, padding : gx.shape[2] - padding])

    data = np.einsum("bcmk,ock->bom", patches, wd, optimize=True)
    return Tensor(data, _parents=(x, w), _backward=back)


def conv_transpose1d(x, w, stride, crop=0):
    """Transposed 1-D convolution of real tensors: x [B, Cin, M], w [Cin, Cout, k].

    Output length is (M-1)*stride + k - 2*crop; ``crop`` trims both ends.
    Any k works.  With q = ceil(k / stride), the kernel is zero-padded to q
    stride-long blocks of taps and laid out as [Cin, q·Cout·stride], so
    the products of every tap are one GEMM of ``x`` as [B·M, Cin].  Output
    sample ``(m + j)·stride + s`` collects block j's column s of input
    position m, so the GEMM result is added back in q shifted blocks (2
    for the model's head, where k = 2·stride).  The backward reads the
    gradient through the same blocks: one GEMM for ``x`` and one for
    ``w``, whose padded taps are cut off.
    """
    xd, wd = x.data, w.data
    if xd.shape[1] != wd.shape[0]:
        raise ValueError(f"channel mismatch: input {xd.shape[1]} vs kernel {wd.shape[0]}")
    b, c_in, m = xd.shape
    _, c_out, k = wd.shape
    q = -(-k // stride)
    length = (m - 1) * stride + k
    # tap j*stride + s of output channel o goes to GEMM column (j, o, s)
    wg = np.pad(wd, ((0, 0), (0, 0), (0, q * stride - k)))
    wg = wg.reshape(c_in, c_out, q, stride).transpose(0, 2, 1, 3).reshape(c_in, q * c_out * stride)
    xg = xd.transpose(0, 2, 1).reshape(b * m, c_in)
    yg = (xg @ wg).reshape(b, m, q, c_out, stride)
    full = np.zeros((b, c_out, m + q - 1, stride))
    for j in range(q):
        full[:, :, j : j + m] += yg[:, :, j].transpose(0, 2, 1, 3)
    data = full.reshape(b, c_out, -1)[:, :, crop : length - crop]

    def back(g):
        gf = np.zeros_like(full)
        gf.reshape(b, c_out, -1)[:, :, crop : length - crop] = g
        gg = np.empty((b, m, q, c_out, stride))
        for j in range(q):
            gg[:, :, j] = gf[:, :, j : j + m].transpose(0, 2, 1, 3)
        gg = gg.reshape(b * m, q * c_out * stride)
        x._accumulate((gg @ wg.T).reshape(b, m, c_in).transpose(0, 2, 1))
        gw = (xg.T @ gg).reshape(c_in, q, c_out, stride).transpose(0, 2, 1, 3)
        w._accumulate(gw.reshape(c_in, c_out, q * stride)[:, :, :k])

    return Tensor(data, _parents=(x, w), _backward=back)
