"""Tape ops that no model uses, for the composite oracles of the unit tests.

The package keeps only the ops its models run; a one-node op is checked
against a composite written from elementwise ops, some of which are
these.  Each follows the package's gradient convention: a complex
tensor's gradient is dL/dRe + i dL/dIm.
"""

import numpy as np

from spectralsr.autodiff import ROOT_EPS, Tensor


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
