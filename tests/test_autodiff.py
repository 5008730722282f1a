import numpy as np
import pytest

from spectralsr.autodiff import (
    Tensor,
    conv1d,
    conv_transpose1d,
    no_grad,
    softmax,
)
from spectralsr.cvops import CTensor, grad_check
from tape_ops import gather_last


def numeric_grad(fn, t, eps=1e-6):
    g = np.zeros_like(t.data)
    it = np.nditer(t.data, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = t.data[idx]
        t.data[idx] = orig + eps
        hi = fn().item()
        t.data[idx] = orig - eps
        lo = fn().item()
        t.data[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
    return g


def exp_node(x):
    e = np.exp(x.data)

    def back(g):
        x._accumulate(g * e)

    return Tensor(e, _parents=(x,), _backward=back)


def check(fn, t, tol=1e-6):
    t.zero_grad()
    fn().backward()
    num = numeric_grad(fn, t)
    assert np.allclose(t.grad, num, rtol=tol, atol=tol)


def test_add_mul_broadcast():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    check(lambda: ((a + b) * b).sum(), a)
    check(lambda: ((a + b) * b).sum(), b)


def test_matmul_batched():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    proj = rng.normal(size=(2, 3, 5))
    check(lambda: ((a @ b) * proj).sum(), a)
    check(lambda: ((a @ b) * proj).sum(), b)


def test_reductions_and_reshape():
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    check(lambda: a.mean(axis=(0, 2)).sum(), a)
    check(lambda: (a.reshape(6, 4).sum(axis=0) * a.reshape(6, 4).sum(axis=0)).sum(), a)
    check(lambda: a.transpose((2, 0, 1)).sum(axis=-1).mean(), a)


def test_roll_gather():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
    proj = rng.normal(size=(3, 4))
    idx = np.array([0, 2, 2, 6])
    check(lambda: (gather_last(a.roll(3, axis=1), np.arange(1, 5)) * proj).sum(), a)
    check(lambda: (gather_last(a, idx) * proj).sum(), a)


def test_relu_grad():
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(8,)), requires_grad=True)
    check(lambda: (a * 2.0 + a.relu()).sum(), a)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(5, 9)) * 10)
    s = softmax(x)
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
    xg = Tensor(x.data, requires_grad=True)
    proj = rng.normal(size=(5, 9))
    check(lambda: (softmax(xg) * proj).sum(), xg, tol=1e-5)


def test_modulus_matches_abs_and_grad():
    rng = np.random.default_rng(8)
    re = Tensor(rng.normal(size=(6,)), requires_grad=True)
    im = Tensor(rng.normal(size=(6,)), requires_grad=True)
    m = CTensor(re, im).modulus()
    assert np.allclose(m.data, np.abs(re.data + 1j * im.data))
    check(lambda: CTensor(re, im).modulus().sum(), re)
    check(lambda: CTensor(re, im).modulus().sum(), im)


def test_modulus_bounded_gradient_at_origin():
    re = Tensor(np.zeros(3), requires_grad=True)
    im = Tensor(np.zeros(3), requires_grad=True)
    CTensor(re, im).modulus().sum().backward()
    assert np.all(np.isfinite(re.grad))
    assert np.all(np.isfinite(im.grad))


def test_conv1d_matches_nested_loop_oracle():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(2, 3, 10)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
    y = conv1d(x, w, stride=1, padding=1)
    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1)))
    ref = np.zeros_like(y.data)
    for b in range(2):
        for o in range(4):
            for m in range(10):
                for c in range(3):
                    for t in range(3):
                        ref[b, o, m] += xp[b, c, m + t] * w.data[o, c, t]
    assert np.allclose(y.data, ref, atol=1e-12)
    proj = rng.normal(size=y.shape)
    check(lambda: (conv1d(x, w, padding=1) * proj).sum(), x, tol=1e-5)
    check(lambda: (conv1d(x, w, padding=1) * proj).sum(), w, tol=1e-5)


def test_conv1d_rejects_channel_mismatch():
    x = Tensor(np.zeros((1, 2, 8)))
    w = Tensor(np.zeros((3, 4, 3)))
    with pytest.raises(ValueError, match="channel mismatch"):
        conv1d(x, w)


def test_conv_transpose1d_is_adjoint_of_conv():
    # <conv(x), y> == <x, conv_transpose(y)> for matching geometry
    rng = np.random.default_rng(10)
    stride, k = 2, 4
    x = np.random.default_rng(0).normal(size=(1, 3, 9))
    w = rng.normal(size=(2, 3, k))  # [Co, Ci, k] for conv
    xt = Tensor(x)
    fwd = conv1d(xt, Tensor(w), stride=stride, padding=0)
    y = rng.normal(size=fwd.shape)
    lhs = float((fwd.data * y).sum())
    # conv_transpose expects [Cin, Cout, k]; for the adjoint, Cin is the
    # conv's output-channel axis, so the conv kernel is reused unswapped
    back = conv_transpose1d(Tensor(y), Tensor(w), stride=stride)
    # trailing x samples never covered by a conv window contribute nothing,
    # so the adjoint output can be shorter than x; pair up the covered span
    span = back.shape[2]
    rhs = float((back.data * x[:, :, :span]).sum())
    assert lhs == pytest.approx(rhs, rel=1e-10)


def conv_transpose_oracle(x, w, stride, crop):
    b, c_in, m = x.shape
    _, c_out, k = w.shape
    full = np.zeros((b, c_out, (m - 1) * stride + k))
    for n in range(b):
        for o in range(c_out):
            for i in range(m):
                for c in range(c_in):
                    for t in range(k):
                        full[n, o, i * stride + t] += x[n, c, i] * w[c, o, t]
    return full[:, :, crop : full.shape[2] - crop]


@pytest.mark.parametrize(
    "stride, k, crop",
    [(1, 3, 0), (3, 2, 0), (2, 4, 1), (2, 5, 0)],
    ids=["stride-1", "k-below-stride", "head-k-2-stride-cropped", "k-not-a-multiple"],
)
def test_conv_transpose1d_matches_nested_loop_oracle(stride, k, crop):
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, k)), requires_grad=True)
    y = conv_transpose1d(x, w, stride=stride, crop=crop)
    ref = conv_transpose_oracle(x.data, w.data, stride, crop)
    assert y.shape == ref.shape
    assert np.allclose(y.data, ref, atol=1e-12)
    proj = rng.normal(size=y.shape)

    def loss():
        return (conv_transpose1d(x, w, stride=stride, crop=crop) * proj).sum()

    assert grad_check(loss, [x, w]) < 1e-6


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Tensor(np.zeros(3), requires_grad=True).backward()


def test_gather_last_duplicate_indices_match_per_row_scatter():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(2, 3, 7)), requires_grad=True)
    idx = np.array([[0, 6, 3], [3, 3, 0], [6, 1, 3]])
    proj = rng.normal(size=(2, 3) + idx.shape)
    (gather_last(x, idx) * proj).sum().backward()
    ref = np.zeros_like(x.data)
    flat = ref.reshape(-1, 7)
    gflat = proj.reshape(-1, *idx.shape)
    for i in range(flat.shape[0]):
        np.add.at(flat[i], idx, gflat[i])
    assert np.array_equal(x.grad, ref)


def test_no_grad_records_no_tape():
    a = Tensor(np.arange(3.0), requires_grad=True)
    with no_grad():
        y = exp_node(a * 2.0).sum()
    assert not y.requires_grad
    assert y._parents == () and y._backward is None
    y.backward()
    assert a.grad is None
    z = (a * 2.0).sum()
    assert z.requires_grad and z._parents


def test_no_grad_leaf_keeps_explicit_requires_grad():
    with no_grad():
        leaf = Tensor(np.ones(2), requires_grad=True)
        plain = Tensor(np.ones(2))
    assert leaf.requires_grad and not plain.requires_grad
    (leaf * leaf).sum().backward()
    assert np.array_equal(leaf.grad, 2.0 * np.ones(2))


def _grad_mode_on():
    return exp_node(Tensor(1.0, requires_grad=True)).requires_grad


def test_no_grad_restores_mode_after_exception_and_nesting():
    assert _grad_mode_on()
    with pytest.raises(RuntimeError, match="boom"):
        with no_grad():
            raise RuntimeError("boom")
    assert _grad_mode_on()
    with no_grad():
        with no_grad():
            assert not _grad_mode_on()
        assert not _grad_mode_on()
    assert _grad_mode_on()


def test_shared_gradient_is_never_added_into_in_place():
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    (a + b + a).sum().backward()
    assert np.array_equal(a.grad, [2.0, 2.0, 2.0])
    assert np.array_equal(b.grad, [1.0, 1.0, 1.0])


def test_constant_operands_get_no_gradient():
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    c_mul = Tensor(rng.normal(size=(2, 3)))
    c_mat = Tensor(rng.normal(size=(3, 4)))
    ((x * c_mul) @ c_mat).sum().backward()
    assert x.grad is not None
    assert c_mul.grad is None and c_mat.grad is None


@pytest.mark.parametrize("order", ["C", "F"])
def test_gradient_through_transpose_has_the_leaf_strides(order):
    rng = np.random.default_rng(14)
    x = Tensor(np.asarray(rng.normal(size=(3, 4)), order=order), requires_grad=True)
    proj = rng.normal(size=(4, 3))
    (x.transpose((1, 0)) * proj).sum().backward()
    assert x.grad.strides == x.data.strides
    assert np.array_equal(x.grad, proj.T)
