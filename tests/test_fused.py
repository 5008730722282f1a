"""The one-node softmax, layer norm, GELU and complex PReLU against the
composite expressions they replace, written out here from elementwise tape ops."""

import numpy as np
import pytest
from scipy.special import ndtr

from spectralsr.autodiff import Tensor, softmax
from spectralsr.cvops import CTensor, cprelu, gelu, grad_check, layer_norm

from tape_ops import div, imag_part, join, real_part, sqrt


def exp_node(x):
    e = np.exp(x.data)

    def back(g):
        x._accumulate(g * e)

    return Tensor(e, _parents=(x,), _backward=back)


def ndtr_node(x):
    def back(g):
        x._accumulate(g * np.exp(-0.5 * x.data**2) / np.sqrt(2.0 * np.pi))

    return Tensor(ndtr(x.data), _parents=(x,), _backward=back)


def softmax_composite(x, axis=-1):
    e = exp_node(x - np.max(x.data, axis=axis, keepdims=True))
    return div(e, e.sum(axis=axis, keepdims=True))


def layer_norm_composite(x, gamma, beta, eps=1e-5):
    c = x - x.mean(axis=-1, keepdims=True)
    var = (c * c).mean(axis=-1, keepdims=True)
    return div(c, sqrt(var + eps)) * gamma + beta


def gelu_composite(x):
    return x * ndtr_node(x)


def prelu_composite(x, slope):
    return x.relu() + slope * (x - x.relu())


def cprelu_node(z, slope_re, slope_im):
    return cprelu(z, slope_re, slope_im)


def cprelu_composite(z, slope_re, slope_im):
    return join(prelu_composite(real_part(z), slope_re), prelu_composite(imag_part(z), slope_im))


def forward_and_grads(op, arrays, proj):
    """Output and the gradient of ``sum(Re(op(*leaves) * proj))`` per leaf."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*leaves)
    real_part(out * proj).sum().backward()
    return out.data, [leaf.grad for leaf in leaves]


def assert_same_node(fused, composite, arrays, seed=0):
    rng = np.random.default_rng(seed)
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    proj = rng.normal(size=shape)
    if any(np.iscomplexobj(a) for a in arrays):
        proj = proj + 1j * rng.normal(size=shape)
    got, got_grads = forward_and_grads(fused, arrays, proj)
    ref, ref_grads = forward_and_grads(composite, arrays, proj)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    for g, r in zip(got_grads, ref_grads):
        assert g.shape == r.shape
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))


def test_fused_nodes_record_one_tape_entry():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    gamma, beta, slope = (Tensor(np.ones(3), requires_grad=True) for _ in range(3))
    z = Tensor(np.ones((2, 3)) + 1j, requires_grad=True)
    cp = cprelu_node(z, slope, slope)
    for out in (softmax(x), layer_norm(x, gamma, beta), gelu(x), cp):
        assert all(parent._parents == () for parent in out._parents)


def test_softmax_matches_composite_on_masked_and_extreme_rows():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 3, 8)) * 3.0
    logits[0, :, 5:] = -1e9                       # masked keys, as in shifted attention
    logits[1, 0] = [700.0, -700.0] * 4            # logits of +-700
    logits[1, 1] = -700.0
    logits[2, 2] = np.where(np.arange(8) % 3 == 0, 0.0, -1e9)
    mask = np.zeros((3, 8))
    mask[1, 4:] = -1e9
    assert_same_node(lambda x: softmax(x + mask), lambda x: softmax_composite(x + mask), [logits])


def test_layer_norm_matches_composite_with_a_constant_row():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 5, 6)) * 4.0 + 1.0
    x[0, 2] = 3.25                                 # constant row: zero variance
    gamma, beta = rng.normal(size=6), rng.normal(size=6)
    assert_same_node(layer_norm, layer_norm_composite, [x, gamma, beta])


def test_gelu_matches_composite_on_negative_zero_and_positive_inputs():
    x = np.concatenate([np.linspace(-8.0, 8.0, 33), [-40.0, -1e-300, 0.0, 1e-300, 40.0]])
    assert 0.0 in x
    assert_same_node(gelu, gelu_composite, [x.reshape(2, 19)])


def test_gelu_forward_is_the_composite_bit_for_bit():
    x = np.concatenate([np.linspace(-8.0, 8.0, 33), [-40.0, -1e-300, 0.0, 1e-300, 40.0]])
    assert np.array_equal(gelu(Tensor(x)).data, gelu_composite(Tensor(x)).data)


@pytest.mark.parametrize("slope", [0.25, -0.5, 0.0])
def test_prelu_matches_composite_on_negative_zero_and_positive_inputs(slope):
    # the complex PReLU, each part of z against the real composite
    x = np.array([[-3.0, -1e-3, 0.0, 1e-3, 2.5], [0.0, -7.0, 4.0, -0.0, 1.0]])
    z = x + 1j * x[::-1, ::-1]
    assert_same_node(cprelu_node, cprelu_composite, [z, np.array(slope), np.array(0.5 - slope)])


def test_fused_nodes_pass_grad_check_on_micro_shapes():
    rng = np.random.default_rng(3)

    def leaf(*shape, scale=1.0):
        return Tensor(rng.normal(size=shape) * scale, requires_grad=True)

    mask = np.where(rng.normal(size=(3, 4)) > 0.5, -1e9, 0.0)
    cases = []
    x = leaf(2, 3, 4, scale=2.0)
    cases.append(([x], lambda x=x: softmax(x + mask)))
    x, gamma, beta = leaf(2, 3, 4), leaf(4), leaf(4)
    cases.append(([x, gamma, beta], lambda x=x, g=gamma, b=beta: layer_norm(x, g, b)))
    x = leaf(3, 4, scale=2.0)
    cases.append(([x], lambda x=x: gelu(x)))
    x, sr, si = leaf(3, 4), Tensor(0.25, requires_grad=True), Tensor(-0.5, requires_grad=True)
    z = CTensor(x, leaf(3, 4))
    cases.append(([z, sr, si], lambda z=z, sr=sr, si=si: cprelu(z, sr, si).modulus()))
    for leaves, op in cases:
        proj = rng.normal(size=op().shape)
        assert grad_check(lambda op=op, proj=proj: (op() * proj).sum(), leaves) < 1e-4
