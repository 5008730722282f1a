"""Complex128 values on the tape against the real-pair composites they
replace, written out here from real tape ops: forward values and
gradients agree to 1e-12 of the largest entry.

A native node's inputs are complex leaves, whose gradient is
dL/dRe + i dL/dIm; a composite's inputs are (re, im) pairs of real
leaves, with ``None`` for the imaginary part of a real operand.  Both are
differentiated through the same real loss ``sum(Re(out * conj(proj)))``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spectralsr.autodiff import Tensor, conv1d, softmax
from spectralsr.cvops import (
    MASK_NEG,
    NORM_EPS,
    SOFTMAX_EPS,
    CTensor,
    cv_layer_norm,
    cv_softmax,
    grad_check,
)
from spectralsr.model import init_model, toy_config
from spectralsr.train import _mse_loss

from tape_ops import div, real_part, sqrt, swap_last2


# -- real-pair composites ------------------------------------------------


def where_node(mask, a, b):
    def back(g):
        a._accumulate(np.where(mask, g, 0.0))
        b._accumulate(np.where(mask, 0.0, g))

    return Tensor(np.where(mask, a.data, b.data), _parents=(a, b), _backward=back)


def clamp_min_node(x, lo):
    def back(g):
        x._accumulate(g * (x.data >= lo))

    return Tensor(np.maximum(x.data, lo), _parents=(x,), _backward=back)


def _sum(*terms):
    terms = [t for t in terms if t is not None]
    if not terms:
        return None
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    return out


def _apply(f, x, y):
    return None if x is None or y is None else f(x, y)


def _neg(x):
    return None if x is None else -x


def pair_product(f, a, b):
    """A real-bilinear ``f`` of two pairs, in four real products."""
    (ar, ai), (br, bi) = a, b
    re = _sum(_apply(f, ar, br), _neg(_apply(f, ai, bi)))
    return re, _sum(_apply(f, ar, bi), _apply(f, ai, br))


def pair_swap(p):
    return tuple(None if t is None else swap_last2(t) for t in p)


def pair_add(a, b):
    return _sum(a[0], b[0]), _sum(a[1], b[1])


def pair_modulus(re, im):
    return sqrt(re * re + im * im)


def pair_softmax(re, im, bias=None):
    """The real-pair modulus softmax that ``cv_softmax`` replaces."""
    m = pair_modulus(re, im)
    w = softmax(m if bias is None else m + bias)
    small = m.data < SOFTMAX_EPS
    scale = div(w, clamp_min_node(m, SOFTMAX_EPS))
    return where_node(small, w, scale * re), where_node(small, Tensor(np.zeros_like(m.data)), scale * im)


def pair_layer_norm(re, im, affine=None):
    """The real-pair whitening layer norm that ``cv_layer_norm`` replaces."""
    cr = re - re.mean(axis=-1, keepdims=True)
    ci = im - im.mean(axis=-1, keepdims=True)
    vrr = (cr * cr).mean(axis=-1, keepdims=True) + NORM_EPS
    vii = (ci * ci).mean(axis=-1, keepdims=True) + NORM_EPS
    vri = (cr * ci).mean(axis=-1, keepdims=True)
    s = sqrt(vrr * vii - vri * vri)
    t = sqrt(vrr + vii + s * 2.0)
    inv = div(1.0, s * t)
    wr = ((vii + s) * cr - vri * ci) * inv
    wi = (-vri * cr + (vrr + s) * ci) * inv
    if affine is None:
        return wr, wi
    g_rr, g_ri, g_ir, g_ii, b_re, b_im = affine
    return g_rr * wr + g_ri * wi + b_re, g_ir * wr + g_ii * wi + b_im


# -- harness -------------------------------------------------------------


def native_run(op, arrays, proj):
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*leaves)
    real_part(out * np.conj(proj)).sum().backward()
    grads = [np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad for leaf in leaves]
    return out.data, grads


def composite_run(op, arrays, proj):
    pairs = [
        (Tensor(a.real.copy(), requires_grad=True),
         Tensor(a.imag.copy(), requires_grad=True) if np.iscomplexobj(a) else None)
        for a in arrays
    ]
    re, im = op(*pairs)
    loss = (re * proj.real).sum()
    if im is not None:
        loss = loss + (im * proj.imag).sum()
    loss.backward()

    def grad(t):
        return np.zeros_like(t.data) if t.grad is None else t.grad

    grads = [grad(r) if i is None else grad(r) + 1j * grad(i) for r, i in pairs]
    return re.data if im is None else re.data + 1j * im.data, grads


def close(got, ref):
    scale = max(np.max(np.abs(ref)), 1e-300) if np.size(ref) else 1.0
    return np.shape(got) == np.shape(ref) and np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * scale


def assert_matches_composite(node, composite, arrays, seed=0):
    # a stream of its own, so the projection cannot equal inputs drawn from
    # default_rng(seed) or default_rng([seed, 1])
    rng = np.random.default_rng([seed, 2])
    out_shape = native_run(node, arrays, np.zeros(1))[0].shape
    proj = rng.normal(size=out_shape) + 1j * rng.normal(size=out_shape)
    got, got_grads = native_run(node, arrays, proj)
    ref, ref_grads = composite_run(composite, arrays, proj)
    assert close(got, ref), np.max(np.abs(got - ref))
    for g, r in zip(got_grads, ref_grads):
        assert close(g, r), np.max(np.abs(g - r))


def carray(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# -- nodes ---------------------------------------------------------------


@pytest.mark.parametrize("a_complex", [True, False])
@pytest.mark.parametrize("b_complex", [True, False])
def test_add_mul_broadcast_and_mix_real_and_complex(a_complex, b_complex):
    rng = np.random.default_rng(2)
    a = carray(rng, 2, 3, 4) if a_complex else rng.normal(size=(2, 3, 4))
    b = carray(rng, 3, 1) if b_complex else rng.normal(size=(3, 1))
    assert_matches_composite(lambda x, y: x + y, pair_add, [a, b])
    assert_matches_composite(lambda x, y: x * y, lambda x, y: pair_product(lambda u, v: u * v, x, y), [a, b])


@pytest.mark.parametrize("a_complex", [True, False])
def test_matmul_batched_and_mixed(a_complex):
    rng = np.random.default_rng(3)
    a = carray(rng, 2, 3, 4) if a_complex else rng.normal(size=(2, 3, 4))
    b = carray(rng, 4, 5)
    product = lambda x, y: pair_product(lambda u, v: u @ v, x, y)  # noqa: E731
    assert_matches_composite(lambda x, y: x @ y, product, [a, b])
    # transposed operands: the backward conjugates strided views
    assert_matches_composite(lambda x, y: swap_last2(y) @ swap_last2(x),
                             lambda x, y: product(pair_swap(y), pair_swap(x)), [a, b])


def test_conv1d_on_complex_data():
    rng = np.random.default_rng(4)
    x, w = carray(rng, 2, 3, 7), carray(rng, 4, 3, 3)
    conv = lambda u, v: conv1d(u, v, padding=1)  # noqa: E731
    assert_matches_composite(conv, lambda a, b: pair_product(conv, a, b), [x, w])
    assert_matches_composite(conv, lambda a, b: pair_product(conv, a, b), [x.real.copy(), w])


def test_modulus_including_zero_and_tiny_entries():
    rng = np.random.default_rng(5)
    z = carray(rng, 3, 5)
    z[0, 0] = 0.0
    z[1, 2] = 3e-13 - 2e-13j  # below ROOT_EPS
    assert_matches_composite(lambda t: t.modulus(), lambda p: (pair_modulus(*p), None), [z])


def softmax_inputs():
    rng = np.random.default_rng(6)
    z = carray(rng, 2, 3, 6) * 2.0
    z[0, 0, [1, 4]] = 0.0                 # exact zeros: phase 1
    z[0, 1, 2] = 4e-13 + 3e-13j           # below SOFTMAX_EPS
    z[1, 2, :] = 1e-13                    # a row of moduli all below SOFTMAX_EPS
    bias = np.zeros((3, 6))
    bias[1, 3:] = MASK_NEG                # masked keys
    bias[2, :] = MASK_NEG                 # a fully masked row
    return z, bias


@pytest.mark.parametrize("masked", [False, True])
def test_one_node_cv_softmax(masked):
    z, bias = softmax_inputs()
    bias = bias if masked else None
    assert_matches_composite(lambda t: cv_softmax(t, bias),
                             lambda p: pair_softmax(*p, bias), [z])


def test_cv_softmax_is_one_node():
    z = Tensor(carray(np.random.default_rng(7), 2, 4), requires_grad=True)
    assert cv_softmax(z)._parents == (z,)


def test_cv_layer_norm_is_one_node():
    z = Tensor(carray(np.random.default_rng(7), 2, 4), requires_grad=True)
    assert cv_layer_norm(z)._parents == (z,)
    affine = [Tensor(np.ones(4), requires_grad=True) for _ in range(6)]
    out = cv_layer_norm(z, affine)
    assert out._backward.__qualname__.startswith("_plane_affine.")
    assert out._parents[1:] == tuple(affine) and out._parents[0]._parents == (z,)


def layer_norm_inputs():
    rng = np.random.default_rng(8)
    z = carray(rng, 2, 5, 6) * 3.0 + (1.0 - 2.0j)
    z[0, 1] = rng.normal(size=6) * (1.0 + 0.5j)   # Im = Re / 2: rank-deficient covariance
    z[0, 2] = rng.normal(size=6)                  # Im = 0
    z[1, 3] = 2.5 - 1.0j                          # a constant row: zero covariance
    return z


def test_cv_layer_norm_without_affine():
    z = layer_norm_inputs()
    assert_matches_composite(cv_layer_norm,
                             lambda p: pair_layer_norm(*p), [z])


def test_cv_layer_norm_with_a_perturbed_affine():
    rng = np.random.default_rng(9)
    z = layer_norm_inputs()
    affine = [1.0 + 0.3 * rng.normal(size=6), 0.3 * rng.normal(size=6), 0.3 * rng.normal(size=6),
              1.0 + 0.3 * rng.normal(size=6), rng.normal(size=6), rng.normal(size=6)]
    assert_matches_composite(
        lambda t, *a: cv_layer_norm(t, a),
        lambda p, *a: pair_layer_norm(*p, [leaf for leaf, _ in a]),
        [z, *affine],
    )


# -- complex parameters --------------------------------------------------


def pair(rng, *shape):
    return CTensor(Tensor(rng.normal(size=shape), requires_grad=True),
                   Tensor(rng.normal(size=shape), requires_grad=True))


def test_a_complex_constant_is_a_plain_tensor():
    z = CTensor.from_numpy(np.array([1 + 2j, -3j]))
    assert type(z) is Tensor and z.data.dtype == np.complex128
    assert isinstance(CTensor.from_numpy(np.ones(2), requires_grad=True), Tensor)


def test_an_in_place_change_to_a_part_is_seen_by_the_next_op():
    p = pair(np.random.default_rng(10), 3)
    before = (Tensor(np.zeros(3)) + p).data
    p.re.data[1] = 5.0
    p.im.data[2] = -4.0
    after = (Tensor(np.zeros(3)) + p).data
    assert after[1] == 5.0 + 1j * before[1].imag and after[2] == before[2].real - 4.0j
    assert after[0] == before[0]


def test_a_broadcast_gradient_lands_on_the_parts_reduced_to_their_shape():
    rng = np.random.default_rng(11)
    bias = pair(rng, 3)
    x = Tensor(carray(rng, 2, 4, 3))
    proj = carray(rng, 2, 4, 3)
    real_part((x + bias) * np.conj(proj)).sum().backward()
    assert bias.grad is None
    assert bias.re.grad.shape == bias.im.grad.shape == (3,)
    assert np.allclose(bias.re.grad, proj.real.sum(axis=(0, 1)), rtol=1e-13, atol=0)
    assert np.allclose(bias.im.grad, proj.imag.sum(axis=(0, 1)), rtol=1e-13, atol=0)


def tape_nodes(root):
    nodes, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in nodes:
                nodes[id(parent)] = parent
                stack.append(parent)
    return list(nodes.values())


def test_the_toy_cvswinfreq_tape_holds_only_tensors():
    rng = np.random.default_rng(12)
    cfg = toy_config("cvswinfreq")
    store = init_model(cfg, rng)
    inputs = carray(rng, 2, cfg.n)
    nodes = tape_nodes(_mse_loss(store, inputs, rng.normal(size=(2, cfg.n_sr))))
    assert all(type(node) in (Tensor, CTensor) for node in nodes)
    pairs = [node for node in nodes if type(node) is CTensor]
    assert pairs and all(node._parents == () for node in pairs)


# -- dtypes ----------------------------------------------------------------


def test_a_complex_input_keeps_its_imaginary_part():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's ComplexWarning on a dropped imaginary part
        t = Tensor(np.array([1 + 2j]))
    assert t.data.dtype == np.complex128 and t.data[0] == 1 + 2j
    assert Tensor(np.array([1 + 2j], dtype=np.complex64)).data.dtype == np.complex128


@pytest.mark.parametrize("value", [np.array([1, 2], dtype=np.int32), np.array([True, False]), 3, True,
                                   np.array([0.5], dtype=np.float32)])
def test_real_inputs_become_float64(value):
    assert Tensor(value).data.dtype == np.float64
    assert np.array_equal(Tensor(value).data, np.asarray(value, dtype=np.float64))


def test_a_real_leaf_keeps_the_real_part_of_a_complex_gradient():
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    w = Tensor(np.array([1.0 + 3.0j, -2.0j]))
    real_part(x * w).sum().backward()
    assert x.grad.dtype == np.float64 and np.array_equal(x.grad, [1.0, 0.0])


# -- property: mixed real / complex binary ops -----------------------------


BINARY = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b}


def leaf(rng, shape, is_complex):
    mod = rng.normal(size=shape)
    if not is_complex:
        return Tensor(mod, requires_grad=True)
    return CTensor.from_numpy(mod * np.exp(1j * rng.uniform(0, 2 * np.pi, size=shape)), requires_grad=True)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3),
       op=st.sampled_from(sorted(BINARY)), a_complex=st.booleans(), b_complex=st.booleans(),
       seed=st.integers(0, 2**16))
def test_mixed_binary_ops_pass_grad_check(shapes, op, a_complex, b_complex, seed):
    rng = np.random.default_rng(seed)
    (sa, sb), out_shape = shapes.input_shapes, shapes.result_shape
    a = leaf(rng, sa, a_complex)
    b = leaf(rng, sb, b_complex)
    proj = rng.normal(size=out_shape) + 1j * rng.normal(size=out_shape)

    def loss():
        return real_part(BINARY[op](a, b) * np.conj(proj)).sum()

    assert grad_check(loss, [a, b]) < 1e-4


# -- property: the whitening node --------------------------------------------

# A rank-deficient, an Im = 0 or a constant row is ill-conditioned once its
# moduli outgrow sqrt(NORM_EPS): the node's a c + b conj(c) and the
# composite's real rows, or their two centrings, then round apart by up to
# about |c|^2 / NORM_EPS machine epsilons.  Up to 100 sqrt(NORM_EPS) that
# stays within 1e-12, so those three rows are drawn no larger.
SPECIAL_MAX = 100.0 * np.sqrt(NORM_EPS)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(lead=hnp.array_shapes(min_dims=1, max_dims=3, max_side=4).filter(lambda s: np.prod(s) >= 3),
       channels=st.integers(3, 16), log_mag=st.floats(-3.0, 3.0),
       log_special=st.floats(-3.0, float(np.log10(SPECIAL_MAX))), seed=st.integers(0, 2**16))
def test_cv_layer_norm_matches_the_composite_over_shapes_and_magnitudes(lead, channels, log_mag,
                                                                        log_special, seed):
    rng = np.random.default_rng([seed, 1])  # the projection draws from default_rng([seed, 2])
    mag, special = 10.0 ** log_mag, 10.0 ** log_special
    z = (carray(rng, np.prod(lead), channels) + carray(rng, 1, 1)) * mag
    rank_deficient, real, constant = rng.choice(len(z), 3, replace=False)
    z[rank_deficient] = rng.normal(size=channels) * (1.0 + 0.5j) * special  # Im = Re / 2
    z[real] = rng.normal(size=channels) * special                           # Im = 0
    z[constant] = (2.5 - 1.0j) * special
    assert_matches_composite(cv_layer_norm, lambda p: pair_layer_norm(*p),
                             [z.reshape(*lead, channels)], seed)
