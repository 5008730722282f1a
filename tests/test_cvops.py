import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralsr.autodiff import Tensor
from spectralsr.cvops import (
    AttentionParams,
    CTensor,
    cprelu,
    cv_conv1d,
    cv_layer_norm,
    cv_linear,
    cv_softmax,
    cyclic_shift,
    gelu,
    grad_check,
    init_params,
    mlp,
    shift_attention_mask,
    window_partition,
    window_reverse,
    wmsa,
)

from tape_ops import composite_wmsa, imag_part, real_part


def cten(rng, *shape, grad=True):
    return CTensor.from_numpy(
        rng.normal(size=shape) + 1j * rng.normal(size=shape), requires_grad=grad
    )


def rten(rng, *shape, grad=True):
    return Tensor(rng.normal(size=shape), requires_grad=grad)


class TestLinear:
    def test_identity_weight(self):
        x = CTensor.from_numpy(np.array([[1 + 1j]]))
        w = CTensor.from_numpy(np.array([[1 + 0j]]))
        y = cv_linear(x, w)
        assert y.numpy() == pytest.approx(np.array([[1 + 1j]]))

    def test_phase_rotation(self):
        x = CTensor.from_numpy(np.array([[1 + 0j]]))
        w = CTensor.from_numpy(np.array([[1j]]))
        assert cv_linear(x, w).numpy() == pytest.approx(np.array([[1j]]))

    def test_complex_matmul_matches_naive_four_product(self):
        rng = np.random.default_rng(0)
        x = cten(rng, 4, 3, grad=False)
        w = cten(rng, 3, 2, grad=False)
        xr, xi, wr, wi = x.numpy().real, x.numpy().imag, w.numpy().real, w.numpy().imag
        naive = (xr @ wr - xi @ wi) + 1j * (xr @ wi + xi @ wr)
        got = (x @ w).numpy()
        assert np.max(np.abs(got - naive)) < 1e-6 * max(1.0, np.max(np.abs(naive)))

    def test_grad(self):
        rng = np.random.default_rng(1)
        x, w, b = cten(rng, 2, 2), cten(rng, 2, 2), cten(rng, 2)
        pr, pi = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))

        def loss():
            y = cv_linear(x, w, b)
            return (real_part(y) * pr + imag_part(y) * pi).sum()

        assert grad_check(loss, [x, w, b]) < 1e-4


class TestConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = cten(rng, 1, 1, 6, grad=False)
        k = CTensor.from_numpy(np.ones((1, 1, 1)))
        assert np.allclose(cv_conv1d(x, k).numpy(), x.numpy())

    def test_phase_kernel_rotates(self):
        rng = np.random.default_rng(3)
        x = cten(rng, 1, 1, 6, grad=False)
        k = CTensor.from_numpy(np.full((1, 1, 1), 1j))
        assert np.allclose(cv_conv1d(x, k).numpy(), 1j * x.numpy())

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = cten(rng, 2, 3, 8, grad=False)
        k = cten(rng, 4, 3, 3, grad=False)
        y = cv_conv1d(x, k, padding=1).numpy()
        xp = np.pad(x.numpy(), ((0, 0), (0, 0), (1, 1)))
        ref = np.zeros_like(y)
        for b in range(2):
            for o in range(4):
                for m in range(8):
                    for c in range(3):
                        for t in range(3):
                            ref[b, o, m] += xp[b, c, m + t] * k.numpy()[o, c, t]
        assert np.max(np.abs(y - ref)) < 1e-6 * np.max(np.abs(ref))

    def test_grad(self):
        rng = np.random.default_rng(5)
        x, k = cten(rng, 1, 2, 6), cten(rng, 2, 2, 3)
        pr = rng.normal(size=(1, 2, 6))
        pi = rng.normal(size=(1, 2, 6))

        def loss():
            y = cv_conv1d(x, k, padding=1)
            return (real_part(y) * pr + imag_part(y) * pi).sum()

        assert grad_check(loss, [x, k]) < 1e-4


class TestSoftmax:
    def test_equal_moduli_preserve_phase(self):
        x = CTensor.from_numpy(np.array([1 + 0j, 0 + 1j]))
        y = cv_softmax(x).numpy()
        assert y == pytest.approx(np.array([0.5, 0.5j]))

    def test_reduces_to_real_softmax_on_positive_reals(self):
        v = np.array([0.3, 1.2, 2.0])
        y = cv_softmax(CTensor.from_numpy(v.astype(complex))).numpy()
        ref = np.exp(v) / np.exp(v).sum()
        assert np.allclose(y.real, ref) and np.allclose(y.imag, 0.0)

    def test_moduli_from_real_softmax_phases_preserved(self):
        x = np.array([2 * np.exp(0.3j), 1 * np.exp(-1.1j)])
        y = cv_softmax(CTensor.from_numpy(x)).numpy()
        ref_mod = np.exp([2.0, 1.0]) / np.exp([2.0, 1.0]).sum()
        assert np.allclose(np.abs(y), ref_mod)
        assert np.allclose(np.angle(y), [0.3, -1.1])

    def test_moduli_sum_to_one_and_argmax_matches(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            z = rng.normal(size=7) + 1j * rng.normal(size=7)
            y = cv_softmax(CTensor.from_numpy(z)).numpy()
            assert abs(np.abs(y).sum() - 1.0) < 1e-10
            assert np.argmax(np.abs(y)) == np.argmax(np.abs(z))

    def test_zero_entry_gets_real_weight(self):
        x = CTensor.from_numpy(np.array([0.0 + 0.0j, 1.0 + 0.0j]))
        y = cv_softmax(x).numpy()
        assert y[0].imag == 0.0 and y[0].real > 0.0

    def test_grad(self):
        rng = np.random.default_rng(7)
        x = cten(rng, 5)
        pr, pi = rng.normal(size=5), rng.normal(size=5)

        def loss():
            y = cv_softmax(x)
            return (real_part(y) * pr + imag_part(y) * pi).sum()

        assert grad_check(loss, [x]) < 1e-4


class TestLayerNorm:
    def test_whitening(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(4, 32)) * 2.0 + 1j * (rng.normal(size=(4, 32)) * 0.5 + 1.0)
        y = cv_layer_norm(CTensor.from_numpy(z)).numpy()
        for row in y:
            assert abs(row.mean()) < 1e-6
            cov = np.cov(np.stack([row.real, row.imag]), bias=True)
            assert np.max(np.abs(cov - np.eye(2))) < 1e-3

    def test_real_input_matches_real_layer_norm(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=(1, 16))
        y = cv_layer_norm(CTensor.from_numpy(v.astype(complex))).numpy()
        ref = (v - v.mean()) / np.sqrt(v.var() + 1e-5)
        assert np.max(np.abs(y.real - ref)) < 1e-4
        assert np.max(np.abs(y.imag)) < 1e-4

    def test_rejects_single_channel(self):
        with pytest.raises(ValueError):
            cv_layer_norm(CTensor.from_numpy(np.ones((3, 1), dtype=complex)))

    def test_grad(self):
        rng = np.random.default_rng(10)
        x = cten(rng, 2, 5)
        pr, pi = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))

        def loss():
            y = cv_layer_norm(x)
            return (real_part(y) * pr + imag_part(y) * pi).sum()

        assert grad_check(loss, [x]) < 1e-4


class TestActivations:
    def test_cprelu_positive_quadrant_identity(self):
        x = CTensor.from_numpy(np.array([1 + 1j]))
        a = Tensor(0.25)
        assert cprelu(x, a, a).numpy() == pytest.approx(np.array([1 + 1j]))

    def test_cprelu_negative_slopes(self):
        x = CTensor.from_numpy(np.array([-1 - 1j]))
        a = Tensor(0.25)
        assert cprelu(x, a, a).numpy() == pytest.approx(np.array([-0.25 - 0.25j]))

    def test_cprelu_slope_grad(self):
        x = CTensor.from_numpy(np.array([-2 + 1j]))
        a_re = Tensor(0.25, requires_grad=True)
        a_im = Tensor(0.25, requires_grad=True)
        y = cprelu(x, a_re, a_im)
        (real_part(y).sum() + imag_part(y).sum()).backward()
        assert a_re.grad == pytest.approx(-2.0)
        assert a_im.grad == pytest.approx(0.0)

    def test_gelu_matches_reference(self):
        from scipy.special import erf

        v = np.linspace(-3, 3, 13)
        y = gelu(Tensor(v)).data
        ref = 0.5 * v * (1 + erf(v / np.sqrt(2)))
        assert np.allclose(y, ref, atol=1e-12)


class TestWindows:
    def test_partition_counts(self):
        x = Tensor(np.zeros((128, 3)))
        assert window_partition(x, 64).shape == (2, 64, 3)

    def test_full_window_is_identity_content(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(16, 2)))
        w = window_partition(x, 16)
        assert w.shape == (1, 16, 2)
        assert np.array_equal(w.data[0], x.data)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(4, 24, 5)))
        back = window_reverse(window_partition(x, 8), 8)
        assert np.array_equal(back.data, x.data)

    def test_rejects_nondividing_window(self):
        with pytest.raises(ValueError):
            window_partition(Tensor(np.zeros((10, 2))), 4)

    def test_cyclic_shift_inverse_and_wraps(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(12, 3)))
        assert np.array_equal(cyclic_shift(x, 0).data, x.data)
        assert np.array_equal(cyclic_shift(x, 12).data, x.data)
        assert np.array_equal(cyclic_shift(cyclic_shift(x, -5), 5).data, x.data)


def make_attention(rng, h, c, d, w, complex_valued, zero_qk=False):
    maker = (lambda *s: cten(rng, *s)) if complex_valued else (lambda *s: rten(rng, *s))
    zero = (
        (lambda *s: CTensor.from_numpy(np.zeros(s), requires_grad=True))
        if complex_valued
        else (lambda *s: Tensor(np.zeros(s), requires_grad=True))
    )
    return AttentionParams(
        wq=zero(h, c, d) if zero_qk else maker(h, c, d),
        wk=zero(h, c, d) if zero_qk else maker(h, c, d),
        wv=maker(h, c, d),
        bq=zero(h, d),
        bk=zero(h, d),
        bv=zero(h, d),
        rpe=zero(h, 2 * w - 1),
        out_w=maker(h * d, c),
        out_b=zero(c),
        heads=h,
        dim=d,
    )


class TestWmsa:
    def test_uniform_attention_is_window_mean(self):
        # zero Q/K projections, identity V and output -> per-window mean
        rng = np.random.default_rng(14)
        c = 3
        params = make_attention(rng, 1, c, c, 4, complex_valued=False, zero_qk=True)
        params.wv = Tensor(np.eye(c).reshape(1, c, c))
        params.out_w = Tensor(np.eye(c))
        x = Tensor(rng.normal(size=(8, c)))
        y = wmsa(x, params, window=4)
        for wdx in range(2):
            blk = x.data[wdx * 4 : (wdx + 1) * 4]
            assert np.allclose(y.data[wdx * 4 : (wdx + 1) * 4], blk.mean(axis=0), atol=1e-12)

    def test_constant_windows_invariant_to_shift(self):
        rng = np.random.default_rng(15)
        c, w = 2, 4
        params = make_attention(rng, 2, c, 3, w, complex_valued=False)
        base = rng.normal(size=(1, 1, c))
        x = Tensor(np.broadcast_to(base, (1, 16, c)).copy())
        y0 = wmsa(x, params, window=w, shift=0)
        y1 = wmsa(x, params, window=w, shift=w // 2)
        assert np.allclose(y0.data, y1.data, atol=1e-10)

    def test_matches_naive_per_pair_oracle_real(self):
        rng = np.random.default_rng(16)
        h, c, d, w, m = 2, 4, 3, 8, 16
        params = make_attention(rng, h, c, d, w, complex_valued=False)
        x = Tensor(rng.normal(size=(m, c)))
        got = wmsa(x, params, window=w).data

        rel = np.arange(w)[:, None] - np.arange(w)[None, :] + w - 1
        out = np.zeros((m, c))
        for widx in range(m // w):
            blk = x.data[widx * w : (widx + 1) * w]
            heads = []
            for hh in range(h):
                q = blk @ params.wq.data[hh] + params.bq.data[hh]
                k = blk @ params.wk.data[hh] + params.bk.data[hh]
                v = blk @ params.wv.data[hh] + params.bv.data[hh]
                ctx = np.zeros((w, d))
                for i in range(w):
                    logits = np.array(
                        [q[i] @ k[j] / np.sqrt(d) + params.rpe.data[hh, rel[i, j]] for j in range(w)]
                    )
                    a = np.exp(logits - logits.max())
                    a /= a.sum()
                    ctx[i] = sum(a[j] * v[j] for j in range(w))
                heads.append(ctx)
            out[widx * w : (widx + 1) * w] = np.concatenate(heads, axis=1) @ params.out_w.data + params.out_b.data
        assert np.max(np.abs(got - out)) < 1e-5

    def test_matches_naive_per_pair_oracle_complex(self):
        rng = np.random.default_rng(17)
        h, c, d, w, m = 1, 3, 2, 4, 8
        params = make_attention(rng, h, c, d, w, complex_valued=True)
        x = cten(rng, m, c, grad=False)
        got = wmsa(x, params, window=w).numpy()

        rel = np.arange(w)[:, None] - np.arange(w)[None, :] + w - 1
        out = np.zeros((m, c), dtype=complex)
        for widx in range(m // w):
            blk = x.numpy()[widx * w : (widx + 1) * w]
            q = blk @ params.wq.numpy()[0] + params.bq.numpy()[0]
            k = blk @ params.wk.numpy()[0] + params.bk.numpy()[0]
            v = blk @ params.wv.numpy()[0] + params.bv.numpy()[0]
            ctx = np.zeros((w, d), dtype=complex)
            for i in range(w):
                # plain transpose (no conjugation) on K, complex positional bias
                logits = np.array(
                    [q[i] @ k[j] / np.sqrt(d) + params.rpe.numpy()[0, rel[i, j]] for j in range(w)]
                )
                mods = np.abs(logits)
                weights = np.exp(mods - mods.max())
                weights /= weights.sum()
                phases = np.where(mods < 1e-12, 1.0, logits / np.maximum(mods, 1e-12))
                a = weights * phases
                ctx[i] = sum(a[j] * v[j] for j in range(w))
            out[widx * w : (widx + 1) * w] = ctx @ params.out_w.numpy() + params.out_b.numpy()
        assert np.max(np.abs(got - out)) < 1e-5

    def test_shift_mask_blocks_cross_segment_pairs(self):
        rng = np.random.default_rng(18)
        h, c, d, w, m = 2, 3, 2, 4, 12
        shift = w // 2
        params = make_attention(rng, h, c, d, w, complex_valued=False)
        x = Tensor(rng.normal(size=(m, c)) * 3)
        _, weights = wmsa(x, params, window=w, shift=shift, return_weights=True)
        mask = shift_attention_mask(m, w, shift) < 0
        leaked = np.abs(weights.data)[..., mask]
        assert leaked.size > 0
        assert np.max(leaked) < 1e-8

    def test_key_bias_inert_on_real_path_only(self):
        # a key bias adds q_i . bk to every logit of row i: a real softmax
        # ignores that row constant, the modulus softmax does not
        rng = np.random.default_rng(26)
        h, c, d, w, m = 2, 3, 2, 4, 12
        for shift in (0, w // 2):
            params = make_attention(rng, h, c, d, w, complex_valued=False)
            params.bq, params.rpe = rten(rng, h, d), rten(rng, h, 2 * w - 1)
            x = rten(rng, m, c, grad=False)
            params.bk = rten(rng, h, d)
            with_bias = wmsa(x, params, window=w, shift=shift).data
            params.bk = None
            without = wmsa(x, params, window=w, shift=shift).data
            assert np.max(np.abs(with_bias - without)) < 1e-12

        params = make_attention(rng, h, c, d, w, complex_valued=True)
        params.bq = cten(rng, h, d)
        x = cten(rng, m, c, grad=False)
        without = wmsa(x, params, window=w).numpy()
        params.bk = cten(rng, h, d)
        with_bias = wmsa(x, params, window=w).numpy()
        assert np.max(np.abs(with_bias - without)) > 1e-3

    def test_grad_real_and_complex(self):
        rng = np.random.default_rng(19)
        for complex_valued in (False, True):
            params = make_attention(rng, 1, 2, 2, 4, complex_valued)
            x = cten(rng, 8, 2) if complex_valued else rten(rng, 8, 2)
            proj_r = rng.normal(size=(8, 2))
            proj_i = rng.normal(size=(8, 2))

            def loss():
                y = wmsa(x, params, window=4, shift=2)
                if complex_valued:
                    return (real_part(y) * proj_r + imag_part(y) * proj_i).sum()
                return (y * proj_r).sum()

            leaves = [x, params.wq, params.wk, params.wv, params.rpe, params.out_w]
            assert grad_check(loss, leaves) < 1e-3


# -- the one-node wmsa against the composite it replaced ------------------------

PARAM_NAMES = ("wq", "wk", "wv", "bq", "bk", "bv", "rpe", "out_w", "out_b")


def attention_arrays(rng, lead, m, c, h, d, window, complex_valued):
    draw = (lambda *s: rng.normal(size=s) + 1j * rng.normal(size=s)) if complex_valued else (
        lambda *s: rng.normal(size=s))
    shapes = dict(wq=(h, c, d), wk=(h, c, d), wv=(h, c, d), bq=(h, d), bk=(h, d), bv=(h, d),
                  rpe=(h, 2 * window - 1), out_w=(h * d, c), out_b=(c,))
    arrays = {name: draw(*shape) for name, shape in shapes.items()}
    arrays["x"] = draw(*lead, m, c)
    arrays["proj"] = rng.normal(size=(*lead, m, c)) + 1j * rng.normal(size=(*lead, m, c))
    return arrays


def run_attention(op, arrays, h, d, window, shift, complex_valued, with_bk):
    """``op``'s output and the gradients of x and every parameter under
    the loss sum(Re(out * conj(proj))); complex parameters are CTensor pairs."""
    leaf = (lambda a: CTensor.from_numpy(a, requires_grad=True)) if complex_valued else (
        lambda a: Tensor(a.copy(), requires_grad=True))
    leaves = {name: leaf(arrays[name]) for name in ("x",) + PARAM_NAMES if name != "bk" or with_bk}
    params = AttentionParams(**{name: leaves.get(name) for name in PARAM_NAMES}, heads=h, dim=d)
    out = op(leaves["x"], params, window, shift=shift)
    real_part(out * np.conj(arrays["proj"])).sum().backward()

    def grad(t):
        if isinstance(t, CTensor):
            return grad(t.re) + 1j * grad(t.im)
        return np.zeros_like(t.data) if t.grad is None else t.grad

    return out.data, {name: grad(t) for name, t in leaves.items()}


def assert_node_matches_composite(arrays, h, d, window, shift, complex_valued, with_bk):
    got, got_grads = run_attention(wmsa, arrays, h, d, window, shift, complex_valued, with_bk)
    ref, ref_grads = run_attention(composite_wmsa, arrays, h, d, window, shift, complex_valued, with_bk)
    for name, a, b in [("out", got, ref)] + [(n, got_grads[n], ref_grads[n]) for n in ref_grads]:
        # a real key bias's gradient is 0 up to rounding (the softmax ignores a
        # row constant), so it is held to the scale of the key weights' gradient
        scale = ref_grads["wk"] if name == "bk" and not complex_valued else b
        assert a.shape == b.shape, name
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(scale)), name


class TestWmsaNode:
    @pytest.mark.parametrize("complex_valued", [False, True])
    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("with_bk", [False, True])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_matches_the_composite(self, complex_valued, shifted, with_bk, lead):
        rng = np.random.default_rng(40)
        h, c, d, window, nw = 2, 5, 3, 4, 3
        arrays = attention_arrays(rng, lead, window * nw, c, h, d, window, complex_valued)
        shift = window // 2 if shifted else 0
        assert_node_matches_composite(arrays, h, d, window, shift, complex_valued, with_bk)

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(h=st.integers(1, 3), d=st.integers(1, 4), window=st.integers(1, 8), nw=st.integers(1, 4),
           c=st.integers(1, 5), lead=st.lists(st.integers(1, 3), max_size=2), shifted=st.booleans(),
           complex_valued=st.booleans(), with_bk=st.booleans(), seed=st.integers(0, 2**16))
    def test_matches_the_composite_over_drawn_sizes(self, h, d, window, nw, c, lead, shifted,
                                                    complex_valued, with_bk, seed):
        rng = np.random.default_rng(seed)
        arrays = attention_arrays(rng, tuple(lead), window * nw, c, h, d, window, complex_valued)
        shift = window // 2 if shifted else 0
        assert_node_matches_composite(arrays, h, d, window, shift, complex_valued, with_bk)

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_one_node_whose_parents_are_the_input_and_the_parameters(self, complex_valued):
        rng = np.random.default_rng(41)
        params = make_attention(rng, 2, 3, 2, 4, complex_valued)
        if not complex_valued:
            params.bk = None
        x = cten(rng, 2, 8, 3) if complex_valued else rten(rng, 2, 8, 3)
        out = wmsa(x, params, window=4, shift=2)
        expected = [x] + [getattr(params, n) for n in PARAM_NAMES if getattr(params, n) is not None]
        assert len(out._parents) == len(expected)
        assert all(p is e for p, e in zip(out._parents, expected))


class TestMlp:
    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(20)
        x = rten(rng, 3, 4, grad=False)
        zero = lambda *s: Tensor(np.zeros(s))
        y = mlp(x, zero(4, 8), zero(8), zero(8, 4), zero(4))
        assert np.allclose(y.data, 0.0)

    def test_composition_matches_two_step_oracle(self):
        rng = np.random.default_rng(21)
        x = cten(rng, 3, 4, grad=False)
        w1, b1 = cten(rng, 4, 8, grad=False), cten(rng, 8, grad=False)
        w2, b2 = cten(rng, 8, 4, grad=False), cten(rng, 4, grad=False)
        a = Tensor(0.25)
        got = mlp(x, w1, b1, w2, b2, activation=lambda z: cprelu(z, a, a)).numpy()
        hid = x.numpy() @ w1.numpy() + b1.numpy()
        act = np.where(hid.real > 0, hid.real, 0.25 * hid.real) + 1j * np.where(
            hid.imag > 0, hid.imag, 0.25 * hid.imag
        )
        ref = act @ w2.numpy() + b2.numpy()
        assert np.max(np.abs(got - ref)) < 1e-8

    def test_grad(self):
        rng = np.random.default_rng(22)
        x = rten(rng, 2, 3)
        w1, b1 = rten(rng, 3, 6), rten(rng, 6)
        w2, b2 = rten(rng, 6, 3), rten(rng, 3)
        proj = rng.normal(size=(2, 3))

        def loss():
            return (mlp(x, w1, b1, w2, b2) * proj).sum()

        assert grad_check(loss, [x, w1, b1, w2, b2]) < 1e-4


class TestInit:
    def test_rayleigh_second_moment(self):
        rng = np.random.default_rng(23)
        w = init_params((100000,), "cv_kaiming_rayleigh", rng, 100000)
        # fan_in = 100000 for a vector; rescale to the fan_in = 1 statement
        second = np.mean(np.abs(w.numpy()) ** 2) * 100000
        assert abs(second - 2.0) < 0.1

    def test_phase_uniform(self):
        rng = np.random.default_rng(24)
        w = init_params((100000,), "cv_kaiming_rayleigh", rng, 100000)
        phases = np.angle(w.numpy()) % (2 * np.pi)
        counts, _ = np.histogram(phases, bins=20, range=(0, 2 * np.pi))
        expected = len(phases) / 20
        chi2 = np.sum((counts - expected) ** 2 / expected)
        # chi-square with 19 dof, 1% critical value
        assert chi2 < 36.19

    def test_deterministic_under_seed(self):
        a = init_params((4, 5), "cv_kaiming_rayleigh", np.random.default_rng(7), 4)
        b = init_params((4, 5), "cv_kaiming_rayleigh", np.random.default_rng(7), 4)
        assert np.array_equal(a.numpy(), b.numpy())

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            init_params((2, 2), "xavier", np.random.default_rng(0), 2)
