"""Per-op checks for the reverse-mode tape.

Every differentiable op is compared against central finite differences on a
random linear scalarization, plus closed-form gradients where they are easy
to state. Subgradient conventions at kinks (abs/clip) are pinned
exactly: the tape must return 0 there.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphpan.autodiff as ad
from graphpan.autodiff import Tensor


def fd_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar-valued f at x (float64)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * eps)
    return g


def tape_grad(f, x):
    t = Tensor(np.asarray(x, dtype=np.float64).copy())
    out = f(t)
    out.backward()
    return t.grad


def check_op(f, x, rtol=1e-6, atol=1e-8):
    num = fd_grad(lambda a: float(ad.value(f(Tensor(a))).item()), x)
    ana = tape_grad(f, x)
    np.testing.assert_allclose(ana, num, rtol=rtol, atol=atol)


RNG = np.random.default_rng(7)
X23 = RNG.normal(size=(2, 3))
U23 = RNG.normal(size=(2, 3))


class TestElementwise:
    def test_add_sub_mul_div(self):
        other = RNG.normal(size=(2, 3)) + 2.0
        check_op(lambda t: ((t + other) * U23).sum(), X23)
        check_op(lambda t: ((t - other) * U23).sum(), X23)
        check_op(lambda t: ((t * other) * U23).sum(), X23)
        check_op(lambda t: ((t / other) * U23).sum(), X23)
        check_op(lambda t: ((other / (t + 5.0)) * U23).sum(), X23)

    def test_closed_form_square(self):
        g = tape_grad(lambda t: (t * t).sum(), X23)
        np.testing.assert_allclose(g, 2.0 * X23)

    def test_sqrt(self):
        xpos = np.abs(X23) + 0.5
        check_op(lambda t: (ad.sqrt(t) * U23).sum(), xpos)
        g = tape_grad(lambda t: ad.sqrt(t).sum(), xpos)
        np.testing.assert_allclose(g, 0.5 / np.sqrt(xpos))

    def test_exp_log(self):
        xpos = np.abs(X23) + 0.5
        check_op(lambda t: (ad.exp(t) * U23).sum(), X23)
        check_op(lambda t: (ad.log(t) * U23).sum(), xpos)

    def test_tanh(self):
        check_op(lambda t: (ad.tanh(t) * U23).sum(), X23)
        check_op(lambda t: (ad.tanh(t * 4.0) * U23).sum(), X23)  # near saturation
        g = tape_grad(lambda t: ad.tanh(t).sum(), X23)
        np.testing.assert_allclose(g, 1.0 / np.cosh(X23) ** 2)
        assert ad.tanh(Tensor(np.zeros(2))).data.tolist() == [0.0, 0.0]

    def test_negative(self):
        g = tape_grad(lambda t: (-t).sum(), X23)
        np.testing.assert_allclose(g, -np.ones_like(X23))

    def test_broadcasting_unbroadcast(self):
        a = RNG.normal(size=(3, 1))
        b = RNG.normal(size=(1, 4))
        u = RNG.normal(size=(3, 4))
        check_op(lambda t: ((t + b) * u).sum(), a)
        check_op(lambda t: ((a * t) * u).sum(), b)
        # scalar-array broadcast
        check_op(lambda t: ((t * 3.0 + 1.0) * U23).sum(), X23)

    def test_python_scalars_keep_float32(self):
        x = X23.astype(np.float32)
        for f in (lambda t: t * 0.5, lambda t: 0.5 * t, lambda t: t + 1.0,
                  lambda t: 1 - t, lambda t: t / 3.0, lambda t: 2.0 / (t + 5.0)):
            t = Tensor(x.copy())
            out = f(t)
            assert out.dtype == np.float32
            out.sum().backward()
            assert t.grad.dtype == np.float32


class TestKinks:
    def test_abs_subgradient_zero_at_zero(self):
        x = np.array([-2.0, 0.0, 3.0])
        g = tape_grad(lambda t: ad.absolute(t).sum(), x)
        np.testing.assert_array_equal(g, [-1.0, 0.0, 1.0])

    def test_clip_zero_outside_open_interval(self):
        x = np.array([-1.0, 0.0, 0.25, 1.0, 2.0])
        g = tape_grad(lambda t: ad.clip(t, 0.0, 1.0).sum(), x)
        np.testing.assert_array_equal(g, [0.0, 0.0, 1.0, 0.0, 0.0])

    def test_abs_fd_away_from_kink(self):
        x = RNG.normal(size=(2, 3)) + np.sign(RNG.normal(size=(2, 3))) * 0.5
        check_op(lambda t: (ad.absolute(t) * U23).sum(), x)


class TestLinearAlgebra:
    def test_matmul_both_sides(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(3, 4))
        u = RNG.normal(size=(2, 4))
        check_op(lambda t: ((t @ b) * u).sum(), a)
        check_op(lambda t: ((a @ t) * u).sum(), b)

    def test_matmul_closed_form(self):
        a, b = Tensor(RNG.normal(size=(2, 3))), Tensor(RNG.normal(size=(3, 4)))
        u = RNG.normal(size=(2, 4))
        ((a @ b) * u).sum().backward()
        np.testing.assert_allclose(a.grad, u @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ u)

    def test_matmul_rejects_non_2d(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones(3)), np.ones((3, 2)))

    def test_transpose_reshape(self):
        check_op(lambda t: (t.T * U23.T).sum(), X23)
        check_op(lambda t: (t.reshape(3, 2) * U23.reshape(3, 2)).sum(), X23)
        check_op(lambda t: (t.reshape((6,)) * U23.reshape(-1)).sum(), X23)


class TestReductionsIndexing:
    def test_sum_mean_axes(self):
        u0 = RNG.normal(size=(3,))
        u1 = RNG.normal(size=(2,))
        check_op(lambda t: (t.sum(axis=0) * u0).sum(), X23)
        check_op(lambda t: (t.sum(axis=1) * u1).sum(), X23)
        check_op(lambda t: (t.mean(axis=0, keepdims=True) * u0).sum(), X23)
        check_op(lambda t: t.mean(), X23)
        g = tape_grad(lambda t: t.mean(), X23)
        np.testing.assert_allclose(g, np.full_like(X23, 1.0 / X23.size))

    def test_take_scatter_adds_on_repeats(self):
        x = np.array([1.0, 2.0, 3.0])
        idx = np.array([0, 0, 2])
        g = tape_grad(lambda t: t[idx].sum(), x)
        np.testing.assert_array_equal(g, [2.0, 0.0, 1.0])

    def test_take_rows_fd(self):
        x = RNG.normal(size=(4, 3))
        idx = np.array([3, 0, 0, 2])
        u = RNG.normal(size=(4, 3))
        check_op(lambda t: (t[idx] * u).sum(), x)
        check_op(lambda t: (t[np.array([-1, 0, -1, 2])] * u).sum(), x)
        # basic indices select each element once
        check_op(lambda t: (t[1:3] * u[:2]).sum(), x)
        check_op(lambda t: (t[2] * u[0]).sum(), x)
        check_op(lambda t: (t[np.int64(-1)] * u[1]).sum(), x)

    def test_concatenate_mixed_parts(self):
        a = RNG.normal(size=(2, 2))
        const = RNG.normal(size=(1, 2))
        u = RNG.normal(size=(3, 2))
        check_op(lambda t: (ad.concatenate([t, const], axis=0) * u).sum(), a)
        out = ad.concatenate([np.ones((1, 2)), Tensor(a)], axis=0)
        assert isinstance(out, Tensor)
        out.sum().backward()

    def test_index_add_matches_add_at(self):
        idx = np.array([2, 0, 2, 1, 2])
        vals1 = RNG.normal(size=5)
        vals2 = RNG.normal(size=(5, 3))
        for vals in (vals1, vals2):
            want = np.zeros((4,) + vals.shape[1:])
            np.add.at(want, idx, vals)
            np.testing.assert_allclose(ad.index_add(4, idx, vals), want)

    def test_index_add_empty(self):
        out = ad.index_add(3, np.array([], dtype=int), np.zeros((0, 2)))
        np.testing.assert_array_equal(out, np.zeros((3, 2)))

    def test_index_add_grad_is_gather(self):
        idx = np.array([1, 1, 0])
        vals = Tensor(RNG.normal(size=(3, 2)))
        u = RNG.normal(size=(2, 2))
        (ad.index_add(2, idx, vals) * u).sum().backward()
        np.testing.assert_allclose(vals.grad, u[idx])


def dense_info_nce(a, b, tau):
    """InfoNCE through the (n, n) logits, composed from the elementwise ops:
    the oracle for the fused node."""
    n = len(ad.value(a))
    s = (a @ ad.transpose(b)) / tau
    m = np.max(ad.value(s), axis=1, keepdims=True)
    lse = ad.log(ad.sum(ad.exp(s - m), axis=1)) + m.reshape(-1)
    return ad.mean(lse - s[np.arange(n), np.arange(n)])


class TestInfoNce:
    N = 2 * ad._NCE_BLOCK + 37  # two full row blocks and a partial one

    def inputs(self, seed, n=None):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n or self.N, 5))
        b = a + 0.5 * rng.normal(size=a.shape)
        unit = lambda x: x / np.linalg.norm(x, axis=1, keepdims=True)  # noqa: E731
        return unit(a), unit(b)

    @pytest.mark.parametrize("tau", [0.5, 1e-3])
    def test_matches_dense_oracle(self, tau):
        a0, b0 = self.inputs(0)
        grads = []
        for fn in (ad.info_nce, dense_info_nce):
            a, b = Tensor(a0.copy()), Tensor(b0.copy())
            out = fn(a, b, tau)
            out.backward()
            grads.append((out.item(), a.grad, b.grad))
        (v, ga, gb), (wv, wa, wb) = grads
        assert v == pytest.approx(wv, rel=1e-12)
        np.testing.assert_allclose(ga, wa, rtol=1e-9, atol=1e-12 * np.abs(wa).max())
        np.testing.assert_allclose(gb, wb, rtol=1e-9, atol=1e-12 * np.abs(wb).max())
        assert float(ad.info_nce(a0, b0, tau)) == v

    @pytest.mark.parametrize("tau", [0.5, 1e-3])
    def test_directional_fd(self, tau):
        a0, b0 = self.inputs(1)
        a, b = Tensor(a0.copy()), Tensor(b0.copy())
        ad.info_nce(a, b, tau).backward()
        rng = np.random.default_rng(2)
        eps = 1e-4 * tau
        for _ in range(3):
            va, vb = rng.normal(size=a0.shape), rng.normal(size=b0.shape)
            fd = (
                float(ad.info_nce(a0 + eps * va, b0 + eps * vb, tau))
                - float(ad.info_nce(a0 - eps * va, b0 - eps * vb, tau))
            ) / (2.0 * eps)
            an = float(np.sum(a.grad * va) + np.sum(b.grad * vb))
            assert an == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_coordinate_fd_small(self):
        a0, b0 = self.inputs(3, n=6)
        check_op(lambda t: ad.info_nce(t, b0, 0.5), a0)
        check_op(lambda t: ad.info_nce(a0, t, 0.5), b0)

    def test_float32_gradients_stay_float32(self):
        a0, b0 = self.inputs(4)
        a, b = Tensor(a0.astype(np.float32)), Tensor(b0.astype(np.float32))
        out = ad.info_nce(a, b, 0.5)
        out.backward()
        assert out.dtype == a.grad.dtype == b.grad.dtype == np.float32

    def test_memory_is_row_blocked(self):
        import tracemalloc

        n = 3000
        a0, b0 = self.inputs(5, n=n)
        a, b = Tensor(a0), Tensor(b0)
        tracemalloc.start()
        try:
            ad.info_nce(a, b, 0.5).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4  # a quarter of one (n, n) float64 array


class TestTapeMechanics:
    def test_diamond_reuse_accumulates(self):
        x = Tensor(np.array(3.0))
        y = (x + x) * x  # 2x^2 -> dy/dx = 4x
        y.backward()
        assert x.grad == pytest.approx(12.0)

    def test_deep_chain_no_recursion_limit(self):
        x = Tensor(np.array(1.0))
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.backward()
        assert x.grad == pytest.approx(1.0)

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)).backward()

    def test_plain_passthrough(self):
        # ops on plain arrays return plain arrays, untaped
        assert not isinstance(ad.add(X23, X23), Tensor)
        assert not isinstance(ad.absolute(X23), Tensor)
        assert not isinstance(ad.info_nce(X23, U23, 0.5), Tensor)
        np.testing.assert_array_equal(ad.value(Tensor(X23)), X23)
        np.testing.assert_array_equal(ad.value(X23), X23)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_random_expression_grads(n, m, seed):
    """Composite expression gradient matches finite differences."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    w = rng.normal(size=(m, m))
    u = rng.normal(size=(n, m))

    def f(t):
        h = t @ w
        h = h * h + ad.exp(h * 0.1)
        return (h * u).mean()

    check_op(f, x, rtol=1e-5, atol=1e-7)
