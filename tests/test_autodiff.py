"""Per-op checks for the reverse-mode tape.

Every differentiable op is compared against central finite differences on a
random linear scalarization, plus closed-form gradients where they are easy
to state. Subgradient conventions at kinks (abs/clip) are pinned
exactly: the tape must return 0 there.
"""

import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import graphpan.autodiff as ad
from graphpan.autodiff import Tensor

from oracles import chained_unit_rows, exp, log


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
        check_op(lambda t: ad.sum((t + other) * U23), X23)
        check_op(lambda t: ad.sum((t - other) * U23), X23)
        check_op(lambda t: ad.sum((t * other) * U23), X23)
        check_op(lambda t: ad.sum((t / other) * U23), X23)
        check_op(lambda t: ad.sum((other / (t + 5.0)) * U23), X23)

    def test_closed_form_square(self):
        g = tape_grad(lambda t: ad.sum(t * t), X23)
        np.testing.assert_allclose(g, 2.0 * X23)

    def test_sqrt(self):
        xpos = np.abs(X23) + 0.5
        check_op(lambda t: ad.sum(ad.sqrt(t) * U23), xpos)
        g = tape_grad(lambda t: ad.sum(ad.sqrt(t)), xpos)
        np.testing.assert_allclose(g, 0.5 / np.sqrt(xpos))

    def test_exp_log(self):
        xpos = np.abs(X23) + 0.5
        check_op(lambda t: ad.sum(exp(t) * U23), X23)
        check_op(lambda t: ad.sum(log(t) * U23), xpos)

    def test_tanh(self):
        check_op(lambda t: ad.sum(ad.tanh(t) * U23), X23)
        check_op(lambda t: ad.sum(ad.tanh(t * 4.0) * U23), X23)  # near saturation
        g = tape_grad(lambda t: ad.sum(ad.tanh(t)), X23)
        np.testing.assert_allclose(g, 1.0 / np.cosh(X23) ** 2)
        assert ad.tanh(Tensor(np.zeros(2))).data.tolist() == [0.0, 0.0]

    def test_negative(self):
        g = tape_grad(lambda t: ad.sum(-t), X23)
        np.testing.assert_allclose(g, -np.ones_like(X23))

    def test_broadcasting_unbroadcast(self):
        a = RNG.normal(size=(3, 1))
        b = RNG.normal(size=(1, 4))
        u = RNG.normal(size=(3, 4))
        check_op(lambda t: ad.sum((t + b) * u), a)
        check_op(lambda t: ad.sum((a * t) * u), b)
        # scalar-array broadcast
        check_op(lambda t: ad.sum((t * 3.0 + 1.0) * U23), X23)

    def test_python_scalars_keep_float32(self):
        x = X23.astype(np.float32)
        for f in (lambda t: t * 0.5, lambda t: 0.5 * t, lambda t: t + 1.0,
                  lambda t: 1 - t, lambda t: t / 3.0, lambda t: 2.0 / (t + 5.0)):
            t = Tensor(x.copy())
            out = f(t)
            assert ad.value(out).dtype == np.float32
            ad.sum(out).backward()
            assert t.grad.dtype == np.float32


class TestKinks:
    def test_abs_subgradient_zero_at_zero(self):
        x = np.array([-2.0, 0.0, 3.0])
        g = tape_grad(lambda t: ad.sum(ad.absolute(t)), x)
        np.testing.assert_array_equal(g, [-1.0, 0.0, 1.0])

    def test_clip_zero_outside_open_interval(self):
        x = np.array([-1.0, 0.0, 0.25, 1.0, 2.0])
        g = tape_grad(lambda t: ad.sum(ad.clip(t, 0.0, 1.0)), x)
        np.testing.assert_array_equal(g, [0.0, 0.0, 1.0, 0.0, 0.0])

    def test_abs_fd_away_from_kink(self):
        x = RNG.normal(size=(2, 3)) + np.sign(RNG.normal(size=(2, 3))) * 0.5
        check_op(lambda t: ad.sum(ad.absolute(t) * U23), x)


class TestLinearAlgebra:
    def test_matmul_both_sides(self):
        a = RNG.normal(size=(2, 3))
        b = RNG.normal(size=(3, 4))
        u = RNG.normal(size=(2, 4))
        check_op(lambda t: ad.sum((t @ b) * u), a)
        check_op(lambda t: ad.sum((a @ t) * u), b)

    def test_matmul_closed_form(self):
        a, b = Tensor(RNG.normal(size=(2, 3))), Tensor(RNG.normal(size=(3, 4)))
        u = RNG.normal(size=(2, 4))
        ad.sum((a @ b) * u).backward()
        np.testing.assert_allclose(a.grad, u @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ u)

    def test_matmul_rejects_non_2d(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones(3)), np.ones((3, 2)))

    def test_matmul_stacks(self):
        # a stack against a shared matrix, a shared matrix against a stack,
        # and two stacks: a shared operand's gradient sums over the stack
        a, b = RNG.normal(size=(3, 2, 4)), RNG.normal(size=(3, 4, 5))
        for x, y in [(a, b[0]), (a[0], b), (a, b)]:
            u = RNG.normal(size=np.shape(x @ y))
            check_op(lambda t: ad.sum((t @ y) * u), x)
            check_op(lambda t: ad.sum((x @ t) * u), y)

    def test_transpose_reshape(self):
        check_op(lambda t: ad.sum(ad.transpose(t) * U23.T), X23)
        x = RNG.normal(size=(2, 3, 4))
        u = RNG.normal(size=(3, 4, 2))
        check_op(lambda t: ad.sum(ad.transpose(t, (1, 2, 0)) * u), x)
        check_op(lambda t: ad.sum(ad.reshape(t, (3, 2)) * U23.reshape(3, 2)), X23)
        check_op(lambda t: ad.sum(ad.reshape(t, (6,)) * U23.reshape(-1)), X23)


class TestReductionsIndexing:
    def test_sum_mean_axes(self):
        u0 = RNG.normal(size=(3,))
        u1 = RNG.normal(size=(2,))
        check_op(lambda t: ad.sum(ad.sum(t, axis=0) * u0), X23)
        check_op(lambda t: ad.sum(ad.sum(t, axis=1) * u1), X23)
        check_op(lambda t: ad.sum(ad.mean(t, axis=0, keepdims=True) * u0), X23)
        check_op(lambda t: ad.mean(t), X23)
        g = tape_grad(lambda t: ad.mean(t), X23)
        np.testing.assert_allclose(g, np.full_like(X23, 1.0 / X23.size))

    def test_take_scatter_adds_on_repeats(self):
        x = np.array([1.0, 2.0, 3.0])
        idx = np.array([0, 0, 2])
        g = tape_grad(lambda t: ad.sum(t[idx]), x)
        np.testing.assert_array_equal(g, [2.0, 0.0, 1.0])

    def test_take_rows_fd(self):
        x = RNG.normal(size=(4, 3))
        idx = np.array([3, 0, 0, 2])
        u = RNG.normal(size=(4, 3))
        check_op(lambda t: ad.sum(t[idx] * u), x)
        check_op(lambda t: ad.sum(t[np.array([-1, 0, -1, 2])] * u), x)
        # basic indices select each element once
        check_op(lambda t: ad.sum(t[1:3] * u[:2]), x)
        check_op(lambda t: ad.sum(t[2] * u[0]), x)
        check_op(lambda t: ad.sum(t[np.int64(-1)] * u[1]), x)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8])
    def test_take_of_an_integer_vector_is_numpy_indexing(self, dtype):
        x = RNG.normal(size=(6, 3))
        for idx in ([5, 0, 0, 2], [-1, 3] if dtype != np.uint8 else [1, 3], []):
            idx = np.array(idx, dtype)
            for src in (x, x[:, 0]):
                got = ad.take(Tensor(src), idx)
                assert got.data.tobytes() == src[idx].tobytes() and got.data.shape == src[idx].shape
        with pytest.raises(IndexError):
            ad.take(Tensor(x), np.array([6], dtype))

    def test_concatenate_mixed_parts(self):
        a = RNG.normal(size=(2, 2))
        const = RNG.normal(size=(1, 2))
        u = RNG.normal(size=(3, 2))
        check_op(lambda t: ad.sum(ad.concatenate([t, const], axis=0) * u), a)
        out = ad.concatenate([np.ones((1, 2)), Tensor(a)], axis=0)
        assert isinstance(out, Tensor)
        ad.sum(out).backward()

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
        ad.sum(ad.index_add(2, idx, vals) * u).backward()
        np.testing.assert_allclose(vals.grad, u[idx])

    @pytest.mark.parametrize("idx", [[5, 0], [3, 0], [-1, 0]])
    @pytest.mark.parametrize("shape", [(2,), (2, 3)])
    def test_index_add_rejects_out_of_range(self, idx, shape):
        # 1-D values used to come back longer (np.bincount grows its output)
        with pytest.raises(ValueError, match="out of range"):
            ad.index_add(3, np.array(idx), np.ones(shape))


def dense_matrix(n, m, rows, cols, vals):
    """Oracle: the (n, m) matrix with vals added at (rows, cols)."""
    a = np.zeros((n, m))
    np.add.at(a, (rows, cols), vals)
    return a


class TestSparseOps:
    """spmm and edge_dots on entries with a repeated (row, col), both
    directions of a pair, a diagonal entry, an isolated node (4) and no
    entries at all."""

    N = 5
    ROWS = np.array([0, 1, 1, 1, 2, 3, 0])
    COLS = np.array([1, 0, 2, 2, 3, 3, 2])
    EMPTY = np.array([], dtype=np.int64)

    def inputs(self, seed, e=None):
        rng = np.random.default_rng(seed)
        e = len(self.ROWS) if e is None else e
        return rng.normal(size=e), rng.normal(size=(self.N, 3)), rng.normal(size=(self.N, 3))

    def test_spmm_matches_dense(self):
        vals, v, _ = self.inputs(0)
        a = dense_matrix(self.N, self.N, self.ROWS, self.COLS, vals)
        np.testing.assert_allclose(ad.spmm(self.N, self.ROWS, self.COLS, vals, v), a @ v)
        np.testing.assert_allclose(ad.spmm(self.N, self.COLS, self.ROWS, vals, v), a.T @ v)
        # A need not be square: n output rows, len(V) columns
        tall = ad.spmm(self.N + 2, self.ROWS + 2, self.COLS, vals, v)
        np.testing.assert_allclose(tall, dense_matrix(self.N + 2, self.N, self.ROWS + 2, self.COLS, vals) @ v)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_spmm_vjps_fd(self, transposed):
        rows, cols = (self.COLS, self.ROWS) if transposed else (self.ROWS, self.COLS)
        vals, v, u = self.inputs(1)
        check_op(lambda t: ad.sum(ad.spmm(self.N, rows, cols, t, v) * u), vals)
        check_op(lambda t: ad.sum(ad.spmm(self.N, rows, cols, vals, t) * u), v)
        # both parents on the tape at once, and V reused downstream
        vt, wt = Tensor(v.copy()), Tensor(vals.copy())
        out = ad.sum((ad.spmm(self.N, rows, cols, wt, vt) + vt) * u)
        out.backward()
        a = dense_matrix(self.N, self.N, rows, cols, vals)
        np.testing.assert_allclose(vt.grad, a.T @ u + u)
        np.testing.assert_allclose(wt.grad, np.sum(u[rows] * v[cols], axis=1))

    def test_spmm_empty(self):
        _, v, u = self.inputs(2)
        vals = Tensor(np.zeros(0))
        vt = Tensor(v.copy())
        out = ad.spmm(self.N, self.EMPTY, self.EMPTY, vals, vt)
        np.testing.assert_array_equal(out.data, np.zeros_like(v))
        ad.sum(out * u).backward()
        assert vals.grad.shape == (0,)
        np.testing.assert_array_equal(vt.grad, np.zeros_like(v))

    def test_edge_dots_matches_gather(self):
        _, unit, _ = self.inputs(3)
        got = ad.edge_dots(unit, self.COLS, self.ROWS)
        np.testing.assert_allclose(got, np.sum(unit[self.ROWS] * unit[self.COLS], axis=1))
        assert ad.edge_dots(unit, self.EMPTY, self.EMPTY).shape == (0,)

    def test_edge_dots_vjp_fd(self):
        w, unit, _ = self.inputs(4)
        check_op(lambda t: ad.sum(ad.edge_dots(t, self.COLS, self.ROWS) * w), unit)
        # longer than one gather block, with every kind of repeat
        rng = np.random.default_rng(5)
        e = 2 * ad._DOT_BLOCK + 7
        src, dst = rng.integers(0, self.N - 1, e), rng.integers(0, self.N - 1, e)
        big = rng.normal(size=e)
        check_op(lambda t: ad.sum(ad.edge_dots(t, src, dst) * big), unit, rtol=1e-6, atol=1e-6)
        ut = Tensor(unit.copy())
        ad.sum(ad.edge_dots(ut, self.EMPTY, self.EMPTY)).backward()
        np.testing.assert_array_equal(ut.grad, np.zeros_like(unit))

    def test_float32_gradients_stay_float32(self):
        vals, v, u = (x.astype(np.float32) for x in self.inputs(6))
        wt, vt, ut = Tensor(vals), Tensor(v), Tensor(u)
        out = ad.sum(ad.spmm(self.N, self.ROWS, self.COLS, wt, vt) * u) + ad.sum(ad.edge_dots(ut, self.COLS, self.ROWS))
        out.backward()
        assert ad.value(out).dtype == wt.grad.dtype == vt.grad.dtype == ut.grad.dtype == np.float32

    @pytest.mark.parametrize("bad", [5, -1])
    def test_reject_out_of_range(self, bad):
        vals, v, _ = self.inputs(7)
        for which in range(2):
            idx = [self.ROWS.copy(), self.COLS.copy()]
            idx[which][3] = bad
            with pytest.raises(ValueError, match="out of range"):
                ad.spmm(self.N, *idx, vals, v)
            with pytest.raises(ValueError, match="out of range"):
                ad.edge_dots(v, *idx)
        # the columns index V, whose length bounds them
        with pytest.raises(ValueError, match="out of range"):
            ad.spmm(self.N, self.ROWS, self.COLS, vals, v[:3])


def fancy_row_dots(a, ia, b, ib):
    """The reference for :func:`autodiff._row_dots`: the same blocks, each
    block's rows gathered by fancy indexing."""
    out = np.empty(len(ia), dtype=np.result_type(a, b))
    for i in range(0, len(ia), ad._DOT_BLOCK):
        rows = slice(i, i + ad._DOT_BLOCK)
        out[rows] = np.einsum("ij,ij->i", a[ia[rows]], b[ib[rows]])
    return out


class TestRowDots:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("e", [0, 37, 2 * ad._DOT_BLOCK + 1])
    def test_bits_of_the_fancy_index_gather(self, e, dtype):
        rng = np.random.default_rng(e)
        a = rng.normal(size=(50, 64)).astype(dtype)
        # a non-contiguous operand: every other column of a wider array
        b = rng.normal(size=(40, 128)).astype(dtype)[:, ::2]
        assert not b.flags.c_contiguous
        ia, ib = rng.integers(0, 50, e), rng.integers(0, 40, e)
        for x, ix, y, iy in ((a, ia, b, ib), (b, ib, a, ia), (a, ia, a, ia)):
            got, want = ad._row_dots(x, ix, y, iy), fancy_row_dots(x, ix, y, iy)
            assert got.dtype == want.dtype == dtype and got.shape == (e,)
            assert got.tobytes() == want.tobytes()


def coo_csr(n, m, rows, cols, vals):
    """The matrix the sparse ops built before :func:`autodiff.sparse_matrix`:
    scipy's COO conversion, with rows sorted by column and repeats merged."""
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, m))


class TestSparseMatrix:
    """Matrices built straight from their entries give the COO-built
    matrix's products bit for bit when no (row, col) repeats, in any entry
    order."""

    N, M = 40, 30

    def entries(self, seed, e=150):
        rng = np.random.default_rng(seed)
        flat = rng.choice(self.N * self.M, e, replace=False)
        rows, cols = np.divmod(flat, self.M)
        return rows, cols, rng.normal(size=e)

    @pytest.mark.parametrize("order", ["row-major", "column-major", "runs", "random"])
    def test_products_match_the_coo_matrix(self, order):
        rows, cols, vals = self.entries(11)
        keys = {"row-major": rows * self.M + cols, "column-major": cols * self.N + rows,
                "runs": np.arange(len(rows)) % 3 * self.N * self.M + rows * self.M + cols,
                "random": np.random.default_rng(12).permutation(len(rows))}
        perm = np.argsort(keys[order], kind="stable")
        r, c, v = rows[perm], cols[perm], vals[perm]
        got, want = ad.sparse_matrix(self.N, self.M, r, c, v), coo_csr(self.N, self.M, r, c, v)
        if order != "random":
            assert got.format == {"column-major": "csc"}.get(order, "csr")
        x = np.random.default_rng(13).normal(size=(self.M, 5))
        y = np.random.default_rng(14).normal(size=(self.N, 5))
        assert (got @ x).tobytes() == (want @ x).tobytes()
        assert (got.T @ y).tobytes() == (want.T @ y).tobytes()

    @pytest.mark.parametrize("order", ["row-major", "column-major", "random"])
    def test_int32_entries_build_the_int64_matrix(self, order):
        # the same arrays and product bits from int32 and int64 indices; a
        # sorted int32 minor index becomes the matrix's own, not a copy
        rows, cols, vals = self.entries(18)
        keys = {"row-major": rows * self.M + cols, "column-major": cols * self.N + rows,
                "random": np.random.default_rng(19).permutation(len(rows))}
        perm = np.argsort(keys[order], kind="stable")
        r, c, v = rows[perm], cols[perm], vals[perm]
        r32, c32 = r.astype(np.int32), c.astype(np.int32)
        narrow = ad.sparse_matrix(self.N, self.M, r32, c32, v)
        wide = ad.sparse_matrix(self.N, self.M, r.astype(np.int64), c.astype(np.int64), v)
        assert narrow.format == wide.format
        for part in ("data", "indices", "indptr"):
            a, b = getattr(narrow, part), getattr(wide, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part
        if order != "random":
            assert np.shares_memory(narrow.indices, c32 if order == "row-major" else r32)
        x = np.random.default_rng(20).normal(size=(self.M, 5))
        y = np.random.default_rng(21).normal(size=(self.N, 5))
        assert (narrow @ x).tobytes() == (wide @ x).tobytes()
        assert (narrow.T @ y).tobytes() == (wide.T @ y).tobytes()

    def test_repeats_stay_apart_within_round_off(self):
        rows, cols, vals = self.entries(15)
        rows, cols = np.concatenate([rows, rows[::3]]), np.concatenate([cols, cols[::3]])
        vals = np.concatenate([vals, np.arange(len(vals[::3])) * 0.1])
        got = ad.sparse_matrix(self.N, self.M, rows, cols, vals)
        assert got.nnz == len(vals)
        np.testing.assert_allclose(got.toarray(), dense_matrix(self.N, self.M, rows, cols, vals),
                                   rtol=1e-15, atol=1e-15)

    def test_empty(self):
        got = ad.sparse_matrix(3, 4, np.zeros(0, int), np.zeros(0, int), np.zeros(0))
        assert got.shape == (3, 4) and got.nnz == 0

    def test_spmm_and_edge_dots_on_unsorted_indices(self):
        rng = np.random.default_rng(16)
        rows, cols, vals = self.entries(17)
        perm = rng.permutation(len(rows))
        rows, cols, vals = rows[perm], cols[perm], vals[perm]
        v, g = rng.normal(size=(self.M, 4)), rng.normal(size=(self.N, 4))
        a = coo_csr(self.N, self.M, rows, cols, vals)
        vt, wt = Tensor(v.copy()), Tensor(vals.copy())
        out = ad.spmm(self.N, rows, cols, wt, vt)
        assert out.data.tobytes() == (a @ v).tobytes()
        ad.sum(out * g).backward()
        assert vt.grad.tobytes() == (a.T @ g).tobytes()
        # edge_dots' VJP on the same unsorted pairs as (dst, src), M < N
        unit, w = rng.normal(size=(self.N, 4)), rng.normal(size=len(rows))
        src, dst = cols, rows
        ut = Tensor(unit.copy())
        ad.sum(ad.edge_dots(ut, src, dst) * w).backward()
        s = coo_csr(self.N, self.N, dst, src, w)
        assert ut.grad.tobytes() == (s @ unit + s.T @ unit).tobytes()


class TestSparseApply:
    """A constant sparse matrix applied on the tape."""

    def operands(self, seed):
        rng = np.random.default_rng(seed)
        m = sparse.random(6, 4, density=0.5, random_state=seed, format="csr")
        return m, rng.normal(size=(4, 3)), rng.normal(size=(6, 3))

    def test_value_and_fd(self):
        m, x, u = self.operands(20)
        np.testing.assert_array_equal(ad.sparse_apply(m, x), m @ x)
        check_op(lambda t: ad.sum(ad.sparse_apply(m, t) * u), x)
        # CSC and a gather (one 1 per row, rows repeated)
        g = sparse.csc_matrix((np.ones(5), ([0, 1, 2, 3, 4], [2, 0, 2, 3, 2])), shape=(5, 4))
        check_op(lambda t: ad.sum(ad.sparse_apply(g, t) * u[:5]), x)

    def test_vjp_is_the_transpose_product(self):
        m, x, u = self.operands(21)
        xt = Tensor(x.copy())
        ad.sum(ad.sparse_apply(m, xt) * u).backward()
        assert xt.grad.tobytes() == (m.T @ u).tobytes()

    @pytest.mark.parametrize("shape", [(5, 3), (4,), (4, 3, 1)])
    def test_shape_mismatch(self, shape):
        m, _, _ = self.operands(22)
        with pytest.raises(ValueError, match="sparse_apply"):
            ad.sparse_apply(m, np.ones(shape))


def dense_info_nce(a, b, tau):
    """InfoNCE through the (n, n) logits, composed from the elementwise ops:
    the oracle for the fused node."""
    n = len(ad.value(a))
    s = (a @ ad.transpose(b)) / tau
    m = np.max(ad.value(s), axis=1, keepdims=True)
    lse = log(ad.sum(exp(s - m), axis=1)) + m.reshape(-1)
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
            grads.append((float(ad.value(out)), a.grad, b.grad))
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

    def test_blocks_contrast_within_themselves(self):
        # (k, n, d) operands: each block is its own contrast, and the value
        # is the mean over all k n anchors
        blocks = [self.inputs(10 + j) for j in range(3)]
        a0 = np.stack([a for a, _ in blocks])
        b0 = np.stack([b for _, b in blocks])
        a, b = Tensor(a0.copy()), Tensor(b0.copy())
        out = ad.info_nce(a, b, 0.5)
        out.backward()
        want = np.mean([float(ad.info_nce(x, y, 0.5)) for x, y in blocks])
        assert float(ad.value(out)) == pytest.approx(want, rel=1e-12)
        assert a.grad.shape == a0.shape and b.grad.shape == b0.shape
        for j, (x, y) in enumerate(blocks):
            ta, tb = Tensor(x.copy()), Tensor(y.copy())
            dense_info_nce(ta, tb, 0.5).backward()
            wa, wb = ta.grad / len(blocks), tb.grad / len(blocks)
            np.testing.assert_allclose(a.grad[j], wa, rtol=1e-9, atol=1e-12 * np.abs(wa).max())
            np.testing.assert_allclose(b.grad[j], wb, rtol=1e-9, atol=1e-12 * np.abs(wb).max())

    def test_coordinate_fd_blocks(self):
        rng = np.random.default_rng(11)
        a0, b0 = rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 3))
        check_op(lambda t: ad.info_nce(t, b0, 0.5), a0)
        check_op(lambda t: ad.info_nce(a0, t, 0.5), b0)

    @pytest.mark.parametrize("shape", [(5, 2), (2, 4, 2)])
    def test_coordinate_fd_factors(self, shape):
        # the second side given as factors b @ right: every operand, on one
        # block and on a stack of blocks
        rng = np.random.default_rng(12)
        a0 = rng.normal(size=shape[:-1] + (3,))
        b0, r0 = rng.normal(size=shape), rng.normal(size=(shape[-1], 3))
        check_op(lambda t: ad.info_nce(t, b0, 0.5, r0), a0)
        check_op(lambda t: ad.info_nce(a0, t, 0.5, r0), b0)
        check_op(lambda t: ad.info_nce(a0, b0, 0.5, t), r0)

    def test_factors_match_their_product(self):
        blocks = [self.inputs(20 + j) for j in range(2)]
        a0 = np.stack([a for a, _ in blocks])
        rng = np.random.default_rng(21)
        b0, r0 = rng.normal(size=(2, self.N, 3)), rng.normal(size=(3, 5))
        a, b, r = Tensor(a0.copy()), Tensor(b0.copy()), Tensor(r0.copy())
        out = ad.info_nce(a, b, 0.5, r)
        out.backward()
        ta, tb, tr = Tensor(a0.copy()), Tensor(b0.copy()), Tensor(r0.copy())
        want = ad.info_nce(ta, tb @ tr, 0.5)
        want.backward()
        assert float(ad.value(out)) == pytest.approx(float(ad.value(want)), rel=1e-12)
        for got, w in [(a.grad, ta.grad), (b.grad, tb.grad), (r.grad, tr.grad)]:
            np.testing.assert_allclose(got, w, rtol=1e-9, atol=1e-12 * np.abs(w).max())

    def factored_inputs(self, seed, shape=()):
        # a (…, N, 5) with unit rows; b (…, N, 3) scaled so that the rows of
        # b @ right, right (3, 5), have unit norm
        rng = np.random.default_rng(seed)
        a = rng.normal(size=shape + (self.N, 5))
        b, r = rng.normal(size=shape + (self.N, 3)), rng.normal(size=(3, 5))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        b /= np.linalg.norm(b @ r, axis=-1, keepdims=True)
        return a, b, r

    @pytest.mark.parametrize("tau", [0.5, 1e-3])
    def test_factors_match_dense_oracle(self, tau):
        a0, b0, r0 = self.factored_inputs(23)
        a, b, r = Tensor(a0.copy()), Tensor(b0.copy()), Tensor(r0.copy())
        out = ad.info_nce(a, b, tau, r)
        out.backward()
        ta, tb, tr = Tensor(a0.copy()), Tensor(b0.copy()), Tensor(r0.copy())
        want = dense_info_nce(ta, tb @ tr, tau)
        want.backward()
        assert float(ad.value(out)) == pytest.approx(float(ad.value(want)), rel=1e-12)
        for got, w in [(a.grad, ta.grad), (b.grad, tb.grad), (r.grad, tr.grad)]:
            np.testing.assert_allclose(got, w, rtol=1e-9, atol=1e-12 * np.abs(w).max())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(), (2,)])
    def test_plain_and_taped_values_are_bit_identical(self, shape, dtype):
        # factored operands over two full row blocks and a partial one, which
        # reuses the first rows of the logits buffer
        ops = [x.astype(dtype) for x in self.factored_inputs(24, shape)]
        plain = ad.info_nce(*ops[:2], 0.5, ops[2])
        taped = ad.info_nce(*(Tensor(x) for x in ops[:2]), 0.5, Tensor(ops[2]))
        assert plain.dtype == dtype
        np.testing.assert_array_equal(plain, ad.value(taped))

    def test_float32_gradients_stay_float32(self):
        a0, b0 = self.inputs(4)
        a, b = Tensor(a0.astype(np.float32)), Tensor(b0.astype(np.float32))
        out = ad.info_nce(a, b, 0.5)
        out.backward()
        assert ad.value(out).dtype == a.grad.dtype == b.grad.dtype == np.float32

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


def chained_tanh_score(x, m, b, q):
    """tanh(x @ m + b) @ q composed from the elementwise ops: the oracle for
    the fused node."""
    return ad.tanh(x @ m + b) @ q


class TestTanhScore:
    H = 4  # hidden width

    def inputs(self, seed, n, k):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(n, k)), rng.normal(size=(k, self.H)),
                rng.normal(size=self.H), rng.normal(size=(self.H, 1)))

    @pytest.mark.parametrize("k", [5, 3])  # a dense x, and a 3-wide left factor
    @pytest.mark.parametrize("n", [7, ad._SCORE_BLOCK, ad._SCORE_BLOCK + 1])
    def test_coordinate_fd_every_operand(self, n, k):
        ops = self.inputs(n + k, n, k)
        u = np.random.default_rng(1).normal(size=(n, 1))
        for i in range(4):
            def f(t, i=i):
                args = list(ops)
                args[i] = t
                return ad.sum(ad.tanh_score(*args) * u)

            check_op(f, ops[i])

    @pytest.mark.parametrize("n", [7, ad._SCORE_BLOCK, ad._SCORE_BLOCK + 1, 2 * ad._SCORE_BLOCK + 37])
    def test_matches_the_op_chain(self, n):
        for k in (5, 3):  # a dense x, and a 3-wide left factor
            ops = self.inputs(n, n, k)
            assert np.all(ops[3] != 0)
            u = np.random.default_rng(2).normal(size=(n, 1))
            got_t, want_t = [Tensor(a.copy()) for a in ops], [Tensor(a.copy()) for a in ops]
            got, want = ad.tanh_score(*got_t), chained_tanh_score(*want_t)
            # a one-row tail joins the block before it, so no row goes
            # through BLAS's matrix-vector product, which rounds otherwise
            np.testing.assert_array_equal(got.data, want.data)
            ad.sum(got * u).backward()
            ad.sum(want * u).backward()
            for g, w in zip(got_t, want_t):
                np.testing.assert_allclose(g.grad, w.grad, rtol=1e-12, atol=1e-14 * np.abs(w.grad).max())

    def test_float32_gradients_stay_float32(self):
        ops = [Tensor(a.astype(np.float32)) for a in self.inputs(3, 9, 5)]
        out = ad.tanh_score(*ops)
        ad.sum(out).backward()
        assert out.data.dtype == np.float32
        assert {t.grad.dtype for t in ops} == {np.dtype(np.float32)}


class TestUnitRows:
    """The one-node row normaliser against finite differences and against
    the op chain it replaced (``oracles.chained_unit_rows``)."""

    @staticmethod
    def inputs(seed, shape, width=None):
        """x with its row 1 zero, and a (x.shape[-1], width) right factor."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)
        x[..., 1, :] = 0.0
        right = None if width is None else rng.normal(size=(shape[-1], width))
        return x, right

    @pytest.mark.parametrize("shape, width", [
        ((6, 5), None), ((2, 4, 5), None), ((6, 5), 3), ((6, 5), 64), ((2, 4, 5), 3),
    ])
    def test_coordinate_fd(self, shape, width):
        x, right = self.inputs(sum(shape), shape, width)
        u = np.random.default_rng(1).normal(size=shape)
        f = lambda t: ad.sum(ad.unit_rows(t, right) * u)  # noqa: E731
        # a zero row has no derivative (x / |x| jumps there): the tape
        # passes it none, and the quotient is compared on the other rows
        num = fd_grad(lambda a: float(ad.value(f(a))), x)
        ana = tape_grad(f, x)
        np.testing.assert_array_equal(ana[..., 1, :], 0.0)
        live = np.ones(shape[:-1], dtype=bool)
        live[..., 1] = False
        np.testing.assert_allclose(ana[live], num[live], rtol=1e-6, atol=1e-8)
        if width is not None:
            check_op(lambda t: ad.sum(ad.unit_rows(x, t) * u), right)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [None, 3, 64])
    @pytest.mark.parametrize("zero_row", [False, True])
    def test_matches_the_op_chain(self, width, dtype, zero_row):
        x, right = self.inputs(7, (300, 5), width)
        if not zero_row:
            x[1] = 1.0
        x = x.astype(dtype)
        right = None if right is None else right.astype(dtype)
        u = np.random.default_rng(2).normal(size=x.shape).astype(dtype)
        plain = ad.unit_rows(x, right)
        assert plain.dtype == dtype
        assert plain.tobytes() == chained_unit_rows(x, right).tobytes()
        ops = [x] if right is None else [x, right]
        got_t, want_t = [Tensor(a.copy()) for a in ops], [Tensor(a.copy()) for a in ops]
        got, want = ad.unit_rows(*got_t), chained_unit_rows(*want_t)
        assert got.data.tobytes() == want.data.tobytes() == plain.tobytes()
        ad.sum(got * u).backward()
        ad.sum(want * u).backward()
        rtol = 1e-12 if dtype == np.float64 else 1e-5
        for g, w in zip(got_t, want_t):
            assert g.grad.dtype == dtype
            np.testing.assert_allclose(g.grad, w.grad, rtol=rtol, atol=rtol * np.abs(w.grad).max())

    def test_one_tape_node_keeps_out_and_scale(self):
        x, right = self.inputs(3, (6, 5), 3)
        xt, rt = Tensor(x), Tensor(right)
        out = ad.unit_rows(xt, rt)
        assert out._node.parents == (xt._node, rt._node)
        saved = [c.cell_contents for c in out._node.vjp.__closure__]
        arrays = [a for a in saved if isinstance(a, np.ndarray)]
        assert any(a is out.data for a in arrays)
        # besides out: s (n, 1), right's own array and its (m, m) Gram, no
        # (n, w) or (n, m) copy
        assert any(a is rt.data for a in arrays)
        assert sorted(a.shape for a in arrays if a is not out.data) == [(5, 3), (5, 5), (6, 1)]

    def test_either_operand_alone_on_the_tape(self):
        x, right = self.inputs(4, (6, 5), 3)
        u = np.random.default_rng(3).normal(size=x.shape)
        rt = Tensor(right)
        ad.sum(ad.unit_rows(x, rt) * u).backward()
        want = tape_grad(lambda t: ad.sum(chained_unit_rows(x, t) * u), right)
        np.testing.assert_allclose(rt.grad, want, rtol=1e-12)
        xt = Tensor(x)
        ad.sum(ad.unit_rows(xt, right) * u).backward()
        want = tape_grad(lambda t: ad.sum(chained_unit_rows(t, right) * u), x)
        np.testing.assert_allclose(xt.grad, want, rtol=1e-12, atol=1e-15)


class TestTapeMechanics:
    def test_diamond_reuse_accumulates(self):
        x = Tensor(np.array(3.0))
        y = (x + x) * x  # 2x^2 -> dy/dx = 4x
        y.backward()
        assert x.grad == pytest.approx(12.0)

    @pytest.mark.parametrize("first", [True, False])
    def test_shared_gradient_is_not_mutated(self, first):
        # add's VJP hands one array to both parents; a later contribution
        # to one parent must not show up in the other's gradient
        a, b = Tensor(X23.copy()), Tensor(U23.copy())
        terms = [ad.sum((a + b) * U23), ad.sum(a * X23)]
        (terms[0] + terms[1] if first else terms[1] + terms[0]).backward()
        np.testing.assert_array_equal(a.grad, U23 + X23)
        np.testing.assert_array_equal(b.grad, U23)

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

    def test_second_backward_is_refused(self):
        # the walk keeps gradients on the leaves only, so a second walk
        # through a consumed node would leave them unchanged: it is refused
        x = Tensor(X23.copy())
        h = x * 2.0
        y = ad.sum(h)
        y.backward()
        first = x.grad
        assert first is not None and h.grad is None and y.grad is None
        with pytest.raises(ValueError, match="already ran"):
            y.backward()
        # a new root on top of a consumed node is refused as well
        with pytest.raises(ValueError, match="already ran"):
            ad.sum(h * h).backward()
        assert x.grad is first
        # a fresh graph from the same leaf works again, adding to its grad
        ad.sum(x * 3.0).backward()
        np.testing.assert_array_equal(x.grad, first + 3.0)

    def test_plain_operand_gets_no_gradient(self):
        # a binary op's VJP forms no gradient for a parent that is not a
        # Tensor: a Python scalar or a plain array
        x = Tensor(X23.copy())
        for out in (x + 1.0, 1.0 - x, x * 0.5, U23 * x, x / 3.0, 2.0 / x, x @ U23.T, U23.T @ x):
            node = out._node
            grads = node.vjp(np.ones_like(out.data))
            assert [g is None for g in grads] == [p is not x._node for p in node.parents]

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_third_contribution_leaves_shared_arrays_alone(self, order):
        # a takes three contributions, one of them the array add hands to
        # both a and b: the walk adds the third in place into the sum it
        # allocated for the second, never into the shared array, and a
        # second walk never adds into the gradient the first one left
        a, b = Tensor(X23.copy()), Tensor(U23.copy())

        def step():
            terms = [ad.sum((a + b) * U23), ad.sum(a * X23), ad.sum(a * 2.0)]
            i, j, k = order
            (terms[i] + terms[j] + terms[k]).backward()

        step()
        np.testing.assert_array_equal(b.grad, U23)
        np.testing.assert_allclose(a.grad, U23 + X23 + 2.0, rtol=1e-15)
        first_a, first_b = a.grad, b.grad
        step()
        np.testing.assert_array_equal(first_b, U23)
        np.testing.assert_allclose(first_a, U23 + X23 + 2.0, rtol=1e-15)
        np.testing.assert_allclose(a.grad, 2.0 * (U23 + X23 + 2.0), rtol=1e-15)

    def test_tape_frees_values_no_vjp_reads(self):
        # add, subtract and sum save no operand, and multiply and divide
        # save none of a Tensor times or over a plain one, so each value
        # of the chain is freed once the forward code drops it
        x = Tensor(X23.copy())
        h = x * 1.0
        k = h - 3.0
        l = k + 1.0
        m = l * 2.0
        q = m / 4.0
        freed = [weakref.ref(v.data) for v in (h, k, l, m, q)]
        y = ad.sum(q)
        del h, k, l, m, q
        assert [r() for r in freed] == [None] * 5
        y.backward()
        np.testing.assert_array_equal(x.grad, np.full_like(X23, 0.5))

    def test_tape_keeps_operands_of_a_tensor_product(self):
        # each operand of x * w is read by the other one's gradient
        a, b = Tensor(X23.copy()), Tensor(U23.copy())
        x, w = a + 1.0, b + 0.0
        kept = [weakref.ref(x.data), weakref.ref(w.data)]
        y = ad.sum(x * w)
        del x, w
        assert all(r() is not None for r in kept)
        y.backward()
        np.testing.assert_array_equal(a.grad, U23 + 0.0)
        np.testing.assert_array_equal(b.grad, X23 + 1.0)

    def test_plain_passthrough(self):
        # every op on plain arrays returns a plain array, untaped, holding
        # the same bits as the op on Tensors
        pos = np.abs(X23) + 0.5
        cases = [
            (ad.add, (X23, U23)),
            (ad.subtract, (X23, U23)),
            (ad.multiply, (X23, U23)),
            (ad.divide, (X23, pos)),
            (ad.negative, (X23,)),
            (lambda a, b: ad.matmul(a, ad.transpose(b)), (X23, U23)),
            (lambda a: ad.sum(a, axis=1), (X23,)),
            (ad.sum, (X23,)),
            (lambda a: ad.mean(a, axis=0, keepdims=True), (X23,)),
            (ad.mean, (X23,)),
            (ad.absolute, (X23,)),
            (ad.sqrt, (pos,)),
            (ad.tanh, (X23,)),
            (lambda a: ad.clip(a, -0.5, 0.5), (X23,)),
            (ad.transpose, (X23,)),
            (lambda a: ad.reshape(a, (3, 2)), (X23,)),
            (lambda a, b: ad.concatenate([a, b], axis=1), (X23, U23)),
            (lambda a: ad.take(a, np.array([1, 0, 1])), (X23,)),
            (lambda a: ad.take(a, slice(1, None)), (X23,)),
            (lambda a: ad.index_add(3, np.array([2, 0]), a), (X23,)),
            (lambda a, b: ad.spmm(3, np.array([2, 0, 2]), np.array([1, 0, 1]), a, b), (X23[0], U23)),
            (lambda a: ad.edge_dots(a, np.array([0, 1, 1]), np.array([1, 0, 1])), (X23,)),
            (lambda a: ad.sparse_apply(sparse.csr_matrix(U23[:, :2]), a), (X23,)),
            (lambda a, b: ad.info_nce(a, b, 0.5), (X23, U23)),
            (lambda a, b: ad.info_nce(a, b, 0.5), (X23.reshape(2, 3, 1), U23.reshape(2, 3, 1))),
            (lambda a, b: ad.info_nce(a, b, 0.5, U23), (X23, U23[:, :2])),
            (lambda a, b: ad.matmul(a, b), (X23.reshape(2, 3, 1), U23.reshape(2, 1, 3))),
            (lambda a: ad.transpose(a, (1, 0)), (X23,)),
            (ad.tanh_score, (X23, U23.T @ U23, U23[0], U23[1].reshape(3, 1))),
            (ad.unit_rows, (X23,)),
            (ad.unit_rows, (X23, U23.T)),
        ]
        for op, args in cases:
            plain = op(*args)
            taped = op(*map(Tensor, args))
            assert isinstance(plain, (np.ndarray, np.generic)) and isinstance(taped, Tensor)
            assert np.asarray(plain).dtype == taped.data.dtype
            assert np.asarray(plain).tobytes() == taped.data.tobytes()
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
        h = h * h + exp(h * 0.1)
        return ad.mean(h * u)

    check_op(f, x, rtol=1e-5, atol=1e-7)
