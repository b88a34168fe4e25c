"""Minimal reverse-mode automatic differentiation over numpy arrays.

Differentiable values are ``Tensor`` objects wrapping float ndarrays.  Every
op below is a module-level function that accepts either plain ndarrays or
Tensors and returns the matching kind, so numerical code can be written once
and run both as a plain forward pass and under differentiation.

Each op is written once: it computes its value from the plain arrays of its
inputs, defines its VJP as a closure of its own (the bench trace names tape
bytes by that closure's qualified name) and returns through ``_node``, which
alone decides the kind.  Work only the derivative needs stays in the VJP, so
the plain pass does none of it; the arithmetic ops and :func:`matmul` form
no gradient for an operand that is not a Tensor.

The tape entry is apart from the value: a Tensor holds its array and a
:class:`_Node`, and a node holds only its gradient, its parents' nodes and
its VJP.  So the tape keeps an array only where a VJP's closure saved it,
and any other interior value is freed as soon as the forward code drops it.
What each VJP saves:
  * :func:`add`, :func:`subtract`, :func:`sum`, :func:`reshape`,
    :func:`concatenate`, :func:`negative` and :func:`transpose`: shapes,
    split sizes or axes only; :func:`take` its source's shape and dtype and
    the index; :func:`index_add` the index;
  * :func:`multiply` and :func:`matmul`: each operand only when the other
    one is a Tensor; :func:`divide`: the divisor, and the dividend only when
    the divisor is a Tensor;
  * :func:`absolute` and :func:`clip` their input, :func:`sqrt` and
    :func:`tanh` their output;
  * :func:`spmm` its entry indices, its sparse matrix and V,
    :func:`edge_dots` its indices and operand, and :func:`sparse_apply` its
    constant matrix;
  * :func:`info_nce` its operands, x' = a right^T / tau and the sums P b
    and P^T x' of its forward, and :func:`tanh_score` its operands, from
    which it recomputes its hidden layer a block at a time in the backward
    (each block then overwritten in place by its G_z) instead of taping it;
  * :func:`unit_rows` its output and its (..., 1) row scales, and a
    ``right`` factor with its (m, m) Gram when it was given one.

:meth:`Tensor.backward` consumes the tape as it walks it: an interior node
drops its gradient and its VJP once it has passed them on, so gradients are
kept on leaves only, and a tape cannot be walked twice.  A node's second
gradient contribution is added out of place, since a VJP may hand one array
to two parents; its third and later ones go in place into that sum.

The graph ops :func:`spmm` (a sparse matrix, given as index and value
vectors, times a dense one) and :func:`edge_dots` (one dot product per
edge) keep only (E,) vectors and their dense operands on the tape; their
VJPs are sparse products, and any (E, d) gather is formed a block at a time
inside the op and dropped.  Each builds its sparse matrix with
:func:`sparse_matrix`, straight from the order its entries come in, with
no COO conversion; :func:`sparse_apply` applies a constant sparse matrix
that its caller built once.  These ops and :func:`index_add` refuse an index outside the
rows they address with ValueError.  :func:`take`
(``Tensor[...]``) follows numpy instead: a negative index wraps and an
index past the end raises IndexError.

Conventions baked in here and relied on elsewhere:
  * piecewise-linear kinks (abs at 0, clip at its bounds) take subgradient 0,
  * discrete choices are made on detached values and are never part of the
    tape,
  * a Python scalar operand takes the other operand's dtype, so a float32
    computation stays float32 end to end.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


class _Node:
    """A tape entry: the gradient accumulated so far, the parents' nodes
    (None for an operand that is not a Tensor) and the VJP, whose closure
    holds only what its formula reads.  A leaf has no parents and no VJP."""

    __slots__ = ("grad", "parents", "vjp")

    def __init__(self, parents, vjp):
        self.grad = None
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """A value and its tape entry: ``data`` holds the array, ``_node`` the
    :class:`_Node` that links it into the tape.  The tape never refers to
    the Tensor, so its array is freed once the forward code drops it unless
    a VJP saved it."""

    # Make numpy defer binary ops to our reflected operators instead of
    # trying to coerce Tensor into an object array.
    __array_ufunc__ = None
    __slots__ = ("data", "_node")

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data)
        self._node = _Node(
            tuple(p._node if isinstance(p, Tensor) else None for p in parents), vjp
        )

    @property
    def grad(self):
        return self._node.grad

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return subtract(self, other)

    def __rsub__(self, other):
        return subtract(other, self)

    def __mul__(self, other):
        return multiply(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return divide(self, other)

    def __rtruediv__(self, other):
        return divide(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __neg__(self):
        return negative(self)

    def __getitem__(self, idx):
        return take(self, idx)

    def backward(self):
        """Backpropagate from a scalar; fills ``grad`` on the reachable leaves.

        The tape is consumed as it is walked: once an interior node has
        passed its gradient to its parents, its ``grad`` and its VJP are
        dropped, so only the leaves (tensors built without a VJP) keep a
        gradient.  A second call through a consumed node raises ValueError.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        order = _topo_order(self)
        if any(node.vjp is None and node.parents for node in order):
            raise ValueError(
                "backward() already ran through this tape; its interior "
                "gradients are freed, so build the graph again"
            )
        self._node.grad = np.ones_like(self.data)
        owned = set()  # nodes whose grad is a sum this walk allocated
        for node in reversed(order):
            vjp, g = node.vjp, node.grad
            if vjp is None:
                continue  # a leaf keeps its gradient
            node.vjp = node.grad = None
            if g is None:
                continue
            for parent, pg in zip(node.parents, vjp(g)):
                if pg is None or parent is None:
                    continue
                acc = parent.grad
                if acc is None:
                    parent.grad = pg
                elif parent in owned and _adds_in_place(acc, pg):
                    acc += pg
                else:
                    # out of place: a VJP may hand the same array to two
                    # parents, and a leaf's grad may be an earlier walk's
                    parent.grad = acc + pg
                    owned.add(parent)


def _adds_in_place(acc, pg):
    """Whether ``acc += pg`` gives the bits of ``acc + pg`` in ``acc``."""
    return (
        isinstance(acc, np.ndarray)
        and np.shape(pg) == acc.shape
        and np.result_type(acc, pg) == acc.dtype
    )


def _topo_order(root):
    """The tape nodes reachable from Tensor ``root``, parents first."""
    order, seen, stack = [], set(), [(root._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p is not None and id(p) not in seen:
                stack.append((p, False))
    return order


def value(x):
    """Plain ndarray view of a Tensor or array-like (no tape link)."""
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _operand(x):
    """Array of a Tensor or array-like.  A Python scalar stays a Python
    scalar, so it takes the other operand's dtype (NumPy's weak scalar
    promotion) rather than promoting float32 to float64."""
    if isinstance(x, Tensor):
        return x.data
    return x if isinstance(x, (int, float)) else np.asarray(x)


def _unbroadcast(g, shape):
    """Sum gradient ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _node(out, parents, vjp):
    """``out`` as a tape node when any parent is a Tensor, else ``out``
    itself: the one place an op decides between taped and plain."""
    if any(isinstance(p, Tensor) for p in parents):
        return Tensor(out, parents, vjp)
    return out


def add(a, b):
    da, db = _operand(a), _operand(b)
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    sa, sb = np.shape(da), np.shape(db)

    def vjp(g):
        return (
            _unbroadcast(g, sa) if ta else None,
            _unbroadcast(g, sb) if tb else None,
        )

    return _node(da + db, (a, b), vjp)


def subtract(a, b):
    da, db = _operand(a), _operand(b)
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    sa, sb = np.shape(da), np.shape(db)

    def vjp(g):
        return (
            _unbroadcast(g, sa) if ta else None,
            _unbroadcast(-g, sb) if tb else None,
        )

    return _node(da - db, (a, b), vjp)


def multiply(a, b):
    da, db = _operand(a), _operand(b)
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    sa, sb = np.shape(da), np.shape(db)
    # each operand is read only by the other one's gradient
    ka, kb = (da if tb else None), (db if ta else None)

    def vjp(g):
        return (
            _unbroadcast(g * kb, sa) if ta else None,
            _unbroadcast(g * ka, sb) if tb else None,
        )

    return _node(da * db, (a, b), vjp)


def divide(a, b):
    da, db = _operand(a), _operand(b)
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    sa, sb = np.shape(da), np.shape(db)
    ka = da if tb else None  # read by b's gradient only

    def vjp(g):
        return (
            _unbroadcast(g / db, sa) if ta else None,
            _unbroadcast(-g * ka / (db * db), sb) if tb else None,
        )

    return _node(da / db, (a, b), vjp)


def negative(a):
    return _node(-value(a), (a,), lambda g: (-g,))


def matmul(a, b):
    """a @ b for matrices or stacks of them (leading axes broadcast, as in
    numpy); a stacked operand's gradient sums over the stack it shared."""
    da, db = value(a), value(b)
    if da.ndim < 2 or db.ndim < 2:
        raise ValueError("matmul needs operands of at least 2 dims")
    ta, tb = isinstance(a, Tensor), isinstance(b, Tensor)
    sa, sb = da.shape, db.shape
    ka, kb = (da if tb else None), (db if ta else None)

    def vjp(g):
        return (
            _unbroadcast(g @ np.swapaxes(kb, -1, -2), sa) if ta else None,
            _unbroadcast(np.swapaxes(ka, -1, -2) @ g, sb) if tb else None,
        )

    return _node(da @ db, (a, b), vjp)


def sum(a, axis=None, keepdims=False):
    da = value(a)
    shape = da.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return _node(da.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def mean(a, axis=None, keepdims=False):
    da = value(a)
    if axis is None:
        n = da.size
    else:
        n = da.shape[axis]
    return sum(a, axis=axis, keepdims=keepdims) / float(n)


def absolute(a):
    """abs with subgradient 0 at 0."""
    da = value(a)
    return _node(np.abs(da), (a,), lambda g: (g * np.sign(da),))


def sqrt(a):
    out = np.sqrt(value(a))

    def vjp(g):
        return (g / (2.0 * out),)

    return _node(out, (a,), vjp)


def tanh(a):
    out = np.tanh(value(a))
    return _node(out, (a,), lambda g: (g * (1.0 - out * out),))


def clip(a, lo, hi):
    """Clamp to [lo, hi]; subgradient 0 outside the open interval."""
    da = value(a)

    def vjp(g):
        return (g * ((da > lo) & (da < hi)).astype(da.dtype),)

    return _node(np.clip(da, lo, hi), (a,), vjp)


def transpose(a, axes=None):
    """Axes permuted as numpy's transpose does; reversed by default."""
    back = None if axes is None else np.argsort(axes)
    return _node(value(a).transpose(axes), (a,), lambda g: (g.transpose(back),))


def reshape(a, shape):
    da = value(a)
    back = da.shape
    return _node(da.reshape(shape), (a,), lambda g: (g.reshape(back),))


def concatenate(parts, axis=0):
    datas = [value(p) for p in parts]
    sizes = [d.shape[axis] for d in datas]

    def vjp(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _node(np.concatenate(datas, axis=axis), tuple(parts), vjp)


def take(a, idx):
    """Indexing/gather; gradient scatter-adds into the source."""
    da = value(a)
    shape, dtype = da.shape, da.dtype
    # a 1-D integer index gathers rows: np.take does it with da[idx]'s bits
    # and semantics, and about 3x faster for an index that is not intp
    rows = isinstance(idx, np.ndarray) and idx.ndim == 1 and idx.dtype.kind in "iu"

    def vjp(g):
        if rows:
            return (_segment_sum(shape[0], idx % shape[0], g),)
        z = np.zeros(shape, dtype)
        if isinstance(idx, (slice, int, np.integer)):
            z[idx] = g  # every element is selected at most once
        else:
            np.add.at(z, idx, g)
        return (z,)

    return _node(np.take(da, idx, axis=0) if rows else da[idx], (a,), vjp)


def index_add(n, idx, vals):
    """Segment sum: out[i] = sum of vals rows whose idx == i; out has n rows.

    vals may be (E,) or (E, d); an index outside [0, n) raises ValueError.
    Gradient is a gather back along idx.
    """
    idx = _indices(idx, n)
    # np.take gathers as g[idx] does, faster for an index that is not intp
    return _node(
        _segment_sum(n, idx, value(vals)), (vals,), lambda g: (np.take(g, idx, axis=0),)
    )


def spmm(n, rows, cols, vals, V):
    """A @ V for the (n, len(V)) sparse matrix A holding vals at (rows, cols);
    entries that share a (row, col) add.  V is 2-D.

    A is built by :func:`sparse_matrix` straight from the entries, so no
    COO conversion runs.  The tape keeps only the entry vectors, A and V:
    the gradient for V is A^T g, and the one for vals is the row dots
    sum_k g[rows, k] V[cols, k], formed in the backward.
    """
    dv, dV = value(vals), value(V)
    if dV.ndim != 2:
        raise ValueError("spmm supports a 2-D right operand only")
    rows, cols = _indices(rows, n), _indices(cols, len(dV))
    a = sparse_matrix(n, len(dV), rows, cols, dv)

    def vjp(g):
        return _row_dots(g, rows, dV, cols), a.T @ g

    return _node(a @ dV, (vals, V), vjp)


def edge_dots(unit, src, dst):
    """Per-edge dot products sum_k unit[dst, k] unit[src, k] of a 2-D array.

    The (E, d) gathers are never kept: the gradient is (S + S^T) unit with
    S the sparse matrix holding g at (dst, src), built by
    :func:`sparse_matrix`; edges that arrive sorted by (dst, src), as a
    graph's relations do, need no sort.
    """
    du = value(unit)
    src, dst = _indices(src, len(du)), _indices(dst, len(du))

    def vjp(g):
        s = sparse_matrix(len(du), len(du), dst, src, g)
        return (s @ du + s.T @ du,)

    return _node(_row_dots(du, dst, du, src), (unit,), vjp)


def sparse_apply(M, X):
    """M @ X for a constant scipy sparse matrix M and a 2-D X; the gradient
    for X is M^T g, and the tape keeps only M.  The product takes the
    result type of M's and X's entries, so M holds X's dtype to keep it."""
    dX = value(X)
    if dX.ndim != 2 or M.shape[1] != len(dX):
        raise ValueError(f"sparse_apply: a {M.shape} matrix cannot apply to shape {dX.shape}")
    return _node(M @ dX, (X,), lambda g: (M.T @ g,))


def sparse_matrix(n, m, rows, cols, vals):
    """The (n, m) sparse matrix holding vals at (rows, cols), built straight
    from the entries, with no COO conversion.

    Entries in (row, col) order become a CSR matrix as they come, with
    indptr from the row counts, and entries in (col, row) order a CSC
    matrix likewise.  Any other entries take one stable argsort into (row,
    col) order and become CSR.  Entries that share a (row, col) are kept
    apart, and a product adds them one at a time, within round-off of
    their sum.

    With no (row, col) repeated, either form's products M @ X and M^T @ X
    have the bits of those of ``csr_matrix((vals, (rows, cols)))``: scipy
    adds each output row's terms in the order of their other index in all
    of them.  The indices are taken as given: check them with
    :func:`_indices` first.

    Indices of any integer dtype are read as they are; only the order keys
    are int64.  An int32 minor index (cols for CSR, rows for CSC) becomes
    the matrix's own index array, shared with the caller, not copied.
    """
    rows, cols, vals = np.asarray(rows), np.asarray(cols), np.asarray(vals)
    form, major, minor, size = sparse.csr_matrix, rows, cols, n
    key = rows.astype(np.int64) * m + cols
    if np.any(key[1:] < key[:-1]):
        tkey = cols.astype(np.int64) * n + rows
        if np.all(tkey[1:] >= tkey[:-1]):
            form, major, minor, size = sparse.csc_matrix, cols, rows, m
        else:
            order = np.argsort(key, kind="stable")
            minor, vals = cols[order], vals[order]
    itype = np.int32 if max(n, m, len(vals)) < np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(size + 1, dtype=itype)
    np.cumsum(np.bincount(major, minlength=size), out=indptr[1:])
    return form((vals, minor.astype(itype, copy=False), indptr), shape=(n, m))


def _indices(idx, n):
    """idx as an integer array, every entry checked to lie in [0, n)."""
    idx = np.asarray(idx)
    if idx.size == 0:
        return idx.astype(np.int64)
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"index out of range [0, {n})")
    return idx


_DOT_BLOCK = 1024  # edge rows gathered at once by _row_dots


def _row_dots(a, ia, b, ib):
    """out[e] = a[ia[e]] . b[ib[e]] for 2-D a and b, gathering a block of
    rows at a time: no (E, d) array is held, and each block's gathers stay
    in cache."""
    out = np.empty(len(ia), dtype=np.result_type(a, b))
    for i in range(0, len(ia), _DOT_BLOCK):
        rows = slice(i, i + _DOT_BLOCK)
        # np.take gathers whole rows faster than a[idx], with the same bits
        out[rows] = np.einsum(
            "ij,ij->i", np.take(a, ia[rows], axis=0), np.take(b, ib[rows], axis=0)
        )
    return out


def _segment_sum(n, idx, vals):
    if vals.ndim == 1:
        return np.bincount(idx, weights=vals, minlength=n).astype(vals.dtype)
    # the 0/1 (n, E) matrix with a 1 at (idx[e], e) times the rows
    e = len(idx)
    flat = vals.reshape(e, int(np.prod(vals.shape[1:])))
    out = spmm(n, idx, np.arange(e), np.ones(e, vals.dtype), flat)
    return out.reshape((n,) + vals.shape[1:])


_NCE_BLOCK = 256  # logit rows held at once by info_nce


def info_nce(a, b, tau, right=None):
    """mean_i [logsumexp_j(a_i . c_j / tau) - a_i . c_i / tau] as one node,
    where c = b, or c = b @ right for a (m, d) ``right``.

    a and c are (n, d), or (k, n, d) for k blocks each contrasted within
    itself: anchor i of a block takes its negatives from that block only,
    and the value is the mean over all k n anchors.  With ``right`` the
    logits a c^T = (a right^T) b^T are taken at b's width m, and a enters
    only through x = a right^T; without it, x = a.  1/tau is folded into x
    once, as x' = x / tau.  The (n, n) logits are never held: each block's
    rows go ``_NCE_BLOCK`` at a time through one reused buffer, which takes
    x' b^T, subtracts its per-row max and is exponentiated in place to
    e = exp(x' b^T - max).  One product e [b | 1], b with a column of ones,
    gives e b and the row sums z; P = e / z is never formed.  The plain pass
    runs the same arithmetic, so its value has the taped value's bits.  On
    the tape the row blocks also accumulate P b = (e b) / z and
    P^T x' = e^T (x' / z), two arrays shaped like x and b; the backward
    forms the gradients G_x = (P b - b) / (k n tau) for x and
    (P^T x' - x') / (k n) for b, and from G_x those for a (G_x right) and
    right (G_x^T a).
    """
    da, db = value(a), value(b)
    dr = None if right is None else value(right)
    xs = (da if dr is None else da @ dr.T) / tau
    n, w = db.shape[-2:]
    taped = any(isinstance(t, Tensor) for t in (a, b, right))
    dtype = np.result_type(xs, db)
    lse = np.empty(xs.shape[:-1], dtype)
    b1 = np.empty(db.shape[:-1] + (w + 1,), dtype)  # [b | 1]
    b1[..., :w], b1[..., w] = db, 1.0
    buf = np.empty((min(n, _NCE_BLOCK), n), dtype)
    if taped:
        pb, ptx = np.empty_like(xs), np.zeros_like(db)  # P b and P^T x'
    for blk in np.ndindex(xs.shape[:-2]):  # the one index () for 2-D operands
        xa, xb = xs[blk], db[blk]
        for i in range(0, n, _NCE_BLOCK):
            rows = slice(i, i + _NCE_BLOCK)
            e = np.matmul(xa[rows], xb.T, out=buf[: min(_NCE_BLOCK, n - i)])
            m = e.max(axis=1, keepdims=True)
            e -= m
            np.exp(e, out=e)
            ebz = e @ b1[blk]
            z = ebz[:, w:]
            lse[blk][rows] = (np.log(z) + m)[:, 0]
            if taped:
                pb[blk][rows] = ebz[:, :w] / z
                ptx[blk] += e.T @ (xa[rows] / z)
    pos = np.einsum("...ij,...ij->...i", xs, db)
    scale = 1.0 / lse.size  # the mean over every anchor

    def vjp(g):
        gx = (pb - db) * (scale / tau) * g
        gb = (ptx - xs) * scale * g
        if dr is None:
            return gx, gb, None
        gr = gx.reshape(-1, gx.shape[-1]).T @ da.reshape(-1, da.shape[-1])
        return gx @ dr, gb, gr

    return _node(np.mean(lse - pos), (a, b, right), vjp)


_SCORE_BLOCK = 256  # hidden rows held at once by tanh_score


def tanh_score(x, m, b, q):
    """tanh(x @ m + b) @ q as one node: x (n, k), m (k, h), b (h,), q (h, 1),
    out (n, 1).

    The (n, h) hidden activations are never held: the forward runs
    ``_SCORE_BLOCK`` rows at a time (a one-row tail joins the block before
    it) and keeps only the (n, 1) output, and
    the backward recomputes each block's a = tanh(x m + b), takes a^T g for
    q from it, then overwrites a in place with G_z = (g q^T) * (1 - a^2),
    by broadcasts against q^T and g with no (n, h) temporary, and from G_z
    forms the gradients G_z m^T for x, x^T G_z for m and the column sums of
    G_z for b; those for m, b and q are accumulated over the blocks.
    """
    dx, dm, db, dq = (value(t) for t in (x, m, b, q))
    n = len(dx)
    # a one-row tail joins the block before it: numpy would send it through
    # BLAS's matrix-vector product, which rounds otherwise than a GEMM row
    starts = list(range(0, n, _SCORE_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    blocks = [slice(i, j) for i, j in zip(starts, starts[1:] + [n])]

    def hidden(rows):
        z = dx[rows] @ dm
        z += db
        return np.tanh(z, out=z)

    out = np.empty((n, 1), dtype=np.result_type(dx, dm, db, dq))
    for rows in blocks:
        out[rows] = hidden(rows) @ dq

    def vjp(g):
        gx = np.empty_like(dx)
        gm, gb, gq = np.zeros_like(dm), np.zeros_like(db), np.zeros_like(dq)
        for rows in blocks:
            a, gr = hidden(rows), g[rows]
            gq += a.T @ gr
            gz = a  # G_z = (g q^T) * (1 - a^2), formed in a's own buffer
            gz *= gz
            np.subtract(1.0, gz, out=gz)
            gz *= dq.T
            gz *= gr
            gb += gz.sum(axis=0)
            gm += dx[rows].T @ gz
            gx[rows] = gz @ dm.T
        return gx, gm, gb, gq

    return _node(out, (x, m, b, q), vjp)


def unit_rows(x, right=None):
    """Rows (vectors along the last axis) scaled to unit L2 norm, as one
    node; a zero row stays zero and passes no gradient.

    With a 2-D ``right`` the rows of x are scaled instead so that those of
    x @ right have unit norm, the squared norms taken as x G x^T with the
    Gram G = right right^T, so the product x @ right is never formed.

    The value is out = s x with s = keep / sqrt(q), q the squared row norms
    and keep 1 where q > 0 and 0 elsewhere, computed as x / sqrt(q keep +
    1 - keep), then masked by keep when a row is dropped: the op chain's
    expressions, so its bits.  The tape keeps only out and s, and right
    with its m x m Gram G when given.  With c the row dots of g and out,
    the gradients are s (g - c (out G)) for x (G = I without ``right``) and
    -(out^T diag(c) out) right for right, so the backward forms no array as
    wide as right either.
    """
    dx = value(x)
    dr = None if right is None else value(right)
    gram = None if dr is None else dr @ dr.T
    xg = dx if dr is None else dx @ gram
    q = (xg * dx).sum(axis=-1, keepdims=True)
    keep = (q > 0.0).astype(q.dtype)
    den = np.sqrt(q * keep + (1.0 - keep))
    out = dx / den
    if not keep.all():
        out *= keep  # a dropped row is x / 1 until here
    tx, tr = isinstance(x, Tensor), isinstance(right, Tensor)
    s = keep / den if tx or tr else None

    def vjp(g):
        c = np.einsum("...j,...j->...", g, out)[..., None]
        gx = gr = None
        if tx:
            gx = c * (out if dr is None else out @ gram)
            np.subtract(g, gx, out=gx)
            gx *= s
        if tr:
            flat = out.reshape(-1, len(dr))
            gr = -(((flat * c.reshape(-1, 1)).T @ flat) @ dr)
        return gx, gr

    return _node(out, (x, right), vjp)
