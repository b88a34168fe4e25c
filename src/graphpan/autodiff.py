"""Minimal reverse-mode automatic differentiation over numpy arrays.

Differentiable values are ``Tensor`` objects wrapping float ndarrays.  Every
op below is a module-level function that accepts either plain ndarrays or
Tensors and returns the matching kind, so numerical code can be written once
and run both as a plain forward pass and under differentiation.

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


class Tensor:
    """A node on the differentiation tape."""

    # Make numpy defer binary ops to our reflected operators instead of
    # trying to coerce Tensor into an object array.
    __array_ufunc__ = None
    __slots__ = ("data", "grad", "_parents", "_vjp")

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data)
        self.grad = None
        self._parents = tuple(parents)
        self._vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    @property
    def T(self):
        return transpose(self)

    def item(self):
        return self.data.item()

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

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
        """Backpropagate from a scalar; fills ``grad`` on reachable tensors."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None or not isinstance(parent, Tensor):
                    continue
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g


def _topo_order(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if isinstance(p, Tensor) and id(p) not in seen:
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


def add(a, b):
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        return np.add(a, b)
    da, db = _operand(a), _operand(b)
    out = da + db

    def vjp(g):
        return _unbroadcast(g, np.shape(da)), _unbroadcast(g, np.shape(db))

    return Tensor(out, (a, b), vjp)


def subtract(a, b):
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        return np.subtract(a, b)
    da, db = _operand(a), _operand(b)
    out = da - db

    def vjp(g):
        return _unbroadcast(g, np.shape(da)), _unbroadcast(-g, np.shape(db))

    return Tensor(out, (a, b), vjp)


def multiply(a, b):
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        return np.multiply(a, b)
    da, db = _operand(a), _operand(b)
    out = da * db

    def vjp(g):
        return _unbroadcast(g * db, np.shape(da)), _unbroadcast(g * da, np.shape(db))

    return Tensor(out, (a, b), vjp)


def divide(a, b):
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        return np.divide(a, b)
    da, db = _operand(a), _operand(b)
    out = da / db

    def vjp(g):
        ga = _unbroadcast(g / db, np.shape(da))
        gb = _unbroadcast(-g * da / (db * db), np.shape(db))
        return ga, gb

    return Tensor(out, (a, b), vjp)


def negative(a):
    if not isinstance(a, Tensor):
        return np.negative(a)
    return Tensor(-a.data, (a,), lambda g: (-g,))


def matmul(a, b):
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        return np.matmul(a, b)
    da, db = value(a), value(b)
    if da.ndim != 2 or db.ndim != 2:
        raise ValueError("matmul supports 2-D operands only")
    out = da @ db

    def vjp(g):
        return g @ db.T, da.T @ g

    return Tensor(out, (a, b), vjp)


def sum(a, axis=None, keepdims=False):
    if not isinstance(a, Tensor):
        return np.sum(a, axis=axis, keepdims=keepdims)
    da = a.data
    out = da.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, da.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, da.shape).copy(),)

    return Tensor(out, (a,), vjp)


def mean(a, axis=None, keepdims=False):
    da = value(a)
    if axis is None:
        n = da.size
    else:
        n = da.shape[axis]
    return sum(a, axis=axis, keepdims=keepdims) / float(n)


def absolute(a):
    """abs with subgradient 0 at 0."""
    if not isinstance(a, Tensor):
        return np.abs(a)
    da = a.data
    sign = np.sign(da)
    return Tensor(np.abs(da), (a,), lambda g: (g * sign,))


def sqrt(a):
    if not isinstance(a, Tensor):
        return np.sqrt(a)
    out_data = np.sqrt(a.data)

    def vjp(g):
        return (g / (2.0 * out_data),)

    return Tensor(out_data, (a,), vjp)


def exp(a):
    if not isinstance(a, Tensor):
        return np.exp(a)
    out_data = np.exp(a.data)
    return Tensor(out_data, (a,), lambda g: (g * out_data,))


def tanh(a):
    if not isinstance(a, Tensor):
        return np.tanh(a)
    out_data = np.tanh(a.data)
    return Tensor(out_data, (a,), lambda g: (g * (1.0 - out_data * out_data),))


def log(a):
    if not isinstance(a, Tensor):
        return np.log(a)
    da = a.data
    return Tensor(np.log(da), (a,), lambda g: (g / da,))


def clip(a, lo, hi):
    """Clamp to [lo, hi]; subgradient 0 outside the open interval."""
    if not isinstance(a, Tensor):
        return np.clip(a, lo, hi)
    da = a.data
    mask = ((da > lo) & (da < hi)).astype(da.dtype)
    return Tensor(np.clip(da, lo, hi), (a,), lambda g: (g * mask,))


def transpose(a):
    if not isinstance(a, Tensor):
        return np.asarray(a).T
    return Tensor(a.data.T, (a,), lambda g: (g.T,))


def reshape(a, shape):
    if not isinstance(a, Tensor):
        return np.reshape(a, shape)
    da = a.data
    return Tensor(da.reshape(shape), (a,), lambda g: (g.reshape(da.shape),))


def concatenate(parts, axis=0):
    if not any(isinstance(p, Tensor) for p in parts):
        return np.concatenate(parts, axis=axis)
    datas = [value(p) for p in parts]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(out, tuple(parts), vjp)


def take(a, idx):
    """Indexing/gather; gradient scatter-adds into the source."""
    if not isinstance(a, Tensor):
        return np.asarray(a)[idx]
    da = a.data
    out = da[idx]

    def vjp(g):
        if isinstance(idx, np.ndarray) and idx.ndim == 1 and idx.dtype.kind in "iu":
            return (_segment_sum(len(da), idx % len(da), g),)
        z = np.zeros_like(da)
        if isinstance(idx, (slice, int, np.integer)):
            z[idx] = g  # every element is selected at most once
        else:
            np.add.at(z, idx, g)
        return (z,)

    return Tensor(out, (a,), vjp)


def index_add(n, idx, vals):
    """Segment sum: out[i] = sum of vals rows whose idx == i; out has n rows.

    vals may be (E,) or (E, d).  Gradient is a gather back along idx.
    """
    idx = np.asarray(idx)
    dv = value(vals)
    out = _segment_sum(n, idx, dv)
    if not isinstance(vals, Tensor):
        return out
    return Tensor(out, (vals,), lambda g: (g[idx],))


def _segment_sum(n, idx, vals):
    if vals.ndim == 1:
        return np.bincount(idx, weights=vals, minlength=n).astype(vals.dtype)
    # a 0/1 (n, E) CSR matrix times the rows: one pass over the data, several
    # times faster than np.add.at or sort + reduceat for wide rows
    e = len(idx)
    ones = np.ones(e, dtype=vals.dtype)
    m = sparse.csr_matrix((ones, (idx, np.arange(e))), shape=(n, e))
    flat = vals.reshape(e, int(np.prod(vals.shape[1:])))
    return np.asarray(m @ flat).reshape((n,) + vals.shape[1:])


_NCE_BLOCK = 256  # logit rows held at once by info_nce


def info_nce(a, b, tau):
    """mean_i [logsumexp_j(a_i . b_j / tau) - a_i . b_i / tau] as one node.

    The (n, n) logits are never held: rows are processed ``_NCE_BLOCK`` at a
    time with a per-row max.  Each block holds whole rows of
    P = softmax(a b^T / tau), so on the tape the same pass accumulates the
    gradients (P b - b) / (n tau) for a and (P^T a - a) / (n tau) for b;
    they are kept as two arrays shaped like a and b, and the backward only
    scales them.
    """
    da, db = value(a), value(b)
    n = da.shape[0]
    taped = isinstance(a, Tensor) or isinstance(b, Tensor)
    lse = np.empty(n, dtype=np.result_type(da, db))
    if taped:
        pb, pta = np.empty_like(da), np.zeros_like(db)  # P b and P^T a
    for i in range(0, n, _NCE_BLOCK):
        rows = slice(i, i + _NCE_BLOCK)
        s = da[rows] @ db.T
        s /= tau
        m = s.max(axis=1, keepdims=True)
        s -= m
        np.exp(s, out=s)
        z = s.sum(axis=1, keepdims=True)
        lse[rows] = (np.log(z) + m)[:, 0]
        if taped:
            s /= z
            pb[rows] = s @ db
            pta += s.T @ da[rows]
    pos = np.einsum("ij,ij->i", da, db) / tau
    out = np.mean(lse - pos)
    if not taped:
        return out
    scale = 1.0 / (n * tau)
    ga, gb = (pb - db) * scale, (pta - da) * scale
    return Tensor(out, (a, b), lambda g: (ga * g, gb * g))
