"""Reverse-mode automatic differentiation over dense 2-D float64 arrays.

Every value is a (rows, cols) matrix; scalars are 1x1. An operation returns
a new Tensor that doubles as the tape node: it keeps references to its input
tensors and a closure that maps the output adjoint to input adjoints.
``backward(loss)`` walks the reachable graph once in reverse topological
order and adds d(loss)/d(t) into ``t.grad`` for every tensor that requires
gradients, so repeated calls accumulate. That order is a depth-first walk of
each op's parents in the order the op lists them, not the order the ops were
made in, so an op's parent order sets the order in which a shared weight's
gradients are summed, and their bits: ``bpr_mean`` lists its parents as
(pos, neg), the order of its chain ``add(neg(pos), neg)``, since (neg, pos)
would sum them otherwise.

Embedding tables stay row-sparse from ``row_gather`` or ``gather_cols`` to
the update: their backward returns a ``RowGrad`` per table (the gathered
indices and the upstream rows) instead of a table-sized array, ``backward``
adds those rows into a leaf's ``grad`` and records them in ``grad_rows``,
and ``zero_grad`` and the optimizers in ``training`` touch only the recorded
rows. Every gradient has the bits the dense scatter-add would give.

Broadcasting is deliberately restricted: ``add`` accepts a 1 x n row vector
as its second operand against an m x n matrix (bias addition) and nothing
else, which keeps every backward rule a one-liner. All arithmetic is float64.

Fused ops record a whole layer or loss term as one tape node, since at small
batch sizes the per-node bookkeeping costs more than the arithmetic:
``linear`` is ``matmul`` -> ``add`` -> optional ``relu``, ``gather_cols`` is
one ``row_gather`` per table joined by ``concat_cols``, ``ce_mean``,
``soft_ce_mean`` and ``bpr_mean`` are the cross-entropy, soft-target
cross-entropy and pairwise ranking chains of ``losses``, and
``weighted_sum`` is a left fold of ``scalar_scale`` and ``add``. Each
performs the float operations of its chain in the same order, and returns
per parent the fold of the adjoints the chain sent that parent, in the order
``backward`` would have added them. The chain's intermediates had one
consumer each, so gradients keep their bits. ``OPS`` names every op.

A graph is single-threaded. The recording switch used by ``no_grad`` is
thread-local, so independent graphs may run on different threads.
"""

from __future__ import annotations

import contextlib
import threading
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericError, ShapeError, UsageError

_state = threading.local()


def _recording() -> bool:
    return getattr(_state, "recording", True)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (outputs won't require grad)."""
    prev = _recording()
    _state.recording = False
    try:
        yield
    finally:
        _state.recording = prev


class Tensor:
    """A 2-D float64 array with an optional same-shape gradient accumulator.

    ``grad_rows`` says where ``grad`` may be nonzero: a sorted array of unique
    row indices, or None when any entry may be (a dense gradient). Only
    ``backward`` and ``zero_grad`` maintain it, so code that writes ``grad``
    itself must set it to None.
    """

    __slots__ = ("values", "grad", "grad_rows", "requires_grad", "op", "_parents", "_bwd")

    def __init__(self, values, requires_grad=False, *, op="leaf", parents=(), bwd=None):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D matrices; got shape {arr.shape}")
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros(arr.shape) if self.requires_grad else None
        self.grad_rows = None
        self.op = op
        self._parents = tuple(parents)
        self._bwd = bwd

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @staticmethod
    def scalar(value, requires_grad=False) -> "Tensor":
        return Tensor([[float(value)]], requires_grad)

    def item(self) -> float:
        if self.values.size != 1:
            raise UsageError(f"item() needs a 1x1 tensor; got shape {self.shape}")
        return float(self.values[0, 0])

    def detach(self) -> "Tensor":
        """Copy of the values with no gradient tracking and no tape edge."""
        return Tensor(self.values.copy())

    def zero_grad(self):
        """Clear ``grad``: only the recorded ``grad_rows``, or all of it after
        a dense gradient."""
        if self.grad is None:
            return
        if self.grad_rows is None:
            self.grad[...] = 0.0
        else:
            self.grad[self.grad_rows] = 0.0
        self.grad_rows = _NO_ROWS

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


_NO_ROWS = np.zeros(0, dtype=np.int64)
_NO_ROWS.setflags(write=False)


class RowGrad(NamedTuple):
    """A row-sparse adjoint of a table: ``rows[k]`` belongs to row ``idx[k]``,
    and repeated indices add up."""

    idx: np.ndarray
    rows: np.ndarray


def _make(values: np.ndarray, op: str, parents: tuple, bwd) -> Tensor:
    if not np.isfinite(values).all():
        raise NumericError(f"non-finite output in op '{op}'")
    if _recording() and any(p.requires_grad for p in parents):
        return Tensor(values, True, op=op, parents=parents, bwd=bwd)
    return Tensor(values, False, op=op)


# the name of every tape op: each is a function below and the ``op`` it records
OPS = (
    "matmul", "add", "mul", "neg", "sigmoid", "exp", "log", "softplus", "relu", "linear",
    "concat_cols", "row_mix", "row_gather", "gather_cols", "reduce_sum", "reduce_mean",
    "row_softmax", "scalar_scale", "ce_mean", "soft_ce_mean", "bpr_mean", "weighted_sum",
)


# ---------------------------------------------------------------------------
# forward operations
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")
    av, bv = a.values, b.values

    def bwd(g):
        return g @ bv.T, av.T @ g

    return _make(av @ bv, "matmul", (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; ``b`` may be a 1 x n row vector (bias)."""
    if a.shape == b.shape:
        def bwd(g):
            return g, g
    elif b.shape[0] == 1 and b.shape[1] == a.shape[1]:
        def bwd(g):
            return g, g.sum(axis=0, keepdims=True)
    else:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} are neither equal nor matrix + row vector")
    return _make(a.values + b.values, "add", (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    av, bv = a.values, b.values

    def bwd(g):
        return g * bv, g * av

    return _make(av * bv, "mul", (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        return (-g,)

    return _make(-a.values, "neg", (a,), bwd)


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid on a plain array: with e = exp(-|x|), only
    ever of a non-positive argument, 1 / (1 + e) where x >= 0 and e / (1 + e)
    elsewhere.

    ``minimum(x, -x)`` is ``-|x|`` but passes a NaN through with its sign, so
    every output, NaN included, has the bytes of the branch form that scatters
    each half through a boolean mask. Both halves are written in place into
    one buffer, which keeps the transient memory below the branch form's.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.minimum(x, -x, out=np.empty_like(x))
    np.exp(e, out=e)
    d = 1.0 + e
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=e, where=x >= 0)
    return e


def sigmoid(a: Tensor) -> Tensor:
    s = sigmoid_values(a.values)

    def bwd(g):
        return (g * s * (1.0 - s),)

    return _make(s, "sigmoid", (a,), bwd)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(a.values)

    def bwd(g):
        return (g * out,)

    return _make(out, "exp", (a,), bwd)


def log(a: Tensor) -> Tensor:
    av = a.values
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(av)

    def bwd(g):
        return (g / av,)

    return _make(out, "log", (a,), bwd)


def _softplus_values(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus(a: Tensor) -> Tensor:
    """ln(1 + e^x), computed as max(x, 0) + log1p(e^-|x|) to avoid overflow."""
    av = a.values
    out = _softplus_values(av)
    sig = sigmoid_values(av)

    def bwd(g):
        return (g * sig,)

    return _make(out, "softplus", (a,), bwd)


def relu(a: Tensor) -> Tensor:
    av = a.values
    mask = av > 0

    def bwd(g):
        return (g * mask,)

    return _make(np.maximum(av, 0.0), "relu", (a,), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """``x @ w + b``, then relu when ``relu`` is set: the ``matmul`` -> ``add``
    -> ``relu`` chain as one tape node, with the same float operations in the
    same order forward and backward. As for any op, only the output is checked
    for finiteness, so a pre-activation of -inf that relu clips to 0 passes."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeError(f"linear: shapes {x.shape} @ {w.shape} + {b.shape} do not fit")
    xv, wv = x.values, w.values
    out = xv @ wv
    out += b.values
    if relu:
        mask = out > 0
        np.maximum(out, 0, out=out)

    def bwd(g):
        if relu:
            g = g * mask
        return g @ wv.T, xv.T @ g, g.sum(axis=0, keepdims=True)

    return _make(out, "linear", (x, w, b), bwd)


def concat_cols(*parts: Tensor) -> Tensor:
    """Join one or more tensors with equal row counts side by side."""
    if any(p.shape[0] != parts[0].shape[0] for p in parts):
        raise ShapeError(f"concat_cols: row counts differ: {[p.shape for p in parts]}")
    splits = np.cumsum([p.shape[1] for p in parts[:-1]])

    def bwd(g):
        return np.split(g, splits, axis=1)

    return _make(np.concatenate([p.values for p in parts], axis=1), "concat_cols", parts, bwd)


def row_mix(weights: Tensor, *blocks: Tensor) -> Tensor:
    """Row-wise weighted sum of equal-shape blocks: out[i] = sum_k weights[i, k] * blocks[k][i]."""
    shape = blocks[0].shape
    if any(b.shape != shape for b in blocks) or weights.shape != (shape[0], len(blocks)):
        raise ShapeError(f"row_mix: weights {weights.shape} do not fit blocks {[b.shape for b in blocks]}")
    wv = weights.values
    bvs = [b.values for b in blocks]
    cols = [wv[:, k : k + 1] for k in range(len(bvs))]
    out = cols[0] * bvs[0]
    for c, bv in zip(cols[1:], bvs[1:]):
        out += c * bv

    def bwd(g):
        gw = np.stack([(g * bv).sum(axis=1) for bv in bvs], axis=1)
        return (gw, *(g * c for c in cols))

    return _make(out, "row_mix", (weights, *blocks), bwd)


def _gather(tables, index_cols, op: str) -> Tensor:
    """Rows ``index_cols[k]`` of each ``tables[k]``, side by side. Backward
    returns one ``RowGrad`` per table: its indices and its column block of
    the upstream rows, which ``backward`` scatter-adds into the table."""
    idxs = []
    for table, indices in zip(tables, index_cols):
        idx = np.asarray(indices, dtype=np.int64).ravel()
        rows = table.shape[0]
        if idx.size and (idx.min() < 0 or idx.max() >= rows):
            bad = idx[(idx < 0) | (idx >= rows)][0]
            raise UsageError(f"{op}: index {bad} out of range for table with {rows} rows")
        idxs.append(idx)
    splits = np.cumsum([t.shape[1] for t in tables[:-1]])

    def bwd(g):
        return tuple(RowGrad(idx, part) for idx, part in zip(idxs, np.split(g, splits, axis=1)))

    values = np.concatenate([t.values[idx] for t, idx in zip(tables, idxs)], axis=1)
    return _make(values, op, tuple(tables), bwd)


def row_gather(table: Tensor, indices) -> Tensor:
    """Select rows of ``table``; backward returns a ``RowGrad`` of the indices
    and the upstream rows, which ``backward`` scatter-adds into the table."""
    return _gather((table,), (indices,), "row_gather")


def gather_cols(tables, ids) -> Tensor:
    """Row ``ids[i, k]`` of ``tables[k]`` for every k, joined side by side:
    ``concat_cols(*(row_gather(t, ids[:, k]) for k, t in enumerate(tables)))``
    as one tape node, with the same values and the same ``RowGrad`` per table."""
    ids = np.asarray(ids)
    if not tables or ids.ndim != 2 or ids.shape[1] != len(tables):
        raise ShapeError(f"gather_cols: ids of shape {ids.shape} do not fit {len(tables)} tables")
    return _gather(tuple(tables), ids.T, "gather_cols")


def reduce_sum(a: Tensor) -> Tensor:
    shape = a.shape

    def bwd(g):
        return (np.full(shape, g[0, 0]),)

    return _make(np.array([[a.values.sum()]]), "reduce_sum", (a,), bwd)


def reduce_mean(a: Tensor) -> Tensor:
    shape = a.shape
    n = a.values.size
    if n == 0:
        raise ShapeError("reduce_mean of an empty tensor")

    def bwd(g):
        return (np.full(shape, g[0, 0] / n),)

    return _make(np.array([[a.values.mean()]]), "reduce_mean", (a,), bwd)


def row_softmax(a: Tensor) -> Tensor:
    av = a.values
    shifted = av - av.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        return (s * (g - (g * s).sum(axis=1, keepdims=True)),)

    return _make(s, "row_softmax", (a,), bwd)


def scalar_scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _make(a.values * c, "scalar_scale", (a,), bwd)


# ---------------------------------------------------------------------------
# fused loss terms
# ---------------------------------------------------------------------------


def _loss_constant(values, logits: Tensor, op: str) -> np.ndarray:
    """The fixed operand of a loss op as a float64 array of the logits' shape."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != logits.shape:
        raise ShapeError(f"{op}: constant of shape {arr.shape} vs logits of shape {logits.shape}")
    if arr.size == 0:
        raise ShapeError(f"{op} of an empty tensor")
    return arr


def ce_mean(logits: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy of ``logits`` against 0/1 ``labels`` of the
    same shape: ``reduce_mean(add(softplus(r), mul(-y, r)))`` as one node.
    Labels other than 0 or 1, NaN included, raise ``ConfigError``."""
    y = _loss_constant(labels, logits, "ce_mean")
    if not ((y == 0) | (y == 1)).all():
        raise ConfigError("ce_mean: labels must be 0 or 1")
    rv, neg_y = logits.values, -y
    shape, n = rv.shape, rv.size

    def bwd(g):
        g = np.full(shape, g[0, 0] / n)
        return (g * sigmoid_values(rv) + g * neg_y,)  # softplus's adjoint reaches r before mul's

    return _make(np.array([[(_softplus_values(rv) + neg_y * rv).mean()]]), "ce_mean", (logits,), bwd)


def soft_ce_mean(logits: Tensor, targets, scale: float) -> Tensor:
    """Mean cross-entropy of sigmoid(s), s = ``scale`` * ``logits``, against
    soft ``targets`` p of the same shape: ``scalar_scale`` and then
    ``reduce_mean(add(mul(p, softplus(neg(s))), mul(1 - p, softplus(s))))``
    as one node. Targets outside [0, 1], NaN included, raise ``ConfigError``."""
    p = _loss_constant(targets, logits, "soft_ce_mean")
    if not ((p >= 0) & (p <= 1)).all():
        raise ConfigError("soft_ce_mean: soft targets must lie in [0, 1]")
    c = float(scale)
    s = logits.values * c
    q = 1.0 - p
    shape, n = s.shape, s.size

    def bwd(g):
        g = np.full(shape, g[0, 0] / n)
        # s hears from neg(s) first, then from softplus(s); scalar_scale passes the sum on
        return ((-(g * p * sigmoid_values(-s)) + g * q * sigmoid_values(s)) * c,)

    out = np.array([[(p * _softplus_values(-s) + q * _softplus_values(s)).mean()]])
    return _make(out, "soft_ce_mean", (logits,), bwd)


def bpr_mean(pos: Tensor, neg: Tensor) -> Tensor:
    """Mean pairwise ranking loss -ln sigmoid(pos - neg), computed as
    ``reduce_mean(softplus(add(neg(pos), neg)))`` in one node. The chain's
    ``add`` raised on a non-finite difference, and softplus maps -inf to a
    finite 0, so this op checks the difference too."""
    if pos.shape != neg.shape or pos.values.size == 0:
        raise ShapeError(f"bpr_mean: needs two equal nonempty shapes, got {pos.shape} and {neg.shape}")
    d = -pos.values + neg.values
    if not np.isfinite(d).all():
        raise NumericError("non-finite output in op 'bpr_mean'")
    shape, n = d.shape, d.size

    def bwd(g):
        g = np.full(shape, g[0, 0] / n) * sigmoid_values(d)
        return -g, g

    return _make(np.array([[_softplus_values(d).mean()]]), "bpr_mean", (pos, neg), bwd)


def weighted_sum(terms, weights) -> Tensor:
    """``terms[0] * weights[0] + terms[1] * weights[1] + ...`` summed from the
    left: the ``add`` fold of ``scalar_scale`` nodes as one node. A weight of
    1.0 stands in for an unscaled term, since x * 1.0 is x."""
    terms, weights = tuple(terms), [float(w) for w in weights]
    if not terms or len(weights) != len(terms) or any(t.shape != terms[0].shape for t in terms):
        raise ShapeError(f"weighted_sum: {len(weights)} weights for terms of shapes {[t.shape for t in terms]}")
    out = terms[0].values * weights[0]
    for t, w in zip(terms[1:], weights[1:]):
        out += t.values * w

    def bwd(g):
        return tuple(g * w for w in weights)

    return _make(out, "weighted_sum", terms, bwd)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into t.grad for every reachable tensor.

    ``loss`` must be 1x1. Tensors not on a path to the loss keep their grads
    untouched; calling twice adds the gradients twice.

    A node's adjoint is the list of its contributions, in arrival order. A
    leaf whose every contribution is a ``RowGrad``, with fewer indices in
    total than the table has rows, takes the row-sparse path (``_add_rows``).
    Any other node folds its list from the left into one dense array, each
    ``RowGrad`` scatter-added from zero first. The sparse path runs that fold
    on the rows the indices reach, so the bits agree.
    """
    if loss.shape != (1, 1):
        raise UsageError(f"backward needs a 1x1 scalar loss; got shape {loss.shape}")
    if not loss.requires_grad:
        raise UsageError("backward on a tensor with requires_grad=False")

    # iterative post-order DFS over grad-requiring parents
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    adjoint: dict[int, list] = {id(loss): [np.ones((1, 1))]}
    for node in reversed(topo):
        parts = adjoint.pop(id(node))
        if (node._bwd is None and all(isinstance(r, RowGrad) for r in parts)
                and sum(r.idx.size for r in parts) < node.shape[0]):
            _add_rows(node, parts)
            continue
        g = _fold(parts, node.shape)
        node.grad += g
        node.grad_rows = None
        if node._bwd is not None:
            for parent, contrib in zip(node._parents, node._bwd(g)):
                if parent.requires_grad:
                    adjoint.setdefault(id(parent), []).append(contrib)


def _fold(parts: list, shape) -> np.ndarray:
    """Contributions summed from the left as ``shape`` arrays, never in place,
    since contributions may alias each other."""
    g = _dense(parts[0], shape)
    for part in parts[1:]:
        g = g + _dense(part, shape)
    return g


def _dense(part, shape) -> np.ndarray:
    """One contribution as a ``shape`` array: a ``RowGrad`` is scatter-added
    from zero in index order."""
    if not isinstance(part, RowGrad):
        return part
    dense = np.zeros(shape)
    np.add.at(dense, part.idx, part.rows)
    return dense


def _add_rows(leaf: Tensor, parts: list[RowGrad]) -> None:
    """``_fold`` of ``parts`` on a buffer over only the rows they reach, added
    into ``leaf.grad``, whose ``grad_rows`` then records those rows."""
    rows, inv = np.unique(np.concatenate([r.idx for r in parts]), return_inverse=True)
    positions = np.split(inv, np.cumsum([r.idx.size for r in parts[:-1]]))
    leaf.grad[rows] += _fold([RowGrad(pos, r.rows) for r, pos in zip(parts, positions)], (rows.size, leaf.shape[1]))
    if leaf.grad_rows is not None:
        leaf.grad_rows = rows if leaf.grad_rows.size == 0 else np.union1d(leaf.grad_rows, rows)
