"""Row-sparse embedding gradients against the dense path they replace.

``dense_row_gather``, ``dense_zero_grad``, ``dense_sgd_step`` and
``dense_adam_step`` are the dense reference: a table-sized scatter-add per
gather, a full clear, and optimizer steps that sweep every row. The sparse
path must give the same bits, and must not allocate table-sized buffers.
"""

import numpy as np
import pytest

from conftest import peak_traced_bytes
from crossdistil import numgrad as ng
from crossdistil.numgrad import Tensor
from crossdistil.training import ADAM_BLOCK, Adam, Sgd

ROWS, DIM = 1000, 4
SHARED_ROW = 7  # every gather of a step reaches it


def dense_row_gather(table, indices):
    idx = np.asarray(indices, dtype=np.int64).ravel()
    tv = table.values

    def bwd(g):
        gt = np.zeros_like(tv)
        np.add.at(gt, idx, g)
        return (gt,)

    return ng._make(tv[idx], "row_gather", (table,), bwd)


def dense_zero_grad(t):
    t.grad[...] = 0.0


def dense_sgd_step(opt):
    for p in opt.params.values():
        g = p.grad
        if opt.weight_decay:
            g = g + opt.weight_decay * p.values
        p.values -= opt.lr * g


def dense_adam_step(opt):
    opt.t += 1
    c1 = 1.0 - opt.beta1**opt.t
    c2 = 1.0 - opt.beta2**opt.t
    for name, p in opt.params.items():
        g = p.grad
        if opt.weight_decay:
            g = g + opt.weight_decay * p.values
        m = opt.m[name]
        v = opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        p.values -= opt.lr * (m / c1) / (np.sqrt(v / c2) + opt.eps)


def make_params(rows=ROWS):
    """A table, a weight on the path from it to the loss, and a leaf off it."""
    rng = np.random.default_rng(0)
    return [
        ("emb", Tensor(rng.normal(size=(rows, DIM)), requires_grad=True)),
        ("w", Tensor(rng.normal(size=(DIM, 1)), requires_grad=True)),
        ("unused", Tensor(rng.normal(size=(3, 2)), requires_grad=True)),
    ]


def step_gathers(rng, rows=ROWS):
    """2 or 3 index arrays with repeats inside each and SHARED_ROW in all."""
    out = []
    for _ in range(rng.integers(2, 4)):
        idx = rng.integers(0, rows, size=rng.integers(20, 200))
        idx[:10] = idx[10:20]
        idx[-1] = SHARED_ROW
        out.append(idx)
    return out


def gather_loss(params, gathers, gather, source=None):
    """Sum over the gathers of mean(softplus(rows @ w)); rows come from the
    table, or from ``source`` when given."""
    table, w = params[0][1], params[1][1]
    source = table if source is None else source
    total = None
    for idx in gathers:
        term = ng.reduce_mean(ng.softplus(ng.matmul(gather(source, idx), w)))
        total = term if total is None else ng.add(total, term)
    return total


def assert_same_bytes(sparse, dense, what="values"):
    for (name, s), (_, d) in zip(sparse, dense):
        assert getattr(s, what).tobytes() == getattr(d, what).tobytes(), f"{what} of {name}"


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_steps_match_the_dense_path_bit_for_bit(kind, weight_decay):
    """The second table spans three of Adam's update blocks and a partial fourth."""
    for rows in (ROWS, 3 * ADAM_BLOCK // DIM + 5):
        sparse, dense = make_params(rows), make_params(rows)
        cls, dense_step = (Sgd, dense_sgd_step) if kind == "sgd" else (Adam, dense_adam_step)
        opt, ref = cls(dict(sparse), 0.05, weight_decay), cls(dict(dense), 0.05, weight_decay)
        rng = np.random.default_rng(1)
        for _ in range(20):
            gathers = step_gathers(rng, rows)
            for (_, s), (_, d) in zip(sparse, dense):
                s.zero_grad()
                dense_zero_grad(d)
            ng.backward(gather_loss(sparse, gathers, ng.row_gather))
            ng.backward(gather_loss(dense, gathers, dense_row_gather))
            np.testing.assert_array_equal(sparse[0][1].grad_rows, np.unique(np.concatenate(gathers)))
            assert_same_bytes(sparse, dense, "grad")
            opt.step()
            dense_step(ref)
            assert_same_bytes(sparse, dense)
            if kind == "adam":
                for name, _ in sparse:
                    assert opt.v[name].tobytes() == ref.v[name].tobytes(), name
                    np.testing.assert_array_equal(opt.m[name], ref.m[name])
        for _, p in sparse:
            p.zero_grad()
            assert p.grad.tobytes() == np.zeros_like(p.grad).tobytes()


def test_two_backwards_accumulate_twice():
    sparse, dense, once = make_params(), make_params(), make_params()
    gathers = step_gathers(np.random.default_rng(2))
    sparse[0][1].zero_grad()
    for _ in range(2):
        ng.backward(gather_loss(sparse, gathers, ng.row_gather))
        ng.backward(gather_loss(dense, gathers, dense_row_gather))
    ng.backward(gather_loss(once, gathers, ng.row_gather))
    assert_same_bytes(sparse, dense, "grad")
    np.testing.assert_array_equal(sparse[0][1].grad, 2.0 * once[0][1].grad)
    np.testing.assert_array_equal(sparse[0][1].grad_rows, np.unique(np.concatenate(gathers)))


def test_gather_from_a_non_leaf_matches_dense():
    gathers = step_gathers(np.random.default_rng(3))
    runs = []
    for gather in (ng.row_gather, dense_row_gather):
        params = make_params()
        scaled = ng.scalar_scale(params[0][1], 3.0)
        ng.backward(gather_loss(params, gathers, gather, scaled))
        runs.append((params, scaled))
    (sparse, s), (dense, d) = runs
    assert_same_bytes(sparse, dense, "grad")
    assert s.grad.tobytes() == d.grad.tobytes()
    assert sparse[0][1].grad_rows is None


@pytest.mark.parametrize("dense_first", [False, True], ids=["dense_last", "dense_first"])
def test_a_dense_contribution_makes_the_table_dense(dense_first):
    """The operand order of the final ``add`` sets whether the table's dense
    contribution reaches it before or after its ``RowGrad``s."""
    sparse, dense = make_params(), make_params()
    gathers = step_gathers(np.random.default_rng(4))
    for params, gather in ((sparse, ng.row_gather), (dense, dense_row_gather)):
        table = params[0][1]
        table.zero_grad()
        terms = [gather_loss(params, gathers, gather), ng.reduce_mean(ng.mul(table, table))]
        ng.backward(ng.add(*terms[::-1] if dense_first else terms))
    assert_same_bytes(sparse, dense, "grad")
    assert sparse[0][1].grad_rows is None


@pytest.mark.parametrize("rows,sparse_path", [(10, True), (9, False), (8, False)])
def test_a_table_with_no_more_rows_than_indices_stays_dense(rows, sparse_path):
    sparse, dense = make_params(rows), make_params(rows)
    gathers = [np.array([0, 3, 3, 1, 0]), np.array([2, 3, 5, 7])]  # 9 indices
    for params, gather in ((sparse, ng.row_gather), (dense, dense_row_gather)):
        params[0][1].zero_grad()
        ng.backward(gather_loss(params, gathers, gather))
    assert_same_bytes(sparse, dense, "grad")
    assert (sparse[0][1].grad_rows is not None) == sparse_path


def big_gather(rows):
    table = Tensor(np.ones((rows, 8)), requires_grad=True)
    table.zero_grad()
    loss = ng.reduce_mean(ng.row_gather(table, np.arange(128) * (rows // 128)))
    return table, loss


def test_sparse_sgd_step_allocates_nothing_table_sized():
    table, loss = big_gather(1_000_000)  # 64 MB

    def step():
        ng.backward(loss)
        Sgd({"emb": table}, 0.1).step()
        table.zero_grad()

    assert peak_traced_bytes(step) < 2**20
    assert not table.grad.any()


def test_adam_step_allocates_nothing_table_sized():
    """The update's two temporaries span one block of rows, not the table."""
    table, loss = big_gather(250_000)  # 16 MB
    opt = Adam({"emb": table}, 0.1)
    ng.backward(loss)
    assert peak_traced_bytes(opt.step) < 2**21
