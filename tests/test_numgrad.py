"""Unit tests for the autodiff engine: op semantics, gradient correctness
against central finite differences, accumulation, and determinism."""

import functools
import zlib

import numpy as np
import pytest

from conftest import check_gradients, finite_difference, grad_close
from crossdistil import numgrad as ng
from crossdistil.errors import NumericError, ShapeError, UsageError
from crossdistil.numgrad import Tensor


def t(values, requires_grad=False):
    return Tensor(np.atleast_2d(np.asarray(values, dtype=np.float64)), requires_grad)


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        assert ng.sigmoid(t(0.0)).item() == 0.5

    def test_matmul_identity(self):
        a = t([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = ng.matmul(t(np.eye(2)), a)
        np.testing.assert_array_equal(out.values, a.values)

    def test_reduce_mean(self):
        assert ng.reduce_mean(t([1.0, 2.0, 3.0, 4.0])).item() == 2.5

    def test_add_row_broadcast(self):
        out = ng.add(t([[1.0, 2.0], [3.0, 4.0]]), t([[10.0, 20.0]]))
        np.testing.assert_array_equal(out.values, [[11.0, 22.0], [13.0, 24.0]])

    def test_add_rejects_column_broadcast(self):
        with pytest.raises(ShapeError):
            ng.add(t([[1.0, 2.0], [3.0, 4.0]]), t([[1.0], [2.0]]))

    def test_add_takes_the_row_vector_second_only(self):
        with pytest.raises(ShapeError):
            ng.add(t([[10.0, 20.0]]), t([[1.0, 2.0], [3.0, 4.0]]))

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ng.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))

    def test_concat_cols(self):
        out = ng.concat_cols(t([[1.0], [2.0]]), t([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(out.values, [[1.0, 3.0, 4.0], [2.0, 5.0, 6.0]])

    def test_concat_cols_three_parts(self, rng):
        parts = [t(rng.normal(size=(2, w)), requires_grad=True) for w in (1, 3, 2)]
        out = ng.concat_cols(*parts)
        np.testing.assert_array_equal(out.values, np.hstack([p.values for p in parts]))
        proj = rng.normal(size=(2, 6))
        ng.backward(ng.reduce_sum(ng.mul(out, t(proj))))
        for p, g in zip(parts, np.split(proj, [1, 4], axis=1)):
            np.testing.assert_array_equal(p.grad, g)

    def test_concat_cols_row_mismatch(self):
        with pytest.raises(ShapeError, match="row counts differ"):
            ng.concat_cols(t(np.ones((2, 1))), t(np.ones((2, 2))), t(np.ones((3, 1))))

    def test_row_mix_is_row_weighted_sum(self, rng):
        w = rng.uniform(size=(4, 3))
        blocks = [rng.normal(size=(4, 2)) for _ in range(3)]
        out = ng.row_mix(t(w), *(t(b) for b in blocks))
        expected = sum(w[:, k : k + 1] * blocks[k] for k in range(3))
        np.testing.assert_array_equal(out.values, expected)

    def test_row_mix_shape_errors(self):
        with pytest.raises(ShapeError, match="row_mix"):
            ng.row_mix(t(np.ones((2, 3))), t(np.ones((2, 4))), t(np.ones((2, 4))))
        with pytest.raises(ShapeError, match="row_mix"):
            ng.row_mix(t(np.ones((2, 2))), t(np.ones((2, 4))), t(np.ones((2, 3))))

    def test_row_gather_values_and_bounds(self):
        table = t([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = ng.row_gather(table, [2, 0, 2])
        np.testing.assert_array_equal(out.values, [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])
        with pytest.raises(UsageError, match="out of range"):
            ng.row_gather(table, [3])

    def test_row_softmax_rows_sum_to_one(self, rng):
        x = t(rng.normal(size=(4, 5)))
        np.testing.assert_allclose(ng.row_softmax(x).values.sum(axis=1), 1.0, atol=1e-12)

    def test_log_of_nonpositive_is_numeric_error(self):
        with pytest.raises(NumericError, match="log"):
            ng.log(t([[0.0]]))

    def test_exp_overflow_is_numeric_error(self):
        with pytest.raises(NumericError, match="exp"):
            ng.exp(t([[1000.0]]))

    def test_softplus_large_positive_is_stable(self):
        out = ng.softplus(t([[800.0]]))
        assert out.item() == 800.0

    def test_sigmoid_extremes_finite(self):
        out = ng.sigmoid(t([[-800.0, 800.0]]))
        np.testing.assert_allclose(out.values, [[0.0, 1.0]], atol=1e-300)

    def test_sigmoid_values_has_the_bytes_of_the_branch_form(self):
        def branch(x):  # scatter each half through a boolean mask
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        edges = [0.0, 1e-300, 700.0, 1e308, np.inf, np.nan]
        x = np.array(edges + [-v for v in edges])
        assert np.signbit(x[6:]).all()  # -0.0 and -NaN are really negative
        for shaped in (x, x.reshape(-1, 1)):
            assert ng.sigmoid_values(shaped).tobytes() == branch(shaped).tobytes()

    def test_tensor_must_be_2d(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2)))


def ce_chain(r, y):
    return ng.reduce_mean(ng.add(ng.softplus(r), ng.mul(t(-y), r)))


def soft_ce_chain(r, p, scale):
    s = ng.scalar_scale(r, scale)
    return ng.reduce_mean(ng.add(ng.mul(t(p), ng.softplus(ng.neg(s))), ng.mul(t(1.0 - p), ng.softplus(s))))


def bpr_chain(pos, neg):
    return ng.reduce_mean(ng.softplus(ng.add(ng.neg(pos), neg)))


class TestFusedOpsMatchTheirChains:
    """Each fused op gives the bytes of the op chain it fuses: forward values,
    and every gradient under an adjoint summed from two uses."""

    @staticmethod
    def run(fwd, leaves, rng_seed=5):
        for leaf in leaves:
            leaf.zero_grad()
        out = fwd()
        rng = np.random.default_rng(rng_seed)
        p1, p2 = (t(rng.normal(size=out.shape)) for _ in range(2))
        ng.backward(ng.add(ng.reduce_sum(ng.mul(out, p1)), ng.reduce_sum(ng.mul(out, p2))))
        rows = [None if leaf.grad_rows is None else leaf.grad_rows.tolist() for leaf in leaves]
        return out.values.tobytes(), [leaf.grad.tobytes() for leaf in leaves], rows

    @pytest.mark.parametrize("relu", [False, True])
    def test_linear(self, rng, relu):
        x = t(rng.normal(size=(7, 4)), requires_grad=True)
        w = t(rng.normal(size=(4, 5)), requires_grad=True)
        b = t(rng.normal(size=(1, 5)), requires_grad=True)
        x.values[0, :] = 0.0  # a row whose pre-activation is exactly the bias

        def chain():
            out = ng.add(ng.matmul(x, w), b)
            return ng.relu(out) if relu else out

        fused = self.run(lambda: ng.linear(x, w, b, relu=relu), (x, w, b))
        assert fused == self.run(chain, (x, w, b))
        if relu:
            assert 0.0 in np.frombuffer(fused[0])

    @pytest.mark.parametrize("rows", [1000, 6], ids=["row_sparse", "dense"])
    def test_gather_cols(self, rows):
        rng = np.random.default_rng(3)
        tables = [t(rng.normal(size=(rows, d)), requires_grad=True) for d in (3, 1, 2)]
        ids = rng.integers(0, 6, size=(9, 3))
        ids[:4] = ids[4:8]  # repeated indices within every column

        def chain():
            return ng.concat_cols(*(ng.row_gather(tb, ids[:, f]) for f, tb in enumerate(tables)))

        def twice(fwd):  # two lookups reach each table, as two forwards of a step do
            return lambda: ng.concat_cols(fwd(), fwd())

        fused = self.run(twice(lambda: ng.gather_cols(tables, ids)), tables)
        assert fused == self.run(twice(chain), tables)
        assert all((r is None) == (rows == 6) for r in fused[2])

    @pytest.fixture
    def logit(self, rng):
        """A column of logits made by a layer, so its adjoint is folded at a
        node between the loss and the leaves."""
        x, w, b = (t(rng.normal(size=shape), requires_grad=True) for shape in ((9, 3), (3, 1), (1, 1)))
        return (x, w, b), lambda: ng.linear(x, w, b)

    def test_ce_mean(self, rng, logit):
        leaves, r = logit
        y = rng.integers(0, 2, size=(9, 1)).astype(float)
        assert self.run(lambda: ng.ce_mean(r(), y), leaves) == self.run(lambda: ce_chain(r(), y), leaves)

    @pytest.mark.parametrize("scale", [1.0, 0.4])
    def test_soft_ce_mean(self, rng, logit, scale):
        leaves, r = logit
        p = rng.uniform(0, 1, size=(9, 1))
        p[:2, 0] = (0.0, 1.0)
        fused = self.run(lambda: ng.soft_ce_mean(r(), p, scale), leaves)
        assert fused == self.run(lambda: soft_ce_chain(r(), p, scale), leaves)

    def test_bpr_mean(self, rng):
        # pos and neg from one weight, as the pair forwards of a step are;
        # three uses of it make the order of its adjoint's sum matter
        x1, x2, x3, w = (t(rng.normal(size=shape), requires_grad=True) for shape in ((6, 3),) * 3 + ((3, 1),))
        leaves = (x1, x2, x3, w)

        def logits():
            return ng.matmul(x1, w), ng.add(ng.matmul(x2, w), ng.matmul(x3, w))

        fused = self.run(lambda: ng.bpr_mean(*logits()), leaves)
        assert fused == self.run(lambda: bpr_chain(*logits()), leaves)

    def test_weighted_sum(self, rng):
        terms = [t(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(4)]
        weights = (0.7, 1.3, 0.0, 2.5)

        def chain():
            return functools.reduce(ng.add, [ng.scalar_scale(x, c) for x, c in zip(terms, weights)])

        assert self.run(lambda: ng.weighted_sum(terms, weights), terms) == self.run(chain, terms)

    def test_weight_one_is_an_unscaled_term(self, rng):
        terms = [t(rng.normal(size=(1, 1)), requires_grad=True) for _ in range(3)]

        def chain():  # quadruplet_loss's chain: the first term is not scaled
            return ng.add(ng.add(terms[0], ng.scalar_scale(terms[1], 0.3)), ng.scalar_scale(terms[2], 1.7))

        fused = self.run(lambda: ng.weighted_sum(terms, (1.0, 0.3, 1.7)), terms)
        assert fused == self.run(chain, terms)

    def test_ce_and_kd_of_one_logit(self, rng, logit):
        """The student loss: CE and KD both read the student logit, whose
        adjoint adds CE's softplus and mul parts first and KD's after."""
        leaves, r = logit
        y = rng.integers(0, 2, size=(9, 1)).astype(float)
        p = rng.uniform(0, 1, size=(9, 1))

        def fused():
            rv = r()
            return ng.weighted_sum((ng.ce_mean(rv, y), ng.soft_ce_mean(rv, p, 0.5)), (0.3, 0.7))

        def chain():
            rv = r()
            return ng.add(ng.scalar_scale(ce_chain(rv, y), 0.3), ng.scalar_scale(soft_ce_chain(rv, p, 0.5), 0.7))

        assert self.run(fused, leaves) == self.run(chain, leaves)

    def test_loss_op_shape_errors(self):
        r = t(np.zeros((3, 1)))
        with pytest.raises(ShapeError, match=r"ce_mean: .*\(2, 1\) vs logits of shape \(3, 1\)"):
            ng.ce_mean(r, np.zeros((2, 1)))
        with pytest.raises(ShapeError, match="soft_ce_mean of an empty tensor"):
            ng.soft_ce_mean(t(np.zeros((0, 1))), np.zeros((0, 1)), 1.0)
        with pytest.raises(ShapeError, match="bpr_mean"):
            ng.bpr_mean(r, t(np.zeros((1, 1))))
        for terms, weights in (((), ()), ((r,), (1.0, 2.0)), ((r, t(np.zeros((1, 1)))), (1.0, 2.0))):
            with pytest.raises(ShapeError, match="weighted_sum"):
                ng.weighted_sum(terms, weights)

    def test_bpr_mean_names_a_non_finite_difference(self):
        # softplus(-inf) is 0, so only the check of the difference sees this
        big = t([[1e308]])
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="'bpr_mean'"):
            ng.bpr_mean(big, ng.neg(big))

    def test_linear_shape_errors(self):
        x, w = t(np.ones((2, 3))), t(np.ones((3, 4)))
        with pytest.raises(ShapeError, match=r"linear: .*\(2, 3\) @ \(4, 3\)"):
            ng.linear(x, t(np.ones((4, 3))), t(np.ones((1, 3))))
        for bias in (np.ones((1, 3)), np.ones((2, 4)), np.ones((4, 1))):
            with pytest.raises(ShapeError, match="linear"):
                ng.linear(x, w, t(bias))

    def test_gather_cols_shape_and_range_errors(self):
        tables = [t(np.ones((3, 2))), t(np.ones((4, 1)))]
        for ids in ([0, 1], [[0, 1, 2]], [[[0, 1]]], np.zeros((2, 0), dtype=int)):
            with pytest.raises(ShapeError, match="gather_cols"):
                ng.gather_cols(tables, ids)
        with pytest.raises(ShapeError, match="gather_cols"):
            ng.gather_cols([], np.zeros((2, 0), dtype=int))
        with pytest.raises(UsageError, match="gather_cols: index 4 out of range for table with 4 rows"):
            ng.gather_cols(tables, [[0, 0], [2, 4]])


class TestBackward:
    def test_reduce_sum_grad_is_ones(self, rng):
        x = t(rng.normal(size=(3, 4)), requires_grad=True)
        ng.backward(ng.reduce_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sigmoid_grad_at_zero(self):
        x = t(0.0, requires_grad=True)
        ng.backward(ng.sigmoid(x))
        assert x.grad[0, 0] == 0.25

    def test_backward_rejects_non_scalar(self, rng):
        x = t(rng.normal(size=(2, 2)), requires_grad=True)
        with pytest.raises(UsageError, match="1x1"):
            ng.backward(ng.neg(x))

    def test_composed_ce_matches_finite_difference(self, rng):
        # CE(1, sigmoid(w . x)) checked entrywise at tight tolerance
        w = t(rng.normal(size=(4, 1)), requires_grad=True)
        x = t(rng.normal(size=(1, 4)), requires_grad=True)

        def loss():
            z = ng.matmul(x, w)
            return ng.neg(ng.log(ng.sigmoid(z)))

        ng.backward(loss())
        for tensor in (w, x):
            for pos in range(4):
                r, c = (pos, 0) if tensor is w else (0, pos)
                fd = finite_difference(loss, tensor, r, c)
                assert grad_close(tensor.grad[r, c], fd, rel=1e-5)

    def test_two_backwards_accumulate_exactly(self, rng):
        x = t(rng.normal(size=(3, 2)), requires_grad=True)

        def loss():
            return ng.reduce_mean(ng.mul(x, x))

        ng.backward(loss())
        once = x.grad.copy()
        ng.backward(loss())
        np.testing.assert_array_equal(x.grad, 2.0 * once)

    def test_unreachable_tensor_grad_untouched(self, rng):
        x = t(rng.normal(size=(2, 2)), requires_grad=True)
        y = t(rng.normal(size=(2, 2)), requires_grad=True)
        ng.backward(ng.reduce_sum(x))
        np.testing.assert_array_equal(y.grad, np.zeros((2, 2)))

    def test_diamond_reuse_accumulates_both_paths(self):
        x = t(2.0, requires_grad=True)
        # f = x*x + x, df/dx = 2x + 1 = 5
        out = ng.add(ng.mul(x, x), x)
        ng.backward(out)
        assert x.grad[0, 0] == 5.0


class TestDetachAndNoGrad:
    def test_detach_preserves_values(self, rng):
        x = t(rng.normal(size=(3, 3)), requires_grad=True)
        d = x.detach()
        np.testing.assert_array_equal(d.values, x.values)
        assert not d.requires_grad

    def test_loss_through_detach_gives_zero_grad(self, rng):
        x = t(rng.normal(size=(2, 2)), requires_grad=True)
        w = t(rng.normal(size=(2, 2)), requires_grad=True)
        ng.backward(ng.reduce_sum(ng.mul(ng.mul(x, x).detach(), w)))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 2)))
        assert np.abs(w.grad).sum() > 0

    def test_no_grad_blocks_recording(self, rng):
        x = t(rng.normal(size=(2, 2)), requires_grad=True)
        with ng.no_grad():
            y = ng.mul(x, x)
        assert not y.requires_grad
        assert y._parents == ()


def _random_instance(op_name, rng):
    """Build (loss_fn, differentiable tensors) for one op at a random point."""
    m, n = int(rng.integers(2, 4)), int(rng.integers(2, 5))
    mk = lambda shape, scale=1.0: Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)

    if op_name == "matmul":
        k = int(rng.integers(2, 4))
        a, b = mk((m, k)), mk((k, n))
        fwd = lambda: ng.matmul(a, b)
        tensors = (a, b)
    elif op_name == "add":
        a, b = mk((m, n)), mk((1, n))
        fwd = lambda: ng.add(a, b)
        tensors = (a, b)
    elif op_name == "mul":
        a, b = mk((m, n)), mk((m, n))
        fwd = lambda: ng.mul(a, b)
        tensors = (a, b)
    elif op_name == "concat_cols":
        a, b = mk((m, n)), mk((m, n + 1))
        fwd = lambda: ng.concat_cols(a, b)
        tensors = (a, b)
    elif op_name == "row_mix":
        k = int(rng.integers(1, 4))
        w = mk((m, k))
        blocks = [mk((m, n)) for _ in range(k)]
        fwd = lambda: ng.row_mix(w, *blocks)
        tensors = (w, *blocks)
    elif op_name == "row_gather":
        a = mk((m + 2, n))
        idx = rng.integers(0, m + 2, size=m)
        fwd = lambda: ng.row_gather(a, idx)
        tensors = (a,)
    elif op_name == "gather_cols":
        tables = [mk((m + 2, n)), mk((m + 1, n + 1))]
        ids = np.stack([rng.integers(0, tb.shape[0], size=m) for tb in tables], axis=1)
        fwd = lambda: ng.gather_cols(tables, ids)
        tensors = tuple(tables)
    elif op_name in ("linear", "linear_relu"):
        k = int(rng.integers(2, 4))
        x, w, b = mk((m, k)), mk((k, n)), mk((1, n))
        fwd = lambda: ng.linear(x, w, b, relu=op_name == "linear_relu")
        tensors = (x, w, b)
    elif op_name == "log":
        a = Tensor(rng.uniform(0.5, 3.0, size=(m, n)), requires_grad=True)
        fwd = lambda: ng.log(a)
        tensors = (a,)
    elif op_name == "ce_mean":
        a = mk((m, n))
        y = rng.integers(0, 2, size=(m, n))
        fwd = lambda: ng.ce_mean(a, y)
        tensors = (a,)
    elif op_name == "soft_ce_mean":
        a = mk((m, n))
        p, c = rng.uniform(0, 1, size=(m, n)), float(rng.uniform(0.2, 3.0))
        fwd = lambda: ng.soft_ce_mean(a, p, c)
        tensors = (a,)
    elif op_name == "bpr_mean":
        a, b = mk((m, n)), mk((m, n))
        fwd = lambda: ng.bpr_mean(a, b)
        tensors = (a, b)
    elif op_name == "weighted_sum":
        terms = [mk((m, n)) for _ in range(int(rng.integers(1, 4)))]
        weights = rng.normal(size=len(terms))
        fwd = lambda: ng.weighted_sum(terms, weights)
        tensors = tuple(terms)
    elif op_name == "scalar_scale":
        a = mk((m, n))
        c = float(rng.normal())
        fwd = lambda: ng.scalar_scale(a, c)
        tensors = (a,)
    else:
        a = mk((m, n))
        fwd = lambda: getattr(ng, op_name)(a)
        tensors = (a,)

    # project through a fixed random matrix so every output entry matters
    proj = Tensor(rng.normal(size=fwd().shape))
    loss_fn = lambda: ng.reduce_sum(ng.mul(fwd(), proj))
    return loss_fn, tensors


ALL_OPS = (
    "matmul", "add", "mul", "neg", "sigmoid", "exp", "log", "softplus", "relu", "linear", "linear_relu",
    "concat_cols", "row_mix", "row_gather", "gather_cols", "reduce_sum", "reduce_mean", "row_softmax",
    "scalar_scale", "ce_mean", "soft_ce_mean", "bpr_mean", "weighted_sum",
)


def test_every_op_has_a_finite_difference_case():
    assert {op.removesuffix("_relu") for op in ALL_OPS} == set(ng.OPS)


def test_ops_names_the_numgrad_functions():
    assert len(set(ng.OPS)) == len(ng.OPS)
    for op in ng.OPS:
        assert callable(getattr(ng, op)) and getattr(ng, op).__module__ == ng.__name__, op


@pytest.mark.parametrize("op_name", ALL_OPS)
def test_every_op_gradient_against_finite_difference(op_name):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))
    for _ in range(20):
        loss_fn, tensors = _random_instance(op_name, rng)
        check_gradients(loss_fn, tensors, rng, n_entries=4)


def test_determinism_bit_identical_run():
    def run():
        rng = np.random.default_rng(99)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        loss = ng.reduce_mean(ng.sigmoid(ng.matmul(x, w)))
        ng.backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, xg1, wg1 = run()
    l2, xg2, wg2 = run()
    assert l1 == l2
    assert xg1.tobytes() == xg2.tobytes()
    assert wg1.tobytes() == wg2.tobytes()


def test_zero_grad_resets_exactly():
    x = t([[1.0, -2.0]], requires_grad=True)
    ng.backward(ng.reduce_sum(x))
    x.zero_grad()
    assert x.grad.tobytes() == np.zeros((1, 2)).tobytes()
