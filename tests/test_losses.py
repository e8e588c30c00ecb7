"""Loss-term contracts: values on pinned fixtures, sign conventions of the
calibration path, error-correction semantics, and gradient routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_gradients, tiny_net
from crossdistil import numgrad as ng
from crossdistil.data import PAIRS, QUADS, RANKED
from crossdistil.errors import ConfigError
from crossdistil.losses import (
    CalibrationParams,
    HyperParams,
    bpr_loss,
    calibrate,
    calibration_loss,
    ce_from_logits,
    error_correct,
    kd_loss,
    quadruplet_loss,
    student_loss,
)
from crossdistil.numgrad import Tensor

LN2 = float(np.log(2.0))


def col(values, requires_grad=False):
    return Tensor(np.asarray(values, dtype=np.float64).reshape(-1, 1), requires_grad)


class TestCeFromLogits:
    def test_positive_at_zero_logit(self):
        assert abs(ce_from_logits([1], col([0.0])).item() - LN2) < 1e-15

    def test_negative_at_zero_logit(self):
        assert abs(ce_from_logits([0], col([0.0])).item() - LN2) < 1e-15

    def test_saturated_logit_is_stable(self):
        loss = ce_from_logits([1], col([40.0])).item()
        assert 0.0 <= loss < 1e-15

    def test_matches_probability_form(self, rng):
        y = rng.integers(0, 2, size=32)
        r = rng.normal(size=32)
        expected = -np.mean(y * np.log(1 / (1 + np.exp(-r))) + (1 - y) * np.log(1 - 1 / (1 + np.exp(-r))))
        assert abs(ce_from_logits(y, col(r)).item() - expected) < 1e-12

    @pytest.mark.parametrize("label", [2.0, -1.0, 0.5, np.nan])
    def test_labels_other_than_0_or_1_are_rejected(self, label):
        with pytest.raises(ConfigError, match="labels must be 0 or 1"):
            ce_from_logits([1.0, label], col([0.0, 0.0]))


def soft_ce(target_probs, logits, scale=1.0):
    """Mean cross-entropy of sigmoid(scale * logits) against a list of soft targets, as ``kd_loss`` forms it."""
    return ng.soft_ce_mean(logits, col(target_probs).values, scale)


class TestSoftCe:
    @pytest.mark.parametrize("target", [-0.1, 1.5, np.nan])
    def test_targets_outside_the_unit_interval_are_rejected(self, target):
        with pytest.raises(ConfigError, match=r"soft targets must lie in \[0, 1\]"):
            soft_ce([0.5, target], col([0.0, 0.0]))

    def test_scale_multiplies_the_logits(self, rng):
        p, r = rng.uniform(size=5), rng.normal(size=5)
        assert soft_ce(p, col(r), 0.5).item() == soft_ce(p, col(r * 0.5)).item()


def ranked(task, logits):
    """The (higher, lower) pairs of ``RANKED[task]``, from logits keyed pp, pn, np, nn
    (the ``QUADS`` subsets in order) and pos, neg (the ``PAIRS[task]`` unions)."""
    by_name = {name: logits[key] for key, name in zip(("pp", "pn", "np", "nn", "pos", "neg"), QUADS + PAIRS[task])}
    return [[by_name[name] for name in pair] for pair in RANKED[task]]


class TestQuadrupletLoss:
    def quad(self, rng, task="a", beta1=1.0, beta2=1.0, n=8):
        tensors = {k: col(rng.normal(size=n), requires_grad=True)
                   for k in ("pp", "pn", "np", "nn", "pos", "neg")}
        loss = quadruplet_loss(ranked(task, tensors), beta1, beta2)
        return loss, tensors

    def test_all_logits_equal(self):
        z = col(np.zeros(5))
        loss = quadruplet_loss([(z, z)] * 3, 0.7, 0.3)
        assert abs(loss.item() - (0.7 + 0.3 + 1.0) * LN2) < 1e-14

    def test_saturated_first_term(self):
        zero = col(np.zeros(4))
        pp = col(np.full(4, 40.0))
        loss = quadruplet_loss(ranked("a", {"pp": pp, **dict.fromkeys(("pn", "np", "nn", "pos", "neg"), zero)}),
                               1.0, 1.0)
        assert abs(loss.item() - 2 * LN2) < 1e-12

    @pytest.mark.parametrize("task", ["a", "b"])
    def test_matches_literal_oracle(self, task, rng):
        def lns(x):
            return np.log(1 / (1 + np.exp(-x)))

        vals = {k: rng.normal(size=16) for k in ("pp", "pn", "np", "nn", "pos", "neg")}
        if task == "a":
            expected = (
                -1.3 * lns(vals["pp"] - vals["pn"]).mean()
                - 0.4 * lns(vals["np"] - vals["nn"]).mean()
                - lns(vals["pos"] - vals["neg"]).mean()
            )
        else:
            expected = (
                -1.3 * lns(vals["pp"] - vals["np"]).mean()
                - 0.4 * lns(vals["pn"] - vals["nn"]).mean()
                - lns(vals["pos"] - vals["neg"]).mean()
            )
        loss = quadruplet_loss(ranked(task, {k: col(v) for k, v in vals.items()}), 1.3, 0.4)
        assert abs(loss.item() - expected) < 1e-12

    def test_gradients(self, rng):
        loss, tensors = self.quad(rng, task="b", beta1=0.8, beta2=1.2, n=5)
        del loss

        def rebuild():
            return quadruplet_loss(ranked("b", tensors), 0.8, 1.2)

        check_gradients(rebuild, list(tensors.values()), rng, n_entries=3)

    def test_bpr_loss_is_the_bipartite_term(self, rng):
        pos, neg = col(rng.normal(size=6)), col(rng.normal(size=6))
        expected = -np.log(1 / (1 + np.exp(-(pos.values - neg.values)))).mean()
        assert abs(bpr_loss(pos, neg).item() - expected) < 1e-12


class TestCalibrate:
    def test_identity_parameters_at_zero_logit(self):
        prob = ng.sigmoid(calibrate(col([0.0]), CalibrationParams(), "a"))
        assert prob.item() == 0.5

    def test_identity_parameters_reduce_to_sigmoid(self, rng):
        r = rng.normal(size=16)
        prob = ng.sigmoid(calibrate(col(r), CalibrationParams(), "b"))
        np.testing.assert_allclose(prob.values[:, 0], 1 / (1 + np.exp(-r)), atol=1e-15)

    def test_affine_form_with_negative_slope(self, rng):
        # the paper's form: prob = 1 / (1 + exp(P*r + Q)) with P = -exp(rho)
        params = CalibrationParams(rho_a=0.7, q_a=-0.3)
        r = rng.normal(size=10)
        logit = calibrate(col(r), params, "a")
        prob = ng.sigmoid(logit)
        p_slope = -np.exp(0.7)
        np.testing.assert_allclose(prob.values[:, 0], 1 / (1 + np.exp(p_slope * r + (-0.3))), atol=1e-12)
        np.testing.assert_allclose(logit.values[:, 0], -(p_slope * r + (-0.3)), atol=1e-12)

    def test_monotone_for_any_parameters(self, rng):
        for _ in range(50):
            params = CalibrationParams(
                rho_a=rng.normal(), q_a=rng.normal(), rho_b=rng.normal(), q_b=rng.normal())
            r = rng.normal(size=32)
            task = "a" if rng.random() < 0.5 else "b"
            prob = ng.sigmoid(calibrate(col(r), params, task))
            assert np.array_equal(np.argsort(prob.values[:, 0]), np.argsort(r))

    def test_calibrate_values_matches_tensor_path(self, rng):
        params = CalibrationParams(rho_a=0.2, q_a=1.1)
        r = rng.normal(size=8)
        logit = calibrate(col(r), params, "a")
        np.testing.assert_array_equal(params.calibrate_values(r.reshape(-1, 1), "a"), logit.values)


class TestCalibrationLoss:
    def test_perfect_teacher_loss_near_zero(self):
        y = np.array([1, 0, 1, 0])
        logits = col(np.where(y == 1, 25.0, -25.0))
        loss = calibration_loss(y, y, logits, logits, CalibrationParams())
        assert loss.item() < 1e-8

    def test_no_gradient_reaches_model(self, rng):
        net = tiny_net()
        ids = rng.integers(0, 3, size=(6, 3))
        heads = net.forward(ids)
        y = rng.integers(0, 2, size=6)
        params = CalibrationParams()
        net.zero_grad()
        ng.backward(calibration_loss(y, 1 - y, heads["a_plus"], heads["b_plus"], params))
        for name, p in net.named_parameters():
            assert np.all(p.grad == 0.0), name
        assert any(np.abs(p.grad).sum() > 0 for p in params.params.values())

    def test_gradients_on_platt_parameters(self, rng):
        y_a = rng.integers(0, 2, size=12)
        y_b = rng.integers(0, 2, size=12)
        ra = col(rng.normal(size=12))
        rb = col(rng.normal(size=12))
        params = CalibrationParams(rho_a=0.3, q_a=-0.2, rho_b=-0.5, q_b=0.4)

        def rebuild():
            return calibration_loss(y_a, y_b, ra, rb, params)

        check_gradients(rebuild, params.params.values(), rng, n_entries=1)


class TestErrorCorrect:
    @pytest.mark.parametrize("y,r,m,expected", [
        (1, 2.5, 0.0, 2.5),   # confident and correct: untouched
        (1, -2.0, 0.5, 0.5),  # wrong positive: raised to the margin
        (0, 3.0, 1.0, -1.0),  # wrong negative: lowered to -margin
    ])
    def test_pinned_values(self, y, r, m, expected):
        assert error_correct([r], [y], m)[0, 0] == expected

    def test_idempotent_and_postconditions(self, rng):
        r = rng.normal(scale=4.0, size=(100_000, 1))
        y = rng.integers(0, 2, size=(100_000, 1))
        m = 0.75
        once = error_correct(r, y, m)
        np.testing.assert_array_equal(error_correct(once, y, m), once)
        assert np.all(once[y == 1] >= m)
        assert np.all(once[y == 0] <= -m)

    def test_margin_minus_20_is_identity_in_range(self, rng):
        r = rng.uniform(-10, 10, size=(500, 1))
        y = rng.integers(0, 2, size=(500, 1))
        np.testing.assert_array_equal(error_correct(r, y, -20.0), r)

    def test_margin_plus_20_saturates_to_hard_labels(self, rng):
        r = rng.uniform(-10, 10, size=(500, 1))
        y = rng.integers(0, 2, size=(500, 1))
        probs = ng.sigmoid_values(error_correct(r, y, 20.0))
        assert np.abs(probs - y).max() < 1e-8


class TestKdLoss:
    def test_equal_logits_give_binary_entropy_and_flat_gradient(self, rng):
        r = rng.normal(size=10)
        student = col(r, requires_grad=True)
        loss = kd_loss(col(r), student, temperature=1.0)
        p = 1 / (1 + np.exp(-r))
        entropy = -(p * np.log(p) + (1 - p) * np.log(1 - p)).mean()
        assert abs(loss.item() - entropy) < 1e-12
        ng.backward(loss)
        assert np.abs(student.grad).max() < 1e-15

    def test_flat_student_against_example_soft_labels(self):
        # teacher probabilities 0.9, 0.8, 0.2, 0.1 at unit temperature
        teacher = col(np.log([0.9 / 0.1, 0.8 / 0.2, 0.2 / 0.8, 0.1 / 0.9]))
        student = col(np.zeros(4), requires_grad=True)
        loss = kd_loss(teacher, student, temperature=1.0)
        assert abs(loss.item() - LN2) < 1e-12

    def test_teacher_tensor_receives_no_gradient(self, rng):
        teacher = col(rng.normal(size=8), requires_grad=True)
        student = col(rng.normal(size=8), requires_grad=True)
        ng.backward(kd_loss(teacher, student, temperature=2.0))
        assert np.all(teacher.grad == 0.0)
        assert np.abs(student.grad).sum() > 0

    def test_temperature_must_be_positive(self):
        with pytest.raises(ConfigError):
            kd_loss(col([0.0]), col([0.0]), temperature=0.0)

    def test_student_gradient_matches_finite_difference(self, rng):
        target = rng.normal(size=6)
        student = col(rng.normal(size=6), requires_grad=True)

        def rebuild():
            return kd_loss(col(target), student, temperature=2.5)

        check_gradients(rebuild, [student], rng, n_entries=6)


class TestStudentLoss:
    def test_alpha_zero_is_plain_ce(self, rng):
        y = rng.integers(0, 2, size=8)
        r = col(rng.normal(size=8))
        assert student_loss(y, r, None, 0.0).item() == ce_from_logits(y, r).item()

    def test_alpha_one_is_pure_distillation(self, rng):
        y = rng.integers(0, 2, size=8)
        r = col(rng.normal(size=8))
        kd = kd_loss(col(rng.normal(size=8)), r, 1.0)
        assert student_loss(y, r, kd, 1.0).item() == kd.item()

    def test_blend_arithmetic(self):
        # engineered CE=ln2 via y=1,r=0; kd passed as a constant scalar
        ce_val = student_loss([1], col([0.0]), Tensor.scalar(0.6), 0.5).item()
        assert abs(ce_val - 0.5 * (LN2 + 0.6)) < 1e-15


class TestHyperParams:
    def test_defaults_valid(self):
        HyperParams()

    @pytest.mark.parametrize("kwargs", [
        {"temperature": 0.0},
        {"alpha_a": 1.5},
        {"alpha_b": -0.1},
        {"beta1_a": -1.0},
        {"weight_decay": -1e-9},
    ])
    def test_ranges_enforced(self, kwargs):
        with pytest.raises(ConfigError):
            HyperParams(**kwargs)

    @pytest.mark.parametrize("name", ["temperature", "alpha_a", "beta1_b", "margin", "weight_a_plus",
                                      "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True, False, "1.0", None, [1.0]])
    def test_non_finite_rejected_by_name(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            HyperParams(**{name: value})

    def test_negative_margin_allowed(self):
        assert HyperParams(margin=-20.0).margin == -20.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-30, 30), min_size=1, max_size=16),
    st.integers(0, 2**31 - 1),
)
def test_every_loss_nonnegative_and_finite(logit_list, seed):
    rng = np.random.default_rng(seed)
    r = col(logit_list)
    n = len(logit_list)
    y = rng.integers(0, 2, size=n)
    other = col(rng.normal(size=n))
    values = [
        ce_from_logits(y, r).item(),
        bpr_loss(r, other).item(),
        kd_loss(other, r, 1.7).item(),
        soft_ce(rng.uniform(0, 1, size=n), r).item(),
        quadruplet_loss([(r, other)] * 3, 0.5, 2.0).item(),
    ]
    for v in values:
        assert np.isfinite(v) and v >= 0.0
