"""Objective terms: cross-entropy on logits, pairwise/quadruplet ranking
losses, Platt calibration of teacher logits, error correction, distillation,
and the blended student loss.

Sign conventions, once: the Platt map is an affine transform r_cal = P*r + Q
of the raw teacher logit with the slope parameterized as P = -exp(rho) so it
is always negative, and the calibrated probability is 1/(1 + exp(r_cal)),
which is therefore strictly increasing in r (rankings survive calibration
for any parameter values). Everything downstream of calibration (error
correction, distillation, log loss) works with the equivalent
sigmoid-convention logit -r_cal = exp(rho)*r - Q, i.e. the value whose
sigmoid is the calibrated probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numgrad as ng
from .errors import ConfigError, UsageError
from .numgrad import Tensor


@dataclass(frozen=True)
class HyperParams:
    """Loss hyper-parameters; ranges are checked on construction."""

    temperature: float = 1.0  # softens both sides of the distillation CE
    alpha_a: float = 0.5  # KD share of the task-a student loss, in [0, 1]
    alpha_b: float = 0.5
    beta1_a: float = 1.0  # weight of the within-positive ranking term, task a
    beta2_a: float = 1.0  # weight of the within-negative ranking term, task a
    beta1_b: float = 1.0
    beta2_b: float = 1.0
    margin: float = 1.0  # error-correction clamp threshold
    weight_a_plus: float = 1.0  # task weights in the combined model loss
    weight_b_plus: float = 1.0
    weight_a: float = 1.0
    weight_b: float = 1.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        for name in ("alpha_a", "alpha_b"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        for name in (
            "beta1_a", "beta2_a", "beta1_b", "beta2_b",
            "weight_a_plus", "weight_b_plus", "weight_a", "weight_b", "weight_decay",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")

    def beta(self, task: str) -> tuple[float, float]:
        return (self.beta1_a, self.beta2_a) if task == "a" else (self.beta1_b, self.beta2_b)

    def alpha(self, task: str) -> float:
        return self.alpha_a if task == "a" else self.alpha_b


class CalibrationParams:
    """Per-task Platt parameters (rho, q) with slope -exp(rho), all trainable."""

    def __init__(self, rho_a=0.0, q_a=0.0, rho_b=0.0, q_b=0.0):
        self.rho_a = Tensor.scalar(rho_a, requires_grad=True)
        self.q_a = Tensor.scalar(q_a, requires_grad=True)
        self.rho_b = Tensor.scalar(rho_b, requires_grad=True)
        self.q_b = Tensor.scalar(q_b, requires_grad=True)

    def pair(self, task: str) -> tuple[Tensor, Tensor]:
        if task == "a":
            return self.rho_a, self.q_a
        if task == "b":
            return self.rho_b, self.q_b
        raise ConfigError(f"unknown task {task!r}")

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [
            ("cal.rho_a", self.rho_a), ("cal.q_a", self.q_a),
            ("cal.rho_b", self.rho_b), ("cal.q_b", self.q_b),
        ]

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def zero_grad(self):
        for t in self.parameters():
            t.zero_grad()

    def calibrate_values(self, raw: np.ndarray, task: str) -> np.ndarray:
        """Sigmoid-convention calibrated logits from plain values (no tape)."""
        rho, q = self.pair(task)
        return np.exp(rho.item()) * np.asarray(raw, dtype=np.float64) - q.item()


def _as_column(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[1] != 1:
        raise UsageError(f"expected a column of values, got shape {arr.shape}")
    return arr


def _values_of(x) -> np.ndarray:
    return x.values if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def ce_from_logits(labels, logits: Tensor) -> Tensor:
    """Mean binary cross-entropy against 0/1 labels, in log-sigmoid form.

    Computed as mean(softplus(r) - y*r), which never evaluates log near 0.
    """
    y = Tensor(_as_column(labels))
    if y.shape != logits.shape:
        raise ConfigError(f"ce_from_logits: {y.shape[0]} labels vs logits of shape {logits.shape}")
    return ng.reduce_mean(ng.add(ng.softplus(logits), ng.neg(ng.mul(y, logits))))


def soft_ce_from_logits(target_probs, logits: Tensor) -> Tensor:
    """Mean cross-entropy of sigmoid(logits) against fixed soft targets."""
    p = _as_column(target_probs)
    if (p < 0).any() or (p > 1).any():
        raise ConfigError("soft targets must lie in [0, 1]")
    pos = ng.mul(Tensor(p), ng.softplus(ng.neg(logits)))
    negm = ng.mul(Tensor(1.0 - p), ng.softplus(logits))
    return ng.reduce_mean(ng.add(pos, negm))


def bpr_loss(pos_logits: Tensor, neg_logits: Tensor) -> Tensor:
    """Mean pairwise ranking loss -ln sigmoid(pos - neg)."""
    return ng.reduce_mean(ng.softplus(ng.neg(ng.add(pos_logits, ng.neg(neg_logits)))))


def quadruplet_loss(
    task: str,
    r_pp: Tensor, r_pn: Tensor, r_np: Tensor, r_nn: Tensor,
    r_pos: Tensor, r_neg: Tensor,
    beta1: float, beta2: float,
) -> Tensor:
    """Ranking loss of an augmented teacher task over the four label classes.

    Task "a" enforces (1,1) > (1,0) within its positives and (0,1) > (0,0)
    within its negatives; task "b" mirrors with (1,1) > (0,1) and
    (1,0) > (0,0). The third term is the task's ordinary bipartite pair
    drawn from the label unions. Each term is a batch mean.
    """
    if task == "a":
        first, second = (r_pp, r_pn), (r_np, r_nn)
    elif task == "b":
        first, second = (r_pp, r_np), (r_pn, r_nn)
    else:
        raise ConfigError(f"quadruplet_loss: unknown task {task!r}")
    loss = bpr_loss(r_pos, r_neg)
    loss = ng.add(loss, ng.scalar_scale(bpr_loss(*first), beta1))
    return ng.add(loss, ng.scalar_scale(bpr_loss(*second), beta2))


def calibrate(raw_logits: Tensor, params: CalibrationParams, task: str) -> tuple[Tensor, Tensor]:
    """Platt-scale raw teacher logits; returns (calibrated_logit, probability).

    The probability is 1/(1 + exp(P*r + Q)) with P = -exp(rho) < 0; the
    returned logit is its sigmoid-convention equivalent -(P*r + Q), so
    ``sigmoid(calibrated_logit) == probability`` and both are strictly
    increasing in the raw logit.
    """
    rho, q = params.pair(task)
    slope = ng.neg(ng.exp(rho))  # 1x1, always negative
    affine = ng.add(ng.matmul(raw_logits, slope), q)
    cal_logit = ng.neg(affine)
    return cal_logit, ng.sigmoid(cal_logit)


def calibration_loss(y_a, y_b, r_a_plus, r_b_plus, params: CalibrationParams) -> Tensor:
    """Cross-entropy of both calibrated teacher heads against the hard labels.

    Teacher logits are detached before calibration, so gradients reach only
    the Platt parameters.
    """
    loss = None
    for task, labels, logits in (("a", y_a, r_a_plus), ("b", y_b, r_b_plus)):
        raw = logits.detach() if isinstance(logits, Tensor) else Tensor(_as_column(logits))
        cal_logit, _ = calibrate(raw, params, task)
        term = ce_from_logits(labels, cal_logit)
        loss = term if loss is None else ng.add(loss, term)
    return loss


def error_correct(logits, labels, margin: float) -> np.ndarray:
    """Clamp teacher logits to agree with the hard labels at confidence sigmoid(margin).

    Positives are raised to at least ``margin``, negatives lowered to at most
    ``-margin``; already-confident predictions pass through unchanged. Pure
    value transform: no gradient flows here (the teacher side of the
    distillation loss is detached anyway).
    """
    x = _as_column(_values_of(logits))
    y = _as_column(labels)
    return np.where(y == 1, np.maximum(x, margin), np.minimum(x, -margin))


def kd_loss(teacher_logits, student_logits: Tensor, temperature: float) -> Tensor:
    """Distillation loss CE(sigmoid(r_T / tau), sigmoid(r_S / tau)).

    The teacher side is treated as a constant: values are taken (and any
    tape edge dropped), so the gradient w.r.t. teacher and calibration
    parameters is exactly zero.
    """
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    t = _as_column(_values_of(teacher_logits))
    targets = ng.sigmoid_values(t / temperature)
    return soft_ce_from_logits(targets, ng.scalar_scale(student_logits, 1.0 / temperature))


def student_loss(labels, student_logits: Tensor, kd: Tensor | None, alpha: float) -> Tensor:
    """Blend (1 - alpha) * CE(labels, sigmoid(r)) with alpha * kd."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    ce = ce_from_logits(labels, student_logits)
    if alpha == 0.0:
        return ce
    if kd is None:
        raise UsageError("student_loss: alpha > 0 requires a distillation term")
    return ng.add(ng.scalar_scale(ce, 1.0 - alpha), ng.scalar_scale(kd, alpha))
