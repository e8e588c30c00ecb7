"""Objective terms: cross-entropy on logits, pairwise/quadruplet ranking
losses, Platt calibration of teacher logits, error correction, distillation,
and the blended student loss.

Sign conventions, once: the Platt map takes a raw teacher logit r to the
calibrated logit exp(rho)*r - q, whose sigmoid is the calibrated
probability. The slope exp(rho) is always positive, so the calibrated
probability is strictly increasing in r and rankings survive calibration for
any parameter values. Error correction, distillation and log loss all read
that one logit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import numgrad as ng
from .errors import ConfigError, UsageError, require_finite
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
        require_finite(self, [f.name for f in fields(self)])
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
    """Per-task Platt parameters (rho, q) with slope exp(rho), all trainable."""

    def __init__(self, rho_a=0.0, q_a=0.0, rho_b=0.0, q_b=0.0):
        self.params = {f"cal.{name}": Tensor.scalar(value, requires_grad=True)
                       for name, value in (("rho_a", rho_a), ("q_a", q_a), ("rho_b", rho_b), ("q_b", q_b))}

    def pair(self, task: str) -> tuple[Tensor, Tensor]:
        if task not in ("a", "b"):
            raise ConfigError(f"unknown task {task!r}")
        return self.params[f"cal.rho_{task}"], self.params[f"cal.q_{task}"]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def calibrate_values(self, raw: np.ndarray, task: str) -> np.ndarray:
        """``calibrate`` on plain values, off the tape, with the same bits."""
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

    Computed as mean(softplus(r) + (-y)*r), which never evaluates log near 0,
    in one ``ce_mean`` tape node. A label other than 0 or 1, NaN included,
    raises ``ConfigError``.
    """
    return ng.ce_mean(logits, _as_column(labels))


def bpr_loss(pos_logits: Tensor, neg_logits: Tensor) -> Tensor:
    """Mean pairwise ranking loss -ln sigmoid(pos - neg), one ``bpr_mean`` tape node."""
    return ng.bpr_mean(pos_logits, neg_logits)


def quadruplet_loss(ranked, beta1: float, beta2: float) -> Tensor:
    """Ranking loss of an augmented teacher task over the four label classes.

    ``ranked`` holds three (higher, lower) logit pairs, those of a task's
    ``data.RANKED`` entry: its positive and negative union, then the two
    within-class pairs. Each term is a batch mean, and the first is added
    unscaled: loss = bpr(*ranked[0]) + beta1 * bpr(*ranked[1]) + beta2 * bpr(*ranked[2]).
    """
    return ng.weighted_sum(tuple(bpr_loss(hi, lo) for hi, lo in ranked), (1.0, beta1, beta2))


def calibrate(raw_logits: Tensor, params: CalibrationParams, task: str) -> Tensor:
    """Platt-scale raw teacher logits into the calibrated logit exp(rho)*r - q.

    Its sigmoid is the calibrated probability, strictly increasing in the raw
    logit.
    """
    rho, q = params.pair(task)
    return ng.linear(raw_logits, ng.exp(rho), ng.neg(q))


def calibration_loss(y_a, y_b, r_a_plus: Tensor, r_b_plus: Tensor, params: CalibrationParams) -> Tensor:
    """Cross-entropy of both calibrated teacher heads against the hard labels.

    Teacher logits are detached before calibration, so gradients reach only
    the Platt parameters.
    """
    return ng.add(ce_from_logits(y_a, calibrate(r_a_plus.detach(), params, "a")),
                  ce_from_logits(y_b, calibrate(r_b_plus.detach(), params, "b")))


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
    return ng.soft_ce_mean(student_logits, targets, 1.0 / temperature)


def student_loss(labels, student_logits: Tensor, kd: Tensor | None, alpha: float) -> Tensor:
    """Blend (1 - alpha) * CE(labels, sigmoid(r)) with alpha * kd, one ``weighted_sum`` node."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    ce = ce_from_logits(labels, student_logits)
    if alpha == 0.0:
        return ce
    if kd is None:
        raise UsageError("student_loss: alpha > 0 requires a distillation term")
    return ng.weighted_sum((ce, kd), (1.0 - alpha, alpha))
