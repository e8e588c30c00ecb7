"""Ranking and calibration metrics: AUC, prevalence-weighted multi-class AUC,
log loss, and the 4-class ordering of label combinations per task.

All functions are pure and operate on plain numpy arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, UndefinedMetricError

PROB_EPS = 1e-12


def auc(scores, labels) -> float:
    """Area under the ROC curve for binary labels.

    Tied score pairs get 0.5 credit (the standard Mann-Whitney estimator).
    Uses a sort instead of pair enumeration, but sums the same integer pair
    counts, so it matches brute force exactly.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if s.shape != y.shape:
        raise ConfigError(f"auc: {s.shape[0]} scores vs {y.shape[0]} labels")
    pos = s[y == 1]
    negs = np.sort(s[y == 0])
    if pos.size == 0 or negs.size == 0:
        raise UndefinedMetricError("auc needs at least one positive and one negative")
    lo = np.searchsorted(negs, pos, side="left")
    wins = int(lo.sum())
    tied = int((np.searchsorted(negs, pos, side="right") - lo).sum())
    return (wins + 0.5 * tied) / (pos.size * negs.size)


def multi_auc(scores, classes, n_classes: int) -> float:
    """Multipartite ranking quality over ordered classes 0 < 1 < ... < c-1.

    Prevalence-weighted average of the one-vs-one AUCs: each class pair
    (j, k), j < k, contributes AUC(k positive, j negative) with weight
    (n_j + n_k) / N, normalized by the total weight of the evaluated pairs.
    Pairs touching an empty class are skipped. With two classes this reduces
    to plain AUC exactly (the single pair has weight 1).
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    c = np.asarray(classes, dtype=np.int64).ravel()
    if s.shape != c.shape:
        raise ConfigError(f"multi_auc: {s.shape[0]} scores vs {c.shape[0]} classes")
    if n_classes < 2:
        raise ConfigError(f"multi_auc: need at least 2 classes, got {n_classes}")
    if c.size and (c.min() < 0 or c.max() >= n_classes):
        raise ConfigError(f"multi_auc: class ids outside [0, {n_classes})")
    counts = np.bincount(c, minlength=n_classes)
    if (counts > 0).sum() < 2:
        raise UndefinedMetricError("multi_auc needs at least two nonempty classes")
    total = c.size
    acc = 0.0
    weight_sum = 0.0
    for j in range(n_classes):
        if counts[j] == 0:
            continue
        for k in range(j + 1, n_classes):
            if counts[k] == 0:
                continue
            mask = (c == j) | (c == k)
            pair_auc = auc(s[mask], (c[mask] == k).astype(np.int64))
            w = (counts[j] + counts[k]) / total
            acc += w * pair_auc
            weight_sum += w
    return float(acc / weight_sum)


def logloss(labels, probabilities) -> float:
    """Mean binary cross-entropy; probabilities clamped away from 0 and 1."""
    y = np.asarray(labels, dtype=np.float64).ravel()
    p = np.asarray(probabilities, dtype=np.float64).ravel()
    if y.shape != p.shape:
        raise ConfigError(f"logloss: {y.shape[0]} labels vs {p.shape[0]} probabilities")
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ConfigError("logloss: probabilities must lie in [0, 1]")
    p = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    return float(-(y * np.log(p) + (1.0 - y) * np.log1p(-p)).mean())


def class_of(y_a, y_b, task: str):
    """Map label pairs to the 4-class rank order of the given task.

    Task "a" orders (1,1) > (1,0) > (0,1) > (0,0) as classes 3..0; task "b"
    swaps the two middle combinations.
    """
    ya = np.asarray(y_a, dtype=np.int64)
    yb = np.asarray(y_b, dtype=np.int64)
    if task == "a":
        return 2 * ya + yb
    if task == "b":
        return 2 * yb + ya
    raise ConfigError(f"class_of: unknown task {task!r}")
