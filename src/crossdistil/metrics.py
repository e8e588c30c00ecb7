"""Ranking and calibration metrics: AUC, prevalence-weighted multi-class AUC,
log loss, and the 4-class ordering of label combinations per task.

All functions are pure and operate on plain numpy arrays. ``auc``,
``multi_auc`` and ``task_aucs`` sort the scores once per call and read the
win and tie count of every class pair from that one sort, as exact
integers, so they equal brute-force pair enumeration bit for bit. A NaN
score makes any of them raise ``ConfigError``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, UndefinedMetricError

PROB_EPS = 1e-12
EXACT_FLOAT_ROWS = 2**26  # below this many rows, float64 pair counts stay exact (see _pair_counts)


def _pair_counts(metric: str, s: np.ndarray, c: np.ndarray, n_classes: int):
    """Exact pair counts of every ordered class pair, from one sort of the scores.

    ``s`` is nonempty and ``c`` holds each row's class in ``[0, n_classes)``.
    Returns two ``(n_classes, n_classes)`` arrays of integers: ``wins[k, j]``
    counts the (class-k row, class-j row) pairs where the class-k row scores
    strictly higher, ``ties[k, j]`` those where both score the same.

    Rows with equal scores form one tie group. ``table[k, g]`` counts the
    class-k rows of group ``g`` (groups in ascending score order), so
    ``ties = table @ table.T`` and ``wins = table @ cumsum(table).T - ties``.
    The counts are float64 integers, so the matmuls run in BLAS and sum
    exactly: every product and partial sum is at most n**2 < 2**52 for fewer
    than ``EXACT_FLOAT_ROWS`` rows. Larger inputs count in int64 instead.
    """
    order = np.argsort(s)
    ss = s[order]
    if np.isnan(ss[-1]):  # argsort puts NaN last
        raise ConfigError(f"{metric}: scores contain NaN")
    starts = np.empty(ss.size, dtype=bool)
    starts[0] = True
    np.not_equal(ss[1:], ss[:-1], out=starts[1:])
    del ss  # each row-sized temporary goes before the larger tables are built
    key = np.cumsum(starts)
    key -= 1  # each sorted row's tie group
    n_groups = int(key[-1]) + 1
    key += c[order] * n_groups
    del order
    table = np.bincount(key, minlength=n_classes * n_groups)
    del key
    table = table.reshape(n_classes, n_groups).astype(np.float64 if s.size < EXACT_FLOAT_ROWS else np.int64)
    ties = table @ table.T
    return table @ np.cumsum(table, axis=1).T - ties, ties


def _pair_auc(wins, ties, n_pos: int, n_neg: int) -> float:
    """Mann-Whitney AUC from integer pair counts: ties get half credit."""
    return (int(wins) + 0.5 * int(ties)) / (n_pos * n_neg)


def auc(scores, labels) -> float:
    """Area under the ROC curve for binary labels.

    Rows whose label is neither 0 nor 1 are ignored. Tied score pairs get
    0.5 credit (the standard Mann-Whitney estimator). One sort of the scores
    gives the exact integer pair counts (see ``_pair_counts``), so it matches
    brute-force pair enumeration exactly. A NaN score raises ``ConfigError``;
    +-inf scores rank as usual.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if s.shape != y.shape:
        raise ConfigError(f"auc: {s.shape[0]} scores vs {y.shape[0]} labels")
    pos = y == 1
    keep = pos | (y == 0)
    if not keep.all():
        s, pos = s[keep], pos[keep]
    n_pos = int(np.count_nonzero(pos))
    n_neg = pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("auc needs at least one positive and one negative")
    wins, ties = _pair_counts("auc", s, pos, 2)
    return _pair_auc(wins[1, 0], ties[1, 0], n_pos, n_neg)


def _check_classes(metric: str, scores, classes, n_classes: int):
    """Scores and class ids as flat arrays, and the row count of each class."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    c = np.asarray(classes, dtype=np.int64).ravel()
    if s.shape != c.shape:
        raise ConfigError(f"{metric}: {s.shape[0]} scores vs {c.shape[0]} classes")
    if n_classes < 2:
        raise ConfigError(f"{metric}: need at least 2 classes, got {n_classes}")
    if c.size and (c.min() < 0 or c.max() >= n_classes):
        raise ConfigError(f"{metric}: class ids outside [0, {n_classes})")
    return s, c, np.bincount(c, minlength=n_classes)


def _weighted_pair_aucs(wins, ties, counts) -> float:
    """``multi_auc`` from the pair counts and class sizes."""
    n_classes = len(counts)
    total = counts.sum()
    acc = 0.0
    weight_sum = 0.0
    for j in range(n_classes):
        if counts[j] == 0:
            continue
        for k in range(j + 1, n_classes):
            if counts[k] == 0:
                continue
            pair_auc = _pair_auc(wins[k, j], ties[k, j], int(counts[k]), int(counts[j]))
            w = (counts[j] + counts[k]) / total
            acc += w * pair_auc
            weight_sum += w
    return float(acc / weight_sum)


def multi_auc(scores, classes, n_classes: int) -> float:
    """Multipartite ranking quality over ordered classes 0 < 1 < ... < c-1.

    Prevalence-weighted average of the one-vs-one AUCs: each class pair
    (j, k), j < k, contributes AUC(k positive, j negative) with weight
    (n_j + n_k) / N, normalized by the total weight of the evaluated pairs.
    Pairs touching an empty class are skipped. With two classes this reduces
    to plain AUC exactly (the single pair has weight 1). Every pair AUC is
    read from one count table (``_pair_counts``); a NaN score raises
    ``ConfigError``.
    """
    s, c, counts = _check_classes("multi_auc", scores, classes, n_classes)
    if (counts > 0).sum() < 2:
        raise UndefinedMetricError("multi_auc needs at least two nonempty classes")
    return _weighted_pair_aucs(*_pair_counts("multi_auc", s, c, n_classes), counts)


def task_aucs(scores, classes) -> tuple[float, float]:
    """``auc`` and ``multi_auc`` of one task's scores from one count table.

    ``classes`` are ``class_of``'s four classes, whose upper two are the
    task's positives. So the binary pair counts are sums of the 4-class
    counts of (class 2 or 3, class 0 or 1) pairs. They are exact integers,
    so the pair equals ``(auc(scores, classes >= 2), multi_auc(scores,
    classes, 4))`` bit for bit.
    """
    s, c, counts = _check_classes("task_aucs", scores, classes, 4)
    n_pos, n_neg = int(counts[2:].sum()), int(counts[:2].sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("auc needs at least one positive and one negative")
    wins, ties = _pair_counts("task_aucs", s, c, 4)
    return _pair_auc(wins[2:, :2].sum(), ties[2:, :2].sum(), n_pos, n_neg), _weighted_pair_aucs(wins, ties, counts)


def logloss(labels, probabilities) -> float:
    """Mean binary cross-entropy; probabilities clamped away from 0 and 1, NaN
    and empty input rejected."""
    y = np.asarray(labels, dtype=np.float64).ravel()
    p = np.asarray(probabilities, dtype=np.float64).ravel()
    if y.shape != p.shape:
        raise ConfigError(f"logloss: {y.shape[0]} labels vs {p.shape[0]} probabilities")
    if not p.size:
        raise ConfigError("logloss: no samples to score")
    if not (p.min() >= 0.0 and p.max() <= 1.0):  # False for NaN, which min and max propagate
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
