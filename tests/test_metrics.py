"""Metric tests: oracle agreement against O(N^2) enumeration, invariances,
and the label-combination class ordering."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdistil import metrics
from crossdistil.data import RANKED, Dataset, partition
from crossdistil.errors import ConfigError, UndefinedMetricError
from crossdistil.metrics import auc, class_of, logloss, multi_auc


def brute_force_auc(scores, labels):
    """Literal pair enumeration of the AUC estimator."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (pos.size * neg.size)


def brute_force_multi_auc(scores, classes, n_classes):
    """Literal double sum over class pairs with prevalence weights."""
    s = np.asarray(scores, dtype=np.float64)
    c = np.asarray(classes)
    counts = np.bincount(c, minlength=n_classes)
    acc = 0.0
    wsum = 0.0
    for j in range(n_classes):
        for k in range(j + 1, n_classes):
            if counts[j] == 0 or counts[k] == 0:
                continue
            mask = (c == j) | (c == k)
            pair = brute_force_auc(s[mask], (c[mask] == k).astype(int))
            w = (counts[j] + counts[k]) / c.size
            acc += w * pair
            wsum += w
    return acc / wsum


# up to 300 rows drawn from at most 5 distinct scores (+-0.0, +-inf and
# subnormals included), so most rows tie with others
tied_scores = st.lists(st.floats(allow_nan=False), min_size=1, max_size=5, unique=True)


def tied_rows(labels):
    """Score and label lists of equal length; the scores come from one small pool."""
    return tied_scores.flatmap(lambda pool: st.lists(st.tuples(st.sampled_from(pool), labels), max_size=300)).map(
        lambda rows: ([r[0] for r in rows], [r[1] for r in rows]))


class TestExact:
    """The sort-based metrics equal the pair-enumeration oracles with ``==``."""

    @settings(deadline=None)  # the O(N^2) oracles can take longer than the default deadline on a busy host
    @given(tied_rows(st.integers(-1, 2)))  # labels -1 and 2 are ignored
    def test_auc_equals_brute_force(self, rows):
        scores, labels = rows
        if not ({0, 1} <= set(labels)):
            with pytest.raises(UndefinedMetricError):
                auc(scores, labels)
        else:
            assert auc(scores, labels) == brute_force_auc(scores, labels)

    @settings(deadline=None)
    @given(st.integers(2, 5).flatmap(lambda c: st.tuples(st.just(c), tied_rows(st.integers(0, c - 1)))))
    def test_multi_auc_equals_brute_force(self, drawn):
        n_classes, (scores, classes) = drawn
        if len(set(classes)) < 2:
            with pytest.raises(UndefinedMetricError):
                multi_auc(scores, classes, n_classes)
        else:
            assert multi_auc(scores, classes, n_classes) == brute_force_multi_auc(scores, classes, n_classes)

    @settings(deadline=None)
    @given(tied_rows(st.tuples(st.integers(0, 1), st.integers(0, 1))), st.sampled_from(["a", "b"]))
    def test_task_aucs_equal_auc_and_multi_auc(self, rows, task):
        scores, pairs = rows
        y_a, y_b = (np.array([p[i] for p in pairs], dtype=np.int64) for i in (0, 1))
        classes = class_of(y_a, y_b, task)
        y = y_a if task == "a" else y_b
        if not ({0, 1} <= set(y.tolist())):
            with pytest.raises(UndefinedMetricError, match="^auc "):
                metrics.task_aucs(scores, classes)
        else:
            assert metrics.task_aucs(scores, classes) == (auc(scores, y), multi_auc(scores, classes, 4))

    def test_int64_counts_equal_float64_counts(self, monkeypatch, rng):
        scores = rng.choice([-np.inf, -0.0, 0.0, 0.5, np.inf], size=300)
        classes = rng.integers(0, 4, size=300)
        labels = classes % 2
        expected = (auc(scores, labels), multi_auc(scores, classes, 4))
        monkeypatch.setattr(metrics, "EXACT_FLOAT_ROWS", 0)
        assert (auc(scores, labels), multi_auc(scores, classes, 4)) == expected
        assert metrics.task_aucs(scores, classes) == (auc(scores, classes >= 2), expected[1])
        assert expected == (brute_force_auc(scores, labels), brute_force_multi_auc(scores, classes, 4))


class TestNonFiniteScores:
    def test_auc_rejects_nan(self):
        with pytest.raises(ConfigError, match="^auc: .*NaN"):
            auc([np.nan, 0.1, 0.5, 0.2], [1, 0, 1, 0])

    def test_multi_auc_rejects_nan(self):
        with pytest.raises(ConfigError, match="^multi_auc: .*NaN"):
            multi_auc([0.3, 0.1, -np.nan, 0.2], [3, 0, 1, 2], 4)

    def test_auc_ignores_nan_on_a_row_it_ignores(self):
        assert auc([np.nan, 0.1, 0.5], [2, 0, 1]) == 1.0

    def test_infinite_scores_rank(self):
        scores = [np.inf, -np.inf, 1.0, np.inf, -np.inf]
        assert auc(scores, [1, 0, 0, 0, 1]) == brute_force_auc(scores, [1, 0, 0, 0, 1]) == 3 / 6
        assert multi_auc(scores, [2, 0, 1, 2, 1], 3) == brute_force_multi_auc(scores, [2, 0, 1, 2, 1], 3)


class TestAuc:
    def test_three_point_example(self):
        assert auc([0.9, 0.8, 0.2], [1, 0, 1]) == 0.5

    def test_perfect_separation(self, rng):
        scores = np.concatenate([rng.uniform(0.6, 1.0, 50), rng.uniform(0.0, 0.4, 50)])
        labels = np.concatenate([np.ones(50), np.zeros(50)])
        assert auc(scores, labels) == 1.0

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 200))
            scores = rng.choice([0.1, 0.25, 0.5, 0.8], size=n)  # force some ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            assert abs(auc(scores, labels) - brute_force_auc(scores, labels)) < 1e-12

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc([0.1, 0.9], [1, 1])

    def test_monotone_transform_invariance(self, rng):
        scores = rng.normal(size=100)
        labels = rng.integers(0, 2, size=100)
        labels[:2] = [0, 1]
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == base
        assert auc(3.0 * scores + 7.0, labels) == base

    def test_score_negation_complements(self, rng):
        scores = rng.normal(size=80)  # continuous, so no ties
        labels = rng.integers(0, 2, size=80)
        labels[:2] = [0, 1]
        assert abs(auc(scores, labels) + auc(-scores, labels) - 1.0) < 1e-12


class TestMultiAuc:
    def test_two_classes_equals_auc_exactly(self, rng):
        scores = rng.normal(size=60)
        labels = rng.integers(0, 2, size=60)
        labels[:2] = [0, 1]
        assert multi_auc(scores, labels, 2) == auc(scores, labels)

    def test_perfect_multipartite_ranking(self, rng):
        classes = rng.integers(0, 4, size=200)
        assert multi_auc(classes.astype(float), classes, 4) == 1.0

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            n = int(rng.integers(10, 200))
            c = int(rng.choice([2, 3, 4]))
            scores = rng.normal(size=n)
            classes = rng.integers(0, c, size=n)
            if (np.bincount(classes, minlength=c) > 0).sum() < 2:
                continue
            fast = multi_auc(scores, classes, c)
            slow = brute_force_multi_auc(scores, classes, c)
            assert abs(fast - slow) < 1e-12

    def test_two_populated_classes_reduce_to_plain_auc(self, rng):
        # nominal c=4 but only classes 1 and 3 occur
        scores = rng.normal(size=50)
        classes = rng.choice([1, 3], size=50)
        classes[:2] = [1, 3]
        expected = auc(scores, (classes == 3).astype(int))
        assert multi_auc(scores, classes, 4) == expected

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            multi_auc([0.1, 0.2], [2, 2], 4)

    def test_monotone_transform_invariance(self, rng):
        scores = rng.normal(size=120)
        classes = rng.integers(0, 4, size=120)
        base = multi_auc(scores, classes, 4)
        assert multi_auc(np.exp(scores), classes, 4) == base


class TestLogloss:
    def test_confident_correct_is_near_zero(self):
        assert logloss([1], [1 - 1e-12]) < 1e-11

    def test_uninformative_is_ln2(self):
        assert abs(logloss([1, 0], [0.5, 0.5]) - np.log(2.0)) < 1e-15

    def test_matches_direct_summation(self, rng):
        y = rng.integers(0, 2, size=300)
        p = rng.uniform(0.01, 0.99, size=300)
        direct = -np.mean([yi * np.log(pi) + (1 - yi) * np.log(1 - pi) for yi, pi in zip(y, p)])
        assert abs(logloss(y, p) - direct) < 1e-12

    def test_extreme_probabilities_clamped(self):
        assert np.isfinite(logloss([1, 0], [0.0, 1.0]))

    @pytest.mark.parametrize("probabilities", [[np.nan, 0.5], [0.5, -np.nan], [-0.1, 0.5], [0.5, 1.5]])
    def test_rejects_nan_and_out_of_range(self, probabilities):
        with pytest.raises(ConfigError, match="^logloss: "):
            logloss([1, 0], probabilities)

    def test_rejects_empty_input(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="^logloss: "):
                logloss([], [])


class TestClassOf:
    @pytest.mark.parametrize("ya,yb,task,expected", [
        (1, 1, "a", 3), (1, 0, "a", 2), (0, 1, "a", 1), (0, 0, "a", 0),
        (1, 1, "b", 3), (0, 1, "b", 2), (1, 0, "b", 1), (0, 0, "b", 0),
    ])
    def test_ordering(self, ya, yb, task, expected):
        assert class_of(ya, yb, task) == expected

    def test_vectorized(self):
        ya = np.array([1, 1, 0, 0])
        yb = np.array([1, 0, 1, 0])
        np.testing.assert_array_equal(class_of(ya, yb, "a"), [3, 2, 1, 0])
        np.testing.assert_array_equal(class_of(ya, yb, "b"), [3, 1, 2, 0])

    @pytest.mark.parametrize("task", ["a", "b"])
    def test_ranks_every_pair_the_teacher_is_trained_on(self, task):
        """Evaluation orders the four label pairs as the task's teacher is trained
        to: every row of each higher subset of ``RANKED[task]`` gets a higher
        class than every row of its lower subset."""
        ya, yb = np.array([1, 1, 0, 0]), np.array([1, 0, 1, 0])
        part = partition(Dataset(("x",), (1,), np.zeros((4, 1), dtype=np.int64), ya, yb))
        classes = class_of(ya, yb, task)
        for hi, lo in RANKED[task]:
            assert classes[part[hi]].min() > classes[part[lo]].max(), (hi, lo)
