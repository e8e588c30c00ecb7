"""Dataset ingestion, partitioning, bootstrap sampling, the synthetic
generator, and label corruption."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_traced_bytes
from crossdistil import data
from crossdistil.data import (
    PAIRS,
    QUADS,
    Dataset,
    SynthConfig,
    corrupt_labels,
    generate_synthetic,
    load_csv,
    partition,
    sample,
    save_csv,
    split_by_column,
    split_dataset,
)
from crossdistil.errors import ConfigError, DataError, DegenerateLabels
from crossdistil.numgrad import sigmoid_values


def make_dataset(labels, n_fields=2, vocab=7, seed=0):
    """Dataset with the given (y_a, y_b) rows and random feature ids."""
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    ids = rng.integers(0, vocab, size=(labels.shape[0], n_fields))
    names = tuple(f"f{i}" for i in range(n_fields))
    return Dataset(names, (vocab,) * n_fields, ids, labels[:, 0], labels[:, 1])


def assert_disjoint_cover(ds, part):
    subsets = [part[name] for name in QUADS]
    merged = np.concatenate(subsets)
    assert merged.size == len(ds)
    assert np.array_equal(np.sort(merged), np.arange(len(ds)))


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_four_row_file(self, tmp_path):
        ds = load_csv(self.write(
            tmp_path, "f_u,f_i,label_a,label_b\n0,1,1,1\n1,2,1,0\n2,0,0,1\n0,0,0,0\n"))
        assert len(ds) == 4
        assert ds.field_names == ("u", "i")
        assert ds.vocab_sizes == (3, 3)
        np.testing.assert_array_equal(ds.y_a, [1, 1, 0, 0])
        np.testing.assert_array_equal(ds.y_b, [1, 0, 1, 0])

    def test_label_out_of_domain_names_line(self, tmp_path):
        path = self.write(tmp_path, "f_u,label_a,label_b\n0,1,1\n1,2,0\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path)

    def test_header_only_file_loads_empty(self, tmp_path):
        ds = load_csv(self.write(tmp_path, "f_u,f_i,label_a,label_b\n"))
        assert len(ds) == 0
        assert ds.vocab_sizes == (1, 1)

    def test_unknown_column_rejected(self, tmp_path):
        path = self.write(tmp_path, "f_u,weight,label_a,label_b\n0,1.5,1,1\n")
        with pytest.raises(DataError, match="unknown column 'weight'"):
            load_csv(path)

    def test_repeated_column_rejected(self, tmp_path):
        path = self.write(tmp_path, "f_u,label_a,f_i,label_a,label_b\n0,1,0,0,1\n")
        with pytest.raises(DataError, match=r"repeated column names \['label_a'\]"):
            load_csv(path)

    def test_short_row_names_line(self, tmp_path):
        path = self.write(tmp_path, "f_u,label_a,label_b\n0,1\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path)

    def test_missing_labels_rejected(self, tmp_path):
        with pytest.raises(DataError, match="label_a and label_b"):
            load_csv(self.write(tmp_path, "f_u,f_i\n0,1\n"))

    def test_split_column_roundtrip(self, tmp_path):
        text = "f_u,label_a,label_b,split\n0,1,0,train\n1,0,1,valid\n2,1,1,test\n"
        ds = load_csv(self.write(tmp_path, text))
        tr, va, te = split_by_column(ds)
        assert (len(tr), len(va), len(te)) == (1, 1, 1)
        out = tmp_path / "round.csv"
        save_csv(ds, out)
        assert out.read_text() == text

    def test_save_load_roundtrip(self, tmp_path, rng):
        ds = make_dataset(rng.integers(0, 2, size=(50, 2)))
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.field_ids, ds.field_ids)
        np.testing.assert_array_equal(back.y_a, ds.y_a)
        np.testing.assert_array_equal(back.y_b, ds.y_b)


class TestPartition:
    def test_one_of_each(self):
        ds = make_dataset([(1, 1), (1, 0), (0, 1), (0, 0)])
        part = partition(ds)
        sizes = {name: part[name].size for name in QUADS}
        assert sizes == {"pos_pos": 1, "pos_neg": 1, "neg_pos": 1, "neg_neg": 1}
        np.testing.assert_array_equal(np.sort(part["pos_any"]), [0, 1])
        np.testing.assert_array_equal(np.sort(part["any_neg"]), [1, 3])
        assert_disjoint_cover(ds, part)

    def test_all_negative(self):
        ds = make_dataset([(0, 0)] * 5)
        part = partition(ds)
        assert part["neg_neg"].size == 5
        assert part["pos_pos"].size == part["pos_neg"].size == part["neg_pos"].size == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=200))
    def test_disjoint_cover_property(self, labels):
        ds = make_dataset(labels)
        part = partition(ds)
        assert_disjoint_cover(ds, part)
        np.testing.assert_array_equal(
            np.sort(part["pos_any"]), np.sort(np.concatenate([part["pos_pos"], part["pos_neg"]])))
        np.testing.assert_array_equal(
            np.sort(part["any_neg"]), np.sort(np.concatenate([part["neg_neg"], part["pos_neg"]])))


class TestSamplers:
    def test_singleton_subsets_forced(self, rng):
        part = partition(make_dataset([(1, 1), (1, 0), (0, 1), (0, 0)]))
        quads = sample(part, QUADS, 5, rng)
        assert set(quads["pos_pos"]) == {0}
        assert set(quads["neg_neg"]) == {3}

    def test_empty_subset_names_it(self, rng):
        part = partition(make_dataset([(1, 0), (0, 1), (0, 0)]))
        with pytest.raises(DegenerateLabels, match="pos_pos"):
            sample(part, QUADS, 3, rng)

    def test_pair_sampler_uses_unions(self, rng):
        ds = make_dataset([(1, 1), (1, 0), (0, 1), (0, 0)])
        part = partition(ds)
        pairs = sample(part, PAIRS["b"], 64, rng)
        assert set(pairs["any_pos"]) <= {0, 2}
        assert set(pairs["any_neg"]) <= {1, 3}

    def test_pair_sampler_empty_union(self, rng):
        part = partition(make_dataset([(0, 1), (0, 0)]))
        with pytest.raises(DegenerateLabels, match="pos_any"):
            sample(part, PAIRS["a"], 3, rng)

    @staticmethod
    def full_partition(n_pos_pos):
        labels = [(1, 1)] * n_pos_pos + [(1, 0), (0, 1), (0, 0)]
        return partition(make_dataset(labels))

    def test_bootstrap_frequencies_uniform(self):
        # 100 members, 1e5 draws: each frequency within 0.4% absolute of 1%
        part = self.full_partition(100)
        rng = np.random.default_rng(7)
        draws = sample(part, QUADS, 100_000, rng)["pos_pos"]
        freq = np.bincount(draws, minlength=100)[:100] / draws.size
        assert np.abs(freq - 0.01).max() < 0.004

    def test_pair_frequencies_uniform(self):
        part = self.full_partition(99)  # pos_any then has 100 members
        rng = np.random.default_rng(8)
        draws = sample(part, PAIRS["a"], 100_000, rng)["pos_any"]
        freq = np.bincount(draws, minlength=100)[part["pos_any"]] / draws.size
        assert np.abs(freq - 0.01).max() < 0.004

    def test_sampling_reproducible(self):
        part = self.full_partition(50)
        a = sample(part, QUADS, 32, np.random.default_rng(3))
        b = sample(part, QUADS, 32, np.random.default_rng(3))
        np.testing.assert_array_equal(a["pos_pos"], b["pos_pos"])
        np.testing.assert_array_equal(a["neg_neg"], b["neg_neg"])


class TestSplitDataset:
    def test_fractions_disjoint_and_stable(self, rng):
        ds = make_dataset(rng.integers(0, 2, size=(100, 2)))
        tr, va, te = split_dataset(ds, (0.8, 0.1, 0.1), seed=5)
        assert (len(tr), len(va), len(te)) == (80, 10, 10)
        tr2, _, _ = split_dataset(ds, (0.8, 0.1, 0.1), seed=5)
        np.testing.assert_array_equal(tr.field_ids, tr2.field_ids)

    def test_bad_fractions(self, rng):
        ds = make_dataset(rng.integers(0, 2, size=(10, 2)))
        with pytest.raises(ConfigError):
            split_dataset(ds, (0.8, 0.3, 0.1), seed=0)


class TestSynthetic:
    def test_rates_hit_target(self):
        cfg = SynthConfig(n_samples=100_000, rate_a=0.10, rate_b=0.4, rho=0.5)
        ds, _ = generate_synthetic(cfg, np.random.default_rng(11))
        assert 0.095 <= ds.y_a.mean() <= 0.105
        assert 0.395 <= ds.y_b.mean() <= 0.405

    def test_rho_zero_utilities_uncorrelated(self):
        cfg = SynthConfig(n_samples=100_000, rho=0.0)
        _, utils = generate_synthetic(cfg, np.random.default_rng(2))
        corr = np.corrcoef(utils[:, 0], utils[:, 1])[0, 1]
        assert abs(corr) < 0.02

    def test_rho_one_identical_ranking(self):
        cfg = SynthConfig(n_samples=5_000, rho=1.0)
        _, utils = generate_synthetic(cfg, np.random.default_rng(3))
        np.testing.assert_array_equal(np.argsort(utils[:, 0]), np.argsort(utils[:, 1]))

    def test_rho_matches_utility_correlation(self):
        cfg = SynthConfig(n_samples=100_000, rho=0.7)
        _, utils = generate_synthetic(cfg, np.random.default_rng(4))
        corr = np.corrcoef(utils[:, 0], utils[:, 1])[0, 1]
        assert abs(corr - 0.7) < 0.02

    def test_schema_matches_config(self):
        cfg = SynthConfig(n_users=10, n_items=9, n_context_fields=2, context_vocab=4, n_samples=100)
        ds, utils = generate_synthetic(cfg, np.random.default_rng(5))
        assert ds.field_names == ("user", "item", "ctx0", "ctx1")
        assert ds.vocab_sizes == (10, 9, 4, 4)
        assert utils.shape == (100, 2)

    def test_generation_peak_is_under_2_8_times_its_output(self):
        """An eval_ckpt-shaped config at half its rows. Full (N, d) gathers and an
        int64 copy of the stacked ids peak near 3.14 times the output bytes;
        row blocks bring that to 2.56."""
        cfg = SynthConfig(n_users=20_000, n_items=20_000, n_context_fields=8, n_samples=2**17)
        out = []
        peak = peak_traced_bytes(lambda: out.append(generate_synthetic(cfg, np.random.default_rng(1))))
        (ds, utils), = out
        output_bytes = ds.field_ids.nbytes + ds.y_a.nbytes + ds.y_b.nbytes + utils.nbytes
        assert peak < 2.8 * output_bytes

    @pytest.mark.parametrize("scale", [100.0, 1000.0])
    def test_a_rate_that_no_bias_in_range_reaches_is_rejected(self, scale):
        """So wide a spread of utilities puts more than 30% of the rows above
        logit 40, so even the lowest bias the bisection tries overshoots."""
        cfg = SynthConfig(n_users=20, n_items=20, n_samples=500, utility_scale=scale)
        with pytest.raises(ConfigError, match=r"^positive rate 0\.3 unreachable for this utility distribution$"):
            generate_synthetic(cfg, np.random.default_rng(0))

    def test_one_row_has_zero_spread_and_its_utilities_are_the_biases(self):
        """One row's utilities have no spread to standardize, so both become 0
        and each task's utility is its fitted bias, the logit of its rate."""
        ds, utils = generate_synthetic(SynthConfig(n_users=3, n_items=3, n_samples=1), np.random.default_rng(0))
        assert len(ds) == 1 and utils.shape == (1, 2)
        for u, rate in zip(utils[0], (0.3, 0.25)):
            assert abs(1.0 / (1.0 + np.exp(-u)) - rate) < 5e-5  # the bisection's tolerance on the rate
            assert abs(u - np.log(rate / (1.0 - rate))) < 1e-3

    def test_bad_rho_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(rho=1.5)

    @pytest.mark.parametrize("name", ["rho", "rate_a", "rate_b"])
    @pytest.mark.parametrize("value", [True, "0.5", None, float("nan"), float("inf")])
    def test_non_finite_or_non_number_rejected_by_name(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            SynthConfig(**{name: value})


def full_bisection(z, target):
    """The bias bisection with a full-length exact pass at every test, the
    formula of ``unblocked_synthetic.fit_bias`` in test_golden.py, plus the
    generator's check that a bias in [-40, 40] can reach the target."""
    lo, hi = -40.0, 40.0
    if sigmoid_values(z + lo).mean() > target or sigmoid_values(z + hi).mean() < target:
        raise ConfigError(f"positive rate {target} unreachable for this utility distribution")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rate = sigmoid_values(z + mid).mean()
        if abs(rate - target) < 5e-5:
            return mid
        lo, hi = (mid, hi) if rate < target else (lo, mid)
    raise AssertionError("bisection did not converge")


def assert_fits_like_full_bisection(z, target):
    """``_fit_bias`` returns the full bisection's float bit for bit, or raises its exact error."""
    try:
        want = full_bisection(z, target)
    except ConfigError as e:
        with pytest.raises(ConfigError, match=f"^{re.escape(str(e))}$"):
            data._fit_bias(z, target)
        return
    got = data._fit_bias(z, target)
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


class TestFitBias:
    """The binned rate bounds only skip exact passes: every decision, and so the bias, is the full bisection's."""

    @pytest.mark.parametrize("value", [0.0, 0.7, -3.25, 1e-300])
    def test_constant_z_has_zero_width(self, value):
        assert_fits_like_full_bisection(np.full(1000, value), 0.3)

    @pytest.mark.parametrize("outlier", [8.0, 500.0, -1e6])
    def test_one_outlier_beside_a_tight_cluster(self, rng, outlier):
        cluster = 1.0 + 1e-6 * rng.normal(size=999)
        assert_fits_like_full_bisection(np.append(cluster, outlier), 0.3)

    @pytest.mark.parametrize("scale", [1e-310, 1e3, 1e12, 1e300, 1e308])
    @pytest.mark.parametrize("target", [0.3, 0.5, 0.5000001])
    def test_an_extreme_utility_scale(self, rng, scale, target):
        """At 1e-310 the bin width is subnormal; at 1e308 some utilities
        overflow to +-inf, which leaves every pass exact."""
        with np.errstate(over="ignore"):
            z = scale * rng.normal(size=2000)
        assert_fits_like_full_bisection(z, target)

    @pytest.mark.parametrize("target", [1e-3, 0.01, 0.99, 0.999])
    def test_targets_near_0_and_1(self, rng, target):
        assert_fits_like_full_bisection(2.0 * rng.normal(size=20_000), target)

    @pytest.mark.parametrize("target", [0.3, 0.5, 0.7])
    def test_a_root_inside_one_bin(self, rng, target):
        """Two outliers stretch the bins to about 5e-3 wide, and all the other
        rows sit within 1e-5 of 0, inside one bin (0 is 0.86 of a width past
        an edge), so near the root the bounds cannot decide."""
        z = np.concatenate([[-40.0, 41.0], 1e-6 * rng.normal(size=5000)])
        assert_fits_like_full_bisection(z, target)

    @pytest.mark.parametrize("n", [1, data._BLOCK_ROWS - 1, data._BLOCK_ROWS + 1])
    def test_sizes_around_the_row_block(self, rng, n):
        z = 2.0 * rng.normal(size=n)
        for target in (0.3, 0.25):
            assert_fits_like_full_bisection(z, target)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_unreachable_rate_on_either_side(self, rng, sign):
        """Utilities far above 40 overshoot at the lowest bias, far below -40 undershoot at the highest."""
        z = sign * (100.0 + np.abs(rng.normal(size=500)))
        with pytest.raises(ConfigError, match=r"^positive rate 0\.3 unreachable for this utility distribution$"):
            data._fit_bias(z, 0.3)
        assert_fits_like_full_bisection(z, 0.3)

    def test_most_steps_take_no_exact_pass(self, rng, monkeypatch):
        """The full bisection hands the sigmoid about 17 times z's rows; the bounds leave at most 5."""
        z = 2.0 * rng.normal(size=50_000)
        for target in (0.3, 0.25):
            seen = []
            monkeypatch.setattr(data, "_sigmoid", lambda x: seen.append(np.size(x)) or sigmoid_values(x))
            got = data._fit_bias(z, target)
            monkeypatch.undo()
            assert sum(seen) <= 5 * z.size
            assert got == full_bisection(z, target)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["normal", "ties", "heavy"]), st.integers(1, 3000), st.floats(0.05, 20.0),
           st.floats(0.01, 0.99), st.integers(0, 2**32 - 1))
    def test_matches_the_full_bisection(self, kind, n, scale, target, seed):
        rng = np.random.default_rng(seed)
        draw = {"normal": lambda: rng.normal(size=n), "ties": lambda: rng.integers(-3, 4, size=n) / 2.0,
                "heavy": lambda: rng.standard_t(1.5, size=n)}[kind]
        assert_fits_like_full_bisection(scale * draw(), target)


class TestCorruptLabels:
    def test_ratio_zero_is_identity(self, rng):
        ds = make_dataset(np.column_stack([np.ones(10, dtype=int), [1, 1, 0, 0] * 2 + [1, 0]]))
        out = corrupt_labels(ds, "b", 0.0, rng)
        np.testing.assert_array_equal(out.y_b, ds.y_b)
        np.testing.assert_array_equal(out.y_a, ds.y_a)

    def test_ratio_one_swaps_everything(self, rng):
        ds = make_dataset([(1, 1), (0, 1), (1, 0), (0, 0)])
        out = corrupt_labels(ds, "b", 1.0, rng)
        assert out.y_b.sum() == 2
        assert (out.y_b != ds.y_b).sum() == 4  # both positives and both negatives flipped
        np.testing.assert_array_equal(out.y_a, ds.y_a)

    def test_counts_exact_at_half(self, rng):
        y_b = np.zeros(3000, dtype=int)
        y_b[:1000] = 1
        ds = make_dataset(np.column_stack([np.zeros(3000, dtype=int), y_b]))
        out = corrupt_labels(ds, "b", 0.5, rng)
        assert out.y_b.sum() == 1000
        assert (out.y_b != ds.y_b).sum() == 1000  # 500 flips each way

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 60), st.integers(1, 59),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(0, 2**31 - 1),
    )
    def test_positive_count_preserved(self, n, n_pos, ratio, seed):
        n_pos = min(n_pos, n - 1)
        y = np.zeros(n, dtype=int)
        y[:n_pos] = 1
        ds = make_dataset(np.column_stack([y, y[::-1]]))
        k = int(ratio * n_pos)
        if k > n - n_pos:
            return  # not enough negatives to pair; rejection tested separately
        out = corrupt_labels(ds, "a", ratio, np.random.default_rng(seed))
        assert out.y_a.sum() == n_pos
        assert (out.y_a != ds.y_a).sum() == 2 * k

    @pytest.mark.parametrize("task", ["a", "b"])
    def test_shares_the_arrays_it_does_not_change(self, rng, task):
        ds = make_dataset([(1, 1), (0, 1), (1, 0), (0, 0)] * 3)
        ds = Dataset(ds.field_names, ds.vocab_sizes, ds.field_ids, ds.y_a, ds.y_b, rng.integers(0, 3, size=12))
        out = corrupt_labels(ds, task, 0.5, rng)
        other = "b" if task == "a" else "a"
        assert out.field_ids is ds.field_ids
        assert getattr(out, f"y_{other}") is getattr(ds, f"y_{other}")
        assert out.split_tags is ds.split_tags
        assert not getattr(out, f"y_{task}").flags.writeable

    def test_insufficient_negatives_rejected(self, rng):
        ds = make_dataset([(1, 1), (1, 1), (1, 1), (0, 0)])
        with pytest.raises(DegenerateLabels, match="negatives"):
            corrupt_labels(ds, "a", 1.0, rng)


class TestDatasetInvariants:
    def test_vocab_must_cover_ids(self):
        with pytest.raises(ConfigError, match="vocabulary"):
            Dataset(("u",), (2,), np.array([[5]]), np.array([1]), np.array([0]))

    @pytest.mark.parametrize("bad", [2, -1])
    @pytest.mark.parametrize("task", ["a", "b"])
    def test_labels_validated(self, bad, task):
        labels = {"a": np.array([0, 1, 1]), "b": np.array([1, 0, 0])}
        labels[task][1] = bad
        with pytest.raises(ConfigError, match="^labels must be 0 or 1$"):
            Dataset(("u",), (3,), np.array([[1], [0], [2]]), labels["a"], labels["b"])

    def test_arrays_immutable(self, rng):
        ds = make_dataset(rng.integers(0, 2, size=(5, 2)))
        with pytest.raises(ValueError):
            ds.y_a[0] = 1

    def test_callers_arrays_stay_writable(self):
        ids = np.array([[0], [1]], dtype=np.int64)
        ya = np.array([1, 0], dtype=np.int64)
        yb = np.array([0, 1], dtype=np.int64)
        tags = np.array([0, 2], dtype=np.int64)
        ds = Dataset(("u",), (2,), ids, ya, yb, tags)
        for mine, name in ((ids, "field_ids"), (ya, "y_a"), (yb, "y_b"), (tags, "split_tags")):
            assert mine.flags.writeable, name
            held = getattr(ds, name)
            assert np.shares_memory(held, mine), name  # a view, not a copy
            with pytest.raises(ValueError):
                held[0] = 0

    def test_subset_arrays_are_read_only(self, rng):
        ds = make_dataset(rng.integers(0, 2, size=(8, 2)))
        ds = Dataset(ds.field_names, ds.vocab_sizes, ds.field_ids, ds.y_a, ds.y_b, rng.integers(0, 3, size=8))
        idx = [5, 1, 1, -2]
        sub = ds.subset(idx)
        for name in ("field_ids", "y_a", "y_b", "split_tags"):
            arr = getattr(sub, name)
            want = getattr(ds, name)[idx]  # fancy indexing, the reference
            assert arr.dtype == want.dtype and arr.shape == want.shape and arr.tobytes() == want.tobytes(), name
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = 0
        with pytest.raises(IndexError, match="index 8 is out of bounds for axis 0 with size 8"):
            ds.subset([1, 8])
