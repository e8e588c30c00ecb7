"""Dataset schema, CSV ingestion, label-combination partitioning, bootstrap
sampling of quadruplets and pairs, label corruption, and a synthetic
correlated-feedback generator used by the end-to-end experiments.

``QUADS`` names the four label-combination subsets and ``PAIRS`` each
task's positive and negative union; these two tables are the only place
the subset names are written. ``RANKED`` gives, for each task, the three
(higher, lower) subset pairs its teacher ranks, in the order its loss sums
them, as slices of those two tables. ``partition`` maps every name to its
row indices and ``sample`` draws a bootstrap batch from any of them, keyed
the same way.

The canonical on-disk format is a plain CSV with integer feature ids:
``f_<name>,...,label_a,label_b`` (optionally a ``split`` column with values
train/valid/test). Labels are strictly 0/1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .errors import ConfigError, DataError, DegenerateLabels, require_finite, require_ints, require_positive
from .numgrad import sigmoid_values as _sigmoid

SPLIT_TAGS = ("train", "valid", "test")
# rows per block of the synthetic generator's row-wise passes, which bounds their temporaries
_BLOCK_ROWS = 1 << 15
_BIAS_BINS = 1 << 14  # equal-width bins of z behind the bias bisection's rate bounds


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself if it is read-only, else a read-only view of it (no copy)."""
    if arr.flags.writeable:
        arr = arr.view()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Immutable column store of samples.

    ``vocab_sizes[f]`` is always at least 1 + the largest id seen in field
    ``f``. ``split_tags`` is None unless the source carried a split column.
    Every array is read-only, so datasets derived from one another share the
    arrays they do not change. A writable input array is held through a
    read-only view, so the caller's own array stays writable.
    """

    field_names: tuple[str, ...]
    vocab_sizes: tuple[int, ...]
    field_ids: np.ndarray  # (N, F) int64
    y_a: np.ndarray  # (N,) int64
    y_b: np.ndarray  # (N,) int64
    split_tags: np.ndarray | None = None  # (N,) int64 indices into SPLIT_TAGS

    def __post_init__(self):
        ids = np.asarray(self.field_ids, dtype=np.int64)
        ya = np.asarray(self.y_a, dtype=np.int64)
        yb = np.asarray(self.y_b, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[1] != len(self.field_names):
            raise ConfigError(f"field_ids shape {ids.shape} does not match {len(self.field_names)} fields")
        if len(self.vocab_sizes) != len(self.field_names):
            raise ConfigError("one vocabulary size per field required")
        if ya.shape != (ids.shape[0],) or yb.shape != (ids.shape[0],):
            raise ConfigError("label arrays must be 1-D and aligned with field_ids")
        for arr in (ya, yb):
            if not ((arr == 0) | (arr == 1)).all():
                raise ConfigError("labels must be 0 or 1")
        if ids.size:
            if ids.min() < 0:
                raise ConfigError("feature ids must be nonnegative")
            for name, vocab, top in zip(self.field_names, self.vocab_sizes, ids.max(axis=0).tolist()):
                if vocab < top + 1:
                    raise ConfigError(f"field '{name}': vocabulary size {vocab} < 1 + max id {top}")
        object.__setattr__(self, "field_ids", _read_only(ids))
        object.__setattr__(self, "y_a", _read_only(ya))
        object.__setattr__(self, "y_b", _read_only(yb))
        if self.split_tags is not None:
            tags = np.asarray(self.split_tags, dtype=np.int64)
            if tags.shape != (ids.shape[0],):
                raise ConfigError("split_tags must align with samples")
            object.__setattr__(self, "split_tags", _read_only(tags))

    def __len__(self) -> int:
        return self.field_ids.shape[0]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        # np.take gives the bytes and IndexError of fancy indexing, faster on 2-D field_ids
        rows = [None if a is None else np.take(a, idx, axis=0)
                for a in (self.field_ids, self.y_a, self.y_b, self.split_tags)]
        return Dataset(self.field_names, self.vocab_sizes, *rows)


QUADS = ("pos_pos", "pos_neg", "neg_pos", "neg_neg")  # (y_a, y_b) = (1,1), (1,0), (0,1), (0,0)
PAIRS = {"a": ("pos_any", "neg_any"), "b": ("any_pos", "any_neg")}  # each task's positive, negative union
# each task's (higher, lower) pairs: its positive over its negative union, then, within its
# positives and within its negatives, the rows positive on the other task over those negative on it
RANKED = {"a": (PAIRS["a"], QUADS[:2], QUADS[2:]), "b": (PAIRS["b"], QUADS[::2], QUADS[1::2])}

LabelPartition = dict[str, np.ndarray]  # subset name in QUADS or PAIRS -> sample indices


def partition(ds: Dataset) -> LabelPartition:
    """Split sample indices by the combination of the two labels, and by each label alone."""
    a = ds.y_a == 1
    b = ds.y_b == 1
    idx = np.arange(len(ds), dtype=np.int64)
    rows = (idx[a & b], idx[a & ~b], idx[~a & b], idx[~a & ~b], idx[a], idx[~a], idx[b], idx[~b])
    return dict(zip(QUADS + PAIRS["a"] + PAIRS["b"], rows))


def sample(part: LabelPartition, names, batch_size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform draws with replacement from each named subset, in the order given."""
    out = {}
    for name in names:
        pool = part[name]
        if pool.size == 0:
            raise DegenerateLabels(f"label subset '{name}' is empty")
        out[name] = pool[rng.integers(0, pool.size, size=batch_size)]
    return out


# ---------------------------------------------------------------------------
# CSV ingestion / emission
# ---------------------------------------------------------------------------


def load_csv(path) -> Dataset:
    """Read a dataset CSV (header ``f_<name>,...,label_a,label_b[,split]``).

    Every feature column must be prefixed ``f_``; any other column name is
    rejected. Labels parse strictly as 0/1, ids as nonnegative integers, and
    malformed rows report their line number.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        if repeated := sorted({name for name in header if header.count(name) > 1}):
            raise DataError(f"{path}: repeated column names {repeated}")
        feature_cols: list[tuple[int, str]] = []
        label_a_col = label_b_col = split_col = None
        for i, name in enumerate(header):
            if name.startswith("f_"):
                feature_cols.append((i, name[2:]))
            elif name == "label_a":
                label_a_col = i
            elif name == "label_b":
                label_b_col = i
            elif name == "split":
                split_col = i
            else:
                raise DataError(f"{path}: unknown column {name!r}")
        if label_a_col is None or label_b_col is None:
            raise DataError(f"{path}: header must include label_a and label_b")
        if not feature_cols:
            raise DataError(f"{path}: no feature columns (expected names prefixed 'f_')")

        ids_rows: list[list[int]] = []
        ya_rows: list[int] = []
        yb_rows: list[int] = []
        tag_rows: list[int] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: line {lineno}: expected {len(header)} values, got {len(row)}")
            try:
                ids_rows.append([int(row[i]) for i, _ in feature_cols])
            except ValueError as e:
                raise DataError(f"{path}: line {lineno}: non-integer feature id ({e})") from None
            for col, sink in ((label_a_col, ya_rows), (label_b_col, yb_rows)):
                value = row[col]
                if value not in ("0", "1"):
                    raise DataError(f"{path}: line {lineno}: label {header[col]}={value!r} not in {{0,1}}")
                sink.append(int(value))
            if split_col is not None:
                tag = row[split_col]
                if tag not in SPLIT_TAGS:
                    raise DataError(f"{path}: line {lineno}: split={tag!r} not in {SPLIT_TAGS}")
                tag_rows.append(SPLIT_TAGS.index(tag))

    n = len(ids_rows)
    field_names = tuple(name for _, name in feature_cols)
    ids = np.asarray(ids_rows, dtype=np.int64).reshape(n, len(field_names))
    if n and ids.min() < 0:
        raise DataError(f"{path}: negative feature id")
    vocab = tuple((ids.max(axis=0) + 1).tolist()) if n else (1,) * len(field_names)
    return Dataset(
        field_names,
        vocab,
        ids,
        np.asarray(ya_rows, dtype=np.int64),
        np.asarray(yb_rows, dtype=np.int64),
        np.asarray(tag_rows, dtype=np.int64) if split_col is not None else None,
    )


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset in the canonical CSV schema (no quoting needed)."""
    with open(path, "w", encoding="utf-8") as fh:
        cols = [f"f_{name}" for name in ds.field_names] + ["label_a", "label_b"]
        if ds.split_tags is not None:
            cols.append("split")
        fh.write(",".join(cols) + "\n")
        for i in range(len(ds)):
            row = [str(int(v)) for v in ds.field_ids[i]]
            row.append(str(int(ds.y_a[i])))
            row.append(str(int(ds.y_b[i])))
            if ds.split_tags is not None:
                row.append(SPLIT_TAGS[int(ds.split_tags[i])])
            fh.write(",".join(row) + "\n")


def check_fractions(fractions) -> tuple[float, float, float]:
    """The train/valid/test fractions as floats; raises ``ConfigError`` unless
    they are three finite nonnegative real numbers (not bools) summing to 1."""
    frac = tuple(fractions) if isinstance(fractions, (list, tuple)) else ()
    ok = len(frac) == 3 and all(
        isinstance(f, Real) and not isinstance(f, bool) and math.isfinite(f) and f >= 0 for f in frac)
    if not ok or abs(sum(float(f) for f in frac) - 1.0) > 1e-9:
        raise ConfigError(f"split.fractions must be three finite nonnegative numbers summing to 1, "
                          f"got {fractions!r}")
    return tuple(float(f) for f in frac)


def split_dataset(ds: Dataset, fractions, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Random disjoint train/valid/test split; see ``check_fractions``."""
    frac = check_fractions(fractions)
    order = np.random.default_rng(seed).permutation(len(ds))
    n_train = int(round(frac[0] * len(ds)))
    n_valid = int(round(frac[1] * len(ds)))
    return (
        ds.subset(order[:n_train]),
        ds.subset(order[n_train : n_train + n_valid]),
        ds.subset(order[n_train + n_valid :]),
    )


def split_by_column(ds: Dataset) -> tuple[Dataset, Dataset, Dataset]:
    """Split along the dataset's own split column (e.g. day-based protocols)."""
    if ds.split_tags is None:
        raise ConfigError("dataset has no split column")
    return tuple(ds.subset(np.flatnonzero(ds.split_tags == t)) for t in range(3))


# ---------------------------------------------------------------------------
# synthetic correlated-feedback generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic two-task feedback generator.

    Task utilities are built from latent id embeddings: task A's utility is
    a standardized user-item dot product (plus per-id context offsets), and
    task B mixes that same signal with an independent one at correlation
    ``rho``. Labels are Bernoulli draws through a sigmoid whose bias is
    bisected until the expected positive rate hits ``rate_a``/``rate_b``;
    binned bounds on that rate decide most steps without a pass over the rows.
    """

    n_users: int = 300
    n_items: int = 300
    n_context_fields: int = 1
    context_vocab: int = 8
    latent_dim: int = 8
    rho: float = 0.7
    rate_a: float = 0.3
    rate_b: float = 0.25
    n_samples: int = 50_000
    utility_scale: float = 2.0

    def __post_init__(self):
        require_ints(self, ("n_users", "n_items", "n_context_fields", "context_vocab", "latent_dim", "n_samples"))
        require_finite(self, ("rho", "rate_a", "rate_b"))
        if not -1.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho must lie in [-1, 1], got {self.rho}")
        for name in ("rate_a", "rate_b"):
            r = getattr(self, name)
            if not 0.0 < r < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {r}")
        for name in ("n_users", "n_items", "context_vocab", "latent_dim", "n_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.n_context_fields < 0:
            raise ConfigError("n_context_fields must be nonnegative")
        require_positive(self, ("utility_scale",))

    def field_names(self) -> tuple[str, ...]:
        return ("user", "item") + tuple(f"ctx{i}" for i in range(self.n_context_fields))

    def vocab_sizes(self) -> tuple[int, ...]:
        return (self.n_users, self.n_items) + (self.context_vocab,) * self.n_context_fields


def _fit_bias(z: np.ndarray, target: float, max_iter: int = 200, tol: float = 5e-5) -> float:
    """Bisect b so that mean(sigmoid(z + b)) hits the target rate.

    Each step first makes its tests (``< target``, ``> target``, within
    ``tol``) at both ends of a bound on the rate: z's counts in
    ``_BIAS_BINS`` equal-width bins times the sigmoid of the bin edges,
    widened by 1e-9 of z's scale, less and plus a slack of 1e-9. Each test
    is a monotone step on either side of the target, so where the two ends
    agree the rate agrees; only the other steps take an exact pass, and b
    has the bits of a bisection made of exact passes alone. The bounds hold
    for the computed rate: rounding is monotone, so fl(z + b) lies between
    its bin's fl(edge + b); both sigmoids are within a few ulps of the real,
    monotone one; the mean and the dot products are off by about log2(n)
    and 2^14 ulps; and the widening covers the rounding of the bin index,
    all far below the slack. An exact pass fills one reused buffer
    ``_BLOCK_ROWS`` rows at a time: the sigmoid works element by element,
    so its mean has the bits of one full-length pass.
    """
    buf = np.empty_like(z)

    def exact_rate(b: float) -> float:
        for start in range(0, z.size, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            buf[rows] = _sigmoid(z[rows] + b)
        return buf.mean()

    z_min, z_max = z.min(initial=np.inf), z.max(initial=-np.inf)
    width, counts = (z_max - z_min) / _BIAS_BINS, None
    if np.isfinite(width):  # else (non-finite or empty z) every pass is exact
        counts = np.zeros(_BIAS_BINS)
        for start in range(0, z.size, _BLOCK_ROWS):
            bins = ((z[start : start + _BLOCK_ROWS] - z_min) / (width or 1.0)).astype(np.intp)
            counts += np.bincount(np.minimum(bins, _BIAS_BINS - 1), minlength=_BIAS_BINS)
        edges = z_min + width * np.arange(_BIAS_BINS + 1)
        widen = 1e-9 * max(-z_min, z_max) + 1e-300  # the absolute term covers a subnormal width
        sides = ((edges[:-1] - widen, -1e-9), (edges[1:] + widen, 1e-9))  # (edges, slack) of each bound

    def rate_at(b: float) -> float:
        """The exact rate at b, or a bound on it that every test below decides the same way."""
        if counts is None:
            return exact_rate(b)
        low, high = (counts @ (0.5 + 0.5 * np.tanh(0.5 * (e + b))) / z.size + slack for e, slack in sides)
        tests = lambda r: (r < target, r > target, abs(r - target) < tol)
        return low if tests(low) == tests(high) else exact_rate(b)

    lo, hi = -40.0, 40.0
    if rate_at(lo) > target or rate_at(hi) < target:
        raise ConfigError(f"positive rate {target} unreachable for this utility distribution")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        rate = rate_at(mid)
        if abs(rate - target) < tol:
            return mid
        if rate < target:
            lo = mid
        else:
            hi = mid
    raise ConfigError(f"bias bisection did not converge to rate {target} in {max_iter} steps")


def _row_dots(left: np.ndarray, right: np.ndarray, left_rows: np.ndarray, right_rows: np.ndarray) -> np.ndarray:
    """``(left[left_rows] * right[right_rows]).sum(axis=1)``, ``_BLOCK_ROWS`` rows
    at a time: numpy sums each row with the same tree at any row count, so
    the bits match the full product's, without its (N, d) temporaries. The
    rows are gathered with ``np.take``, which is faster than fancy indexing."""
    out = np.empty(left_rows.size)
    for start in range(0, out.size, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        out[rows] = (np.take(left, left_rows[rows], axis=0) * np.take(right, right_rows[rows], axis=0)).sum(axis=1)
    return out


def _standardize(x: np.ndarray) -> np.ndarray:
    sd = x.std()
    if sd < 1e-12:
        return np.zeros_like(x)
    return (x - x.mean()) / sd


def generate_synthetic(cfg: SynthConfig, rng: np.random.Generator) -> tuple[Dataset, np.ndarray]:
    """Draw a dataset plus the (N, 2) ground-truth utilities behind its labels.

    The utilities returned are the final logits (bias included); their order
    is the oracle ranking used by the end-to-end checks. The latent dot
    products and the bias bisection run ``_BLOCK_ROWS`` rows at a time, so no
    temporary holds more than a block of (row, latent) products, and the
    bisection makes an exact pass only at the steps its rate bounds leave
    open; the result has the bits of the unblocked formulas.
    """
    n, d = cfg.n_samples, cfg.latent_dim
    users = rng.integers(0, cfg.n_users, size=n)
    items = rng.integers(0, cfg.n_items, size=n)
    ctx = [rng.integers(0, cfg.context_vocab, size=n) for _ in range(cfg.n_context_fields)]

    user_core = rng.normal(size=(cfg.n_users, d))
    item_core = rng.normal(size=(cfg.n_items, d))
    user_ind = rng.normal(size=(cfg.n_users, d))
    item_ind = rng.normal(size=(cfg.n_items, d))
    ctx_core = [rng.normal(scale=0.3, size=cfg.context_vocab) for _ in range(cfg.n_context_fields)]
    ctx_ind = [rng.normal(scale=0.3, size=cfg.context_vocab) for _ in range(cfg.n_context_fields)]

    core = _row_dots(user_core, item_core, users, items)
    ind = _row_dots(user_ind, item_ind, users, items)
    core /= np.sqrt(d)
    ind /= np.sqrt(d)
    for f in range(cfg.n_context_fields):
        core += ctx_core[f][ctx[f]]
        ind += ctx_ind[f][ctx[f]]
    core = _standardize(core)
    ind = _standardize(ind)
    mix = cfg.rho * core + np.sqrt(max(0.0, 1.0 - cfg.rho**2)) * ind

    z_a = cfg.utility_scale * core
    z_b = cfg.utility_scale * mix
    u_a = z_a + _fit_bias(z_a, cfg.rate_a)
    u_b = z_b + _fit_bias(z_b, cfg.rate_b)
    y_a = (rng.random(n) < _sigmoid(u_a)).astype(np.int64)
    y_b = (rng.random(n) < _sigmoid(u_b)).astype(np.int64)

    ids = np.column_stack([users, items] + ctx)  # int64, as rng.integers draws them
    ds = Dataset(cfg.field_names(), cfg.vocab_sizes(), ids, y_a, y_b)
    return ds, np.column_stack([u_a, u_b])


def corrupt_labels(ds: Dataset, task: str, ratio: float, rng: np.random.Generator) -> Dataset:
    """Swap a fraction of one task's positives with an equal count of negatives.

    Picks floor(ratio * #positives) positives uniformly without replacement,
    an equal-sized uniform set of negatives, and flips both groups, so the
    task's positive count is preserved exactly. The result shares every
    other array with ``ds``.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"corruption ratio must lie in [0, 1], got {ratio}")
    if task not in ("a", "b"):
        raise ConfigError(f"corrupt_labels: unknown task {task!r}")
    y = (ds.y_a if task == "a" else ds.y_b).copy()
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    if pos.size == 0 or neg.size == 0:
        raise DegenerateLabels(f"task {task}: need at least one positive and one negative to corrupt")
    k = int(ratio * pos.size)
    if k > neg.size:
        raise DegenerateLabels(f"task {task}: {k} flips requested but only {neg.size} negatives available")
    if k:
        flip_pos = rng.choice(pos, size=k, replace=False)
        flip_neg = rng.choice(neg, size=k, replace=False)
        y[flip_pos] = 0
        y[flip_neg] = 1
    return replace(ds, **{f"y_{task}": y})
