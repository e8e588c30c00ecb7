"""Golden metric histories: every variant x backbone x optimizer, trained on a
tiny synthetic config, must reproduce the committed histories and final
parameters. A refactor that is meant to keep behaviour runs against this
file unchanged.

``shared_bottom`` runs must match bit for bit: the same history and the same
SHA-256 of the final parameter bytes. ``gated_experts`` runs must match
within a relative tolerance of ``RTOL`` (1e-12): every float of the history
relative to itself, and every final parameter relative to the largest
magnitude in its array (an entry near zero inherits the rounding of the
larger terms it was summed from). The tolerance is needed because the gated
forward shares each expert between both tasks: their gradients are summed
before the expert's backward matmul instead of after it, which changes the
float summation order by a few ulps.

Regenerate the fixture only for a change that is meant to alter results:

    PYTHONPATH=src python tests/test_golden.py

To check that a change keeps every run bit for bit, compare what

    PYTHONPATH=src python tests/test_golden.py --digest

prints before and after it: one SHA-256 over the JSON of every run, in
``RUNS`` order, then ``data <sha256>`` over the ids, labels and utilities
that ``generate_synthetic`` draws for every case of ``SYNTH_CASES``. It
writes nothing.

``SYNTH_CASES`` straddle the generator's row blocks, and
``test_synthetic_matches_the_unblocked_formulas`` checks each of them byte
for byte against a local copy of the unblocked formulas.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from crossdistil import data
from crossdistil.data import SynthConfig, generate_synthetic, split_dataset
from crossdistil.model import BACKBONES, ModelConfig
from crossdistil.numgrad import sigmoid_values
from crossdistil.training import VARIANTS, TrainConfig, train

FIXTURE = Path(__file__).with_name("golden_histories.json")
OPTIMIZERS = ("sgd", "adam")
RUNS = [f"{v}/{b}/{o}" for v in VARIANTS for b in BACKBONES for o in OPTIMIZERS]
RTOL = 1e-12  # relative tolerance of the gated_experts comparison
SYNTH_BLOCK = 2**15  # the generator's row block, written out so the digest also runs on code without it
SYNTH_CASES = [SynthConfig(n_samples=n, n_context_fields=fields, rho=rho)
               for n in (SYNTH_BLOCK - 1, SYNTH_BLOCK, 2 * SYNTH_BLOCK + 1) for fields in (1, 3) for rho in (0.7, -0.7)]


def make_datasets():
    ds, _ = generate_synthetic(SynthConfig(n_users=40, n_items=40, n_samples=2000), np.random.default_rng(0))
    train_ds, eval_ds, _ = split_dataset(ds, (0.75, 0.25, 0.0), seed=1)
    return train_ds, eval_ds


def run_golden(datasets, run: str) -> dict:
    """Metric history and a hash of the final model and Platt parameters.

    ``gated_experts`` runs also record every final parameter as base64 of its
    little-endian float64 bytes, for the tolerance comparison.
    """
    variant, backbone, optimizer = run.split("/")
    model_cfg = ModelConfig(embedding_dim=4, backbone=backbone, hidden_sizes=(8,), seed=2)
    cfg = TrainConfig(gamma1=0.05, optimizer=optimizer, batch_size=32, steps=12,
                      eval_interval=4, seed=3, variant=variant)
    state, history = train(*datasets, model_cfg, cfg)
    params = state.net.named_parameters() + state.calibration.named_parameters()
    digest = hashlib.sha256(b"".join(t.values.tobytes() for _, t in params)).hexdigest()
    out = {"history": history, "params_sha256": digest}
    if backbone == "gated_experts":
        out["params"] = {name: base64.b64encode(t.values.astype("<f8").tobytes()).decode("ascii")
                         for name, t in params}
    return out


def decode_params(params: dict[str, str]) -> dict[str, np.ndarray]:
    return {name: np.frombuffer(base64.b64decode(text), dtype="<f8") for name, text in params.items()}


def assert_close(got, want, where: str = "history") -> None:
    """Equal structure and non-float leaves; floats within ``RTOL`` of ``want``."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), f"{where}: {got!r} vs {want!r}"
    else:
        assert got == want, where


@pytest.fixture(scope="module")
def datasets():
    return make_datasets()


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("run", RUNS)
def test_history_matches_golden(datasets, golden, run):
    got = run_golden(datasets, run)
    want = golden[run]
    if "/shared_bottom/" in run:
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        return
    assert_close(got["history"], want["history"])
    got_params, want_params = decode_params(got["params"]), decode_params(want["params"])
    assert sorted(got_params) == sorted(want_params)
    for name, values in want_params.items():
        np.testing.assert_allclose(got_params[name], values, rtol=RTOL,
                                   atol=RTOL * np.abs(values).max(), err_msg=name)


def synthetic_arrays(case: int) -> tuple[np.ndarray, ...]:
    ds, utils = generate_synthetic(SYNTH_CASES[case], np.random.default_rng(case))
    return ds.field_ids, ds.y_a, ds.y_b, utils


def unblocked_synthetic(cfg: SynthConfig, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """The generator's formulas without row blocks: full (N, d) gathers, an
    int64 copy of the stacked ids and full-length bisection passes."""
    def fit_bias(z, target):
        lo, hi = -40.0, 40.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            rate = sigmoid_values(z + mid).mean()
            if abs(rate - target) < 5e-5:
                return mid
            lo, hi = (mid, hi) if rate < target else (lo, mid)
        raise AssertionError("bisection did not converge")

    def standardize(x):
        return (x - x.mean()) / x.std()

    n, d = cfg.n_samples, cfg.latent_dim
    users = rng.integers(0, cfg.n_users, size=n)
    items = rng.integers(0, cfg.n_items, size=n)
    ctx = [rng.integers(0, cfg.context_vocab, size=n) for _ in range(cfg.n_context_fields)]
    user_core, item_core, user_ind, item_ind = (rng.normal(size=(size, d)) for size in
                                                (cfg.n_users, cfg.n_items, cfg.n_users, cfg.n_items))
    ctx_core = [rng.normal(scale=0.3, size=cfg.context_vocab) for _ in range(cfg.n_context_fields)]
    ctx_ind = [rng.normal(scale=0.3, size=cfg.context_vocab) for _ in range(cfg.n_context_fields)]
    core = (user_core[users] * item_core[items]).sum(axis=1) / np.sqrt(d)
    ind = (user_ind[users] * item_ind[items]).sum(axis=1) / np.sqrt(d)
    for f in range(cfg.n_context_fields):
        core = core + ctx_core[f][ctx[f]]
        ind = ind + ctx_ind[f][ctx[f]]
    core, ind = standardize(core), standardize(ind)
    mix = cfg.rho * core + np.sqrt(max(0.0, 1.0 - cfg.rho**2)) * ind
    z_a, z_b = cfg.utility_scale * core, cfg.utility_scale * mix
    u_a, u_b = z_a + fit_bias(z_a, cfg.rate_a), z_b + fit_bias(z_b, cfg.rate_b)
    y_a = (rng.random(n) < sigmoid_values(u_a)).astype(np.int64)
    y_b = (rng.random(n) < sigmoid_values(u_b)).astype(np.int64)
    return np.column_stack([users, items] + ctx).astype(np.int64), y_a, y_b, np.column_stack([u_a, u_b])


def test_synthetic_cases_straddle_the_row_blocks():
    assert data._BLOCK_ROWS == SYNTH_BLOCK


@pytest.mark.parametrize("case", range(len(SYNTH_CASES)))
def test_synthetic_matches_the_unblocked_formulas(case):
    got = synthetic_arrays(case)
    want = unblocked_synthetic(SYNTH_CASES[case], np.random.default_rng(case))
    for name, g, w in zip(("field_ids", "y_a", "y_b", "utilities"), got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), name


def data_digest() -> str:
    """SHA-256 over the bytes of ``synthetic_arrays`` of every case, in ``SYNTH_CASES`` order."""
    h = hashlib.sha256()
    for case in range(len(SYNTH_CASES)):
        for arr in synthetic_arrays(case):
            h.update(arr.tobytes())
    return h.hexdigest()


def digest(datasets) -> str:
    """SHA-256 over ``json.dumps(run_golden(run), sort_keys=True)`` of every run, in ``RUNS`` order."""
    h = hashlib.sha256()
    for run in RUNS:
        h.update(json.dumps(run_golden(datasets, run), sort_keys=True).encode("utf-8"))
    return h.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the golden fixture, or print the digest of every run.")
    parser.add_argument("--digest", action="store_true",
                        help="print the digest of every run and of the synthetic cases, and write nothing")
    args = parser.parse_args()
    datasets = make_datasets()
    if args.digest:
        print(digest(datasets))
        print("data", data_digest())
    else:
        runs = {run: run_golden(datasets, run) for run in RUNS}
        FIXTURE.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(runs)} runs to {FIXTURE}")
