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
``RUNS`` order. It writes nothing.
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

from crossdistil.data import SynthConfig, generate_synthetic, split_dataset
from crossdistil.model import BACKBONES, ModelConfig
from crossdistil.training import VARIANTS, TrainConfig, train

FIXTURE = Path(__file__).with_name("golden_histories.json")
OPTIMIZERS = ("sgd", "adam")
RUNS = [f"{v}/{b}/{o}" for v in VARIANTS for b in BACKBONES for o in OPTIMIZERS]
RTOL = 1e-12  # relative tolerance of the gated_experts comparison


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


def digest(datasets) -> str:
    """SHA-256 over ``json.dumps(run_golden(run), sort_keys=True)`` of every run, in ``RUNS`` order."""
    h = hashlib.sha256()
    for run in RUNS:
        h.update(json.dumps(run_golden(datasets, run), sort_keys=True).encode("utf-8"))
    return h.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the golden fixture, or print the digest of every run.")
    parser.add_argument("--digest", action="store_true", help="print the digest of every run and write nothing")
    args = parser.parse_args()
    data = make_datasets()
    if args.digest:
        print(digest(data))
    else:
        runs = {run: run_golden(data, run) for run in RUNS}
        FIXTURE.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(runs)} runs to {FIXTURE}")
