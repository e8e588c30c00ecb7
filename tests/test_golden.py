"""Golden metric histories: every variant x backbone x optimizer, trained on a
tiny synthetic config, must reproduce the committed histories and final
parameter bytes bit for bit. A refactor that is meant to keep behaviour runs
against this file unchanged.

Regenerate the fixture only for a change that is meant to alter results:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from crossdistil.data import SynthConfig, generate_synthetic, split_dataset
from crossdistil.model import BACKBONES, ModelConfig
from crossdistil.training import VARIANTS, TrainConfig, train

FIXTURE = Path(__file__).with_name("golden_histories.json")
OPTIMIZERS = ("sgd", "adam")
RUNS = [f"{v}/{b}/{o}" for v in VARIANTS for b in BACKBONES for o in OPTIMIZERS]


def make_datasets():
    ds, _ = generate_synthetic(SynthConfig(n_users=40, n_items=40, n_samples=2000), np.random.default_rng(0))
    train_ds, eval_ds, _ = split_dataset(ds, (0.75, 0.25, 0.0), seed=1)
    return train_ds, eval_ds


def run_golden(datasets, run: str) -> dict:
    """Metric history and a hash of the final model and Platt parameters."""
    variant, backbone, optimizer = run.split("/")
    model_cfg = ModelConfig(embedding_dim=4, backbone=backbone, hidden_sizes=(8,), seed=2)
    cfg = TrainConfig(gamma1=0.05, optimizer=optimizer, batch_size=32, steps=12,
                      eval_interval=4, seed=3, variant=variant)
    state, history = train(*datasets, model_cfg, cfg)
    params = state.net.named_parameters() + state.calibration.named_parameters()
    digest = hashlib.sha256(b"".join(t.values.tobytes() for _, t in params)).hexdigest()
    return {"history": history, "params_sha256": digest}


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
    got = json.dumps(run_golden(datasets, run), sort_keys=True)
    assert got == json.dumps(golden[run], sort_keys=True)


if __name__ == "__main__":
    data = make_datasets()
    runs = {run: run_golden(data, run) for run in RUNS}
    FIXTURE.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {FIXTURE}")
