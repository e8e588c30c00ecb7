"""Shared test helpers: finite-difference oracles and tiny fixtures."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from crossdistil import numgrad as ng
from crossdistil.model import ModelConfig, MultiTaskNet


def grad_close(analytic, numeric, rel=1e-4, absolute=1e-7):
    """True when |a - n| passes the relative bound or the absolute fallback."""
    analytic = float(analytic)
    numeric = float(numeric)
    diff = abs(analytic - numeric)
    scale = max(abs(analytic), abs(numeric))
    return diff < absolute or (scale > 0 and diff / scale < rel)


def finite_difference(loss_fn, tensor: ng.Tensor, row: int, col: int, h: float = 1e-5) -> float:
    """Central finite difference of a scalar-valued rebuild through one entry.

    ``loss_fn`` must rebuild the loss from current tensor values on every
    call; the entry is restored afterwards.
    """
    original = tensor.values[row, col]
    try:
        tensor.values[row, col] = original + h
        up = loss_fn().item()
        tensor.values[row, col] = original - h
        down = loss_fn().item()
    finally:
        tensor.values[row, col] = original
    return (up - down) / (2.0 * h)


def check_gradients(loss_fn, tensors, rng, n_entries=6, rel=1e-4, absolute=1e-7):
    """Backward the rebuilt loss once, then finite-difference random entries."""
    for t in tensors:
        t.zero_grad()
    loss = loss_fn()
    ng.backward(loss)
    for t in tensors:
        rows, cols = t.shape
        count = min(n_entries, rows * cols)
        flat = rng.choice(rows * cols, size=count, replace=False)
        for pos in flat:
            r, c = divmod(int(pos), cols)
            numeric = finite_difference(loss_fn, t, r, c)
            analytic = t.grad[r, c]
            assert grad_close(analytic, numeric, rel, absolute), (
                f"gradient mismatch at {t.op}[{r},{c}]: analytic={analytic} fd={numeric}"
            )


def peak_traced_bytes(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs, above what was live before,
    as ``tracemalloc`` sees them (numpy reports its array buffers to it)."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


def tiny_net(seed=0, backbone="shared_bottom", tower_hidden=()) -> MultiTaskNet:
    cfg = ModelConfig(
        embedding_dim=3,
        backbone=backbone,
        hidden_sizes=(4,),
        tower_hidden=tower_hidden,
        n_experts=2,
        init_scale=1.0,
        seed=seed,
    )
    return MultiTaskNet(cfg, vocab_sizes=(5, 4, 3), field_names=("u", "i", "c"))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
