"""Shared-backbone multi-task network with four output towers.

Per-field embeddings are concatenated and pushed through either a single
shared MLP trunk ("shared_bottom") or a per-task softmax-gated mixture of
shared experts plus one task-private expert ("gated_experts"). The shared
experts run once per forward and feed both tasks' mixtures. Four towers
produce the logits: a regression (student) head and a ranking (teacher)
head per task. Teacher towers consume the same backbone output as their
task's student but own their parameters, so losses on one head cannot move
another head's tower. A forward may ask for a subset of the heads; it then
builds only those towers and the mixtures that feed them.

The forward is built from ``numgrad``'s fused layer ops: one ``gather_cols``
node for the embedding lookup of all fields, and one ``linear`` node per
dense layer (trunk, expert, gate logits and tower layers).

Each trainable tensor is named where it is drawn (``emb.user``, ``expert.2.0.w``, ``gate.a.b``,
``tower.a_plus.1.w``, ...) and held only in ``MultiTaskNet.params``, in draw order: ``forward`` reads
each layer there by its name, and the names are the checkpoint member names and the Adam ``m``/``v`` keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numgrad as ng
from .errors import ConfigError, UsageError, require_ints, require_positive
from .numgrad import Tensor

TASKS = ("a", "b")
TEACHERS = tuple(f"{task}_plus" for task in TASKS)
HEADS = TASKS + TEACHERS
BACKBONES = ("shared_bottom", "gated_experts")


@dataclass(frozen=True)
class ModelConfig:
    embedding_dim: int = 8
    backbone: str = "shared_bottom"
    hidden_sizes: tuple[int, ...] = (32,)  # trunk layers, or each expert's layers
    tower_hidden: tuple[int, ...] = ()
    n_experts: int = 2  # shared experts (gated_experts only)
    init_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        require_ints(self, ("embedding_dim", "n_experts", "seed"), lists=("hidden_sizes", "tower_hidden"))
        if self.backbone not in BACKBONES:
            raise ConfigError(f"backbone must be one of {BACKBONES}, got {self.backbone!r}")
        if self.embedding_dim < 1 or self.n_experts < 1:
            raise ConfigError("embedding_dim and n_experts must be at least 1")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden_sizes must be a nonempty tuple of positive ints")
        if any(h < 1 for h in self.tower_hidden):
            raise ConfigError("tower_hidden sizes must be positive")
        require_positive(self, ("init_scale",))
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        object.__setattr__(self, "tower_hidden", tuple(int(h) for h in self.tower_hidden))


def _mlp(params: dict[str, Tensor], prefix: str, rng, sizes: list[int], scale: float) -> None:
    """Draw an MLP's trainable weights uniformly in +-scale/sqrt(fan_in), weight before bias,
    layer by layer, into ``params`` as ``<prefix>.<layer>.w`` and ``.b``."""
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        s = scale / np.sqrt(fan_in)
        params[f"{prefix}.{i}.w"] = Tensor(rng.uniform(-s, s, size=(fan_in, fan_out)), requires_grad=True)
        params[f"{prefix}.{i}.b"] = Tensor(rng.uniform(-s, s, size=(1, fan_out)), requires_grad=True)


class MultiTaskNet:
    """Holds all trainable tensors and runs the forward pass."""

    def __init__(self, cfg: ModelConfig, vocab_sizes, field_names):
        self.cfg = cfg
        self.vocab_sizes = tuple(int(v) for v in vocab_sizes)
        if not self.vocab_sizes or any(v < 1 for v in self.vocab_sizes):
            raise ConfigError(f"need one or more fields of vocabulary size at least 1, got sizes {self.vocab_sizes}")
        self.field_names = tuple(field_names)
        if len(self.field_names) != len(self.vocab_sizes):
            raise ConfigError("field_names and vocab_sizes disagree")
        if len(set(self.field_names)) != len(self.field_names):  # they name the embedding tables
            raise ConfigError(f"field names must be distinct, got {self.field_names}")

        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(cfg.seed)
        d = cfg.embedding_dim
        emb_scale = cfg.init_scale / np.sqrt(d)
        for name, v in zip(self.field_names, self.vocab_sizes):
            self.params[f"emb.{name}"] = Tensor(rng.uniform(-emb_scale, emb_scale, size=(v, d)), requires_grad=True)
        in_dim = d * len(self.vocab_sizes)

        if cfg.backbone == "shared_bottom":
            _mlp(self.params, "trunk", rng, [in_dim, *cfg.hidden_sizes], cfg.init_scale)
        else:
            # shared experts plus one private expert per task; gates start at
            # zero so the initial mixture is exactly uniform
            for e in range(cfg.n_experts + 2):  # last two are private to a, b
                _mlp(self.params, f"expert.{e}", rng, [in_dim, *cfg.hidden_sizes], cfg.init_scale)
            for task in TASKS:
                self.params[f"gate.{task}.w"] = Tensor(np.zeros((in_dim, cfg.n_experts + 1)), requires_grad=True)
                self.params[f"gate.{task}.b"] = Tensor(np.zeros((1, cfg.n_experts + 1)), requires_grad=True)

        for head in HEADS:
            _mlp(self.params, f"tower.{head}", rng, [cfg.hidden_sizes[-1], *cfg.tower_hidden, 1], cfg.init_scale)

    # -- parameter plumbing -------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def n_parameters(self) -> int:
        return sum(t.values.size for t in self.params.values())

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    # -- forward ------------------------------------------------------------

    def _check_ids(self, ids: np.ndarray):
        if ids.ndim != 2 or ids.shape[1] != len(self.vocab_sizes):
            raise UsageError(f"expected ids of shape (B, {len(self.vocab_sizes)}), got {ids.shape}")
        for f, (name, vocab) in enumerate(zip(self.field_names, self.vocab_sizes)):
            col = ids[:, f]
            if col.size and (col.min() < 0 or col.max() >= vocab):
                bad = col[(col < 0) | (col >= vocab)][0]
                raise UsageError(f"field '{name}': id {bad} out of range [0, {vocab})")

    def _embed(self, ids: np.ndarray) -> Tensor:
        return ng.gather_cols([self.params[f"emb.{name}"] for name in self.field_names], ids)

    def _run_mlp(self, x: Tensor, prefix: str, tower: bool = False) -> Tensor:
        """Run the layers ``<prefix>.<i>``: a backbone MLP of ``hidden_sizes`` with a ReLU after
        every layer, or a tower of ``tower_hidden`` and then one linear output layer."""
        p, depth = self.params, (len(self.cfg.tower_hidden) + 1 if tower else len(self.cfg.hidden_sizes))
        for i in range(depth):
            x = ng.linear(x, p[f"{prefix}.{i}.w"], p[f"{prefix}.{i}.b"], relu=not (tower and i == depth - 1))
        return x

    def _mixture(self, x: Tensor, shared: list[Tensor], task: str) -> Tensor:
        """Gate ``task``'s mix of the shared expert outputs and its private expert."""
        private = self._run_mlp(x, f"expert.{self.cfg.n_experts + TASKS.index(task)}")
        weights = ng.row_softmax(ng.linear(x, self.params[f"gate.{task}.w"], self.params[f"gate.{task}.b"]))
        return ng.row_mix(weights, *shared, private)

    def forward(self, field_ids, heads=HEADS) -> dict[str, Tensor]:
        """Compute the (B, 1) logits of each of ``heads`` for a batch of id rows.

        Only the requested towers are built, and on ``gated_experts`` only the
        mixtures of their tasks; the shared experts run once for both tasks.
        """
        if unknown := set(heads) - set(HEADS):
            raise UsageError(f"unknown heads {sorted(unknown)}; expected some of {HEADS}")
        ids = np.asarray(field_ids, dtype=np.int64)
        self._check_ids(ids)
        x = self._embed(ids)
        task_of = {head: head.removesuffix("_plus") for head in heads}
        if self.cfg.backbone == "shared_bottom":
            h = self._run_mlp(x, "trunk")
            inputs = {task: h for task in TASKS}
        else:
            shared = [self._run_mlp(x, f"expert.{e}") for e in range(self.cfg.n_experts)]
            inputs = {task: self._mixture(x, shared, task) for task in TASKS if task in task_of.values()}
        return {head: self._run_mlp(inputs[task], f"tower.{head}", tower=True) for head, task in task_of.items()}

