"""Shared-backbone multi-task network with four output towers.

Per-field embeddings are concatenated and pushed through either a single
shared MLP trunk ("shared_bottom") or a per-task softmax-gated mixture of
shared experts plus one task-private expert ("gated_experts"). Four towers
produce the logits: a regression (student) head and a ranking (teacher)
head per task. Teacher towers consume the same backbone output as their
task's student but own their parameters, so losses on one head cannot move
another head's tower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numgrad as ng
from .errors import ConfigError, UsageError
from .numgrad import Tensor

HEADS = ("a", "b", "a_plus", "b_plus")
BACKBONES = ("shared_bottom", "gated_experts")


@dataclass(frozen=True)
class ModelConfig:
    embedding_dim: int = 8
    backbone: str = "shared_bottom"
    hidden_sizes: tuple[int, ...] = (32,)  # trunk layers, or each expert's layers
    tower_hidden: tuple[int, ...] = ()
    n_experts: int = 2  # shared experts (gated_experts only)
    activation: str = "relu"
    init_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.backbone not in BACKBONES:
            raise ConfigError(f"backbone must be one of {BACKBONES}, got {self.backbone!r}")
        if self.activation != "relu":
            raise ConfigError("only relu activation is supported")
        if self.embedding_dim < 1 or self.n_experts < 1:
            raise ConfigError("embedding_dim and n_experts must be at least 1")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden_sizes must be a nonempty tuple of positive ints")
        if any(h < 1 for h in self.tower_hidden):
            raise ConfigError("tower_hidden sizes must be positive")
        if self.init_scale <= 0:
            raise ConfigError("init_scale must be positive")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        object.__setattr__(self, "tower_hidden", tuple(int(h) for h in self.tower_hidden))


@dataclass(frozen=True)
class HeadLogits:
    """The four head outputs for one batch, each (B, 1)."""

    r_a: Tensor
    r_b: Tensor
    r_a_plus: Tensor
    r_b_plus: Tensor

    def head(self, name: str) -> Tensor:
        return getattr(self, f"r_{name}")


def _linear_params(rng, fan_in: int, fan_out: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    s = scale / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=(fan_in, fan_out)), rng.uniform(-s, s, size=(1, fan_out))


def _mlp_params(rng, sizes: list[int], scale: float) -> list[tuple[np.ndarray, np.ndarray]]:
    return [_linear_params(rng, sizes[i], sizes[i + 1], scale) for i in range(len(sizes) - 1)]


class MultiTaskNet:
    """Holds all trainable tensors and runs the forward pass."""

    def __init__(self, cfg: ModelConfig, vocab_sizes, field_names=None):
        self.cfg = cfg
        self.vocab_sizes = tuple(int(v) for v in vocab_sizes)
        if any(v < 1 for v in self.vocab_sizes):
            raise ConfigError("vocabulary sizes must be at least 1")
        self.field_names = (
            tuple(field_names) if field_names is not None
            else tuple(f"f{i}" for i in range(len(self.vocab_sizes)))
        )
        if len(self.field_names) != len(self.vocab_sizes):
            raise ConfigError("field_names and vocab_sizes disagree")

        rng = np.random.default_rng(cfg.seed)
        d = cfg.embedding_dim
        emb_scale = cfg.init_scale / np.sqrt(d)
        self.embeddings = [
            Tensor(rng.uniform(-emb_scale, emb_scale, size=(v, d)), requires_grad=True)
            for v in self.vocab_sizes
        ]
        in_dim = d * len(self.vocab_sizes)

        if cfg.backbone == "shared_bottom":
            self.trunk = self._grad_mlp(rng, [in_dim, *cfg.hidden_sizes], cfg.init_scale)
            backbone_out = cfg.hidden_sizes[-1]
        else:
            # shared experts plus one private expert per task; gates start at
            # zero so the initial mixture is exactly uniform
            expert_sizes = [in_dim, *cfg.hidden_sizes]
            self.experts = [
                self._grad_mlp(rng, expert_sizes, cfg.init_scale)
                for _ in range(cfg.n_experts + 2)  # last two are private to a, b
            ]
            mix_width = cfg.n_experts + 1
            self.gates = {
                task: (
                    Tensor(np.zeros((in_dim, mix_width)), requires_grad=True),
                    Tensor(np.zeros((1, mix_width)), requires_grad=True),
                )
                for task in ("a", "b")
            }
            h = cfg.hidden_sizes[-1]
            self._mix_expand = Tensor(np.kron(np.eye(mix_width), np.ones((1, h))))
            self._mix_reduce = Tensor(np.kron(np.ones((mix_width, 1)), np.eye(h)))
            backbone_out = h

        self.towers = {
            head: self._grad_mlp(rng, [backbone_out, *cfg.tower_hidden, 1], cfg.init_scale)
            for head in HEADS
        }

    @staticmethod
    def _grad_mlp(rng, sizes, scale) -> list[tuple[Tensor, Tensor]]:
        return [
            (Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))
            for w, b in _mlp_params(rng, sizes, scale)
        ]

    # -- parameter plumbing -------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [(f"emb.{name}", t) for name, t in zip(self.field_names, self.embeddings)]
        if self.cfg.backbone == "shared_bottom":
            for i, (w, b) in enumerate(self.trunk):
                out += [(f"trunk.{i}.w", w), (f"trunk.{i}.b", b)]
        else:
            for e, layers in enumerate(self.experts):
                for i, (w, b) in enumerate(layers):
                    out += [(f"expert.{e}.{i}.w", w), (f"expert.{e}.{i}.b", b)]
            for task, (w, b) in self.gates.items():
                out += [(f"gate.{task}.w", w), (f"gate.{task}.b", b)]
        for head in HEADS:
            for i, (w, b) in enumerate(self.towers[head]):
                out += [(f"tower.{head}.{i}.w", w), (f"tower.{head}.{i}.b", b)]
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def tower_parameters(self, head: str) -> list[Tensor]:
        return [t for pair in self.towers[head] for t in pair]

    def n_parameters(self) -> int:
        return sum(t.values.size for t in self.parameters())

    def zero_grad(self):
        for t in self.parameters():
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
        x = ng.row_gather(self.embeddings[0], ids[:, 0])
        for f in range(1, ids.shape[1]):
            x = ng.concat_cols(x, ng.row_gather(self.embeddings[f], ids[:, f]))
        return x

    @staticmethod
    def _run_mlp(x: Tensor, layers, final_linear: bool) -> Tensor:
        last = len(layers) - 1
        for i, (w, b) in enumerate(layers):
            x = ng.add(ng.matmul(x, w), b)
            if not (final_linear and i == last):
                x = ng.relu(x)
        return x

    def _mixture(self, x: Tensor, task: str) -> Tensor:
        outs = [self._run_mlp(x, self.experts[e], final_linear=False) for e in range(self.cfg.n_experts)]
        private = self.experts[self.cfg.n_experts + (0 if task == "a" else 1)]
        outs.append(self._run_mlp(x, private, final_linear=False))
        stacked = outs[0]
        for o in outs[1:]:
            stacked = ng.concat_cols(stacked, o)
        w, b = self.gates[task]
        weights = ng.row_softmax(ng.add(ng.matmul(x, w), b))
        expanded = ng.matmul(weights, self._mix_expand)
        return ng.matmul(ng.mul(stacked, expanded), self._mix_reduce)

    def forward(self, field_ids) -> HeadLogits:
        """Compute all four head logits for a batch of id rows."""
        ids = np.asarray(field_ids, dtype=np.int64)
        self._check_ids(ids)
        x = self._embed(ids)
        if self.cfg.backbone == "shared_bottom":
            h = self._run_mlp(x, self.trunk, final_linear=False)
            inputs = {head: h for head in HEADS}
        else:
            mix = {task: self._mixture(x, task) for task in ("a", "b")}
            inputs = {"a": mix["a"], "a_plus": mix["a"], "b": mix["b"], "b_plus": mix["b"]}
        logits = {
            head: self._run_mlp(inputs[head], self.towers[head], final_linear=True)
            for head in HEADS
        }
        return HeadLogits(logits["a"], logits["b"], logits["a_plus"], logits["b_plus"])

