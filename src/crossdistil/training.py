"""Bi-level training loop: a model-parameter step on the weighted sum of
teacher and student losses, then a calibration-parameter step on the Platt
cross-entropy, alternating every iteration. Also hosts the ablation-variant
wiring, evaluation, and checkpoint IO.

The variants, in the order of the paper's ablation table:

- ``crossdistil``: the full method (ranking teachers, calibration, correction, KD).
- ``no_auxiliary_rank``: w/o auxiliary ranking; crossdistil with zero betas.
- ``no_calibration``: w/o calibration; KD from the raw teacher logits.
- ``no_correction``: w/o error correction of the KD targets.
- ``kd_same_task``: vanilla KD from a same-task teacher trained with plain CE.
- ``kd_cross_task_direct``: direct cross-task KD from the other task's student.
- ``taug``: task augmentation; ranking teachers on the shared backbone, no KD.
- ``backbone``: the two students alone.

``TrainConfig`` zeroes ``beta1_*``/``beta2_*`` for ``no_auxiliary_rank``.

Sampling uses three independent RNG streams (record batch, quadruplets,
pairs) spawned from the seed, so variants that skip a sampler still see the
same record batches step for step.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import losses as L
from . import metrics as M
from . import numgrad as ng
from .data import (
    Dataset,
    LabelPartition,
    PairBatch,
    QuadrupletBatch,
    partition,
    sample_pairs,
    sample_quadruplets,
)
from .errors import ConfigError, NumericError, TrainingAborted
from .losses import CalibrationParams, HyperParams
from .model import HeadLogits, ModelConfig, MultiTaskNet
from .numgrad import Tensor

log = logging.getLogger(__name__)

VARIANTS = (
    "crossdistil",
    "no_auxiliary_rank",
    "no_calibration",
    "no_correction",
    "kd_same_task",
    "kd_cross_task_direct",
    "taug",
    "backbone",
)

TASKS = ("a", "b")


@dataclass(frozen=True)
class TrainConfig:
    gamma1: float = 0.01  # learning rate for model parameters
    gamma2: float = 0.05  # learning rate for calibration parameters
    optimizer: str = "sgd"
    batch_size: int = 128
    steps: int = 500
    eval_interval: int = 100
    seed: int = 0
    variant: str = "crossdistil"
    hyper: HyperParams = field(default_factory=HyperParams)

    def __post_init__(self):
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ConfigError("learning rates must be positive")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"optimizer must be sgd or adam, got {self.optimizer!r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if self.eval_interval < 1:
            raise ConfigError("eval_interval must be at least 1")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant == "no_auxiliary_rank":
            object.__setattr__(self, "hyper", replace(
                self.hyper, beta1_a=0.0, beta2_a=0.0, beta1_b=0.0, beta2_b=0.0))


@dataclass(frozen=True)
class VariantWiring:
    """Which loss paths a variant activates."""

    rank_teachers: bool  # teacher heads trained with the quadruplet ranking loss
    regression_teachers: bool  # teacher heads trained with plain CE (vanilla-KD setup)
    distill: str  # "teacher", "cross_student", or "off"
    calibrated: bool  # fit Platt parameters each iteration and calibrate the KD targets
    corrected: bool  # clamp distillation targets toward the hard labels


_WIRING = {
    "crossdistil": VariantWiring(True, False, "teacher", True, True),
    "no_auxiliary_rank": VariantWiring(True, False, "teacher", True, True),
    "no_calibration": VariantWiring(True, False, "teacher", False, True),
    "no_correction": VariantWiring(True, False, "teacher", True, False),
    "kd_same_task": VariantWiring(False, True, "teacher", False, False),
    "kd_cross_task_direct": VariantWiring(False, False, "cross_student", False, False),
    "taug": VariantWiring(True, False, "off", False, False),
    "backbone": VariantWiring(False, False, "off", False, False),
}


def apply_variant(variant: str) -> VariantWiring:
    if variant not in _WIRING:
        raise ConfigError(f"unknown variant {variant!r}")
    return _WIRING[variant]


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


class Sgd:
    """Plain gradient descent with optional L2 weight decay folded into the grad."""

    kind = "sgd"

    def __init__(self, named_params, lr: float, weight_decay: float = 0.0):
        self.named_params = list(named_params)
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self):
        for _, p in self.named_params:
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.values
            p.values -= self.lr * g

    def state_dict(self) -> dict:
        return {"kind": self.kind}

    def load_state_dict(self, state: dict):
        pass


class Adam:
    """Adam with bias correction; weight decay is classic L2 added to the grad."""

    kind = "adam"

    def __init__(self, named_params, lr: float, weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.named_params = list(named_params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p.values) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.values) for name, p in self.named_params}

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p in self.named_params:
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.values
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.values -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def state_dict(self) -> dict:
        return {
            "kind": self.kind,
            "t": self.t,
            "m": {k: v.tolist() for k, v in self.m.items()},
            "v": {k: v.tolist() for k, v in self.v.items()},
        }

    def load_state_dict(self, state: dict):
        self.t = int(state["t"])
        for k in self.m:
            self.m[k][...] = np.asarray(state["m"][k])
            self.v[k][...] = np.asarray(state["v"][k])


def make_optimizer(kind: str, named_params, lr: float, weight_decay: float = 0.0):
    if kind == "sgd":
        return Sgd(named_params, lr, weight_decay)
    if kind == "adam":
        return Adam(named_params, lr, weight_decay)
    raise ConfigError(f"unknown optimizer {kind!r}")


# ---------------------------------------------------------------------------
# training state
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    net: MultiTaskNet
    calibration: CalibrationParams
    opt_model: Sgd | Adam
    opt_calibration: Sgd | Adam
    step: int
    rng_records: np.random.Generator
    rng_quads: np.random.Generator
    rng_pairs: np.random.Generator


def init_state(model_cfg: ModelConfig, dataset: Dataset, cfg: TrainConfig) -> TrainState:
    net = MultiTaskNet(model_cfg, dataset.vocab_sizes, dataset.field_names)
    cal = CalibrationParams()
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    return TrainState(
        net=net,
        calibration=cal,
        opt_model=make_optimizer(cfg.optimizer, net.named_parameters(), cfg.gamma1, cfg.hyper.weight_decay),
        opt_calibration=make_optimizer(cfg.optimizer, cal.named_parameters(), cfg.gamma2, 0.0),
        step=0,
        rng_records=np.random.default_rng(seeds[0]),
        rng_quads=np.random.default_rng(seeds[1]),
        rng_pairs=np.random.default_rng(seeds[2]),
    )


@dataclass(frozen=True)
class StepBatch:
    """Everything one iteration samples before touching the model."""

    records: np.ndarray
    quads: QuadrupletBatch | None
    pairs_a: PairBatch | None
    pairs_b: PairBatch | None


def sample_step_batch(state: TrainState, part: LabelPartition, n_train: int,
                      cfg: TrainConfig, wiring: VariantWiring) -> StepBatch:
    b = cfg.batch_size
    records = state.rng_records.integers(0, n_train, size=b)
    quads = pairs_a = pairs_b = None
    if wiring.rank_teachers:
        if any(v > 0 for task in TASKS for v in cfg.hyper.beta(task)):
            quads = sample_quadruplets(part, b, state.rng_quads)
        pairs_a = sample_pairs(part, "a", b, state.rng_pairs)
        pairs_b = sample_pairs(part, "b", b, state.rng_pairs)
    return StepBatch(records, quads, pairs_a, pairs_b)


def _distill_target(state: TrainState, wiring: VariantWiring, h: HyperParams,
                    heads: HeadLogits, labels: np.ndarray, task: str) -> np.ndarray:
    """Detached soft-label logits for one task's student, per the wiring."""
    if wiring.distill == "cross_student":
        source = heads.head("b" if task == "a" else "a")
    else:
        source = heads.head(f"{task}_plus")
    values = source.values.copy()
    if wiring.calibrated:
        values = state.calibration.calibrate_values(values, task)
    if wiring.corrected:
        values = L.error_correct(values, labels, h.margin)
    return values


def model_loss_step(state: TrainState, ds: Dataset, batch: StepBatch,
                    cfg: TrainConfig, wiring: VariantWiring) -> dict[str, float]:
    """The model-parameter half of one iteration. Never touches calibration."""
    h = cfg.hyper
    components: dict[str, float] = {}
    terms: list[tuple[float, Tensor]] = []

    ids = ds.field_ids[batch.records]
    labels = {"a": ds.y_a[batch.records], "b": ds.y_b[batch.records]}
    heads = state.net.forward(ids)

    teacher_losses: dict[str, Tensor] = {}
    if wiring.rank_teachers:
        quad_heads = None
        if batch.quads is not None:
            quad_heads = [
                state.net.forward(ds.field_ids[getattr(batch.quads, name)])
                for name in ("pos_pos", "pos_neg", "neg_pos", "neg_neg")
            ]
        for task, pairs in (("a", batch.pairs_a), ("b", batch.pairs_b)):
            teacher = f"{task}_plus"
            pos = state.net.forward(ds.field_ids[pairs.pos]).head(teacher)
            neg = state.net.forward(ds.field_ids[pairs.neg]).head(teacher)
            if quad_heads is None:
                loss = L.bpr_loss(pos, neg)
            else:
                loss = L.quadruplet_loss(
                    task, *(q.head(teacher) for q in quad_heads), pos, neg, *h.beta(task))
            teacher_losses[task] = loss
    elif wiring.regression_teachers:
        for task in TASKS:
            teacher_losses[task] = L.ce_from_logits(labels[task], heads.head(f"{task}_plus"))
    for task, loss in teacher_losses.items():
        components[f"teacher_{task}"] = loss.item()
        terms.append((h.weight_a_plus if task == "a" else h.weight_b_plus, loss))

    for task in TASKS:
        alpha = h.alpha(task) if wiring.distill != "off" else 0.0
        kd = None
        if alpha > 0:
            target = _distill_target(state, wiring, h, heads, labels[task], task)
            kd = L.kd_loss(target, heads.head(task), h.temperature)
            components[f"kd_{task}"] = kd.item()
        loss = L.student_loss(labels[task], heads.head(task), kd, alpha)
        components[f"student_{task}"] = loss.item()
        terms.append((h.weight_a if task == "a" else h.weight_b, loss))

    total = None
    for weight, term in terms:
        if weight == 0:
            continue
        scaled = ng.scalar_scale(term, weight)
        total = scaled if total is None else ng.add(total, scaled)
    if total is None:
        raise ConfigError("all loss weights are zero; nothing to train")
    components["model"] = total.item()

    state.net.zero_grad()
    ng.backward(total)
    state.opt_model.step()
    return components


def calibration_step(state: TrainState, ds: Dataset, batch: StepBatch) -> float:
    """The calibration half of one iteration. Never touches model parameters.

    Teacher logits are recomputed on the same record batch with the model
    held fixed, so the Platt fit always sees the post-update teacher.
    """
    ids = ds.field_ids[batch.records]
    with ng.no_grad():
        heads = state.net.forward(ids)
    loss = L.calibration_loss(
        ds.y_a[batch.records], ds.y_b[batch.records],
        heads.r_a_plus, heads.r_b_plus, state.calibration,
    )
    state.calibration.zero_grad()
    ng.backward(loss)
    state.opt_calibration.step()
    return loss.item()


def train_step(state: TrainState, ds: Dataset, part: LabelPartition,
               cfg: TrainConfig, wiring: VariantWiring | None = None) -> dict[str, float]:
    """One full iteration: sample, model step, then calibration step."""
    wiring = wiring or apply_variant(cfg.variant)
    batch = sample_step_batch(state, part, len(ds), cfg, wiring)
    try:
        components = model_loss_step(state, ds, batch, cfg, wiring)
        if wiring.calibrated:
            components["calibration"] = calibration_step(state, ds, batch)
    except NumericError as e:
        raise TrainingAborted(f"step {state.step + 1}: {e}") from e
    state.step += 1
    return components


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _forward_values(net: MultiTaskNet, ds: Dataset, chunk: int = 4096) -> dict[str, np.ndarray]:
    cols: dict[str, list[np.ndarray]] = {h: [] for h in ("a", "b", "a_plus", "b_plus")}
    with ng.no_grad():
        for start in range(0, len(ds), chunk):
            heads = net.forward(ds.field_ids[start : start + chunk])
            for name in cols:
                cols[name].append(heads.head(name).values[:, 0])
    return {name: np.concatenate(parts) if parts else np.zeros(0) for name, parts in cols.items()}


def evaluate(net: MultiTaskNet, calibration: CalibrationParams, ds: Dataset) -> dict[str, float]:
    """Ranking and calibration metrics for all four heads on a dataset.

    Ranking metrics use raw logits (they are monotone-invariant); log loss
    uses sigmoid probabilities, and for teachers both the raw and the
    Platt-calibrated versions are reported.
    """
    scores = _forward_values(net, ds)
    out: dict[str, float] = {}
    for task in TASKS:
        y = ds.y_a if task == "a" else ds.y_b
        classes = M.class_of(ds.y_a, ds.y_b, task)
        student = scores[task]
        teacher = scores[f"{task}_plus"]
        out[f"auc_{task}_student"] = M.auc(student, y)
        out[f"auc_{task}_teacher"] = M.auc(teacher, y)
        out[f"multi_auc_{task}_student"] = M.multi_auc(student, classes, 4)
        out[f"multi_auc_{task}_teacher"] = M.multi_auc(teacher, classes, 4)
        out[f"logloss_{task}_student"] = M.logloss(y, ng.sigmoid_values(student))
        out[f"logloss_{task}_teacher_raw"] = M.logloss(y, ng.sigmoid_values(teacher))
        out[f"logloss_{task}_teacher_cal"] = M.logloss(
            y, ng.sigmoid_values(calibration.calibrate_values(teacher, task))
        )
    return out


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


def train(train_ds: Dataset, eval_ds: Dataset, model_cfg: ModelConfig, cfg: TrainConfig,
          state: TrainState | None = None) -> tuple[TrainState, list[dict]]:
    """Run the fixed step budget, evaluating every ``eval_interval`` steps.

    Returns the final state and the metric history (one record per eval,
    including one for the initial parameters when starting fresh).
    """
    if len(train_ds) == 0:
        raise ConfigError("training dataset is empty")
    part = partition(train_ds)
    log.info("label subset sizes: %s", part.sizes())
    wiring = apply_variant(cfg.variant)
    if state is None:
        state = init_state(model_cfg, train_ds, cfg)
    history: list[dict] = []
    if state.step == 0:
        history.append({"step": 0, "train": {}, "eval": evaluate(state.net, state.calibration, eval_ds)})
    while state.step < cfg.steps:
        components = train_step(state, train_ds, part, cfg, wiring)
        if state.step % cfg.eval_interval == 0 or state.step == cfg.steps:
            history.append({
                "step": state.step,
                "train": components,
                "eval": evaluate(state.net, state.calibration, eval_ds),
            })
    return state, history


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def config_from_dict(d: dict) -> TrainConfig:
    d = dict(d)
    hyper = HyperParams(**d.pop("hyper", {}))
    return TrainConfig(hyper=hyper, **d)


def save_checkpoint(path, state: TrainState, cfg: TrainConfig) -> None:
    """Serialize the full training state as JSON; floats round-trip exactly."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "step": state.step,
        "train_config": asdict(cfg),
        "model": state.net.state_dict(),
        "calibration": state.calibration.state_dict(),
        "opt_model": state.opt_model.state_dict(),
        "opt_calibration": state.opt_calibration.state_dict(),
        "rng": {
            "records": state.rng_records.bit_generator.state,
            "quads": state.rng_quads.bit_generator.state,
            "pairs": state.rng_pairs.bit_generator.state,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> tuple[TrainState, TrainConfig]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {payload.get('version')!r}")
    cfg = config_from_dict(payload["train_config"])
    net = MultiTaskNet.from_state_dict(payload["model"])
    cal = CalibrationParams.from_state_dict(payload["calibration"])
    opt_model = make_optimizer(cfg.optimizer, net.named_parameters(), cfg.gamma1, cfg.hyper.weight_decay)
    opt_model.load_state_dict(payload["opt_model"])
    opt_cal = make_optimizer(cfg.optimizer, cal.named_parameters(), cfg.gamma2, 0.0)
    opt_cal.load_state_dict(payload["opt_calibration"])
    rngs = []
    for key in ("records", "quads", "pairs"):
        gen = np.random.default_rng(0)
        gen.bit_generator.state = payload["rng"][key]
        rngs.append(gen)
    state = TrainState(
        net=net, calibration=cal, opt_model=opt_model, opt_calibration=opt_cal,
        step=int(payload["step"]),
        rng_records=rngs[0], rng_quads=rngs[1], rng_pairs=rngs[2],
    )
    return state, cfg
