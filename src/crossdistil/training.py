"""Bi-level training loop: a model-parameter step on the weighted sum of
teacher and student losses, then a calibration-parameter step on the Platt
cross-entropy, alternating every iteration. Also hosts the ablation-variant
wiring, evaluation, and checkpoint IO.

The variants are the keys of ``_WIRING``, in the order of the paper's
ablation table; ``VARIANTS`` names them in that order:

- ``crossdistil``: the full method (ranking teachers, calibration, correction, KD).
- ``no_auxiliary_rank``: w/o auxiliary ranking; crossdistil with pairwise teachers.
- ``no_calibration``: w/o calibration; KD from the raw teacher logits.
- ``no_correction``: w/o error correction of the KD targets.
- ``kd_same_task``: vanilla KD from a same-task teacher trained with plain CE.
- ``kd_cross_task_direct``: direct cross-task KD from the other task's student.
- ``taug``: task augmentation; ranking teachers on the shared backbone, no KD.
- ``backbone``: the two students alone.

The teacher heads train with one of four losses, by ``VariantWiring.teachers``:
``"quad"`` the quadruplet ranking loss over the pairs of ``data.RANKED[task]``,
``"pair"`` its first, pairwise term alone, ``"ce"`` plain cross-entropy on
the records, or ``"off"``. A variant that does not read a hyper-parameter
keeps it as configured: ``no_auxiliary_rank`` records the betas it ignores,
as ``taug`` records ``alpha``.

Each step samples a batch dict of row indices (``sample_step_batch``):
``records``, then the label subsets that ``SAMPLED`` names for the teacher
kind: the four ``data.QUADS`` subsets for ``"quad"``, then
``data.PAIRS["a"] + data.PAIRS["b"]`` for ``"quad"`` and ``"pair"``.
``train`` reads the same table to reject an empty subset before it builds
or evaluates anything. ``model_loss_step`` forwards every key in that order
from one place, for these heads: for ``records`` the two students, plus the
``TEACHERS`` when the variant trains or distils from them on the records;
for the rest ``FORWARDED_HEADS``, the teachers whose ``RANKED`` pairs hold
the subset (both for a quadruplet subset, one for a union). Sampling uses
three independent RNG streams (records, quadruplets, pairs) spawned from
the seed, so variants that skip a sampler still see the same record batches
step for step.

``evaluate`` forwards the rows without a tape in chunks of 4096 rows, one
after another on the calling thread. The chunk boundaries are fixed: BLAS
may sum a larger block in another order, so chunks of 8192 rows or more
change the logits. A helper thread that forwarded every other chunk sped
evaluation up only while the host's other core was idle, so on a shared
host its time swung from one run to the next.

A checkpoint is one uncompressed ``.npz``: every float64 array of the state
under its own name, plus a JSON ``header`` member with everything else (see
``save_checkpoint``). Floats round-trip bit for bit. Only this module knows
the format.
"""

from __future__ import annotations

import io
import json
import logging
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from . import losses as L
from . import metrics as M
from . import numgrad as ng
from .data import PAIRS, QUADS, RANKED, Dataset, LabelPartition, partition, sample
from .errors import (ConfigError, DegenerateLabels, NumericError, TrainingAborted, require_ints, require_object,
                     require_positive)
from .losses import CalibrationParams, HyperParams
from .model import HEADS, TASKS, TEACHERS, ModelConfig, MultiTaskNet
from .numgrad import Tensor

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class VariantWiring:
    """Which loss paths a variant activates."""

    teachers: str  # teacher heads train with "quad" (quadruplet ranking), "pair" (its pairwise term), "ce", or "off"
    distill: str  # each student distils from its "teacher", the other task's student ("cross_student"), or "off"
    calibrated: bool  # fit Platt parameters each iteration and calibrate the KD targets
    corrected: bool  # clamp distillation targets toward the hard labels


_WIRING = {
    "crossdistil": VariantWiring("quad", "teacher", True, True),
    "no_auxiliary_rank": VariantWiring("pair", "teacher", True, True),
    "no_calibration": VariantWiring("quad", "teacher", False, True),
    "no_correction": VariantWiring("quad", "teacher", True, False),
    "kd_same_task": VariantWiring("ce", "teacher", False, False),
    "kd_cross_task_direct": VariantWiring("off", "cross_student", False, False),
    "taug": VariantWiring("quad", "off", False, False),
    "backbone": VariantWiring("off", "off", False, False),
}
VARIANTS = tuple(_WIRING)


def apply_variant(variant: str) -> VariantWiring:
    if variant not in _WIRING:
        raise ConfigError(f"unknown variant {variant!r}")
    return _WIRING[variant]


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
        require_ints(self, ("batch_size", "steps", "eval_interval", "seed"))
        require_positive(self, ("gamma1", "gamma2"))
        if not isinstance(self.optimizer, str) or self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be {' or '.join(OPTIMIZERS)}, got {self.optimizer!r}")
        for name in ("batch_size", "steps", "eval_interval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if not isinstance(self.variant, str) or self.variant not in _WIRING:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


class Sgd:
    """Plain gradient descent with optional L2 weight decay folded into the grad.

    Without weight decay a parameter whose ``grad_rows`` are recorded is
    updated on those rows only, which gives the dense step's bits: every other
    row has a zero gradient. Weight decay moves every row, so it stays dense.
    """

    def __init__(self, named_params, lr: float, weight_decay: float = 0.0):
        self.named_params = list(named_params)
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self):
        for _, p in self.named_params:
            rows = slice(None) if self.weight_decay or p.grad_rows is None else p.grad_rows
            g = p.grad[rows]
            if self.weight_decay:
                g = g + self.weight_decay * p.values
            p.values[rows] -= self.lr * g


class Adam:
    """Adam with bias correction; weight decay is classic L2 added to the grad.

    Both moments decay over the whole table every step, but without weight
    decay the gradient terms are added on the recorded ``grad_rows`` only, and
    the update runs in place with two table-sized temporaries. Parameters and
    ``v`` get the dense step's bits; ``m`` gets its numbers, except that a
    moment decayed to -0.0 keeps its sign where adding a zero gradient would
    make it +0.0. Weight decay gives every row a gradient, so it stays dense.
    A gradient whose square overflows raises ``NumericError``; only the
    updated rows of ``v`` are checked.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, named_params, lr: float, weight_decay: float = 0.0):
        self.named_params = list(named_params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros(p.shape) for name, p in self.named_params}
        self.v = {name: np.zeros(p.shape) for name, p in self.named_params}

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p in self.named_params:
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            v *= self.beta2
            rows = slice(None) if self.weight_decay or p.grad_rows is None else p.grad_rows
            g = p.grad[rows]
            if self.weight_decay:
                g = g + self.weight_decay * p.values
            m[rows] += (1.0 - self.beta1) * g
            v[rows] += (1.0 - self.beta2) * g * g
            if not np.isfinite(v[rows]).all():  # an inf v would freeze the entry: its updates become m / inf = 0
                raise NumericError(f"non-finite Adam second moment of parameter '{name}'")
            # lr * (m / c1) / (sqrt(v / c2) + eps) in place, in that expression's order, for its bits
            step = m / c1
            step *= self.lr
            denom = v / c2
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p.values -= step


OPTIMIZERS = {"sgd": Sgd, "adam": Adam}


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
    return _build_state(model_cfg, dataset.vocab_sizes, dataset.field_names, cfg)


def _build_state(model_cfg: ModelConfig, vocab_sizes, field_names, cfg: TrainConfig) -> TrainState:
    net = MultiTaskNet(model_cfg, vocab_sizes, field_names)
    cal = CalibrationParams()
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    return TrainState(
        net=net,
        calibration=cal,
        opt_model=OPTIMIZERS[cfg.optimizer](net.named_parameters(), cfg.gamma1, cfg.hyper.weight_decay),
        opt_calibration=OPTIMIZERS[cfg.optimizer](cal.named_parameters(), cfg.gamma2, 0.0),
        step=0,
        rng_records=np.random.default_rng(seeds[0]),
        rng_quads=np.random.default_rng(seeds[1]),
        rng_pairs=np.random.default_rng(seeds[2]),
    )


# the label subsets each teacher kind samples, by RNG stream, in draw order
SAMPLED = {"quad": {"quads": QUADS, "pairs": PAIRS["a"] + PAIRS["b"]}, "pair": {"pairs": PAIRS["a"] + PAIRS["b"]},
           "ce": {}, "off": {}}

# the heads forwarded for each sampled subset, those of the teachers that rank it; the records' depend on the wiring
FORWARDED_HEADS = {name: tuple(f"{task}_plus" for task in TASKS if name in sum(RANKED[task], ()))
                   for name in QUADS + PAIRS["a"] + PAIRS["b"]}


def sample_step_batch(state: TrainState, part: LabelPartition, n_train: int,
                      cfg: TrainConfig, wiring: VariantWiring) -> dict[str, np.ndarray]:
    """Everything one iteration samples before touching the model, by row-set name."""
    b = cfg.batch_size
    batch = {"records": state.rng_records.integers(0, n_train, size=b)}
    for stream, names in SAMPLED[wiring.teachers].items():
        batch.update(sample(part, names, b, getattr(state, f"rng_{stream}")))
    return batch


def _distill_target(state: TrainState, wiring: VariantWiring, h: HyperParams,
                    heads: dict[str, Tensor], labels: np.ndarray, task: str) -> np.ndarray:
    """Detached soft-label logits for one task's student, per the wiring."""
    source = ("b" if task == "a" else "a") if wiring.distill == "cross_student" else f"{task}_plus"
    values = heads[source].values.copy()
    if wiring.calibrated:
        values = state.calibration.calibrate_values(values, task)
    if wiring.corrected:
        values = L.error_correct(values, labels, h.margin)
    return values


def model_loss_step(state: TrainState, ds: Dataset, batch: dict[str, np.ndarray],
                    cfg: TrainConfig, wiring: VariantWiring) -> dict[str, float]:
    """The model-parameter half of one iteration. Never touches calibration."""
    h = cfg.hyper
    components: dict[str, float] = {}
    terms: list[tuple[float, Tensor]] = []

    records = batch["records"]
    labels = {"a": ds.y_a[records], "b": ds.y_b[records]}
    reads_teachers = wiring.teachers == "ce" or wiring.distill == "teacher"
    heads_of = {**FORWARDED_HEADS, "records": HEADS if reads_teachers else TASKS}
    logits = {name: state.net.forward(ds.field_ids[rows], heads_of[name]) for name, rows in batch.items()}
    heads = logits["records"]

    if wiring.teachers != "off":
        for task in TASKS:
            teacher = f"{task}_plus"
            if wiring.teachers == "ce":
                loss = L.ce_from_logits(labels[task], heads[teacher])
            elif wiring.teachers == "quad":
                loss = L.quadruplet_loss([[logits[n][teacher] for n in pair] for pair in RANKED[task]], *h.beta(task))
            else:
                loss = L.bpr_loss(*(logits[name][teacher] for name in RANKED[task][0]))
            components[f"teacher_{task}"] = loss.item()
            terms.append((h.weight_a_plus if task == "a" else h.weight_b_plus, loss))

    for task in TASKS:
        alpha = h.alpha(task) if wiring.distill != "off" else 0.0
        kd = None
        if alpha > 0:
            target = _distill_target(state, wiring, h, heads, labels[task], task)
            kd = L.kd_loss(target, heads[task], h.temperature)
            components[f"kd_{task}"] = kd.item()
        loss = L.student_loss(labels[task], heads[task], kd, alpha)
        components[f"student_{task}"] = loss.item()
        terms.append((h.weight_a if task == "a" else h.weight_b, loss))

    kept = [(weight, term) for weight, term in terms if weight != 0]
    if not kept:
        raise ConfigError("all loss weights are zero; nothing to train")
    total = ng.weighted_sum([term for _, term in kept], [weight for weight, _ in kept])
    components["model"] = total.item()

    state.net.zero_grad()
    ng.backward(total)
    state.opt_model.step()
    return components


def calibration_step(state: TrainState, ds: Dataset, batch: dict[str, np.ndarray]) -> float:
    """The calibration half of one iteration. Never touches model parameters.

    Teacher logits are recomputed on the same record batch with the model
    held fixed, so the Platt fit always sees the post-update teacher.
    """
    records = batch["records"]
    with ng.no_grad():
        heads = state.net.forward(ds.field_ids[records], TEACHERS)
    loss = L.calibration_loss(ds.y_a[records], ds.y_b[records], heads["a_plus"], heads["b_plus"], state.calibration)
    state.calibration.zero_grad()
    ng.backward(loss)
    state.opt_calibration.step()
    return loss.item()


def train_step(state: TrainState, ds: Dataset, part: LabelPartition,
               cfg: TrainConfig, wiring: VariantWiring) -> dict[str, float]:
    """One full iteration: sample, model step, then calibration step."""
    batch = sample_step_batch(state, part, len(ds), cfg, wiring)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # _make names the op of any non-finite output
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
    cols: dict[str, list[np.ndarray]] = {h: [] for h in HEADS}
    with ng.no_grad():
        for start in range(0, len(ds), chunk):
            for name, logits in net.forward(ds.field_ids[start : start + chunk]).items():
                cols[name].append(logits.values[:, 0])
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
        (auc_s, multi_s), (auc_t, multi_t) = M.task_aucs(student, classes), M.task_aucs(teacher, classes)
        out[f"auc_{task}_student"], out[f"auc_{task}_teacher"] = auc_s, auc_t
        out[f"multi_auc_{task}_student"], out[f"multi_auc_{task}_teacher"] = multi_s, multi_t
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
    log.info("label subset sizes: %s", {name: part[name].size for name in QUADS})
    wiring = apply_variant(cfg.variant)
    if empty := [name for names in SAMPLED[wiring.teachers].values() for name in names if part[name].size == 0]:
        raise DegenerateLabels(f"variant {cfg.variant!r} samples the label subsets {empty}, "
                               "which are empty in the training data")
    if state is None:
        state = init_state(model_cfg, train_ds, cfg)
    else:
        built, data = ([(f, int(v)) for f, v in zip(x.field_names, x.vocab_sizes)]
                       for x in (state.net, train_ds))
        if built != data:
            raise ConfigError(f"the state to resume was built for fields and vocabulary sizes {built}, "
                              f"the training data has {data}")
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

CHECKPOINT_VERSION = 2
HEADER = "header"  # the npz member holding the JSON header; array names all contain a dot
RNG_STREAMS = ("records", "quads", "pairs")


def config_from_dict(d: dict) -> TrainConfig:
    hyper = require_object(require_object(d, "train").get("hyper", {}), "train.hyper")
    return TrainConfig(**{**d, "hyper": HyperParams(**hyper)})


def _adams(state: TrainState) -> dict[str, Adam]:
    opts = {"opt_model": state.opt_model, "opt_calibration": state.opt_calibration}
    return {part: opt for part, opt in opts.items() if isinstance(opt, Adam)}


def _state_arrays(state: TrainState) -> dict[str, np.ndarray]:
    """Every float64 array of a state under its checkpoint name, as live buffers."""
    params = state.net.named_parameters() + state.calibration.named_parameters()
    arrays = {name: t.values for name, t in params}
    for part, opt in _adams(state).items():
        for slot in ("m", "v"):
            arrays.update((f"{part}.{slot}.{name}", a) for name, a in getattr(opt, slot).items())
    return arrays


def save_checkpoint(path, state: TrainState, cfg: TrainConfig) -> None:
    """Write the full training state to exactly ``path`` as one uncompressed npz.

    Arrays are stored as raw float64 bytes: the net and Platt parameters
    under their ``named_parameters()`` names (``emb.user``, ``tower.a.0.w``,
    ``cal.rho_a``, ...) and each Adam moment as ``opt_model.m.<name>``,
    ``opt_calibration.v.<name>`` and so on. The ``header`` member is a JSON
    string with ``version``, ``step``, ``train_config``, ``model_config``,
    ``vocab_sizes``, ``field_names``, ``adam_t`` (each Adam's step count)
    and ``rng`` (the three bit-generator states). Arrays and the JSON floats
    (shortest repr) both round-trip bit for bit.
    """
    header = {
        "version": CHECKPOINT_VERSION,
        "step": state.step,
        "train_config": asdict(cfg),
        "model_config": asdict(state.net.cfg),
        "vocab_sizes": list(state.net.vocab_sizes),
        "field_names": list(state.net.field_names),
        "adam_t": {part: opt.t for part, opt in _adams(state).items()},
        "rng": {key: getattr(state, f"rng_{key}").bit_generator.state for key in RNG_STREAMS},
    }
    text = io.StringIO()
    json.dump(header, text)  # dump/load, not dumps/loads: bench/layertrace.py times these
    with open(path, "wb") as fh:  # a file object, so numpy appends no ".npz" to the path
        np.savez(fh, **{HEADER: np.array(text.getvalue())}, **_state_arrays(state))


def load_checkpoint(path) -> tuple[TrainState, TrainConfig]:
    """Rebuild the state as ``init_state`` does, then copy each saved array in by name."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as saved:
            header = json.load(io.StringIO(str(saved[HEADER])))
            if not isinstance(header, dict):
                raise ValueError(f"the header {json.dumps(header)[:40]} is not a JSON object")
            if header.get("version") != CHECKPOINT_VERSION:
                raise ConfigError(f"unsupported checkpoint version {header.get('version')!r}")
            cfg = config_from_dict(header["train_config"])
            state = _build_state(ModelConfig(**header["model_config"]), header["vocab_sizes"],
                                 header["field_names"], cfg)
            arrays = _state_arrays(state)
            if diff := sorted(set(saved.files) ^ {HEADER, *arrays}):
                raise ConfigError(f"checkpoint and model arrays differ in {diff[:3]}")
            for name, dst in arrays.items():
                src = saved[name]
                if src.shape != dst.shape:
                    raise ConfigError(f"array {name} has shape {src.shape}, the model needs {dst.shape}")
                if src.dtype != np.float64:  # a cast would change the bits that resume must keep
                    raise ConfigError(f"array {name} has dtype {src.dtype}, the model needs float64")
                dst[...] = src
            for part, opt in _adams(state).items():
                opt.t = header["adam_t"][part]
            for key in RNG_STREAMS:
                getattr(state, f"rng_{key}").bit_generator.state = header["rng"][key]
            state.step = header["step"]
            counts = {"step": state.step, **{f"adam_t.{part}": opt.t for part, opt in _adams(state).items()}}
            if bad := {name: n for name, n in counts.items() if type(n) is not int or n < 0}:  # type() rejects a bool
                raise ValueError(f"step counts must be nonnegative integers, got {bad}")
    except (ConfigError, OSError, ValueError, TypeError, KeyError, zipfile.BadZipFile) as e:
        raise ConfigError(f"cannot read {path} as a version-{CHECKPOINT_VERSION} checkpoint: {e}") from None
    return state, cfg
