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

A checkpoint is one uncompressed ``.npz`` of version 3: every float64 array
of the state under its own name, plus a JSON ``header`` member with
everything else (see ``save_checkpoint``). Ids that no batch has drawn leave
all-zero rows in the Adam moments of their tables, so a moment pair keeps
only its rows that hold a nonzero byte, with one int64 ``<part>.rows.<name>``
member listing them, wherever that makes the file smaller: when 16 B per
column of each left-out row exceed 8 B per kept row plus ``MEMBER_BYTES``.
A version-2 file, which has no rows members, loads through the same code.
Floats round-trip bit for bit. Only this module knows the format.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import os
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from . import losses as L
from . import metrics as M
from . import numgrad as ng
from .data import PAIRS, QUADS, RANKED, Dataset, LabelPartition, partition, sample
from .errors import (ConfigError, DegenerateLabels, NumericError, TrainingAborted, require_ints, require_keys,
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
        teachers = ("weight_a_plus", "weight_b_plus") if _WIRING[self.variant].teachers != "off" else ()
        if not any(getattr(self.hyper, name) for name in ("weight_a", "weight_b", *teachers)):
            raise ConfigError(f"all loss weights are zero; nothing to train (variant {self.variant!r})")


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


def _rows_and_grad(p: Tensor, weight_decay: float) -> tuple[slice | np.ndarray, np.ndarray]:
    """The rows of ``p`` a step updates, and their gradient: the recorded ``grad_rows`` alone without
    weight decay (every other row has a zero gradient, so the step keeps the dense step's bits), else
    every row, with classic L2 weight decay added to the grad."""
    if weight_decay:
        return slice(None), p.grad + weight_decay * p.values
    rows = slice(None) if p.grad_rows is None else p.grad_rows
    return rows, p.grad[rows]


class Sgd:
    """Plain gradient descent over the name -> tensor dict ``params``, on the rows ``_rows_and_grad`` picks."""

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self):
        for p in self.params.values():
            rows, g = _rows_and_grad(p, self.weight_decay)
            p.values[rows] -= self.lr * g


ADAM_BLOCK = 1 << 16  # elements per block of Adam's update; blocks of 32k to 128k elements ran equally fast


class Adam:
    """Adam with bias correction over the name -> tensor dict ``params``; moments ``m`` and ``v`` share its keys.

    Both moments decay over the whole table every step, but the gradient terms
    are added on the rows ``_rows_and_grad`` picks only, and the update runs in
    place over blocks of rows, with two temporaries of at most ``ADAM_BLOCK``
    elements (or one row, if wider) each. Parameters and ``v`` get the dense
    step's bits; ``m`` gets its numbers, except that a moment decayed to -0.0
    keeps its sign where adding a zero gradient would make it +0.0. A gradient
    whose square overflows raises ``NumericError``; only the updated rows of
    ``v`` are checked.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros(p.shape) for name, p in params.items()}
        self.v = {name: np.zeros(p.shape) for name, p in params.items()}

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            v *= self.beta2
            rows, g = _rows_and_grad(p, self.weight_decay)
            m[rows] += (1.0 - self.beta1) * g
            v[rows] += (1.0 - self.beta2) * g * g
            if not np.isfinite(v[rows]).all():  # an inf v would freeze the entry: its updates become m / inf = 0
                raise NumericError(f"non-finite Adam second moment of parameter '{name}'")
            # lr * (m / c1) / (sqrt(v / c2) + eps) in place, in that expression's order, for its bits;
            # elementwise, so blocks of rows give the same bits with cache-sized temporaries
            block = max(1, ADAM_BLOCK // m.shape[1])
            for start in range(0, len(m), block):
                r = slice(start, start + block)
                step = m[r] / c1
                step *= self.lr
                denom = v[r] / c2
                np.sqrt(denom, out=denom)
                denom += self.eps
                step /= denom
                p.values[r] -= step


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
        opt_model=OPTIMIZERS[cfg.optimizer](net.params, cfg.gamma1, cfg.hyper.weight_decay),
        opt_calibration=OPTIMIZERS[cfg.optimizer](cal.params, cfg.gamma2, 0.0),
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
    out = {h: np.empty(len(ds)) for h in HEADS}
    with ng.no_grad():
        for start in range(0, len(ds), chunk):
            rows = slice(start, start + chunk)
            for name, logits in net.forward(ds.field_ids[rows]).items():
                out[name][rows] = logits.values[:, 0]
    return out


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

CHECKPOINT_VERSION = 3
READABLE_VERSIONS = (2, 3)  # version 2 has no rows members; the same code reads it
HEADER = "header"  # the npz member holding the JSON header; array names all contain a dot
RNG_STREAMS = ("records", "quads", "pairs")
# what one more npz member costs besides its data: its zip and npy headers come to
# 232 B plus twice its name's length, and a rows member's name runs to about 35 characters
MEMBER_BYTES = 300


def config_from_dict(d: dict) -> TrainConfig:
    hyper = require_keys(require_keys(d, TrainConfig, "train.").get("hyper", {}), HyperParams, "train.hyper.")
    return TrainConfig(**{**d, "hyper": HyperParams(**hyper)})


def _adams(state: TrainState) -> dict[str, Adam]:
    opts = {"opt_model": state.opt_model, "opt_calibration": state.opt_calibration}
    return {part: opt for part, opt in opts.items() if isinstance(opt, Adam)}


def _state_arrays(state: TrainState) -> dict[str, np.ndarray]:
    """Every float64 array of a state under its checkpoint name, as live buffers."""
    arrays = {name: t.values for name, t in {**state.net.params, **state.calibration.params}.items()}
    for part, opt in _adams(state).items():
        for slot in ("m", "v"):
            arrays.update((f"{part}.{slot}.{name}", a) for name, a in getattr(opt, slot).items())
    return arrays


def _moment_pairs(state: TrainState) -> dict[str, tuple[str, str]]:
    """The rows member of each Adam moment pair, to the names of its ``m`` and ``v``."""
    return {f"{part}.rows.{name}": (f"{part}.m.{name}", f"{part}.v.{name}")
            for part, opt in _adams(state).items() for name in opt.m}


def _kept_rows(m: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """The rows of a moment pair that hold a nonzero byte (a -0.0 counts), or
    None when leaving the other rows out would not make the file smaller."""
    nonzero = (m.view(np.int64) != 0) | (v.view(np.int64) != 0)
    kept = np.flatnonzero(nonzero @ np.ones(m.shape[1], bool))  # any() by row; on short rows a bool matmul is faster
    left_out = 16 * m.shape[1] * (len(m) - len(kept))
    return kept if left_out > 8 * len(kept) + MEMBER_BYTES else None


def _saved_rows(name: str, rows: np.ndarray, n: int) -> np.ndarray:
    """A saved rows member, checked against a table of ``n`` rows."""
    if rows.dtype != np.int64 or rows.ndim != 1:
        raise ConfigError(f"array {name} has dtype {rows.dtype} and shape {rows.shape}, rows need 1-D int64")
    if (np.diff(rows) <= 0).any():
        raise ConfigError(f"array {name} does not list rows in increasing order")
    if len(rows) and (rows[0] < 0 or rows[-1] >= n):
        raise ConfigError(f"array {name} lists a row outside [0, {n})")
    return rows


def save_checkpoint(path, state: TrainState, cfg: TrainConfig) -> None:
    """Write the full training state to exactly ``path`` as one uncompressed npz.

    Arrays are stored as raw float64 bytes: the net and Platt parameters
    under their ``params`` names (``emb.user``, ``tower.a.0.w``,
    ``cal.rho_a``, ...) and each Adam moment as ``opt_model.m.<name>``,
    ``opt_calibration.v.<name>`` and so on. A moment pair whose all-zero rows
    outweigh a rows member (16 B per column of each such row against 8 B per
    kept row and ``MEMBER_BYTES``) keeps only its other rows, listed in
    increasing order by the int64 member ``<part>.rows.<name>``. The
    ``header`` member is a JSON string with ``version``, ``step``,
    ``train_config``, ``model_config``, ``vocab_sizes``, ``field_names``,
    ``adam_t`` (each Adam's step count) and ``rng`` (the three bit-generator
    states). Arrays and the JSON floats (shortest repr) both round-trip bit
    for bit.

    The file is written beside ``path`` and then renamed onto it, so a save
    that fails leaves any checkpoint already at ``path`` as it was.
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
    arrays = _state_arrays(state)
    for rows_name, pair in _moment_pairs(state).items():
        if (rows := _kept_rows(*(arrays[name] for name in pair))) is not None:
            arrays[rows_name] = rows
            arrays.update({name: np.take(arrays[name], rows, axis=0) for name in pair})
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:  # a file object, so numpy appends no ".npz" to the path
            np.savez(fh, **{HEADER: np.array(text.getvalue())}, **arrays)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def load_checkpoint(path) -> tuple[TrainState, TrainConfig]:
    """Rebuild the state as ``init_state`` does, then copy each saved array in
    by name; a compacted moment pair is scattered into its saved rows of the
    zero moments the rebuild made. Reads versions 2 and 3."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as saved:
            header = json.load(io.StringIO(str(saved[HEADER])))
            if not isinstance(header, dict):
                raise ValueError(f"the header {json.dumps(header)[:40]} is not a JSON object")
            if header.get("version") not in READABLE_VERSIONS:
                raise ConfigError(f"unsupported checkpoint version {header.get('version')!r}")
            cfg = config_from_dict(header["train_config"])
            model_cfg = dict(header["model_config"])
            model_cfg.pop("activation", None)  # headers from when ModelConfig had this field hold "relu", its one value
            state = _build_state(ModelConfig(**model_cfg), header["vocab_sizes"], header["field_names"], cfg)
            arrays = _state_arrays(state)
            pairs = {rows_name: pair for rows_name, pair in _moment_pairs(state).items() if rows_name in saved.files}
            if diff := sorted(set(saved.files) ^ {HEADER, *arrays, *pairs}):
                raise ConfigError(f"checkpoint and model arrays differ in {diff[:3]}")
            rows_of = {}
            for rows_name, pair in pairs.items():
                rows_of.update(dict.fromkeys(pair, _saved_rows(rows_name, saved[rows_name], len(arrays[pair[0]]))))
            for name, dst in arrays.items():
                src = saved[name]
                rows = rows_of.get(name, slice(None))
                need = (len(rows), *dst.shape[1:]) if name in rows_of else dst.shape
                if src.shape != need:
                    raise ConfigError(f"array {name} has shape {src.shape}, the model needs {need}")
                if src.dtype != np.float64:  # a cast would change the bits that resume must keep
                    raise ConfigError(f"array {name} has dtype {src.dtype}, the model needs float64")
                dst[rows] = src
            for part, opt in _adams(state).items():
                opt.t = header["adam_t"][part]
            for key in RNG_STREAMS:
                getattr(state, f"rng_{key}").bit_generator.state = header["rng"][key]
            state.step = header["step"]
            counts = {"step": state.step, **{f"adam_t.{part}": opt.t for part, opt in _adams(state).items()}}
            if bad := {name: n for name, n in counts.items() if type(n) is not int or n < 0}:  # type() rejects a bool
                raise ValueError(f"step counts must be nonnegative integers, got {bad}")
    except (ConfigError, OSError, ValueError, TypeError, KeyError, zipfile.BadZipFile) as e:
        versions = " or ".join(map(str, READABLE_VERSIONS))
        raise ConfigError(f"cannot read {path} as a checkpoint of version {versions}: {e}") from None
    return state, cfg
