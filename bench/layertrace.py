"""Span tracer that splits a crossdistil run across the package's modules.

The package looks up ``ng.<op>``, ``ng.backward``, ``L.*``, ``M.*``, the
``training`` helpers and the ``MultiTaskNet`` / ``Tensor`` / optimizer
methods at call time, so replacing those attributes with timing wrappers
sees every call made inside the package without editing it. ``install``
does that and ``uninstall`` puts the originals back.

Spans are kept in memory as parallel arrays (name, start, end, parent, last
descendant) and written out by ``write``. Spans are appended when they open,
so a span's descendants are exactly the indices after it up to ``last[i]``,
and a parent always precedes its children.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import types
from array import array

import numpy as np

from crossdistil import data, losses, metrics, model, numgrad, training

# every tape op in numgrad; REPORTED_OPS are the ones with per-layer metrics
OPS = (
    "matmul", "add", "mul", "neg", "sigmoid", "exp", "log", "softplus", "relu",
    "concat_cols", "row_gather", "reduce_sum", "reduce_mean", "row_softmax", "scalar_scale",
)
REPORTED_OPS = ("matmul", "add", "mul", "relu", "concat_cols", "row_gather", "row_softmax", "softplus")

# (object, attribute, span name) for every wrapped callable
_TARGETS = (
    *((numgrad, op, f"numgrad.{op}") for op in OPS),
    (numgrad, "backward", "numgrad.backward"),
    (data, "generate_synthetic", "data.generate_synthetic"),
    (data, "split_dataset", "data.split_dataset"),
    (data, "partition", "data.partition"),
    (model.MultiTaskNet, "__init__", "model.init"),
    (model.MultiTaskNet, "forward", "model.forward"),
    (model.MultiTaskNet, "_embed", "model.embed"),
    (model.MultiTaskNet, "_mixture", "model.mixture"),
    (model.MultiTaskNet, "zero_grad", "training.zero_grad"),
    (losses.CalibrationParams, "zero_grad", "training.zero_grad"),
    (losses, "quadruplet_loss", "losses.quadruplet_loss"),
    (losses, "bpr_loss", "losses.bpr_loss"),
    (losses, "kd_loss", "losses.kd_loss"),
    (losses, "error_correct", "losses.error_correct"),
    (losses, "student_loss", "losses.student_loss"),
    (losses, "calibration_loss", "losses.calibration_loss"),
    (metrics, "auc", "metrics.auc"),
    (metrics, "multi_auc", "metrics.multi_auc"),
    (metrics, "logloss", "metrics.logloss"),
    (training, "train_step", "training.train_step"),
    (training, "sample_step_batch", "training.sample_step_batch"),
    (training, "model_loss_step", "training.model_loss_step"),
    (training, "calibration_step", "training.calibration_step"),
    (training.Sgd, "step", "training.optimizer"),
    (training.Adam, "step", "training.optimizer"),
    (training, "evaluate", "training.evaluate"),
    (training, "_forward_values", "training.evaluate_forward"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (training, "load_checkpoint", "training.load_checkpoint"),
)

RANK_LOSSES = frozenset({"losses.quadruplet_loss", "losses.bpr_loss"})
KD_LOSSES = frozenset({"losses.kd_loss", "losses.error_correct", "losses.student_loss"})
METRIC_FNS = frozenset({"metrics.auc", "metrics.multi_auc", "metrics.logloss"})


class Tracer:
    """Records spans and counters for calls into the crossdistil package."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("q")  # time.perf_counter_ns
        self.ends = array("q")
        self.last = array("q")  # index of the span's last descendant
        self._stack = [-1]
        self.op_counts: dict[str, int] = {}  # numgrad._make calls by op name
        self.tensors = 0  # Tensor.__init__ calls
        self.nonleaf_grad_bytes = 0  # grad buffers allocated for non-leaf tensors
        self.forward_ids: list[tuple[int, np.ndarray]] = []  # (forward span, id rows)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self.last.append(i)
        self._stack.append(i)
        self.starts.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter_ns()
        self._stack.pop()
        self.last[i] = len(self.names) - 1

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield i
        finally:
            self._close(i)

    def _wrapper(self, name: str, fn):
        tracer = self

        if name == "model.forward":
            def wrapper(net, field_ids, *args, **kwargs):
                i = tracer._open(name)
                tracer.forward_ids.append((i, np.asarray(field_ids)))
                try:
                    return fn(net, field_ids, *args, **kwargs)
                finally:
                    tracer._close(i)
        else:
            def wrapper(*args, **kwargs):
                i = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(i)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing hooks ---------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced callable; call ``uninstall`` to restore them."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in _TARGETS:
            self._replace(owner, attr, self._wrapper(name, owner.__dict__[attr]))

        make = numgrad._make

        def counted_make(values, op, *args, **kwargs):
            self.op_counts[op] = self.op_counts.get(op, 0) + 1
            return make(values, op, *args, **kwargs)

        self._replace(numgrad, "_make", counted_make)

        tensor_init = numgrad.Tensor.__init__

        def counted_init(t, *args, **kwargs):
            tensor_init(t, *args, **kwargs)
            self.tensors += 1
            grad = getattr(t, "grad", None)
            if grad is not None and t.op != "leaf":
                self.nonleaf_grad_bytes += grad.nbytes

        self._replace(numgrad.Tensor, "__init__", counted_init)
        self._replace(training, "json", self._json_shim())

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _json_shim(self):
        """``json`` for the training module with the file IO split into spans.

        ``dump`` serialises with ``json.dump`` itself (the same encoder path)
        into memory, then writes the text once, so the file bytes are
        unchanged; ``load`` is ``json.load`` split into its read and its
        parse.
        """
        shim = types.SimpleNamespace(**vars(json))

        def dump(obj, fp, *args, **kwargs):
            buf = io.StringIO()
            with self.span("training.ckpt_serialize"):
                json.dump(obj, buf, *args, **kwargs)
            with self.span("training.ckpt_write"):
                fp.write(buf.getvalue())

        def load(fp, *args, **kwargs):
            with self.span("training.ckpt_read"):
                text = fp.read()
            with self.span("training.ckpt_parse"):
                return json.loads(text, *args, **kwargs)

        shim.dump = dump
        shim.load = load
        return shim

    # -- counters -----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Snapshot of the counters; subtract two snapshots for a phase."""
        return {
            "ops": sum(self.op_counts.values()),
            "tensors": self.tensors,
            "nonleaf_grad_bytes": self.nonleaf_grad_bytes,
            **{f"op.{op}": n for op, n in self.op_counts.items()},
        }

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON line per span: index, parent, name, start and end in ns."""
        t0 = self.starts[0] if self.starts else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, self.parents[i], name, self.starts[i] - t0, self.ends[i] - t0]))
                fh.write("\n")


class SpanView:
    """Read-only queries over the descendants of some root spans."""

    def __init__(self, tracer: Tracer, roots):
        self.t = tracer
        self.roots = list(roots)

    def _descendants(self):
        for r in self.roots:
            yield from range(r + 1, self.t.last[r] + 1)

    def dur_ns(self, i: int) -> int:
        return self.t.ends[i] - self.t.starts[i]

    def indices(self, name: str) -> list[int]:
        names = self.t.names
        return [i for i in self._descendants() if names[i] == name]

    def total_ms(self, name: str) -> float:
        return sum(self.dur_ns(i) for i in self.indices(name)) / 1e6

    def roots_ms(self) -> float:
        return sum(self.dur_ns(r) for r in self.roots) / 1e6

    def roots_self_ms(self) -> float:
        """Root time not covered by any traced call: the gaps in the trace."""
        roots = set(self.roots)
        children = sum(self.dur_ns(i) for i in self._descendants() if self.t.parents[i] in roots)
        return self.roots_ms() - children / 1e6

    def self_ms(self, name: str) -> float:
        """Summed self time (duration minus direct children) of ``name`` spans."""
        t = self.t
        total = 0
        for i in self._descendants():
            if t.names[i] == name:
                total += self.dur_ns(i)
            elif t.names[t.parents[i]] == name:
                total -= self.dur_ns(i)
        return total / 1e6

    def outermost_ms(self, group: frozenset, names: frozenset | None = None) -> float:
        """Time in spans named in ``names`` (default ``group``) that have no
        ancestor in ``group``, so nested calls are not counted twice."""
        names = group if names is None else names
        t = self.t
        covered = {}  # span -> it or an ancestor below the roots is in group
        total = 0
        for i in self._descendants():
            inside = covered.get(t.parents[i], False)
            if t.names[i] in names and not inside:
                total += self.dur_ns(i)
            covered[i] = inside or t.names[i] in group
        return total / 1e6


def step_metrics(tracer: Tracer, phase: int, n_steps: int, vocab_total: int,
                 counts: dict[str, int]) -> dict[str, float]:
    """Per-step layer metrics over the ``training.train_step`` spans inside
    the span ``phase``. ``counts`` is the counter difference across the
    phase, which must hold nothing but the steps."""
    steps = [i for i in SpanView(tracer, [phase])._descendants() if tracer.names[i] == "training.train_step"]
    if len(steps) != n_steps:
        raise RuntimeError(f"expected {n_steps} traced steps, found {len(steps)}")
    v = SpanView(tracer, steps)
    k = float(n_steps)

    touched = []
    rows = 0
    fwd = iter(tracer.forward_ids)
    pending = next(fwd, None)
    for s in steps:
        while pending is not None and pending[0] < s:
            pending = next(fwd, None)
        ids = []
        while pending is not None and pending[0] <= tracer.last[s]:
            ids.append(pending[1])
            pending = next(fwd, None)
        if ids:
            stacked = np.concatenate(ids, axis=0)
            rows += stacked.shape[0]
            touched.append(sum(np.unique(stacked[:, f]).size for f in range(stacked.shape[1])))
        else:
            touched.append(0)

    out = {
        "data.sample_ms_per_step": v.total_ms("training.sample_step_batch") / k,
        "model.forward_calls_per_step": len(v.indices("model.forward")) / k,
        "model.forward_rows_per_step": rows / k,
        "model.forward_ms_per_step": v.total_ms("model.forward") / k,
        "model.embed_ms_per_step": v.total_ms("model.embed") / k,
        "model.mixture_ms_per_step": v.total_ms("model.mixture") / k,
        "model.emb_rows_touched_frac": float(np.mean(touched)) / vocab_total,
        "numgrad.ops_per_step": counts["ops"] / k,
        "numgrad.tensors_per_step": counts["tensors"] / k,
        "numgrad.nonleaf_grad_mb_per_step": counts["nonleaf_grad_bytes"] / 1e6 / k,
        "numgrad.backward_ms_per_step": v.total_ms("numgrad.backward") / k,
    }
    for op in REPORTED_OPS:
        out[f"numgrad.{op}.calls_per_step"] = len(v.indices(f"numgrad.{op}")) / k
        out[f"numgrad.{op}.ms_per_step"] = v.total_ms(f"numgrad.{op}") / k
    out.update({
        "losses.rank_ms_per_step": v.outermost_ms(RANK_LOSSES) / k,
        "losses.kd_ms_per_step": v.outermost_ms(KD_LOSSES) / k,
        "losses.calibration_ms_per_step": v.total_ms("losses.calibration_loss") / k,
        "training.model_loss_step_self_ms": v.self_ms("training.model_loss_step") / k,
        "training.optimizer_ms_per_step": v.total_ms("training.optimizer") / k,
        "training.zero_grad_ms_per_step": v.outermost_ms(frozenset({"training.zero_grad"})) / k,
        "training.calibration_step_ms": v.total_ms("training.calibration_step") / k,
        "trace.step_ms_per_step": v.roots_ms() / k,
        "trace.unattributed_ms_per_step": v.roots_self_ms() / k,
    })
    return out


def setup_metrics(tracer: Tracer, phase: int) -> dict[str, float]:
    v = SpanView(tracer, [phase])
    return {
        "data.generate_synthetic_s": v.total_ms("data.generate_synthetic") / 1e3,
        "data.partition_s": v.total_ms("data.partition") / 1e3,
        "model.init_s": v.total_ms("model.init") / 1e3,
    }


def eval_metrics(tracer: Tracer, phase: int) -> dict[str, float]:
    v = SpanView(tracer, [phase])
    n = float(len(v.indices("training.evaluate")))
    return {
        "training.evaluate_forward_ms": v.total_ms("training.evaluate_forward") / n,
        **{
            f"{name}_ms_per_eval": v.outermost_ms(METRIC_FNS, frozenset({name})) / n
            for name in ("metrics.auc", "metrics.multi_auc", "metrics.logloss")
        },
    }


def ckpt_metrics(tracer: Tracer, phase: int) -> dict[str, float]:
    v = SpanView(tracer, [phase])
    n = float(len(v.indices("training.save_checkpoint")))
    write = v.total_ms("training.ckpt_write")
    read = v.total_ms("training.ckpt_read")
    return {
        "training.ckpt_encode_s": (v.total_ms("training.save_checkpoint") - write) / 1e3 / n,
        "training.ckpt_write_s": write / 1e3 / n,
        "training.ckpt_read_s": read / 1e3 / n,
        "training.ckpt_decode_s": (v.total_ms("training.load_checkpoint") - read) / 1e3 / n,
    }
