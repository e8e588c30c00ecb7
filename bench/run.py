"""Benchmark of the crossdistil training library, end to end and by layer.

Run from the repository root:

    python3 bench/run.py --workload rank_gated --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each workload builds its inputs from ``--seed`` with the package's own
synthetic generator, then drives ``crossdistil.training`` closed-loop from
this one process with BLAS pinned to one thread: repeated set-up, a timed
training loop, repeated evaluation of the test split and checkpoint round
trips, sharing ``--seconds`` between them. Every operation's output is
checked, and the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs a fixed step
budget untraced and then twice under ``layertrace.Tracer`` and reports the
per-layer metrics. bench/README.md documents the schema, every metric and
why each workload exists.
"""

import os

# BLAS reads these when numpy loads it, so they are set before any import of numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

try:
    import crossdistil  # noqa: E402
except ImportError as exc:
    sys.exit(f"bench: cannot import crossdistil from {ROOT / 'src'}: {exc}")
if not Path(crossdistil.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"bench: crossdistil was imported from {crossdistil.__file__}, not from {ROOT / 'src'}")

from crossdistil import data, training  # noqa: E402
from crossdistil.errors import CrossDistilError  # noqa: E402
from crossdistil.model import ModelConfig  # noqa: E402
from crossdistil.training import TrainConfig  # noqa: E402

import layertrace  # noqa: E402

BATCH = 128
SETUP_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    name: str
    synth: data.SynthConfig
    split: tuple[float, float, float]  # train / valid / test fractions
    backbone: str
    optimizer: str
    lr: float  # gamma1, the model learning rate
    variant: str
    quality_steps: int  # fixed step budget behind test_multi_auc_*, and the traced budget
    train_share: float  # share of --seconds for the timed training loop
    eval_share: float  # share for repeated evaluation; checkpoint round trips get the rest


# Each workload's learning rate and step budget are chosen so that the
# student's multi-AUC after ``quality_steps`` is well above chance (about 0.67
# on every workload). On the large tables only the context fields can be
# learnt within the budget, so those workloads have 8 context fields.
WORKLOADS = {
    w.name: w for w in (
        # 10 forwards and ~570 tape ops per step on tiny tables: the tape layer dominates
        Workload("rank_gated", data.SynthConfig(), (0.8, 0.1, 0.1),
                 "gated_experts", "adam", 0.03, "crossdistil",
                 quality_steps=600, train_share=0.7, eval_share=0.15),
        # one forward per step; dense embedding grads and Adam over 1.6M params dominate.
        # Only the mandatory checkpoint round trip runs: it takes about 11 s.
        Workload("plain_bigvocab",
                 data.SynthConfig(n_users=100_000, n_items=100_000, n_context_fields=8, n_samples=100_000),
                 (0.5, 0.0, 0.5), "shared_bottom", "adam", 0.003, "backbone",
                 quality_steps=150, train_share=0.9, eval_share=0.1),
        # a 200k-row no-grad evaluation and a 0.33M-param checkpoint with Adam state dominate
        Workload("eval_ckpt", data.SynthConfig(n_users=20_000, n_items=20_000, n_context_fields=8, n_samples=250_000),
                 (0.2, 0.0, 0.8), "gated_experts", "adam", 0.003, "crossdistil",
                 quality_steps=100, train_share=0.15, eval_share=0.35),
    )
}


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


class Ledger:
    """Counts attempted operations and records the ones whose output check failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Setup:
    train_ds: data.Dataset
    test_ds: data.Dataset
    state: training.TrainState
    part: data.LabelPartition
    cfg: TrainConfig
    wiring: training.VariantWiring


def derived_seeds(seed: int) -> dict[str, int]:
    children = np.random.SeedSequence(seed).spawn(4)
    return {name: int(c.generate_state(1)[0]) for name, c in zip(("data", "split", "model", "train"), children)}


def setup(wl: Workload, seed: int) -> Setup:
    """Generation, split, ``init_state`` and ``partition``: what ``setup_s`` times."""
    s = derived_seeds(seed)
    ds, _ = data.generate_synthetic(wl.synth, np.random.default_rng(s["data"]))
    train_ds, _, test_ds = data.split_dataset(ds, wl.split, s["split"])
    cfg = TrainConfig(gamma1=wl.lr, optimizer=wl.optimizer, variant=wl.variant, batch_size=BATCH, seed=s["train"])
    state = training.init_state(ModelConfig(backbone=wl.backbone, seed=s["model"]), train_ds, cfg)
    part = data.partition(train_ds)
    return Setup(train_ds, test_ds, state, part, cfg, training.apply_variant(wl.variant))


def finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def state_mismatches(a: training.TrainState, b: training.TrainState) -> list[str]:
    """Names of the parts of two training states that are not bit-identical."""
    bad = []

    def arrays(name, x, y):
        if x.shape != y.shape or x.dtype != y.dtype or x.tobytes() != y.tobytes():
            bad.append(name)

    for part in ("net", "calibration"):
        pa, pb = getattr(a, part).named_parameters(), getattr(b, part).named_parameters()
        if [n for n, _ in pa] != [n for n, _ in pb]:
            bad.append(f"{part} parameter names")
            continue
        for (name, x), (_, y) in zip(pa, pb):
            arrays(name, x.values, y.values)
    for part in ("opt_model", "opt_calibration"):
        oa, ob = getattr(a, part), getattr(b, part)
        if type(oa) is not type(ob):
            bad.append(f"{part} type")
        elif isinstance(oa, training.Adam):
            if oa.t != ob.t:
                bad.append(f"{part}.t")
            for slot in ("m", "v"):
                sa, sb = getattr(oa, slot), getattr(ob, slot)
                if sa.keys() != sb.keys():
                    bad.append(f"{part}.{slot} names")
                    continue
                for name in sa:
                    arrays(f"{part}.{slot}.{name}", sa[name], sb[name])
    for rng in ("rng_records", "rng_quads", "rng_pairs"):
        if getattr(a, rng).bit_generator.state != getattr(b, rng).bit_generator.state:
            bad.append(rng)
    if a.step != b.step:
        bad.append("step")
    return bad


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

PHASES = ("train", "eval", "ckpt")
TRAIN_UNIT_S = 1.0  # a training unit runs steps for this long, then yields


def train_one(ledger: Ledger, su: Setup) -> tuple[float, dict[str, float]]:
    """One checked ``train_step``: its seconds and its loss components."""
    t0 = time.perf_counter()
    components = training.train_step(su.state, su.train_ds, su.part, su.cfg, su.wiring)
    seconds = time.perf_counter() - t0
    ledger.check(finite(components.values()), f"step {su.state.step}: non-finite loss {components}")
    return seconds, components


def fixed_steps(ledger: Ledger, su: Setup, k: int) -> tuple[list[float], list[dict[str, float]]]:
    steps = [train_one(ledger, su) for _ in range(k)]
    return [s for s, _ in steps], [c for _, c in steps]


class Session:
    """One trained state and the samples taken from it.

    The work comes in units: a run of closed-loop training steps, one
    evaluation of the test split, or one checkpoint round trip. Every
    output is checked as it is produced.
    """

    def __init__(self, wl: Workload, su: Setup, ledger: Ledger):
        self.wl, self.su, self.ledger = wl, su, ledger
        self.ckpt_path = OUT_DIR / f"ckpt-{wl.name}-{os.getpid()}.json"
        self.step_s: list[float] = []
        self.loop_s = 0.0  # whole training loop, per-step checks included
        self.quality: dict[str, float] | None = None  # evaluation after quality_steps steps
        self.eval_s: list[float] = []
        self.last_eval: tuple[int, dict[str, float]] | None = None  # (state.step, metrics)
        self.save_s: list[float] = []
        self.load_s: list[float] = []
        self.sizes: list[int] = []
        self.peak_rss_mb: float | None = None  # at the end of the first round trip

    def _evaluate(self, state: training.TrainState, what: str) -> tuple[dict[str, float], float]:
        t0 = time.perf_counter()
        ev = training.evaluate(state.net, state.calibration, self.su.test_ds)
        seconds = time.perf_counter() - t0
        self.ledger.check(finite(ev.values()), f"{what}: non-finite metric in {ev}")
        return ev, seconds

    def train_unit(self) -> None:
        """Steps for ``TRAIN_UNIT_S``; stops early at ``quality_steps`` to evaluate
        the fixed-budget state, outside the timed loop but as an evaluation
        sample."""
        su, k = self.su, self.wl.quality_steps
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            seconds, _ = train_one(self.ledger, su)
            self.loop_s += time.perf_counter() - t0
            self.step_s.append(seconds)
            if len(self.step_s) == k:
                self.quality, seconds = self._evaluate(su.state, f"evaluate after {k} steps")
                self.eval_s.append(seconds)
                self.last_eval = (su.state.step, self.quality)
                return
            if time.perf_counter() - start >= TRAIN_UNIT_S:
                return

    def eval_unit(self) -> None:
        """Evaluate the current state; a repeat on an unchanged state must match."""
        ev, seconds = self._evaluate(self.su.state, "evaluate")
        self.eval_s.append(seconds)
        if self.last_eval is not None and self.last_eval[0] == self.su.state.step:
            self.ledger.check(ev == self.last_eval[1], "evaluate is not repeatable")
        self.last_eval = (self.su.state.step, ev)

    def ckpt_unit(self) -> None:
        """Save → load; the reload must be bit-exact. The first reload of a
        run must also evaluate exactly as the saved state did; a later one
        is bit-exact, so its evaluation is implied and skipped to leave time
        for more round trips. That evaluation counts as an evaluation sample.

        Peak memory is read after the first round trip. Up to there the
        run's order is fixed; later units repeat the same work in an order
        set by timing, which moves the peak by up to 8% on ``eval_ckpt``
        through allocator fragmentation alone."""
        su = self.su
        first = not self.save_s
        if first and (self.last_eval is None or self.last_eval[0] != su.state.step):
            self.eval_unit()
        gc.collect()
        try:
            t0 = time.perf_counter()
            training.save_checkpoint(self.ckpt_path, su.state, su.cfg)
            t1 = time.perf_counter()
            loaded, cfg = training.load_checkpoint(self.ckpt_path)
            t2 = time.perf_counter()
            self.sizes.append(self.ckpt_path.stat().st_size)
        finally:
            self.ckpt_path.unlink(missing_ok=True)
        self.save_s.append(t1 - t0)
        self.load_s.append(t2 - t1)
        bad = state_mismatches(su.state, loaded)
        self.ledger.check(not bad and cfg == su.cfg, f"checkpoint round trip differs in {bad or 'config'}")
        if first:
            ev, seconds = self._evaluate(loaded, "evaluate after reload")
            self.eval_s.append(seconds)
            self.ledger.check(ev == self.last_eval[1], "evaluate after reload differs from before save")
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def schedule(self, seconds: float) -> None:
        """Run units for ``seconds``. First the ``quality_steps`` steps, then
        a round trip of the state they leave, so that the checkpoint behind
        ``ckpt_bytes`` and ``peak_rss_mb`` is the same for a seed. After
        that each next unit goes to the phase furthest behind its share of
        the time so far, among the phases whose next unit (judged by their
        last one) ends within ``seconds``, so that every metric samples the
        whole run. A phase with no share runs only its mandatory units, and
        its time does not count in the time the shares divide."""
        wl = self.wl
        share = {"train": wl.train_share, "eval": wl.eval_share,
                 "ckpt": round(1.0 - wl.train_share - wl.eval_share, 9)}
        shared = [p for p in PHASES if share[p] > 0]
        run = {"train": self.train_unit, "eval": self.eval_unit, "ckpt": self.ckpt_unit}
        used = dict.fromkeys(PHASES, 0.0)
        last = dict.fromkeys(PHASES, 0.0)
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if self.quality is None:
                phase = "train"
            elif not self.save_s:
                phase = "ckpt"
            else:
                fits = [p for p in shared if elapsed + last[p] <= seconds]
                if not fits:
                    return
                shared_s = sum(used[p] for p in shared)
                phase = max(fits, key=lambda p: share[p] * shared_s - used[p])
            t0 = time.perf_counter()
            run[phase]()
            last[phase] = time.perf_counter() - t0
            used[phase] += last[phase]


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


def run_measured(wl: Workload, seed: int, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics plus sample counts."""
    setup_times = []
    su = None
    for _ in range(SETUP_REPEATS):
        su = None
        gc.collect()
        t0 = time.perf_counter()
        su = setup(wl, seed)
        setup_times.append(time.perf_counter() - t0)

    gc.collect()
    session = Session(wl, su, ledger)
    session.schedule(seconds)

    # Timings are summarised by their 90th percentile: the shared machine
    # switches between a fast and a slow speed (a rank_gated step takes about
    # 19 or 29 ms, a save 45 or 80 ms), often for most of a run, so the
    # median of a run's samples and the mean behind a throughput land in
    # either level, while nearly every run has enough slow samples to fix
    # the 90th percentile. The median step and the training throughput are
    # printed without a bound, and so are the checkpoint times: a round trip
    # of a large-table state lasts seconds, so a run holds few and they
    # spread by up to 0.35 across seeds.
    step_ms = [t * 1e3 for t in session.step_s]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "step_ms_p90": quantile(step_ms, 0.9),
        "eval_rows_per_s": len(su.test_ds) / quantile(session.eval_s, 0.9),
        "ckpt_bytes": session.sizes[0],
        "peak_rss_mb": session.peak_rss_mb,
        "test_multi_auc_a": session.quality["multi_auc_a_student"],
        "test_multi_auc_b": session.quality["multi_auc_b_student"],
    }
    samples = {
        "unbounded": {
            "step_ms_p50": {"value": quantile(step_ms, 0.5), "unit": "ms"},
            "train_samples_per_s": {"value": len(step_ms) * BATCH / session.loop_s, "unit": "1/s"},
            "ckpt_save_s": {"value": quantile(session.save_s, 0.9), "unit": "s"},
            "ckpt_load_s": {"value": quantile(session.load_s, 0.9), "unit": "s"},
        },
        "setups": len(setup_times), "steps": len(step_ms), "evaluations": len(session.eval_s),
        "round_trips": len(session.save_s), "quality_steps": wl.quality_steps,
        "n_parameters": su.state.net.n_parameters(), "train_rows": len(su.train_ds),
        "test_rows": len(su.test_ds),
        "seconds": {"setup": setup_times, "step": session.step_s, "evaluate": session.eval_s,
                    "save": session.save_s, "load": session.load_s},
    }
    return metrics, samples


def run_traced(wl: Workload, seed: int, ledger: Ledger) -> tuple[dict, dict]:
    """``quality_steps`` untraced steps as the reference, then the same run
    twice under the tracer; the second pass repeats set-up and steps only."""
    gc.collect()
    ref_steps, ref_history = fixed_steps(ledger, setup(wl, seed), wl.quality_steps)

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        passes = []
        for p in range(2):
            gc.collect()
            with tracer.span("bench.setup") as setup_span:
                su = setup(wl, seed)
            before = tracer.counts()
            with tracer.span("bench.train") as train_span:
                _, history = fixed_steps(ledger, su, wl.quality_steps)
            after = tracer.counts()
            counts = {k: after.get(k, 0) - before.get(k, 0) for k in after}
            ledger.check(history == ref_history, f"traced pass {p + 1}: loss history differs from the untraced run")
            metrics = layertrace.step_metrics(tracer, train_span, wl.quality_steps, sum(su.train_ds.vocab_sizes), counts)
            if p == 0:
                metrics.update(layertrace.setup_metrics(tracer, setup_span))
                session = Session(wl, su, ledger)
                with tracer.span("bench.eval") as eval_span:
                    session.eval_unit()
                with tracer.span("bench.ckpt") as ckpt_span:
                    session.ckpt_unit()
                metrics.update(layertrace.eval_metrics(tracer, eval_span))
                metrics.update(layertrace.ckpt_metrics(tracer, ckpt_span))
                session = None
            passes.append((metrics, counts))
            su = None
    finally:
        tracer.uninstall()

    (first, first_counts), (second, second_counts) = passes
    repeated = ("numgrad.ops_per_step", "numgrad.tensors_per_step", "numgrad.nonleaf_grad_mb_per_step",
                "model.forward_calls_per_step", "model.forward_rows_per_step", "model.emb_rows_touched_frac")
    differ = [k for k in repeated if first[k] != second[k]]
    ledger.check(first_counts == second_counts and not differ,
                 f"trace counts differ between passes: {differ or 'op counters'}")

    traced_steps = [tracer.ends[i] - tracer.starts[i] for i in range(len(tracer.names))
                    if tracer.names[i] == "training.train_step"]
    first["trace.overhead_frac"] = statistics.median(traced_steps) / 1e9 / statistics.median(ref_steps) - 1.0

    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    details = {
        "quality_steps": wl.quality_steps,
        "spans": len(tracer.names),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "op_calls_per_step": {k[3:]: v / wl.quality_steps for k, v in first_counts.items() if k.startswith("op.")},
    }
    return first, details


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def provenance() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git; 'unknown'
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_metrics(trace: bool) -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    declared = declared_metrics(bool(args.trace))
    ledger = Ledger()
    prov = provenance()
    print("provenance " + json.dumps(prov), flush=True)
    try:
        if args.trace:
            values, details = run_traced(wl, args.seed, ledger)
        else:
            values, details = run_measured(wl, args.seed, args.seconds, ledger)
    except CrossDistilError as exc:
        ledger.attempted += 1
        ledger.failures.append(f"{type(exc).__name__}: {exc}")
        values, details = {}, {}

    missing = [name for name in declared if name not in values]
    if missing and not ledger.failures:
        raise RuntimeError(f"benchmark did not produce declared metrics {missing}")
    metrics = {name: {"value": values[name], "unit": m["unit"]} for name, m in declared.items() if name in values}
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6f} {m['unit']:<8} ({declared[name]['better']} is better)")
    for name, m in details.get("unbounded", {}).items():
        print(f"{name:<40} {m['value']:>16.6f} {m['unit']:<8} (no bound: unsteady on a shared machine)")
    print("samples " + json.dumps({k: v for k, v in details.items() if k not in ("seconds", "unbounded")}))
    failed = len(ledger.failures)
    print(f"fail_frac {failed / max(ledger.attempted, 1)} ({failed} of {ledger.attempted} operations)")
    for failure in ledger.failures:
        print(f"FAILED: {failure}")

    result = {"correct": not ledger.failures, "attempted": max(ledger.attempted, 1), "failed": failed,
              "metrics": metrics}
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "details": details, "failures": ledger.failures, "result": result}
    (OUT_DIR / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def child_result(proc: subprocess.CompletedProcess) -> tuple[list[str], dict | None]:
    """A workload process's stdout lines before its result, and the result;
    None when it printed none (it crashed, even with exit code 1)."""
    lines = proc.stdout.strip().splitlines()
    if proc.returncode in (0, 1) and lines and lines[-1].startswith("{") and '"correct"' in lines[-1]:
        return lines[:-1], json.loads(lines[-1])
    return lines, None


def run_all(args) -> int:
    """Each workload in its own process, one after another, so peak RSS is per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        lines, res = child_result(proc)
        print(f"== {name}")
        print("\n".join(lines))
        if res is None:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 2
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
