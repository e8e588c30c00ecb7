"""Toy-size self-test of the benchmark harness.

    python3 bench/selftest.py

Runs the measured and the traced run on a tiny workload in this process and
checks that every declared metric comes out and no check fails, that a
phase without a share of the time runs only its mandatory units, and that
``--workload all`` reads no result from a crashed workload. Then breaks
the program's outputs on purpose (a perturbed reload, a non-finite loss, an
evaluation that does not repeat) and checks that each is counted as a failed
operation. Last, runs the benchmark in a directory that holds only
BENCHMARK.json and bench/ and checks that it fails without a result line.
Takes a few seconds; prints "selftest ok" on success.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

import numpy as np  # noqa: E402

TOY = run.Workload(
    "toy", run.data.SynthConfig(n_users=40, n_items=40, n_samples=2000), (0.6, 0.2, 0.2),
    "gated_experts", "adam", 0.01, "crossdistil", quality_steps=5, train_share=0.5, eval_share=0.25,
)


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def check_measured() -> None:
    ledger = run.Ledger()
    metrics, samples = run.run_measured(TOY, seed=3, seconds=0.5, ledger=ledger)
    declared = run.declared_metrics(trace=False)
    expect(set(metrics) == set(declared), f"end-to-end metrics {sorted(metrics)} != declared {sorted(declared)}")
    expect(all(math.isfinite(v) and v > 0 for v in metrics.values()), f"non-positive metric in {metrics}")
    expect(not ledger.failures and ledger.attempted > samples["steps"], f"failures: {ledger.failures}")
    expect(samples["steps"] >= TOY.quality_steps and samples["round_trips"] >= 1, f"too few samples: {samples}")


def check_zero_share_phase() -> None:
    """A phase without a share runs only its mandatory units."""
    wl = dataclasses.replace(TOY, train_share=0.75, eval_share=0.25)
    ledger = run.Ledger()
    _, samples = run.run_measured(wl, seed=3, seconds=0.5, ledger=ledger)
    expect(not ledger.failures, f"failures: {ledger.failures}")
    expect(samples["round_trips"] == 1, f"{samples['round_trips']} round trips without a checkpoint share")


def check_child_results() -> None:
    """--workload all reads a result only from a line that is one."""
    def proc(code, out):
        return subprocess.CompletedProcess([], code, out, "")
    result = '{"correct": false, "attempted": 3, "failed": 1, "metrics": {}}'
    expect(run.child_result(proc(1, f"provenance {{}}\n{result}\n"))[1] == json.loads(result), "result not read")
    for code, out in ((1, "provenance {}\nsetup_s 0.1\n"), (1, ""), (2, result)):
        expect(run.child_result(proc(code, out))[1] is None, f"a crash read as a result: {code} {out!r}")


def check_traced() -> None:
    ledger = run.Ledger()
    metrics, _ = run.run_traced(TOY, seed=3, ledger=ledger)
    declared = run.declared_metrics(trace=True)
    expect(set(declared) <= set(metrics), f"missing per-layer metrics {sorted(set(declared) - set(metrics))}")
    expect(not ledger.failures, f"failures: {ledger.failures}")
    expect(metrics["model.forward_calls_per_step"] == 10, "crossdistil runs 10 forwards per step")
    expect(metrics["numgrad.ops_per_step"] > 0 and metrics["numgrad.nonleaf_grad_mb_per_step"] > 0, "no op counts")
    expect(0 <= metrics["trace.unattributed_ms_per_step"] < metrics["trace.step_ms_per_step"], "bad attribution")
    for fn in run.training.train_step, run.training.Adam.step, run.training.Tensor.__init__:
        expect(not hasattr(fn, "__wrapped__"), f"{fn} still wrapped after the traced run")


def check_failures_are_counted() -> None:
    su = run.setup(TOY, seed=3)
    ledger = run.Ledger()
    session = run.Session(TOY, su, ledger)
    while session.quality is None:
        session.train_unit()
    expect(not ledger.failures, f"unexpected failures: {ledger.failures}")

    training = run.training
    load, evaluate, train_step = training.load_checkpoint, training.evaluate, training.train_step

    def perturbed_load(path):
        state, cfg = load(path)
        w = state.net.named_parameters()[-1][1].values
        w[0, 0] = np.nextafter(w[0, 0], np.inf)
        state.rng_pairs.integers(2)
        return state, cfg

    calls = []

    def drifting_evaluate(net, calibration, ds):
        calls.append(1)
        out = evaluate(net, calibration, ds)
        out["auc_a_student"] += 1e-12 * len(calls)
        return out

    try:
        training.load_checkpoint = perturbed_load
        session.ckpt_unit()
        training.load_checkpoint = load
        expect(any("tower.b_plus" in f and "rng_pairs" in f for f in ledger.failures),
               f"a perturbed reload went unnoticed: {ledger.failures}")

        n = len(ledger.failures)
        training.evaluate = drifting_evaluate
        session.eval_unit()
        session.eval_unit()
        training.evaluate = evaluate
        expect(len(ledger.failures) > n, "a non-repeatable evaluation went unnoticed")

        n = len(ledger.failures)
        training.train_step = lambda *a, **k: {"model": float("nan")}
        run.train_one(ledger, su)
        expect(len(ledger.failures) == n + 1, "a non-finite loss went unnoticed")
    finally:
        training.load_checkpoint, training.evaluate, training.train_step = load, evaluate, train_step


def check_fails_without_program() -> None:
    iso = run.OUT_DIR / "selftest-isolated"
    shutil.rmtree(iso, ignore_errors=True)
    try:
        (iso / "bench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", iso)
        for f in run.BENCH_DIR.glob("*.py"):
            shutil.copy(f, iso / "bench")
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "rank_gated", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=iso, capture_output=True, text=True, timeout=120, check=False)
        expect(proc.returncode != 0, "benchmark succeeded without the program")
        expect('"correct"' not in proc.stdout, f"benchmark printed a result without the program: {proc.stdout}")
    finally:
        shutil.rmtree(iso, ignore_errors=True)


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    for check in (check_measured, check_zero_share_phase, check_child_results, check_traced, check_failures_are_counted, check_fails_without_program):
        check()
        print(f"{check.__name__}: ok", flush=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
