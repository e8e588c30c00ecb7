"""The benchmark imports and wraps package names at call time; its self-test
fails when a refactor drops or renames one of them."""

import json
import subprocess
import sys
from pathlib import Path

from crossdistil import cli, losses, model, numgrad, training

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_name_is_defined_where_the_tracer_replaces_it(monkeypatch):
    """The tracer swaps ``owner.__dict__[attr]`` for each of its targets, the op
    counter and the checkpoint JSON shim, and ``bench/`` is the only caller of
    the parameter accessors; a renamed one fails here, not only in the
    self-test's subprocess."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layertrace

    targets = [(owner, attr) for owner, attr, _ in layertrace._TARGETS]
    targets += [(numgrad, "_make"), (numgrad.Tensor, "__init__"), (training, "json")]
    targets += [(model.MultiTaskNet, "named_parameters"), (model.MultiTaskNet, "n_parameters"),
                (losses.CalibrationParams, "named_parameters")]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in targets if attr not in vars(owner)]
    assert not missing


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest ok" in proc.stdout


def test_bench_seed_split_matches_the_cli():
    """``bench/run.py`` keeps its own copy of ``cli._derived_seeds``; it must
    give the same seeds. Compared in a subprocess, because importing the
    benchmark sets BLAS thread variables and ``sys.path``."""
    seeds = [0, 1, 7, 2**31 - 1]
    code = (f"import json, sys; sys.path.insert(0, {str(ROOT / 'bench')!r}); import run; "
            f"print(json.dumps([run.derived_seeds(s) for s in {seeds}]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == [cli._derived_seeds(s) for s in seeds]
