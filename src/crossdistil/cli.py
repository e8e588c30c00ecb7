"""Command-line entry point and experiment harness.

Subcommands, as ``crossdistil`` after an install or as ``python -m crossdistil``
from a checkout with ``src`` on ``PYTHONPATH``::

    crossdistil gen-data      --config cfg.json --out DIR [--seed N]
    crossdistil train         --config cfg.json [--seed N] [--out DIR]
                              [--variant NAME] [--resume CKPT]
    crossdistil ablate        --config cfg.json [--out DIR]
    crossdistil corrupt-sweep --config cfg.json [--ratios 0.1,0.5,0.9] [--out DIR]
    crossdistil sweep         --config cfg.json --param alpha --grid 0,0.5,1 [--out DIR]

``sweep --param`` takes ``margin``, ``beta1``, ``beta2`` or ``alpha``; the
last three set the parameter of both tasks.

``ablate``, ``corrupt-sweep`` and ``sweep`` each train every config seed
once per row and write one table (``table.csv``, ``curve_corruption.csv``,
``curve_<param>.csv``) with the columns ``variant``, ``ratio`` or ``value``,
then ``n_seeds``, then ``<m>_mean`` and ``<m>_std`` (``ddof=0``) over the
seeds for each ``m`` of ``auc_a_student``, ``multi_auc_a_student``,
``auc_b_student`` and ``multi_auc_b_student``. A repeated seed (after
``--seed`` replaces the first), ratio or grid value is run once. ``ablate``
adds ``delta_<m>``, a row's mean minus the ``crossdistil`` row's, and also
writes ``ablate_summary.json``.

The config file is JSON with sections ``data`` (either ``{"path": ...}`` or
``{"synthetic": {...}}``), ``split`` (``{"fractions": [0.8, 0.1, 0.1]}`` or,
for a CSV with a split column, ``{"column": true}``), ``model``, ``train``
(with nested ``hyper``), and ``seeds``; any key these do not define is an
error. Every command is deterministic given (config, seed); outputs carry
the resolved config alongside for provenance.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, dataclass, replace
from numbers import Integral
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    SynthConfig,
    check_fractions,
    corrupt_labels,
    generate_synthetic,
    load_csv,
    save_csv,
    split_by_column,
    split_dataset,
)
from .errors import ConfigError, CrossDistilError, require_object
from .model import ModelConfig
from .training import VARIANTS, TrainConfig, config_from_dict, evaluate, load_checkpoint, save_checkpoint, train

log = logging.getLogger(__name__)

# sweep parameter -> the HyperParams fields it sets
SWEEP_PARAMS = {
    "margin": ("margin",),
    "beta1": ("beta1_a", "beta1_b"),
    "beta2": ("beta2_a", "beta2_b"),
    "alpha": ("alpha_a", "alpha_b"),
}


@dataclass(frozen=True)
class RunConfig:
    """A config file, resolved: ``asdict`` of it is the file's JSON form with
    every default filled in.

    ``data`` is ``{"path": csv_path}`` or ``{"synthetic": SynthConfig}``;
    ``split`` is ``{"fractions": (train, valid, test)}`` or ``{"column": True}``.
    """

    data: dict
    split: dict
    model: ModelConfig
    train: TrainConfig
    seeds: tuple[int, ...]


def _check_keys(section, known, where: str = "") -> None:
    """Raise unless ``section`` is a dict whose keys are all in ``known``; ``where`` prefixes key names."""
    for key in require_object(section, where.rstrip(".")):
        if key not in known:
            raise ConfigError(f"unknown config key '{where}{key}', expected one of {known}")


def _build_run_config(raw: dict) -> RunConfig:
    _check_keys(raw, ("data", "split", "model", "train", "seeds"))
    data = raw.get("data", {})
    _check_keys(data, ("path", "synthetic"), "data.")
    path = data.get("path")
    synth_raw = data.get("synthetic")
    if (path is None) == (synth_raw is None):
        raise ConfigError("config data section needs exactly one of 'path' or 'synthetic'")
    if path is not None and not (isinstance(path, str) and path):
        raise ConfigError(f"config data.path must be a nonempty string, got {path!r}")
    data = {"synthetic": SynthConfig(**require_object(synth_raw, "data.synthetic"))} if path is None else {"path": path}

    split = raw.get("split", {})
    _check_keys(split, ("fractions", "column"), "split.")
    column = split.get("column", False)
    if not isinstance(column, bool):
        raise ConfigError(f"config split.column must be true or false, got {column!r}")
    if column:
        if "fractions" in split:
            raise ConfigError("config split sets both column and fractions; a split column uses no fractions")
        if synth_raw is not None:
            raise ConfigError("config split.column needs data.path: synthetic data has no split column")
        split = {"column": True}
    else:
        split = {"fractions": check_fractions(split.get("fractions", [0.8, 0.1, 0.1]))}

    model = ModelConfig(**require_object(raw.get("model", {}), "model"))

    train_cfg = config_from_dict(raw.get("train", {}))
    seeds = raw.get("seeds", [0, 1, 2])
    if not isinstance(seeds, list) or not seeds or any(
            isinstance(s, bool) or not isinstance(s, Integral) or s < 0 for s in seeds):
        raise ConfigError(f"config seeds must be a nonempty list of nonnegative integers, got {seeds!r}")
    return RunConfig(data, split, model, train_cfg, tuple(seeds))


def load_run_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: the config must be a JSON object, not {type(raw).__name__}")
    try:
        return _build_run_config(raw)
    except (TypeError, ValueError, AttributeError) as e:
        raise ConfigError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# deterministic seed plumbing
# ---------------------------------------------------------------------------


def _derived_seeds(seed: int) -> dict[str, int]:
    """Independent integer seeds for data, split, model init, and sampling."""
    children = np.random.SeedSequence(seed).spawn(4)
    names = ("data", "split", "model", "train")
    return {name: int(c.generate_state(1)[0]) for name, c in zip(names, children)}


def prepare_datasets(run: RunConfig, seed: int) -> tuple[Dataset, Dataset, Dataset, np.ndarray | None]:
    """Build (train, valid, test) splits for one experiment seed."""
    derived = _derived_seeds(seed)
    utilities = None
    if "synthetic" in run.data:
        ds, utilities = generate_synthetic(run.data["synthetic"], np.random.default_rng(derived["data"]))
    else:
        ds = load_csv(run.data["path"])
    if "column" in run.split:
        train_ds, valid_ds, test_ds = split_by_column(ds)
    else:
        train_ds, valid_ds, test_ds = split_dataset(ds, run.split["fractions"], derived["split"])
    for name, split in (("valid", valid_ds), ("test", test_ds)):
        for task, y in (("a", split.y_a), ("b", split.y_b)):
            if y.all() or not y.any():
                raise ConfigError(f"the {name} split has {int(y.sum())} positives in {len(y)} rows for task "
                                  f"{task}; its AUC needs at least one positive and one negative")
    return train_ds, valid_ds, test_ds, utilities


def run_single(run: RunConfig, seed: int, corrupt: tuple[str, float] | None = None,
               out_dir: Path | None = None, resume: Path | None = None) -> tuple[dict, list[dict]]:
    """Train one configuration and return (summary, metric history).

    ``corrupt=(task, ratio)`` rewrites that task's labels in the training
    split only. When ``out_dir`` is given, writes metrics.jsonl, final.ckpt,
    summary.json and config.resolved.json (the trained config with its
    ``seed`` and ``variant``) there. ``resume`` continues from a checkpoint, which
    must have been trained with this run's configuration; only ``steps``
    and ``eval_interval`` may differ.
    """
    derived = _derived_seeds(seed)
    train_ds, valid_ds, test_ds, _ = prepare_datasets(run, seed)
    if corrupt is not None:
        task, ratio = corrupt
        train_ds = corrupt_labels(train_ds, task, ratio, np.random.default_rng(derived["data"] + 1))

    model_cfg = replace(run.model, seed=derived["model"])
    cfg = replace(run.train, seed=derived["train"])

    state = None
    if resume is not None:
        state, saved_cfg = load_checkpoint(resume)
        _check_resume(resume, {"train": asdict(saved_cfg), "model": asdict(state.net.cfg)},
                      {"train": asdict(cfg), "model": asdict(model_cfg)})
    state, history = train(train_ds, valid_ds, model_cfg, cfg, state=state)
    test_metrics = evaluate(state.net, state.calibration, test_ds)

    summary = {
        "seed": seed,
        "variant": cfg.variant,
        "steps": state.step,
        "config": asdict(replace(run, model=model_cfg, train=cfg)),
        "corrupt": None if corrupt is None else {"task": corrupt[0], "ratio": corrupt[1]},
        "metrics": test_metrics,
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "metrics.jsonl", "w", encoding="utf-8") as fh:
            for record in history:
                fh.write(json.dumps(record) + "\n")
        save_checkpoint(out_dir / "final.ckpt", state, cfg)
        _write_json(out_dir / "summary.json", summary)
        _write_json(out_dir / "config.resolved.json", {**summary["config"], "seed": seed, "variant": cfg.variant})
    return summary, history


def _check_resume(path, saved: dict, wanted: dict, prefix: str = "") -> None:
    """Raise naming the first config field in which a checkpoint differs from
    the run resuming it; ``steps`` and ``eval_interval`` may differ."""
    for key, value in wanted.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            _check_resume(path, saved[key], value, f"{name}.")
        elif name not in ("train.steps", "train.eval_interval") and saved[key] != value:
            raise ConfigError(f"--resume {path}: checkpoint has {name}={saved[key]!r}, this run has {value!r}")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


TABLE_METRICS = ("auc_a_student", "multi_auc_a_student", "auc_b_student", "multi_auc_b_student")


def _seed_table(key: str, settings) -> list[dict]:
    """Train each setting ``(row value, RunConfig, run_single kwargs)`` once per
    seed of its run and return one row per distinct row value: ``{key,
    n_seeds}`` and, for each of ``TABLE_METRICS``, its ``_mean`` and ``_std``
    (``ddof=0``) over the seeds. A repeated row value is run once."""
    rows = {}
    for value, run, kwargs in settings:
        if value in rows:
            continue
        metrics = [run_single(run, seed, **kwargs)[0]["metrics"] for seed in run.seeds]
        row = rows[value] = {key: value, "n_seeds": len(metrics)}
        for m in TABLE_METRICS:
            arr = np.asarray([s[m] for s in metrics], dtype=np.float64)
            row[f"{m}_mean"], row[f"{m}_std"] = float(arr.mean()), float(arr.std())
    return list(rows.values())


def _write_table(out_dir: Path | None, name: str, rows: list[dict], run: RunConfig,
                 extra: dict | None = None) -> list[dict]:
    """Write ``rows`` as the CSV ``name`` (floats as their shortest repr) and
    the resolved config with ``extra`` under ``out_dir``, if given; return ``rows``."""
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            fh.write(",".join(rows[0]) + "\n")
            for row in rows:
                fh.write(",".join(repr(row[k]) if isinstance(row[k], float) else str(row[k]) for k in rows[0]) + "\n")
        _write_json(out_dir / "config.resolved.json", {**asdict(run), **(extra or {})})
    return rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(run: RunConfig, out_dir: Path, seed: int) -> None:
    """Write dataset.csv plus the ground-truth utility sidecar."""
    if "synthetic" not in run.data:
        raise ConfigError("gen-data needs a config with a data.synthetic section")
    derived = _derived_seeds(seed)
    ds, utilities = generate_synthetic(run.data["synthetic"], np.random.default_rng(derived["data"]))
    out_dir.mkdir(parents=True, exist_ok=True)
    save_csv(ds, out_dir / "dataset.csv")
    with open(out_dir / "utilities.csv", "w", encoding="utf-8") as fh:
        fh.write("index,u_a,u_b\n")
        for i, (u_a, u_b) in enumerate(utilities.tolist()):  # Python floats, whose repr is the shortest round trip
            fh.write(f"{i},{u_a!r},{u_b!r}\n")
    _write_json(out_dir / "config.resolved.json", {**asdict(run), "seed": seed})
    log.info("wrote %d samples to %s", len(ds), out_dir / "dataset.csv")


def cmd_ablate(run: RunConfig, out_dir: Path | None) -> list[dict]:
    """Run the full variant set with shared seeds; report deltas vs crossdistil."""
    rows = _seed_table("variant", [(v, replace(run, train=replace(run.train, variant=v)), {}) for v in VARIANTS])
    base = rows[VARIANTS.index("crossdistil")]
    for row in rows:
        row.update({f"delta_{m}": row[f"{m}_mean"] - base[f"{m}_mean"] for m in TABLE_METRICS})
    _write_table(out_dir, "table.csv", rows, run)
    if out_dir is not None:
        _write_json(out_dir / "ablate_summary.json", {"rows": rows, "seeds": list(run.seeds)})
    return rows


CORRUPT_TASK = "b"  # the task whose training labels corrupt-sweep corrupts


def cmd_corrupt_sweep(run: RunConfig, ratios, out_dir: Path | None) -> list[dict]:
    """Corrupt task b's training labels at each ratio and retrain; repeated ratios are dropped.

    Corruption touches the training split only; reported metrics are for the
    students on the untouched test split.
    """
    if not ratios or not all(0.0 <= ratio <= 1.0 for ratio in ratios):
        raise ConfigError(f"corruption ratios must be a nonempty list of values in [0, 1], got {ratios}")
    rows = _seed_table("ratio", [(ratio, run, {"corrupt": (CORRUPT_TASK, ratio)}) for ratio in ratios])
    return _write_table(out_dir, "curve_corruption.csv", rows, run,
                        {"ratios": [row["ratio"] for row in rows], "corrupt_task": CORRUPT_TASK})


def cmd_sweep(run: RunConfig, param: str, grid, out_dir: Path | None) -> list[dict]:
    """One training run per grid value (shared seeds); repeated values are dropped."""
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep param must be one of {tuple(SWEEP_PARAMS)}, got {param!r}")
    if not grid:
        raise ConfigError("sweep grid is empty")
    hypers = [replace(run.train.hyper, **dict.fromkeys(SWEEP_PARAMS[param], value)) for value in grid]
    rows = _seed_table("value", [(value, replace(run, train=replace(run.train, hyper=hyper)), {})
                                 for value, hyper in zip(grid, hypers)])
    return _write_table(out_dir, f"curve_{param}.csv", rows, run,
                        {"param": param, "grid": [row["value"] for row in rows]})


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crossdistil",
                                     description="Cross-task ranking distillation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=False):
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", required=needs_out, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the first config seed")

    p = sub.add_parser("gen-data", help="write a synthetic dataset and its utility sidecar")
    common(p, needs_out=True)

    p = sub.add_parser("train", help="train one run and report test metrics")
    common(p)
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")

    p = sub.add_parser("ablate", help="train every ablation variant with shared seeds")
    common(p)

    p = sub.add_parser("corrupt-sweep", help="corrupt task-b training labels and retrain per ratio")
    common(p)
    p.add_argument("--ratios", type=_float_list, default=[0.1, 0.5, 0.9])

    p = sub.add_parser("sweep", help="sweep one hyper-parameter over a grid")
    common(p)
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--grid", type=_float_list, required=True)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)  # inside the try: a --ratios/--grid type error is a ConfigError
        out = Path(args.out) if args.out else None
        if out is not None:
            existing = next(p for p in (out, *out.parents) if p.exists())  # out or its nearest existing parent
            if not existing.is_dir():
                raise ConfigError(f"--out {out}: {existing} exists and is not a directory")
        run = load_run_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
            run = replace(run, seeds=(args.seed, *run.seeds[1:]))
        run = replace(run, seeds=tuple(dict.fromkeys(run.seeds)))  # a repeated seed would train the same run twice
        seed = run.seeds[0]
        if args.command == "gen-data":
            cmd_gen_data(run, out, seed)
        elif args.command == "train":
            run = replace(run, train=replace(run.train, variant=args.variant or run.train.variant))
            summary, _ = run_single(run, seed, out_dir=out, resume=Path(args.resume) if args.resume else None)
            print(json.dumps(summary["metrics"], indent=2, sort_keys=True))
        else:
            if args.command == "ablate":
                rows = cmd_ablate(run, out)
            elif args.command == "corrupt-sweep":
                rows = cmd_corrupt_sweep(run, args.ratios, out)
            else:
                rows = cmd_sweep(run, args.param, args.grid, out)
            for row in rows:
                print(json.dumps(row, sort_keys=True))
    except CrossDistilError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
