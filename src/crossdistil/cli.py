"""Command-line entry point and experiment harness.

Subcommands::

    crossdistil gen-data      --config cfg.json --out DIR [--seed N]
    crossdistil train         --config cfg.json [--seed N] [--out DIR]
                              [--variant NAME] [--resume CKPT]
    crossdistil ablate        --config cfg.json [--out DIR]
    crossdistil corrupt-sweep --config cfg.json [--ratios 0.1,0.5,0.9] [--out DIR]
    crossdistil sweep         --config cfg.json --param alpha --grid 0,0.5,1 [--out DIR]

``sweep --param`` takes ``margin``, ``beta1``, ``beta2`` or ``alpha``; the
last three set the parameter of both tasks.

The config file is JSON with sections ``data`` (either ``{"path": ...}`` or
``{"synthetic": {...}}``), ``split`` (``{"fractions": [0.8, 0.1, 0.1]}`` or
``{"column": true}``), ``model``, ``train`` (with nested ``hyper``), and
``seeds``. Every command is deterministic given (config, seed); outputs
carry the resolved config alongside for provenance.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    SynthConfig,
    corrupt_labels,
    generate_synthetic,
    load_csv,
    save_csv,
    split_by_column,
    split_dataset,
)
from .errors import ConfigError, CrossDistilError
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
    """A fully resolved experiment description."""

    data_path: str | None
    synth: SynthConfig | None
    split_fractions: tuple[float, float, float] | None  # None means split column
    model: ModelConfig
    train: TrainConfig
    seeds: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "data": (
                {"path": self.data_path} if self.data_path is not None
                else {"synthetic": asdict(self.synth)}
            ),
            "split": (
                {"fractions": list(self.split_fractions)} if self.split_fractions is not None
                else {"column": True}
            ),
            "model": asdict(self.model),
            "train": asdict(self.train),
            "seeds": list(self.seeds),
        }


def _build_run_config(raw: dict) -> RunConfig:
    data = raw.get("data", {})
    path = data.get("path")
    synth_raw = data.get("synthetic")
    if (path is None) == (synth_raw is None):
        raise ConfigError("config data section needs exactly one of 'path' or 'synthetic'")
    synth = SynthConfig(**synth_raw) if synth_raw is not None else None

    split = raw.get("split", {"fractions": [0.8, 0.1, 0.1]})
    if split.get("column"):
        fractions = None
    else:
        fractions = tuple(split.get("fractions", [0.8, 0.1, 0.1]))

    model = ModelConfig(**raw.get("model", {}))

    train_cfg = config_from_dict(raw.get("train", {}))
    seeds = tuple(int(s) for s in raw.get("seeds", [0, 1, 2]))
    if not seeds:
        raise ConfigError("config needs at least one seed")
    return RunConfig(path, synth, fractions, model, train_cfg, seeds)


def load_run_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    try:
        return _build_run_config(raw)
    except TypeError as e:
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
    if run.synth is not None:
        ds, utilities = generate_synthetic(run.synth, np.random.default_rng(derived["data"]))
    else:
        ds = load_csv(run.data_path)
    if run.split_fractions is None:
        train_ds, valid_ds, test_ds = split_by_column(ds)
    else:
        train_ds, valid_ds, test_ds = split_dataset(ds, run.split_fractions, derived["split"])
    for name, split in (("valid", valid_ds), ("test", test_ds)):
        for task, y in (("a", split.y_a), ("b", split.y_b)):
            if y.all() or not y.any():
                raise ConfigError(f"the {name} split has {int(y.sum())} positives in {len(y)} rows for task "
                                  f"{task}; its AUC needs at least one positive and one negative")
    return train_ds, valid_ds, test_ds, utilities


def run_single(run: RunConfig, seed: int, variant: str | None = None,
               corrupt: tuple[str, float] | None = None,
               out_dir: Path | None = None,
               resume: Path | None = None) -> tuple[dict, list[dict]]:
    """Train one configuration and return (summary, metric history).

    ``corrupt=(task, ratio)`` rewrites that task's labels in the training
    split only. When ``out_dir`` is given, writes metrics.jsonl, final.ckpt,
    and summary.json there. ``resume`` continues from a checkpoint, which
    must have been trained with this run's configuration; only ``steps``
    and ``eval_interval`` may differ.
    """
    derived = _derived_seeds(seed)
    train_ds, valid_ds, test_ds, _ = prepare_datasets(run, seed)
    if corrupt is not None:
        task, ratio = corrupt
        train_ds = corrupt_labels(train_ds, task, ratio, np.random.default_rng(derived["data"] + 1))

    if variant not in (None, run.train.variant) and run.train.variant == "no_auxiliary_rank":
        raise ConfigError("config train.variant no_auxiliary_rank zeroes the ranking betas, so no other "
                          "variant can run from this config; pass --variant no_auxiliary_rank instead")
    model_cfg = replace(run.model, seed=derived["model"])
    cfg = replace(run.train, seed=derived["train"], variant=variant or run.train.variant)

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
        "config": replace(run, model=model_cfg, train=cfg).to_dict(),
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


def _write_resolved_config(out_dir: Path, run: RunConfig, extra: dict | None = None) -> None:
    payload = run.to_dict()
    if extra:
        payload.update(extra)
    _write_json(out_dir / "config.resolved.json", payload)


def _seed_stats(summaries: list[dict], metrics) -> dict[str, float]:
    """Mean and standard deviation over seeds of each named test metric."""
    out = {}
    for m in metrics:
        arr = np.asarray([s["metrics"][m] for s in summaries], dtype=np.float64)
        out[f"{m}_mean"], out[f"{m}_std"] = float(arr.mean()), float(arr.std())
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(run: RunConfig, out_dir: Path, seed: int) -> None:
    """Write dataset.csv plus the ground-truth utility sidecar."""
    if run.synth is None:
        raise ConfigError("gen-data needs a config with a data.synthetic section")
    derived = _derived_seeds(seed)
    ds, utilities = generate_synthetic(run.synth, np.random.default_rng(derived["data"]))
    out_dir.mkdir(parents=True, exist_ok=True)
    save_csv(ds, out_dir / "dataset.csv")
    with open(out_dir / "utilities.csv", "w", encoding="utf-8") as fh:
        fh.write("index,u_a,u_b\n")
        for i in range(len(ds)):
            fh.write(f"{i},{utilities[i, 0]!r},{utilities[i, 1]!r}\n")
    _write_resolved_config(out_dir, run, {"seed": seed})
    log.info("wrote %d samples to %s", len(ds), out_dir / "dataset.csv")


def cmd_train(run: RunConfig, out_dir: Path | None, seed: int,
              variant: str | None, resume: Path | None) -> dict:
    summary, _ = run_single(run, seed, variant=variant, out_dir=out_dir, resume=resume)
    if out_dir is not None:
        _write_json(out_dir / "config.resolved.json",
                    {**summary["config"], "seed": seed, "variant": summary["variant"]})
    return summary


_TABLE_METRICS = ("auc_a_student", "multi_auc_a_student", "auc_b_student", "multi_auc_b_student")


def cmd_ablate(run: RunConfig, out_dir: Path | None) -> list[dict]:
    """Run the full variant set with shared seeds; report deltas vs crossdistil."""
    rows = []
    per_variant: dict[str, list[dict]] = {}
    for variant in VARIANTS:
        per_variant[variant] = [run_single(run, seed, variant=variant)[0] for seed in run.seeds]
    base = {
        m: float(np.mean([s["metrics"][m] for s in per_variant["crossdistil"]]))
        for m in _TABLE_METRICS
    }
    for variant in VARIANTS:
        row = {"variant": variant}
        for m in _TABLE_METRICS:
            row[m] = float(np.mean([s["metrics"][m] for s in per_variant[variant]]))
            row[f"delta_{m}"] = row[m] - base[m]
        rows.append(row)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(out_dir / "table.csv", rows)
        _write_json(out_dir / "ablate_summary.json", {"rows": rows, "seeds": list(run.seeds)})
        _write_resolved_config(out_dir, run)
    return rows


def cmd_corrupt_sweep(run: RunConfig, ratios, out_dir: Path | None,
                      corrupt_task: str = "b") -> list[dict]:
    """Corrupt one task's training labels at each ratio and retrain.

    Corruption touches the training split only; reported metrics are for the
    other (target) task's student on the untouched test split.
    """
    target = "a" if corrupt_task == "b" else "b"
    rows = []
    for ratio in ratios:
        if not 0.0 <= ratio <= 1.0:
            raise ConfigError(f"corruption ratio {ratio} outside [0, 1]")
        summaries = [
            run_single(run, seed, corrupt=(corrupt_task, ratio))[0]
            for seed in run.seeds
        ]
        rows.append({"ratio": ratio, "n_seeds": len(run.seeds),
                     **_seed_stats(summaries, (f"auc_{target}_student", f"multi_auc_{target}_student"))})
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(out_dir / "curve_corruption.csv", rows)
        _write_resolved_config(out_dir, run, {"ratios": list(ratios), "corrupt_task": corrupt_task})
    return rows


def cmd_sweep(run: RunConfig, param: str, grid, out_dir: Path | None) -> list[dict]:
    """One training run per grid value (shared seeds); duplicates are dropped."""
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep param must be one of {tuple(SWEEP_PARAMS)}, got {param!r}")
    if not grid:
        raise ConfigError("sweep grid is empty")
    values = list(dict.fromkeys(grid))
    rows = []
    for value in values:
        hyper = replace(run.train.hyper, **dict.fromkeys(SWEEP_PARAMS[param], value))
        sub_run = replace(run, train=replace(run.train, hyper=hyper))
        summaries = [run_single(sub_run, seed)[0] for seed in run.seeds]
        rows.append({"value": value, "n_seeds": len(run.seeds),
                     **_seed_stats(summaries, ("multi_auc_a_student", "multi_auc_b_student"))})
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(out_dir / f"curve_{param}.csv", rows)
        _write_resolved_config(out_dir, run, {"param": param, "grid": list(values)})
    return rows


def _write_csv(path: Path, rows: list[dict]) -> None:
    header = list(rows[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[k]) if isinstance(row[k], float) else str(row[k]) for k in header) + "\n")


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
    args = build_parser().parse_args(argv)
    try:
        run = load_run_config(args.config)
        seed = args.seed if args.seed is not None else run.seeds[0]
        out = Path(args.out) if args.out else None
        if args.command == "gen-data":
            cmd_gen_data(run, out, seed)
        elif args.command == "train":
            summary = cmd_train(run, out, seed, args.variant,
                                Path(args.resume) if args.resume else None)
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
