"""Smoke tests of the command line on a tiny config: output files, the
recorded config, resume checks, ablation row order, and exit code 2 with a
one-line error on bad input."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from crossdistil import cli
from crossdistil.cli import main
from crossdistil.data import Dataset, SynthConfig, generate_synthetic, save_csv
from crossdistil.metrics import label_phi
from crossdistil.model import ModelConfig
from crossdistil.training import VARIANTS, load_checkpoint

CONFIG = {
    "data": {"synthetic": {"n_users": 20, "n_items": 20, "n_samples": 600}},
    "split": {"fractions": [0.6, 0.2, 0.2]},
    "model": {"embedding_dim": 3, "hidden_sizes": [4]},
    "train": {"batch_size": 16, "steps": 4, "eval_interval": 2},
    "seeds": [0],
}


def write_config(path, users=20, fractions=(0.6, 0.2, 0.2), **train):
    synthetic = {**CONFIG["data"]["synthetic"], "n_users": users, "n_items": users}
    path.write_text(json.dumps({**CONFIG, "data": {"synthetic": synthetic}, "split": {"fractions": fractions},
                                "train": {**CONFIG["train"], **train}}), encoding="utf-8")
    return str(path)


@pytest.fixture
def config(tmp_path):
    return write_config(tmp_path / "cfg.json")


def test_train_writes_outputs(tmp_path, config):
    out = tmp_path / "run"
    assert main(["train", "--config", config, "--out", str(out)]) == 0
    for name in ("metrics.jsonl", "final.ckpt", "summary.json", "config.resolved.json"):
        assert (out / name).is_file(), name
    records = [json.loads(line) for line in (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [r["step"] for r in records] == [0, 2, 4]
    assert all(set(r) == {"step", "train", "eval"} for r in records)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    train_ds = cli.prepare_datasets(cli.load_run_config(config), 0)[0]
    assert summary["train_label_phi"] == label_phi(train_ds.y_a, train_ds.y_b)


def test_label_phi_is_read_after_corruption(config):
    run = cli.load_run_config(config)
    clean = cli.run_single(run, 0)[0]["train_label_phi"]
    corrupted = cli.run_single(run, 0, corrupt=("a", 1.0))[0]["train_label_phi"]
    assert corrupted < clean


def test_resume_checks_the_checkpoint_config(tmp_path, config, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", config, "--out", str(out)]) == 0
    ckpt = str(out / "final.ckpt")
    longer = write_config(tmp_path / "longer.json", steps=6)
    assert main(["train", "--config", longer, "--resume", ckpt, "--out", str(tmp_path / "more")]) == 0
    assert json.loads((tmp_path / "more" / "summary.json").read_text(encoding="utf-8"))["steps"] == 6

    capsys.readouterr()
    assert main(["train", "--config", longer, "--resume", ckpt, "--variant", "taug"]) == 2
    assert "train.variant" in capsys.readouterr().err
    assert main(["train", "--config", write_config(tmp_path / "adam.json", optimizer="adam"), "--resume", ckpt]) == 2
    assert "train.optimizer" in capsys.readouterr().err


def test_recorded_config_is_the_trained_config(tmp_path, config):
    out = tmp_path / "run"
    assert main(["train", "--config", config, "--variant", "no_auxiliary_rank", "--out", str(out)]) == 0
    state, cfg = load_checkpoint(out / "final.ckpt")
    resolved = json.loads((out / "config.resolved.json").read_text(encoding="utf-8"))
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert resolved["train"] == summary["config"]["train"] == asdict(cfg)
    assert resolved["model"] == summary["config"]["model"]
    assert ModelConfig(**resolved["model"]) == state.net.cfg
    assert cfg.variant == "no_auxiliary_rank" and cfg.seed != 0


def test_resume_rejects_unreadable_checkpoints(tmp_path, config, capsys):
    v1 = tmp_path / "v1.ckpt"
    v1.write_text(json.dumps({"version": 1, "step": 4, "model": {}}), encoding="utf-8")
    listed = tmp_path / "list.ckpt"
    with open(listed, "wb") as fh:
        np.savez(fh, header=np.array("[]"))
    assert main(["train", "--config", config, "--out", str(tmp_path / "run")]) == 0
    with np.load(tmp_path / "run" / "final.ckpt") as saved:
        members = dict(saved)
    header = json.loads(str(members["header"]))
    says = {}  # a checkpoint whose saved config is invalid -> what the error says
    for section, key, value, error in (("train_config", "steps", 0, "steps must be at least 1"),
                                       ("model_config", "backbone", "x", "backbone must be one of")):
        ckpt = tmp_path / f"{key}.ckpt"
        edited = {**header, section: {**header[section], key: value}}
        with open(ckpt, "wb") as fh:
            np.savez(fh, **{**members, "header": np.array(json.dumps(edited))})
        says[ckpt] = error
    for ckpt in (tmp_path / "missing.ckpt", tmp_path / "cfg.json", v1, listed, *says):
        capsys.readouterr()
        assert main(["train", "--config", config, "--resume", str(ckpt)]) == 2, ckpt
        assert_one_line_error(capsys, f"cannot read {ckpt} as a checkpoint of version 2 or 3", says.get(ckpt, ""))


def test_resume_rejects_a_checkpoint_of_other_data(tmp_path, config, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", config, "--out", str(out)]) == 0
    smaller = write_config(tmp_path / "smaller.json", users=10, steps=6)
    capsys.readouterr()
    more = tmp_path / "more"
    assert main(["train", "--config", smaller, "--resume", str(out / "final.ckpt"), "--out", str(more)]) == 2
    assert "vocabulary sizes" in capsys.readouterr().err
    assert not more.exists()


def test_split_without_both_classes_exits_2_before_training(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path / "c.json", fractions=(0.8, 0.2, 0.0)),
                 "--out", str(out)]) == 2
    assert "test split" in capsys.readouterr().err
    assert not (out / "final.ckpt").exists()


def test_ablate_rows_in_variant_order(tmp_path, config):
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", config, "--out", str(out)]) == 0
    with open(out / "table.csv", encoding="utf-8") as fh:
        assert [row["variant"] for row in csv.DictReader(fh)] == list(VARIANTS)


def test_ablate_gives_the_same_rows_from_a_config_of_any_variant(tmp_path, config, capsys):
    """Each row overrides the variant, and no variant rewrites the betas."""
    capsys.readouterr()
    tables = []
    for path in (config, write_config(tmp_path / "c.json", variant="no_auxiliary_rank")):
        assert main(["ablate", "--config", path]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]


@pytest.mark.parametrize("argv, table, key, kept", [
    (["sweep", "--param", "beta1", "--grid", "0,0.5,0"], "curve_beta1.csv", "value", ["0.0", "0.5"]),
    (["corrupt-sweep", "--ratios", "0.1,0.5,0.1"], "curve_corruption.csv", "ratio", ["0.1", "0.5"]),
], ids=["sweep", "corrupt-sweep"])
def test_sweep_drops_duplicate_grid_values(tmp_path, config, argv, table, key, kept):
    out = tmp_path / "sweep"
    assert main([argv[0], "--config", config, "--out", str(out), *argv[1:]]) == 0
    with open(out / table, encoding="utf-8") as fh:
        assert [row[key] for row in csv.DictReader(fh)] == kept


def test_sweep_param_m_is_rejected(config):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", config, "--param", "m", "--grid", "1"])
    assert exc.value.code == 2


def test_invalid_json_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"data": ', encoding="utf-8")
    assert main(["train", "--config", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def assert_one_line_error(capsys, *needles):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    for needle in needles:
        assert needle in lines[0]


def test_missing_data_file_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CONFIG, "data": {"path": str(tmp_path / "missing.csv")}}), encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 2
    assert_one_line_error(capsys, "missing.csv")


def test_negative_seed_exits_2(config, capsys):
    assert main(["train", "--config", config, "--seed", "-1"]) == 2
    assert_one_line_error(capsys, "--seed", "-1")


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 2
    assert_one_line_error(capsys, "JSON object")


def test_unparsable_ratios_exit_2(config, capsys):
    assert main(["corrupt-sweep", "--config", config, "--ratios", "abc"]) == 2
    assert_one_line_error(capsys, "'abc'")


def test_empty_ratio_list_exits_2(tmp_path, config, capsys):
    out = tmp_path / "curve"
    assert main(["corrupt-sweep", "--config", config, "--ratios", "", "--out", str(out)]) == 2
    assert_one_line_error(capsys, "ratios")
    assert not out.exists()


def write_field(tmp_path, section, name, value) -> str:
    """Write CONFIG with field ``name`` of ``section`` (``data`` meaning ``data.synthetic``) set to ``value``."""
    raw = json.loads(json.dumps(CONFIG))
    (raw["data"]["synthetic"] if section == "data" else raw[section])[name] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")  # NaN and inf as JSON's NaN and Infinity
    return str(path)


@pytest.mark.parametrize("section, name, value", [
    ("train", "batch_size", 8.5),
    ("train", "steps", 2.5),
    ("train", "steps", True),
    ("model", "hidden_sizes", [6.7]),
    ("data", "n_users", 20.5),
])
def test_non_integer_config_field_exits_2_at_load(tmp_path, capsys, monkeypatch, section, name, value):
    path = write_field(tmp_path, section, name, value)
    monkeypatch.setattr(cli, "generate_synthetic", None)  # the config must fail before any data is made
    assert main(["train", "--config", path]) == 2
    assert_one_line_error(capsys, name, "must be an integer")


@pytest.mark.parametrize("section, name, value", [
    ("train", "gamma1", math.inf),
    ("train", "gamma2", math.inf),
    ("train", "gamma1", 0.0),
    ("model", "init_scale", math.nan),
    ("model", "init_scale", math.inf),
    ("data", "utility_scale", math.nan),
    ("train", "gamma2", "0.05"),
    ("data", "utility_scale", True),
])
def test_bad_scale_exits_2_at_load(tmp_path, capsys, monkeypatch, section, name, value):
    path = write_field(tmp_path, section, name, value)
    monkeypatch.setattr(cli, "generate_synthetic", None)  # the config must fail before any data is made
    assert main(["train", "--config", path]) == 2
    assert_one_line_error(capsys, name, "must be a finite positive number")


@pytest.mark.parametrize("section, key", [("", "modle"), ("data", "pth"), ("split", "colum"), ("model", "activation"),
                                          ("data.synthetic", "n_user"), ("train", "stpes"), ("train.hyper", "alpah")])
def test_unknown_config_key_exits_2_at_load(tmp_path, capsys, monkeypatch, section, key):
    raw = json.loads(json.dumps(CONFIG))
    target = raw
    for name in filter(None, section.split(".")):
        target = target.setdefault(name, {})
    target[key] = True
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    monkeypatch.setattr(cli, "generate_synthetic", None)  # the config must fail before any data is made
    assert main(["train", "--config", str(path)]) == 2
    assert_one_line_error(capsys, f"unknown config key '{section + '.' if section else ''}{key}'")


@pytest.mark.parametrize("argv", [
    ["gen-data"],
    ["train"],
    ["ablate"],
    ["corrupt-sweep", "--ratios", "0.1"],
    ["sweep", "--param", "alpha", "--grid", "0.5"],
])
def test_out_under_an_existing_file_exits_2_before_any_work(tmp_path, config, capsys, monkeypatch, argv):
    taken = tmp_path / "taken"
    taken.write_text("kept", encoding="utf-8")
    monkeypatch.setattr(cli, "generate_synthetic", None)  # no data may be made
    monkeypatch.setattr(cli, "run_single", None)  # and no run started
    for out in (taken, taken / "sub"):
        assert main([argv[0], "--config", config, "--out", str(out), *argv[1:]]) == 2
        assert_one_line_error(capsys, "--out", f"{taken} exists and is not a directory")
    assert taken.read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("argv", [
    ["corrupt-sweep", "--ratios", "0.1,1.5"],
    ["sweep", "--param", "alpha", "--grid", "0.5,1.5"],
])
def test_sweeps_check_the_whole_grid_before_the_first_run(config, capsys, monkeypatch, argv):
    runs = []
    monkeypatch.setattr(cli, "run_single", lambda *args, **kwargs: runs.append(args))
    assert main([argv[0], "--config", config, *argv[1:]]) == 2
    assert runs == []
    assert_one_line_error(capsys, "1.5")


@pytest.mark.parametrize("argv", [
    ["ablate"],
    ["corrupt-sweep", "--ratios", "0.1,0.5"],
    ["sweep", "--param", "alpha", "--grid", "0.5,1"],
])
def test_seed_overrides_the_first_config_seed_of_every_command(tmp_path, capsys, monkeypatch, argv):
    """``--seed`` replaces the first config seed, a repeated seed trains once,
    and every table command writes one schema: each row's mean and std over
    its seeds' metrics, and for ``ablate`` each mean's delta to the
    ``crossdistil`` row. The resolved config records the seeds kept."""
    runs = []  # (seed, metrics) of each run, in order

    def run_single(run, seed, **kwargs):
        runs.append((seed, {m: 1 / (len(runs) + i + 2) for i, m in enumerate(cli.TABLE_METRICS)}))
        return {"metrics": runs[-1][1]}, []

    monkeypatch.setattr(cli, "run_single", run_single)
    key = {"ablate": "variant", "corrupt-sweep": "ratio", "sweep": "value"}[argv[0]]
    columns = [key, "n_seeds", *(f"{m}_{stat}" for m in cli.TABLE_METRICS for stat in ("mean", "std"))]
    if argv[0] == "ablate":
        columns += [f"delta_{m}" for m in cli.TABLE_METRICS]
    cases = [([0, 1], ["--seed", "5"], [5, 1]), ([0, 0], [], [0]), ([0, 1, 2], ["--seed", "1"], [1, 2])]
    for case, (seeds, flag, kept) in enumerate(cases):  # (config seeds, flag, seeds trained)
        runs.clear()
        path = tmp_path / f"cfg{case}.json"
        path.write_text(json.dumps({**CONFIG, "seeds": seeds}), encoding="utf-8")
        out = tmp_path / f"out{case}"
        capsys.readouterr()
        assert main([argv[0], "--config", str(path), *flag, "--out", str(out), *argv[1:]]) == 0
        n = len(kept)
        assert [seed for seed, _ in runs] == kept * (len(runs) // n)
        assert json.loads((out / "config.resolved.json").read_text(encoding="utf-8"))["seeds"] == kept

        printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        (table,) = out.glob("*.csv")
        with open(table, encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = [{k: v if k == key else float(v) for k, v in row.items()} for row in reader]
        assert reader.fieldnames == columns and all(list(row) == columns for row in rows)
        assert all(set(row) == set(columns) for row in printed) and len(printed) == len(rows) == len(runs) // n
        for i, row in enumerate(rows):
            assert row["n_seeds"] == n
            for m in cli.TABLE_METRICS:
                values = [metrics[m] for _, metrics in runs[n * i:n * i + n]]
                assert row[f"{m}_mean"] == printed[i][f"{m}_mean"] == np.mean(values)
                assert row[f"{m}_std"] == printed[i][f"{m}_std"] == np.std(values)
                if argv[0] == "ablate":
                    assert row[f"delta_{m}"] == row[f"{m}_mean"] - rows[VARIANTS.index("crossdistil")][f"{m}_mean"]


def test_gen_data_utilities_read_back_bit_for_bit(tmp_path, config):
    out = tmp_path / "data"
    assert main(["gen-data", "--config", config, "--out", str(out)]) == 0
    synth = SynthConfig(**CONFIG["data"]["synthetic"])
    _, utilities = generate_synthetic(synth, np.random.default_rng(cli._derived_seeds(0)["data"]))
    table = np.loadtxt(out / "utilities.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(table[:, 0], np.arange(len(utilities)))
    assert table[:, 1:].tobytes() == utilities.tobytes()


def test_sweep_rejects_a_nan_grid_before_the_first_run(config, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_single", lambda *args, **kwargs: runs.append(args))
    assert main(["sweep", "--config", config, "--param", "beta1", "--grid", "nan"]) == 2
    assert runs == []
    assert_one_line_error(capsys, "beta1_a must be finite")


@pytest.mark.parametrize("train", [[], [["steps", 3], ["eval_interval", 3]]])
def test_train_section_that_is_not_an_object_exits_2_at_load(tmp_path, capsys, monkeypatch, train):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CONFIG, "train": train}), encoding="utf-8")
    monkeypatch.setattr(cli, "generate_synthetic", None)  # the config must fail before any data is made
    assert main(["train", "--config", str(path)]) == 2
    assert_one_line_error(capsys, "config train must be a JSON object")


def test_diverging_run_exits_2_naming_the_step_and_op(tmp_path, capsys):
    """The non-finite output is reported once, by op, with no numpy warning first."""
    path = write_config(tmp_path / "cfg.json", gamma1=1e150)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "Warning" not in err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        "error: step 1: non-finite output in op 'linear'"]


@pytest.mark.parametrize("section, value, needle", [
    ("train", {"optimizer": ["sgd"]}, "optimizer must be sgd or adam"),
    ("train", {"variant": ["x"]}, "variant must be one of"),
    ("train", {"steps": [3]}, "steps must be an integer"),
    ("train", {"hyper": [1]}, "config train.hyper must be a JSON object"),
    ("model", [1], "config model must be a JSON object"),
    ("model", {"hidden_sizes": 3}, "hidden_sizes must be a list of integers"),
    ("model", {"tower_hidden": 2}, "tower_hidden must be a list of integers"),
    ("data", {"synthetic": [1]}, "config data.synthetic must be a JSON object"),
])
def test_config_field_of_the_wrong_type_exits_2_at_load_naming_it(tmp_path, capsys, monkeypatch, section, value,
                                                                   needle):
    section_value = {**CONFIG[section], **value} if isinstance(value, dict) else value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CONFIG, section: section_value}), encoding="utf-8")
    monkeypatch.setattr(cli, "generate_synthetic", None)  # the config must fail before any data is made
    assert main(["train", "--config", str(path)]) == 2
    assert_one_line_error(capsys, needle)


def test_nan_hyperparameter_exits_2_at_load(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path / "cfg.json", hyper={"temperature": float("nan")})
    monkeypatch.setattr(cli, "generate_synthetic", None)  # the config must fail before any data is made
    assert main(["train", "--config", path]) == 2
    assert_one_line_error(capsys, "temperature must be finite")


@pytest.mark.parametrize("seeds", [[1.5], [0, True], "0", []])
def test_non_integer_seeds_exit_2_at_load(tmp_path, capsys, monkeypatch, seeds):
    raw = {**CONFIG, "seeds": seeds}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    monkeypatch.setattr(cli, "generate_synthetic", None)
    assert main(["train", "--config", str(path)]) == 2
    assert_one_line_error(capsys, "seeds")


@pytest.mark.parametrize("path", [0, True, "", ["data.csv"], 1.5])
def test_data_path_that_is_not_a_nonempty_string_exits_2_at_load(tmp_path, capsys, monkeypatch, path):
    raw = {**CONFIG, "data": {"path": path}}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    monkeypatch.setattr(cli, "load_csv", None)  # no file may be opened, a descriptor least of all
    assert main(["train", "--config", str(config)]) == 2
    assert_one_line_error(capsys, "data.path")


@pytest.mark.parametrize("fractions", [
    "abc", [0.5, None, 0.5], [True, 0, 0], [0.5, 0.5], [0.5, float("nan"), 0.5], [1.5, -0.5, 0.0],
    [0.5, 0.3, 0.3], ["0.5", 0.25, 0.25], None, {"train": 1.0},
])
def test_bad_split_fractions_exit_2_at_load(tmp_path, capsys, monkeypatch, fractions):
    raw = {**CONFIG, "split": {"fractions": fractions}}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    monkeypatch.setattr(cli, "generate_synthetic", None)  # the config must fail before any data is made
    assert main(["train", "--config", str(config)]) == 2
    assert_one_line_error(capsys, "split.fractions")


@pytest.mark.parametrize("data, split, needle", [
    (CONFIG["data"], {"column": True}, "synthetic data has no split column"),
    ({"path": "data.csv"}, {"column": True, "fractions": [0.6, 0.2, 0.2]}, "both column and fractions"),
    ({"path": "data.csv"}, {"column": "false"}, "split.column must be true or false"),
])
def test_bad_split_column_exits_2_at_load(tmp_path, capsys, monkeypatch, data, split, needle):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**CONFIG, "data": data, "split": split}), encoding="utf-8")
    monkeypatch.setattr(cli, "generate_synthetic", None)  # the config must fail before any data is made
    monkeypatch.setattr(cli, "load_csv", None)
    assert main(["train", "--config", str(config)]) == 2
    assert_one_line_error(capsys, "config split", needle)


@pytest.mark.parametrize("section, name, value", [
    ("hyper", "alpha_a", True),
    ("hyper", "margin", "1.0"),
    ("hyper", "beta1_b", None),
    ("data", "rho", True),
    ("data", "rate_a", "0.3"),
])
def test_non_number_float_field_exits_2_at_load_naming_it(tmp_path, capsys, monkeypatch, section, name, value):
    if section == "hyper":
        path = write_config(tmp_path / "cfg.json", hyper={name: value})
    else:
        path = write_field(tmp_path, section, name, value)
    monkeypatch.setattr(cli, "generate_synthetic", None)  # the config must fail before any data is made
    assert main(["train", "--config", path]) == 2
    assert_one_line_error(capsys, f"{name} must be finite")


def test_split_column_trains_on_the_rows_tagged_for_each_split(tmp_path):
    ds, _ = generate_synthetic(SynthConfig(**CONFIG["data"]["synthetic"]), np.random.default_rng(4))
    tags = np.random.default_rng(5).integers(0, 3, size=len(ds))
    for t in range(3):  # each split needs both labels of both tasks
        assert all(0 < y[tags == t].sum() < (tags == t).sum() for y in (ds.y_a, ds.y_b)), t
    tagged = Dataset(ds.field_names, ds.vocab_sizes, ds.field_ids, ds.y_a, ds.y_b, tags)
    save_csv(tagged, tmp_path / "data.csv")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**CONFIG, "data": {"path": str(tmp_path / "data.csv")}, "split": {"column": True}}),
                      encoding="utf-8")
    run = cli.load_run_config(config)
    assert run.split == {"column": True}
    splits = cli.prepare_datasets(run, 0)[:3]
    for t, split in enumerate(splits):
        expected = tagged.subset(np.flatnonzero(tags == t))
        for name in ("field_ids", "y_a", "y_b", "split_tags"):
            assert getattr(split, name).tobytes() == getattr(expected, name).tobytes(), (t, name)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0


def test_all_zero_loss_weights_exit_2_before_any_work(tmp_path, capsys, monkeypatch):
    zero = dict.fromkeys(("weight_a", "weight_b", "weight_a_plus", "weight_b_plus"), 0.0)
    path = write_config(tmp_path / "cfg.json", hyper=zero)
    monkeypatch.setattr(cli, "generate_synthetic", None)  # the config must fail before any data is made
    out = tmp_path / "run"
    assert main(["train", "--config", path, "--out", str(out)]) == 2
    assert_one_line_error(capsys, "all loss weights are zero; nothing to train (variant 'crossdistil')")
    assert not (out / "metrics.jsonl").exists()


def test_model_activation_is_an_unknown_key(tmp_path, capsys, monkeypatch):
    """The network is a ReLU network; a config that still names ``activation`` fails at load."""
    path = write_field(tmp_path, "model", "activation", "relu")
    monkeypatch.setattr(cli, "generate_synthetic", None)  # the config must fail before any data is made
    assert main(["train", "--config", path]) == 2
    assert_one_line_error(capsys, "unknown config key 'model.activation'")


def test_repeated_csv_column_exits_2_at_load(tmp_path, capsys):
    """Two ``f_x`` columns would be two embedding tables under one name."""
    rows = "".join(f"{i % 9},{i % 5},{i % 2},{i // 2 % 2}\n" for i in range(40))
    (tmp_path / "data.csv").write_text("f_x,f_x,label_a,label_b\n" + rows, encoding="utf-8")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**CONFIG, "data": {"path": str(tmp_path / "data.csv")}}), encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 2
    assert_one_line_error(capsys, "data.csv", "repeated column names ['f_x']")


def test_python_dash_m_runs_the_command_line():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "crossdistil", "train", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "--variant" in done.stdout
