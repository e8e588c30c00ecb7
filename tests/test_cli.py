"""Smoke tests of the command line on a tiny config: output files, the
recorded config, resume checks, ablation row order, and exit code 2 on bad
input."""

import csv
import json
from dataclasses import asdict

import pytest

from crossdistil.cli import main
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
    assert cfg.variant == "no_auxiliary_rank" and cfg.hyper.beta1_a == 0.0 and cfg.seed != 0


def test_resume_rejects_unreadable_checkpoints(tmp_path, config, capsys):
    v1 = tmp_path / "v1.ckpt"
    v1.write_text(json.dumps({"version": 1, "step": 4, "model": {}}), encoding="utf-8")
    for ckpt in (tmp_path / "missing.ckpt", tmp_path / "cfg.json", v1):
        capsys.readouterr()
        assert main(["train", "--config", config, "--resume", str(ckpt)]) == 2, ckpt
        assert str(ckpt) in capsys.readouterr().err


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


def test_ablate_rejects_config_variant_no_auxiliary_rank(tmp_path, capsys):
    assert main(["ablate", "--config", write_config(tmp_path / "c.json", variant="no_auxiliary_rank")]) == 2
    assert "no_auxiliary_rank" in capsys.readouterr().err


def test_sweep_drops_duplicate_grid_values(tmp_path, config):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--param", "beta1", "--grid", "0,0.5,0", "--out", str(out)]) == 0
    with open(out / "curve_beta1.csv", encoding="utf-8") as fh:
        assert [row["value"] for row in csv.DictReader(fh)] == ["0.0", "0.5"]


def test_sweep_param_m_is_rejected(config):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", config, "--param", "m", "--grid", "1"])
    assert exc.value.code == 2


def test_invalid_json_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"data": ', encoding="utf-8")
    assert main(["train", "--config", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
