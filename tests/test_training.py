"""Training-loop tests: checkpoints round-trip bit for bit, resume is exact,
and the bi-level invariants hold (the calibration step never moves model
parameters; the KD term never sends gradient to the teacher towers or the
Platt parameters)."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from crossdistil import training as T
from crossdistil.data import SynthConfig, generate_synthetic, partition, split_dataset
from crossdistil.errors import ConfigError
from crossdistil.losses import HyperParams
from crossdistil.model import BACKBONES, ModelConfig

MODEL = {"embedding_dim": 4, "hidden_sizes": (6,), "seed": 7}
DISTILLING = [v for v in T.VARIANTS if T.apply_variant(v).distill != "off"]


@pytest.fixture(scope="module")
def datasets():
    ds, _ = generate_synthetic(SynthConfig(n_users=30, n_items=30, n_samples=800), np.random.default_rng(5))
    train_ds, eval_ds, _ = split_dataset(ds, (0.75, 0.25, 0.0), seed=6)
    return train_ds, eval_ds


def param_bytes(state):
    params = state.net.named_parameters() + state.calibration.named_parameters()
    return [(name, t.values.tobytes()) for name, t in params]


def adam_slots(state):
    """Step count and moment bytes of each Adam optimizer of a state."""
    return [
        (opt.t, [(slot, name, a.tobytes()) for slot in ("m", "v") for name, a in getattr(opt, slot).items()])
        for opt in (state.opt_model, state.opt_calibration) if isinstance(opt, T.Adam)
    ]


def rng_states(state):
    return [getattr(state, f"rng_{key}").bit_generator.state for key in ("records", "quads", "pairs")]


@pytest.mark.parametrize("optimizer", ("sgd", "adam"))
@pytest.mark.parametrize("backbone", BACKBONES)
def test_checkpoint_roundtrip_bit_exact(datasets, tmp_path, backbone, optimizer):
    model_cfg = ModelConfig(backbone=backbone, **MODEL)
    cfg = T.TrainConfig(gamma1=0.05, optimizer=optimizer, batch_size=16, steps=3, eval_interval=3, seed=8)
    state, _ = T.train(*datasets, model_cfg, cfg)
    path = tmp_path / "run.json"  # written to exactly this path, whatever its suffix
    T.save_checkpoint(path, state, cfg)
    loaded, loaded_cfg = T.load_checkpoint(path)

    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
    assert loaded_cfg == cfg and loaded.net.cfg == model_cfg and loaded.step == state.step == 3
    assert param_bytes(loaded) == param_bytes(state)
    assert adam_slots(loaded) == adam_slots(state)
    assert len(adam_slots(state)) == (2 if optimizer == "adam" else 0)
    assert rng_states(loaded) == rng_states(state)
    ids = datasets[1].field_ids[:8]
    before, after = state.net.forward(ids), loaded.net.forward(ids)
    for head in ("a", "b", "a_plus", "b_plus"):
        assert before.head(head).values.tobytes() == after.head(head).values.tobytes(), head


@pytest.mark.parametrize("damage", ("drop", "reshape"))
def test_checkpoint_with_a_damaged_array_is_rejected(datasets, tmp_path, damage):
    cfg = T.TrainConfig(optimizer="adam", batch_size=16, steps=1, seed=8)
    path = tmp_path / "run.ckpt"
    T.save_checkpoint(path, T.train(*datasets, ModelConfig(**MODEL), cfg)[0], cfg)
    with np.load(path) as z:
        arrays = dict(z)
    if damage == "drop":
        del arrays["opt_model.v.tower.b.0.w"]
    else:
        arrays["emb.user"] = arrays["emb.user"][:-1]
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ConfigError, match="opt_model.v.tower.b.0.w" if damage == "drop" else "emb.user"):
        T.load_checkpoint(path)


@pytest.mark.parametrize("optimizer", ("sgd", "adam"))
@pytest.mark.parametrize("backbone", BACKBONES)
def test_resume_is_exact(datasets, tmp_path, backbone, optimizer):
    """k steps, save, load, then N - k steps equals N steps straight."""
    model_cfg = ModelConfig(backbone=backbone, **MODEL)
    cfg = T.TrainConfig(gamma1=0.05, optimizer=optimizer, batch_size=16, steps=6, eval_interval=2, seed=8)
    straight, history = T.train(*datasets, model_cfg, cfg)

    first, head = T.train(*datasets, model_cfg, replace(cfg, steps=4))
    T.save_checkpoint(tmp_path / "step4.ckpt", first, replace(cfg, steps=4))
    loaded, saved_cfg = T.load_checkpoint(tmp_path / "step4.ckpt")
    resumed, tail = T.train(*datasets, model_cfg, replace(saved_cfg, steps=6), state=loaded)

    assert param_bytes(resumed) == param_bytes(straight)
    assert json.dumps(head + tail) == json.dumps(history)


@pytest.mark.parametrize("backbone", BACKBONES)
def test_calibration_step_leaves_model_parameters(datasets, backbone):
    train_ds, _ = datasets
    cfg = T.TrainConfig(batch_size=16, seed=9)
    state = T.init_state(ModelConfig(backbone=backbone, **MODEL), train_ds, cfg)
    part = partition(train_ds)
    wiring = T.apply_variant(cfg.variant)
    T.train_step(state, train_ds, part, cfg, wiring)
    net_before = [t.values.tobytes() for t in state.net.parameters()]
    cal_before = [t.values.tobytes() for t in state.calibration.parameters()]

    T.calibration_step(state, train_ds, T.sample_step_batch(state, part, len(train_ds), cfg, wiring))

    assert [t.values.tobytes() for t in state.net.parameters()] == net_before
    assert [t.values.tobytes() for t in state.calibration.parameters()] != cal_before


@pytest.mark.parametrize("variant", DISTILLING)
@pytest.mark.parametrize("backbone", BACKBONES)
def test_kd_sends_no_gradient_to_teachers_or_calibration(datasets, backbone, variant):
    """With zero teacher weights and alpha = 1 the model loss is the KD terms
    plus a zero-weighted student CE, so only student-side parameters may get
    gradient."""
    train_ds, _ = datasets
    hyper = HyperParams(alpha_a=1.0, alpha_b=1.0, weight_a_plus=0.0, weight_b_plus=0.0)
    cfg = T.TrainConfig(batch_size=16, seed=10, variant=variant, hyper=hyper)
    state = T.init_state(ModelConfig(backbone=backbone, **MODEL), train_ds, cfg)
    part = partition(train_ds)
    wiring = T.apply_variant(variant)
    T.train_step(state, train_ds, part, cfg, wiring)  # calibrated variants now hold fitted Platt values
    state.calibration.zero_grad()

    components = T.model_loss_step(state, train_ds, T.sample_step_batch(state, part, len(train_ds), cfg, wiring),
                                   cfg, wiring)

    assert {"kd_a", "kd_b"} <= set(components)
    grads = {name: t.grad for name, t in state.net.named_parameters() + state.calibration.named_parameters()}
    for name, g in grads.items():
        if name.startswith(("tower.a_plus.", "tower.b_plus.", "cal.")):
            assert not g.any(), name
    for student in ("tower.a.", "tower.b."):
        assert any(g.any() for name, g in grads.items() if name.startswith(student))


def test_no_auxiliary_rank_is_crossdistil_with_zero_betas():
    cfg = T.TrainConfig(variant="no_auxiliary_rank")
    assert cfg.hyper.beta("a") == cfg.hyper.beta("b") == (0.0, 0.0)
    assert T.apply_variant("no_auxiliary_rank") == T.apply_variant("crossdistil")
    assert T.config_from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg
