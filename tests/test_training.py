"""Training-loop tests: checkpoints round-trip bit for bit, resume is exact,
and the bi-level invariants hold (the calibration step never moves model
parameters; the KD term never sends gradient to the teacher towers or the
Platt parameters)."""

import json
import re
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import finite_difference, grad_close, tiny_net
from crossdistil import numgrad as ng
from crossdistil import training as T
from crossdistil.data import PAIRS, QUADS, Dataset, SynthConfig, generate_synthetic, partition, split_dataset
from crossdistil.errors import ConfigError, DegenerateLabels, NumericError, TrainingAborted
from crossdistil.losses import CalibrationParams, HyperParams
from crossdistil.model import BACKBONES, HEADS, TEACHERS, ModelConfig, MultiTaskNet
from crossdistil.numgrad import Tensor

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
    for head in HEADS:
        assert before[head].values.tobytes() == after[head].values.tobytes(), head


DAMAGE = {  # how a checkpoint member is damaged -> (the member, what the error says)
    "drop": ("opt_model.v.tower.b.0.w", "differ in"),
    "reshape": ("emb.user", "has shape"),
    # a cast on load would break exact resume: float32 turns 0.1 into 0.10000000149011612
    "float32": ("tower.a.0.w", "has dtype float32"),
    "int64": ("opt_model.m.emb.item", "has dtype int64"),
}


def saved_members(datasets, path) -> dict[str, np.ndarray]:
    """Train one Adam step, checkpoint it to ``path`` and return the npz members."""
    cfg = T.TrainConfig(optimizer="adam", batch_size=16, steps=1, seed=8)
    T.save_checkpoint(path, T.train(*datasets, ModelConfig(**MODEL), cfg)[0], cfg)
    with np.load(path) as z:
        return dict(z)


@pytest.mark.parametrize("damage", DAMAGE)
def test_checkpoint_with_a_damaged_array_is_rejected(datasets, tmp_path, damage):
    path = tmp_path / "run.ckpt"
    arrays = saved_members(datasets, path)
    member, says = DAMAGE[damage]
    if damage == "drop":
        del arrays[member]
    elif damage == "reshape":
        arrays[member] = arrays[member][:-1]
    else:
        arrays[member] = arrays[member].astype(damage)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ConfigError, match=re.escape(member)) as exc:
        T.load_checkpoint(path)
    assert says in str(exc.value)


@pytest.mark.parametrize("header, says", [
    ("[]", "header [] is not a JSON object"),
    ("3", "header 3 is not a JSON object"),
    ('"x"', 'header "x" is not a JSON object'),
    ("null", "header null is not a JSON object"),
    ({"step": -5}, "must be nonnegative integers, got {'step': -5}"),
    ({"step": 2.7}, "must be nonnegative integers, got {'step': 2.7}"),
    ({"step": True}, "must be nonnegative integers, got {'step': True}"),
    ({"adam_t": {"opt_model": 1, "opt_calibration": -1}}, "got {'adam_t.opt_calibration': -1}"),
    ({"adam_t": {"opt_model": 1.0, "opt_calibration": 1}}, "got {'adam_t.opt_model': 1.0}"),
])
def test_checkpoint_with_a_damaged_header_is_rejected(datasets, tmp_path, header, says):
    """A header that is not an object, or a step count that ``int()`` would
    take but that is no count, fails the load instead of loading wrongly."""
    path = tmp_path / "run.ckpt"
    members = saved_members(datasets, path)
    if isinstance(header, dict):
        header = json.dumps({**json.loads(str(members[T.HEADER])), **header})
    members[T.HEADER] = np.array(header)
    with open(path, "wb") as fh:
        np.savez(fh, **members)
    with pytest.raises(ConfigError, match="as a version-2 checkpoint") as exc:
        T.load_checkpoint(path)
    assert says in str(exc.value)


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


@pytest.mark.parametrize("variant", T.VARIANTS)
@pytest.mark.parametrize("backbone", BACKBONES)
def test_model_objective_gradient_matches_finite_difference(monkeypatch, backbone, variant):
    """The gradient ``model_loss_step`` leaves in every parameter matches central
    differences of the whole objective it reports. The KD target is a
    stop-gradient array, so it is held at its value for the unperturbed
    parameters; the objective is then a smooth function of every parameter. An
    lr-0 Sgd keeps the parameters where they are."""
    rng = np.random.default_rng(11)
    net = tiny_net(seed=3, backbone=backbone, tower_hidden=(3,))
    labels = np.arange(48) % 4  # every label combination present
    ds = Dataset(net.field_names, net.vocab_sizes,
                 np.column_stack([rng.integers(0, v, size=48) for v in net.vocab_sizes]), labels // 2, labels % 2)
    cal = CalibrationParams()
    spawned = [np.random.default_rng(s) for s in np.random.SeedSequence(12).spawn(3)]
    state = T.TrainState(net, cal, T.Sgd(net.named_parameters(), 0.0), T.Sgd(cal.named_parameters(), 0.0), 0,
                         *spawned)
    cfg = T.TrainConfig(batch_size=6, variant=variant)
    wiring = T.apply_variant(variant)
    batch = T.sample_step_batch(state, partition(ds), len(ds), cfg, wiring)
    targets = {}
    distill_target = T._distill_target

    def fixed_target(state, wiring, h, heads, labels, task):
        if task not in targets:
            targets[task] = distill_target(state, wiring, h, heads, labels, task)
        return targets[task]

    monkeypatch.setattr(T, "_distill_target", fixed_target)

    def objective():
        return Tensor.scalar(T.model_loss_step(state, ds, batch, cfg, wiring)["model"])

    objective()
    assert set(targets) == (set() if wiring.distill == "off" else {"a", "b"})
    named = net.named_parameters()
    grads = {name: t.grad.copy() for name, t in named}
    groups = {name.split(".")[0] for name, _ in named}
    assert groups == ({"emb", "trunk", "tower"} if backbone == "shared_bottom" else {"emb", "expert", "gate", "tower"})
    for name, t in named:
        g = grads[name]
        # the entry with the largest gradient, plus one at random
        for pos in {int(np.abs(g).argmax()), int(rng.integers(g.size))}:
            r, c = divmod(pos, g.shape[1])
            assert grad_close(g[r, c], finite_difference(objective, t, r, c)), (name, r, c)
    trains_teachers = wiring.teachers != "off"
    assert any(grads[name].any() for name, _ in named if name.startswith("tower.a_plus.")) == trains_teachers


def _count_calls(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name`` so that each call appends to the returned list."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_records_forward_builds_only_the_heads_the_variant_reads(datasets, monkeypatch):
    """A ``backbone`` step reads only the students' logits of the records, so on
    gated_experts it records 2 tape ops (one ``linear`` per teacher tower)
    fewer than a step whose records forward builds all four heads, and reports
    the same losses. A crossdistil step still makes 10 forwards."""
    train_ds = datasets[0]
    model_cfg = ModelConfig(backbone="gated_experts", **MODEL)
    part = partition(train_ds)

    def one_step(variant, all_heads=False):
        cfg = T.TrainConfig(batch_size=8, variant=variant, seed=3)
        state = T.init_state(model_cfg, train_ds, cfg)
        with monkeypatch.context() as m:
            if all_heads:
                forward = MultiTaskNet.forward
                m.setattr(MultiTaskNet, "forward", lambda net, ids, heads=HEADS: forward(net, ids))
            ops = _count_calls(m, ng, "_make")
            forwards = _count_calls(m, MultiTaskNet, "forward")
            components = T.train_step(state, train_ds, part, cfg, T.apply_variant(variant))
        return len(ops), len(forwards), components

    ops, forwards, components = one_step("backbone")
    all_ops, all_forwards, all_components = one_step("backbone", all_heads=True)
    assert (forwards, all_forwards) == (1, 1)
    assert all_ops - ops == 2
    assert components == all_components
    assert one_step("crossdistil")[1] == 10


def test_crossdistil_step_forwards_each_row_set_once_in_batch_order(datasets, monkeypatch):
    """The model step forwards the records for all heads, each quadruplet
    subset for both teachers and each pair union for its task's teacher, in
    the batch's order; the calibration step then forwards the records for
    the teachers."""
    train_ds = datasets[0]
    part = partition(train_ds)
    cfg = T.TrainConfig(batch_size=8, seed=3)
    wiring = T.apply_variant(cfg.variant)
    model_cfg = ModelConfig(backbone="gated_experts", **MODEL)
    batch = T.sample_step_batch(T.init_state(model_cfg, train_ds, cfg), part, len(train_ds), cfg, wiring)
    state = T.init_state(model_cfg, train_ds, cfg)
    asked = []
    forward = MultiTaskNet.forward

    def recording(net, ids, heads=HEADS):
        asked.append((ids.tobytes(), tuple(heads)))
        return forward(net, ids, heads)

    monkeypatch.setattr(MultiTaskNet, "forward", recording)
    T.train_step(state, train_ds, part, cfg, wiring)
    assert list(batch) == ["records", *QUADS, *PAIRS["a"], *PAIRS["b"]]
    heads = [HEADS, *[TEACHERS] * 4, *[("a_plus",)] * 2, *[("b_plus",)] * 2, TEACHERS]
    names = [*batch, "records"]
    assert asked == [(train_ds.field_ids[batch[n]].tobytes(), h) for n, h in zip(names, heads)]


def _step_ops(monkeypatch, train_ds, backbone, variant) -> tuple[Counter, int]:
    """The op names ``_make`` records in one ``train_step``, and the forwards it makes."""
    cfg = T.TrainConfig(batch_size=8, variant=variant, seed=3)
    state = T.init_state(ModelConfig(backbone=backbone, **MODEL), train_ds, cfg)
    made = []
    make = ng._make

    def recording(values, op, parents, bwd):
        made.append(op)
        return make(values, op, parents, bwd)

    with monkeypatch.context() as m:
        m.setattr(ng, "_make", recording)
        forwards = _count_calls(m, MultiTaskNet, "forward")
        T.train_step(state, train_ds, partition(train_ds), cfg, T.apply_variant(variant))
    return Counter(made), len(forwards)


def test_crossdistil_gated_step_records_one_op_per_layer(datasets, monkeypatch):
    """Each of the 10 forwards records one ``gather_cols`` and one ``linear`` per
    dense layer it runs: the 2 shared experts, a private expert and a gate per
    task it feeds, and a tower per head. That is 10 for the records, 8 for each
    of the 4 quadruplet subsets and for the calibration forward, and 5 for each
    of the 4 pair unions. The Platt map adds one ``linear`` per task. Each
    loss term is one node: per task 3 ``bpr_mean`` joined by a
    ``weighted_sum``, a student ``ce_mean`` and ``soft_ce_mean`` joined by
    another, and the calibration ``ce_mean``; one ``weighted_sum`` makes the
    model loss and one ``add`` the calibration loss."""
    ops, forwards = _step_ops(monkeypatch, datasets[0], "gated_experts", "crossdistil")
    assert forwards == 10
    assert ops == {
        "gather_cols": 10, "linear": 72, "row_softmax": 16, "row_mix": 16, "exp": 2, "neg": 2, "add": 1,
        "bpr_mean": 6, "ce_mean": 4, "soft_ce_mean": 2, "weighted_sum": 5}
    assert sum(ops.values()) == 136


@pytest.mark.parametrize("variant", T.VARIANTS)
@pytest.mark.parametrize("backbone", BACKBONES)
def test_every_recorded_op_is_in_the_op_table(datasets, monkeypatch, backbone, variant):
    ops, _ = _step_ops(monkeypatch, datasets[0], backbone, variant)
    assert ops and set(ops) <= set(ng.OPS)


def test_calibration_step_records_only_what_its_loss_reads(datasets, monkeypatch):
    """Per task, the tape holds the Platt map (exp, neg, linear) and the
    cross-entropy on its logit (ce_mean); one add joins the tasks. No
    sigmoid is made, and backward reaches every node."""
    train_ds = datasets[0]
    cfg = T.TrainConfig(batch_size=8, seed=3)
    state = T.init_state(ModelConfig(**MODEL), train_ds, cfg)
    batch = T.sample_step_batch(state, partition(train_ds), len(train_ds), cfg, T.apply_variant(cfg.variant))
    made, recorded = [], []
    make = ng._make

    def recording(values, op, parents, bwd):
        out = make(values, op, parents, bwd)
        made.append(op)
        if out.requires_grad:
            recorded.append(out)
        return out

    monkeypatch.setattr(ng, "_make", recording)
    T.calibration_step(state, train_ds, batch)
    assert "sigmoid" not in made
    assert Counter(t.op for t in recorded) == {
        "exp": 2, "linear": 2, "neg": 2, "add": 1, "ce_mean": 2}
    reached, stack = set(), [recorded[-1]]  # the last node made is the loss
    while stack:
        node = stack.pop()
        if id(node) not in reached:
            reached.add(id(node))
            stack.extend(p for p in node._parents if p.requires_grad)
    assert {id(t) for t in recorded} <= reached


def test_no_auxiliary_rank_is_crossdistil_with_zero_betas(datasets):
    """Zero betas scale both within-class terms of the quadruplet loss to exact
    zeros, so crossdistil then trains its teachers on the pairwise term alone:
    the history and final parameters of ``no_auxiliary_rank``, bit for bit,
    whatever betas that variant is given."""
    zero = HyperParams(beta1_a=0.0, beta2_a=0.0, beta1_b=0.0, beta2_b=0.0)
    for backbone in BACKBONES:
        for optimizer in ("sgd", "adam"):
            (pair, pair_history), (quad, quad_history) = (
                T.train(*datasets, ModelConfig(backbone=backbone, **MODEL),
                        T.TrainConfig(gamma1=0.05, optimizer=optimizer, batch_size=16, steps=6, eval_interval=3,
                                      seed=8, variant=variant, hyper=hyper))
                for variant, hyper in (("no_auxiliary_rank", HyperParams()), ("crossdistil", zero)))
            assert json.dumps(quad_history) == json.dumps(pair_history), (backbone, optimizer)
            assert param_bytes(quad) == param_bytes(pair), (backbone, optimizer)


def test_adam_rejects_a_gradient_whose_square_overflows():
    """An infinite second moment would freeze the entry: every later update is m / inf = 0."""
    p = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    p.grad[...] = [[1e160, 1.0]]
    opt = T.Adam([("w", p)], 0.1)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="second moment of parameter 'w'"):
        opt.step()


def test_adam_overflow_aborts_training_naming_the_step(datasets):
    train_ds = datasets[0]
    cfg = T.TrainConfig(optimizer="adam", batch_size=16, steps=2, variant="backbone", seed=8,
                        hyper=HyperParams(weight_a=1e160))  # a finite loss whose gradients square to inf
    state = T.init_state(ModelConfig(**MODEL), train_ds, cfg)
    with pytest.raises(TrainingAborted, match=r"^step 1: non-finite Adam second moment of parameter 'emb\."):
        T.train_step(state, train_ds, partition(train_ds), cfg, T.apply_variant(cfg.variant))


def test_repeated_field_names_are_rejected_at_init_state():
    """Two tables under one name would share a checkpoint array and an Adam slot."""
    ds = Dataset(("x", "x"), (9, 5), np.zeros((4, 2), dtype=np.int64), np.array([0, 1, 0, 1]), np.array([1, 1, 0, 0]))
    with pytest.raises(ConfigError, match="field names must be distinct"):
        T.init_state(ModelConfig(**MODEL), ds, T.TrainConfig())


def test_an_empty_sampled_subset_fails_before_any_state_or_evaluation(datasets, monkeypatch):
    """Without (1,1) rows crossdistil has no quadruplet to draw: ``train`` names the
    variant and the subset before it builds a state or evaluates. Variants that
    draw no quadruplets train on the same rows."""
    train_ds, eval_ds = datasets
    no_pos_pos = train_ds.subset(np.flatnonzero(train_ds.y_a + train_ds.y_b < 2))
    built = _count_calls(monkeypatch, T, "init_state")
    evaluated = _count_calls(monkeypatch, T, "evaluate")
    cfg = T.TrainConfig(batch_size=8, steps=2, eval_interval=2, seed=3)
    with pytest.raises(DegenerateLabels, match=r"^variant 'crossdistil' samples the label subsets \['pos_pos'\]"):
        T.train(no_pos_pos, eval_ds, ModelConfig(**MODEL), cfg)
    assert (built, evaluated) == ([], [])
    for variant in ("no_auxiliary_rank", "kd_same_task", "backbone"):
        state, history = T.train(no_pos_pos, eval_ds, ModelConfig(**MODEL), replace(cfg, variant=variant))
        assert state.step == 2 and [r["step"] for r in history] == [0, 2], variant


@pytest.mark.parametrize("variant", T.VARIANTS)
def test_each_variant_draws_its_row_sets(datasets, variant):
    train_ds = datasets[0]
    cfg = T.TrainConfig(batch_size=8, variant=variant, seed=3)
    state = T.init_state(ModelConfig(**MODEL), train_ds, cfg)
    quads_rng = state.rng_quads.bit_generator.state
    batch = T.sample_step_batch(state, partition(train_ds), len(train_ds), cfg, T.apply_variant(variant))
    pairs = [*PAIRS["a"], *PAIRS["b"]]
    if variant in ("backbone", "kd_same_task", "kd_cross_task_direct"):
        assert list(batch) == ["records"]
    elif variant == "no_auxiliary_rank":
        assert list(batch) == ["records", *pairs]
        assert state.rng_quads.bit_generator.state == quads_rng
    else:
        assert list(batch) == ["records", *QUADS, *pairs]
    assert all(rows.shape == (8,) for rows in batch.values())


# evaluation forwards in chunks of this many rows in these tests, so the 200-row eval split is 4 chunks
CHUNK = 64


def _eval_net(eval_ds, backbone) -> MultiTaskNet:
    assert len(eval_ds) > 2 * CHUNK
    return MultiTaskNet(ModelConfig(backbone=backbone, **MODEL), eval_ds.vocab_sizes, eval_ds.field_names)


@pytest.mark.parametrize("backbone", BACKBONES)
def test_chunked_forward_equals_a_forward_per_chunk(datasets, backbone):
    eval_ds = datasets[1]
    net = _eval_net(eval_ds, backbone)
    with ng.no_grad():
        chunks = [net.forward(eval_ds.field_ids[start:start + CHUNK]) for start in range(0, len(eval_ds), CHUNK)]
    scores = T._forward_values(net, eval_ds, CHUNK)
    for head in HEADS:
        assert scores[head].tobytes() == np.concatenate([c[head].values[:, 0] for c in chunks]).tobytes(), head


@pytest.mark.parametrize("backbone", BACKBONES)
def test_evaluate_records_no_tape(datasets, monkeypatch, backbone):
    eval_ds = datasets[1]
    net = _eval_net(eval_ds, backbone)
    made = []  # requires_grad of every tensor an op makes
    make = ng._make

    def spy(*args, **kwargs):
        out = make(*args, **kwargs)
        made.append(out.requires_grad)
        return out

    monkeypatch.setattr(ng, "_make", spy)
    monkeypatch.setattr(T, "_forward_values", partial(T._forward_values, chunk=CHUNK))
    T.evaluate(net, CalibrationParams(), eval_ds)
    assert made and not any(made)


@pytest.mark.parametrize("backbone", BACKBONES)
@pytest.mark.parametrize("poisoned, op", [("last_chunk_rows", "gather_cols"), ("tower", "linear")])
def test_a_non_finite_forward_raises_naming_the_op(datasets, backbone, poisoned, op):
    """A NaN embedding row that only the last chunk reads, or a non-finite tower weight."""
    eval_ds = datasets[1]
    net = _eval_net(eval_ds, backbone)
    ids = np.array(eval_ds.field_ids)
    ids[:, 0] = np.arange(len(eval_ds)) // CHUNK == (len(eval_ds) - 1) // CHUNK  # id 1 of the first field in the last chunk only
    eval_ds = Dataset(eval_ds.field_names, eval_ds.vocab_sizes, ids, eval_ds.y_a, eval_ds.y_b)
    if poisoned == "last_chunk_rows":
        net.embeddings[0].values[1, 0] = np.nan
    else:
        net.towers["a"][0][0].values[0, 0] = np.inf
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.raises(NumericError, match=f"^non-finite output in op '{op}'$"):
        T._forward_values(net, eval_ds, CHUNK)
