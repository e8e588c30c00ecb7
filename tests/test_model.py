"""Model construction, forward semantics and gradient isolation between heads."""

import re

import numpy as np
import pytest

from conftest import finite_difference, grad_close, tiny_net
from crossdistil import numgrad as ng
from crossdistil.errors import ConfigError, UsageError
from crossdistil.model import HEADS, ModelConfig, MultiTaskNet
from crossdistil.numgrad import Tensor


class TestInit:
    def test_seeded_init_bit_identical(self):
        a = tiny_net(seed=7)
        b = tiny_net(seed=7)
        for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert pa.values.tobytes() == pb.values.tobytes(), name

    def test_parameter_census_shared_bottom(self):
        # 3 fields of vocab 10 at d=4, one hidden layer of 8, linear towers:
        # embeddings 3*10*4, trunk 12*8+8, towers 4*(8*1+1)
        cfg = ModelConfig(embedding_dim=4, hidden_sizes=(8,), tower_hidden=(), seed=0)
        net = MultiTaskNet(cfg, vocab_sizes=(10, 10, 10), field_names=("u", "i", "c"))
        expected = 3 * 10 * 4 + (12 * 8 + 8) + 4 * (8 * 1 + 1)
        assert net.n_parameters() == expected

    def test_parameter_census_gated(self):
        cfg = ModelConfig(embedding_dim=4, backbone="gated_experts", hidden_sizes=(8,),
                          tower_hidden=(), n_experts=2, seed=0)
        net = MultiTaskNet(cfg, vocab_sizes=(10, 10, 10), field_names=("u", "i", "c"))
        embeddings = 3 * 10 * 4
        experts = 4 * (12 * 8 + 8)  # 2 shared + 1 private per task
        gates = 2 * (12 * 3 + 3)  # per task, over 2 shared + 1 private
        towers = 4 * (8 * 1 + 1)
        assert net.n_parameters() == embeddings + experts + gates + towers

    def test_gates_start_at_uniform_mixture(self, rng):
        net = tiny_net(backbone="gated_experts")
        ids = rng.integers(0, 3, size=(6, 3))
        x = net._embed(np.asarray(ids))
        w, b = net.params["gate.a.w"], net.params["gate.a.b"]
        weights = ng.row_softmax(ng.add(ng.matmul(x, w), b))
        np.testing.assert_allclose(weights.values, 1.0 / 3.0, atol=1e-15)

    def test_init_scale_bounds(self):
        cfg = ModelConfig(embedding_dim=4, hidden_sizes=(8,), init_scale=0.5, seed=1)
        net = MultiTaskNet(cfg, vocab_sizes=(20, 20), field_names=("u", "i"))
        w = dict(net.named_parameters())["trunk.0.w"]
        assert np.abs(w.values).max() <= 0.5 / np.sqrt(8)

    # the layouts the golden runs do not reach: two trunk layers, tower hidden
    # layers, three shared experts
    LAYOUTS = {
        "shared_bottom": (
            dict(backbone="shared_bottom", hidden_sizes=(8, 4), tower_hidden=(3,)),
            ["emb.u", "emb.i", "trunk.0.w", "trunk.0.b", "trunk.1.w", "trunk.1.b"]
            + [f"tower.{h}.{i}.{p}" for h in HEADS for i in range(2) for p in "wb"],
        ),
        "gated_experts": (
            dict(backbone="gated_experts", n_experts=3, hidden_sizes=(8, 4), tower_hidden=(3, 2)),
            ["emb.u", "emb.i"]
            + [f"expert.{e}.{i}.{p}" for e in range(5) for i in range(2) for p in "wb"]
            + ["gate.a.w", "gate.a.b", "gate.b.w", "gate.b.b"]
            + [f"tower.{h}.{i}.{p}" for h in HEADS for i in range(3) for p in "wb"],
        ),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_names_and_draw_order_pinned(self, layout):
        """Names, order and init bytes: embeddings by field, then the trunk or
        each expert layer by layer (weight before bias), then zero gates, then
        the towers in HEADS order, each drawn uniformly in +-scale/sqrt(fan_in)."""
        kwargs, names = self.LAYOUTS[layout]
        cfg = ModelConfig(embedding_dim=3, init_scale=0.7, seed=11, **kwargs)
        net = MultiTaskNet(cfg, vocab_sizes=(5, 4), field_names=("u", "i"))
        assert [name for name, _ in net.named_parameters()] == names

        rng = np.random.default_rng(11)
        ref = [rng.uniform(-0.7 / np.sqrt(3), 0.7 / np.sqrt(3), size=(v, 3)) for v in (5, 4)]

        def mlp(sizes):
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
                s = 0.7 / np.sqrt(fan_in)
                ref.append(rng.uniform(-s, s, size=(fan_in, fan_out)))
                ref.append(rng.uniform(-s, s, size=(1, fan_out)))

        stacks = 1 if layout == "shared_bottom" else cfg.n_experts + 2
        for _ in range(stacks):
            mlp([6, 8, 4])
        if layout == "gated_experts":
            ref += [np.zeros((6, 4)), np.zeros((1, 4))] * 2
        for _ in HEADS:
            mlp([4, *cfg.tower_hidden, 1])
        assert len(ref) == len(names)
        for (name, t), want in zip(net.named_parameters(), ref):
            assert t.values.shape == want.shape and t.values.tobytes() == want.tobytes(), name
            assert t.requires_grad, name

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(backbone="transformer")
        with pytest.raises(ConfigError):
            ModelConfig(hidden_sizes=())
        with pytest.raises(ConfigError, match=re.escape("need one or more fields of vocabulary size at least 1, got sizes ()")):
            MultiTaskNet(ModelConfig(), vocab_sizes=(), field_names=())


class TestForward:
    @pytest.mark.parametrize("backbone", ["shared_bottom", "gated_experts"])
    def test_zero_parameters_give_zero_logits(self, backbone, rng):
        net = tiny_net(backbone=backbone)
        for _, p in net.named_parameters():
            p.values[...] = 0.0
        heads = net.forward(rng.integers(0, 3, size=(5, 3)))
        for name in HEADS:
            np.testing.assert_array_equal(heads[name].values, np.zeros((5, 1)))

    @pytest.mark.parametrize("backbone", ["shared_bottom", "gated_experts"])
    def test_duplicated_row_gives_identical_logits(self, backbone):
        net = tiny_net(backbone=backbone)
        ids = np.tile([[1, 2, 0]], (8, 1))
        heads = net.forward(ids)
        for name in HEADS:
            col = heads[name].values
            np.testing.assert_array_equal(col, np.tile(col[:1], (8, 1)))

    @pytest.mark.parametrize("backbone", ["shared_bottom", "gated_experts"])
    def test_row_permutation_permutes_logits(self, backbone, rng):
        net = tiny_net(backbone=backbone)
        ids = rng.integers(0, 3, size=(6, 3))
        perm = rng.permutation(6)
        base = net.forward(ids)
        permuted = net.forward(ids[perm])
        for name in HEADS:
            np.testing.assert_array_equal(permuted[name].values, base[name].values[perm])

    @pytest.mark.parametrize("backbone", ["shared_bottom", "gated_experts"])
    @pytest.mark.parametrize("heads", [("a",), ("b_plus",), ("a_plus", "b_plus"), ("b", "a_plus")])
    def test_head_subset_matches_full_forward(self, backbone, heads, rng):
        net = tiny_net(backbone=backbone, tower_hidden=(3,))
        ids = rng.integers(0, 3, size=(7, 3))
        full = net.forward(ids)
        subset = net.forward(ids, heads)
        assert sorted(subset) == sorted(heads)
        for name in heads:
            assert subset[name].values.tobytes() == full[name].values.tobytes(), name

    def test_unknown_head_rejected(self):
        with pytest.raises(UsageError, match="unknown heads"):
            tiny_net().forward([[0, 0, 0]], ("a", "c_plus"))

    def test_out_of_range_id_names_field(self):
        net = tiny_net()
        with pytest.raises(UsageError, match="field 'i': id 9"):
            net.forward([[0, 9, 0]])

    @pytest.mark.parametrize("backbone", ["shared_bottom", "gated_experts"])
    def test_embedding_gradient_matches_finite_difference(self, backbone, rng):
        net = tiny_net(backbone=backbone, tower_hidden=(3,))
        ids = rng.integers(0, 3, size=(4, 3))

        def loss():
            return ng.reduce_mean(net.forward(ids)["a"])

        net.zero_grad()
        ng.backward(loss())
        table = net.params["emb.u"]
        used = np.unique(ids[:, 0])
        for row in used[:2]:
            for col in range(table.shape[1]):
                fd = finite_difference(loss, table, int(row), col)
                assert grad_close(table.grad[int(row), col], fd)


class TestGradientIsolation:
    @pytest.mark.parametrize("backbone", ["shared_bottom", "gated_experts"])
    def test_loss_on_one_head_leaves_other_towers_unmoved(self, backbone, rng):
        net = tiny_net(backbone=backbone)
        ids = rng.integers(0, 3, size=(6, 3))
        net.zero_grad()
        ng.backward(ng.reduce_mean(net.forward(ids)["a"]))
        towers = {head: [p for name, p in net.named_parameters() if name.startswith(f"tower.{head}.")]
                  for head in HEADS}
        for head in ("b", "a_plus", "b_plus"):
            for p in towers[head]:
                assert np.all(p.grad == 0.0)
        assert any(np.abs(p.grad).sum() > 0 for p in towers["a"])
        assert any(np.abs(t.grad).sum() > 0 for name, t in net.params.items() if name.startswith("emb."))


@pytest.mark.parametrize("backbone", ["shared_bottom", "gated_experts"])
def test_params_is_the_only_parameter_store(backbone, rng):
    """Fresh tensors put under every name of ``params`` carry the whole forward
    and take every gradient; the tensors they replace take none."""
    net = tiny_net(backbone=backbone, tower_hidden=(3,))
    ids = rng.integers(0, 3, size=(6, 3))
    before = {head: t.values.tobytes() for head, t in net.forward(ids).items()}
    originals = dict(net.params)
    for name, t in originals.items():
        net.params[name] = Tensor(t.values.copy(), requires_grad=True)
    heads = net.forward(ids)
    assert {head: t.values.tobytes() for head, t in heads.items()} == before
    total = heads[HEADS[0]]
    for head in HEADS[1:]:
        total = ng.add(total, heads[head])
    ng.backward(ng.reduce_sum(total))
    for name, t in net.params.items():
        assert t is not originals[name] and t.grad.any(), name
        assert not originals[name].grad.any(), name
