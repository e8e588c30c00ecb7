"""Model construction, forward semantics and gradient isolation between heads."""

import numpy as np
import pytest

from conftest import finite_difference, grad_close, tiny_net
from crossdistil import numgrad as ng
from crossdistil.errors import ConfigError, UsageError
from crossdistil.model import HEADS, ModelConfig, MultiTaskNet


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
        net = MultiTaskNet(cfg, vocab_sizes=(10, 10, 10))
        expected = 3 * 10 * 4 + (12 * 8 + 8) + 4 * (8 * 1 + 1)
        assert net.n_parameters() == expected

    def test_parameter_census_gated(self):
        cfg = ModelConfig(embedding_dim=4, backbone="gated_experts", hidden_sizes=(8,),
                          tower_hidden=(), n_experts=2, seed=0)
        net = MultiTaskNet(cfg, vocab_sizes=(10, 10, 10))
        embeddings = 3 * 10 * 4
        experts = 4 * (12 * 8 + 8)  # 2 shared + 1 private per task
        gates = 2 * (12 * 3 + 3)  # per task, over 2 shared + 1 private
        towers = 4 * (8 * 1 + 1)
        assert net.n_parameters() == embeddings + experts + gates + towers

    def test_gates_start_at_uniform_mixture(self, rng):
        net = tiny_net(backbone="gated_experts")
        ids = rng.integers(0, 3, size=(6, 3))
        x = net._embed(np.asarray(ids))
        w, b = net.gates["a"]
        weights = ng.row_softmax(ng.add(ng.matmul(x, w), b))
        np.testing.assert_allclose(weights.values, 1.0 / 3.0, atol=1e-15)

    def test_init_scale_bounds(self):
        cfg = ModelConfig(embedding_dim=4, hidden_sizes=(8,), init_scale=0.5, seed=1)
        net = MultiTaskNet(cfg, vocab_sizes=(20, 20))
        w = dict(net.named_parameters())["trunk.0.w"]
        assert np.abs(w.values).max() <= 0.5 / np.sqrt(8)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(backbone="transformer")
        with pytest.raises(ConfigError):
            ModelConfig(hidden_sizes=())


class TestForward:
    @pytest.mark.parametrize("backbone", ["shared_bottom", "gated_experts"])
    def test_zero_parameters_give_zero_logits(self, backbone, rng):
        net = tiny_net(backbone=backbone)
        for _, p in net.named_parameters():
            p.values[...] = 0.0
        heads = net.forward(rng.integers(0, 3, size=(5, 3)))
        for name in HEADS:
            np.testing.assert_array_equal(heads.head(name).values, np.zeros((5, 1)))

    @pytest.mark.parametrize("backbone", ["shared_bottom", "gated_experts"])
    def test_duplicated_row_gives_identical_logits(self, backbone):
        net = tiny_net(backbone=backbone)
        ids = np.tile([[1, 2, 0]], (8, 1))
        heads = net.forward(ids)
        for name in HEADS:
            col = heads.head(name).values
            np.testing.assert_array_equal(col, np.tile(col[:1], (8, 1)))

    @pytest.mark.parametrize("backbone", ["shared_bottom", "gated_experts"])
    def test_row_permutation_permutes_logits(self, backbone, rng):
        net = tiny_net(backbone=backbone)
        ids = rng.integers(0, 3, size=(6, 3))
        perm = rng.permutation(6)
        base = net.forward(ids)
        permuted = net.forward(ids[perm])
        for name in HEADS:
            np.testing.assert_array_equal(permuted.head(name).values, base.head(name).values[perm])

    def test_out_of_range_id_names_field(self):
        net = tiny_net()
        with pytest.raises(UsageError, match="field 'i': id 9"):
            net.forward([[0, 9, 0]])

    @pytest.mark.parametrize("backbone", ["shared_bottom", "gated_experts"])
    def test_embedding_gradient_matches_finite_difference(self, backbone, rng):
        net = tiny_net(backbone=backbone, tower_hidden=(3,))
        ids = rng.integers(0, 3, size=(4, 3))

        def loss():
            return ng.reduce_mean(net.forward(ids).r_a)

        net.zero_grad()
        ng.backward(loss())
        table = net.embeddings[0]
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
        ng.backward(ng.reduce_mean(net.forward(ids).r_a))
        for head in ("b", "a_plus", "b_plus"):
            for p in net.tower_parameters(head):
                assert np.all(p.grad == 0.0)
        assert any(np.abs(p.grad).sum() > 0 for p in net.tower_parameters("a"))
        assert any(np.abs(t.grad).sum() > 0 for t in net.embeddings)

