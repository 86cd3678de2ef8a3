"""Model construction, augmentation, forward/feature/inverse passes, the
residual baseline, and conv filter matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anodelab import models as mdl
from anodelab import tensorgrad as tg
from anodelab.data import SphereAnnulusConfig, angular_split, gen_concentric
from anodelab.models import (Model, ModelSpec, augment, features,
                             flow_trajectory, invert_features,
                             match_conv_filters, node_forward, param_count,
                             param_shapes, vector_field)
from anodelab.odeint import SolverConfig
from anodelab.tensorgrad import CompGraph, Tensor, backward
from reference import add, concat, grad_leaf, matmul, taped


class Counting:
    """Passes evaluations through to dynamics f and counts them."""

    def __init__(self, f):
        self.f, self.nfe = f, 0

    def eval(self, h, t):
        self.nfe += 1
        return self.f.eval(h, t)


class TestModelSpec:
    @pytest.mark.parametrize("kwargs", [
        {"kind": "cnn"},
        {"kind": "anode", "p": -1},
        {"kind": "resnet", "resnet_layers": 0},
        {"head": "linear"},
        {"head": "identity", "input_dim": 2, "output_dim": 1},
        {"input_dim": 0},
        {"hidden_dim": 0},
        {"output_dim": 0},
        {"hidden_dim": -1},
        {"T": 0.0}, {"T": -1.0}, {"T": float("nan")}, {"T": float("inf")},
        {"T": "x"}, {"T": True}, {"kind": "anode", "p": True},
        {"hidden_dim": 2.0}, {"input_dim": "1"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ModelSpec(**kwargs)

    def test_aug_only_for_anode(self):
        assert ModelSpec(kind="anode", p=5).aug == 5
        assert ModelSpec(kind="node", p=5).aug == 0

    def test_state_dim(self):
        assert ModelSpec(kind="anode", input_dim=2, p=3).state_dim == 5
        assert ModelSpec(kind="node", input_dim=2).state_dim == 2


class TestAugment:
    def test_zero_is_identity(self):
        x = Tensor([[1.0, 2.0]])
        assert augment(x, 0) is x

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            augment(Tensor([[1.0]]), -1)

    @given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_feature_axis(self, n, d, p):
        x = np.random.default_rng(0).standard_normal((n, d))
        out = augment(Tensor(x), p)
        assert out.shape == (n, d + p)
        assert np.all(out.data[:, :d] == x)
        assert np.all(out.data[:, d:] == 0.0)

    def test_channel_axis(self):
        x = np.ones((2, 3, 4, 4))
        out = augment(Tensor(x), 2)
        assert out.shape == (2, 5, 4, 4)
        assert np.all(out.data[:, 3:] == 0.0)

    @pytest.mark.parametrize("shape,axis", [((3, 2), -1), ((2, 3, 4, 4), 1)])
    def test_leaf_with_concat_bits(self, shape, axis):
        # a leaf, not a tape node: a model's input never takes a gradient
        x = Tensor(np.random.default_rng(0).standard_normal(shape))
        with CompGraph() as g:
            out = augment(x, 2)
        zeros = list(shape)
        zeros[axis] = 2
        want = concat([x, Tensor(np.zeros(zeros))], axis=axis).data
        assert len(g) == 0 and out._serial == 0 and out.grad is None
        assert out.data.tobytes() == want.tobytes() and out.data.strides == want.strides


class TestParamCount:
    def test_mlp_node_closed_form(self):
        d, hdim, out = 2, 16, 1
        # dynamics (d+1)->h->h->d with biases, plus affine head d->out
        expect = ((d + 1) * hdim + hdim) + (hdim * hdim + hdim) \
            + (hdim * d + d) + (d * out + out)
        assert param_count(ModelSpec(kind="node", input_dim=d,
                                     hidden_dim=hdim, output_dim=out)) == expect

    def test_anode_counts_grow_with_p(self):
        base = param_count(ModelSpec(kind="anode", input_dim=2, p=0,
                                     hidden_dim=8))
        more = param_count(ModelSpec(kind="anode", input_dim=2, p=3,
                                     hidden_dim=8))
        assert more > base

    def test_conv_node_closed_form(self):
        c, k, out = 1, 8, 2
        expect = (k * (c + 1) * 1 + k) \
            + (k * (k + 1) * 9 + k) \
            + (c * (k + 1) * 1 + c) \
            + (c * out + out)
        # c1: (c+1) in-channels 1x1; c2: (k+1) in 3x3; c3: back to c; GAP head
        assert param_count(ModelSpec(kind="node", input_dim=c, hidden_dim=k,
                                     output_dim=out, conv=True)) == expect

    def test_resnet_scales_with_layers(self):
        two = param_count(ModelSpec(kind="resnet", resnet_layers=2,
                                    input_dim=1, hidden_dim=8))
        five = param_count(ModelSpec(kind="resnet", resnet_layers=5,
                                     input_dim=1, hidden_dim=8))
        per_layer = (1 * 8 + 8) + (8 * 8 + 8) + (8 * 1 + 1)
        assert five - two == 3 * per_layer

    @pytest.mark.parametrize("spec", [
        ModelSpec(kind="node", input_dim=2, hidden_dim=5),
        ModelSpec(kind="anode", input_dim=1, p=2, hidden_dim=3, output_dim=2),
        ModelSpec(kind="anode", input_dim=1, p=1, hidden_dim=4, head="identity",
                  output_dim=2),
        ModelSpec(kind="resnet", resnet_layers=3, input_dim=2, hidden_dim=4),
        ModelSpec(kind="anode", input_dim=1, p=2, hidden_dim=6, output_dim=2,
                  conv=True)], ids=["node", "anode", "identity", "resnet", "conv"])
    def test_model_follows_param_shapes(self, spec):
        m = Model(spec, seed=0)
        assert [(n, t.shape) for n, t in m.params.items()] == list(param_shapes(spec))
        assert sum(t.size for _, t in m.params.items()) == m.param_count()

    def test_counted_without_building_a_model(self, monkeypatch):
        def no_model(*args, **kwargs):
            raise AssertionError("a Model was built")

        monkeypatch.setattr(Model, "__init__", no_model)
        assert param_count(ModelSpec(kind="anode", input_dim=2, p=3,
                                     hidden_dim=8, output_dim=2)) == 185
        assert param_count(ModelSpec(kind="node", input_dim=6, hidden_dim=42,
                                     output_dim=2, conv=True)) == 16910
        assert match_conv_filters(6, 1, 32, 2) == (42, 43)


class TestForward:
    def test_node_forward_shapes_and_nfe(self):
        m = Model(ModelSpec(kind="node", input_dim=2, hidden_dim=8), seed=0)
        out, nfe = node_forward(m, Tensor(np.zeros((5, 2))))
        assert out.shape == (5, 1)
        assert nfe >= 7 and (nfe - 1) % 6 == 0

    @pytest.mark.parametrize("kind,p,nfe", [("node", 0, 13), ("anode", 5, 13)])
    def test_concentric_nfe_pinned(self, kind, p, nfe):
        # A3's fixture specs at seed 0, untrained, on the first 64 training
        # points: a deterministic NFE gate (19 each with the Euler probe
        # h0 = 0.01*d0/d1 alone as the first step)
        ds = gen_concentric(SphereAnnulusConfig(d=2, seed=0))
        train_set, _ = angular_split(ds, 0.0, np.pi / 5)
        m = Model(ModelSpec(kind=kind, input_dim=2, p=p, hidden_dim=32,
                            output_dim=1), seed=0)
        _, got = node_forward(m, Tensor(train_set.inputs[:64]), SolverConfig())
        assert got == nfe

    def test_anode_p0_equals_node_same_seed(self):
        a = Model(ModelSpec(kind="anode", input_dim=2, p=0, hidden_dim=8), seed=3)
        n = Model(ModelSpec(kind="node", input_dim=2, hidden_dim=8), seed=3)
        x = Tensor(np.random.default_rng(0).standard_normal((4, 2)))
        oa, _ = node_forward(a, x)
        on, _ = node_forward(n, x)
        assert np.array_equal(oa.data, on.data)

    def test_resnet_forward_counts_layers_as_nfe(self):
        m = Model(ModelSpec(kind="resnet", resnet_layers=3, input_dim=2,
                            hidden_dim=8), seed=0)
        out, nfe = node_forward(m, Tensor(np.zeros((4, 2))))
        assert nfe == 3 and out.shape == (4, 1)

    def test_resnet_forward_is_residual_composition(self):
        m = Model(ModelSpec(kind="resnet", resnet_layers=2, input_dim=2,
                            hidden_dim=8), seed=1)
        x = Tensor(np.random.default_rng(1).standard_normal((3, 2)))
        h = x.data
        for i in range(2):
            w = [m.params[f"res.{i}.l{j}.w"].data for j in (1, 2, 3)]
            b = [m.params[f"res.{i}.l{j}.b"].data for j in (1, 2, 3)]
            z = np.maximum(h @ w[0] + b[0], 0.0)
            z = np.maximum(z @ w[1] + b[1], 0.0)
            h = h + (z @ w[2] + b[2])
        assert np.allclose(node_forward(m, x)[0].data, m.head(Tensor(h)).data)

    @pytest.mark.parametrize("seed", range(5))
    def test_resnet_residual_matches_add_chain(self, seed):
        # the residual update as one node, h + f(h) with gradient g + f's
        # vjp, gives the bits of the broadcasting add chain it replaced, in
        # the states and every gradient, the input's included
        m = Model(ModelSpec(kind="resnet", resnet_layers=3, input_dim=2,
                            hidden_dim=8, output_dim=2), seed=seed)
        x = np.random.default_rng(seed).standard_normal((16, 2))
        y = np.random.default_rng(seed + 1).standard_normal(32)

        def run(forward):
            m.params.zero_grad()
            h = grad_leaf(x)
            with CompGraph() as g:
                out = forward(h)
                loss = tg.mse(out, y)
            backward(g, loss)
            return out.data.tobytes(), h.grad.tobytes(), m.params.grad.tobytes()

        def add_chain(h):
            for layer in m.layers:
                h = add(h, tg.mlp(h, None, layer))
            return m.head(h)

        assert run(lambda h: node_forward(m, h)[0]) == run(add_chain)

    def test_identity_head_returns_state(self):
        m = Model(ModelSpec(kind="node", input_dim=1, output_dim=1,
                            hidden_dim=8, head="identity"), seed=0)
        assert "head.w" not in dict(m.params.items())
        out, _ = node_forward(m, Tensor([[0.5]]))
        feat = features(m, Tensor([[0.5]]))
        assert np.allclose(out.data, feat.data)

    def test_gap_head_for_images(self):
        m = Model(ModelSpec(kind="node", input_dim=2, hidden_dim=4,
                            output_dim=3, conv=True), seed=0)
        state = Tensor(np.random.default_rng(0).standard_normal((2, 2, 5, 5)))
        out = m.head(state)
        assert out.shape == (2, 3)
        pooled = state.data.mean(axis=(2, 3))
        manual = pooled @ m.params["head.w"].data + m.params["head.b"].data
        assert np.allclose(out.data, manual)


class TestFeaturesAndInverse:
    def test_feature_dim_includes_augmentation(self):
        m = Model(ModelSpec(kind="anode", input_dim=2, p=3, hidden_dim=8), seed=0)
        f = features(m, Tensor(np.zeros((4, 2))))
        assert f.shape == (4, 5)

    def test_round_trip_untrained(self):
        cfg = SolverConfig(rtol=1e-6, atol=1e-6)
        m = Model(ModelSpec(kind="node", input_dim=2, hidden_dim=8), seed=5)
        x = Tensor(np.random.default_rng(2).uniform(-1, 1, (10, 2)))
        feat = features(m, x, cfg)
        back = invert_features(m, feat, cfg)
        assert np.max(np.abs(back.data - x.data)) < 5e-4

    def test_features_control_each_input(self):
        # dh/dt = a_i * h with one fast input among 64: features holds that
        # input to tolerance, the batch-wide solve of node_forward does not
        class Rates:
            def __init__(self, a):
                self.a = Tensor(np.diag(a))

            @taped
            def eval(self, h, t):
                return matmul(self.a, h)

        m = Model(ModelSpec(kind="node", input_dim=1, output_dim=1,
                            hidden_dim=4, head="identity"), seed=0)
        a = np.zeros(64)
        a[0] = 8.0
        m.dynamics = Rates(a)
        x = Tensor(np.ones((64, 1)))
        exact = np.exp(8.0 * m.spec.T)
        unit = 1e-3 + 1e-3 * exact          # atol + rtol * |h(T)| of input 0
        feat = features(m, x)
        out, _ = node_forward(m, x)
        assert abs(feat.data[0, 0] - exact) / unit < 1.0
        assert abs(out.data[0, 0] - exact) / unit > 10.0
        back = invert_features(m, feat)
        assert np.max(np.abs(back.data - x.data)) < 1e-2

    def test_resnet_has_no_inverse(self):
        m = Model(ModelSpec(kind="resnet", resnet_layers=2, input_dim=1,
                            hidden_dim=4), seed=0)
        with pytest.raises(ValueError):
            invert_features(m, Tensor([[0.0]]))


class TestTrajectoriesAndField:
    def test_flow_trajectory_shape(self):
        m = Model(ModelSpec(kind="anode", input_dim=2, p=1, hidden_dim=8), seed=0)
        snap = flow_trajectory(m, np.zeros((6, 2)), 5)
        assert snap.states.shape == (6, 5, 3)
        assert snap.times[0] == 0.0 and snap.times[-1] == m.spec.T

    @pytest.mark.parametrize("kind,p", [("node", 0), ("anode", 5)])
    def test_flow_trajectory_takes_node_forward_steps(self, kind, p):
        # 25 output times cost no evaluation beyond the solve to T, and the
        # flow ends bit for bit where node_forward's solve ends
        ds = gen_concentric(SphereAnnulusConfig(d=2, seed=0))
        x = ds.inputs[:64]
        m = Model(ModelSpec(kind=kind, input_dim=2, p=p, hidden_dim=32,
                            output_dim=1), seed=0)
        m.dynamics = Counting(m.dynamics)
        snap = flow_trajectory(m, x, 25)
        flow_nfe = m.dynamics.nfe
        with tg.no_grad():
            out, nfe = node_forward(m, Tensor(x))
        assert flow_nfe == nfe == m.dynamics.nfe - flow_nfe
        assert np.array_equal(m.head(Tensor(snap.states[:, -1])).data, out.data)

    def test_flow_trajectory_resnet_layer_boundaries(self):
        m = Model(ModelSpec(kind="resnet", resnet_layers=4, input_dim=2,
                            hidden_dim=8), seed=0)
        snap = flow_trajectory(m, np.zeros((3, 2)), 10)
        assert snap.states.shape == (3, 5, 2)  # layers + 1 samples

    def test_flow_trajectory_needs_two_times(self):
        m = Model(ModelSpec(kind="node", input_dim=1, hidden_dim=4), seed=0)
        with pytest.raises(ValueError):
            flow_trajectory(m, np.zeros((2, 1)), 1)

    def test_vector_field_shape_and_resnet_rejection(self):
        m = Model(ModelSpec(kind="node", input_dim=2, hidden_dim=8), seed=0)
        field = vector_field(m, np.zeros((7, 2)), [0.0, 0.5, 1.0])
        assert field.shape == (3, 7, 2)
        r = Model(ModelSpec(kind="resnet", resnet_layers=2, input_dim=2,
                            hidden_dim=4), seed=0)
        with pytest.raises(ValueError):
            vector_field(r, np.zeros((2, 2)), [0.0])

    def test_vector_field_matches_dynamics(self):
        m = Model(ModelSpec(kind="node", input_dim=2, hidden_dim=8), seed=4)
        pts = np.random.default_rng(3).standard_normal((5, 2))
        field = vector_field(m, pts, [0.25])
        direct, _ = m.dynamics.eval(pts, 0.25)
        assert np.allclose(field[0], direct)


class TestInitialization:
    def test_seed_determinism(self):
        spec = ModelSpec(kind="anode", input_dim=2, p=2, hidden_dim=16)
        a, b = Model(spec, seed=9), Model(spec, seed=9)
        for (na, ta), (nb, tb) in zip(a.params.items(), b.params.items()):
            assert na == nb and np.array_equal(ta.data, tb.data)
        c = Model(spec, seed=10)
        assert not np.array_equal(a.params["dyn.l1.w"].data,
                                  c.params["dyn.l1.w"].data)

    def test_zero_biases_and_fan_in_bound(self):
        m = Model(ModelSpec(kind="node", input_dim=2, hidden_dim=16), seed=0)
        assert np.all(m.params["dyn.l1.b"].data == 0.0)
        fan_in = 3
        assert np.max(np.abs(m.params["dyn.l1.w"].data)) <= 1.0 / np.sqrt(fan_in)


class TestMatchConvFilters:
    def test_finds_pair_within_tolerance(self):
        ka, kb = match_conv_filters(6, 1, 32, 2)
        na = param_count(ModelSpec(kind="node", input_dim=6, hidden_dim=ka,
                                   output_dim=2, conv=True))
        nb = param_count(ModelSpec(kind="node", input_dim=1, hidden_dim=kb,
                                   output_dim=2, conv=True))
        assert abs(na - nb) / nb <= 0.02

    def test_impossible_tolerance_raises(self):
        with pytest.raises(ValueError, match="best mismatch"):
            match_conv_filters(6, 1, 8, 2, tol=1e-6, search=4)
