"""Unit and property tests for the reverse-mode autodiff engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anodelab import tensorgrad as tg
from anodelab.models import MlpDynamics
from anodelab.tensorgrad import (CompGraph, GraphError, ParamSet, ShapeError,
                                 Tensor, backward, grad_check)


def finite_arrays(shape):
    return arrays(np.float64, shape,
                  elements=st.floats(-10, 10, allow_nan=False))


class TestTensor:
    def test_float64_coercion(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64

    def test_non_finite_leaf_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Tensor([1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            Tensor([np.inf])

    def test_grad_buffer_only_when_requested(self):
        assert Tensor([1.0]).grad is None
        t = Tensor([1.0, 2.0], requires_grad=True)
        assert t.grad is not None and t.grad.shape == (2,)
        assert np.all(t.grad == 0.0)

    def test_item_and_shape(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3) and t.size == 6
        assert Tensor(3.5).item() == 3.5


class TestForward:
    def test_add_sub_mul_values(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 5.0])
        assert np.allclose((a + b).data, [4.0, 7.0])
        assert np.allclose((a - b).data, [-2.0, -3.0])
        assert np.allclose(tg.mul(a, b).data, [3.0, 10.0])
        assert np.allclose((2.0 * a).data, [2.0, 4.0])

    def test_matmul_value_and_shape_errors(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        v = Tensor([1.0, -1.0])
        assert np.allclose(tg.matmul(a, v).data, [-1.0, -1.0])
        with pytest.raises(ShapeError):
            tg.matmul(a, Tensor(np.ones((3, 2))))
        with pytest.raises(ShapeError):
            tg.matmul(v, v)

    def test_broadcast_mismatch_raises(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((4,)))

    def test_relu(self):
        x = Tensor([-1.0, 0.0, 2.0])
        assert np.allclose(tg.relu(x).data, [0.0, 0.0, 2.0])

    def test_concat_axis(self):
        a, b = Tensor(np.ones((2, 1))), Tensor(np.zeros((2, 3)))
        assert tg.concat([a, b], axis=-1).shape == (2, 4)
        with pytest.raises(ShapeError):
            tg.concat([a, Tensor(np.ones((3, 1)))], axis=1)
        with pytest.raises(ShapeError):
            tg.concat([])

    def test_reductions(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert tg.tsum(x).item() == 15.0
        assert np.allclose(tg.tsum(x, axis=0).data, [3.0, 5.0, 7.0])
        assert tg.tmean(x).item() == 2.5
        assert np.allclose(tg.tmean(x, axis=1).data, [1.0, 4.0])

    def test_lincomb_matches_manual_and_is_one_node(self):
        ts = [Tensor(np.full(3, float(i + 1))) for i in range(4)]
        cs = [0.5, -1.0, 0.0, 2.0]
        with CompGraph() as g:
            out = tg.lincomb(cs, ts)
        manual = sum(c * t.data for c, t in zip(cs, ts))
        assert np.allclose(out.data, manual)
        assert len(g) == 1

    def test_lincomb_shape_errors(self):
        with pytest.raises(ShapeError):
            tg.lincomb([1.0], [Tensor([1.0]), Tensor([2.0])])
        with pytest.raises(ShapeError):
            tg.lincomb([1.0, 1.0], [Tensor([1.0]), Tensor([[2.0]])])


class TestBackward:
    def test_simple_chain(self):
        # loss = sum((a * b + a)^2); dloss/da = 2(a*b+a)(b+1), dloss/db = 2(a*b+a)a
        a = Tensor([1.0, -2.0], requires_grad=True)
        b = Tensor([3.0, 0.5], requires_grad=True)
        with CompGraph() as g:
            z = tg.mul(a, b) + a
            loss = tg.tsum(tg.mul(z, z))
        backward(g, loss)
        zd = a.data * b.data + a.data
        assert np.allclose(a.grad, 2 * zd * (b.data + 1))
        assert np.allclose(b.grad, 2 * zd * a.data)

    def test_reuse_accumulates(self):
        a = Tensor([2.0], requires_grad=True)
        with CompGraph() as g:
            loss = tg.tsum(tg.mul(a, a) + a)  # a^2 + a -> grad 2a + 1
        backward(g, loss)
        assert np.allclose(a.grad, [5.0])

    def test_relu_grad_zero_at_kink(self):
        x = Tensor([-1.0, 0.0, 3.0], requires_grad=True)
        with CompGraph() as g:
            loss = tg.tsum(tg.relu(x))
        backward(g, loss)
        assert np.allclose(x.grad, [0.0, 0.0, 1.0])

    def test_bias_broadcast_unbroadcasts(self):
        w = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(np.ones((5, 4)))
        with CompGraph() as g:
            loss = tg.tsum(tg.matmul(x, w) + b)
        backward(g, loss)
        assert b.grad.shape == (3,)
        assert np.allclose(b.grad, 5.0)
        assert np.allclose(w.grad, 5.0)

    def test_non_scalar_loss_rejected(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with CompGraph() as g:
            out = a + a
        with pytest.raises(GraphError, match="scalar"):
            backward(g, out)

    def test_foreign_graph_rejected(self):
        a = Tensor([1.0], requires_grad=True)
        with CompGraph() as g1:
            loss = tg.tsum(a)
        with CompGraph():
            pass
        other = CompGraph()
        with pytest.raises(GraphError):
            backward(other, loss)

    def test_intermediate_reused_on_second_graph(self):
        # using y on g2 must leave its place on g1's tape intact
        a = Tensor([2.0, 3.0], requires_grad=True)
        with CompGraph() as g1:
            y = tg.mul(a, a)
            loss = tg.tsum(y)
        with CompGraph():
            tg.tsum(tg.mul(y, y))
        backward(g1, loss)
        assert np.array_equal(a.grad, [4.0, 6.0])

    def test_loss_reused_on_second_graph(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        with CompGraph() as g1:
            loss = tg.tsum(tg.mul(a, a))
        with CompGraph():
            tg.smul(loss, 2.0)
        backward(g1, loss)
        assert np.array_equal(a.grad, [4.0, 6.0])

    def test_no_grad_records_nothing(self):
        a = Tensor([1.0], requires_grad=True)
        with CompGraph() as g:
            with tg.no_grad():
                _ = a + a
        assert len(g) == 0

    @given(finite_arrays((3,)), finite_arrays((3,)),
           st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_backward_linearity(self, av, bv, c1, c2):
        # grad of c1*f + c2*g equals c1*grad f + c2*grad g
        def run(w1, w2):
            a = Tensor(av, requires_grad=True)
            with CompGraph() as g:
                f = tg.tsum(tg.mul(a, a))
                h = tg.tsum(tg.mul(a, Tensor(bv)))
                loss = tg.smul(f, w1) + tg.smul(h, w2)
            backward(g, loss)
            return a.grad.copy()

        combined = run(c1, c2)
        assert np.allclose(combined, c1 * run(1.0, 0.0) + c2 * run(0.0, 1.0),
                           atol=1e-9)


class TestConv2d:
    def _naive(self, x, w, b, padding):
        xp = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
        B, C, H, W = xp.shape
        O, _, kh, kw = w.shape
        out = np.zeros((B, O, H - kh + 1, W - kw + 1))
        for bi in range(B):
            for o in range(O):
                for y in range(out.shape[2]):
                    for xx in range(out.shape[3]):
                        out[bi, o, y, xx] = np.sum(
                            xp[bi, :, y:y + kh, xx:xx + kw] * w[o]) + b[o]
        return out

    @pytest.mark.parametrize("padding,k", [(0, 1), (1, 3), (0, 3)])
    def test_matches_naive(self, padding, k):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3, k, k))
        b = rng.standard_normal(4)
        out = tg.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=padding)
        assert np.allclose(out.data, self._naive(x, w, b, padding))

    def test_shape_errors(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        with pytest.raises(ShapeError):
            tg.conv2d(x, Tensor(np.zeros((3, 5, 1, 1))))     # channel mismatch
        with pytest.raises(ShapeError):
            tg.conv2d(x, Tensor(np.zeros((3, 2, 1, 1))), padding=2)
        with pytest.raises(ShapeError):
            tg.conv2d(x, Tensor(np.zeros((3, 2, 1, 1))),
                      b=Tensor(np.zeros(5)))

    def test_gradients_numerically(self):
        rng = np.random.default_rng(1)
        params = ParamSet()
        params.add("w", rng.standard_normal((2, 2, 3, 3)) * 0.3)
        params.add("b", rng.standard_normal(2) * 0.1)
        x = np.asarray(rng.standard_normal((2, 2, 4, 4)))

        def loss_fn():
            out = tg.conv2d(Tensor(x), params["w"], params["b"], padding=1)
            return tg.tsum(tg.mul(out, out))

        assert grad_check(loss_fn, params) < 1e-6


def unfused_mlp(x, t, layers):
    """Reference for tg.mlp: the primitive-by-primitive chain it replaces."""
    z = x
    if t is not None:
        z = tg.concat([x, Tensor(np.full(x.shape[:-1] + (1,), t))], axis=-1)
    for i, (w, b) in enumerate(layers):
        z = tg.matmul(z, w) + b
        if i < len(layers) - 1:
            z = tg.relu(z)
    return z


def mlp_params(rng, widths):
    params = ParamSet()
    layers = [(params.add(f"l{i}.w", rng.uniform(-0.8, 0.8, (a, b))),
               params.add(f"l{i}.b", rng.uniform(-0.3, 0.3, b)))
              for i, (a, b) in enumerate(zip(widths, widths[1:]))]
    return params, layers


class TestMlp:
    @pytest.mark.parametrize("t", [None, 0.37])
    @pytest.mark.parametrize("hidden", [(), (6, 6)])
    def test_bitwise_equal_to_unfused_chain(self, t, hidden):
        # two chained applications, so gradients of every parameter and of
        # the intermediate state accumulate from two nodes, as in a solve
        d = 3
        widths = (d + (t is not None),) + hidden + (d,)
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal((9, d))

        def run(fn):
            params, layers = mlp_params(np.random.default_rng(11), widths)
            x = Tensor(x0, requires_grad=True)
            with CompGraph() as g:
                h = fn(x, t, layers)
                y = fn(h, None if t is None else t + 0.25, layers)
                loss = tg.tsum(tg.mul(y, y + h))
            backward(g, loss)
            return y.data, x.grad, [p.grad for _, p in params.items()]

        out, gx, gps = run(tg.mlp)
        ref_out, ref_gx, ref_gps = run(unfused_mlp)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(gx, ref_gx)
        for gp, ref in zip(gps, ref_gps):
            assert np.array_equal(gp, ref)

    def test_gradients_numerically(self):
        rng = np.random.default_rng(5)
        params, layers = mlp_params(rng, (3, 5, 5, 2))
        x = rng.standard_normal((8, 2))

        def loss_fn():
            out = tg.mlp(Tensor(x), 0.6, layers)
            return tg.tmean(tg.mul(out, out))

        assert grad_check(loss_fn, params) < 1e-6

    @pytest.mark.parametrize("x_shape,t,shapes", [
        ((4,), None, [((4, 2), (2,))]),                 # 1-d input
        ((2, 3, 4), None, [((4, 2), (2,))]),            # 3-d input
        ((5, 4), 0.5, [((4, 2), (2,))]),                # no row for the t column
        ((5, 4), None, [((4, 3), (3,)), ((4, 2), (2,))]),  # widths disagree
        ((5, 4), None, [((4, 2), (1, 2))]),             # 2-d bias
        ((5, 4), None, [((4, 2), (3,))]),               # bias width != columns
        ((5, 4), None, []),                             # no layers
    ])
    def test_shape_errors(self, x_shape, t, shapes):
        layers = [(Tensor(np.ones(ws)), Tensor(np.zeros(bs))) for ws, bs in shapes]
        with pytest.raises(ShapeError):
            tg.mlp(Tensor(np.ones(x_shape)), t, layers)

    def test_dynamics_eval_records_one_node(self):
        params = ParamSet()
        dyn = MlpDynamics.init(params, np.random.default_rng(0), 2, 8)
        h = Tensor(np.ones((4, 2)))
        with CompGraph() as g:
            dyn.eval(h, 0.5)
        assert len(g) == 1


class TestSoftmaxCrossEntropy:
    def test_matches_log_softmax(self):
        logits = np.array([[2.0, -1.0, 0.5], [0.0, 0.0, 0.0]])
        labels = np.array([0, 2])
        val = tg.softmax_cross_entropy(Tensor(logits), labels).item()
        ls = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = -np.mean(ls[np.arange(2), labels])
        assert np.isclose(val, expected)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        params = ParamSet()
        params.add("w", rng.standard_normal((3, 4)) * 0.5)
        x = rng.standard_normal((6, 3))
        labels = rng.integers(0, 4, size=6)

        def loss_fn():
            return tg.softmax_cross_entropy(tg.matmul(Tensor(x), params["w"]),
                                            labels)

        assert grad_check(loss_fn, params) < 1e-6


class TestParamSet:
    def test_duplicate_name_rejected(self):
        p = ParamSet()
        p.add("w", np.zeros(2))
        with pytest.raises(KeyError):
            p.add("w", np.zeros(2))

    def test_counts_and_roundtrip(self):
        p = ParamSet()
        p.add("a", np.ones((2, 3)))
        p.add("b", np.zeros(4))
        saved = p.copy_values()
        p["a"].data[...] = 7.0
        assert np.all(saved["a"] == 1.0)

    def test_zero_grad(self):
        p = ParamSet()
        t = p.add("a", np.ones(3))
        t.grad += 5.0
        p.zero_grad()
        assert np.all(t.grad == 0.0)


class TestGradCheck:
    def test_mlp_passes(self):
        rng = np.random.default_rng(3)
        params = ParamSet()
        params.add("w1", rng.uniform(-0.5, 0.5, (3, 5)))
        params.add("b1", rng.uniform(-0.1, 0.1, 5))
        params.add("w2", rng.uniform(-0.5, 0.5, (5, 1)))
        x = rng.standard_normal((8, 3))

        def loss_fn():
            h = tg.relu(tg.matmul(Tensor(x), params["w1"]) + params["b1"])
            out = tg.matmul(h, params["w2"])
            return tg.tmean(tg.mul(out, out))

        assert grad_check(loss_fn, params) < 1e-6

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            grad_check(lambda: Tensor(0.0), ParamSet(), eps=0.0)
