"""Unit and property tests for the reverse-mode autodiff engine."""

import tracemalloc

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anodelab import tensorgrad as tg
from anodelab.data import LabeledSet
from anodelab.models import ConvDynamics, MlpDynamics, Model, ModelSpec
from anodelab.train import TrainConfig, fit
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
    def test_add_values(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 5.0])
        assert np.allclose((a + b).data, [4.0, 7.0])
        assert np.allclose(tg.add(a, b).data, [4.0, 7.0])

    def test_matmul_value_and_shape_errors(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        v = Tensor([1.0, -1.0])
        assert np.allclose(tg.matmul(a, Tensor([[1.0], [-1.0]])).data,
                           [[-1.0], [-1.0]])
        with pytest.raises(ShapeError):
            tg.matmul(a, Tensor(np.ones((3, 2))))
        with pytest.raises(ShapeError):
            tg.matmul(a, v)     # a 1-d operand is not a matrix
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
        assert np.allclose(tg.tmean(x, axis=(1,)).data, [1.0, 4.0])
        assert np.allclose(tg.tmean(x, axis=(0, 1)).data, 2.5)
        pooled = tg.tmean(Tensor(np.arange(24.0).reshape(2, 3, 2, 2)), axis=(2, 3))
        assert np.allclose(pooled.data, np.arange(1.5, 24.0, 4.0).reshape(2, 3))

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
        # loss = mean((a @ b + a)^2) over n = 4 entries; with G = 2(a@b+a)/n,
        # dloss/da = G @ b.T + G and dloss/db = a.T @ G
        a = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
        b = Tensor([[3.0, 0.5], [-1.0, 2.0]], requires_grad=True)
        with CompGraph() as g:
            z = tg.matmul(a, b) + a
            loss = tg.mse(z, np.zeros(z.shape))
        backward(g, loss)
        G = 2 * (a.data @ b.data + a.data) / 4
        assert np.allclose(a.grad, G @ b.data.T + G)
        assert np.allclose(b.grad, a.data.T @ G)

    def test_reuse_accumulates(self):
        a = Tensor([2.0], requires_grad=True)
        with CompGraph() as g:
            loss = tg.mse(a + a, np.zeros(1))  # (2a)^2 -> grad 8a
        backward(g, loss)
        assert np.allclose(a.grad, [16.0])

    def test_relu_grad_zero_at_kink(self):
        # mean((relu(x) + 1)^2): grad 2(relu(x) + 1) / 3 where x > 0, else 0
        x = Tensor([-1.0, 0.0, 3.0], requires_grad=True)
        with CompGraph() as g:
            loss = tg.mse(tg.relu(x), np.full(3, -1.0))
        backward(g, loss)
        assert np.allclose(x.grad, [0.0, 0.0, 8.0 / 3.0])

    def test_bias_broadcast_unbroadcasts(self):
        # every output is 4 and its target -3.5, so dloss/dout = 2 * 7.5 / 15 = 1
        w = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(np.ones((5, 4)))
        with CompGraph() as g:
            loss = tg.mse(tg.matmul(x, w) + b, np.full((5, 3), -3.5))
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
            loss = tg.mse(a, np.zeros(1))
        with CompGraph():
            pass
        other = CompGraph()
        with pytest.raises(GraphError):
            backward(other, loss)

    def test_intermediate_reused_on_second_graph(self):
        # using y on g2 must leave its place on g1's tape intact
        a = Tensor([2.0, 3.0], requires_grad=True)
        with CompGraph() as g1:
            y = a + a
            loss = tg.mse(y, np.zeros(2))  # mean((2a)^2) -> grad 4a
        with CompGraph():
            tg.mse(y + y, np.zeros(2))
        backward(g1, loss)
        assert np.array_equal(a.grad, [8.0, 12.0])

    def test_loss_reused_on_second_graph(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        with CompGraph() as g1:
            loss = tg.mse(a, np.zeros(2))  # mean(a^2) -> grad a
        with CompGraph():
            tg.lincomb((2.0,), (loss,))
        backward(g1, loss)
        assert np.array_equal(a.grad, [2.0, 3.0])

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
                f = tg.mse(a, np.zeros(3))
                h = tg.mse(a, bv)
                loss = tg.lincomb((w1, w2), (f, h))
            backward(g, loss)
            return a.grad.copy()

        combined = run(c1, c2)
        assert np.allclose(combined, c1 * run(1.0, 0.0) + c2 * run(0.0, 1.0),
                           atol=1e-9)


class TestConv2d:
    def _naive(self, x, w, b):
        B, C, H, W = x.shape
        O, _, kh, kw = w.shape
        out = np.zeros((B, O, H - kh + 1, W - kw + 1))
        for bi in range(B):
            for o in range(O):
                for y in range(out.shape[2]):
                    for xx in range(out.shape[3]):
                        out[bi, o, y, xx] = np.sum(
                            x[bi, :, y:y + kh, xx:xx + kw] * w[o]) + b[o]
        return out

    @pytest.mark.parametrize("padding,k", [(0, 1), (1, 3), (0, 3)])
    def test_matches_naive(self, padding, k):
        rng = np.random.default_rng(0)
        x = np.pad(rng.standard_normal((2, 3, 5, 5)),
                   ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
        w = rng.standard_normal((4, 3, k, k))
        b = rng.standard_normal(4)
        assert np.allclose(tg.conv2d(x, w, b), self._naive(x, w, b))


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
                loss = tg.mse(y + h, np.zeros(y.shape))
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
            return tg.mse(out, np.zeros(out.shape))

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

    def test_no_grad_eval_allocation_peak(self):
        # one 2000-point export evaluation: the hidden layers' bias adds and
        # ReLUs run in place, so at most two (B, hidden) arrays are alive
        # (the two layers' outputs, which the backward keeps), plus the
        # time-augmented input, the masks, the output, and the one buffer
        # NumPy's ufunc machinery allocates for a broadcast in-place add
        # (np.getbufsize() items).  A new array per bias add or ReLU adds
        # at least one more (B, hidden) array: the np.where rule peaked at
        # 2191 KiB here, against a bound of 1302 KiB
        n, d, hidden = 2000, 3, 32
        params = ParamSet()
        dyn = MlpDynamics.init(params, np.random.default_rng(0), d, hidden)
        h = Tensor(np.random.default_rng(1).standard_normal((n, d)))
        with tg.no_grad():
            dyn.eval(h, 0.5)
            tracemalloc.start()
            try:
                dyn.eval(h, 0.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        f64 = 8
        bound = (2 * n * hidden * f64           # the hidden layers' outputs
                 + 2 * n * hidden               # their boolean masks
                 + n * (d + 1) * f64            # the input with its time column
                 + n * d * f64                  # the output
                 + np.getbufsize() * f64        # one ufunc buffer
                 + 4096)                        # Python objects
        assert peak <= bound, (peak, bound)

    def test_dynamics_eval_records_one_node(self):
        params = ParamSet()
        dyn = MlpDynamics.init(params, np.random.default_rng(0), 2, 8)
        h = Tensor(np.ones((4, 2)))
        with CompGraph() as g:
            dyn.eval(h, 0.5)
        assert len(g) == 1


def frozen_conv2d(x, w, b, padding):
    """The tape primitive that tg.convnet replaced, frozen here as the
    reference for its bit-for-bit test."""
    kh, kw = w.shape[2], w.shape[3]
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) \
        if padding else x.data
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    out = np.einsum("bcyxuv,ocuv->boyx", win, w.data, optimize=True) + b.data[:, None, None]
    wd = w.data

    def bwd(g):
        gp = np.pad(g, ((0, 0), (0, 0), (kh - 1 - padding,) * 2, (kw - 1 - padding,) * 2))
        gwin = sliding_window_view(gp, (kh, kw), axis=(2, 3))
        gx = np.einsum("boyxuv,ocuv->bcyx", gwin, wd[:, :, ::-1, ::-1], optimize=True)
        gw = np.einsum("bcyxuv,boyx->ocuv", win, g, optimize=True)
        return ((x, gx), (w, gw), (b, g.sum(axis=(0, 2, 3))))

    return tg._out(out, bwd)


def unfused_convnet(h, t, layers):
    """Reference for tg.convnet: the primitive-by-primitive chain it replaces."""
    for i, (w, b) in enumerate(layers):
        tchan = Tensor(np.full((h.shape[0], 1) + h.shape[2:], t))
        h = frozen_conv2d(tg.concat([h, tchan], axis=1), w, b, padding=i % 2)
        if i < 2:
            h = tg.relu(h)
    return h


class UnfusedConvDynamics(ConvDynamics):
    def eval(self, h, t):
        return unfused_convnet(h, t, self.layers)


def conv_params(rng, channels, filters):
    params = ParamSet()
    layers = [(params.add(f"c{i}.w", rng.uniform(-0.5, 0.5, (o, c + 1, k, k))),
               params.add(f"c{i}.b", rng.uniform(-0.3, 0.3, o)))
              for i, (o, c, k) in enumerate(((filters, channels, 1),
                                             (filters, filters, 3),
                                             (channels, filters, 1)))]
    return params, layers


class TestConvnet:
    @pytest.mark.parametrize("shape,filters", [
        ((64, 1, 6, 6), 43),        # node, as in conv-idx
        ((64, 6, 6, 6), 42),        # anode, as in conv-idx
        ((3, 2, 1, 1), 5),          # 1x1 image
        ((1, 3, 5, 5), 8),          # batch 1
        ((2, 3, 28, 28), 4),        # MNIST size
    ], ids=["node", "anode", "1x1", "batch1", "28x28"])
    def test_bitwise_equal_to_unfused_chain(self, shape, filters):
        # two chained applications, so gradients of every parameter and of
        # the intermediate state accumulate from two nodes, as in a solve
        x0 = np.random.default_rng(3).standard_normal(shape)

        def run(fn):
            params, layers = conv_params(np.random.default_rng(9), shape[1], filters)
            x = Tensor(x0, requires_grad=True)
            with CompGraph() as g:
                h = fn(x, 0.37, layers)
                y = fn(h, 0.61, layers)
                loss = tg.mse(tg.lincomb((1.0, 0.5), (y, h)), np.zeros(y.size))
            backward(g, loss)
            return [h.data, y.data, x.grad] + [p.grad for _, p in params.items()]

        got, ref = run(tg.convnet), run(unfused_convnet)
        assert len(got) == 9
        for a, b in zip(got, ref):
            assert np.array_equal(a, b) and a.strides == b.strides

    def test_fit_bitwise_equal_to_unfused_chain(self):
        # a 1-epoch cross-entropy fit with dopri5 step control and a
        # validation pass: records and final parameters are identical
        rng = np.random.default_rng(5)
        train_set = LabeledSet(rng.standard_normal((24, 1, 4, 4)),
                               rng.integers(0, 2, 24))
        val_set = LabeledSet(rng.standard_normal((8, 1, 4, 4)), rng.integers(0, 2, 8))
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-2)
        spec = ModelSpec(kind="anode", input_dim=1, p=1, hidden_dim=4,
                         output_dim=2, conv=True)
        records, models = [], []
        for dynamics in (ConvDynamics, UnfusedConvDynamics):
            model = Model(spec, seed=2)
            model.dynamics = dynamics(model.dynamics.layers)
            records.append(fit(model, train_set, val_set, cfg))
            models.append(model)
        fused, ref = records
        assert fused.error is None and fused.epochs[0].nfe_forward_mean > 1
        assert fused.deterministic_rows() == ref.deterministic_rows()
        for name, value in models[1].params.items():
            assert np.array_equal(models[0].params[name].data, value.data)

    def test_gradients_numerically(self):
        rng = np.random.default_rng(1)
        params, layers = conv_params(rng, 2, 3)
        x = rng.standard_normal((2, 2, 4, 4))

        def loss_fn():
            out = tg.convnet(Tensor(x), 0.4, layers)
            return tg.mse(out, np.zeros(out.size))

        assert grad_check(loss_fn, params) < 1e-6

    @pytest.mark.parametrize("x_shape,shapes", [
        ((2, 4, 4), [((3, 3, 1, 1), (3,)), ((3, 4, 3, 3), (3,)), ((2, 4, 1, 1), (2,))]),
        ((1, 2, 4, 4), [((3, 3, 1, 1), (3,)), ((3, 4, 3, 3), (3,))]),
        ((1, 2, 4, 4), [((3, 3, 3, 3), (3,)), ((3, 4, 3, 3), (3,)), ((2, 4, 1, 1), (2,))]),
        ((1, 2, 4, 4), [((3, 3, 1, 1), (3,)), ((3, 4, 1, 1), (3,)), ((2, 4, 1, 1), (2,))]),
        ((1, 2, 4, 4), [((3, 3, 1), (3,)), ((3, 4, 3, 3), (3,)), ((2, 4, 1, 1), (2,))]),
        ((1, 2, 4, 4), [((3, 2, 1, 1), (3,)), ((3, 4, 3, 3), (3,)), ((2, 4, 1, 1), (2,))]),
        ((1, 2, 4, 4), [((3, 3, 1, 1), (3,)), ((3, 3, 3, 3), (3,)), ((2, 4, 1, 1), (2,))]),
        ((1, 2, 4, 4), [((3, 3, 1, 1), (3,)), ((3, 4, 3, 3), (2,)), ((2, 4, 1, 1), (2,))]),
        ((1, 2, 4, 4), [((3, 3, 1, 1), (1, 3)), ((3, 4, 3, 3), (3,)), ((2, 4, 1, 1), (2,))]),
    ], ids=["3-d input", "two layers", "3x3 first", "1x1 middle", "3-d kernel",
            "no time channel", "widths disagree", "bias width", "2-d bias"])
    def test_shape_errors(self, x_shape, shapes):
        layers = [(Tensor(np.ones(ws)), Tensor(np.zeros(bs))) for ws, bs in shapes]
        with pytest.raises(ShapeError):
            tg.convnet(Tensor(np.ones(x_shape)), 0.5, layers)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time(self, t):
        _, layers = conv_params(np.random.default_rng(0), 2, 3)
        with pytest.raises(ValueError, match=f"convnet: non-finite time {t}"):
            tg.convnet(Tensor(np.ones((1, 2, 3, 3))), t, layers)

    def test_dynamics_eval_records_one_node(self, monkeypatch):
        # the fused node runs each convolution through the module attribute
        # conv2d, which is where a wrapper patched onto tg.conv2d sees it
        calls = []
        real_conv2d = tg.conv2d

        def counting_conv2d(*args):
            calls.append(1)
            return real_conv2d(*args)

        monkeypatch.setattr(tg, "conv2d", counting_conv2d)
        _, layers = conv_params(np.random.default_rng(0), 2, 3)
        with CompGraph() as g:
            ConvDynamics(layers).eval(Tensor(np.ones((4, 2, 3, 3))), 0.5)
        assert len(g) == 1 and len(calls) == 3

    def test_backward_recomputes_only_first_layer(self, monkeypatch):
        # 3 convolutions in the forward and the 1x1 first layer once more
        # in the backward; the 3x3 layer is never recomputed
        shapes = []
        real_conv2d = tg.conv2d

        def counting_conv2d(x, w, b):
            shapes.append(w.shape[2:])
            return real_conv2d(x, w, b)

        monkeypatch.setattr(tg, "conv2d", counting_conv2d)
        _, layers = conv_params(np.random.default_rng(0), 2, 3)
        with CompGraph() as g:
            y = ConvDynamics(layers).eval(Tensor(np.ones((4, 2, 3, 3))), 0.5)
            loss = tg.mse(y, np.zeros(y.size))
        backward(g, loss)
        assert shapes == [(1, 1), (3, 3), (1, 1), (1, 1)]

    def test_taped_eval_keeps_only_last_input(self):
        # after one taped evaluation at conv-idx's node shape, the tape
        # holds the output and the last layer's input, whose positive
        # entries are the second ReLU's mask; the first layer is
        # recomputed in the backward.  A closure that keeps every
        # layer's input and both masks leaves about 2070 KiB alive here
        n, c, size, filters = 64, 1, 6, 36
        rng = np.random.default_rng(0)
        dyn = ConvDynamics(conv_params(rng, c, filters)[1])
        h = Tensor(rng.standard_normal((n, c, size, size)))
        tracemalloc.start()
        try:
            with CompGraph() as g:
                out = dyn.eval(h, 0.5)
            alive = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        f64 = 8
        x3_nbytes = n * (filters + 1) * size * size * f64
        bound = x3_nbytes + out.data.nbytes + 8192
        assert len(g) == 1 and alive <= bound, (alive, bound)

    def test_zero_and_subnormal_pre_activations(self):
        # both ReLUs see pre-activations of exactly +0.0, -0.0 and
        # +-5e-324, so the recomputed first mask and the second mask taken
        # from the last layer's input must agree with the chain's masks.
        # Zero-weight filters with those biases give +0.0 and +-5e-324.
        # -0.0 needs a sum of products that are all negative but round to
        # -0.0: weights of -5e-324 on inputs in [0, 0.5), with bias -0.0.
        # Whether such a sum keeps its sign depends on how BLAS accumulates
        # (the 3x3 layer's last few pixels give +0.0 here), so each value
        # is only required to occur in its filter's pre-activations
        t = 0.37
        x0 = np.random.default_rng(3).uniform(0.01, 0.4, (3, 2, 5, 5))
        biases = [0.0, -0.0, 5e-324, -5e-324]

        def make():
            params, layers = conv_params(np.random.default_rng(9), 2, 8)
            (w1, b1), (w2, b2) = layers[:2]
            # a small first layer keeps every 3x3 input below 0.5
            w1.data *= 0.2
            b1.data *= 0.2
            for w, b in ((w1, b1), (w2, b2)):
                w.data[:4] = 0.0
                b.data[:4] = biases
                w.data[1] = -5e-324
            return params, layers

        def run(fn):
            params, layers = make()
            x = Tensor(x0, requires_grad=True)
            with CompGraph() as g:
                h = fn(x, t, layers)
                y = fn(h, 0.61, layers)
                loss = tg.mse(tg.lincomb((1.0, 0.5), (y, h)), np.zeros(y.size))
            backward(g, loss)
            return layers, [h.data, y.data, x.grad] + [p.grad for _, p in params.items()]

        layers, got = run(tg.convnet)
        _, ref = run(unfused_convnet)
        (w1, b1), (w2, b2) = layers[:2]
        z = np.concatenate([x0, np.full((3, 1, 5, 5), t)], axis=1)
        pre1 = tg.conv2d(z, w1.data, b1.data)
        z = np.pad(np.maximum(pre1, 0.0), ((0, 0), (0, 0), (1, 1), (1, 1)))
        z = np.concatenate([z, np.pad(np.full((3, 1, 5, 5), t),
                                      ((0, 0), (0, 0), (1, 1), (1, 1)))], axis=1)
        assert z.max() < 0.5
        pre2 = tg.conv2d(z, w2.data, b2.data)
        for pre in (pre1, pre2):
            for i, v in enumerate(biases):
                assert (bits(pre[:, i]) == bits(v)).any(), (i, v)
        assert len(got) == 9
        for a, r in zip(got, ref):
            assert np.array_equal(bits(a), bits(r)) and a.strides == r.strides


# every value the ReLU rule must map as np.where(pre > 0.0, pre, 0.0) does
SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324])


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def where_relu(a):
    """The np.where ReLU primitive that the shared rule replaced, frozen as
    the reference for it."""
    mask = a.data > 0.0

    def bwd(g):
        return ((a, g * mask),)

    return tg._out(np.where(mask, a.data, 0.0), bwd)


def poke_first_layer(w, b, with_inf):
    """Set the first layer so its pre-activations hold every special value.

    Unit 0 gives -0.0 on sample 0, whose inputs are all 1e-200: its weights
    are -1e-200, and -5e-324 for the time input, so every product is a
    negative number below the smallest subnormal, and its bias is -0.0.
    (An exact -0.0 product would not do: a fused multiply-add onto a +0.0
    accumulator gives +0.0.)  Units 1.. have zero weights and a special
    bias each.  +inf is left out unless ``with_inf``, since it spreads NaN
    through every later layer and gradient."""
    units = np.moveaxis(w.data, 1, 0) if w.data.ndim == 2 else w.data
    units[0] = -1e-200
    units[0, -1] = -5e-324
    b.data[0] = -0.0
    specials = [np.nan, -np.inf, 0.0, 5e-324, -5e-324] + [np.inf] * with_inf
    units[1:1 + len(specials)] = 0.0
    b.data[1:1 + len(specials)] = specials


class TestReluRule:
    """mlp, convnet and relu share one ReLU rule; it must give the bits of
    np.where(pre > 0.0, pre, 0.0) and its mask for every input, and must
    not write into any operand.  Whether a hidden activation is -0.0 or
    +0.0 cannot show in an mlp or convnet output or gradient (a zero
    product adds nothing to a nonzero sum), so the relu primitive, whose
    output is the activation, pins that part of the rule."""

    def test_relu_primitive(self):
        # 5 copies: -0.0 also sits at index 32, in the scalar tail of
        # NumPy's vector loops over 35 elements
        values = np.tile(SPECIALS, 5)

        def run(fn):
            x = Tensor(np.ones(values.size), requires_grad=True)
            x.data[:] = values
            with CompGraph() as g:
                y = fn(x)
                loss = tg.mse(y, np.zeros(y.shape))
            with np.errstate(all="ignore"):
                backward(g, loss)
            assert bits(x.data).tolist() == bits(values).tolist()
            return y.data, x.grad

        for got, ref in zip(run(tg.relu), run(where_relu)):
            assert np.array_equal(bits(got), bits(ref))
        assert bits(run(tg.relu)[0][:7]).tolist() == bits([0, np.inf, 0, 0, 0, 5e-324, 0]).tolist()

    @pytest.mark.parametrize("with_inf", [False, True], ids=["finite", "inf"])
    @pytest.mark.parametrize("taped", [True, False], ids=["taped", "no_grad"])
    @pytest.mark.parametrize("kind", ["mlp", "convnet"])
    def test_special_pre_activations(self, monkeypatch, kind, taped, with_inf):
        monkeypatch.setattr(tg, "relu", where_relu)  # the chains' ReLU
        rng = np.random.default_rng(13)
        if kind == "mlp":
            x0 = rng.standard_normal((6, 3))
            fused, chain, t = tg.mlp, unfused_mlp, 0.37

            def make():
                return mlp_params(np.random.default_rng(17), (4, 8, 8, 3))

            def first_pre(z, w, b):
                return z @ w + b
        else:
            x0 = rng.standard_normal((3, 2, 4, 4))
            fused, chain, t = tg.convnet, unfused_convnet, 0.37

            def make():
                return conv_params(np.random.default_rng(17), 2, 8)

            def first_pre(z, w, b):
                return tg.conv2d(z, w, b)
        x0[0] = 1e-200

        def run(fn):
            params, layers = make()
            poke_first_layer(*layers[0], with_inf)
            x = Tensor(x0, requires_grad=True)
            before = [p.data.tobytes() for p in (x, *(p for _, p in params.items()))]
            with np.errstate(all="ignore"):
                if taped:
                    with CompGraph() as g:
                        y = fn(x, t, layers)
                        loss = tg.mse(y, np.zeros(y.size))
                    backward(g, loss)
                    grads = [x.grad] + [p.grad for _, p in params.items()]
                else:
                    with tg.no_grad():
                        y = fn(x, t, layers)
                    grads = []
            after = [p.data.tobytes() for p in (x, *(p for _, p in params.items()))]
            assert after == before
            return layers, [y.data] + grads

        layers, got = run(fused)
        _, ref = run(chain)
        w, b = layers[0]
        z = np.concatenate([x0, np.full((x0.shape[0], 1) + x0.shape[2:], t)], axis=1)
        pre = first_pre(z, w.data, b.data)
        wanted = SPECIALS if with_inf else SPECIALS[SPECIALS != np.inf]
        assert np.isin(bits(wanted), bits(pre)).all()
        assert len(got) == len(ref) == (1 + 2 * len(layers) + 1 if taped else 1)
        assert np.isfinite(got[0]).all() != with_inf
        for a, r in zip(got, ref):
            assert np.array_equal(bits(a), bits(r)) and a.strides == r.strides


class TestMse:
    def test_value_matches_numpy(self):
        rng = np.random.default_rng(4)
        o, y = rng.standard_normal((7, 2)), rng.standard_normal(14)
        d = o - y.reshape(7, 2)
        assert tg.mse(Tensor(o), y).item() == np.mean(d * d)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        params = ParamSet()
        params.add("w", rng.standard_normal((3, 2)) * 0.5)
        x, y = rng.standard_normal((6, 3)), rng.standard_normal((6, 2))

        def loss_fn():
            return tg.mse(tg.matmul(Tensor(x), params["w"]), y)

        assert grad_check(loss_fn, params) < 1e-6

    def test_one_tape_node(self):
        out = Tensor(np.ones((4, 1)), requires_grad=True)
        with CompGraph() as g:
            loss = tg.mse(out + out, np.zeros(4))
        assert len(g) == 2 and loss._id == 1

    def test_bad_targets(self):
        out = Tensor(np.ones((4, 1)))
        with pytest.raises(ShapeError):
            tg.mse(out, np.zeros(5))
        with pytest.raises(ValueError, match="non-finite"):
            tg.mse(out, np.array([0.0, np.nan, 0.0, 0.0]))


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
        a = p.add("a", np.ones((2, 3)))
        p.add("b", np.zeros(4))
        assert [(k, t.size) for k, t in p.items()] == [("a", 6), ("b", 4)]
        assert p["a"] is a and np.all(a.grad == 0.0)

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
            return tg.mse(out, np.zeros(out.shape))

        assert grad_check(loss_fn, params) < 1e-6

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            grad_check(lambda: Tensor(0.0), ParamSet(), eps=0.0)
