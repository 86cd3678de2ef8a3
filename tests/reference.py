"""Frozen references for the fused code in anodelab: the tape primitives and
the primitive-by-primitive chains that the fused nodes replaced.  The tests
hold each fused node bit for bit to its reference here.  It also holds the
tests' adapter from tensor-level functions to the array-level dynamics
interface (``taped``) and their leaves with a gradient buffer
(``grad_leaf``)."""

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from anodelab import tensorgrad as tg
from anodelab.models import ConvDynamics
from anodelab.odeint import _DP_A, _DP_B5, _DP_C, _DP_DENSE, _DP_E
from anodelab.tensorgrad import ShapeError, Tensor


def grad_leaf(data):
    """A leaf tensor with a zeroed gradient buffer, which backward adds into."""
    t = Tensor(data)
    t.grad = np.zeros_like(t.data)
    return t


def taped(fn):
    """Array-level dynamics from a tensor-level ``fn(h, t)`` (or a method
    ``fn(self, h, t)``): the evaluation runs fn on a private graph and
    returns (k, vjp).  vjp seeds that graph's backward with k's gradient,
    adding into every ``.grad`` buffer it reaches, and returns h's gradient
    (zeros if k does not depend on h)."""

    @functools.wraps(fn)
    def evaluate(*args):
        *owner, y, t = args
        graph, gh = tg.CompGraph(), []
        with graph:
            h = tg.record(y, lambda g: gh.append(g) or ())
            k = fn(*owner, h, t)

        def vjp(g):
            gh.clear()
            with graph:
                seed = tg.record(np.zeros(()), lambda _: ((k, g),))
            tg.backward(graph, seed)
            return gh[0] if gh else np.zeros_like(y)

        return k.data, vjp

    return evaluate


def matmul(a, b):
    """2-d matrix product as one tape node; src's matrix products are inside
    mlp_vjp."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    ad, bd = a.data, b.data

    def bwd(g):
        return ((a, g @ bd.T), (b, ad.T @ g))

    return tg.record(ad @ bd, bwd)


def relu(a):
    """ReLU as one tape node, by the one ReLU rule that mlp_vjp and convnet
    use inside their nodes."""
    out = np.empty_like(a.data)
    mask = tg._relu(a.data, out)

    def bwd(g):
        return ((a, g * mask),)

    return tg.record(out, bwd)


def error_norm_expr(err, h, h_next, cfg, per_sample=False):
    """Reference for odeint.error_norm: the expression it computes in one
    temporary."""
    scale = cfg.atol + cfg.rtol * np.maximum(np.abs(h), np.abs(h_next))
    sq = (err / scale) ** 2
    if per_sample and sq.ndim > 1:
        return float(np.sqrt(np.max(sq.reshape(len(sq), -1).mean(axis=1))))
    return float(np.sqrt(np.mean(sq)))


def _unbroadcast(grad, shape):
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def lincomb(coeffs, tensors):
    """sum_i c_i * t_i as one tape node, all tensors of one shape, zero
    coefficients skipped; src's last uses of it became the solver's
    Runge-Kutta attempt and the resnet's residual node."""
    if len(coeffs) != len(tensors):
        raise ShapeError("lincomb: coefficient/tensor count mismatch")
    shape = tensors[0].shape
    for t in tensors:
        if t.shape != shape:
            raise ShapeError(f"lincomb: shapes {shape} and {t.shape} do not conform")
    acc = coeffs[0] * tensors[0].data
    for c, t in zip(coeffs[1:], tensors[1:]):
        if c != 0.0:
            acc += c * t.data

    def bwd(g):
        return tuple((t, g * c) for c, t in zip(coeffs, tensors) if c != 0.0)

    return tg.record(acc, bwd)


def add(a, b):
    """a + b with NumPy broadcasting as one tape node; src's last uses of it
    became the resnet's residual update and the bias sum of mlp."""
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not conform")

    def bwd(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))

    return tg.record(a.data + b.data, bwd)


def concat(tensors, axis=-1):
    """np.concatenate as one tape node; src's augment builds a leaf instead."""
    if not tensors:
        raise ShapeError("concat: empty input list")
    datas = [t.data for t in tensors]
    try:
        out = np.concatenate(datas, axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: shapes {[t.shape for t in tensors]} do not conform on axis {axis}")
    splits = np.cumsum([d.shape[axis] for d in datas])[:-1]

    def bwd(g):
        return tuple(zip(tensors, np.split(g, splits, axis=axis)))

    return tg.record(out, bwd)


def unfused_mlp(x, t, layers):
    """Reference for tg.mlp: the primitive-by-primitive chain it replaces."""
    z = x
    if t is not None:
        z = concat([x, Tensor(np.full(x.shape[:-1] + (1,), t))], axis=-1)
    for i, (w, b) in enumerate(layers):
        z = add(matmul(z, w), b)
        if i < len(layers) - 1:
            z = relu(z)
    return z


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

    return tg.record(out, bwd)


def unfused_convnet(h, t, layers):
    """Reference for tg.convnet: the primitive-by-primitive chain it replaces."""
    for i, (w, b) in enumerate(layers):
        tchan = Tensor(np.full((h.shape[0], 1) + h.shape[2:], t))
        h = frozen_conv2d(concat([h, tchan], axis=1), w, b, padding=i % 2)
        if i < 2:
            h = relu(h)
    return h


class UnfusedConvDynamics(ConvDynamics):
    @taped
    def eval(self, h, t):
        return unfused_convnet(h, t, self.layers)


class FlatStages:
    """A flat-tape attempt of step dt from (h, t) behind odeint.Attempt's
    interface: h_next's array y, its error estimate (None for a fixed-step
    method), h_next itself once the loop takes the attempt, dopri5's dense
    output as one lincomb node, and its last stage's evaluation node as the
    next k1.  Every node is recorded as it is computed, a rejected attempt's
    too, as the flat tape recorded them."""

    def __init__(self, h, t, dt, ks, h_next, err=None):
        self.h, self.t, self.dt, self.ks = h, t, dt, ks
        self.h_next, self.y, self.err = h_next, h_next.data, err

    def take(self):
        return self.h_next

    def at(self, te):
        # dopri5's 4th-order continuous extension at te:
        # h + span * sum_i w_i k_i, w = th * (1, s, th*s, th*s^2) @ _DP_DENSE
        t_end = self.t + self.dt
        th = (te - self.t) / (t_end - self.t)
        w = th * np.array([1.0, 1 - th, th * (1 - th), th * (1 - th) ** 2])
        coeffs = (t_end - self.t) * (w @ _DP_DENSE)
        return lincomb((1.0, *coeffs), (self.h, *self.ks))

    def fsal(self):
        return self.ks[-1]


def flat_euler_step(f, h, t, dt, k1):
    """Reference for the Euler attempt: the step as one lincomb node, as the
    solver recorded it before its one attempt class; k1 = f(h, t) is the
    loop's node."""
    return FlatStages(h, t, dt, [k1], lincomb((1.0, dt), (h, k1)))


def flat_rk4_step(f, h, t, dt, k1):
    """Reference for the RK4 attempt: one lincomb node per stage sum and one
    node per evaluation (tg.vjp_node), all on the outer tape, as the solver
    recorded it before its one attempt class; k1 is the loop's node."""
    k2 = tg.vjp_node(f.eval, lincomb((1.0, dt / 2), (h, k1)), t + dt / 2)
    k3 = tg.vjp_node(f.eval, lincomb((1.0, dt / 2), (h, k2)), t + dt / 2)
    k4 = tg.vjp_node(f.eval, lincomb((1.0, dt), (h, k3)), t + dt)
    return FlatStages(h, t, dt, [k1, k2, k3, k4], lincomb(
        (1.0, dt / 6, dt / 3, dt / 3, dt / 6), (h, k1, k2, k3, k4)))


def flat_dopri5_step(f, h, t, dt, k1):
    """Reference for the dopri5 attempt: one lincomb node per stage sum and
    one node per evaluation (tg.vjp_node), all on the outer tape."""
    ks = [k1]
    for i in range(1, 7):
        y = lincomb((1.0,) + tuple(dt * a for a in _DP_A[i]), (h, *ks))
        ks.append(tg.vjp_node(f.eval, y, t + _DP_C[i] * dt))
    h_next = lincomb((1.0,) + tuple(dt * b for b in _DP_B5[:6]), (h, *ks[:6]))
    err = sum(dt * e * k.data for e, k in zip(_DP_E, ks) if e != 0.0)
    return FlatStages(h, t, dt, ks, h_next, err)


# the flat reference of each method's attempt, for odeint._STEPS
FLAT_STEPS = {"euler": flat_euler_step, "rk4": flat_rk4_step,
              "dopri5": flat_dopri5_step}
