"""Frozen references for the fused code in anodelab: the tape primitives and
the primitive-by-primitive chains that the fused nodes replaced.  The tests
hold each fused node bit for bit to its reference here."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from anodelab import tensorgrad as tg
from anodelab.models import ConvDynamics
from anodelab.odeint import _DP_A, _DP_B5, _DP_C, _DP_E
from anodelab.tensorgrad import ShapeError, Tensor


def _unbroadcast(grad, shape):
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def add(a, b):
    """a + b with NumPy broadcasting as one tape node; src's last uses of it
    became lincomb((1.0, 1.0), ...) and the bias sum of mlp."""
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
        z = add(tg.matmul(z, w), b)
        if i < len(layers) - 1:
            z = tg.relu(z)
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
            h = tg.relu(h)
    return h


class UnfusedConvDynamics(ConvDynamics):
    def eval(self, h, t):
        return unfused_convnet(h, t, self.layers)


class FlatStages:
    """The stages of a flat-tape attempt behind Dopri5Stages' interface: a
    dense output is one lincomb node, and k7 is the tensor f returned."""

    def __init__(self, h, ks):
        self.h, self.ks = h, ks

    def dense(self, coeffs):
        return tg.lincomb((1.0, *coeffs), (self.h, *self.ks))

    def fsal(self):
        return self.ks[-1]


def flat_dopri5_step(f, h, t, dt, k1):
    """Reference for odeint.dopri5_step: the attempt as one lincomb node per
    stage sum and the nodes of each f.eval, all on the outer tape."""
    ks = [k1]
    for i in range(1, 7):
        y = tg.lincomb((1.0,) + tuple(dt * a for a in _DP_A[i]), (h, *ks))
        ks.append(f.eval(y, t + _DP_C[i] * dt))
    h_next = tg.lincomb((1.0,) + tuple(dt * b for b in _DP_B5[:6]), (h, *ks[:6]))
    err = sum(dt * e * k.data for e, k in zip(_DP_E, ks) if e != 0.0)
    return h_next, err, FlatStages(h, ks)
