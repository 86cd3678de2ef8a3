"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

The engine is tape-based: while a :class:`CompGraph` is active, every primitive
records one node (its output tensor and its backward rule).  Leaves
(parameters, inputs, constants) are never recorded.  ``backward`` walks the
tape once in reverse; a gradient that reaches a leaf with a ``.grad`` buffer
(a parameter of a ``ParamSet``, or a tensor given one) is added into that
buffer, and one that reaches any other leaf is dropped.  A tensor knows its
graph only by serial number, so nothing refers back to a tape, and reference
counting frees the tape as soon as its graph is unbound.

Only the primitives the models and losses need are provided, and none of
them broadcasts.  The dynamics blocks ``mlp_vjp`` and ``convnet`` work on
arrays: each returns its output and a ``vjp`` that adds the parameters'
gradients into their ``.grad`` and returns the input's gradient.
``vjp_node`` records such a pair as one node; the solver's Runge-Kutta
attempt keeps each stage's ``vjp`` and records its own node with ``record``.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for a primitive."""


class GraphError(RuntimeError):
    """Raised on invalid tape usage (e.g. backward before forward)."""


_ACTIVE: "CompGraph | None" = None


def active_graph() -> "CompGraph | None":
    return _ACTIVE


class no_grad:
    """Context manager suspending tape recording (pure evaluation)."""

    def __enter__(self):
        global _ACTIVE
        self._prev, _ACTIVE = _ACTIVE, None

    def __exit__(self, *exc):
        global _ACTIVE
        _ACTIVE = self._prev


class _Node:
    __slots__ = ("tensor", "backward_fn")

    def __init__(self, tensor, backward_fn):
        self.tensor = tensor
        self.backward_fn = backward_fn


_SERIALS = itertools.count(1)  # 0 marks a tensor computed on no graph


class CompGraph:
    """Execution tape: one node per tensor computed while it is active, in
    order of computation."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.serial = next(_SERIALS)

    def __enter__(self) -> "CompGraph":
        global _ACTIVE
        self._prev, _ACTIVE = _ACTIVE, self
        return self

    def __exit__(self, *exc):
        global _ACTIVE
        # drop the reference to the enclosing graph: a graph entered inside
        # another one's node would otherwise close a cycle through that node
        _ACTIVE, self._prev = self._prev, None

    def __len__(self) -> int:
        return len(self.nodes)


class Tensor:
    """Dense n-dimensional array of float64 with optional gradient buffer."""

    __slots__ = ("data", "grad", "_serial", "_id")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("leaf tensor contains non-finite entries")
        self.data = arr
        self.grad: np.ndarray | None = None
        self._serial = 0        # serial number of the graph that computed it
        self._id = -1           # its node index on that graph

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        t = cls.__new__(cls)
        t.data = arr
        t.grad = None
        t._serial = 0
        t._id = -1
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor of shape {self.shape} is not scalar")
        return float(self.data.reshape(()))


def record(data: np.ndarray, backward_fn) -> Tensor:
    """The tensor holding a primitive's result ``data``.  On the active graph
    it is one node, whose ``backward_fn`` maps the result's gradient to the
    (input, gradient) pairs of the primitive's inputs; with no active graph
    it is a leaf without gradient."""
    t = Tensor._wrap(data)
    if _ACTIVE is not None:
        t._serial = _ACTIVE.serial
        t._id = len(_ACTIVE.nodes)
        _ACTIVE.nodes.append(_Node(t, backward_fn))
    return t


def _relu(pre: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The one ReLU rule: writes max(pre, 0) into out, which may be pre
    itself, and returns the mask pre > 0 that the gradient passes through
    (so the gradient at exactly 0 is 0).  fmax sends NaN to 0 and += 0.0
    turns -0.0 into +0.0, so out holds the bits of np.where(pre > 0.0, pre,
    0.0) for every input, without its branch or its new array."""
    mask = pre > 0.0
    np.fmax(pre, 0.0, out=out)
    out += 0.0
    return mask


def vjp_node(fn, x: Tensor, *args) -> Tensor:
    """``fn(x.data, *args)``, an output and its ``vjp``, as one node of input
    x, whose backward hands x the gradient that ``vjp`` returns."""
    out, vjp = fn(x.data, *args)
    return record(out, lambda g: ((x, vjp(g)),))


def check_mlp(layers: Sequence[tuple[Tensor, Tensor]], width: int) -> None:
    """ShapeError unless ``layers`` chain (n, m) weights and (m,) biases
    from ``width`` input columns."""
    if not layers:
        raise ShapeError("mlp: no layers")
    for w, b in layers:
        if w.data.ndim != 2 or w.shape[0] != width:
            raise ShapeError(f"mlp: weight {w.shape} does not take width {width}")
        if b.shape != (w.shape[1],):
            raise ShapeError(f"mlp: bias {b.shape} does not match weight {w.shape}")
        width = w.shape[1]


def mlp_vjp(x: np.ndarray, t: float | None,
            layers: Sequence[tuple[Tensor, Tensor]]):
    """Multilayer perceptron on a (B, n) array: its output and its vjp.

    Each (W, b) layer (checked where it is built, check_mlp) maps z to
    z @ W + b, followed by ReLU on every layer but the last.  A float t is
    appended to every row as an extra input column; t=None means none.
    Forward and vjp repeat, operation for operation and parameter by
    parameter, the NumPy arithmetic of the unfused chain concat -> (matmul,
    add, relu)* -> matmul, add, which the tests keep as the reference, so
    values and gradients are bit-identical to it."""
    if x.ndim != 2:
        raise ShapeError(f"mlp: input must be 2-d, got {x.shape}")
    z = x
    if t is not None:
        if not math.isfinite(t):
            raise ValueError(f"mlp: non-finite time {t}")
        z = np.empty((x.shape[0], x.shape[1] + 1))
        z[:, :-1] = x
        z[:, -1] = t
    acts = [z]      # input of each layer
    masks = []      # ReLU mask of each hidden layer
    for w, b in layers[:-1]:
        # z @ w is a new array, so the bias add and ReLU never write into x
        z = z @ w.data
        z += b.data
        masks.append(_relu(z, z))
        acts.append(z)
    w, b = layers[-1]
    out = z @ w.data
    out += b.data

    def vjp(g):
        for i in range(len(layers) - 1, -1, -1):
            w, b = layers[i]
            if i < len(masks):
                g = g * masks[i]
            if b.grad is not None:
                b.grad += g.sum(axis=0)
            if w.grad is not None:
                w.grad += acts[i].T @ g
            g = g @ w.data.T
        return g[:, :-1] if t is not None else g

    return out, vjp


def mlp(x: Tensor, t: float | None,
        layers: Sequence[tuple[Tensor, Tensor]]) -> Tensor:
    """mlp_vjp on a tensor as one tape node: the head and the resnet blocks."""
    return vjp_node(mlp_vjp, x, t, layers)


def tmean(a: Tensor, axis: tuple[int, ...]) -> Tensor:
    """Mean over a tuple of axes, which are dropped from the shape."""
    n = math.prod(a.shape[ax] for ax in axis)

    def bwd(g):
        return ((a, np.broadcast_to(np.expand_dims(g, axis), a.shape) / n),)

    return record(np.mean(a.data, axis=axis), bwd)


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Array-level 2-D correlation plus bias, stride 1, on an input that is
    already padded: x (B, C, H, W), w (O, C, kh, kw), b (O,).  It records
    nothing; it is the forward of each convolution of ``convnet``."""
    win = sliding_window_view(x, w.shape[2:], axis=(2, 3))
    # not in place: the sum's new array normalizes the strides that einsum
    # leaves on a size-1 filter axis
    return np.einsum("bcyxuv,ocuv->boyx", win, w, optimize=True) + b[:, None, None]


def _conv2d_vjp(g: np.ndarray, x: np.ndarray, w: np.ndarray,
                padding: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (input, weight, bias) of ``conv2d(x, w, b)`` for the output
    gradient g, where x is the input padded by ``padding``; the input
    gradient is for the unpadded input."""
    kh, kw = w.shape[2:]
    ph, pw = kh - 1 - padding, kw - 1 - padding
    # with no padding (the 1x1 layers) np.pad would only copy g
    gp = np.pad(g, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else g
    gwin = sliding_window_view(gp, (kh, kw), axis=(2, 3))
    gx = np.einsum("boyxuv,ocuv->bcyx", gwin, w[:, :, ::-1, ::-1], optimize=True)
    # free the padded gradient first: otherwise the allocator hands the heap
    # top back to the OS after each call and faults it in again on the next
    del gp, gwin
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    gw = np.einsum("bcyxuv,boyx->ocuv", win, g, optimize=True)
    return gx, gw, g.sum(axis=(0, 2, 3))


def check_convnet(layers: Sequence[tuple[Tensor, Tensor]], width: int) -> None:
    """ShapeError unless ``layers`` are convnet's 1x1, 3x3 and 1x1 layers
    from ``width`` channels, each taking the channels before it plus time."""
    if len(layers) != 3:
        raise ShapeError(f"convnet: need 3 layers, got {len(layers)}")
    for (w, b), k in zip(layers, (1, 3, 1)):
        if w.data.ndim != 4 or w.shape[2:] != (k, k):
            raise ShapeError(f"convnet: weight {w.shape} is not a {k}x{k} kernel")
        if w.shape[1] != width + 1:
            raise ShapeError(f"convnet: weight {w.shape} does not take {width} "
                             "channels plus time")
        if b.shape != (w.shape[0],):
            raise ShapeError(f"convnet: bias {b.shape} does not match filters {w.shape}")
        width = w.shape[0]


def convnet(x: np.ndarray, t: float, layers: Sequence[tuple[Tensor, Tensor]]):
    """1x1 -> ReLU -> 3x3 (padding 1) -> ReLU -> 1x1 convolution block on a
    (B, C, H, W) array: its output and its vjp.

    Each (w, b) layer (checked where it is built, check_convnet) is an
    (O, in + 1, k, k) kernel and an (O,) bias; the float t is appended as a
    constant input channel before each convolution.  Forward and vjp
    repeat, operation for operation and parameter by parameter, the NumPy
    arithmetic of the unfused chain (concat -> convolution -> relu) x 2 ->
    concat -> convolution, which the tests keep as the reference, so values
    and gradients are bit-identical to it.  The vjp keeps only the last
    layer's input: it recomputes the cheap 1x1 first layer from x, and the
    second ReLU's mask from that input."""
    if x.ndim != 4:
        raise ShapeError(f"convnet: input must be 4-d, got {x.shape}")
    if not math.isfinite(t):
        raise ValueError(f"convnet: non-finite time {t}")
    (w1, b1), (w2, b2), (w3, b3) = layers
    n, _, hh, ww = x.shape
    tchan = (n, 1, hh, ww)

    def first_layer():
        """The 1x1 layer's input, its ReLU mask and the padded 3x3 input,
        by the same operations in the forward and in the backward."""
        # the 1x1 inputs are built as the chain's concat builds them: the
        # result takes its inputs' memory order, which einsum's rounding
        # depends on
        x1 = np.concatenate([x, np.full(tchan, t)], axis=1)
        pre = conv2d(x1, w1.data, b1.data)
        # ReLU output and time written straight into the padded 3x3 input,
        # which is C-ordered like np.pad's output
        x2 = np.zeros((n, pre.shape[1] + 1, hh + 2, ww + 2))
        mask1 = _relu(pre, x2[:, :-1, 1:-1, 1:-1])
        x2[:, -1, 1:-1, 1:-1] = t
        return x1, mask1, x2

    x2 = first_layer()[2]
    pre = conv2d(x2, w2.data, b2.data)
    del x2
    _relu(pre, pre)  # in place keeps pre's memory order for concat
    x3 = np.concatenate([pre, np.full(tchan, t)], axis=1)
    del pre
    out = conv2d(x3, w3.data, b3.data)

    def vjp(g):
        gx, gw3, gb3 = _conv2d_vjp(g, x3, w3.data, 0)
        # _relu wrote pre where pre > 0.0 and +0.0 elsewhere (NaN included),
        # so x3 > 0.0 is pre > 0.0, in pre's C order
        gx = gx[:, :-1] * (x3[:, :-1] > 0.0)
        x1, mask1, x2 = first_layer()
        gx, gw2, gb2 = _conv2d_vjp(gx, x2, w2.data, 1)
        del x2
        gx, gw1, gb1 = _conv2d_vjp(gx[:, :-1] * mask1, x1, w1.data, 0)
        for p, gp in ((w3, gw3), (b3, gb3), (w2, gw2), (b2, gb2), (w1, gw1), (b1, gb1)):
            if p.grad is not None:  # as backward skips a leaf without one
                p.grad += gp
        return gx[:, :-1]

    return out, vjp


def mse(out: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error of ``out`` against targets of the same size."""
    y = np.asarray(targets, dtype=np.float64)
    if y.size != out.size:
        raise ShapeError(f"mse: targets of shape {y.shape} do not match {out.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("mse: targets contain non-finite entries")
    d = out.data - y.reshape(out.shape)

    def bwd(g):
        gd = np.full(d.shape, float(g) / d.size) * d
        return ((out, gd + gd),)

    return record(np.mean(d * d), bwd)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of (B, K) logits against integer labels."""
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be 2-d, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    nll = -np.mean(np.log(probs[np.arange(n), labels] + 1e-300))

    def bwd(g):
        gl = probs.copy()
        gl[np.arange(n), labels] -= 1.0
        return ((logits, gl * (float(g) / n)),)

    return record(np.float64(nll), bwd)


def backward(graph: CompGraph, loss: Tensor) -> None:
    """Reverse pass over the tape from the scalar ``loss``: each node hands
    its gradient to its rule, and each (input, gradient) pair the rule
    returns adds into the input's gradient if the input is a node of this
    graph, else into its ``.grad`` buffer if it has one."""
    if loss._serial != graph.serial:
        raise GraphError("backward: loss tensor was not computed on this graph")
    if loss.size != 1:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.shape}")
    grads: list[np.ndarray | None] = [None] * (loss._id + 1)
    grads[loss._id] = np.ones_like(loss.data)
    serial, nodes = graph.serial, graph.nodes
    for nid in range(loss._id, -1, -1):
        g = grads[nid]
        if g is None:
            continue
        grads[nid] = None  # intermediates release their gradient storage
        for src, gi in nodes[nid].backward_fn(g):
            if src._serial == serial:
                sid = src._id
                grads[sid] = gi if grads[sid] is None else grads[sid] + gi
            elif src.grad is not None:
                src.grad += gi


class ParamSet:
    """Named parameter tensors over one contiguous buffer of values, ``data``,
    and one of gradients, ``grad``.  Each parameter's ``.data`` and ``.grad``
    are views of them, in the order the parameters were added, so a pass
    over the whole set (an optimizer step, a finite check, zeroing) is one
    NumPy call over each buffer."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self.data = np.zeros(0)
        self.grad = np.zeros(0)

    def add(self, name: str, value: np.ndarray) -> Tensor:
        """Add a parameter holding a copy of ``value``.  Both buffers grow,
        and every parameter's views move to them with its values and
        gradient kept; the tensors stay the same objects."""
        if name in self._params:
            raise KeyError(f"duplicate parameter {name!r}")
        t = Tensor(value)
        self._params[name] = t
        data = np.concatenate([self.data, t.data.ravel()])
        grad = np.zeros_like(data)
        grad[:self.grad.size] = self.grad
        off = 0
        for p in self._params.values():
            shape, end = p.data.shape, off + p.data.size
            p.data = data[off:end].reshape(shape)
            p.grad = grad[off:end].reshape(shape)
            off = end
        self.data, self.grad = data, grad
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


def grad_check(loss_fn: Callable[[], Tensor], params: ParamSet,
               eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` evaluates the scalar loss from the current parameter values;
    it must not depend on any state other than ``params``.  Each value is
    perturbed in place, through the set's buffer.
    """
    if not (0.0 < eps <= 1e-2):
        raise ValueError(f"grad_check: eps {eps} outside (0, 1e-2]")
    params.zero_grad()
    with CompGraph() as g:
        loss = loss_fn()
    if not np.isfinite(loss.data).all():
        raise ValueError("grad_check: non-finite loss")
    backward(g, loss)
    analytic = params.grad.copy()

    worst = 0.0
    flat = params.data
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp = loss_fn().item()
        flat[i] = orig - eps
        lm = loss_fn().item()
        flat[i] = orig
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise ValueError("grad_check: non-finite loss during perturbation")
        cd = (lp - lm) / (2.0 * eps)
        an = analytic[i]
        rel = abs(an - cd) / max(abs(an), abs(cd), 1e-12)
        worst = max(worst, rel)
    return worst
