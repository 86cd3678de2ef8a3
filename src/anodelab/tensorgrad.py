"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

The engine is tape-based: while a :class:`CompGraph` is active, every primitive
records one node (its output tensor and its backward rule).  Leaves
(parameters, inputs, constants) are never recorded.  ``backward`` walks the
tape once in reverse; a gradient that reaches a leaf with a ``.grad`` buffer
(one created with ``requires_grad=True``) is added into that buffer, and one
that reaches any other leaf is dropped.  A tensor knows its graph only by
serial number, so nothing refers back to a tape, and reference counting frees
the tape as soon as its graph is unbound.

Only the primitives the dynamics functions and losses need are provided; there
is no general broadcasting beyond bias addition.
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
        self._prev = _ACTIVE
        _ACTIVE = None
        return self

    def __exit__(self, *exc):
        global _ACTIVE
        _ACTIVE = self._prev
        return False


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
        self._prev = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE
        _ACTIVE = self._prev
        return False

    def __len__(self) -> int:
        return len(self.nodes)


class Tensor:
    """Dense n-dimensional array of float64 with optional gradient buffer."""

    __slots__ = ("data", "grad", "_serial", "_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("leaf tensor contains non-finite entries")
        self.data = arr
        self.grad: np.ndarray | None = np.zeros_like(arr) if requires_grad else None
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

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.grad is not None})"

    def __add__(self, other):
        return add(self, other)


def _out(data: np.ndarray, backward_fn) -> Tensor:
    t = Tensor._wrap(data)
    if _ACTIVE is not None:
        t._serial = _ACTIVE.serial
        t._id = len(_ACTIVE.nodes)
        _ACTIVE.nodes.append(_Node(t, backward_fn))
    return t


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _check_bcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not conform")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_bcast("add", a, b)

    def bwd(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))

    return _out(a.data + b.data, bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    ad, bd = a.data, b.data

    def bwd(g):
        return ((a, g @ bd.T), (b, ad.T @ g))

    return _out(ad @ bd, bwd)


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


def relu(a: Tensor) -> Tensor:
    out = np.empty_like(a.data)
    mask = _relu(a.data, out)

    def bwd(g):
        return ((a, g * mask),)

    return _out(out, bwd)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not tensors:
        raise ShapeError("concat: empty input list")
    datas = [t.data for t in tensors]
    try:
        out = np.concatenate(datas, axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: shapes {[t.shape for t in tensors]} do not conform on axis {axis}")
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        parts = np.split(g, splits, axis=axis)
        return tuple(zip(tensors, parts))

    return _out(out, bwd)


def mlp(x: Tensor, t: float | None,
        layers: Sequence[tuple[Tensor, Tensor]]) -> Tensor:
    """Multilayer perceptron on a (B, n) input as a single tape node.

    Each (W, b) layer maps z to z @ W + b, followed by ReLU on every layer but
    the last, which is affine.  A float t is appended to every row as an extra
    input column; t=None means no time input.  Forward and backward repeat,
    operation for operation, the NumPy arithmetic of the unfused chain
    concat -> (matmul, add, relu)* -> matmul, add, so values and gradients are
    bit-identical to it."""
    if x.data.ndim != 2:
        raise ShapeError(f"mlp: input must be 2-d, got {x.shape}")
    if not layers:
        raise ShapeError("mlp: no layers")
    width = x.shape[1] + (t is not None)
    for w, b in layers:
        if w.data.ndim != 2 or w.shape[0] != width:
            raise ShapeError(f"mlp: weight {w.shape} does not take width {width}")
        if b.shape != (w.shape[1],):
            raise ShapeError(f"mlp: bias {b.shape} does not match weight {w.shape}")
        width = w.shape[1]
    z = x.data
    if t is not None:
        if not math.isfinite(t):
            raise ValueError(f"mlp: non-finite time {t}")
        z = np.concatenate([z, np.full(z.shape[:-1] + (1,), t)], axis=-1)
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

    def bwd(g):
        grads = []
        for i in range(len(layers) - 1, -1, -1):
            w, b = layers[i]
            if i < len(masks):
                g = g * masks[i]
            grads.append((b, _unbroadcast(g, b.shape)))
            grads.append((w, acts[i].T @ g))
            g = g @ w.data.T
        grads.append((x, g[:, :-1] if t is not None else g))
        return grads

    return _out(out, bwd)


def tmean(a: Tensor, axis: tuple[int, ...]) -> Tensor:
    """Mean over a tuple of axes, which are dropped from the shape."""
    n = math.prod(a.shape[ax] for ax in axis)

    def bwd(g):
        return ((a, np.broadcast_to(np.expand_dims(g, axis), a.shape) / n),)

    return _out(np.mean(a.data, axis=axis), bwd)


def lincomb(coeffs: Sequence[float], tensors: Sequence[Tensor]) -> Tensor:
    """sum_i c_i * t_i with a single tape node; all tensors share one shape."""
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

    return _out(acc, bwd)


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


def convnet(x: Tensor, t: float,
            layers: Sequence[tuple[Tensor, Tensor]]) -> Tensor:
    """1x1 -> ReLU -> 3x3 (padding 1) -> ReLU -> 1x1 convolution block on a
    (B, C, H, W) input as a single tape node.

    Each (w, b) layer is an (O, in + 1, k, k) kernel and an (O,) bias; the
    float t is appended as a constant input channel before each convolution.
    Forward and backward repeat, operation for operation, the NumPy
    arithmetic of the unfused chain of tape nodes (concat -> convolution ->
    relu) x 2 -> concat -> convolution, which the tests keep as the
    reference, so values and gradients are bit-identical to it.  The
    backward keeps only the last layer's input: it recomputes the cheap 1x1
    first layer from x, and the second ReLU's mask from that input."""
    if x.data.ndim != 4:
        raise ShapeError(f"convnet: input must be 4-d, got {x.shape}")
    if len(layers) != 3:
        raise ShapeError(f"convnet: need 3 layers, got {len(layers)}")
    width = x.shape[1]
    for (w, b), k in zip(layers, (1, 3, 1)):
        if w.data.ndim != 4 or w.shape[2:] != (k, k):
            raise ShapeError(f"convnet: weight {w.shape} is not a {k}x{k} kernel")
        if w.shape[1] != width + 1:
            raise ShapeError(f"convnet: weight {w.shape} does not take {width} "
                             "channels plus time")
        if b.shape != (w.shape[0],):
            raise ShapeError(f"convnet: bias {b.shape} does not match filters {w.shape}")
        width = w.shape[0]
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
        x1 = np.concatenate([x.data, np.full(tchan, t)], axis=1)
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

    def bwd(g):
        gx, gw3, gb3 = _conv2d_vjp(g, x3, w3.data, 0)
        # _relu wrote pre where pre > 0.0 and +0.0 elsewhere (NaN included),
        # so x3 > 0.0 is pre > 0.0, in pre's C order
        gx = gx[:, :-1] * (x3[:, :-1] > 0.0)
        x1, mask1, x2 = first_layer()
        gx, gw2, gb2 = _conv2d_vjp(gx, x2, w2.data, 1)
        del x2
        gx, gw1, gb1 = _conv2d_vjp(gx[:, :-1] * mask1, x1, w1.data, 0)
        return ((w3, gw3), (b3, gb3), (w2, gw2), (b2, gb2), (w1, gw1), (b1, gb1),
                (x, gx[:, :-1]))

    return _out(out, bwd)


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

    return _out(np.mean(d * d), bwd)


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

    return _out(np.float64(nll), bwd)


def backward(graph: CompGraph, loss: Tensor) -> None:
    """Reverse pass over the tape; accumulates into leaf ``.grad`` buffers."""
    serial = graph.serial
    if loss._serial != serial:
        raise GraphError("backward: loss tensor was not computed on this graph")
    if loss.size != 1:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.shape}")
    nodes = graph.nodes
    grads: list[np.ndarray | None] = [None] * len(nodes)
    grads[loss._id] = np.ones_like(loss.data)
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
    """Named parameter tensors with matching gradient accumulators."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise KeyError(f"duplicate parameter {name!r}")
        t = Tensor(value, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()


def grad_check(loss_fn: Callable[[], Tensor], params: ParamSet,
               eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` evaluates the scalar loss from the current parameter values;
    it must not depend on any state other than ``params``.
    """
    if not (0.0 < eps <= 1e-2):
        raise ValueError(f"grad_check: eps {eps} outside (0, 1e-2]")
    params.zero_grad()
    with CompGraph() as g:
        loss = loss_fn()
    if not np.isfinite(loss.data).all():
        raise ValueError("grad_check: non-finite loss")
    backward(g, loss)
    analytic = {k: t.grad.copy() for k, t in params.items()}

    worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
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
            an = analytic[name].reshape(-1)[i]
            rel = abs(an - cd) / max(abs(an), abs(cd), 1e-12)
            worst = max(worst, rel)
    return worst
