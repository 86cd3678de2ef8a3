"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

The engine is tape-based: while a :class:`CompGraph` is active, every primitive
records one node (operation, input node ids, backward rule).  ``backward``
walks the tape once in reverse and accumulates gradients into the ``.grad``
buffers of leaf tensors that were created with ``requires_grad=True``.

Only the primitives the dynamics functions and losses need are provided; there
is no general broadcasting beyond bias addition.
"""

from __future__ import annotations

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
    __slots__ = ("op", "input_ids", "backward_fn", "tensor", "is_leaf")

    def __init__(self, op, input_ids, backward_fn, tensor, is_leaf):
        self.op = op
        self.input_ids = input_ids
        self.backward_fn = backward_fn
        self.tensor = tensor
        self.is_leaf = is_leaf


class CompGraph:
    """Execution tape.  Node input ids strictly precede the node by construction."""

    def __init__(self):
        self.nodes: list[_Node] = []

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

    def _register_leaf(self, t: "Tensor") -> int:
        nid = len(self.nodes)
        self.nodes.append(_Node("leaf", (), None, t, True))
        t._graph = self
        t._id = nid
        return nid

    def _leaf_id(self, t: "Tensor") -> int:
        if t._graph is self and t._id is not None:
            return t._id
        return self._register_leaf(t)

    def _record(self, op: str, inputs: Sequence["Tensor"], out: "Tensor",
                backward_fn) -> "Tensor":
        ids = tuple(self._leaf_id(t) for t in inputs)
        nid = len(self.nodes)
        self.nodes.append(_Node(op, ids, backward_fn, out, False))
        out._graph = self
        out._id = nid
        return out


class Tensor:
    """Dense n-dimensional array of float64 with optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_graph", "_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("leaf tensor contains non-finite entries")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = np.zeros_like(arr) if requires_grad else None
        self._graph: CompGraph | None = None
        self._id: int | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t.grad = None
        t._graph = None
        t._id = None
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
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


def _out(op: str, inputs: Sequence[Tensor], data: np.ndarray, backward_fn) -> Tensor:
    t = Tensor._wrap(data)
    if _ACTIVE is not None:
        _ACTIVE._record(op, inputs, t, backward_fn)
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

    return _out("add", (a, b), a.data + b.data, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_bcast("sub", a, b)

    def bwd(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape)))

    return _out("sub", (a, b), a.data - b.data, bwd)


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, (int, float)):
        return smul(a, float(b))
    _check_bcast("mul", a, b)
    ad, bd = a.data, b.data

    def bwd(g):
        return ((a, _unbroadcast(g * bd, a.shape)), (b, _unbroadcast(g * ad, b.shape)))

    return _out("mul", (a, b), ad * bd, bwd)


def smul(a: Tensor, c: float) -> Tensor:
    def bwd(g):
        return ((a, g * c),)

    return _out("smul", (a,), a.data * c, bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    ad, bd = a.data, b.data

    def bwd(g):
        if bd.ndim == 1:
            return ((a, np.outer(g, bd)), (b, ad.T @ g))
        return ((a, g @ bd.T), (b, ad.T @ g))

    return _out("matmul", (a, b), ad @ bd, bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0  # gradient at exactly 0 is defined as 0

    def bwd(g):
        return ((a, g * mask),)

    return _out("relu", (a,), np.where(mask, a.data, 0.0), bwd)


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

    return _out("concat", tuple(tensors), out, bwd)


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
        pre = z @ w.data + b.data
        mask = pre > 0.0  # gradient at exactly 0 is defined as 0, as in relu
        z = np.where(mask, pre, 0.0)
        acts.append(z)
        masks.append(mask)
    w, b = layers[-1]
    out = z @ w.data + b.data

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

    inputs = (x,) + tuple(p for layer in layers for p in layer)
    return _out("mlp", inputs, out, bwd)


def tsum(a: Tensor, axis=None) -> Tensor:
    def bwd(g):
        if axis is None:
            return ((a, np.full(a.shape, float(g))),)
        return ((a, np.broadcast_to(np.expand_dims(g, axis), a.shape).copy()),)

    return _out("sum", (a,), np.sum(a.data, axis=axis), bwd)


def tmean(a: Tensor, axis=None) -> Tensor:
    if axis is None:
        n = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.shape[ax] for ax in axes]))

    def bwd(g):
        if axis is None:
            return ((a, np.full(a.shape, float(g) / n)),)
        ge = g
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(axes):
            ge = np.expand_dims(ge, ax)
        return ((a, np.broadcast_to(ge, a.shape) / n),)

    return _out("mean", (a,), np.mean(a.data, axis=axis), bwd)


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
            acc = acc + c * t.data

    def bwd(g):
        return tuple((t, g * c) for c, t in zip(coeffs, tensors) if c != 0.0)

    return _out("lincomb", tuple(tensors), acc, bwd)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, padding: int = 0) -> Tensor:
    """2-D correlation, stride 1, padding in {0, 1}.

    x: (B, C, H, W); w: (O, C, kh, kw); b: (O,) or None.
    """
    if padding not in (0, 1):
        raise ShapeError(f"conv2d: padding {padding} unsupported (need 0 or 1)")
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: need 4-d input and weight, got {x.shape}, {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv2d: channel mismatch between {x.shape} and {w.shape}")
    kh, kw = w.shape[2], w.shape[3]
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) \
        if padding else x.data
    if xp.shape[2] < kh or xp.shape[3] < kw:
        raise ShapeError(f"conv2d: kernel {w.shape} larger than padded input {x.shape}")
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    out = np.einsum("bcyxuv,ocuv->boyx", win, w.data, optimize=True)
    inputs: list[Tensor] = [x, w]
    if b is not None:
        if b.shape != (w.shape[0],):
            raise ShapeError(f"conv2d: bias {b.shape} does not match filters {w.shape}")
        out = out + b.data[:, None, None]
        inputs.append(b)

    wd = w.data

    def bwd(g):
        gp = np.pad(g, ((0, 0), (0, 0), (kh - 1 - padding,) * 2, (kw - 1 - padding,) * 2))
        gwin = sliding_window_view(gp, (kh, kw), axis=(2, 3))
        gx = np.einsum("boyxuv,ocuv->bcyx", gwin, wd[:, :, ::-1, ::-1], optimize=True)
        gw = np.einsum("bcyxuv,boyx->ocuv", win, g, optimize=True)
        grads = [(x, gx), (w, gw)]
        if b is not None:
            grads.append((b, g.sum(axis=(0, 2, 3))))
        return tuple(grads)

    return _out("conv2d", tuple(inputs), out, bwd)


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

    return _out("softmax_xent", (logits,), np.float64(nll), bwd)


def backward(graph: CompGraph, loss: Tensor) -> None:
    """Reverse pass over the tape; accumulates into leaf ``.grad`` buffers."""
    if loss._graph is not graph or loss._id is None:
        raise GraphError("backward: loss tensor was not computed on this graph")
    if loss.size != 1:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.shape}")
    grads: list[np.ndarray | None] = [None] * len(graph.nodes)
    grads[loss._id] = np.ones_like(loss.data)
    for nid in range(loss._id, -1, -1):
        node = graph.nodes[nid]
        g = grads[nid]
        if g is None:
            continue
        if node.is_leaf:
            t = node.tensor
            if t.requires_grad:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += g
        else:
            for src, gi in node.backward_fn(g):
                sid = src._id
                grads[sid] = gi if grads[sid] is None else grads[sid] + gi
        grads[nid] = None  # intermediates release their gradient storage


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

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def num_elements(self) -> int:
        return sum(t.size for t in self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    def copy_values(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self._params.items()}


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
