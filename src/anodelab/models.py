"""Dynamics architectures, ODE-based heads, and the discrete residual baseline.

A model is: (optional) zero-augmentation of the input, a dimension-preserving
dynamics function integrated from t=0 to t=T, global average pooling for image
states, then one affine map to the output.  The residual baseline replaces the
integral with a fixed number of h <- h + f_t(h) updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import tensorgrad as tg
from .tensorgrad import ParamSet, Tensor
from .odeint import SolverConfig, integrate

KINDS = ("node", "anode", "resnet")


@dataclass
class ModelSpec:
    """Declarative model description; parameter counts are exact and queryable."""

    kind: str = "node"
    input_dim: int = 1          # feature dim for vectors, channels for images
    hidden_dim: int = 32        # MLP hidden width, or conv filter count
    p: int = 0                  # augmentation size (anode only)
    T: float = 1.0
    output_dim: int = 1
    resnet_layers: int = 0
    conv: bool = False
    head: str = "affine"        # "identity" trains the bare flow (1-d tasks)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if any(type(v) is not int for v in (self.input_dim, self.hidden_dim, self.p,
                                            self.output_dim, self.resnet_layers)):
            raise ValueError("input_dim, hidden_dim, p, output_dim and "
                             "resnet_layers must be ints")
        if type(self.T) not in (int, float) or not 0 < self.T < np.inf:
            raise ValueError(f"T must be finite and positive, got {self.T!r}")
        # each range error starts with the field's name (expcli swaps in the flag)
        lows = {"input_dim": 1, "hidden_dim": 1, "output_dim": 1, "p": 0}
        if self.kind == "resnet":
            lows["resnet_layers"] = 1
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.head not in ("affine", "identity"):
            raise ValueError(f"unknown head {self.head!r}")
        if self.head == "identity" and self.state_dim != self.output_dim:
            raise ValueError("identity head needs state_dim == output_dim")

    @property
    def aug(self) -> int:
        return self.p if self.kind == "anode" else 0

    @property
    def state_dim(self) -> int:
        return self.input_dim + self.aug


@dataclass
class FlowSnapshot:
    times: list[float]
    states: np.ndarray          # (n_points, n_times, state_dim)
    labels: np.ndarray


def augment(x: Tensor, p: int) -> Tensor:
    """Concatenate p zeros (feature axis) or, for a (B, C, H, W) batch of
    images, p zero channels.  The result is a leaf: no gradient flows back
    to x, which is always model input."""
    if p < 0:
        raise ValueError(f"augmentation size must be >= 0, got {p}")
    if p == 0:
        return x
    axis = 1 if x.data.ndim == 4 else -1
    shape = list(x.shape)
    shape[axis] = p
    return Tensor(np.concatenate([x.data, np.zeros(shape)], axis=axis))


def _linear(name: str, n_in: int, n_out: int) -> Iterator[tuple[str, tuple]]:
    yield f"{name}.w", (n_in, n_out)
    yield f"{name}.b", (n_out,)


def _mlp(prefix: str, widths: tuple[int, int, int, int]) -> Iterator[tuple[str, tuple]]:
    """Three layers through ``widths``, named {prefix}.l1..l3."""
    for i in range(3):
        yield from _linear(f"{prefix}.l{i + 1}", widths[i], widths[i + 1])


def param_shapes(spec: ModelSpec) -> Iterator[tuple[str, tuple]]:
    """(name, shape) of each parameter of ``spec`` in declaration order: the
    order of the init draws and of the values in a checkpoint.  A generator,
    so a reader can stop at the first parameter a file cannot hold."""
    d, h = spec.state_dim, spec.hidden_dim
    if spec.kind == "resnet":
        for i in range(spec.resnet_layers):
            yield from _mlp(f"res.{i}", (d, h, h, d))
    elif spec.conv:  # (out, in + time channel, k, k) kernels
        for i, (n_out, n_in, k) in enumerate(((h, d, 1), (h, h, 3), (d, h, 1))):
            yield f"dyn.c{i + 1}.w", (n_out, n_in + 1, k, k)
            yield f"dyn.c{i + 1}.b", (n_out,)
    else:
        yield from _mlp("dyn", (d + 1, h, h, d))
    if spec.head == "affine":
        yield from _linear("head", d, spec.output_dim)


def _add_params(params: ParamSet, rng,
                shapes: Iterable[tuple[str, tuple]]) -> list[tuple[Tensor, Tensor]]:
    """Add each (name, shape) to ``params`` and return the (weight, bias)
    pairs.  Biases are zero; weights are uniform in +-1/sqrt(fan_in), where
    fan_in is shape[0] of an (in, out) matrix and prod(shape[1:]) of a conv
    kernel."""
    added = []
    for name, shape in shapes:
        if len(shape) == 1:
            added.append(params.add(name, np.zeros(shape)))
            continue
        bound = 1.0 / np.sqrt(shape[0] if len(shape) == 2 else math.prod(shape[1:]))
        added.append(params.add(name, rng.uniform(-bound, bound, size=shape)))
    return list(zip(added[::2], added[1::2]))


@dataclass(eq=False)
class MlpDynamics:
    """MLP dynamics d+1 -> hidden -> hidden -> d; the +1 input is the time t,
    appended to the state before the first layer."""

    layers: list[tuple[Tensor, Tensor]]

    def __post_init__(self):  # d state columns and the time column in, d out
        tg.check_mlp(self.layers, self.layers[-1][0].shape[-1] + 1 if self.layers else 0)

    @staticmethod
    def init(params: ParamSet, rng, dim: int, hidden: int, prefix: str = "dyn"):
        shapes = _mlp(prefix, (dim + 1, hidden, hidden, dim))
        return MlpDynamics(_add_params(params, rng, shapes))

    def eval(self, h: np.ndarray, t: float):
        return tg.mlp_vjp(h, t, self.layers)


@dataclass(eq=False)
class ConvDynamics:
    """1x1 -> ReLU -> 3x3 -> ReLU -> 1x1 conv block on (B, C, H, W) states;
    t is appended as an extra constant channel before each convolution."""

    layers: list[tuple[Tensor, Tensor]]

    def __post_init__(self):  # as many channels out as the state has
        tg.check_convnet(self.layers, self.layers[-1][0].shape[0] if self.layers else 0)

    def eval(self, h: np.ndarray, t: float):
        return tg.convnet(h, t, self.layers)


class Model:
    """A built model: parameters plus the forward machinery for its spec.

    For the resnet baseline, ``layers`` holds each residual update's MLP
    d -> hidden -> hidden -> d (no time input) as tg.mlp layers.  Given
    data, the parameters are a copy of that buffer, not the seed's draws."""

    def __init__(self, spec: ModelSpec, seed: int = 0, data: np.ndarray | None = None):
        self.spec = spec
        self.params = ParamSet()
        layers = _add_params(self.params, np.random.default_rng(seed),
                             param_shapes(spec))
        self.dynamics = None
        if spec.kind == "resnet":
            self.layers = [layers[3 * i:3 * i + 3] for i in range(spec.resnet_layers)]
        elif spec.conv:
            self.dynamics = ConvDynamics(layers[:3])
        else:
            self.dynamics = MlpDynamics(layers[:3])
        if spec.head == "affine":
            self._head = layers[-1:]
        if data is not None:
            self.params.data[...] = data

    def param_count(self) -> int:
        return param_count(self.spec)

    def head(self, state: Tensor) -> Tensor:
        if self.spec.head == "identity":
            return state
        if state.data.ndim == 4:
            state = tg.tmean(state, axis=(2, 3))  # global average pool
        return tg.mlp(state, None, self._head)


def param_count(spec: ModelSpec) -> int:
    """Parameters of a model of ``spec``, counted without building it."""
    return sum(math.prod(shape) for _, shape in param_shapes(spec))


def _flow(model: Model, x: Tensor, times: list[float],
          cfg: SolverConfig | None, per_sample: bool = False) -> tuple[list[Tensor], int]:
    """The one solve of every forward pass: the states and the dynamics
    evaluations spent.  The resnet baseline gives x and the state after each
    h <- h + f_i(h), whatever ``times``; an ODE model integrates its
    augmented input from 0 to times[-1] (T for every caller), sampled at
    ``times``."""
    spec = model.spec
    if spec.kind == "resnet":
        states = [x]
        for layer in model.layers:
            h = states[-1]
            states.append(tg.lincomb((1.0, 1.0), (h, tg.mlp(h, None, layer))))
        return states, spec.resnet_layers
    sol = integrate(model.dynamics, augment(x, spec.aug), 0.0, times, cfg,
                    per_sample=per_sample)
    return sol.states, sol.nfe


def node_forward(model: Model, x: Tensor,
                 cfg: SolverConfig | None = None) -> tuple[Tensor, int]:
    """Full forward pass: augment, integrate to T, affine head.  Returns the
    output and the number of dynamics evaluations spent."""
    states, nfe = _flow(model, x, [model.spec.T], cfg)
    return model.head(states[-1]), nfe


def features(model: Model, x: Tensor,
             cfg: SolverConfig | None = None) -> Tensor:
    """Pre-affine state at time T (augmented dimension for anode).

    This is the learned flow map applied to each input, so the solver holds
    every input's local error to cfg's tolerances (per-sample error control).
    node_forward shares one step sequence across the batch and holds only the
    batch's RMS error to them, so for a batch its state at T may differ."""
    return _flow(model, x, [model.spec.T], cfg, per_sample=True)[0][-1]


def invert_features(model: Model, feat: Tensor,
                    cfg: SolverConfig | None = None) -> Tensor:
    """Integrate the dynamics backward from T to 0, approximately recovering
    the (augmented) input that produced ``feat``; the inverse of features,
    with the same per-sample error control."""
    spec = model.spec
    if spec.kind == "resnet":
        raise ValueError("resnet baseline has no backward flow")
    sol = integrate(model.dynamics, feat, spec.T, [0.0], cfg, per_sample=True)
    return sol.states[-1]


def flow_trajectory(model: Model, points: np.ndarray, n_times: int,
                    cfg: SolverConfig | None = None,
                    labels: np.ndarray | None = None) -> FlowSnapshot:
    """States of every point at n_times uniform times in [0, T], in the
    (augmented) state space.  With dopri5 this is node_forward's solve on the
    same points (same NFE, same state at T), the earlier times dense output."""
    if n_times < 2:
        raise ValueError("n_times must be >= 2")
    spec = model.spec
    times = list(np.linspace(0.0, spec.T, n_times))
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    with tg.no_grad():
        states, _ = _flow(model, Tensor(pts), times, cfg)
    if spec.kind == "resnet":
        # residual updates sampled at layer boundaries, rescaled to [0, T]
        times = list(np.linspace(0.0, spec.T, spec.resnet_layers + 1))
    if labels is None:
        labels = np.zeros(len(pts))
    return FlowSnapshot(times, np.stack([h.data for h in states], axis=1),
                        np.asarray(labels))


def vector_field(model: Model, grid: np.ndarray,
                 t_slices: Sequence[float]) -> np.ndarray:
    """Dynamics evaluated at each (grid point, t); pure evaluation, nothing
    recorded on any graph.  Returns (len(t_slices), n_points, state_dim)."""
    if model.dynamics is None:
        raise ValueError("resnet baseline has no continuous vector field")
    pts = np.atleast_2d(np.asarray(grid, dtype=np.float64))
    out = np.empty((len(t_slices), pts.shape[0], pts.shape[1]))
    for i, t in enumerate(t_slices):
        out[i] = model.dynamics.eval(pts, float(t))[0]
    return out


def match_conv_filters(channels_a: int, channels_b: int, base_filters: int,
                       output_dim: int, tol: float = 0.02,
                       search: int = 32) -> tuple[int, int]:
    """Pick conv filter counts (k_a, k_b) for state-channel counts
    channels_a/channels_b so parameter totals agree within ``tol``.

    Searches upward from ``base_filters`` and returns the cheapest
    qualifying pair; raises if nothing lands within tol."""

    def count(c, k):
        return param_count(ModelSpec(kind="node", input_dim=c, hidden_dim=k,
                                     output_dim=output_dim, conv=True))

    best = None
    for ka in range(base_filters, base_filters + search + 1):
        na = count(channels_a, ka)
        for kb in range(max(1, ka - 4), ka + 8):
            nb = count(channels_b, kb)
            rel = abs(na - nb) / nb
            if rel <= tol:
                return ka, kb
            if best is None or rel < best:
                best = rel
    raise ValueError(f"no parameter-matched filter pair within {tol:.0%} "
                     f"(best mismatch {best:.2%})")
