"""Dynamics architectures, ODE-based heads, and the discrete residual baseline.

A model is: (optional) zero-augmentation of the input, a dimension-preserving
dynamics function integrated from t=0 to t=T, global average pooling for image
states, then one affine map to the output.  The residual baseline replaces the
integral with a fixed number of h <- h + f_t(h) updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
        if self.p < 0:
            raise ValueError("augmentation size p must be >= 0")
        if self.kind == "resnet" and self.resnet_layers < 1:
            raise ValueError("resnet needs resnet_layers >= 1")
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
    point_ids: list[int]
    times: list[float]
    states: np.ndarray          # (n_points, n_times, state_dim)
    labels: np.ndarray


def augment(x: Tensor, p: int) -> Tensor:
    """Concatenate p zeros (feature axis) or, for a (B, C, H, W) batch of
    images, p zero channels."""
    if p < 0:
        raise ValueError(f"augmentation size must be >= 0, got {p}")
    if p == 0:
        return x
    if x.data.ndim == 4:
        zeros = Tensor(np.zeros((x.shape[0], p) + x.shape[2:]))
        return tg.concat([x, zeros], axis=1)
    zeros = Tensor(np.zeros(x.shape[:-1] + (p,)))
    return tg.concat([x, zeros], axis=-1)


def _init_linear(params: ParamSet, rng, name: str, fan_in: int,
                 fan_out: int) -> tuple[Tensor, Tensor]:
    bound = 1.0 / np.sqrt(fan_in)
    w = params.add(f"{name}.w", rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    b = params.add(f"{name}.b", np.zeros(fan_out))
    return w, b


def _init_conv(params: ParamSet, rng, name: str, out_c: int, in_c: int, k: int):
    fan_in = in_c * k * k
    bound = 1.0 / np.sqrt(fan_in)
    params.add(f"{name}.w", rng.uniform(-bound, bound, size=(out_c, in_c, k, k)))
    params.add(f"{name}.b", np.zeros(out_c))


def _init_mlp(params: ParamSet, rng, prefix: str, in_dim: int, hidden: int,
              out_dim: int) -> list[tuple[Tensor, Tensor]]:
    """Layers in_dim -> hidden -> hidden -> out_dim named {prefix}.l1..l3."""
    widths = (in_dim, hidden, hidden, out_dim)
    return [_init_linear(params, rng, f"{prefix}.l{i + 1}", widths[i], widths[i + 1])
            for i in range(3)]


class MlpDynamics:
    """MLP dynamics d+1 -> hidden -> hidden -> d; the +1 input is the time t,
    appended to the state before the first layer."""

    def __init__(self, params: ParamSet, dim: int, hidden: int, prefix: str = "dyn"):
        self.params = params
        self.dim = dim
        self.prefix = prefix
        self.layers = [(params[f"{prefix}.l{i}.w"], params[f"{prefix}.l{i}.b"])
                       for i in (1, 2, 3)]

    @staticmethod
    def init(params: ParamSet, rng, dim: int, hidden: int, prefix: str = "dyn"):
        _init_mlp(params, rng, prefix, dim + 1, hidden, dim)
        return MlpDynamics(params, dim, hidden, prefix)

    def eval(self, h: Tensor, t: float) -> Tensor:
        return tg.mlp(h, t, self.layers)


class ConvDynamics:
    """1x1 -> ReLU -> 3x3 -> ReLU -> 1x1 conv block on (B, C, H, W) states;
    t is appended as an extra constant channel before each convolution."""

    def __init__(self, params: ParamSet, channels: int, filters: int,
                 prefix: str = "dyn"):
        self.params = params
        self.channels = channels
        self.prefix = prefix

    @staticmethod
    def init(params: ParamSet, rng, channels: int, filters: int, prefix: str = "dyn"):
        _init_conv(params, rng, f"{prefix}.c1", filters, channels + 1, 1)
        _init_conv(params, rng, f"{prefix}.c2", filters, filters + 1, 3)
        _init_conv(params, rng, f"{prefix}.c3", channels, filters + 1, 1)
        return ConvDynamics(params, channels, filters, prefix)

    def _with_t(self, h: Tensor, t: float) -> Tensor:
        tchan = Tensor(np.full((h.shape[0], 1) + h.shape[2:], t))
        return tg.concat([h, tchan], axis=1)

    def eval(self, h: Tensor, t: float) -> Tensor:
        p = self.params
        z = tg.conv2d(self._with_t(h, t), p[f"{self.prefix}.c1.w"],
                      p[f"{self.prefix}.c1.b"], padding=0)
        z = tg.relu(z)
        z = tg.conv2d(self._with_t(z, t), p[f"{self.prefix}.c2.w"],
                      p[f"{self.prefix}.c2.b"], padding=1)
        z = tg.relu(z)
        return tg.conv2d(self._with_t(z, t), p[f"{self.prefix}.c3.w"],
                         p[f"{self.prefix}.c3.b"], padding=0)


class Model:
    """A built model: parameters plus the forward machinery for its spec.

    For the resnet baseline, ``layers`` holds each residual update's MLP
    d -> hidden -> hidden -> d (no time input) as tg.mlp layers."""

    def __init__(self, spec: ModelSpec, seed: int = 0):
        self.spec = spec
        self.params = ParamSet()
        rng = np.random.default_rng(seed)
        d = spec.state_dim
        if spec.kind == "resnet":
            self.layers = [_init_mlp(self.params, rng, f"res.{i}", d, spec.hidden_dim, d)
                           for i in range(spec.resnet_layers)]
            self.dynamics = None
        elif spec.conv:
            self.dynamics = ConvDynamics.init(self.params, rng, d, spec.hidden_dim)
        else:
            self.dynamics = MlpDynamics.init(self.params, rng, d, spec.hidden_dim)
        if spec.head == "affine":
            self._head = [_init_linear(self.params, rng, "head", d, spec.output_dim)]

    def param_count(self) -> int:
        return self.params.num_elements()

    def head(self, state: Tensor) -> Tensor:
        if self.spec.head == "identity":
            return state
        if state.data.ndim == 4:
            state = tg.tmean(state, axis=(2, 3))  # global average pool
        return tg.mlp(state, None, self._head)


def _residual_states(model: Model, x: Tensor) -> list[Tensor]:
    """States of the resnet baseline: x, then after each h <- h + f_i(h)."""
    states = [x]
    for layer in model.layers:
        states.append(states[-1] + tg.mlp(states[-1], None, layer))
    return states


def param_count(spec: ModelSpec) -> int:
    return Model(spec, seed=0).param_count()


def node_forward(model: Model, x: Tensor,
                 cfg: SolverConfig | None = None) -> tuple[Tensor, int]:
    """Full forward pass: augment, integrate to T, affine head.  Returns the
    output and the number of dynamics evaluations spent."""
    spec = model.spec
    if spec.kind == "resnet":
        return model.head(_residual_states(model, x)[-1]), spec.resnet_layers
    h0 = augment(x, spec.aug)
    sol = integrate(model.dynamics, h0, 0.0, spec.T, [spec.T], cfg)
    return model.head(sol.states[-1]), sol.nfe


def features(model: Model, x: Tensor,
             cfg: SolverConfig | None = None) -> Tensor:
    """Pre-affine state at time T (augmented dimension for anode).

    This is the learned flow map applied to each input, so the solver holds
    every input's local error to cfg's tolerances (per-sample error control).
    node_forward shares one step sequence across the batch and holds only the
    batch's RMS error to them, so for a batch its state at T may differ."""
    spec = model.spec
    if spec.kind == "resnet":
        return _residual_states(model, x)[-1]
    h0 = augment(x, spec.aug)
    sol = integrate(model.dynamics, h0, 0.0, spec.T, [spec.T], cfg,
                    per_sample=True)
    return sol.states[-1]


def invert_features(model: Model, feat: Tensor,
                    cfg: SolverConfig | None = None) -> Tensor:
    """Integrate the dynamics backward from T to 0, approximately recovering
    the (augmented) input that produced ``feat``; the inverse of features,
    with the same per-sample error control."""
    spec = model.spec
    if spec.kind == "resnet":
        raise ValueError("resnet baseline has no backward flow")
    sol = integrate(model.dynamics, feat, spec.T, 0.0, [0.0], cfg,
                    per_sample=True)
    return sol.states[-1]


def flow_trajectory(model: Model, points: np.ndarray, n_times: int,
                    cfg: SolverConfig | None = None,
                    labels: np.ndarray | None = None) -> FlowSnapshot:
    """States of every point at n_times uniform times in [0, T], in the
    (augmented) state space."""
    if n_times < 2:
        raise ValueError("n_times must be >= 2")
    spec = model.spec
    times = list(np.linspace(0.0, spec.T, n_times))
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    with tg.no_grad():
        if spec.kind == "resnet":
            # residual updates sampled at layer boundaries, rescaled to [0, T]
            times = list(np.linspace(0.0, spec.T, spec.resnet_layers + 1))
            states = np.stack([h.data for h in _residual_states(model, Tensor(pts))],
                              axis=1)
        else:
            h0 = augment(Tensor(pts), spec.aug)
            sol = integrate(model.dynamics, h0, 0.0, spec.T, times, cfg)
            states = np.stack([s.data for s in sol.states], axis=1)
    if labels is None:
        labels = np.zeros(len(pts))
    return FlowSnapshot(list(range(len(pts))), times, states, np.asarray(labels))


def vector_field(model: Model, grid: np.ndarray,
                 t_slices: Sequence[float]) -> np.ndarray:
    """Dynamics evaluated at each (grid point, t); pure evaluation, nothing
    recorded on any graph.  Returns (len(t_slices), n_points, state_dim)."""
    if model.dynamics is None:
        raise ValueError("resnet baseline has no continuous vector field")
    pts = np.atleast_2d(np.asarray(grid, dtype=np.float64))
    out = np.empty((len(t_slices), pts.shape[0], pts.shape[1]))
    with tg.no_grad():
        for i, t in enumerate(t_slices):
            out[i] = model.dynamics.eval(Tensor(pts), float(t)).data
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
