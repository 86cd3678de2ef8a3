"""Initial-value-problem integrators with exact function-evaluation accounting.

Fixed-step Euler and RK4, and adaptive Dormand-Prince RK45 with the FSAL
property.  All state arithmetic goes through the autodiff primitives, so a
surrounding CompGraph captures the whole discrete trajectory and backward()
differentiates through the solver (discretize-then-optimize).  Step-size
control operates on detached values and is not differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .tensorgrad import ParamSet, Tensor, lincomb


class StepLimitError(RuntimeError):
    """Step budget exhausted; carries the evaluation count so far."""

    def __init__(self, msg: str, nfe: int):
        super().__init__(msg)
        self.nfe = nfe


class DivergenceError(RuntimeError):
    """State became non-finite during integration."""


class Dynamics(Protocol):
    def eval(self, h: Tensor, t: float) -> Tensor: ...


# the fixed constants of the dopri5 step controller (adapt_step)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0


@dataclass
class SolverConfig:
    method: str = "dopri5"
    rtol: float = 1e-3
    atol: float = 1e-3
    fixed_step: float = 0.1
    max_steps: int = 10000

    def __post_init__(self):
        if self.method not in ("euler", "rk4", "dopri5"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.rtol > 0 and self.atol > 0):  # NaN fails too
            raise ValueError("rtol and atol must be positive")
        if not self.fixed_step > 0:
            raise ValueError("fixed_step must be positive")


@dataclass
class OdeSolution:
    times: list[float]
    states: list[Tensor]
    nfe: int
    steps_accepted: int
    steps_rejected: int


# Dormand-Prince 5(4) tableau.  Row 7 equals the 5th-order weights (FSAL).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))


class _CountingDynamics:
    """Wraps a dynamics function to count evaluations exactly."""

    def __init__(self, f: Dynamics):
        self.f = f
        self.nfe = 0

    def eval(self, h: Tensor, t: float) -> Tensor:
        self.nfe += 1
        return self.f.eval(h, t)


def dopri5_step(f, h: Tensor, t: float, dt: float, k1: Tensor | None = None):
    """One Dormand-Prince attempt from (h, t) with signed step dt.

    Returns (h_next, error_estimate_array, k1, k7); k7 is reused as the next
    step's k1 when the step is accepted (FSAL), so an accepted step after the
    first costs 6 new evaluations.
    """
    if k1 is None:
        k1 = f.eval(h, t)
    ks = [k1]
    for i in range(1, 7):
        y = lincomb((1.0,) + tuple(dt * a for a in _DP_A[i]), (h, *ks))
        ks.append(f.eval(y, t + _DP_C[i] * dt))
    h_next = lincomb((1.0,) + tuple(dt * b for b in _DP_B5[:6]), (h, *ks[:6]))
    err = sum(dt * e * k.data for e, k in zip(_DP_E, ks) if e != 0.0)
    return h_next, err, k1, ks[6]


def error_norm(err: np.ndarray, h: np.ndarray, h_next: np.ndarray,
               cfg: SolverConfig, per_sample: bool = False) -> float:
    """Mixed absolute/relative RMS norm of the local error estimate.

    Each entry is scaled by atol + rtol * max(|h|, |h_next|).  By default the
    RMS runs over every entry of the state, so only the batch's average error
    is held to tolerance and one sample's RMS may exceed it by up to
    sqrt(batch size).  With per_sample the RMS runs over the non-leading axes
    of each sample and the worst sample's RMS is returned, so every sample's
    error is held to tolerance.  A state with ndim <= 1 is one sample.
    """
    scale = cfg.atol + cfg.rtol * np.maximum(np.abs(h), np.abs(h_next))
    sq = (err / scale) ** 2
    if per_sample and sq.ndim > 1:
        return float(np.sqrt(np.max(sq.reshape(len(sq), -1).mean(axis=1))))
    return float(np.sqrt(np.mean(sq)))


def adapt_step(error_norm: float, dt: float) -> tuple[bool, float]:
    """PI-free step controller: accept iff norm <= 1; rescale dt by
    clamp(SAFETY * norm^(-1/5), MIN_FACTOR, MAX_FACTOR)."""
    if error_norm == 0.0:
        return True, dt * MAX_FACTOR
    factor = min(MAX_FACTOR, max(MIN_FACTOR, SAFETY * error_norm ** -0.2))
    return error_norm <= 1.0, dt * factor


def _initial_step(f0: np.ndarray, x0: np.ndarray, span: float,
                  cfg: SolverConfig) -> float:
    # Single-evaluation heuristic reusing k1, so the NFE identity
    # nfe = 1 + 6*(accepted + rejected) stays exact.
    d0 = np.sqrt(np.mean((x0 / (cfg.atol + cfg.rtol * np.abs(x0))) ** 2))
    d1 = np.sqrt(np.mean((f0 / (cfg.atol + cfg.rtol * np.abs(x0))) ** 2))
    if d0 < 1e-5 or d1 < 1e-5:
        return min(1e-2 * span, span)
    return min(1e-2 * d0 / d1, span)


def integrate(f: Dynamics, x0: Tensor, t0: float, t1: float,
              eval_times: list[float] | None = None,
              cfg: SolverConfig | None = None, *,
              per_sample: bool = False) -> OdeSolution:
    """Solve dh/dt = f(h, t) from (x0, t0) to t1, sampling at eval_times.

    eval_times must lie within the integration interval and be ordered in the
    direction of integration; defaults to [t1].  The computation is recorded
    on the active CompGraph, so backward() yields gradients with respect to
    x0 and the dynamics parameters.  per_sample makes dopri5 hold every
    sample (leading axis) of the state to rtol/atol instead of the batch's
    RMS error (see error_norm); the fixed-step methods ignore it.
    """
    cfg = cfg or SolverConfig()
    if eval_times is None:
        eval_times = [t1]
    direction = 1.0 if t1 >= t0 else -1.0
    lo, hi = min(t0, t1), max(t0, t1)
    prev = t0
    for te in eval_times:
        if not (lo - 1e-12 <= te <= hi + 1e-12):
            raise ValueError(f"eval time {te} outside [{t0}, {t1}]")
        if direction * (te - prev) < 0:
            raise ValueError("eval_times not ordered in integration direction")
        prev = te
    if not np.all(np.isfinite(x0.data)):
        raise DivergenceError("initial state is not finite")

    counting = _CountingDynamics(f)
    if cfg.method == "dopri5":
        return _integrate_dopri5(counting, x0, t0, t1, eval_times, cfg,
                                 direction, per_sample)
    return _integrate_fixed(counting, x0, t0, t1, eval_times, cfg, direction)


def _record(out_times, out_states, t, h, eval_times, idx, direction):
    while idx < len(eval_times) and direction * (eval_times[idx] - t) <= 1e-12:
        out_times.append(eval_times[idx])
        out_states.append(h)
        idx += 1
    return idx


def _integrate_dopri5(f, x0, t0, t1, eval_times, cfg, direction, per_sample):
    t, h = t0, x0
    out_times: list[float] = []
    out_states: list[Tensor] = []
    idx = _record(out_times, out_states, t, h, eval_times, 0, direction)
    accepted = rejected = 0
    if idx >= len(eval_times) and abs(t1 - t0) < 1e-15:
        return OdeSolution(out_times, out_states, f.nfe, 0, 0)

    k1 = f.eval(h, t)
    if not np.all(np.isfinite(k1.data)):
        raise DivergenceError(f"dopri5: non-finite derivative at t={t:.6g}")
    dt = direction * _initial_step(k1.data, x0.data, abs(t1 - t0), cfg)
    while direction * (t1 - t) > 1e-12:
        if accepted + rejected >= cfg.max_steps:
            raise StepLimitError(
                f"dopri5: step limit {cfg.max_steps} reached at t={t:.6g}", f.nfe)
        # clip to the next output time, then to the interval end
        target = eval_times[idx] if idx < len(eval_times) else t1
        if direction * (t + dt - target) > 0:
            dt_try = target - t
        else:
            dt_try = dt
        h_next, err, k1, k7 = dopri5_step(f, h, t, dt_try, k1)
        if not np.all(np.isfinite(h_next.data)):
            raise DivergenceError(f"dopri5: non-finite state at t={t:.6g}")
        norm = error_norm(err, h.data, h_next.data, cfg, per_sample)
        accept, dt_mag = adapt_step(norm, abs(dt_try))
        if accept:
            t = t + dt_try
            h = h_next
            k1 = k7  # FSAL
            accepted += 1
            idx = _record(out_times, out_states, t, h, eval_times, idx, direction)
        else:
            rejected += 1
        dt = direction * dt_mag
    idx = _record(out_times, out_states, t, h, eval_times, idx, direction)
    return OdeSolution(out_times, out_states, f.nfe, accepted, rejected)


def _euler_step(f, h, t, dt):
    k1 = f.eval(h, t)
    return lincomb((1.0, dt), (h, k1))


def _rk4_step(f, h, t, dt):
    k1 = f.eval(h, t)
    k2 = f.eval(lincomb((1.0, dt / 2), (h, k1)), t + dt / 2)
    k3 = f.eval(lincomb((1.0, dt / 2), (h, k2)), t + dt / 2)
    k4 = f.eval(lincomb((1.0, dt), (h, k3)), t + dt)
    return lincomb((1.0, dt / 6, dt / 3, dt / 3, dt / 6), (h, k1, k2, k3, k4))


def _integrate_fixed(f, x0, t0, t1, eval_times, cfg, direction):
    step_fn = _euler_step if cfg.method == "euler" else _rk4_step
    t, h = t0, x0
    out_times: list[float] = []
    out_states: list[Tensor] = []
    idx = _record(out_times, out_states, t, h, eval_times, 0, direction)
    accepted = 0
    # integrate segment by segment so every output time is hit exactly
    boundaries = [te for te in eval_times if direction * (te - t0) > 1e-12]
    if not boundaries or direction * (t1 - boundaries[-1]) > 1e-12:
        boundaries.append(t1)
    for target in boundaries:
        span = target - t
        n = max(1, int(np.ceil(abs(span) / cfg.fixed_step - 1e-12)))
        if accepted + n > cfg.max_steps:
            raise StepLimitError(
                f"{cfg.method}: step limit {cfg.max_steps} reached", f.nfe)
        dt = span / n
        for i in range(n):
            h = step_fn(f, h, t, dt)
            t = t + dt
            if not np.all(np.isfinite(h.data)):
                raise DivergenceError(f"{cfg.method}: non-finite state at t={t:.6g}")
            accepted += 1
        t = target
        idx = _record(out_times, out_states, t, h, eval_times, idx, direction)
    return OdeSolution(out_times, out_states, f.nfe, accepted, 0)


def lipschitz_bound(params: ParamSet, prefix: str = "") -> float:
    """Upper bound on the Lipschitz constant of an MLP with 1-Lipschitz
    activations: product of layer-weight Frobenius norms."""
    c = 1.0
    seen = False
    for name, t in params.items():
        if name.startswith(prefix) and name.endswith(".w"):
            c *= float(np.linalg.norm(t.data))
            seen = True
    return c if seen else 0.0
