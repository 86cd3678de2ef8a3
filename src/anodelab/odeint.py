"""Initial-value-problem integrators with exact function-evaluation accounting.

Fixed-step Euler and RK4, and adaptive Dormand-Prince RK45 with the FSAL
property, behind one step interface (_STEPS) and one integration loop
(integrate).  All state arithmetic goes through the autodiff primitives, so a
surrounding CompGraph captures the whole discrete trajectory and backward()
differentiates through the solver (discretize-then-optimize).  Step-size
control operates on detached values and is not differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

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
        if self.method not in _STEPS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0 < self.rtol < np.inf or not 0 < self.atol < np.inf:  # NaN fails too
            raise ValueError("rtol and atol must be finite and positive")
        if not 0 < self.fixed_step < np.inf:
            raise ValueError("fixed_step must be finite and positive")
        if type(self.max_steps) is not int or self.max_steps < 1:
            raise ValueError(f"max_steps must be an int >= 1, got {self.max_steps!r}")


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


def dopri5_step(f, h: Tensor, t: float, dt: float, k1: Tensor):
    """One Dormand-Prince attempt from (h, t) with signed step dt, given
    k1 = f(h, t).

    Returns (h_next, error_estimate_array, k7); k7 = f(h_next) is reused as
    the next step's k1 when the step is accepted (FSAL), so every attempt
    costs 6 new evaluations.
    """
    ks = [k1]
    for i in range(1, 7):
        y = lincomb((1.0,) + tuple(dt * a for a in _DP_A[i]), (h, *ks))
        ks.append(f.eval(y, t + _DP_C[i] * dt))
    h_next = lincomb((1.0,) + tuple(dt * b for b in _DP_B5[:6]), (h, *ks[:6]))
    err = sum(dt * e * k.data for e, k in zip(_DP_E, ks) if e != 0.0)
    return h_next, err, ks[6]


def _euler_step(f, h, t, dt, _k1):
    return lincomb((1.0, dt), (h, f.eval(h, t))), None, None


def _rk4_step(f, h, t, dt, _k1):
    k1 = f.eval(h, t)
    k2 = f.eval(lincomb((1.0, dt / 2), (h, k1)), t + dt / 2)
    k3 = f.eval(lincomb((1.0, dt / 2), (h, k2)), t + dt / 2)
    k4 = f.eval(lincomb((1.0, dt), (h, k3)), t + dt)
    return (lincomb((1.0, dt / 6, dt / 3, dt / 3, dt / 6), (h, k1, k2, k3, k4)),
            None, None)


# step(f, h, t, dt, k1) -> (h_next, err, k_next): dopri5's local error
# estimate and its derivative at h_next (the FSAL k1), None for Euler and RK4
_STEPS = {"euler": _euler_step, "rk4": _rk4_step, "dopri5": dopri5_step}


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
    # Hairer's HINIT (Solving ODEs I, sec. II.4) without its second
    # evaluation, so it reuses k1 and nfe = 1 + 6*(accepted + rejected)
    # stays exact.  h0 = 0.01*d0/d1 is HINIT's Euler probe step.  HINIT
    # bounds the step by (0.01/max(d1, d2))^(1/5), where d2 estimates the
    # second derivative from f(x0 + h0*f0), the evaluation left out here;
    # h1 keeps the bound with d1 alone.  The cap is the controller's own
    # MAX_FACTOR, the growth the probe step would get once accepted (HINIT
    # caps at 100*h0).
    scale = cfg.atol + cfg.rtol * np.abs(x0)
    d0 = np.sqrt(np.mean((x0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    if d0 < 1e-5 or d1 < 1e-5:
        return min(1e-2 * span, span)
    h0 = 1e-2 * d0 / d1
    h1 = (1e-2 / d1) ** 0.2
    return min(MAX_FACTOR * h0, h1, span)


def integrate(f: Dynamics, x0: Tensor, t0: float, times: Sequence[float],
              cfg: SolverConfig | None = None, *,
              per_sample: bool = False) -> OdeSolution:
    """Solve dh/dt = f(h, t) from (x0, t0) to times[-1], sampling at times.

    times must be ordered in the direction of integration, starting from t0.
    The computation is recorded on the active CompGraph, so backward() yields
    gradients with respect to x0 and the dynamics parameters.  per_sample
    makes dopri5 hold every sample (leading axis) of the state to rtol/atol
    instead of the batch's RMS error (see error_norm); the fixed-step methods
    ignore it.

    Each output time more than 1e-12 past the state already reached ends a
    segment; any other is recorded with that state, without evaluating f.
    Euler and RK4 cross a segment in ceil(|span|/fixed_step) equal steps, all
    counted against max_steps before the first; dopri5 in adaptive steps
    clipped to its end.
    """
    cfg = cfg or SolverConfig()
    if len(times) == 0:
        raise ValueError("times must hold at least one output time")
    direction = 1.0 if times[-1] >= t0 else -1.0
    prev = t0
    for te in times:
        if direction * (te - prev) < 0:
            raise ValueError("times not ordered in integration direction")
        prev = te
    if not np.all(np.isfinite(x0.data)):
        raise DivergenceError("initial state is not finite")

    f = _CountingDynamics(f)
    step = _STEPS[cfg.method]
    fixed = cfg.method != "dopri5"
    t, h, k1 = t0, x0, None
    span = abs(times[-1] - t0)
    if not fixed and span > 1e-12:
        k1 = f.eval(h, t)
        if not np.all(np.isfinite(k1.data)):
            raise DivergenceError(f"dopri5: non-finite derivative at t={t:.6g}")
        dt = direction * _initial_step(k1.data, x0.data, span, cfg)
    states: list[Tensor] = []
    accepted = rejected = 0
    for target in times:
        if direction * (target - t) > 1e-12:  # target ends a segment
            if fixed:
                n = max(1, int(np.ceil(abs(target - t) / cfg.fixed_step - 1e-12)))
                dt, end = (target - t) / n, accepted + n
            while (accepted < end) if fixed else (direction * (target - t) > 1e-12):
                if (end if fixed else accepted + rejected + 1) > cfg.max_steps:
                    raise StepLimitError(f"{cfg.method}: step limit {cfg.max_steps} "
                                         f"reached at t={t:.6g}", f.nfe)
                dt_try = dt
                if not fixed and direction * (t + dt - target) > 0:
                    dt_try = target - t  # clip to the output time
                h_next, err, k_next = step(f, h, t, dt_try, k1)
                if not np.all(np.isfinite(h_next.data)):
                    raise DivergenceError(f"{cfg.method}: non-finite state "
                                          f"at t={t:.6g}")
                accept = err is None
                if not accept:
                    norm = error_norm(err, h.data, h_next.data, cfg, per_sample)
                    accept, dt_mag = adapt_step(norm, abs(dt_try))
                    dt = direction * dt_mag
                if accept:
                    t, h, k1 = t + dt_try, h_next, k_next  # k_next: dopri5's FSAL k7
                    accepted += 1
                else:
                    rejected += 1
            if fixed:
                t = target
        states.append(h)
    return OdeSolution(list(times), states, f.nfe, accepted, rejected)


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
