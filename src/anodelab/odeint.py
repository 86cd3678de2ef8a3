"""Initial-value-problem integrators with exact function-evaluation accounting.

Fixed-step Euler and RK4, and adaptive Dormand-Prince RK45 with the FSAL
property, behind one step interface (_STEPS) and one integration loop
(integrate), over dynamics that evaluate on arrays (Dynamics).  All state
arithmetic is recorded on the active CompGraph, so backward()
differentiates through the solver (discretize-then-optimize): Euler and RK4
through lincomb and one node per evaluation, dopri5 through one node per
attempt (Dopri5Stages).  Step-size control operates on detached values and
is not differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from . import tensorgrad as tg
from .tensorgrad import Tensor, lincomb


class StepLimitError(RuntimeError):
    """Step budget exhausted; carries the evaluation count so far."""

    def __init__(self, msg: str, nfe: int):
        super().__init__(msg)
        self.nfe = nfe


class DivergenceError(RuntimeError):
    """State became non-finite during integration."""


class Dynamics(Protocol):
    # f(h, t) and vjp(g), which adds into the parameters' .grad and returns
    # h's gradient
    def eval(self, h: np.ndarray, t: float) -> tuple[np.ndarray, Callable]: ...


# the fixed constants of the dopri5 step controller (adapt_step)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# and of Hairer's stiffness test on every accepted dopri5 step from the
# STIFF_EVERY-th on (integrate): STIFF_STEPS steps with h*lambda above
# STIFF_BOUND end the solve, NONSTIFF_STEPS in a row at or below it reset
# the count
STIFF_EVERY = 1000
STIFF_BOUND = 3.25
STIFF_STEPS = 15
NONSTIFF_STEPS = 6


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
# 4th-order continuous extension (Hairer, Norsett and Wanner, Solving ODEs I,
# sec. II.6, their DOPRI5 code): h(t + theta*dt) = h + dt * sum_i w_i k_i with
# w = theta * (1, s, theta*s, theta*s^2) @ _DP_DENSE, s = 1 - theta
_DP_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
         -10690763975 / 1880347072, 701980252875 / 199316789632,
         -1453857185 / 822651844, 69997945 / 29380423)
_DP_DENSE = np.array([_DP_B5, np.eye(7)[0] - _DP_B5,
                      2 * np.array(_DP_B5) - np.eye(7)[0] - np.eye(7)[6], _DP_D])


# The stage sums of one attempt as rows over the buffer of (h, k1, ..., k7):
# row i < 6 is the input of stage i + 2; row 5 is also h_next, since the
# last row of _DP_A is the 5th-order weights (FSAL); row 6 is the error
# estimate.  Column 0 is h's coefficient, 1 as in lincomb; the others are
# multiplied by dt in each attempt.  _DP_COLS[i] are the columns of row i
# with a non-zero entry (a slice where they are contiguous, which indexes
# without a copy), _DP_TAIL[i] those past h and k1, and _DP_PLAN[i] the
# plan of its _stage_sum.
_DP_W = np.zeros((7, 8))
_DP_W[:6, 0] = 1.0
for _i, _row in enumerate((*_DP_A[1:], _DP_E)):
    _DP_W[_i, 1:len(_row) + 1] = _row
_DP_COLS = [np.flatnonzero(_row) for _row in _DP_W]
_DP_TAIL = [_cols[2:].tolist() for _cols in _DP_COLS]
_DP_COLS = [slice(_cols[0], _cols[-1] + 1) if len(_cols) == _cols[-1] - _cols[0] + 1
            else _cols for _cols in _DP_COLS]


def _sum_plan(c: np.ndarray) -> tuple[int, int, list[int]]:
    """The plan of a _stage_sum with coefficients ``c``: the span lo:hi of
    its non-zero coefficients and the rows of that span, counted from lo,
    whose coefficient is zero."""
    cols = np.flatnonzero(c)
    lo, hi = int(cols[0]), int(cols[-1]) + 1
    return lo, hi, np.flatnonzero(c[lo:hi] == 0.0).tolist()


_DP_PLAN = [_sum_plan(_row) for _row in _DP_W]


class _CountingDynamics:
    """Wraps a dynamics function to count evaluations exactly."""

    def __init__(self, f: Dynamics):
        self.f = f
        self.nfe = 0

    def eval(self, h: np.ndarray, t: float):
        self.nfe += 1
        return self.f.eval(h, t)


def _stage_sum(w: np.ndarray, K: np.ndarray, plan, scratch: np.ndarray) -> np.ndarray:
    """sum_i w[i] * K[i] over the rows of ``plan`` (_sum_plan), in order, as
    one product over the span of the rows, written into ``scratch``, and
    one reduce.  A row of the span with a zero coefficient takes the sum of
    the terms before it, and the sum goes on from there, so every term is
    added in turn.  A reduce starts from -0.0, which leaves a first term as
    it is, and adds term by term (NumPy sums a one-element state pairwise
    only from 8 terms on; a sum here has at most 7), so the result has the
    bits of lincomb's sum, which skips zero coefficients."""
    lo, hi, gaps = plan
    p = np.multiply(w[lo:hi], K[lo:hi], out=scratch[:hi - lo])
    start = 0
    for g in gaps:
        np.add.reduce(p[start:g], axis=0, keepdims=True, initial=-0.0,
                      out=p[g:g + 1])
        start = g
    return np.add.reduce(p[start:], axis=0, initial=-0.0)


class Dopri5Stages:
    """One Dormand-Prince attempt from (h, t) with signed step dt, given
    k1 = f(h, t): its seven stages k1..k7 as rows 1..7 of one buffer ``K``,
    whose row 0 is h, and each stage sum as one _stage_sum over ``K``.

    On a tape the attempt is one node, ``h_next``, which keeps its six
    evaluations' vjps.  After an accepted attempt, each dense output
    (``dense``) and k7, the next attempt's k1 (``fsal``), is a small node
    that leaves its gradient with the attempt.  The backward walks the
    stage sums and the vjps in the reverse order of the flat tape of
    lincomb and evaluation nodes that it replaces.  It hands back h's and
    k1's term of each sum as a pair of its own and adds up each stage's
    terms one by one, as that tape did, so every gradient has the flat
    tape's bits and memory order (convnet's bias gradient is a reduce,
    whose rounding follows it).  With no active graph nothing is kept."""

    def __init__(self, f, h: Tensor, t: float, dt: float, k1: Tensor):
        shape = h.data.shape
        self.h, self.k1, self.dt = h, k1, dt
        self.K = K = np.empty((8,) + shape)
        K[0], K[1] = h.data, k1.data
        c = dt * _DP_W
        c[:6, 0] = 1.0
        self.w = w = c.reshape(c.shape + (1,) * len(shape))
        self.vjps = [] if tg.active_graph() is not None else None
        # one scratch array for the products of every stage sum (at most 7
        # rows): a product of a large state allocated anew would be mapped
        # and faulted in each time
        P = np.empty((7,) + shape)
        for i in range(6):
            y = _stage_sum(w[i], K, _DP_PLAN[i], P)
            K[i + 2], vjp = f.eval(y, t + _DP_C[i + 1] * dt)
            if self.vjps is not None:
                self.vjps.append(vjp)
        self.err = _stage_sum(w[6], K, _DP_PLAN[6], P)
        self.G = None  # each stage's gradient, summed term by term in backward
        # h_next has the bits of stage 7's input, the same sum
        self.h_next = tg.record(y, self._backward)

    def dense(self, coeffs: np.ndarray) -> Tensor:
        """h + sum_i coeffs[i] * k_(i+1), term by term as lincomb sums it: a
        state on the attempt's span from the continuous extension's weights
        (an export asks for many, so each is one pass per term)."""
        K = self.K
        cols = (np.flatnonzero(coeffs) + 1).tolist()
        c = np.append(1.0, coeffs)
        acc = c[0] * K[0]
        for j in cols:
            acc += c[j] * K[j]

        def backward(g):
            pairs, stages = [(self.h, g * c[0])], cols
            if cols[0] == 1:
                pairs.append((self.k1, g * c[1]))
                stages = cols[1:]
            self._stage_grad(stages, [g * c[j] for j in stages])
            # h_next's gradient, even if nothing else gives it one, makes the
            # attempt's node run
            pairs.append((self.h_next, np.zeros_like(g)))
            return pairs

        return tg.record(acc, backward)

    def fsal(self) -> Tensor:
        """k7 = f(h_next), the next attempt's k1 (first same as last).  With
        nothing recorded it is a copy, so the buffer goes with the attempt."""
        k7 = self.K[7] if self.vjps is not None else self.K[7].copy()
        return tg.record(k7, lambda g: self._stage_grad((7,), (g,)))

    def stiffness(self) -> float:
        """Hairer's h*lambda (Solving ODEs II, sec. IV.2, his DOPRI5 code):
        |dt| * ||k7 - k6|| / ||h_next - y6||, y6 stage 6's input (row 4)."""
        K = self.K
        dy = self.h_next.data - _stage_sum(self.w[4], K, _DP_PLAN[4], np.empty_like(K))
        dk, den = K[7] - K[6], np.vdot(dy, dy)
        return abs(self.dt) * float(np.sqrt(np.vdot(dk, dk) / den)) if den else 0.0

    def _stage_grad(self, rows, terms) -> tuple:
        # the gradient terms of stages ``rows``, added to each stage's sum;
        # a first term is copied in its own memory order, so that a row of
        # one product does not keep the whole product alive
        G = self.G = self.G or [None] * 8
        for r, p in zip(rows, terms):
            G[r] = p.copy(order="K") if G[r] is None else G[r] + p
        return ()

    def _sum_backward(self, row: int, g: np.ndarray):
        # the gradient terms of stage sum ``row`` as one product, each row
        # in g's memory order as the flat tape's g * c; h's and k1's go out
        # as pairs
        p = self.w[row, _DP_COLS[row]] * g
        yield self.h, p[0]
        yield self.k1, p[1]
        self._stage_grad(_DP_TAIL[row], p[2:])

    def _backward(self, g: np.ndarray):
        # a generator: the tape's loop takes each pair as it comes, so no
        # term waits in a list for the whole attempt
        yield from self._sum_backward(5, g)
        G = self.G
        for i in range(5, -1, -1):  # stage i + 2, from its input, row i's sum
            if G[i + 2] is not None:
                yield from self._sum_backward(i, self.vjps[i](G[i + 2]))
        self.G = None


def dopri5_step(f, h: Tensor, t: float, dt: float, k1: Tensor):
    """A Dopri5Stages as a step: (h_next, error estimate, stages).  Its k7
    is the next step's k1 (FSAL), so an attempt costs 6 evaluations."""
    stages = Dopri5Stages(f, h, t, dt, k1)
    return stages.h_next, stages.err, stages


def _euler_step(f, h, t, dt, _k1):
    return lincomb((1.0, dt), (h, tg.vjp_node(f.eval, h, t))), None, None


def _rk4_step(f, h, t, dt, _k1):
    k1 = tg.vjp_node(f.eval, h, t)
    k2 = tg.vjp_node(f.eval, lincomb((1.0, dt / 2), (h, k1)), t + dt / 2)
    k3 = tg.vjp_node(f.eval, lincomb((1.0, dt / 2), (h, k2)), t + dt / 2)
    k4 = tg.vjp_node(f.eval, lincomb((1.0, dt), (h, k3)), t + dt)
    return (lincomb((1.0, dt / 6, dt / 3, dt / 3, dt / 6), (h, k1, k2, k3, k4)),
            None, None)


# step(f, h, t, dt, k1) -> (h_next, err, stages): dopri5's local error
# estimate and its Dopri5Stages; None for Euler and RK4
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
    if np.ndim(h) == 0:  # the temporary below must be an array
        err, h, h_next = np.reshape(err, 1), np.reshape(h, 1), np.reshape(h_next, 1)
    # (err / (atol + rtol * max(|h|, |h_next|)))^2 in one temporary
    sq = np.abs(h)
    np.maximum(sq, np.abs(h_next), out=sq)
    sq *= cfg.rtol
    sq += cfg.atol
    np.square(np.divide(err, sq, out=sq), out=sq)
    if per_sample and sq.ndim > 1:
        return float(np.sqrt(np.max(sq.reshape(len(sq), -1).mean(axis=1))))
    return float(np.sqrt(np.add.reduce(sq, axis=None) / sq.size))


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

    An output time within 1e-12 of the state already reached is recorded
    with that state, without evaluating f.  Euler and RK4 end a segment at
    every other output time and cross it in ceil(|span|/fixed_step) equal
    steps, all counted against max_steps before the first.  dopri5 clips its
    adaptive steps only at times[-1], so its steps, NFE and last state are
    those of the solve to times[-1] alone; an accepted step records each
    output time it passed, within 1e-12 of its end as its end state, else by
    the 4th-order continuous extension (one lincomb, no evaluation).  From
    accepted step 1000 on, a stiffness test (STIFF_*) may end a dopri5 solve.
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
        k1 = tg.vjp_node(f.eval, h, t)
        if not np.all(np.isfinite(k1.data)):
            raise DivergenceError(f"dopri5: non-finite derivative at t={t:.6g}")
        dt = direction * _initial_step(k1.data, x0.data, span, cfg)
    states: list[Tensor] = []

    def record(t_end, h_end, stages=None):
        # every output time up to t_end: h_end within 1e-12 of t_end, an
        # earlier one dopri5's dense output on the step (t, h) -> t_end
        while (len(states) < len(times)
               and direction * (times[len(states)] - t_end) <= 1e-12):
            te = times[len(states)]
            if direction * (t_end - te) <= 1e-12:
                states.append(h_end)
            else:
                th = (te - t) / (t_end - t)
                w = th * np.array([1.0, 1 - th, th * (1 - th), th * (1 - th) ** 2])
                states.append(stages.dense((t_end - t) * (w @ _DP_DENSE)))

    record(t, h)
    accepted = rejected = 0
    stiff = nonstiff = 0  # Hairer's counts of stiff and of non-stiff steps
    for target in (times if fixed else times[-1:]):
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
                    dt_try = target - t  # clip to the last output time
                h_next, err, stages = step(f, h, t, dt_try, k1)
                if not np.isfinite(h_next.data).all():
                    raise DivergenceError(f"{cfg.method}: non-finite state "
                                          f"at t={t:.6g}")
                accept = err is None
                if not accept:
                    norm = error_norm(err, h.data, h_next.data, cfg, per_sample)
                    accept, dt_mag = adapt_step(norm, abs(dt_try))
                    dt = direction * dt_mag
                if accept:
                    if not fixed:
                        record(t + dt_try, h_next, stages)
                    t, h, k1 = t + dt_try, h_next, stages and stages.fsal()
                    accepted += 1
                    if stages and accepted >= STIFF_EVERY:
                        if stages.stiffness() > STIFF_BOUND:
                            stiff, nonstiff = stiff + 1, 0
                        else:
                            nonstiff += 1
                            if nonstiff == NONSTIFF_STEPS:
                                stiff = 0
                        if stiff == STIFF_STEPS:
                            raise StepLimitError(
                                f"dopri5: the problem turned stiff at t={t:.6g} "
                                f"({accepted} steps accepted)", f.nfe)
                else:
                    rejected += 1
                stages = None  # its buffers go before the next attempt's
            if fixed:
                t = target
                record(t, h)
    return OdeSolution(list(times), states, f.nfe, accepted, rejected)
