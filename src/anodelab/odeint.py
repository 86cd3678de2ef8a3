"""Initial-value-problem integrators with exact function-evaluation accounting.

Fixed-step Euler and RK4, and adaptive Dormand-Prince RK45 with the FSAL
property, each an explicit Runge-Kutta tableau (Tableau), whose every step
attempt is one Attempt, all run by one integration loop (integrate) over
dynamics that evaluate on arrays (Dynamics).  All state arithmetic is
recorded on the active CompGraph, so backward() differentiates through the
solver (discretize-then-optimize): each accepted attempt is one node, and
so is each first stage k1 that the loop evaluates.  Every sum of an
attempt's stages, dopri5's dense output among them, is one stage sum
(_stage_sum) with one backward.  Step-size control operates on detached
values and is not differentiated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from . import tensorgrad as tg
from .tensorgrad import Tensor


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
# the count.  Hairer's DOPRI5 code tests only each 1000th step while the
# count is zero, so there a solve that had just reset it ran 1000 steps more
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
# the 4th-order continuous extension's Tableau.dense (Hairer, Norsett and
# Wanner, Solving ODEs I, sec. II.6, their DOPRI5 code)
_DP_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
         -10690763975 / 1880347072, 701980252875 / 199316789632,
         -1453857185 / 822651844, 69997945 / 29380423)
_DP_DENSE = np.array([_DP_B5, np.eye(7)[0] - _DP_B5,
                      2 * np.array(_DP_B5) - np.eye(7)[0] - np.eye(7)[6], _DP_D])
# the stage inputs, h_next and the error estimate over (h, k1, ..., k7)
_DP_W = np.zeros((8, 8))
for _i, _row in enumerate((*_DP_A[1:], _DP_B5, _DP_E)):
    _DP_W[_i, 1:len(_row) + 1] = _row


def _dopri5_rows(dt: float) -> np.ndarray:
    c = dt * _DP_W
    c[:7, 0] = 1.0
    return c


def _rk4_rows(dt: float) -> np.ndarray:
    # dt / 6 and dt / 3, not dt * (1/6) and dt * (1/3), which round otherwise
    return np.array([[1.0, dt / 2, 0.0, 0.0, 0.0],
                     [1.0, 0.0, dt / 2, 0.0, 0.0],
                     [1.0, 0.0, 0.0, dt, 0.0],
                     [1.0, dt / 6, dt / 3, dt / 3, dt / 6]])


def _sum_plan(c: np.ndarray) -> tuple:
    """The plan of a stage sum with coefficients ``c``: the span lo:hi of
    its non-zero coefficients, the rows of that span, counted from lo, whose
    coefficient is zero, and the non-zero columns, as a list and as an index
    (a slice where they are contiguous, which indexes without a copy)."""
    cols = np.flatnonzero(c)
    lo, hi = int(cols[0]), int(cols[-1]) + 1
    gaps = np.flatnonzero(c[lo:hi] == 0.0).tolist()
    return lo, hi, gaps, cols.tolist(), cols if gaps else slice(lo, hi)


class Tableau:
    """An explicit Runge-Kutta method as data: ``c``, the time of each of its
    s stages as a fraction of the step, and ``rows(dt)``, its coefficient
    rows over the buffer (h, k1, ..., ks) of a step dt: the inputs of stages
    2..s, then h_next, then, for an adaptive method, the local error
    estimate.  Each row's plan (_sum_plan) follows from its zeros.  The
    method is FSAL (first same as last) when h_next is its last stage's
    input; that stage is then the next step's k1.  ``dense``, where the
    method has a continuous extension, holds its weights over (k1, ..., ks)
    as a matrix D: at a fraction theta of the step they are
    theta * (1, s, theta*s, theta*s^2) @ D, s = 1 - theta."""

    def __init__(self, c: tuple[float, ...], rows: Callable[[float], np.ndarray],
                 dense: np.ndarray | None = None):
        pattern, s = rows(1.0), len(c)
        self.c, self.rows, self.s, self.dense = c, rows, s, dense
        self.plans = [_sum_plan(row) for row in pattern]
        self.span = max(hi - lo for lo, hi, *_ in self.plans)  # terms of a sum
        self.adaptive = len(pattern) > s
        self.fsal = s > 1 and np.array_equal(pattern[s - 2], pattern[s - 1])


def _stage_sum(w: np.ndarray, K: np.ndarray, plan, scratch: np.ndarray) -> np.ndarray:
    """sum_i w[i] * K[i] over the rows of ``plan``, in order, as one product
    over the span of the rows, written into ``scratch``, and one reduce.  A
    row of the span with a zero coefficient takes the sum of the terms
    before it, and the sum goes on from there, so every term is added in
    turn.  A reduce starts from -0.0, which leaves a first term as it is,
    and adds term by term (NumPy sums a one-element state pairwise only from
    8 terms on; a sum here has at most 7), so the result has the bits of
    the flat sum acc = c0 * t0; acc += c * t for each non-zero c."""
    lo, hi, gaps = plan[:3]
    p = np.multiply(w[lo:hi], K[lo:hi], out=scratch[:hi - lo])
    start = 0
    for g in gaps:
        np.add.reduce(p[start:g], axis=0, keepdims=True, initial=-0.0,
                      out=p[g:g + 1])
        start = g
    return np.add.reduce(p[start:], axis=0, initial=-0.0)


class Attempt:
    """One Runge-Kutta attempt of tableau ``tab`` from (h, t) with signed
    step dt, given k1 = f(h, t): its s stages k1..ks as rows 1..s of one
    buffer ``K``, whose row 0 is h, and each of its sums (tab.rows) as one
    _stage_sum over ``K``.  It evaluates f s - 1 times.

    On a tape an accepted attempt is one node, h_next (the array ``y``
    until ``take``), which keeps its evaluations' vjps; a rejected one is
    never recorded, so its buffer and vjps go with it.  After an accepted
    dopri5 attempt, each dense output (``at``) and its last stage, the next
    attempt's k1 (``fsal``), is a small node that leaves its gradient with
    the attempt.  The backward walks the sums and the vjps in the reverse
    order of the flat tape of one node per sum and per evaluation that it
    replaces.  It hands back h's and k1's term of each sum that has one as
    a pair of its own and adds up each stage's terms one by one, as that
    tape did, so every gradient has the flat tape's bits and memory order
    (convnet's bias gradient is a reduce, whose rounding follows it).  With
    no active graph nothing is kept."""

    def __init__(self, tab: Tableau, f, h: Tensor, t: float, dt: float, k1: Tensor):
        shape, s = h.data.shape, tab.s
        self.tab, self.h, self.k1, self.t, self.dt = tab, h, k1, t, dt
        self.K = K = np.empty((s + 1,) + shape)
        K[0], K[1] = h.data, k1.data
        self.w = w = tab.rows(dt).reshape((-1, s + 1) + (1,) * len(shape))
        self.vjps = [] if tg.active_graph() is not None else None
        # one scratch array for the products of every sum: a product of a
        # large state allocated anew would be mapped and faulted in each time
        P = np.empty((tab.span,) + shape)
        for i in range(s - 1):  # stage i + 2, from the sum of row i
            y = _stage_sum(w[i], K, tab.plans[i], P)
            K[i + 2], vjp = f.eval(y, t + tab.c[i + 1] * dt)
            if self.vjps is not None:
                self.vjps.append(vjp)
        if not tab.fsal:  # else h_next has the bits of the last stage's input
            y = _stage_sum(w[s - 1], K, tab.plans[s - 1], P)
        self.err = _stage_sum(w[s], K, tab.plans[s], P) if tab.adaptive else None
        self.G = None  # each stage's gradient, summed term by term in backward
        self.y = y

    def take(self) -> Tensor:
        """h_next, the accepted attempt's result, recorded as its node."""
        self.h_next = tg.record(self.y, self._backward)
        return self.h_next

    def at(self, te: float) -> Tensor:
        """The state at time te on the attempt's step by the tableau's
        continuous extension (no evaluation): the row (1, span * w) over the
        buffer, w the tableau's weights at te's fraction of the step, summed
        and differentiated as every sum of the attempt is."""
        span = (self.t + self.dt) - self.t  # as the step's end time gives it
        th = (te - self.t) / span
        w = th * np.array([1.0, 1 - th, th * (1 - th), th * (1 - th) ** 2])
        c = np.append(1.0, span * (w @ self.tab.dense))
        plan, c = _sum_plan(c), c.reshape(self.w.shape[1:])
        y = _stage_sum(c, self.K, plan, np.empty_like(self.K))

        def backward(g):
            yield from self._sum_backward(plan, c, g)
            # h_next's gradient, even if nothing else gives it one, makes the
            # attempt's node run
            yield self.h_next, np.zeros_like(g)

        return tg.record(y, backward)

    def fsal(self) -> Tensor:
        """The last stage, the next attempt's k1 (first same as last).  With
        nothing recorded it is a copy, so the buffer goes with the attempt."""
        s = self.tab.s
        k = self.K[s] if self.vjps is not None else self.K[s].copy()
        return tg.record(k, lambda g: self._add_grad(s, g))

    def stiffness(self) -> float:
        """Hairer's h*lambda (Solving ODEs II, sec. IV.2, his DOPRI5 code) of
        an FSAL attempt: |dt| * ||ks - k(s-1)|| / ||h_next - y(s-1)||,
        y(s-1) stage s - 1's input (row s - 3)."""
        K, s = self.K, self.tab.s
        y = _stage_sum(self.w[s - 3], K, self.tab.plans[s - 3], np.empty_like(K))
        dy, dk = self.y - y, K[s] - K[s - 1]
        den = np.vdot(dy, dy)
        return abs(self.dt) * float(np.sqrt(np.vdot(dk, dk) / den)) if den else 0.0

    def _add_grad(self, r: int, p: np.ndarray) -> tuple:
        # a gradient term of stage r, added to the stage's sum; a first term
        # is copied in its own memory order, so that a row of one product
        # does not keep the whole product alive
        G = self.G = self.G or [None] * (self.tab.s + 1)
        G[r] = p.copy(order="K") if G[r] is None else G[r] + p
        return ()

    def _sum_backward(self, plan, c: np.ndarray, g: np.ndarray):
        # the gradient terms of the sum of coefficients ``c`` with ``plan``
        # as one product, each row in g's memory order as the flat tape's
        # g * c; h's and k1's go out as pairs, where the sum has them
        *_, cols, take = plan
        p = c[take] * g
        for col, term in zip(cols, p):
            if col > 1:
                self._add_grad(col, term)
            else:
                yield (self.h, self.k1)[col], term

    def _backward(self, g: np.ndarray):
        # a generator: the tape's loop takes each pair as it comes, so no
        # term waits in a list for the whole attempt
        s, plans, w = self.tab.s, self.tab.plans, self.w
        yield from self._sum_backward(plans[s - 1], w[s - 1], g)
        G = self.G
        for i in range(s - 2, -1, -1):  # stage i + 2, from its input, row i's sum
            if G[i + 2] is not None:
                yield from self._sum_backward(plans[i], w[i], self.vjps[i](G[i + 2]))
        self.G = None


_TABLEAUS = {"euler": Tableau((0.0,), lambda dt: np.array([[1.0, dt]])),
             "rk4": Tableau((0.0, 0.5, 0.5, 1.0), _rk4_rows),
             "dopri5": Tableau(_DP_C, _dopri5_rows, _DP_DENSE)}
# step(f, h, t, dt, k1) -> Attempt, a seam the tests swap for flat references
_STEPS = {name: functools.partial(Attempt, tab) for name, tab in _TABLEAUS.items()}


def error_norm(err: np.ndarray, h: np.ndarray, h_next: np.ndarray,
               cfg: SolverConfig, per_sample: bool = False) -> float:
    """Mixed absolute/relative RMS norm of the local error estimate.

    Each entry is scaled by atol + rtol * max(|h|, |h_next|).  By default the
    RMS runs over every entry of the state, as in torchdiffeq, so only the
    batch's average error is held to tolerance and one sample's RMS may
    exceed it by up to sqrt(batch size).  With per_sample the RMS runs over
    the non-leading axes of each sample and the worst sample's RMS is
    returned, so every sample's error is held to tolerance.  A state with
    ndim <= 1 is one sample.
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

    Each step is one Attempt of the method's tableau.  The loop evaluates
    an attempt's k1 when it has none (every Euler and RK4 step, dopri5's
    first step, which it sizes from that k1) and counts one evaluation for
    it, plus s - 1 per attempt.
    An output time within 1e-12 of the state already reached is recorded
    with that state, without evaluating f.  Euler and RK4 end a segment at
    every other output time and cross it in ceil(|span|/fixed_step) equal
    steps, all counted against max_steps before the first.  dopri5 clips its
    adaptive steps only at times[-1], so its steps, NFE and last state are
    those of the solve to times[-1] alone; an accepted step records each
    output time it passed, within 1e-12 of its end as its end state, else by
    its tableau's continuous extension (Attempt.at, no evaluation).  From
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

    tab, step = _TABLEAUS[cfg.method], _STEPS[cfg.method]
    fixed = not tab.adaptive
    t, h, k1, dt, nfe = t0, x0, None, None, 0
    states: list[Tensor] = []

    def record(t_end, h_end, attempt=None):
        # every output time up to t_end: h_end within 1e-12 of t_end, an
        # earlier one the dense output of the attempt that ends at t_end
        while (len(states) < len(times)
               and direction * (times[len(states)] - t_end) <= 1e-12):
            te = times[len(states)]
            states.append(h_end if direction * (t_end - te) <= 1e-12
                          else attempt.at(te))

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
                                         f"reached at t={t:.6g}", nfe)
                if k1 is None:
                    k1, nfe = tg.vjp_node(f.eval, h, t), nfe + 1
                if dt is None:  # dopri5's first step, sized from its k1
                    if not np.all(np.isfinite(k1.data)):
                        raise DivergenceError(
                            f"{cfg.method}: non-finite derivative at t={t:.6g}")
                    dt = direction * _initial_step(k1.data, h.data, abs(target - t), cfg)
                dt_try = dt
                if not fixed and direction * (t + dt - target) > 0:
                    dt_try = target - t  # clip to the last output time
                attempt = step(f, h, t, dt_try, k1)
                nfe += tab.s - 1
                if not np.isfinite(attempt.y).all():
                    raise DivergenceError(f"{cfg.method}: non-finite state "
                                          f"at t={t:.6g}")
                accept = fixed
                if not fixed:
                    norm = error_norm(attempt.err, h.data, attempt.y, cfg, per_sample)
                    accept, dt_mag = adapt_step(norm, abs(dt_try))
                    dt = direction * dt_mag
                if accept:
                    h_next = attempt.take()
                    if not fixed:
                        record(t + dt_try, h_next, attempt)
                    t, h = t + dt_try, h_next
                    k1 = attempt.fsal() if tab.fsal else None
                    accepted += 1
                    if not fixed and accepted >= STIFF_EVERY:
                        if attempt.stiffness() > STIFF_BOUND:
                            stiff, nonstiff = stiff + 1, 0
                        else:
                            nonstiff += 1
                            stiff = 0 if nonstiff == NONSTIFF_STEPS else stiff
                        if stiff == STIFF_STEPS:
                            raise StepLimitError(
                                f"{cfg.method}: the problem turned stiff at "
                                f"t={t:.6g} ({accepted} steps accepted)", nfe)
                else:
                    rejected += 1
                attempt = None  # its buffers, unless its node keeps them, go now
            if fixed:
                t = target
                record(t, h)
    return OdeSolution(list(times), states, nfe, accepted, rejected)
