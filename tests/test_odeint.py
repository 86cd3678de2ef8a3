"""Solver tests: accuracy on problems with closed-form solutions, exact
evaluation accounting, step control behavior, and differentiation through the
discrete trajectory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anodelab import tensorgrad as tg
from anodelab.odeint import (MAX_FACTOR, MIN_FACTOR, DivergenceError,
                             SolverConfig, StepLimitError, _initial_step,
                             adapt_step, dopri5_step, error_norm, integrate,
                             lipschitz_bound)
from anodelab.tensorgrad import CompGraph, ParamSet, Tensor, backward


class Linear:
    """dh/dt = A h (autonomous)."""

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)

    def eval(self, h, t):
        return tg.matmul(h, Tensor(self.A.T))


class Scalar:
    """dh/dt = a * h."""

    def __init__(self, a=1.0):
        self.a = a

    def eval(self, h, t):
        return tg.lincomb((self.a,), (h,))


class _CountingTimes:
    """Passes evaluations through to f and keeps the times they ask for."""

    def __init__(self, f):
        self.f, self.seen = f, []

    def eval(self, h, t):
        self.seen.append(t)
        return self.f.eval(h, t)


class TimeOnly:
    """dh/dt = cos(t): exact solution sin(t) + C, independent of state."""

    def eval(self, h, t):
        return Tensor(np.full(h.shape, np.cos(t)))


class Rates:
    """dh/dt = a_i * h_i, one rate per row of a (B, 1) state."""

    def __init__(self, a):
        self.a = Tensor(np.diag(np.asarray(a, dtype=float)))

    def eval(self, h, t):
        return tg.matmul(self.a, h)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.method == "dopri5" and cfg.rtol == 1e-3 and cfg.atol == 1e-3

    @pytest.mark.parametrize("kwargs", [
        {"method": "ab2"}, {"rtol": 0.0}, {"atol": -1.0},
        {"rtol": float("nan")}, {"atol": float("nan")}, {"fixed_step": 0.0},
        {"rtol": float("inf")}, {"atol": float("inf")},
        {"fixed_step": float("inf")}, {"fixed_step": float("nan")},
        {"max_steps": 0}, {"max_steps": -1}, {"max_steps": 2.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestAccuracy:
    def test_exponential_dopri5(self):
        sol = integrate(Scalar(), Tensor([1.0]), 0.0, [1.0])
        assert abs(sol.states[-1].item() - np.e) < 3e-3

    def test_exponential_tight_tolerance(self):
        cfg = SolverConfig(rtol=1e-8, atol=1e-8)
        sol = integrate(Scalar(), Tensor([1.0]), 0.0, [1.0], cfg=cfg)
        assert abs(sol.states[-1].item() - np.e) < 1e-7

    def test_rotation_dopri5(self):
        # quarter turn of the harmonic oscillator maps (1, 0) to (0, 1)
        sol = integrate(Linear([[0.0, -1.0], [1.0, 0.0]]),
                        Tensor([[1.0, 0.0]]), 0.0, [np.pi / 2])
        assert np.allclose(sol.states[-1].data, [[0.0, 1.0]], atol=5e-3)

    def test_time_dependent_rhs(self):
        sol = integrate(TimeOnly(), Tensor([0.0]), 0.0, [2.0])
        assert abs(sol.states[-1].item() - np.sin(2.0)) < 3e-3

    @pytest.mark.parametrize("method,tol", [("euler", 0.2), ("rk4", 1e-5)])
    def test_fixed_step_exponential(self, method, tol):
        cfg = SolverConfig(method=method, fixed_step=0.1)
        sol = integrate(Scalar(), Tensor([1.0]), 0.0, [1.0], cfg=cfg)
        assert abs(sol.states[-1].item() - np.e) < tol

    @pytest.mark.parametrize("method,order,slack", [("euler", 1.0, 0.2),
                                                    ("rk4", 4.0, 0.3)])
    def test_convergence_order(self, method, order, slack):
        errs, hs = [], [0.2, 0.1, 0.05, 0.025]
        for h in hs:
            cfg = SolverConfig(method=method, fixed_step=h)
            sol = integrate(Scalar(), Tensor([1.0]), 0.0, [1.0], cfg=cfg)
            errs.append(abs(sol.states[-1].item() - np.e))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - order) < slack


class TestAccounting:
    def test_dopri5_nfe_identity(self):
        for per_sample in (False, True):
            for x0 in (Tensor([1.0]), Tensor([[1.0], [0.5]])):
                for a in (0.5, 3.0, -2.0):
                    sol = integrate(Scalar(a), x0, 0.0, [1.0],
                                    per_sample=per_sample)
                    assert sol.nfe == 1 + 6 * (sol.steps_accepted
                                               + sol.steps_rejected)
                    assert sol.steps_accepted >= 1

    @pytest.mark.parametrize("a,counts", [
        # (nfe, accepted, rejected); the Euler probe h0 = 0.01*d0/d1 alone
        # as the first step gave (19, 3, 0), (25, 4, 0), (31, 5, 0) and
        # (49, 8, 0)
        (0.5, (13, 2, 0)), (2.0, (19, 3, 0)), (-3.0, (25, 4, 0)),
        (8.0, (43, 7, 0)),
    ])
    def test_dopri5_exact_counts(self, a, counts):
        # the four problems of A8's NFE identity check
        sol = integrate(Scalar(a), Tensor([1.0]), 0.0, [1.0])
        assert (sol.nfe, sol.steps_accepted, sol.steps_rejected) == counts

    def test_euler_one_eval_per_step(self):
        cfg = SolverConfig(method="euler", fixed_step=0.25)
        sol = integrate(Scalar(), Tensor([1.0]), 0.0, [1.0], cfg=cfg)
        assert sol.steps_accepted == 4 and sol.nfe == 4

    def test_rk4_four_evals_per_step(self):
        cfg = SolverConfig(method="rk4", fixed_step=0.25)
        sol = integrate(Scalar(), Tensor([1.0]), 0.0, [1.0], cfg=cfg)
        assert sol.steps_accepted == 4 and sol.nfe == 16

    def test_step_limit_carries_nfe(self):
        cfg = SolverConfig(max_steps=3)
        with pytest.raises(StepLimitError) as ei:
            integrate(Scalar(50.0), Tensor([1.0]), 0.0, [1.0], cfg=cfg)
        assert ei.value.nfe >= 1

    @pytest.mark.parametrize("method", ["euler", "rk4", "dopri5"])
    def test_zero_length_solve_spends_nothing(self, method):
        x0 = Tensor([[0.5], [-2.0]])
        for times in ([0.4], [0.4, 0.4]):
            sol = integrate(Scalar(), x0, 0.4, times,
                            SolverConfig(method=method))
            assert (sol.nfe, sol.steps_accepted, sol.steps_rejected) == (0, 0, 0)
            assert sol.times == times
            assert all(s is x0 for s in sol.states)

    @pytest.mark.parametrize("method,counts", [
        ("euler", (5, 5, 0)), ("rk4", (20, 5, 0)), ("dopri5", (13, 2, 0))])
    def test_repeated_time_spends_nothing(self, method, counts):
        # the second 0.5 ends no segment: Euler and RK4 took one more
        # zero-length step for it (6 and 24 evaluations)
        cfg = SolverConfig(method=method, fixed_step=0.1)
        sol = integrate(Scalar(), Tensor([1.0]), 0.0, [0.5, 0.5], cfg)
        assert (sol.nfe, sol.steps_accepted, sol.steps_rejected) == counts
        assert sol.times == [0.5, 0.5] and sol.states[0] is sol.states[1]

    @pytest.mark.parametrize("method,counts", [
        ("euler", (10, 10, 0)), ("rk4", (40, 10, 0)), ("dopri5", (25, 4, 0))])
    def test_segment_counts(self, method, counts):
        # segments of 3, 4 and 3 fixed steps end at the output times
        cfg = SolverConfig(method=method, fixed_step=0.1)
        sol = integrate(Scalar(), Tensor([1.0]), 0.0, [0.0, 0.3, 0.7, 1.0],
                        cfg)
        assert (sol.nfe, sol.steps_accepted, sol.steps_rejected) == counts

    @pytest.mark.parametrize("method,nfe", [("euler", 3), ("rk4", 12)])
    def test_fixed_segment_fits_step_limit_whole(self, method, nfe):
        # 3 steps to 0.3 fit a limit of 5; the next segment's 4 do not, so
        # the solve stops before stepping into it
        cfg = SolverConfig(method=method, fixed_step=0.1, max_steps=5)
        with pytest.raises(StepLimitError) as ei:
            integrate(Scalar(), Tensor([1.0]), 0.0, [0.0, 0.3, 0.7, 1.0],
                      cfg)
        assert ei.value.nfe == nfe
        assert str(ei.value) == f"{method}: step limit 5 reached at t=0.3"

    @given(st.sampled_from(["euler", "rk4", "dopri5"]), st.booleans(),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
           st.floats(0.05, 0.5), st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_one_loop_properties(self, method, forward, times, fixed_step, a):
        t0 = 0.0 if forward else 1.0
        times = sorted(times, reverse=not forward)
        cfg = SolverConfig(method=method, fixed_step=fixed_step)
        sol = integrate(Scalar(a), Tensor([[1.0], [0.3]]), t0, times, cfg)
        assert sol.times == times
        if method == "dopri5":
            # the first k1 is spent only on a solve longer than 1e-12
            k1 = abs(times[-1] - t0) > 1e-12
            assert sol.nfe == k1 + 6 * (sol.steps_accepted + sol.steps_rejected)
        else:
            stages = 1 if method == "euler" else 4
            assert sol.nfe == stages * sol.steps_accepted
            assert sol.steps_rejected == 0


class TestEvalTimes:
    def test_output_times_hit_exactly(self):
        times = [0.0, 0.3, 0.7, 1.0]
        for method in ("euler", "rk4", "dopri5"):
            cfg = SolverConfig(method=method, fixed_step=0.1)
            sol = integrate(Scalar(), Tensor([1.0]), 0.0, times, cfg)
            assert sol.times == times
            vals = np.array([s.item() for s in sol.states])
            assert np.allclose(vals, np.exp(times), atol=0.2)

    def test_fixed_segments_step_span_over_n(self):
        # Euler on dh/dt = cos(t), bit for bit: each segment takes n equal
        # steps of span/n from the accumulated t, never a step clipped to
        # the output time, and then restarts exactly at the output time
        t, h, want = 0.0, 0.0, []
        for target, n in ((0.35, 4), (0.7, 4), (1.0, 3)):
            dt = (target - t) / n
            for _ in range(n):
                h, t = h + dt * np.cos(t), t + dt
            t = target
            want.append(h)
        cfg = SolverConfig(method="euler", fixed_step=0.1)
        sol = integrate(TimeOnly(), Tensor([0.0]), 0.0, [0.35, 0.7, 1.0],
                        cfg)
        assert [s.item() for s in sol.states] == want

    def test_unordered_rejected(self):
        with pytest.raises(ValueError, match="ordered"):
            integrate(Scalar(), Tensor([1.0]), 0.0, [0.7, 0.3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            integrate(Scalar(), Tensor([1.0]), 0.0, [])

    def test_solve_ends_at_last_time(self):
        f = _CountingTimes(Scalar())
        sol = integrate(f, Tensor([1.0]), 0.0, [0.25, 0.5])
        assert sol.times == [0.25, 0.5] and max(f.seen) == 0.5
        assert abs(sol.states[-1].item() - np.exp(0.5)) < 3e-3


class TestBackwardIntegration:
    @pytest.mark.parametrize("method,atol", [("euler", 0.1), ("rk4", 1e-5),
                                             ("dopri5", 5e-3)])
    def test_round_trip_linear(self, method, atol):
        cfg = SolverConfig(method=method, fixed_step=0.05)
        f = Linear([[0.0, -1.0], [1.0, 0.0]])
        x0 = Tensor([[0.8, -0.3]])
        fwd = integrate(f, x0, 0.0, [1.0], cfg=cfg)
        back = integrate(f, fwd.states[-1], 1.0, [0.0], cfg=cfg)
        assert np.allclose(back.states[-1].data, x0.data, atol=atol)

    def test_backward_exponential_value(self):
        sol = integrate(Scalar(), Tensor([np.e]), 1.0, [0.0])
        assert abs(sol.states[-1].item() - 1.0) < 3e-3


class TestFailureMessages:
    """One format for every method; dopri5's bytes reach record.error,
    stderr and sweep_summary.csv, so they are pinned."""

    @pytest.mark.parametrize("method,message", [
        ("euler", "euler: step limit 3 reached at t=0"),
        ("rk4", "rk4: step limit 3 reached at t=0"),
        ("dopri5", "dopri5: step limit 3 reached at t=0.0484886")])
    def test_step_limit(self, method, message):
        cfg = SolverConfig(method=method, max_steps=3)
        with pytest.raises(StepLimitError) as ei:
            integrate(Scalar(50.0), Tensor([1.0]), 0.0, [1.0], cfg=cfg)
        assert str(ei.value) == message

    @pytest.mark.parametrize("method,message", [
        # the time is the one the failing step started from
        ("euler", "euler: non-finite state at t=1"),
        ("rk4", "rk4: non-finite state at t=0"),
        ("dopri5", "dopri5: non-finite state at t=3.56378e-148")])
    def test_non_finite_state(self, method, message):
        cfg = SolverConfig(method=method, fixed_step=0.5)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as ei:
            integrate(Scalar(1e150), Tensor([1e3]), 0.0, [5.0], cfg=cfg)
        assert str(ei.value) == message


class TestDivergence:
    def test_non_finite_state_detected(self):
        cfg = SolverConfig(method="euler", fixed_step=0.5)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            # the rate 1e200 * h overflows on the second step
            integrate(Scalar(1e200), Tensor([1e3]), 0.0, [5.0], cfg=cfg)

    def test_non_finite_initial_state(self):
        bad = Tensor([1.0])
        bad.data[0] = np.inf
        with pytest.raises(DivergenceError):
            integrate(Scalar(), bad, 0.0, [1.0])


class TestStepController:
    @given(st.floats(1e-8, 1e4), st.floats(1e-4, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_factor_clamped(self, norm, dt):
        accept, dt_next = adapt_step(norm, dt)
        assert accept == (norm <= 1.0)
        ratio = dt_next / dt
        assert MIN_FACTOR - 1e-12 <= ratio <= MAX_FACTOR + 1e-12

    def test_zero_error_grows_maximally(self):
        accept, dt_next = adapt_step(0.0, 0.1)
        assert accept and np.isclose(dt_next, 0.1 * MAX_FACTOR)

    def test_error_norm_mixed_scaling(self):
        cfg = SolverConfig(rtol=0.0 + 1e-12, atol=1.0)
        err = np.array([0.5, -0.5])
        h = np.zeros(2)
        assert np.isclose(error_norm(err, h, h, cfg), 0.5, atol=1e-6)
        # a 1-d state is one sample under either norm
        assert np.isclose(error_norm(err, h, h, cfg, per_sample=True), 0.5,
                          atol=1e-6)
        # two samples, only the first in error: its RMS is 0.5
        err2 = np.array([[0.5, -0.5], [0.0, 0.0]])
        h2 = np.zeros((2, 2))
        assert np.isclose(error_norm(err2, h2, h2, cfg, per_sample=True), 0.5,
                          atol=1e-6)
        assert np.isclose(error_norm(err2, h2, h2, cfg), 0.5 / np.sqrt(2),
                          atol=1e-6)

    def test_sample_norm_bounds_each_row(self):
        # one fast-growing row among 63 constant ones: the batch RMS divides
        # row 0's local error by sqrt(64), the per-sample norm does not
        a = np.zeros(64)
        a[0] = 8.0
        unit = 1e-3 + 1e-3 * np.exp(8.0)   # atol + rtol * |h(1)| of row 0

        def row0_error(rates, per_sample):
            x0 = Tensor(np.ones((len(rates), 1)))
            sol = integrate(Rates(rates), x0, 0.0, [1.0], per_sample=per_sample)
            return abs(sol.states[-1].data[0, 0] - np.exp(8.0)) / unit

        alone = row0_error(a[:1], True)
        in_batch = row0_error(a, True)
        assert in_batch < 1.0 and in_batch <= 2.0 * alone
        assert row0_error(a, False) > 10.0

    def test_dopri5_step_fsal_row(self):
        # k7 at the accepted point equals the next step's k1
        f = Scalar()
        h = Tensor([1.0])
        h_next, err, k7 = dopri5_step(f, h, 0.0, 0.1, f.eval(h, 0.0))
        assert np.allclose(k7.data, h_next.data)  # dh/dt = h


class TestInitialStep:
    # x0 = 1 at rtol = atol = 1e-3: scale 2e-3, so d0 = 500 and d1 = 500*|f0|
    CFG = SolverConfig()

    def step(self, f0, span=1.0):
        return _initial_step(np.array([f0]), np.array([1.0]), span, self.CFG)

    def test_capped_at_max_factor_times_probe(self):
        # d1 = 5000: h0 = 0.01*500/5000 = 1e-3, h1 = (2e-6)^(1/5) = 0.0725
        assert self.step(10.0) == pytest.approx(MAX_FACTOR * 1e-3, rel=1e-12)

    def test_bounded_by_first_derivative(self):
        # d1 = 10: h0 = 0.5, so MAX_FACTOR*h0 = 5, h1 = (1e-3)^(1/5)
        assert self.step(0.02) == pytest.approx(10 ** -0.6, rel=1e-12)

    def test_clipped_to_span(self):
        # d1 = 1: h0 = 5, h1 = 0.01^(1/5) = 0.398 > span
        assert self.step(0.002, span=0.25) == 0.25

    def test_degenerate_state_or_derivative(self):
        # d0 = 0 or d1 = 0: one hundredth of the span
        zero = np.array([0.0])
        assert _initial_step(np.array([1.0]), zero, 3.0, self.CFG) == 0.03
        assert self.step(0.0, span=3.0) == 0.03


class TestDifferentiation:
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_grad_wrt_initial_state(self, method):
        # final = x0 * exp(a*T) so d final/d x0 = exp(a*T)
        a, T = 0.7, 1.0
        cfg = SolverConfig(method=method, fixed_step=0.05)
        x0 = Tensor([2.0], requires_grad=True)
        with CompGraph() as g:
            sol = integrate(Scalar(a), x0, 0.0, [T], cfg=cfg)
            loss = tg.mse(sol.states[-1], np.zeros(1))
        backward(g, loss)
        # d loss/d x0 = 2 * final * d final/d x0
        dfinal = x0.grad / (2 * sol.states[-1].data)
        assert np.allclose(dfinal, np.exp(a * T), rtol=2e-2)

    def test_grad_through_dynamics_parameters(self):
        params = ParamSet()
        params.add("A", np.array([[0.3, -0.2], [0.1, 0.4]]))

        class P:
            def eval(self, h, t):
                return tg.matmul(h, params["A"])

        x = np.array([[1.0, -0.5], [0.2, 0.9]])
        cfg = SolverConfig(method="rk4", fixed_step=0.1)

        def loss_fn():
            sol = integrate(P(), Tensor(x), 0.0, [1.0], cfg=cfg)
            return tg.mse(sol.states[-1], np.zeros(x.shape))

        assert tg.grad_check(loss_fn, params) < 1e-5


class TestLipschitzBound:
    def test_product_of_frobenius_norms(self):
        p = ParamSet()
        p.add("dyn.l1.w", np.array([[3.0, 0.0], [0.0, 4.0]]))  # norm 5
        p.add("dyn.l1.b", np.zeros(2))
        p.add("dyn.l2.w", np.array([[2.0]]))                   # norm 2
        assert np.isclose(lipschitz_bound(p), 10.0)

    def test_prefix_filter_and_empty(self):
        p = ParamSet()
        p.add("other.w", np.array([[7.0]]))
        assert lipschitz_bound(p, prefix="dyn") == 0.0
        assert np.isclose(lipschitz_bound(p, prefix="other"), 7.0)
