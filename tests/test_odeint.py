"""Solver tests: accuracy on problems with closed-form solutions, exact
evaluation accounting, step control behavior, and differentiation through the
discrete trajectory."""

import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anodelab import odeint
from anodelab import tensorgrad as tg
from anodelab.data import LabeledSet
from anodelab.models import Model, ModelSpec
from anodelab.odeint import (MAX_FACTOR, MIN_FACTOR, DivergenceError,
                             SolverConfig, StepLimitError, _initial_step,
                             _stage_sum, _sum_plan, adapt_step, error_norm,
                             integrate)
from anodelab.tensorgrad import CompGraph, ParamSet, Tensor, backward
from anodelab.train import TrainConfig, fit
from reference import (FLAT_STEPS, error_norm_expr, grad_leaf, lincomb, matmul,
                       taped)

# the dopri5 attempt: step(f, h, t, dt, k1) -> Attempt
dopri5_step = odeint._STEPS["dopri5"]


class Linear:
    """dh/dt = A h (autonomous)."""

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)

    @taped
    def eval(self, h, t):
        return matmul(h, Tensor(self.A.T))


class Scalar:
    """dh/dt = a * h."""

    def __init__(self, a=1.0):
        self.a = a

    @taped
    def eval(self, h, t):
        return lincomb((self.a,), (h,))


class _CountingTimes:
    """Passes evaluations through to f and keeps the times they ask for."""

    def __init__(self, f):
        self.f, self.seen = f, []

    def eval(self, h, t):
        self.seen.append(t)
        return self.f.eval(h, t)


class TimeOnly:
    """dh/dt = cos(t): exact solution sin(t) + C, independent of state."""

    @taped
    def eval(self, h, t):
        return Tensor(np.full(h.shape, np.cos(t)))


class Rates:
    """dh/dt = a_i * h_i, one rate per row of a (B, 1) state."""

    def __init__(self, a):
        self.a = Tensor(np.diag(np.asarray(a, dtype=float)))

    @taped
    def eval(self, h, t):
        return matmul(self.a, h)


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
        ("euler", (10, 10, 0)), ("rk4", (40, 10, 0)), ("dopri5", (13, 2, 0))])
    def test_segment_counts(self, method, counts):
        # segments of 3, 4 and 3 fixed steps end at the output times; dopri5
        # takes the steps of the solve to 1.0 alone (clipping a step at each
        # output time took (25, 4, 0)) and interpolates 0.3 and 0.7
        cfg = SolverConfig(method=method, fixed_step=0.1)
        sol = integrate(Scalar(), Tensor([1.0]), 0.0, [0.0, 0.3, 0.7, 1.0],
                        cfg)
        assert (sol.nfe, sol.steps_accepted, sol.steps_rejected) == counts
        if method == "dopri5":
            one = integrate(Scalar(), Tensor([1.0]), 0.0, [1.0], cfg)
            assert counts == (one.nfe, one.steps_accepted, one.steps_rejected)

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


class TestDenseOutput:
    """dopri5 clips its steps only at the last output time and reads the
    others off the step that passed them (4th-order continuous extension)."""

    @given(st.booleans(), st.lists(st.floats(0.0, 2.0), min_size=1,
                                   max_size=8),
           st.floats(-3.0, 3.0), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_times_leave_the_steps_alone(self, forward, times, a, per_sample):
        t0 = 0.0 if forward else 2.0
        times = sorted(times, reverse=not forward)
        x0 = Tensor([[1.0], [-0.4], [2.5]])
        f = Rates([a, 0.5 * a, -a])
        sol = integrate(f, x0, t0, times, per_sample=per_sample)
        one = integrate(f, x0, t0, times[-1:], per_sample=per_sample)
        assert sol.times == times and len(sol.states) == len(times)
        assert ((sol.nfe, sol.steps_accepted, sol.steps_rejected)
                == (one.nfe, one.steps_accepted, one.steps_rejected))
        assert np.array_equal(sol.states[-1].data, one.states[-1].data)
        for te, s in zip(times, sol.states):
            if abs(te - t0) <= 1e-12:
                assert s is x0
            want = x0.data * np.exp(np.array([[a], [0.5 * a], [-a]]) * (te - t0))
            assert np.allclose(s.data, want, rtol=1e-2, atol=1e-2)

    @pytest.mark.parametrize("theta", [1 / 3, 0.5, 0.7])
    def test_interior_error_is_fifth_order_locally(self, theta):
        # one step of length dt on dh/dt = h (the first step is 0.1).  The
        # 4th-order interpolant's error at theta*dt is O(dt^5): it shrinks
        # about 2^5-fold per halving (30-31 here).  The cubic Hermite
        # interpolant through the same end values and slopes gives 2^4.
        errs = []
        for dt in (0.1, 0.05, 0.025):
            sol = integrate(Scalar(), Tensor([1.0]), 0.0, [theta * dt, dt])
            assert (sol.steps_accepted, sol.steps_rejected) == (1, 0)
            errs.append(abs(sol.states[0].item() - np.exp(theta * dt)))
        assert errs[0] / errs[1] >= 2 ** 4.5 and errs[1] / errs[2] >= 2 ** 4.5

    def test_grad_through_interpolated_state(self):
        # 0.37 lies inside the first of two steps, and the loss reads only
        # the interpolated state there
        params = ParamSet()
        params.add("A", np.array([[0.05, -0.1], [0.1, 0.05]]))

        class P:
            @taped
            def eval(self, h, t):
                return matmul(h, params["A"])

        x = np.array([[1.0, -0.5], [0.2, 0.9]])
        cfg = SolverConfig(rtol=0.1, atol=0.1)
        f = _CountingTimes(P())
        sol = integrate(f, Tensor(x), 0.0, [0.37, 1.0], cfg=cfg)
        assert (sol.steps_accepted, sol.steps_rejected) == (2, 0)
        assert min(abs(t - 0.37) for t in f.seen) > 1e-3

        def loss_fn():
            sol = integrate(P(), Tensor(x), 0.0, [0.37, 1.0], cfg=cfg)
            return tg.mse(sol.states[0], np.zeros(x.shape))

        assert tg.grad_check(loss_fn, params) < 1e-6


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


class TestStiffness:
    """Hairer's stiffness test (his DOPRI5 code's NSTIFF rule) on every
    accepted step from step 1000 on."""

    class Decay:
        """dh/dt = -1e4 h: stiff as soon as the transient has gone, so the
        step size is held at dopri5's stability bound."""

        def eval(self, h, t):
            return -1e4 * h, None

    def test_quotient_of_a_linear_system_is_dt_lambda(self):
        # for f = a h, k7 - k6 = a (h_next - y6): the quotient is |dt a|
        f = Scalar(-3.0)
        h = Tensor([[1.0], [-2.0]])
        attempt = dopri5_step(f, h, 0.0, -0.4, tg.vjp_node(f.eval, h, 0.0))
        assert attempt.stiffness() == pytest.approx(1.2, rel=1e-12)

    def test_stiff_solve_ends_after_step_1000(self):
        cfg = SolverConfig(rtol=1e-4, atol=1e-4)
        with pytest.raises(StepLimitError, match="the problem turned stiff at t=") as exc:
            integrate(self.Decay(), Tensor([1.0]), 0.0, [1.0], cfg)
        # 15 stiff steps from the test at step 1000 on, where the step limit
        # would let it run to t = 1 (about 3000 steps)
        accepted = int(str(exc.value).split("(")[1].split()[0])
        assert 1015 <= accepted < 1100 and exc.value.nfe < 6 * 1100

    @pytest.mark.parametrize("h0, tol", [(1.0, 1e-3), (3.0, 1e-4)])
    def test_stiff_decays_end_before_step_1100(self, h0, tol):
        # the estimate at step 1000 can fall at or below the bound, so the
        # count starts later; testing only steps 1000, 2000, ... and a
        # running count let these decays go on to step 2022 or to t = 1
        # (3032 steps)
        cfg = SolverConfig(rtol=tol, atol=tol)
        with pytest.raises(StepLimitError, match="the problem turned stiff at t=") as exc:
            integrate(self.Decay(), Tensor([h0]), 0.0, [1.0], cfg)
        accepted = int(str(exc.value).split("(")[1].split()[0])
        assert 1015 <= accepted < 1100

    def test_solves_below_1000_steps_are_not_tested(self):
        # the same stiff decay over a third of the span, about 900 steps
        cfg = SolverConfig(rtol=1e-4, atol=1e-4)
        sol = integrate(self.Decay(), Tensor([1.0]), 0.0, [0.3], cfg)
        assert 800 < sol.steps_accepted < 1000

    def test_non_stiff_long_solve_runs_to_the_end(self):
        # 1167 accepted steps of a rotation: h*lambda is about 0.04
        cfg = SolverConfig(rtol=1e-10, atol=1e-10)
        sol = integrate(Linear([[0.0, -1.0], [1.0, 0.0]]), Tensor([[1.0, 0.0]]),
                        0.0, [50.0], cfg)
        assert sol.steps_accepted > 1000
        assert np.allclose(sol.states[-1].data, [[np.cos(50.0), np.sin(50.0)]],
                           atol=1e-6)


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

    @given(st.sampled_from([(), (1,), (5,), (1, 1), (3, 2), (4, 1), (2, 1, 3, 3)]),
           st.booleans(), st.sampled_from([1e-3, 1e-7, 0.5]),
           st.sampled_from([1e-3, 1e-9, 2.0]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_error_norm_matches_expression(self, shape, per_sample, rtol, atol,
                                           data):
        # bit for bit the expression it computes in one temporary, under
        # both norms, on signed zeros, subnormals and 1e+-300
        elements = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(
            [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300]))
        err, h, h_next = (data.draw(arrays(np.float64, shape, elements=elements))
                          for _ in range(3))
        cfg = SolverConfig(rtol=rtol, atol=atol)
        with np.errstate(all="ignore"):
            got = error_norm(err, h, h_next, cfg, per_sample)
            want = error_norm_expr(err, h, h_next, cfg, per_sample)
        assert bits(got) == bits(want)

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
        # the step's buffer holds h and its seven stages, the given k1
        # first; the last, k7 at the accepted point, is the next step's k1
        f = Scalar()
        h = Tensor([1.0])
        k1 = tg.vjp_node(f.eval, h, 0.0)
        attempt = dopri5_step(f, h, 0.0, 0.1, k1)
        assert attempt.K.shape == (8, 1)
        assert attempt.K[0] == h.data and attempt.K[1] == k1.data
        assert np.allclose(attempt.fsal().data, attempt.y)  # dh/dt = h


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
        x0 = grad_leaf([2.0])
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
            @taped
            def eval(self, h, t):
                return matmul(h, params["A"])

        x = np.array([[1.0, -0.5], [0.2, 0.9]])
        cfg = SolverConfig(method="rk4", fixed_step=0.1)

        def loss_fn():
            sol = integrate(P(), Tensor(x), 0.0, [1.0], cfg=cfg)
            return tg.mse(sol.states[-1], np.zeros(x.shape))

        assert tg.grad_check(loss_fn, params) < 1e-5


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


# every float the stacked sum must add as lincomb does, signed zeros and
# subnormals included
EDGE_FLOATS = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e300, 1.0, -1.0]))


class TestFusedAttempt:
    """Every method's attempt is one tape node (odeint.Attempt); it must give
    the values, NFE and gradients of the flat tape of lincomb and f.eval
    nodes it replaced, which the tests keep as reference.FLAT_STEPS."""

    @given(st.sampled_from([(), (1,), (1, 1), (3,), (1, 4), (5, 2), (2, 1, 3, 3)]),
           st.integers(1, 8), st.data())
    @settings(max_examples=300, deadline=None)
    def test_stacked_sum_matches_lincomb(self, shape, n, data):
        # every state shape the solver sees, a span of up to 8 rows and up
        # to 7 terms (a sum of the step has at most 7), zero coefficients
        # among them skipped as lincomb skips them: a one-element state is
        # where NumPy's reduce sums along the term axis itself
        K = data.draw(arrays(np.float64, (n,) + shape, elements=st.one_of(
            EDGE_FLOATS, st.sampled_from([np.inf, -np.inf]))))
        c = data.draw(arrays(np.float64, (n,), elements=EDGE_FLOATS))
        c[0] = data.draw(st.sampled_from([1.0, -2.5, 5e-324]))
        c[-1] = data.draw(st.sampled_from([c[-1], 0.75]))
        cols = np.flatnonzero(c)
        assume(len(cols) <= 7 and cols[-1] == n - 1)
        with np.errstate(all="ignore"):
            got = _stage_sum(c.reshape((n,) + (1,) * len(shape)), K,
                             _sum_plan(c), np.empty_like(K))
            want = lincomb(tuple(c), [Tensor._wrap(k) for k in K]).data
        assert got.shape == want.shape
        assert bits(got).tolist() == bits(want).tolist()

    @staticmethod
    def solve(flat, spec, x0, t0, times, cfg, per_sample, loss_at, seed=4):
        # a solve with the method's attempt, or with its flat reference in
        # integrate's table, differentiated with respect to x0 and every
        # parameter through the states in loss_at
        fused = odeint._STEPS[cfg.method]
        if flat:
            odeint._STEPS[cfg.method] = FLAT_STEPS[cfg.method]
        try:
            model = Model(spec, seed=seed)
            x = grad_leaf(x0)
            with CompGraph() as g:
                sol = integrate(model.dynamics, x, t0, times, cfg,
                                per_sample=per_sample)
                picked = [sol.states[i] for i in loss_at]
                weights = tuple(0.5 + i for i in range(len(picked)))
                loss = tg.mse(lincomb(weights, picked), np.zeros(x.size))
            backward(g, loss)
        finally:
            odeint._STEPS[cfg.method] = fused
        counts = (sol.nfe, sol.steps_accepted, sol.steps_rejected)
        return counts, [s.data for s in sol.states] + [x.grad, model.params.grad], len(g)

    MLP = ModelSpec(kind="node", input_dim=2, hidden_dim=16)
    ANODE = ModelSpec(kind="anode", input_dim=2, p=3, hidden_dim=8)
    CONV = ModelSpec(kind="anode", input_dim=1, p=1, hidden_dim=4, conv=True)

    @pytest.mark.parametrize("spec,shape,t0,times,tol,per_sample,loss_at", [
        (MLP, (64, 2), 0.0, [1.0], 1e-3, False, [0]),
        (ANODE, (16, 5), 0.0, [1.0], 1e-3, False, [0]),
        (CONV, (3, 2, 4, 4), 0.0, [1.0], 1e-3, False, [0]),
        # the flat tape hands convnet's backward some stage gradients in the
        # channel-major order of convnet's input gradient; its bias gradient
        # rounds by that order
        (CONV, (3, 2, 4, 4), 0.0, [0.5, 1.0], 1e-3, False, [0, 1]),
        # tight tolerances reject attempts; FSAL runs across every step
        (MLP, (8, 2), 0.0, [1.0], 1e-7, False, [0]),
        (CONV, (2, 2, 3, 3), 0.0, [1.0], 1e-7, True, [0]),
        # dense outputs, and the start state, on a taped multi-time solve
        (ANODE, (8, 5), 0.0, [0.0, 0.3, 0.7, 1.0], 1e-5, False, [0, 1, 2, 3]),
        # only an interpolated state reaches the loss
        (MLP, (8, 2), 0.0, [0.37, 1.0], 1e-4, False, [0]),
        # backward in time, per-sample error control
        (ANODE, (8, 5), 1.0, [0.5, -0.4], 1e-5, True, [0, 1]),
        (MLP, (8, 2), 1.0, [0.0], 1e-6, True, [0]),
        # batch 1, one-element state
        (ModelSpec(kind="node", input_dim=1, hidden_dim=8), (1, 1), 0.0,
         [0.5, 1.0], 1e-7, False, [0, 1]),
    ], ids=["node", "anode", "conv", "conv-dense", "rejected", "conv-rejected", "dense",
            "dense-only", "backward-in-time", "per-sample", "batch1-1d"])
    def test_matches_flat_tape(self, request, spec, shape, t0, times, tol,
                               per_sample, loss_at):
        # an augmented state's last features or channels start at zero, as
        # the model's forward pass augments them
        x0 = np.random.default_rng(3).standard_normal(shape)
        x0[:, spec.state_dim - spec.aug:] = 0.0
        cfg = SolverConfig(rtol=tol, atol=tol)
        counts, got, nodes = self.solve(False, spec, x0, t0, times, cfg,
                                        per_sample, loss_at)
        ref_counts, want, _ = self.solve(True, spec, x0, t0, times, cfg,
                                         per_sample, loss_at)
        assert counts == ref_counts
        nfe, accepted, rejected = counts
        if "rejected" in request.node.callspec.id:
            assert rejected > 0
        for a, b in zip(got, want):
            assert a.shape == b.shape and bits(a).tolist() == bits(b).tolist()
        # one node per accepted attempt and one for its k7 (a rejected
        # attempt is not recorded), one per interpolated state; then the
        # first k1's and the loss's two
        dense = sum(1 for te in times if abs(te - t0) > 1e-12) - 1
        assert nodes == 2 * accepted + dense + 1 + 2

    def test_rejected_attempts_leave_the_tape(self, monkeypatch):
        # a taped solve that rejects attempts: before backward, each
        # rejected attempt's stage buffer is freed, and the tape holds one
        # node per accepted attempt, that attempt's h_next
        attempts = []

        def step(*args):
            attempt = dopri5_step(*args)
            attempts.append((weakref.ref(attempt), weakref.ref(attempt.K)))
            return attempt

        monkeypatch.setitem(odeint._STEPS, "dopri5", step)
        x0 = np.random.default_rng(3).standard_normal((8, 2))
        model = Model(self.MLP, seed=4)
        with CompGraph() as g:
            sol = integrate(model.dynamics, Tensor(x0), 0.0, [1.0],
                            SolverConfig(rtol=1e-7, atol=1e-7))
        assert sol.steps_rejected > 0
        alive = [a() for a, _ in attempts if a() is not None]
        assert sum(K() is None for _, K in attempts) == sol.steps_rejected
        assert len(alive) == sol.steps_accepted
        # each accepted attempt and its k7, then the first k1
        assert len(g) == 2 * sol.steps_accepted + 1
        assert {id(a.h_next) for a in alive} <= {id(n.tensor) for n in g.nodes}

    @pytest.mark.parametrize("spec,shape,t0,times", [
        (MLP, (16, 2), 0.0, [0.0, 0.2, 0.55, 1.0]),
        (ANODE, (8, 5), 0.0, [0.3, 0.7, 1.0]),
        (CONV, (3, 2, 4, 4), 0.0, [0.25, 0.5, 1.0]),
        (MLP, (16, 2), 1.0, [0.6, 0.1, -0.3]),
        (ANODE, (8, 5), 1.0, [0.5, -0.4]),
        (CONV, (3, 2, 4, 4), 1.0, [0.4, 0.0]),
    ], ids=["node", "anode", "conv", "node-backward", "anode-backward",
            "conv-backward"])
    def test_no_grad_states_match_taped(self, spec, shape, t0, times):
        # a multi-time dopri5 solve: every output time, dense or a step's
        # end, has the same bits on a tape and under no_grad, where the
        # attempt keeps no vjps and fsal() hands the next attempt a copy
        x0 = np.random.default_rng(3).standard_normal(shape)
        x0[:, spec.state_dim - spec.aug:] = 0.0
        cfg = SolverConfig(rtol=1e-5, atol=1e-5)
        dynamics = Model(spec, seed=4).dynamics
        with CompGraph() as g:
            taped_sol = integrate(dynamics, Tensor(x0), t0, times, cfg)
        with CompGraph() as none, tg.no_grad():
            sol = integrate(dynamics, Tensor(x0), t0, times, cfg)
        assert len(none) == 0
        counts = (sol.nfe, sol.steps_accepted, sol.steps_rejected)
        assert counts == (taped_sol.nfe, taped_sol.steps_accepted,
                          taped_sol.steps_rejected)
        # every output time before the last is a dense output: one node
        # each, beside the accepted attempts', the k7s' and the first k1's
        dense = sum(1 for te in times if abs(te - t0) > 1e-12) - 1
        assert len(g) == 2 * sol.steps_accepted + dense + 1
        for a, b in zip(taped_sol.states, sol.states):
            assert a.shape == b.shape and bits(a.data).tolist() == bits(b.data).tolist()

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("spec,shape,t0,times,loss_at", [
        (MLP, (16, 2), 0.0, [1.0], [0]),
        (ANODE, (8, 5), 0.0, [1.0], [0]),
        (CONV, (3, 2, 4, 4), 0.0, [1.0], [0]),
        # each output time ends a segment of its own steps; the start state
        # is recorded too
        (ANODE, (8, 5), 0.0, [0.0, 0.3, 0.7, 1.0], [0, 1, 2, 3]),
        (CONV, (3, 2, 4, 4), 0.0, [0.5, 1.0], [0, 1]),
        # backward in time, past t = 0
        (MLP, (8, 2), 1.0, [0.35, -0.4], [0, 1]),
        # batch 1, one-element state
        (ModelSpec(kind="node", input_dim=1, hidden_dim=8), (1, 1), 0.0,
         [0.5, 1.0], [0, 1]),
    ], ids=["node", "anode", "conv", "anode-segments", "conv-segments",
            "backward-in-time", "batch1-1d"])
    def test_fixed_step_matches_flat_tape(self, method, spec, shape, t0, times,
                                          loss_at):
        x0 = np.random.default_rng(3).standard_normal(shape)
        x0[:, spec.state_dim - spec.aug:] = 0.0
        cfg = SolverConfig(method=method, fixed_step=0.15)
        counts, got, nodes = self.solve(False, spec, x0, t0, times, cfg, False,
                                        loss_at)
        ref_counts, want, ref_nodes = self.solve(True, spec, x0, t0, times, cfg,
                                                 False, loss_at)
        assert counts == ref_counts
        for a, b in zip(got, want):
            assert a.shape == b.shape and bits(a).tolist() == bits(b).tolist()
        nfe, accepted, rejected = counts
        s = {"euler": 1, "rk4": 4}[method]
        assert rejected == 0 and nfe == s * accepted
        # the loop's k1 and the attempt on each step, then the loss's two;
        # the flat tape had k1, s - 1 stage sums and evaluations and h_next
        assert nodes == 2 * accepted + 2
        assert ref_nodes == 2 * s * accepted + 2

    def test_rk4_step_is_two_nodes(self):
        # a taped 4-step RK4 solve: k1's node and the attempt's per step
        # (the flat tape recorded 8 per step)
        cfg = SolverConfig(method="rk4", fixed_step=0.25)
        with CompGraph() as g:
            sol = integrate(Scalar(0.7), Tensor([[1.0]]), 0.0, [1.0], cfg)
        assert sol.steps_accepted == 4 and sol.nfe == 16 and len(g) == 8

    @pytest.mark.parametrize("spec,method", [(MLP, "dopri5"), (ANODE, "dopri5"),
                                             (CONV, "dopri5"), (CONV, "rk4")],
                             ids=["node", "anode", "conv", "conv-rk4"])
    def test_fit_matches_flat_tape(self, monkeypatch, spec, method):
        # two epochs of cross-entropy training and a validation pass:
        # records and trained parameters are identical
        rng = np.random.default_rng(5)
        shape = (24, 1, 4, 4) if spec.conv else (24, spec.input_dim)
        train_set = LabeledSet(rng.standard_normal(shape), rng.integers(0, 2, 24))
        val_set = LabeledSet(rng.standard_normal((8,) + shape[1:]),
                             rng.integers(0, 2, 8))
        spec = ModelSpec(kind=spec.kind, input_dim=spec.input_dim, p=spec.p,
                         hidden_dim=spec.hidden_dim, output_dim=2, conv=spec.conv)
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-2,
                          solver=SolverConfig(method=method, fixed_step=0.25))
        runs = []
        for step in (odeint._STEPS[method], FLAT_STEPS[method]):
            monkeypatch.setitem(odeint._STEPS, method, step)
            model = Model(spec, seed=2)
            runs.append((fit(model, train_set, val_set, cfg), model))
        (fused, model), (ref, ref_model) = runs
        assert fused.error is None and fused.epochs[0].nfe_forward_mean > 1
        assert fused.deterministic_rows() == ref.deterministic_rows()
        assert model.params.data.tobytes() == ref_model.params.data.tobytes()

    def test_no_grad_records_nothing(self):
        f = Scalar(0.7)
        h = Tensor([[1.0], [-2.0]])
        with CompGraph() as g:
            with tg.no_grad():
                k1 = tg.vjp_node(f.eval, h, 0.0)
                attempt = dopri5_step(f, h, 0.0, 0.1, k1)
                attempt.take()
                attempt.at(0.05)
                attempt.fsal()
        assert len(g) == 0 and attempt.vjps is None
        with CompGraph() as g:
            k1 = tg.vjp_node(f.eval, h, 0.0)
            attempt = dopri5_step(f, h, 0.0, 0.1, k1)
            assert len(g) == 1  # nothing of the attempt before it is taken
            attempt.take()
        # the first k1's node, then the attempt's; the attempt keeps the
        # six evaluations' vjps
        assert len(g) == 2 and attempt.h_next._id == 1 and len(attempt.vjps) == 6
