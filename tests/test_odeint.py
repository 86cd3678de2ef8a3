"""Solver tests: accuracy on problems with closed-form solutions, exact
evaluation accounting, step control behavior, and differentiation through the
discrete trajectory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anodelab import tensorgrad as tg
from anodelab.odeint import (MAX_FACTOR, MIN_FACTOR, DivergenceError,
                             SolverConfig, StepLimitError, adapt_step,
                             dopri5_step, error_norm, integrate,
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
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestAccuracy:
    def test_exponential_dopri5(self):
        sol = integrate(Scalar(), Tensor([1.0]), 0.0, 1.0)
        assert abs(sol.states[-1].item() - np.e) < 3e-3

    def test_exponential_tight_tolerance(self):
        cfg = SolverConfig(rtol=1e-8, atol=1e-8)
        sol = integrate(Scalar(), Tensor([1.0]), 0.0, 1.0, cfg=cfg)
        assert abs(sol.states[-1].item() - np.e) < 1e-7

    def test_rotation_dopri5(self):
        # quarter turn of the harmonic oscillator maps (1, 0) to (0, 1)
        sol = integrate(Linear([[0.0, -1.0], [1.0, 0.0]]),
                        Tensor([[1.0, 0.0]]), 0.0, np.pi / 2)
        assert np.allclose(sol.states[-1].data, [[0.0, 1.0]], atol=5e-3)

    def test_time_dependent_rhs(self):
        sol = integrate(TimeOnly(), Tensor([0.0]), 0.0, 2.0)
        assert abs(sol.states[-1].item() - np.sin(2.0)) < 3e-3

    @pytest.mark.parametrize("method,tol", [("euler", 0.2), ("rk4", 1e-5)])
    def test_fixed_step_exponential(self, method, tol):
        cfg = SolverConfig(method=method, fixed_step=0.1)
        sol = integrate(Scalar(), Tensor([1.0]), 0.0, 1.0, cfg=cfg)
        assert abs(sol.states[-1].item() - np.e) < tol

    @pytest.mark.parametrize("method,order,slack", [("euler", 1.0, 0.2),
                                                    ("rk4", 4.0, 0.3)])
    def test_convergence_order(self, method, order, slack):
        errs, hs = [], [0.2, 0.1, 0.05, 0.025]
        for h in hs:
            cfg = SolverConfig(method=method, fixed_step=h)
            sol = integrate(Scalar(), Tensor([1.0]), 0.0, 1.0, cfg=cfg)
            errs.append(abs(sol.states[-1].item() - np.e))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert abs(slope - order) < slack


class TestAccounting:
    def test_dopri5_nfe_identity(self):
        for per_sample in (False, True):
            for x0 in (Tensor([1.0]), Tensor([[1.0], [0.5]])):
                for a in (0.5, 3.0, -2.0):
                    sol = integrate(Scalar(a), x0, 0.0, 1.0,
                                    per_sample=per_sample)
                    assert sol.nfe == 1 + 6 * (sol.steps_accepted
                                               + sol.steps_rejected)
                    assert sol.steps_accepted >= 1

    def test_euler_one_eval_per_step(self):
        cfg = SolverConfig(method="euler", fixed_step=0.25)
        sol = integrate(Scalar(), Tensor([1.0]), 0.0, 1.0, cfg=cfg)
        assert sol.steps_accepted == 4 and sol.nfe == 4

    def test_rk4_four_evals_per_step(self):
        cfg = SolverConfig(method="rk4", fixed_step=0.25)
        sol = integrate(Scalar(), Tensor([1.0]), 0.0, 1.0, cfg=cfg)
        assert sol.steps_accepted == 4 and sol.nfe == 16

    def test_step_limit_carries_nfe(self):
        cfg = SolverConfig(max_steps=3)
        with pytest.raises(StepLimitError) as ei:
            integrate(Scalar(50.0), Tensor([1.0]), 0.0, 1.0, cfg=cfg)
        assert ei.value.nfe >= 1


class TestEvalTimes:
    def test_output_times_hit_exactly(self):
        times = [0.0, 0.3, 0.7, 1.0]
        for method in ("euler", "rk4", "dopri5"):
            cfg = SolverConfig(method=method, fixed_step=0.1)
            sol = integrate(Scalar(), Tensor([1.0]), 0.0, 1.0, times, cfg)
            assert sol.times == times
            vals = np.array([s.item() for s in sol.states])
            assert np.allclose(vals, np.exp(times), atol=0.2)

    def test_out_of_interval_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            integrate(Scalar(), Tensor([1.0]), 0.0, 1.0, [1.5])

    def test_unordered_rejected(self):
        with pytest.raises(ValueError, match="ordered"):
            integrate(Scalar(), Tensor([1.0]), 0.0, 1.0, [0.7, 0.3])

    def test_default_is_endpoint(self):
        sol = integrate(Scalar(), Tensor([1.0]), 0.0, 1.0)
        assert sol.times == [1.0]


class TestBackwardIntegration:
    @pytest.mark.parametrize("method,atol", [("euler", 0.1), ("rk4", 1e-5),
                                             ("dopri5", 5e-3)])
    def test_round_trip_linear(self, method, atol):
        cfg = SolverConfig(method=method, fixed_step=0.05)
        f = Linear([[0.0, -1.0], [1.0, 0.0]])
        x0 = Tensor([[0.8, -0.3]])
        fwd = integrate(f, x0, 0.0, 1.0, cfg=cfg)
        back = integrate(f, fwd.states[-1], 1.0, 0.0, cfg=cfg)
        assert np.allclose(back.states[-1].data, x0.data, atol=atol)

    def test_backward_exponential_value(self):
        sol = integrate(Scalar(), Tensor([np.e]), 1.0, 0.0)
        assert abs(sol.states[-1].item() - 1.0) < 3e-3


class TestDivergence:
    def test_non_finite_state_detected(self):
        cfg = SolverConfig(method="euler", fixed_step=0.5)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            # the rate 1e200 * h overflows on the second step
            integrate(Scalar(1e200), Tensor([1e3]), 0.0, 5.0, cfg=cfg)

    def test_non_finite_initial_state(self):
        bad = Tensor([1.0])
        bad.data[0] = np.inf
        with pytest.raises(DivergenceError):
            integrate(Scalar(), bad, 0.0, 1.0)


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
            sol = integrate(Rates(rates), x0, 0.0, 1.0, per_sample=per_sample)
            return abs(sol.states[-1].data[0, 0] - np.exp(8.0)) / unit

        alone = row0_error(a[:1], True)
        in_batch = row0_error(a, True)
        assert in_batch < 1.0 and in_batch <= 2.0 * alone
        assert row0_error(a, False) > 10.0

    def test_dopri5_step_fsal_row(self):
        # k7 at the accepted point equals the next step's k1
        f = Scalar()
        h = Tensor([1.0])
        h_next, err, k1, k7 = dopri5_step(f, h, 0.0, 0.1)
        assert np.allclose(k7.data, h_next.data)  # dh/dt = h


class TestDifferentiation:
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_grad_wrt_initial_state(self, method):
        # final = x0 * exp(a*T) so d final/d x0 = exp(a*T)
        a, T = 0.7, 1.0
        cfg = SolverConfig(method=method, fixed_step=0.05)
        x0 = Tensor([2.0], requires_grad=True)
        with CompGraph() as g:
            sol = integrate(Scalar(a), x0, 0.0, T, cfg=cfg)
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
            sol = integrate(P(), Tensor(x), 0.0, 1.0, cfg=cfg)
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
