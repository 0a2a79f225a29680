"""The embedded Runge-Kutta integrator: accuracy, dense output, events,
domain handling and determinism."""

import math

import numpy as np
import pytest

from soliton_reduce import Event, IntegrationConfig, integrate, rk
from soliton_reduce.errors import DomainError, EventAtStart, StepSizeUnderflow


def exp_rhs(t, y):
    return y


def circle_rhs(t, y):
    return np.array([-y[1], y[0]])


class TestAccuracy:
    def test_exponential(self):
        sol = integrate(exp_rhs, [1.0], IntegrationConfig(
            xi_span=(0.0, 1.0), rel_tol=1e-12, abs_tol=1e-12))
        assert sol.termination.kind == "completed"
        assert sol.ys[-1][0] == pytest.approx(math.e, abs=1e-10)

    def test_backward(self):
        sol = integrate(exp_rhs, [1.0], IntegrationConfig(
            xi_span=(0.0, -1.0), rel_tol=1e-12, abs_tol=1e-12))
        assert sol.ys[-1][0] == pytest.approx(1.0 / math.e, abs=1e-10)

    def test_tolerance_monotonicity(self):
        errs = []
        for rtol in (1e-4, 1e-7, 1e-10):
            sol = integrate(circle_rhs, [1.0, 0.0], IntegrationConfig(
                xi_span=(0.0, 2 * math.pi), rel_tol=rtol, abs_tol=rtol))
            errs.append(float(np.linalg.norm(sol.ys[-1] - [1.0, 0.0])))
        assert errs[0] > errs[1] > errs[2]

    @staticmethod
    def fixed_step_end(f, y0, span, steps):
        """End state of `steps` equal steps of the integrator's step
        function, each taking its first stage from the last one's."""
        t0, tf = span
        h = (tf - t0) / steps
        y = list(y0)
        k0 = f(t0, y)
        for i in range(steps):
            _, y, _, stages = rk._attempt_step(f, t0 + i * h, y, k0, h, 1.0,
                                               1.0)
            k0 = stages[6]
        return y

    def test_convergence_order(self):
        # Fifth-order scheme: step-halving slope close to 5.
        def f(t, y):
            return [y[0] * math.cos(t)]

        exact = math.exp(math.sin(2.0))
        e1, e2 = (abs(self.fixed_step_end(f, [1.0], (0.0, 2.0), m)[0] - exact)
                  for m in (16, 32))
        assert 4.2 <= math.log2(e1 / e2) <= 5.8


class TestDenseOutput:
    def test_reproduces_nodes(self):
        sol = integrate(circle_rhs, [1.0, 0.0], IntegrationConfig(
            xi_span=(0.0, 3.0), rel_tol=1e-10, abs_tol=1e-12))
        for t, y in zip(sol.ts, sol.ys):
            assert np.allclose(sol.eval(float(t)), y, atol=1e-9)

    def test_midpoints_accurate(self):
        sol = integrate(circle_rhs, [1.0, 0.0], IntegrationConfig(
            xi_span=(0.0, 3.0), rel_tol=1e-10, abs_tol=1e-12))
        for t in np.linspace(0.05, 2.95, 37):
            exact = np.array([math.cos(t), math.sin(t)])
            assert np.linalg.norm(sol.eval(float(t)) - exact) < 1e-8

    def test_out_of_range(self):
        sol = integrate(exp_rhs, [1.0],
                        IntegrationConfig(xi_span=(0.0, 1.0)))
        with pytest.raises(ValueError):
            sol.eval(2.0)
        with pytest.raises(ValueError):
            sol.eval(np.array([0.5, 2.0]))

    @staticmethod
    def scan_eval(sol, t):
        """Reference: linear scan for the first step whose end is at or
        past t in the integration direction (else the last step), then
        that step's quartic interpolant."""
        direction = math.copysign(1.0, sol.seg_h[0])
        last = sol.seg_h.size - 1
        i = next((i for i in range(last + 1)
                  if (t - (sol.seg_t0[i] + sol.seg_h[i])) * direction <= 0.0),
                 last)
        theta = (t - sol.seg_t0[i]) / sol.seg_h[i]
        return sol.seg_y0[i] + sol.seg_h[i] * (
            sol.seg_q[i] @ (theta ** np.arange(1, 5)))

    @pytest.mark.parametrize("span, events", [
        ((0.0, 3.0), ()),
        ((3.0, -1.0), ()),
        ((0.0, 6.0), (Event("x_zero", lambda t, y: y[0] + 0.5),)),
    ], ids=["increasing", "decreasing", "event"])
    def test_batch_matches_linear_scan(self, span, events):
        sol = integrate(circle_rhs, [1.0, 0.0], IntegrationConfig(
            xi_span=span, rel_tol=1e-8, abs_tol=1e-10, events=events))
        if events:
            assert sol.termination.event == "x_zero"
            # The stopped run's last step reaches past its stop point.
            last_end = sol.seg_t0[-1] + sol.seg_h[-1]
            assert last_end > sol.t_end
        lo, hi = sorted((sol.t_start, sol.t_end))
        # Nodes (segment boundaries) and the span ends included.
        ts = np.concatenate([np.linspace(lo, hi, 301), sol.ts])
        batch = sol.eval(ts)
        assert batch.shape == (ts.size, 2)
        for t, y in zip(ts, batch):
            ref = self.scan_eval(sol, float(t))
            assert np.array_equal(y, ref)
            assert np.array_equal(sol.eval(float(t)), ref)


class TestEvents:
    def test_linear_crossing(self):
        # y' = -1 from 1: the event y <= 0 fires at t = 1.
        ev = Event("zero", lambda t, y: y[0])
        sol = integrate(lambda t, y: np.array([-1.0]), [1.0],
                        IntegrationConfig(xi_span=(0.0, 5.0), events=(ev,)))
        assert sol.termination.kind == "event"
        assert sol.termination.event == "zero"
        assert sol.termination.xi_stop == pytest.approx(1.0, abs=1e-9)
        # Stop state sits on the admissible (positive) side.
        assert sol.ys[-1][0] >= 0.0
        # No states past the event.
        assert np.all(sol.ts <= sol.termination.xi_stop + 1e-12)

    def test_event_at_start(self):
        ev = Event("zero", lambda t, y: y[0])
        with pytest.raises(EventAtStart):
            integrate(lambda t, y: np.array([-1.0]), [0.0],
                      IntegrationConfig(xi_span=(0.0, 1.0), events=(ev,)))

    def test_earliest_event_wins(self):
        ev1 = Event("late", lambda t, y: 2.0 - t)
        ev2 = Event("early", lambda t, y: 1.0 - t)
        sol = integrate(lambda t, y: np.array([0.0]), [1.0],
                        IntegrationConfig(xi_span=(0.0, 5.0),
                                          events=(ev1, ev2),
                                          max_step=5.0))
        assert sol.termination.event == "early"
        assert sol.termination.xi_stop == pytest.approx(1.0, abs=1e-9)

    def test_domain_error_terminates_at_boundary(self):
        # RHS undefined for t > 2: repeated rejections end with a domain
        # event at the last reachable node.
        def rhs(t, y):
            if t > 2.0:
                raise DomainError("wall")
            return np.array([1.0])

        sol = integrate(rhs, [0.0],
                        IntegrationConfig(xi_span=(0.0, 3.0)))
        assert sol.termination.kind == "event"
        assert sol.termination.event == "domain_boundary"
        assert sol.termination.xi_stop == pytest.approx(2.0, abs=1e-6)
        assert sol.termination.xi_stop <= 2.0


class TestDeterminism:
    def test_bit_identical_repeats(self):
        cfg = IntegrationConfig(xi_span=(0.0, 3.0), rel_tol=1e-9,
                                abs_tol=1e-11)
        a = integrate(circle_rhs, [1.0, 0.0], cfg)
        b = integrate(circle_rhs, [1.0, 0.0], cfg)
        assert np.array_equal(a.ts, b.ts)
        assert np.array_equal(a.ys, b.ys)
        assert a.n_accepted == b.n_accepted
        assert a.n_fev == b.n_fev


class TestConfigValidation:
    def test_bad_tolerances(self):
        with pytest.raises(ValueError):
            IntegrationConfig(xi_span=(0.0, 1.0), rel_tol=0.0)

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "max_step"])
    def test_nan_rejected(self, field):
        # A NaN tolerance or max_step once passed the `<= 0` checks.
        with pytest.raises(ValueError):
            IntegrationConfig(xi_span=(0.0, 1.0), **{field: math.nan})

    def test_fixed_step_removed(self):
        # The fixed-step mode is gone: fixed_step = 0.0 or 1e-300 never
        # returned, and NaN returned "completed" at xi = nan.
        with pytest.raises(TypeError):
            IntegrationConfig(xi_span=(0.0, 1.0), fixed_step=0.1)

    def test_degenerate_span(self):
        with pytest.raises(ValueError):
            IntegrationConfig(xi_span=(1.0, 1.0))

    @pytest.mark.parametrize("span", [(0.0, math.inf), (math.nan, 1.0),
                                      (-math.inf, 0.0)])
    def test_non_finite_span(self, span):
        with pytest.raises(ValueError):
            IntegrationConfig(xi_span=span)


class TestNonFinite:
    def test_nan_rhs_rejects_steps(self):
        # A NaN error norm must reject the step, not pass it: the step
        # size shrinks until it underflows instead of marching on NaN.
        def rhs(t, y):
            return np.array([math.nan if t > 1.0 else 1.0])

        with pytest.raises(StepSizeUnderflow):
            integrate(rhs, [0.0], IntegrationConfig(xi_span=(0.0, 2.0)))

    def test_nan_everywhere_terminates(self):
        with pytest.raises(StepSizeUnderflow):
            integrate(lambda t, y: np.array([math.nan]), [0.0],
                      IntegrationConfig(xi_span=(0.0, 1.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_state_rejected(self, bad):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return -y

        with pytest.raises(ValueError, match=r"y0\[1\]"):
            integrate(rhs, [1.0, bad, 0.0],
                      IntegrationConfig(xi_span=(0.0, 1.0)))
        assert calls == []  # rejected before the first RHS evaluation


class TestStepCost:
    def test_six_evaluations_per_attempt(self):
        # FSAL: each attempt takes its first stage from the last accepted
        # step, so it evaluates f six times, not seven.
        calls = []

        def rhs(t, y):
            calls.append(t)
            return [-y[1], y[0]]

        sol = integrate(rhs, [1.0, 0.0], IntegrationConfig(
            xi_span=(0.0, 6.0), rel_tol=1e-9, abs_tol=1e-11, first_step=1.0))
        assert sol.n_rejected > 0
        assert sol.n_fev == len(calls) == \
            1 + 6 * (sol.n_accepted + sol.n_rejected)

    @staticmethod
    def counted(f):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return f(t, y)
        return rhs, calls

    def test_no_domain_errors_counted_exactly(self):
        # Without first_step the initial-step probe is one more call.
        rhs, calls = self.counted(lambda t, y: [-y[1], y[0]])
        sol = integrate(rhs, [1.0, 0.0], IntegrationConfig(
            xi_span=(0.0, 6.0), rel_tol=1e-9, abs_tol=1e-11))
        assert sol.n_fev == len(calls) == \
            2 + 6 * (sol.n_accepted + sol.n_rejected)

    def test_domain_errors_counted_exactly(self):
        # f fails past t = 2, so an attempt reaching past it stops at its
        # first stage there; the stages it ran before count as calls too.
        def wall(t, y):
            if t > 2.0:
                raise DomainError("wall")
            return [1.0]

        rhs, calls = self.counted(wall)
        sol = integrate(rhs, [0.0], IntegrationConfig(xi_span=(0.0, 3.0)))
        assert sol.termination.event == "domain_boundary"
        assert sol.n_rejected > 0
        assert sol.n_fev == len(calls) < \
            2 + 6 * (sol.n_accepted + sol.n_rejected)  # attempts cut short

    def test_failed_probe_counted(self):
        # The initial-step probe raising DomainError is a call as well.
        def wall(t, y):
            if t > 0.0:
                raise DomainError("wall")
            return [1.0]

        rhs, calls = self.counted(wall)
        sol = integrate(rhs, [0.0], IntegrationConfig(xi_span=(0.0, 1.0)))
        assert sol.termination.event == "domain_boundary"
        assert sol.n_fev == len(calls) == 2 + sol.n_rejected

    def test_state_length_checked(self):
        with pytest.raises(ValueError, match="1 components"):
            integrate(lambda t, y: [1.0], [0.0, 0.0],
                      IntegrationConfig(xi_span=(0.0, 1.0)))


class TestStepBudget:
    def test_max_step_ends_by_budget(self):
        # 2e5 steps of max_step would be needed; the run stops after the
        # budget with a named termination at its last node.
        sol = integrate(exp_rhs, [1.0], IntegrationConfig(
            xi_span=(0.0, 2e-4), max_step=1e-9))
        t = sol.termination
        assert t.kind == "step_budget"
        assert t.detail["attempts"] == rk.MAX_ATTEMPTS
        assert sol.n_accepted + sol.n_rejected == rk.MAX_ATTEMPTS
        assert t.xi_stop == sol.t_end == pytest.approx(1e-4, rel=1e-6)
        assert sol.ys[-1][0] == pytest.approx(math.exp(sol.t_end), rel=1e-12)
