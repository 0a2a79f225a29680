"""The embedded Runge-Kutta integrator: accuracy, dense output, events,
domain handling and determinism."""

import math
import struct

import numpy as np
import pytest

from soliton_reduce import Event, IntegrationConfig, integrate, rk
from soliton_reduce.errors import (
    DomainError,
    EventAtStart,
    OutOfDomain,
    StepSizeUnderflow,
)


def exp_rhs(t, y):
    return y


def circle_rhs(t, y):
    return np.array([-y[1], y[0]])


# The Dormand-Prince 5(4) tableau written out, nonzero entries only.
C1, C2, C3, C4 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A10 = 1 / 5
A20, A21 = 3 / 40, 9 / 40
A30, A31, A32 = 44 / 45, -56 / 15, 32 / 9
A40, A41, A42, A43 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A50, A51, A52, A53, A54 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                           -5103 / 18656)
B0, B2, B3, B4, B5 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                      11 / 84)
E0, E2, E3, E4, E5, E6 = (-71 / 57600, 71 / 16695, -71 / 1920,
                          17253 / 339200, -22 / 525, 1 / 40)


def loop_attempt(f, t, y, k0, h, rtol, atol):
    """Reference DP5(4) attempt, one componentwise loop per stage: the
    calls made, the fifth-order state (None if f raised DomainError), the
    scaled RMS error norm and the seven stages as sequences."""
    calls = 1
    try:
        k1 = f(t + C1 * h, [v + h * (A10 * a) for v, a in zip(y, k0)])
        calls = 2
        k2 = f(t + C2 * h, [v + h * (A20 * a + A21 * b)
                            for v, a, b in zip(y, k0, k1)])
        calls = 3
        k3 = f(t + C3 * h, [v + h * (A30 * a + A31 * b + A32 * c)
                            for v, a, b, c in zip(y, k0, k1, k2)])
        calls = 4
        k4 = f(t + C4 * h, [v + h * (A40 * a + A41 * b + A42 * c + A43 * d)
                            for v, a, b, c, d in zip(y, k0, k1, k2, k3)])
        calls = 5
        k5 = f(t + h, [v + h * (A50 * a + A51 * b + A52 * c + A53 * d
                                + A54 * e)
                       for v, a, b, c, d, e in zip(y, k0, k1, k2, k3, k4)])
        y_new = [v + h * (B0 * a + B2 * c + B3 * d + B4 * e + B5 * g)
                 for v, a, c, d, e, g in zip(y, k0, k2, k3, k4, k5)]
        calls = 6
        k6 = f(t + h, y_new)
    except DomainError:
        return calls, None, None, None
    total = 0.0
    for v, w, a, c, d, e, g, k in zip(y, y_new, k0, k2, k3, k4, k5, k6):
        err = h * (E0 * a + E2 * c + E3 * d + E4 * e + E5 * g + E6 * k)
        err /= atol + rtol * max(abs(v), abs(w))
        total += err * err
    return 6, y_new, math.sqrt(total / len(y)), (k0, k1, k2, k3, k4, k5, k6)


def coupled_rhs(t, y):
    """A nonlinear RHS coupling every component to its neighbours."""
    ny = len(y)
    return [math.sin(t * v) - 0.7 * v * y[c - 1]
            + math.exp(-y[(c - 2) % ny] ** 2) for c, v in enumerate(y)]


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
        attempt = rk._attempt(len(y))
        for i in range(steps):
            _, y, _, stages = attempt(f, t0 + i * h, y, k0, h, 1.0, 1.0)
            k0 = stages[-len(y):]
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
            assert np.allclose(sol.dense.evaluate(float(t)), y, atol=1e-9)

    def test_midpoints_accurate(self):
        sol = integrate(circle_rhs, [1.0, 0.0], IntegrationConfig(
            xi_span=(0.0, 3.0), rel_tol=1e-10, abs_tol=1e-12))
        for t in np.linspace(0.05, 2.95, 37):
            exact = np.array([math.cos(t), math.sin(t)])
            assert np.linalg.norm(sol.dense.evaluate(float(t)) - exact) < 1e-8

    def test_out_of_range(self):
        sol = integrate(exp_rhs, [1.0],
                        IntegrationConfig(xi_span=(0.0, 1.0)))
        with pytest.raises(OutOfDomain):
            sol.dense.evaluate(2.0)
        with pytest.raises(OutOfDomain):
            sol.dense.evaluate(np.array([0.5, 2.0]))
        with pytest.raises(OutOfDomain):
            sol.dense.evaluate(math.nan)

    @staticmethod
    def scan_eval(dense, t):
        """Reference: linear scan for the first piece whose right break
        is past t (else the last piece), then its powers of s = t - origin
        summed in ascending order. Returns the value and the origin."""
        pieces = dense.pieces()
        _, _, x0, c = next((p for p in pieces if t < p[1]), pieces[-1])
        s = t - x0
        out, z = c[-1] * 1, s
        for row in c[-2::-1]:
            out = out + row * z
            z = z * s
        return out, x0

    @staticmethod
    def theta_eval(step, t):
        """The step's quartic as Shampine writes it:
        y0 + h * q @ (theta, .., theta^4), theta = (t - t0)/h, q = K^T P."""
        t0, y0, h, stages = step
        q = np.array(stages, dtype=float).T @ rk._P
        theta = (t - t0) / h
        return np.array(y0) + h * (q @ theta ** np.arange(1, 5))

    @pytest.mark.parametrize("span, events", [
        ((0.0, 3.0), ()),
        ((3.0, -1.0), ()),
        ((0.0, 6.0), (Event("x_zero", lambda t, y: y[0] + 0.5),)),
    ], ids=["increasing", "decreasing", "event"])
    def test_batch_matches_linear_scan(self, span, events, run_recorded):
        sol, steps = run_recorded(lambda: integrate(
            circle_rhs, [1.0, 0.0], IntegrationConfig(
                xi_span=span, rel_tol=1e-8, abs_tol=1e-10, events=events)))
        dense = sol.dense
        assert np.all(np.diff(dense.breaks) > 0)
        assert len(dense.pieces()) == sol.n_accepted == len(steps)
        if events:
            assert sol.termination.event == "x_zero"
            # The stopped run's last step reaches past its stop point.
            t0, _, h, _ = steps[-1]
            assert t0 + h > sol.ts[-1]
        lo, hi = sorted(sol.ts[[0, -1]].tolist())
        # Nodes (piece boundaries) and the span ends included.
        ts = np.concatenate([np.linspace(lo, hi, 301), sol.ts])
        batch = dense.evaluate(ts)
        assert batch.shape == (ts.size, 2)
        # The step quartics in theta agree to 4 ulp of each component's
        # largest node value.
        ulps = 4 * np.spacing(np.max(np.abs(sol.ys), axis=0))
        by_start = {step[0]: step for step in steps}
        for t, y in zip(ts, batch):
            ref, x0 = self.scan_eval(dense, float(t))
            assert np.array_equal(y, ref)
            assert np.array_equal(dense.evaluate(float(t)), ref)
            assert np.all(np.abs(y - self.theta_eval(by_start[x0], t))
                          <= ulps)

    @pytest.mark.parametrize("ny, events", [
        (3, ()), (4, ()), (4, (Event("t_high", lambda t, y: 2.5 - t),))],
        ids=["ny3", "ny4", "ny4_event"])
    def test_nodes_are_accepted_states(self, ny, events, run_recorded):
        # ts and ys come back from packed storage as float64, C-contiguous
        # and writable, each row of ys the state an accepted step started
        # from: a wrong struct format or byte count breaks the rows.
        sol, steps = run_recorded(lambda: integrate(
            coupled_rhs, [0.3 * c - 0.4 for c in range(ny)],
            IntegrationConfig(xi_span=(0.0, 4.0), rel_tol=1e-8,
                              abs_tol=1e-10, events=events)))
        assert sol.termination.kind == ("event" if events else "completed")
        assert sol.ys.shape == (len(sol.ts), ny) == (len(steps) + 1, ny)
        for a in (sol.ts, sol.ys):
            assert a.dtype == np.float64
            assert a.flags.c_contiguous and a.flags.writeable
        assert sol.ts[:-1].tolist() == [step[0] for step in steps]
        assert sol.ys[:-1].tolist() == [step[1] for step in steps]

    def test_derivative_is_rhs_at_step_starts(self):
        # On an increasing run each node but the last is served by the
        # piece of the step starting there, whose slope is f at the node.
        sol = integrate(circle_rhs, [1.0, 0.0], IntegrationConfig(
            xi_span=(0.0, 3.0), rel_tol=1e-8, abs_tol=1e-10))
        slopes = sol.dense.evaluate(sol.ts[:-1], 1)
        assert np.array_equal(slopes, [circle_rhs(t, y) for t, y in
                                       zip(sol.ts[:-1], sol.ys[:-1])])

    @pytest.mark.parametrize("span", [(0.0, 3.0), (3.0, -1.0)],
                             ids=["increasing", "decreasing"])
    @pytest.mark.parametrize("derivative, atol", [(1, 1e-7), (2, 1e-5)])
    def test_derivative_matches_central_differences(self, span, derivative,
                                                    atol):
        # At each piece's midpoint, central differences of derivative d - 1
        # with step delta inside the piece converge to derivative d at
        # order 2: halving delta quarters the error.
        dense = integrate(circle_rhs, [1.0, 0.0], IntegrationConfig(
            xi_span=span, rel_tol=1e-8, abs_tol=1e-10)).dense
        mids = 0.5 * (dense.breaks[:-1] + dense.breaks[1:])
        want = dense.evaluate(mids, derivative)
        errs = []
        for frac in (8.0, 16.0):
            delta = np.diff(dense.breaks) / frac
            got = (dense.evaluate(mids + delta, derivative - 1)
                   - dense.evaluate(mids - delta, derivative - 1)
                   ) / (2 * delta[:, None])
            errs.append(np.max(np.abs(got - want)))
        assert 1.9 <= math.log2(errs[0] / errs[1]) <= 2.1
        # They are the circle's derivatives to the interpolant's accuracy.
        angle = mids - span[0]
        exact = np.stack([np.cos(angle), np.sin(angle)], axis=1)
        rotated = exact @ np.linalg.matrix_power([[0.0, 1.0], [-1.0, 0.0]],
                                                 derivative)
        assert np.max(np.abs(want - rotated)) <= atol

    def test_derivatives_past_degree(self):
        # Quartic pieces: the third derivative's central differences are
        # exact to round-off, and the fifth derivative vanishes.
        dense = integrate(circle_rhs, [1.0, 0.0], IntegrationConfig(
            xi_span=(0.0, 3.0), rel_tol=1e-8, abs_tol=1e-10)).dense
        mids = 0.5 * (dense.breaks[:-1] + dense.breaks[1:])
        delta = np.diff(dense.breaks) / 8.0
        got = (dense.evaluate(mids + delta, 2)
               - dense.evaluate(mids - delta, 2)) / (2 * delta[:, None])
        assert np.allclose(got, dense.evaluate(mids, 3), rtol=0.0,
                           atol=1e-11)
        assert dense.evaluate(mids, 5).shape == (mids.size, 2)
        assert not np.any(dense.evaluate(mids, 5))


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

    def test_locus_within_xtol_of_node(self):
        # The locus lies 5e-13 past the node t = 1, inside the bisection
        # tolerance: the run ends at that node and adds no zero-length
        # step (it once emitted t = 1 twice and counted three steps).
        ev = Event("g", lambda t, y: (1.0 + 5e-13) - t)
        sol = integrate(lambda t, y: [-1.0], [3.0], IntegrationConfig(
            xi_span=(0.0, 5.0), first_step=0.5, max_step=0.5, events=(ev,)))
        assert sol.termination.event == "g"
        assert sol.termination.xi_stop == sol.ts[-1] == 1.0
        assert sol.ts.tolist() == [0.0, 0.5, 1.0]
        assert sol.ys[:, 0].tolist() == [3.0, 2.5, 2.0]
        assert sol.n_accepted == 2
        assert sol.dense.breaks.tolist() == [0.0, 0.5, 1.0]
        assert sol.dense.evaluate(1.0).tolist() == [2.0]

    @pytest.mark.parametrize("span, locus", [((0.0, 6.0), 2 * math.pi / 3),
                                             ((0.0, -6.0), -2 * math.pi / 3)],
                             ids=["increasing", "decreasing"])
    def test_stop_state_is_dense_value(self, span, locus):
        # The stop state is the dense output's value at the stop point, bit
        # for bit, and every event is still positive there.
        events = (Event("x_half", lambda t, y: y[0] + 0.5),
                  Event("far", lambda t, y: 10.0 - abs(t)))
        sol = integrate(circle_rhs, [1.0, 0.0], IntegrationConfig(
            xi_span=span, rel_tol=1e-9, abs_tol=1e-11, events=events))
        t = sol.termination
        assert t.event == "x_half"
        assert t.xi_stop == sol.ts[-1] == pytest.approx(locus, abs=1e-8)
        assert np.array_equal(sol.dense.evaluate(t.xi_stop), sol.ys[-1])
        assert all(ev.g(t.xi_stop, sol.ys[-1].tolist()) > 0.0
                   for ev in events)

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


class TestZeroStepRuns:
    @staticmethod
    def wall(t, y):
        if t > 0.0:
            raise DomainError("wall")
        return [1.0, -1.0]

    @pytest.mark.parametrize("rhs, span, kind", [
        (wall, (0.0, 1.0), "event"),
        (lambda t, y: [1.0, -1.0], (0.0, 5e-15), "completed"),
    ], ids=["domain_boundary_at_start", "span_below_resolution"])
    def test_evaluates_at_single_node(self, rhs, span, kind):
        sol = integrate(rhs, [2.0, -0.5], IntegrationConfig(xi_span=span))
        assert sol.termination.kind == kind
        assert sol.n_accepted == 0
        assert sol.ts.tolist() == [0.0]
        dense = sol.dense
        assert dense.evaluate(0.0).tolist() == [2.0, -0.5]
        assert dense.evaluate(np.zeros(3)).tolist() == [[2.0, -0.5]] * 3
        assert dense.evaluate(0.0, 1).tolist() == [0.0, 0.0]
        with pytest.raises(OutOfDomain):
            dense.evaluate(1e-3)


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

    @pytest.mark.parametrize("first_step", [-0.1, math.nan, 0.0])
    def test_bad_first_step(self, first_step):
        # -0.1 and NaN once died at the first step as StepSizeUnderflow,
        # and 0.0 silently chose the automatic first step.
        with pytest.raises(ValueError, match="first_step"):
            IntegrationConfig(xi_span=(0.0, 1.0), first_step=first_step)

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
        assert t.xi_stop == sol.ts[-1] == pytest.approx(1e-4, rel=1e-6)
        assert sol.ys[-1][0] == pytest.approx(math.exp(sol.ts[-1]), rel=1e-12)


class TestGeneratedAttempt:
    """rk._attempt(ny) against the loop it replaced: equal floats, equal
    call counts, equal stages."""

    @staticmethod
    def inputs(ny, count):
        gen = np.random.Generator(np.random.Philox(key=ny))
        for _ in range(count):
            t = float(gen.uniform(-3.0, 3.0))
            y = gen.uniform(-2.0, 2.0, ny).tolist()
            h = float(gen.choice([-1.0, 1.0]) * 10.0 ** gen.uniform(-4, 0))
            rtol, atol = 10.0 ** gen.uniform(-12, -3, 2)
            yield t, y, h, float(rtol), float(atol)

    @staticmethod
    def assert_same(got, want, ny):
        assert got[0] == want[0]
        if want[1] is None:
            assert got[1:] == (None, None, None)
            return
        assert np.array_equal(got[1], want[1], equal_nan=True)
        assert type(got[1]) is list
        assert got[2] == want[2] or math.isnan(got[2]) and math.isnan(want[2])
        assert np.array_equal(got[3], np.ravel(want[3]), equal_nan=True)
        assert len(got[3]) == 7 * ny

    @pytest.mark.parametrize("ny", range(1, 6))
    def test_matches_loop(self, ny):
        attempt = rk._attempt(ny)
        assert rk._attempt(ny) is attempt  # built once per state size
        for t, y, h, rtol, atol in self.inputs(ny, 200):
            k0 = coupled_rhs(t, y)
            got = attempt(coupled_rhs, t, y, k0, h, rtol, atol)
            want = loop_attempt(coupled_rhs, t, y, k0, h, rtol, atol)
            self.assert_same(got, want, ny)
            assert got[1] == want[1] and got[2] == want[2]

    @pytest.mark.parametrize("ny", range(1, 6))
    @pytest.mark.parametrize("stage", range(1, 7))
    def test_domain_error_at_each_stage(self, ny, stage):
        def rhs(t, y):
            calls.append(t)
            if len(calls) == stage:
                raise DomainError("guard")
            return coupled_rhs(t, y)

        t, y, h, rtol, atol = next(self.inputs(ny, 1))
        out = []
        for attempt in (rk._attempt(ny), loop_attempt):
            calls = []
            out.append(attempt(rhs, t, y, coupled_rhs(t, y), h, rtol, atol))
            assert len(calls) == stage
        assert out[0] == out[1] == (stage, None, None, None)

    @pytest.mark.parametrize("ny", [1, 4])
    @pytest.mark.parametrize("stage", range(1, 7))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_stage(self, ny, stage, bad):
        def rhs(t, y):  # arithmetic only: non-finite values pass through
            calls.append(t)
            k = [t * v - 0.7 * v * y[c - 1] for c, v in enumerate(y)]
            if len(calls) == stage:
                k[-1] = bad
            return k

        t, y, h, rtol, atol = next(self.inputs(ny, 1))
        out = []
        for attempt in (rk._attempt(ny), loop_attempt):
            calls = []
            out.append(attempt(rhs, t, y, y, h, rtol, atol))
        self.assert_same(*out, ny)
        # A NaN norm, or an infinite one when only the last stage is
        # infinite: either way the step is rejected.
        assert not math.isfinite(out[0][2]) and not out[0][2] <= 1.0

    @pytest.mark.parametrize("y0", [-0.0, 0.0, -2.0, math.nan, math.inf,
                                    -math.inf])
    @pytest.mark.parametrize("k", [-0.0, 0.0, math.nan, math.inf,
                                   -math.inf])
    @pytest.mark.parametrize("h", [0.1, -0.1])
    def test_signed_zero_and_non_finite_states(self, y0, k, h):
        # The generated norm takes max(|y|, |w|) by comparisons, not by
        # max() and abs(): -0.0, NaN and +-inf in y and in the trial state
        # w leave the state bits, the norm and the stages as the loop's.
        def rhs(t, y):
            return [k, 0.5 * y[1]]

        y = [y0, 1.0]
        out = [attempt(rhs, 0.3, y, rhs(0.3, y), h, 1e-6, 1e-9)
               for attempt in (rk._attempt(2), loop_attempt)]
        self.assert_same(*out, 2)
        assert struct.pack("2d", *out[0][1]) == struct.pack("2d", *out[1][1])

    def test_negative_zero_trial_state(self):
        # Zero stages signed against their weights (b_4 < 0) make every
        # term of w = -0.0 + h * sum_j b_j k_j a -0.0, so w = -0.0: the
        # scale is -0.0 where abs() gives 0.0, and the norm is equal.
        def rhs(t, y):
            calls.append(t)
            return [0.0 if len(calls) == 4 else -0.0, 1.0]

        out = []
        for attempt in (rk._attempt(2), loop_attempt):
            calls = []
            out.append(attempt(rhs, 0.0, [-0.0, 1.0], [-0.0, 1.0], 0.1,
                               1e-6, 1e-9))
        assert math.copysign(1.0, out[0][1][0]) == -1.0
        self.assert_same(*out, 2)
        assert out[0][2] == out[1][2] == 0.0

    def test_zero_weights_leave_stage_1_out(self):
        # b_1 = e_1 = 0: the loop never multiplies stage 1 into the new
        # state or the error, so an infinite stage 1 that no later stage
        # sees leaves both finite (a 0.0 * inf term would make them NaN).
        def rhs(t, y):
            calls.append(t)
            return [math.inf if len(calls) == 1 else 1.0, -0.5]

        out = []
        for attempt in (rk._attempt(2), loop_attempt):
            calls = []
            out.append(attempt(rhs, 0.0, [1.0, 2.0], [1.0, -0.5], 0.1,
                               1e-6, 1e-9))
        self.assert_same(*out, 2)
        assert all(map(math.isfinite, out[0][1])) and out[0][2] <= 1.0

    @pytest.mark.parametrize("stage, xi", enumerate(
        [0.1, 0.15, 0.4, 0.4444444444444444, 0.5, 0.5], 1))
    @pytest.mark.parametrize("returned", [1, 3])
    def test_length_change_at_each_stage(self, stage, xi, returned):
        # xi is stage's t + c h on a step of h = 0.5 from t = 0.
        def rhs(t, y):
            calls.append(t)
            return [1.0] * (returned if len(calls) == stage else 2)

        calls = []
        with pytest.raises(ValueError) as info:
            rk._attempt(2)(rhs, 0.0, [1.0, 2.0], [1.0, 1.0], 0.5, 1e-6,
                           1e-9)
        assert len(calls) == stage
        assert str(info.value) == (f"f returned {returned} components for "
                                   f"a state of 2 at xi = {xi}")

    def test_own_value_error_propagates(self):
        def rhs(t, y):
            raise ValueError("math domain error")

        with pytest.raises(ValueError, match="^math domain error$"):
            rk._attempt(2)(rhs, 0.0, [1.0, 2.0], [1.0, 1.0], 0.5, 1e-6, 1e-9)


class TestRhsLength:
    @pytest.mark.parametrize("returned", [1, 3], ids=["shorter", "longer"])
    def test_length_change_raises_at_its_attempt(self, returned):
        # From the tenth call on (the second attempt's third stage) f
        # returns another length. A shorter value once shrank the state
        # through zip and a longer one was cut by it; both runs died only
        # after the end, in a reshape of the stored stages.
        calls = []
        later = 10

        def rhs(t, y):
            calls.append(t)
            return ([-y[1], y[0]] if len(calls) < later
                    else [1.0] * returned)

        with pytest.raises(ValueError) as info:
            integrate(rhs, [1.0, 0.0], IntegrationConfig(
                xi_span=(0.0, 3.0), first_step=0.1))
        assert len(calls) == later
        assert str(info.value) == (f"f returned {returned} components for a "
                                   f"state of 2 at xi = {calls[-1]}")

    def test_initial_value_checked(self):
        with pytest.raises(ValueError, match=(
                r"^f returned 3 components for a state of 2 at xi = 0.0$")):
            integrate(lambda t, y: [0.0] * 3, [1.0, 0.0],
                      IntegrationConfig(xi_span=(0.0, 1.0)))

    def test_probe_value_checked(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return [0.0, 1.0] if len(calls) == 1 else [0.0]

        with pytest.raises(ValueError, match="^f returned 1 components"):
            integrate(rhs, [1.0, 0.0], IntegrationConfig(xi_span=(0.0, 1.0)))
        assert len(calls) == 2
