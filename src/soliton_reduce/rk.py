"""Adaptive Dormand-Prince 5(4) integration with dense output and events.

Generic over the right-hand side; knows nothing about solitons. Features
needed by the reduction pipeline:

* embedded 5(4) error control with PI-free standard step adaptation,
* FSAL ("first same as last"): an accepted step's last stage is f at its
  end state, so it serves as the next attempt's first stage and every
  attempt costs six RHS evaluations,
* quartic dense output (Shampine's continuous extension),
* event functions, positive on the admissible side, located by bisection
  on the dense output to 1e-12 in the independent variable; the emitted
  stop state sits strictly on the admissible side,
* right-hand sides may raise :class:`DomainError`; the step is rejected
  and shrunk, and persistent failure terminates with a domain event at the
  last valid node,
* a step budget: a run that makes :data:`MAX_ATTEMPTS` step attempts
  ends with a ``"step_budget"`` termination at its last accepted node.

The state is a list of Python floats. ``f(t, y)`` and every event's
``g(t, y)`` receive y as a list; ``f`` returns a length-ny sequence of
floats (numpy arrays work too, only slower). Every caller has ny <= 4,
where a numpy call per stage would cost more than the arithmetic.

Determinism: identical inputs produce bit-identical output (no randomness,
no wall-clock dependence).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, EventAtStart, StepSizeUnderflow
from .profiles import Termination

# Dormand-Prince 5(4) tableau (Dormand & Prince 1980), non-zero entries
# only, stages numbered from 0: nodes c_i, coefficients a_ij, fifth-order
# weights b_j (b_1 = 0; they are also the last row of a, which makes the
# method FSAL) and error weights e_j = b_j - b*_j (e_1 = 0).
_C1, _C2, _C3, _C4 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A10 = 1 / 5
_A20, _A21 = 3 / 40, 9 / 40
_A30, _A31, _A32 = 44 / 45, -56 / 15, 32 / 9
_A40, _A41, _A42, _A43 = (19372 / 6561, -25360 / 2187, 64448 / 6561,
                          -212 / 729)
_A50, _A51, _A52, _A53, _A54 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B0, _B2, _B3, _B4, _B5 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                           11 / 84)
_E0, _E2, _E3, _E4, _E5, _E6 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
# Quartic dense-output matrix from Shampine, "Some Practical Runge-Kutta
# Formulas", Math. Comp. 46 (1986): q = K^T P for the stages K (7, ny).
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

ORDER = 5
#: Step attempts (accepted, rejected and failed on a DomainError) after
#: which a run ends with a "step_budget" termination.
MAX_ATTEMPTS = 100_000
_EVENT_XTOL = 1e-12
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9


@dataclass(frozen=True)
class Event:
    """Stop condition: fires when g(t, y) becomes <= 0."""

    name: str
    g: Callable[[float, list[float]], float]


@dataclass(frozen=True)
class IntegrationConfig:
    xi_span: tuple[float, float]
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    first_step: float | None = None
    events: tuple[Event, ...] = ()

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not all(math.isfinite(t) for t in self.xi_span):
            raise ValueError("xi_span must be finite")
        if self.xi_span[0] == self.xi_span[1]:
            raise ValueError("xi_span must be non-degenerate")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")


def _interpolate(t0, h, y0, q, t):
    """Quartic dense output y0 + h * q @ (theta, theta^2, theta^3, theta^4)
    with theta = (t - t0) / h; every argument may carry leading batch axes
    (one step's interpolant per query)."""
    theta = np.asarray((t - t0) / h)
    powers = theta[..., None] ** np.arange(1, 5)
    return y0 + np.asarray(h)[..., None] * (q @ powers[..., None])[..., 0]


def _dense_coefficients(stages: np.ndarray) -> np.ndarray:
    """Quartic coefficients (..., ny, 4) of steps with stages (..., 7, ny)."""
    return np.swapaxes(stages, -1, -2) @ _P


@dataclass
class RawSolution:
    """Node states plus dense output of one integration run.

    Step i of the dense output starts at ``seg_t0[i]`` with signed length
    ``seg_h[i]`` and state ``seg_y0[i]``; ``seg_q[i]`` (shape (ny, 4)) holds
    its quartic coefficients. Steps are ordered along the integration
    direction. ``n_fev`` counts every RHS call: the initial state, the
    initial-step probe, and each stage of each attempt, the stages of one
    cut short by a DomainError included.
    """

    ts: np.ndarray
    ys: np.ndarray
    seg_t0: np.ndarray
    seg_h: np.ndarray
    seg_y0: np.ndarray
    seg_q: np.ndarray
    termination: Termination
    n_accepted: int = 0
    n_rejected: int = 0
    n_fev: int = 0

    @property
    def t_start(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def eval(self, t):
        """State at t, a float (shape (ny,)) or an array (shape (m, ny)).

        Each t is served by the first step whose end is at or past t in the
        integration direction, the last step when none is.
        """
        t_arr = np.asarray(t, dtype=float)
        lo = min(self.t_start, self.t_end)
        hi = max(self.t_start, self.t_end)
        if not np.all((lo <= t_arr) & (t_arr <= hi)):
            raise ValueError(f"t = {t} outside integrated range [{lo}, {hi}]")
        if self.seg_h.size == 0:
            return np.broadcast_to(self.ys[0], t_arr.shape + self.ys[0].shape
                                   ).copy()
        t1 = self.seg_t0 + self.seg_h
        if self.seg_h[0] < 0.0:  # ends decrease: search the negated ones
            t1, t_key = -t1, -t_arr
        else:
            t_key = t_arr
        i = np.minimum(np.searchsorted(t1, t_key), t1.size - 1)
        return _interpolate(self.seg_t0[i], self.seg_h[i], self.seg_y0[i],
                            self.seg_q[i], t_arr)


def _rms_norm(values) -> float:
    """Root mean square, summed left to right (``sum`` of floats rounds
    differently across Python versions)."""
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total / len(values))


def _initial_step(f, t0, y0, f0, direction, rtol, atol, span):
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = _rms_norm([v / s for v, s in zip(y0, scale)])
    d1 = _rms_norm([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, 0.1 * span)
    try:
        y1 = [v + h0 * direction * k for v, k in zip(y0, f0)]
        f1 = f(t0 + h0 * direction, y1)
        d2 = _rms_norm([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    except DomainError:
        return h0 * 0.1
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / ORDER)
    return min(100 * h0, h1, span)


def _attempt_step(f, t, y, k0, h, rtol, atol):
    """One DP5(4) trial step of signed length h from (t, y), with
    k0 = f(t, y). Returns the f calls made, the fifth-order state (None
    if f raised DomainError), the RMS norm of its error estimate
    h * sum_j e_j k_j scaled by atol + rtol * max(|y|, |y_new|), and the
    seven stages (the last is f at the new state)."""
    calls = 1
    try:
        k1 = f(t + _C1 * h, [v + h * (_A10 * a) for v, a in zip(y, k0)])
        calls = 2
        k2 = f(t + _C2 * h, [v + h * (_A20 * a + _A21 * b)
                             for v, a, b in zip(y, k0, k1)])
        calls = 3
        k3 = f(t + _C3 * h, [v + h * (_A30 * a + _A31 * b + _A32 * c)
                             for v, a, b, c in zip(y, k0, k1, k2)])
        calls = 4
        k4 = f(t + _C4 * h, [v + h * (_A40 * a + _A41 * b + _A42 * c
                                      + _A43 * d)
                             for v, a, b, c, d in zip(y, k0, k1, k2, k3)])
        calls = 5
        k5 = f(t + h, [v + h * (_A50 * a + _A51 * b + _A52 * c + _A53 * d
                                + _A54 * e)
                       for v, a, b, c, d, e in zip(y, k0, k1, k2, k3, k4)])
        y_new = [v + h * (_B0 * a + _B2 * c + _B3 * d + _B4 * e + _B5 * g)
                 for v, a, c, d, e, g in zip(y, k0, k2, k3, k4, k5)]
        calls = 6
        k6 = f(t + h, y_new)
    except DomainError:
        return calls, None, None, None
    total = 0.0
    for v, w, a, c, d, e, g, k in zip(y, y_new, k0, k2, k3, k4, k5, k6):
        err = h * (_E0 * a + _E2 * c + _E3 * d + _E4 * e + _E5 * g + _E6 * k)
        # A non-finite w comes with a non-finite err, so the step is
        # rejected whatever max() makes of the scale.
        err /= atol + rtol * max(abs(v), abs(w))
        total += err * err
    return 6, y_new, math.sqrt(total / len(y)), (k0, k1, k2, k3, k4, k5, k6)


def _bisect_event(g, step, t_lo: float, t_hi: float) -> float:
    """Largest t (toward t_lo) with g > 0 on the interpolant of `step`
    (t0, h, y0, q); bracket g(t_lo) > 0 >= g(t_hi)."""
    for _ in range(200):
        if abs(t_hi - t_lo) <= _EVENT_XTOL:
            break
        tm = 0.5 * (t_lo + t_hi)
        if g(tm, _interpolate(*step, tm).tolist()) > 0.0:
            t_lo = tm
        else:
            t_hi = tm
    return t_lo


def integrate(f: Callable[[float, list[float]], Sequence[float]],
              y0: Sequence[float],
              cfg: IntegrationConfig) -> RawSolution:
    """Integrate y' = f(t, y) over cfg.xi_span from a finite y0."""
    t0, tf = cfg.xi_span
    y = [float(v) for v in y0]
    ny = len(y)
    for i, v in enumerate(y):
        if not math.isfinite(v):
            raise ValueError(f"initial state component y0[{i}] = {v} "
                             "is not finite")
    direction = math.copysign(1.0, tf - t0)

    for ev in cfg.events:
        if ev.g(t0, y) <= 0.0:
            raise EventAtStart(f"event {ev.name!r} already holds at xi = {t0}")

    k0 = f(t0, y)  # initial state must satisfy the RHS preconditions
    if len(k0) != ny:
        raise ValueError(f"f returned {len(k0)} components for a state "
                         f"of {ny}")

    # Nodes, and the signed length and seven stages of each accepted step.
    ts, ys = array("d", [t0]), array("d", y)
    hs, ks = array("d"), array("d")
    event_q = None  # coefficients of the step an event stopped
    rtol, atol, max_step = cfg.rel_tol, cfg.abs_tol, cfg.max_step
    span = abs(tf - t0)
    n_fev = 1 if cfg.first_step else 2  # the initial state, the probe
    h = cfg.first_step or _initial_step(f, t0, y, k0, direction, rtol, atol,
                                        span)
    h = min(h, max_step, span)
    t = t0
    attempts = n_rejected = domain_failures = 0

    while True:
        if (tf - t) * direction <= 1e-14 * max(1.0, abs(t)):
            termination = Termination(kind="completed", xi_stop=t)
            break
        if attempts >= MAX_ATTEMPTS:
            termination = Termination(kind="step_budget", xi_stop=t,
                                      detail={"attempts": attempts})
            break
        h_min = 1e-14 * max(1.0, abs(t))
        if not h >= h_min:  # a NaN step size underflows too
            if domain_failures >= 3:
                # The RHS keeps failing arbitrarily close to the current
                # node: terminate here with a domain event.
                termination = Termination(
                    kind="event", event="domain_boundary", xi_stop=t,
                    detail={"failures": domain_failures},
                )
                break
            raise StepSizeUnderflow(f"step size {h:.3e} at xi = {t}")
        h = min(h, max_step, abs(tf - t))
        h_signed = direction * h
        attempts += 1

        calls, y_new, err, stages = _attempt_step(f, t, y, k0, h_signed,
                                                  rtol, atol)
        n_fev += calls
        if y_new is None:  # f raised DomainError
            n_rejected += 1
            domain_failures += 1
            h *= 0.5
            continue
        domain_failures = 0

        # A non-finite trial state makes the norm NaN: reject, don't accept.
        if not err <= 1.0:
            n_rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-1.0 / ORDER))
            continue

        hs.append(h_signed)
        for k in stages:
            ks.extend(k)
        t_new = t + h_signed

        # Event detection at the step endpoint (sign-based: events stay
        # negative past their locus, so crossings are not skipped).
        fired = None
        for ev in cfg.events:
            if ev.g(t_new, y_new) <= 0.0:
                if event_q is None:
                    event_q = _dense_coefficients(np.array(stages))
                    step = (t, h_signed, np.array(y), event_q)
                t_stop = _bisect_event(ev.g, step, t, t_new)
                if fired is None or (t_stop - fired[1]) * direction < 0.0:
                    fired = (ev, t_stop)
        if fired is not None:
            ev, t_stop = fired
            ts.append(t_stop)
            ys.extend(_interpolate(*step, t_stop) if t_stop != t else y)
            termination = Termination(kind="event", event=ev.name,
                                      xi_stop=t_stop)
            break

        t, y, k0 = t_new, y_new, stages[6]
        ts.append(t)
        ys.extend(y)
        factor = _MAX_FACTOR if err == 0.0 else min(
            _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** (-1.0 / ORDER)))
        h = h * factor

    ts_arr = np.frombuffer(ts)
    ys_arr = np.frombuffer(ys).reshape(-1, ny)
    q = _dense_coefficients(np.frombuffer(ks).reshape(-1, 7, ny))
    if event_q is not None:
        q[-1] = event_q  # the interpolant the stop state was taken from
    return RawSolution(ts_arr, ys_arr, ts_arr[:-1], np.frombuffer(hs),
                       ys_arr[:-1], q, termination, len(hs), n_rejected,
                       n_fev)
