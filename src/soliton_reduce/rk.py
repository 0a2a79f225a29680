"""Adaptive Dormand-Prince 5(4) integration with dense output and events.

Generic over the right-hand side; knows nothing about solitons. Features
needed by the reduction pipeline:

* embedded 5(4) error control with PI-free standard step adaptation,
* quartic dense output (Shampine's continuous extension),
* event functions, positive on the admissible side, located by bisection
  on the dense output to 1e-12 in the independent variable; the emitted
  stop state sits strictly on the admissible side,
* right-hand sides may raise :class:`DomainError`; the step is rejected
  and shrunk, and persistent failure terminates with a domain event at the
  last valid node,
* an optional fixed-step mode for convergence-order measurements.

Determinism: identical inputs produce bit-identical output (no randomness,
no wall-clock dependence).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, EventAtStart, StepSizeUnderflow
from .profiles import Termination

logger = logging.getLogger(__name__)

# Dormand-Prince 5(4) tableau (Dormand & Prince 1980) with the quartic
# dense-output matrix from Shampine, "Some Practical Runge-Kutta Formulas",
# Math. Comp. 46 (1986).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200,
               -22 / 525, 1 / 40])
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
_EVENT_XTOL = 1e-12
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9


@dataclass(frozen=True)
class Event:
    """Stop condition: fires when g(t, y) becomes <= 0."""

    name: str
    g: Callable[[float, np.ndarray], float]


@dataclass(frozen=True)
class IntegrationConfig:
    xi_span: tuple[float, float]
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    first_step: float | None = None
    fixed_step: float | None = None
    events: tuple[Event, ...] = ()

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not all(math.isfinite(t) for t in self.xi_span):
            raise ValueError("xi_span must be finite")
        if self.xi_span[0] == self.xi_span[1]:
            raise ValueError("xi_span must be non-degenerate")
        if self.max_step <= 0:
            raise ValueError("max_step must be positive")


def _interpolate(t0, h, y0, q, t):
    """Quartic dense output y0 + h * q @ (theta, theta^2, theta^3, theta^4)
    with theta = (t - t0) / h; every argument may carry leading batch axes
    (one step's interpolant per query)."""
    theta = np.asarray((t - t0) / h)
    powers = theta[..., None] ** np.arange(1, 5)
    return y0 + np.asarray(h)[..., None] * (q @ powers[..., None])[..., 0]


@dataclass
class RawSolution:
    """Node states plus dense output of one integration run.

    Step i of the dense output starts at ``seg_t0[i]`` with signed length
    ``seg_h[i]`` and state ``seg_y0[i]``; ``seg_q[i]`` (shape (ny, 4)) holds
    its quartic coefficients. Steps are ordered along the integration
    direction.
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


def _rms_norm(e: np.ndarray) -> float:
    return float(np.sqrt(np.mean(e ** 2)))


def _initial_step(f, t0, y0, f0, direction, rtol, atol, span):
    scale = atol + rtol * np.abs(y0)
    d0 = _rms_norm(y0 / scale)
    d1 = _rms_norm(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, 0.1 * span)
    try:
        y1 = y0 + h0 * direction * f0
        f1 = f(t0 + h0 * direction, y1)
        d2 = _rms_norm((f1 - f0) / scale) / h0
    except DomainError:
        return h0 * 0.1
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / ORDER)
    return min(100 * h0, h1, span)


def _attempt_step(f, t, y, h):
    """One DP54 trial step; returns (y_new, f_new, err_vec, K)."""
    ny = y.size
    k = np.empty((7, ny))
    k[0] = f(t, y)
    for s in range(1, 6):
        ys = y + h * (k[:s].T @ _A[s, :s])
        k[s] = f(t + _C[s] * h, ys)
    y_new = y + h * (k[:6].T @ _B)
    k[6] = f(t + h, y_new)
    err = h * (k.T @ _E)
    return y_new, k[6], err, k


def _bisect_event(g, step, t_lo: float, t_hi: float) -> float:
    """Largest t (toward t_lo) with g > 0 on the interpolant of `step`
    (t0, h, y0, q); bracket g(t_lo) > 0 >= g(t_hi)."""
    for _ in range(200):
        if abs(t_hi - t_lo) <= _EVENT_XTOL:
            break
        tm = 0.5 * (t_lo + t_hi)
        if g(tm, _interpolate(*step, tm)) > 0.0:
            t_lo = tm
        else:
            t_hi = tm
    return t_lo


def integrate(f: Callable[[float, np.ndarray], np.ndarray],
              y0: Sequence[float],
              cfg: IntegrationConfig) -> RawSolution:
    """Integrate y' = f(t, y) over cfg.xi_span from a finite y0."""
    t0, tf = cfg.xi_span
    y = np.asarray(y0, dtype=float).copy()
    direction = math.copysign(1.0, tf - t0)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"initial state component y0[{i}] = {y[i]} "
                         "is not finite")

    for ev in cfg.events:
        if ev.g(t0, y) <= 0.0:
            raise EventAtStart(f"event {ev.name!r} already holds at xi = {t0}")

    f_now = f(t0, y)  # initial state must satisfy the RHS preconditions
    n_fev = 1

    ts = [t0]
    ys = [y.copy()]
    steps: list[tuple] = []  # (t0, h, y0, q) of each accepted step
    n_accepted = 0
    n_rejected = 0

    def solution(termination: Termination) -> RawSolution:
        ny = y.size
        return RawSolution(
            np.array(ts), np.array(ys),
            np.array([s[0] for s in steps]), np.array([s[1] for s in steps]),
            np.array([s[2] for s in steps]).reshape(-1, ny),
            np.array([s[3] for s in steps]).reshape(-1, ny, 4),
            termination, n_accepted, n_rejected, n_fev)

    if cfg.fixed_step is not None:
        h_signed = direction * abs(cfg.fixed_step)
        t = t0
        while (tf - t) * direction > 1e-14 * max(1.0, abs(t)):
            h_step = h_signed
            if (tf - (t + h_step)) * direction < 0.0:
                h_step = tf - t
            y_new, f_now, _, k = _attempt_step(f, t, y, h_step)
            n_fev += 7
            steps.append((t, h_step, y.copy(), k.T @ _P))
            t, y = t + h_step, y_new
            ts.append(t)
            ys.append(y.copy())
            n_accepted += 1
        return solution(Termination(kind="completed", xi_stop=t))

    span = abs(tf - t0)
    h = cfg.first_step or _initial_step(f, t0, y, f_now, direction,
                                        cfg.rel_tol, cfg.abs_tol, span)
    h = min(h, cfg.max_step, span)
    t = t0
    domain_failures = 0
    termination: Termination | None = None

    while termination is None:
        if (tf - t) * direction <= 1e-14 * max(1.0, abs(t)):
            termination = Termination(kind="completed", xi_stop=t)
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
        h = min(h, cfg.max_step, abs(tf - t))
        h_signed = direction * h

        try:
            y_new, f_new, err_vec, k = _attempt_step(f, t, y, h_signed)
            n_fev += 7
        except DomainError:
            n_rejected += 1
            domain_failures += 1
            h *= 0.5
            continue
        domain_failures = 0

        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y),
                                                       np.abs(y_new))
        err = _rms_norm(err_vec / scale)
        # A non-finite trial state makes the norm NaN: reject, don't accept.
        if not err <= 1.0:
            n_rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-1.0 / ORDER))
            continue

        step = (t, h_signed, y.copy(), k.T @ _P)
        t_new = t + h_signed

        # Event detection at the step endpoint (sign-based: events stay
        # negative past their locus, so crossings are not skipped).
        fired = None
        for ev in cfg.events:
            if ev.g(t_new, y_new) <= 0.0:
                t_stop = _bisect_event(ev.g, step, t, t_new)
                if fired is None or (t_stop - fired[1]) * direction < 0.0:
                    fired = (ev, t_stop)
        if fired is not None:
            ev, t_stop = fired
            y_stop = _interpolate(*step, t_stop) if t_stop != t else y.copy()
            steps.append(step)
            ts.append(t_stop)
            ys.append(y_stop)
            n_accepted += 1
            termination = Termination(kind="event", event=ev.name,
                                      xi_stop=t_stop)
            break

        steps.append(step)
        t, y, f_now = t_new, y_new, f_new
        ts.append(t)
        ys.append(y.copy())
        n_accepted += 1
        factor = _MAX_FACTOR if err == 0.0 else min(
            _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** (-1.0 / ORDER)))
        h = h * factor

    return solution(termination)


def convergence_order(f: Callable[[float, np.ndarray], np.ndarray],
                      y0: Sequence[float],
                      cfg: IntegrationConfig,
                      reference: Callable[[float], np.ndarray] | None = None,
                      steps: int = 64) -> float:
    """Empirical order from step-halving on fixed-step runs.

    Against `reference` when given, otherwise by Richardson differences of
    three runs. Returns ``inf`` (with a log notice) when the errors sit at
    the round-off floor and no order can be measured.
    """
    t0, tf = cfg.xi_span
    span = abs(tf - t0)
    ends = []
    for m in (1, 2, 4):
        run_cfg = IntegrationConfig(xi_span=cfg.xi_span,
                                    fixed_step=span / (steps * m))
        sol = integrate(f, y0, run_cfg)
        ends.append(sol.ys[-1])
    scale = max(1.0, float(np.max(np.abs(ends[2]))))
    if reference is not None:
        ref = np.asarray(reference(tf), dtype=float)
        e1 = float(np.linalg.norm(ends[0] - ref))
        e2 = float(np.linalg.norm(ends[1] - ref))
    else:
        e1 = float(np.linalg.norm(ends[0] - ends[2]))
        e2 = float(np.linalg.norm(ends[1] - ends[2]))
    floor = 1e-13 * scale
    if e1 < floor or e2 < floor:
        logger.info("convergence_order: errors at round-off floor "
                    "(%.3e, %.3e); order not measurable", e1, e2)
        return math.inf
    return math.log2(e1 / e2)
