"""Adaptive Dormand-Prince 5(4) integration with dense output and events.

Generic over the right-hand side; knows nothing about solitons. Features
needed by the reduction pipeline:

* embedded 5(4) error control with PI-free standard step adaptation,
* FSAL ("first same as last"): an accepted step's last stage is f at its
  end state, so it serves as the next attempt's first stage and every
  attempt costs six RHS evaluations,
* quartic dense output (Shampine's continuous extension), emitted as a
  ``PiecewisePoly`` in powers of t - t_i about each step's start t_i,
* event functions, positive on the admissible side, located by bisection
  on that same dense output to 1e-12 in the independent variable; the
  emitted stop state is the dense output's value there and sits strictly
  on the admissible side,
* right-hand sides may raise :class:`DomainError`; the step is rejected
  and shrunk, and persistent failure terminates with a domain event at the
  last valid node,
* a step budget: a run that makes :data:`MAX_ATTEMPTS` step attempts
  ends with a ``"step_budget"`` termination at its last accepted node.

The state is a list of Python floats. ``f(t, y)`` and every event's
``g(t, y)`` receive y as a list; ``f`` returns a length-ny sequence of
floats (numpy arrays work too, only slower), and a value of another
length raises ValueError where it is returned. The trial step is
straight-line code generated from the tableau once per state size ny:
no loop, comprehension or numpy call per stage, and the same arithmetic
as the componentwise loop, bit for bit. Accepted steps' stages and node
states are stored as packed native doubles in bytearrays, read back as
arrays without a copy.

Determinism: identical inputs produce bit-identical output (no randomness,
no wall-clock dependence).
"""

from __future__ import annotations

import functools
import math
import struct
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, EventAtStart, StepSizeUnderflow
from .profiles import PiecewisePoly, Termination, power_sum

# Dormand-Prince 5(4) tableau (Dormand & Prince 1980), stages numbered
# from 0. Row i - 1 holds stage i's node c_i and coefficients a_i0 ..
# a_i,i-1. The last row's coefficients are the fifth-order weights b, so
# stage 6 is f at the new state (the method is FSAL). _E holds the error
# weights e_j = b_j - b*_j. Zero entries take no part in the arithmetic.
_TABLEAU = (
    (1 / 5, (1 / 5,)),
    (3 / 10, (3 / 40, 9 / 40)),
    (4 / 5, (44 / 45, -56 / 15, 32 / 9)),
    (8 / 9, (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)),
    (1.0, (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)),
    (1.0, (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)),
)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
      1 / 40)
# Quartic dense-output matrix from Shampine, "Some Practical Runge-Kutta
# Formulas", Math. Comp. 46 (1986): a step of length h from y0 with stages
# K (7, ny) has the interpolant y0 + h * q @ (theta, .., theta^4), q = K^T P.
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
        if self.first_step is not None and not self.first_step > 0:
            raise ValueError("first_step must be None or positive")


@dataclass
class RawSolution:
    """Node states plus dense output of one integration run.

    ``ts`` and ``ys`` hold the nodes in the integration direction: the
    start, the end of each accepted step, and an event's stop point.
    ``n_fev`` counts every RHS call: the initial state, the initial-step
    probe, and each stage of each attempt, the stages of one cut short by
    a DomainError included.
    """

    ts: np.ndarray
    ys: np.ndarray
    dense: PiecewisePoly
    termination: Termination
    n_accepted: int = 0
    n_rejected: int = 0
    n_fev: int = 0


def _dense_output(ts, ys, hs, stages) -> PiecewisePoly:
    """Dense output over ts (m + 1,) of the steps from (ts[i], ys[i]) with
    signed lengths hs, stages (m, 7, ny): y_i + h_i q_i @ (theta, ..,
    theta^4) in powers of s = t - ts[i], coefficients q_ik h_i^(1-k)."""
    if not len(hs):
        return PiecewisePoly(np.repeat(ts, 2), ys[None, :1], ts)
    r = slice(None, None, 1 if hs[0] > 0.0 else -1)  # pieces by increasing t
    q = np.swapaxes(stages[r], 1, 2) @ _P
    q *= np.asarray(hs)[r, None, None] ** -np.arange(4.0)
    coeffs = np.concatenate((np.moveaxis(q[..., ::-1], -1, 0),
                             ys[None, :len(hs)][:, r]))
    breaks = np.ascontiguousarray(ts[r])
    return PiecewisePoly(breaks, coeffs, breaks[:-1] if r.step > 0
                         else breaks[1:])


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
        _check_length(f1, len(y0), t0 + h0 * direction)
        d2 = _rms_norm([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    except DomainError:
        return h0 * 0.1
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / ORDER)
    return min(100 * h0, h1, span)


def _check_length(k, ny: int, t: float) -> None:
    """Raise ValueError unless f's value k at xi = t has ny components."""
    if len(k) != ny:
        raise ValueError(f"f returned {len(k)} components for a state of "
                         f"{ny} at xi = {t}") from None


@functools.cache
def _attempt(ny: int):
    """The DP5(4) trial step for states of ny components, compiled once
    from _TABLEAU and _E as straight-line code, one local per stage
    component.

    ``attempt(f, t, y, k0, h, rtol, atol)`` steps by signed length h from
    (t, y), with k0 = f(t, y). It returns the f calls made, the
    fifth-order state (None if f raised DomainError), the RMS norm of its
    error estimate h * sum_j e_j k_j scaled by atol + rtol * max(|y|,
    |y_new|), and the seven stages as one flat tuple, stage by stage (the
    last ny entries are f at the new state). Every sum runs left to right
    over increasing j, and the norm sums the components in order, so the
    arithmetic is that of the componentwise loop, bit for bit. An f value
    with other than ny components raises ValueError at its stage.
    """
    comps = range(ny)

    def names(i):
        return "".join(f"k{i}_{c}, " for c in comps)

    def combo(coeffs, c):
        return " + ".join(f"{a!r} * k{j}_{c}" for j, a in enumerate(coeffs)
                          if a)

    lines = ["def attempt(f, t, y, k0, h, rtol, atol):",
             f"    {''.join(f'y{c}, ' for c in comps)}= y",
             f"    {names(0)}= k = k0",
             "    calls = 1",
             "    try:"]
    for i, (node, row) in enumerate(_TABLEAU, 1):
        if i > 1:
            lines.append(f"        calls = {i}")
        states = [f"y{c} + h * ({combo(row, c)})" for c in comps]
        if i < len(_TABLEAU):
            arg = f"[{', '.join(states)}]"
        else:
            lines += [f"        w{c} = {v}" for c, v in zip(comps, states)]
            news = ", ".join(f"w{c}" for c in comps)
            lines.append(f"        y_new = [{news}]")
            arg = "y_new"
        at = "t + h" if node == 1.0 else f"t + {node!r} * h"
        lines += [f"        k = f({at}, {arg})", f"        {names(i)}= k"]
    # k is f's latest value. Of the wrong length, it made the unpacking
    # raise; of the right one, the ValueError is f's own and propagates.
    lines += ["    except DomainError:",
              "        return calls, None, None, None",
              "    except ValueError:",
              f"        check_length(k, {ny}, t + nodes[calls] * h)",
              "        raise"]
    # The scale max(|y|, |w|) without builtin calls: max(a, b) keeps a
    # unless b > a. The signs of a zero or a NaN may differ from abs()'s,
    # which atol + rtol * s (atol > 0) cannot show. A non-finite w comes
    # with a non-finite error, so the step is rejected whatever the scale.
    for c in comps:
        lines += [f"    a = y{c} if y{c} >= 0.0 else -y{c}",
                  f"    b = w{c} if w{c} >= 0.0 else -w{c}",
                  f"    e{c} = h * ({combo(_E, c)}) / "
                  f"(atol + rtol * (b if b > a else a))"]
    total = " + ".join(f"e{c} * e{c}" for c in comps)
    stages = "".join(names(i) for i in range(len(_TABLEAU) + 1))
    lines.append(f"    return 6, y_new, sqrt(({total}) / {ny}), ({stages})")
    namespace = {"DomainError": DomainError, "sqrt": math.sqrt,
                 "check_length": _check_length,
                 "nodes": (0.0, *(node for node, _ in _TABLEAU))}
    exec(compile("\n".join(lines), f"<DP5(4) attempt, ny = {ny}>", "exec"),
         namespace)
    return namespace["attempt"]


def _bisect_event(g, cols, t_lo: float, t_hi: float) -> float:
    """Largest t (toward t_lo) with g > 0 on the dense-output piece from
    t_lo (coefficients `cols` per component, evaluated in floats with the
    bits of PiecewisePoly.evaluate); bracket g(t_lo) > 0 >= g(t_hi)."""
    t0 = t_lo
    for _ in range(200):
        if abs(t_hi - t_lo) <= _EVENT_XTOL:
            break
        tm = 0.5 * (t_lo + t_hi)
        if g(tm, [power_sum(c, tm - t0) for c in cols]) > 0.0:
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
    _check_length(k0, ny, t0)

    # Nodes, and the signed length and seven stages of each accepted step;
    # states and stages as packed native doubles.
    pack_state = struct.Struct(f"{ny}d").pack
    pack_stages = struct.Struct(f"{7 * ny}d").pack
    ts, ys = array("d", [t0]), bytearray(pack_state(*y))
    hs, ks = array("d"), bytearray()
    rtol, atol, max_step = cfg.rel_tol, cfg.abs_tol, cfg.max_step
    span = abs(tf - t0)
    if cfg.first_step is None:
        n_fev = 2  # the initial state, the probe
        h = _initial_step(f, t0, y, k0, direction, rtol, atol, span)
    else:
        n_fev, h = 1, cfg.first_step
    h = min(h, max_step, span)
    t = t0
    attempt = _attempt(ny)
    expo = -1.0 / ORDER
    attempts = n_rejected = domain_failures = 0
    dense = None

    while True:
        h_min = 1e-14 * max(1.0, abs(t))  # also the span's resolution at t
        left = (tf - t) * direction
        if left <= h_min:
            termination = Termination(kind="completed", xi_stop=t)
            break
        if attempts >= MAX_ATTEMPTS:
            termination = Termination(kind="step_budget", xi_stop=t,
                                      detail={"attempts": attempts})
            break
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
        # min(h, max_step, |tf - t|): left > 0 is |tf - t| exactly.
        if max_step < h:
            h = max_step
        if left < h:
            h = left
        h_signed = direction * h
        attempts += 1

        calls, y_new, err, stages = attempt(f, t, y, k0, h_signed, rtol,
                                            atol)
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
            h *= max(_MIN_FACTOR, _SAFETY * err ** expo)
            continue

        hs.append(h_signed)
        ks += pack_stages(*stages)
        t_new = t + h_signed

        # Event detection at the step endpoint (sign-based: events stay
        # negative past their locus, so crossings are not skipped).
        fired = None
        for ev in cfg.events:
            if ev.g(t_new, y_new) <= 0.0:
                if dense is None:  # the run's, this step included
                    # Views of ys and ks: none may outlive the call, or
                    # the bytearrays cannot grow below (BufferError).
                    dense = _dense_output(
                        np.append(ts, t_new),
                        np.frombuffer(ys).reshape(-1, ny), hs,
                        np.frombuffer(ks).reshape(-1, 7, ny))
                    end = -1 if direction > 0.0 else 0
                    cols = dense.coeffs[:, end].T.tolist()
                t_stop = _bisect_event(ev.g, cols, t, t_new)
                if fired is None or (t_stop - fired[1]) * direction < 0.0:
                    fired = (ev, t_stop)
        if fired is not None:
            ev, t_stop = fired
            if t_stop == t:  # the locus lies within _EVENT_XTOL past t
                del hs[-1], ks[-7 * ny * 8:]  # one step: 7 ny doubles
                dense = None
            else:
                ts.append(t_stop)
                ys += pack_state(*[power_sum(c, t_stop - t) for c in cols])
                dense.breaks[end] = t_stop
            termination = Termination(kind="event", event=ev.name,
                                      xi_stop=t_stop)
            break

        t, y, k0 = t_new, y_new, stages[-ny:]
        ts.append(t)
        ys += pack_state(*y)
        # err <= 1 makes err ** expo >= 1, so the factor is at least
        # _SAFETY > _MIN_FACTOR: only the upper bound can apply.
        factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** expo
        h = h * (factor if factor < _MAX_FACTOR else _MAX_FACTOR)

    ts_arr = np.frombuffer(ts)
    ys_arr = np.frombuffer(ys).reshape(-1, ny)
    if dense is None:
        dense = _dense_output(ts_arr, ys_arr, hs,
                              np.frombuffer(ks).reshape(-1, 7, ny))
    return RawSolution(ts_arr, ys_arr, dense, termination, len(hs),
                       n_rejected, n_fev)
