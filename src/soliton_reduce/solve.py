"""Drivers tying the reduced systems to the integrator, plus profiles
backed by numeric solutions and by CSV node data.

Numeric profiles evaluate a PiecewisePoly: the integrator's dense output
or the CSV nodes' spline. Integrated profiles take second derivatives
from the reduced equations, with the integrator's arithmetic, so along
the dense output those equations hold to round-off by construction: the
residuals of an in-memory numeric profile measure round-off, not
integration error.
CSV-backed profiles differentiate not-a-knot cubic spline fits of the
stored first-derivative columns instead (the equations under test would
assume the conclusion); their residual floor is the spline
reconstruction error, O(dxi^3) in the node spacing.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ProfileMalformed
from .geometry import TOL_PHI
from .profiles import PiecewisePoly, Profile
from .reduction import (
    TOL_SING,
    ReducedState,
    SolitonProblem,
    SpecialParams,
    reduced_rhs,
    reduced_second_derivatives,
    special_jet,
    special_rhs,
)
from .rk import Event, IntegrationConfig, RawSolution, integrate

#: h = phi^2 guard for the constrained branch.
TOL_H = 1e-12

DEFAULT_BLOWUP = 1e8


class _IntegratedProfile(Profile):
    """Profile of one integration run."""

    def __init__(self, problem: SolitonProblem, sol: RawSolution):
        self.problem = problem
        self.solution = sol
        self.nodes, self.states, self.dense = sol.ts, sol.ys, sol.dense
        self.xi_min, self.xi_max = sorted(sol.ts[[0, -1]].tolist())
        self.termination = sol.termination


class ReducedProfile(_IntegratedProfile):
    """Numerically integrated solution of the full second-order system."""

    def evaluate(self, xis) -> tuple[np.ndarray, ...]:
        xis = np.asarray(xis, dtype=float)
        phi, dphi, f, df = np.moveaxis(self.dense.evaluate(xis), -1, 0)
        ddphi, ddf = reduced_second_derivatives(self.problem, xis, phi,
                                                dphi, df)
        return phi, dphi, ddphi, f, df, ddf


class SpecialProfile(_IntegratedProfile):
    """Numerically integrated solution of the constrained branch."""

    def __init__(self, problem: SolitonProblem, sp: SpecialParams,
                 sol: RawSolution):
        super().__init__(problem, sol)
        self.special = sp

    def evaluate(self, xis) -> tuple[np.ndarray, ...]:
        xis = np.asarray(xis, dtype=float)
        h, f = np.moveaxis(self.dense.evaluate(xis), -1, 0)
        phi, dphi, ddphi, df, ddf = special_jet(self.problem, self.special,
                                                xis, h)
        return phi, dphi, ddphi, f, df, ddf


def reduced_events(p: SolitonProblem, initial: ReducedState,
                   blowup: float = DEFAULT_BLOWUP) -> tuple[Event, ...]:
    """Default stop conditions for the second-order system.

    Sign-based so crossings cannot be skipped: each function goes negative
    past its locus and stays negative.
    """
    # Thresholds sit at twice the RHS guards so events fire while the RHS
    # is still evaluable on the admissible side.
    sign_phi, phi_floor = math.copysign(1.0, initial.phi), 2.0 * TOL_PHI
    events = [Event("phi_zero", lambda t, y: sign_phi * y[0] - phi_floor)]
    four_tau, big_l = 4.0 * p.ansatz.tau, p.lambda_constant
    if four_tau != 0.0:
        sign_t = math.copysign(1.0, four_tau * initial.xi + big_l)
        t_floor = 2.0 * TOL_SING
        events.append(Event(
            "singular_locus",
            lambda t, y: sign_t * (four_tau * t + big_l) - t_floor))
    events.append(Event(
        "field_blowup",
        lambda t, y: blowup - max(abs(y[0]), abs(y[1]), abs(y[3]))))
    return tuple(events)


def special_events(blowup: float = DEFAULT_BLOWUP) -> tuple[Event, ...]:
    return (
        Event("h_zero", lambda t, y: y[0] - TOL_H),
        Event("field_blowup", lambda t, y: blowup - abs(y[0])),
    )


def solve_reduced(p: SolitonProblem, initial: ReducedState,
                  cfg: IntegrationConfig) -> ReducedProfile:
    """Integrate the second-order system from the given state."""
    rhs = reduced_rhs(p)
    if cfg.xi_span[0] != initial.xi:
        raise ValueError("xi_span must start at the initial state's xi")
    run = dataclasses.replace(
        cfg, events=cfg.events or reduced_events(p, initial))
    sol = integrate(rhs, initial.as_vector(), run)
    return ReducedProfile(p, sol)


def solve_special(p: SolitonProblem, sp: SpecialParams,
                  cfg: IntegrationConfig) -> SpecialProfile:
    """Integrate the constrained first-order branch from h0 at span start."""
    run = dataclasses.replace(cfg, events=cfg.events or special_events())
    sol = integrate(special_rhs(p, sp), (sp.h0, sp.f0), run)
    return SpecialProfile(p, sp, sol)


def _not_a_knot_spline(x: np.ndarray, y: np.ndarray) -> PiecewisePoly:
    """The not-a-knot cubic splines through the columns of y (n, m) at
    strictly increasing nodes x (n >= 4): one cubic per interval and
    column, in s = xi - x[interval].

    The node slopes solve a tridiagonal system. Interior rows make the
    second derivative continuous across each node; the end rows make the
    third derivative continuous across x[1] and x[-2]. One Thomas sweep
    without pivoting solves it, its multipliers serving every column.
    """
    h = np.diff(x)
    slope = np.diff(y, axis=0) / h[:, None]
    b = np.empty_like(y)
    b[1:-1] = 3 * (h[1:, None] * slope[:-1] + h[:-1, None] * slope[1:])
    hs = h.tolist()
    d0, d1 = float(x[2] - x[0]), float(x[-1] - x[-3])
    b[0] = ((hs[0] + 2 * d0) * hs[1] * slope[0] + hs[0] ** 2 * slope[1]) / d0
    b[-1] = (hs[-1] ** 2 * slope[-2]
             + (2 * d1 + hs[-1]) * hs[-2] * slope[-1]) / d1
    # Row i holds lower[i - 1], diag[i], upper[i].
    lower = [*hs[1:], d1]
    diag = [hs[1], *(2 * (p + q) for p, q in zip(hs, hs[1:])), hs[-2]]
    upper = [d0, *hs[:-1]]
    mult = []
    for i in range(len(lower)):
        mult.append(lower[i] / diag[i])
        diag[i + 1] -= mult[i] * upper[i]
    slopes = []
    for col in b.T.tolist():
        r = col[0]
        fwd = [r]
        for m, p in zip(mult, col[1:]):
            r = p - m * r
            fwd.append(r)
        r = r / diag[-1]
        back = [r]
        for p, u, d in zip(fwd[-2::-1], upper[::-1], diag[-2::-1]):
            r = (p - u * r) / d
            back.append(r)
        slopes.append(back[::-1])
    s = np.array(slopes).T
    # Hermite form of each interval's cubic from its end values and slopes.
    h = h[:, None]
    t = (s[:-1] + s[1:] - 2 * slope) / h
    return PiecewisePoly(x, np.stack((t / h, (slope - s[:-1]) / h - t,
                                      s[:-1], y[:-1])), x[:-1])


class NodeProfile(Profile):
    """Profile reconstructed from sampled (xi, phi, dphi, f, df) rows.

    Each of the four columns gets a not-a-knot cubic spline: C2 through its
    node values, with the third derivative also continuous across the
    second and the second-to-last node. phi and f interpolate their own
    columns; first derivatives come from the splines of the dphi/df
    columns, second derivatives from those splines' derivatives. Nothing
    is taken from the reduced equations, so residual verification of this
    profile is a genuine check of the stored data. Accuracy is limited by
    the node spacing: O(dxi^3) on the second derivatives.
    """

    def __init__(self, xi, phi, dphi, f, df):
        xi = np.asarray(xi, dtype=float)
        if xi.size < 4:
            raise ProfileMalformed("need at least 4 profile rows")
        cols = [np.asarray(c, dtype=float) for c in (phi, dphi, f, df)]
        if any(c.size != xi.size for c in cols):
            raise ProfileMalformed("column lengths differ")
        order = np.argsort(xi)
        xi = xi[order]
        if np.any(np.diff(xi) <= 0):
            raise ProfileMalformed("xi column must be strictly monotone")
        cols = [c[order] for c in cols]
        if not all(np.all(np.isfinite(c)) for c in [xi, *cols]):
            raise ProfileMalformed("non-finite values in profile")
        self.dense = _not_a_knot_spline(xi, np.stack(cols, axis=1))
        self.nodes = xi
        self.xi_min, self.xi_max = float(xi[0]), float(xi[-1])
        self.termination = None

    def evaluate(self, xis) -> tuple[np.ndarray, ...]:
        phi, dphi, f, df = np.moveaxis(self.dense.evaluate(xis), -1, 0)
        ddphi, ddf = np.moveaxis(self.dense.evaluate(xis, 1)[..., 1::2],
                                 -1, 0)
        return phi, dphi, ddphi, f, df, ddf
