"""Profiles: solutions (phi, f) as functions of the reduction variable xi.

A profile supplies values and first/second derivatives of phi and f over
its xi-domain through one array-native call,

    phi, dphi, ddphi, f, df, ddf = prof.evaluate(xis)

where every returned array has the shape of ``xis``. ``prof.sample(xi)`` is
the one-point form, returning a :class:`ProfileSample`. Closed-form gallery
entries, numerically integrated solutions and CSV node data share this
interface, so lifting to ambient jets and residual verification never care
where a profile came from; callers evaluate whole batches of xi at once
(sampling filters, lifted residual jets, the FD oracle's stencils, CSV
rows). Numeric profiles evaluate a :class:`PiecewisePoly`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ansatz import QuadricAnsatz, xi_jet
from .errors import OutOfDomain
from .geometry import ScalarJet2


@dataclass(frozen=True)
class ProfileSample:
    """Profile data at a single xi."""

    xi: float
    phi: float
    dphi: float
    ddphi: float
    f: float
    df: float
    ddf: float


@dataclass(frozen=True)
class Termination:
    """How an integration (or closed form) ended."""

    kind: str                  # "completed", "event" or "closed_form"
    event: str | None = None   # event name when kind == "event"
    xi_stop: float | None = None
    detail: dict = field(default_factory=dict)


def _in_domain(xs, lo: float, hi: float) -> np.ndarray:
    """`xs` as a float array, once every entry is inside [lo, hi]."""
    xs = np.asarray(xs, dtype=float)
    if xs.size and not (lo <= xs.min() and xs.max() <= hi):
        bad = xs[~((lo <= xs) & (xs <= hi))].flat[0]
        raise OutOfDomain(f"xi = {bad} outside [{lo}, {hi}]")
    return xs


def power_sum(c, s, derivative: int = 0):
    """d-th derivative of sum_k c[K-1-k] s^k (rows c: floats or arrays),
    adding terms (c s^(k-d)) k!/(k-d)! to 0 by ascending k, s^j a running
    product: scipy's PPoly order, so floats and arrays round alike. Values
    (d = 0) skip the factor, which is then 1."""
    out, z = 0.0, 1.0
    for k in range(derivative, len(c)):
        term = c[-1 - k] * z
        out = out + (term * math.perm(k, derivative) if derivative else term)
        z = z * s
    return out


class PiecewisePoly:
    """Piecewise polynomial over strictly increasing `breaks` (m + 1,):
    piece i, on [breaks[i], breaks[i + 1]], has power-basis coefficients
    `coeffs[:, i]` in s = x - origins[i], highest power first (scipy's
    PPoly layout, shape (K, m, ...)). A break belongs to the piece on its
    right, the last break to the last piece. A single point is one
    constant piece between equal breaks."""

    def __init__(self, breaks, coeffs, origins):
        self.breaks, self.coeffs, self.origins = breaks, coeffs, origins

    def evaluate(self, x, derivative: int = 0) -> np.ndarray:
        """Shape x.shape + coeffs.shape[2:]; OutOfDomain off the breaks."""
        x = _in_domain(x, self.breaks[0], self.breaks[-1])
        i = np.searchsorted(self.breaks[1:-1], x, side="right")
        c = self.coeffs.take(i, axis=1)
        if derivative >= len(c):
            return np.zeros(c.shape[1:])
        s = x - self.origins.take(i)
        return power_sum(c, s.reshape(s.shape + (1,) * (c.ndim - 1 - s.ndim)),
                         derivative)

    def pieces(self) -> list[tuple[float, float, float, np.ndarray]]:
        """(left break, right break, origin, coeffs (K, ...)) per piece."""
        return list(zip(self.breaks[:-1], self.breaks[1:], self.origins,
                        np.moveaxis(self.coeffs, 1, 0)))


class Profile:
    """Interface: profile data over a closed xi-interval.

    Subclasses implement :meth:`evaluate`; :meth:`sample` is its one-point
    form.
    """

    xi_min: float
    xi_max: float
    termination: Termination

    def evaluate(self, xis) -> tuple[np.ndarray, ...]:
        """Arrays (phi, dphi, ddphi, f, df, ddf), each shaped like `xis`.

        Raises OutOfDomain when any xi lies outside [xi_min, xi_max]. Where
        the reduced equations are not evaluable (|phi| or |4 tau xi + L| at
        its guard, h <= 0) the derived entries are NaN.
        """
        raise NotImplementedError

    def sample(self, xi: float) -> ProfileSample:
        return ProfileSample(xi, *(float(v[0]) for v in
                                   self.evaluate(np.array([xi], dtype=float))))


class ClosedFormProfile(Profile):
    """Profile defined by analytic callables for phi, f and derivatives.

    Each callable maps an array of xi to values; a callable returning a
    constant is broadcast.
    """

    def __init__(self, phi: Callable[[np.ndarray], np.ndarray],
                 dphi: Callable[[np.ndarray], np.ndarray],
                 ddphi: Callable[[np.ndarray], np.ndarray],
                 f: Callable[[np.ndarray], np.ndarray],
                 df: Callable[[np.ndarray], np.ndarray],
                 ddf: Callable[[np.ndarray], np.ndarray],
                 domain: tuple[float, float] = (-math.inf, math.inf),
                 name: str = "closed_form"):
        self._fns = (phi, dphi, ddphi, f, df, ddf)
        self.xi_min, self.xi_max = domain
        self.name = name
        self.termination = Termination(kind="closed_form")

    def evaluate(self, xis) -> tuple[np.ndarray, ...]:
        xis = _in_domain(xis, self.xi_min, self.xi_max)
        return tuple(np.full(xis.shape, fn(xis), dtype=float)
                     for fn in self._fns)


def lift(a: QuadricAnsatz, prof: Profile,
         x: np.ndarray) -> tuple[ScalarJet2, ScalarJet2]:
    """Ambient 2-jets of phi(xi(x)) and f(xi(x)) at a point x (n,) or at
    each point of x (..., n), with one `prof.evaluate` call."""
    xi = xi_jet(a, x)
    shape = np.shape(xi.value)
    data = prof.evaluate(np.reshape(xi.value, -1))
    return compose(xi, [v.reshape(shape) for v in data])


def compose(xi: ScalarJet2, data) -> tuple[ScalarJet2, ScalarJet2]:
    """Jets of phi(xi) and f(xi) by the chain rule, from the jet of xi and
    the profile data (phi, dphi, ddphi, f, df, ddf) at its value.

    phi_,i = phi' xi_,i and phi_,ij = phi'' xi_,i xi_,j + phi' xi_,ij, with
    the analogous formulas for f.
    """
    u = xi.gradient
    uu = np.einsum("...i,...j->...ij", u, u)

    def jet(value, d1, d2):
        # u_i u_j = u_j u_i and Hess xi is symmetric, so the Hessian is too.
        d1 = d1[..., None]
        h = d2[..., None, None] * uu
        h += d1[..., None] * xi.hessian
        return ScalarJet2._symmetric(value, d1 * u, h)

    phi, dphi, ddphi, f, df, ddf = data
    return jet(phi, dphi, ddphi), jet(f, df, ddf)
