"""Reduced ODE systems for conformal gradient Ricci solitons.

With phi and f functions of the quadric variable xi, the soliton system
collapses to

    (n-2) phi'' + phi f'' + 2 phi' f' = 0
    2 tau phi [2(n-1) phi' + phi f']
        + [phi phi'' - (n-1) phi'^2 - phi phi' f'] (4 tau xi + L) = lambda

with L the gradient constant of the ansatz. :func:`reduced_rhs` solves the
pair algebraically for the second derivatives. A constrained branch
(2n phi'' + phi f'' = 0, tau != 0) integrates first-order in h = phi^2,
see :func:`special_rhs`. Closed-form solutions live in :func:`gallery`.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ansatz import InvarianceClass, QuadricAnsatz, classify, lambda_constant
from .errors import (
    DegenerateConformalFactor,
    InvalidGalleryParams,
    NonPositiveH,
    NullTranslationDirection,
    RequiresNonzeroTau,
    SingularLocus,
)
from .geometry import TOL_PHI, Signature
from .profiles import ClosedFormProfile, Profile

#: |4 tau xi + Lambda| below this is treated as the singular locus.
TOL_SING = 1e-10


@dataclass(frozen=True)
class ReducedState:
    """State of the second-order system as a first-order vector.

    The fields are floats, or equal-shape arrays for a batch of states.
    """

    xi: float
    phi: float
    dphi: float
    f: float
    df: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.phi, self.dphi, self.f, self.df])


@dataclass(frozen=True)
class SolitonProblem:
    """Full problem statement: signature, ansatz and soliton constant."""

    sig: Signature
    ansatz: QuadricAnsatz
    lam: float

    def __post_init__(self):
        if self.ansatz.sig.n != self.sig.n or not np.array_equal(
                self.ansatz.sig.eps, self.sig.eps):
            raise ValueError("ansatz signature differs from problem signature")

    @property
    def n(self) -> int:
        return self.sig.n

    @cached_property
    def lambda_constant(self) -> float:
        return lambda_constant(self.ansatz)

    @property
    def regime(self) -> str:
        if self.lam > 0:
            return "shrinking"
        if self.lam < 0:
            return "expanding"
        return "steady"

    @property
    def invariance(self) -> InvarianceClass:
        return classify(self.ansatz)


@dataclass(frozen=True)
class SpecialParams:
    """Constants of the constrained first-order branch."""

    c1: float
    c2: float
    h0: float
    f0: float = 0.0

    def __post_init__(self):
        if self.h0 <= 0:
            raise ValueError("h0 = phi^2 at the initial point must be positive")


def check_null_direction(p: SolitonProblem) -> None:
    tau = p.ansatz.tau
    if tau == 0.0 and abs(p.lambda_constant) < TOL_SING:
        raise NullTranslationDirection(
            "tau = 0 with Lambda = 0 (lightlike direction): phi'' undetermined"
        )


def _second_derivatives(p: SolitonProblem, power):
    """(phi'', f'') of problem p from (phi, phi', f', T), T = 4 tau xi + L:
    the diagonal equation is linear in phi'' with coefficient phi * T, and
    the first equation then yields f''. ``power`` is ``pow`` for floats and
    ``np.float_power`` for arrays: both round like libm's pow, where numpy's
    ``**`` does not, so the float and array paths agree bit for bit."""
    check_null_direction(p)
    two_tau, lam, n1, n2 = 2.0 * p.ansatz.tau, p.lam, p.n - 1, p.n - 2

    def second(phi, dphi, df, big_t):
        ddphi = ((lam - two_tau * phi * (2.0 * n1 * dphi + phi * df)) / big_t
                 + n1 * power(dphi, 2) + phi * dphi * df) / phi
        return ddphi, -(n2 * ddphi + 2.0 * dphi * df) / phi
    return second


def reduced_rhs(p: SolitonProblem):
    """Problem p's reduced system for the integrator: the float closure
    rhs(xi, y) -> (phi', phi'', f', f'') with y = (phi, phi', f, f'). p is
    checked once, here; a state at a guard raises DegenerateConformalFactor
    or SingularLocus, DomainErrors that reject the step."""
    second = _second_derivatives(p, pow)
    four_tau, big_l = 4.0 * p.ansatz.tau, p.lambda_constant

    def rhs(xi, y):
        phi, dphi, _, df = y
        big_t = four_tau * xi + big_l
        if abs(phi) <= TOL_PHI:
            raise DegenerateConformalFactor(f"|phi| = {abs(phi):.3e} at guard")
        if abs(big_t) <= TOL_SING:
            raise SingularLocus(
                f"|4*tau*xi + Lambda| = {abs(big_t):.3e} at xi = {xi}")
        ddphi, ddf = second(phi, dphi, df, big_t)
        return dphi, ddphi, df, ddf
    return rhs


def reduced_second_derivatives(p: SolitonProblem, xi, phi, dphi, df):
    """(phi'', f'') at arrays of states; NaN where reduced_rhs raises."""
    big_t = 4.0 * p.ansatz.tau * xi + p.lambda_constant
    big_t = np.where((np.abs(phi) <= TOL_PHI) | (np.abs(big_t) <= TOL_SING),
                     np.nan, big_t)
    return _second_derivatives(p, np.float_power)(phi, dphi, df, big_t)


def _special_slopes(p: SolitonProblem, sp: SpecialParams, power):
    """(h', f') of the constrained branch from (xi, h), h = phi^2 > 0:
    (n-1) h' + c1 h^(-(n-2)/(n+2)) = c2 (4 tau xi + L) + lambda/(2 tau) and
    f' = c1 h^(-2n/(n+2)); ``power`` as in :func:`_second_derivatives`."""
    tau = p.ansatz.tau
    if tau == 0.0:
        raise RequiresNonzeroTau("lambda/(2*tau) undefined at tau = 0")
    n, c1, c2 = p.n, sp.c1, sp.c2
    four_tau, big_l, source = 4.0 * tau, p.lambda_constant, p.lam / (2.0 * tau)
    h_expo, f_expo = -((n - 2) / (n + 2)), -2.0 * n / (n + 2)

    def slopes(xi, h):
        return ((c2 * (four_tau * xi + big_l) + source
                 - c1 * power(h, h_expo)) / (n - 1), c1 * power(h, f_expo))
    return slopes


def special_rhs(p: SolitonProblem, sp: SpecialParams):
    """The constrained branch for the integrator: the float closure
    rhs(xi, y) -> (h', f') with y = (h, f). RequiresNonzeroTau is raised
    here; h <= 0 raises NonPositiveH, a DomainError."""
    slopes = _special_slopes(p, sp, pow)

    def rhs(xi, y):
        h = y[0]
        if h <= 0.0:
            raise NonPositiveH(f"h = {h} at xi = {xi}")
        return slopes(xi, h)
    return rhs


def special_jet(p: SolitonProblem, sp: SpecialParams, xi, h) -> tuple:
    """(phi, phi', phi'', f', f'') from h along the constrained branch, at
    arrays (xi, h); NaN where h <= 0.

    h'' comes from differentiating the first-order relation; then
    phi phi'' = h''/2 - phi'^2 and f'' = -2n/(n+2) c1 h^(-2n/(n+2)-1) h'.
    """
    n = p.n
    expo, f_expo = (n - 2) / (n + 2), -2.0 * n / (n + 2)
    h = np.where(h > 0.0, h, np.nan)
    dh, df = _special_slopes(p, sp, np.float_power)(xi, h)
    ddh = (4.0 * p.ansatz.tau * sp.c2 + sp.c1 * expo
           * np.float_power(h, -expo - 1.0) * dh) / (n - 1)
    phi = np.sqrt(h)
    dphi = dh / (2.0 * phi)
    ddphi = (0.5 * ddh - np.float_power(dphi, 2)) / phi
    ddf = f_expo * sp.c1 * np.float_power(h, f_expo - 1.0) * dh
    return phi, dphi, ddphi, df, ddf


def check_special_constraint(phi, ddphi, ddf, n: int) -> float:
    """max |2n phi'' + phi f''| over the supplied samples."""
    phi = np.asarray(phi, dtype=float)
    ddphi = np.asarray(ddphi, dtype=float)
    ddf = np.asarray(ddf, dtype=float)
    return float(np.max(np.abs(2.0 * n * ddphi + phi * ddf)))


# ---------------------------------------------------------------------------
# Closed-form gallery
# ---------------------------------------------------------------------------

GALLERY_NAMES = ("gaussian", "cigar", "space_form", "n2_polynomial")


@dataclass(frozen=True)
class GalleryEntry:
    """Closed-form solution plus the fully determined problem it solves."""

    name: str
    problem: SolitonProblem
    profile: Profile
    params: dict
    special: SpecialParams | None = None


def _default_ansatz(sig: Signature, tau: float,
                    alpha=None, beta=None) -> QuadricAnsatz:
    n = sig.n
    alpha = np.zeros(n) if alpha is None else np.asarray(alpha, dtype=float)
    beta = np.zeros(n) if beta is None else np.asarray(beta, dtype=float)
    return QuadricAnsatz(tau, alpha, beta, sig)


def _gaussian(k=1.0, tau=1.0, lam=0.0, n=3, eps=None, a2=0.0) -> GalleryEntry:
    if tau == 0.0:
        raise InvalidGalleryParams("gaussian needs tau != 0")
    if k == 0.0:
        raise InvalidGalleryParams("gaussian needs k != 0")
    sig = Signature(eps) if eps is not None else Signature.riemannian(n)
    problem = SolitonProblem(sig, _default_ansatz(sig, tau), lam)
    a1 = lam / (2.0 * tau * k ** 2)
    prof = ClosedFormProfile(
        phi=lambda xi: k, dphi=lambda xi: 0.0, ddphi=lambda xi: 0.0,
        f=lambda xi: a1 * xi + a2, df=lambda xi: a1, ddf=lambda xi: 0.0,
        name="gaussian",
    )
    return GalleryEntry("gaussian", problem, prof,
                        dict(k=k, tau=tau, lam=lam, n=sig.n, a2=a2))


def _cigar(n=2, lam=0.0, tau=1.0) -> GalleryEntry:
    if n != 2:
        raise InvalidGalleryParams("cigar exists only at n = 2")
    if lam != 0.0:
        raise InvalidGalleryParams("cigar is steady: lambda must be 0")
    if tau == 0.0:
        raise InvalidGalleryParams("cigar needs tau != 0")
    sig = Signature.riemannian(2)
    problem = SolitonProblem(sig, _default_ansatz(sig, tau), 0.0)
    prof = ClosedFormProfile(
        phi=lambda xi: np.sqrt(1.0 + xi),
        dphi=lambda xi: 0.5 / np.sqrt(1.0 + xi),
        ddphi=lambda xi: -0.25 * (1.0 + xi) ** -1.5,
        f=lambda xi: -np.log(1.0 + xi),
        df=lambda xi: -1.0 / (1.0 + xi),
        ddf=lambda xi: (1.0 + xi) ** -2.0,
        domain=(-1.0 + 1e-12, math.inf),
        name="cigar",
    )
    special = SpecialParams(c1=-1.0, c2=0.0, h0=1.0, f0=0.0)
    return GalleryEntry("cigar", problem, prof,
                        dict(n=2, lam=0.0, tau=tau), special=special)


def _space_form(b1=1.0, b2=1.0, tau=1.0, n=3, eps=None,
                alpha=None, beta=None, f0=0.0) -> GalleryEntry:
    if b1 == 0.0:
        raise InvalidGalleryParams("space_form needs b1 != 0 (else gaussian)")
    sig = Signature(eps) if eps is not None else Signature.riemannian(n)
    ansatz = _default_ansatz(sig, tau, alpha, beta)
    lam_const = lambda_constant(ansatz)
    forced_lam = (sig.n - 1) * b1 * (4.0 * tau * b2 - b1 * lam_const)
    problem = SolitonProblem(sig, ansatz, forced_lam)
    zero = -b2 / b1
    domain = (zero + 1e-12, math.inf) if b1 > 0 else (-math.inf, zero - 1e-12)
    prof = ClosedFormProfile(
        phi=lambda xi: b1 * xi + b2,
        dphi=lambda xi: b1, ddphi=lambda xi: 0.0,
        f=lambda xi: f0, df=lambda xi: 0.0, ddf=lambda xi: 0.0,
        domain=domain, name="space_form",
    )
    return GalleryEntry("space_form", problem, prof,
                        dict(b1=b1, b2=b2, tau=tau, n=sig.n, f0=f0,
                             forced_lambda=forced_lam))


def _antiderivative_reciprocal_quadratic(a: float, b: float, c: float):
    """Antiderivative of 1/(a x^2 + b x + c) on a component where it is > 0.

    The returned function takes floats or arrays.
    """
    if a == 0.0 and b == 0.0:
        return lambda x: x / c
    if a == 0.0:
        return lambda x: np.log(np.abs(b * x + c)) / b
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        root = math.sqrt(-disc)
        return lambda x: 2.0 / root * np.arctan((2.0 * a * x + b) / root)
    if disc == 0.0:
        return lambda x: -2.0 / (2.0 * a * x + b)
    root = math.sqrt(disc)
    return lambda x: (1.0 / root) * np.log(
        np.abs((2.0 * a * x + b - root) / (2.0 * a * x + b + root)))


def _positive_component(a: float, b: float, c: float,
                        anchor: float) -> tuple[float, float]:
    """Connected component of {a x^2 + b x + c > 0} containing anchor."""
    poly = np.array([a, b, c])
    if a == 0.0 and b == 0.0:
        if c <= 0:
            raise InvalidGalleryParams("h is a non-positive constant")
        return (-math.inf, math.inf)
    if np.polyval(poly, anchor) <= 0.0:
        raise InvalidGalleryParams(f"h(anchor={anchor}) must be positive")
    roots = sorted(r.real for r in np.roots(poly) if abs(r.imag) < 1e-12)
    lo, hi = -math.inf, math.inf
    for r in roots:
        if r < anchor:
            lo = max(lo, r)
        elif r > anchor:
            hi = min(hi, r)
    pad = 1e-12
    lo = lo + pad if math.isfinite(lo) else lo
    hi = hi - pad if math.isfinite(hi) else hi
    return lo, hi


def _n2_polynomial(c1=0.0, c2=0.0, c3=1.0, tau=1.0, lam=0.0, eps=None,
                   alpha=None, beta=None, f0=0.0,
                   xi_anchor=0.0) -> GalleryEntry:
    if tau == 0.0:
        raise InvalidGalleryParams("n2_polynomial needs tau != 0")
    sig = Signature(eps) if eps is not None else Signature.riemannian(2)
    if sig.n != 2:
        raise InvalidGalleryParams("n2_polynomial is the n = 2 closed form")
    ansatz = _default_ansatz(sig, tau, alpha, beta)
    lam_const = lambda_constant(ansatz)
    problem = SolitonProblem(sig, ansatz, lam)
    # h = a xi^2 + b xi + c
    a = 2.0 * c2 * tau
    b = c2 * lam_const + lam / (2.0 * tau) - c1
    c = c3
    domain = _positive_component(a, b, c, xi_anchor)
    prim = _antiderivative_reciprocal_quadratic(a, b, c)
    f_off = f0 - c1 * float(prim(xi_anchor))

    def h(xi):
        return (a * xi + b) * xi + c

    def dh(xi):
        return 2.0 * a * xi + b

    def phi(xi):
        return np.sqrt(h(xi))

    def dphi(xi):
        return dh(xi) / (2.0 * phi(xi))

    def ddphi(xi):
        return (a - dphi(xi) ** 2) / phi(xi)

    prof = ClosedFormProfile(
        phi=phi, dphi=dphi, ddphi=ddphi,
        f=lambda xi: f_off + c1 * prim(xi),
        df=lambda xi: c1 / h(xi),
        ddf=lambda xi: -c1 * dh(xi) / h(xi) ** 2,
        domain=domain, name="n2_polynomial",
    )
    special = SpecialParams(c1=c1, c2=c2, h0=float(h(xi_anchor)), f0=f0)
    return GalleryEntry("n2_polynomial", problem, prof,
                        dict(c1=c1, c2=c2, c3=c3, tau=tau, lam=lam,
                             f0=f0, xi_anchor=xi_anchor), special=special)


_GALLERY = {
    "gaussian": _gaussian,
    "cigar": _cigar,
    "space_form": _space_form,
    "n2_polynomial": _n2_polynomial,
}


def gallery_parameters(name: str) -> dict:
    """The parameters gallery entry `name` takes, with their defaults."""
    return {key: par.default for key, par in
            inspect.signature(_GALLERY[name]).parameters.items()}


def gallery(name: str, **params) -> GalleryEntry:
    """Instantiate a closed-form solution by name."""
    try:
        builder = _GALLERY[name]
    except KeyError:
        raise InvalidGalleryParams(
            f"unknown gallery entry {name!r}; choose from {GALLERY_NAMES}"
        ) from None
    return builder(**params)
