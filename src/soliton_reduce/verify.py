"""End-to-end certification of soliton profiles.

Lifts a profile to ambient points, evaluates every residual family, runs a
finite-difference curvature oracle that shares no code with the analytic
conformal formulas (Christoffel and Ricci assembly from pointwise samples
of the diagonal metric), and aggregates everything into a machine-readable
report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import geometry, pde
from .ansatz import xi_jet, xi_jet_at, xi_values
from .errors import OutOfDomain, SamplingExhausted, StencilOutOfDomain
from .geometry import ScalarJet2, _max_last
from .profiles import Profile, compose
from .reduction import TOL_SING, SolitonProblem

DEFAULT_THRESHOLD = 1e-8

#: Step of the FD oracle's Ricci tensor, the one its gap is reported at.
ORACLE_STEP = 1e-4

#: Coarsest step used for the convergence-rate measurement; finer steps sit
#: on the round-off floor of the doubly nested differences.
RATE_BASE_STEP = 1e-2

#: Largest sampling seed: np.random.Philox takes a 128-bit key.
MAX_SEED = 2 ** 128 - 1


def _check_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SampleSpec:
    """How to draw ambient sample points."""

    box: Sequence[tuple[float, float]]
    mode: str = "random"          # "random" or "grid"
    count: int = 500
    seed: int = 0
    exclusion_phi: float = 1e-8   # min |phi| at accepted points
    exclusion_sing: float = 1e-8  # min |4 tau xi + Lambda|

    def __post_init__(self):
        for name in ("count", "seed"):
            _check_integer(name, getattr(self, name))
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError("seed must be in [0, 2**128 - 1]")
        for lo, hi in self.box:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("box bounds must be finite")
            if not lo < hi:
                raise ValueError("box intervals must be non-degenerate")
        if self.mode not in ("random", "grid"):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if self.mode == "grid" and self.count < 2 ** len(self.box):
            raise ValueError("grid mode needs count >= 2**n (2 per axis)")


@dataclass(frozen=True)
class OracleGap:
    """FD-vs-analytic curvature discrepancy at its step, with rate: inf
    when the oracle's differences vanish (an exact oracle), which the
    report writes as null."""

    gap: float
    step: float
    rate: float


@dataclass(frozen=True)
class ResidualReport:
    max_offdiag: float
    max_diag: float
    max_trace: float
    max_tensor: float
    scale: float
    points_evaluated: int
    threshold: float
    verdict: str
    oracle_gap: OracleGap | None = None
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        d = {
            "max_offdiag": self.max_offdiag,
            "max_diag": self.max_diag,
            "max_trace": self.max_trace,
            "max_tensor": self.max_tensor,
            "scale": self.scale,
            "points_evaluated": self.points_evaluated,
            "threshold": self.threshold,
            "verdict": self.verdict,
            "oracle_gap": None if self.oracle_gap is None else {
                "gap": self.oracle_gap.gap,
                "step": self.oracle_gap.step,
                "rate": self.oracle_gap.rate
                if math.isfinite(self.oracle_gap.rate) else None,
            },
        }
        d.update(self.extras)
        return d

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), allow_nan=False, **kwargs)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _grid_points(spec: SampleSpec) -> np.ndarray:
    """The full grid with k points per axis, k the largest with k**n <=
    count (count >= 2**n is checked by SampleSpec)."""
    n = len(spec.box)
    k = round(spec.count ** (1.0 / n))
    while k ** n > spec.count:
        k -= 1
    while (k + 1) ** n <= spec.count:
        k += 1
    axes = [np.linspace(lo, hi, k) for lo, hi in spec.box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _evaluable_phi(prof: Profile, xis: np.ndarray) -> np.ndarray:
    """phi at each xi; NaN outside the profile's domain and wherever any of
    its data is not finite."""
    phi = np.full(xis.shape, np.nan)
    inside = (prof.xi_min <= xis) & (xis <= prof.xi_max)
    data = np.stack(prof.evaluate(xis[inside]))
    phi[inside] = np.where(np.all(np.isfinite(data), axis=0), data[0],
                           np.nan)
    return phi


def _screen(p: SolitonProblem, prof: Profile, spec: SampleSpec,
            xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The admissible rows of the candidate points xs (k, n), in order:
    xi inside the profile's domain and clear of the singular locus, every
    profile datum finite, |phi| at least the exclusion. Returned as the
    points (m, n), xi there (m,) and the profile data at xi, rows (phi,
    dphi, ddphi, f, df, ddf) of a (6, m) array, each computed once per
    candidate."""
    xis = xi_values(p.ansatz, xs)
    ok = (prof.xi_min <= xis) & (xis <= prof.xi_max)
    tau = p.ansatz.tau
    if tau != 0.0:
        ok &= np.abs(4.0 * tau * xis + p.lambda_constant) \
            >= max(spec.exclusion_sing, TOL_SING)
    data = np.stack(prof.evaluate(xis[ok]))
    good = np.all(np.isfinite(data), axis=0) \
        & (np.abs(data[0]) >= max(spec.exclusion_phi, geometry.TOL_PHI))
    ok[ok] = good
    return xs[ok], xis[ok], data[:, good]


def _sample(p: SolitonProblem, prof: Profile,
            spec: SampleSpec) -> tuple[np.ndarray, ...]:
    """The accepted points of :func:`draw_points`, with xi and the profile
    data there as `_screen` returns them."""
    if len(spec.box) != p.n:
        raise ValueError("box dimension differs from problem dimension")
    if spec.mode == "grid":
        sample = _screen(p, prof, spec, _grid_points(spec))
        if not len(sample[0]):
            raise SamplingExhausted("no grid point satisfies the exclusions")
        return sample
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    lo = np.array([b[0] for b in spec.box])
    hi = np.array([b[1] for b in spec.box])
    batches: list[tuple[np.ndarray, ...]] = []
    n_accepted = 0
    max_draws = 200 * spec.count
    drawn = 0
    while n_accepted < spec.count:
        if drawn >= max_draws:
            raise SamplingExhausted(
                f"{n_accepted}/{spec.count} points after {drawn} draws"
            )
        short = spec.count - n_accepted
        size = spec.count
        if n_accepted:
            # Enough draws to meet the shortfall at the acceptance seen so
            # far with four binomial standard deviations (each at most
            # sqrt(short)) to spare: one follow-up batch nearly always does.
            size = min(size, math.ceil((short + 4.0 * math.sqrt(short))
                                       * drawn / n_accepted))
        size = min(size, max_draws - drawn)
        xs, xis, data = _screen(p, prof, spec,
                                rng.uniform(lo, hi, size=(size, p.n)))
        drawn += size
        batches.append((xs[:short], xis[:short], data[:, :short]))
        n_accepted += len(batches[-1][0])
    xs, xis, data = zip(*batches)
    return (np.concatenate(xs), np.concatenate(xis),
            np.concatenate(data, axis=1))


def draw_points(p: SolitonProblem, prof: Profile,
                spec: SampleSpec) -> np.ndarray:
    """Sample points satisfying the domain and exclusion constraints.

    Grid mode keeps every admissible point of the full grid. Random draws
    use the counter-based Philox generator keyed by the seed and keep
    admissible points in draw order. The first batch holds `count` draws;
    each later one is sized from the shortfall and the acceptance seen so
    far, capped at `count` and at the 200 * `count` draw budget. Philox is
    one stream whatever the batch sizes, so the points are those that
    batches of `count` would keep; reports are reproducible and
    independent of evaluation order.
    """
    return _sample(p, prof, spec)[0]


# ---------------------------------------------------------------------------
# Residual evaluation
# ---------------------------------------------------------------------------

def _residuals(p: SolitonProblem, xi: ScalarJet2,
               data) -> tuple[tuple[np.ndarray, ...], ScalarJet2]:
    """Per-point max-abs residuals of the four families (off-diagonal and
    diagonal scalar equations, trace identity, tensor equation) from the
    jet of xi and the profile data (phi, dphi, ddphi, f, df, ddf) at its
    value; also the jet of phi."""
    phi, f = compose(xi, data)
    sig, lam = p.sig, p.lam
    # Both (i, j) and (j, i): they add the cross terms in opposite order,
    # so they can differ in the last bit.
    off = pde.residual_offdiag(sig, phi, f)[..., ~np.eye(p.n, dtype=bool)]
    off = _max_last(np.abs(off, out=off))
    diag = _max_last(np.abs(pde.residual_diag(sig, phi, f, lam)))
    trace = np.abs(pde.residual_trace(sig, phi, f, lam))
    tensor = pde.residual_soliton_tensor(sig, phi, f, lam)
    np.abs(tensor, out=tensor)
    tensor = _max_last(tensor.reshape(tensor.shape[:-2] + (-1,)))
    return (off, diag, trace, tensor), phi


def residual_maxima(p: SolitonProblem, prof: Profile,
                    xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-point max-abs residuals of all four families at ambient points
    xs (m, n): off-diagonal and diagonal scalar equations, the trace
    identity and the tensor equation. Also returns phi and phi'' there."""
    xi = xi_jet(p.ansatz, xs)
    data = prof.evaluate(xi.value)
    maxima, _ = _residuals(p, xi, data)
    return (*maxima, data[0], data[2])


def residual_scale(lam: float, phi: np.ndarray, ddphi: np.ndarray) -> float:
    """Problem-scale factor: max(1, |lambda|, sup |phi * phi''|)."""
    return max(1.0, abs(lam), float(np.max(np.abs(phi * ddphi))))


def verify_profile(p: SolitonProblem, prof: Profile, spec: SampleSpec,
                   threshold: float = DEFAULT_THRESHOLD,
                   oracle_points: int = 3) -> ResidualReport:
    """Evaluate every residual family over the sample; aggregate maxima.

    Each sample point is screened, evaluated and lifted once: the residuals
    and the oracle's analytic side reuse what the sampling pass computed.
    The oracle runs on the first `oracle_points` sample points.
    """
    _check_integer("oracle_points", oracle_points)
    if oracle_points < 0:
        raise ValueError(f"oracle_points must be >= 0, got {oracle_points}")
    xs, xis, data = _sample(p, prof, spec)
    (off, diag, trace, tensor), phi = _residuals(
        p, xi_jet_at(p.ansatz, xs, xis), data)
    scale = residual_scale(p.lam, data[0], data[2])
    maxima = {
        "max_offdiag": float(np.max(off)) / scale,
        "max_diag": float(np.max(diag)) / scale,
        "max_trace": float(np.max(trace)) / scale,
        "max_tensor": float(np.max(tensor)) / scale,
    }
    verdict = "pass" if all(v <= threshold for v in maxima.values()) \
        else "fail"

    gap = _profile_oracle_gap(p, prof, xs[:oracle_points], phi)
    return ResidualReport(
        **maxima,
        scale=scale,
        points_evaluated=len(xs),
        threshold=threshold,
        verdict=verdict,
        oracle_gap=gap,
        extras={
            "mean_offdiag": float(np.mean(off)) / scale,
            "mean_diag": float(np.mean(diag)) / scale,
            "mean_trace": float(np.mean(trace)) / scale,
            "mean_tensor": float(np.mean(tensor)) / scale,
        },
    )


def _profile_oracle_gap(p: SolitonProblem, prof: Profile, xs: np.ndarray,
                        phi: ScalarJet2) -> OracleGap | None:
    """Compare the FD Ricci of gbar at the points xs (k, n) with the
    analytic conformal formula, applied to the first k rows of `phi`, the
    jet of phi at the sample points that start with xs.

    Points whose stencil leaves the profile's domain, or meets a point
    where the profile is not evaluable, are skipped.
    """
    def phi_field(pts):
        return _evaluable_phi(prof, xi_values(p.ansatz, pts))

    ricci_fd, rates = fd_curvature_oracle(p.sig, phi_field, xs, ORACLE_STEP)
    ok = np.flatnonzero(~np.isnan(rates))
    if not len(ok):
        return None
    phi = ScalarJet2(phi.value[ok], phi.gradient[ok], phi.hessian[ok])
    gaps = np.max(np.abs(ricci_fd[ok] - geometry.conformal_ricci(p.sig, phi)),
                  axis=(-2, -1))
    worst = int(np.argmax(gaps))
    return OracleGap(gap=float(gaps[worst]), step=ORACLE_STEP,
                     rate=float(rates[ok][worst]))


# ---------------------------------------------------------------------------
# Finite-difference curvature oracle
# ---------------------------------------------------------------------------
#
# Fields (phi, and f for the Hessian) map an array of points, shape
# (..., n), to the field there, shape (...). They may return NaN where the
# field is not evaluable, or raise OutOfDomain / ValueError for the whole
# call. A step is a float, or an array that broadcasts over the leading
# axes of the points it is used with.

def _lead(step, k: int) -> np.ndarray:
    """step with k trailing unit axes, to broadcast over the leading axes."""
    return np.reshape(step, np.shape(step) + (1,) * k)


def _stencil(xs: np.ndarray, step) -> np.ndarray:
    """x, then x + step e_l and x - step e_l for l = 0..n-1, around each
    point of xs (..., n): shape (..., 2n+1, n)."""
    n = xs.shape[-1]
    unit = np.zeros((2 * n + 1, n))
    unit[1::2] = np.eye(n)
    unit[2::2] = -np.eye(n)
    return xs[..., None, :] + _lead(step, 2) * unit


def _central(values: np.ndarray, step, k: int) -> np.ndarray:
    """Central differences along a stencil axis with k axes after it:
    (..., 2n+1, *tail) -> (..., n, *tail), one per direction."""
    tail = (slice(None),) * k
    plus = values[(Ellipsis, slice(1, None, 2)) + tail]
    minus = values[(Ellipsis, slice(2, None, 2)) + tail]
    return (plus - minus) / (2.0 * _lead(step, k + 1))


def _field_at(field, pts: np.ndarray) -> np.ndarray:
    try:
        return np.asarray(field(pts), dtype=float)
    except (OutOfDomain, ValueError) as exc:
        raise StencilOutOfDomain("field not evaluable on the stencil") from exc


def _christoffel(sig, phi: np.ndarray, step) -> np.ndarray:
    """Gamma[..., k, i, j] of gbar = g / phi^2 from phi on a stencil
    (..., 2n+1), through the samples g_kk of the diagonal metric and the
    general formula, which for a diagonal metric reads

        Gamma^k_ij = 1/2 g^kk (d_i g_jk + d_j g_ik - d_k g_ij),

    g^kk = 1 / g_kk. It is non-zero only where i = j or k is i or j:
    1/2 g^kk d_j g_kk at (k, k, j) and (k, j, k), -1/2 g^kk d_k g_ii at
    (k, i, i) for i != k."""
    n = sig.n
    g = sig.eps / phi[..., None] ** 2
    dg = _central(g, step, 1)  # dg[..., l, k] = d_l g_kk
    ginv = 1.0 / g[..., 0, :, None]
    own = 0.5 * (ginv * np.swapaxes(dg, -1, -2))  # own[..., k, j]
    idx = np.arange(n)
    gamma = np.zeros(g.shape[:-2] + (n, n, n))
    gamma[..., :, idx, idx] = 0.5 * (ginv * -dg)
    gamma[..., idx, idx, :] = own
    np.swapaxes(gamma, -1, -2)[..., idx, idx, :] = own
    return gamma


def _ricci(sig, phi: np.ndarray, step) -> np.ndarray:
    """Ric[..., i, j] of gbar from phi on the nested stencil
    (..., 2n+1, 2n+1): central differences of the Christoffel symbols."""
    n = sig.n
    gamma = _christoffel(sig, phi, _lead(step, 1))
    dgamma = _central(gamma, step, 3)
    g0 = gamma[..., 0, :, :, :]
    ric = 0.0
    for k in range(n):
        ric = ric + (dgamma[..., k, k, :, :] - dgamma[..., :, k, k, :])
        for m in range(n):
            ric = ric + (g0[..., k, k, m, None, None] * g0[..., m, :, :]
                         - g0[..., k, :, m, None] * g0[..., m, k, None, :])
    return 0.5 * (ric + np.swapaxes(ric, -1, -2))


def fd_curvature_oracle(sig, phi_field, x: np.ndarray,
                        step: float = ORACLE_STEP):
    """Ricci tensor of gbar by nested central differences, plus its
    empirical convergence rate under step-halving.

    `x` is one point (n,) or a batch (m, n); results are (n, n) and a
    float, or (m, n, n) and (m,). The nested stencils of every point at
    all four steps go to `phi_field` in one call and to the Christoffel
    and Ricci assembly in one pass. A point whose stencil holds a
    non-finite phi gets a NaN tensor and rate.

    The assembly uses only pointwise samples g_kk = eps_k / phi^2 of the
    diagonal metric, the Christoffel formula of a diagonal metric and the
    general Ricci formula; it shares no code path with the conformal
    shortcut it certifies. The rate is measured at a coarser base step
    where truncation still dominates round-off; it is inf where the
    differences between the Ricci tensors of successive steps vanish,
    as for a constant phi.
    """
    x = np.asarray(x, dtype=float)
    xs = np.atleast_2d(x)
    h0 = max(step, RATE_BASE_STEP)
    h = np.array([step, h0, h0 / 2.0, h0 / 4.0])[:, None]
    phi = _field_at(phi_field, _stencil(_stencil(xs, h), _lead(h, 1)))
    ok = np.all(np.isfinite(phi), axis=(0, 2, 3))
    ric = _ricci(sig, phi[:, ok], h)
    ricci = np.full((len(xs), sig.n, sig.n), np.nan)
    ricci[ok] = ric[0]
    d1, d2 = np.linalg.norm(ric[1:3] - ric[2:], axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.where((d2 == 0.0) | ~(d1 > 0.0), np.inf,
                         np.log2(d1 / d2))
    rate = np.full(len(xs), np.nan)
    rate[ok] = rates
    if x.ndim == 1:
        return ricci[0], float(rate[0])
    return ricci, rate


def fd_hessian_oracle(sig, phi_field, f_field, x: np.ndarray,
                      step: float = ORACLE_STEP) -> np.ndarray:
    """Covariant Hessian of f in gbar by central differences.

    `x` is one point (n,) or a batch (m, n); the result is (n, n) or
    (m, n, n). f is evaluated on the nested stencil, phi on its centre row
    (the simple stencil around x), one field call each. The gradient and
    the Christoffel symbols come from the centre row; the Hessian of f
    from the nested central differences, whose diagonal entries are
    second differences with step 2 * step. A point whose stencil holds a
    non-finite phi or f gets a NaN Hessian.
    """
    x = np.asarray(x, dtype=float)
    pts = _stencil(_stencil(np.atleast_2d(x), step), step)
    f = _field_at(f_field, pts)
    phi = _field_at(phi_field, pts[:, 0])
    ok = np.all(np.isfinite(phi), axis=-1) \
        & np.all(np.isfinite(f), axis=(-2, -1))
    f = f[ok]
    gamma = _christoffel(sig, phi[ok], step)
    grad = _central(f[:, 0], step, 0)
    hess = _central(_central(f, step, 0), step, 1)
    out = np.full((len(ok), sig.n, sig.n), np.nan)
    out[ok] = 0.5 * (hess + np.swapaxes(hess, -1, -2)) \
        - np.sum(gamma * grad[..., :, None, None], axis=-3)
    return out[0] if x.ndim == 1 else out
