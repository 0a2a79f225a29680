"""The quadric reduction variable xi and its admissibility test.

xi(x) = sum_k (tau * eps_k * x_k^2 + alpha_k * x_k + beta_k) is the most
general substitution that collapses the conformal soliton PDE system to
ODEs in the single variable xi. Its level sets are invariant under either
an (n-1)-parameter translation group (tau = 0) or the pseudo-orthogonal
group about a center (tau != 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateAnsatz, DegenerateSamplePoint
from .geometry import ScalarJet2, Signature, _batch_major, _sum_last

#: Denominators smaller than this flag a sample point as unusable.
TOL_DENOM = 1e-12

#: Normalized least-squares residual below which a field counts as quadric.
TOL_FIT = 1e-8


@dataclass(frozen=True)
class QuadricAnsatz:
    """Parameters (tau, alpha, beta) of the quadric reduction variable."""

    tau: float
    alpha: np.ndarray
    beta: np.ndarray
    sig: Signature

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        n = self.sig.n
        if alpha.shape != (n,) or beta.shape != (n,):
            raise ValueError("alpha/beta length must equal the dimension")
        if self.tau == 0.0 and not np.any(alpha):
            raise DegenerateAnsatz("tau = 0 and alpha = 0: xi is constant")
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def n(self) -> int:
        return self.sig.n

    def canonical(self) -> "QuadricAnsatz":
        """Equivalent ansatz with sum(beta) stored in beta[0].

        Only the total sum(beta) enters xi and Lambda; this removes the
        spurious per-coordinate redundancy from configurations.
        """
        beta = np.zeros(self.n)
        beta[0] = float(np.sum(self.beta))
        return QuadricAnsatz(self.tau, self.alpha, beta, self.sig)


@dataclass(frozen=True)
class InvarianceClass:
    """Symmetry group of the level sets of xi."""

    kind: str  # "translational" or "pseudo_rotational"
    direction: np.ndarray | None = None  # translational: the normal alpha
    causal_character: str | None = None  # translational: sign class of Lambda
    center: np.ndarray | None = None     # pseudo-rotational: center point


def xi_values(a: QuadricAnsatz, xs: np.ndarray) -> np.ndarray:
    """xi at every point of `xs`, an array of shape (..., n)."""
    xs = np.asarray(xs, dtype=float)
    if xs.shape[-1:] != (a.n,):
        raise ValueError("point dimension mismatch")
    return _sum_last(a.tau * a.sig.eps * xs ** 2 + a.alpha * xs + a.beta)


def xi_jet(a: QuadricAnsatz, x: np.ndarray) -> ScalarJet2:
    """Exact 2-jet of xi at a point x (n,) or at each point of x (..., n)."""
    x = np.asarray(x, dtype=float)
    return xi_jet_at(a, x, xi_values(a, x))


def xi_jet_at(a: QuadricAnsatz, x: np.ndarray, value) -> ScalarJet2:
    """The 2-jet of xi at x (..., n) whose values `value` (...) are already
    computed: the gradient and Hessian of the ansatz around them. The
    gradient is stored component-major, a view of an (n, ...) array; the
    Hessian, diagonal and the same at every point, is a read-only
    broadcast view."""
    b = x.ndim - 1
    unit = (a.n,) + (1,) * b
    slope = 2.0 * a.tau * a.sig.eps
    # order="C": the transposed x would otherwise make grad's rows strided.
    grad = (np.multiply(slope.reshape(unit), x.transpose((b, *range(b))),
                        order="C") + a.alpha.reshape(unit))
    hess = np.broadcast_to(np.diag(slope), x.shape + (a.n,))
    return ScalarJet2._symmetric(value, _batch_major(grad, 1), hess)


def lambda_constant(a: QuadricAnsatz) -> float:
    """Lambda = sum_k (eps_k * alpha_k^2 - 4 tau beta_k).

    Satisfies sum_k eps_k (xi_,k)^2 = 4 tau xi + Lambda identically (the
    alpha enters squared; the gradient identity pins this form).
    """
    return float(np.sum(a.sig.eps * a.alpha ** 2 - 4.0 * a.tau * a.beta))


def classify(a: QuadricAnsatz) -> InvarianceClass:
    """Symmetry classification of the ansatz.

    tau = 0: translation-invariant along every v with <alpha, v> = 0; the
    causal character of the normal is the sign of Lambda = |alpha|^2_eps.
    tau != 0: invariant under the pseudo-orthogonal group about the center
    c_k = -eps_k alpha_k / (2 tau) obtained by completing the square.
    """
    if a.tau == 0.0:
        lam = lambda_constant(a)
        if lam > 0:
            causal = "spacelike_normal"
        elif lam < 0:
            causal = "timelike_normal"
        else:
            causal = "lightlike_normal"
        return InvarianceClass(kind="translational",
                               direction=a.alpha.copy(),
                               causal_character=causal)
    center = -a.sig.eps * a.alpha / (2.0 * a.tau)
    return InvarianceClass(kind="pseudo_rotational", center=center)


def _ratio_matrix(xi: ScalarJet2) -> np.ndarray:
    """Off-diagonal ratios xi_,ij / (xi_,i xi_,j); NaN on the diagonal."""
    g = xi.gradient
    if np.any(np.abs(g) < TOL_DENOM):
        raise DegenerateSamplePoint("some xi_,i vanishes at the sample point")
    out = xi.hessian / np.outer(g, g)
    np.fill_diagonal(out, np.nan)
    return out


def fit_quadric_parameters(
    sig: Signature,
    points: Sequence[np.ndarray],
    jets: Sequence[ScalarJet2],
) -> tuple[float, np.ndarray, float]:
    """Least-squares fit of (tau, alpha) from gradient ratios.

    For an admissible field the gradients satisfy, for all i != j,
    xi_,i * (2 tau eps_j x_j + alpha_j) = xi_,j * (2 tau eps_i x_i + alpha_i),
    a homogeneous linear system in (tau, alpha). The smallest right singular
    vector gives the fit; the returned residual is the smallest singular
    value normalized by the largest. Needs at least n + 1 points.
    """
    n = sig.n
    if len(points) < n + 1:
        raise ValueError(f"need at least {n + 1} sample points")
    rows = []
    for x, jet in zip(points, jets):
        g = jet.gradient
        if np.any(np.abs(g) < TOL_DENOM):
            raise DegenerateSamplePoint("vanishing xi_,i in fit sample")
        for i in range(n):
            for j in range(i + 1, n):
                row = np.zeros(n + 1)
                row[0] = 2.0 * (g[i] * sig.eps[j] * x[j]
                                - g[j] * sig.eps[i] * x[i])
                row[1 + j] = g[i]
                row[1 + i] = -g[j]
                rows.append(row)
    m = np.asarray(rows)
    # Row scale so the residual is relative to the gradient magnitudes.
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0.0] = 1.0
    m = m / norms[:, None]
    _, s, vt = np.linalg.svd(m, full_matrices=False)
    v = vt[-1]
    residual = float(s[-1] / s[0]) if s[0] > 0 else 0.0
    tau, alpha = float(v[0]), v[1:].copy()
    # Fix an overall scale/sign gauge: largest entry positive, unit norm.
    k = int(np.argmax(np.abs(v)))
    scale = np.sign(v[k]) * np.linalg.norm(v)
    return tau / scale, alpha / scale, residual


def admissibility_residual(
    sig: Signature,
    x: np.ndarray,
    xi: ScalarJet2,
    tau: float,
    alpha: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise admissibility data for a candidate reduction variable.

    Returns (a) the matrix of ratios xi_,ij/(xi_,i xi_,j) for i != j, whose
    off-diagonal entries must all agree at the point for an F(xi) to exist,
    and (b) the pairwise deviations of xi_,i / (2 tau eps_i x_i + alpha_i)
    for the fitted (tau, alpha), all of which must vanish.
    """
    ratios = _ratio_matrix(xi)
    x = np.asarray(x, dtype=float)
    denom = 2.0 * tau * sig.eps * x + alpha
    if np.any(np.abs(denom) < TOL_DENOM):
        raise DegenerateSamplePoint(
            "fitted denominator 2*tau*eps_i*x_i + alpha_i vanishes"
        )
    q = xi.gradient / denom
    dev = q[:, None] - q[None, :]
    return ratios, dev[np.triu_indices(sig.n, k=1)]


def is_admissible(
    sig: Signature,
    field_jet: Callable[[np.ndarray], ScalarJet2],
    points: Sequence[np.ndarray],
    tol: float = TOL_FIT,
) -> tuple[bool, float]:
    """Whether a user-supplied field passes the quadric admissibility test.

    Fits (tau, alpha) over the sample, then takes the worst pointwise
    deviation together with the fit residual. Points where a derivative or
    denominator vanishes must be avoided by the caller (the fit raises
    DegenerateSamplePoint there).
    """
    jets = [field_jet(np.asarray(x, dtype=float)) for x in points]
    tau, alpha, fit_res = fit_quadric_parameters(sig, points, jets)
    worst = fit_res
    for x, jet in zip(points, jets):
        ratios, dev = admissibility_residual(sig, x, jet, tau, alpha)
        off = ratios[~np.isnan(ratios)]
        spread = float(np.max(off) - np.min(off)) if off.size else 0.0
        scale = max(1.0, float(np.max(np.abs(off)))) if off.size else 1.0
        worst = max(worst, spread / scale, float(np.max(np.abs(dev))))
    return worst <= tol, worst
