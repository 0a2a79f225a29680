"""Pointwise residuals of the conformal gradient-soliton PDE system.

Two independent routes are provided. The scalar route evaluates the
component equations directly from jets of phi and f; the tensor route
assembles Ric + Hess(f) - lambda*gbar from the exact conformal-geometry
formulas. They agree up to a bookkeeping factor in phi:

    scalar off-diagonal residual = phi   * tensor residual (i != j)
    scalar diagonal residual     = phi^2 * tensor residual (i == i)

The factor table is frozen in :func:`tensor_to_scalar_factor` and pinned by
the test suite; the trace residual equals the eps-weighted phi^2-trace of
the tensor residual. Every residual takes jets at one point or at a batch
of points and returns one value (or tensor) per point.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .geometry import ScalarJet2, Signature, _col, _diag, _sum_last


def residual_offdiag(sig: Signature, phi: ScalarJet2,
                     f: ScalarJet2) -> np.ndarray:
    """(n-2) phi_,ij + phi f_,ij + phi_,i f_,j + phi_,j f_,i for every
    (i, j), (..., n, n). Only the entries i != j are equations of the
    system; the diagonal ones are in :func:`residual_diag`."""
    cross = np.einsum("...i,...j->...ij", phi.gradient, f.gradient)
    return ((sig.n - 2) * phi.hessian + _col(phi.value, 2) * f.hessian
            + cross + np.swapaxes(cross, -1, -2))


def residual_diag(sig: Signature, phi: ScalarJet2, f: ScalarJet2,
                  lam: float) -> np.ndarray:
    """Diagonal soliton equation residuals (LHS minus eps_i * lambda) for
    every i, (..., n).

    phi[(n-2) phi_,ii + phi f_,ii + 2 phi_,i f_,i]
      + eps_i (sum_k eps_k [phi phi_,kk - (n-1) phi_,k^2 - phi phi_,k f_,k]
               - lambda).
    """
    eps = sig.eps
    n = sig.n
    v = _col(phi.value)
    gp, gf = phi.gradient, f.gradient
    common = _sum_last(eps * (v * _diag(phi.hessian) - (n - 1) * gp ** 2
                              - v * gp * gf))
    own = v * ((n - 2) * _diag(phi.hessian) + v * _diag(f.hessian)
               + 2.0 * gp * gf)
    return own + eps * (_col(common) - lam)


def residual_trace(sig: Signature, phi: ScalarJet2, f: ScalarJet2,
                   lam: float) -> float | np.ndarray:
    """Residual of the contracted identity R + lap(f) = n*lambda.

    sum_k eps_k [2(n-1) phi phi_,kk - n(n-1) phi_,k^2 + phi^2 f_,kk
                 - (n-2) phi phi_,k f_,k] - n lambda.
    """
    eps = sig.eps
    n = sig.n
    v = _col(phi.value)
    gp, gf = phi.gradient, f.gradient
    total = _sum_last(eps * (2.0 * (n - 1) * v * _diag(phi.hessian)
                             - n * (n - 1) * gp ** 2
                             + np.square(v) * _diag(f.hessian)
                             - (n - 2) * v * gp * gf))
    return total - n * lam


def residual_soliton_tensor(sig: Signature, phi: ScalarJet2, f: ScalarJet2,
                            lam: float) -> np.ndarray:
    """Ric_gbar + Hess_gbar(f) - lambda * gbar via the geometric route,
    (..., n, n)."""
    out = geometry.conformal_ricci(sig, phi)
    out += geometry.conformal_hessian(sig, phi, f)
    # lambda * gbar is diagonal: off the diagonal it would only add +-0.
    idx = np.arange(sig.n)
    out[..., idx, idx] -= lam * sig.eps / _col(np.square(phi.value))
    return out


def tensor_to_scalar_factor(phi_value: float, diagonal: bool) -> float:
    """Factor carrying the tensor-route residual onto the scalar route.

    >>> tensor_to_scalar_factor(2.0, diagonal=False)
    2.0
    >>> tensor_to_scalar_factor(2.0, diagonal=True)
    4.0
    """
    return phi_value ** 2 if diagonal else phi_value
