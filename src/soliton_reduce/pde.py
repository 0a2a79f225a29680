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

from .geometry import (ScalarJet2, Signature, _batch_major, _columns,
                       _eps_sum, _hessian_entries, _ricci_entries, _scalars,
                       _signed, _tensor)

# As in geometry, each formula is written once, per component, on the
# columns p of phi's jet and q of f's (see geometry._columns); the public
# functions assemble their output from these entries.


def _offdiag_entries(n: int, p: tuple, q: tuple, pairs) -> dict:
    """Entries (i, j) and (j, i) of residual_offdiag for each (i, j) of
    `pairs`. They add the cross terms in opposite order, so they can
    differ in the last bit."""
    (v, gp, hp), (_, gf, hf) = p, q
    (n2,) = _scalars(n - 2)
    out = {}
    for i, j in pairs:
        base = n2 * hp[i, j] + v * hf[i, j]
        ij, ji = gp[i] * gf[j], gp[j] * gf[i]
        out[i, j] = base + ij + ji
        out[j, i] = base + ji + ij
    return out


def _diag_entries(sig: Signature, p: tuple, q: tuple, lam: float) -> list:
    """The n entries of residual_diag."""
    (v, gp, hp), (_, gf, hf) = p, q
    n, eps = sig.n, sig.eps
    n2, n1, two = _scalars(n - 2, n - 1, 2.0)
    common = _eps_sum(eps, (v * hp[k, k] - n1 * (gp[k] * gp[k])
                            - v * gp[k] * gf[k] for k in range(n))) - lam
    return [_signed(eps[i], v * (n2 * hp[i, i] + v * hf[i, i]
                                 + two * gp[i] * gf[i]), common)
            for i in range(n)]


def _trace_entry(sig: Signature, p: tuple, q: tuple, lam: float):
    """residual_trace."""
    (v, gp, hp), (_, gf, hf) = p, q
    n = sig.n
    a, b, c = _scalars(2.0 * (n - 1), n * (n - 1), n - 2)
    a, c, v2 = a * v, c * v, np.square(v)
    return _eps_sum(sig.eps, (a * hp[k, k] - b * (gp[k] * gp[k])
                              + v2 * hf[k, k] - c * gp[k] * gf[k]
                              for k in range(n))) - n * lam


def _tensor_entries(sig: Signature, p: tuple, q: tuple, lam: float) -> dict:
    """Entries (i, j), i <= j, of residual_soliton_tensor: the tensor is
    symmetric, so they hold all its values."""
    out = _ricci_entries(sig, p)
    shift = lam / np.square(p[0])
    for (i, j), h in _hessian_entries(sig, p, q).items():
        out[i, j] = out[i, j] + h
        # lambda * gbar is diagonal: off the diagonal it would only add +-0.
        if i == j:
            out[i, i] = _signed(-sig.eps[i], out[i, i], shift)
    return out


def residual_offdiag(sig: Signature, phi: ScalarJet2,
                     f: ScalarJet2) -> np.ndarray:
    """(n-2) phi_,ij + phi f_,ij + phi_,i f_,j + phi_,j f_,i for every
    (i, j), (..., n, n). Only the entries i != j are equations of the
    system; the diagonal ones are in :func:`residual_diag`."""
    n = sig.n
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return _tensor(n, _offdiag_entries(n, _columns(phi), _columns(f), pairs),
                   np.shape(phi.value))


def residual_diag(sig: Signature, phi: ScalarJet2, f: ScalarJet2,
                  lam: float) -> np.ndarray:
    """Diagonal soliton equation residuals (LHS minus eps_i * lambda) for
    every i, (..., n).

    phi[(n-2) phi_,ii + phi f_,ii + 2 phi_,i f_,i]
      + eps_i (sum_k eps_k [phi phi_,kk - (n-1) phi_,k^2 - phi phi_,k f_,k]
               - lambda).
    """
    return _batch_major(
        np.stack(_diag_entries(sig, _columns(phi), _columns(f), lam)), 1)


def residual_trace(sig: Signature, phi: ScalarJet2, f: ScalarJet2,
                   lam: float) -> float | np.ndarray:
    """Residual of the contracted identity R + lap(f) = n*lambda.

    sum_k eps_k [2(n-1) phi phi_,kk - n(n-1) phi_,k^2 + phi^2 f_,kk
                 - (n-2) phi phi_,k f_,k] - n lambda.
    """
    return _trace_entry(sig, _columns(phi), _columns(f), lam)


def residual_soliton_tensor(sig: Signature, phi: ScalarJet2, f: ScalarJet2,
                            lam: float) -> np.ndarray:
    """Ric_gbar + Hess_gbar(f) - lambda * gbar via the geometric route,
    (..., n, n)."""
    return _tensor(sig.n,
                   _tensor_entries(sig, _columns(phi), _columns(f), lam),
                   np.shape(phi.value))


def tensor_to_scalar_factor(phi_value: float, diagonal: bool) -> float:
    """Factor carrying the tensor-route residual onto the scalar route.

    >>> tensor_to_scalar_factor(2.0, diagonal=False)
    2.0
    >>> tensor_to_scalar_factor(2.0, diagonal=True)
    4.0
    """
    return phi_value ** 2 if diagonal else phi_value
