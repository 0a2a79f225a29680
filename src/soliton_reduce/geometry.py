"""Curvature of conformally rescaled flat pseudo-Riemannian metrics.

The background is R^n with the diagonal metric g_ij = delta_ij * eps_i,
eps_i = +/-1. Everything here evaluates exact closed-form expressions for
the rescaled metric gbar = g / phi^2, given second-order jets (value,
gradient, Hessian) of the scalar fields involved, at one point or at a
batch of points at once. No numerical differentiation happens in this
module; finite differences live only in the independent oracle in
:mod:`soliton_reduce.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConformalFactor

#: Below this |phi|, 1/phi^2 carries no significance in double precision.
TOL_PHI = 1e-12


@dataclass(frozen=True)
class Signature:
    """Diagonal signs eps_i of the flat background metric."""

    eps: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float)
        if eps.ndim != 1 or eps.size < 2:
            raise ValueError("signature needs at least 2 entries")
        if not np.all(np.abs(eps) == 1.0):
            raise ValueError("signature entries must be +1 or -1")
        if not np.any(eps == 1.0):
            raise ValueError("signature needs at least one +1 entry")
        object.__setattr__(self, "eps", eps)

    @property
    def n(self) -> int:
        return self.eps.size

    @classmethod
    def riemannian(cls, n: int) -> "Signature":
        return cls(np.ones(n))

    @classmethod
    def lorentzian(cls, n: int) -> "Signature":
        eps = np.ones(n)
        eps[-1] = -1.0
        return cls(eps)


@dataclass(frozen=True)
class ScalarJet2:
    """Second-order jets of a scalar field at one point or a batch of points.

    For a batch shape (...): value (...), gradient (..., n), hessian
    (..., n, n); at a single point the value is a float. The Hessian is
    symmetrized on construction so downstream tensor symmetry is exact,
    not approximate.

    The builders whose Hessians are symmetric by construction, the chain
    rule of :func:`soliton_reduce.profiles.compose` and the quadric's
    :func:`soliton_reduce.ansatz.xi_jet_at`, skip that step through
    :meth:`_symmetric`: for an exactly symmetric H, 0.5 * (H + H^T)
    returns H bit for bit, so skipping it changes nothing.
    """

    value: float | np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        value = np.asarray(self.value, dtype=float)
        grad = np.asarray(self.gradient, dtype=float)
        hess = np.asarray(self.hessian, dtype=float)
        if grad.shape[:-1] != value.shape or grad.ndim != value.ndim + 1:
            raise ValueError("gradient shape does not match value shape")
        if hess.shape != grad.shape + grad.shape[-1:]:
            raise ValueError("hessian shape does not match gradient length")
        object.__setattr__(self, "value",
                           float(value) if value.ndim == 0 else value)
        object.__setattr__(self, "gradient", grad)
        object.__setattr__(self, "hessian",
                           0.5 * (hess + np.swapaxes(hess, -1, -2)))

    @classmethod
    def _symmetric(cls, value, gradient: np.ndarray,
                   hessian: np.ndarray) -> "ScalarJet2":
        """A jet of arrays whose shapes already match and whose Hessian is
        exactly symmetric, kept as given."""
        jet = object.__new__(cls)
        value = np.asarray(value, dtype=float)
        object.__setattr__(jet, "value",
                           float(value) if value.ndim == 0 else value)
        object.__setattr__(jet, "gradient", gradient)
        object.__setattr__(jet, "hessian", hessian)
        return jet

    @property
    def n(self) -> int:
        return self.gradient.shape[-1]

    @classmethod
    def constant(cls, value: float, n: int) -> "ScalarJet2":
        return cls(value, np.zeros(n), np.zeros((n, n)))


def _col(value, k: int = 1) -> np.ndarray:
    """A per-point value with k trailing unit axes, to broadcast against
    per-component arrays."""
    return np.reshape(value, np.shape(value) + (1,) * k)


def _diag(m: np.ndarray) -> np.ndarray:
    return np.diagonal(m, axis1=-2, axis2=-1)


def _sum_last(a: np.ndarray):
    """Sum over the last axis, added left to right from 0.0. Below 8 terms
    that is numpy's own order, so the bits equal np.sum's (numpy adds 8 or
    more pairwise). numpy's reduction over a short axis pays its per-row
    overhead once per row; these column adds pay once per column."""
    out = 0.0
    for k in range(a.shape[-1]):
        out = out + a[..., k]
    return out


def _max_last(a: np.ndarray):
    """Max over the last axis through np.maximum, which propagates NaN as
    np.max does; cheap for a short axis, as :func:`_sum_last`."""
    out = a[..., 0]
    for k in range(1, a.shape[-1]):
        out = np.maximum(out, a[..., k])
    return out


def _check_phi(phi: ScalarJet2) -> None:
    small = np.abs(phi.value)
    small = small[small < TOL_PHI]
    if small.size:
        raise DegenerateConformalFactor(
            f"|phi| = {small.min():.3e} below guard {TOL_PHI}"
        )


def conformal_christoffel(sig: Signature, phi: ScalarJet2) -> np.ndarray:
    """Christoffel symbols of gbar = g/phi^2, Gamma[..., k, i, j] =
    Gamma^k_ij (..., n, n, n):

        (eps_i eps_k delta_ij phi_,k - delta_ki phi_,j - delta_kj phi_,i)
        / phi.
    """
    _check_phi(phi)
    eps, gp = sig.eps, phi.gradient
    eye = np.eye(sig.n)
    gamma = ((eps * gp)[..., :, None, None] * np.diag(eps)
             - eye[:, :, None] * gp[..., None, None, :]
             - eye[:, None, :] * gp[..., None, :, None])
    return gamma / _col(phi.value, 3)


def conformal_ricci(sig: Signature, phi: ScalarJet2) -> np.ndarray:
    """Ricci tensor of gbar = g/phi^2, symmetric (..., n, n).

    Ric = (1/phi^2) * { (n-2) phi Hess_g(phi)
                        + [phi lap_g(phi) - (n-1)|grad_g phi|^2] g }
    with the flat-background Hessian, Laplacian and gradient norm taken
    with eps-weights.
    """
    _check_phi(phi)
    eps = sig.eps
    n = sig.n
    lap = _sum_last(eps * _diag(phi.hessian))
    grad2 = _sum_last(eps * phi.gradient ** 2)
    out = (n - 2) * _col(phi.value, 2) * phi.hessian
    # The g term is diagonal: off the diagonal it would only add +-0.
    idx = np.arange(n)
    out[..., idx, idx] += _col(phi.value * lap - (n - 1) * grad2) * eps
    out /= _col(np.square(phi.value), 2)
    return out


def conformal_hessian(sig: Signature, phi: ScalarJet2,
                      f: ScalarJet2) -> np.ndarray:
    """Covariant Hessian of f in the metric gbar = g/phi^2, (..., n, n)."""
    _check_phi(phi)
    eps = sig.eps
    gp, gf = phi.gradient, f.gradient
    v = _col(phi.value)
    cross = np.einsum("...i,...j->...ij", gp, gf)
    # f_,ij + (cross + cross^T) / phi, summed in one buffer: addition
    # commutes, so the bits are those of the expression.
    out = cross + np.swapaxes(cross, -1, -2)
    out /= v[..., None]
    out += f.hessian
    mixed = _sum_last(eps * gp * gf)
    # Diagonal: f_,ii + 2 phi_,i f_,i / phi - eps_i * sum_k eps_k phi_,k f_,k / phi
    idx = np.arange(sig.n)
    out[..., idx, idx] = (_diag(f.hessian) + 2.0 * gp * gf / v
                          - eps * _col(mixed) / v)
    return out


def scalar_curvature(sig: Signature, phi: ScalarJet2) -> float | np.ndarray:
    """Scalar curvature of gbar = g/phi^2.

    R = sum_k eps_k [2(n-1) phi phi_,kk - n(n-1) phi_,k^2].
    """
    _check_phi(phi)
    eps = sig.eps
    n = sig.n
    return _sum_last(eps * (2.0 * (n - 1) * _col(phi.value)
                            * _diag(phi.hessian)
                            - n * (n - 1) * phi.gradient ** 2))


def laplacian(sig: Signature, phi: ScalarJet2,
              f: ScalarJet2) -> float | np.ndarray:
    """Laplace-Beltrami of f in gbar: phi^2 * eps-trace of the Hessian.

    Expands to sum_k eps_k [phi^2 f_,kk - (n-2) phi phi_,k f_,k].
    """
    _check_phi(phi)
    eps = sig.eps
    n = sig.n
    v = _col(phi.value)
    return _sum_last(eps * (np.square(v) * _diag(f.hessian)
                            - (n - 2) * v * phi.gradient * f.gradient))
