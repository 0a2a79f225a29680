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
    returns H bit for bit, so skipping it changes nothing. They store
    batch gradients, and compose its Hessians, component-major (see
    :func:`_columns`).
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


def _columns(jet: ScalarJet2) -> tuple:
    """The jet's value, and its gradient (n, ...) and Hessian (n, n, ...)
    with the component axes first: g[i] and h[i, j] are per-point columns
    shaped like the value. For the component-major jets of compose and
    xi_jet_at they are the stored arrays, so each column is contiguous."""
    g, h = jet.gradient, jet.hessian
    b = g.ndim - 1
    return (np.asarray(jet.value), g.transpose((b, *range(b))),
            h.transpose((b, b + 1, *range(b))))


def _batch_major(a: np.ndarray, k: int) -> np.ndarray:
    """A view of `a` with its first k (component) axes moved last."""
    return a.transpose((*range(k, a.ndim), *range(k)))


def _tensor(n: int, entries: dict, shape: tuple) -> np.ndarray:
    """The (..., n, n) tensor of the columns entries[i, j], each of the
    batch shape; an entry whose (j, i) is absent fills both places."""
    out = np.empty((n, n) + shape)
    for (i, j), column in entries.items():
        out[i, j] = column
        if (j, i) not in entries:
            out[j, i] = column
    return _batch_major(out, 2)


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


def _check_phi(value) -> None:
    small = np.abs(value)
    small = small[small < TOL_PHI]
    if small.size:
        raise DegenerateConformalFactor(
            f"|phi| = {small.min():.3e} below guard {TOL_PHI}"
        )


# The formulas below are written once, per component, on the columns of
# _columns, and each symmetric tensor is computed for i <= j only; the
# public functions assemble their tensors from these entries. The
# arithmetic is that of the broadcast (..., n, n) expressions in the
# docstrings, term by term, so the bits are too: eps_k-weighted sums add
# their terms to 0.0 in order k = 0..n-1 (the order of _sum_last), and
# since eps_k = +-1, adding eps_k * t is adding or subtracting t.

def _signed(eps, a, b):
    """a + eps * b for eps = +-1."""
    return a + b if eps > 0 else a - b


def _eps_sum(eps, terms):
    """sum_k eps_k * terms[k], from 0.0 in order."""
    out = np.zeros(())
    for e, t in zip(eps, terms):
        out = _signed(e, out, t)
    return out


def _scalars(*values) -> list:
    """Each value as a 0-d float array: numpy multiplies an array by one
    faster than by a Python number, with the same bits."""
    return [np.array(float(x)) for x in values]


def _ricci_entries(sig: Signature, p: tuple) -> dict:
    """Ric_ij, i <= j, of gbar from the columns p of the jet of phi."""
    v, g, h = p
    _check_phi(v)
    n, eps = sig.n, sig.eps
    n2, n1 = _scalars(n - 2, n - 1)
    lap = _eps_sum(eps, (h[k, k] for k in range(n)))
    grad2 = _eps_sum(eps, (g[k] * g[k] for k in range(n)))
    c, d, v2 = n2 * v, v * lap - n1 * grad2, np.square(v)
    out = {}
    for i in range(n):
        # The g term is diagonal: off the diagonal it would only add +-0.
        out[i, i] = _signed(eps[i], c * h[i, i], d) / v2
        for j in range(i + 1, n):
            out[i, j] = c * h[i, j] / v2
    return out


def _hessian_entries(sig: Signature, p: tuple, q: tuple) -> dict:
    """Hess_gbar(f)_ij, i <= j, from the columns p of phi's jet and q of
    f's."""
    (v, gp, _), (_, gf, hf) = p, q
    _check_phi(v)
    n, eps = sig.n, sig.eps
    (two,) = _scalars(2.0)
    mixed = _eps_sum(eps, (gp[k] * gf[k] for k in range(n))) / v
    out = {}
    for i in range(n):
        out[i, i] = _signed(-eps[i], hf[i, i] + two * gp[i] * gf[i] / v,
                            mixed)
        for j in range(i + 1, n):
            out[i, j] = (gp[i] * gf[j] + gp[j] * gf[i]) / v + hf[i, j]
    return out


def conformal_christoffel(sig: Signature, phi: ScalarJet2) -> np.ndarray:
    """Christoffel symbols of gbar = g/phi^2, Gamma[..., k, i, j] =
    Gamma^k_ij (..., n, n, n):

        (eps_i eps_k delta_ij phi_,k - delta_ki phi_,j - delta_kj phi_,i)
        / phi.
    """
    _check_phi(phi.value)
    eps, gp = sig.eps, phi.gradient
    eye = np.eye(sig.n)
    gamma = ((eps * gp)[..., :, None, None] * np.diag(eps)
             - eye[:, :, None] * gp[..., None, None, :]
             - eye[:, None, :] * gp[..., None, :, None])
    return gamma / np.reshape(phi.value, np.shape(phi.value) + (1, 1, 1))


def conformal_ricci(sig: Signature, phi: ScalarJet2) -> np.ndarray:
    """Ricci tensor of gbar = g/phi^2, symmetric (..., n, n).

    Ric = (1/phi^2) * { (n-2) phi Hess_g(phi)
                        + [phi lap_g(phi) - (n-1)|grad_g phi|^2] g }
    with the flat-background Hessian, Laplacian and gradient norm taken
    with eps-weights:

        ((n-2) phi phi_,ij + delta_ij eps_i [phi sum_k eps_k phi_,kk
                       - (n-1) sum_k eps_k phi_,k^2]) / phi^2.
    """
    return _tensor(sig.n, _ricci_entries(sig, _columns(phi)),
                   np.shape(phi.value))


def conformal_hessian(sig: Signature, phi: ScalarJet2,
                      f: ScalarJet2) -> np.ndarray:
    """Covariant Hessian of f in the metric gbar = g/phi^2, (..., n, n):

        f_,ij + (phi_,i f_,j + phi_,j f_,i) / phi    (i != j),
        f_,ii + 2 phi_,i f_,i / phi - eps_i sum_k eps_k phi_,k f_,k / phi.
    """
    return _tensor(sig.n,
                   _hessian_entries(sig, _columns(phi), _columns(f)),
                   np.shape(phi.value))


def scalar_curvature(sig: Signature, phi: ScalarJet2) -> float | np.ndarray:
    """Scalar curvature of gbar = g/phi^2.

    R = sum_k eps_k [2(n-1) phi phi_,kk - n(n-1) phi_,k^2].
    """
    v, g, h = _columns(phi)
    _check_phi(v)
    n = sig.n
    a, b = _scalars(2.0 * (n - 1), n * (n - 1))
    a = a * v
    return _eps_sum(sig.eps, (a * h[k, k] - b * (g[k] * g[k])
                                for k in range(n)))


def laplacian(sig: Signature, phi: ScalarJet2,
              f: ScalarJet2) -> float | np.ndarray:
    """Laplace-Beltrami of f in gbar: phi^2 * eps-trace of the Hessian.

    Expands to sum_k eps_k [phi^2 f_,kk - (n-2) phi phi_,k f_,k].
    """
    (v, gp, _), (_, gf, hf) = _columns(phi), _columns(f)
    _check_phi(v)
    n = sig.n
    (n2,) = _scalars(n - 2)
    v2, a = np.square(v), n2 * v
    return _eps_sum(sig.eps, (v2 * hf[k, k] - a * gp[k] * gf[k]
                              for k in range(n)))
