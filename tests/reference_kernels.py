"""A frozen copy of the broadcast (..., n, n) residual formulas that the
per-component kernels replaced: the reference they must equal bit for bit
(up to the sign of zero). Do not change these to follow the library."""

import numpy as np

from soliton_reduce.geometry import ScalarJet2


def _col(value, k=1):
    return np.reshape(value, np.shape(value) + (1,) * k)


def _diag(m):
    return np.diagonal(m, axis1=-2, axis2=-1)


def _sum_last(a):
    out = 0.0
    for k in range(a.shape[-1]):
        out = out + a[..., k]
    return out


def _max_last(a):
    out = a[..., 0]
    for k in range(1, a.shape[-1]):
        out = np.maximum(out, a[..., k])
    return out


def compose(xi, data):
    u = xi.gradient
    uu = np.einsum("...i,...j->...ij", u, u)

    def jet(value, d1, d2):
        d1 = d1[..., None]
        h = d2[..., None, None] * uu
        h += d1[..., None] * xi.hessian
        return ScalarJet2._symmetric(value, d1 * u, h)

    phi, dphi, ddphi, f, df, ddf = data
    return jet(phi, dphi, ddphi), jet(f, df, ddf)


def conformal_ricci(sig, phi):
    eps = sig.eps
    n = sig.n
    lap = _sum_last(eps * _diag(phi.hessian))
    grad2 = _sum_last(eps * phi.gradient ** 2)
    out = (n - 2) * _col(phi.value, 2) * phi.hessian
    idx = np.arange(n)
    out[..., idx, idx] += _col(phi.value * lap - (n - 1) * grad2) * eps
    out /= _col(np.square(phi.value), 2)
    return out


def conformal_hessian(sig, phi, f):
    eps = sig.eps
    gp, gf = phi.gradient, f.gradient
    v = _col(phi.value)
    cross = np.einsum("...i,...j->...ij", gp, gf)
    out = cross + np.swapaxes(cross, -1, -2)
    out /= v[..., None]
    out += f.hessian
    mixed = _sum_last(eps * gp * gf)
    idx = np.arange(sig.n)
    out[..., idx, idx] = (_diag(f.hessian) + 2.0 * gp * gf / v
                          - eps * _col(mixed) / v)
    return out


def scalar_curvature(sig, phi):
    eps = sig.eps
    n = sig.n
    return _sum_last(eps * (2.0 * (n - 1) * _col(phi.value)
                            * _diag(phi.hessian)
                            - n * (n - 1) * phi.gradient ** 2))


def laplacian(sig, phi, f):
    eps = sig.eps
    n = sig.n
    v = _col(phi.value)
    return _sum_last(eps * (np.square(v) * _diag(f.hessian)
                            - (n - 2) * v * phi.gradient * f.gradient))


def residual_offdiag(sig, phi, f):
    cross = np.einsum("...i,...j->...ij", phi.gradient, f.gradient)
    return ((sig.n - 2) * phi.hessian + _col(phi.value, 2) * f.hessian
            + cross + np.swapaxes(cross, -1, -2))


def residual_diag(sig, phi, f, lam):
    eps = sig.eps
    n = sig.n
    v = _col(phi.value)
    gp, gf = phi.gradient, f.gradient
    common = _sum_last(eps * (v * _diag(phi.hessian) - (n - 1) * gp ** 2
                              - v * gp * gf))
    own = v * ((n - 2) * _diag(phi.hessian) + v * _diag(f.hessian)
               + 2.0 * gp * gf)
    return own + eps * (_col(common) - lam)


def residual_trace(sig, phi, f, lam):
    eps = sig.eps
    n = sig.n
    v = _col(phi.value)
    gp, gf = phi.gradient, f.gradient
    total = _sum_last(eps * (2.0 * (n - 1) * v * _diag(phi.hessian)
                             - n * (n - 1) * gp ** 2
                             + np.square(v) * _diag(f.hessian)
                             - (n - 2) * v * gp * gf))
    return total - n * lam


def residual_soliton_tensor(sig, phi, f, lam):
    out = conformal_ricci(sig, phi)
    out += conformal_hessian(sig, phi, f)
    idx = np.arange(sig.n)
    out[..., idx, idx] -= lam * sig.eps / _col(np.square(phi.value))
    return out


def residual_maxima(sig, lam, phi, f):
    """Per-point max-abs residuals of the four families, as verify's
    residual pass reduced the tensors above."""
    n = sig.n
    off = residual_offdiag(sig, phi, f)[..., ~np.eye(n, dtype=bool)]
    tensor = np.abs(residual_soliton_tensor(sig, phi, f, lam))
    return (_max_last(np.abs(off)),
            _max_last(np.abs(residual_diag(sig, phi, f, lam))),
            np.abs(residual_trace(sig, phi, f, lam)),
            _max_last(tensor.reshape(tensor.shape[:-2] + (-1,))))
