"""Exact conformal-geometry formulas against frozen values and the
finite-difference oracle."""

import math

import numpy as np
import pytest

from conftest import random_jet, random_signature, rng
from soliton_reduce import (
    ScalarJet2,
    Signature,
    conformal_christoffel,
    conformal_hessian,
    conformal_ricci,
    fd_curvature_oracle,
    laplacian,
    scalar_curvature,
)
from soliton_reduce.errors import DegenerateConformalFactor


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

class TestSignature:
    def test_basic(self):
        sig = Signature.riemannian(3)
        assert sig.n == 3
        assert np.all(sig.eps == 1.0)

    def test_lorentzian(self):
        sig = Signature.lorentzian(4)
        assert list(sig.eps) == [1.0, 1.0, 1.0, -1.0]

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            Signature([1.0])

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            Signature([1.0, 0.5])

    def test_rejects_all_negative(self):
        with pytest.raises(ValueError):
            Signature([-1.0, -1.0])


class TestScalarJet2:
    def test_hessian_symmetrized(self):
        jet = ScalarJet2(1.0, [0.0, 0.0], [[1.0, 2.0], [0.0, 1.0]])
        assert np.allclose(jet.hessian, [[1.0, 1.0], [1.0, 1.0]])

    def test_constant(self):
        jet = ScalarJet2.constant(3.0, 2)
        assert jet.value == 3.0
        assert np.all(jet.gradient == 0.0)
        assert np.all(jet.hessian == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ScalarJet2(1.0, [0.0, 0.0], np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------

def christoffel_copies(sig, phi):
    """Gamma[k, i, j] of one jet, computed at the point and on a batch of
    three stacked copies: the four (n, n, n) tensors, which must agree."""
    n = sig.n
    stack = ScalarJet2(np.full(3, phi.value), np.tile(phi.gradient, (3, 1)),
                       np.tile(phi.hessian, (3, 1, 1)))
    one = conformal_christoffel(sig, phi)
    batch = conformal_christoffel(sig, stack)
    assert one.shape == (n, n, n) and batch.shape == (3, n, n, n)
    return [one, *batch]


class TestChristoffel:
    # [TRIVIAL] hand values, n = 2, eps = (1, 1), phi = 2, grad = (1, 3);
    # Gamma[k, i, j] = Gamma^k_ij, at one point and on a batch.
    def _phi2(self):
        return ScalarJet2(2.0, [1.0, 3.0], np.zeros((2, 2)))

    def test_mixed_index(self):
        sig = Signature.riemannian(2)
        for gamma in christoffel_copies(sig, self._phi2()):
            assert gamma[0, 0, 1] == -3.0 / 2.0
            assert gamma[1, 1, 0] == -1.0 / 2.0

    def test_diagonal_index(self):
        sig = Signature.riemannian(2)
        for gamma in christoffel_copies(sig, self._phi2()):
            assert gamma[0, 0, 0] == -1.0 / 2.0
            assert gamma[1, 1, 1] == -3.0 / 2.0

    def test_equal_lower_distinct_upper(self):
        sig = Signature.riemannian(2)
        for gamma in christoffel_copies(sig, self._phi2()):
            assert gamma[1, 0, 0] == 3.0 / 2.0
            assert gamma[0, 1, 1] == 1.0 / 2.0

    def test_signature_sign_flip(self):
        # eps_1 * eps_2 = -1 flips the i == j != k case only.
        sig = Signature([1.0, -1.0])
        for gamma in christoffel_copies(sig, self._phi2()):
            assert gamma[1, 0, 0] == -3.0 / 2.0
            assert gamma[0, 0, 1] == -3.0 / 2.0

    def test_distinct_indices_vanish(self):
        sig = Signature.riemannian(3)
        phi = ScalarJet2(1.5, [1.0, 2.0, 3.0], np.zeros((3, 3)))
        for gamma in christoffel_copies(sig, phi):
            for k, i, j in ((2, 0, 1), (0, 1, 2), (1, 2, 0)):
                assert gamma[k, i, j] == 0.0

    def test_symmetry_in_lower_indices(self):
        gen = rng(7)
        for n in (2, 3, 4):
            sig = random_signature(gen, n)
            for gamma in christoffel_copies(sig, random_jet(gen, n)):
                assert np.array_equal(gamma, np.swapaxes(gamma, -1, -2))

    def test_degenerate_phi_raises(self):
        sig = Signature.riemannian(2)
        phi = ScalarJet2(1e-13, [1.0, 0.0], np.zeros((2, 2)))
        with pytest.raises(DegenerateConformalFactor):
            conformal_christoffel(sig, phi)


# ---------------------------------------------------------------------------
# Ricci tensor and scalar curvature
# ---------------------------------------------------------------------------

def sphere_phi_jet(x):
    """phi = 1 + |x|^2/4: the round unit sphere in stereographic form."""
    x = np.asarray(x, dtype=float)
    n = x.size
    return ScalarJet2(1.0 + 0.25 * np.dot(x, x), 0.5 * x,
                      0.5 * np.eye(n))


def cigar_phi_jet(x):
    """phi = sqrt(1 + |x|^2): the 2d steady-soliton conformal factor."""
    x = np.asarray(x, dtype=float)
    r2 = float(np.dot(x, x))
    phi = math.sqrt(1.0 + r2)
    grad = x / phi
    hess = np.eye(x.size) / phi - np.outer(x, x) / phi ** 3
    return ScalarJet2(phi, grad, hess)


class TestRicci:
    def test_round_sphere_at_origin(self):
        # [DERIVED] Hess = I/2, lap = 3/2, |grad|^2 = 0 at 0 => Ric = 2*I.
        sig = Signature.riemannian(3)
        ric = conformal_ricci(sig, sphere_phi_jet(np.zeros(3)))
        assert np.allclose(ric, 2.0 * np.eye(3), atol=1e-14)

    def test_round_sphere_einstein_everywhere(self):
        # Ric = 2 * gbar = 2 * I / phi^2 at every point.
        sig = Signature.riemannian(3)
        gen = rng(3)
        for _ in range(10):
            x = gen.uniform(-2.0, 2.0, 3)
            jet = sphere_phi_jet(x)
            ric = conformal_ricci(sig, jet)
            assert np.allclose(ric, 2.0 * np.eye(3) / jet.value ** 2,
                               atol=1e-12)

    def test_ricci_matches_fd_oracle(self):
        # [DERIVED] cross-check with nested central differences.
        sig = Signature.riemannian(3)
        x = np.array([0.3, -0.2, 0.5])

        def phi_field(y):
            return 1.0 + 0.25 * np.sum(y * y, axis=-1)

        ric_fd, rate = fd_curvature_oracle(sig, phi_field, x)
        ric = conformal_ricci(sig, sphere_phi_jet(x))
        assert np.max(np.abs(ric_fd - ric)) < 1e-6
        assert 1.8 <= rate <= 2.2

    def test_sign_gauge(self):
        # phi -> -phi leaves Ric unchanged.
        gen = rng(11)
        sig = random_signature(gen, 3)
        jet = random_jet(gen, 3)
        neg = ScalarJet2(-jet.value, -jet.gradient, -jet.hessian)
        assert np.allclose(conformal_ricci(sig, jet),
                           conformal_ricci(sig, neg), atol=1e-13)

    def test_flat_for_constant_phi(self):
        sig = Signature.lorentzian(4)
        assert np.allclose(
            conformal_ricci(sig, ScalarJet2.constant(2.0, 4)), 0.0)


class TestScalarCurvature:
    def test_cigar_value(self):
        # [DERIVED] R = 4/(1 + r^2); at x = (1, 1) this is 4/3.
        sig = Signature.riemannian(2)
        r = scalar_curvature(sig, cigar_phi_jet(np.array([1.0, 1.0])))
        assert abs(r - 4.0 / 3.0) < 1e-14

    def test_round_sphere_value(self):
        # R = n(n-1) for the unit sphere.
        sig = Signature.riemannian(3)
        gen = rng(5)
        for _ in range(5):
            x = gen.uniform(-1.0, 1.0, 3)
            assert abs(scalar_curvature(sig, sphere_phi_jet(x)) - 6.0) < 1e-12

    def test_trace_of_ricci(self):
        # R = phi^2 * sum_i eps_i Ric_ii for random jets.
        gen = rng(21)
        for _ in range(20):
            n = int(gen.integers(2, 6))
            sig = random_signature(gen, n)
            jet = random_jet(gen, n)
            ric = conformal_ricci(sig, jet)
            tr = jet.value ** 2 * float(np.sum(sig.eps * np.diag(ric)))
            assert abs(tr - scalar_curvature(sig, jet)) < 1e-10


class TestHessianLaplacian:
    def test_laplacian_is_trace_of_hessian(self):
        gen = rng(31)
        for _ in range(20):
            n = int(gen.integers(2, 6))
            sig = random_signature(gen, n)
            phi = random_jet(gen, n)
            f = random_jet(gen, n)
            hess = conformal_hessian(sig, phi, f)
            tr = phi.value ** 2 * float(np.sum(sig.eps * np.diag(hess)))
            assert abs(tr - laplacian(sig, phi, f)) < 1e-10

    def test_hessian_symmetric(self):
        gen = rng(41)
        sig = random_signature(gen, 4)
        hess = conformal_hessian(sig, random_jet(gen, 4), random_jet(gen, 4))
        assert np.allclose(hess, hess.T)

    def test_flat_limit(self):
        # Constant phi = 1: covariant Hessian reduces to the flat Hessian.
        sig = Signature.riemannian(3)
        gen = rng(43)
        f = random_jet(gen, 3)
        hess = conformal_hessian(sig, ScalarJet2.constant(1.0, 3), f)
        assert np.allclose(hess, f.hessian)
