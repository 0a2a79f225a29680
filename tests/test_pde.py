"""Residuals of the soliton system: two-route agreement, the lifted
single-variable form, batched against per-point evaluation, and gauge
behavior."""

import numpy as np
import pytest

from conftest import random_ansatz, random_jet, random_signature, rng
from soliton_reduce import (
    ClosedFormProfile,
    SampleSpec,
    ScalarJet2,
    Signature,
    SolitonProblem,
    conformal_christoffel,
    conformal_hessian,
    conformal_ricci,
    gallery,
    laplacian,
    lift,
    residual_diag,
    residual_offdiag,
    residual_soliton_tensor,
    residual_trace,
    scalar_curvature,
    xi_jet,
)
from soliton_reduce.ansatz import QuadricAnsatz
from soliton_reduce.errors import DegenerateConformalFactor
from soliton_reduce.geometry import TOL_PHI
from soliton_reduce.pde import tensor_to_scalar_factor
from soliton_reduce.verify import draw_points, residual_maxima


class TestTwoRouteAgreement:
    """Scalar-equation residuals vs the assembled tensor residual."""

    def test_factors(self, gen):
        for _ in range(30):
            n = int(gen.integers(2, 6))
            sig = random_signature(gen, n)
            phi = random_jet(gen, n)
            f = random_jet(gen, n)
            lam = float(gen.uniform(-2, 2))
            tensor = residual_soliton_tensor(sig, phi, f, lam)
            diags = residual_diag(sig, phi, f, lam)
            offs = residual_offdiag(sig, phi, f)
            assert diags.shape == (n,) and offs.shape == (n, n)
            for i in range(n):
                diag = diags[i]
                factor = tensor_to_scalar_factor(phi.value, diagonal=True)
                assert diag == pytest.approx(factor * tensor[i, i],
                                             abs=1e-10)
                for j in range(i + 1, n):
                    factor = tensor_to_scalar_factor(phi.value,
                                                     diagonal=False)
                    for off in (offs[i, j], offs[j, i]):
                        assert off == pytest.approx(factor * tensor[i, j],
                                                    abs=1e-10)

    def test_trace_is_eps_trace(self, gen):
        for _ in range(20):
            n = int(gen.integers(2, 6))
            sig = random_signature(gen, n)
            phi = random_jet(gen, n)
            f = random_jet(gen, n)
            lam = float(gen.uniform(-2, 2))
            tensor = residual_soliton_tensor(sig, phi, f, lam)
            tr = phi.value ** 2 * float(np.sum(sig.eps * np.diag(tensor)))
            assert residual_trace(sig, phi, f, lam) == pytest.approx(
                tr, abs=1e-10)

    def test_offdiag_hand_values(self):
        # n = 3, phi = 2, grad phi = (1, 0, -1), f_,ij = 1 off the
        # diagonal, grad f = (1, 2, 3), phi_,ij = 0:
        # (n-2)*0 + 2*1 + phi_,i f_,j + phi_,j f_,i.
        sig = Signature.riemannian(3)
        phi = ScalarJet2(2.0, [1.0, 0.0, -1.0], np.zeros((3, 3)))
        f = ScalarJet2(0.5, [1.0, 2.0, 3.0], np.ones((3, 3)))
        expect = {(0, 1): 2.0 + 2.0, (0, 2): 2.0 + 3.0 - 1.0,
                  (1, 2): 2.0 - 2.0}
        stack = [ScalarJet2(np.full(4, j.value), np.tile(j.gradient, (4, 1)),
                            np.tile(j.hessian, (4, 1, 1))) for j in (phi, f)]
        batch = residual_offdiag(sig, *stack)
        assert batch.shape == (4, 3, 3)
        for r in (residual_offdiag(sig, phi, f), *batch):
            for (i, j), v in expect.items():
                assert r[i, j] == v and r[j, i] == v


class TestLiftedForm:
    def test_offdiag_single_variable_form(self, gen):
        """Lifted off-diagonal residual equals
        [(n-2) phi'' + phi f'' + 2 phi' f'] xi_,i xi_,j
        + [(n-2) phi' + phi f'] xi_,ij
        for arbitrary (non-solution) profiles composed with a quadric."""
        for _ in range(20):
            n = int(gen.integers(2, 5))
            sig = random_signature(gen, n)
            a = random_ansatz(gen, sig)
            # Random profile data at the point.
            ph, dph, ddph = gen.uniform(0.5, 2), *gen.uniform(-1, 1, 2)
            fv, dfv, ddfv = gen.uniform(-1, 1, 3)
            for _ in range(50):
                x = gen.uniform(-2, 2, n)
                jet = xi_jet(a, x)
                u = jet.gradient
                phi = ScalarJet2(ph, dph * u,
                                 ddph * np.outer(u, u) + dph * jet.hessian)
                f = ScalarJet2(fv, dfv * u,
                               ddfv * np.outer(u, u) + dfv * jet.hessian)
                s1 = (n - 2) * ddph + ph * ddfv + 2 * dph * dfv
                s0 = (n - 2) * dph + ph * dfv
                offs = residual_offdiag(sig, phi, f)
                for i in range(n):
                    for j in range(i + 1, n):
                        lhs = offs[i, j]
                        rhs = s1 * u[i] * u[j] + s0 * jet.hessian[i, j]
                        scale = max(1.0, abs(lhs), abs(rhs))
                        assert abs(lhs - rhs) / scale < 1e-11


def jet_formulas(sig, lam):
    """Every jet formula of geometry and pde, as calls on (phi, f)."""
    calls = [
        lambda phi, f: conformal_ricci(sig, phi),
        lambda phi, f: conformal_hessian(sig, phi, f),
        lambda phi, f: scalar_curvature(sig, phi),
        lambda phi, f: laplacian(sig, phi, f),
        lambda phi, f: residual_trace(sig, phi, f, lam),
        lambda phi, f: residual_soliton_tensor(sig, phi, f, lam),
    ]
    calls.append(lambda phi, f: residual_diag(sig, phi, f, lam))
    calls.append(lambda phi, f: residual_offdiag(sig, phi, f))
    calls.append(lambda phi, f: conformal_christoffel(sig, phi))
    return calls


def same_jet(a, b):
    return (np.array_equal(a.value, b.value)
            and np.array_equal(a.gradient, b.gradient)
            and np.array_equal(a.hessian, b.hessian))


class TestBatchedJets:
    """Jets, lifts and every formula take a leading batch axis; a batch
    gives exactly what one call per point gives."""

    def test_batched_equals_per_point(self):
        gen = rng(62)
        m = 25
        for n in (2, 3, 5):
            sig = random_signature(gen, n)
            lam = float(gen.uniform(-2.0, 2.0))
            raw = [(gen.uniform(0.5, 2.0, m) * np.where(
                        gen.uniform(size=m) < 0.5, -1.0, 1.0),
                    gen.uniform(-1.0, 1.0, (m, n)),
                    gen.uniform(-1.0, 1.0, (m, n, n))) for _ in range(2)]
            phi, f = (ScalarJet2(*r) for r in raw)
            points = [tuple(ScalarJet2(v[p], g[p], h[p]) for v, g, h in raw)
                      for p in range(m)]
            for call in jet_formulas(sig, lam):
                batched = np.broadcast_to(call(phi, f), (m,) + np.shape(
                    call(*points[0])))
                single = np.array([call(*pt) for pt in points])
                assert np.array_equal(batched, single)

    def test_lift_batched_equals_per_point(self):
        gen = rng(63)
        for entry in (gallery("gaussian", n=3, k=2.0, tau=-1.0, lam=-3.0),
                      gallery("cigar"), gallery("space_form", n=4)):
            a, prof = entry.problem.ansatz, entry.profile
            xs = draw_points(entry.problem, prof, SampleSpec(
                box=[(-2.0, 2.0)] * a.n, count=30, seed=3))
            xi = xi_jet(a, xs)
            lifted = lift(a, prof, xs.reshape(5, 6, a.n))
            for p, x in enumerate(xs):
                assert same_jet(ScalarJet2(xi.value[p], xi.gradient[p],
                                           xi.hessian[p]), xi_jet(a, x))
                one = lift(a, prof, x)
                for batch, single in zip(lifted, one):
                    assert isinstance(single.value, float)
                    assert same_jet(ScalarJet2(
                        batch.value.reshape(-1)[p],
                        batch.gradient.reshape(-1, a.n)[p],
                        batch.hessian.reshape(-1, a.n, a.n)[p]), single)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            ScalarJet2(np.ones(3), np.zeros((2, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            ScalarJet2(np.ones(2), np.zeros((2, 3)), np.zeros((2, 3, 2)))
        jet = ScalarJet2(np.ones(4), np.zeros((4, 3)), np.zeros((4, 3, 3)))
        assert jet.n == 3

    def test_phi_guard_on_batch(self):
        # One point below the guard fails the whole batch.
        phi = ScalarJet2([1.0, -1e-13], np.zeros((2, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(DegenerateConformalFactor, match="1.000e-13"):
            conformal_ricci(Signature.riemannian(2), phi)


class TestExclusionFloor:
    def test_no_point_below_phi_guard(self):
        # phi = xi + 1e-13 with xi = x_0: the 3 x 3 grid on [-1, 1]^2 puts
        # three points at |phi| = 1e-13. exclusion_phi = 0 must not let
        # them through to the residual formulas.
        sig = Signature.riemannian(2)
        p = SolitonProblem(sig, QuadricAnsatz(0.0, [1.0, 0.0], [0.0, 0.0],
                                              sig), 0.0)
        prof = ClosedFormProfile(
            phi=lambda xi: xi + 1e-13, dphi=lambda xi: 1.0,
            ddphi=lambda xi: 0.0, f=lambda xi: 0.0, df=lambda xi: 0.0,
            ddf=lambda xi: 0.0)
        spec = SampleSpec(box=[(-1.0, 1.0)] * 2, mode="grid", count=9,
                          exclusion_phi=0.0)
        pts = draw_points(p, prof, spec)
        assert len(pts) == 6
        assert np.all(np.abs(pts[:, 0] + 1e-13) >= TOL_PHI)
        residual_maxima(p, prof, pts)  # the phi guard does not trip


class TestKnownSolutions:
    @staticmethod
    def _lifted(entry, x):
        return lift(entry.problem.ansatz, entry.profile, np.asarray(x))

    def test_gaussian_zero_residual(self, gen):
        entry = gallery("gaussian", k=2.0, tau=-1.0, lam=-3.0)
        p = entry.problem
        for _ in range(20):
            x = gen.uniform(-2, 2, p.n)
            phi, f = self._lifted(entry, x)
            tensor = residual_soliton_tensor(p.sig, phi, f, p.lam)
            assert np.max(np.abs(tensor)) < 1e-13

    def test_cigar_zero_residual(self, gen):
        entry = gallery("cigar")
        p = entry.problem
        for _ in range(20):
            x = gen.uniform(-2, 2, 2)
            phi, f = self._lifted(entry, x)
            tensor = residual_soliton_tensor(p.sig, phi, f, 0.0)
            assert np.max(np.abs(tensor)) < 1e-13

    def test_lambda_perturbation(self, gen):
        # Shifting lambda by d changes the diagonal scalar residual by
        # exactly -eps_i * d and the tensor by -d * eps_i / phi^2.
        entry = gallery("cigar")
        p = entry.problem
        x = np.array([0.7, -0.4])
        phi, f = self._lifted(entry, x)
        d = 0.37
        r0 = residual_diag(p.sig, phi, f, 0.0)
        r1 = residual_diag(p.sig, phi, f, d)
        assert r1 - r0 == pytest.approx(-p.sig.eps * d, abs=1e-14)
        t0 = residual_soliton_tensor(p.sig, phi, f, 0.0)
        t1 = residual_soliton_tensor(p.sig, phi, f, d)
        assert np.allclose(t1 - t0,
                           -d * np.diag(p.sig.eps) / phi.value ** 2,
                           atol=1e-14)


class TestGauge:
    def test_potential_shift(self, gen):
        # f enters only through derivatives: shifting f changes nothing.
        for _ in range(10):
            n = int(gen.integers(2, 5))
            sig = random_signature(gen, n)
            phi = random_jet(gen, n)
            f = random_jet(gen, n)
            shifted = ScalarJet2(f.value + 17.3, f.gradient, f.hessian)
            lam = float(gen.uniform(-2, 2))
            assert np.array_equal(
                residual_soliton_tensor(sig, phi, f, lam),
                residual_soliton_tensor(sig, phi, shifted, lam))

    def test_phi_sign_flip(self, gen):
        for _ in range(10):
            n = int(gen.integers(2, 5))
            sig = random_signature(gen, n)
            phi = random_jet(gen, n)
            f = random_jet(gen, n)
            neg = ScalarJet2(-phi.value, -phi.gradient, -phi.hessian)
            lam = float(gen.uniform(-2, 2))
            t0 = residual_soliton_tensor(sig, phi, f, lam)
            t1 = residual_soliton_tensor(sig, neg, f, lam)
            assert np.max(np.abs(t1 - t0)) < 1e-13
