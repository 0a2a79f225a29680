"""Solving the reduced systems end to end, the stop events, and profiles
reconstructed from node data."""

import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import package_env

from soliton_reduce import (
    IntegrationConfig,
    NodeProfile,
    ReducedState,
    SolitonProblem,
    Signature,
    SpecialParams,
    gallery,
    solve_reduced,
    solve_special,
)
from soliton_reduce.ansatz import QuadricAnsatz
from soliton_reduce.errors import EventAtStart, OutOfDomain, ProfileMalformed


def make_problem(n=3, tau=1.0, alpha=None, beta=None, lam=0.0, eps=None):
    sig = Signature(eps) if eps is not None else Signature.riemannian(n)
    zeros = np.zeros(sig.n)
    a = QuadricAnsatz(tau,
                      zeros if alpha is None else np.asarray(alpha, float),
                      zeros if beta is None else np.asarray(beta, float),
                      sig)
    return SolitonProblem(sig, a, lam)


CFG = dict(rel_tol=1e-11, abs_tol=1e-13)


class TestSolveReduced:
    def test_reproduces_cigar(self):
        # Start the full second-order system on cigar data at xi = 1 and
        # compare with the closed form downstream.
        entry = gallery("cigar")
        s1 = entry.profile.sample(1.0)
        ini = ReducedState(xi=1.0, phi=s1.phi, dphi=s1.dphi, f=s1.f,
                           df=s1.df)
        prof = solve_reduced(entry.problem, ini,
                             IntegrationConfig(xi_span=(1.0, 8.0), **CFG))
        assert prof.termination.kind == "completed"
        for xi in (2.0, 3.0, 5.0, 8.0):
            s = prof.sample(xi)
            exact = entry.profile.sample(xi)
            assert s.phi == pytest.approx(exact.phi, abs=1e-10)
            assert s.f == pytest.approx(exact.f, abs=1e-9)
            assert s.ddphi == pytest.approx(exact.ddphi, abs=1e-9)

    def test_span_must_start_at_initial_xi(self):
        p = make_problem()
        ini = ReducedState(xi=1.0, phi=1.0, dphi=0.0, f=0.0, df=0.0)
        with pytest.raises(ValueError):
            solve_reduced(p, ini, IntegrationConfig(xi_span=(0.5, 3.0)))

    def test_phi_zero_event(self):
        # Exact solution phi = 1 - xi/2, f = 0 (n=2, tau=0, Lambda=1,
        # lam = -1/4): phi reaches zero at xi = 2 with bounded fields.
        p = make_problem(n=2, tau=0.0, alpha=[1.0, 0.0], lam=-0.25)
        ini = ReducedState(xi=0.0, phi=1.0, dphi=-0.5, f=0.0, df=0.0)
        prof = solve_reduced(p, ini,
                             IntegrationConfig(xi_span=(0.0, 5.0), **CFG))
        t = prof.termination
        assert t.kind == "event"
        assert t.event == "phi_zero"
        assert t.xi_stop == pytest.approx(2.0, abs=1e-6)
        # All emitted states stay strictly on the admissible side.
        assert np.all(prof.states[:, 0] > 0.0)
        assert np.all(prof.nodes <= t.xi_stop + 1e-12)

    def test_singular_locus_event(self):
        # Space-form data stays bounded across the locus at xi = 0, so the
        # named locus event fires (rather than a blowup guard).
        p = make_problem(n=3, tau=1.0, lam=8.0)
        ini = ReducedState(xi=1.0, phi=2.0, dphi=1.0, f=0.0, df=0.0)
        prof = solve_reduced(p, ini,
                             IntegrationConfig(xi_span=(1.0, -0.5), **CFG))
        t = prof.termination
        assert t.kind == "event"
        assert t.event == "singular_locus"
        assert 0.0 < t.xi_stop < 1e-8
        # 4 tau xi + Lambda stays positive on every emitted node.
        assert np.all(4.0 * prof.nodes >= 0.0)

    def test_blowup_event_near_locus(self):
        # Generic data diverges approaching the locus; the blowup guard
        # stops the run before the locus with no post-event states.
        p = make_problem(n=3, tau=1.0, lam=0.0)
        ini = ReducedState(xi=1.0, phi=1.0, dphi=0.1, f=0.0, df=0.2)
        prof = solve_reduced(p, ini,
                             IntegrationConfig(xi_span=(1.0, -0.5)))
        t = prof.termination
        assert t.kind == "event"
        assert t.event in ("field_blowup", "singular_locus",
                           "domain_boundary")
        assert t.xi_stop > 0.0

    def test_event_at_start(self):
        p = make_problem(n=3, tau=1.0, lam=0.0)  # locus at xi = 0
        ini = ReducedState(xi=0.0, phi=1.0, dphi=0.0, f=0.0, df=0.0)
        with pytest.raises(EventAtStart):
            solve_reduced(p, ini, IntegrationConfig(xi_span=(0.0, 1.0)))


class TestSolveSpecial:
    def test_reproduces_cigar_h(self):
        entry = gallery("cigar")
        prof = solve_special(entry.problem, entry.special,
                             IntegrationConfig(xi_span=(0.0, 10.0), **CFG))
        assert prof.termination.kind == "completed"
        for xi in (1.0, 4.0, 10.0):
            s = prof.sample(xi)
            assert s.phi ** 2 == pytest.approx(1.0 + xi, abs=1e-11)
            assert s.f == pytest.approx(-math.log(1.0 + xi), abs=1e-10)

    def test_h_zero_event(self):
        entry = gallery("cigar")
        prof = solve_special(entry.problem, entry.special,
                             IntegrationConfig(xi_span=(0.0, -2.0), **CFG))
        t = prof.termination
        assert t.kind == "event"
        assert t.event == "h_zero"
        assert t.xi_stop == pytest.approx(-1.0, abs=1e-6)

    def test_sample_reconstruction_consistent(self):
        # SpecialProfile second derivatives satisfy the defining constraint
        # along a compatible trajectory (steady h = 2 xi + 1 family).
        entry = gallery("n2_polynomial", c1=-2.0, c2=0.0, c3=1.0, lam=0.0)
        prof = solve_special(entry.problem, entry.special,
                             IntegrationConfig(xi_span=(0.0, 5.0), **CFG))
        for xi in (0.5, 2.0, 4.5):
            s = prof.sample(xi)
            assert s.phi ** 2 == pytest.approx(2.0 * xi + 1.0, abs=1e-10)
            n = entry.problem.n
            assert abs(2 * n * s.ddphi + s.phi * s.ddf) < 1e-10


class TestNodeProfile:
    @staticmethod
    def _cigar_columns(num=400, hi=6.0):
        entry = gallery("cigar")
        xis = np.linspace(0.0, hi, num)
        samples = [entry.profile.sample(float(x)) for x in xis]
        return (xis, np.array([s.phi for s in samples]),
                np.array([s.dphi for s in samples]),
                np.array([s.f for s in samples]),
                np.array([s.df for s in samples]))

    def test_accuracy(self):
        xi, phi, dphi, f, df = self._cigar_columns()
        prof = NodeProfile(xi, phi, dphi, f, df)
        exact = gallery("cigar").profile
        for x in (0.5, 2.3, 5.7):
            s, e = prof.sample(x), exact.sample(x)
            assert s.phi == pytest.approx(e.phi, abs=1e-10)
            assert s.dphi == pytest.approx(e.dphi, abs=1e-10)
            # Second derivatives come from spline differentiation.
            assert s.ddphi == pytest.approx(e.ddphi, abs=1e-6)
            assert s.ddf == pytest.approx(e.ddf, abs=1e-5)

    def test_unsorted_input_accepted(self):
        xi, phi, dphi, f, df = self._cigar_columns(num=50)
        order = np.argsort(-xi)
        prof = NodeProfile(xi[order], phi[order], dphi[order], f[order],
                           df[order])
        assert prof.xi_min == 0.0

    def test_too_few_rows(self):
        with pytest.raises(ProfileMalformed):
            NodeProfile([0, 1, 2], [1, 1, 1], [0, 0, 0], [0, 0, 0],
                        [0, 0, 0])

    def test_duplicate_xi(self):
        with pytest.raises(ProfileMalformed):
            NodeProfile([0, 1, 1, 2], [1] * 4, [0] * 4, [0] * 4, [0] * 4)

    def test_non_finite(self):
        with pytest.raises(ProfileMalformed):
            NodeProfile([0, 1, 2, 3], [1, math.nan, 1, 1], [0] * 4,
                        [0] * 4, [0] * 4)

    def test_length_mismatch(self):
        with pytest.raises(ProfileMalformed):
            NodeProfile([0, 1, 2, 3], [1] * 3, [0] * 4, [0] * 4, [0] * 4)

    def test_out_of_domain(self):
        xi, phi, dphi, f, df = self._cigar_columns(num=50)
        prof = NodeProfile(xi, phi, dphi, f, df)
        with pytest.raises(OutOfDomain):
            prof.sample(100.0)


def test_import_leaves_scipy_interpolate_unloaded():
    # scipy.interpolate costs about half a second to import; only
    # NodeProfile needs it, so importing the package must not load it.
    code = ("import sys, soliton_reduce; "
            "print('scipy.interpolate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=package_env(),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
