"""Solving the reduced systems end to end, the stop events, and profiles
reconstructed from node data."""

import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import package_env, rng

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
from soliton_reduce.solve import reduced_events


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


def scan_problem(j):
    """Reduced run j of a seeded scan aimed across the singular locus
    (the construction of pipebench's solve-scan inputs at seed 1)."""
    gen = np.random.Generator(np.random.Philox(key=1_000_000 + j))
    n = int(gen.integers(2, 4))
    tau = float(gen.choice([-1.0, 1.0]) * gen.uniform(0.5, 1.5))
    p = make_problem(n=n, tau=tau, alpha=gen.uniform(-0.5, 0.5, n),
                     beta=gen.uniform(-0.5, 0.5, n),
                     lam=float(gen.uniform(-3.0, 1.0)))
    locus = -p.lambda_constant / (4.0 * tau)
    side = float(gen.choice([-1.0, 1.0]))
    xi0 = locus + side * float(gen.uniform(0.5, 2.0))
    ini = ReducedState(xi=xi0, phi=float(gen.uniform(0.5, 2.0)),
                       dphi=float(gen.uniform(-1.0, 1.0)), f=0.0,
                       df=float(gen.uniform(-1.0, 1.0)))
    cfg = IntegrationConfig(xi_span=(xi0, locus - side), rel_tol=1e-8,
                            abs_tol=1e-10,
                            events=reduced_events(p, ini, blowup=1e5))
    return p, ini, cfg


#: (accepted, rejected) steps of scan_problem(0 .. 19), recorded with the
#: numpy-stage integrator that preceded the float step loop; every run
#: ends by the field_blowup event.
SCAN_STEPS = [(174, 3), (158, 0), (154, 2), (172, 1), (1318, 1), (169, 2),
              (133, 0), (142, 0), (158, 0), (162, 0), (171, 0), (169, 2),
              (135, 0), (147, 11), (161, 0), (135, 0), (162, 1), (178, 8),
              (170, 5), (161, 0)]


class TestStepSequence:
    def test_scan_step_counts_recorded(self):
        got = []
        for j in range(len(SCAN_STEPS)):
            sol = solve_reduced(*scan_problem(j)).solution
            assert (sol.termination.kind, sol.termination.event) == \
                ("event", "field_blowup")
            got.append((sol.n_accepted, sol.n_rejected))
        assert got == SCAN_STEPS

    @pytest.mark.parametrize("rel_tol, steps, bound", [
        (1e-6, 11, 3.6e-6), (1e-8, 23, 2.6e-8), (1e-12, 124, 1.9e-12)])
    def test_cigar_accuracy(self, rel_tol, steps, bound):
        # Recorded before the float step loop: 3.52e-6, 2.52e-8 and
        # 1.878e-12 (now 1.883e-12), no rejected steps.
        entry = gallery("cigar")
        s1 = entry.profile.sample(1.0)
        ini = ReducedState(xi=1.0, phi=s1.phi, dphi=s1.dphi, f=s1.f,
                           df=s1.df)
        sol = solve_reduced(entry.problem, ini, IntegrationConfig(
            xi_span=(1.0, 8.0), rel_tol=rel_tol, abs_tol=rel_tol / 10)
        ).solution
        assert (sol.n_accepted, sol.n_rejected) == (steps, 0)
        xis = np.linspace(1.0, 8.0, 1001)
        assert np.max(np.abs(sol.eval(xis)[:, 0] ** 2 - (1.0 + xis))) <= bound

    def test_special_cigar_accuracy(self):
        entry = gallery("cigar")
        sol = solve_special(entry.problem, entry.special, IntegrationConfig(
            xi_span=(0.0, 12.0), rel_tol=1e-12, abs_tol=1e-13)).solution
        assert (sol.n_accepted, sol.n_rejected) == (132, 0)
        assert np.max(np.abs(sol.ys[:, 0] - (1.0 + sol.ts))) <= 1e-14

    def test_max_step_reaches_integrator(self):
        # The caller's config is passed through whole, events replaced.
        entry = gallery("cigar")
        cfg = IntegrationConfig(xi_span=(0.0, 8.0), first_step=0.01,
                                max_step=0.25)
        sol = solve_special(entry.problem, entry.special, cfg).solution
        assert sol.seg_h[0] == 0.01
        assert np.max(sol.seg_h) == 0.25


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


def spline_columns(x, gen):
    """Four smooth columns on the nodes x, scaled apart."""
    t = (x - x[0]) / (x[-1] - x[0])
    return np.stack([np.sin(3.0 * t) + 2.0, 1e3 * np.cos(t),
                     1e-3 * np.exp(t), gen.normal(size=x.size)])


def evaluate_columns(prof, xs):
    return np.stack(prof.evaluate(xs))


def spline_reference(x, cols, xs):
    """(phi, dphi, ddphi, f, df, ddf) from scipy's CubicSpline."""
    interpolate = pytest.importorskip("scipy.interpolate")
    phi, dphi, f, df = (interpolate.CubicSpline(x, c) for c in cols)
    return np.stack([phi(xs), dphi(xs), dphi(xs, 1), f(xs), df(xs),
                     df(xs, 1)])


def relative_gap(got, want):
    """Max |got - want| per field, relative to that field's max |want|."""
    scale = np.max(np.abs(want), axis=1)
    return np.max(np.abs(got - want), axis=1) / np.where(scale > 0, scale,
                                                        1.0)


#: Node sets: uniform, linspace, geometric, and graded steps from 1e-8 to
#: 1e6.
SPLINE_GRIDS = {
    "uniform": lambda n: np.arange(n, dtype=float),
    "linspace": lambda n: np.linspace(-1.3, 2.9, n),
    "geometric": lambda n: np.geomspace(1e-3, 1e3, n),
    "graded": lambda n: np.concatenate(
        [[0.0], np.cumsum(np.logspace(-8.0, 6.0, n - 1))]),
}


class TestNotAKnotSpline:
    @pytest.mark.parametrize("grid", ["uniform", "linspace", "jittered"])
    @pytest.mark.parametrize("n", [4, 5, 9, 200])
    def test_reproduces_cubics(self, grid, n):
        # Cubic data is reproduced exactly by a not-a-knot spline: values,
        # first and second derivatives, between the nodes too. (On the
        # strongly graded grids the data itself cannot pin a cubic down to
        # 1e-13: differences of values 1e-8 apart lose half the digits.)
        x = np.cumsum(rng(n).uniform(0.5, 2.0, n)) if grid == "jittered" \
            else SPLINE_GRIDS[grid](n)
        mid = 0.5 * (x[0] + x[-1])
        u = (x - mid) / (x[-1] - x[0])
        cubic = np.polynomial.Polynomial([0.3, -1.2, 0.7, 2.5])
        quad = np.polynomial.Polynomial([1.0, 0.4, -3.0])
        prof = NodeProfile(x, cubic(u), quad(u), -cubic(u), 5.0 * quad(u))
        xs = np.concatenate([x, np.linspace(x[0], x[-1], 37)])
        us = (xs - mid) / (x[-1] - x[0])
        dquad = quad.deriv()(us) / (x[-1] - x[0])
        want = np.stack([cubic(us), quad(us), dquad, -cubic(us),
                         5.0 * quad(us), 5.0 * dquad])
        assert np.all(relative_gap(evaluate_columns(prof, xs), want)
                      <= 1e-13)

    @pytest.mark.parametrize("grid", sorted(SPLINE_GRIDS))
    @pytest.mark.parametrize("n", [4, 5, 60])
    def test_matches_scipy(self, grid, n):
        x = SPLINE_GRIDS[grid](n)
        cols = spline_columns(x, rng(n))
        xs = np.concatenate([x, 0.5 * (x[1:] + x[:-1]), [x[0], x[-1]]])
        got = evaluate_columns(NodeProfile(x, *cols), xs)
        assert np.all(relative_gap(got, spline_reference(x, cols, xs))
                      <= 1e-12)

    def test_cigar_csv_equals_scipy(self, tmp_path):
        # The theorem-2 cigar CSV that `solve` writes (2001 uniform rows):
        # on this grid the sweep is bit-identical to scipy's solver.
        from test_cli import write_config

        from soliton_reduce.cli import main, read_profile_csv

        cfg = write_config(tmp_path / "cfg.json", output={"points": 2001})
        assert main(["solve", str(cfg), "--out", str(tmp_path)]) == 0
        data = np.loadtxt(tmp_path / "profile.csv", delimiter=",",
                          skiprows=2)
        prof = read_profile_csv(tmp_path / "profile.csv", 2)
        x = data[:, 0]
        xs = np.concatenate([x, 0.5 * (x[1:] + x[:-1])])
        assert np.array_equal(evaluate_columns(prof, xs),
                              spline_reference(x, data[:, 1:].T, xs))

    def test_scalar_and_zero_dim_queries(self):
        x = np.linspace(0.0, 2.0, 11)
        cols = spline_columns(x, rng(1))
        prof = NodeProfile(x, *cols)
        batch = evaluate_columns(prof, x)
        for k, xi in enumerate(x):
            s = prof.sample(float(xi))
            assert isinstance(s.phi, float)
            assert [s.phi, s.dphi, s.ddphi, s.f, s.df, s.ddf] == \
                batch[:, k].tolist()
            zero_dim = prof.evaluate(np.float64(xi))
            assert all(np.shape(v) == () for v in zero_dim)
            assert [float(v) for v in zero_dim] == batch[:, k].tolist()
        assert prof.sample(2.0).phi == cols[0][-1]


def test_cli_round_trip_loads_no_scipy(tmp_path):
    # `solve` then `verify` in one interpreter: neither may load scipy,
    # which is not a runtime dependency.
    from test_cli import write_config

    cfg = write_config(tmp_path / "cfg.json", output={"points": 300})
    code = (
        "import sys\n"
        "from soliton_reduce.cli import main\n"
        f"cfg, out = {str(cfg)!r}, {str(tmp_path)!r}\n"
        "assert main(['solve', cfg, '--out', out]) == 0\n"
        "assert main(['verify', cfg, out + '/profile.csv', '--out', out]) "
        "== 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", code], env=package_env(),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "report.json").exists()
