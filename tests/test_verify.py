"""Sampling, residual reports and the finite-difference oracle."""

import math

import numpy as np
import pytest

from conftest import rng
from soliton_reduce import (
    NodeProfile,
    SampleSpec,
    Signature,
    SolitonProblem,
    conformal_hessian,
    conformal_ricci,
    fd_curvature_oracle,
    fd_hessian_oracle,
    gallery,
    verify_profile,
)
from soliton_reduce import (
    IntegrationConfig,
    ReducedState,
    solve_reduced,
    solve_special,
)
from soliton_reduce.ansatz import QuadricAnsatz, xi_jet, xi_values
from soliton_reduce.errors import SamplingExhausted, SolitonReduceError
from soliton_reduce.geometry import TOL_PHI, ScalarJet2
from soliton_reduce.profiles import Profile, lift
from soliton_reduce.reduction import TOL_SING
from soliton_reduce.verify import (
    ORACLE_STEP,
    draw_points,
    residual_maxima,
    residual_scale,
)


def cigar_spec(**kw):
    kw.setdefault("box", [(-2.0, 2.0), (-2.0, 2.0)])
    kw.setdefault("count", 100)
    return SampleSpec(**kw)


class TestSampling:
    def test_deterministic(self):
        entry = gallery("cigar")
        a = draw_points(entry.problem, entry.profile, cigar_spec(seed=42))
        b = draw_points(entry.problem, entry.profile, cigar_spec(seed=42))
        assert np.array_equal(a, b)

    def test_seed_changes_points(self):
        entry = gallery("cigar")
        a = draw_points(entry.problem, entry.profile, cigar_spec(seed=1))
        b = draw_points(entry.problem, entry.profile, cigar_spec(seed=2))
        assert not np.array_equal(a, b)

    def test_points_in_box_and_domain(self):
        entry = gallery("cigar")
        pts = draw_points(entry.problem, entry.profile, cigar_spec())
        assert pts.shape == (100, 2)
        assert np.all(np.abs(pts) <= 2.0)
        for x in pts:
            xi = xi_jet(entry.problem.ansatz, x).value
            assert entry.profile.xi_min <= xi <= entry.profile.xi_max

    def test_grid_mode(self):
        entry = gallery("cigar")
        pts = draw_points(entry.problem, entry.profile,
                          cigar_spec(mode="grid", count=49))
        assert len(pts) <= 49
        assert len(pts) > 10

    def test_grid_covers_box(self):
        # 500 points on [-1, 1]^2: a 22 x 22 grid, whose last row is x0 = 1.
        entry = gallery("gaussian", n=2)
        spec = SampleSpec(box=[(-1.0, 1.0)] * 2, mode="grid", count=500)
        pts = draw_points(entry.problem, entry.profile, spec)
        assert len(pts) == 22 ** 2
        assert pts[:, 0].max() == 1.0
        assert pts[:, 1].min() == -1.0

    def test_grid_needs_two_per_axis(self):
        with pytest.raises(ValueError):
            SampleSpec(box=[(-1.0, 1.0)] * 3, mode="grid", count=7)
        SampleSpec(box=[(-1.0, 1.0)] * 3, mode="grid", count=8)

    def test_exhausted(self):
        # An unsatisfiable exclusion empties every batch.
        entry = gallery("cigar")
        impossible = cigar_spec(count=5, exclusion_phi=1e9)
        with pytest.raises(SamplingExhausted):
            draw_points(entry.problem, entry.profile, impossible)

    def test_box_dimension_checked(self):
        entry = gallery("cigar")
        with pytest.raises(ValueError):
            draw_points(entry.problem, entry.profile,
                        SampleSpec(box=[(-1.0, 1.0)], count=5))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SampleSpec(box=[(0.0, 0.0)], count=5)
        with pytest.raises(ValueError):
            SampleSpec(box=[(0.0, 1.0)], count=0)
        with pytest.raises(ValueError):
            SampleSpec(box=[(0.0, 1.0)], mode="sobol")

    @pytest.mark.parametrize("fields", [
        dict(seed=-1),
        dict(seed=1.0),
        dict(seed=True),
        dict(count=2.5),
        dict(count=np.float64(10.0)),
        dict(count=False),
        dict(box=[(-2.0, math.inf), (-1.0, 1.0)]),
        dict(box=[(-math.inf, 2.0), (-1.0, 1.0)]),
        dict(box=[(-2.0, 2.0), (math.nan, 1.0)]),
    ])
    def test_spec_rejects_bad_fields(self, fields):
        # Caught at construction: draw_points would otherwise fail inside
        # numpy's generator.
        with pytest.raises(ValueError):
            SampleSpec(**{"box": [(-2.0, 2.0)] * 2, **fields})

    def test_spec_accepts_numpy_integers(self):
        spec = SampleSpec(box=[(-2.0, 2.0)] * 2, count=np.int64(5),
                          seed=np.uint32(7))
        entry = gallery("cigar")
        assert len(draw_points(entry.problem, entry.profile, spec)) == 5


def pointwise_draw(p, prof, spec):
    """Reference sampler: one point at a time, one sample() each."""
    def ok(x):
        xi = xi_jet(p.ansatz, x).value
        if not prof.xi_min <= xi <= prof.xi_max:
            return False
        tau = p.ansatz.tau
        if tau != 0.0 and abs(4.0 * tau * xi + p.lambda_constant) \
                < max(spec.exclusion_sing, TOL_SING):
            return False
        try:
            s = prof.sample(xi)
        except SolitonReduceError:
            return False
        values = (s.phi, s.dphi, s.ddphi, s.f, s.df, s.ddf)
        return all(np.isfinite(values)) and abs(s.phi) >= spec.exclusion_phi

    if spec.mode == "grid":
        n = len(spec.box)
        k = 2
        while (k + 1) ** n <= spec.count:
            k += 1
        axes = np.meshgrid(*[np.linspace(lo, hi, k) for lo, hi in spec.box],
                           indexing="ij")
        grid = np.stack([a.ravel() for a in axes], axis=1)
        return np.array([x for x in grid if ok(x)])
    rng_ = np.random.Generator(np.random.Philox(key=spec.seed))
    lo, hi = np.array(spec.box).T
    out = []
    while len(out) < spec.count:
        for x in rng_.uniform(lo, hi, size=(spec.count, p.n)):
            if ok(x):
                out.append(x)
                if len(out) == spec.count:
                    break
    return np.array(out)


def phi_zero_profile():
    """space_form data integrated backward until the phi_zero event."""
    entry = gallery("space_form", beta=[-2.0, 0.0, 0.0])
    s = entry.profile.sample(1.0)
    prof = solve_reduced(entry.problem,
                         ReducedState(1.0, s.phi, s.dphi, s.f, s.df),
                         IntegrationConfig(xi_span=(1.0, -1.5)))
    assert prof.termination.event == "phi_zero"
    return entry.problem, prof


#: Gallery entries with exclusions (phi, singular locus) that each reject
#: part of the box [-2, 2]^2; the n2_polynomial domain is bounded too.
SAMPLED_PROFILES = {
    "gaussian": (lambda: gallery("gaussian", n=2, k=1.5, lam=-1.0),
                 1e-8, 2.0),
    "cigar": (lambda: gallery("cigar"), 1.2, 2.0),
    "space_form": (lambda: gallery("space_form", n=2), 1.2, 1e-8),
    "n2_polynomial": (lambda: gallery("n2_polynomial", c1=0.3, c2=-0.5,
                                      lam=-1.0), 0.5, 1e-8),
}


class TestBatchSampling:
    @pytest.mark.parametrize("mode", ["random", "grid"])
    @pytest.mark.parametrize("name", sorted(SAMPLED_PROFILES))
    def test_gallery_matches_pointwise(self, name, mode):
        make, exclusion_phi, exclusion_sing = SAMPLED_PROFILES[name]
        entry = make()
        spec = SampleSpec(box=[(-2.0, 2.0)] * 2, mode=mode, count=150,
                          seed=5, exclusion_phi=exclusion_phi,
                          exclusion_sing=exclusion_sing)
        pts = draw_points(entry.problem, entry.profile, spec)
        if mode == "grid":
            assert 0 < len(pts) < 12 ** 2  # some, not all, accepted
        assert np.array_equal(pts, pointwise_draw(entry.problem,
                                                  entry.profile, spec))

    @pytest.mark.parametrize("mode", ["random", "grid"])
    def test_event_stopped_profile_matches_pointwise(self, mode):
        p, prof = phi_zero_profile()
        for excl in (1e-8, 0.2):
            spec = SampleSpec(box=[(-2.0, 2.0)] * 3, mode=mode, count=300,
                              seed=9, exclusion_phi=excl)
            pts = draw_points(p, prof, spec)
            if mode == "grid":
                assert 0 < len(pts) < 6 ** 3
            assert np.array_equal(pts, pointwise_draw(p, prof, spec))


def evaluable_phi(prof, xis):
    """phi at each xi; NaN off the profile's domain and wherever any of its
    data is not finite."""
    phi = np.full(xis.shape, np.nan)
    inside = (prof.xi_min <= xis) & (xis <= prof.xi_max)
    data = np.stack(prof.evaluate(xis[inside]))
    phi[inside] = np.where(np.all(np.isfinite(data), axis=0), data[0],
                           np.nan)
    return phi


def batched_draw(p, prof, spec):
    """Reference sampler: every random batch holds `count` draws and is
    screened whole, the rows kept in draw order."""
    def admissible(xs):
        xis = xi_values(p.ansatz, xs)
        tau = p.ansatz.tau
        if tau != 0.0:
            near = np.abs(4.0 * tau * xis + p.lambda_constant) \
                < max(spec.exclusion_sing, TOL_SING)
            xis = np.where(near, np.nan, xis)
        return np.abs(evaluable_phi(prof, xis)) \
            >= max(spec.exclusion_phi, TOL_PHI)

    if spec.mode == "grid":
        n = len(spec.box)
        k = 2
        while (k + 1) ** n <= spec.count:
            k += 1
        axes = np.meshgrid(*[np.linspace(lo, hi, k) for lo, hi in spec.box],
                           indexing="ij")
        grid = np.stack([a.ravel() for a in axes], axis=1)
        return grid[admissible(grid)]
    gen = np.random.Generator(np.random.Philox(key=spec.seed))
    lo, hi = np.array(spec.box).T
    kept, n_kept, drawn = [], 0, 0
    while n_kept < spec.count:
        if drawn >= 200 * spec.count:
            raise SamplingExhausted(
                f"{n_kept}/{spec.count} points after {drawn} draws")
        batch = gen.uniform(lo, hi, size=(spec.count, p.n))
        drawn += spec.count
        kept.append(batch[admissible(batch)])
        n_kept += len(kept[-1])
    return np.concatenate(kept)[:spec.count]


def composed_report(p, prof, spec, threshold, oracle_points=3):
    """verify_profile's report from the public steps: draw_points, then
    residual_maxima, then the oracle gap against lift's jet of phi."""
    xs = draw_points(p, prof, spec)
    off, diag, trace, tensor, phi, ddphi = residual_maxima(p, prof, xs)
    scale = residual_scale(p.lam, phi, ddphi)
    families = dict(offdiag=off, diag=diag, trace=trace, tensor=tensor)
    report = {f"max_{k}": float(np.max(v)) / scale
              for k, v in families.items()}
    verdict = "pass" if all(v <= threshold for v in report.values()) \
        else "fail"
    pts = xs[:oracle_points]
    ricci_fd, rates = fd_curvature_oracle(
        p.sig, lambda x: evaluable_phi(prof, xi_values(p.ansatz, x)), pts,
        ORACLE_STEP)
    ok = ~np.isnan(rates)
    gap = None
    if np.any(ok):
        jet, _ = lift(p.ansatz, prof, pts[ok])
        gaps = np.max(np.abs(ricci_fd[ok] - conformal_ricci(p.sig, jet)),
                      axis=(-2, -1))
        worst = int(np.argmax(gaps))
        gap = {"gap": float(gaps[worst]), "step": ORACLE_STEP,
               "rate": float(rates[ok][worst])}
    report.update(scale=scale, points_evaluated=len(xs),
                  threshold=threshold, verdict=verdict, oracle_gap=gap)
    report.update({f"mean_{k}": float(np.mean(v)) / scale
                   for k, v in families.items()})
    return report


class CountingProfile(Profile):
    """Forwards to a profile, recording the xi of every evaluate call."""

    def __init__(self, inner: Profile):
        self.inner, self.calls = inner, []
        self.xi_min, self.xi_max = inner.xi_min, inner.xi_max
        self.termination = inner.termination

    def evaluate(self, xis):
        self.calls.append(np.array(xis, dtype=float).ravel())
        return self.inner.evaluate(xis)


class TestSinglePass:
    """verify_profile screens, evaluates and lifts each point once; what it
    reports is what the public steps compose to."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_draw_matches_batched_reference(self, integrated_cigar, seed):
        p, prof = integrated_cigar
        spec = cigar_spec(count=1000, seed=seed)
        assert np.array_equal(draw_points(p, prof, spec),
                              batched_draw(p, prof, spec))

    def test_low_acceptance_matches_batched_reference(self):
        # |phi| >= 2.6 keeps about 5% of the box: about twenty batches.
        entry = gallery("cigar")
        spec = cigar_spec(count=200, seed=3, exclusion_phi=2.6)
        pts = draw_points(entry.problem, entry.profile, spec)
        assert len(pts) == 200
        assert np.array_equal(pts, batched_draw(entry.problem, entry.profile,
                                                spec))

    def test_grid_matches_batched_reference(self, integrated_cigar):
        p, prof = integrated_cigar
        spec = cigar_spec(mode="grid", count=1000)
        pts = draw_points(p, prof, spec)
        assert 0 < len(pts) < 31 ** 2
        assert np.array_equal(pts, batched_draw(p, prof, spec))

    def test_exhaustion_after_the_full_budget(self):
        # |phi| >= 2.95 keeps about one draw in a thousand.
        entry = gallery("cigar")
        spec = cigar_spec(count=10, seed=0, exclusion_phi=2.95)
        with pytest.raises(SamplingExhausted) as ref:
            batched_draw(entry.problem, entry.profile, spec)
        with pytest.raises(SamplingExhausted, match="after 2000 draws") \
                as got:
            draw_points(entry.problem, entry.profile, spec)
        assert str(got.value) == str(ref.value)

    def test_budget_holds_when_acceptance_falls(self):
        # 9 of the first 10 draws pass, none after: follow-up batches of 6,
        # 9, then 10 draws, the last cut to end at exactly 200 * count.
        class FirstCallOnly(CountingProfile):
            def evaluate(self, xis):
                data = super().evaluate(xis)
                if len(self.calls) == 1:
                    return data
                return tuple(np.full(np.shape(xis), np.nan) for _ in data)

        entry = gallery("cigar")
        spec = cigar_spec(count=10, seed=4, exclusion_phi=1.2)
        prof = FirstCallOnly(entry.profile)
        with pytest.raises(SamplingExhausted,
                           match=r"^9/10 points after 2000 draws$"):
            draw_points(entry.problem, prof, spec)
        assert [c.size for c in prof.calls[:3]] == [10, 6, 9]
        assert sum(c.size for c in prof.calls) == 2000

    @pytest.mark.parametrize("kind", ["reduced", "special", "node",
                                      "lorentz4"])
    def test_report_equals_composed_steps(self, integrated_cigar, kind):
        if kind == "reduced":
            (p, prof), spec = integrated_cigar, cigar_spec(count=1000, seed=1)
        elif kind == "lorentz4":
            entry = gallery("space_form", n=4, eps=[1, -1, 1, 1])
            p, prof = entry.problem, entry.profile
            spec = SampleSpec(box=[(-2.0, 2.0)] * 4, count=1000, seed=2,
                              exclusion_phi=1e-2)
        else:
            entry = gallery("cigar")
            p, spec = entry.problem, cigar_spec(count=500, seed=4)
            prof = solve_special(p, entry.special, IntegrationConfig(
                xi_span=(0.0, 9.0), rel_tol=1e-12, abs_tol=1e-13))
            if kind == "node":
                xis = np.linspace(0.0, 8.0, 801)
                phi, dphi, _, f, df, _ = prof.evaluate(xis)
                prof = NodeProfile(xis, phi, dphi, f, df)
        report = verify_profile(p, prof, spec, threshold=1e-9).to_dict()
        assert report["oracle_gap"] is not None
        assert report == composed_report(p, prof, spec, 1e-9)

    def test_evaluation_budget(self, integrated_cigar):
        p, prof = integrated_cigar
        counting = CountingProfile(prof)
        spec = cigar_spec(count=1000, seed=1)
        assert verify_profile(p, counting, spec, threshold=1e-9).passed
        # Two screening batches, then the oracle's stencils: 3 points, 4
        # steps, (2n + 1)^2 nested points each.
        *screened, stencils = counting.calls
        assert len(screened) == 2
        assert stencils.size == 3 * 4 * 5 ** 2
        assert sum(c.size for c in counting.calls) <= 1400
        # Outside the stencils each residual point's xi is evaluated once.
        values, times = np.unique(np.concatenate(screened),
                                  return_counts=True)
        assert np.all(times == 1)
        xis = xi_values(p.ansatz, draw_points(p, prof, spec))
        assert np.all(np.isin(xis, values))

    @pytest.mark.parametrize("bad", [-1, 2.5, True])
    def test_oracle_points_rejected(self, bad):
        entry = gallery("cigar")
        with pytest.raises(ValueError, match="oracle_points"):
            verify_profile(entry.problem, entry.profile, cigar_spec(count=20),
                           oracle_points=bad)

    def test_oracle_points_zero_and_numpy_integer(self):
        entry = gallery("cigar")
        spec = cigar_spec(count=20)
        assert verify_profile(entry.problem, entry.profile, spec,
                              oracle_points=0).oracle_gap is None
        assert verify_profile(entry.problem, entry.profile, spec,
                              oracle_points=np.int64(3)).to_dict() \
            == verify_profile(entry.problem, entry.profile, spec).to_dict()


class TestVerifyProfile:
    def test_cigar_passes(self):
        entry = gallery("cigar")
        report = verify_profile(entry.problem, entry.profile,
                                cigar_spec(count=200), threshold=1e-9)
        assert report.passed
        assert report.max_tensor < 1e-12
        assert report.points_evaluated == 200
        assert report.oracle_gap is not None
        assert 1.8 <= report.oracle_gap.rate <= 2.2
        assert report.oracle_gap.gap < 1e-6

    def test_report_serializes(self):
        entry = gallery("cigar")
        report = verify_profile(entry.problem, entry.profile,
                                cigar_spec(count=50), run_oracle=False)
        d = report.to_dict()
        assert d["verdict"] == "pass"
        assert "mean_tensor" in d
        assert isinstance(report.to_json(), str)

    def test_corrupted_profile_fails(self):
        # Perturb the stored dphi column: the diagonal residual must
        # pick it up, because second derivatives are rebuilt from the
        # stored data, not from the equations.
        entry = gallery("cigar")
        xis = np.linspace(0.0, 8.0, 800)
        cols = {k: np.array([getattr(entry.profile.sample(float(x)), k)
                             for x in xis])
                for k in ("phi", "dphi", "f", "df")}
        cols["dphi"] = cols["dphi"] + 1e-3 * np.sin(3.0 * xis)
        prof = NodeProfile(xis, cols["phi"], cols["dphi"], cols["f"],
                           cols["df"])
        report = verify_profile(entry.problem, prof, cigar_spec(count=100),
                                threshold=1e-5, run_oracle=False)
        assert not report.passed
        assert report.max_diag > 1e-4

    def test_faithful_node_profile_passes(self):
        entry = gallery("cigar")
        xis = np.linspace(0.0, 8.0, 2001)
        samples = [entry.profile.sample(float(x)) for x in xis]
        prof = NodeProfile(xis,
                           [s.phi for s in samples],
                           [s.dphi for s in samples],
                           [s.f for s in samples],
                           [s.df for s in samples])
        report = verify_profile(entry.problem, prof, cigar_spec(count=100),
                                threshold=1e-5, run_oracle=False)
        assert report.passed

    def test_scale_factor(self):
        assert residual_scale(0.5, np.array([1.0]), np.array([0.1])) == 1.0
        assert residual_scale(-3.0, np.array([1.0]), np.array([0.1])) == 3.0
        assert residual_scale(0.0, np.array([4.0]), np.array([2.0])) == 8.0


class TestOracle:
    def test_independent_of_signature(self):
        gen = rng(17)
        for eps in ([1.0, 1.0], [1.0, -1.0], [1.0, 1.0, -1.0]):
            sig = Signature(eps)
            n = sig.n
            c = gen.uniform(-0.2, 0.2, n)
            q = gen.uniform(-0.1, 0.1, (n, n))
            q = 0.5 * (q + q.T)

            def phi_field(x, c=c, q=q):
                return 2.0 + x @ c + np.einsum("...i,ij,...j->...", x, q, x)

            xs = gen.uniform(-0.5, 0.5, (4, n))
            ric_batch, rate_batch = fd_curvature_oracle(sig, phi_field, xs)
            assert ric_batch.shape == (4, n, n) and rate_batch.shape == (4,)
            for x0, ric_b, rate_b in zip(xs, ric_batch, rate_batch):
                ric_fd, rate = fd_curvature_oracle(sig, phi_field, x0)
                # A batch gives exactly the tensor of its per-point calls.
                assert np.array_equal(ric_fd, ric_b)
                assert rate == rate_b
                jet = ScalarJet2(float(phi_field(x0)), c + 2.0 * q @ x0,
                                 2.0 * q)
                ric = conformal_ricci(sig, jet)
                assert np.max(np.abs(ric_fd - ric)) < 1e-6
                assert 1.8 <= rate <= 2.2

    def test_hessian_oracle(self):
        sig = Signature.riemannian(2)

        def phi_field(x):
            return 1.0 + 0.25 * np.sum(x * x, axis=-1)

        def f_field(x):
            x0, x1 = x[..., 0], x[..., 1]
            return 0.3 * x0 ** 2 - 0.2 * x0 * x1 + 0.5 * x1

        xs = np.array([[0.4, -0.3], [-0.7, 0.2], [0.1, 0.9]])
        batch = fd_hessian_oracle(sig, phi_field, f_field, xs)
        assert batch.shape == (3, 2, 2)
        for x0, hess_b in zip(xs, batch):
            hess_fd = fd_hessian_oracle(sig, phi_field, f_field, x0)
            assert np.array_equal(hess_fd, hess_b)
            phi_jet = ScalarJet2(float(phi_field(x0)), 0.5 * x0,
                                 0.5 * np.eye(2))
            f_jet = ScalarJet2(f_field(x0),
                               np.array([0.6 * x0[0] - 0.2 * x0[1],
                                         -0.2 * x0[0] + 0.5]),
                               np.array([[0.6, -0.2], [-0.2, 0.0]]))
            hess = conformal_hessian(sig, phi_jet, f_jet)
            assert np.max(np.abs(hess_fd - hess)) < 1e-6
        # An infinite phi on the first point's stencil (x_0 > 0.45) or at
        # its centre (x_0 > 0.35) once gave a finite, wrong Hessian or a
        # LinAlgError; now that point alone is NaN.
        for edge in (0.45, 0.35):
            def phi_blowup(x, edge=edge):
                return np.where(x[..., 0] > edge, np.inf, phi_field(x))

            hess_inf = fd_hessian_oracle(sig, phi_blowup, f_field, xs, 0.1)
            assert np.all(np.isnan(hess_inf[0]))
            assert np.array_equal(hess_inf[1:], fd_hessian_oracle(
                sig, phi_field, f_field, xs[1:], 0.1))
