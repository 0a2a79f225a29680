"""Reduced ODE right-hand sides, the constrained branch and the
closed-form gallery."""

import math

import numpy as np
import pytest

from soliton_reduce import (
    ReducedState,
    Signature,
    SolitonProblem,
    SpecialParams,
    check_special_constraint,
    gallery,
    lambda_constant,
    reduced_rhs,
    special_rhs,
)
from soliton_reduce.ansatz import QuadricAnsatz
from soliton_reduce.errors import (
    DegenerateConformalFactor,
    InvalidGalleryParams,
    NonPositiveH,
    NullTranslationDirection,
    RequiresNonzeroTau,
    SingularLocus,
)
from soliton_reduce.reduction import (
    _special_slopes,
    check_null_direction,
    reduced_second_derivatives,
    special_jet,
)


def rhs_at(p: SolitonProblem, s: ReducedState) -> tuple:
    """(phi', phi'', f', f'') of problem p's float closure at state s."""
    return reduced_rhs(p)(s.xi, [s.phi, s.dphi, s.f, s.df])


def make_problem(n=3, tau=1.0, alpha=None, beta=None, lam=0.0, eps=None):
    sig = Signature(eps) if eps is not None else Signature.riemannian(n)
    a = QuadricAnsatz(tau,
                      np.zeros(sig.n) if alpha is None else np.asarray(alpha,
                                                                       float),
                      np.zeros(sig.n) if beta is None else np.asarray(beta,
                                                                      float),
                      sig)
    return SolitonProblem(sig, a, lam)


class TestReducedRhs:
    def test_hand_value(self):
        # [TRIVIAL] n=3, tau=1, Lambda=1, lam=0, (phi, phi', f') = (1, 0, 1)
        # at xi=0: phi'' = -2, f'' = 2.
        p = make_problem(n=3, tau=1.0, alpha=[1.0, 0.0, 0.0])
        assert p.lambda_constant == 1.0
        s = ReducedState(xi=0.0, phi=1.0, dphi=0.0, f=0.0, df=1.0)
        dphi, ddphi, df, ddf = rhs_at(p, s)
        assert (dphi, df) == (0.0, 1.0)
        assert ddphi == pytest.approx(-2.0, abs=1e-14)
        assert ddf == pytest.approx(2.0, abs=1e-14)

    def test_gaussian_stationary(self):
        # phi = k, f' = lam/(2 tau k^2) is an equilibrium of the system.
        for k, tau, lam in [(1.0, 1.0, 2.0), (2.0, -1.0, -3.0)]:
            p = make_problem(n=3, tau=tau, beta=[0.3, 0.0, 0.0], lam=lam)
            a1 = lam / (2.0 * tau * k ** 2)
            s = ReducedState(xi=1.0, phi=k, dphi=0.0, f=0.0, df=a1)
            _, ddphi, _, ddf = rhs_at(p, s)
            assert abs(ddphi) < 1e-13
            assert abs(ddf) < 1e-13

    def test_space_form_stationary(self):
        # phi = xi + 1, f constant is exact for lam = 8 (n=3, tau=1).
        p = make_problem(n=3, tau=1.0, lam=8.0)
        for xi in (0.5, 1.0, 3.0):
            s = ReducedState(xi=xi, phi=xi + 1.0, dphi=1.0, f=0.0, df=0.0)
            _, ddphi, _, ddf = rhs_at(p, s)
            assert abs(ddphi) < 1e-12
            assert abs(ddf) < 1e-12

    def test_both_equations_satisfied(self):
        # The returned second derivatives solve both reduced equations.
        p = make_problem(n=4, tau=0.7, alpha=[0.2, 0.0, 0.1, 0.0],
                         beta=[0.1, 0.0, 0.0, 0.0], lam=-1.3)
        big_l = p.lambda_constant
        s = ReducedState(xi=0.8, phi=1.4, dphi=-0.3, f=0.2, df=0.6)
        _, ddphi, _, ddf = rhs_at(p, s)
        n = 4
        eq1 = (n - 2) * ddphi + s.phi * ddf + 2 * s.dphi * s.df
        big_t = 4 * p.ansatz.tau * s.xi + big_l
        eq2 = (2 * p.ansatz.tau * s.phi
               * (2 * (n - 1) * s.dphi + s.phi * s.df)
               + (s.phi * ddphi - (n - 1) * s.dphi ** 2
                  - s.phi * s.dphi * s.df) * big_t - p.lam)
        assert abs(eq1) < 1e-12
        assert abs(eq2) < 1e-12

    def test_singular_locus_raises(self):
        p = make_problem(n=3, tau=1.0)  # Lambda = 0, locus at xi = 0
        rhs = reduced_rhs(p)
        with pytest.raises(SingularLocus):
            rhs(0.0, [1.0, 0.0, 0.0, 0.0])

    def test_degenerate_phi_raises(self):
        p = make_problem(n=3, tau=1.0)
        rhs = reduced_rhs(p)
        with pytest.raises(DegenerateConformalFactor):
            rhs(1.0, [1e-14, 0.0, 0.0, 0.0])

    def test_null_direction_rejected(self):
        # tau = 0 with lightlike alpha: Lambda = 0.
        p = make_problem(n=2, tau=0.0, alpha=[1.0, 1.0], eps=[1.0, -1.0])
        assert p.lambda_constant == 0.0
        with pytest.raises(NullTranslationDirection):
            check_null_direction(p)
        with pytest.raises(NullTranslationDirection):
            reduced_rhs(p)  # when the closure is built, not when called

    def test_state_vector_round_trip(self):
        s = ReducedState(xi=1.5, phi=2.0, dphi=-0.5, f=0.3, df=0.7)
        assert ReducedState(1.5, *s.as_vector()) == s


class TestProblem:
    def test_regime(self):
        assert make_problem(lam=1.0).regime == "shrinking"
        assert make_problem(lam=0.0).regime == "steady"
        assert make_problem(lam=-1.0).regime == "expanding"

    def test_signature_mismatch(self):
        sig2 = Signature.riemannian(2)
        a = QuadricAnsatz(1.0, np.zeros(2), np.zeros(2), sig2)
        with pytest.raises(ValueError):
            SolitonProblem(Signature.riemannian(3), a, 0.0)


class TestSpecialBranch:
    def test_requires_nonzero_tau(self):
        p = make_problem(n=3, tau=0.0, alpha=[1.0, 0.0, 0.0])
        sp = SpecialParams(c1=-1.0, c2=0.0, h0=1.0)
        with pytest.raises(RequiresNonzeroTau):
            special_rhs(p, sp)  # when the closure is built

    def test_nonpositive_h(self):
        p = make_problem(n=3, tau=1.0)
        sp = SpecialParams(c1=-1.0, c2=0.0, h0=1.0)
        rhs = special_rhs(p, sp)
        for h in (-0.5, 0.0):
            with pytest.raises(NonPositiveH):
                rhs(1.0, [h, 0.0])

    def test_h0_must_be_positive(self):
        with pytest.raises(ValueError):
            SpecialParams(c1=0.0, c2=0.0, h0=0.0)

    def test_cigar_slope(self):
        # n=2, c1=-1, c2=0, lam=0: h' = (0 + 0 + h^0)/(1) = 1, so h = 1+xi.
        entry = gallery("cigar")
        p, sp = entry.problem, entry.special
        rhs = special_rhs(p, sp)
        for xi, h in [(0.0, 1.0), (1.0, 2.0), (3.0, 4.0)]:
            assert rhs(xi, [h, 0.0]) == pytest.approx((1.0, -1.0 / h))

    def test_constraint_on_cigar_trajectory(self):
        # Along h = 1 + xi the reconstruction satisfies 4 phi'' + phi f'' = 0.
        entry = gallery("cigar")
        p, sp = entry.problem, entry.special
        for xi in (0.0, 0.5, 2.0, 7.0):
            h = 1.0 + xi
            _, _, ddphi, _, ddf = special_jet(p, sp, xi, h)
            assert check_special_constraint([math.sqrt(h)], [ddphi], [ddf],
                                            2) < 1e-12

    def test_constraint_on_einstein_branch(self):
        # c1 = 0 with h a perfect square (phi linear, f constant) lies on
        # the first-order branch for every n; the constraint holds along it.
        b1, b2, tau = 0.7, 1.1, 1.0
        for n in (3, 4, 6):
            lam = 4.0 * tau * (n - 1) * b1 * b2
            c2 = (n - 1) * b1 ** 2 / (2.0 * tau)
            p = make_problem(n=n, tau=tau, lam=lam)
            sp = SpecialParams(c1=0.0, c2=c2, h0=b2 ** 2)
            for xi in (0.0, 1.0, 3.0):
                h = (b1 * xi + b2) ** 2
                assert special_rhs(p, sp)(xi, [h, 0.0])[0] == \
                    pytest.approx(2.0 * b1 * (b1 * xi + b2), abs=1e-12)
                _, _, ddphi, _, ddf = special_jet(p, sp, xi, h)
                assert check_special_constraint([math.sqrt(h)], [ddphi],
                                                [ddf], n) < 1e-11

    def test_generic_constants_violate_second_equation(self):
        # The first-order branch is necessary but not sufficient: with
        # generic (c1, c2) the reconstructed trajectory violates the
        # second reduced equation (and the defining constraint). Only the
        # compatibility locus of constants yields solitons; this pins the
        # distinction so the gallery fixtures stay on that locus.
        n = 3
        p = make_problem(n=n, tau=1.0, lam=0.5)
        sp = SpecialParams(c1=-0.8, c2=0.4, h0=1.3)
        xi, h = 1.0, 2.0
        dh, df = special_rhs(p, sp)(xi, [h, 0.0])
        phi = math.sqrt(h)
        dphi = dh / (2.0 * phi)
        _, _, ddphi, _, ddf = special_jet(p, sp, xi, h)
        big_t = 4.0 * p.ansatz.tau * xi + p.lambda_constant
        eq2 = (2.0 * p.ansatz.tau * phi * (2 * (n - 1) * dphi + phi * df)
               + (phi * ddphi - (n - 1) * dphi ** 2 - phi * dphi * df)
               * big_t - p.lam)
        assert abs(eq2) > 1e-2
        assert check_special_constraint([phi], [ddphi], [ddf], n) > 1e-2


class TestGallery:
    def test_names(self):
        from soliton_reduce import GALLERY_NAMES
        assert set(GALLERY_NAMES) == {"gaussian", "cigar", "space_form",
                                      "n2_polynomial"}

    def test_unknown_name(self):
        with pytest.raises(InvalidGalleryParams):
            gallery("nope")

    def test_gaussian_potential_slope(self):
        entry = gallery("gaussian", k=2.0, tau=-1.0, lam=-3.0)
        s = entry.profile.sample(1.0)
        assert s.phi == 2.0
        assert s.df == pytest.approx(-3.0 / (2.0 * -1.0 * 4.0))

    def test_gaussian_invalid(self):
        with pytest.raises(InvalidGalleryParams):
            gallery("gaussian", tau=0.0)
        with pytest.raises(InvalidGalleryParams):
            gallery("gaussian", k=0.0)

    def test_cigar_profile_values(self):
        entry = gallery("cigar")
        s = entry.profile.sample(3.0)
        assert s.phi == pytest.approx(2.0)
        assert s.f == pytest.approx(-math.log(4.0))
        assert s.df == pytest.approx(-0.25)

    def test_cigar_invalid(self):
        with pytest.raises(InvalidGalleryParams):
            gallery("cigar", n=3)
        with pytest.raises(InvalidGalleryParams):
            gallery("cigar", lam=1.0)

    def test_space_form_forced_lambda(self):
        # [DERIVED] lam = (n-1) b1 (4 tau b2 - b1 Lambda); 8 for the
        # default n=3, b1=b2=tau=1, Lambda=0.
        entry = gallery("space_form")
        assert entry.problem.lam == pytest.approx(8.0)
        assert entry.params["forced_lambda"] == pytest.approx(8.0)

    def test_space_form_lambda_from_brute_force(self):
        # Solve the second reduced equation for lam by substitution and
        # check it is xi-independent and matches the closed form.
        b1, b2, tau = 0.7, 1.3, -0.8
        n = 4
        p = make_problem(n=n, tau=tau, alpha=[0.5, 0, 0, 0],
                         beta=[0.1, 0, 0, 0])
        big_l = p.lambda_constant
        lam_formula = (n - 1) * b1 * (4 * tau * b2 - b1 * big_l)
        for xi in (0.3, 1.0, 2.7):
            phi = b1 * xi + b2
            big_t = 4 * tau * xi + big_l
            lam = (2 * tau * phi * (2 * (n - 1) * b1)
                   + (0.0 - (n - 1) * b1 ** 2 - 0.0) * big_t)
            assert lam == pytest.approx(lam_formula, abs=1e-12)

    def test_space_form_invalid(self):
        with pytest.raises(InvalidGalleryParams):
            gallery("space_form", b1=0.0)

    def test_n2_polynomial_matches_special_branch(self):
        entry = gallery("n2_polynomial", c1=-0.5, c2=0.3, c3=1.2,
                        tau=1.0, lam=0.4)
        rhs = special_rhs(entry.problem, entry.special)
        for xi in (0.0, 0.5, 2.0, 5.0):
            s = entry.profile.sample(xi)
            h = s.phi ** 2
            dh = 2.0 * s.phi * s.dphi
            assert (dh, s.df) == pytest.approx(rhs(xi, [h, 0.0]), abs=1e-12)

    def test_n2_polynomial_coefficients(self):
        # h = 2 c2 tau xi^2 + (c2 L + lam/(2 tau) - c1) xi + c3.
        c1, c2, c3, tau, lam = -0.5, 0.3, 1.2, 1.0, 0.4
        entry = gallery("n2_polynomial", c1=c1, c2=c2, c3=c3, tau=tau,
                        lam=lam)
        big_l = entry.problem.lambda_constant
        for xi in (0.0, 1.0, 3.0):
            h_expect = (2 * c2 * tau * xi ** 2
                        + (c2 * big_l + lam / (2 * tau) - c1) * xi + c3)
            assert entry.profile.sample(xi).phi ** 2 == pytest.approx(
                h_expect, abs=1e-12)

    def test_n2_polynomial_invalid(self):
        with pytest.raises(InvalidGalleryParams):
            gallery("n2_polynomial", tau=0.0)
        with pytest.raises(InvalidGalleryParams):
            gallery("n2_polynomial", c3=-1.0)  # h(0) < 0


def n2_reference(c1, c2, c3, tau, lam, f0=0.0, xi_anchor=0.0):
    """Scalar closed form of the n = 2 polynomial family (default ansatz,
    Lambda = 0): h = a xi^2 + b xi + c, f' = c1 / h, f by quadrature
    (scipy's, an independent oracle needed by the tests only)."""
    a, b, c = 2.0 * c2 * tau, lam / (2.0 * tau) - c1, c3

    def at(xi):
        quad = pytest.importorskip("scipy.integrate").quad
        h, dh = (a * xi + b) * xi + c, 2.0 * a * xi + b
        phi = math.sqrt(h)
        dphi = dh / (2.0 * phi)
        f = f0 + quad(lambda s: c1 / ((a * s + b) * s + c), xi_anchor, xi,
                      epsabs=1e-13, epsrel=1e-13)[0]
        return (phi, dphi, (a - dphi ** 2) / phi, f, c1 / h,
                -c1 * dh / h ** 2)
    return at


#: (gallery params, scalar reference xi -> 6-tuple, xi grid).
CLOSED_FORMS = {
    "gaussian": (dict(name="gaussian", k=1.5, tau=-2.0, lam=0.6, a2=0.1),
                 lambda xi: (1.5, 0.0, 0.0, 0.6 / (-4.0 * 2.25) * xi + 0.1,
                             0.6 / (-4.0 * 2.25), 0.0),
                 np.linspace(-3.0, 3.0, 7)),
    "cigar": (dict(name="cigar"),
              lambda xi: (math.sqrt(1 + xi), 0.5 / math.sqrt(1 + xi),
                          -0.25 * (1 + xi) ** -1.5, -math.log(1 + xi),
                          -1 / (1 + xi), (1 + xi) ** -2),
              np.linspace(-0.9, 6.0, 7)),
    "space_form": (dict(name="space_form", b1=-0.7, b2=1.3, f0=0.2),
                   lambda xi: (-0.7 * xi + 1.3, -0.7, 0.0, 0.2, 0.0, 0.0),
                   np.linspace(-3.0, 1.8, 7)),
    "n2_disc_negative": (
        dict(name="n2_polynomial", c1=-0.5, c2=0.3, c3=1.2, tau=1.0,
             lam=0.4, f0=0.2),
        n2_reference(-0.5, 0.3, 1.2, 1.0, 0.4, f0=0.2),
        np.linspace(-2.0, 2.0, 7)),
    "n2_disc_positive": (
        dict(name="n2_polynomial", c1=0.3, c2=-0.5, lam=-1.0),
        n2_reference(0.3, -0.5, 1.0, 1.0, -1.0), np.linspace(-1.2, 0.5, 7)),
    "n2_disc_zero": (
        dict(name="n2_polynomial", c1=-1.0, c2=0.5, lam=2.0),
        n2_reference(-1.0, 0.5, 1.0, 1.0, 2.0), np.linspace(-0.8, 2.0, 7)),
    "n2_linear": (
        dict(name="n2_polynomial", c1=0.3, c2=0.0, lam=0.0),
        n2_reference(0.3, 0.0, 1.0, 1.0, 0.0), np.linspace(-2.0, 3.0, 7)),
    "n2_constant": (
        dict(name="n2_polynomial", c1=0.3, c2=0.0, lam=0.6, c3=2.0),
        n2_reference(0.3, 0.0, 2.0, 1.0, 0.6), np.linspace(-2.0, 3.0, 7)),
}


class TestArrayEvaluation:
    @pytest.mark.parametrize("case", sorted(CLOSED_FORMS))
    def test_evaluate_matches_closed_form(self, case):
        params, reference, xis = CLOSED_FORMS[case]
        params = dict(params)
        prof = gallery(params.pop("name"), **params).profile
        got = np.array(prof.evaluate(xis))
        ref = np.array([reference(float(xi)) for xi in xis]).T
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
        for xi, column in zip(xis, got.T):
            s = prof.sample(float(xi))
            assert (s.phi, s.dphi, s.ddphi, s.f, s.df, s.ddf) == \
                tuple(column)

    def test_reduced_rhs_arrays_match_floats(self):
        p = make_problem(n=3, tau=0.7, alpha=[0.2, -0.1, 0.3], lam=-0.5)
        gen = np.random.Generator(np.random.Philox(key=4))
        xi, phi, dphi, f, df = (gen.uniform(0.5, 2.0, 50) for _ in range(5))
        rhs = reduced_rhs(p)
        one = np.array([rhs(x, [a, b, c, d]) for x, a, b, c, d in
                        zip(xi.tolist(), phi.tolist(), dphi.tolist(),
                            f.tolist(), df.tolist())]).T
        assert np.array_equal(
            reduced_second_derivatives(p, xi, phi, dphi, df), one[1::2])

    def test_reduced_rhs_arrays_nan_at_guards(self):
        p = make_problem(n=3, tau=1.0)  # Lambda = 0: locus at xi = 0
        xi = np.array([1.0, 0.0, 1.0])
        phi = np.array([1.0, 1.0, 1e-13])
        one = np.ones(3)
        ddphi, ddf = reduced_second_derivatives(p, xi, phi, one, one)
        assert np.isfinite(ddphi[0]) and np.isfinite(ddf[0])
        assert np.all(np.isnan(ddphi[1:])) and np.all(np.isnan(ddf[1:]))

    def test_special_arrays_match_floats(self):
        p = make_problem(n=4, tau=0.8, lam=0.3)
        sp = SpecialParams(c1=-0.4, c2=0.2, h0=1.0)
        xis = np.linspace(0.0, 2.0, 9)
        hs = np.linspace(0.5, 3.0, 9)
        arrays = np.array(special_jet(p, sp, xis, hs))
        points = list(zip(xis.tolist(), hs.tolist()))
        floats = np.array([special_jet(p, sp, xi, h) for xi, h in points]).T
        assert np.array_equal(arrays, floats)
        rhs = special_rhs(p, sp)
        dh, df = np.array([rhs(xi, [h, 0.0]) for xi, h in points]).T
        assert np.array_equal(arrays[1], dh / (2.0 * arrays[0]))
        assert np.array_equal(arrays[3], df)
        jet = np.array(special_jet(p, sp, np.zeros(2),
                                   np.array([1.0, -1.0])))
        assert np.isfinite(jet).all(axis=0).tolist() == [True, False]
        assert np.isnan(jet[:, 1]).all()


def random_problem(gen: np.random.Generator, n: int) -> SolitonProblem:
    eps = [1.0] + gen.choice([-1.0, 1.0], n - 1).tolist()
    return make_problem(tau=float(gen.uniform(0.5, 1.5)),
                        alpha=gen.uniform(-1.0, 1.0, n),
                        beta=gen.uniform(-1.0, 1.0, n),
                        lam=float(gen.uniform(-3.0, 3.0)), eps=eps)


class TestClosures:
    """The integrator's float closures against the array paths that share
    their expressions, guards included."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_reduced_bit_identical(self, n):
        gen = np.random.Generator(np.random.Philox(key=n))
        p = random_problem(gen, n)
        # numpy's vectorised dphi**2 and libm's pow differ on about 1 in
        # 1000 inputs, so 4000 states catch an array path using `**`.
        xi, dphi, f, df = (gen.uniform(-3.0, 3.0, 4000) for _ in range(4))
        phi = gen.choice([-1.0, 1.0], 4000) * gen.uniform(0.1, 3.0, 4000)
        rhs = reduced_rhs(p)
        out = [rhs(x, [a, b, c, d]) for x, a, b, c, d in
               zip(xi.tolist(), phi.tolist(), dphi.tolist(), f.tolist(),
                   df.tolist())]
        assert {type(v) for row in out for v in row} == {float}
        one = np.array(out).T
        assert np.array_equal(one[0::2], [dphi, df])
        assert np.array_equal(
            one[1::2], reduced_second_derivatives(p, xi, phi, dphi, df))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_special_bit_identical(self, n):
        gen = np.random.Generator(np.random.Philox(key=10 + n))
        p = random_problem(gen, n)
        sp = SpecialParams(c1=float(gen.uniform(-2.0, 2.0)),
                           c2=float(gen.uniform(-2.0, 2.0)), h0=1.0)
        xi, h = gen.uniform(-3.0, 3.0, 400), gen.uniform(1e-3, 10.0, 400)
        rhs = special_rhs(p, sp)
        out = [rhs(x, [v, 0.0]) for x, v in zip(xi.tolist(), h.tolist())]
        assert {type(v) for row in out for v in row} == {float}
        slopes = _special_slopes(p, sp, np.float_power)
        assert np.array_equal(np.array(out).T, slopes(xi, h))
        # The profile's array path: the same h' and f', whence phi'.
        phi, dphi, _, df, _ = special_jet(p, sp, xi, h)
        assert np.array_equal(df, np.array(out)[:, 1])
        assert np.array_equal(dphi, np.array(out)[:, 0] / (2.0 * phi))

    def test_float_guards_raise_array_guards_nan(self):
        p = make_problem(n=3, tau=1.0, alpha=[1.0, 0.0, 0.0])  # Lambda = 1
        rhs = reduced_rhs(p)
        with pytest.raises(DegenerateConformalFactor):
            rhs(1.0, [-1e-12, 0.5, 0.0, 0.5])
        with pytest.raises(SingularLocus):
            rhs(-0.25, [1.0, 0.5, 0.0, 0.5])
        ddphi, ddf = reduced_second_derivatives(
            p, np.array([1.0, 1.0, -0.25]), np.array([1.0, -1e-12, 1.0]),
            np.full(3, 0.5), np.full(3, 0.5))
        assert np.isfinite([ddphi[0], ddf[0]]).all()
        assert np.isnan([ddphi[1:], ddf[1:]]).all()
        sp = SpecialParams(c1=-1.0, c2=0.5, h0=1.0)
        with pytest.raises(NonPositiveH):
            special_rhs(p, sp)(0.0, [-1e-300, 0.0])
        jet = np.array(special_jet(p, sp, np.zeros(2),
                                   np.array([1.0, 0.0])))
        assert np.isfinite(jet[:, 0]).all() and np.isnan(jet[:, 1]).all()

    def test_problem_errors_at_build_time(self):
        null = make_problem(n=2, tau=0.0, alpha=[1.0, 1.0], eps=[1.0, -1.0])
        with pytest.raises(NullTranslationDirection):
            reduced_rhs(null)
        with pytest.raises(NullTranslationDirection):
            reduced_second_derivatives(null, 0.0, 1.0, 0.0, 0.0)
        flat = make_problem(n=3, tau=0.0, alpha=[1.0, 0.0, 0.0])
        sp = SpecialParams(c1=-1.0, c2=0.0, h0=1.0)
        with pytest.raises(RequiresNonzeroTau):
            special_rhs(flat, sp)
