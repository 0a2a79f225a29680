"""Bit-for-bit pins of the certify kernels: the short-axis reductions, the
jets that are symmetric by construction, the diagonal-metric Christoffel
symbols of the FD oracle and the per-point maxima of verify_profile."""

import numpy as np
import pytest

from conftest import random_ansatz, random_signature, rng
from soliton_reduce import (
    SampleSpec,
    ScalarJet2,
    Signature,
    gallery,
    residual_diag,
    residual_offdiag,
    residual_soliton_tensor,
    residual_trace,
    verify_profile,
)
from soliton_reduce.ansatz import xi_jet, xi_jet_at, xi_values
from soliton_reduce.geometry import _max_last, _sum_last
from soliton_reduce.profiles import compose, lift
from soliton_reduce.verify import (
    _central,
    _christoffel,
    _lead,
    draw_points,
    residual_scale,
)


def assert_same(got, want):
    """Equal values (either sign of zero) and NaN at the same places."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], want[~nan])


def special_values(gen, shape):
    """Values over many magnitudes with +-0, NaN and +-inf mixed in."""
    out = gen.standard_normal(shape) * 10.0 ** gen.integers(-8, 9, shape)
    pick = gen.uniform(size=shape)
    out[pick < 0.04] = 0.0
    out[(0.04 <= pick) & (pick < 0.08)] = -0.0
    out[(0.08 <= pick) & (pick < 0.10)] = np.nan
    out[(0.10 <= pick) & (pick < 0.12)] = np.inf
    out[(0.12 <= pick) & (pick < 0.14)] = -np.inf
    return out


class TestShortAxisReductions:
    """Below 8 terms numpy sums left to right, so the helpers match np.sum
    and np.max exactly, NaN included."""

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("batch", [(), (1,), (257,), (6, 9)])
    def test_match_numpy(self, n, batch):
        gen = rng(100 * n + len(batch))
        for _ in range(4):
            a = special_values(gen, batch + (n,))
            with np.errstate(invalid="ignore"):  # inf - inf
                assert_same(_sum_last(a), np.sum(a, axis=-1))
            assert_same(_max_last(a), np.max(a, axis=-1))
            finite = np.where(np.isfinite(a), a, 1.5)
            assert_same(_sum_last(finite), np.sum(finite, axis=-1))
            assert_same(_max_last(np.abs(a)), np.max(np.abs(a), axis=-1))

    def test_nan_anywhere_propagates(self):
        for k in range(5):
            a = np.arange(5.0)
            a[k] = np.nan
            assert np.isnan(_max_last(a)) and np.isnan(_sum_last(a))

    def test_signed_zeros(self):
        a = np.array([[-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]])
        assert_same(_sum_last(a), np.sum(a, axis=-1))
        assert_same(_max_last(a), np.max(a, axis=-1))


class TestJetsSymmetricByConstruction:
    """compose and xi_jet_at skip the symmetrization; their Hessians are
    exactly symmetric, so a public ScalarJet2 of the same arrays holds the
    same Hessian bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_xi_and_composed_jets(self, n):
        gen = rng(40 + n)
        a = random_ansatz(gen, random_signature(gen, n))
        xs = gen.uniform(-2.0, 2.0, (200, n))
        xi = xi_jet(a, xs)
        assert not xi.hessian.flags.writeable
        data = [gen.uniform(-3.0, 3.0, 200) for _ in range(6)]
        for jet in (xi, *compose(xi, data)):
            assert np.array_equal(jet.hessian,
                                  np.swapaxes(jet.hessian, -1, -2))
            again = ScalarJet2(jet.value, jet.gradient, jet.hessian)
            assert np.array_equal(again.hessian, jet.hessian)
            assert np.array_equal(np.signbit(again.hessian),
                                  np.signbit(jet.hessian))

    def test_xi_jet_at_is_xi_jet(self):
        gen = rng(7)
        a = random_ansatz(gen, random_signature(gen, 3))
        xs = gen.uniform(-1.0, 1.0, (50, 3))
        at, ref = xi_jet_at(a, xs, xi_values(a, xs)), xi_jet(a, xs)
        for name in ("value", "gradient", "hessian"):
            assert np.array_equal(getattr(at, name), getattr(ref, name))

    def test_single_point_value_is_float(self):
        entry = gallery("space_form", n=4, eps=[1, -1, 1, 1])
        phi, f = lift(entry.problem.ansatz, entry.profile,
                      np.array([0.3, -0.2, 0.5, 0.1]))
        assert type(phi.value) is float and type(f.value) is float
        assert phi.hessian.shape == (4, 4)

    def test_public_constructor_still_symmetrizes(self):
        h = np.array([[1.0, 2.0], [0.0, 3.0]])
        jet = ScalarJet2(1.0, np.zeros(2), h)
        assert np.array_equal(jet.hessian, [[1.0, 1.0], [1.0, 3.0]])


def general_christoffel(sig, phi, step):
    """The general-metric Christoffel symbols of gbar = diag(eps) / phi^2
    from a full (..., 2n+1, n, n) metric stack and its matrix inverse: the
    reference the diagonal-metric version must reproduce."""
    n = sig.n
    g = np.diag(sig.eps) / phi[..., None, None] ** 2
    dg = _central(g, step, 2)
    ginv = np.linalg.inv(g[..., 0, :, :])
    # t[..., i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    t = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    acc = 0.0
    for l in range(n):
        acc = acc + ginv[..., :, l, None, None] * t[..., None, :, :, l]
    return 0.5 * acc


class TestDiagonalChristoffel:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_general_metric(self, n):
        gen = rng(70 + n)
        for sig in (Signature(np.where(np.arange(n) % 2, -1.0, 1.0)),
                    random_signature(gen, n)):
            sign = np.where(gen.uniform(size=(6, 1)) < 0.5, -1.0, 1.0)
            phi = sign * gen.uniform(0.2, 3.0, (6, 2 * n + 1))
            assert_same(_christoffel(sig, phi, 1e-3),
                        general_christoffel(sig, phi, 1e-3))
            # A direction along which phi is constant: d_l g_kk = 0.
            phi[:, 2 * n - 1:] = phi[:, :1]
            assert_same(_christoffel(sig, phi, 1e-3),
                        general_christoffel(sig, phi, 1e-3))

    def test_matches_general_metric_on_nested_steps(self):
        # The layout of fd_curvature_oracle: steps (4, 1), points, outer
        # and inner stencil axes.
        gen = rng(3)
        sig = Signature([1.0, -1.0, 1.0])
        h = np.array([1e-4, 1e-2, 5e-3, 2.5e-3])[:, None]
        phi = gen.uniform(0.5, 2.0, (4, 2, 7, 7))
        assert_same(_christoffel(sig, phi, _lead(h, 1)),
                    general_christoffel(sig, phi, _lead(h, 1)))


CASES = {
    "gaussian-n3": lambda: gallery("gaussian", k=1.5, tau=1.0, lam=0.7),
    "n2_polynomial": lambda: gallery("n2_polynomial", c1=-1.0, c2=0.3,
                                     c3=1.0, lam=0.4),
    "space_form-n4-lorentzian": lambda: gallery("space_form", n=4,
                                                eps=[1, -1, 1, 1]),
    "space_form-n3-lorentzian": lambda: gallery("space_form",
                                                eps=[1, -1, 1], b1=-0.7,
                                                b2=2.0, tau=0.5),
}


class TestResidualMaxima:
    """verify_profile's maxima and means equal np.max / np.mean applied to
    the public residual functions at the sampled points."""

    @pytest.mark.parametrize("case", [*CASES, "integrated-cigar"])
    def test_against_public_residuals(self, case, integrated_cigar):
        if case == "integrated-cigar":
            p, prof = integrated_cigar
        else:
            entry = CASES[case]()
            p, prof = entry.problem, entry.profile
        spec = SampleSpec(box=[(-2.0, 2.0)] * p.n, count=400, seed=11,
                          exclusion_phi=1e-2)
        report = verify_profile(p, prof, spec).to_dict()
        xs = draw_points(p, prof, spec)
        phi, f = lift(p.ansatz, prof, xs)
        off = residual_offdiag(p.sig, phi, f)[..., ~np.eye(p.n, dtype=bool)]
        families = {
            "offdiag": np.max(np.abs(off), axis=-1),
            "diag": np.max(np.abs(residual_diag(p.sig, phi, f, p.lam)),
                           axis=-1),
            "trace": np.abs(residual_trace(p.sig, phi, f, p.lam)),
            "tensor": np.max(np.abs(residual_soliton_tensor(
                p.sig, phi, f, p.lam)), axis=(-2, -1)),
        }
        s = prof.evaluate(xi_values(p.ansatz, xs))
        scale = residual_scale(p.lam, s[0], s[2])
        assert report["scale"] == scale
        for name, values in families.items():
            assert report[f"max_{name}"] == float(np.max(values)) / scale
            assert report[f"mean_{name}"] == float(np.mean(values)) / scale
