"""Residual kernels: the compiled loop path, the numpy fallback and the
reference jet-based route must agree exactly."""

import subprocess
import sys

import numpy as np
import pytest

from conftest import package_env, random_ansatz, random_signature, rng
from soliton_reduce import (
    residual_diag,
    residual_offdiag,
    residual_soliton_tensor,
    residual_trace,
    xi_jet,
)
from soliton_reduce._kernels import (
    HAVE_NUMBA,
    _batch_residuals_loops,
    batch_residuals_compiled,
    batch_residuals_numpy,
)
from soliton_reduce.geometry import ScalarJet2


def random_batch(gen, n, m=40):
    sig = random_signature(gen, n)
    a = random_ansatz(gen, sig)
    xs = gen.uniform(-2.0, 2.0, (m, n))
    phi = gen.uniform(0.5, 2.0, m)
    dphi = gen.uniform(-1.0, 1.0, m)
    ddphi = gen.uniform(-1.0, 1.0, m)
    df = gen.uniform(-1.0, 1.0, m)
    ddf = gen.uniform(-1.0, 1.0, m)
    lam = float(gen.uniform(-2.0, 2.0))
    return sig, a, xs, phi, dphi, ddphi, df, ddf, lam


def kernel_args(sig, a, xs, phi, dphi, ddphi, df, ddf, lam):
    return (sig.eps, a.tau, a.alpha, xs, phi, dphi, ddphi, df, ddf, lam)


class TestPathAgreement:
    def test_loops_vs_numpy(self):
        gen = rng(60)
        for n in (2, 3, 5):
            batch = random_batch(gen, n)
            ref = batch_residuals_numpy(*kernel_args(*batch))
            loops = _batch_residuals_loops(*kernel_args(*batch))
            for r, l in zip(ref, loops):
                assert np.allclose(r, l, rtol=1e-13, atol=1e-13)

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba unavailable/disabled")
    def test_compiled_vs_numpy(self):
        gen = rng(61)
        for n in (2, 4):
            batch = random_batch(gen, n)
            ref = batch_residuals_numpy(*kernel_args(*batch))
            fast = batch_residuals_compiled(*kernel_args(*batch))
            for r, c in zip(ref, fast):
                assert np.allclose(r, c, rtol=1e-13, atol=1e-13)


class TestAgainstJetRoute:
    def test_matches_pointwise_residuals(self):
        # The batch kernel reimplements the jet-based residuals for speed;
        # pin the two implementations against each other.
        gen = rng(62)
        sig, a, xs, phi, dphi, ddphi, df, ddf, lam = random_batch(gen, 3,
                                                                 m=25)
        off, diag, trace, tensor = batch_residuals_numpy(
            *kernel_args(sig, a, xs, phi, dphi, ddphi, df, ddf, lam))
        n = sig.n
        for p, x in enumerate(xs):
            jet = xi_jet(a, x)
            u = jet.gradient
            uu = np.outer(u, u)
            phi_jet = ScalarJet2(phi[p], dphi[p] * u,
                                 ddphi[p] * uu + dphi[p] * jet.hessian)
            f_jet = ScalarJet2(0.0, df[p] * u,
                               ddf[p] * uu + df[p] * jet.hessian)
            off_ref = max(abs(residual_offdiag(sig, phi_jet, f_jet, i, j))
                          for i in range(n) for j in range(n) if i != j)
            diag_ref = max(abs(residual_diag(sig, phi_jet, f_jet, lam, i))
                           for i in range(n))
            trace_ref = abs(residual_trace(sig, phi_jet, f_jet, lam))
            tensor_ref = float(np.max(np.abs(
                residual_soliton_tensor(sig, phi_jet, f_jet, lam))))
            assert off[p] == pytest.approx(off_ref, rel=1e-12, abs=1e-12)
            assert diag[p] == pytest.approx(diag_ref, rel=1e-12, abs=1e-12)
            assert trace[p] == pytest.approx(trace_ref, rel=1e-12,
                                             abs=1e-12)
            assert tensor[p] == pytest.approx(tensor_ref, rel=1e-12,
                                              abs=1e-12)


class TestEnvFlag:
    def test_disable_flag_selects_numpy(self):
        code = ("import soliton_reduce._kernels as k; "
                "assert not k.HAVE_NUMBA; "
                "assert k.batch_residuals is k.batch_residuals_numpy; "
                "print('ok')")
        env = dict(package_env(), SOLITON_REDUCE_DISABLE_NUMBA="1")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"
