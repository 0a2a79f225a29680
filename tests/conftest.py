"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import soliton_reduce
from soliton_reduce import (
    IntegrationConfig,
    ReducedState,
    ScalarJet2,
    Signature,
    gallery,
    rk,
    solve_reduced,
)
from soliton_reduce.ansatz import QuadricAnsatz


def package_env() -> dict:
    """This process's environment with the tested package's source root
    first on PYTHONPATH, for subprocesses that import it."""
    src = str(Path(soliton_reduce.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


def rng(seed: int = 0) -> np.random.Generator:
    """Counter-based generator so test data is reproducible."""
    return np.random.Generator(np.random.Philox(key=seed))


def random_jet(gen: np.random.Generator, n: int,
               value_floor: float = 0.5) -> ScalarJet2:
    """Random 2-jet with a value bounded away from zero."""
    value = value_floor + gen.uniform(0.5, 2.0)
    grad = gen.uniform(-1.0, 1.0, n)
    hess = gen.uniform(-1.0, 1.0, (n, n))
    return ScalarJet2(value, grad, hess)


def random_signature(gen: np.random.Generator, n: int) -> Signature:
    """Random signature with at least one +1 entry."""
    eps = np.where(gen.uniform(size=n) < 0.5, -1.0, 1.0)
    eps[int(gen.integers(n))] = 1.0
    return Signature(eps)


def random_ansatz(gen: np.random.Generator, sig: Signature,
                  allow_tau_zero: bool = True) -> QuadricAnsatz:
    n = sig.n
    if allow_tau_zero and gen.uniform() < 0.3:
        tau = 0.0
        alpha = gen.uniform(0.2, 1.5, n) * np.where(
            gen.uniform(size=n) < 0.5, -1.0, 1.0)
    else:
        tau = float(gen.uniform(0.3, 2.0)) * (1.0 if gen.uniform() < 0.5
                                              else -1.0)
        alpha = gen.uniform(-1.0, 1.0, n)
    beta = gen.uniform(-1.0, 1.0, n)
    return QuadricAnsatz(tau, alpha, beta, sig)


@pytest.fixture(scope="module")
def integrated_cigar():
    """The theorem-2 cigar integrated over xi in [1, 8]: xi >= 1 keeps
    about 82% of the box [-2, 2]^2."""
    entry = gallery("cigar")
    s = entry.profile.sample(1.0)
    return entry.problem, solve_reduced(
        entry.problem, ReducedState(1.0, s.phi, s.dphi, s.f, s.df),
        IntegrationConfig(xi_span=(1.0, 8.0), rel_tol=1e-12, abs_tol=1e-13))


@pytest.fixture
def gen() -> np.random.Generator:
    return rng(12345)


@pytest.fixture
def run_recorded(monkeypatch):
    """run_recorded(run) -> (sol, steps): the RawSolution that `run()`
    returns, and the accepted steps (t0, y0, h, stages) of the integration
    it made, in order, with the stages as seven lists. A step is the last
    attempt made from its start node."""
    attempts = []
    build = rk._attempt

    def recording_build(ny):
        attempt = build(ny)

        def recording(f, t, y, k0, h, rtol, atol):
            out = attempt(f, t, y, k0, h, rtol, atol)
            flat = out[3]
            stages = flat and tuple(list(flat[i:i + ny])
                                    for i in range(0, 7 * ny, ny))
            attempts.append((t, list(y), h, stages))
            return out
        return recording

    monkeypatch.setattr(rk, "_attempt", recording_build)

    def run_recorded(run):
        attempts.clear()
        sol = run()
        last = {a[0]: a for a in attempts}
        return sol, [last[t] for t in sol.ts[:-1].tolist()]

    return run_recorded
