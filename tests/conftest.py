"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import soliton_reduce
from soliton_reduce import ScalarJet2, Signature
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


@pytest.fixture
def gen() -> np.random.Generator:
    return rng(12345)
