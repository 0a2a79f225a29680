"""Fuzzed configs: resolving a config, and building the problem of any
config that resolves, return or raise a library error, nothing else."""

import copy
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from soliton_reduce.cli import build_problem, resolve_config  # noqa: E402
from soliton_reduce.errors import SolitonReduceError  # noqa: E402

BASES = [
    {"mode": "theorem2", "n": 2, "epsilon": [1, 1], "tau": 1.0,
     "lambda": 0.0, "xi_span": [1.0, 6.0],
     "initial": {"phi0": 1.4, "dphi0": 0.35, "f0": -0.7, "df0": -0.5},
     "sample": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "count": 20}},
    {"mode": "theorem3", "n": 3, "epsilon": [1, 1, -1], "tau": 1.0,
     "alpha": [0.1, 0.0, 0.2], "xi_span": [0.0, 1.0],
     "initial": {"c1": -1.0, "c2": 0.0, "h0": 1.0}},
    {"mode": "gallery:gaussian", "n": 3, "epsilon": [1, 1, 1],
     "gallery_params": {"k": 2.0, "lam": -3.0, "tau": -1.0}},
    {"mode": "gallery:cigar", "n": 2, "epsilon": [1, 1],
     "xi_span": [0.0, 8.0]},
    {"mode": "gallery:space_form", "n": 4, "epsilon": [1, -1, 1, 1],
     "gallery_params": {"n": 4, "eps": [1, -1, 1, 1], "b1": 0.5}},
    {"mode": "gallery:n2_polynomial", "n": 2, "epsilon": [1, 1],
     "gallery_params": {"c1": 0.5, "c2": 0.2, "c3": 1.0}},
]

#: Where a fuzzed value goes: top-level keys, section keys and list items.
PATHS = [
    "mode", "n", "epsilon", "epsilon.0", "tau", "lambda", "alpha",
    "alpha.1", "beta", "beta.0", "xi_span", "xi_span.1", "initial",
    "initial.phi0", "initial.h0", "initial.f0", "tolerances",
    "tolerances.rel_tol", "tolerances.max_step", "sample", "sample.box",
    "sample.box.0", "sample.count", "sample.seed", "sample.mode",
    "sample.exclusion_phi", "output", "output.points", "output.profile_csv",
    "threshold", "gallery_params", "gallery_params.n", "gallery_params.eps",
    "gallery_params.k", "gallery_params.tau", "gallery_params.lam",
    "gallery_params.b1", "gallery_params.b2", "gallery_params.alpha",
    "gallery_params.c1", "gallery_params.c2", "gallery_params.c3",
    "gallery_params.xi_anchor", "gallery_params.bogus",
]

scalars = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([0, 1, -1, 2, 1e-300, 1e300, 10 ** 400,
                              math.nan, math.inf, -math.inf, "1",
                              "theorem2", "gallery:cigar"])
           | st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=8)


def put(cfg, path, value):
    """Set the value at a dotted path, creating dicts on the way; a path
    through a non-container is left alone."""
    *head, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    target = cfg
    for key in head:
        if isinstance(target, dict):
            target = target.setdefault(key, {})
        elif isinstance(target, list) and isinstance(key, int) \
                and key < len(target):
            target = target[key]
        else:
            return
    if isinstance(target, dict) or (isinstance(target, list)
                                    and isinstance(last, int)
                                    and last < len(target)):
        target[last] = value


@hypothesis.settings(max_examples=250, deadline=None, derandomize=True)
@hypothesis.given(base=st.sampled_from(BASES),
                  edits=st.lists(st.tuples(st.sampled_from(PATHS),
                                           json_values), max_size=3))
def test_only_library_errors(base, edits):
    raw = copy.deepcopy(base)
    for path, value in edits:
        put(raw, path, value)
    try:
        cfg = resolve_config(raw)
    except SolitonReduceError:
        return
    try:
        build_problem(cfg)
    except SolitonReduceError:
        pass
