"""Fuzzed configs: resolving a config, and building the problem of any
config that resolves, return or raise a library error, nothing else; and
`cli.main` runs of solve and verify on fuzzed configs and flags exit 0, 1
or 2."""

import copy
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from soliton_reduce.cli import (  # noqa: E402
    FIELDS,
    build_problem,
    main,
    resolve_config,
)
from soliton_reduce.errors import SolitonReduceError  # noqa: E402
from soliton_reduce.reduction import (  # noqa: E402
    GALLERY_NAMES,
    gallery_parameters,
)

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

#: Where a fuzzed value goes: every row of the field table, every gallery
#: parameter, and the keys, sections and list items checked in code.
PATHS = sorted({path for path, *_ in FIELDS}
               | {f"gallery_params.{key}" for name in GALLERY_NAMES
                  for key in gallery_parameters(name)}
               | {"mode", "n", "epsilon", "epsilon.0", "alpha", "alpha.1",
                  "beta", "beta.0", "xi_span", "xi_span.1", "initial",
                  "initial.phi0", "initial.h0", "initial.f0", "tolerances",
                  "sample", "sample.box", "sample.box.0", "output",
                  "gallery_params", "gallery_params.bogus"})

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


@pytest.mark.parametrize("base", BASES, ids=lambda b: b["mode"])
def test_resolve_leaves_caller_dict_alone(base):
    # theorem3 once wrote the default f0 into the caller's "initial".
    raw = copy.deepcopy(base)
    resolve_config(raw)
    assert raw == base


#: A theorem-2 cigar the cli.main fuzz edits: small sizes, a short span.
MAIN_BASE = {
    "mode": "theorem2", "n": 2, "epsilon": [1, 1], "tau": 1.0,
    "lambda": 0.0, "xi_span": [1.0, 3.0],
    "initial": {"phi0": math.sqrt(2.0), "dphi0": 0.5 / math.sqrt(2.0),
                "f0": -math.log(2.0), "df0": -0.5},
    "sample": {"box": [[-1.0, 1.0], [-1.0, 1.0]], "count": 20},
    "output": {"points": 50},
}
#: The table's fields but the output file names, which would let the fuzz
#: write anywhere, and a few keys checked in code.
MAIN_PATHS = sorted({path for path, *_ in FIELDS
                     if path == "output.points"
                     or not path.startswith("output.")}
                    | {"mode", "n", "xi_span.1", "initial.phi0",
                       "sample.box.0.1"})
BIG_SEEDS = [2 ** 128 - 1, 2 ** 128, 10 ** 40]
#: Every valid size is at most 50; other values are junk of every kind.
small = (st.integers(-2, 50) | st.floats(-10.0, 10.0)
         | st.sampled_from([None, True, 0.5, 1e-3, 1e-300, math.nan,
                            math.inf, -math.inf, 10 ** 400, "x", "grid",
                            [], {}, *BIG_SEEDS]))
flags = st.fixed_dictionaries({}, optional={
    "--seed": st.integers(-2, 10) | st.sampled_from(BIG_SEEDS),
    "--points": st.integers(-2, 50) | st.sampled_from([10 ** 12]),
    "--threshold": st.floats() | st.sampled_from([1e-5, 1.0]),
})


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(edits=st.lists(st.tuples(st.sampled_from(MAIN_PATHS),
                                           small), max_size=2),
                  flags=flags)
@hypothesis.example(edits=[("sample.seed", 2 ** 128)], flags={})
@hypothesis.example(edits=[], flags={"--seed": 10 ** 40})
def test_main_exits_0_1_or_2(tmp_path_factory, edits, flags):
    out = tmp_path_factory.mktemp("main")
    raw = copy.deepcopy(MAIN_BASE)
    for path, value in edits:
        put(raw, path, value)
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["solve", str(cfg), "--out", str(out)]) in (0, 1, 2)
    argv = ["verify", str(cfg), str(out / "profile.csv"), "--out", str(out)]
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    assert main(argv) in (0, 1, 2)
