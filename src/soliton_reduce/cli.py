"""Command-line front end: JSON problem configs in, CSV profiles and JSON
reports out.

Subcommands::

    soliton-reduce solve <config.json>
    soliton-reduce verify <config.json> <profile.csv> [--threshold T]
                          [--seed S] [--points N]
    soliton-reduce gallery list
    soliton-reduce gallery emit <name> [--out DIR] [--param k=v ...]

Exit codes: 0 success/pass, 1 verification fail, 2 configuration or solver
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .ansatz import QuadricAnsatz
from .errors import ConfigInvalid, ProfileMalformed, SolitonReduceError
from .geometry import Signature
from .profiles import Profile
from .reduction import (
    GALLERY_NAMES,
    GalleryEntry,
    ReducedState,
    SolitonProblem,
    SpecialParams,
    gallery,
    gallery_parameters,
)
from .rk import MAX_ATTEMPTS, IntegrationConfig
from .solve import NodeProfile, solve_reduced, solve_special
from .verify import SampleSpec, verify_profile

CSV_COLUMNS = ("xi", "phi", "dphi", "f", "df")
DEFAULT_OUTPUT_POINTS = 2001
MAX_POINTS = 10_000_000

# CSV-backed verification reconstructs second derivatives from splines of
# the stored columns; its residual floor is the reconstruction error, well
# above the in-memory pipeline's. Hence a laxer default threshold here.
DEFAULT_CLI_THRESHOLD = 1e-5


# ---------------------------------------------------------------------------
# Config loading / validation
# ---------------------------------------------------------------------------

def _require(cond: bool, msg: str, errors: list[str]) -> bool:
    if not cond:
        errors.append(msg)
    return cond


def _finite(v) -> bool:
    """A JSON number that is a finite double: booleans, NaN, +-Infinity and
    integers beyond the double range do not count."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _positive(v) -> bool:
    return _finite(v) and v > 0


def _int_in(v, lo: int, hi=math.inf) -> bool:
    """An integer (not a boolean) in [lo, hi]."""
    return isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi


def load_config(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigInvalid(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from None
    return resolve_config(raw)


def _section(cfg: dict, key: str, errors: list[str]) -> dict:
    """A copy of the JSON object cfg[key]; absent or null gives {}."""
    val = cfg.get(key)
    if val is None or not _require(isinstance(val, dict),
                                   f"{key}: JSON object required", errors):
        return {}
    return dict(val)


def _gallery_param_errors(name: str, params: dict,
                          n: int | None = None) -> list[str]:
    """What is wrong with the parameters of gallery entry `name`.

    Each key must be one of the entry's parameters, and each value of its
    default's kind: a finite number, the dimension (an integer >= 2), or
    null or a list of finite numbers. Given the config's dimension n, the
    dimension and the lists must match it.
    """
    errors: list[str] = []
    defaults = gallery_parameters(name)
    of_n = "" if n is None else f" of n = {n}"
    for key, val in params.items():
        field = f"gallery_params.{key}"
        if key not in defaults:
            errors.append(f"{field}: not a parameter of {name}; choose "
                          f"from {sorted(defaults)}")
        elif defaults[key] is None:
            ok = val is None or (isinstance(val, list)
                                 and len(val) == (n or len(val))
                                 and all(_finite(v) for v in val))
            _require(ok, f"{field}: null or a list{of_n} finite numbers "
                     "required", errors)
        elif isinstance(defaults[key], int):
            _require(_int_in(val, 2) and val == (n or val),
                     f"{field}: the dimension{of_n}, an integer >= 2, "
                     "required", errors)
        else:
            _require(_finite(val), f"{field}: finite number required",
                     errors)
    return errors


def resolve_config(raw: dict) -> dict:
    """Validate and fill defaults; returns the fully-resolved config."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("config: JSON object required")
    errors: list[str] = []
    cfg = dict(raw)

    mode = cfg.get("mode")
    _require(isinstance(mode, str)
             and (mode in ("theorem2", "theorem3")
                  or mode.startswith("gallery:")),
             "mode: must be 'theorem2', 'theorem3' or 'gallery:<name>'",
             errors)
    name = None
    if isinstance(mode, str) and mode.startswith("gallery:"):
        name = mode.split(":", 1)[1]
        _require(name in GALLERY_NAMES,
                 f"mode: unknown gallery entry; choose from {GALLERY_NAMES}",
                 errors)

    n = cfg.get("n")
    n_ok = _require(_int_in(n, 2), "n: integer >= 2 required", errors)
    eps = cfg.get("epsilon")
    if n_ok and _require(isinstance(eps, list) and len(eps) == n,
                         f"epsilon: list of length n = {n} required", errors):
        _require(all(_finite(e) and e in (1, -1) for e in eps),
                 "epsilon: entries must be +1 or -1", errors)
        _require(any(e == 1 for e in eps),
                 "epsilon: at least one +1 required", errors)
        for key in ("alpha", "beta"):
            if cfg.get(key) is None:
                cfg[key] = [0.0] * n
            val = cfg[key]
            _require(isinstance(val, list) and len(val) == n
                     and all(_finite(v) for v in val),
                     f"{key}: list of n = {n} finite numbers required",
                     errors)

    for key, default in (("tau", 0.0), ("lambda", 0.0)):
        cfg.setdefault(key, default)
        _require(_finite(cfg[key]), f"{key}: finite number required",
                 errors)

    span = cfg.get("xi_span")
    integrated = mode in ("theorem2", "theorem3")
    span_ok = False
    if integrated or span is not None:
        span_ok = _require(
            isinstance(span, list) and len(span) == 2
            and all(_finite(v) for v in span) and span[0] != span[1],
            "xi_span: [start, end], finite, with start != end required",
            errors)

    tols = _section(cfg, "tolerances", errors)
    tols.setdefault("rel_tol", 1e-10)
    tols.setdefault("abs_tol", 1e-12)
    tols.setdefault("max_step", None)
    for key in ("rel_tol", "abs_tol"):
        _require(_positive(tols[key]),
                 f"tolerances.{key}: positive finite number required",
                 errors)
    max_step = tols["max_step"]
    if _require(max_step is None or _positive(max_step),
                "tolerances.max_step: null or positive finite number "
                "required", errors) and integrated and span_ok and max_step:
        _require(abs(span[1] - span[0]) / max_step <= MAX_ATTEMPTS,
                 f"tolerances.max_step: xi_span needs more than the step "
                 f"budget of {MAX_ATTEMPTS} steps of max_step", errors)
    cfg["tolerances"] = tols

    initial = cfg.get("initial")
    needed = {"theorem2": ("phi0", "dphi0", "f0", "df0"),
              "theorem3": ("c1", "c2", "h0")}.get(str(mode))
    if needed:
        ok = isinstance(initial, dict) and all(
            _finite(initial.get(k)) for k in needed)
        _require(ok, f"initial: dict with finite numbers {needed} required",
                 errors)
        if ok and mode == "theorem3":
            initial.setdefault("f0", 0.0)
            _require(_finite(initial["f0"]),
                     "initial.f0: finite number required", errors)
            _require(initial["h0"] > 0, "initial.h0: must be positive",
                     errors)

    sample = _section(cfg, "sample", errors)
    sample.setdefault("mode", "random")
    sample.setdefault("seed", 0)
    sample.setdefault("count", 500)
    sample.setdefault("exclusion_phi", 1e-8)
    sample.setdefault("exclusion_sing", 1e-8)
    _require(_int_in(sample["count"], 1, MAX_POINTS),
             f"sample.count: integer in [1, {MAX_POINTS}] required", errors)
    _require(_int_in(sample["seed"], 0),
             "sample.seed: integer >= 0 required", errors)
    for key in ("exclusion_phi", "exclusion_sing"):
        _require(_finite(sample[key]) and sample[key] >= 0,
                 f"sample.{key}: finite number >= 0 required", errors)
    if "box" in sample and n_ok:
        box = sample["box"]
        _require(isinstance(box, list) and len(box) == n
                 and all(isinstance(b, list) and len(b) == 2
                         and all(_finite(v) for v in b) and b[0] < b[1]
                         for b in box),
                 "sample.box: list of n [lo, hi] pairs, finite, with lo < hi,"
                 " required", errors)
    cfg["sample"] = sample

    output = _section(cfg, "output", errors)
    output.setdefault("points", DEFAULT_OUTPUT_POINTS)
    _require(_int_in(output["points"], 2, MAX_POINTS),
             f"output.points: integer in [2, {MAX_POINTS}] required", errors)
    output.setdefault("profile_csv", "profile.csv")
    output.setdefault("summary_json", "summary.json")
    output.setdefault("report_json", "report.json")
    for key in ("profile_csv", "summary_json", "report_json"):
        _require(isinstance(output[key], str) and output[key] != "",
                 f"output.{key}: file name required", errors)
    cfg["output"] = output

    cfg.setdefault("threshold", DEFAULT_CLI_THRESHOLD)
    _require(_positive(cfg["threshold"]),
             "threshold: positive finite number required", errors)

    params = _section(cfg, "gallery_params", errors)
    if name in GALLERY_NAMES and n_ok:
        errors += _gallery_param_errors(name, params, n)
    cfg["gallery_params"] = params

    if errors:
        raise ConfigInvalid(errors)
    return cfg


def _gallery_entry(name: str, params: dict) -> GalleryEntry:
    """Gallery entry `name` with checked params; a value its builder
    rejects is a configuration error."""
    try:
        return gallery(name, **params)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigInvalid(f"gallery_params: {exc}") from None


def _config_entry(cfg: dict) -> GalleryEntry | None:
    """The gallery entry of a resolved `gallery:` config, None for the
    other modes. The entry defines its problem; the config's n and
    epsilon must be its dimension and signature."""
    mode = cfg["mode"]
    if not mode.startswith("gallery:"):
        return None
    entry = _gallery_entry(mode.split(":", 1)[1], cfg["gallery_params"])
    eps = [int(e) for e in entry.problem.sig.eps]
    if entry.problem.n != cfg["n"] or eps != cfg["epsilon"]:
        raise ConfigInvalid(f"n, epsilon: {mode} has n = "
                            f"{entry.problem.n} and epsilon = {eps}")
    return entry


def build_problem(cfg: dict) -> SolitonProblem:
    """The problem a resolved config defines: a gallery entry's own, or
    the one its epsilon, tau, alpha, beta and lambda describe."""
    entry = _config_entry(cfg)
    if entry is not None:
        return entry.problem
    sig = Signature(np.asarray(cfg["epsilon"], dtype=float))
    ansatz = QuadricAnsatz(float(cfg["tau"]),
                           np.asarray(cfg["alpha"], dtype=float),
                           np.asarray(cfg["beta"], dtype=float),
                           sig).canonical()
    return SolitonProblem(sig, ansatz, float(cfg["lambda"]))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _integration_config(cfg: dict) -> IntegrationConfig:
    tols = cfg["tolerances"]
    return IntegrationConfig(
        xi_span=tuple(cfg["xi_span"]),
        rel_tol=float(tols["rel_tol"]),
        abs_tol=float(tols["abs_tol"]),
        max_step=float(tols["max_step"]) if tols["max_step"] else math.inf,
    )


def _build_profile(cfg: dict) -> tuple[SolitonProblem, Profile, dict]:
    mode = cfg["mode"]
    info: dict = {"mode": mode}
    entry = _config_entry(cfg)
    if entry is not None:
        info["gallery"] = {"name": entry.name, "params": entry.params}
        if entry.name == "space_form":
            info["forced_lambda"] = entry.params["forced_lambda"]
        return entry.problem, entry.profile, info
    problem = build_problem(cfg)
    run = _integration_config(cfg)
    if mode == "theorem2":
        ini = cfg["initial"]
        state = ReducedState(xi=float(cfg["xi_span"][0]),
                             phi=float(ini["phi0"]),
                             dphi=float(ini["dphi0"]),
                             f=float(ini["f0"]), df=float(ini["df0"]))
        prof = solve_reduced(problem, state, run)
    else:
        ini = cfg["initial"]
        sp = SpecialParams(c1=float(ini["c1"]), c2=float(ini["c2"]),
                           h0=float(ini["h0"]), f0=float(ini["f0"]))
        prof = solve_special(problem, sp, run)
    info["integration"] = {
        "accepted_steps": prof.solution.n_accepted,
        "rejected_steps": prof.solution.n_rejected,
        "rhs_evaluations": prof.solution.n_fev,
    }
    return problem, prof, info


def _csv_range(cfg: dict, prof: Profile) -> tuple[float, float]:
    lo, hi = prof.xi_min, prof.xi_max
    span = cfg.get("xi_span")
    if span is not None:
        a, b = sorted(float(v) for v in span)
        lo, hi = max(lo, a), min(hi, b)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigInvalid("xi_span: required for unbounded closed forms")
    if lo >= hi:
        raise ConfigInvalid("xi_span: empty after clipping to the profile "
                            "domain")
    return lo, hi


def write_profile_csv(path: str | Path, cfg: dict, prof: Profile) -> None:
    lo, hi = _csv_range(cfg, prof)
    xis = np.linspace(lo, hi, int(cfg["output"]["points"]))
    phi, dphi, _, f, df, _ = prof.evaluate(xis)
    rows = np.column_stack((xis, phi, dphi, f, df)).tolist()
    with open(path, "w", newline="") as fh:
        fh.write(f"# soliton-reduce profile n={cfg['n']} "
                 f"mode={cfg['mode']}\n")
        # csv.writer's default dialect: no field here needs quoting.
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _termination_dict(prof: Profile) -> dict:
    t = prof.termination
    if t is None:
        return {"kind": "external"}
    return {"kind": t.kind, "event": t.event, "xi_stop": t.xi_stop}


def _summary(cfg: dict, problem: SolitonProblem, prof: Profile,
             info: dict) -> dict:
    inv = problem.invariance
    inv_dict = {"kind": inv.kind}
    if inv.center is not None:
        inv_dict["center"] = list(inv.center)
    if inv.direction is not None:
        inv_dict["direction"] = list(inv.direction)
        inv_dict["causal_character"] = inv.causal_character
    return {
        "mode": cfg["mode"],
        "lambda": problem.lam,
        "lambda_constant": problem.lambda_constant,
        "regime": problem.regime,
        "invariance": inv_dict,
        "termination": _termination_dict(prof),
        "xi_range": [prof.xi_min if math.isfinite(prof.xi_min) else None,
                     prof.xi_max if math.isfinite(prof.xi_max) else None],
        **info,
        "config": _json_safe(cfg),
    }


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def cmd_solve(args) -> int:
    return _solve(load_config(args.config), args.out)


def _solve(cfg: dict, out_dir: str | None) -> int:
    """Build the profile of a resolved config; write its CSV and summary."""
    problem, prof, info = _build_profile(cfg)
    out = Path(out_dir) if out_dir else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / cfg["output"]["profile_csv"]
    summary_path = out / cfg["output"]["summary_json"]
    write_profile_csv(csv_path, cfg, prof)
    summary = _summary(cfg, problem, prof, info)
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"profile: {csv_path}")
    print(f"summary: {summary_path}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def read_profile_csv(path: str | Path, expected_n: int) -> NodeProfile:
    rows = []
    try:
        with open(path, newline="") as fh:
            meta_n = None
            for line in fh:
                if line.startswith("#"):
                    for tok in line.split():
                        if tok.startswith("n="):
                            meta_n = int(tok[2:])
                    continue
                header = [c.strip() for c in line.strip().split(",")]
                break
            else:
                raise ProfileMalformed("empty profile file")
            if tuple(header) != CSV_COLUMNS:
                raise ProfileMalformed(
                    f"header {header} != expected {list(CSV_COLUMNS)}")
            if meta_n is not None and meta_n != expected_n:
                raise ProfileMalformed(
                    f"profile dimension n={meta_n} != config n={expected_n}")
            for rec in csv.reader(fh):
                if not rec:
                    continue
                if len(rec) != len(CSV_COLUMNS):
                    raise ProfileMalformed(f"bad row: {rec}")
                rows.append([float(v) for v in rec])
    except FileNotFoundError:
        raise ProfileMalformed(f"profile file not found: {path}") from None
    except ValueError as exc:
        raise ProfileMalformed(f"non-numeric value: {exc}") from None
    if not rows:
        raise ProfileMalformed("profile has no data rows")
    data = np.asarray(rows)
    return NodeProfile(data[:, 0], data[:, 1], data[:, 2], data[:, 3],
                       data[:, 4])


def _sample_spec(cfg: dict, args) -> SampleSpec:
    sample = cfg["sample"]
    if "box" not in sample:
        raise ConfigInvalid("sample.box: required for verification")
    count = args.points if args.points is not None else sample["count"]
    seed = args.seed if args.seed is not None else sample["seed"]
    errors: list[str] = []
    _require(1 <= count <= MAX_POINTS,
             f"--points: integer in [1, {MAX_POINTS}] required", errors)
    _require(seed >= 0, "--seed: integer >= 0 required", errors)
    if errors:
        raise ConfigInvalid(errors)
    try:
        return SampleSpec(
            box=[tuple(b) for b in sample["box"]],
            mode=sample["mode"],
            count=count,
            seed=seed,
            exclusion_phi=float(sample["exclusion_phi"]),
            exclusion_sing=float(sample["exclusion_sing"]),
        )
    except ValueError as exc:
        raise ConfigInvalid(f"sample: {exc}") from None


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    if args.threshold is not None and not _positive(args.threshold):
        raise ConfigInvalid("--threshold: positive finite number required")
    problem = build_problem(cfg)
    prof = read_profile_csv(args.profile, cfg["n"])
    spec = _sample_spec(cfg, args)
    threshold = float(args.threshold if args.threshold is not None
                      else cfg["threshold"])
    report = verify_profile(problem, prof, spec, threshold=threshold)
    report_path = Path(args.out or ".") / cfg["output"]["report_json"]
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(report.to_json() + "\n")
    print(f"report: {report_path}")
    print(f"verdict: {report.verdict} "
          f"(max tensor residual {report.max_tensor:.3e}, "
          f"threshold {threshold:.1e})")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigInvalid(f"--param expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        try:
            out[key] = json.loads(val)
        except json.JSONDecodeError:
            out[key] = val
    return out


def cmd_gallery(args) -> int:
    if args.action == "list":
        for name in GALLERY_NAMES:
            print(name)
        return 0
    params = _parse_params(args.param or [])
    errors = _gallery_param_errors(args.name, params)
    if errors:
        raise ConfigInvalid(errors)
    entry = _gallery_entry(args.name, params)
    span = args.xi_span or [0.0, 10.0]
    cfg = resolve_config({
        "mode": f"gallery:{entry.name}",
        "n": entry.problem.n,
        "epsilon": [int(e) for e in entry.problem.sig.eps],
        "tau": entry.problem.ansatz.tau,
        "alpha": list(entry.problem.ansatz.alpha),
        "beta": list(entry.problem.ansatz.beta),
        "lambda": entry.problem.lam,
        "xi_span": list(span),
        "gallery_params": params,
        "output": {"profile_csv": f"{entry.name}_profile.csv",
                   "summary_json": f"{entry.name}_summary.json"},
    })
    return _solve(cfg, args.out)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soliton-reduce",
        description="Conformal gradient Ricci solitons: reduce, integrate, "
                    "verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="integrate a problem config")
    p_solve.add_argument("config")
    p_solve.add_argument("--out", help="output directory")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="verify a profile CSV")
    p_verify.add_argument("config")
    p_verify.add_argument("profile")
    p_verify.add_argument("--threshold", type=float)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--points", type=int)
    p_verify.add_argument("--out", help="output directory")
    p_verify.set_defaults(func=cmd_verify)

    p_gal = sub.add_parser("gallery", help="closed-form solutions")
    gal_sub = p_gal.add_subparsers(dest="action", required=True)
    g_list = gal_sub.add_parser("list")
    g_list.set_defaults(func=cmd_gallery, action="list")
    g_emit = gal_sub.add_parser("emit")
    g_emit.add_argument("name", choices=GALLERY_NAMES)
    g_emit.add_argument("--out", help="output directory")
    g_emit.add_argument("--param", action="append",
                        help="gallery parameter key=value (repeatable)")
    g_emit.add_argument("--xi-span", type=float, nargs=2, dest="xi_span")
    g_emit.set_defaults(func=cmd_gallery, action="emit")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except ProfileMalformed as exc:
        print(f"error: malformed profile: {exc}", file=sys.stderr)
        return 2
    except SolitonReduceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
