#!/usr/bin/env python3
"""Pipeline benchmark of soliton_reduce: seeded closed-loop workloads.

Run from the repository root:

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller runs one op after another (closed loop, one process, no
threads) for S seconds; workloads.py defines the ops and their gates.
The package is imported from src/ of the checkout this file sits in.
Ops cycle through a fixed set of seeded inputs, so every input runs
several times.

--trace 0 prints the end-to-end metrics: median set-up time of fresh
interpreters (setup_s), the median over the inputs of each input's
slowest repeat (slow_op_ms.p50), and peak RSS. The 2-CPU Xeon host this
was tuned on runs a process at two speeds about 1.5x apart, switching
every few seconds: the slower speed is steady, the faster one and the mix
drift over minutes. The plain op-time median follows the mix; the slowest
repeat follows the program at the steady speed, and a cache that only
speeds up repeated inputs cannot lower it.
--trace 1 alternates untraced and traced ops on the same inputs and
prints per-layer metrics from tracer.py, per op: counts over the first
`trace_ops` traced ops (fixed inputs, so two runs with one seed give
identical counts), times over every traced op.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the line before it is a report with the seed, the machine, the median
fastest repeat, the plain op-time p50/p90, the workload's own throughput
(points_per_s or solves_per_s), fail_ratio, cli_*_ms.p50 and any
faults. Only the last line's metrics have bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench_work"

#: Seed kept out of tuning: confirm a later claim on it as well.
HELD_OUT_SEED = 20261017

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def probe_setup(args, env: dict, workdir: Path, importtime: bool) -> dict:
    """One fresh-interpreter set-up (setup_probe.py) and its timings."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH / "setup_probe.py"), args.workload, str(args.seed),
           str(workdir)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except BaseException:
        # The probe may have CLI children of its own: stop the group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: "
                           f"{err.strip()[-2000:]}")
    sample = json.loads(out.splitlines()[-1])
    if importtime:
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                cumulative.setdefault(parts[2].strip(), parts[1].strip())
        sample["package_s"] = int(cumulative["soliton_reduce"]) / 1e6
        sample["scipy_interpolate_s"] = \
            int(cumulative.get("scipy.interpolate", 0)) / 1e6
    return sample


def machine_facts() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    numba = subprocess.run([sys.executable, "-c", "import numba"],
                           capture_output=True, timeout=60).returncode == 0
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba_imports": numba,
            "SOLITON_REDUCE_DISABLE_NUMBA":
                os.environ.get("SOLITON_REDUCE_DISABLE_NUMBA")}


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def measure(wl, run_op, seconds: float) -> list:
    """Untraced closed loop: cycle through the inputs until `seconds` have
    passed and every input has run equally often."""
    inputs = [wl.make_input(j) for j in range(wl.inputs_per_run)]
    records = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        for j, inp in enumerate(inputs):
            s, out, faults = run_op(wl, inp)
            records.append({"input": j, "s": s, "faults": faults,
                            **(wl.tally(out) if not faults else {"work": 0})})
    return records


def end_to_end(args, wl, records, setups) -> tuple[dict, dict]:
    """Gated metrics and, for the report line, the workload's own names."""
    ok = [r for r in records if not r["faults"]]
    best, slowest = {}, {}
    for r in ok:
        best[r["input"]] = min(best.get(r["input"], r["s"]), r["s"])
        slowest[r["input"]] = max(slowest.get(r["input"], r["s"]), r["s"])
    if args.workload == "cli-roundtrip":
        rss = max((r["rss_mb"] for r in ok), default=0.0)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "slow_op_ms.p50": (
            statistics.median([s * 1e3 for s in slowest.values()] or [0.0]),
            "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    ms = [r["s"] * 1e3 for r in ok or records]
    named = dict(metrics)
    named["best_op_ms.p50"] = (
        statistics.median([s * 1e3 for s in best.values()] or [0.0]), "ms")
    named["op_ms.p50"] = (statistics.median(ms), "ms")
    named["op_ms.p90"] = (quantile(ms, 0.9), "ms")
    named[wl.rate_name] = (sum(r["work"] for r in records)
                           / sum(r["s"] for r in records), "1/s")
    named["fail_ratio"] = (1 - len(ok) / len(records), "ratio")
    if args.workload == "cli-roundtrip":
        for step in ("solve", "verify"):
            named[f"cli_{step}_ms.p50"] = (statistics.median(
                [r[f"{step}_s"] * 1e3 for r in ok] or [0.0]), "ms")
    return metrics, named


def trace(wl, run_op, seconds: float) -> tuple[list, dict]:
    """Alternate an untraced and a traced op on each input."""
    from tracer import Tracer

    tracer = Tracer()
    inputs = [wl.make_input(j) for j in range(wl.inputs_per_run)]
    records, untraced, traced, unattributed = [], [], [], []
    first = None
    deadline = perf_counter() + seconds
    k = 0
    while k < wl.trace_ops or perf_counter() < deadline:
        inp = inputs[k % len(inputs)]
        s, _, faults = run_op(wl, inp)
        records.append({"s": s, "faults": faults})
        untraced.append(s)
        root = tracer.op()
        s, _, faults = run_op(wl, inp, root)
        records.append({"s": s, "faults": faults})
        traced.append(root.total_s)
        unattributed.append(root.unattributed_s)
        k += 1
        if k == wl.trace_ops:
            first = tracer.snapshot()
    return records, layer_metrics(first, tracer.snapshot(), wl.trace_ops, k,
                                  untraced, traced, unattributed,
                                  tracer.missing)


def layer_metrics(first, last, n_first, n_all, untraced, traced,
                  unattributed, missing) -> dict:
    calls, counts = first["calls"], first["counts"]

    def per_op(d, key):
        return d.get(key, 0) / n_first

    def self_ms(key):
        return last["self"].get(key, 0.0) / n_all * 1e3

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for span in ("rk.dense_eval", "rk.integrate", "reduction.reduced_rhs",
                 "reduction.special_rhs", "solve.solvers", "profiles.sample",
                 "profiles.lift", "ansatz.xi_jet", "cli.main"):
        m[f"{span}.calls"] = (per_op(calls, span), "count")
        m[f"{span}.self_ms"] = (self_ms(span), "ms")
    for span in ("verify.verify_profile", "verify.draw_points",
                 "verify.residual_maxima", "verify.oracle",
                 "geometry.conformal_ricci", "kernels.batch_residuals"):
        m[f"{span}.self_ms"] = (self_ms(span), "ms")
    for key in ("rk.dense_segments_scanned", "rk.rhs_evals",
                "rk.steps_accepted", "rk.steps_rejected",
                "verify.oracle.phi_evals", "kernels.batch_residuals.points",
                "cli.csv_rows"):
        m[key] = (per_op(counts, key), "count")
    steps = counts.get("rk.steps_accepted", 0) + \
        counts.get("rk.steps_rejected", 0)
    m["rk.reject_ratio"] = (ratio(counts.get("rk.steps_rejected", 0),
                                  steps), "ratio")
    m["rk.us_per_rhs_eval"] = (ratio(
        last["total"].get("rk.integrate", 0.0) * 1e6,
        last["counts"].get("rk.rhs_evals", 0)), "us")
    m["verify.draw_points.acceptance"] = (ratio(
        counts.get("verify.draw_points.accepted", 0),
        counts.get("verify.draw_points.candidates", 0)), "ratio")
    attempted = per_op(calls, "verify.oracle")
    m["verify.oracle.points_attempted"] = (attempted, "count")
    m["verify.oracle.points_skipped"] = (
        attempted - per_op(counts, "verify.oracle.points_ok"), "count")
    for key, span in (("cli.write_profile_csv_ms", "cli.write_profile_csv"),
                      ("cli.read_profile_csv_ms", "cli.read_profile_csv"),
                      ("solve.NodeProfile.init_ms",
                       "solve.NodeProfile.init")):
        m[key] = (last["total"].get(span, 0.0) / n_all * 1e3, "ms")
    traced_p50 = statistics.median(traced) * 1e3
    m["trace.op_ms.p50"] = (traced_p50, "ms")
    m["trace.overhead_ms"] = (
        traced_p50 - statistics.median(untraced) * 1e3, "ms")
    m["trace.unattributed_ms"] = (statistics.mean(unattributed) * 1e3, "ms")
    m["trace.unattributed_share"] = (sum(unattributed) / sum(traced),
                                     "ratio")
    m["trace.wrappers_missing"] = (len(missing), "count")
    return m


def run(args) -> tuple[dict, dict]:
    if not (SRC / "soliton_reduce" / "__init__.py").is_file():
        raise FileNotFoundError(f"no soliton_reduce sources under {SRC}")
    sys.path.insert(1, str(SRC))
    import soliton_reduce

    if Path(soliton_reduce.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"soliton_reduce imported from "
                          f"{soliton_reduce.__file__}, not from {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        env = workloads.pythonpath_env(SRC)
        setups = [probe_setup(args, env, workdir / f"probe{k}",
                              args.trace == 1)
                  for k in range(SETUP_PROBES)]
        wl = workloads.WORKLOADS[args.workload](
            args.seed, workdir / "run", trace=args.trace == 1)
        problems = workloads.gate_self_check(args.seed)
        problems += [f"set-up op: {f}" for s in setups for f in s["faults"]]
        _, _, faults = workloads.run_op(wl, wl.make_input(0))
        problems += [f"warm-up op: {f}" for f in faults]
        if args.trace:
            records, metrics = trace(wl, workloads.run_op, args.seconds)
            metrics["import.package_s"] = (statistics.median(
                s["package_s"] for s in setups), "s")
            metrics["import.scipy_interpolate_s"] = (statistics.median(
                s["scipy_interpolate_s"] for s in setups), "s")
            named = {}
        else:
            records = measure(wl, workloads.run_op, args.seconds)
            metrics, named = end_to_end(args, wl, records, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = [r for r in records if r["faults"]]
    report = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "ops": len(records),
        "setup_samples_s": [s["setup_s"] for s in setups],
        "named_metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in named.items()},
        "gate_problems": problems,
        "op_faults": [r["faults"] for r in failed[:5]],
    }
    result = {
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        report, result = run(args)
    except (OSError, ImportError, RuntimeError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
