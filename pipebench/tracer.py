"""Spans and counters around soliton_reduce's entry points, from outside.

`Tracer.install` rebinds module and class attributes of the loaded
soliton_reduce modules to timing wrappers; `uninstall` puts every
original back. Nothing under src/ is edited. A function is rebound in
every module whose namespace holds the same object, which covers the
names re-imported into other modules (`verify.xi_jet`, `solve.integrate`,
`cli.verify_profile`, the package namespace, ...).

Each wrapper records a span: calls, inclusive time and self time (its
duration minus the time of the spans it caused). `op()` opens the root
span of one benchmark op; the root's self time is time that no wrapper
claimed, so a missing wrapper shows as `unattributed`. Counters sit at
the same boundaries: RHS evaluations (by wrapping the RHS handed to
`rk.integrate`), dense-output segments scanned (reads of
`DenseSegment.t1`), sampling candidates and acceptances, oracle points
and phi evaluations, kernel points and CSV rows.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

PKG = "soliton_reduce"

#: (span, module, attribute) of each wrapped function.
FUNCTIONS = (
    ("cli.main", "cli", "main"),
    ("cli.write_profile_csv", "cli", "write_profile_csv"),
    ("cli.read_profile_csv", "cli", "read_profile_csv"),
    ("solve.solvers", "solve", "solve_reduced"),
    ("solve.solvers", "solve", "solve_special"),
    ("rk.integrate", "rk", "integrate"),
    ("reduction.reduced_rhs", "reduction", "reduced_rhs"),
    ("reduction.special_rhs", "reduction", "special_rhs"),
    ("profiles.lift", "profiles", "lift"),
    ("ansatz.xi_jet", "ansatz", "xi_jet"),
    ("verify.verify_profile", "verify", "verify_profile"),
    ("verify.draw_points", "verify", "draw_points"),
    ("verify.residual_maxima", "verify", "residual_maxima"),
    ("verify.oracle", "verify", "fd_curvature_oracle"),
    ("kernels.batch_residuals", "_kernels", "batch_residuals"),
    ("geometry.conformal_ricci", "geometry", "conformal_ricci"),
)

#: (span, module, class, method) of each wrapped method.
METHODS = (
    ("rk.dense_eval", "rk", "RawSolution", "eval"),
    ("solve.NodeProfile.init", "solve", "NodeProfile", "__init__"),
)

#: `sample` of every Profile subclass found in the package.
SAMPLE_SPAN = "profiles.sample"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.active = defaultdict(int)
        self.missing: set[str] = set()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        calls, total, self_time = self.calls, self.total, self.self_time
        active, stack = self.active, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                active[name] -= 1
                stack.pop()
                stack[-1][0] += dt
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - frame[0]
            if after is not None:
                after(args, out)
            return out

        return functools.update_wrapper(traced, fn)

    def op(self) -> "RootSpan":
        """Root span of one op; the wrappers are installed only inside it."""
        return RootSpan(self)

    # -- counters at span boundaries ------------------------------------

    def _hooks(self, name):
        counts, active = self.counts, self.active

        def xi_jet_before(args):
            if active["verify.draw_points"]:
                counts["verify.draw_points.candidates"] += 1

        def sample_before(args):
            if active["verify.oracle"]:
                counts["verify.oracle.phi_evals"] += 1

        def kernel_before(args):
            counts["kernels.batch_residuals.points"] += len(args[3])

        def draw_after(args, out):
            counts["verify.draw_points.accepted"] += len(out)

        def ricci_after(args, out):
            # The oracle is the only caller of conformal_ricci inside
            # verify_profile; each return is one oracle point evaluated.
            if active["verify.verify_profile"]:
                counts["verify.oracle.points_ok"] += 1

        def integrate_after(args, sol):
            counts["rk.steps_accepted"] += sol.n_accepted
            counts["rk.steps_rejected"] += sol.n_rejected

        def csv_after(args, prof):
            counts["cli.csv_rows"] += len(prof.nodes)

        return {
            "ansatz.xi_jet": (xi_jet_before, None),
            SAMPLE_SPAN: (sample_before, None),
            "kernels.batch_residuals": (kernel_before, None),
            "verify.draw_points": (None, draw_after),
            "geometry.conformal_ricci": (None, ricci_after),
            "rk.integrate": (None, integrate_after),
            "cli.read_profile_csv": (None, csv_after),
        }.get(name, (None, None))

    def _counting_integrate(self, integrate):
        counts = self.counts

        def integrate_counted(f, *args, **kwargs):
            def rhs(t, y):
                counts["rk.rhs_evals"] += 1
                return f(t, y)
            return integrate(rhs, *args, **kwargs)

        return functools.update_wrapper(integrate_counted, integrate)

    # -- installation ------------------------------------------------------

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        if name == "rk.integrate":
            fn = self._counting_integrate(fn)
        return self._span(name, fn, *self._hooks(name))

    def install(self):
        mods = {key[len(PKG) + 1:]: mod for key, mod in sys.modules.items()
                if key == PKG or key.startswith(PKG + ".")}
        for name, mod, attr in FUNCTIONS:
            orig = getattr(mods.get(mod), attr, None)
            if orig is None:
                self.missing.add(f"{mod}.{attr}")
                continue
            wrapped = self._wrap(name, orig)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._rebind(m, key, wrapped)
        for name, mod, cls_name, attr in METHODS:
            cls = getattr(mods.get(mod), cls_name, None)
            if cls is None or attr not in vars(cls):
                self.missing.add(f"{mod}.{cls_name}.{attr}")
                continue
            self._rebind(cls, attr, self._wrap(name, vars(cls)[attr]))

        profile = getattr(mods.get("profiles"), "Profile", None)
        classes = {v for m in mods.values() for v in vars(m).values()
                   if isinstance(v, type) and profile is not None
                   and issubclass(v, profile) and "sample" in vars(v)}
        if not classes:
            self.missing.add("profiles.Profile.sample")
        for cls in classes:
            self._rebind(cls, "sample", self._wrap(SAMPLE_SPAN,
                                                   vars(cls)["sample"]))

        segment = getattr(mods.get("rk"), "DenseSegment", None)
        t1 = vars(segment).get("t1") if segment is not None else None
        if not isinstance(t1, property):
            self.missing.add("rk.DenseSegment.t1")
            return
        counts, fget = self.counts, t1.fget

        def t1_counted(seg):
            counts["rk.dense_segments_scanned"] += 1
            return fget(seg)

        self._rebind(segment, "t1", property(t1_counted))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def snapshot(self) -> dict:
        """Copy of every span and counter total so far."""
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "counts": dict(self.counts)}


class RootSpan:
    """Times one traced op; `unattributed_s` is the part no wrapper claimed.

    Installing and removing the wrappers stays outside `total_s`.
    """

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self.total_s = self.unattributed_s = 0.0

    def __enter__(self):
        self._tracer.install()
        self._frame = [0.0]
        self._tracer._stack.append(self._frame)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.total_s = perf_counter() - self._t0
        self.unattributed_s = self.total_s - self._frame[0]
        self._tracer._stack.pop()
        self._tracer.uninstall()
