"""Span tracer that wraps the public functions of ``poincare_hardy`` from outside.

No source file of the package changes.  ``Tracer.install`` replaces each
public function at every place it is looked up: its own module and every
module that imported it by name (``verify.converge_terms``,
``cli.margin_thm21``, ...), plus the ``Jet`` ring operations and the profile
``jet`` methods on their classes.  Patching only the defining module would
miss calls made through the imported names.

Each call records a span: name, start, end and the index of the enclosing
span.  Self time is a span's duration minus that of its direct children.
Counters (nodes, lanes, refinements, cache hits, bytes) are recorded at the
same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = (
    "constants",
    "jets",
    "quadrature",
    "profiles",
    "operators",
    "reports",
    "verify",
    "identities",
    "halfspace",
    "cli",
)

# span names that group several public functions; any other function's span is
# "<module>.<function>", and the counting wrappers in Tracer.install name their own
GROUPS = {
    "margin_thm21": "verify.margin",
    "margin_rellich": "verify.margin",
    "margin_poincare_hardy": "verify.margin",
    "margin_yang": "verify.margin",
    "margin_general": "verify.margin",
    "sharpness_probe": "verify.sharpness",
    "check_ph1": "identities.check",
    "check_trans1": "identities.check",
    "check_estimate1": "identities.check",
    "check_estimate2": "identities.check",
    "check_1d_lemmas": "identities.check",
    "margin_halfspace": "halfspace.check",
    "margin_hardy_mazya": "halfspace.check",
    "check_pf1": "halfspace.check",
    "check_pf2": "halfspace.check",
    "build_plane_grid": "halfspace.build_grid",
}

JET_OPS = ("__mul__", "__rmul__", "reciprocal", "exp", "power")
PROFILE_CLASSES = ("Bump", "SmoothWindow", "Cutoff", "ExpDecay", "Scaled", "Product")


class Tracer:
    """In-memory spans and counters for one child interpreter."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._radial_converge_depth = 0
        self._profile_depth = 0

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; after(result, args) adds counters."""
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, seconds and self seconds.

        Seconds count only spans with no enclosing span of the same name, so
        recursion (a profile built from profiles) is not counted twice.
        """
        names, parents = self.names, self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_time[parent] += durations[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(names):
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += durations[i] - child_time[i]
            p = parents[i]
            while p >= 0 and names[p] != name:
                p = parents[p]
            if p < 0:
                rec["s"] += durations[i]
        return out

    # -- counters at layer boundaries ---------------------------------------

    def _converge(self, name, fn, points):
        """Wrap a doubling loop: count evaluated points, refinements and exhausted budgets."""
        counts = self.counts
        tracer = self

        def run(evaluate, spec, *rest, **kwargs):
            sizes = []

            def counted(grid):
                sizes.append(points(grid))
                return evaluate(grid)

            depth = 1 if name == "quadrature.converge" else 0
            tracer._radial_converge_depth += depth
            try:
                values, errors = fn(counted, spec, *rest, **kwargs)
            finally:
                tracer._radial_converge_depth -= depth
            scale = max((abs(v) for v in values.values()), default=0.0)
            converged = all(e <= spec.rel_tol * scale + spec.abs_tol for e in errors.values())
            counts[f"{name}.points"] += sum(sizes)
            counts[f"{name}.final_points"] += sizes[-1]
            counts[f"{name}.refinements"] += len(sizes) - 1
            counts[f"{name}.budget_exhausted"] += 0 if converged else 1
            return values, errors

        return self.span(name, functools.wraps(fn)(run))

    def _profile_jet(self, fn):
        counts = self.counts
        tracer = self

        def jet(profile, r, order):
            outer = tracer._profile_depth == 0
            tracer._profile_depth += 1
            try:
                result = fn(profile, r, order)
            finally:
                tracer._profile_depth -= 1
            if outer:
                lanes = int(getattr(r, "size", 1))
                counts["profiles.jet.calls"] += 1
                counts["profiles.jet.lanes"] += lanes
                if tracer._radial_converge_depth:
                    support = profile.support
                    counts["quadrature.lanes"] += lanes
                    if support is None:
                        counts["quadrature.lanes_in_support"] += lanes
                    else:
                        inside = (r > support[0]) & (r < support[1])
                        counts["quadrature.lanes_in_support"] += int(inside.sum())
            return result

        return self.span("profiles.jet", functools.wraps(fn)(jet))

    def _jet_op(self, fn):
        counts = self.counts

        def after(result, args):
            counts["jets.ops"] += 1
            size = result.coef.nbytes + args[0].coef.nbytes
            other = args[1] if len(args) > 1 else None
            if hasattr(other, "coef"):
                size += other.coef.nbytes
            counts["jets.coef_bytes"] += size

        return self.span("jets.ops", fn, after)

    def _counting(self, name, fn, counter, measure):
        counts = self.counts

        def after(result, args):
            counts[counter] += measure(result)

        return self.span(name, fn, after)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch every public function of the package at every lookup site."""
        mods = {name: importlib.import_module(f"poincare_hardy.{name}") for name in MODULES}
        package = importlib.import_module("poincare_hardy")
        quadrature, halfspace, reports = mods["quadrature"], mods["halfspace"], mods["reports"]

        special = {
            quadrature.converge_terms: self._converge("quadrature.converge", quadrature.converge_terms, lambda g: g.nodes.size),
            halfspace.converge_plane_terms: self._converge(
                "halfspace.converge", halfspace.converge_plane_terms, lambda g: g.rho.size * g.y.size
            ),
            reports.dumps_json: self._counting("reports.dumps", reports.dumps_json, "reports.bytes", len),
            reports.dumps_csv: self._counting("reports.dumps", reports.dumps_csv, "reports.bytes", len),
        }
        wrapped = {}
        for mod_name, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if fn in special:
                    wrapped[fn] = special[fn]
                elif callable(fn) and not isinstance(fn, type):
                    wrapped[fn] = self.span(GROUPS.get(attr, f"{mod_name}.{attr}"), fn)

        # replace by identity wherever the original object is bound
        for mod in (*mods.values(), package):
            for attr, value in list(vars(mod).items()):
                try:
                    replacement = wrapped.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if replacement is not None:
                    setattr(mod, attr, replacement)

        Jet = mods["jets"].Jet
        for op in JET_OPS:
            setattr(Jet, op, self._jet_op(vars(Jet)[op]))
        for cls_name in PROFILE_CLASSES:
            cls = getattr(mods["profiles"], cls_name)
            cls.jet = self._profile_jet(vars(cls)["jet"])
        Grid, PlaneGrid = quadrature.Grid, halfspace.PlaneGrid
        Grid.integrate = self.span("quadrature.integrate", Grid.integrate)
        PlaneGrid.integrate = self.span("halfspace.integrate", PlaneGrid.integrate)
        RadialTable = mods["operators"].RadialTable
        RadialTable.__init__ = self.span("operators.tower", RadialTable.__init__)

    # -- metrics ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics by name (counts, ratios and seconds)."""
        spans = self.aggregate()
        c = self.counts

        def calls(name):
            return int(spans.get(name, {}).get("calls", 0))

        def secs(name, key="s"):
            return spans.get(name, {}).get(key, 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        def total(layer, key):
            return sum(rec[key] for name, rec in spans.items() if name.split(".")[0] == layer)

        table_calls = calls("operators.radial_table")
        builds = calls("operators.tower")
        q_conv = calls("quadrature.converge")
        h_conv = calls("halfspace.converge")
        m = {
            "quadrature.nodes": c["quadrature.converge.points"],
            "quadrature.nodes_in_support_ratio": ratio(c["quadrature.lanes_in_support"], c["quadrature.lanes"]),
            "quadrature.final_nodes_ratio": ratio(c["quadrature.converge.final_points"], c["quadrature.converge.points"]),
            "quadrature.refinements_per_converge": ratio(c["quadrature.converge.refinements"], q_conv),
            "quadrature.budget_exhausted": c["quadrature.converge.budget_exhausted"],
            "quadrature.converge.calls": q_conv,
            "quadrature.integrate.calls": calls("quadrature.integrate"),
            "quadrature.integrate.s": secs("quadrature.integrate"),
            "quadrature.build_grid.s": secs("quadrature.build_grid"),
            "operators.radial_table.calls": table_calls,
            "operators.radial_table.hit_ratio": ratio(table_calls - builds, table_calls),
            "operators.tower.builds": builds,
            "operators.tower.s": secs("operators.tower"),
            "jets.ops": c["jets.ops"],
            "jets.ops.s": secs("jets.ops"),
            "jets.coef_bytes": c["jets.coef_bytes"],
            "profiles.jet.calls": c["profiles.jet.calls"],
            "profiles.jet.lanes": c["profiles.jet.lanes"],
            "profiles.jet.s": secs("profiles.jet"),
            "halfspace.points": c["halfspace.converge.points"],
            "halfspace.converge.calls": h_conv,
            "halfspace.refinements_per_converge": ratio(c["halfspace.converge.refinements"], h_conv),
            "halfspace.budget_exhausted": c["halfspace.converge.budget_exhausted"],
            "halfspace.integrate.s": secs("halfspace.integrate"),
            "halfspace.build_grid.s": secs("halfspace.build_grid"),
            "halfspace.check.self_s": secs("halfspace.check", "self_s"),
            "verify.margin.calls": calls("verify.margin"),
            "verify.margin.self_s": secs("verify.margin", "self_s"),
            "verify.sharpness.s": secs("verify.sharpness"),
            "identities.check.calls": calls("identities.check"),
            "identities.check.self_s": secs("identities.check", "self_s"),
            "constants.calls": int(total("constants", "calls")),
            # constants functions call each other: their self times add up to the layer's time
            "constants.s": total("constants", "self_s"),
            "cli.main.calls": calls("cli.main"),
            "cli.main.self_s": secs("cli.main", "self_s"),
            "reports.dumps.s": secs("reports.dumps"),
            "reports.bytes": c["reports.bytes"],
        }
        # every layer's call count, for the tracer self-test
        for layer in MODULES:
            m[f"{layer}.layer_calls"] = int(total(layer, "calls"))
        return m
