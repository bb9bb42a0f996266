"""Per-layer tracing from outside conify: wrap public names, keep spans in memory.

Each wrapped public function or method records a span (name, start, end,
parent span, job id).  The hot leaves (mono_divides, TermOrder.key, the
ExactScalar operations, combo_sign, rational_matrix_rank, spoly, normal_form)
are only counted, because a span around a sub-microsecond call would swamp the
self times it is meant to measure.  A function is replaced in every conify
module namespace that binds it, since `from .groebner import reduced_basis`
gives the caller its own reference.
"""

from __future__ import annotations

import json
import math
import time
import weakref
from collections import Counter

# (name, unit) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str]] = [
    ("exactnum.ExactScalar.sign.calls", "count"),
    ("exactnum.ExactScalar.floor.calls", "count"),
    ("exactnum.ExactScalar.nearest_int.calls", "count"),
    ("exactnum.ExactScalar.arith.calls", "count"),
    ("exactnum.self_s", "s"),
    ("polyring.mono_divides.calls", "count"),
    ("polyring.TermOrder.key.calls", "count"),
    ("polyring.TermOrder.key.hit_ratio", "ratio"),
    ("polyring.Polynomial.mul.calls", "count"),
    ("polyring.Polynomial.mul.self_s", "s"),
    ("polyring.parse_polynomial.self_s", "s"),
    ("polyring.grevlex_cache.entries", "count"),
]
for _kind in ("grevlex", "weighted", "elim"):
    PER_LAYER += [(f"groebner.reduced_basis.{_kind}.calls", "count"),
                  (f"groebner.reduced_basis.{_kind}.busy_s", "s")]
PER_LAYER += [
    ("groebner.reduced_basis.self_s", "s"),
    ("groebner.reduced_basis.repeat_share", "ratio"),
    ("groebner.spoly.calls", "count"),
    ("groebner.spair.useful_ratio", "ratio"),
    ("groebner.division.calls", "count"),
    ("groebner.division.self_s", "s"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.basis_size.max", "count"),
    ("groebner.saturate_by_variable.busy_s", "s"),
    ("groebner.intersect.busy_s", "s"),
    ("groebner.ideal_quotient.busy_s", "s"),
]
PER_LAYER += [(f"degeneration.{fn}.busy_s", "s") for fn in (
    "build_test_configuration", "central_fiber", "weighted_initial_ideal",
    "flatness_witness", "stable_initial_ideal", "hilbert_function")]
PER_LAYER += [
    ("degeneration.hilbert_function.monomials", "count"),
    ("diophantine.dirichlet_approximant.busy_s", "s"),
    ("diophantine.dirichlet_approximant.denominators", "count"),
    ("diophantine.dirichlet_approximant.denominators_per_s", "1/s"),
    ("diophantine.nice_approximant.busy_s", "s"),
    ("diophantine.nice_approximant.denominators", "count"),
    ("diophantine.kronecker_corner_search.busy_s", "s"),
    ("diophantine.kronecker_corner_search.multipliers", "count"),
    ("diophantine.kronecker_corner_search.multipliers_per_s", "1/s"),
    ("diophantine.approximant_cone.busy_s", "s"),
    ("diophantine.ConeDescription.contains.calls", "count"),
    ("diophantine.ConeDescription.contains.useful_ratio", "ratio"),
    ("diophantine.rational_matrix_rank.calls", "count"),
    ("diophantine.combo_sign.calls", "count"),
    ("poisson.PoissonTable.init.busy_s", "s"),
    ("poisson.PoissonTable.bracket.calls", "count"),
    ("poisson.PoissonTable.bracket.self_s", "s"),
]
PER_LAYER += [(f"poisson.{fn}.busy_s", "s") for fn in (
    "jacobi_holds", "preserves_ideal", "invariant_generators", "decompose_semiinvariant")]
PER_LAYER += [
    ("inputdoc.parse_input.busy_s", "s"),
    ("catalogue.verify_entry.busy_s", "s"),
    ("numerics.rotation_from_target.busy_s", "s"),
]
CLI_SUBCOMMANDS = ("initial-ideal", "testconfig", "fiber", "flatness", "hilbert", "rank",
                   "approximate", "cone", "poisson-check", "decompose", "invariants",
                   "rotate", "demo")
PER_LAYER += [(f"cli.{cmd}.busy_s", "s") for cmd in CLI_SUBCOMMANDS]
PER_LAYER += [
    ("cli.render.busy_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.separation_violations", "count"),
]

# Layers each workload must leave untouched: later claims rest on this split.
PREDICTED_IDLE = {
    "degen-families": ("diophantine", "poisson", "cli", "inputdoc", "catalogue", "numerics"),
    "reeb-approx": ("polyring", "groebner", "degeneration", "poisson", "cli", "inputdoc",
                    "catalogue", "numerics"),
    "cli-mix": (),
}


def _order_kind(order) -> str:
    if order is None:
        return "grevlex"
    if order.elim:
        return "elim"
    return "weighted" if order.weights is not None else "grevlex"


class Tracer:
    """Installs wrappers on the conify modules of one import and collects spans."""

    def __init__(self, cf):
        self.cf = cf
        self.spans: list[list] = []       # [name, start, end, parent index, job id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job: int | None = None
        self.exact_busy = 0.0
        self._exact_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self._orders: dict[int, tuple] = {}   # id(order) -> (weakref, seen monomials, kind)
        self._last_spoly = None
        self._job_bases: set = set()

    # -- job boundaries ------------------------------------------------------------

    def start_job(self, job_id: int) -> None:
        self.job = job_id
        self._job_bases = set()

    # -- wrapper factories ---------------------------------------------------------

    def _span(self, name, orig, after=None, name_of=None):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            rec = [name_of(args, kwargs) if name_of else name, clock(), 0.0,
                   stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _count(self, key, orig, after=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = orig(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _exact(self, key, orig):
        """Count an ExactScalar op; time only the outermost one (its self time,
        since these ops call nothing outside exactnum but Fraction)."""
        counts, clock, tracer = self.counts, time.perf_counter, self

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if tracer._exact_depth:
                return orig(*args, **kwargs)
            tracer._exact_depth = 1
            start = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.exact_busy += clock() - start
                tracer._exact_depth = 0
        return wrapper

    def _key(self, orig):
        counts, orders = self.counts, self._orders

        def key(order, m):
            counts["polyring.TermOrder.key.calls"] += 1
            entry = orders.get(id(order))
            if entry is None or entry[0]() is not order:
                entry = (weakref.ref(order), set(), _order_kind(order))
                orders[id(order)] = entry
            if m in entry[1]:
                counts["polyring.TermOrder.key.hits"] += 1
            else:
                entry[1].add(m)
            return orig(order, m)
        return key

    # -- after-hooks for work counters --------------------------------------------

    def _after_spoly(self, args, kwargs, result):
        self._last_spoly = result

    def _after_normal_form(self, args, kwargs, result):
        f = args[0] if args else kwargs.get("f")
        if f is not None and f is self._last_spoly:
            self._last_spoly = None
            self.counts["groebner.spair.reduced"] += 1
            if not result.is_zero():
                self.counts["groebner.spair.useful"] += 1

    def _after_reduced_basis(self, args, kwargs, result):
        c = self.counts
        c["groebner.basis_size.max"] = max(c["groebner.basis_size.max"], len(result))
        ideal = args[0] if args else kwargs["ideal"]
        order = args[1] if len(args) > 1 else kwargs.get("order")
        shape = None if order is None else (order.nvars, order.weights, order.elim)
        key = (ideal.ring, ideal.generators, _order_kind(order), shape)
        c["groebner.reduced_basis.calls"] += 1
        if key in self._job_bases:
            c["groebner.reduced_basis.repeats"] += 1
        else:
            self._job_bases.add(key)

    def _after_hilbert(self, args, kwargs, result):
        wd = args[1] if len(args) > 1 else kwargs["wd"]
        cap = args[2] if len(args) > 2 else kwargs["cap"]
        self.counts["degeneration.hilbert_function.monomials"] += math.prod(
            cap // w + 1 for w in wd.integer_weights())

    def _add(self, key, value_of):
        def after(args, kwargs, result):
            self.counts[key] += value_of(result)
        return after

    # -- installation --------------------------------------------------------------

    def _modules(self):
        return [m for m in vars(self.cf).values() if getattr(m, "__name__", "").startswith("conify")]

    def _patch_function(self, module, attr, make):
        orig = getattr(module, attr)
        wrapper = make(orig)
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, name, orig))
                    setattr(mod, name, wrapper)

    def _patch_method(self, cls, attr, make):
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, make(orig))

    def install(self) -> None:
        cf = self.cf
        ExactScalar = cf.exactnum.ExactScalar
        for attr in ("sign", "floor", "nearest_int"):
            self._patch_method(ExactScalar, attr,
                               lambda o, a=attr: self._exact(f"exactnum.ExactScalar.{a}.calls", o))
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "inverse"):
            self._patch_method(ExactScalar, attr,
                               lambda o: self._exact("exactnum.ExactScalar.arith.calls", o))

        pr = cf.polyring
        self._patch_function(pr, "mono_divides", lambda o: self._count("polyring.mono_divides.calls", o))
        self._patch_method(pr.TermOrder, "key", self._key)
        for attr in ("__mul__", "__rmul__"):
            self._patch_method(pr.Polynomial, attr, lambda o: self._span("polyring.Polynomial.mul", o))
        self._patch_function(pr, "parse_polynomial", lambda o: self._span("polyring.parse_polynomial", o))

        gb = cf.groebner

        def basis_name(args, kwargs):
            order = args[1] if len(args) > 1 else kwargs.get("order")
            return f"groebner.reduced_basis.{_order_kind(order)}"
        self._patch_function(gb, "reduced_basis",
                             lambda o: self._span(None, o, self._after_reduced_basis, basis_name))
        self._patch_function(gb, "division", lambda o: self._span("groebner.division", o))
        self._patch_function(gb, "normal_form",
                             lambda o: self._count("groebner.normal_form.calls", o, self._after_normal_form))
        self._patch_function(gb, "spoly", lambda o: self._count("groebner.spoly.calls", o, self._after_spoly))
        for fn in ("saturate_by_variable", "intersect", "ideal_quotient"):
            self._patch_function(gb, fn, lambda o, fn=fn: self._span(f"groebner.{fn}", o))

        dg = cf.degeneration
        for fn in ("build_test_configuration", "central_fiber", "weighted_initial_ideal",
                   "flatness_witness", "stable_initial_ideal"):
            self._patch_function(dg, fn, lambda o, fn=fn: self._span(f"degeneration.{fn}", o))
        self._patch_function(dg, "hilbert_function",
                             lambda o: self._span("degeneration.hilbert_function", o, self._after_hilbert))

        dio = cf.diophantine
        for fn in ("dirichlet_approximant", "nice_approximant"):
            self._patch_function(dio, fn, lambda o, fn=fn: self._span(
                f"diophantine.{fn}", o, self._add(f"diophantine.{fn}.denominators", lambda r: r.D)))
        self._patch_function(dio, "kronecker_corner_search", lambda o: self._span(
            "diophantine.kronecker_corner_search", o,
            self._add("diophantine.kronecker_corner_search.multipliers",
                      lambda r: max(hit.C for hit in r.hits))))
        self._patch_function(dio, "approximant_cone", lambda o: self._span("diophantine.approximant_cone", o))
        self._patch_method(dio.ConeDescription, "contains", lambda o: self._count(
            "diophantine.ConeDescription.contains.calls", o,
            self._add("diophantine.ConeDescription.contains.useful", lambda r: 1 if r[0] else 0)))
        self._patch_function(dio, "rational_matrix_rank",
                             lambda o: self._count("diophantine.rational_matrix_rank.calls", o))
        self._patch_function(dio, "combo_sign", lambda o: self._count("diophantine.combo_sign.calls", o))

        po = cf.poisson
        self._patch_method(po.PoissonTable, "__post_init__", lambda o: self._span("poisson.PoissonTable.init", o))
        self._patch_method(po.PoissonTable, "bracket", lambda o: self._span("poisson.PoissonTable.bracket", o))
        for fn in ("jacobi_holds", "preserves_ideal", "invariant_generators", "decompose_semiinvariant"):
            self._patch_function(po, fn, lambda o, fn=fn: self._span(f"poisson.{fn}", o))

        self._patch_function(cf.inputdoc, "parse_input", lambda o: self._span("inputdoc.parse_input", o))
        self._patch_function(cf.catalogue, "verify_entry", lambda o: self._span("catalogue.verify_entry", o))
        self._patch_function(cf.numerics, "rotation_from_target",
                             lambda o: self._span("numerics.rotation_from_target", o))
        self._patch_function(cf.cli, "run", lambda o: self._span(
            None, o, name_of=lambda args, kwargs: f"cli.{args[0].command}"))
        self._patch_function(cf.cli, "render", lambda o: self._span("cli.render", o))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------------------

    def span_totals(self) -> dict[str, list[float]]:
        """name -> [calls, busy seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list[float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return totals

    def layer_activity(self) -> Counter:
        """Spans plus counted calls per conify module."""
        active: Counter = Counter()
        for name, *_ in self.spans:
            active[name.split(".", 1)[0]] += 1
        for key, value in self.counts.items():
            if key.endswith(".calls"):
                active[key.split(".", 1)[0]] += value
        return active

    def metrics(self, overhead_s: float, untraced_s: float, workload: str) -> dict[str, float]:
        spans = self.span_totals()
        c = self.counts

        def span(name, i):
            return spans.get(name, [0, 0.0, 0.0])[i]

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        def per_s(count_key, span_name):
            busy = span(span_name, 1)
            return c[count_key] / busy if busy else 0.0

        grevlex_entries = sum(len(seen) for ref, seen, kind in self._orders.values()
                              if kind == "grevlex" and ref() is not None)
        out = {
            "exactnum.ExactScalar.sign.calls": c["exactnum.ExactScalar.sign.calls"],
            "exactnum.ExactScalar.floor.calls": c["exactnum.ExactScalar.floor.calls"],
            "exactnum.ExactScalar.nearest_int.calls": c["exactnum.ExactScalar.nearest_int.calls"],
            "exactnum.ExactScalar.arith.calls": c["exactnum.ExactScalar.arith.calls"],
            "exactnum.self_s": self.exact_busy,
            "polyring.mono_divides.calls": c["polyring.mono_divides.calls"],
            "polyring.TermOrder.key.calls": c["polyring.TermOrder.key.calls"],
            "polyring.TermOrder.key.hit_ratio": ratio("polyring.TermOrder.key.hits",
                                                      "polyring.TermOrder.key.calls"),
            "polyring.Polynomial.mul.calls": span("polyring.Polynomial.mul", 0),
            "polyring.Polynomial.mul.self_s": span("polyring.Polynomial.mul", 2),
            "polyring.parse_polynomial.self_s": span("polyring.parse_polynomial", 2),
            "polyring.grevlex_cache.entries": grevlex_entries,
        }
        for kind in ("grevlex", "weighted", "elim"):
            out[f"groebner.reduced_basis.{kind}.calls"] = span(f"groebner.reduced_basis.{kind}", 0)
            out[f"groebner.reduced_basis.{kind}.busy_s"] = span(f"groebner.reduced_basis.{kind}", 1)
        out.update({
            "groebner.reduced_basis.self_s": sum(span(f"groebner.reduced_basis.{k}", 2)
                                                 for k in ("grevlex", "weighted", "elim")),
            "groebner.reduced_basis.repeat_share": ratio("groebner.reduced_basis.repeats",
                                                         "groebner.reduced_basis.calls"),
            "groebner.spoly.calls": c["groebner.spoly.calls"],
            "groebner.spair.useful_ratio": ratio("groebner.spair.useful", "groebner.spair.reduced"),
            "groebner.division.calls": span("groebner.division", 0),
            "groebner.division.self_s": span("groebner.division", 2),
            "groebner.normal_form.calls": c["groebner.normal_form.calls"],
            "groebner.basis_size.max": c["groebner.basis_size.max"],
        })
        for fn in ("saturate_by_variable", "intersect", "ideal_quotient"):
            out[f"groebner.{fn}.busy_s"] = span(f"groebner.{fn}", 1)
        for fn in ("build_test_configuration", "central_fiber", "weighted_initial_ideal",
                   "flatness_witness", "stable_initial_ideal", "hilbert_function"):
            out[f"degeneration.{fn}.busy_s"] = span(f"degeneration.{fn}", 1)
        out["degeneration.hilbert_function.monomials"] = c["degeneration.hilbert_function.monomials"]
        for fn in ("dirichlet_approximant", "nice_approximant"):
            out[f"diophantine.{fn}.busy_s"] = span(f"diophantine.{fn}", 1)
            out[f"diophantine.{fn}.denominators"] = c[f"diophantine.{fn}.denominators"]
        out["diophantine.dirichlet_approximant.denominators_per_s"] = per_s(
            "diophantine.dirichlet_approximant.denominators", "diophantine.dirichlet_approximant")
        out["diophantine.kronecker_corner_search.busy_s"] = span("diophantine.kronecker_corner_search", 1)
        out["diophantine.kronecker_corner_search.multipliers"] = c[
            "diophantine.kronecker_corner_search.multipliers"]
        out["diophantine.kronecker_corner_search.multipliers_per_s"] = per_s(
            "diophantine.kronecker_corner_search.multipliers", "diophantine.kronecker_corner_search")
        out["diophantine.approximant_cone.busy_s"] = span("diophantine.approximant_cone", 1)
        out["diophantine.ConeDescription.contains.calls"] = c["diophantine.ConeDescription.contains.calls"]
        out["diophantine.ConeDescription.contains.useful_ratio"] = ratio(
            "diophantine.ConeDescription.contains.useful", "diophantine.ConeDescription.contains.calls")
        out["diophantine.rational_matrix_rank.calls"] = c["diophantine.rational_matrix_rank.calls"]
        out["diophantine.combo_sign.calls"] = c["diophantine.combo_sign.calls"]
        out["poisson.PoissonTable.init.busy_s"] = span("poisson.PoissonTable.init", 1)
        out["poisson.PoissonTable.bracket.calls"] = span("poisson.PoissonTable.bracket", 0)
        out["poisson.PoissonTable.bracket.self_s"] = span("poisson.PoissonTable.bracket", 2)
        for fn in ("jacobi_holds", "preserves_ideal", "invariant_generators", "decompose_semiinvariant"):
            out[f"poisson.{fn}.busy_s"] = span(f"poisson.{fn}", 1)
        out["inputdoc.parse_input.busy_s"] = span("inputdoc.parse_input", 1)
        out["catalogue.verify_entry.busy_s"] = span("catalogue.verify_entry", 1)
        out["numerics.rotation_from_target.busy_s"] = span("numerics.rotation_from_target", 1)
        for cmd in CLI_SUBCOMMANDS:
            out[f"cli.{cmd}.busy_s"] = span(f"cli.{cmd}", 1)
        out["cli.render.busy_s"] = span("cli.render", 1)
        out["trace.overhead_s"] = overhead_s
        out["trace.overhead_share"] = overhead_s / untraced_s if untraced_s else 0.0
        out["trace.spans"] = len(self.spans)
        out["trace.separation_violations"] = len(self.separation_violations(workload))
        return out

    def separation_violations(self, workload: str) -> list[str]:
        active = self.layer_activity()
        return [f"{layer} ({active[layer]} calls)" for layer in PREDICTED_IDLE[workload] if active[layer]]

    def write(self, path, metrics: dict) -> None:
        names: dict[str, int] = {}
        rows = []
        origin = self.spans[0][1] if self.spans else 0.0
        for name, start, end, parent, job in self.spans:
            rows.append([names.setdefault(name, len(names)), round(start - origin, 9),
                         round(end - origin, 9), parent, job])
        payload = {
            "span_fields": ["name", "start_s", "end_s", "parent", "job"],
            "names": list(names),
            "spans": rows,
            "counters": dict(sorted(self.counts.items())),
            "metrics": metrics,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
