"""Per-layer tracing by wrapping coxkit's module attributes at runtime.

Nothing in coxkit changes: install() replaces functions and methods on
the imported modules and classes with wrappers that count calls and
accumulate time. coxkit calls across and within modules through module
globals and class attributes, so the wrappers see internal calls too.

Hot calls (field arithmetic, signs, generator steps, products, commute
tests) only bump counters and add to accumulated times. Spans (id, name,
start, end, parent; perf_counter_ns, a system-wide clock) are recorded only at coarse boundaries: a sweep,
an enumeration stage, and the top-level calls of the roots, refl and
parabolic layers; at most MAX_SPANS per process, the rest are counted
as dropped.
"""

from __future__ import annotations

import time
from collections import defaultdict

MAX_SPANS = 2000


class Tracer:
    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.dropped = 0
        self._open: list[int] = []
        self._next_id = 0
        self._depth: dict[str, int] = defaultdict(int)
        self._flags: dict[str, int] = defaultdict(int)
        self._systems: list = []
        self._tables: dict[int, int] = {}

    # -- wrapper factories -------------------------------------------------

    def counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, fn, tkey, ckey=None):
        """Count calls and accumulate time; hot paths, no reentrancy guard."""
        counts, times, pc = self.counts, self.times, time.perf_counter

        def wrapper(*args, **kwargs):
            t = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                times[tkey] += pc() - t
                if ckey is not None:
                    counts[ckey] += 1

        return wrapper

    def spanned(self, fn, name, tkey=None, flag=None, on_result=None):
        """Record a span for the outermost call, time it, optionally set a flag."""
        depth, flags = self._depth, self._flags

        def wrapper(*args, **kwargs):
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] += 1
            if flag is not None:
                flags[flag] += 1
            sid = self._begin()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._end(sid, name, start, end)
                if tkey is not None:
                    self.times[tkey] += (end - start) / 1e9
                depth[name] -= 1
                if flag is not None:
                    flags[flag] -= 1
            if on_result is not None:
                on_result(result, args, (end - start) / 1e9)
            return result

        return wrapper

    # -- spans ---------------------------------------------------------------

    def _begin(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._open.append(sid)
        return sid

    def _end(self, sid, name, start, end) -> None:
        self._open.pop()
        parent = self._open[-1] if self._open else -1
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, name, start, end, parent))
        else:
            self.dropped += 1

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        from coxkit import diagram, field, group, parabolic, refl, roots, verify

        fe = field.FieldElement
        for attr, key in (("__mul__", "mul"), ("__rmul__", "mul"), ("__add__", "add"), ("__radd__", "add")):
            setattr(fe, attr, self.timed(getattr(fe, attr), "field.arith_s", f"field.{key}.calls"))
        make = fe.__dict__["_make"].__func__
        fe._make = classmethod(self.counted(make, "field.make.calls"))
        fe.sign = self.timed(fe.sign, "field.sign_s", "field.sign.calls")
        fe._compute_sign = self.counted(fe._compute_sign, "field.sign.computed")
        fe.inverse = self.counted(fe.inverse, "field.inverse.calls")
        field.Field._bisect_once = self.counted(field.Field._bisect_once, "field.bisect.calls")
        field.create = self.timed(field.create, "field.create_s")

        ge = group.GroupElement
        ge.__init__ = self.counted(ge.__init__, "group.element.created")
        group._right_mul_gen = self.counted(group._right_mul_gen, "group.step.calls")
        group.multiply = self.timed(group.multiply, "group.multiply_s", "group.multiply.calls")
        group._descent = self.counted(group._descent, "group.descent.calls")
        group.length_and_reduced = self.timed(
            group.length_and_reduced, "group.length_s", "group.length.calls"
        )
        group._bfs = self._wrap_bfs(group._bfs)
        group.enumerate_group = self._count_if(
            group.enumerate_group, "match", "parabolic.match.enumerations"
        )

        for name in ("verify_ball", "verify_finite"):
            setattr(verify, name, self.spanned(
                getattr(verify, name), f"verify.{name}", "verify.sweep_s",
                flag="sweep", on_result=self._on_report,
            ))
        verify.commutes = self._wrap_commutes(verify.commutes)

        roots.make_root = self.counted(roots.make_root, "roots.make_root.calls")
        roots.act = self.counted(roots.act, "roots.act.calls")
        roots.positive_roots = self.spanned(roots.positive_roots, "roots.positive_roots", "roots.positive_roots_s")
        roots.inversion_set = self.spanned(roots.inversion_set, "roots.inversion_set", "roots.inversion_set_s")
        roots.outward_representatives = self.spanned(
            roots.outward_representatives, "roots.outward_representatives", "roots.outward_s"
        )

        refl._length_table = self.spanned(
            refl._length_table, "refl._length_table", "refl.length_table_s", on_result=self._on_table
        )
        refl.reduced_factorizations = self.spanned(
            refl.reduced_factorizations, "refl.reduced_factorizations", on_result=self._on_factorizations
        )
        refl.hurwitz_move = self.counted(refl.hurwitz_move, "refl.hurwitz.moves")
        refl.hurwitz_orbit = self.spanned(refl.hurwitz_orbit, "refl.hurwitz_orbit", "refl.hurwitz_s")
        refl.generated_group = self.spanned(refl.generated_group, "refl.generated_group", "refl.generated_group_s")

        parabolic.conjugacy_graph = self.spanned(parabolic.conjugacy_graph, "parabolic.conjugacy_graph", "parabolic.graph_s")
        parabolic.nu = self.counted(parabolic.nu, "parabolic.nu.calls")
        parabolic.longest_element = self.counted(parabolic.longest_element, "parabolic.longest.calls")
        parabolic.parabolic_closure_finite = self.spanned(
            parabolic.parabolic_closure_finite, "parabolic.parabolic_closure_finite", "parabolic.closure_s"
        )
        parabolic._match_standard = self.spanned(
            parabolic._match_standard, "parabolic._match_standard", flag="match"
        )

        systems = self._systems
        init = diagram.CoxeterSystem.__init__

        def system_init(sys_, *args, **kwargs):
            init(sys_, *args, **kwargs)
            systems.append(sys_)

        diagram.CoxeterSystem.__init__ = system_init
        diagram.parse_system = self.spanned(diagram.parse_system, "diagram.parse_system", "diagram.parse_s")
        diagram.classify = self.timed(diagram.classify, "diagram.classify_s", "diagram.classify.calls")
        diagram.subsystem = self.counted(diagram.subsystem, "diagram.subsystem.calls")

    def _count_if(self, fn, flag, key):
        flags, counts = self._flags, self.counts

        def wrapper(*args, **kwargs):
            if flags[flag]:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_bfs(self, fn):
        counts = self.counts

        def on_result(ball, args, seconds):
            counts["group.enum.new"] += len(ball.members) - 1
            if self._flags["sweep"]:
                self.times["verify.stage.enumerate_s"] += seconds

        inner = self.spanned(fn, "group._bfs", "group.enumerate_s", on_result=on_result)

        def wrapper(*args, **kwargs):
            before = counts["group.step.calls"]
            try:
                return inner(*args, **kwargs)
            finally:
                counts["group.enum.children"] += counts["group.step.calls"] - before

        return wrapper

    def _wrap_commutes(self, fn):
        counts, times, flags, pc = self.counts, self.times, self._flags, time.perf_counter

        def wrapper(a, b):
            t = pc()
            result = fn(a, b)
            if flags["sweep"]:
                times["verify.stage.commute_s"] += pc() - t
                counts["verify.commutes.calls"] += 1
                counts["verify.commutes.true"] += bool(result)
            return result

        return wrapper

    def _on_report(self, report, args, seconds) -> None:
        self.counts["verify.centralizer.size"] += len(report.entries)

    def _on_table(self, table, args, seconds) -> None:
        self._tables[id(table)] = len(table)

    def _on_factorizations(self, facts, args, seconds) -> None:
        self.counts["refl.factorizations.count"] += len(facts)

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters and times, plus cache sizes of every system built so far."""
        from coxkit import group

        counts = dict(self.counts)
        counts["refl.length_table.size"] = sum(self._tables.values())
        entries = elements = 0
        for sys_ in self._systems:
            entries += len(sys_._cache)
            elements += sum(
                len(v.members) for v in sys_._cache.values() if isinstance(v, group.Ball)
            )
        counts["group.cache.entries"] = entries
        counts["group.cache.elements"] = elements
        return {
            "counts": counts,
            "times": dict(self.times),
            "spans": self.spans,
            "dropped": self.dropped,
        }
