"""Theorem-level verification harness.

Target statement: the centralizer of a standard Coxeter element c is
the cyclic group generated by c. Finite irreducible groups are settled
by exhaustive enumeration. Infinite ones get a bounded certificate: a
sweep of a Cayley ball that either confirms every centralizing element
in range is a power of c, or surfaces the offender. Bounded sweeps are
inconclusive beyond their radius by design and the reports say so.

Report text is deterministic: timings live on the dataclasses but are
never printed. Machine lines use the format

    g=<word> k=<int> status=<ok|not-power>

where k is the exponent with g = c^k when status is ok, and 0 as a
placeholder otherwise (the status field disambiguates the identity).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import ceil
from typing import Sequence

from . import corpus as corpus_mod
from . import diagram as diagram_mod
from . import group as group_mod
from . import parabolic as parabolic_mod
from . import refl as refl_mod
from . import roots as roots_mod
from .diagram import CoxeterSystem
from .errors import InvariantViolation
from .group import GroupElement

__all__ = [
    "BetaTrace",
    "BetaTraceEntry",
    "CentralizerEntry",
    "CentralizerReport",
    "ExampleClause",
    "ExampleReport",
    "beta_trace",
    "commutes",
    "default_radius",
    "verify_ball",
    "verify_example_d4tilde",
    "verify_finite",
    "verify_outward",
    "verify_speyer",
]

DEFAULT_BALL_RADII = {2: 10, 3: 8, 5: 6}


def default_radius(rank: int) -> int:
    return DEFAULT_BALL_RADII.get(rank, max(3, 11 - rank))


def commutes(a: GroupElement, b: GroupElement) -> bool:
    return group_mod.multiply(a, b).key == group_mod.multiply(b, a).key


def _canonical_word(g: GroupElement) -> str:
    return group_mod.word_str(group_mod.length_and_reduced(g)[1])


# ------------------------------------------------------------------- reports

@dataclass(frozen=True)
class CentralizerEntry:
    word: str
    k: int
    status: str
    element: GroupElement

    def machine_line(self) -> str:
        return f"g={self.word} k={self.k} status={self.status}"


@dataclass
class CentralizerReport:
    mode: str
    coxeter_word: str
    entries: tuple[CentralizerEntry, ...]
    theorem_consistent: bool
    group_size: int | None = None
    coxeter_order: int | None = None
    radius: int | None = None
    power_bound: int | None = None
    ball_size: int | None = None
    elapsed: float = 0.0

    def counterexamples(self) -> list[CentralizerEntry]:
        return [e for e in self.entries if e.status != "ok"]

    def summary_line(self) -> str:
        if self.mode == "finite-exhaustive":
            if self.theorem_consistent:
                return f"finite-exhaustive: |C|={len(self.entries)}=|<c>| OK"
            return (
                f"finite-exhaustive: |C|={len(self.entries)},"
                f" |<c>|={self.coxeter_order} COUNTEREXAMPLE"
            )
        tail = "OK" if self.theorem_consistent else "COUNTEREXAMPLE"
        return (
            f"ball: radius={self.radius} powers={self.power_bound}"
            f" |C|={len(self.entries)} {tail}"
        )

    def text_lines(self) -> list[str]:
        head = [f"c = {self.coxeter_word}"]
        if self.mode == "finite-exhaustive":
            head.append(
                f"mode finite-exhaustive group-order={self.group_size}"
                f" coxeter-order={self.coxeter_order}"
            )
        else:
            head.append(
                f"mode ball radius={self.radius} power-bound={self.power_bound}"
                f" ball-size={self.ball_size}"
            )
        return head + [e.machine_line() for e in self.entries] + [self.summary_line()]


def _require_irreducible(sys_: CoxeterSystem) -> None:
    if not diagram_mod.is_irreducible(sys_):
        raise ValueError("the statement concerns irreducible systems")


# ------------------------------------------------------------- finite sweep

def verify_finite(sys_: CoxeterSystem, perm: Sequence[int] | None = None) -> CentralizerReport:
    """Exhaustive centralizer check in a finite irreducible group."""
    t0 = time.perf_counter()
    if diagram_mod.classify(sys_) != "finite":
        raise ValueError("exhaustive verification needs a finite system")
    _require_irreducible(sys_)
    c = group_mod.coxeter_element(sys_, perm)
    members = group_mod.enumerate_group(sys_).elements()
    order = group_mod.order_upto(c, len(members))
    if order is None:
        raise InvariantViolation("coxeter element order exceeds the group size")
    entries = _centralizer_entries(members, c, group_mod.power_window(c, order - 1, signed=False))
    consistent = (
        all(e.status == "ok" for e in entries) and len(entries) == order
    )
    return CentralizerReport(
        mode="finite-exhaustive",
        coxeter_word=group_mod.word_str(c.word),
        entries=tuple(entries),
        theorem_consistent=consistent,
        group_size=len(members),
        coxeter_order=order,
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------- ball sweep

def verify_ball(
    sys_: CoxeterSystem,
    radius: int | None = None,
    power_bound: int | None = None,
    perm: Sequence[int] | None = None,
) -> CentralizerReport:
    """Bounded centralizer sweep in an infinite irreducible group.

    Every element of the radius-R ball commuting with c must be a power
    c^k with |k| <= P; P is auto-raised to ceil(R / l(c)) + 1 so that a
    straight c can never produce a spurious out-of-window power.
    """
    t0 = time.perf_counter()
    if diagram_mod.classify(sys_) == "finite":
        raise ValueError("ball verification targets infinite systems")
    _require_irreducible(sys_)
    if radius is None:
        radius = default_radius(sys_.rank)
    if radius < 1:
        raise ValueError("radius must be at least 1")
    c = group_mod.coxeter_element(sys_, perm)
    clen = group_mod.length_and_reduced(c)[0]
    bound = ceil(radius / clen) + 1
    if power_bound is not None:
        bound = max(power_bound, bound)
    powers = group_mod.power_window(c, bound)
    sphere = group_mod.ball(sys_, radius)
    entries = _centralizer_entries(sphere.elements(), c, powers)
    consistent = all(e.status == "ok" for e in entries)
    return CentralizerReport(
        mode="ball",
        coxeter_word=group_mod.word_str(c.word),
        entries=tuple(entries),
        theorem_consistent=consistent,
        radius=radius,
        power_bound=bound,
        ball_size=len(sphere),
        elapsed=time.perf_counter() - t0,
    )


def _centralizer_entries(elements, c: GroupElement, powers: dict) -> list[CentralizerEntry]:
    """One entry per element commuting with c, matched against a power window."""
    entries = []
    for g in elements:
        if not commutes(g, c):
            continue
        hit = powers.get(g.key)
        if hit is None:
            entries.append(CentralizerEntry(_canonical_word(g), 0, "not-power", g))
        else:
            entries.append(CentralizerEntry(_canonical_word(g), hit[0], "ok", g))
    return entries


# ---------------------------------------------------------------- beta trace

@dataclass(frozen=True)
class BetaTraceEntry:
    index: int
    m: int | None
    j: int | None

    def line(self) -> str:
        if self.m is None:
            return f"beta_{self.index}: not-found-in-window"
        return f"beta_{self.index}: m={self.m} j={self.j}"


@dataclass
class BetaTrace:
    entries: tuple[BetaTraceEntry, ...]
    window: int
    complete: bool
    constant_m: int | None

    def text_lines(self) -> list[str]:
        out = [e.line() for e in self.entries]
        if self.constant_m is not None:
            out.append(f"constant-m: {self.constant_m}")
        return out


def beta_trace(
    g: GroupElement,
    c: GroupElement,
    window: int = 10,
    reps: Sequence[roots_mod.Root] | None = None,
) -> BetaTrace:
    """Trace the action of a centralizing g on the root orbit skeleton of c.

    For each outward representative beta_i of c, finds the smallest-|m|
    pair (m, j) with g(beta_i) = c^m(beta_j); misses inside the window
    are recorded as incomplete entries, never dropped. Also re-derives
    each s_{beta_i} as c times the reversed reduced word of c with the
    i-th letter struck, an exact identity behind the trace.
    """
    if g.system is not c.system:
        raise ValueError("elements live in different systems")
    if not commutes(g, c):
        raise ValueError("the traced element must centralize c")
    sys_ = c.system
    if reps is None:
        reps = roots_mod.outward_representatives(c)
    _, cword = group_mod.length_and_reduced(c)
    for i, beta in enumerate(reps, start=1):
        struck = tuple(reversed(cword[: i - 1] + cword[i:]))
        lhs = roots_mod.reflection_of_root(sys_, beta)
        rhs = group_mod.multiply(c, group_mod.from_word(sys_, struck))
        if lhs.key != rhs.key:
            raise InvariantViolation(
                f"reflection identity failed at position {i} of the coxeter word"
            )
    powers = group_mod.power_window(c, window).values()
    entries = []
    for i, beta in enumerate(reps, start=1):
        target = roots_mod.act(g, beta)
        hit: tuple[int, int] | None = None
        for m, wm in powers:
            for j, rep in enumerate(reps, start=1):
                if roots_mod.act(wm, rep).key == target.key:
                    hit = (m, j)
                    break
            if hit is not None:
                break
        entries.append(
            BetaTraceEntry(i, hit[0], hit[1]) if hit else BetaTraceEntry(i, None, None)
        )
    complete = all(e.m is not None for e in entries)
    ms = {e.m for e in entries}
    constant = entries[0].m if entries and complete and len(ms) == 1 else None
    return BetaTrace(tuple(entries), window, complete, constant)


# ------------------------------------------------------------ worked example

@dataclass(frozen=True)
class ExampleClause:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        tail = "OK" if self.ok else "FAILED"
        return f"clause ({self.name}): {self.detail} {tail}"


@dataclass
class ExampleReport:
    clauses: tuple[ExampleClause, ...]

    @property
    def passed(self) -> bool:
        return all(cl.ok for cl in self.clauses)

    def text_lines(self) -> list[str]:
        return [cl.line() for cl in self.clauses] + [
            "example: OK" if self.passed else "example: FAILED"
        ]


def _push_clause(clauses: list, name: str, ok: bool, detail: str) -> None:
    clauses.append(ExampleClause(name, ok, detail))
    if not ok:
        raise InvariantViolation(f"clause ({name}) failed: {detail}")


def verify_example_d4tilde() -> ExampleReport:
    """Regression gate for the affine D4 quasi-Coxeter example.

    In affine D4 with central node 3, the element v = s4 s3 s4 s5 s3 s2
    of the spherical parabolic W' = <s2..s5> has reflection length 4,
    some shortest reflection factorization of it generates all of W'
    while no W'-conjugate of v is a standard Coxeter element of W', and
    s5 s4 centralizes both v and w = v s1 without being a power of
    either. Each clause is checked exactly and a failure aborts.
    """
    sys_ = corpus_mod.load("d4t")
    wp = (2, 3, 4, 5)
    clauses: list[ExampleClause] = []

    sub = group_mod.enumerate_group(sys_, gens=wp)
    order_wp = len(sub)
    _push_clause(clauses, "a", order_wp == 192, f"|W'|={order_wp}")

    v = group_mod.from_word(sys_, (4, 3, 4, 5, 3, 2))
    lt = refl_mod.reflection_length(sys_, v, gens=wp)
    facts = refl_mod.reduced_factorizations(sys_, v, gens=wp)
    quasi = any(
        len(refl_mod.generated_group(f, sys_=sys_)) == order_wp for f in facts
    )
    cox_keys = {
        group_mod.from_word(sys_, p).key for p in itertools.permutations(wp)
    }
    is_cox = any(
        group_mod.multiply(group_mod.multiply(x, v), group_mod.inverse(x)).key
        in cox_keys
        for x in sub.elements()
    )
    _push_clause(
        clauses,
        "b",
        lt == 4 and quasi and not is_cox,
        f"l_T(v)={lt} quasi-coxeter={quasi} coxeter={is_cox}",
    )

    u = group_mod.from_word(sys_, (5, 4))
    v_order = group_mod.order_upto(v, order_wp)
    if v_order is None:
        raise InvariantViolation("order of v not found inside W'")
    vpowers = group_mod.power_window(v, v_order - 1, signed=False)
    _push_clause(
        clauses,
        "c",
        commutes(u, v) and u.key not in vpowers,
        f"s5s4 centralizes v, order(v)={v_order}, s5s4 outside <v>",
    )

    w = group_mod.multiply(v, group_mod.generator(sys_, 1))
    in_cyclic_w = u.key in group_mod.power_window(w, 24)
    _push_clause(
        clauses,
        "d",
        commutes(u, w) and not in_cyclic_w,
        "s5s4 centralizes w=v*s1 and is no power of w up to exponent 24",
    )

    probe = parabolic_mod.essentiality_refute(sys_, u, radius=0)
    _push_clause(
        clauses,
        "e",
        probe.refuted and probe.support == frozenset({4, 5}),
        f"s5s4 supported on {parabolic_mod.subset_str(probe.support or ())}",
    )
    return ExampleReport(tuple(clauses))


# ------------------------------------------------- straightness and outwardness

def verify_speyer(
    sys_: CoxeterSystem,
    perm: Sequence[int] | None = None,
    max_power: int = 10,
) -> bool:
    """Double-certified straightness of a standard Coxeter element.

    Checks l(c^m) = m * l(c) for 1 <= m <= max_power twice over:
    through the canonical reduced word and through the cardinality of
    the inversion set.
    """
    if diagram_mod.classify(sys_) == "finite":
        raise ValueError("straightness certification targets infinite systems")
    _require_irreducible(sys_)
    c = group_mod.coxeter_element(sys_, perm)
    n = group_mod.length_and_reduced(c)[0]
    p = group_mod.identity(sys_)
    for m in range(1, max_power + 1):
        p = group_mod.multiply(p, c)
        if group_mod.length_and_reduced(p)[0] != m * n:
            return False
        if len(roots_mod.inversion_set(p)) != m * n:
            return False
    return True


def verify_outward(
    sys_: CoxeterSystem,
    perm: Sequence[int] | None = None,
    max_power: int = 10,
    orbit_bound: int = 10,
) -> bool:
    """Certified outward orbit representatives for a Coxeter element."""
    if diagram_mod.classify(sys_) == "finite":
        raise ValueError("outwardness certification targets infinite systems")
    _require_irreducible(sys_)
    c = group_mod.coxeter_element(sys_, perm)
    reps = roots_mod.outward_representatives(
        c, max_power=max_power, orbit_bound=orbit_bound
    )
    return len(reps) == sys_.rank
