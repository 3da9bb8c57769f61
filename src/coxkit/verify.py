"""Theorem-level verification harness.

Target statement: the centralizer of a standard Coxeter element c is
the cyclic group generated by c. Finite irreducible groups are settled
exactly, over the whole group. Infinite ones get a bounded certificate:
a sweep of a Cayley ball that either confirms every centralizing element
in range is a power of c, or surfaces the offender. Bounded sweeps are
inconclusive beyond their radius by design and the reports say so.

The finite certificate is a join. Take J = S minus the generator whose
parabolic W_J has the most reflections. Every g is u d for exactly one u
in W_J and one minimal coset representative d in JW (no left descent in
J), with l(g) = l(u) + l(d), and u d commutes with c exactly when
u^-1 c u = d c d^-1. So one walk, restricted to J, carries the packed
key of u^-1 c u one generator at a time and hashes it by its packed
row rho^T(u^-1 c u), rho the sum of the dual basis; a second,
group.walk pruned by Deodhar's test, walks JW carrying the packed key
of d^-1 and looks up the row ((rho^T d) c) d^-1 of d c d^-1, times c
through the row operator of c, its packed theta'-table, built once
per sweep. That is |W_J| + |JW| elements (120 + 120 for H4) instead of
|W| (14,400), and the group's order is |W_J| |JW|. The row determines
the element (group._Lanes.row), so every hit is a match; each forms
g = u d, the one product per match, and is confirmed by commutes.

An affine group runs the same join inside the ball of radius R: every
proper parabolic of an irreducible affine group is finite, the table
holds the u in W_J with l(u) <= R, the stream walks JW within the
ball, and a match counts when l(u) + l(d) <= R. The ball has
sum over d of #{u : l(u) <= R - l(d)} elements, read off the two walks.

Any other infinite group meets in the middle. Split a reduced word of
g in C(c), l(g) <= R, in half: g = x z^-1 with l(x) = floor(l(g)/2) and
l(z) = ceil(l(g)/2), so both lie in the ball B_h, h = ceil(R/2), and
x^-1 c x = z^-1 c z. One walk of B_h carries the packed keys of
z^-1 c z and z^-1 and buckets by the first; the pairs of a bucket with
l(z) - l(x) in {0, 1} and l(x) + l(z) <= R give every g in C(c) within
the ball but the identity, each x z^-1 formed by left steps from the
carried z^-1 along the word of x, confirmed by commutes. The ball's
size comes from Steinberg's growth series (group.growth_series). The
join holds W_J within the ball, the meet B_h and its pairs, never the
ball; the cap, group.DEFAULT_BALL_CAP elements, bounds each walk and
the pairs, and running out raises ResourceLimitError naming the stage,
the depth and the count. A packed value that outgrows its lanes, a
key a walk steps, one it carries or a row the certificate forms,
reruns the certificate with wider ones (group._widening); a product
widens its own. The report records
the method and the number of elements held, and prints neither.

The certificates only find: each returns the commuting elements,
carrying their canonical reduced words, in no order. The entry points
order the report once (_ball_sorted), into the ball's order, by length
and then by lexicographically least reduced word, the canonical word
of g^-1 reversed; g^-1 is among the elements found. Its key is read
off the power window the entry point built for the k of each line;
only an element that is no power in the window, which only a
counterexample is, has its inverse computed.

Commutation compares the packed products ab and ba (commutes), both
from group._Lanes.multiply, the one product kernel. That kernel reads
neither the step rules nor the row kernels that find the elements, so
the check does not lean on the search it confirms; it
shares only packing, the overflow check and theta' with the join's
stream. Like every product it is a run of its own that widens its
lanes until its values fit, so it never ends a certificate.

Report text is deterministic: timings live on the report records but
are never printed. Machine lines use the format

    g=<word> k=<int> status=<ok|not-power>

where k is the exponent with g = c^k when status is ok, and 0 as a
placeholder otherwise (the status field disambiguates the identity).
"""

from __future__ import annotations

import functools
import itertools
import time
from collections.abc import Iterator, Sequence
from math import ceil

from . import corpus as corpus_mod
from . import diagram as diagram_mod
from . import group as group_mod
from . import parabolic as parabolic_mod
from . import refl as refl_mod
from . import roots as roots_mod
from .diagram import CoxeterSystem
from .errors import InvariantViolation, ResourceLimitError
from .group import GroupElement
from .record import Record

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
    """Whether ab = ba: the packed products ab and ba (group._Lanes.multiply)
    compared as ints, in one run of their own (group._paired) that widens
    its lanes until both fit."""
    if a.system is not b.system and a.system != b.system:
        raise ValueError("elements of different systems cannot be compared")
    return group_mod._paired(a, b, _commute)[1]


def _commute(lanes, x: int, y: int) -> bool:
    return lanes.multiply(x, y) == lanes.multiply(y, x)


# ------------------------------------------------------------------- reports

class CentralizerEntry(Record, frozen=True):
    word: str
    k: int
    status: str
    element: GroupElement

    def machine_line(self) -> str:
        return f"g={self.word} k={self.k} status={self.status}"


class CentralizerReport(Record):
    """A centralizer certificate. method is "join" or "meet" and held the
    peak number of elements it held; like elapsed, neither is printed."""

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
    method: str | None = None
    held: int | None = None

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


def _require(sys_: CoxeterSystem, finite: bool, message: str) -> None:
    """Entry gate: sys_ is irreducible and finite exactly when finite is
    True; message is the error for the wrong kind. Finiteness is read
    off the diagram's types, with no elimination of the Gram matrix."""
    if diagram_mod.is_spherical(sys_, None) != finite:
        raise ValueError(message)
    if not diagram_mod.is_irreducible(sys_):
        raise ValueError("the statement concerns irreducible systems")


# ------------------------------------------------------------- finite sweep

def verify_finite(sys_: CoxeterSystem, perm: Sequence[int] | None = None) -> CentralizerReport:
    """Exact centralizer check in a finite irreducible group, over the
    whole group, by the join of _join; mode finite-exhaustive."""
    t0 = time.perf_counter()
    _require(sys_, True, "exhaustive verification needs a finite system")
    c = group_mod.coxeter_element(sys_, perm)
    size, found, held = group_mod._widening(_join, sys_, c, _join_parabolic(sys_))
    powers = group_mod.power_window(c, size, signed=False)
    order = len(powers)
    if order > size:
        raise InvariantViolation("coxeter element order exceeds the group size")
    entries = _centralizer_entries(_ball_sorted(found, powers), powers)
    consistent = (
        all(e.status == "ok" for e in entries) and len(entries) == order
    )
    return CentralizerReport(
        mode="finite-exhaustive",
        coxeter_word=group_mod.word_str(c.word),
        entries=tuple(entries),
        theorem_consistent=consistent,
        group_size=size,
        coxeter_order=order,
        elapsed=time.perf_counter() - t0,
        method="join",
        held=held,
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
    straight c can never produce a spurious out-of-window power. The
    window holds only the powers up to that exponent: c is straight
    (Speyer, Powers of Coxeter elements in infinite groups are reduced),
    so l(c^k) = |k| l(c) and no further power lies in the ball, and a
    larger P changes only the bound the report prints. An affine group
    runs the join of _join, every other the meet of _meet.
    """
    t0 = time.perf_counter()
    _require(sys_, False, "ball verification targets infinite systems")
    if radius is None:
        radius = default_radius(sys_.rank)
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if power_bound is not None and power_bound < 1:
        raise ValueError("power bound must be at least 1")
    c = group_mod.coxeter_element(sys_, perm)
    # l(c) = len(c.word): a word with no repeated letter is reduced, as
    # deleting s_i would put s_i in W_{S-{s_i}} (Humphreys 5.5)
    bound = ceil(radius / len(c.word)) + 1
    powers = group_mod.power_window(c, bound)
    if power_bound is not None:
        bound = max(power_bound, bound)
    if diagram_mod.classify(sys_) == "affine":
        method, certify, args = "join", _join, (c, _join_parabolic(sys_), radius)
    else:
        method, certify, args = "meet", _meet, (c, radius)
    size, found, held = group_mod._widening(certify, sys_, *args)
    entries = _centralizer_entries(_ball_sorted(found, powers), powers)
    consistent = all(e.status == "ok" for e in entries)
    return CentralizerReport(
        mode="ball",
        coxeter_word=group_mod.word_str(c.word),
        entries=tuple(entries),
        theorem_consistent=consistent,
        radius=radius,
        power_bound=bound,
        ball_size=size,
        elapsed=time.perf_counter() - t0,
        method=method,
        held=held,
    )


# ------------------------------------------------------- the join, the meet

def _join_parabolic(sys_: CoxeterSystem) -> tuple[int, ...]:
    """The J of the join: S minus one generator, the one whose parabolic
    W_J has the most reflections (the first on a tie). Every such W_J
    is finite in a finite or an affine irreducible group."""
    gens = range(1, sys_.rank + 1)
    return max(
        (tuple(t for t in gens if t != s) for s in gens),
        key=lambda j: len(group_mod._longest(sys_, j).word),
    )


def _staged(elements: Iterator, stage: str) -> Iterator:
    """What a walk yields; the cap it may run into names the stage."""
    try:
        yield from elements
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"{exc} in {stage}") from None


def _join(
    sys_: CoxeterSystem, c: GroupElement, j: tuple[int, ...], radius: int | None = None
) -> tuple[int, list[GroupElement], int]:
    """The centralizer of c by the join over W = W_J . JW (Humphreys,
    Reflection Groups and Coxeter Groups, 1.10): in the whole of a
    finite group when radius is None, else in the ball of the radius
    of a group whose W_J is finite, an affine one. The size is
    |W_J| |JW|, or in the ball the sum over d in JW of the number of u
    in W_J with l(u) <= radius - l(d), as l(u d) = l(u) + l(d).
    Returns (size, found, held): the size, the commuting elements,
    carrying their canonical words, in no particular order, and the
    peak number of elements held; _meet returns the same triple.

    The table side walks W_J, within the ball, carrying the packed key
    of u^-1 c u (_Lanes.conjugate_step from c), and hashes each u by
    the packed row rho^T(u^-1 c u) (_Lanes.row). The streamed side walks
    JW, within the ball, carrying the packed key of d^-1
    (_Lanes.left_step from e), and looks up the row ((rho^T d) c) d^-1
    (_Lanes.row_mul): times c through the row operator of c, its packed
    theta'-table, built once per sweep, then times the carried d^-1.
    The row determines the element, so every u a hit finds with
    l(u) + l(d) <= radius forms g = u d and calls commutes. The table
    is what is held; each walk is capped on its own. Every packed value
    the join makes comes from one packer, so a trip of its overflow
    check reruns the whole join (group._widening, in the entry points).
    """
    lanes = group_mod._packer(sys_)
    table: dict = {}
    lengths: list[int] = []
    walked = group_mod.walk(sys_, radius, gens=j, carry=(lanes.of(c), lanes.conjugate_step))
    for u, conj in _staged(walked, "the walk of W_J"):
        depth = len(u.word)
        if depth == len(lengths):
            lengths.append(0)
        lengths[depth] += 1
        table.setdefault(lanes.row(conj), []).append(u)
    # within[k]: the number of u with l(u) <= k
    within = list(itertools.accumulate(lengths))
    size, found = 0, []
    # the row operator of c: its theta'-table, packed
    times_c = lanes.thetas(lanes.of(c))
    walked = group_mod.walk(sys_, radius, coset=j, carry=(lanes.one, lanes.left_step))
    for d, dinv in _staged(walked, "the walk of the minimal coset representatives"):
        depth = len(d.word)
        size += within[-1] if radius is None else within[min(radius - depth, len(within) - 1)]
        row = lanes.row_mul(lanes.row(d._packed), times_c)
        for u in table.get(lanes.row_mul(row, lanes.thetas(dinv)), ()):
            if radius is not None and len(u.word) + depth > radius:
                continue
            g = group_mod.multiply(u, d)
            if not commutes(g, c):
                raise InvariantViolation(
                    f"joined element {group_mod.word_str(g.word)} does not commute with c"
                )
            found.append(group_mod.canonical(g))
    return size, found, within[-1]


def _meet(sys_: CoxeterSystem, c: GroupElement, radius: int) -> tuple[int, list[GroupElement], int]:
    """The centralizer of c in the ball of the radius, meeting in the
    middle: g = x z^-1 commutes with c exactly when x^-1 c x = z^-1 c z.

    Split a reduced word of g in C(c), of length L <= radius, after its
    first floor(L/2) letters: g = x z^-1 with l(x) = floor(L/2) and
    l(z) = ceil(L/2) <= h = ceil(radius/2). So the walk of the ball B_h,
    carrying the pair of packed keys of z^-1 c z and z^-1 (one
    _Lanes.conjugate_step and one _Lanes.left_step per element) and
    bucketing by the packed z^-1 c z, finds every g but the identity
    among the pairs (x, z)
    of a bucket with x != z, l(z) - l(x) in {0, 1} and
    l(x) + l(z) <= radius, and l(g) <= l(x) + l(z). The split is reduced,
    so x and z have no right descent in common: the pairs whose
    canonical words end in the same letter are skipped. Each product
    x z^-1 is the carried z^-1 after one _Lanes.left_step per letter of
    x, at most h of them, kept once, by key, and confirmed by commutes;
    the commuting elements come back as _join returns them. The size is
    the sum of group.growth_series. What is held, B_h and the pairs, is
    capped together.
    """
    half = -(-radius // 2)
    buckets: dict = {}
    lanes = group_mod._packer(sys_)

    def step(pair, s):
        conj, zinv = pair
        return lanes.conjugate_step(conj, s), lanes.left_step(zinv, s)

    e = group_mod.identity(sys_)
    walked = group_mod.walk(sys_, half, carry=((lanes.of(c), lanes.one), step))
    for z, (conj, zinv) in _staged(walked, "the walk of the half ball"):
        buckets.setdefault(conj, []).append((z, zinv))
    cap = group_mod.DEFAULT_BALL_CAP
    held = sum(map(len, buckets.values()))
    # the identity, the one element no pair gives
    products = {e.key: e}
    for bucket in buckets.values():
        for x, _ in bucket if len(bucket) > 1 else ():
            for z, zinv in bucket:
                lx, lz = len(x.word), len(z.word)
                if z is x or not 0 <= lz - lx <= 1 or lx + lz > radius:
                    continue
                if x.word[-1:] == z.word[-1:]:
                    continue
                if held >= cap:
                    raise ResourceLimitError(
                        f"the meet exceeded the cap of {cap} elements"
                        f" (reached depth {half} after {held} elements)"
                        " in the pairs of the half ball"
                    )
                held += 1
                # x z^-1 = s_1 ... s_m z^-1 for x = s_1 ... s_m
                g = GroupElement(sys_, functools.reduce(lanes.left_step, reversed(x.word), zinv),
                                 x.word + z.word[::-1], lanes)
                products.setdefault(g.key, g)
    found = []
    for g in products.values():
        g = group_mod.canonical(g)
        if len(g.word) > radius or not commutes(g, c):
            raise InvariantViolation(
                f"met element {group_mod.word_str(g.word)} is not in the centralizer"
                " within the ball"
            )
        found.append(g)
    return sum(group_mod.growth_series(sys_, radius)), found, held


def _ball_sorted(found: list[GroupElement], powers: dict) -> list[GroupElement]:
    """Elements carrying their canonical words, sorted into the order of
    the BFS ball: by length, then by lexicographically least reduced
    word. That word strips the least left descent first: it is the
    canonical word of g^-1, reversed, and g^-1 is among the elements
    found, as the centralizer and the ball are both closed under
    inverses.

    powers is the window the entry point built (group.power_window),
    signed, or unsigned and closed at the identity, so that it holds
    all of <c>: the inverse of c^k is c^-k, or c^(h-k) with h the number
    of powers in the window. Only an element that is no power in the
    window, or whose inverse is not, has its inverse computed
    (group.inverse)."""
    words = {g.key: g.word for g in found}
    exponents = {hit[0]: key for key, hit in powers.items()}

    def order(g):
        hit = powers.get(g.key)
        inv = None if hit is None else exponents.get(-hit[0], exponents.get(len(powers) - hit[0]))
        word = words.get(group_mod.inverse(g).key if inv is None else inv)
        if word is None:
            raise InvariantViolation("the centralizing elements are not closed under inverses")
        return len(word), word[::-1]

    return sorted(found, key=order)


def _centralizer_entries(found: list[GroupElement], powers: dict) -> list[CentralizerEntry]:
    """One entry per commuting element, matched against a power window;
    each walked element carries its canonical reduced word."""
    entries = []
    for g in found:
        hit = powers.get(g.key)
        word = group_mod.word_str(g.word)
        if hit is None:
            entries.append(CentralizerEntry(word, 0, "not-power", g))
        else:
            entries.append(CentralizerEntry(word, hit[0], "ok", g))
    return entries


# ---------------------------------------------------------------- beta trace

class BetaTraceEntry(Record, frozen=True):
    index: int
    m: int | None
    j: int | None

    def line(self) -> str:
        if self.m is None:
            return f"beta_{self.index}: not-found-in-window"
        return f"beta_{self.index}: m={self.m} j={self.j}"


class BetaTrace(Record):
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
    if g.system != c.system:
        raise ValueError("elements live in different systems")
    if window < 0:
        raise ValueError("window must be at least 0")
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
    # the first (m, j) in the window's order for each root c^m beta_j
    hits: dict[tuple, tuple[int, int]] = {}
    for m, wm in group_mod.power_window(c, window).values():
        for j, rep in enumerate(reps, start=1):
            hits.setdefault(roots_mod.act(wm, rep).key, (m, j))
    entries = [
        BetaTraceEntry(i, *hits.get(roots_mod.act(g, beta).key, (None, None)))
        for i, beta in enumerate(reps, start=1)
    ]
    complete = all(e.m is not None for e in entries)
    ms = {e.m for e in entries}
    constant = entries[0].m if entries and complete and len(ms) == 1 else None
    return BetaTrace(tuple(entries), window, complete, constant)


# ------------------------------------------------------------ worked example

class ExampleClause(Record, frozen=True):
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        tail = "OK" if self.ok else "FAILED"
        return f"clause ({self.name}): {self.detail} {tail}"


class ExampleReport(Record):
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

    # one walk of W' gives its order and the conjugates u^-1 v u
    v = group_mod.from_word(sys_, (4, 3, 4, 5, 3, 2))

    conjugates = [key for _, key in group_mod._carried_keys(sys_, wp, v.key, "conjugate")]
    order_wp = len(conjugates)
    _push_clause(clauses, "a", order_wp == 192, f"|W'|={order_wp}")

    lt = refl_mod.reflection_length(sys_, v, gens=wp)
    facts = refl_mod.reduced_factorizations(sys_, v, gens=wp)
    quasi = any(
        len(refl_mod.generated_group(f, sys_=sys_)) == order_wp for f in facts
    )
    cox_keys = {
        group_mod.from_word(sys_, p).key for p in itertools.permutations(wp)
    }
    is_cox = not cox_keys.isdisjoint(conjugates)
    _push_clause(
        clauses,
        "b",
        lt == 4 and quasi and not is_cox,
        f"l_T(v)={lt} quasi-coxeter={quasi} coxeter={is_cox}",
    )

    u = group_mod.from_word(sys_, (5, 4))
    vpowers = group_mod.power_window(v, order_wp, signed=False)
    v_order = len(vpowers)
    if v_order > order_wp:
        raise InvariantViolation("order of v not found inside W'")
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
    _require(sys_, False, "straightness certification targets infinite systems")
    if max_power < 1:
        raise ValueError("power bound must be at least 1")
    c = group_mod.coxeter_element(sys_, perm)
    n = len(c.word)  # reduced, as in verify_ball; m = 1 checks it again
    p = group_mod.identity(sys_)
    for m in range(1, max_power + 1):
        p = group_mod.multiply(c, p)
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
    _require(sys_, False, "outwardness certification targets infinite systems")
    if orbit_bound < 1:
        raise ValueError("orbit bound must be at least 1")
    c = group_mod.coxeter_element(sys_, perm)
    reps = roots_mod.outward_representatives(
        c, max_power=max_power, orbit_bound=orbit_bound
    )
    return len(reps) == sys_.rank
