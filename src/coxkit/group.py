"""Group elements as exact matrices in the natural reflection representation.

The generator s acts on the root-space basis by
    sigma_s(v) = v - 2 B(e_s, v) e_s,
and the representation is faithful, so equality of matrices is equality
of group elements. Matrices are stored column-major: cols[j] is the
coordinate vector of the image of e_{j+1}. Every element carries a
witness word evaluating to its matrix; words from balls and from
length_and_reduced are reduced, words of products are concatenations.

A root is a column: cols[j] is the root w(e_{j+1}), so the root layer
reads roots off these matrices and unit vectors off identity(), instead
of building either by hand. A root's coordinates are all >= 0 or all
<= 0, so its sign is the sign of its first nonzero coordinate
(_root_sign; Humphreys, Reflection Groups and Coxeter Groups, 5.4).

Lengths come from the greedy descent walk: s is a right descent of w
exactly when w maps e_s to a negative root, and stripping descents
lowers the length by one each time, so the walk both measures the
length and emits a canonical reduced word (least descent first).

Every breadth-first search in the package runs through closure(): balls
and whole-group enumerations here, and Hurwitz orbits, subgroup
closures, root orbits and the conjugacy-graph spanning tree elsewhere.
It dedups by key, checks the cap before each insert and records one
parent link per member, so callers derive distances and tree paths from
the links instead of running their own loop. Reflection length needs no
search: it is the rank of w - 1 (Carter), which refl reads off the
matrix. Derived values are cached per system through CoxeterSystem.memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from operator import attrgetter
from typing import Callable, Hashable, Iterable, Sequence

from .diagram import CoxeterSystem
from .errors import InvariantViolation, ResourceLimitError
from .field import FieldElement

__all__ = [
    "Ball",
    "GroupElement",
    "apply",
    "ball",
    "canonical",
    "closure",
    "coxeter_element",
    "enumerate_group",
    "from_word",
    "generator",
    "identity",
    "inverse",
    "is_straight_upto",
    "length_and_reduced",
    "multiply",
    "order_upto",
    "parse_word",
    "power",
    "power_window",
    "word_str",
]

DEFAULT_BALL_CAP = 5_000_000

Key = tuple
Vector = tuple[FieldElement, ...]


class GroupElement:
    """An exact matrix plus a witness word that evaluates to it."""

    __slots__ = ("system", "cols", "word", "key")

    def __init__(self, system: CoxeterSystem, cols: tuple[Vector, ...], word: tuple[int, ...]) -> None:
        self.system = system
        self.cols = cols
        self.word = word
        self.key = tuple((e.num, e.den) for col in cols for e in col)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.system == other.system and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __mul__(self, other) -> "GroupElement":
        return multiply(self, other)

    def is_identity(self) -> bool:
        return self.key == identity(self.system).key

    def __repr__(self) -> str:
        return f"<element {word_str(self.word)} of rank-{self.system.rank} system>"


# ----------------------------------------------------------- word formatting

def word_str(word: Sequence[int]) -> str:
    """Space-separated 1-based generator indices; the identity is "e"."""
    return " ".join(str(s) for s in word) if word else "e"


def parse_word(text: str, rank: int) -> tuple[int, ...]:
    text = text.strip()
    if text == "e" or not text:
        return ()
    out = []
    for token in text.split():
        try:
            s = int(token)
        except ValueError:
            raise ValueError(f"bad generator index {token!r}") from None
        if not (1 <= s <= rank):
            raise ValueError(f"generator index {s} out of range 1..{rank}")
        out.append(s)
    return tuple(out)


# ------------------------------------------------------------- constructions

def identity(sys_: CoxeterSystem) -> GroupElement:
    return sys_.memo("identity", lambda: _identity(sys_))


def _identity(sys_: CoxeterSystem) -> GroupElement:
    f = sys_.field
    n = sys_.rank
    cols = tuple(tuple(f.one if i == j else f.zero for i in range(n)) for j in range(n))
    return GroupElement(sys_, cols, ())


def _two_b(sys_: CoxeterSystem) -> list[list[tuple[int, FieldElement]]]:
    """Sparse rows of 2*B: for each s, the pairs (j, 2*B(e_s,e_j)) with j != s nonzero."""
    return sys_.memo("two_b", lambda: [
        [(j, b * 2) for j, b in enumerate(row) if j != s and not b.is_zero()]
        for s, row in enumerate(sys_.gram)
    ])


def generator(sys_: CoxeterSystem, s: int) -> GroupElement:
    """The simple reflection sigma_s, 1-based."""
    if not (1 <= s <= sys_.rank):
        raise ValueError(f"generator index {s} out of range 1..{sys_.rank}")
    gens = sys_.memo("generators", lambda: [
        _right_mul_gen(identity(sys_), t) for t in range(1, sys_.rank + 1)
    ])
    return gens[s - 1]


def _right_mul_gen(w: GroupElement, s: int) -> GroupElement:
    """w * sigma_s via column operations, O(rank^2) field multiplications."""
    sys_ = w.system
    s0 = s - 1
    cols = list(w.cols)
    col_s = cols[s0]
    for j, coeff in _two_b(sys_)[s0]:
        cols[j] = tuple(a - coeff * b for a, b in zip(cols[j], col_s))
    cols[s0] = tuple(-a for a in col_s)
    return GroupElement(sys_, tuple(cols), w.word + (s,))


def from_word(sys_: CoxeterSystem, word: Iterable[int]) -> GroupElement:
    w = identity(sys_)
    for s in word:
        if not (1 <= s <= sys_.rank):
            raise ValueError(f"generator index {s} out of range 1..{sys_.rank}")
        w = _right_mul_gen(w, s)
    return w


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """The product a*b: column j is a applied to column j of b."""
    if a.system != b.system:
        raise ValueError("elements of different systems cannot be multiplied")
    return GroupElement(a.system, tuple(apply(a, bcol) for bcol in b.cols), a.word + b.word)


def inverse(w: GroupElement) -> GroupElement:
    """The inverse, built from the reversed witness word."""
    out = identity(w.system)
    for s in reversed(w.word):
        out = _right_mul_gen(out, s)
    return out


def power(w: GroupElement, k: int) -> GroupElement:
    base = w if k >= 0 else inverse(w)
    out = identity(w.system)
    for _ in range(abs(k)):
        out = multiply(out, base)
    return out


def apply(w: GroupElement, coords: Sequence[FieldElement]) -> Vector:
    """Image of a coordinate vector under the matrix of w."""
    acc = None
    for coeff, col in zip(coords, w.cols):
        if coeff.is_zero():
            continue
        term = tuple(coeff * x for x in col)
        acc = term if acc is None else tuple(p + q for p, q in zip(acc, term))
    return acc if acc is not None else tuple(w.system.field.zero for _ in coords)


def coxeter_element(sys_: CoxeterSystem, perm: Sequence[int] | None = None) -> GroupElement:
    """Product of all generators, once each, in the given order."""
    if perm is None:
        perm = tuple(range(1, sys_.rank + 1))
    if sorted(perm) != list(range(1, sys_.rank + 1)):
        raise ValueError(f"{perm!r} is not an ordering of 1..{sys_.rank}")
    return from_word(sys_, perm)


# ------------------------------------------------------------ length, descent

def _root_sign(col: Sequence[FieldElement]) -> int:
    """Sign of a root: the sign of its first nonzero coordinate.

    A root has all coordinates >= 0 or all <= 0, so the first nonzero one
    decides; callers that must reject non-roots use roots.make_root.
    """
    for e in col:
        if not e.is_zero():
            return e.sign()
    return 0


def _descent(w: GroupElement) -> int | None:
    """Least right descent of w, or None for the identity.

    s is a right descent exactly when column s, the root w(e_s), is negative.
    """
    for s0, col in enumerate(w.cols):
        if _root_sign(col) < 0:
            return s0 + 1
    return None


def length_and_reduced(w: GroupElement) -> tuple[int, tuple[int, ...]]:
    """Length of w and its canonical reduced word (greedy least descent).

    Works from the matrix alone, so any witness word, reduced or not,
    gives the same answer.
    """
    letters: list[int] = []
    cur = w
    idkey = identity(w.system).key
    max_iter = len(w.word) if w.word else 100_000
    while cur.key != idkey:
        s = _descent(cur)
        if s is None:
            raise InvariantViolation("non-identity element with no descent")
        letters.append(s)
        cur = _right_mul_gen(cur, s)
        if len(letters) > max_iter:
            raise InvariantViolation("descent walk did not terminate within its bound")
    return len(letters), tuple(reversed(letters))


def canonical(w: GroupElement) -> GroupElement:
    """The same element carrying its canonical reduced word."""
    _, word = length_and_reduced(w)
    return GroupElement(w.system, w.cols, word)


# ---------------------------------------------------------- the closure engine

def closure(
    seeds: Iterable,
    step: Callable[[object], Iterable[tuple[object, object]]],
    cap: int,
    radius: int | None = None,
    key: Callable[[object], Hashable] = attrgetter("key"),
    overflow: str = "closure exceeded the cap of {cap}",
) -> tuple[dict, dict, bool]:
    """Breadth-first closure of seeds under step, layer by layer.

    step(x) yields (label, y) pairs; y joins unless its key(y) is already
    a member. Returns (members, parent, complete): members maps each key
    to its item in insertion order (seeds first, then BFS layers);
    parent maps each key to (parent key, label), None at a seed;
    complete is True when the last expanded layer added nothing, so the
    members are closed under step. radius None expands until then.
    Inserting past cap members raises ResourceLimitError with overflow
    formatted by cap.
    """
    members: dict = {}
    parent: dict = {}
    for x in seeds:
        k = key(x)
        if k not in members:
            members[k] = x
            parent[k] = None
    frontier = list(members.values())
    depth = 0
    while frontier and (radius is None or depth < radius):
        depth += 1
        nxt = []
        for x in frontier:
            xk = key(x)
            for label, y in step(x):
                k = key(y)
                if k in members:
                    continue
                if len(members) >= cap:
                    raise ResourceLimitError(overflow.format(cap=cap))
                members[k] = y
                parent[k] = (xk, label)
                nxt.append(y)
        frontier = nxt
    return members, parent, not frontier


# ------------------------------------------------------------------- the ball

@dataclass
class Ball:
    """All elements of length <= radius, BFS order, reduced witness words.

    members maps the matrix key to the element; parent maps each key to
    (parent key, letter) along the BFS tree, None at the identity. When
    complete is True the BFS closed before exhausting the radius, so the
    members are the whole group generated by gens.
    """

    system: CoxeterSystem
    radius: int | None
    gens: tuple[int, ...]
    members: dict = dfield(repr=False)
    parent: dict = dfield(repr=False)
    complete: bool = False

    def elements(self) -> list[GroupElement]:
        return list(self.members.values())

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, w: GroupElement) -> bool:
        return w.key in self.members


def _bfs(
    sys_: CoxeterSystem,
    gens: tuple[int, ...],
    radius: int | None,
    cap: int,
) -> Ball:
    members, parent, complete = closure(
        [identity(sys_)],
        lambda w: ((s, _right_mul_gen(w, s)) for s in gens),
        cap,
        radius=radius,
        overflow="ball enumeration exceeded the cap of {cap} elements",
    )
    return Ball(sys_, radius, gens, members, parent, complete)


def _norm_gens(sys_: CoxeterSystem, gens: Iterable[int] | None) -> tuple[int, ...]:
    if gens is None:
        return tuple(range(1, sys_.rank + 1))
    out = tuple(gens)
    for s in out:
        if not (1 <= s <= sys_.rank):
            raise ValueError(f"generator index {s} out of range 1..{sys_.rank}")
    return out


def _cached_ball(sys_: CoxeterSystem, gens: Iterable[int] | None, radius: int | None, cap: int) -> Ball:
    """The memoized BFS ball; radius None is the whole group, keyed as "enum"."""
    gens_t = _norm_gens(sys_, gens)
    key = ("enum", gens_t, cap) if radius is None else ("ball", gens_t, radius, cap)
    return sys_.memo(key, lambda: _bfs(sys_, gens_t, radius, cap))


def ball(
    sys_: CoxeterSystem,
    radius: int,
    gens: Iterable[int] | None = None,
    cap: int = DEFAULT_BALL_CAP,
) -> Ball:
    """Ball of the given radius in the Cayley graph on the chosen generators."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return _cached_ball(sys_, gens, radius, cap)


def enumerate_group(
    sys_: CoxeterSystem,
    gens: Iterable[int] | None = None,
    cap: int = DEFAULT_BALL_CAP,
) -> Ball:
    """Complete enumeration of the (finite) group generated by gens.

    Runs the ball BFS with no radius bound; an infinite group hits the
    cap and raises ResourceLimitError.
    """
    return _cached_ball(sys_, gens, None, cap)


# ------------------------------------------------------------- power probes

def is_straight_upto(w: GroupElement, max_power: int) -> bool:
    """Whether l(w^m) = m * l(w) holds for m = 1..max_power."""
    if max_power < 1:
        raise ValueError("power bound must be at least 1")
    l1 = length_and_reduced(w)[0]
    p = w
    for m in range(1, max_power + 1):
        if m > 1:
            p = multiply(p, w)
        if length_and_reduced(p)[0] != m * l1:
            return False
    return True


def power_window(w: GroupElement, bound: int, signed: bool = True) -> dict:
    """The powers w^k with |k| <= bound, keyed by matrix.

    Exponents are taken in the order 0, 1, -1, 2, -2, ..., or 0, 1, 2,
    ... without signed; each key maps to (k, w^k) for the first k that
    reaches it, and the dict keeps that order.
    """
    fwd = bwd = identity(w.system)
    table = {fwd.key: (0, fwd)}
    winv = inverse(w) if signed else None
    for k in range(1, bound + 1):
        fwd = multiply(fwd, w)
        table.setdefault(fwd.key, (k, fwd))
        if signed:
            bwd = multiply(bwd, winv)
            table.setdefault(bwd.key, (-k, bwd))
    return table


def order_upto(w: GroupElement, max_power: int) -> int | None:
    """The order of w if it is at most max_power, else None."""
    p = w
    for k in range(1, max_power + 1):
        if p.is_identity():
            return k
        p = multiply(p, w)
    return None
