"""Reflections, absolute (reflection) length, and the Hurwitz action.

The reflections of a finite standard parabolic are enumerated through
its positive roots; infinite scopes only ever yield a ball-truncated
approximation, and every function here keeps that distinction explicit.
Reduced reflection factorizations are searched with a distance table
over the parabolic, and the Hurwitz action rewires a factorization by

    (..., t_i, t_{i+1}, ...)  ->  (..., t_i t_{i+1} t_i, t_i, ...)

(the forward move at slot i; backward is its inverse), which preserves
both the product and the multiset of conjugacy classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import diagram as diagram_mod
from . import group as group_mod
from . import roots as roots_mod
from .diagram import CoxeterSystem
from .errors import InvariantViolation, ResourceLimitError
from .group import GroupElement
from .roots import Root

__all__ = [
    "Reflection",
    "ReflectionFactorization",
    "factorization_str",
    "generated_group",
    "hurwitz_move",
    "hurwitz_orbit",
    "parabolic_coxeter_check",
    "reduced_factorizations",
    "reflection_length",
    "reflections_of",
]

DEFAULT_ORBIT_CAP = 1_000_000
MAX_REFLECTION_LENGTH_SEARCH = 6


class Reflection:
    """A reflection together with the positive root it inverts."""

    __slots__ = ("element", "root")

    def __init__(self, element: GroupElement, root: Root) -> None:
        if not root.positive:
            raise ValueError("a reflection is stored with its positive root")
        self.element = element
        self.root = root

    @property
    def key(self):
        return self.element.key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Reflection):
            return NotImplemented
        return self.element == other.element

    def __hash__(self) -> int:
        return hash(self.element.key)

    def __repr__(self) -> str:
        return f"<reflection {group_mod.word_str(self.element.word)}>"


def reflections_of(
    sys_: CoxeterSystem,
    gens: Iterable[int] | None = None,
    depth: int | None = None,
) -> list[Reflection]:
    """The reflections of the standard parabolic on gens.

    Finite scope (depth None): exhaustive, one reflection per positive
    root, sorted by the canonical coordinate order of the roots. With a
    depth, the list is truncated to reflections of length <= depth found
    in the ball, which is the only honest option for infinite scopes.
    """
    gens_t = group_mod._norm_gens(sys_, gens)
    if depth is None:
        if not diagram_mod.is_spherical(sys_, gens_t):
            raise ValueError(
                "scope generates an infinite group; pass an explicit depth "
                "for a ball-truncated reflection list"
            )
        return list(sys_.memo(("reflections", gens_t), lambda: tuple(
            Reflection(roots_mod.reflection_of_root(sys_, alpha), alpha)
            for alpha in roots_mod.positive_roots(sys_, gens_t)
        )))
    found: list[Reflection] = []
    for w in group_mod.ball(sys_, depth, gens=gens_t).elements():
        root = _flipped_root(w)
        if root is not None:
            found.append(Reflection(w, root))
    return found


def _flipped_root(w: GroupElement) -> Root | None:
    """The positive root alpha with s_alpha = w, or None when w is no reflection.

    A reflection is an involution of odd length, and the parity of any
    witness word is the parity of the length, so both filters are cheap.
    """
    if len(w.word) % 2 == 0 or not group_mod.multiply(w, w).is_identity():
        return None
    for r in roots_mod.inversion_set(w):
        if roots_mod.act(w, r) == -r and roots_mod.reflection_of_root(w.system, r) == w:
            return r
    return None


def _element_in_scope(sys_: CoxeterSystem, w: GroupElement, gens_t: tuple[int, ...]) -> bool:
    _, word = group_mod.length_and_reduced(w)
    return set(word) <= set(gens_t)


def _length_table(sys_: CoxeterSystem, gens_t: tuple[int, ...]) -> dict:
    """Reflection-length table over a finite parabolic: matrix key -> l_T."""
    return sys_.memo(("ltable", gens_t), lambda: _distances(sys_, gens_t))


def _distances(sys_: CoxeterSystem, gens_t: tuple[int, ...]) -> dict:
    refs = [t.element for t in reflections_of(sys_, gens_t)]
    _, parent, _ = group_mod.closure(
        [group_mod.identity(sys_)],
        lambda w: ((None, group_mod.multiply(w, t)) for t in refs),
        group_mod.DEFAULT_BALL_CAP,
        overflow="reflection length table exceeded the cap of {cap}",
    )
    dist: dict = {}
    for k, link in parent.items():
        dist[k] = 0 if link is None else dist[link[0]] + 1
    return dist


def reflection_length(
    sys_: CoxeterSystem,
    w: GroupElement,
    gens: Iterable[int] | None = None,
) -> int:
    """Least number of reflections of the (finite) scope multiplying to w."""
    gens_t = group_mod._norm_gens(sys_, gens)
    if not diagram_mod.is_spherical(sys_, gens_t):
        raise ValueError("reflection length requires a finite scope")
    table = _length_table(sys_, gens_t)
    if w.key not in table:
        raise ValueError("element does not lie in the chosen parabolic")
    return table[w.key]


# ------------------------------------------------------------- factorizations

@dataclass(frozen=True)
class ReflectionFactorization:
    """A tuple of reflections with their verified product."""

    factors: tuple[Reflection, ...]
    product: GroupElement

    def __post_init__(self):
        acc = group_mod.identity(self.product.system)
        for t in self.factors:
            acc = group_mod.multiply(acc, t.element)
        if acc.key != self.product.key:
            raise InvariantViolation("factors do not multiply to the stated product")

    @property
    def key(self):
        return tuple(t.key for t in self.factors)

    def __len__(self) -> int:
        return len(self.factors)


def factorization_str(fact: ReflectionFactorization) -> str:
    """Semicolon-separated reduced words of the factors."""
    return "; ".join(group_mod.word_str(t.element.word) for t in fact.factors)


def reduced_factorizations(
    sys_: CoxeterSystem,
    w: GroupElement,
    gens: Iterable[int] | None = None,
) -> list[ReflectionFactorization]:
    """All shortest reflection factorizations of w within a finite scope.

    Guarded to reflection length <= 6; the search tree over the
    reflection alphabet grows too fast beyond that.
    """
    gens_t = group_mod._norm_gens(sys_, gens)
    if not diagram_mod.is_spherical(sys_, gens_t):
        raise ValueError("reduced factorizations require a finite scope")
    table = _length_table(sys_, gens_t)
    if w.key not in table:
        raise ValueError("element does not lie in the chosen parabolic")
    k = table[w.key]
    if k > MAX_REFLECTION_LENGTH_SEARCH:
        raise ResourceLimitError(
            f"reflection length {k} exceeds the search guardrail "
            f"{MAX_REFLECTION_LENGTH_SEARCH}"
        )
    refs = reflections_of(sys_, gens_t)
    out: list[ReflectionFactorization] = []
    prefix: list[Reflection] = []

    def descend(remaining: GroupElement, depth: int) -> None:
        if depth == 0:
            out.append(ReflectionFactorization(tuple(prefix), w))
            return
        for t in refs:
            rest = group_mod.multiply(t.element, remaining)
            if table[rest.key] == depth - 1:
                prefix.append(t)
                descend(rest, depth - 1)
                prefix.pop()

    descend(w, k)
    return out


# ------------------------------------------------------------- Hurwitz moves

def _conjugate_reflection(sys_: CoxeterSystem, a: Reflection, b: Reflection) -> Reflection:
    """The reflection a b a, rebuilt from its root a(root_b)."""
    img = roots_mod.act(a.element, b.root)
    if not img.positive:
        img = -img
    return Reflection(roots_mod.reflection_of_root(sys_, img), img)


def hurwitz_move(
    fact: ReflectionFactorization,
    slot: int,
    direction: str = "forward",
) -> ReflectionFactorization:
    """One Hurwitz move at 1-based slot i (acting on factors i, i+1)."""
    k = len(fact.factors)
    if not (1 <= slot <= k - 1):
        raise ValueError(f"slot must be in 1..{k - 1}")
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    sys_ = fact.product.system
    i = slot - 1
    t, u = fact.factors[i], fact.factors[i + 1]
    if direction == "forward":
        new_pair = (_conjugate_reflection(sys_, t, u), t)
    else:
        new_pair = (u, _conjugate_reflection(sys_, u, t))
    factors = fact.factors[:i] + new_pair + fact.factors[i + 2 :]
    return ReflectionFactorization(factors, fact.product)


def hurwitz_orbit(
    fact: ReflectionFactorization,
    cap: int = DEFAULT_ORBIT_CAP,
) -> list[ReflectionFactorization]:
    """The full orbit of the factorization under Hurwitz moves, BFS order."""
    members, _, _ = group_mod.closure(
        [fact],
        lambda cur: (
            ((slot, direction), hurwitz_move(cur, slot, direction))
            for slot in range(1, len(cur.factors))
            for direction in ("forward", "backward")
        ),
        cap,
        overflow="Hurwitz orbit exceeded the cap of {cap}",
    )
    return list(members.values())


def generated_group(
    generators: "ReflectionFactorization | Sequence[Reflection] | Sequence[GroupElement]",
    sys_: CoxeterSystem | None = None,
    cap: int = DEFAULT_ORBIT_CAP,
) -> dict:
    """Closure of the subgroup generated by the given elements.

    Returns a dict from matrix key to element, insertion order matching
    the closure BFS. Hits of the cap raise; an infinite subgroup can
    never be closed here.
    """
    if isinstance(generators, ReflectionFactorization):
        gens = [t.element for t in generators.factors]
        sys_ = generators.product.system
    else:
        gens = [g.element if isinstance(g, Reflection) else g for g in generators]
        if sys_ is None:
            if not gens:
                raise ValueError("empty generator list needs an explicit system")
            sys_ = gens[0].system
    members, _, _ = group_mod.closure(
        [group_mod.identity(sys_)],
        lambda cur: ((i, group_mod.multiply(cur, g)) for i, g in enumerate(gens)),
        cap,
        overflow="subgroup closure exceeded the cap of {cap}",
    )
    return members


# ------------------------------------------------- parabolic Coxeter elements

def parabolic_coxeter_check(
    sys_: CoxeterSystem,
    w: GroupElement,
    gens: Iterable[int] | None = None,
) -> bool:
    """Whether w is a Coxeter element of some parabolic of the finite scope.

    Checked as: reflection length equals ordinary length, and w is
    conjugate within the scope to a standard Coxeter element of a
    standard parabolic of the scope. The identity passes via the empty
    parabolic.
    """
    gens_t = group_mod._norm_gens(sys_, gens)
    if not diagram_mod.is_spherical(sys_, gens_t):
        raise ValueError("the parabolic Coxeter check requires a finite scope")
    if not _element_in_scope(sys_, w, gens_t):
        raise ValueError("element does not lie in the chosen parabolic")
    if reflection_length(sys_, w, gens_t) != group_mod.length_and_reduced(w)[0]:
        return False
    coxset = _standard_coxeter_keys(sys_, gens_t)
    for g in group_mod.enumerate_group(sys_, gens=gens_t).elements():
        conj = group_mod.multiply(group_mod.multiply(g, w), group_mod.inverse(g))
        if conj.key in coxset:
            return True
    return False


def _standard_coxeter_keys(sys_: CoxeterSystem, gens_t: tuple[int, ...]) -> frozenset:
    return sys_.memo(("coxkeys", gens_t), lambda: frozenset(
        group_mod.from_word(sys_, perm).key
        for r in range(len(gens_t) + 1)
        for combo in itertools.combinations(gens_t, r)
        for perm in itertools.permutations(combo)
    ))
