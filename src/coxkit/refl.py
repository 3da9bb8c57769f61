"""Reflections, absolute (reflection) length, and the Hurwitz action.

The reflections of a finite standard parabolic are enumerated through
its positive roots; infinite scopes only ever yield a ball-truncated
approximation, and every function here keeps that distinction explicit.
Reflection length in a finite group is rank(w - 1) (Carter 1972, Lemma
2), read off one division-free elimination of the moved space on key
columns over Z[theta'], where roots live too; reduced factorizations
are searched depth-first with that rank as the step test, and the
Hurwitz action rewires a factorization by

    (..., t_i, t_{i+1}, ...)  ->  (..., t_i t_{i+1} t_i, t_i, ...)

(the forward move at slot i; backward is its inverse), which preserves
both the product and the multiset of conjugacy classes.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from operator import sub

from . import diagram as diagram_mod
from . import group as group_mod
from . import roots as roots_mod
from .diagram import CoxeterSystem
from .errors import InvariantViolation, ResourceLimitError
from .group import GroupElement
from .record import Record
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

    __slots__ = ("element", "root", "_products")

    def __init__(self, element: GroupElement, root: Root) -> None:
        if not root.positive:
            raise ValueError("a reflection is stored with its positive root")
        self.element = element
        self.root = root
        # right factor key -> key of the product, filled by _pair_product
        self._products: dict = {}

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
    gens_t = diagram_mod._norm_subset(sys_, gens)
    if depth is None:
        if not diagram_mod.is_spherical(sys_, gens_t):
            raise ValueError(
                "scope generates an infinite group; pass an explicit depth "
                "for a ball-truncated reflection list"
            )
        return [_reflection(sys_, alpha) for alpha in roots_mod.positive_roots(sys_, gens_t)]
    ball = group_mod._ball_order(sys_, depth, gens=gens_t)
    return [Reflection(w, root) for w, _ in ball if (root := _flipped_root(w)) is not None]


def _reflection(sys_: CoxeterSystem, root: Root) -> Reflection:
    """The reflection through the positive root, built once per root and
    system."""
    return sys_.memo(
        ("reflection", root.key),
        lambda: Reflection(roots_mod.reflection_of_root(sys_, root), root),
    )


def _flipped_root(w: GroupElement) -> Root | None:
    """The positive root alpha with s_alpha = w, or None when w is no reflection.

    A reflection is an involution of odd length, and the parity of any
    witness word is the parity of the length, so both filters are cheap.
    """
    if len(w.word) % 2 == 0 or not group_mod.multiply(w, w).is_identity():
        return None
    for r in roots_mod.inversion_set(w):
        if roots_mod.act(w, r) == -r and roots_mod._reflection_matrix(w.system, r) == w:
            return r
    return None


def _element_in_scope(sys_: CoxeterSystem, w: GroupElement, gens_t: tuple[int, ...]) -> bool:
    _, word = group_mod.length_and_reduced(w)
    return set(word) <= set(gens_t)


def _reduce(sys_: CoxeterSystem, basis: list, v) -> list[int]:
    """The flat vector v with its blocks at the pivots of the (pivot,
    vector, operator) echelon basis cleared, without division: each step
    replaces v by p*v - c*b, p != 0 and c the blocks of b and v at the
    pivot, p applied by its operator. Z[theta'] has no zero divisors, so
    v lies in the span exactly when this is zero."""
    ring = group_mod._ring(sys_)
    d = ring.degree
    vec = list(v)
    for pivot, b, p in basis:
        c = vec[pivot:pivot + d]
        if any(c):
            c = group_mod._op(ring, c)
            vec = list(map(sub, group_mod._scaled(p, vec, d), group_mod._scaled(c, b, d)))
    return vec


def _moved_basis(elements: Iterable[GroupElement]) -> list:
    """An echelon basis of the joint moved space, the sum of the column
    spans of w - 1 over the elements, as (pivot, vector, operator): a flat
    vector over Z[theta'], the offset of its first nonzero block, and
    multiplication by that block (group._op), built once for every
    _reduce against the basis."""
    basis: list = []
    for w in elements:
        ring = group_mod._ring(w.system)
        d = ring.degree
        for j in range(1, w.system.rank + 1):
            col = list(group_mod._column(w, j))
            col[(j - 1) * d] -= 1
            rest = _reduce(w.system, basis, col)
            pivot = next((a for a in range(0, len(rest), d) if any(rest[a:a + d])), None)
            if pivot is not None:
                basis.append((pivot, rest, group_mod._op(ring, rest[pivot:pivot + d])))
    return basis


def _length_table(sys_: CoxeterSystem, gens_t: tuple[int, ...]) -> dict:
    """Reflection-length table over a finite parabolic: matrix key -> l_T.

    Unused by the package: a breadth-first search by reflections kept as
    the differential tests' reference. The benchmark tracer wraps it."""
    return sys_.memo(("ltable", gens_t), lambda: _distances(sys_, gens_t))


def _distances(sys_: CoxeterSystem, gens_t: tuple[int, ...]) -> dict:
    refs = [t.element for t in reflections_of(sys_, gens_t)]
    _, parent = group_mod.closure(
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
    """Least number of reflections of the (finite) scope multiplying to w:
    rank(w - 1). In a larger system this equals the rank on the scope's
    own span, where the form is nondegenerate."""
    gens_t = diagram_mod._norm_subset(sys_, gens)
    if not diagram_mod.is_spherical(sys_, gens_t):
        raise ValueError("reflection length requires a finite scope")
    if not _element_in_scope(sys_, w, gens_t):
        raise ValueError("element does not lie in the chosen parabolic")
    return len(_moved_basis([w]))


# ------------------------------------------------------------- factorizations

_PRODUCT_MISMATCH = "factors do not multiply to the stated product"


class ReflectionFactorization(Record, frozen=True):
    """A tuple of reflections with their verified product."""

    factors: tuple[Reflection, ...]
    product: GroupElement

    def __init__(self, factors: tuple[Reflection, ...], product: GroupElement) -> None:
        super().__init__(factors, product)
        acc = group_mod.identity(product.system)
        for t in factors:
            acc = group_mod.multiply(acc, t.element)
        if acc.key != product.key:
            raise InvariantViolation(_PRODUCT_MISMATCH)

    @classmethod
    def _proved(cls, factors: tuple[Reflection, ...], product: GroupElement) -> ReflectionFactorization:
        """A factorization whose product the caller has already checked."""
        fact = cls.__new__(cls)
        Record.__init__(fact, factors, product)
        return fact

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

    Depth-first in reflections_of order: t can start one exactly when
    rank(t w - 1) = rank(w - 1) - 1, that is, when the root of t lies in
    the moved space of w (Carter 1972). So each step reduces the root
    against w's moved basis, once per element, and multiplies only the
    steps that pass. Each leaf checks that its factors multiply to w, so
    the results need no second multiplication. Guarded to reflection
    length <= 6; the search tree over the reflection alphabet grows too
    fast beyond that.
    """
    gens_t = diagram_mod._norm_subset(sys_, gens)
    if not diagram_mod.is_spherical(sys_, gens_t):
        raise ValueError("reduced factorizations require a finite scope")
    k = reflection_length(sys_, w, gens_t)
    if k > MAX_REFLECTION_LENGTH_SEARCH:
        raise ResourceLimitError(
            f"reflection length {k} exceeds the search guardrail "
            f"{MAX_REFLECTION_LENGTH_SEARCH}"
        )
    refs = reflections_of(sys_, gens_t)
    tails_of: dict = {}

    def tails(remaining: GroupElement, depth: int) -> list[tuple[Reflection, ...]]:
        # built once per element: many prefixes reach the same one
        if depth == 0:
            # remaining is t_k ... t_1 w, so the factors multiply to w
            # exactly when it is the identity
            if not remaining.is_identity():
                raise InvariantViolation(_PRODUCT_MISMATCH)
            return [()]
        if remaining.key not in tails_of:
            basis = _moved_basis([remaining])
            found = []
            for t in refs:
                if not any(_reduce(sys_, basis, t.root.key)):
                    rest = group_mod.multiply(t.element, remaining)
                    found += [(t,) + tail for tail in tails(rest, depth - 1)]
            tails_of[remaining.key] = found
        return tails_of[remaining.key]

    return [ReflectionFactorization._proved(factors, w) for factors in tails(w, k)]


# ------------------------------------------------------------- Hurwitz moves

def _conjugate_reflection(sys_: CoxeterSystem, a: Reflection, b: Reflection) -> Reflection:
    """The reflection a b a: the one of its positive root a(root_b)."""
    img = roots_mod.act(a.element, b.root)
    return _reflection(sys_, img if img.positive else -img)


def _pair_product(a: Reflection, b: Reflection):
    """The key of a*b, multiplied once per ordered pair and cached on a:
    an orbit meets the same adjacent pair in many factorizations, and
    both moves at a slot check against it."""
    key = a._products.get(b.key)
    if key is None:
        key = a._products[b.key] = group_mod.multiply(a.element, b.element).key
    return key


def hurwitz_move(
    fact: ReflectionFactorization,
    slot: int,
    direction: str = "forward",
) -> ReflectionFactorization:
    """One Hurwitz move at 1-based slot i (acting on factors i, i+1).

    The other factors are kept and fact's product was checked when it
    was built, so the move checks only that the new pair multiplies to
    the old one: t u = (t u t) t forward, u (u t u) backward. Each
    ordered pair is multiplied once (_pair_product)."""
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
    if _pair_product(*new_pair) != _pair_product(t, u):
        raise InvariantViolation(_PRODUCT_MISMATCH)
    factors = fact.factors[:i] + new_pair + fact.factors[i + 2 :]
    return ReflectionFactorization._proved(factors, fact.product)


def hurwitz_orbit(
    fact: ReflectionFactorization,
    cap: int = DEFAULT_ORBIT_CAP,
) -> list[ReflectionFactorization]:
    """The full orbit of the factorization under Hurwitz moves, BFS order."""
    members, _ = group_mod.closure(
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
    members, _ = group_mod.closure(
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
    """Whether l_T(w) = l(w) and w is conjugate within the finite scope
    to a standard Coxeter element of a standard parabolic of the scope.

    The conjugacy alone makes w a Coxeter element of some parabolic; the
    length condition also asks w to be as short as its reflection
    length. So s3 (s1 s2) s3 in A3, a Coxeter element of a conjugate of
    W_{1,2} with l = 4 and l_T = 2, gives False. The identity passes via
    the empty parabolic.
    """
    gens_t = diagram_mod._norm_subset(sys_, gens)
    if not diagram_mod.is_spherical(sys_, gens_t):
        raise ValueError("the parabolic Coxeter check requires a finite scope")
    if reflection_length(sys_, w, gens_t) != group_mod.length_and_reduced(w)[0]:
        return False
    coxset = _standard_coxeter_keys(sys_, gens_t)
    conjugates = group_mod._carried_keys(sys_, gens_t, w.key, "conjugate")
    return any(key in coxset for _, key in conjugates)


def _standard_coxeter_keys(sys_: CoxeterSystem, gens_t: tuple[int, ...]) -> frozenset:
    return sys_.memo(("coxkeys", gens_t), lambda: frozenset(
        group_mod.from_word(sys_, perm).key
        for r in range(len(gens_t) + 1)
        for combo in itertools.combinations(gens_t, r)
        for perm in itertools.permutations(combo)
    ))
