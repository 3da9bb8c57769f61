"""Roots, inversion sets, beta sequences, and outward-orbit representatives.

A root is a column: the image w(e_s) of a simple root is column s of
w's key, so simple roots, beta sequences and inversion sets are read
off the group layer's keys (_prefix_roots), as are the positive roots
of a finite parabolic, the prefix roots of the word of its longest
element (group._longest). A root is stored as that column, n*d' ints
over Z[theta'], its one storage. act applies elements with
group._image, and reflection matrices come from the generator steps'
operators, with no FieldElement arithmetic; coords, a Q(theta) view of
the key built on first use, serves printing and the coordinate order of
positive_roots. A root's coordinates are all >= 0 or all <= 0;
make_root checks every one and refuses mixed vectors, which only a
logic fault can produce. The all-ones functional is positive on every
positive root, and its sign gives the outwardness certificates: alpha
is outward for w when, for all large powers, w^{-m} alpha pairs
negative and w^{m} alpha pairs positive, each checked over a finite
window here.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import sub

from . import group as group_mod
from .diagram import CoxeterSystem, _norm_subset, is_spherical
from .errors import InvariantViolation
from .field import FieldElement
from .group import GroupElement

__all__ = [
    "Root",
    "act",
    "beta_sequence",
    "inversion_set",
    "is_outward_upto",
    "make_root",
    "outward_representatives",
    "positive_roots",
    "reflection_of_root",
    "root_str",
    "simple_root",
]


class Root:
    """A root with its decided sign, stored as its key column over
    Z[theta']; coords is a Q(theta) view of it, built on first use."""

    __slots__ = ("system", "positive", "key", "_coords")

    def __init__(self, system: CoxeterSystem, key: tuple[int, ...], positive: bool) -> None:
        self.system = system
        self.positive = positive
        self.key = key
        self._coords: tuple[FieldElement, ...] | None = None

    @property
    def coords(self) -> tuple[FieldElement, ...]:
        if self._coords is None:
            self._coords = group_mod._view(self.system, self.key)
        return self._coords

    def __eq__(self, other) -> bool:
        if not isinstance(other, Root):
            return NotImplemented
        return self.system == other.system and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __neg__(self) -> "Root":
        return Root(self.system, tuple(-x for x in self.key), not self.positive)

    def __repr__(self) -> str:
        return f"<root {root_str(self)}>"


def make_root(sys_: CoxeterSystem, column: Sequence[int]) -> Root:
    """Build a root from its key column, n*d' ints over Z[theta'],
    deciding its sign exactly.

    Vectors with mixed signs, or the zero vector, are not roots; they
    signal a logic fault in whatever produced them. Entries that are not
    ints, FieldElement coordinates say, raise TypeError.
    """
    vec = tuple(column)
    if not all(x.__class__ is int for x in vec):
        raise TypeError("make_root expects a key column of ints over Z[theta']")
    ring = group_mod._ring(sys_)
    d = ring.degree
    signs = {ring.sign(vec[a:a + d]) for a in range(0, len(vec), d) if any(vec[a:a + d])}
    if signs == {1} or signs == {-1}:
        return Root(sys_, vec, signs == {1})
    shown = group_mod._view(sys_, vec)
    raise InvariantViolation(f"vector {tuple(str(c) for c in shown)} is not a root")


def simple_root(sys_: CoxeterSystem, s: int) -> Root:
    if not (1 <= s <= sys_.rank):
        raise ValueError(f"generator index {s} out of range 1..{sys_.rank}")
    return Root(sys_, group_mod._column(group_mod.identity(sys_), s), True)


def root_str(root: Root) -> str:
    return "(" + ", ".join(str(c) for c in root.coords) + ")"


def act(w: GroupElement, root: Root) -> Root:
    return make_root(w.system, group_mod._image(w, root.key))


def positive_roots(sys_: CoxeterSystem, gens: Iterable[int] | None = None) -> list[Root]:
    """All positive roots of the finite standard parabolic on gens, in
    the order of their Q(theta) coordinates.

    They are the prefix roots of a reduced word of its longest element,
    one per letter (Humphreys, Reflection Groups and Coxeter Groups,
    1.8 and 5.6), read off the word of group._longest. An infinite scope
    raises ValueError.
    """
    idx = _norm_subset(sys_, gens)
    if not is_spherical(sys_, idx):
        raise ValueError("positive roots require a finite scope")
    return list(sys_.memo(("posroots", idx), lambda: tuple(sorted(
        _prefix_roots(sys_, group_mod._longest(sys_, idx).word),
        key=lambda r: tuple((e.num, e.den) for e in r.coords),
    ))))


# ---------------------------------------------- prefix roots and reflections

def _prefix_roots(sys_: CoxeterSystem, word: Sequence[int]) -> list[Root]:
    """Entry i is column word[i] of the prefix matrix s_{word[0]} ... s_{word[i-1]},
    that is, the root s_{word[0]} ... s_{word[i-1]} (e_{word[i]})."""
    out: list[Root] = []
    prefix = group_mod.identity(sys_)
    for s in word:
        out.append(make_root(sys_, group_mod._column(prefix, s)))
        prefix = group_mod._right_mul_gen(prefix, s)
    return out


def inversion_set(w: GroupElement) -> list[Root]:
    """The positive roots sent negative by w, one per letter of the
    canonical reduced word, in suffix order.

    For a reduced word s_{j_1} ... s_{j_k} the i-th entry is
    s_{j_k} ... s_{j_{i+1}} (e_{j_i}), the prefix roots of the reversed
    word taken in reverse. Distinctness and the sign flip under w are
    re-checked; a failure is a logic fault.
    """
    k, word = group_mod.length_and_reduced(w)
    roots = _prefix_roots(w.system, word[::-1])[::-1]
    if len({r.key for r in roots}) != k:
        raise InvariantViolation("inversion roots are not distinct")
    for r in roots:
        if not r.positive or act(w, r).positive:
            raise InvariantViolation("inversion root not sent negative")
    return roots


def beta_sequence(w: GroupElement) -> list[Root]:
    """The prefix roots beta_i = s_{j_1} ... s_{j_{i-1}} (e_{j_i}).

    Taken along the canonical reduced word of w; as a set this is the
    inversion set of w^{-1}.
    """
    _, word = group_mod.length_and_reduced(w)
    return _prefix_roots(w.system, word)


def reflection_of_root(sys_: CoxeterSystem, root: Root) -> GroupElement:
    """The reflection v -> v - 2 B(alpha, v) alpha through a unit root.

    Rejects vectors with B(alpha, alpha) != 1: they are not in the root
    orbit of the simple basis, and reflecting through them would leave
    the group.
    """
    return group_mod.canonical(_reflection_matrix(sys_, root))


def _reflection_matrix(sys_: CoxeterSystem, root: Root) -> GroupElement:
    """The matrix of the reflection through root, with an empty word.

    One pass over the generator steps' operators, op_sj multiplication
    by -2B(e_s, e_j), gives the blocks c_j = 2 B(alpha, e_j) =
    2 alpha_j - sum_s op_sj(alpha_s); column j is e_j - c_j alpha, and
    B(alpha, alpha) = sum_j alpha_j c_j / 2.
    """
    alpha = root.key
    d, steps = group_mod._steps(sys_)
    blocks = [alpha[a:a + d] for a in range(0, len(alpha), d)]
    two_b = [[x + x for x in a] for a in blocks]
    for a, row in zip(blocks, steps):
        for j, op in row:
            two_b[j] = list(map(sub, two_b[j], group_mod._scaled(op, a, d)))
    ring = group_mod._ring(sys_)
    ops = [group_mod._op(ring, c) for c in two_b]
    norm2 = [sum(x) for x in zip(*(group_mod._scaled(op, a, d) for a, op in zip(blocks, ops)))]
    if norm2 != [2] + [0] * (d - 1):
        norm = FieldElement._make(sys_.field, ring.embed(norm2), 2)
        raise ValueError(f"B(alpha, alpha) = {norm} != 1; not a unit root")
    key: list[int] = []
    for j, op in enumerate(ops, 1):
        col = group_mod._column(group_mod.identity(sys_), j)
        key += col if op == 0 else map(sub, col, group_mod._scaled(op, alpha, d))
    return GroupElement(sys_, tuple(key), ())


# -------------------------------------------------------------- the dual side

def _pairing_sign(sys_: CoxeterSystem, vec: Sequence[int]) -> int:
    """The sign of the all-ones functional at a flat vector: of the sum
    of its entries."""
    ring = group_mod._ring(sys_)
    d = ring.degree
    return ring.sign([sum(vec[k::d]) for k in range(d)])


def is_outward_upto(
    w: GroupElement,
    root: Root,
    max_power: int = 10,
) -> bool:
    """Bounded certificate that the orbit of root escapes outward.

    True when m * x(w^{-m} root) < 0 for every 1 <= |m| <= max_power,
    x the all-ones functional, which unfolds to: x(w^p root) > 0 and
    x(w^{-p} root) < 0 for p in the window. A bounded check, so True is
    a certificate only up to the window, never a proof for all m.
    """
    if max_power < 1:
        # the window starts at power 1; the text is what outward --max 0 prints
        raise ValueError("need 1 <= min_power <= max_power")
    winv = group_mod.inverse(w)
    vplus = vminus = root.key
    for p in range(1, max_power + 1):
        vplus = group_mod._image(w, vplus)
        vminus = group_mod._image(winv, vminus)
        if _pairing_sign(w.system, vplus) <= 0 or _pairing_sign(w.system, vminus) >= 0:
            return False
    return True


def outward_representatives(
    w: GroupElement,
    max_power: int = 10,
    orbit_bound: int = 10,
) -> list[Root]:
    """The l(w) outward-orbit representatives beta_1..beta_l for straight w.

    Probes straightness up to power 10 and rejects failures; then
    certifies each beta_i outward over the power window and certifies the
    orbits w^k beta_i pairwise disjoint for |k| <= orbit_bound. Those two
    certificates failing would contradict the theory for a straight
    element, so failures raise InvariantViolation.
    """
    if orbit_bound < 1:
        raise ValueError("orbit bound must be at least 1")
    if not group_mod.is_straight_upto(w, 10):
        raise ValueError("element fails the straightness probe up to power 10")
    betas = beta_sequence(w)
    for beta in betas:
        if not is_outward_upto(w, beta, max_power=max_power):
            raise InvariantViolation(
                f"beta root {root_str(beta)} failed the outward window for a straight element"
            )
    winv = group_mod.inverse(w)
    owner: dict[tuple, int] = {}
    for i, beta in enumerate(betas):
        fwd = bwd = beta.key
        for k in range(orbit_bound + 1):
            for vec in ((fwd,) if k == 0 else (fwd, bwd)):
                key = tuple(vec)
                if owner.setdefault(key, i) != i:
                    raise InvariantViolation(
                        f"orbits of beta_{owner[key] + 1} and beta_{i + 1} collide"
                    )
            fwd = group_mod._image(w, fwd)
            bwd = group_mod._image(winv, bwd)
    return betas
