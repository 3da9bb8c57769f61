"""Roots, inversion sets, beta sequences, and outward-orbit representatives.

A root is an image w(e_s) of a simple root; its coordinate vector in the
simple basis has either all coordinates >= 0 or all <= 0, and the
constructor decides which exactly, refusing anything else. The dual
pairing against the all-ones functional (the default interior point of
the fundamental chamber in the dual cone) gives the sign tests used for
the outwardness certificates: alpha is outward for w when, for all large
powers, w^{-m} alpha pairs negative and w^{m} alpha pairs positive, each
checked over a finite window here.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import group as group_mod
from .diagram import CoxeterSystem
from .errors import InvariantViolation
from .field import FieldElement
from .group import GroupElement

__all__ = [
    "DualPoint",
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
    """A root vector with its decided sign."""

    __slots__ = ("system", "coords", "positive", "key")

    def __init__(self, system: CoxeterSystem, coords: tuple[FieldElement, ...], positive: bool) -> None:
        self.system = system
        self.coords = coords
        self.positive = positive
        self.key = tuple((e.num, e.den) for e in coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Root):
            return NotImplemented
        return self.system == other.system and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __neg__(self) -> "Root":
        return Root(self.system, tuple(-c for c in self.coords), not self.positive)

    def __repr__(self) -> str:
        return f"<root {root_str(self)}>"


def make_root(sys_: CoxeterSystem, coords: Sequence[FieldElement]) -> Root:
    """Build a root from coordinates, deciding its sign exactly.

    Vectors with mixed signs, or the zero vector, are not roots; they
    signal a logic fault in whatever produced them.
    """
    coords = tuple(coords)
    signs = [c.sign() for c in coords]
    if any(s > 0 for s in signs) and all(s >= 0 for s in signs):
        return Root(sys_, coords, True)
    if any(s < 0 for s in signs) and all(s <= 0 for s in signs):
        return Root(sys_, coords, False)
    raise InvariantViolation(f"vector {tuple(str(c) for c in coords)} is not a root")


def simple_root(sys_: CoxeterSystem, s: int) -> Root:
    if not (1 <= s <= sys_.rank):
        raise ValueError(f"generator index {s} out of range 1..{sys_.rank}")
    f = sys_.field
    coords = tuple(f.one if i == s - 1 else f.zero for i in range(sys_.rank))
    return Root(sys_, coords, True)


def root_str(root: Root) -> str:
    return "(" + ", ".join(str(c) for c in root.coords) + ")"


def act(w: GroupElement, root: Root) -> Root:
    return make_root(w.system, group_mod.apply(w, root.coords))


def _gram_pairing(sys_: CoxeterSystem, v: Sequence[FieldElement], u: Sequence[FieldElement]) -> FieldElement:
    acc = sys_.field.zero
    for s in range(sys_.rank):
        if v[s].is_zero():
            continue
        row = sys_.gram[s]
        inner = sys_.field.zero
        for t in range(sys_.rank):
            if not u[t].is_zero() and not row[t].is_zero():
                inner = inner + row[t] * u[t]
        acc = acc + v[s] * inner
    return acc


def _reflect(sys_: CoxeterSystem, s: int, v: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    """sigma_s(v) = v - 2 B(e_s, v) e_s, using the sparse gram row."""
    s0 = s - 1
    two_bv = v[s0] + v[s0]  # 2*B(e_s,e_s)*v_s = 2 v_s
    for j, two_b in group_mod._two_b(sys_)[s0]:
        if not v[j].is_zero():
            two_bv = two_bv + two_b * v[j]
    if two_bv.is_zero():
        return tuple(v)
    out = list(v)
    out[s0] = out[s0] - two_bv
    return tuple(out)


def positive_roots(
    sys_: CoxeterSystem,
    gens: Iterable[int] | None = None,
    cap: int = 1_000_000,
) -> list[Root]:
    """All positive roots of the standard parabolic on gens (finite scope).

    Enumerates the orbit of the simple roots under the parabolic's
    generators; infinite scopes hit the cap and raise.
    """
    gens_t = group_mod._norm_gens(sys_, gens)
    return list(sys_.memo(("posroots", gens_t), lambda: _root_orbit(sys_, gens_t, cap)))


def _root_orbit(sys_: CoxeterSystem, gens_t: tuple[int, ...], cap: int) -> tuple[Root, ...]:
    members, _, _ = group_mod.closure(
        [simple_root(sys_, s) for s in gens_t],
        lambda r: ((s, make_root(sys_, _reflect(sys_, s, r.coords))) for s in gens_t),
        cap,
        overflow="root orbit exceeded the cap of {cap}",
    )
    return tuple(sorted((r for r in members.values() if r.positive), key=lambda r: r.key))


# ------------------------------------------------------------- inversion sets

def inversion_set(w: GroupElement) -> list[Root]:
    """The positive roots sent negative by w, one per letter of the
    canonical reduced word, in suffix order.

    For a reduced word s_{j_1} ... s_{j_k} the i-th entry is
    s_{j_k} ... s_{j_{i+1}} (e_{j_i}). Distinctness and the sign flip
    under w are re-checked; a failure is a logic fault.
    """
    sys_ = w.system
    k, word = group_mod.length_and_reduced(w)
    roots: list[Root] = []
    for i in range(k):
        f = sys_.field
        v: tuple[FieldElement, ...] = tuple(
            f.one if t == word[i] - 1 else f.zero for t in range(sys_.rank)
        )
        for j in range(i + 1, k):
            v = _reflect(sys_, word[j], v)
        roots.append(make_root(sys_, v))
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
    sys_ = w.system
    _, word = group_mod.length_and_reduced(w)
    out: list[Root] = []
    prefix = group_mod.identity(sys_)
    for s in word:
        out.append(act(prefix, simple_root(sys_, s)))
        prefix = group_mod.multiply(prefix, group_mod.generator(sys_, s))
    return out


# ----------------------------------------------------------------- reflections

def reflection_of_root(sys_: CoxeterSystem, root: Root) -> GroupElement:
    """The reflection v -> v - 2 B(alpha, v) alpha through a unit root.

    Rejects vectors with B(alpha, alpha) != 1: those are not in the root
    orbit of the simple basis and reflecting through them would leave
    the group.
    """
    norm = _gram_pairing(sys_, root.coords, root.coords)
    if norm != sys_.field.one:
        raise ValueError(f"B(alpha, alpha) = {norm} != 1; not a unit root")
    f = sys_.field
    n = sys_.rank
    bv = [
        _gram_pairing(
            sys_,
            tuple(f.one if t == j else f.zero for t in range(n)),
            root.coords,
        )
        for j in range(n)
    ]
    cols = []
    for j in range(n):
        two_c = bv[j] + bv[j]
        col = list(f.one if i == j else f.zero for i in range(n))
        if not two_c.is_zero():
            for i in range(n):
                col[i] = col[i] - two_c * root.coords[i]
        cols.append(tuple(col))
    raw = GroupElement(sys_, tuple(cols), ())
    return group_mod.canonical(raw)


# -------------------------------------------------------------- the dual side

class DualPoint:
    """A linear functional on root space, given by its values on e_1..e_n."""

    __slots__ = ("system", "values")

    def __init__(self, system: CoxeterSystem, values: Sequence[FieldElement]) -> None:
        if len(values) != system.rank:
            raise ValueError("wrong number of values")
        self.system = system
        self.values = tuple(values)

    @classmethod
    def interior(cls, system: CoxeterSystem) -> "DualPoint":
        """The all-ones functional, positive on every positive root."""
        return cls(system, tuple(system.field.one for _ in range(system.rank)))

    def pair(self, coords: Sequence[FieldElement]) -> FieldElement:
        """The value of the functional at a coordinate vector."""
        acc = self.system.field.zero
        for x, a in zip(self.values, coords):
            if not a.is_zero():
                acc = acc + x * a
        return acc

    def __repr__(self) -> str:
        return "DualPoint(" + ", ".join(str(v) for v in self.values) + ")"


def is_outward_upto(
    w: GroupElement,
    root: Root,
    point: DualPoint | None = None,
    max_power: int = 10,
    min_power: int = 1,
) -> bool:
    """Bounded certificate that the orbit of root escapes outward.

    True when m * x(w^{-m} root) < 0 for every min_power <= |m| <= max_power,
    which unfolds to: x(w^p root) > 0 and x(w^{-p} root) < 0 for p in the
    window. A bounded check, so True is a certificate only up to the
    window, never a proof for all m.
    """
    if point is None:
        point = DualPoint.interior(w.system)
    if not (1 <= min_power <= max_power):
        raise ValueError("need 1 <= min_power <= max_power")
    winv = group_mod.inverse(w)
    vplus = root.coords
    vminus = root.coords
    for p in range(1, max_power + 1):
        vplus = group_mod.apply(w, vplus)
        vminus = group_mod.apply(winv, vminus)
        if p < min_power:
            continue
        if point.pair(vplus).sign() <= 0 or point.pair(vminus).sign() >= 0:
            return False
    return True


def outward_representatives(
    w: GroupElement,
    point: DualPoint | None = None,
    max_power: int = 10,
    orbit_bound: int = 10,
    straight_bound: int = 10,
) -> list[Root]:
    """The l(w) outward-orbit representatives beta_1..beta_l for straight w.

    Probes straightness up to straight_bound and rejects failures; then
    certifies each beta_i outward over the power window and certifies the
    orbits w^k beta_i pairwise disjoint for |k| <= orbit_bound. Those two
    certificates failing would contradict the theory for a straight
    element, so failures raise InvariantViolation.
    """
    if not group_mod.is_straight_upto(w, straight_bound):
        raise ValueError(
            f"element fails the straightness probe up to power {straight_bound}"
        )
    betas = beta_sequence(w)
    for beta in betas:
        if not is_outward_upto(w, beta, point, max_power=max_power):
            raise InvariantViolation(
                f"beta root {root_str(beta)} failed the outward window for a straight element"
            )
    winv = group_mod.inverse(w)
    owner: dict[tuple, int] = {}
    for i, beta in enumerate(betas):
        fwd = beta.coords
        bwd = beta.coords
        for k in range(orbit_bound + 1):
            for coords in ((fwd,) if k == 0 else (fwd, bwd)):
                key = tuple((e.num, e.den) for e in coords)
                if owner.setdefault(key, i) != i:
                    raise InvariantViolation(
                        f"orbits of beta_{owner[key] + 1} and beta_{i + 1} collide"
                    )
            fwd = group_mod.apply(w, fwd)
            bwd = group_mod.apply(winv, bwd)
    return betas
