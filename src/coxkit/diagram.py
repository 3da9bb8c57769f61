"""Coxeter diagrams: parsing, the bilinear form, and classification.

A system is described by a small line-oriented text format:

    # optional comments
    rank 3
    m 1 2 3
    m 2 3 inf

The first non-comment line must be "rank n". Each "m i j k" line sets the
Coxeter matrix entry for the pair 1 <= i < j <= n to k (an integer >= 2,
or "inf"); unspecified pairs default to 2 and the diagonal is 1.

All bilinear-form entries -cos(pi/m_st) are taken in one shared ground
field Q(2*cos(pi/N)) where N is the least common multiple of every finite
label of the system, the diagonal 1s and default 2s included. Labels 1
and 2 only contribute rationals, but folding them into N keeps the field
choice a function of the whole matrix.

W_I is finite exactly when B restricted to I is positive definite, and
affine when it is positive semidefinite and singular with I connected.
classify decides this for the whole system by _definiteness, one
division-free symmetric elimination on the system's own Gram matrix,
without building a subsystem or a field. is_spherical, asked for the
whole system by the packed keys and for every parabolic by the layers
above, reads finiteness off the diagram alone: the positive definite
diagrams are classified (_positive_type), so it needs no field
arithmetic, and a test holds it to the elimination.

Cache rule: every value derived from a system and kept for reuse, in any
module, goes through CoxeterSystem.memo, which builds it on first use
and stores it in the system's single _cache dict under an explicit key.
Nothing is evicted; the cache lives as long as the system does.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from . import field as field_mod
from .errors import DiagramParseError

__all__ = [
    "INFINITY",
    "CoxeterSystem",
    "classify",
    "components",
    "is_irreducible",
    "is_spherical",
    "parse_system",
    "serialize_system",
    "subsystem",
]

INFINITY = math.inf


class CoxeterSystem:
    """A Coxeter matrix together with its ground field and bilinear form.

    Generators are the 1-based integers 1..rank in every interface. The
    gram attribute holds B(e_s, e_t) as exact field elements, row-major
    with 0-based indexing internally.
    """

    __slots__ = ("rank", "matrix", "field", "gram", "parent", "parent_indices", "_cache")

    def __init__(
        self,
        matrix: Sequence[Sequence[float]],
        parent: "CoxeterSystem | None" = None,
        parent_indices: tuple[int, ...] | None = None,
    ) -> None:
        n = len(matrix)
        rows = []
        for i in range(n):
            if len(matrix[i]) != n:
                raise ValueError("Coxeter matrix must be square")
            rows.append(tuple(matrix[i]))
        for i in range(n):
            if rows[i][i] != 1:
                raise ValueError("diagonal entries must be 1")
            for j in range(i + 1, n):
                m = rows[i][j]
                if m != rows[j][i]:
                    raise ValueError("Coxeter matrix must be symmetric")
                if m != INFINITY and (not isinstance(m, int) or m < 2):
                    raise ValueError(f"label m({i + 1},{j + 1}) = {m!r} must be an integer >= 2 or inf")
        self.rank = n
        self.matrix = tuple(rows)
        nn = 1
        for i in range(n):
            for j in range(i, n):
                if rows[i][j] != INFINITY:
                    nn = math.lcm(nn, int(rows[i][j]))
        self.field = field_mod.create(nn)
        # -cos(pi/m) = -(2 cos(pi/m)) / 2, and -1 for an infinite label
        f = self.field
        self.gram = tuple(tuple(
            -f.one if m == INFINITY
            else field_mod.FieldElement._make(f, [-c for c in f.two_cos(int(m)).num], 2)
            for m in row) for row in rows)
        self.parent = parent
        self.parent_indices = parent_indices
        self._cache: dict = {}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"s{i}" for i in range(1, self.rank + 1))

    def label(self, i: int, j: int) -> float:
        """Coxeter matrix entry for 1-based generators i, j."""
        return self.matrix[i - 1][j - 1]

    def memo(self, key, build):
        """The value cached under key, computed by build() on first use.

        Membership is tested with `in`, so falsy values such as False
        are cached like any other.
        """
        cache = self._cache
        if key not in cache:
            cache[key] = build()
        return cache[key]

    def __eq__(self, other) -> bool:
        return isinstance(other, CoxeterSystem) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"CoxeterSystem(rank={self.rank}, N={self.field.N})"


# ----------------------------------------------------------------- file format

def parse_system(text: str) -> CoxeterSystem:
    rank: int | None = None
    entries: dict[tuple[int, int], float] = {}
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if rank is None:
            if tokens[0] != "rank":
                raise DiagramParseError(lineno, f"expected 'rank <n>' first, got {tokens[0]!r}")
            if len(tokens) != 2:
                raise DiagramParseError(lineno, "'rank' takes exactly one argument")
            try:
                rank = int(tokens[1])
            except ValueError:
                raise DiagramParseError(lineno, f"rank must be an integer, got {tokens[1]!r}") from None
            if rank < 0:
                raise DiagramParseError(lineno, "rank must be nonnegative")
            continue
        if tokens[0] == "rank":
            raise DiagramParseError(lineno, "duplicate rank line")
        if tokens[0] != "m":
            raise DiagramParseError(lineno, f"unknown directive {tokens[0]!r}")
        if len(tokens) != 4:
            raise DiagramParseError(lineno, "'m' takes exactly three arguments: i j label")
        try:
            i, j = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise DiagramParseError(lineno, "generator indices must be integers") from None
        if not (1 <= i < j <= rank):
            raise DiagramParseError(lineno, f"need 1 <= i < j <= {rank}, got i={i}, j={j}")
        if (i, j) in entries:
            raise DiagramParseError(lineno, f"duplicate entry for pair ({i},{j})")
        if tokens[3] == "inf":
            entries[(i, j)] = INFINITY
        else:
            try:
                k = int(tokens[3])
            except ValueError:
                raise DiagramParseError(lineno, f"label must be an integer >= 2 or 'inf', got {tokens[3]!r}") from None
            if k < 2:
                raise DiagramParseError(lineno, f"label must be at least 2, got {k}")
            entries[(i, j)] = k
    if rank is None:
        raise DiagramParseError(lineno + 1, "missing 'rank' line")
    matrix = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for (i, j), m in entries.items():
        matrix[i - 1][j - 1] = matrix[j - 1][i - 1] = m
    return CoxeterSystem(matrix)


def serialize_system(sys_: CoxeterSystem) -> str:
    lines = [f"rank {sys_.rank}"]
    for i in range(sys_.rank):
        for j in range(i + 1, sys_.rank):
            m = sys_.matrix[i][j]
            if m != 2:
                lines.append(f"m {i + 1} {j + 1} {'inf' if m == INFINITY else int(m)}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- classification

def classify(sys_: CoxeterSystem) -> str:
    """One of "finite", "affine", "indefinite" for the whole system.

    Finite means the bilinear form is positive definite. Affine means
    positive semidefinite with a nontrivial kernel and an irreducible
    diagram. Everything else, including reducible semidefinite systems,
    lands in "indefinite".
    """
    return sys_.memo("classify", lambda: _classify(sys_))


def _classify(sys_: CoxeterSystem) -> str:
    kind = _definiteness(sys_, range(sys_.rank))
    if kind > 0:
        return "finite"
    return "affine" if kind == 0 and is_irreducible(sys_) else "indefinite"


def _definiteness(sys_: CoxeterSystem, idx: Sequence[int]) -> int:
    """1 when the Gram matrix on the 0-based indices idx is positive
    definite, 0 when it is positive semidefinite and singular, else -1.

    One symmetric elimination in index order, without division. With
    the remaining block [[p, b^T], [b, A]]: p < 0 is indefinite; p = 0
    forces b = 0 (else a 2x2 minor is negative) and drops the row as a
    kernel direction; p > 0 continues on p*A - b b^T, p times the Schur
    complement, so the signature is unchanged.
    """
    rows = [[sys_.gram[i][j] for j in idx] for i in idx]
    kind = 1
    while rows:
        (p, *b), *rest = rows
        sign = p.sign()
        if sign > 0:
            rows = [[p * x - bi * bj for x, bj in zip(r[1:], b)] for r, bi in zip(rest, b)]
        elif sign == 0 and all(x.is_zero() for x in b):
            kind = 0
            rows = [r[1:] for r in rest]
        else:
            return -1
    return kind


def _classes(items: Iterable, pairs: Iterable[tuple]) -> list[list]:
    """Classes of the equivalence on items generated by pairs (union-find).

    Each class lists its members in the order of items, and the classes
    come in the order of their first members.
    """
    items = list(items)
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    groups: dict = {}
    for x in items:
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def components(sys_: CoxeterSystem, gens: Iterable[int] | None = None) -> list[tuple[int, ...]]:
    """Connected components of the diagram, or of its restriction to gens,
    as sorted 1-based index tuples in order of their least member."""
    idx = _norm_subset(sys_, gens)
    edges = ((i, j) for i in idx for j in idx if i < j and sys_.label(i, j) != 2)
    return [tuple(c) for c in _classes(idx, edges)]


def is_irreducible(sys_: CoxeterSystem) -> bool:
    return len(components(sys_)) == 1


def _norm_subset(sys_: CoxeterSystem, gens: Iterable[int] | None) -> tuple[int, ...]:
    """gens sorted without repeats, each checked in range; None is every
    generator."""
    if gens is None:
        return tuple(range(1, sys_.rank + 1))
    out = tuple(sorted(set(gens)))
    for s in out:
        if not (1 <= s <= sys_.rank):
            raise ValueError(f"generator index {s} out of range 1..{sys_.rank}")
    return out


def is_spherical(sys_: CoxeterSystem, gens: Iterable[int] | None) -> bool:
    """Whether the standard parabolic on gens (None: every generator) is
    finite: whether each component of its diagram is a positive definite
    type (_positive_type)."""
    idx = _norm_subset(sys_, gens)
    return sys_.memo(("spherical", idx),
                     lambda: all(_positive_type(sys_, comp) for comp in components(sys_, idx)))


def _positive_type(sys_: CoxeterSystem, comp: tuple[int, ...]) -> bool:
    """Whether the connected diagram on comp is one of A_n, B_n, D_n,
    E_6, E_7, E_8, F_4, H_3, H_4 or I_2(m), the diagrams whose form is
    positive definite (Humphreys, Reflection Groups and Coxeter Groups,
    2.7): a tree with no label inf and none above 5 from rank 3 on; with
    every label 3, a path or one node of degree 3 whose arms p, q, r
    have 1/(p+1) + 1/(q+1) + 1/(r+1) > 1; else a path with one label 4
    at an end (B_n) or in the middle of four nodes (F_4), or one label 5
    at an end of at most four (H_3, H_4)."""
    labels = {(i, j): sys_.label(i, j) for i in comp for j in comp if i < j and sys_.label(i, j) != 2}
    n = len(comp)
    if INFINITY in labels.values():
        return False
    if n <= 2:
        return True
    if len(labels) != n - 1 or max(labels.values()) > 5:
        return False
    adjacent: dict[int, list[int]] = {v: [] for v in comp}
    for i, j in labels:
        adjacent[i].append(j)
        adjacent[j].append(i)
    branches = [v for v in comp if len(adjacent[v]) > 2]
    heavy = [edge for edge, m in labels.items() if m > 3]
    if not heavy:
        if not branches:
            return True
        if len(branches) > 1 or len(adjacent[branches[0]]) > 3:
            return False
        p, q, r = (_arm(adjacent, branches[0], v) + 1 for v in adjacent[branches[0]])
        return q * r + p * r + p * q > p * q * r
    if branches or len(heavy) > 1:
        return False
    at_end = any(len(adjacent[v]) == 1 for v in heavy[0])
    if labels[heavy[0]] == 4:
        return at_end or n == 4
    return at_end and n <= 4


def _arm(adjacent: dict[int, list[int]], start: int, v: int) -> int:
    """The number of nodes from v to the end of the path that leaves
    start through v."""
    length = 1
    while len(adjacent[v]) == 2:
        start, v = v, next(u for u in adjacent[v] if u != start)
        length += 1
    return length


def subsystem(sys_: CoxeterSystem, gens: Iterable[int]) -> CoxeterSystem:
    """Standalone system on a generator subset, with provenance.

    The result is re-indexed 1..|gens| in increasing order of the parent
    indices; parent_indices maps each new generator back. Its ground
    field is recomputed from the restricted labels, so its elements are
    not interchangeable with the parent's.
    """
    idx = _norm_subset(sys_, gens)
    sub = [[sys_.matrix[a - 1][b - 1] for b in idx] for a in idx]
    return CoxeterSystem(sub, parent=sys_, parent_indices=idx)
