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

Cache rule: every value derived from a system and kept for reuse, in any
module, goes through CoxeterSystem.memo, which builds it on first use
and stores it in the system's single _cache dict under an explicit key.
Nothing is evicted; the cache lives as long as the system does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from . import field as field_mod
from .errors import DiagramParseError
from .field import Field, FieldElement

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
        minus_half = Fraction(-1, 2)
        gram = []
        for i in range(n):
            row = []
            for j in range(n):
                m = rows[i][j]
                if m == INFINITY:
                    row.append(self.field.from_rational(-1))
                else:
                    row.append(self.field.two_cos(int(m)) * minus_half)
            gram.append(tuple(row))
        self.gram = tuple(gram)
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

def _det(rows: list[list[FieldElement]]) -> FieldElement:
    """Determinant by fraction-free-ish Gaussian elimination, exact."""
    n = len(rows)
    if n == 0:
        return field_mod.create(1).one
    f = rows[0][0].field
    det = f.one
    rows = [list(r) for r in rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if pivot is None:
            return f.zero
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        p = rows[col][col]
        det = det * p
        inv = p.inverse()
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor.is_zero():
                continue
            for c in range(col + 1, n):
                rows[r][c] = rows[r][c] - factor * rows[col][c]
    return det


def _principal_minor(sys_: CoxeterSystem, idx: Sequence[int]) -> FieldElement:
    return _det([[sys_.gram[i][j] for j in idx] for i in idx])


def classify(sys_: CoxeterSystem) -> str:
    """One of "finite", "affine", "indefinite" for the whole system.

    Finite means the bilinear form is positive definite (all leading
    principal minors positive). Affine means positive semidefinite with a
    nontrivial kernel and an irreducible diagram. Everything else,
    including reducible semidefinite systems, lands in "indefinite".
    """
    return sys_.memo("classify", lambda: _classify(sys_))


def _classify(sys_: CoxeterSystem) -> str:
    n = sys_.rank
    if n == 0:
        return "finite"
    if all(_principal_minor(sys_, list(range(k + 1))).sign() > 0 for k in range(n)):
        return "finite"
    # positive semidefinite iff every principal minor is >= 0
    subsets: list[list[int]] = [[]]
    for i in range(n):
        subsets += [s + [i] for s in subsets]
    for s in sorted((s for s in subsets if s), key=len):
        if _principal_minor(sys_, s).sign() < 0:
            return "indefinite"
    return "affine" if is_irreducible(sys_) else "indefinite"


def components(sys_: CoxeterSystem) -> list[tuple[int, ...]]:
    """Connected components of the diagram as sorted 1-based index tuples."""
    n = sys_.rank
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if sys_.matrix[i][j] != 2:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i + 1)
    return sorted((tuple(g) for g in groups.values()), key=lambda t: t[0])


def is_irreducible(sys_: CoxeterSystem) -> bool:
    return len(components(sys_)) == 1


def _norm_subset(sys_: CoxeterSystem, gens: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(gens)))
    for s in out:
        if not (1 <= s <= sys_.rank):
            raise ValueError(f"generator index {s} out of range 1..{sys_.rank}")
    return out


def is_spherical(sys_: CoxeterSystem, gens: Iterable[int]) -> bool:
    """Whether the standard parabolic on gens is finite."""
    idx = _norm_subset(sys_, gens)
    if not idx:
        return True
    return sys_.memo(("spherical", idx), lambda: classify(subsystem(sys_, idx)) == "finite")


def subsystem(sys_: CoxeterSystem, gens: Iterable[int]) -> CoxeterSystem:
    """Standalone system on a generator subset, with provenance.

    The result is re-indexed 1..|gens| in increasing order of the parent
    indices; parent_indices maps each new generator back. Its ground
    field is recomputed from the restricted labels, so its elements are
    not interchangeable with the parent's.
    """
    idx = sorted(set(gens))
    for i in idx:
        if not (1 <= i <= sys_.rank):
            raise ValueError(f"generator {i} out of range 1..{sys_.rank}")
    sub = [[sys_.matrix[a - 1][b - 1] for b in idx] for a in idx]
    return CoxeterSystem(sub, parent=sys_, parent_indices=tuple(idx))
