"""Group elements as exact matrices in the natural reflection representation.

The generator s acts on the root-space basis by
    sigma_s(v) = v - 2 B(e_s, v) e_s,
and the representation is faithful, so equality of matrices is equality
of group elements. Every element carries a witness word evaluating to
its matrix; words from balls and from length_and_reduced are reduced,
words of products are concatenations.

Integer representation. Each generator matrix has entries 0, +-1 and
-2B(e_s, e_t) = 2cos(pi/m) (or 2 for m = inf). For m = 2 and m = 3 that
is 0 and 1, so every entry is an integer polynomial in
theta' = 2cos(pi/N'), N' the lcm of the labels >= 4 (1 when there is
none), and so is every entry of every product: all entries lie in the
working ring Z[theta'], the integer combinations of 1, theta', ...,
theta'^(d'-1), a ring because the minimal polynomial of theta' is
monic. Its degree d' is at most the degree d of the system's field
Q(theta), theta = 2cos(pi/N), and often smaller: 2 instead of 8 for
h4, 1 instead of 2 for d4t. An element is stored as one flat tuple of
ints, its key: column-major (cols[j] is the image of e_{j+1}), each
entry the d' coefficients of that entry over Z[theta'], n*n*d' ints in
all. Generator steps are integer operations precomputed per system
(_steps, _rules): w*s a column operation, s*w a row operation that
reads the same entries -2B(e_s, e_j), as B is symmetric; both apply
strided (k, l, c) terms (_terms) to the flat key. The two step
kernels, _right_key and _left_key, take a key to a key;
_right_mul_gen wraps the first with the witness word, and the values
carried along a walk (_carry) are bare keys. One
matrix-vector kernel serves everything else: _image(w, v) sums the
ints of v times the flat columns theta'^k w(e_i) of w's theta'-table
(_thetas; each is theta' times the one before, strided terms over the
whole column), so column j of a product a*b is _image(a, column j of
b), and the commutation test compares _image(a, b e_j) with
_image(b, a e_j). The theta'-table is the one cache of an element
that acts, built on first use; it creates no FieldElement.

The ring (_ring) is built once per system, on first use. A root is a
column: column j of a key is the root w(e_{j+1}), so the root,
reflection and parabolic layers read roots off keys, store each as such
a column of n*d' ints, and apply elements to them with _image. A root's
coordinates are all >= 0 or all <= 0, so its sign is the sign of its
first nonzero coordinate (_Ring.root_sign; Humphreys, Reflection Groups
and Coxeter Groups, 5.4). Keys and field columns meet in one place
only: _view embeds a flat vector into Q(theta), for the cols of an
element and the coords of a root, views built on first use for printing
and the public FieldElement interfaces. Nothing converts back: the step
operators are read off the labels, not off the Gram matrix, and a root
is built from a key column. Signs of entries stay in the ring.
theta' > 0, so every power theta'^k is positive: a block whose ints are
all >= 0 (or all <= 0) has that sign, and so has a column whose ints
all are, which _Ring.root_sign reads off min and max. Any other column
goes block by block to _Ring.sign, which is Field.sign of Q(theta'):
the same rule for a block, and a mixed block bounded between two
integers from dyadic bounds on the powers theta'^k, the field's
enclosure of theta' refined until 0 is excluded. _descent, the descent
walk and the walk decide every sign this way.

Lengths come from the greedy descent walk: s is a right descent of w
exactly when w maps e_s to a negative root, and stripping descents
lowers the length by one each time, so the walk both measures the
length and emits a canonical reduced word (least descent first). It
runs on the row y = rho^T w, rho the sum of the dual basis, n blocks of
d' ints: block s is the coordinate sum of the root w(e_s) and has its
sign, and a step w -> w*s changes only block s and the blocks adjacent
to it (length_and_reduced, _row_rules). It ends when no block is
negative, and then y = rho^T holds exactly when w is the identity.

The centralizer sweeps hold no ball: walk() visits each element of a
ball, of the whole group, of a standard parabolic W_J or of the minimal
coset representatives JW, once, depth-first over the canonical-word
tree. The parent of y is y*s for s its least right descent, so x*s is
a child of x when s is an ascent of x and no t < s is a right descent
of x*s, and the path from the identity spells the canonical reduced
word. The walk keeps a stack of at most n keys per level with their
descent masks, O(n R) keys in all. A step x -> x*s negates column s,
leaves every column not adjacent to s in the diagram as it was, and
adds a positive multiple of the positive column s to the adjacent
ones; a positive column stays positive, so only adjacent columns that
were negative have their signs decided again. The step rules are built
once per system, and each walk builds, per descent mask it meets, the
generators that pass the part of the child test the mask alone decides.
The walk of JW prunes the steps that leave it by Deodhar's test (walk).

Every enumeration of group elements runs on walk(). Breadth-first
(shortlex) order, which ball() and enumerate_group() view it in, is
_ball_order: the key of each x^-1 carried along the walk (_left_keys),
the word of x reversed, its lexicographically least reduced word, sorted
by length, then that word. Conjugation along a walk is _conjugates: the
key of u^-1 w u, one column and one row step per element. Hurwitz
orbits, subgroup closures and the conjugacy-graph spanning tree run
through closure(): it dedups by key, checks the cap before each insert
and records one parent link per member, so callers derive distances and
tree paths from the links.
The longest element w_J of a finite standard parabolic comes from one
memoized greedy ascent (_longest), the mirror of the descent walk: its
length is N_J, the number of reflections of W_J, and the prefix roots
of its word are the positive roots of W_J (roots.positive_roots).
Reflection length needs no search: it is the rank of w - 1 (Carter),
which refl reads off the matrix. Derived values are cached per system
through CoxeterSystem.memo.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from itertools import combinations
from math import lcm
from operator import add, attrgetter, mul, neg

from . import field as field_mod
from .diagram import INFINITY, CoxeterSystem, _norm_subset, is_spherical
from .errors import InvariantViolation, ResourceLimitError
from .field import FieldElement
from .record import Record

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
    "growth_series",
    "identity",
    "inverse",
    "is_straight_upto",
    "length_and_reduced",
    "multiply",
    "order_upto",
    "parse_word",
    "power",
    "power_window",
    "walk",
    "word_str",
]

DEFAULT_BALL_CAP = 5_000_000

Key = tuple
Vector = tuple[FieldElement, ...]


class GroupElement:
    """An exact matrix, stored as its integer key, plus a witness word
    that evaluates to it."""

    __slots__ = ("system", "key", "word", "_cols", "_thetas")

    def __init__(self, system: CoxeterSystem, key: Key, word: tuple[int, ...]) -> None:
        self.system = system
        self.key = key
        self.word = word
        self._cols: tuple[Vector, ...] | None = None
        self._thetas: list | None = None

    @property
    def cols(self) -> tuple[Vector, ...]:
        """The matrix as FieldElement columns, built from the key on first use."""
        if self._cols is None:
            n = self.system.rank
            entries = _view(self.system, self.key)
            self._cols = tuple(entries[j * n:(j + 1) * n] for j in range(n))
        return self._cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        same = self.system is other.system or self.system == other.system
        return same and self.key == other.key

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
    n, d = sys_.rank, _ring(sys_).degree
    key = [0] * (n * n * d)
    for j in range(n):
        key[(j * n + j) * d] = 1
    return GroupElement(sys_, tuple(key), ())


class _Ring:
    """The working ring Z[theta'] of the keys, theta' = 2cos(pi/N') with N'
    the lcm of the labels >= 4 (1 when there is none).

    Labels 2, 3 and inf give -2B(e_s, e_t) = 0, 1 and 2, integers, so every
    entry of every group element lies in Z[theta'], a subring of Z[theta]
    of degree d' = field.degree. basis holds the rows of the d x d'
    integer embedding E, whose column k is theta'^k over the power basis
    of sys_.field; it serves _view only. theta is multiplication by
    theta' on a flat column, as the terms (_terms) of its operator on
    every block at once (None when d' = 1). sign is field.sign, the
    exact sign of the element of Z[theta'] with the given coefficients,
    decided in integers by the field.
    """

    __slots__ = ("field", "degree", "basis", "theta", "sign")

    def __init__(self, sys_: CoxeterSystem) -> None:
        n_ring = 1
        for row in sys_.matrix:
            for m in row:
                if m != INFINITY and m >= 4:
                    n_ring = lcm(n_ring, m)
        self.field = field_mod.create(n_ring)
        self.degree = self.field.degree
        big = sys_.field
        theta = big.two_cos(n_ring)
        powers = [big.one]
        for _ in range(self.degree - 1):
            powers.append(powers[-1] * theta)
        self.basis = tuple(zip(*(p.num for p in powers)))
        d = self.degree
        self.theta = (_terms(_op(self, (0, 1) + (0,) * (d - 2)), d, 0, 0, sys_.rank * d, d)
                      if d > 1 else None)
        self.sign = self.field.sign

    def embed(self, block: Sequence[int]) -> tuple[int, ...]:
        """The coefficients over sys_.field of an element of Z[theta']."""
        return tuple(sum(map(mul, row, block)) for row in self.basis)

    def root_sign(self, col: Sequence[int]) -> int:
        """The sign of a root given as a flat column: that of its first
        nonzero block, as a root has all entries >= 0 or all <= 0;
        callers that must reject non-roots use roots.make_root.

        A column whose ints are all >= 0 or all <= 0 has that sign
        without a look at its blocks: each nonzero block has it.
        """
        if min(col) >= 0:
            return 1 if any(col) else 0
        if max(col) <= 0:
            return -1
        d = self.degree
        return next(self.sign(col[a:a + d]) for a in range(0, len(col), d) if any(col[a:a + d]))


def _ring(sys_: CoxeterSystem) -> _Ring:
    return sys_.memo("ring", lambda: _Ring(sys_))


def _view(sys_: CoxeterSystem, vec: Sequence[int]) -> Vector:
    """A flat vector over Z[theta'] as FieldElement entries of Q(theta)."""
    f = sys_.field
    ring = _ring(sys_)
    d = ring.degree
    return tuple(FieldElement(f, ring.embed(vec[a:a + d]), 1) for a in range(0, len(vec), d))


def _op(ring: _Ring, x: Sequence[int]):
    """Multiplication by the element of Z[theta'] with coefficients x: a
    plain int when x is rational, else the rows of its d' x d' matrix."""
    return x[0] if not any(x[1:]) else ring.field.mul_matrix(x)


def _scaled(op, vec: Sequence[int], d: int) -> list[int]:
    """op (as built by _op) applied to each d-block of a flat vector."""
    if op.__class__ is int:
        return [op * y for y in vec]
    out: list[int] = []
    for a in range(0, len(vec), d):
        block = vec[a:a + d]
        out += [sum(map(mul, row, block)) for row in op] if any(block) else block
    return out


def _terms(op, d: int, a: int, lo: int, span: int, stride: int) -> list[tuple[slice, slice, int]]:
    """The operation "the vector at flat offset a gains op times the
    vector at lo", each a run of blocks of d ints, one block every stride
    ints up to span, as terms (dst, src, c): coefficient k of every block
    of the one gains c times coefficient l of the matching block of the
    other, the strided slices a+k::stride and lo+l::stride. Columns are
    runs of adjacent blocks (stride d, span n d), rows take one block of
    each column (stride n d, span n n d). A plain int op is one term per
    coefficient, and one over the whole run for a column."""
    if op.__class__ is int:
        if stride == d:
            return [(slice(a, a + span), slice(lo, lo + span), op)]
        return [(slice(a + k, a + span, stride), slice(lo + k, lo + span, stride), op) for k in range(d)]
    return [(slice(a + k, a + span, stride), slice(lo + l, lo + span, stride), c)
            for k, row in enumerate(op) for l, c in enumerate(row) if c]


def _add_terms(out: list[int], key: Key, terms: list[tuple[slice, slice, int]]) -> None:
    """Apply terms (as built by _terms) to out, reading the sources in key."""
    for dst, src, c in terms:
        out[dst] = (map(add, out[dst], key[src]) if c == 1
                    else [x + c * y for x, y in zip(out[dst], key[src])])


def _steps(sys_: CoxeterSystem) -> tuple[int, list[list[tuple[int, object]]]]:
    """The ring degree d' and, for each generator s, the pairs (j, op)
    with op multiplication by -2B(e_s, e_j) = 2cos(pi/m), m = m(s, j),
    for j != s with m != 2: all a generator step reads, in one lookup.
    op is read off the label: 1 for m = 3, 2 for m = inf, and any other
    m divides N', so 2cos(pi/m) lies in Z[theta']."""
    def build():
        ring = _ring(sys_)
        fixed = {3: 1, INFINITY: 2}
        return ring.degree, [
            [(j, fixed[m] if m in fixed else _op(ring, ring.field.two_cos(m).num))
             for j, m in enumerate(row) if j != s and m != 2]
            for s, row in enumerate(sys_.matrix)
        ]
    return sys_.memo("steps", build)


def _rules(sys_: CoxeterSystem) -> tuple[int, list[tuple], list[tuple]]:
    """The step rules of a system, built once on first use: nd = n d'
    and, per generator s (0-based), the right and the left rule.

    Right, w -> w*s, a column operation: (s, its bit, the mask of the
    columns the step leaves alone, the slice of column s, and per
    adjacent column j the tuple (offset of j, bit of j, its terms)).
    Left, w -> s*w, a row operation: sigma_s differs from the identity
    in row s only, (-2B(e_s, e_j))_j with -1 at s, so row s of s*w is
    minus row s of w plus -2B(e_s, e_j) times row j, the right rule's
    operations read across rows, as B is symmetric: (the slices of
    row s, its terms).
    """
    def build():
        d, steps = _steps(sys_)
        n = sys_.rank
        nd = n * d
        right, left = [], []
        for s0, row in enumerate(steps):
            lo = s0 * nd
            touched = 1 << s0
            ops, row_terms = [], []
            for j, op in row:
                touched |= 1 << j
                ops.append((j * nd, 1 << j, _terms(op, d, j * nd, lo, nd, d)))
                row_terms += _terms(op, d, s0 * d, j * d, n * nd, nd)
            right.append((s0, 1 << s0, ~touched, slice(lo, lo + nd), ops))
            left.append(([slice(s0 * d + k, n * nd, nd) for k in range(d)], row_terms))
        return nd, right, left
    return sys_.memo("rules", build)


def generator(sys_: CoxeterSystem, s: int) -> GroupElement:
    """The simple reflection sigma_s, 1-based."""
    if not (1 <= s <= sys_.rank):
        raise ValueError(f"generator index {s} out of range 1..{sys_.rank}")
    gens = sys_.memo("generators", lambda: [
        _right_mul_gen(identity(sys_), t) for t in range(1, sys_.rank + 1)
    ])
    return gens[s - 1]


def _right_key(sys_: CoxeterSystem, key: Key, s: int) -> Key:
    """The key of w * sigma_s from the key of w: column j gains
    -2B(e_s, e_j) times column s, then column s changes sign; integer
    column operations only."""
    _, _, _, col_s, ops = _rules(sys_)[1][s - 1]
    out = list(key)
    for _, _, terms in ops:
        _add_terms(out, key, terms)
    out[col_s] = map(neg, key[col_s])
    return tuple(out)


def _left_key(sys_: CoxeterSystem, key: Key, s: int) -> Key:
    """The key of sigma_s * w from the key of w: row s changes sign and
    gains -2B(e_s, e_j) times row j; integer row operations only."""
    row_s, terms = _rules(sys_)[2][s - 1]
    out = list(key)
    for part in row_s:
        out[part] = map(neg, key[part])
    _add_terms(out, key, terms)
    return tuple(out)


def _right_mul_gen(w: GroupElement, s: int) -> GroupElement:
    """w * sigma_s, carrying the witness word w.word + (s,)."""
    return GroupElement(w.system, _right_key(w.system, w.key, s), w.word + (s,))


def from_word(sys_: CoxeterSystem, word: Iterable[int]) -> GroupElement:
    w = identity(sys_)
    for s in word:
        if not (1 <= s <= sys_.rank):
            raise ValueError(f"generator index {s} out of range 1..{sys_.rank}")
        w = _right_mul_gen(w, s)
    return w


def _column(w: GroupElement, s: int) -> Key:
    """Column s (1-based) of the key of w: the root w(e_s)."""
    nd = len(w.key) // w.system.rank
    return w.key[(s - 1) * nd:s * nd]


def _thetas(w: GroupElement) -> list:
    """The theta'-table of w: per flat index i*d + k, the flat column
    theta'^k w(e_i). Built on first use and cached on w, so an element
    that acts on many vectors, a memoized reflection say, builds it once."""
    if w._thetas is None:
        ring = _ring(w.system)
        n, d = w.system.rank, ring.degree
        nd = n * d
        table = []
        for j in range(n):
            col = w.key[j * nd:(j + 1) * nd]
            table.append(col)
            for _ in range(d - 1):
                nxt = [0] * nd
                _add_terms(nxt, col, ring.theta)
                col = nxt
                table.append(col)
        w._thetas = table
    return w._thetas


def _image(w: GroupElement, vec: Sequence[int]) -> list[int]:
    """w applied to a flat integer vector: the sum over its coefficients
    x at flat index i*d + k of x times theta'^k w(e_i)."""
    acc: list[int] = []
    for x, col in zip(vec, _thetas(w)):
        if x:
            acc = [p + x * y for p, y in zip(acc, col)] if acc else [x * y for y in col]
    return acc


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """The product a*b: column j is a applied to column j of b."""
    if a.system is not b.system and a.system != b.system:
        raise ValueError("elements of different systems cannot be multiplied")
    n = b.system.rank
    nd = n * _ring(b.system).degree
    key: list[int] = []
    for j in range(n):
        key += _image(a, b.key[j * nd:(j + 1) * nd])
    return GroupElement(a.system, tuple(key), a.word + b.word)


def inverse(w: GroupElement) -> GroupElement:
    """The inverse, built from the reversed witness word."""
    return from_word(w.system, reversed(w.word))


def power(w: GroupElement, k: int) -> GroupElement:
    base = w if k >= 0 else inverse(w)
    out = identity(w.system)
    for _ in range(abs(k)):
        out = multiply(base, out)
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

def _descent(w: GroupElement) -> int | None:
    """Least right descent of w, or None for the identity.

    s is a right descent exactly when column s, the root w(e_s), is
    negative: when its first nonzero entry is.
    """
    ring = _ring(w.system)
    for s in range(1, w.system.rank + 1):
        if ring.root_sign(_column(w, s)) < 0:
            return s
    return None


def _row_rules(sys_: CoxeterSystem) -> tuple[tuple[int, ...], list[tuple]]:
    """The step w -> w*s read on the row y = rho^T w, built once per
    system on first use: the row rho^T of the identity, (1, 0, ..., 0) in
    every block, and per generator s (0-based) the slice of block s and,
    per j adjacent to s, (the bit of j, the slice of block j, the terms
    (a, b, c) of "block j gains -2B(e_s, e_j) times block s": y[a]
    gains c y[b]). Column j of w*s gains that multiple of column s, so
    its coordinate sum, block j of y, gains it of block s; block s
    changes sign."""
    def build():
        d, steps = _steps(sys_)
        rules = []
        for s0, row in enumerate(steps):
            ops = []
            for j, op in row:
                terms = ([(j * d + k, s0 * d + k, op) for k in range(d)] if op.__class__ is int
                         else [(j * d + k, s0 * d + l, c)
                               for k, r in enumerate(op) for l, c in enumerate(r) if c])
                ops.append((1 << j, slice(j * d, j * d + d), terms))
            rules.append((slice(s0 * d, s0 * d + d), ops))
        return tuple(([1] + [0] * (d - 1)) * sys_.rank), rules
    return sys_.memo("row rules", build)


def length_and_reduced(w: GroupElement) -> tuple[int, tuple[int, ...]]:
    """Length of w and its canonical reduced word (greedy least descent).

    Works from the matrix alone, so any witness word, reduced or not,
    gives the same answer. _descent gives the first descent; the walk
    then reads descents off the row y = rho^T w, rho the sum of the
    dual basis (Humphreys, Reflection Groups and Coxeter Groups, 5.4,
    5.13): block s of y, the sum of the blocks of column s, is the
    coordinate sum of the root w(e_s), so it has that root's sign, and
    s is a right descent exactly when it is negative. Stripping s adds
    -2B(e_s, e_j) y_s to each block j adjacent to s and negates y_s
    (_row_rules), n d' ints a step and no element. y_s < 0, so a
    negative block stays negative and only the positive adjacent blocks
    have their signs decided again. When no block is negative, y must
    be rho^T: rho lies inside the fundamental chamber of the dual
    action, so rho^T w = rho^T only for w = e.
    """
    s = _descent(w)
    sys_ = w.system
    if s is None:
        if w.key != identity(sys_).key:
            raise InvariantViolation("non-identity element with no descent")
        return 0, ()
    ring = _ring(sys_)
    d = ring.degree
    rho, rules = _row_rules(sys_)
    key = w.key
    nd = len(key) // sys_.rank
    y = [sum(key[a + k:a + nd:d]) for a in range(0, len(key), nd) for k in range(d)]
    # the descent mask; no block below s is negative, as no column is
    descents = 1 << s - 1
    for j in range(s, sys_.rank):
        if ring.sign(y[j * d:j * d + d]) < 0:
            descents |= 1 << j
    letters: list[int] = []
    max_iter = len(w.word) if w.word else 100_000
    while descents:
        s0 = (descents & -descents).bit_length() - 1
        letters.append(s0 + 1)
        if len(letters) > max_iter:
            raise InvariantViolation("descent walk did not terminate within its bound")
        block_s, ops = rules[s0]
        for bit, block_j, terms in ops:
            for a, b, c in terms:
                y[a] += c * y[b]
            if not descents & bit and ring.sign(y[block_j]) < 0:
                descents |= bit
        y[block_s] = map(neg, y[block_s])
        descents ^= 1 << s0
    if tuple(y) != rho:
        raise InvariantViolation("non-identity element with no descent")
    return len(letters), tuple(reversed(letters))


def _longest(sys_: CoxeterSystem, gens: Iterable[int]) -> GroupElement:
    """The longest element w_J of the finite standard parabolic W_J on
    gens, by greedy ascent: step the least generator of J still sent to a
    positive root until there is none. Each step adds one to the length,
    so the word has N_J letters, one per reflection of W_J, and its prefix
    roots are the positive roots of W_J (Humphreys 1.8, 5.6). Memoized per
    subset; the caller knows W_J is finite: on an infinite one the ascent
    never stops."""
    idx = _norm_subset(sys_, gens)

    def build() -> GroupElement:
        ring = _ring(sys_)
        w = identity(sys_)
        while True:
            ascent = next((s for s in idx if ring.root_sign(_column(w, s)) > 0), None)
            if ascent is None:
                return w
            w = _right_mul_gen(w, ascent)

    return sys_.memo(("w0", idx), build)


def canonical(w: GroupElement) -> GroupElement:
    """The same element carrying its canonical reduced word."""
    _, word = length_and_reduced(w)
    return GroupElement(w.system, w.key, word)


# ---------------------------------------------------------- the closure engine

def closure(
    seeds: Iterable,
    step: Callable[[object], Iterable[tuple[object, object]]],
    cap: int,
    key: Callable[[object], Hashable] = attrgetter("key"),
    overflow: str = "closure exceeded the cap of {cap}",
) -> tuple[dict, dict]:
    """Breadth-first closure of seeds under step, layer by layer.

    step(x) yields (label, y) pairs; y joins unless its key(y) is already
    a member. Returns (members, parent): members maps each key to its
    item in insertion order (seeds first, then BFS layers); parent maps
    each key to (parent key, label), None at a seed. Inserting more than
    cap members, seeds included, raises ResourceLimitError with overflow
    formatted by cap.
    """
    members: dict = {}
    parent: dict = {}
    for x in seeds:
        k = key(x)
        if k not in members:
            if len(members) >= cap:
                raise ResourceLimitError(overflow.format(cap=cap))
            members[k] = x
            parent[k] = None
    frontier = list(members.values())
    while frontier:
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
    return members, parent


# ------------------------------------------------------------------- the ball

class Ball(Record):
    """All elements of length <= radius, BFS order, reduced witness words.

    members maps the matrix key to the element; parent maps each key to
    (parent key, letter) along the BFS tree, None at the identity. When
    complete is True no element has length radius, so the members are
    the whole group generated by gens.
    """

    system: CoxeterSystem
    radius: int | None
    gens: tuple[int, ...]
    members: dict
    parent: dict
    complete: bool = False

    def __repr__(self) -> str:
        # members and parent can hold the whole group
        return (
            f"Ball(system={self.system!r}, radius={self.radius!r},"
            f" gens={self.gens!r}, complete={self.complete!r})"
        )

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
    """The ball as a view of the walk, in its order (_ball_order). The
    parent of an element is its word without the last letter."""
    found = _ball_order(sys_, walk(sys_, radius, cap, gens))
    members = {w.key: w for w in found}
    keys = {w.word: w.key for w in found}
    parent = {w.key: (keys[w.word[:-1]], w.word[-1]) if w.word else None for w in found}
    complete = radius is None or len(found[-1].word) < radius
    return Ball(sys_, radius, gens, members, parent, complete)


def _cached_ball(sys_: CoxeterSystem, gens: Iterable[int] | None, radius: int | None, cap: int) -> Ball:
    """The memoized ball; radius None is the whole group, keyed as "enum"."""
    gens_t = _norm_subset(sys_, gens)
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

    The ball with no radius bound; an infinite group hits the cap of
    the walk and raises ResourceLimitError.
    """
    return _cached_ball(sys_, gens, None, cap)


# ------------------------------------------------------------------- the walk

def _is_child(descents: int, s0: int) -> bool:
    """Whether generator s0 (0-based), a right descent of y, is its least
    one: no bit below s0 is set in the descent mask of y."""
    return not descents & ((1 << s0) - 1)


def _still_negative(ring: _Ring, col: Sequence[int]) -> bool:
    """Whether a column that was negative before a step adjacent to it
    still is; the step changed it, so its sign is decided again."""
    return ring.root_sign(col) < 0


def _coset_units(sys_: CoxeterSystem, coset: Iterable[int]) -> set[Key]:
    """The unit columns e_s, s in coset, as flat columns: the prune of a
    walk of minimal coset representatives."""
    return {_column(identity(sys_), s) for s in coset}


def walk(
    sys_: CoxeterSystem,
    radius: int | None = None,
    cap: int | None = None,
    gens: Iterable[int] | None = None,
    coset: Iterable[int] | None = None,
) -> Iterator[GroupElement]:
    """Every element of length <= radius, or of the whole group when
    radius is None, once each, carrying its canonical reduced word.

    The walk runs depth-first over the canonical-word tree, in which
    the parent of y is y*s for s the least right descent of y; the path
    from the identity spells the word length_and_reduced returns. The
    order is the walk's own, not the ball's. Visiting more than cap
    elements (DEFAULT_BALL_CAP when None) raises ResourceLimitError
    naming the depth and the count reached.

    gens restricts the steps to those generators, so the walk covers the
    standard parabolic W_gens: its elements have their descents in gens.
    gens and coset are read as sets (diagram._norm_subset): their order
    and repeats do not matter. coset = J keeps only the minimal
    representatives of the cosets W_J x, the x with no left descent in
    J. They are closed under prefixes, and by Deodhar's lemma an ascent
    t of such an x leads out of them exactly when x t x^-1 lies in J,
    that is when column t of x, the root x(e_t), is a unit column e_s
    with s in J (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4);
    the walk prunes those steps, and every element below them keeps
    that left descent.

    The step rules are built once per system (_rules), and per walk,
    per descent mask it meets, the generators s that are ascents of x
    and pass the child test on the descents x*s inherits; only those
    are tried on x.
    """
    if radius is not None and radius < 0:
        raise ValueError("radius must be nonnegative")
    if cap is None:
        cap = DEFAULT_BALL_CAP
    ring = _ring(sys_)
    nd, rules, _ = _rules(sys_)
    if gens is not None:
        keep_gens = _norm_subset(sys_, gens)
        rules = [rule for rule in rules if rule[0] + 1 in keep_gens]
    units = _coset_units(sys_, _norm_subset(sys_, coset)) if coset is not None else set()
    # descent mask -> the rules whose s passes the inherited part of the
    # child test, built for the masks the walk meets
    candidates: dict = {}
    stack = [(identity(sys_).key, 0, ())]
    count = deepest = 0
    while stack:
        key, descents, word = stack.pop()
        if count >= cap:
            raise ResourceLimitError(
                f"ball enumeration exceeded the cap of {cap} elements"
                f" (reached depth {deepest} after {count} elements)"
            )
        count += 1
        depth = len(word)
        if depth > deepest:
            deepest = depth
        yield GroupElement(sys_, key, word)
        if depth == radius:
            continue
        todo = candidates.get(descents)
        if todo is None:
            # x*s is a child of x when s is an ascent of x and no t < s
            # is a descent of x*s; columns away from s keep their signs
            todo = candidates[descents] = [
                rule for rule in rules
                if not descents & rule[1] and _is_child(descents & rule[2], rule[0])
            ]
        for s0, bit, keep, col_s, ops in todo:
            if units and key[col_s] in units:
                continue
            out = list(key)
            mask = descents & keep | bit
            for a, jbit, terms in ops:
                _add_terms(out, key, terms)
                # a positive column plus a positive multiple of the
                # positive column s stays positive
                if descents & jbit and _still_negative(ring, out[a:a + nd]):
                    mask |= jbit
                    if not _is_child(mask, s0):
                        break
            else:
                out[col_s] = map(neg, key[col_s])
                stack.append((tuple(out), mask, word + (s0 + 1,)))


def _carry(elements: Iterable[GroupElement], start, step: Callable) -> Iterator[tuple]:
    """Each element x of a walk with a value carried from its parent:
    start at the identity, step(value at x', s) at x = x' s. The walk is
    depth-first, so the value kept at depth l(x) - 1 is the parent's."""
    values = [start]
    for x in elements:
        depth = len(x.word)
        if depth:
            values[depth:] = [step(values[depth - 1], x.word[-1])]
        yield x, values[depth]


def _left_keys(
    sys_: CoxeterSystem, elements: Iterable[GroupElement], start: Key
) -> Iterator[tuple]:
    """Each element x of a walk, paired with the key of x^-1 a, for a the
    element whose key is start: x^-1 a = s x'^-1 a for x = x' s, one row
    operation (_left_key) each."""
    return _carry(elements, start, lambda key, s: _left_key(sys_, key, s))


def _ball_order(sys_: CoxeterSystem, elements: Iterable[GroupElement]) -> list[GroupElement]:
    """The inverses of a walk's elements in breadth-first (shortlex)
    order: by length, then by word. Each x^-1 carries the walked word of
    x reversed, its lexicographically least reduced word, and its key
    from _left_keys."""
    return sorted(
        (GroupElement(sys_, key, x.word[::-1])
         for x, key in _left_keys(sys_, elements, identity(sys_).key)),
        key=lambda w: (len(w.word), w.word),
    )


def _conjugate_key(sys_: CoxeterSystem, key: Key, s: int) -> Key:
    """The key of s x s from the key of x: a column operation and a row
    operation."""
    return _left_key(sys_, _right_key(sys_, key, s), s)


def _conjugates(
    sys_: CoxeterSystem, elements: Iterable[GroupElement], w: GroupElement
) -> Iterator[tuple]:
    """Each element u of a walk, with the key of u^-1 w u, carried from
    the parent u' = u s (_carry): u^-1 w u = s (u'^-1 w u') s."""
    return _carry(elements, w.key, lambda key, s: _conjugate_key(sys_, key, s))


def _series_inverse(a: Sequence[int], degree: int) -> list[int]:
    """1/a up to t^degree, for an integer power series a with a[0] = 1."""
    out = [1] + [0] * degree
    for k in range(1, degree + 1):
        out[k] = -sum(a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1))
    return out


def growth_series(sys_: CoxeterSystem, radius: int) -> list[int]:
    """The number of elements of each length 0..radius of an infinite
    group, without visiting the ball, by Steinberg's formula

        1 / W(t) = sum over I with W_I finite of (-1)^|I| t^N_I / W_I(t)

    (Humphreys, Reflection Groups and Coxeter Groups, 5.12), N_I the
    number of reflections of W_I, the length of its longest element
    (_longest).
    Only the I with N_I <= radius add below t^(radius + 1), and a
    superset of any other I is infinite or has more reflections, so the
    subsets grow one generator at a time from those that add. Each
    W_I(t), the length distribution of W_I, is read off walk(gens=I),
    and W_I lies in the ball: N_I <= radius.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if is_spherical(sys_, range(1, sys_.rank + 1)):
        raise ValueError("the growth series counts the ball of an infinite group")
    inverse_series = [0] * (radius + 1)
    layer: list[tuple[int, ...]] = [()]
    while layer:
        adds = set()
        for gens in layer:
            if gens and not is_spherical(sys_, gens):
                continue
            top = len(_longest(sys_, gens).word)
            if top > radius:
                continue
            adds.add(gens)
            lengths = [0] * (top + 1)
            for u in walk(sys_, gens=gens):
                lengths[len(u.word)] += 1
            sign = -1 if len(gens) % 2 else 1
            for k, x in enumerate(_series_inverse(lengths, radius - top)):
                inverse_series[top + k] += sign * x
        size = len(layer[0]) + 1
        layer = [grown for grown in combinations(range(1, sys_.rank + 1), size)
                 if all(sub in adds for sub in combinations(grown, size - 1))]
    return _series_inverse(inverse_series, radius)


# ------------------------------------------------------------- power probes

def is_straight_upto(w: GroupElement, max_power: int) -> bool:
    """Whether l(w^m) = m * l(w) holds for m = 1..max_power."""
    if max_power < 1:
        raise ValueError("power bound must be at least 1")
    l1 = length_and_reduced(w)[0]
    p = w
    for m in range(1, max_power + 1):
        if m > 1:
            p = multiply(w, p)
        if length_and_reduced(p)[0] != m * l1:
            return False
    return True


def power_window(w: GroupElement, bound: int, signed: bool = True) -> dict:
    """The powers w^k with |k| <= bound, keyed by matrix.

    Exponents are taken in the order 0, 1, -1, 2, -2, ..., or 0, 1, 2,
    ... without signed; each key maps to (k, w^k) for the first k that
    reaches it, and the dict keeps that order. The window stops early
    when w^k is the identity: every later power repeats an earlier one,
    so the table is the same, and it holds one key per element of the
    cyclic group <w>. Each power is w (or w^-1) times the last, so every
    product reads the theta'-table cached on that fixed factor.
    """
    fwd = bwd = identity(w.system)
    idkey = fwd.key
    table = {idkey: (0, fwd)}
    winv = inverse(w) if signed else None
    for k in range(1, bound + 1):
        fwd = multiply(w, fwd)
        if fwd.key == idkey:
            break
        table.setdefault(fwd.key, (k, fwd))
        if signed:
            bwd = multiply(winv, bwd)
            table.setdefault(bwd.key, (-k, bwd))
    return table


def order_upto(w: GroupElement, max_power: int) -> int | None:
    """The order of w if it is at most max_power, else None: the window
    holds one key per power of w up to the order, or max_power + 1."""
    n = len(power_window(w, max_power, signed=False))
    return n if n <= max_power else None
