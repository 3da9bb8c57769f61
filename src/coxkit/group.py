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
reads the same entries -2B(e_s, e_j), as B is symmetric; both are
strided (k, l, c) terms (_terms) on the flat key. _right_key applies
the column terms to a tuple key, and _right_mul_gen wraps it with the
witness word. One matrix-vector kernel serves the roots: _image(w, v)
sums the ints of v times the flat columns theta'^k w(e_i) of w's
theta'-table (_thetas: the packed powers theta'^k w of _Lanes.thetas,
unpacked, or at d' = 1 the columns of the key), built on first use and
cached on w; it creates no FieldElement. Products of elements, the
commutation test and theta' itself run on packed keys.

Packed keys. The sweeps and every product run on keys packed into one
int each (_Lanes, one per system, _packer): entry i of the flat key is
lane i, a signed integer in bits bits, in the same column-major order.
A step adds products of lanes cut out of the key with constants
compiled from the same rules, so one generator step is a few big-int
shifts, masks, adds and multiplies. The one product kernel,
_Lanes.multiply, behind multiply and the commutation test, is n d'
big-int products: per row i of b and theta' power l, coefficient l of
that row, cut out for every column at once, times column i of
theta'^l a. The row rho^T w is one product, a row times a key one
product per theta' coefficient, and theta' a lane shift with the top
lane reduced through the minimal polynomial. Lanes are read through a
bias of 2^(bits-1) per lane, so a biased lane's top bit is set exactly
when its int is >= 0. Every packed value passes a two-operation overflow
check against a room of 2^room per lane, which leaves every kernel
the headroom it needs, so no lane wraps silently. A trip raises
_LaneOverflow. In a walk, whether of a key walk() steps, of a value it
carries or of one its consumer computes, it ends the run: _widening,
around every walk in the package, makes the system's packer one with
lanes twice as wide and runs it again, so a run takes every packed
value from one packer; past MAX_LANE_BITS, as a walk's entries can grow
without end, that raises ResourceLimitError. A product is a run of its
own on two finite keys (_paired): it reruns on lanes twice as wide
until its values fit, past MAX_LANE_BITS if it must, and packs an
operand from other lanes again from its tuple key. The width starts at
_lane_bits, 16 bits for a finite W (its key entries are root
coordinates, its rows root heights) and 32 for any other; it is never
an option, and a trip changes the speed, never a result. An element a
walk makes unpacks its tuple key on its first read of key, and a
product comes with both, so the tuple layers (roots, refl, parabolic,
printing) see the same keys, and _carried_keys hands them carried keys
as tuples.

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
runs on the row y = rho^T w (_row), rho the sum of the dual basis, n
blocks of d' ints: block s is the coordinate sum of the root w(e_s) and
has its sign, and a step w -> w*s changes only block s and the blocks
adjacent to it (length_and_reduced, _row_rules). It ends when no block
is negative, and then y = rho^T holds exactly when w is the identity:
the row determines w, which is also why the join hashes it.

The centralizer sweeps hold no ball: walk() visits each element of a
ball, of the whole group, of a standard parabolic W_J or of the minimal
coset representatives JW, once, depth-first over the canonical-word
tree. The parent of y is y*s for s its least right descent, so x*s is
a child of x when s is an ascent of x and no t < s is a right descent
of x*s, and the path from the identity spells the canonical reduced
word. The walk keeps a stack of at most n packed keys per level with
their descent masks, O(n R) keys in all. A step x -> x*s negates
column s, leaves every column not adjacent to s in the diagram as it
was, and adds a positive multiple of the positive column s to the
adjacent ones; a positive column stays positive, so only adjacent
columns that were negative have their signs decided again, from the
bias bits of their lanes (_still_negative). The step rules are built
once per system, and each walk builds, per descent mask it meets, the
generators that pass the part of the child test the mask alone decides.
The walk of JW prunes the steps that leave it by Deodhar's test (walk).

Every enumeration of group elements runs on walk(). It carries a
packed value from each element to its children when asked (carry):
the key of x^-1 by a row step (_Lanes.left_step), or of u^-1 w u by a
column and a row step (_Lanes.conjugate_step), one per element.
Breadth-first (shortlex) order, which ball() and enumerate_group()
view it in, is _ball_order: each x^-1 with that carried key and the
word of x reversed, its lexicographically least reduced word, sorted
by length, then that word, next to the walked x. Hurwitz orbits, subgroup closures and the
conjugacy-graph spanning tree run through closure(): it dedups by key,
checks the cap before each insert and records one parent link per
member, so callers derive distances and tree paths from the links.
The longest element w_J of a finite standard parabolic comes from one
memoized greedy ascent (_longest), the mirror of the descent walk: its
length is N_J, the number of reflections of W_J, and the prefix roots
of its word are the positive roots of W_J (roots.positive_roots).
Reflection length needs no search: it is the rank of w - 1 (Carter),
which refl reads off the matrix. Derived values are cached per system
through CoxeterSystem.memo.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from itertools import combinations
from math import lcm
from operator import add, attrgetter, lshift, mul, neg

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
    "word_str",
]

DEFAULT_BALL_CAP = 5_000_000
# the widest lanes a packed key may grow to (_widening)
MAX_LANE_BITS = 4096

Key = tuple
Vector = tuple[FieldElement, ...]


class GroupElement:
    """An exact matrix, stored as its integer key, plus a witness word
    that evaluates to it. An element a walk made holds its key packed
    (lanes, a _Lanes of its system) and unpacks the tuple key on its
    first read; one made from a tuple key has no lanes until a product
    packs it, and then keeps that packed key too (_Lanes.of), as a
    product keeps its own."""

    __slots__ = ("system", "_key", "word", "_cols", "_thetas", "_lanes", "_packed")

    def __init__(self, system: CoxeterSystem, key: Key | int, word: tuple[int, ...],
                 lanes: _Lanes | None = None) -> None:
        self.system = system
        if lanes is None:
            self._key, self._lanes = key, None
        else:
            self._key, self._lanes, self._packed = None, lanes, key
        self.word = word
        self._cols: tuple[Vector, ...] | None = None
        self._thetas: list | None = None

    @property
    def key(self) -> Key:
        """The tuple key, unpacked from the packed key on first read."""
        if self._key is None:
            self._key = self._lanes.unpack(self._packed)
        return self._key

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
    of sys_.field; it serves _view only. sign is field.sign, the
    exact sign of the element of Z[theta'] with the given coefficients,
    decided in integers by the field.
    """

    __slots__ = ("field", "degree", "basis", "sign")

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
    theta'^k w(e_i), what _image reads. The powers theta'^k w are the
    packed ones of _Lanes.thetas, a run of their own (_paired), unpacked;
    at d' = 1 the table is the columns of the key. Built on first use
    and cached on w, so an element that acts on many roots, a memoized
    reflection or a power of c in an orbit, builds it once."""
    if w._thetas is None:
        n, d = w.system.rank, _ring(w.system).degree
        if d == 1:
            powers = [w.key]
        else:
            lanes, packed = _paired(w, w, lambda lanes, x, _: lanes.thetas(x))
            powers = [lanes.unpack(x) for x in packed]
        nd = n * d
        w._thetas = [power[a:a + nd] for a in range(0, n * nd, nd) for power in powers]
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
    """The product a*b, on packed keys (_Lanes.multiply, a run of its
    own: _paired). Every caller reads its key, so it comes unpacked,
    and keeps its packed key for the next product."""
    if a.system is not b.system and a.system != b.system:
        raise ValueError("elements of different systems cannot be multiplied")
    lanes, packed = _paired(a, b, _Lanes.multiply)
    out = GroupElement(a.system, lanes.unpack(packed), a.word + b.word)
    out._lanes, out._packed = lanes, packed
    return out


def _paired(a: GroupElement, b: GroupElement, run: Callable) -> tuple[_Lanes, object]:
    """run(lanes, x, y) on the packed keys x and y of a and b (_Lanes.of),
    and the lanes it ran on: the widest of the system's packer and the
    lanes of a and b, so a chain of products stays in the lanes its last
    one took. A trip reruns it on lanes twice as wide (_width), past
    MAX_LANE_BITS if it must: two finite keys always fit."""
    lanes = _packer(a.system)
    for held in (a._lanes, b._lanes):
        if held is not None and held.bits > lanes.bits:
            lanes = held
    while True:
        try:
            return lanes, run(lanes, lanes.of(a), lanes.of(b))
        except _LaneOverflow:
            lanes = _width(a.system, 2 * lanes.bits)


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


def _row_rules(sys_: CoxeterSystem) -> tuple[tuple[int, ...], list[tuple], list[slice]]:
    """The step w -> w*s read on the row y = rho^T w, built once per
    system on first use: the row rho^T of the identity, (1, 0, ..., 0) in
    every block, and per generator s (0-based) the slice of block s and,
    per j adjacent to s, (the bit of j, the slice of block j, the terms
    (a, b, c) of "block j gains -2B(e_s, e_j) times block s": y[a]
    gains c y[b]). Column j of w*s gains that multiple of column s, so
    its coordinate sum, block j of y, gains it of block s; block s
    changes sign. Last, per flat index j*d' + l of a row, the slice of a
    key holding coefficient l of the n entries of column j."""
    def build():
        d, steps = _steps(sys_)
        nd = sys_.rank * d
        parts = [slice(a + l, a + nd, d) for a in range(0, sys_.rank * nd, nd) for l in range(d)]
        rules = []
        for s0, row in enumerate(steps):
            ops = []
            for j, op in row:
                terms = ([(j * d + k, s0 * d + k, op) for k in range(d)] if op.__class__ is int
                         else [(j * d + k, s0 * d + l, c)
                               for k, r in enumerate(op) for l, c in enumerate(r) if c])
                ops.append((1 << j, slice(j * d, j * d + d), terms))
            rules.append((slice(s0 * d, s0 * d + d), ops))
        return tuple(([1] + [0] * (d - 1)) * sys_.rank), rules, parts
    return sys_.memo("row rules", build)


def _row(sys_: CoxeterSystem, key: Key) -> Key:
    """The row rho^T w of the key of w, block j the sum of the blocks of
    column j. It determines w: rho lies in the open fundamental chamber,
    on whose chambers W acts simply transitively (Humphreys 5.13)."""
    return tuple([sum(key[part]) for part in _row_rules(sys_)[2]])


def length_and_reduced(w: GroupElement) -> tuple[int, tuple[int, ...]]:
    """Length of w and its canonical reduced word (greedy least descent).

    Works from the matrix alone, so any witness word, reduced or not,
    gives the same answer. _descent gives the first descent; the walk
    then reads descents off the row y = rho^T w (_row; Humphreys,
    Reflection Groups and Coxeter Groups, 5.4): block s of y is the
    coordinate sum of the root w(e_s), so it has that root's sign, and
    s is a right descent exactly when it is negative. Stripping s adds
    -2B(e_s, e_j) y_s to each block j adjacent to s and negates y_s
    (_row_rules), n d' ints a step and no element. y_s < 0, so a
    negative block stays negative and only the positive adjacent blocks
    have their signs decided again. When no block is negative, y must
    be rho^T, as the row determines w.
    """
    s = _descent(w)
    sys_ = w.system
    if s is None:
        if w.key != identity(sys_).key:
            raise InvariantViolation("non-identity element with no descent")
        return 0, ()
    ring = _ring(sys_)
    d = ring.degree
    rho, rules, _ = _row_rules(sys_)
    y = list(_row(sys_, w.key))
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
    found = [w for w, _ in _ball_order(sys_, radius, cap, gens)]
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

    The ball with no radius bound. An infinite group (is_spherical)
    would exceed any cap, so it raises ResourceLimitError before a walk.
    """
    if not is_spherical(sys_, gens):
        raise ResourceLimitError(f"the group is infinite: its enumeration exceeds the cap of {cap} elements")
    return _cached_ball(sys_, gens, None, cap)


# ---------------------------------------------------------------- packed keys

class _LaneOverflow(ArithmeticError):
    """A packed value left the room of its lanes (_Lanes.checked)."""

    def __init__(self, lanes: _Lanes) -> None:
        super().__init__(f"a packed value outgrew its {lanes.bits}-bit lanes")
        self.lanes = lanes


def _lane_bits(sys_: CoxeterSystem) -> int:
    """The lane width, in bits, that a system's packer starts from: 16
    for a finite W, whose key entries are root coordinates and whose
    rows are root heights, all below 30 up to E8, and 32 for any other."""
    return 16 if is_spherical(sys_, None) else 32


def _packer(sys_: CoxeterSystem) -> _Lanes:
    """The system's packer, the lanes its walks run on, built on first
    use; _widening replaces it with a wider one."""
    return sys_.memo("lanes", lambda: _Lanes(sys_, _lane_bits(sys_)))


def _width(sys_: CoxeterSystem, bits: int) -> _Lanes:
    """The system's packer with lanes of at least bits bits, built once
    per width for a walk that widens (_widening) and a product that
    does (_paired) alike."""
    return sys_.memo(("lanes", bits), lambda: _Lanes(sys_, bits))


def _widening(run: Callable, *args):
    """run(*args), run again each time a packed value trips the overflow
    check, after the system whose lanes tripped gets a packer twice as
    wide as they are, unless it already has a wider one; lanes wider
    than MAX_LANE_BITS raise ResourceLimitError. A run takes every packed
    value from the packer it starts with, so its rerun starts clean; an
    element it made keeps the packer that can unpack it."""
    while True:
        try:
            return run(*args)
        except _LaneOverflow as trip:
            sys_, bits = trip.lanes.system, 2 * trip.lanes.bits
            if bits > MAX_LANE_BITS:
                raise ResourceLimitError(f"a packed key outgrew lanes of {MAX_LANE_BITS} bits")
            if _packer(sys_).bits < bits:
                sys_._cache["lanes"] = _width(sys_, bits)


def _carried_keys(sys_: CoxeterSystem, gens: Iterable[int], key: Key,
                  step: str) -> list[tuple[GroupElement, Key]]:
    """Each u of the walk of the standard parabolic W_gens, in the walk's
    order, with the tuple key carried to it from key: of u^-1 a for
    step "left", of u^-1 a u for step "conjugate", a the element of key
    (_Lanes.left_step, _Lanes.conjugate_step). Runs under _widening."""
    def carried():
        lanes = _packer(sys_)
        carry = (lanes.pack(key), getattr(lanes, step + "_step"))
        return [(u, lanes.unpack(value)) for u, value in walk(sys_, gens=gens, carry=carry)]

    return _widening(carried)


class _Lanes:
    """The packed keys of a system (the module docstring, "Packed keys"):
    the key as the sum of entry i times 2^(bits i).

    Biased, every lane v reads v + 2^(bits-1), in [0, 2^bits) while
    |v| < 2^(bits-1), with no carry between lanes, so shifts and masks
    cut lanes out, and a lane's top bit is set exactly when v >= 0.
    checked adds 2^room to every lane: the guard bits, room + 1 to
    bits - 1, stay clear exactly when every v lies in [-2^room, 2^room).
    room is chosen so that from checked inputs no lane of a kernel's
    result, or of a value it reads back, reaches 2^(bits-1) (grow below:
    the largest gain of one kernel over its inputs, and n d' times the
    room for the products of two packed values); then the lowest lane
    out of range always sets a guard bit, and a value that passes reads
    back exactly.

    A product (multiply): per theta' power l and row i of b, the lanes
    (j n + i) d' + l of b, one per column j, cut out at cuts and moved to
    the first lane of column j (row_starts), times column i of
    theta'^l a, which lands in column j.

    The steps are compiled from _rules, so the packed and the tuple
    steps read one set of rules; a product reads none of them. right:
    coefficient l of every block of
    column s, cut out, times a constant that places its multiples in the
    columns it feeds. left: row s gains the constant row (sigma_s - 1)_s
    times w. Rows lie in the lanes of row 0 of a key. A row times a
    key: the row reversed in n d' lanes (gather), one product with the
    key per theta' coefficient, and the dot products of column c read
    off lanes (c n + n - 1) d' + k (row_mul); the row of a key is the
    same product with rho (spread)."""

    __slots__ = ("system", "bits", "ring", "degree", "nd", "one", "bias", "check", "guard", "col",
                 "col_bias", "blocks", "blocks_bias", "ones", "spread", "gather",
                 "row_mask", "row_bias", "row_shift", "rev_shift", "key_blocks",
                 "key_blocks_bias", "row_starts", "row_starts_bias", "cuts", "reduce", "right",
                 "left", "_shifts", "_format")

    def __init__(self, sys_: CoxeterSystem, bits: int) -> None:
        ring = _ring(sys_)
        n, d = sys_.rank, ring.degree
        nd, size = n * d, n * n * d
        _, right, left = _rules(sys_)
        # column s negated (gains -2 times itself), row s likewise
        lanes = [_lane_terms([t for _, _, ts in ops for t in ts] + [(col_s, col_s, -2)], d)
                 for _, _, _, col_s, ops in right]
        rows = [_lane_terms(terms + [(p, p, -2) for p in parts], d) for parts, terms in left]
        # how far one kernel can take a lane beyond the largest of its inputs
        grow = [n, 1 + max(map(abs, ring.field._base), default=0)]
        grow += [1 + sum(abs(c) for _, _, c in terms) for terms in lanes + rows]
        while True:
            room = min(bits - 1 - max(grow).bit_length(), (bits - 1 - nd.bit_length()) // 2)
            if room >= 1:
                break
            bits *= 2
        self.system, self.bits = sys_, bits
        self.ring, self.degree, self.nd = ring, d, nd
        half, lane = 1 << bits - 1, (1 << bits) - 1
        fill = self._fill
        self.bias = fill(half, size)
        self.check = fill(1 << room, size)
        self.guard = fill(lane ^ (2 << room) - 1, size)
        self.col, self.col_bias, self.ones = fill(lane, nd), fill(half, nd), fill(1, nd)
        self.blocks, self.blocks_bias = fill(lane, n, d), fill(half, n, d)
        self.key_blocks, self.key_blocks_bias = fill(lane, n * n, d), fill(half, n * n, d)
        self.spread = fill(1, n, d)
        self.gather = sum(1 << bits * (size - d - i * (n + 1) * d) for i in range(n))
        self.row_mask, self.row_bias = fill(fill(lane, d), n, nd), fill(fill(half, d), n, nd)
        self.row_shift, self.rev_shift = bits * (n - 1) * d, bits * (size - nd)
        self.row_starts, self.row_starts_bias = fill(lane, n, nd), fill(half, n, nd)
        # per theta' power l, per i: where column i starts, where
        # coefficient l of entry i of the first column lies
        self.cuts = [[(bits * i * nd, bits * (i * d + l)) for i in range(n)] for l in range(d)]
        self.reduce = sum(r << bits * k for k, r in enumerate(ring.field._base))
        self.right = []
        for (s0, bit, keep, _, ops), terms in zip(right, lanes):
            feed = [0] * d
            for dst, src, c in terms:
                feed[src - s0 * nd] += c << bits * dst
            adjacent = [(bits * a, jbit) for a, jbit, _ in ops]
            self.right.append((s0, bit, keep, bits * s0 * nd,
                               [(bits * (s0 * nd + l), f) for l, f in enumerate(feed)],
                               sum(self.blocks_bias * f for f in feed), adjacent,
                               sum(jbit for _, jbit in adjacent)))
        self.left = []
        for s0, terms in enumerate(rows):
            row = [0] * d
            for dst, src, c in terms:
                j, l = divmod(src, d)
                row[l] += c << bits * ((n - 1 - j) * d + dst - s0 * d)
            self.left.append(([(bits * l, r) for l, r in enumerate(row)],
                              sum(self.key_blocks_bias * r for r in row) if d > 1 else 0,
                              bits * (n - 1 - s0) * d, self.row_mask << bits * s0 * d,
                              self.row_bias << bits * s0 * d))
        self._shifts = range(0, size * bits, bits)
        # a machine-word lane reads back through memoryview.cast, which
        # takes the host's byte order: little-endian hosts only
        words = {8: "b", 16: "h", 32: "i", 64: "q"} if sys.byteorder == "little" else {}
        self._format = words.get(bits)
        self.one = self.pack(identity(sys_).key)

    def _fill(self, value: int, count: int, step: int = 1, start: int = 0) -> int:
        """value in count lanes, every step lanes from lane start: value
        times the geometric series of 2^(bits step)."""
        if not count:
            return 0
        stride = self.bits * step
        return value * (((1 << stride * count) - 1) // ((1 << stride) - 1)) << self.bits * start

    def checked(self, x: int) -> int:
        """x, when every lane lies inside the room; else _LaneOverflow."""
        if (x + self.check) & self.guard:
            raise _LaneOverflow(self)
        return x

    def pack(self, key: Key) -> int:
        """The packed key of a tuple key."""
        return self.checked(sum(map(lshift, key, self._shifts)))

    def of(self, w: GroupElement) -> int:
        """The packed key of w in these lanes, packed from its tuple key
        when other lanes or none hold it, and then kept on w."""
        if w._lanes is not self:
            packed = self.pack(w.key)
            w._lanes, w._packed = self, packed
        return w._packed

    def unpack(self, x: int, count: int | None = None) -> Key:
        """The first count lanes of x (all of a key when None) as ints."""
        if count is None:
            count = len(self._shifts)
        if self._format is not None:
            # bias, then flip each top bit: every lane in two's complement
            raw = ((x + self.bias) ^ self.bias).to_bytes(count * self.bits // 8, "little")
            return tuple(memoryview(raw).cast(self._format))
        y, lane, half = x + self.bias, (1 << self.bits) - 1, 1 << self.bits - 1
        return tuple(((y >> k) & lane) - half for k in self._shifts[:count])

    def right_step(self, x: int, s: int) -> int:
        """The packed key of w * sigma_s from that of w."""
        _, _, _, _, feed, fold, _, _ = self.right[s - 1]
        y = x + self.bias
        for shift, f in feed:
            x += ((y >> shift) & self.blocks) * f
        return self.checked(x - fold)

    def left_step(self, x: int, s: int) -> int:
        """The packed key of sigma_s * w from that of w: row s gains the
        product of the constant row (sigma_s - 1)_s with w."""
        feed, fold, shift, mask, bias = self.left[s - 1]
        if self.degree == 1:
            q = x * feed[0][1]
        else:
            y, q = x + self.bias, -fold
            for at, f in feed:
                q += ((y >> at) & self.key_blocks) * f
        return self.checked(x + ((((q + self.bias) >> shift) & mask) - bias))

    def conjugate_step(self, x: int, s: int) -> int:
        """The packed key of s x s from that of x."""
        return self.left_step(self.right_step(x, s), s)

    def multiply(self, a: int, b: int) -> int:
        """The packed key of the product of the elements with packed keys
        a and b: column j gains coefficient l of entry (i, j) of b times
        column i of theta'^l a, for every j at once, one product per i
        and l. It reads no step rule, only theta."""
        bias, col, col_bias = self.bias, self.col, self.col_bias
        starts, starts_bias = self.row_starts, self.row_starts_bias
        y, out = b + bias, 0
        for t, cuts in zip(self.thetas(a), self.cuts):
            t += bias
            for at, cut in cuts:
                # coefficient l of row i of b, zero in many a sparse b
                part = ((y >> cut) & starts) - starts_bias
                if part:
                    out += (((t >> at) & col) - col_bias) * part
        return self.checked(out)

    def theta(self, x: int) -> int:
        """theta' times every block: a lane up, the top lane reduced."""
        top = self.bits * (self.degree - 1)
        t = (((x + self.bias) >> top) & self.key_blocks) - self.key_blocks_bias
        return self.checked(((x - (t << top)) << self.bits) + t * self.reduce)

    def thetas(self, x: int) -> list[int]:
        """The packed theta'^k x for k < d', the operator row_mul and
        multiply read."""
        table = [x]
        for _ in range(self.degree - 1):
            table.append(self.theta(table[-1]))
        return table

    def row(self, x: int) -> int:
        """The row rho^T w of the packed key of w: the blocks of each
        column summed by one product (spread), in lanes c n d' + k."""
        return self.checked((((x * self.spread + self.bias) >> self.row_shift) & self.row_mask)
                            - self.row_bias)

    def row_mul(self, y: int, table: list[int]) -> int:
        """The packed row y times the element whose thetas are table."""
        rev = ((y * self.gather + self.bias) >> self.rev_shift) & self.col
        if self.degree == 1:
            parts = [rev - self.col_bias]
        else:
            parts = [((rev >> self.bits * l) & self.blocks) - self.blocks_bias
                     for l in range(self.degree)]
        q = sum(map(mul, table, parts))
        return self.checked((((q + self.bias) >> self.row_shift) & self.row_mask) - self.row_bias)


def _lane_terms(terms: list, d: int) -> list[tuple[int, int, int]]:
    """The terms (dst, src, c) of a step rule (_terms) as triples of
    first lanes: lane dst + i gains c times lane src + i, i running over
    the term's stride. A term over a whole run of blocks is one triple
    per coefficient, each with the stride d'."""
    out = []
    for dst, src, c in terms:
        if dst.step is None and d > 1:
            out += [(dst.start + k, src.start + k, c) for k in range(d)]
        else:
            out.append((dst.start, src.start, c))
    return out


# ------------------------------------------------------------------- the walk

def _is_child(descents: int, s0: int) -> bool:
    """Whether generator s0 (0-based), a right descent of y, is its least
    one: no bit below s0 is set in the descent mask of y."""
    return not descents & ((1 << s0) - 1)


def _still_negative(lanes: _Lanes, col: int) -> bool:
    """Whether a column that was negative before a step adjacent to it
    still is; the step changed it, so its sign is decided again. col is
    the column's lanes biased (_Lanes): a top bit is set exactly when its
    int is >= 0, and clear after subtracting 1 exactly when it is <= 0.
    A column with ints of both signs (only at d' > 1) is unpacked and
    goes to _Ring.root_sign."""
    if col & lanes.col_bias == lanes.col_bias:
        return False
    if not (col - lanes.ones) & lanes.col_bias:
        return True
    return lanes.ring.root_sign(lanes.unpack(col - lanes.col_bias, lanes.nd)) < 0


def _coset_units(sys_: CoxeterSystem, coset: Iterable[int]) -> set[int]:
    """The unit columns e_s, s in coset, packed and biased as the walk
    cuts columns out of a key: the prune of a walk of minimal coset
    representatives."""
    lanes = _packer(sys_)
    return {lanes.pack(_column(identity(sys_), s)) + lanes.col_bias for s in coset}


def walk(
    sys_: CoxeterSystem,
    radius: int | None = None,
    cap: int | None = None,
    gens: Iterable[int] | None = None,
    coset: Iterable[int] | None = None,
    carry: tuple[object, Callable] | None = None,
) -> Iterator:
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

    The walk steps packed keys (_Lanes, the system's _packer), and each
    element it yields holds its key packed until the key is asked for.
    carry = (start, step) carries a value of any kind from parent to
    child: start at the identity, step(value at x, s) at x*s, s 1-based,
    computed when x*s is pushed, so the walk yields (x, value) pairs,
    and a consumer that stops early pays only the steps of the children
    still on the stack. _Lanes.left_step from the packed key of a
    carries that of x^-1 a, as x^-1 a = s (x'^-1 a) for x = x' s, and
    _Lanes.conjugate_step from that of w carries that of x^-1 w x. A key
    the walk steps or a value it carries that outgrows its lanes raises
    _LaneOverflow, after the walk has yielded a prefix of its elements;
    every consumer runs under _widening, which reruns it with wider lanes
    (_carried_keys).

    The step rules are built once per system (_Lanes.right), and per
    walk, per descent mask it meets, the generators s that are ascents
    of x and pass the child test on the descents x*s inherits; only
    those are tried on x.
    """
    if radius is not None and radius < 0:
        raise ValueError("radius must be nonnegative")
    if cap is None:
        cap = DEFAULT_BALL_CAP
    keep_gens = None if gens is None else _norm_subset(sys_, gens)
    lanes = _packer(sys_)
    rules = [rule for rule in lanes.right if keep_gens is None or rule[0] + 1 in keep_gens]
    units = set() if coset is None else _coset_units(sys_, _norm_subset(sys_, coset))
    # per descent mask, the rules whose s passes the inherited part of
    # the child test
    candidates: dict = {}
    bias, col, right_step = lanes.bias, lanes.col, lanes.right_step
    start, step = carry if carry is not None else (None, None)
    stack = [(lanes.one, 0, (), start)]
    count = deepest = 0
    while stack:
        x, descents, word, value = stack.pop()
        if count >= cap:
            raise ResourceLimitError(
                f"ball enumeration exceeded the cap of {cap} elements"
                f" (reached depth {deepest} after {count} elements)"
            )
        count += 1
        depth = len(word)
        if depth > deepest:
            deepest = depth
        w = GroupElement(sys_, x, word, lanes)
        yield w if step is None else (w, value)
        if depth == radius:
            continue
        todo = candidates.get(descents)
        if todo is None:
            # x*s is a child of x when s is an ascent of x and no t < s is
            # a descent of x*s; columns away from s keep their signs
            todo = candidates[descents] = [
                rule for rule in rules
                if not descents & rule[1] and _is_child(descents & rule[2], rule[0])
            ]
        y = x + bias
        for s0, bit, keep, shift, _, _, adjacent, touched in todo:
            if units and (y >> shift) & col in units:
                continue
            out = right_step(x, s0 + 1)
            mask = descents & keep | bit
            for at, jbit in adjacent if descents & touched else ():
                # a positive column plus a positive multiple of the
                # positive column s stays positive
                if descents & jbit and _still_negative(lanes, ((out + bias) >> at) & col):
                    mask |= jbit
                    if not _is_child(mask, s0):
                        break
            else:
                stack.append((out, mask, word + (s0 + 1,),
                              None if step is None else step(value, s0 + 1)))


def _ball_order(
    sys_: CoxeterSystem,
    radius: int | None = None,
    cap: int | None = None,
    gens: Iterable[int] | None = None,
    coset: Iterable[int] | None = None,
) -> list[tuple[GroupElement, GroupElement]]:
    """The inverses of the elements of a walk (walk's options), each
    paired with the walked element it inverts, in breadth-first
    (shortlex) order of the inverses: by length, then by word. Each x^-1
    carries the walked word of x reversed, its lexicographically least
    reduced word, and its key, carried packed along the walk by
    _Lanes.left_step."""
    def ordered():
        lanes = _packer(sys_)
        walked = walk(sys_, radius, cap, gens, coset, carry=(lanes.one, lanes.left_step))
        return sorted(((GroupElement(sys_, inv, x.word[::-1], lanes), x) for x, inv in walked),
                      key=lambda pair: (len(pair[0].word), pair[0].word))
    return _widening(ordered)


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
            lengths = _widening(_lengths, sys_, gens, top)
            sign = -1 if len(gens) % 2 else 1
            for k, x in enumerate(_series_inverse(lengths, radius - top)):
                inverse_series[top + k] += sign * x
        size = len(layer[0]) + 1
        layer = [grown for grown in combinations(range(1, sys_.rank + 1), size)
                 if all(sub in adds for sub in combinations(grown, size - 1))]
    return _series_inverse(inverse_series, radius)


def _lengths(sys_: CoxeterSystem, gens: tuple[int, ...], top: int) -> list[int]:
    """The number of elements of each length 0..top of the finite W_gens."""
    lengths = [0] * (top + 1)
    for u in walk(sys_, gens=gens):
        lengths[len(u.word)] += 1
    return lengths


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
    cyclic group <w>. Each power is w (or w^-1) times the last, one
    packed product (multiply) on the lanes the last one took, so a chain
    whose entries outgrow the lanes widens once per doubling.
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
