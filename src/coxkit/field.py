"""Exact arithmetic in Q(theta) with theta = 2*cos(pi/N).

Every entry -cos(pi/m) of the bilinear form of a Coxeter system whose
finite labels m all divide N lives in this field, as do all root
coordinates and matrix entries downstream. Elements are stored as
canonical residue polynomials in theta, so two elements are equal
exactly when their coefficient vectors are equal. One rule,
Field._reduce, reduces every product: from the top, each nonzero
c*theta^j with j >= d becomes c*theta^(j-d) times theta^d = -(c_0 + ...
+ c_(d-1) theta^(d-1)), integral because the minimal polynomial is
monic. Signs of nonzero elements are decided in integers (Field.sign):
theta lies in a dyadic enclosure [lo, hi] / 2^k, and integer bounds on
the powers theta^e at that precision bound the value of a coefficient
vector, the enclosure being halved until those bounds exclude 0. No
floating point and no rational arithmetic enters a sign decision.

The minimal polynomial of theta comes from the cyclotomic polynomial
Phi_2N, the minimal polynomial of z = exp(i*pi/N), in integers only
(Watkins and Zeitlin, Amer. Math. Monthly 100, 1993): z^2N - 1 divided
by Phi_d for every proper divisor d of 2N leaves Phi_2N, each division
exact because Phi_d is monic. Phi_2N is palindromic of degree 2k, so
Phi_2N(z)/z^k is a polynomial in z^j + z^-j = D_j(theta), where D_j is
the degree-j polynomial with D_j(2*cos t) = 2*cos(j*t). The enclosure
is initialised by a Sturm-chain bisection that isolates the largest
real root, which is theta; the chain is kept in integers by positive
scaling and evaluated at the dyadic bisection points with integer
arithmetic.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .errors import FieldMismatchError, InvariantViolation

__all__ = ["Field", "FieldElement", "create"]


# ------------------------------------------------------------------ integers

def _totient(n: int) -> int:
    count, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            count -= count // p
        p += 1
    if m > 1:
        count -= count // m
    return count


def _dickson(n: int) -> list[int]:
    """D_n as integer coefficients, low degree first; D_n(2cos t) = 2cos(nt)."""
    prev, cur = [2], [0, 1]
    if n == 0:
        return prev
    for _ in range(n - 1):
        shifted = [0] + cur
        padded = prev + [0] * (len(shifted) - len(prev))
        prev, cur = cur, [a - b for a, b in zip(shifted, padded)]
    return cur


# -------------------------------------------------- integer polynomial helpers

def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _divide_monic(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The quotient of a by the monic integer polynomial b, which must
    divide it exactly; both low degree first."""
    rem = list(a)
    db = len(b) - 1
    q = [0] * (len(rem) - db)
    for i in reversed(range(len(q))):
        c = q[i] = rem[i + db]
        if c:
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    if any(rem):
        raise InvariantViolation("inexact division by a monic polynomial")
    return q


def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A positive integer multiple of the remainder of a by b, trimmed."""
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    while len(rem) - 1 >= db:
        # |lead| * rem minus sign * top * x^off * b cancels the top term
        c = sign * rem.pop()
        off = len(rem) - db
        rem = [scale * x for x in rem]
        for j in range(db):
            rem[off + j] -= c * b[j]
        _trim(rem)
    return rem


def _scaled_value(p: Sequence[int], num: int, k: int) -> int:
    """2^(k deg p) * p(num / 2^k): an integer with the sign of p there."""
    acc, scale = p[-1], 1
    for c in reversed(p[:-1]):
        scale <<= k
        acc = acc * num + c * scale
    return acc


# ----------------------------------------------------------------- Sturm chain

def _sturm_chain(p: Sequence[int]) -> list[list[int]]:
    """A Sturm chain of the squarefree integer polynomial p: p, p', then
    the negated remainder of the two members before. Each remainder is
    taken as a positive multiple with its content divided out, so the
    members stay integer polynomials and every sign along the chain is
    that of the rational chain."""
    chain = [list(p), [i * c for i, c in enumerate(p)][1:]]
    while True:
        rem = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            return chain
        g = gcd(*rem)
        chain.append([-c // g for c in rem])


def _sign_changes(chain: list[list[int]], num: int, k: int) -> int:
    """Sign changes along the chain at the dyadic point num / 2^k."""
    signs = [v > 0 for v in (_scaled_value(p, num, k) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


# --------------------------------------------------------- minimal polynomial

@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    """Phi_m, low degree first: z^m - 1 divided by Phi_d for every proper
    divisor d of m."""
    p = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            p = _divide_monic(p, _cyclotomic(d))
    return tuple(p)


@lru_cache(maxsize=None)
def _theta_min_poly(n: int) -> tuple[int, ...]:
    if n == 1:
        return (2, 1)
    # z = exp(i*pi/N): Phi_2N(z)/z^k = phi_k + sum_j phi_(k+j) (z^j + z^-j)
    # by the palindrome, and z^j + z^-j = D_j(z + 1/z) = D_j(theta)
    phi = _cyclotomic(2 * n)
    k = (len(phi) - 1) // 2
    out = [phi[k]] + [0] * k
    for j in range(1, k + 1):
        for i, c in enumerate(_dickson(j)):
            out[i] += phi[k + j] * c
    if k != _totient(2 * n) // 2:
        raise InvariantViolation(f"minimal polynomial for N={n} has wrong degree")
    return tuple(out)


# ------------------------------------------------------------------- the field

class Field:
    """The real field Q(theta), theta = 2*cos(pi/N), in a canonical basis.

    Instances are cheap views over N: the minimal polynomial, theta^d over
    the power basis (_base), the enclosure
    _lo / 2^_k <= theta <= _hi / 2^_k in integers, refined in place, with
    the bounds on the powers of theta built from it (_powers). Obtain
    shared instances through create(), which caches per N so enclosure
    refinements accumulate; a FieldElement keeps its own decided sign.
    """

    __slots__ = (
        "N", "minpoly", "degree", "_base", "_lo", "_hi", "_k", "_powers",
        "_zero", "_one", "_theta",
    )

    def __init__(self, n: int) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"N must be a positive integer, got {n!r}")
        self.N = n
        self.minpoly = _theta_min_poly(n)
        self.degree = len(self.minpoly) - 1
        d = self.degree
        self._base = tuple(-c for c in self.minpoly[:-1])
        if d == 1:
            self._lo = self._hi = -self.minpoly[0]
            self._k = 0
        else:
            self._lo, self._hi, self._k = self._isolate_largest_root()
        self._powers: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        self._zero = FieldElement(self, (0,) * d, 1)
        self._one = FieldElement(self, (1,) + (0,) * (d - 1), 1)
        self._theta = self.from_int_coeffs((0, 1))

    # -- construction ------------------------------------------------------

    @property
    def zero(self) -> FieldElement:
        return self._zero

    @property
    def one(self) -> FieldElement:
        return self._one

    @property
    def theta(self) -> FieldElement:
        """The generator 2*cos(pi/N)."""
        return self._theta

    def from_rational(self, q) -> FieldElement:
        if not isinstance(q, int):
            from fractions import Fraction
            q = Fraction(q)
        return FieldElement._make(self, [q.numerator] + [0] * (self.degree - 1), q.denominator)

    def from_int_coeffs(self, coeffs: Iterable[int]) -> FieldElement:
        """Element given by an integer polynomial in theta of any degree."""
        return FieldElement._make(self, self._reduce(list(coeffs)), 1)

    def _reduce(self, work: list[int]) -> list[int]:
        """The integer polynomial work in theta, low degree first, reduced
        in place to its d power-basis coefficients by theta^d = _base."""
        d, base = self.degree, self._base
        while len(work) > d:
            top = work.pop()
            if top:
                off = len(work) - d
                for i, r in enumerate(base):
                    work[off + i] += top * r
        work += [0] * (d - len(work))
        return work

    def element(self, coeffs: Sequence) -> FieldElement:
        """Element from rational coefficients over the power basis."""
        from fractions import Fraction
        fr = [Fraction(c) for c in coeffs]
        if len(fr) > self.degree:
            raise ValueError("coefficient vector longer than the field degree")
        den = lcm(*(c.denominator for c in fr))
        num = [c.numerator * (den // c.denominator) for c in fr]
        return FieldElement._make(self, num + [0] * (self.degree - len(fr)), den)

    def mul_matrix(self, coeffs: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Rows of the integer matrix of multiplication by the algebraic
        integer with these power-basis coefficients: entry (k, l) is
        coefficient k of that element times theta^l."""
        cols = [list(coeffs)]
        for _ in range(self.degree - 1):
            cols.append(self._reduce([0] + cols[-1]))
        return tuple(zip(*cols))

    def two_cos(self, m: int) -> FieldElement:
        """The element 2*cos(pi/m), for any m dividing N."""
        if not isinstance(m, int) or m < 1 or self.N % m:
            raise ValueError(f"2*cos(pi/{m!r}) does not lie in Q(2*cos(pi/{self.N}))")
        return self.from_int_coeffs(_dickson(self.N // m))

    # -- enclosure and signs -------------------------------------------------

    def enclosure(self) -> tuple[Fraction, Fraction]:
        from fractions import Fraction
        return Fraction(self._lo, 1 << self._k), Fraction(self._hi, 1 << self._k)

    def sign(self, coeffs: Sequence[int]) -> int:
        """The exact sign of sum_e coeffs[e] * theta^e, for integer
        coefficients over the power basis.

        theta > 0 when the degree is above 1, so every power theta^e is
        positive, and coefficients all >= 0 (or all <= 0) have their
        sign. Mixed ones are bounded between two integers from the
        bounds on the powers theta^e; while 0 lies between them, the
        enclosure is refined to max(2k, 64) bits and the bounds rebuilt.
        """
        if min(coeffs) >= 0:
            return 1 if any(coeffs) else 0
        if max(coeffs) <= 0:
            return -1
        while True:
            lows, highs = self._powers or self._bound_powers()
            lo = hi = 0
            for x, a, b in zip(coeffs, lows, highs):
                if x > 0:
                    lo += x * a
                    hi += x * b
                else:
                    lo += x * b
                    hi += x * a
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            target = max(2 * self._k, 64)
            while self._k < target:
                self._bisect_once()

    def _bound_powers(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Integers lows[e] <= 2^k theta^e <= highs[e], e < degree."""
        # the isolation leaves lo >= 0 (theta > 0 is the largest root), so
        # lo^e <= (2^k theta)^e <= hi^e; each bound is rounded outward
        lo, hi, k = self._lo, self._hi, self._k
        self._powers = (
            tuple(lo ** e << k >> k * e for e in range(self.degree)),
            tuple(-(-(hi ** e) << k >> k * e) for e in range(self.degree)),
        )
        return self._powers

    def _bisect_once(self) -> None:
        """Halve the enclosure: one more bit of theta."""
        lo, hi, k = 2 * self._lo, 2 * self._hi, self._k + 1
        mid = self._lo + self._hi
        v = _scaled_value(self.minpoly, mid, k)
        if v == 0:
            raise InvariantViolation("rational root of an irreducible minimal polynomial")
        if v > 0:
            hi = mid
        else:
            lo = mid
        self._lo, self._hi, self._k = lo, hi, k
        self._powers = None

    def _isolate_largest_root(self) -> tuple[int, int, int]:
        # bisection of [-2, 2] with both ends kept as lo / 2^k, hi / 2^k
        chain = _sturm_chain(self.minpoly)
        lo, hi, k = -2, 2, 0
        vlo, vhi = _sign_changes(chain, lo, k), _sign_changes(chain, hi, k)
        # vlo - vhi roots lie in (lo, hi]; bisect until only theta is left
        while vlo - vhi > 1:
            lo, hi, k = 2 * lo, 2 * hi, k + 1
            mid = (lo + hi) // 2
            vmid = _sign_changes(chain, mid, k)
            if vmid - vhi >= 1:
                lo, vlo = mid, vmid
            else:
                hi, vhi = mid, vmid
        # exactly one root above lo, so the minimal polynomial changes sign here
        if not _scaled_value(self.minpoly, lo, k) < 0 < _scaled_value(self.minpoly, hi, k):
            raise InvariantViolation("largest-root isolation lost its sign bracket")
        return lo, hi, k

    # -- misc ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Field(N={self.N}, degree={self.degree})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.N == self.N

    def __hash__(self) -> int:
        return hash(("Field", self.N))


@lru_cache(maxsize=None)
def create(n: int) -> Field:
    """Shared Field instance for Q(2*cos(pi/N))."""
    return Field(n)


# ------------------------------------------------------------------- elements

def _is_rational(x) -> bool:
    """An int or a Fraction; none exists before fractions is loaded."""
    return isinstance(x, (int, getattr(sys.modules.get("fractions"), "Fraction", int)))


class FieldElement:
    """A canonical residue polynomial in theta.

    Stored as an integer coefficient vector with one positive common
    denominator, reduced so that the gcd of all numerators and the
    denominator is 1. That normal form makes == and hash structural.
    """

    __slots__ = ("field", "num", "den", "_sign")

    def __init__(self, field: Field, num: tuple[int, ...], den: int) -> None:
        self.field = field
        self.num = num
        self.den = den
        self._sign: int | None = None

    @classmethod
    def _make(cls, field: Field, num: Sequence[int], den: int) -> FieldElement:
        if den < 0:
            num, den = [-c for c in num], -den
        g = gcd(den, *num) if any(num) else den
        if g > 1:
            num = [c // g for c in num]
            den //= g
        return cls(field, tuple(num), den)

    # -- views ---------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        from fractions import Fraction
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        from fractions import Fraction
        return Fraction(self.num[0], self.den)

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field.N != self.field.N:
                raise FieldMismatchError(
                    f"operands live in different fields (N={self.field.N} vs N={other.field.N})"
                )
            return other
        if _is_rational(other):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self, o
        num = [x * b.den + y * a.den for x, y in zip(a.num, b.num)]
        return FieldElement._make(self.field, num, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, field = self.num, o.num, self.field
        d = field.degree
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return FieldElement._make(field, field._reduce(conv), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        """1/x by the Faddeev-LeVerrier recursion on the integer matrix M
        of multiplication by the numerator of x: with B_1 = I,
        c_k = -tr(M B_k) / k, exact in integers, and
        B_(k+1) = M B_k + c_k I, Cayley-Hamilton gives M B_d = -c_d I. So
        the numerator's inverse is column 0 of B_d over -c_d, and c_d is
        nonzero because M is invertible in a field."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(theta)")
        field, d = self.field, self.field.degree
        m = field.mul_matrix(self.num)
        b = [[int(i == j) for j in range(d)] for i in range(d)]
        for k in range(1, d + 1):
            cols = tuple(zip(*b))
            mb = [[sum(map(mul, row, col)) for col in cols] for row in m]
            c = -sum(mb[i][i] for i in range(d)) // k
            if k < d:
                b = [[x + c if i == j else x for j, x in enumerate(r)] for i, r in enumerate(mb)]
        if not c:
            raise InvariantViolation("minimal polynomial is not irreducible")
        return FieldElement._make(field, [-self.den * r[0] for r in b], c)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return (
                self.field.N == other.field.N
                and self.den == other.den
                and self.num == other.num
            )
        if _is_rational(other):
            return self.is_rational() and self.num[0] == other * self.den
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            # hash(Fraction(p, q)) without fractions, as it computes it
            p, q, m = self.num[0], self.den, sys.hash_info.modulus
            h = hash(hash(abs(p)) * pow(q, -1, m)) if q % m else sys.hash_info.inf
            return h if p >= 0 else -2 if h == 1 else -h
        return hash((self.num, self.den))

    def sign(self) -> int:
        """Exact sign: -1, 0, or 1."""
        if self._sign is None:
            self._sign = self._compute_sign()
        return self._sign

    def _compute_sign(self) -> int:
        # the denominator is positive, so the numerator has the sign
        return self.field.sign(self.num)

    # -- formatting -----------------------------------------------------------

    def __str__(self) -> str:
        # each coefficient c/den in lowest terms, as str(Fraction(c, den))
        parts = []
        for c in self.num:
            g = gcd(c, self.den)
            parts.append(str(c // g) if g == self.den else f"{c // g}/{self.den // g}")
        return parts[0] if self.is_rational() else "[" + ",".join(parts) + "]"

    def __repr__(self) -> str:
        return f"<{self} in Q(2cos(pi/{self.field.N}))>"

