"""Tests for exact arithmetic in Q(2*cos(pi/N)).

Derived expectations are recomputed here by independent oracles (brute
force totient, naive polynomial division, literal coefficient search)
before being compared with the library.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit.errors import FieldMismatchError
from coxkit.field import Field, FieldElement, _theta_min_poly, create


# ---------------------------------------------------------------- oracles

def oracle_totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def oracle_dickson(n: int) -> list[int]:
    """Coefficients of D_n with D_n(2*cos t) = 2*cos(n*t), low to high."""
    prev, cur = [2], [0, 1]
    if n == 0:
        return prev
    for _ in range(n - 1):
        shifted = [0] + cur
        nxt = [a - b for a, b in zip(shifted, prev + [0] * (len(shifted) - len(prev)))]
        prev, cur = cur, nxt
    return cur


def oracle_monic_divides(candidate: list[int], poly: list[int]) -> bool:
    """Exact division test for a monic integer candidate divisor."""
    rem = [Fraction(c) for c in poly]
    d = len(candidate) - 1
    while len(rem) - 1 >= d and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < d:
            break
        q = rem[-1] / candidate[-1]
        for i in range(d + 1):
            rem[len(rem) - 1 - d + i] -= q * candidate[i]
        rem.pop()
    return not any(rem)


def oracle_eval(poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


# ------------------------------------------------------- minimal polynomials

def test_degree_matches_totient():
    for n in list(range(1, 13)) + [30]:
        f = create(n)
        expected = 1 if n <= 2 else oracle_totient(2 * n) // 2
        assert f.degree == expected
        assert len(f.minpoly) == f.degree + 1
        assert f.minpoly[-1] == 1
        assert all(isinstance(c, int) for c in f.minpoly)


def test_small_minimal_polynomials():
    assert create(1).minpoly == (2, 1)     # theta = -2
    assert create(2).minpoly == (0, 1)     # theta = 0
    assert create(3).minpoly == (-1, 1)    # theta = 1
    assert create(4).minpoly == (-2, 0, 1)
    assert create(6).minpoly == (-3, 0, 1)


def test_minpoly_n5_against_bruteforce_factor_search():
    # Factor D_5 + 2 by searching monic integer quadratics outright, then
    # pick the factor that changes sign on (3/2, 9/5), the bracket that
    # pins 2*cos(pi/5) among the candidates.
    p5 = oracle_dickson(5)
    p5[0] += 2
    found = []
    for b in range(-6, 7):
        for c in range(-6, 7):
            cand = [c, b, 1]
            if not oracle_monic_divides(cand, p5):
                continue
            if any(oracle_eval(cand, Fraction(r)) == 0 for r in range(-3, 4)):
                continue  # reducible over Q
            if oracle_eval(cand, Fraction(3, 2)) < 0 < oracle_eval(cand, Fraction(9, 5)):
                found.append(tuple(cand))
    assert found == [(-1, -1, 1)]
    assert create(5).minpoly == (-1, -1, 1)


def test_minpoly_n8_n12_frozen():
    # (theta^2 - 2)^2 = 2 for N=8 and (theta^2 - 2)^2 = 3 for N=12; both
    # quartics divide the Chebyshev-style relation and bracket the root.
    for n, frozen, lo, hi in [
        (8, (2, 0, -4, 0, 1), Fraction(9, 5), Fraction(19, 10)),
        (12, (1, 0, -4, 0, 1), Fraction(19, 10), Fraction(2)),
    ]:
        rel = oracle_dickson(n)
        rel[0] += 2
        assert oracle_monic_divides(list(frozen), rel)
        assert oracle_eval(frozen, lo) < 0 < oracle_eval(frozen, hi)
        assert create(n).minpoly == frozen


def test_minpoly_divides_relation_and_brackets_root():
    for n in list(range(3, 13)) + [30]:
        f = create(n)
        rel = oracle_dickson(n)
        rel[0] += 2
        assert oracle_monic_divides(list(f.minpoly), rel)
        target = 2 * math.cos(math.pi / n)
        lo, hi = f.enclosure()
        assert float(lo) <= target <= float(hi) or abs(float(lo) - target) < 1e-9


def test_theta_is_root():
    for n in list(range(1, 13)) + [30]:
        f = create(n)
        assert f.from_int_coeffs(f.minpoly).is_zero()


# ------------------------------------------- reference: the rational route
# The minimal polynomial as a factor of D_N(x) + 2 (squarefree part by a
# rational gcd, then the factors of the proper divisors of N divided
# out) and the Sturm bisection in Fractions: the field's set-up before
# it moved to cyclotomic division and integer Sturm evaluation.

def ref_divmod(a, b):
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        q[len(a) - len(b)] = c
        for i, y in enumerate(b):
            a[len(a) - len(b) + i] -= c * y
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return q, a


def ref_deriv(a):
    return [i * c for i, c in enumerate(a)][1:]


@lru_cache(maxsize=None)
def ref_min_poly(n):
    if n <= 2:
        return (2, 1) if n == 1 else (0, 1)
    p = oracle_dickson(n)
    p[0] += 2
    g, h = p, ref_deriv(p)
    while h:
        g, h = h, ref_divmod(g, h)[1]
    sf = ref_divmod(p, g)[0]
    sf = [c / sf[-1] for c in sf]
    for d in range(1, n):
        if n % d == 0:
            q, r = ref_divmod(sf, ref_min_poly(d))
            if not r:
                sf = q
    assert all(c.denominator == 1 for c in sf)
    return tuple(int(c) for c in sf)


def ref_enclosure(minpoly):
    if len(minpoly) == 2:
        r = Fraction(-minpoly[0])
        return r, r
    chain = [[Fraction(c) for c in minpoly], ref_deriv(minpoly)]
    while True:
        rem = ref_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])

    def variations(x):
        signs = [v > 0 for v in (oracle_eval(p, x) for p in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    lo, hi = Fraction(-2), Fraction(2)
    while variations(lo) - variations(hi) > 1:
        mid = (lo + hi) / 2
        if variations(mid) - variations(hi) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_min_poly_and_enclosure_match_rational_reference():
    for n in range(1, 91):
        assert _theta_min_poly(n) == ref_min_poly(n), n
        assert Field(n).enclosure() == ref_enclosure(ref_min_poly(n)), n


# -------------------------------------------------- reference: the sign
# The field's sign engine before it moved to dyadic integers: interval
# Horner over a Fraction enclosure of theta, started from ref_enclosure
# and bisected in Fractions until the interval excludes 0. Each N keeps
# its enclosure across calls, as the field did.

def ref_interval_eval(coeffs, lo, hi):
    """Range of the integer polynomial over [lo, hi] by interval Horner."""
    alo = ahi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        p1, p2, p3, p4 = alo * lo, alo * hi, ahi * lo, ahi * hi
        alo = min(p1, p2, p3, p4) + c
        ahi = max(p1, p2, p3, p4) + c
    return alo, ahi


_ref_enclosures: dict = {}


def _ref_enclosure_of(n):
    if n not in _ref_enclosures:
        _ref_enclosures[n] = list(ref_enclosure(ref_min_poly(n)))
    return _ref_enclosures[n]


def _ref_bisect(n):
    enc = _ref_enclosure_of(n)
    mid = (enc[0] + enc[1]) / 2
    if oracle_eval(ref_min_poly(n), mid) > 0:
        enc[1] = mid
    else:
        enc[0] = mid


def ref_sign(n, coeffs):
    """The sign of sum_e coeffs[e] * theta^e, theta = 2*cos(pi/n)."""
    if not any(coeffs):
        return 0
    while True:
        vlo, vhi = ref_interval_eval(coeffs, *_ref_enclosure_of(n))
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        _ref_bisect(n)


def ref_floor(n, bits):
    """floor(2^bits * theta) for irrational theta."""
    while True:
        lo, hi = (math.floor(x * 2**bits) for x in _ref_enclosure_of(n))
        if lo == hi:
            return lo
        _ref_bisect(n)


def _fibonacci_blocks(count):
    """phi^-n over (1, phi), phi = 2*cos(pi/5): phi^-1 = phi - 1, and
    (a + b phi)(phi - 1) = (b - a) + a phi. Positive, tending to 0."""
    a, b = 1, 0
    for _ in range(count):
        a, b = b - a, a
        yield [a, b]


def _pell_blocks(count):
    """(sqrt2 - 1)^n over (1, sqrt2), sqrt2 = 2*cos(pi/4):
    (a + b sqrt2)(sqrt2 - 1) = (2b - a) + (a - b) sqrt2. Positive, tending to 0."""
    a, b = 1, 0
    for _ in range(count):
        a, b = 2 * b - a, a - b
        yield [a, b]


def _near_zero(n, d, bits):
    """Mixed vectors within 2^-bits * |coefficients| of 0: 2^bits theta
    minus its floor (positive) and minus its ceiling (negative)."""
    f = ref_floor(n, bits)
    pad = [0] * (d - 2)
    return [[-f, 1 << bits] + pad, [-f - 1, 1 << bits] + pad]


def test_sign_matches_reference_on_fresh_fields():
    # a fresh field per vector, so every decision starts from the coarse
    # isolation; the near-zero vectors need the enclosure refined to 120 bits
    rng = random.Random(20261019)
    for n in range(1, 61):
        d = Field(n).degree
        cases = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(8)]
        if d > 1:
            for bits in (3, 20, 64, 120):
                cases += _near_zero(n, d, bits)
        for coeffs in cases:
            assert Field(n).sign(coeffs) == ref_sign(n, coeffs), (n, coeffs)
            assert FieldElement(Field(n), tuple(coeffs), 1).sign() == ref_sign(n, coeffs), (n, coeffs)


def test_sign_matches_reference_on_large_coefficients():
    rng = random.Random(30)
    for n in range(1, 61):
        f = Field(n)
        for _ in range(10):
            coeffs = [rng.randint(-10**30, 10**30) for _ in range(f.degree)]
            assert f.sign(coeffs) == ref_sign(n, coeffs), (n, coeffs)
        assert f.sign([0] * f.degree) == 0


@pytest.mark.parametrize("n,blocks", [(5, _fibonacci_blocks), (4, _pell_blocks)])
def test_sign_matches_reference_near_zero(n, blocks):
    # the values shrink like 1.6^-k or 2.4^-k while the coefficients grow
    f = Field(n)
    cases = [b for blk in blocks(120) for b in (blk, [-x for x in blk])]
    got = [f.sign(b) for b in cases]
    assert got == [ref_sign(n, b) for b in cases]
    assert got == [1, -1] * 120
    assert f._k >= 128


# ----------------------------------------------------------------- enclosure

def _refine(f, width):
    """Bisect the enclosure of theta until it is narrower than width."""
    while f.enclosure()[1] - f.enclosure()[0] >= width:
        f._bisect_once()


def test_enclosure_refines_below_any_width():
    f = create(7)
    _refine(f, Fraction(1, 10**9))
    lo, hi = f.enclosure()
    assert hi - lo < Fraction(1, 10**9)
    assert oracle_eval(f.minpoly, lo) < 0 < oracle_eval(f.minpoly, hi)


def test_enclosure_pins_largest_root():
    # 2*cos(pi/N) is the largest root of its minimal polynomial.
    for n in (4, 5, 6, 7, 8, 12, 30):
        f = create(n)
        _refine(f, Fraction(1, 10**6))
        lo, hi = f.enclosure()
        target = 2 * math.cos(math.pi / n)
        assert abs(float((lo + hi) / 2) - target) < 1e-5


# ------------------------------------------------------------ element algebra

def test_rational_embedding_and_canonical_form():
    f = create(5)
    a = f.from_rational(Fraction(3, 2))
    assert a.coeffs == (Fraction(3, 2), Fraction(0))
    assert str(a) == "3/2"
    theta = f.theta
    assert (theta * theta).coeffs == (Fraction(1), Fraction(1))  # theta^2 = theta + 1


def test_two_cos_values():
    f = create(12)
    assert f.two_cos(1) == f.from_rational(-2)
    assert f.two_cos(2) == f.zero
    assert f.two_cos(3) == f.one
    r2 = f.two_cos(4)
    assert r2 * r2 == f.from_rational(2)
    r3 = f.two_cos(6)
    assert r3 * r3 == f.from_rational(3)
    assert f.two_cos(12) == f.theta
    with pytest.raises(ValueError):
        f.two_cos(5)
    with pytest.raises(ValueError):
        f.two_cos(0)


def test_mixed_field_rejected():
    a = create(5).one
    b = create(7).one
    with pytest.raises(FieldMismatchError):
        _ = a + b
    with pytest.raises(FieldMismatchError):
        _ = a * b


def test_division_by_zero():
    f = create(5)
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()


# ---------------------------------------------------- reference: the inverse
# The field's inverse before it moved to the Faddeev-LeVerrier recursion:
# extended Euclid against the minimal polynomial in Fraction polynomials,
# low degree first.

def _ref_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def ref_poly_divmod(a, b):
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(len(a) - db, 0)
    while len(a) - 1 >= db and any(a):
        _ref_trim(a)
        if len(a) - 1 < db:
            break
        c = a[-1] / lead
        q[len(a) - 1 - db] = c
        for i in range(db + 1):
            a[len(a) - 1 - db + i] -= c * b[i]
        a.pop()
    return q, _ref_trim(a)


def ref_poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    for i, y in enumerate(b):
        a[i] -= y
    return _ref_trim(a)


def ref_inverse(x):
    f = x.field
    if x.is_rational():
        return f.from_rational(1 / x.as_rational())
    r0 = [Fraction(c) for c in f.minpoly]
    r1 = list(x.coeffs)
    t0, t1 = [], [Fraction(1)]
    while _ref_trim(r1):
        q, r = ref_poly_divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, ref_poly_sub(t0, ref_poly_mul(q, t1))
    assert len(r0) == 1, "minimal polynomial is not irreducible"
    inv = [t / r0[0] for t in t0]
    return f.element(inv + [Fraction(0)] * (f.degree - len(inv)))


def test_inverse_matches_extended_euclid_reference():
    rng = random.Random(2026)
    for n in range(1, 31):
        f = create(n)
        cases = [f.from_rational(Fraction(rng.choice([-7, -2, 3, 5]), rng.randint(1, 6)))]
        for _ in range(12):
            cases.append(f.element(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(f.degree)]
            ))
        for x in cases:
            if not x.is_zero():
                assert x.inverse() == ref_inverse(x), (n, x)


# ------------------------------------------- reference: reduction mod minpoly
# The field's product before every reduction went through Field._reduce: a
# table of theta^(d+j), j < d - 1, over the power basis, one row per high
# term of the convolution; and its from_int_coeffs, which eliminated the
# top term against theta^d until d coefficients were left.

def ref_reduction_rows(minpoly):
    base = tuple(-c for c in minpoly[:-1])
    rows = [base]
    for _ in range(len(base) - 2):
        prev = rows[-1]
        rows.append(tuple(s + prev[-1] * b for s, b in zip((0,) + prev[:-1], base)))
    return rows


def ref_mul(minpoly, a, b):
    d = len(minpoly) - 1
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    out = conv[:d]
    rows = ref_reduction_rows(minpoly)
    for j in range(d, 2 * d - 1):
        if conv[j]:
            for i, r in enumerate(rows[j - d]):
                out[i] += conv[j] * r
    return out


def ref_from_int_coeffs(minpoly, coeffs):
    work = list(coeffs)
    d = len(minpoly) - 1
    base = [-c for c in minpoly[:-1]]
    while len(work) > d:
        top = work.pop()
        if top:
            off = len(work) - d
            for i, r in enumerate(base):
                work[off + i] += top * r
    return work + [0] * (d - len(work))


def _sparse_ints(rng, length):
    return [rng.choice((0, 0, rng.randint(-40, 40))) for _ in range(length)]


def test_reduction_matches_table_and_elimination_references():
    rng = random.Random(29)
    for n in range(1, 31):
        f = create(n)
        d, minpoly = f.degree, f.minpoly
        assert list(f.theta.num) == ref_from_int_coeffs(minpoly, [0, 1]), n
        if d == 1:
            assert f.theta == -minpoly[0]
        for _ in range(20):
            a, b = _sparse_ints(rng, d), _sparse_ints(rng, d)
            product = FieldElement._make(f, a, 1) * FieldElement._make(f, b, 1)
            assert list(product.num) == ref_mul(minpoly, a, b), (n, a, b)
            poly = _sparse_ints(rng, rng.randint(0, 3 * d + 1))
            assert list(f.from_int_coeffs(poly).num) == ref_from_int_coeffs(minpoly, poly)
            cols = list(zip(*f.mul_matrix(a)))
            assert len(cols) == d
            for l, col in enumerate(cols):
                assert list(col) == ref_from_int_coeffs(minpoly, [0] * l + a), (n, a, l)


def test_sign_exact_cases():
    f4 = create(4)
    assert (f4.theta - f4.one).sign() == 1                      # sqrt2 > 1
    assert (f4.theta - f4.from_rational(Fraction(3, 2))).sign() == -1
    f5 = create(5)
    assert (f5.theta - f5.from_rational(Fraction(8, 5))).sign() == 1
    assert (f5.theta - f5.from_rational(Fraction(13, 8))).sign() == -1
    f30 = create(30)
    assert (f30.theta - f30.from_rational(Fraction(99, 50))).sign() == 1
    assert (f30.theta - f30.from_rational(Fraction(199, 100))).sign() == -1
    assert f30.zero.sign() == 0


def test_sign_cache_answers_repeats(monkeypatch):
    f = Field(5)
    computed = []
    compute = FieldElement._compute_sign
    monkeypatch.setattr(FieldElement, "_compute_sign", lambda self: computed.append(self.num) or compute(self))
    x = f.theta - f.from_rational(Fraction(8, 5))
    assert x.sign() == 1
    # the element keeps its decided sign: a second call computes nothing
    assert x.sign() == 1
    assert computed == [x.num]
    assert (-x).sign() == -1
    assert computed == [x.num, (-x).num]


def test_sign_against_float_oracle():
    rng = random.Random(20260817)
    for n in (4, 5, 7, 12, 30):
        f = create(n)
        t = 2 * math.cos(math.pi / n)
        for _ in range(50):
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(f.degree)]
            val = sum(float(c) * t**i for i, c in enumerate(coeffs))
            if abs(val) < 1e-6:
                continue  # too close to call in floats; skip
            elem = f.element(coeffs)
            assert elem.sign() == (1 if val > 0 else -1)


# ----------------------------------------------------------- field axioms

def _elements(n: int):
    f = create(n)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.tuples(*[coeff] * f.degree).map(f.element)


@settings(max_examples=60, deadline=None)
@given(_elements(5), _elements(5), _elements(5))
def test_ring_axioms_n5(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == a.field.zero
    assert a + a.field.zero == a
    assert a * a.field.one == a


@settings(max_examples=60, deadline=None)
@given(_elements(7), _elements(7))
def test_inverse_and_sign_n7(a, b):
    if not a.is_zero():
        assert a * a.inverse() == a.field.one
        assert (b * a.inverse()) * a == b
    assert (a * b).sign() == a.sign() * b.sign()


@settings(max_examples=40, deadline=None)
@given(_elements(12), _elements(12))
def test_mul_div_roundtrip_n12(a, b):
    if not b.is_zero():
        assert (a * b.inverse()) * b == a
    assert a - b + b == a


def test_randomized_axioms_small_fields():
    rng = random.Random(7)
    for n in (1, 2, 3, 6, 8):
        f = create(n)
        for _ in range(80):
            a = f.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(f.degree)])
            b = f.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(f.degree)])
            assert a * b == b * a
            assert (a + b) - b == a
            assert (a * b).sign() == a.sign() * b.sign()
            if not b.is_zero():
                assert (a * b.inverse()) * b == a


def test_hash_and_equality_consistency():
    f = create(4)
    a = f.theta * f.theta          # reduces to 2
    b = f.from_rational(2)
    assert a == b and hash(a) == hash(b)
    assert a != f.theta
    assert len({a, b, f.theta}) == 2


def test_rational_hash_is_that_of_the_fraction():
    # the hash is computed without fractions, from the numerator and the
    # inverse of the denominator modulo sys.hash_info.modulus; p = -q
    # hashes to -2, not -1, and a denominator the modulus divides to inf
    f = create(5)
    modulus = sys.hash_info.modulus
    for p in (*range(-13, 14), modulus, -modulus - 1, 2 ** 70 + 3, -(2 ** 64)):
        for q in (*range(1, 14), modulus, 2 * modulus, modulus - 1, 2 ** 61):
            x = FieldElement._make(f, [p, 0], q)
            assert hash(x) == hash(Fraction(p, q)), (p, q)
    assert hash(FieldElement._make(f, [-3, 0], 3)) == -2


def test_repr_and_str_forms():
    f = create(4)
    assert str(f.one) == "1"
    assert str(f.from_rational(Fraction(-7, 3))) == "-7/3"
    s = str(f.theta)  # irrational: canonical coefficient tuple
    assert s == "[0,1]"
    assert "Field" in repr(f)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
def test_print_and_compare_in_integers_as_fraction_does(n):
    # elements print, compare and hash without building a Fraction; the
    # reference is the Fraction of each coefficient
    f, rng = create(n), random.Random(n)
    for _ in range(300):
        num = [rng.choice((0, rng.randint(-60, 60))) for _ in range(f.degree)]
        if rng.random() < 0.4:
            num[1:] = [0] * (f.degree - 1)
        x = FieldElement._make(f, num, rng.randint(1, 48))
        fr = [Fraction(c, x.den) for c in x.num]
        assert str(x) == (str(fr[0]) if x.is_rational() else "[" + ",".join(map(str, fr)) + "]")
        for q in (fr[0], fr[0] + Fraction(1, 7), int(fr[0]), int(fr[0]) + 1):
            assert (x == q) == (x.is_rational() and fr[0] == q), (x, q)
        if x.is_rational():
            assert hash(x) == hash(fr[0]) and x + fr[0] == 2 * fr[0] == x * 2
    coeffs = [Fraction(1, 6), Fraction(-3, 4), 2][:f.degree]
    assert f.element(coeffs).coeffs == tuple(coeffs) + (0,) * (f.degree - len(coeffs))


def test_invalid_field_parameters():
    with pytest.raises(ValueError):
        create(0)
    with pytest.raises(ValueError):
        create(-3)
    with pytest.raises(ValueError):
        Field(1.5)  # type: ignore[arg-type]
