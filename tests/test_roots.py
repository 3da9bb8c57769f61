"""Roots, inversion sets, beta sequences, reflections, outwardness."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import corpus, diagram, group, parabolic, refl
from coxkit import roots as roots_mod
from coxkit.errors import InvariantViolation
from coxkit.group import (
    coxeter_element,
    enumerate_group,
    from_word,
    generator,
    inverse,
    length_and_reduced,
    multiply,
)
from coxkit.roots import (
    act,
    beta_sequence,
    inversion_set,
    is_outward_upto,
    make_root,
    outward_representatives,
    positive_roots,
    reflection_of_root,
    root_str,
    simple_root,
)


def frac_coords(root):
    return tuple(c.as_rational() if c.is_rational() else c.coeffs for c in root.coords)


# --------------------------------------------------------------- root basics

def test_make_root_signs():
    # a2 has d' = 1: a key column is one int per coordinate
    a2 = corpus.load("a2")
    pos = make_root(a2, (1, 0))
    assert pos.positive
    neg = make_root(a2, (-1, -1))
    assert not neg.positive
    assert (-pos).positive is False
    with pytest.raises(InvariantViolation):
        make_root(a2, (1, -1))
    with pytest.raises(InvariantViolation):
        make_root(a2, (0, 0))
    # a root is built from its key column only, not from Q(theta) coordinates
    with pytest.raises(TypeError, match=r"key column of ints over Z\[theta'\]"):
        make_root(a2, (a2.field.one, a2.field.zero))
    # the same on b2, d' = 2, where the bare error came from another comparison
    b2 = corpus.load("b2")
    with pytest.raises(TypeError, match=r"key column of ints over Z\[theta'\]"):
        make_root(b2, (b2.field.one, b2.field.zero))


def test_positive_roots_counts():
    # number of positive roots = number of reflections, standard tables
    expected = {"a2": 3, "b2": 4, "a3": 6, "d4": 12, "h3": 15, "f4": 24, "i2_7": 7}
    for name, count in expected.items():
        sys_ = corpus.load(name)
        roots = positive_roots(sys_)
        assert len(roots) == count, name
        assert all(r.positive for r in roots)


def test_positive_roots_a2_exact():
    a2 = corpus.load("a2")
    got = {frac_coords(r) for r in positive_roots(a2)}
    assert got == {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))}


@pytest.mark.parametrize("name", ["a1t", "d4t", "tri334"])
def test_positive_roots_infinite_scope_raises(name):
    with pytest.raises(ValueError, match="finite"):
        positive_roots(corpus.load(name))


# The root layer computes on key columns over Z[theta']. The references
# below are the Q(theta) paths it replaced: the root orbit through
# sigma_s(v) = v - 2 B(e_s, v) e_s on FieldElement coordinates, and act
# through group.apply on the coordinate view.

def _ref_reflect(sys_, s, v):
    two_bv = sum((b * x for b, x in zip(sys_.gram[s - 1], v)), sys_.field.zero) * 2
    out = list(v)
    out[s - 1] = out[s - 1] - two_bv
    return tuple(out)


def _first_sign(v):
    return next(c for c in v if not c.is_zero()).sign()


def _ref_positive_roots(sys_, gens):
    """The positive roots of the finite parabolic on gens: the orbit of
    its simple roots under its generators, on FieldElement coordinates."""
    f, n = sys_.field, sys_.rank
    seen = {tuple(f.one if i == s - 1 else f.zero for i in range(n)) for s in gens}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for s in gens:
                u = _ref_reflect(sys_, s, v)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    positive = [v for v in seen if _first_sign(v) > 0]
    return sorted(positive, key=lambda v: tuple((e.num, e.den) for e in v))


def _finite_parabolics(sys_):
    gens = range(1, sys_.rank + 1)
    return [
        j for k in range(sys_.rank + 1) for j in itertools.combinations(gens, k)
        if diagram.is_spherical(sys_, j)
    ]


@pytest.mark.parametrize("name", corpus.names())
def test_positive_roots_match_field_orbit(name):
    # every finite standard parabolic, the empty one and those of the
    # infinite systems included: the roots read off the word of w_J are
    # the field orbit, one per letter, and w_J sends each one negative
    sys_ = diagram.parse_system(corpus.read_text(name))
    for j in _finite_parabolics(sys_):
        ref = _ref_positive_roots(sys_, j)
        assert [r.coords for r in positive_roots(sys_, j)] == ref, j
        w0 = parabolic.longest_element(sys_, j)
        assert len(w0.word) == len(ref), j
        assert all(_first_sign(group.apply(w0, v)) < 0 for v in ref), j


def test_one_memo_entry_per_subset():
    sys_ = diagram.parse_system(corpus.read_text("b3"))
    first = positive_roots(sys_, (1, 2))
    reflections = refl.reflections_of(sys_, (1, 2))
    entries = len(sys_._cache)
    for gens in ((2, 1), (2, 1, 2)):
        assert positive_roots(sys_, gens) == first
        assert refl.reflections_of(sys_, gens) == reflections
    assert len(sys_._cache) == entries


@pytest.mark.parametrize("name", ["b4", "f4", "h4", "d4t", "tri334"])
def test_act_matches_field_apply(name):
    sys_ = corpus.load(name)
    rng = random.Random(7)
    for _ in range(25):
        w = from_word(sys_, tuple(rng.randint(1, sys_.rank) for _ in range(rng.randint(0, 9))))
        v = from_word(sys_, tuple(rng.randint(1, sys_.rank) for _ in range(rng.randint(0, 9))))
        root = act(v, simple_root(sys_, rng.randint(1, sys_.rank)))
        img = act(w, root)
        coords = group.apply(w, root.coords)
        assert img.coords == coords
        assert img.positive == (next(c for c in coords if not c.is_zero()).sign() > 0)


def test_act_matches_columns():
    b3 = corpus.load("b3")
    w = from_word(b3, (1, 2, 3, 1))
    for s in range(1, 4):
        img = act(w, simple_root(b3, s))
        assert img.coords == w.cols[s - 1]


# ------------------------------------------------------------ inversion sets

def test_inversion_sets_a2():
    a2 = corpus.load("a2")
    w0 = from_word(a2, (1, 2, 1))
    inv = inversion_set(w0)
    assert {r.key for r in inv} == {r.key for r in positive_roots(a2)}
    assert inversion_set(from_word(a2, ())) == []
    c = from_word(a2, (1, 2))
    assert len(inversion_set(c)) == 2


@pytest.mark.parametrize("name", ["b3", "h3"])
def test_inversion_set_oracles_whole_group(name):
    # as a set: the positive roots w sends negative; entry i: the suffix
    # product s_{j_k} ... s_{j_{i+1}} applied to e_{j_i}
    sys_ = corpus.load(name)
    pos = positive_roots(sys_)
    for w in enumerate_group(sys_).elements():
        inv = inversion_set(w)
        assert {r.key for r in inv} == {a.key for a in pos if not act(w, a).positive}
        _, word = length_and_reduced(w)
        for i, r in enumerate(inv):
            suffix = from_word(sys_, tuple(reversed(word[i + 1 :])))
            assert r == act(suffix, simple_root(sys_, word[i]))


def test_inversion_count_equals_length():
    rng = random.Random(3)
    for name in ("a3", "b3", "c2t"):
        sys_ = corpus.load(name)
        for _ in range(12):
            word = tuple(rng.randint(1, sys_.rank) for _ in range(rng.randint(0, 8)))
            w = from_word(sys_, word)
            assert len(inversion_set(w)) == length_and_reduced(w)[0]


def test_beta_sequence_example_a2():
    a2 = corpus.load("a2")
    c = from_word(a2, (1, 2))
    betas = beta_sequence(c)
    assert [frac_coords(b) for b in betas] == [
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
    ]


def test_beta_sequence_is_inversion_set_of_inverse():
    rng = random.Random(5)
    for name in ("a3", "b3", "g2t", "d4t"):
        sys_ = corpus.load(name)
        for _ in range(8):
            word = tuple(rng.randint(1, sys_.rank) for _ in range(rng.randint(0, 7)))
            w = from_word(sys_, word)
            betas = {r.key for r in beta_sequence(w)}
            invs = {r.key for r in inversion_set(inverse(w))}
            assert betas == invs


# -------------------------------------------------------------- reflections

def test_reflections_from_positive_roots():
    a3 = corpus.load("a3")
    refs = set()
    for alpha in positive_roots(a3):
        t = reflection_of_root(a3, alpha)
        assert multiply(t, t).is_identity()
        assert length_and_reduced(t)[0] % 2 == 1
        img = act(t, alpha)
        assert img == -alpha
        refs.add(t.key)
    assert len(refs) == 6


@pytest.mark.parametrize("name", ["h3", "f4", "b4"])
def test_reflection_columns_match_dense_gram(name):
    # column j of s_alpha is e_j - 2 B(alpha, e_j) alpha, B from the dense gram
    sys_ = corpus.load(name)
    f = sys_.field
    n = sys_.rank
    for alpha in positive_roots(sys_):
        t = reflection_of_root(sys_, alpha)
        for j in range(n):
            two_b = sum((alpha.coords[i] * sys_.gram[i][j] for i in range(n)), f.zero) * 2
            expected = tuple(
                (f.one if i == j else f.zero) - two_b * alpha.coords[i] for i in range(n)
            )
            assert t.cols[j] == expected


def test_reflection_rejects_non_unit():
    a2 = corpus.load("a2")
    doubled = make_root(a2, (2, 0))
    with pytest.raises(ValueError):
        reflection_of_root(a2, doubled)


def test_simple_reflections_match_generators():
    b2 = corpus.load("b2")
    for s in (1, 2):
        assert reflection_of_root(b2, simple_root(b2, s)) == generator(b2, s)


# ------------------------------------------------------------------ outward

def test_all_ones_pairing_positive_on_positive_roots():
    for name in ("a3", "h3"):
        sys_ = corpus.load(name)
        for r in positive_roots(sys_):
            assert roots_mod._pairing_sign(sys_, r.key) == 1
            assert roots_mod._pairing_sign(sys_, (-r).key) == -1


def test_outward_infinite_dihedral():
    a1t = corpus.load("a1t")
    c = coxeter_element(a1t)
    betas = beta_sequence(c)
    assert [frac_coords(b) for b in betas] == [
        (Fraction(1), Fraction(0)),
        (Fraction(2), Fraction(1)),
    ]
    for b in betas:
        assert is_outward_upto(c, b, max_power=10)
    # e_2 is in the inversion set of c, not of c^{-1}: it drifts inward
    assert not is_outward_upto(c, simple_root(a1t, 2), max_power=10)
    reps = outward_representatives(c)
    assert len(reps) == 2


def test_outward_rejects_non_straight():
    a2 = corpus.load("a2")
    with pytest.raises(ValueError):
        outward_representatives(coxeter_element(a2))


def test_outward_representatives_affine_triangle():
    a2t = corpus.load("a2t")
    c = coxeter_element(a2t)
    reps = outward_representatives(c, max_power=6, orbit_bound=6)
    assert len(reps) == 3
    for b in reps:
        assert b.positive


def test_root_str_forms():
    a2 = corpus.load("a2")
    assert root_str(simple_root(a2, 1)) == "(1, 0)"
    b2 = corpus.load("b2")
    r = act(generator(b2, 1), simple_root(b2, 2))  # e2 + sqrt2 e1
    assert root_str(r) == "([0,1], 1)"


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), max_size=7))
def test_inversion_properties_b3(word):
    b3 = corpus.load("b3")
    w = from_word(b3, tuple(word))
    inv = inversion_set(w)
    assert len(inv) == length_and_reduced(w)[0]
    assert all(r.positive for r in inv)
    assert len({r.key for r in inv}) == len(inv)
