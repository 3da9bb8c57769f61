"""Roots, inversion sets, beta sequences, reflections, outwardness."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import corpus
from coxkit.errors import InvariantViolation, ResourceLimitError
from coxkit.group import (
    coxeter_element,
    from_word,
    generator,
    inverse,
    length_and_reduced,
    multiply,
)
from coxkit.roots import (
    DualPoint,
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
    a2 = corpus.load("a2")
    f = a2.field
    pos = make_root(a2, (f.one, f.zero))
    assert pos.positive
    neg = make_root(a2, (-f.one, -f.one))
    assert not neg.positive
    assert (-pos).positive is False
    with pytest.raises(InvariantViolation):
        make_root(a2, (f.one, -f.one))
    with pytest.raises(InvariantViolation):
        make_root(a2, (f.zero, f.zero))


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


def test_positive_roots_infinite_scope_capped():
    with pytest.raises(ResourceLimitError):
        positive_roots(corpus.load("a1t"), cap=50)


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


def test_reflection_rejects_non_unit():
    a2 = corpus.load("a2")
    f = a2.field
    doubled = make_root(a2, (f.from_rational(2), f.zero))
    with pytest.raises(ValueError):
        reflection_of_root(a2, doubled)


def test_simple_reflections_match_generators():
    b2 = corpus.load("b2")
    for s in (1, 2):
        assert reflection_of_root(b2, simple_root(b2, s)) == generator(b2, s)


# ------------------------------------------------------------------ outward

def test_dual_interior_positive_on_positive_roots():
    a3 = corpus.load("a3")
    x = DualPoint.interior(a3)
    for r in positive_roots(a3):
        assert x.pair(r.coords).sign() == 1
        assert x.pair((-r).coords).sign() == -1


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
    reps = outward_representatives(c, max_power=6, orbit_bound=6, straight_bound=6)
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
