"""Reflections, reflection length, factorizations, Hurwitz action."""

from __future__ import annotations

import itertools
import random

import pytest

from coxkit import corpus
from coxkit.errors import ResourceLimitError
from coxkit.group import (
    from_word,
    generator,
    identity,
    inverse,
    length_and_reduced,
    multiply,
    enumerate_group,
)
from coxkit.refl import (
    ReflectionFactorization,
    factorization_str,
    generated_group,
    hurwitz_move,
    hurwitz_orbit,
    parabolic_coxeter_check,
    reduced_factorizations,
    reflection_length,
    reflections_of,
)


def test_reflection_counts_finite():
    for name, count in [("a2", 3), ("b2", 4), ("a3", 6), ("h3", 15), ("d4", 12)]:
        sys_ = corpus.load(name)
        refs = reflections_of(sys_)
        assert len(refs) == count, name
        for t in refs:
            assert multiply(t.element, t.element).is_identity()
            assert len(t.element.word) % 2 == 1


def test_reflections_infinite_scope_needs_depth():
    a1t = corpus.load("a1t")
    with pytest.raises(ValueError):
        reflections_of(a1t)
    # in the infinite dihedral group every odd-length element reflects
    refs = reflections_of(a1t, depth=5)
    assert len(refs) == 6
    assert sorted(len(t.element.word) for t in refs) == [1, 1, 3, 3, 5, 5]


def test_ball_truncated_reflections_exclude_odd_involutions():
    # the longest element of H3 is central of odd length 15 but not a reflection
    h3 = corpus.load("h3")
    full = enumerate_group(h3)
    w0 = max(full.elements(), key=lambda w: len(w.word))
    assert len(w0.word) == 15
    assert multiply(w0, w0).is_identity()
    keys = {t.element.key for t in reflections_of(h3, depth=15)}
    assert w0.key not in keys
    assert len(keys) == 15


def test_reflection_length_small_cases():
    a2 = corpus.load("a2")
    assert reflection_length(a2, identity(a2)) == 0
    assert reflection_length(a2, generator(a2, 1)) == 1
    assert reflection_length(a2, from_word(a2, (1, 2))) == 2
    assert reflection_length(a2, from_word(a2, (1, 2, 1))) == 1
    b2 = corpus.load("b2")
    w0 = from_word(b2, (1, 2, 1, 2))
    assert length_and_reduced(w0)[0] == 4
    assert reflection_length(b2, w0) == 2


def test_reflection_length_coxeter_element_is_rank():
    for name in ("a2", "a3", "b3", "h3"):
        sys_ = corpus.load(name)
        c = from_word(sys_, tuple(range(1, sys_.rank + 1)))
        assert reflection_length(sys_, c) == sys_.rank, name


@pytest.mark.parametrize("name", ["a3", "a4"])
def test_reflection_length_type_a_matches_cycle_count(name):
    # s_i swaps the points i and i+1 of 1..n+1; l_T is n+1 minus the cycle count
    sys_ = corpus.load(name)
    points = sys_.rank + 1
    for w in enumerate_group(sys_).elements():
        perm = list(range(points))
        for s in length_and_reduced(w)[1]:
            perm[s - 1], perm[s] = perm[s], perm[s - 1]
        cycles, seen = 0, set()
        for start in range(points):
            if start not in seen:
                cycles += 1
                while start not in seen:
                    seen.add(start)
                    start = perm[start]
        assert reflection_length(sys_, w) == points - cycles, w.word


def test_reflection_length_conjugation_invariant():
    a3 = corpus.load("a3")
    rng = random.Random(2)
    for _ in range(10):
        w = from_word(a3, tuple(rng.randint(1, 3) for _ in range(6)))
        g = from_word(a3, tuple(rng.randint(1, 3) for _ in range(5)))
        conj = multiply(multiply(g, w), inverse(g))
        assert reflection_length(a3, conj) == reflection_length(a3, w)


def test_reflection_length_requires_scope_membership():
    a3 = corpus.load("a3")
    with pytest.raises(ValueError):
        reflection_length(a3, from_word(a3, (3,)), gens=(1, 2))
    with pytest.raises(ValueError):
        reflection_length(corpus.load("a1t"), identity(corpus.load("a1t")))


# ---------------------------------------------------------- factorizations

def brute_force_count(sys_, w, k):
    refs = reflections_of(sys_)
    count = 0
    for combo in itertools.product(refs, repeat=k):
        acc = identity(sys_)
        for t in combo:
            acc = multiply(acc, t.element)
        if acc.key == w.key:
            count += 1
    return count


def test_reduced_factorizations_a2():
    a2 = corpus.load("a2")
    c = from_word(a2, (1, 2))
    facts = reduced_factorizations(a2, c)
    assert len(facts) == 3
    assert brute_force_count(a2, c, 2) == 3
    for f in facts:
        assert len(f) == 2
        acc = multiply(f.factors[0].element, f.factors[1].element)
        assert acc == c
    # deterministic output, repeatable
    assert [factorization_str(f) for f in facts] == [
        factorization_str(f) for f in reduced_factorizations(a2, c)
    ]


def test_reduced_factorizations_a3_count():
    a3 = corpus.load("a3")
    c = from_word(a3, (1, 2, 3))
    facts = reduced_factorizations(a3, c)
    assert len(facts) == 16
    assert len({f.key for f in facts}) == 16


def test_factorization_guardrail_and_validation():
    b4 = corpus.load("b4")
    w0 = max(enumerate_group(b4).elements(), key=lambda w: len(w.word))
    # the longest element of B4 is -1, reflection length 4, fine; but a
    # scope mismatch must fail loudly
    with pytest.raises(ValueError):
        reduced_factorizations(b4, w0, gens=(1, 2))
    from coxkit.errors import InvariantViolation
    a2 = corpus.load("a2")
    refs = reflections_of(a2)
    with pytest.raises(InvariantViolation):
        ReflectionFactorization((refs[0], refs[0]), from_word(a2, (1, 2)))


# ---------------------------------------------------------------- Hurwitz

def test_hurwitz_move_roundtrip():
    a3 = corpus.load("a3")
    c = from_word(a3, (1, 2, 3))
    f = reduced_factorizations(a3, c)[0]
    for slot in (1, 2):
        g = hurwitz_move(f, slot, "forward")
        assert g.product == c
        assert hurwitz_move(g, slot, "backward").key == f.key
    with pytest.raises(ValueError):
        hurwitz_move(f, 3)
    with pytest.raises(ValueError):
        hurwitz_move(f, 0)
    with pytest.raises(ValueError):
        hurwitz_move(f, 1, "sideways")


def test_hurwitz_orbit_is_all_reduced_factorizations():
    for name, count in [("a2", 3), ("a3", 16)]:
        sys_ = corpus.load(name)
        c = from_word(sys_, tuple(range(1, sys_.rank + 1)))
        facts = reduced_factorizations(sys_, c)
        orbit = hurwitz_orbit(facts[0])
        assert len(orbit) == count
        assert {f.key for f in orbit} == {f.key for f in facts}


def test_hurwitz_orbit_cap():
    a3 = corpus.load("a3")
    c = from_word(a3, (1, 2, 3))
    f = reduced_factorizations(a3, c)[0]
    with pytest.raises(ResourceLimitError):
        hurwitz_orbit(f, cap=5)


def test_generated_group():
    a2 = corpus.load("a2")
    assert len(generated_group([generator(a2, 1)])) == 2
    assert len(generated_group([generator(a2, 1), generator(a2, 2)])) == 6
    c = from_word(a2, (1, 2))
    f = reduced_factorizations(a2, c)[0]
    assert len(generated_group(f)) == 6
    a1t = corpus.load("a1t")
    with pytest.raises(ResourceLimitError):
        generated_group([generator(a1t, 1), generator(a1t, 2)], cap=50)


def test_generated_group_constant_across_hurwitz_orbit():
    a3 = corpus.load("a3")
    c = from_word(a3, (1, 2, 3))
    orbit = hurwitz_orbit(reduced_factorizations(a3, c)[0])
    sizes = {len(generated_group(f)) for f in orbit}
    assert sizes == {24}


# ------------------------------------------------- parabolic Coxeter check

def test_parabolic_coxeter_check():
    a2 = corpus.load("a2")
    assert parabolic_coxeter_check(a2, identity(a2))
    assert parabolic_coxeter_check(a2, generator(a2, 1))
    assert parabolic_coxeter_check(a2, from_word(a2, (1, 2)))
    assert not parabolic_coxeter_check(a2, from_word(a2, (1, 2, 1)))
    b2 = corpus.load("b2")
    assert not parabolic_coxeter_check(b2, from_word(b2, (1, 2, 1, 2)))
    a3 = corpus.load("a3")
    assert parabolic_coxeter_check(a3, from_word(a3, (1, 3)))
    # conjugates of standard Coxeter elements pass
    g = from_word(a3, (2, 1))
    conj = multiply(multiply(g, from_word(a3, (1, 2, 3))), inverse(g))
    assert parabolic_coxeter_check(a3, conj)


# ---------------------------------------- ambient factorizations, affine D4

def test_ambient_reduced_factorizations_stay_in_the_finite_parabolic():
    # v = s4 s3 s4 s5 s3 s2 lies in the D4 parabolic of affine D4. Its
    # reduced reflection factorizations taken with ambient reflections of
    # length <= 7 must use reflections of the parabolic only, and none
    # shorter than 4 exist.
    d4t = corpus.load("d4t")
    v = from_word(d4t, (4, 3, 4, 5, 3, 2))
    trunc = [t.element for t in reflections_of(d4t, depth=7)]
    vkey = v.key
    assert vkey not in {t.key for t in trunc}  # length 1 impossible

    pair_products: dict = {}
    for t in trunc:
        for u in trunc:
            pair_products.setdefault(multiply(t, u).key, []).append((t.key, u.key))
    assert vkey not in pair_products  # length 2 impossible
    for t in trunc:
        # a 3-factorization t t2 t3 = v would put t^{-1} v = t v in the pair map
        assert multiply(t, v).key not in pair_products

    found = []
    for t1 in trunc:
        rest1 = multiply(t1, v)
        for t2 in trunc:
            rest2 = multiply(t2, rest1)
            for (k3, k4) in pair_products.get(rest2.key, ()):
                found.append((t1.key, t2.key, k3, k4))
    assert found
    w_prime_keys = {t.element.key for t in reflections_of(d4t, gens=(2, 3, 4, 5))}
    for quad in found:
        for key in quad:
            assert key in w_prime_keys
