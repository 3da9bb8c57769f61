"""Reflections, reflection length, factorizations, Hurwitz action."""

from __future__ import annotations

import itertools
import math
import random
from importlib import resources

import pytest
from test_group import _full_bfs

from coxkit import cli, corpus, diagram, refl, roots, verify
from coxkit.errors import InvariantViolation, ResourceLimitError
from coxkit.group import (
    ball,
    from_word,
    generator,
    identity,
    inverse,
    length_and_reduced,
    multiply,
    enumerate_group,
    walk,
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


@pytest.mark.parametrize("name", corpus.AFFINE + corpus.INDEFINITE + ("h3", "b4"))
@pytest.mark.parametrize("depth", [3, 5, 7])
def test_ball_truncated_reflections_match_the_bfs_ball(name, depth):
    # the reference: the reflections among the members of a BFS ball,
    # in its order, with its words
    sys_ = diagram.parse_system(corpus.read_text(name))
    members, _, _ = _full_bfs(sys_, tuple(range(1, sys_.rank + 1)), depth, 10**6)
    expected = []
    for w in members.values():
        if len(w.word) % 2 and multiply(w, w).is_identity():
            found = [r for r in roots.inversion_set(w) if roots._reflection_matrix(sys_, r) == w]
            if found:
                expected.append((w.key, w.word, found[0].key))
    got = [(t.element.key, t.element.word, t.root.key) for t in reflections_of(sys_, depth=depth)]
    assert got == expected


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


@pytest.mark.parametrize(
    "name, gens",
    [("a3", None), ("a4", None), ("b3", None), ("b4", None), ("d4", None),
     ("h3", None), ("i2_8", None), ("d4t", (2, 3, 4, 5))],
)
def test_reflection_length_matches_length_table(name, gens):
    # the breadth-first table by reflections shares nothing with the rank
    sys_ = corpus.load(name)
    scope = gens or tuple(range(1, sys_.rank + 1))
    table = refl._length_table(sys_, scope)
    elements = enumerate_group(sys_, gens=scope).elements()
    assert len(table) == len(elements)
    for w in elements:
        assert reflection_length(sys_, w, scope) == table[w.key], w.word


# The moved-space elimination runs on key columns over Z[theta']; the
# reference is the same division-free elimination on FieldElement columns.

def _ref_reduce(basis, v):
    vec = list(v)
    for pivot, b in basis:
        c = vec[pivot]
        if not c.is_zero():
            p = b[pivot]
            vec = [p * x - c * y for x, y in zip(vec, b)]
    return vec


def _ref_moved_basis(elements):
    basis = []
    for w in elements:
        for col, unit in zip(w.cols, identity(w.system).cols):
            rest = _ref_reduce(basis, [c - u for c, u in zip(col, unit)])
            pivot = next((i for i, c in enumerate(rest) if not c.is_zero()), None)
            if pivot is not None:
                basis.append((pivot, rest))
    return basis


@pytest.mark.parametrize("name", ["b4", "f4", "h4"])
def test_moved_space_matches_field_elimination(name):
    sys_ = corpus.load(name)
    rng = random.Random(13)
    refs = reflections_of(sys_)
    for _ in range(12):
        elements = [
            from_word(sys_, tuple(rng.randint(1, sys_.rank) for _ in range(rng.randint(0, 12))))
            for _ in range(rng.randint(1, 2))
        ]
        basis = refl._moved_basis(elements)
        ref = _ref_moved_basis(elements)
        assert len(basis) == len(ref)
        for t in refs:
            in_span = not any(refl._reduce(sys_, basis, t.root.key))
            assert in_span == all(c.is_zero() for c in _ref_reduce(ref, t.root.coords))


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


def table_search(sys_, w):
    """Factor keys of every minimal factorization of w, found by the
    table-driven depth-first search over reflections_of order."""
    table = refl._length_table(sys_, tuple(range(1, sys_.rank + 1)))
    refs = reflections_of(sys_)
    out, prefix = [], []

    def descend(remaining, depth):
        if depth == 0:
            out.append(tuple(t.key for t in prefix))
            return
        for t in refs:
            rest = multiply(t.element, remaining)
            if table[rest.key] == depth - 1:
                prefix.append(t)
                descend(rest, depth - 1)
                prefix.pop()

    descend(w, table[w.key])
    return out


@pytest.mark.parametrize("name", ["a3", "b3"])
def test_reduced_factorizations_match_table_search_whole_group(name):
    sys_ = corpus.load(name)
    for w in enumerate_group(sys_).elements():
        facts = reduced_factorizations(sys_, w)
        assert [f.key for f in facts] == table_search(sys_, w), w.word


@pytest.mark.parametrize("name", ["a4", "b4", "d4", "h3"])
def test_reduced_factorizations_match_table_search_coxeter(name):
    sys_ = corpus.load(name)
    c = from_word(sys_, tuple(range(1, sys_.rank + 1)))
    assert [f.key for f in reduced_factorizations(sys_, c)] == table_search(sys_, c)


def test_reduced_factorizations_h4_and_f4():
    h4 = corpus.load("h4")
    w = from_word(h4, (1, 2))
    assert reflection_length(h4, w) == 2
    assert len(reduced_factorizations(h4, w)) == 5
    # Deligne's count n! h^n / |W| from the classical degrees of F4
    degrees = (2, 6, 8, 12)
    n = len(degrees)
    expected = math.factorial(n) * max(degrees) ** n // math.prod(degrees)
    assert expected == 432
    f4 = corpus.load("f4")
    c = from_word(f4, (1, 2, 3, 4))
    assert reflection_length(f4, c) == 4
    assert len(reduced_factorizations(f4, c)) == expected


def test_no_length_table_is_built(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("reflection-length table built")

    monkeypatch.setattr(refl, "_length_table", refuse)
    b3 = corpus.load("b3")
    c = from_word(b3, (1, 2, 3))
    assert reflection_length(b3, c) == 3
    assert len(reduced_factorizations(b3, c)) == 27
    assert parabolic_coxeter_check(b3, c)
    a3 = str(resources.files("coxkit.data") / "a3.cox")
    assert cli.main(["redt", "1", "2", "3", "--diagram", a3]) == 0
    assert capsys.readouterr().out.endswith("count: 16\n")
    assert verify.verify_example_d4tilde().passed


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
    a2 = corpus.load("a2")
    refs = reflections_of(a2)
    with pytest.raises(InvariantViolation):
        ReflectionFactorization((refs[0], refs[0]), from_word(a2, (1, 2)))


def test_reduced_factorizations_check_each_tail(monkeypatch):
    # the results are built without multiplying their factors again, so
    # the search itself must catch a tail that does not multiply to w:
    # here the last step of each branch, t * t, comes back as s1
    b3 = diagram.parse_system(corpus.read_text("b3"))
    c = from_word(b3, (1, 2, 3))
    facts = reduced_factorizations(b3, c)
    assert len(facts) == 27
    assert all(f == ReflectionFactorization(f.factors, c) for f in facts)

    def corrupted(a, b):
        p = multiply(a, b)
        return generator(b3, 1) if p.is_identity() else p

    monkeypatch.setattr(refl.group_mod, "multiply", corrupted)
    with pytest.raises(InvariantViolation, match="do not multiply to the stated product"):
        reduced_factorizations(b3, c)


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


def test_hurwitz_move_checks_the_new_pair(monkeypatch):
    # a move builds its result without multiplying out all factors; a
    # wrong conjugate must still be caught by the check on the pair
    b4 = diagram.parse_system(corpus.read_text("b4"))
    c = from_word(b4, (1, 2, 3, 4))
    f = reduced_factorizations(b4, c)[0]
    for slot in (1, 2, 3):
        for direction in ("forward", "backward"):
            g = hurwitz_move(f, slot, direction)
            assert g == ReflectionFactorization(g.factors, g.product)
    monkeypatch.setattr(refl, "_conjugate_reflection", lambda sys_, a, b: a)
    for slot in (1, 2, 3):
        for direction in ("forward", "backward"):
            with pytest.raises(InvariantViolation, match="do not multiply to the stated product"):
                hurwitz_move(f, slot, direction)


def test_hurwitz_orbit_is_all_reduced_factorizations():
    for name, count in [("a2", 3), ("a3", 16)]:
        sys_ = corpus.load(name)
        c = from_word(sys_, tuple(range(1, sys_.rank + 1)))
        facts = reduced_factorizations(sys_, c)
        orbit = hurwitz_orbit(facts[0])
        assert len(orbit) == count
        assert {f.key for f in orbit} == {f.key for f in facts}


def test_one_reflection_object_per_root():
    # the finite list, the Hurwitz conjugates and the CLI's parser hand out
    # the same object for a root, and with it one product cache
    b3 = corpus.load("b3")
    refs = reflections_of(b3)
    by_root = {t.root.key: t for t in refs}
    assert len(by_root) == len(refs) == 9
    for a in refs:
        for b in refs:
            t = refl._conjugate_reflection(b3, a, b)
            assert by_root[t.root.key] is t
    for t in refs:
        assert cli._reflection_from_word(b3, t.element.word) is t


def test_hurwitz_orbit_builds_each_reflection_once(monkeypatch):
    b3 = diagram.parse_system(corpus.read_text("b3"))
    c = from_word(b3, (1, 2, 3))
    facts = reduced_factorizations(b3, c)
    built = []
    of_root = roots.reflection_of_root
    monkeypatch.setattr(roots, "reflection_of_root", lambda sys_, r: built.append(r) or of_root(sys_, r))
    orbit = hurwitz_orbit(facts[0])
    assert {f.key for f in orbit} == {f.key for f in facts}
    assert len(built) == len(set(built)) <= len(reflections_of(b3))


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


def test_closures_check_the_cap_before_their_seeds():
    # cap=0 leaves room for nothing: a closure that admits its seeds
    # unchecked would return them, as the walk does not
    h3 = corpus.load("h3")
    f = reduced_factorizations(h3, from_word(h3, (1, 2, 3)))[0]
    for run in (
        lambda: ball(h3, 0, cap=0),
        lambda: hurwitz_orbit(f, cap=0),
        lambda: generated_group([], sys_=h3, cap=0),
        lambda: list(walk(h3, cap=0)),
    ):
        with pytest.raises(ResourceLimitError):
            run()
    assert len(ball(h3, 0, cap=1)) == len(generated_group([], sys_=h3, cap=1)) == 1


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
    # a Coxeter element of s3 W_{1,2} s3, but l = 4 exceeds l_T = 2
    assert not parabolic_coxeter_check(a3, from_word(a3, (3, 1, 2, 3)))
    # conjugates of standard Coxeter elements pass
    g = from_word(a3, (2, 1))
    conj = multiply(multiply(g, from_word(a3, (1, 2, 3))), inverse(g))
    assert parabolic_coxeter_check(a3, conj)


def test_parabolic_coxeter_check_keys_its_memo_by_the_scope_as_a_set():
    b3 = diagram.parse_system(corpus.read_text("b3"))
    w = from_word(b3, (1, 2))
    assert parabolic_coxeter_check(b3, w, gens=(1, 2))
    entries = len(b3._cache)
    assert parabolic_coxeter_check(b3, w, gens=(2, 1))
    assert len(b3._cache) == entries


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
