"""Group arithmetic, lengths, and ball enumeration.

The A2 facts are cross-checked against an independent permutation model
of S3 (transpositions composed by hand), and infinite dihedral facts
against the closed form l((s1 s2)^k) = 2k.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import corpus
from coxkit.errors import ResourceLimitError
from coxkit.group import (
    apply,
    ball,
    canonical,
    coxeter_element,
    enumerate_group,
    from_word,
    generator,
    identity,
    inverse,
    is_straight_upto,
    length_and_reduced,
    multiply,
    order_upto,
    parse_word,
    power,
    word_str,
)

# ------------------------------------------------------------ S3 oracle

TRANS = {1: (1, 0, 2), 2: (0, 2, 1)}  # adjacent transpositions as images of 0,1,2
IDPERM = (0, 1, 2)


def compose(p, q):  # p after q
    return tuple(p[q[i]] for i in range(3))


def perm_of_word(word):
    out = IDPERM
    for s in word:
        out = compose(out, TRANS[s])
    return out


def perm_lengths():
    dist = {IDPERM: 0}
    frontier = [IDPERM]
    while frontier:
        nxt = []
        for p in frontier:
            for t in TRANS.values():
                q = compose(p, t)
                if q not in dist:
                    dist[q] = dist[p] + 1
                    nxt.append(q)
        frontier = nxt
    return dist


def test_a2_against_permutation_model():
    a2 = corpus.load("a2")
    dist = perm_lengths()
    assert len(dist) == 6
    seen = {}
    for word in itertools.chain.from_iterable(
        itertools.product((1, 2), repeat=k) for k in range(5)
    ):
        w = from_word(a2, word)
        p = perm_of_word(word)
        if p in seen:
            assert seen[p] == w.key, word
        else:
            seen[p] = w.key
        assert length_and_reduced(w)[0] == dist[p], word
    assert len(set(seen.values())) == 6


# ------------------------------------------------------------- basic algebra

def test_generators_are_involutions():
    for name in ("a2", "b2", "a3", "d4t", "tri334"):
        sys_ = corpus.load(name)
        for s in range(1, sys_.rank + 1):
            g = generator(sys_, s)
            assert multiply(g, g).is_identity()
            assert not g.is_identity()


def test_braid_relation_a2():
    a2 = corpus.load("a2")
    assert from_word(a2, (1, 2, 1)) == from_word(a2, (2, 1, 2))
    assert from_word(a2, (1, 2) * 3).is_identity()


def test_unreduced_word_shrinks_to_canonical():
    a2 = corpus.load("a2")
    w = from_word(a2, (1, 2, 1, 2))
    assert length_and_reduced(w) == (2, (2, 1))


def test_inverse_and_power():
    b2 = corpus.load("b2")
    c = coxeter_element(b2)
    assert multiply(c, inverse(c)).is_identity()
    assert order_upto(c, 10) == 4
    assert power(c, -1) == inverse(c)
    assert power(c, 4).is_identity()
    assert power(c, 0).is_identity()
    a2 = corpus.load("a2")
    assert order_upto(coxeter_element(a2), 10) == 3
    assert order_upto(identity(a2), 10) == 1
    assert order_upto(generator(a2, 1), 10) == 2


def test_apply_matrix_action():
    a2 = corpus.load("a2")
    f = a2.field
    e1 = (f.one, f.zero)
    s1 = generator(a2, 1)
    img = apply(s1, e1)
    assert img == (-f.one, f.zero)
    # s1(e2) = e2 + e1 since B(e1,e2) = -1/2
    img2 = apply(s1, (f.zero, f.one))
    assert img2 == (f.one, f.one)


# ----------------------------------------------------------------- the ball

def test_ball_sizes_a2():
    a2 = corpus.load("a2")
    assert [len(ball(a2, r)) for r in range(4)] == [1, 3, 5, 6]
    # at radius 3 the last frontier is still unexpanded, so closure is unknown
    assert not ball(a2, 3).complete
    assert ball(a2, 4).complete
    assert len(ball(a2, 10)) == 6


def test_ball_sizes_infinite_dihedral():
    a1t = corpus.load("a1t")
    for r in range(7):
        assert len(ball(a1t, r)) == 2 * r + 1
    assert not ball(a1t, 6).complete


def test_ball_words_are_reduced_and_faithful():
    for name in ("a2", "b2", "d4t"):
        sys_ = corpus.load(name)
        b = ball(sys_, 3)
        words_seen = set()
        for w in b.elements():
            l, red = length_and_reduced(w)
            assert l == len(w.word)
            assert from_word(sys_, red).key == w.key
            assert red not in words_seen
            words_seen.add(red)


def test_ball_gen_order_invariance():
    d4t = corpus.load("d4t")
    b1 = ball(d4t, 3)
    b2_ = ball(d4t, 3, gens=(5, 4, 3, 2, 1))
    assert set(b1.members) == set(b2_.members)


def test_length_changes_by_one_under_right_multiplication():
    for name in ("a2", "c2t"):
        sys_ = corpus.load(name)
        for w in ball(sys_, 3).elements():
            l = length_and_reduced(w)[0]
            for s in range(1, sys_.rank + 1):
                ls = length_and_reduced(multiply(w, generator(sys_, s)))[0]
                assert abs(ls - l) == 1


def test_parabolic_enumeration():
    a3 = corpus.load("a3")
    sub = enumerate_group(a3, gens=(1, 2))
    assert len(sub) == 6
    assert sub.complete
    full = enumerate_group(a3)
    assert len(full) == 24
    assert all(k in full.members for k in sub.members)


def test_caps_raise():
    a1t = corpus.load("a1t")
    with pytest.raises(ResourceLimitError):
        ball(a1t, 50, cap=20)
    with pytest.raises(ResourceLimitError):
        enumerate_group(a1t, cap=100)


def test_ball_parent_links():
    b3 = corpus.load("b3")
    b = ball(b3, 3)
    for key, w in b.members.items():
        link = b.parent[key]
        if not w.word:
            assert link is None
        else:
            pkey, s = link
            assert s == w.word[-1]
            assert b.members[pkey].word == w.word[:-1]


@pytest.mark.parametrize("name,radius", [("d4t", 6), ("tri334", 8), ("g2t", 9), ("h3", None)])
def test_ball_order_is_shortlex(name, radius):
    sys_ = corpus.load(name)
    b = enumerate_group(sys_) if radius is None else ball(sys_, radius)
    words = [w.word for w in b.elements()]
    assert words == sorted(words, key=lambda word: (len(word), word))


# ----------------------------------------------------------- straightness

def test_straightness_probes():
    a1t = corpus.load("a1t")
    c = coxeter_element(a1t)
    assert is_straight_upto(c, 10)
    assert order_upto(c, 30) is None
    for k in range(1, 6):
        assert length_and_reduced(power(c, k))[0] == 2 * k
    a2 = corpus.load("a2")
    assert not is_straight_upto(coxeter_element(a2), 3)  # finite order kills it


def test_coxeter_element_permutations():
    d4t = corpus.load("d4t")
    c = coxeter_element(d4t, (3, 1, 2, 5, 4))
    assert length_and_reduced(c)[0] == 5
    with pytest.raises(ValueError):
        coxeter_element(d4t, (1, 2, 3))
    with pytest.raises(ValueError):
        coxeter_element(d4t, (1, 1, 2, 3, 4))


# ------------------------------------------------------------ words and text

def test_word_text_forms():
    assert word_str(()) == "e"
    assert word_str((1, 2, 1)) == "1 2 1"
    assert parse_word("e", 5) == ()
    assert parse_word(" 1 2 1 ", 2) == (1, 2, 1)
    with pytest.raises(ValueError):
        parse_word("0 1", 2)
    with pytest.raises(ValueError):
        parse_word("1 x", 2)
    with pytest.raises(ValueError):
        parse_word("3", 2)


def test_rank_zero_and_one():
    import coxkit.diagram as D

    triv = D.parse_system("rank 0\n")
    assert identity(triv).is_identity()
    assert len(enumerate_group(triv)) == 1
    assert coxeter_element(triv).is_identity()
    a1 = corpus.load("a1")
    assert len(enumerate_group(a1)) == 2
    assert length_and_reduced(from_word(a1, (1, 1, 1)))[0] == 1


# ----------------------------------------------------------- property checks

@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), max_size=8))
def test_word_properties_a3(word):
    a3 = corpus.load("a3")
    w = from_word(a3, word)
    l, red = length_and_reduced(w)
    assert l <= len(word)
    assert (l - len(word)) % 2 == 0  # the sign character fixes the parity
    assert from_word(a3, red).key == w.key
    assert length_and_reduced(inverse(w))[0] == l
    assert canonical(w).word == red


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=3), max_size=6),
    st.lists(st.integers(min_value=1, max_value=3), max_size=6),
    st.lists(st.integers(min_value=1, max_value=3), max_size=6),
)
def test_multiplication_associative_tri334(u, v, w):
    sys_ = corpus.load("tri334")
    a, b, c = (from_word(sys_, x) for x in (u, v, w))
    left = multiply(multiply(a, b), c)
    right = multiply(a, multiply(b, c))
    assert left == right


def test_random_word_inverse_roundtrip():
    rng = random.Random(11)
    h3 = corpus.load("h3")
    for _ in range(25):
        word = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 10)))
        w = from_word(h3, word)
        assert multiply(w, inverse(w)).is_identity()
        assert multiply(inverse(w), w).is_identity()
