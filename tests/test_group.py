"""Group arithmetic, lengths, and ball enumeration.

The A2 facts are cross-checked against an independent permutation model
of S3 (transpositions composed by hand), and infinite dihedral facts
against the closed form l((s1 s2)^k) = 2k.
"""

from __future__ import annotations

import importlib.util
import itertools
import operator
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import corpus, diagram
from coxkit import group as group_mod
from coxkit.errors import InvariantViolation, ResourceLimitError
from coxkit.group import (
    GroupElement,
    _LaneOverflow,
    _Lanes,
    _add_terms,
    _descent,
    _image,
    _packer,
    _right_key,
    _right_mul_gen,
    _ring,
    _row,
    _row_rules,
    _rules,
    _scaled,
    _steps,
    _widening,
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
    power_window,
    walk,
    word_str,
)
from coxkit.verify import commutes

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


COXETER_NUMBERS = {
    "a1": 2, "a2": 3, "a3": 4, "a4": 5, "b2": 4, "b3": 6, "b4": 8, "d4": 6,
    "f4": 12, "h3": 10, "h4": 30, "i2_5": 5, "i2_6": 6, "i2_7": 7, "i2_8": 8,
}


def test_order_of_coxeter_element_is_the_coxeter_number():
    # the textbook Coxeter numbers, independent of the power window
    assert sorted(COXETER_NUMBERS) == sorted(corpus.FINITE)
    for name, h in COXETER_NUMBERS.items():
        c = coxeter_element(corpus.load(name))
        assert order_upto(c, h) == order_upto(c, 4 * h) == h, name
        assert order_upto(c, h - 1) is None, name
        assert order_upto(c, 0) is None, name


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
    # h3, tri334 and i2_5 have irrational root coordinates, so the
    # first-nonzero-coordinate sign rule of the descent walk meets them
    for name in ("a2", "b2", "d4t", "h3", "tri334", "i2_5"):
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


def test_ball_memo_key_ignores_order_and_repeats():
    b3 = diagram.parse_system(corpus.read_text("b3"))
    first = ball(b3, 3, gens=(1, 2))
    entries = len(b3._cache)
    assert ball(b3, 3, gens=(1, 1, 2)) is first
    assert ball(b3, 3, gens=(2, 1)) is first
    assert len(b3._cache) == entries


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


def _load_oracle():
    # perfbench's closed forms read the Coxeter matrix with their own parser
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name,radius",
    [("a1t", 8), ("a2t", 8), ("c2t", 8), ("g2t", 8), ("tri334", 8), ("d4t", 6)],
)
def test_ball_layers_match_growth_series(name, radius):
    oracle = _load_oracle()
    series = oracle.growth_series(oracle.parse_cox(corpus.read_text(name)), radius)
    b = ball(corpus.load(name), radius)
    depth: dict = {}
    for key, link in b.parent.items():
        depth[key] = 0 if link is None else depth[link[0]] + 1
    layers = [0] * (radius + 1)
    for d in depth.values():
        layers[d] += 1
    assert layers == series


# ------------------------------------------- the walked ball against a full BFS

def _full_bfs(sys_, gens, radius, cap):
    """Reference BFS: every generator from every element, layer by layer."""
    e = identity(sys_)
    members, parent = {e.key: e}, {e.key: None}
    frontier, layer = [e], 0
    while frontier and (radius is None or layer < radius):
        layer += 1
        nxt = []
        for x in frontier:
            for s in gens:
                y = _right_mul_gen(x, s)
                if y.key in members:
                    continue
                if len(members) >= cap:
                    raise ResourceLimitError(f"ball enumeration exceeded the cap of {cap} elements")
                members[y.key], parent[y.key] = y, (x.key, s)
                nxt.append(y)
        frontier = nxt
    return members, parent, not frontier


def _fresh(name):
    # a system with an empty memo, so the ball under test is really built
    return diagram.parse_system(corpus.read_text(name))


def _check_against_full_bfs(sys_, radius, gens):
    # the ball sorts its generators; the BFS on them in the given order
    # reaches the same members, in another order
    gens_t = tuple(sorted(gens or range(1, sys_.rank + 1)))
    members, parent, complete = _full_bfs(sys_, gens_t, radius, 10**6)
    b = enumerate_group(sys_, gens=gens) if radius is None else ball(sys_, radius, gens=gens)
    assert list(b.members) == list(members)
    assert [w.word for w in b.elements()] == [w.word for w in members.values()]
    assert list(b.parent.items()) == list(parent.items())
    assert b.complete == complete
    if gens is not None and tuple(gens) != gens_t:
        assert set(b.members) == set(_full_bfs(sys_, tuple(gens), radius, 10**6)[0])
    return b


@pytest.mark.parametrize("name", corpus.names())
def test_ascent_only_bfs_matches_full_bfs(name):
    sys_ = _fresh(name)
    finite = diagram.is_spherical(sys_, range(1, sys_.rank + 1))
    b = _check_against_full_bfs(sys_, None if finite else 6, None)
    assert b.complete == finite


@pytest.mark.parametrize(
    "name,radius,gens",
    [
        ("a2", 3, None),  # radius l(w0): w0 is reached but not expanded
        ("a2", 4, None),  # radius l(w0) + 1: w0 is expanded and adds nothing
        ("a3", 6, (1, 3)),
        ("h4", 6, (1, 3)),
        ("h4", 6, (4, 2, 3)),
        ("a2t", 6, (1, 3)),
        ("d4t", 6, (1, 3)),
        ("d4t", 5, (5, 4, 3, 2, 1)),
        ("tri334", 6, (1, 3)),
    ],
)
def test_ascent_only_ball_matches_full_bfs(name, radius, gens):
    _check_against_full_bfs(_fresh(name), radius, gens)


@pytest.mark.parametrize("name,radius,cap", [("a1t", 50, 20), ("h3", None, 50), ("d4t", 8, 300)])
def test_ascent_only_bfs_overflows_like_full_bfs(name, radius, cap):
    sys_ = _fresh(name)
    with pytest.raises(ResourceLimitError) as ref:
        _full_bfs(sys_, tuple(range(1, sys_.rank + 1)), radius, cap)
    with pytest.raises(ResourceLimitError) as got:
        enumerate_group(sys_, cap=cap) if radius is None else ball(sys_, radius, cap=cap)
    # the walk under the ball names how far it got
    assert str(got.value).startswith(str(ref.value) + " (reached depth ")


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
    for bound in (0, -1):
        with pytest.raises(ValueError, match="power bound"):
            is_straight_upto(c, bound)


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


def test_rank_zero_products():
    # keys of the trivial group are empty: no column to loop over
    e = identity(diagram.parse_system("rank 0\n"))
    assert multiply(e, e).key == ()
    assert is_straight_upto(e, 10)
    assert list(power_window(e, 5)) == [()]


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


# ------------------------------------------- integer kernel against the field

def _ref_step(sys_, cols, s):
    """w * sigma_s on FieldElement columns: column j becomes
    cols[j] - 2B(e_s, e_j) cols[s], and column s changes sign."""
    s0 = s - 1
    col_s = cols[s0]
    out = []
    for j, col in enumerate(cols):
        if j == s0:
            out.append(tuple(-x for x in col_s))
        else:
            two_b = sys_.gram[s0][j] * 2
            out.append(tuple(x - two_b * y for x, y in zip(col, col_s)))
    return tuple(out)


def _ref_cols(sys_, word):
    f, n = sys_.field, sys_.rank
    cols = tuple(tuple(f.one if i == j else f.zero for i in range(n)) for j in range(n))
    for s in word:
        cols = _ref_step(sys_, cols, s)
    return cols


def _ref_key(cols):
    return tuple((x.num, x.den) for col in cols for x in col)


def _ref_descent(cols):
    for s0, col in enumerate(cols):
        first = next((x for x in col if not x.is_zero()), None)
        if first is not None and first.sign() < 0:
            return s0 + 1
    return None


def _ref_length(sys_, cols):
    ident = _ref_cols(sys_, ())
    letters = []
    while cols != ident:
        s = _ref_descent(cols)
        letters.append(s)
        cols = _ref_step(sys_, cols, s)
    return len(letters), tuple(reversed(letters))


@pytest.mark.parametrize("name", corpus.names())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_integer_kernel_matches_field_reference(name, data):
    sys_ = corpus.load(name)
    words = st.lists(st.integers(min_value=1, max_value=sys_.rank), max_size=10)
    u, v = data.draw(words), data.draw(words)
    a, b = from_word(sys_, u), from_word(sys_, v)
    ra, rb = _ref_cols(sys_, u), _ref_cols(sys_, v)
    assert a.cols == ra and b.cols == rb
    assert multiply(a, b).cols == _ref_cols(sys_, u + v)
    assert inverse(a).cols == _ref_cols(sys_, u[::-1])
    assert (a.key == b.key) == (_ref_key(ra) == _ref_key(rb))
    assert commutes(a, b) == (_ref_cols(sys_, u + v) == _ref_cols(sys_, v + u))
    assert _descent(a) == _ref_descent(ra)
    length, red = _ref_length(sys_, ra)
    assert length_and_reduced(a) == (length, red)
    # the reduced word reaches the same matrix, so both keys must agree
    assert from_word(sys_, red).key == a.key
    assert _ref_key(_ref_cols(sys_, red)) == _ref_key(ra)


# -------------------------------------------- the row walk against the full key

def _ref_strip(w):
    """The descent walk on the whole key, kept as the reference: strip
    the least right descent, a negative column found by _descent, by a
    full generator step until the identity."""
    letters = []
    cur = w
    idkey = identity(w.system).key
    while cur.key != idkey:
        s = _descent(cur)
        assert s is not None
        letters.append(s)
        cur = _right_mul_gen(cur, s)
    return len(letters), tuple(reversed(letters))


@pytest.mark.parametrize("name", corpus.FINITE)
def test_row_walk_matches_the_full_key_strip_on_powers(name):
    # every power of c under both orderings; on h4 they reach w0 = c^15
    sys_ = corpus.load(name)
    idkey = identity(sys_).key
    longest = 0
    for perm in (None, tuple(range(sys_.rank, 0, -1))):
        c = coxeter_element(sys_, perm)
        p = c
        while p.key != idkey:
            got = length_and_reduced(p)
            assert got == _ref_strip(p), (perm, p.word)
            longest = max(longest, got[0])
            p = multiply(p, c)
    if name == "h4":
        assert longest == 60


@pytest.mark.parametrize("name", ["d4t", "tri334", "a1t", "i2_7"])
def test_row_walk_matches_the_full_key_strip_on_a_ball(name):
    sys_ = corpus.load(name)
    for w in walk(sys_, 8):
        assert length_and_reduced(w) == _ref_strip(w) == (len(w.word), w.word)


def test_descent_walk_rejects_forged_keys():
    h4 = corpus.load("h4")
    w0 = power(coxeter_element(h4), 15)
    # a one-letter witness bounds the walk of a length-60 key
    with pytest.raises(InvariantViolation, match="did not terminate within its bound"):
        length_and_reduced(GroupElement(h4, w0.key, (1,)))
    # 2 I has no negative column and is not the identity
    twice = tuple(2 * x for x in identity(h4).key)
    with pytest.raises(InvariantViolation, match="non-identity element with no descent"):
        length_and_reduced(GroupElement(h4, twice, ()))
    # 2 w0 strips 60 descents like w0 and ends at 2 I, not at the identity
    twice = tuple(2 * x for x in w0.key)
    with pytest.raises(InvariantViolation, match="non-identity element with no descent"):
        length_and_reduced(GroupElement(h4, twice, w0.word))


# ------------------------------------------------------- the working ring

# d' = deg 2cos(pi/N'), N' the lcm of the labels >= 4
RING_DEGREE = {
    "a1": 1, "a2": 1, "a3": 1, "a4": 1, "b2": 2, "b3": 2, "b4": 2, "d4": 1,
    "f4": 2, "h3": 2, "h4": 2, "i2_5": 2, "i2_6": 2, "i2_7": 3, "i2_8": 4,
    "a1t": 1, "a2t": 1, "c2t": 2, "g2t": 2, "d4t": 1, "tri334": 2,
}


@pytest.mark.parametrize("name", corpus.names())
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_keys_live_in_the_working_ring(name, data):
    sys_ = corpus.load(name)
    d = _ring(sys_).degree
    assert d == RING_DEGREE[name]
    word = data.draw(st.lists(st.integers(min_value=1, max_value=sys_.rank), max_size=10))
    w = from_word(sys_, word)
    assert len(w.key) == sys_.rank ** 2 * d
    assert w.cols == _ref_cols(sys_, word)


def test_working_ring_with_a_fractional_left_inverse():
    # labels 10 and 3: N' = 10 inside N = 30, a working ring of degree 4
    # inside the field's degree 8
    sys_ = diagram.parse_system("rank 3\nm 1 2 10\nm 2 3 3\n")
    assert _ring(sys_).field.N == 10
    rng = random.Random(5)
    for _ in range(20):
        word = [rng.randint(1, 3) for _ in range(rng.randint(0, 12))]
        assert from_word(sys_, word).cols == _ref_cols(sys_, word)


# every rank-3 system with labels in LABELS: N' up to lcm(5, 8, 12) = 120
LABELS = (2, 3, 4, 5, 6, 8, 10, 12, diagram.INFINITY)


def _rank3(labels):
    return diagram.parse_system("rank 3\n" + "".join(
        f"m {i} {j} {'inf' if m == diagram.INFINITY else m}\n"
        for (i, j), m in zip(((1, 2), (1, 3), (2, 3)), labels)
    ))


@pytest.mark.parametrize("systems", [
    pytest.param(lambda: [corpus.load(name) for name in corpus.names()], id="corpus"),
    pytest.param(lambda: [_rank3(ls) for ls in itertools.product(LABELS, repeat=3)], id="rank3"),
])
def test_step_operators_match_the_gram_matrix(systems):
    # the steps read -2B(e_s, e_j) = 2cos(pi/m) off the label; the Gram
    # matrix over Q(theta) is the reference, embedded from Z[theta']
    for sys_ in systems():
        ring = _ring(sys_)
        d, steps = _steps(sys_)
        unit = (1,) + (0,) * (d - 1)
        for s, row in enumerate(steps):
            expected = {j for j in range(sys_.rank) if j != s and sys_.matrix[s][j] != 2}
            assert {j for j, _ in row} == expected, sys_.matrix
            for j, op in row:
                ref = sys_.gram[s][j] * -2
                assert ref.den == 1
                assert ring.embed(_scaled(op, unit, d)) == ref.num, (sys_.matrix, s, j)


# ------------------------------------------- the tuple kernels, as reference

def _left_key(sys_, key, s):
    """The key of sigma_s * w from the key of w: row s changes sign and
    gains -2B(e_s, e_j) times row j; integer row operations on the tuple
    key, by the left rules of group._rules."""
    row_s, terms = _rules(sys_)[2][s - 1]
    out = list(key)
    for part in row_s:
        out[part] = [-y for y in key[part]]
    _add_terms(out, key, terms)
    return tuple(out)


def _conjugate_key(sys_, key, s):
    """The key of s x s from the key of x: a column and a row operation."""
    return _left_key(sys_, _right_key(sys_, key, s), s)


def _row_mul(sys_, row, key):
    """The row times the matrix of key, twin of group._image: by Horner
    over the row's theta' coefficients, from the top, n d' integer dot
    products each plus theta' (_Ring.theta) times the sum so far."""
    ring = _ring(sys_)
    cols = [key[part] for part in _row_rules(sys_)[2]]
    acc = None
    for k in range(ring.degree - 1, -1, -1):
        out = [sum(map(operator.mul, row[k::ring.degree], col)) for col in cols]
        if acc is not None:
            _add_terms(out, acc, ring.theta)
        acc = out
    return tuple(acc)


def _product(a, b):
    """The key of a*b by the tuple column loop, the reference of the
    packed product: column j is a applied to column j of b, through
    group._image and the theta'-table of a."""
    nd = len(b.key) // b.system.rank
    return tuple(x for j in range(0, len(b.key), nd) for x in _image(a, b.key[j:j + nd]))


def _row_lanes(sys_, lanes, row):
    """A packed row (entry j at lane j n d' + k) as the tuple of _row."""
    d = _ring(sys_).degree
    nd = sys_.rank * d
    flat = lanes.unpack(row)
    return tuple(x for j in range(sys_.rank) for x in flat[j * nd:j * nd + d])


def _packed_kernels_agree(sys_):
    """Every packed kernel of the system's packer against the tuple
    kernels on two seeded pairs of elements."""
    lanes = _packer(sys_)
    rng = random.Random(repr(sys_.matrix))
    for _ in range(2):
        a, b = (from_word(sys_, [rng.randint(1, sys_.rank) for _ in range(rng.randint(0, 6))])
                for _ in range(2))
        x, y = lanes.pack(a.key), lanes.pack(b.key)
        assert lanes.unpack(x) == a.key
        for s in range(1, sys_.rank + 1):
            assert lanes.unpack(lanes.right_step(x, s)) == _right_key(sys_, a.key, s)
            assert lanes.unpack(lanes.left_step(x, s)) == _left_key(sys_, a.key, s)
            assert lanes.unpack(lanes.conjugate_step(x, s)) == _conjugate_key(sys_, a.key, s)
        assert lanes.unpack(lanes.multiply(x, y)) == _product(a, b)
        row = lanes.row(x)
        assert _row_lanes(sys_, lanes, row) == _row(sys_, a.key)
        expected = _row_mul(sys_, _row(sys_, a.key), b.key)
        assert _row_lanes(sys_, lanes, lanes.row_mul(row, lanes.thetas(y))) == expected


@pytest.mark.parametrize("systems", [
    pytest.param(lambda: [corpus.load(name) for name in corpus.names()], id="corpus"),
    pytest.param(lambda: [_rank3(ls) for ls in itertools.product(LABELS, repeat=3)], id="rank3"),
])
def test_packed_kernels_match_the_tuple_kernels(systems, monkeypatch):
    # the right, left and conjugation steps, the product, the row and the
    # row times a packed key, at every degree d' from 1 to 32; a packed
    # value that outgrows its lanes reruns the comparison with wider ones
    for sys_ in systems():
        _widening(_packed_kernels_agree, sys_)
    # multiply and commutes from 8-bit lanes, on fresh systems: products
    # trip and widen, and still give the tuple product; the pairs commute
    # and do not
    monkeypatch.setattr(group_mod, "_lane_bits", lambda sys_: 8)
    outcomes, widths = set(), set()
    for sys_ in systems():
        outcomes |= _products_agree(diagram.CoxeterSystem(sys_.matrix), widths)
    assert outcomes == {True, False}
    assert min(widths) == 8 < max(widths)


def _products_agree(sys_, widths):
    """multiply and commutes against the tuple product on seeded pairs,
    each in both orders, and on an element with itself; returns what
    commutes answered, and adds the width of each product's lanes to
    widths."""
    rng = random.Random(repr(sys_.matrix))
    outcomes = set()
    for _ in range(2):
        a, b = (from_word(sys_, [rng.randint(1, sys_.rank) for _ in range(rng.randint(0, 6))])
                for _ in range(2))
        products = [(x, y, multiply(x, y)) for x, y in ((a, b), (b, a), (a, a))]
        for x, y, xy in products:
            widths.add(xy._lanes.bits)
            assert xy.key == _product(x, y) and xy.word == x.word + y.word, sys_.matrix
        commute = commutes(a, b)
        assert commute == (products[0][2].key == products[1][2].key), sys_.matrix
        assert commutes(a, a)
        outcomes.add(commute)
    return outcomes


@pytest.mark.parametrize("bits", [8, 16, 32, 64, 128])
def test_unpack_reads_lanes_by_shifts_as_by_the_machine_word_path(bits):
    # a host that is not little-endian reads every lane by shifts: both
    # paths give the keys of the walk, at each width
    for name in corpus.names():
        sys_ = corpus.load(name)
        lanes, shifted = _Lanes(sys_, bits), _Lanes(sys_, bits)
        shifted._format = None
        for x in walk(sys_, 3):
            try:
                packed = lanes.pack(x.key)
            except _LaneOverflow:
                continue
            assert lanes.unpack(packed) == shifted.unpack(packed) == x.key, (name, x.word)


@pytest.mark.parametrize("systems", [
    pytest.param(lambda: [corpus.load(name) for name in corpus.names()], id="corpus"),
    pytest.param(lambda: [_rank3(ls) for ls in itertools.product(LABELS, repeat=3)], id="rank3"),
])
def test_row_kernel_matches_the_product(systems):
    # rho^T(ab) = (rho^T a) b: the row-side kernel against multiply, at
    # every degree d' from 1 to 32; the row itself against the column
    # sums of the FieldElement view
    for sys_ in systems():
        rng = random.Random(repr(sys_.matrix))
        ring = _ring(sys_)
        d = ring.degree
        for _ in range(2):
            a, b = (from_word(sys_, [rng.randint(1, sys_.rank) for _ in range(rng.randint(0, 6))])
                    for _ in range(2))
            row = _row(sys_, a.key)
            assert _row_mul(sys_, row, b.key) == _row(sys_, multiply(a, b).key), sys_.matrix
            for j, col in enumerate(a.cols):
                total = sum(col[1:], col[0])
                assert ring.embed(row[j * d:j * d + d]) == total.num and total.den == 1


def test_working_ring_is_built_on_first_kernel_use():
    sys_ = diagram.parse_system(corpus.read_text("h4"))
    assert "ring" not in sys_._cache
    identity(sys_)
    assert "ring" in sys_._cache
