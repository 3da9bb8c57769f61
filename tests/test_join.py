"""The centralizer as a join over W = W_J . JW: over the whole of a
finite group, and inside the ball of an affine one.

Oracles: the BFS sweep of test_verify (the whole group or ball
enumerated, each element tested by the column test, words from the
descent walk), the closed-form group orders of perfbench/oracle.py, the
BFS enumeration with left descents read off products, the product
definition of left multiplication, and a walk of the ball testing every
element.
"""

from __future__ import annotations

import inspect
import random
import textwrap
from math import ceil

import pytest

from coxkit import corpus, diagram, verify
from coxkit import group as group_mod
from coxkit.errors import InvariantViolation, ResourceLimitError

from test_bench_hooks import PRELUDE, _traced_counts
from test_group import _left_key, _load_oracle
from test_verify import _bfs_report


def _subsets(sys_):
    """Every J = S minus one generator, and the empty J."""
    gens = range(1, sys_.rank + 1)
    return [tuple(t for t in gens if t != s) for s in gens] + [()]


def _perms(sys_):
    return (None, tuple(range(sys_.rank, 0, -1)))


@pytest.mark.parametrize("name", corpus.FINITE)
def test_join_matches_the_bfs_sweep_for_every_parabolic(name, monkeypatch):
    sys_ = corpus.load(name)
    for perm in _perms(sys_):
        expected = _bfs_report(sys_, perm, None).text_lines()
        assert verify.verify_finite(sys_, perm=perm).text_lines() == expected
        for j in _subsets(sys_):
            monkeypatch.setattr(verify, "_join_parabolic", lambda _, j=j: j)
            assert verify.verify_finite(sys_, perm=perm).text_lines() == expected, j


@pytest.mark.parametrize("name", corpus.FINITE)
def test_parabolic_times_coset_count_is_the_group_order(name):
    sys_ = corpus.load(name)
    oracle = _load_oracle()
    order = oracle.order(oracle.parse_cox(corpus.read_text(name)))
    for j in _subsets(sys_):
        parabolic = sum(1 for _ in group_mod.walk(sys_, gens=j))
        cosets = sum(1 for _ in group_mod.walk(sys_, coset=j))
        assert parabolic * cosets == order, j


def test_join_parabolic_is_the_one_with_the_most_reflections():
    assert verify._join_parabolic(corpus.load("h4")) == (1, 2, 3)
    assert verify._join_parabolic(corpus.load("f4")) in ((1, 2, 3), (2, 3, 4))
    assert verify._join_parabolic(corpus.load("b4")) == (2, 3, 4)
    assert verify._join_parabolic(corpus.load("a1")) == ()


def _left_descents(sys_, g, depth):
    """The generators s with l(s g) < l(g), read off the BFS depths."""
    return {
        s for s in range(1, sys_.rank + 1)
        if depth[group_mod.multiply(group_mod.generator(sys_, s), g).key] < depth[g.key]
    }


@pytest.mark.parametrize("name", ["a3", "a4", "b3", "b4", "d4", "f4", "h3", "i2_7"])
def test_pruned_walk_yields_the_minimal_coset_representatives(name):
    sys_ = corpus.load(name)
    ball = group_mod.enumerate_group(sys_)
    depth: dict = {}
    for key, link in ball.parent.items():
        depth[key] = 0 if link is None else depth[link[0]] + 1
    descents = {g.key: _left_descents(sys_, g, depth) for g in ball.elements()}
    for j in _subsets(sys_):
        walked = list(group_mod.walk(sys_, coset=j))
        assert len({g.key for g in walked}) == len(walked)
        assert {g.key for g in walked} == {k for k, ds in descents.items() if not ds & set(j)}, j
        for g in walked:
            assert group_mod.length_and_reduced(g) == (len(g.word), g.word)
        inside = list(group_mod.walk(sys_, gens=j))
        assert all(set(g.word) <= set(j) for g in inside)
        assert {g.key for g in inside} == set(group_mod.enumerate_group(sys_, gens=j).members)


@pytest.mark.parametrize("name", corpus.names())
def test_left_step_is_the_product_with_a_generator(name):
    # the key kernels, tuple and packed, against multiply: i2_7 and i2_8
    # have d' = 3 and 4, so the terms of the steps are read with every d'
    # from 1 to 4
    sys_ = corpus.load(name)
    lanes = group_mod._packer(sys_)
    rng = random.Random(name)
    for _ in range(25):
        word = tuple(rng.randint(1, sys_.rank) for _ in range(rng.randint(0, 12)))
        x = group_mod.from_word(sys_, word)
        for s in range(1, sys_.rank + 1):
            gen = group_mod.generator(sys_, s)
            left = group_mod.multiply(gen, x).key
            right = group_mod.multiply(x, gen).key
            assert _left_key(sys_, x.key, s) == left
            assert lanes.unpack(lanes.left_step(lanes.pack(x.key), s)) == left
            assert group_mod._right_key(sys_, x.key, s) == right
            assert lanes.unpack(lanes.right_step(lanes.pack(x.key), s)) == right


def _rules_without_row_sign(real):
    def mutant(sys_):
        nd, right, left = real(sys_)
        return nd, right, [([], terms) for _, terms in left]
    return mutant


@pytest.mark.parametrize("mutant", ["drop-deodhar-prune", "right-step-for-left", "drop-row-sign"])
def test_join_mutants_are_caught(mutant, monkeypatch):
    systems = ("a3", "b3", "h3", "f4")
    expected = {name: _bfs_report(corpus.load(name), None, None).text_lines() for name in systems}
    if mutant == "drop-deodhar-prune":
        monkeypatch.setattr(group_mod, "_coset_units", lambda sys_, coset: set())
    elif mutant == "right-step-for-left":
        # the column operation where the row operation belongs
        monkeypatch.setattr(group_mod._Lanes, "left_step", group_mod._Lanes.right_step)
    else:
        monkeypatch.setattr(group_mod, "_rules", _rules_without_row_sign(group_mod._rules))
        # the packed steps are compiled from the rules when a packer is built
        for name in systems:
            monkeypatch.delitem(corpus.load(name)._cache, "lanes", raising=False)
    for name in systems:
        try:
            got = verify.verify_finite(corpus.load(name)).text_lines()
        except InvariantViolation:
            continue
        assert got != expected[name], name


def test_join_counts_larger_centralizers_of_non_coxeter_elements(monkeypatch):
    # negative control: s1 and c^2 have centralizers larger than the
    # cyclic groups they generate, and the join must find all of them;
    # the elements that are no powers of b are sorted by their inverses
    h3 = corpus.load("h3")
    c = group_mod.coxeter_element(h3)
    for b, expected in ((group_mod.generator(h3, 1), 8), (group_mod.multiply(c, c), 10)):
        walked = {g.key for g in group_mod.walk(h3) if verify.commutes(g, b)}
        assert len(walked) == expected
        window = group_mod.power_window(b, 120, signed=False)
        for j in _subsets(h3):
            size, found, _ = verify._join(h3, b, j)
            assert size == 120
            assert {g.key for g in found} == walked, j
            assert all(group_mod.multiply(g, b).key == group_mod.multiply(b, g).key for g in found)
            _assert_sorted_with_fallbacks(found, window, monkeypatch)


def test_h4_join_forms_few_products_and_steps():
    # the walk tested all 14,400 elements; the join walks 120 + 120 and
    # multiplies only there and at the 30 matches
    counts = _traced_counts(PRELUDE + """
report = verify.verify_finite(corpus.load("h4"))
counts = tracer.snapshot()["counts"]
counts["group_size"] = report.group_size
print(json.dumps(counts))
""")
    assert counts["group_size"] == 14400
    assert counts.get("group.multiply.calls", 0) < 14400 // 10
    assert counts.get("group.step.calls", 0) < 14400 // 10
    assert counts.get("verify.commutes.calls", 0) == 30


def test_h4_join_multiplies_only_at_the_matches(monkeypatch):
    # the table is keyed by the row rho^T(u^-1 c u), which determines
    # u^-1 c u, so only the 30 matches form products, g = u d, one each
    h4 = corpus.load("h4")
    c = group_mod.coxeter_element(h4)
    j = verify._join_parabolic(h4)
    calls = []
    real = group_mod.multiply
    monkeypatch.setattr(group_mod, "multiply", lambda a, b: calls.append(1) or real(a, b))
    _, found, _ = verify._join(h4, c, j)
    monkeypatch.undo()
    assert len(found) == 30
    assert len(calls) == len(found)
    # exactly the rows of the 30 matching conjugates hit the table
    lanes = group_mod._packer(h4)
    walked = group_mod.walk(h4, gens=j, carry=(lanes.pack(c.key), lanes.conjugate_step))
    table = {conj for _, conj in walked}
    rows = {lanes.row(conj) for conj in table}
    hits = matches = 0
    for d in group_mod.walk(h4, coset=j):
        conj = lanes.pack(group_mod.multiply(group_mod.multiply(d, c), group_mod.inverse(d)).key)
        hits += lanes.row(conj) in rows
        matches += conj in table
    assert (hits, matches) == (30, 30)


@pytest.mark.parametrize("name", corpus.names())
def test_every_join_hit_is_a_match(name, monkeypatch):
    # for every J, the join forms one product per element it finds: no
    # table hit within the ball is a false candidate, and every lookup,
    # on the table side and on the stream side, keys through the packed
    # row, group._Lanes.row
    sys_ = corpus.load(name)
    radius = None if name in corpus.FINITE else 6
    c = group_mod.coxeter_element(sys_)
    for j in _subsets(sys_):
        products, rows = [], []
        with monkeypatch.context() as patch:
            patch.setattr(group_mod, "multiply", _spy(group_mod.multiply, products))
            patch.setattr(group_mod._Lanes, "row", _spy(group_mod._Lanes.row, rows))
            _, found, held = verify._join(sys_, c, j, radius)
        assert len(products) == len(found) > 0, j
        streamed = sum(1 for _ in group_mod.walk(sys_, radius, coset=j))
        assert len(rows) == held + streamed, j


def _spy(func, calls):
    return lambda *args: calls.append(args) or func(*args)


def _rows_are_distinct(sys_, radius):
    """Whether the packed row, the join's fingerprint, and group._row,
    that of the descent walk, each take a distinct value on every
    element of the ball of the radius, or of the whole group when
    radius is None."""
    lanes = group_mod._packer(sys_)
    walked = list(group_mod.walk(sys_, radius))
    packed = {lanes.row(g._packed) for g in walked}
    return len(packed) == len({group_mod._row(sys_, g.key) for g in walked}) == len(walked)


@pytest.mark.parametrize("name", corpus.names())
def test_row_is_injective(name):
    # rho lies in the open fundamental chamber, and W acts simply
    # transitively on the chambers: 14,400 distinct rows on h4
    sys_ = corpus.load(name)
    assert _rows_are_distinct(sys_, None if name in corpus.FINITE else 6)


@pytest.mark.parametrize("drop", ["first-block", "last-block"])
def test_truncated_row_mutants_are_caught(drop, monkeypatch):
    # a packed row without its first or last block collides on every
    # finite group of the corpus
    real = group_mod._Lanes.row

    def mutant(lanes, x):
        flat = lanes.unpack(real(lanes, x))
        blocks = [flat[a:a + lanes.degree] for a in range(0, len(flat), lanes.nd)]
        return tuple(blocks[1:] if drop == "first-block" else blocks[:-1])

    monkeypatch.setattr(group_mod._Lanes, "row", mutant)
    for name in corpus.FINITE:
        assert not _rows_are_distinct(corpus.load(name), None), name


def _etype(rank):
    """E6 or E7: the path 1-3-4-5-6-7, with 2 attached to 4, cut at rank."""
    edges = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4))
    return diagram.parse_system(f"rank {rank}\n" + "".join(
        f"m {a} {b} 3\n" for a, b in edges if b <= rank
    ))


@pytest.mark.parametrize("rank,order,h,held", [
    (6, 51_840, 12, 1_920),
    (7, 2_903_040, 18, 51_840),
], ids=["e6", "e7"])
def test_e_type_centralizers_are_cyclic(rank, order, h, held):
    # the largest join table in the suite: W(E6) of E7 is held whole
    report = verify.verify_finite(_etype(rank))
    assert report.text_lines()[1] == (
        f"mode finite-exhaustive group-order={order} coxeter-order={h}"
    )
    assert len(report.entries) == h
    assert all(e.status == "ok" for e in report.entries)
    assert report.theorem_consistent
    assert report.held == held


def test_cap_bounds_each_walk_of_the_join(monkeypatch):
    # H4 joins 120 elements of H3 with 120 coset representatives: a cap
    # of 120 holds both walks, one less stops the first, with its count
    h4 = corpus.load("h4")
    monkeypatch.setattr(group_mod, "DEFAULT_BALL_CAP", 120)
    assert verify.verify_finite(h4).group_size == 14400
    monkeypatch.setattr(group_mod, "DEFAULT_BALL_CAP", 119)
    with pytest.raises(ResourceLimitError, match="cap of 119 elements .* after 119 elements"):
        verify.verify_finite(h4)


# ------------------------------------------------------- the join in a ball

def _mutant(func, old, new):
    """func compiled again from its source with old, which must occur
    exactly once, replaced by new, over a copy of its module's globals."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, old
    namespace = dict(func.__globals__)
    code = compile("from __future__ import annotations\n" + source.replace(old, new),
                   inspect.getsourcefile(func), "exec")
    exec(code, namespace)
    return namespace[func.__name__]


def _brute(sys_, b, radius):
    """The ball's size and the keys of its elements commuting with b, by
    a walk of the whole ball."""
    size, keys = 0, set()
    for g in group_mod.walk(sys_, radius):
        size += 1
        if verify.commutes(g, b):
            keys.add(g.key)
    return size, keys


@pytest.mark.parametrize("name", corpus.AFFINE)
def test_affine_join_matches_the_bfs_sweep_for_every_parabolic(name, monkeypatch):
    sys_ = corpus.load(name)
    radii = (5, 6) if sys_.rank == 5 else (7, 8)
    for perm in _perms(sys_):
        for radius in radii:
            expected = _bfs_report(sys_, perm, radius).text_lines()
            for j in _subsets(sys_)[:-1]:
                monkeypatch.setattr(verify, "_join_parabolic", lambda _, j=j: j)
                report = verify.verify_ball(sys_, radius=radius, perm=perm)
                assert report.text_lines() == expected, (j, radius)
                assert report.method == "join"
                assert report.held == sum(1 for _ in group_mod.walk(sys_, radius, gens=j))


@pytest.mark.parametrize("old,new", [
    ("len(u.word) + depth > radius", "len(u.word) + depth > radius + 1"),
    ("len(u.word) + depth > radius", "len(u.word) + depth >= radius"),
], ids=["gt-radius-plus-1", "ge-radius"])
def test_join_length_bound_mutants_are_caught(old, new, monkeypatch):
    # c has length 5 in d4t, so c^2 sits at length 10: R = 9 and R = 10
    # see an off-by-one in l(u) + l(d) <= R from either side
    d4t = corpus.load("d4t")
    expected = {r: _bfs_report(d4t, None, r).text_lines() for r in (9, 10)}
    monkeypatch.setattr(verify, "_join", _mutant(verify._join, old, new))
    caught = False
    for radius, lines in expected.items():
        try:
            caught |= verify.verify_ball(d4t, radius=radius).text_lines() != lines
        except InvariantViolation:
            caught = True
    assert caught


@pytest.mark.parametrize("name,radius", [("d4t", 8), ("tri334", 11)])
def test_join_finds_the_larger_centralizers_of_non_coxeter_elements(name, radius, monkeypatch):
    # negative control in a ball: s1 and c^2 commute with more of the ball
    # than the cyclic groups they generate, and the join, for every J
    # (all finite in these two), finds exactly what testing every element
    # of the ball finds; the elements that are no powers of b are sorted
    # by their inverses
    sys_ = corpus.load(name)
    c = group_mod.coxeter_element(sys_)
    for b in (group_mod.generator(sys_, 1), group_mod.multiply(c, c)):
        size, walked = _brute(sys_, b, radius)
        cyclic = {w.key for _, w in group_mod.power_window(b, radius).values()
                  if group_mod.length_and_reduced(w)[0] <= radius}
        assert walked > cyclic
        for j in _subsets(sys_)[:-1]:
            result = verify._join(sys_, b, j, radius)
            assert result[0] == size, j
            assert {g.key for g in result[1]} == walked, j
            _assert_sorted_with_fallbacks(result[1], group_mod.power_window(b, radius), monkeypatch)


# ------------------------------------------------------- the report order

def _inverse_sorted(found):
    """The ball's order with every g^-1 taken from group.inverse(g): by
    length, then by the canonical word of g^-1 reversed."""
    words = {g.key: g.word for g in found}
    return sorted(found, key=lambda g: (len(g.word), words[group_mod.inverse(g).key][::-1]))


def _sorted_counting_inverses(found, window, monkeypatch):
    """_ball_sorted(found, window), and the number of inverses it computed."""
    calls = []
    real = group_mod.inverse
    with monkeypatch.context() as patch:
        patch.setattr(group_mod, "inverse", lambda g: calls.append(g) or real(g))
        ordered = verify._ball_sorted(found, window)
    return ordered, len(calls)


def _assert_sorted_with_fallbacks(found, window, monkeypatch):
    """found in the reference order, with some inverses computed: those
    of the elements that are no powers in the window."""
    ordered, computed = _sorted_counting_inverses(found, window, monkeypatch)
    assert [g.key for g in ordered] == [g.key for g in _inverse_sorted(found)]
    assert 0 < computed < len(found)
    assert computed == sum(g.key not in window for g in found)


@pytest.mark.parametrize("name", corpus.names())
def test_report_order_reads_inverses_off_the_power_window(name, monkeypatch):
    # the entry points sort what the certificates find with the window
    # they built; every element is a power of c, so no inverse is computed
    sys_ = corpus.load(name)
    sorts = []
    real = verify._ball_sorted
    monkeypatch.setattr(verify, "_ball_sorted", lambda found, window: sorts.append((found, window))
                        or real(found, window))
    for perm in _perms(sys_):
        if name in corpus.FINITE:
            verify.verify_finite(sys_, perm=perm)
        else:
            for radius in (4, 7, 11) if sys_.rank < 5 else (4, 6):
                verify.verify_ball(sys_, radius=radius, perm=perm)
    monkeypatch.undo()
    for found, window in sorts:
        ordered, computed = _sorted_counting_inverses(found, window, monkeypatch)
        assert [g.key for g in ordered] == [g.key for g in _inverse_sorted(found)]
        assert computed == 0


@pytest.mark.parametrize("name,radius", [("d4t", 10), ("tri334", 16)])
def test_a_forged_window_breaks_the_inverses(name, radius):
    # labels shifted by one send the inverse of the last power found to a
    # power beyond the ball, which the certificate did not find
    sys_ = corpus.load(name)
    c = group_mod.coxeter_element(sys_)
    window = group_mod.power_window(c, ceil(radius / group_mod.length_and_reduced(c)[0]) + 1)
    report = verify.verify_ball(sys_, radius=radius)
    found = [e.element for e in report.entries]
    assert [g.key for g in verify._ball_sorted(found, window)] == [g.key for g in found]
    forged = {key: (k + 1, w) for key, (k, w) in window.items()}
    with pytest.raises(InvariantViolation, match="not closed under inverses"):
        verify._ball_sorted(found, forged)
