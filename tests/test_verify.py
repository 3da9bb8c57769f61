"""Tests for the centralizer verification harness.

The finite sweeps are their own oracle (exhaustive enumeration); the
expected coxeter orders 3/4/6/10 and the infinite-dihedral centralizer
{c^k} are frozen from independent hand computation.
"""

import random
from importlib import resources
from math import ceil

import pytest

from coxkit import cli, corpus, diagram, group, roots, verify
from coxkit.errors import InvariantViolation

from test_group import _product


def power(sys_, c, k):
    return group.power(c, k)


# ------------------------------------------------------------- finite sweeps

@pytest.mark.parametrize(
    "name,group_order,cox_order",
    [
        ("a2", 6, 3),
        ("a3", 24, 4),
        ("b2", 8, 4),
        ("b3", 48, 6),
        ("h3", 120, 10),
    ],
)
def test_verify_finite_orders(name, group_order, cox_order):
    rep = verify.verify_finite(corpus.load(name))
    assert rep.theorem_consistent
    assert rep.group_size == group_order
    assert rep.coxeter_order == cox_order
    assert len(rep.entries) == cox_order
    assert {e.k for e in rep.entries} == set(range(cox_order))
    assert all(e.status == "ok" for e in rep.entries)
    assert rep.summary_line() == (
        f"finite-exhaustive: |C|={cox_order}=|<c>| OK"
    )


def test_verify_finite_entry_lines():
    rep = verify.verify_finite(corpus.load("a2"))
    lines = rep.text_lines()
    assert lines[0] == "c = 1 2"
    assert lines[1] == "mode finite-exhaustive group-order=6 coxeter-order=3"
    assert "g=e k=0 status=ok" in lines
    assert lines[-1] == "finite-exhaustive: |C|=3=|<c>| OK"


def test_verify_finite_permutation_invariance():
    a3 = corpus.load("a3")
    sizes = set()
    for perm in ((1, 2, 3), (2, 1, 3), (3, 2, 1), (2, 3, 1)):
        rep = verify.verify_finite(a3, perm=perm)
        assert rep.theorem_consistent
        sizes.add(len(rep.entries))
    assert sizes == {4}


def test_verify_finite_rejects_wrong_inputs():
    with pytest.raises(ValueError):
        verify.verify_finite(corpus.load("a1t"))
    reducible = diagram.CoxeterSystem([[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        verify.verify_finite(reducible)


def test_finite_gates_run_no_gram_elimination(monkeypatch, capsys):
    # verify_finite and a finite coxeter-verify read finiteness off the
    # diagram's types: with the Gram elimination behind classify made to
    # raise, a fresh system of each finite type still verifies, word for
    # word as before
    expected = {name: verify.verify_finite(corpus.load(name)).text_lines() for name in corpus.FINITE}
    h4 = str(resources.files("coxkit.data") / "h4.cox")
    assert cli.main(["coxeter-verify", "--diagram", h4]) == 0
    printed = capsys.readouterr().out

    def refuse(sys_, idx):
        raise AssertionError("the Gram matrix was eliminated")

    monkeypatch.setattr(diagram, "_definiteness", refuse)
    for name in corpus.FINITE:
        sys_ = diagram.parse_system(corpus.read_text(name))
        assert verify.verify_finite(sys_).text_lines() == expected[name], name
    assert cli.main(["coxeter-verify", "--diagram", h4]) == 0
    assert capsys.readouterr().out == printed


# --------------------------------------------------------------- commutation

def _commute_pairs(name):
    """Every ordered pair for a3 and b3; every (g, c) for the others, with
    c in the default and in the reversed ordering."""
    sys_ = corpus.load(name)
    if name in ("a3", "b3"):
        els = group.enumerate_group(sys_).elements()
        return [(a, b) for a in els for b in els]
    radius = {"d4t": 6, "tri334": 10}.get(name)
    els = (group.enumerate_group(sys_) if radius is None else group.ball(sys_, radius)).elements()
    pairs = []
    for perm in (None, tuple(range(sys_.rank, 0, -1))):
        c = group.coxeter_element(sys_, perm)
        pairs += [(g, c) for g in els]
    return pairs


@pytest.mark.parametrize("name", ["a3", "b3", "h3", "f4", "d4t", "tri334"])
def test_commutes_matches_product_definition(name):
    # the reference is the definition: ab and ba as whole matrices. f4,
    # d4t and tri334 have non-commuting pairs whose first columns agree
    # (a3, b3 and h3 have none); requiring them catches a test that
    # stops after column 0 or after any matching column. Every system
    # has non-commuting pairs whose (0,0) entries agree (6 for a3 against
    # the default c, 312 for f4); requiring them catches a prefilter on
    # that entry that returns early when it matches
    first_column_ties = corner_ties = 0
    for a, b in _commute_pairs(name):
        ab, ba = group.multiply(a, b), group.multiply(b, a)
        expected = ab.key == ba.key
        assert verify.commutes(a, b) == expected, (a, b)
        if not expected and group.apply(a, b.cols[0]) == group.apply(b, a.cols[0]):
            first_column_ties += 1
        if not expected and ab.cols[0][0] == ba.cols[0][0]:
            corner_ties += 1
    if name in ("f4", "d4t", "tri334"):
        assert first_column_ties > 0
    assert corner_ties > 0


# i2_7 and i2_8 have d' = 3 and 4, the only theta'-tables with theta'^2
# and theta'^3 columns; d4t and tri334 sweep balls of infinite groups
@pytest.mark.parametrize("name", ["h3", "b4", "f4", "i2_7", "i2_8", "d4t", "tri334"])
def test_commutes_matches_the_product_over_a_sweep(name):
    sys_ = corpus.load(name)
    radius = {"d4t": 6, "tri334": 10}.get(name)
    for b in (group.coxeter_element(sys_), group.generator(sys_, 1)):
        commuting = walked = 0
        for g in group.walk(sys_, radius):
            exact = group.multiply(g, b).key == group.multiply(b, g).key
            assert verify.commutes(g, b) == exact
            commuting += exact
            walked += 1
        # not vacuous: something commutes, and something does not
        assert 1 < commuting < walked


def test_centralizer_count_exceeds_the_cyclic_group_for_non_coxeter_elements():
    # negative control: s1 and c^2 have centralizers larger than the
    # cyclic groups they generate, and the sweep's test must see that
    h3 = corpus.load("h3")
    c = group.coxeter_element(h3)
    for b, expected in ((group.generator(h3, 1), 8), (group.multiply(c, c), 10)):
        order = group.order_upto(b, 120)
        found = [g for g in group.walk(h3) if verify.commutes(g, b)]
        assert len(found) == expected > order
        assert all(group.multiply(g, b).key == group.multiply(b, g).key for g in found)


def _columns_commute(a, b):
    """The column test of commutes, written out so that the reference
    does not call the code it checks: the tuple products ab and ba."""
    return _product(a, b) == _product(b, a)


def _bfs_report(sys_, perm, radius):
    """The sweep as it was before the walk, kept as the reference: the
    memoized BFS ball or group in its order, each element tested by the
    column test alone (checked against the product definition above),
    words from the descent walk."""
    c = group.coxeter_element(sys_, perm)
    if radius is None:
        elements = group.enumerate_group(sys_).elements()
        order = group.order_upto(c, len(elements))
        powers = group.power_window(c, order - 1, signed=False)
    else:
        bound = ceil(radius / group.length_and_reduced(c)[0]) + 1
        powers = group.power_window(c, bound)
        elements = group.ball(sys_, radius).elements()
    entries = []
    for g in elements:
        if _columns_commute(g, c):
            hit = powers.get(g.key)
            word = group.word_str(group.length_and_reduced(g)[1])
            entries.append(verify.CentralizerEntry(
                word, hit[0] if hit else 0, "ok" if hit else "not-power", g
            ))
    consistent = all(e.status == "ok" for e in entries)
    if radius is None:
        return verify.CentralizerReport(
            "finite-exhaustive", group.word_str(c.word), tuple(entries),
            consistent and len(entries) == order, group_size=len(elements), coxeter_order=order,
        )
    return verify.CentralizerReport(
        "ball", group.word_str(c.word), tuple(entries), consistent,
        radius=radius, power_bound=bound, ball_size=len(elements),
    )


@pytest.mark.parametrize("name", corpus.names())
def test_streamed_sweep_matches_the_bfs_sweep(name):
    sys_ = corpus.load(name)
    finite = diagram.classify(sys_) == "finite"
    for perm in (None, tuple(range(sys_.rank, 0, -1))):
        if finite:
            got = verify.verify_finite(sys_, perm=perm)
            assert got.text_lines() == _bfs_report(sys_, perm, None).text_lines()
            continue
        base = verify.default_radius(sys_.rank)
        # odd radii too: the meet splits at ceil(R/2), the join bounds l(u) + l(d)
        step = 2 if sys_.rank == 5 else 4
        for radius in (base, base + 1, base + step, base + step + 1):
            got = verify.verify_ball(sys_, radius=radius, perm=perm)
            assert got.text_lines() == _bfs_report(sys_, perm, radius).text_lines()


def test_commutes_rejects_mixed_systems():
    with pytest.raises(ValueError):
        verify.commutes(group.identity(corpus.load("a2")), group.identity(corpus.load("a2t")))


# --------------------------------------------------------------- ball sweeps

def test_verify_ball_infinite_dihedral_exact_set():
    rep = verify.verify_ball(corpus.load("a1t"), radius=10)
    assert rep.theorem_consistent
    assert rep.radius == 10 and rep.ball_size == 21
    # powers c^k have length 2|k|, reflections invert c, so the
    # centralizer inside the radius-10 ball is exactly {c^k : |k| <= 5}
    assert sorted(e.k for e in rep.entries) == list(range(-5, 6))
    assert all(e.status == "ok" for e in rep.entries)
    assert rep.power_bound >= 6
    assert rep.summary_line().endswith("OK")


def test_verify_ball_affine_triangle():
    rep = verify.verify_ball(corpus.load("a2t"), radius=6)
    assert rep.theorem_consistent
    assert sorted(e.k for e in rep.entries) == [-2, -1, 0, 1, 2]


def test_verify_ball_entry_elements_commute():
    rep = verify.verify_ball(corpus.load("a1t"), radius=6)
    c = group.coxeter_element(corpus.load("a1t"))
    for e in rep.entries:
        assert verify.commutes(e.element, c)
        assert e.element.key == power(None, c, e.k).key


def test_verify_ball_rejects_wrong_inputs():
    with pytest.raises(ValueError):
        verify.verify_ball(corpus.load("a2"))
    with pytest.raises(ValueError):
        verify.verify_ball(corpus.load("a1t"), radius=0)
    for bound in (0, -5):
        with pytest.raises(ValueError, match="power bound"):
            verify.verify_ball(corpus.load("a2t"), radius=4, power_bound=bound)


@pytest.mark.parametrize("name", ["a1t", "tri334"])
def test_a_large_power_bound_builds_only_the_powers_in_the_ball(name, monkeypatch):
    # c is straight, so no power c^k with |k| > ceil(R / l(c)) + 1 lies in
    # the ball: a power bound of 10^6 asks power_window for no more powers
    # than that, and the report is the default one but for the bound it
    # prints
    sys_, radius, big = corpus.load(name), 2, 10**6
    default = verify.verify_ball(sys_, radius=radius)
    bound = default.power_bound
    expected = [line.replace(f"power-bound={bound} ", f"power-bound={big} ")
                .replace(f"powers={bound} ", f"powers={big} ") for line in default.text_lines()]
    asked = []
    window = group.power_window
    monkeypatch.setattr(group, "power_window",
                        lambda w, k, signed=True: asked.append(k) or window(w, k, signed))
    report = verify.verify_ball(sys_, radius=radius, power_bound=big)
    assert report.power_bound == big
    assert report.text_lines() == expected != default.text_lines()
    assert asked and max(asked) <= ceil(radius / sys_.rank) + 1 == bound


@pytest.mark.parametrize("name", corpus.names())
def test_a_coxeter_word_is_reduced(name):
    # verify_ball and verify_speyer take l(c) = len(c.word): a word with
    # no repeated letter is reduced, whatever the order of its letters
    sys_ = corpus.load(name)
    gens = list(range(1, sys_.rank + 1))
    perms = [tuple(gens), tuple(reversed(gens))]
    for seed in range(3):
        random.Random(seed).shuffle(gens)
        perms.append(tuple(gens))
    for perm in perms:
        assert group.length_and_reduced(group.coxeter_element(sys_, perm))[0] == sys_.rank, perm


def test_default_radii():
    assert verify.default_radius(2) == 10
    assert verify.default_radius(3) == 8
    assert verify.default_radius(5) == 6
    assert verify.default_radius(4) == 7
    assert verify.default_radius(9) == 3


def test_conjugation_covariance_of_centralizing_sets():
    # C(xcx^-1) within the shrunk ball equals x C(c) x^-1 there
    sys_ = corpus.load("a1t")
    c = group.coxeter_element(sys_)
    radius = 10
    base = {
        g.key: g
        for g in group.ball(sys_, radius).elements()
        if verify.commutes(g, c)
    }
    for xw in ((1,), (2, 1)):
        x = group.from_word(sys_, xw)
        xi = group.inverse(x)
        shrunk = radius - 2 * len(xw)
        cc = group.multiply(group.multiply(x, c), xi)
        found = {
            g.key
            for g in group.ball(sys_, shrunk).elements()
            if verify.commutes(g, cc)
        }
        moved = set()
        for g in base.values():
            h = group.multiply(group.multiply(x, g), xi)
            if group.length_and_reduced(h)[0] <= shrunk:
                moved.add(h.key)
        assert found == moved


# ---------------------------------------------------------------- beta trace

def test_beta_trace_identity_and_powers():
    sys_ = corpus.load("a1t")
    c = group.coxeter_element(sys_)
    reps = roots.outward_representatives(c)
    for k in (0, 1, 2, -1):
        trace = verify.beta_trace(power(None, c, k), c, reps=reps)
        assert trace.complete
        assert trace.constant_m == k
        assert [e.j for e in trace.entries] == [1, 2]
        assert trace.text_lines()[-1] == f"constant-m: {k}"


def test_beta_trace_window_exhaustion_is_flagged():
    sys_ = corpus.load("a1t")
    c = group.coxeter_element(sys_)
    trace = verify.beta_trace(power(None, c, 3), c, window=1)
    assert not trace.complete
    assert trace.constant_m is None
    assert all(e.m is None for e in trace.entries)
    assert "not-found-in-window" in trace.entries[0].line()


def test_beta_trace_rejects_negative_window():
    sys_ = corpus.load("a1t")
    c = group.coxeter_element(sys_)
    with pytest.raises(ValueError, match="window must be at least 0"):
        verify.beta_trace(c, c, window=-3)
    trace = verify.beta_trace(group.identity(sys_), c, window=0)
    assert trace.window == 0 and trace.constant_m == 0
    assert not verify.beta_trace(c, c, window=0).complete


def _search_trace(g, c, window, reps):
    """The hits of beta_trace by the search it replaced: for each beta_i,
    the first (m, j) in window order with g(beta_i) = c^m(beta_j)."""
    powers = group.power_window(c, window).values()
    hits = []
    for beta in reps:
        target = roots.act(g, beta).key
        hits.append(next(((m, j) for m, wm in powers for j, rep in enumerate(reps, start=1)
                          if roots.act(wm, rep).key == target), (None, None)))
    return hits


def test_beta_trace_table_matches_search():
    for name in ("a1t", "a2t", "d4t"):
        sys_ = corpus.load(name)
        c = group.coxeter_element(sys_)
        reps = roots.outward_representatives(c)
        for k in (0, 1, -2, 3):
            g = power(None, c, k)
            for window in (0, 1, 2, 4):
                trace = verify.beta_trace(g, c, window=window, reps=reps)
                got = [(e.m, e.j) for e in trace.entries]
                assert got == _search_trace(g, c, window, reps), (name, k, window)


def test_beta_trace_requires_centralizing_element():
    sys_ = corpus.load("a1t")
    c = group.coxeter_element(sys_)
    with pytest.raises(ValueError):
        verify.beta_trace(group.generator(sys_, 1), c)
    other = corpus.load("a2t")
    with pytest.raises(ValueError):
        verify.beta_trace(group.identity(other), c)


def test_beta_trace_compares_systems_by_value():
    # as commutes does: an equal system parsed again is the same system
    sys_ = corpus.load("a2t")
    twin = diagram.parse_system(corpus.read_text("a2t"))
    assert twin is not sys_ and twin == sys_
    c = group.coxeter_element(sys_)
    g = power(None, group.coxeter_element(twin), 2)
    assert verify.commutes(g, c)
    expected = verify.beta_trace(power(None, c, 2), c).text_lines()
    assert verify.beta_trace(g, c).text_lines() == expected
    assert expected[-1] == "constant-m: 2"
    with pytest.raises(ValueError, match="elements live in different systems"):
        verify.beta_trace(group.identity(corpus.load("d4t")), c)


def test_beta_trace_on_all_ball_centralizers():
    # the proof mechanism: every centralizing g traces with one constant
    # exponent m and is that power of c
    sys_ = corpus.load("a2t")
    rep = verify.verify_ball(sys_, radius=6)
    c = group.coxeter_element(sys_)
    reps = roots.outward_representatives(c)
    for entry in rep.entries:
        trace = verify.beta_trace(entry.element, c, reps=reps)
        assert trace.complete
        assert trace.constant_m == entry.k
        assert entry.element.key == power(None, c, trace.constant_m).key


# ------------------------------------------------------------ worked example

def test_example_d4tilde_all_clauses():
    report = verify.verify_example_d4tilde()
    assert report.passed
    assert [cl.name for cl in report.clauses] == ["a", "b", "c", "d", "e"]
    lines = report.text_lines()
    assert len(lines) == 6
    assert all(line.endswith("OK") for line in lines[:-1])
    assert lines[-1] == "example: OK"
    assert "|W'|=192" in lines[0]
    assert "l_T(v)=4" in lines[1]


# -------------------------------------------------- straightness / outwardness

@pytest.mark.parametrize("name", ["a1t", "a2t", "c2t", "g2t", "tri334"])
def test_verify_speyer_small(name):
    assert verify.verify_speyer(corpus.load(name), max_power=5)


def test_verify_speyer_rejects_finite():
    with pytest.raises(ValueError):
        verify.verify_speyer(corpus.load("b2"))


def test_verify_speyer_rejects_empty_window():
    for bound in (0, -3):
        with pytest.raises(ValueError, match="power bound"):
            verify.verify_speyer(corpus.load("a2t"), max_power=bound)


@pytest.mark.parametrize("name", ["a1t", "a2t", "tri334"])
def test_verify_outward_small(name):
    assert verify.verify_outward(corpus.load(name), max_power=6, orbit_bound=6)


def test_verify_outward_rejects_finite():
    with pytest.raises(ValueError):
        verify.verify_outward(corpus.load("a2"))


def test_verify_outward_rejects_empty_orbit_window():
    for bound in (0, -2):
        with pytest.raises(ValueError, match="orbit bound"):
            verify.verify_outward(corpus.load("a2t"), orbit_bound=bound)
