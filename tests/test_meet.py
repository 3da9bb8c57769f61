"""The ball certificate of an indefinite group: meet in the middle, with
the ball's size from Steinberg's growth series.

Oracles: the BFS sweep of test_verify, a walk of the ball testing every
element, per-depth walk counts, and perfbench/oracle.py, whose growth
series comes from the classical degrees with its own parser.
"""

from __future__ import annotations

import random
from math import ceil

import pytest

from coxkit import corpus, diagram, group, verify
from coxkit.errors import InvariantViolation, ResourceLimitError

from test_group import _load_oracle
from test_join import _assert_sorted_with_fallbacks, _brute, _mutant
from test_verify import _bfs_report

INFINITE = corpus.AFFINE + corpus.INDEFINITE


def _depth_counts(sys_, radius):
    counts = [0] * (radius + 1)
    for g in group.walk(sys_, radius):
        counts[len(g.word)] += 1
    return counts


# ----------------------------------------------------------- growth series

@pytest.mark.parametrize("name", INFINITE)
def test_growth_series_counts_each_depth_of_the_walk(name):
    sys_ = corpus.load(name)
    counts = _depth_counts(sys_, 12)
    for radius in range(13):
        assert group.growth_series(sys_, radius) == counts[:radius + 1], radius


@pytest.mark.parametrize("name", INFINITE)
def test_growth_series_matches_the_closed_form_up_to_radius_40(name):
    oracle = _load_oracle()
    m = oracle.parse_cox(corpus.read_text(name))
    sys_ = corpus.load(name)
    assert group.growth_series(sys_, 40) == oracle.growth_series(m, 40)
    for radius in (0, 1, 7, 16, 31):
        assert sum(group.growth_series(sys_, radius)) == oracle.ball_size(m, radius)


def _random_diagrams(count, seed=17):
    """Connected rank-3 and rank-4 diagrams with labels in {3, 4, 5, inf},
    infinite ones only, as diagram text."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rank = rng.choice((3, 4))
        edges = {(rng.randrange(i), i) for i in range(1, rank)}
        edges |= {(i, j) for i in range(rank) for j in range(i + 1, rank) if rng.random() < 0.3}
        lines = [f"rank {rank}"] + [
            f"m {i + 1} {j + 1} {rng.choice(('3', '4', '5', 'inf'))}" for i, j in sorted(edges)
        ]
        text = "\n".join(lines) + "\n"
        if diagram.classify(diagram.parse_system(text)) != "finite":
            out.append(text)
    return out


def test_growth_series_matches_the_closed_form_on_generated_diagrams():
    oracle = _load_oracle()
    for text in _random_diagrams(20):
        sys_ = diagram.parse_system(text)
        m = oracle.parse_cox(text)
        assert group.growth_series(sys_, 24) == oracle.growth_series(m, 24), text
        assert group.growth_series(sys_, 6) == _depth_counts(sys_, 6), text


def test_growth_series_rejects_a_finite_group_and_a_negative_radius():
    with pytest.raises(ValueError):
        group.growth_series(corpus.load("h3"), 4)
    with pytest.raises(ValueError):
        group.growth_series(corpus.load("tri334"), -1)


# ------------------------------------------------------ meet in the middle

@pytest.mark.parametrize("name", INFINITE)
def test_meet_finds_the_walked_centralizer_in_every_infinite_group(name):
    # the meet needs no finite parabolic: on affine groups too it finds
    # what testing every element of the ball finds, and the ball's size
    sys_ = corpus.load(name)
    c = group.coxeter_element(sys_)
    for radius in (5, 6) if sys_.rank == 5 else (9, 10):
        size, walked = _brute(sys_, c, radius)
        result = verify._meet(sys_, c, radius)
        assert result[0] == size
        window = group.power_window(c, ceil(radius / group.length_and_reduced(c)[0]) + 1)
        assert [g.key for g in verify._ball_sorted(result[1], window)] == [
            e.element.key for e in _bfs_report(sys_, None, radius).entries
        ]
        assert {g.key for g in result[1]} == walked
        assert result[2] >= sum(1 for _ in group.walk(sys_, -(-radius // 2)))


@pytest.mark.parametrize("name,radius", [("tri334", 11), ("d4t", 7)])
def test_meet_finds_the_larger_centralizers_of_non_coxeter_elements(name, radius, monkeypatch):
    # negative control: s1 and c^2 commute with more of the ball than the
    # cyclic groups they generate, and the meet finds exactly that set;
    # the elements that are no powers of b are sorted by their inverses
    sys_ = corpus.load(name)
    c = group.coxeter_element(sys_)
    for b in (group.generator(sys_, 1), group.multiply(c, c)):
        size, walked = _brute(sys_, b, radius)
        cyclic = {w.key for _, w in group.power_window(b, radius).values()
                  if group.length_and_reduced(w)[0] <= radius}
        assert walked > cyclic
        result = verify._meet(sys_, b, radius)
        assert result[0] == size
        assert {g.key for g in result[1]} == walked
        _assert_sorted_with_fallbacks(result[1], group.power_window(b, radius), monkeypatch)


def test_verify_ball_meets_on_indefinite_and_joins_on_affine_systems():
    # B_8 of tri334 has 194 elements; W_J of d4t, a D4, has 187 within
    # the ball of radius 10
    tri = verify.verify_ball(corpus.load("tri334"), radius=16)
    assert tri.method == "meet" and 194 < tri.held < 2 * 194
    d4t = verify.verify_ball(corpus.load("d4t"), radius=10)
    assert (d4t.method, d4t.held) == ("join", 187)
    assert verify.verify_finite(corpus.load("h4")).method == "join"
    for report in (tri, d4t):
        # neither is printed
        lines = report.text_lines()
        report.method = report.held = None
        assert report.text_lines() == lines


MEET_MUTANTS = {
    "h-off-by-one": ("half = -(-radius // 2)", "half = radius // 2"),
    "pair-length-gap": ("not 0 <= lz - lx <= 1", "not 0 <= lz - lx <= 0"),
    "pair-length-sum": ("lx + lz > radius", "lx + lz >= radius"),
    "no-dedupe": ("products.setdefault(g.key, g)", "products[len(products)] = g"),
}


@pytest.mark.parametrize("mutant", sorted(MEET_MUTANTS))
def test_meet_mutants_are_caught(mutant, monkeypatch):
    # c^3 and c^5 have the odd lengths 9 and 15, at the edge of the ball;
    # h + 1 instead of h only walks more, and is not a fault
    tri = corpus.load("tri334")
    cases = [(perm, r) for perm in (None, (3, 2, 1)) for r in (9, 10, 15, 16)]
    expected = {case: _bfs_report(tri, *case).text_lines() for case in cases}
    monkeypatch.setattr(verify, "_meet", _mutant(verify._meet, *MEET_MUTANTS[mutant]))
    caught = False
    for (perm, radius), lines in expected.items():
        try:
            caught |= verify.verify_ball(tri, radius=radius, perm=perm).text_lines() != lines
        except InvariantViolation:
            caught = True
    assert caught


# --------------------------------------------------------------------- caps

def test_cap_counts_the_half_ball_and_its_pairs(monkeypatch):
    # tri334 at R = 16 walks the 194 elements of B_8, then forms its pairs
    tri = corpus.load("tri334")
    held = verify.verify_ball(tri, radius=16).held
    monkeypatch.setattr(group, "DEFAULT_BALL_CAP", held)
    assert verify.verify_ball(tri, radius=16).held == held
    monkeypatch.setattr(group, "DEFAULT_BALL_CAP", held - 1)
    with pytest.raises(ResourceLimitError, match=rf"cap of {held - 1} elements \(reached depth 8"
                       rf" after {held - 1} elements\) in the pairs of the half ball$"):
        verify.verify_ball(tri, radius=16)
    monkeypatch.setattr(group, "DEFAULT_BALL_CAP", 100)
    walk_stage = r"cap of 100 elements \(reached depth \d+ after 100 elements\) in the walk"
    with pytest.raises(ResourceLimitError, match=walk_stage + " of the half ball$"):
        verify.verify_ball(tri, radius=16)


def test_join_cap_names_the_walk_it_stops(monkeypatch):
    d4t = corpus.load("d4t")
    monkeypatch.setattr(group, "DEFAULT_BALL_CAP", 50)
    with pytest.raises(ResourceLimitError, match=r"after 50 elements\) in the walk of W_J$"):
        verify.verify_ball(d4t, radius=10)
    # at R = 16 the table holds all 192 elements of W_J, and the walk of
    # the coset representatives streams 227
    monkeypatch.setattr(group, "DEFAULT_BALL_CAP", 200)
    stream_stage = r"after 200 elements\) in the walk of the minimal coset representatives$"
    with pytest.raises(ResourceLimitError, match=stream_stage):
        verify.verify_ball(d4t, radius=16)


def test_a_ball_beyond_the_cap_of_the_walk_now_finishes():
    # tri334 at R = 40 has 10,609,591 elements, twice the cap a walk of
    # the ball ran into; the meet holds B_20 and its pairs
    oracle = _load_oracle()
    report = verify.verify_ball(corpus.load("tri334"), radius=40)
    assert report.ball_size == oracle.ball_size(oracle.parse_cox(corpus.read_text("tri334")), 40)
    assert report.ball_size > group.DEFAULT_BALL_CAP
    assert report.theorem_consistent
    assert sorted(e.k for e in report.entries) == list(range(-13, 14))
