"""Diagram parsing, serialization round trips, and classification."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxkit import corpus
from coxkit.diagram import (
    INFINITY,
    CoxeterSystem,
    _definiteness,
    classify,
    components,
    is_irreducible,
    is_spherical,
    parse_system,
    serialize_system,
    subsystem,
)
from coxkit.errors import DiagramParseError, ResourceLimitError
from coxkit.group import enumerate_group

A2 = "rank 2\nm 1 2 3\n"


def test_parse_basic():
    sys_ = parse_system("# a comment\n\nrank 3\nm 1 2 3\n# another\nm 2 3 inf\n")
    assert sys_.rank == 3
    assert sys_.label(1, 2) == 3
    assert sys_.label(2, 1) == 3
    assert sys_.label(1, 3) == 2
    assert sys_.label(2, 3) == INFINITY
    assert sys_.label(1, 1) == 1


def test_roundtrip_corpus():
    for name in corpus.names():
        sys_ = corpus.load(name)
        again = parse_system(serialize_system(sys_))
        assert again == sys_


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.lists(st.sampled_from([2, 3, 4, 5, 6, 7]), min_size=6, max_size=6),
    st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_roundtrip_random(rank, labels, infs):
    pairs = [(i, j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]
    lines = [f"rank {rank}"]
    for (i, j), lab, use_inf in zip(pairs, labels, infs):
        lines.append(f"m {i} {j} {'inf' if use_inf else lab}")
    text = "\n".join(lines)
    sys_ = parse_system(text)
    assert parse_system(serialize_system(sys_)) == sys_


@pytest.mark.parametrize(
    "text,lineno,fragment",
    [
        ("m 1 2 3\n", 1, "rank"),
        ("rank\n", 1, "argument"),
        ("rank x\n", 1, "integer"),
        ("rank -1\n", 1, "nonnegative"),
        ("rank 2\nrank 2\n", 2, "duplicate rank"),
        ("rank 2\nedge 1 2 3\n", 2, "unknown directive"),
        ("rank 2\nm 1 2\n", 2, "three arguments"),
        ("rank 2\nm 2 1 3\n", 2, "1 <= i < j"),
        ("rank 2\nm 1 1 3\n", 2, "1 <= i < j"),
        ("rank 2\nm 1 3 3\n", 2, "1 <= i < j"),
        ("rank 2\nm 1 2 1\n", 2, "at least 2"),
        ("rank 2\nm 1 2 x\n", 2, "label"),
        ("rank 2\nm 1 2 3\nm 1 2 4\n", 3, "duplicate entry"),
        ("# only a comment\n", 2, "missing 'rank'"),
        ("", 1, "missing 'rank'"),
    ],
    ids=[
        "m-before-rank", "rank-without-argument", "rank-not-an-integer", "negative-rank",
        "duplicate-rank", "unknown-directive", "m-with-two-arguments", "m-indices-reversed",
        "m-indices-equal", "m-index-out-of-range", "label-below-2", "label-not-an-integer",
        "duplicate-entry", "only-a-comment", "empty",
    ],
)
def test_parse_errors(text, lineno, fragment):
    with pytest.raises(DiagramParseError) as exc:
        parse_system(text)
    assert exc.value.lineno == lineno
    assert fragment in str(exc.value)


def test_classification_corpus():
    for name in corpus.FINITE:
        assert classify(corpus.load(name)) == "finite", name
    for name in corpus.AFFINE:
        assert classify(corpus.load(name)) == "affine", name
    for name in corpus.INDEFINITE:
        assert classify(corpus.load(name)) == "indefinite", name


def test_classification_edge_cases():
    assert classify(parse_system("rank 0\n")) == "finite"
    assert classify(parse_system("rank 1\n")) == "finite"
    # two commuting generators: finite, reducible
    free = parse_system("rank 2\n")
    assert classify(free) == "finite"
    assert components(free) == [(1,), (2,)]
    # reducible positive semidefinite: falls in the third bucket by convention
    mixed = parse_system("rank 3\nm 2 3 inf\n")
    assert classify(mixed) == "indefinite"
    assert not is_irreducible(mixed)


def test_affine_minus_any_node_is_finite():
    for name in corpus.AFFINE:
        sys_ = corpus.load(name)
        assert is_irreducible(sys_)
        for i in range(1, sys_.rank + 1):
            rest = [j for j in range(1, sys_.rank + 1) if j != i]
            assert classify(subsystem(sys_, rest)) == "finite", (name, i)


def _triangle_rule(labels) -> str:
    """Classification of rank <= 3 from its labels alone. Rank <= 2 is
    finite unless its label is inf (affine); rank 3 compares
    1/p + 1/q + 1/r with 1, where 1/inf = 0."""
    if len(labels) < 3:
        return "finite" if INFINITY not in labels else "affine"
    total = sum(Fraction(0) if m == INFINITY else Fraction(1, m) for m in labels)
    if total > 1:
        return "finite"
    return "affine" if total == 1 and labels.count(2) <= 1 else "indefinite"


def test_classification_matches_triangle_rule():
    for n in range(4):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for labels in itertools.product((2, 3, 4, 5, 6, INFINITY), repeat=len(pairs)):
            matrix = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
            for (i, j), m in zip(pairs, labels):
                matrix[i][j] = matrix[j][i] = m
            assert classify(CoxeterSystem(matrix)) == _triangle_rule(labels), labels


def test_is_spherical_matches_enumeration():
    """A parabolic is spherical exactly when enumerating it closes."""
    for name in corpus.AFFINE + corpus.INDEFINITE:
        sys_ = parse_system(corpus.read_text(name))
        gens = range(1, sys_.rank + 1)
        for k in gens:
            for sub in itertools.combinations(gens, k):
                try:
                    enumerate_group(sys_, gens=sub, cap=400)
                    closes = True
                except ResourceLimitError:
                    closes = False
                assert is_spherical(sys_, sub) == closes, (name, sub)


def _with_labels(n, labels):
    matrix = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for (i, j), m in labels.items():
        matrix[i][j] = matrix[j][i] = m
    return CoxeterSystem(matrix)


def test_is_spherical_matches_the_elimination():
    # the classified diagrams against the signature of the Gram matrix:
    # every rank-4 diagram on the labels 2, 3, 4 and on 2, 3, 5, seeded
    # diagrams of rank 5 to 9, and the E and affine E paths with 2
    # attached to 4
    pairs = list(itertools.combinations(range(4), 2))
    rank4 = {labels for heavy in (4, 5) for labels in itertools.product((2, 3, heavy), repeat=6)}
    systems = [_with_labels(4, dict(zip(pairs, labels))) for labels in sorted(rank4)]
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(5, 9)
        tree = {(rng.randrange(j), j): rng.choice((3, 3, 3, 4, 5, 6, INFINITY)) for j in range(1, n)}
        extra = {pair: 3 for pair in itertools.combinations(range(n), 2) if rng.random() < 0.03}
        systems.append(_with_labels(n, {**extra, **tree}))
    e_types = [_with_labels(rank, dict.fromkeys(
        [(0, 2), (2, 3), (1, 3)] + [(k, k + 1) for k in range(3, rank - 1)], 3)) for rank in range(6, 10)]
    assert [is_spherical(sys_, None) for sys_ in e_types] == [True, True, True, False]
    finite = 0
    for sys_ in systems + e_types:
        expected = _definiteness(sys_, range(sys_.rank)) > 0
        assert is_spherical(sys_, None) == expected, sys_.matrix
        finite += expected
    assert 0 < finite < len(systems)


def test_joint_field_choice():
    expected = {
        "a2": 3, "a3": 6, "a4": 6, "b2": 4, "b3": 12, "h3": 30,
        "i2_7": 7, "a1t": 1, "a2t": 3, "d4t": 6, "g2t": 6, "tri334": 12,
    }
    for name, n in expected.items():
        assert corpus.load(name).field.N == n, name


def test_gram_entries():
    a2 = corpus.load("a2")
    assert a2.gram[0][0] == 1
    assert a2.gram[0][1].as_rational() == Fraction(-1, 2)
    b2 = corpus.load("b2")
    v = b2.gram[0][1]
    assert (v * v).as_rational() == Fraction(1, 2)
    assert v.sign() == -1
    inf = corpus.load("a1t")
    assert inf.gram[0][1].as_rational() == -1
    h3 = corpus.load("h3")
    c5 = h3.gram[0][1]
    # 2*cos(pi/5) satisfies x^2 = x + 1, so (-2c)^2 = (-2c) + 1 flips to:
    four_c2 = 4 * (c5 * c5)
    assert four_c2 == (-2 * c5) + 1


def test_components_and_subsystem():
    d4t = corpus.load("d4t")
    assert components(d4t) == [(1, 2, 3, 4, 5)]
    sub = subsystem(d4t, [2, 3, 4, 5])
    assert sub.rank == 4
    assert sub.parent is d4t
    assert sub.parent_indices == (2, 3, 4, 5)
    assert classify(sub) == "finite"
    # generator 3 of the parent is generator 2 of the subsystem
    assert sub.label(1, 2) == 3
    assert sub.label(1, 3) == 2
    with pytest.raises(ValueError):
        subsystem(d4t, [0, 1])
    with pytest.raises(ValueError):
        subsystem(d4t, [6])


def test_direct_construction_validation():
    with pytest.raises(ValueError):
        CoxeterSystem([[1, 3], [4, 1]])  # asymmetric
    with pytest.raises(ValueError):
        CoxeterSystem([[2]])  # bad diagonal
    with pytest.raises(ValueError):
        CoxeterSystem([[1, 1], [1, 1]])  # off-diagonal label below 2


def test_corpus_listing():
    assert set(corpus.names()) == set(corpus.FINITE) | set(corpus.AFFINE) | set(corpus.INDEFINITE)
    with pytest.raises(KeyError):
        corpus.read_text("nope")
