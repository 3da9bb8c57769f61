"""The result records: constructors, field-wise equality, hashing, repr."""

from __future__ import annotations

import pytest

from coxkit import corpus
from coxkit.group import ball, from_word, identity, multiply
from coxkit.parabolic import ConjGraph, EssentialityProbe, GraphEdge, ParabolicClosure
from coxkit.refl import ReflectionFactorization, reflections_of
from coxkit.verify import (
    BetaTrace,
    BetaTraceEntry,
    CentralizerEntry,
    CentralizerReport,
    ExampleClause,
    ExampleReport,
)


def _frozen_cases():
    """Per frozen record class: a maker of one record, a record of the
    same class differing in one field, and the name of a field."""
    a2 = corpus.load("a2")
    e, s1 = identity(a2), from_word(a2, (1,))
    t = reflections_of(a2)
    t01 = multiply(t[0].element, t[1].element)
    return [
        (lambda: CentralizerEntry("1", 1, "ok", s1), CentralizerEntry("1", 1, "ok", e), "k"),
        (
            lambda: GraphEdge(frozenset({1}), 2, frozenset({2}), s1),
            GraphEdge(frozenset({1}), 2, frozenset({1}), s1),
            "target",
        ),
        (lambda: BetaTraceEntry(1, 2, 3), BetaTraceEntry(1, None, None), "m"),
        (lambda: ExampleClause("a", True, "x"), ExampleClause("a", False, "x"), "ok"),
        (lambda: ReflectionFactorization((t[0], t[1]), t01), ReflectionFactorization((t[1], t[1]), e), "factors"),
    ]


def test_frozen_records_compare_and_hash_by_fields():
    for make, other, name in _frozen_cases():
        x, y = make(), make()
        assert x is not y and x == y and hash(x) == hash(y)
        assert x != other and hash(x) != hash(other) and type(x) is type(other)
        assert len({x, y, other}) == 2
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert x == y
    # equal fields in a different record class are not equal
    assert BetaTraceEntry(1, 2, 3) != ExampleClause(1, 2, 3)


def test_mutable_records_compare_by_fields_and_are_unhashable():
    a2 = corpus.load("a2")
    e = identity(a2)
    made = [
        lambda: CentralizerReport("m", "1 2", (), True),
        lambda: BetaTrace((BetaTraceEntry(1, 0, 1),), 10, True, 0),
        lambda: ExampleReport((ExampleClause("a", True, "x"),)),
        lambda: ConjGraph(a2, (frozenset(),), (), {frozenset(): 0}),
        lambda: ParabolicClosure({e.key: e}, e, frozenset()),
        lambda: EssentialityProbe(False, 3),
    ]
    for make in made:
        x, y = make(), make()
        assert x == y
        with pytest.raises(TypeError):
            hash(x)
    r = made[0]()
    r.elapsed = 1.5
    assert r != made[0]()


def test_defaults_and_keywords():
    r = CentralizerReport("finite-exhaustive", "1 2", (), True)
    assert (r.group_size, r.coxeter_order, r.radius, r.power_bound, r.ball_size, r.elapsed) == (
        None, None, None, None, None, 0.0,
    )
    assert CentralizerReport("ball", "1", (), False, radius=4, elapsed=2.0) == CentralizerReport(
        "ball", "1", (), False, None, None, 4, None, None, 2.0
    )
    p = EssentialityProbe(False, 3)
    assert (p.refuted, p.radius, p.conjugator, p.support) == (False, 3, None, None)
    assert EssentialityProbe(refuted=True, radius=2, support=frozenset({1})).support == frozenset({1})
    with pytest.raises(TypeError):
        EssentialityProbe(False)
    with pytest.raises(TypeError):
        EssentialityProbe(False, 3, None, None, None)
    with pytest.raises(TypeError):
        EssentialityProbe(False, 3, colour="red")
    with pytest.raises(TypeError):
        EssentialityProbe(False, 3, refuted=True)


def test_reprs():
    a2 = corpus.load("a2")
    b = ball(a2, 2)
    assert repr(b) == f"Ball(system={a2!r}, radius=2, gens=(1, 2), complete=False)"
    assert repr(BetaTraceEntry(1, None, 3)) == "BetaTraceEntry(index=1, m=None, j=3)"
    assert repr(EssentialityProbe(False, 3)) == (
        "EssentialityProbe(refuted=False, radius=3, conjugator=None, support=None)"
    )
