"""Tests for parabolic subgroup machinery.

Oracle strategy: normalizers are cross-checked against brute-force
scans of the full (finite) group, nu targets against hand-worked
diagram-automorphism compositions, and closures against element
counts of independently enumerated parabolics.
"""

import itertools
import random

import pytest
from test_group import _full_bfs

from coxkit import corpus, diagram, group, parabolic, roots
from coxkit.errors import InvariantViolation, ResourceLimitError


def canon_word(sys_, letters):
    return group.from_word(sys_, letters)


# ------------------------------------------------------------- subset strings

def test_subset_str_and_parse():
    assert parabolic.subset_str([3, 1, 2]) == "{1,2,3}"
    assert parabolic.subset_str([]) == "{}"
    assert parabolic.parse_subset("{1,3}", 4) == frozenset({1, 3})
    assert parabolic.parse_subset(" 2 , 4 ", 4) == frozenset({2, 4})
    assert parabolic.parse_subset("{}", 4) == frozenset()
    with pytest.raises(ValueError):
        parabolic.parse_subset("{0}", 4)
    with pytest.raises(ValueError):
        parabolic.parse_subset("{5}", 4)
    with pytest.raises(ValueError):
        parabolic.parse_subset("{a}", 4)


# ------------------------------------------------------------------ spherical

def test_is_spherical():
    a2t = corpus.load("a2t")
    assert parabolic.is_spherical(a2t, [1, 2])
    assert parabolic.is_spherical(a2t, [1])
    assert parabolic.is_spherical(a2t, [])
    assert not parabolic.is_spherical(a2t, [1, 2, 3])
    tri = corpus.load("tri334")
    assert parabolic.is_spherical(tri, [2, 3])
    assert not parabolic.is_spherical(tri, [1, 2, 3])


# ------------------------------------------------------------ longest element

def test_longest_element_basic():
    a2 = corpus.load("a2")
    w0 = parabolic.longest_element(a2, [1, 2])
    assert group.length_and_reduced(w0)[0] == 3
    assert w0.key == canon_word(a2, (1, 2, 1)).key
    # longest elements are involutions sending every positive root negative
    assert group.multiply(w0, w0).is_identity()
    for r in roots.positive_roots(a2):
        assert not roots.act(w0, r).positive


@pytest.mark.parametrize(
    "name,gens,length",
    [
        ("a3", (1, 2, 3), 6),
        ("b2", (1, 2), 4),
        ("b3", (1, 2, 3), 9),
        ("h3", (1, 2, 3), 15),
        ("d4", (1, 2, 3, 4), 12),
        ("f4", (1, 2, 3, 4), 24),
        ("a3", (1, 3), 2),
        ("a3", (2,), 1),
        ("a3", (), 0),
    ],
)
def test_longest_element_lengths(name, gens, length):
    sys_ = corpus.load(name)
    w0 = parabolic.longest_element(sys_, gens)
    assert group.length_and_reduced(w0)[0] == length


def test_longest_element_in_affine_parabolic():
    d4t = corpus.load("d4t")
    w0 = parabolic.longest_element(d4t, (2, 3, 4, 5))
    assert group.length_and_reduced(w0)[0] == 12
    with pytest.raises(ValueError):
        parabolic.longest_element(d4t, (1, 2, 3, 4, 5))


# ------------------------------------------------------------------------- nu

def test_nu_a2_edge():
    a2 = corpus.load("a2")
    res = parabolic.nu(a2, [1], 2)
    assert res is not None
    v, target = res
    assert target == frozenset({2})
    # nu = w_{1} w_{12} = s1 (s1 s2 s1) = s2 s1
    assert v.key == canon_word(a2, (2, 1)).key


def test_nu_b2_self_loop():
    b2 = corpus.load("b2")
    v, target = parabolic.nu(b2, [1], 2)
    assert target == frozenset({1})
    assert group.length_and_reduced(v)[0] == 3
    assert group.multiply(v, v).is_identity()


def test_nu_disconnected_component():
    a3 = corpus.load("a3")
    # 3 commutes with 1, so K = {3} and nu is just s3
    v, target = parabolic.nu(a3, [1], 3)
    assert target == frozenset({1})
    assert v.key == group.generator(a3, 3).key


def test_nu_flip_in_a3():
    a3 = corpus.load("a3")
    v, target = parabolic.nu(a3, [1, 2], 3)
    assert target == frozenset({2, 3})
    vinv = group.inverse(v)
    imgs = {
        i: roots.act(vinv, roots.simple_root(a3, i)) for i in (1, 2)
    }
    assert imgs[1].key == roots.simple_root(a3, 2).key
    assert imgs[2].key == roots.simple_root(a3, 3).key


def test_nu_undefined_when_component_not_spherical():
    tri = corpus.load("tri334")
    assert parabolic.nu(tri, [1, 2], 3) is None
    d4t = corpus.load("d4t")
    assert parabolic.nu(d4t, [1, 2, 4, 5], 3) is None


def test_nu_validation():
    a2 = corpus.load("a2")
    with pytest.raises(ValueError):
        parabolic.nu(a2, [1], 1)
    with pytest.raises(ValueError):
        parabolic.nu(a2, [1], 7)


# ---------------------------------------------------------------------- graph

def test_conjugacy_graph_a3():
    a3 = corpus.load("a3")
    g = parabolic.conjugacy_graph(a3)
    assert len(g.vertices) == 8
    assert len(g.edges) == 12
    # singletons are all conjugate, A2-type pairs pair up, {1,3} stays alone
    assert g.same_component({1}, {2}) and g.same_component({2}, {3})
    assert g.same_component({1, 2}, {2, 3})
    assert not g.same_component({1, 3}, {1, 2})
    assert g.is_isolated({1, 3})
    assert g.is_isolated(set())
    assert g.is_isolated({1, 2, 3})
    comp_ids = {g.component_of[v] for v in g.vertices}
    assert len(comp_ids) == 5


def test_conjugacy_graph_export_deterministic():
    a3 = corpus.load("a3")
    lines = parabolic.conjugacy_graph(a3).export_lines()
    assert lines == parabolic.conjugacy_graph(a3).export_lines()
    assert "{1} -2-> {2} : 2 1" in lines


def test_conjugacy_graph_rank_guard():
    a2 = corpus.load("a2")
    matrix = [[1 if i == j else 2 for j in range(11)] for i in range(11)]
    big = diagram.CoxeterSystem(matrix)
    with pytest.raises(ResourceLimitError):
        parabolic.conjugacy_graph(big)
    assert parabolic.conjugacy_graph(a2) is parabolic.conjugacy_graph(a2)


def test_maximal_subsets_isolated_affine_and_indefinite():
    for name in ("d4t", "tri334"):
        sys_ = corpus.load(name)
        g = parabolic.conjugacy_graph(sys_)
        full = frozenset(range(1, sys_.rank + 1))
        for s in full:
            assert g.is_isolated(full - {s}), (name, s)


def test_conjugacy_graph_builds_no_subsystem(monkeypatch):
    # sphericity of every parabolic is read off the parent's own form
    expected = parabolic.conjugacy_graph(corpus.load("d4t")).export_lines()

    def refuse(*args, **kwargs):
        raise AssertionError("a subsystem was built")

    monkeypatch.setattr(diagram, "subsystem", refuse)
    d4t = diagram.parse_system(corpus.read_text("d4t"))
    assert parabolic.conjugacy_graph(d4t).export_lines() == expected


# ---------------------------------------------------------- standard conjugacy

def test_standard_conjugate_a3_pairs():
    a3 = corpus.load("a3")
    # witness direction: x W_J x^-1 = W_I for conj(I, J)
    ok, x = parabolic.standard_conjugate(a3, {1, 2}, {2, 3})
    assert ok
    xi = group.inverse(x)
    conjugated = {
        group.multiply(group.multiply(x, group.generator(a3, j)), xi).key
        for j in (2, 3)
    }
    assert conjugated == {group.generator(a3, i).key for i in (1, 2)}
    no, wit = parabolic.standard_conjugate(a3, {1, 3}, {1, 2})
    assert not no and wit is None


def test_witness_maps_target_simples_onto_source_simples():
    # every same-component pair admits a witness carrying simple roots
    # of J exactly onto simple roots of I
    for name in ("a2", "a3", "b2"):
        sys_ = corpus.load(name)
        g = parabolic.conjugacy_graph(sys_)
        for vi in g.vertices:
            for vj in g.vertices:
                if g.component_of[vi] != g.component_of[vj]:
                    continue
                ok, x = parabolic.standard_conjugate(sys_, vi, vj, graph=g)
                assert ok
                imgs = {
                    roots.act(x, roots.simple_root(sys_, j)).key for j in vj
                }
                assert imgs == {roots.simple_root(sys_, i).key for i in vi}


def test_standard_conjugate_identity_case():
    a3 = corpus.load("a3")
    ok, g = parabolic.standard_conjugate(a3, {1, 3}, {1, 3})
    assert ok and g.is_identity()


def test_standard_conjugate_maximal_iff_equal():
    d4t = corpus.load("d4t")
    full = frozenset(range(1, 6))
    maximal = [full - {s} for s in sorted(full)]
    for a in maximal:
        for b in maximal:
            ok, _ = parabolic.standard_conjugate(d4t, a, b)
            assert ok == (a == b)


# ----------------------------------------------------------------- normalizer

def brute_normalizer(sys_, gens):
    sub = {w.key for w in group.enumerate_group(sys_, gens=tuple(gens)).elements()}
    out = []
    for g in group.enumerate_group(sys_).elements():
        gi = group.inverse(g)
        if all(
            group.multiply(group.multiply(g, group.generator(sys_, s)), gi).key in sub
            for s in gens
        ):
            out.append(g)
    return {g.key for g in out}


def closure_keys(sys_, generators):
    from coxkit import refl

    return set(refl.generated_group(generators, sys_=sys_).keys())


@pytest.mark.parametrize(
    "name,gens,order",
    [
        ("a3", (1, 3), 8),
        ("a3", (1, 2), 6),
        ("a3", (2,), 4),
        ("b2", (1,), 4),
        ("a2", (1,), 2),
    ],
)
def test_normalizer_matches_brute_force(name, gens, order):
    sys_ = corpus.load(name)
    lams = parabolic.normalizer_generators(sys_, gens)
    generated = closure_keys(sys_, lams)
    expected = brute_normalizer(sys_, gens)
    assert generated == expected
    assert len(generated) == order


def test_normalizer_of_empty_subset_is_whole_group():
    a2 = corpus.load("a2")
    lams = parabolic.normalizer_generators(a2, ())
    assert closure_keys(a2, lams) == {
        w.key for w in group.enumerate_group(a2).elements()
    }


def test_normalizer_of_maximal_affine_parabolic_is_itself():
    d4t = corpus.load("d4t")
    gens = (2, 3, 4, 5)
    lams = parabolic.normalizer_generators(d4t, gens)
    inside = {w.key for w in group.enumerate_group(d4t, gens=gens).elements()}
    assert closure_keys(d4t, lams) == inside


# -------------------------------------------------------------------- closure

def test_closure_of_coxeter_element_is_whole_group():
    a2 = corpus.load("a2")
    c = group.coxeter_element(a2)
    cl = parabolic.parabolic_closure_finite(a2, [c])
    assert len(cl) == 6
    assert cl.standard == frozenset({1, 2})
    assert c in cl


def test_closure_of_generator_is_rank_one():
    a2 = corpus.load("a2")
    s1 = group.generator(a2, 1)
    cl = parabolic.parabolic_closure_finite(a2, [s1])
    assert len(cl) == 2
    assert cl.standard == frozenset({1})
    assert cl.conjugator.is_identity()


def test_closure_of_reflection_conjugate_is_conjugate_parabolic():
    a3 = corpus.load("a3")
    # s2 s1 s2 is the reflection in the root e1 + e2
    t = canon_word(a3, (2, 1, 2))
    cl = parabolic.parabolic_closure_finite(a3, [t])
    assert len(cl) == 2
    assert len(cl.standard) == 1
    g = cl.conjugator
    gi = group.inverse(g)
    j = next(iter(cl.standard))
    conj = group.multiply(group.multiply(g, group.generator(a3, j)), gi)
    assert conj.key in cl.members


def test_closure_within_scope_d4tilde():
    d4t = corpus.load("d4t")
    v = canon_word(d4t, (4, 3, 4, 5, 3, 2))
    cl = parabolic.parabolic_closure_finite(d4t, [v], gens=(2, 3, 4, 5))
    assert len(cl) == 192
    assert cl.standard == frozenset({2, 3, 4, 5})


def test_closure_scope_validation():
    d4t = corpus.load("d4t")
    v = canon_word(d4t, (1, 3))
    with pytest.raises(ValueError):
        parabolic.parabolic_closure_finite(d4t, [v], gens=(2, 3, 4, 5))
    with pytest.raises(ValueError):
        parabolic.parabolic_closure_finite(d4t, [v])


def test_closure_of_identity_is_trivial():
    a2 = corpus.load("a2")
    cl = parabolic.parabolic_closure_finite(a2, [group.identity(a2)])
    assert len(cl) == 1
    assert cl.standard == frozenset()


@pytest.mark.parametrize("name", ["a2", "b2", "a3"])
def test_closure_equals_closure_of_reflection_factors(name):
    # Pc({w}) agrees with Pc of the factors of every shortest
    # reflection factorization of w
    from coxkit import refl

    sys_ = corpus.load(name)
    for w in group.enumerate_group(sys_).elements():
        base = set(parabolic.parabolic_closure_finite(sys_, [w]).members)
        for fact in refl.reduced_factorizations(sys_, w):
            via = parabolic.parabolic_closure_finite(
                sys_, [t.element for t in fact.factors]
            )
            assert set(via.members) == base


def _first_conjugator_by_products(sys_, gens, members):
    """The match as a scan of products: the first subset J, then the first
    scope element g, with g s_j g^-1 in the closure for every j in J."""
    subsets = [()]
    for s in gens:
        subsets += [sub + (s,) for sub in subsets]
    subsets.sort(key=lambda t: (len(t), t))
    scope = group.enumerate_group(sys_, gens=gens).elements()
    for sub in subsets:
        if len(group.enumerate_group(sys_, gens=sub)) != len(members):
            continue
        for g in scope:
            gi = group.inverse(g)
            if all(
                group.multiply(group.multiply(g, group.generator(sys_, j)), gi).key in members
                for j in sub
            ):
                return group.canonical(g).word, frozenset(sub)


@pytest.mark.parametrize("name", ["a3", "b3", "h3", "i2_5"])
def test_closure_match_by_roots_picks_the_first_conjugator(name):
    sys_ = corpus.load(name)
    gens = tuple(range(1, sys_.rank + 1))
    for w in group.enumerate_group(sys_).elements()[::7]:
        cl = parabolic.parabolic_closure_finite(sys_, [w])
        expected = _first_conjugator_by_products(sys_, gens, cl.members)
        assert (cl.conjugator.word, cl.standard) == expected, w


@pytest.mark.parametrize("name", ["a3", "a4", "b4", "h3"])
def test_closure_does_not_depend_on_the_order_of_the_scope(name):
    # on a4 the closure of 3 4 2 3 1 once matched {1,2,4} with conjugator
    # 3 under the scope (1, 2, 3, 4), but {1,3,4} with 4 2 3 1 2 under
    # (1, 3, 4, 2)
    sys_ = corpus.load(name)
    scope = tuple(range(1, sys_.rank + 1))
    words = [w.word for w in group.enumerate_group(sys_).elements()[::37]]
    if name == "a4":
        words.append((3, 4, 2, 3, 1))
    for word in words:
        w = group.from_word(sys_, word)
        cl = parabolic.parabolic_closure_finite(sys_, [w], gens=scope)
        expected = (cl.standard, cl.conjugator.word, list(cl.members))
        for perm in itertools.permutations(scope):
            cl = parabolic.parabolic_closure_finite(sys_, [w], gens=perm)
            assert (cl.standard, cl.conjugator.word, list(cl.members)) == expected, (word, perm)


def test_closure_match_forms_no_inverse_and_no_product(monkeypatch):
    # f4, closure of s3: the scan over the subsets {1} and {2} used to
    # invert every one of the 1,152 scope elements
    f4 = corpus.load("f4")
    inside, calls = [], []
    match = parabolic._match_standard

    def flagged(*args):
        inside.append(True)
        try:
            return match(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(parabolic, "_match_standard", flagged)
    for name in ("inverse", "multiply"):
        fn = getattr(group, name)

        def counted(*args, _fn=fn, _name=name):
            if inside:
                calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(group, name, counted)
    cl = parabolic.parabolic_closure_finite(f4, [group.generator(f4, 3)])
    assert cl.standard == frozenset({3}) and len(cl) == 2
    assert calls == []


def test_closure_match_enumerates_only_the_scope(monkeypatch):
    # the match walks the minimal coset representatives of each candidate
    # subset inside the scope, so it enumerates no group as a ball
    b4 = diagram.parse_system(corpus.read_text("b4"))
    inside, enumerated = [], []
    match = parabolic._match_standard
    enum = group.enumerate_group

    def flagged(*args):
        inside.append(True)
        try:
            return match(*args)
        finally:
            inside.pop()

    def recorded(sys_, gens=None, **kwargs):
        if inside:
            enumerated.append(tuple(gens))
        return enum(sys_, gens=gens, **kwargs)

    monkeypatch.setattr(parabolic, "_match_standard", flagged)
    monkeypatch.setattr(group, "enumerate_group", recorded)
    for scope, word in (((1, 2, 3, 4), (1, 2)), ((1, 2, 3), (2, 3, 2))):
        cl = parabolic.parabolic_closure_finite(b4, [group.from_word(b4, word)], gens=scope)
        assert len(cl) == len(group.enumerate_group(b4, gens=cl.standard))
    assert enumerated == []


def _check_closure_against_products(sys_, word, scope=None):
    """The closure's members against generated_group of its chosen
    reflections, and its match against the scan of products."""
    from coxkit import refl

    gens = scope or tuple(range(1, sys_.rank + 1))
    w = group.from_word(sys_, word)
    cl = parabolic.parabolic_closure_finite(sys_, [w], gens=scope)
    basis = refl._moved_basis([w])
    chosen = [t for t in refl.reflections_of(sys_, gens) if not any(refl._reduce(sys_, basis, t.root.key))]
    if len(chosen) == len(refl.reflections_of(sys_, gens)):
        # the whole scope: generated_group would form |W| products per
        # reflection, 864,000 on h4
        expected = set(group.enumerate_group(sys_, gens=gens).members)
    else:
        expected = set(refl.generated_group(chosen, sys_=sys_)) if chosen else {group.identity(sys_).key}
    assert set(cl.members) == expected, word
    assert (cl.conjugator.word, cl.standard) == _first_conjugator_by_products(sys_, gens, expected), word


@pytest.mark.parametrize("name", [n for n in corpus.FINITE if n != "h4"])
def test_closure_matches_generated_group_and_product_scan(name):
    sys_ = corpus.load(name)
    n = sys_.rank
    rng = random.Random(name)
    words = [tuple(range(1, n + 1))]
    words += [tuple(rng.randint(1, n) for _ in range(rng.randint(1, 3 * n))) for _ in range(10)]
    for word in words:
        _check_closure_against_products(sys_, word)


@pytest.mark.parametrize("word", [(1, 2, 3, 4), (1, 2), (1, 2, 3)])
def test_closure_in_h4_matches_generated_group_and_product_scan(word):
    _check_closure_against_products(corpus.load("h4"), word)


def test_closure_in_d4tilde_scope_matches_generated_group_and_product_scan():
    d4t = corpus.load("d4t")
    scope = (2, 3, 4, 5)
    rng = random.Random(5)
    words = [scope] + [tuple(rng.choice(scope) for _ in range(rng.randint(1, 10))) for _ in range(8)]
    for word in words:
        _check_closure_against_products(d4t, word, scope)


def test_no_ball_and_no_subgroup_closure_is_built(monkeypatch):
    # every enumeration runs on the walk: with the ball and the subgroup
    # closure gone, the closure, the essentiality probe, the truncated
    # reflections, the parabolic Coxeter check and the d4tilde example
    # still run; clause (b) of the example alone generates a subgroup, to
    # test a factorization for quasi-Coxeter
    from coxkit import refl, verify

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated through the ball or the subgroup closure")

    for name in ("_bfs", "ball", "enumerate_group"):
        monkeypatch.setattr(group, name, refuse)
    with monkeypatch.context() as patched:
        patched.setattr(refl, "generated_group", refuse)
        for name in ("a3", "h3", "f4"):
            sys_ = diagram.parse_system(corpus.read_text(name))
            c = group.coxeter_element(sys_)
            assert len(parabolic.parabolic_closure_finite(sys_, [c]).members) > 1
            assert len(parabolic.parabolic_closure_finite(sys_, [group.generator(sys_, 2)])) == 2
            assert refl.parabolic_coxeter_check(sys_, c)
        d4t = diagram.parse_system(corpus.read_text("d4t"))
        assert parabolic.essentiality_refute(d4t, group.generator(d4t, 1)).refuted
        assert not parabolic.essentiality_refute(d4t, group.coxeter_element(d4t), radius=2).refuted
        assert len(refl.reflections_of(d4t, depth=5)) > d4t.rank
    assert verify.verify_example_d4tilde().passed


def test_normalizer_in_rank_two_free_product():
    flat = diagram.CoxeterSystem([[1, 2], [2, 1]])
    lams = parabolic.normalizer_generators(flat, (1,))
    keys = {g.key for g in lams}
    assert group.generator(flat, 1).key in keys
    assert group.generator(flat, 2).key in keys
    assert closure_keys(flat, lams) == {
        w.key for w in group.enumerate_group(flat).elements()
    }


# --------------------------------------------------------------- essentiality

def _refute_by_bfs(sys_, w, radius):
    """The essentiality probe over the reference BFS ball: the first x in
    shortlex order whose x^-1 w x misses a generator."""
    full = frozenset(range(1, sys_.rank + 1))
    members, _, _ = _full_bfs(sys_, tuple(range(1, sys_.rank + 1)), radius, 10**6)
    for x in members.values():
        conj = group.multiply(group.multiply(group.inverse(x), w), x)
        support = frozenset(group.length_and_reduced(conj)[1])
        if support != full:
            return x, support
    return None


@pytest.mark.parametrize("name", corpus.AFFINE + corpus.INDEFINITE)
def test_essentiality_matches_the_bfs_probe(name):
    sys_ = corpus.load(name)
    n = sys_.rank
    rng = random.Random(name)
    words = [tuple(range(1, n + 1)), tuple(range(n, 0, -1)), (1,), (n, 1, n)]
    words += [tuple(rng.randint(1, n) for _ in range(rng.randint(2, 8))) for _ in range(4)]
    outcomes = set()
    for word in words:
        w = group.from_word(sys_, word)
        for radius in (0, 2, 4):
            probe = parabolic.essentiality_refute(sys_, w, radius=radius)
            expected = _refute_by_bfs(sys_, w, radius)
            outcomes.add(probe.refuted)
            assert probe.refuted == (expected is not None), (word, radius)
            if expected is not None:
                x, support = expected
                assert (probe.conjugator.key, probe.conjugator.word, probe.support) == (
                    x.key, x.word, support
                ), (word, radius)
    assert outcomes == {True, False}


def _refute_with_inverses(sys_, w, radius):
    """The probe as it was before the walk's pairs reached it: the ball
    in breadth-first order, with x^-1 rebuilt by group.inverse."""
    full = frozenset(range(1, sys_.rank + 1))
    for x in group.ball(sys_, radius).elements():
        conj = group.multiply(group.multiply(group.inverse(x), w), x)
        support = frozenset(group.length_and_reduced(conj)[1])
        if support != full:
            return parabolic.EssentialityProbe(True, radius, x, support)
    return parabolic.EssentialityProbe(False, radius)


@pytest.mark.parametrize("name", ["a3", "b3", "h3", "d4t", "tri334"])
def test_essentiality_builds_no_inverse_and_matches_the_inverse_probe(name, monkeypatch):
    sys_ = corpus.load(name)
    n = sys_.rank
    rng = random.Random(name)
    # s1 ... s(n-1) sn s(n-1) ... s1, on a3 of full support and refuted
    # at x = s1 with support {2, 3}
    words = [tuple(range(1, n + 1)), (1,), (n, 1, n), tuple(range(1, n)) + tuple(range(n, 0, -1))]
    words += [tuple(rng.randint(1, n) for _ in range(rng.randint(2, 8))) for _ in range(3)]
    # the first conjugate u s1 u^-1 of full support: refuted, but not at e
    for u in group.ball(sys_, 4).elements():
        word = u.word + (1,) + u.word[::-1]
        if len(set(group.length_and_reduced(group.from_word(sys_, word))[1])) == n:
            words.append(word)
            break
    calls, outcomes = [], set()
    inverse = group.inverse
    for word in words:
        w = group.from_word(sys_, word)
        for radius in range(5):
            expected = _refute_with_inverses(sys_, w, radius)
            monkeypatch.setattr(group, "inverse", lambda x: calls.append(x) or inverse(x))
            probe = parabolic.essentiality_refute(sys_, w, radius=radius)
            monkeypatch.undo()
            assert calls == []
            outcomes.add((probe.refuted, probe.refuted and not probe.conjugator.is_identity()))
            assert (probe.refuted, probe.radius, probe.support) == (
                expected.refuted, expected.radius, expected.support
            ), (word, radius)
            if expected.refuted:
                assert (probe.conjugator.key, probe.conjugator.word) == (
                    expected.conjugator.key, expected.conjugator.word
                ), (word, radius)
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_essentiality_refuted_for_generator():
    a2 = corpus.load("a2")
    probe = parabolic.essentiality_refute(a2, group.generator(a2, 1))
    assert probe.refuted
    assert probe.support == frozenset({1})
    assert probe.conjugator.is_identity()


def test_essentiality_refuted_for_conjugate_reflection():
    b2 = corpus.load("b2")
    w = canon_word(b2, (1, 2, 1))
    probe = parabolic.essentiality_refute(b2, w)
    assert probe.refuted
    assert probe.support == frozenset({2})
    x = probe.conjugator
    conj = group.multiply(group.multiply(group.inverse(x), w), x)
    assert conj.key == group.generator(b2, 2).key


def test_essentiality_not_refuted_for_coxeter_elements():
    for name in ("a2", "a1t"):
        sys_ = corpus.load(name)
        c = group.coxeter_element(sys_)
        probe = parabolic.essentiality_refute(sys_, c, radius=3)
        assert not probe.refuted
        assert probe.conjugator is None and probe.support is None
        assert probe.radius == 3
