"""Standard parabolic subgroups and their conjugacy structure.

The central object is a finite directed graph on the subsets of the
generator set. For a subset I and a generator s outside it, let K be
the connected component of I union {s} containing s. When K is
spherical, the element

    nu(I, s) = w_{K minus s} * w_K

(a product of two longest elements) maps the simple roots of some
subset J bijectively onto those of I under its inverse action, giving
a directed edge I -s-> J. Two standard parabolics W_I and W_J are
conjugate exactly when I and J lie in the same component of this graph,
and the normalizer of W_I splits as W_I semidirect the group generated
by the loops of the component read through a spanning tree. Images of
simple roots and the roots of closures are key columns (group, roots).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import combinations

from . import diagram as diagram_mod
from . import group as group_mod
from . import refl as refl_mod
from .diagram import CoxeterSystem, _norm_subset, is_spherical
from .errors import InvariantViolation, ResourceLimitError
from .group import GroupElement
from .record import Record

__all__ = [
    "ConjGraph",
    "GraphEdge",
    "EssentialityProbe",
    "ParabolicClosure",
    "conjugacy_graph",
    "essentiality_refute",
    "is_spherical",
    "longest_element",
    "normalizer_generators",
    "nu",
    "parabolic_closure_finite",
    "parse_subset",
    "standard_conjugate",
    "subset_str",
]

MAX_GRAPH_RANK = 10


# ------------------------------------------------------------- subset helpers

def subset_str(gens: Iterable[int]) -> str:
    return "{" + ",".join(str(s) for s in sorted(gens)) + "}"


def parse_subset(text: str, rank: int) -> frozenset[int]:
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    body = body.strip()
    if not body:
        return frozenset()
    out = set()
    for token in body.split(","):
        try:
            s = int(token.strip())
        except ValueError:
            raise ValueError(f"bad generator index {token.strip()!r}") from None
        if not (1 <= s <= rank):
            raise ValueError(f"generator index {s} out of range 1..{rank}")
        out.add(s)
    return frozenset(out)


# ------------------------------------------------------------ longest element

def longest_element(sys_: CoxeterSystem, gens: Iterable[int]) -> GroupElement:
    """The longest element of a spherical standard parabolic, by the
    greedy ascent of group._longest: its word has one letter per
    reflection of the parabolic."""
    idx = _norm_subset(sys_, gens)
    if not is_spherical(sys_, idx):
        raise ValueError(f"parabolic {subset_str(idx)} is not spherical")
    return group_mod._longest(sys_, idx)


# ----------------------------------------------------------------- nu and the graph

def nu(sys_: CoxeterSystem, gens: Iterable[int], s: int) -> tuple[GroupElement, frozenset[int]] | None:
    """The edge element nu(I, s) = w_{K-s} w_K and its target subset J.

    K is the component of I union {s} containing s; None when K is not
    spherical. The inverse of the returned element maps the simple
    roots indexed by J bijectively onto those indexed by I (checked
    exactly; a mismatch is a logic fault).
    """
    idx = _norm_subset(sys_, gens)
    if not (1 <= s <= sys_.rank):
        raise ValueError(f"generator index {s} out of range 1..{sys_.rank}")
    if s in idx:
        raise ValueError(f"generator {s} already lies in {subset_str(idx)}")
    k_set = next(comp for comp in diagram_mod.components(sys_, idx + (s,)) if s in comp)
    if not is_spherical(sys_, k_set):
        return None
    k_minus = tuple(t for t in k_set if t != s)
    v = group_mod.multiply(longest_element(sys_, k_minus), longest_element(sys_, k_set))
    target = _simple_images(sys_, group_mod.inverse(v), idx)
    if target is None:
        raise InvariantViolation(
            f"nu({subset_str(idx)},{s}) does not permute the simple roots"
        )
    if len(set(target)) != len(idx):
        raise InvariantViolation("nu image indices collide")
    return group_mod.canonical(v), frozenset(target)


def _simple_images(sys_: CoxeterSystem, g: GroupElement, idx: Iterable[int]) -> list[int] | None:
    """For each i in sorted idx, the j with g(e_i) = e_j, read off column i
    of g's key; None when some such column is not a simple root."""
    unit = group_mod.identity(sys_)
    units = {group_mod._column(unit, j): j for j in range(1, sys_.rank + 1)}
    images = [units.get(group_mod._column(g, i)) for i in sorted(idx)]
    return None if None in images else images


class GraphEdge(Record, frozen=True):
    source: frozenset[int]
    letter: int
    target: frozenset[int]
    witness: GroupElement

    def __str__(self) -> str:
        return (
            f"{subset_str(self.source)} -{self.letter}-> {subset_str(self.target)}"
            f" : {group_mod.word_str(self.witness.word)}"
        )


def _subset_sort_key(fs: frozenset[int]):
    return (len(fs), tuple(sorted(fs)))


class ConjGraph(Record):
    """Krammer-style conjugation graph on all subsets of the generators."""

    system: CoxeterSystem
    vertices: tuple[frozenset[int], ...]
    edges: tuple[GraphEdge, ...]
    component_of: dict

    def same_component(self, a: Iterable[int], b: Iterable[int]) -> bool:
        return self.component_of[frozenset(a)] == self.component_of[frozenset(b)]

    def component_members(self, a: Iterable[int]) -> list[frozenset[int]]:
        cid = self.component_of[frozenset(a)]
        return [v for v in self.vertices if self.component_of[v] == cid]

    def is_isolated(self, a: Iterable[int]) -> bool:
        """Alone in its component; self-loops do not spoil isolation."""
        return len(self.component_members(a)) == 1

    def export_lines(self) -> list[str]:
        return [str(e) for e in self.edges]


def conjugacy_graph(sys_: CoxeterSystem) -> ConjGraph:
    """The full graph over every subset of the generator set."""
    if sys_.rank > MAX_GRAPH_RANK:
        raise ResourceLimitError(
            f"conjugacy graph over 2^{sys_.rank} subsets exceeds the rank guardrail {MAX_GRAPH_RANK}"
        )
    return sys_.memo("conjgraph", lambda: _build_graph(sys_))


def _build_graph(sys_: CoxeterSystem) -> ConjGraph:
    n = sys_.rank
    vertices = []
    for mask in range(1 << n):
        vertices.append(frozenset(i + 1 for i in range(n) if mask >> i & 1))
    vertices.sort(key=_subset_sort_key)
    edges = []
    for src in vertices:
        for s in range(1, n + 1):
            if s in src:
                continue
            res = nu(sys_, src, s)
            if res is None:
                continue
            witness, target = res
            edges.append(GraphEdge(src, s, target, witness))
    edges.sort(key=lambda e: (_subset_sort_key(e.source), e.letter))
    comps = diagram_mod._classes(vertices, ((e.source, e.target) for e in edges))
    component_of = {v: cid for cid, comp in enumerate(comps) for v in comp}
    return ConjGraph(sys_, tuple(vertices), tuple(edges), component_of)


# ----------------------------------------------------- conjugating parabolics

def _tree_and_witnesses(graph: ConjGraph, start: frozenset[int]):
    """BFS tree of the component of start: witness mu(V) with
    mu(V)^{-1} Delta_start = Delta_V, plus the unused (non-tree) edges."""
    sys_ = graph.system
    adjacency: dict = {}
    for e in graph.edges:
        adjacency.setdefault(e.source, []).append((e.letter, _subset_sort_key(e.target), "fwd", e))
        adjacency.setdefault(e.target, []).append((e.letter, _subset_sort_key(e.source), "bwd", e))
    for v in adjacency:
        adjacency[v].sort(key=lambda item: (item[0], item[1], item[2]))
    _, parent = group_mod.closure(
        [start],
        lambda v: (
            ((direction, e), e.target if direction == "fwd" else e.source)
            for _, _, direction, e in adjacency.get(v, ())
        ),
        group_mod.DEFAULT_BALL_CAP,
        key=lambda v: v,
        overflow="conjugacy graph component exceeded the cap of {cap}",
    )
    mu = {}
    tree_edges = set()
    for v, link in parent.items():
        if link is None:
            mu[v] = group_mod.identity(sys_)
            continue
        u, (direction, e) = link
        step = e.witness if direction == "fwd" else group_mod.inverse(e.witness)
        mu[v] = group_mod.multiply(mu[u], step)
        tree_edges.add(id(e))
    non_tree = [e for e in graph.edges if id(e) not in tree_edges and e.source in mu]
    return mu, non_tree


def standard_conjugate(
    sys_: CoxeterSystem,
    source: Iterable[int],
    target: Iterable[int],
    graph: ConjGraph | None = None,
) -> tuple[bool, GroupElement | None]:
    """Whether W_source and W_target are conjugate; with a verified witness.

    On success the witness x satisfies x W_target x^{-1} = W_source
    (it carries the target simple roots onto the source ones), checked
    generator by generator through exact matrix conjugation.
    """
    src = frozenset(_norm_subset(sys_, source))
    tgt = frozenset(_norm_subset(sys_, target))
    if graph is None:
        graph = conjugacy_graph(sys_)
    if not graph.same_component(src, tgt):
        return False, None
    mu, _ = _tree_and_witnesses(graph, src)
    x = group_mod.canonical(mu[tgt])  # x^{-1} Delta_src = Delta_tgt
    _check_maps_simples(sys_, x, tgt, src)
    return True, x


def _check_maps_simples(sys_, g, src, tgt) -> None:
    images = _simple_images(sys_, g, src)
    if images is None or len(set(images)) != len(src) or not set(images) <= tgt:
        raise InvariantViolation("witness does not map simples onto simples")
    if set(images) != tgt:
        raise InvariantViolation("witness misses part of the target subset")
    ginv = group_mod.inverse(g)
    for i, j in zip(sorted(src), images):
        lhs = group_mod.multiply(group_mod.multiply(g, group_mod.generator(sys_, i)), ginv)
        if lhs.key != group_mod.generator(sys_, j).key:
            raise InvariantViolation("witness conjugation mismatch on a generator")


def normalizer_generators(
    sys_: CoxeterSystem,
    gens: Iterable[int],
    graph: ConjGraph | None = None,
) -> list[GroupElement]:
    """Generators of the normalizer of a standard parabolic W_I.

    Returns the simple reflections of I followed by the loop elements
    lambda(e) = mu(source) nu mu(target)^{-1} of the non-tree edges of
    the component of I; each loop is verified to fix the simple roots of
    I setwise, which is exactly normalizing W_I while picking no new
    reflections inside it.
    """
    idx = frozenset(_norm_subset(sys_, gens))
    if graph is None:
        graph = conjugacy_graph(sys_)
    mu, non_tree = _tree_and_witnesses(graph, idx)
    out = [group_mod.generator(sys_, s) for s in sorted(idx)]
    seen = {g.key for g in out}
    seen.add(group_mod.identity(sys_).key)
    for e in non_tree:
        lam = group_mod.multiply(
            group_mod.multiply(mu[e.source], e.witness),
            group_mod.inverse(mu[e.target]),
        )
        lam = group_mod.canonical(lam)
        _check_stabilizes_simples(sys_, lam, idx)
        if lam.key not in seen:
            seen.add(lam.key)
            out.append(lam)
    return out


def _check_stabilizes_simples(sys_, lam, idx) -> None:
    images = _simple_images(sys_, lam, idx)
    if images is None or not set(images) <= idx:
        raise InvariantViolation("loop element does not stabilize the simple roots")
    if set(images) != idx:
        raise InvariantViolation("loop element permutes the simples incompletely")


# ------------------------------------------------------------ parabolic closure

class ParabolicClosure(Record):
    """The smallest parabolic containing the inputs, within a finite scope."""

    members: dict
    conjugator: GroupElement
    standard: frozenset[int]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, w: GroupElement) -> bool:
        return w.key in self.members


def parabolic_closure_finite(
    sys_: CoxeterSystem,
    elements: Sequence[GroupElement],
    gens: Iterable[int] | None = None,
) -> ParabolicClosure:
    """Parabolic closure of a set of elements inside a finite scope.

    The closure is generated by the reflections whose roots lie in the
    joint moved space, the sum of the column spans of w - 1 over the
    inputs. That space is the orthogonal complement of the common fixed
    space, and the reflections fixing the common fixed space pointwise
    are exactly the smallest parabolic containing the inputs. The
    result is matched to a conjugate g W_J g^{-1} of a standard
    parabolic of the scope, whose members are listed in the order of
    walk(gens=J), and certified to contain the inputs.
    """
    gens_t = _norm_subset(sys_, gens)
    if not is_spherical(sys_, gens_t):
        raise ValueError("parabolic closure here requires a finite scope")
    if not all(refl_mod._element_in_scope(sys_, w, gens_t) for w in elements):
        raise ValueError("an input element lies outside the chosen scope")
    basis = refl_mod._moved_basis(elements)
    chosen = [
        t
        for t in refl_mod.reflections_of(sys_, gens_t)
        if not any(refl_mod._reduce(sys_, basis, t.root.key))
    ]
    conjugator, standard = _match_standard(sys_, gens_t, chosen)
    # g u^-1 g^-1 over the walk of W_J, carrying u^-1 g^-1 = s u'^-1 g^-1
    members = {}
    ginv = group_mod.inverse(conjugator)
    for u, key in group_mod.walk(sys_, gens=standard, carry=(ginv.key, group_mod._left_key)):
        x = GroupElement(sys_, key, u.word[::-1] + ginv.word)
        y = group_mod.multiply(conjugator, x)
        members[y.key] = y
    for w in elements:
        if w.key not in members:
            raise InvariantViolation("closure does not contain an input element")
    return ParabolicClosure(members, conjugator, standard)


def _match_standard(sys_, gens_t, chosen) -> tuple[GroupElement, frozenset[int]]:
    """The first scope element g, in breadth-first order, and the first
    subset J, by size then lexicographically, with g W_J g^{-1} equal to
    the closure W' generated by the chosen reflections. The scope gens_t
    is sorted (diagram._norm_subset), so its combinations, size by size,
    come in that order, and the answer does not depend on the order in
    which the caller named the scope.

    g s_j g^{-1} is the reflection in the root g(e_j), column j of g,
    and the reflections of W', which fixes its common fixed space
    pointwise, are exactly the chosen ones, whose roots lie in its moved
    space. So g s_j g^{-1} lies in W' exactly when +-(column j of g) is
    a chosen root. Once that holds for all j in J, g maps the reflections
    of W_J into the chosen ones; when W_J has as many reflections as
    there are chosen ones, N_J, the length of its longest element
    (group._longest), the two reflection sets are equal, and so are the
    groups they generate. Only such J are candidates.

    The g that qualify for J are unions of cosets g W_J, so the first is
    d^{-1} for a d with no left descent in J, visited by the walk with
    coset=J, and the first in breadth-first order is the first of
    group._ball_order.
    """
    roots = set()
    for t in chosen:
        roots.add(t.root.key)
        roots.add((-t.root).key)
    candidates = [
        sub for size in range(len(gens_t) + 1) for sub in combinations(gens_t, size)
        if len(group_mod._longest(sys_, sub).word) == len(chosen)
    ]
    for sub in candidates:
        for g, _ in group_mod._ball_order(sys_, gens=gens_t, coset=sub):
            if all(group_mod._column(g, j) in roots for j in sub):
                return group_mod.canonical(g), frozenset(sub)
    raise InvariantViolation("closure is not conjugate to any standard parabolic")


# --------------------------------------------------------------- essentiality

class EssentialityProbe(Record):
    """Result of a bounded search for a proper-parabolic conjugate.

    refuted True means a conjugate x^{-1} w x was found whose canonical
    reduced word misses at least one generator, so w is not essential.
    refuted False only says the radius was exhausted; it proves nothing.
    """

    refuted: bool
    radius: int
    conjugator: GroupElement | None = None
    support: frozenset[int] | None = None


def essentiality_refute(
    sys_: CoxeterSystem,
    w: GroupElement,
    radius: int = 4,
) -> EssentialityProbe:
    """The first x of the ball, in breadth-first order
    (group._ball_order), whose conjugate x^{-1} w x misses a generator.
    x^{-1} is the walked element z that _ball_order pairs with x, so
    the conjugate is the product z w x, with no inverse built."""
    full = frozenset(range(1, sys_.rank + 1))
    for x, z in group_mod._ball_order(sys_, radius):
        conj = group_mod.multiply(group_mod.multiply(z, w), x)
        support = frozenset(group_mod.length_and_reduced(conj)[1])
        if support != full:
            return EssentialityProbe(True, radius, x, support)
    return EssentialityProbe(False, radius)
