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
by the loops of the component read through a spanning tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import diagram as diagram_mod
from . import group as group_mod
from . import refl as refl_mod
from . import roots as roots_mod
from .diagram import CoxeterSystem, _norm_subset, is_spherical
from .errors import InvariantViolation, ResourceLimitError
from .group import GroupElement

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
    """The longest element of a spherical standard parabolic.

    Greedy ascent: repeatedly multiply by the least generator still sent
    to a positive root. The walk must stop after exactly as many steps
    as the parabolic has positive roots; anything else is a logic fault.
    """
    idx = _norm_subset(sys_, gens)
    return sys_.memo(("w0", idx), lambda: _ascend(sys_, idx))


def _ascend(sys_: CoxeterSystem, idx: tuple[int, ...]) -> GroupElement:
    if not is_spherical(sys_, idx):
        raise ValueError(f"parabolic {subset_str(idx)} is not spherical")
    bound = len(roots_mod.positive_roots(sys_, idx)) if idx else 0
    w = group_mod.identity(sys_)
    steps = 0
    while True:
        ascent = None
        for s in idx:
            col = w.cols[s - 1]
            if all(e.sign() >= 0 for e in col):
                ascent = s
                break
        if ascent is None:
            break
        w = group_mod.multiply(w, group_mod.generator(sys_, ascent))
        steps += 1
        if steps > bound:
            raise InvariantViolation("longest-element ascent exceeded the root count")
    if steps != bound:
        raise InvariantViolation("longest-element ascent stopped early")
    return w


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
    union = tuple(sorted(idx + (s,)))
    sub = diagram_mod.subsystem(sys_, union)
    k_set = next(
        tuple(sorted(union[i - 1] for i in comp))
        for comp in diagram_mod.components(sub)
        if s in (union[i - 1] for i in comp)
    )
    if not is_spherical(sys_, k_set):
        return None
    k_minus = tuple(t for t in k_set if t != s)
    v = group_mod.multiply(longest_element(sys_, k_minus), longest_element(sys_, k_set))
    v_inv = group_mod.inverse(v)
    target = []
    for i in idx:
        img = roots_mod.act(v_inv, roots_mod.simple_root(sys_, i))
        j = _as_simple_index(img)
        if j is None:
            raise InvariantViolation(
                f"nu({subset_str(idx)},{s}) does not permute the simple roots"
            )
        target.append(j)
    if len(set(target)) != len(idx):
        raise InvariantViolation("nu image indices collide")
    return group_mod.canonical(v), frozenset(target)


def _as_simple_index(root: roots_mod.Root) -> int | None:
    """1-based index j when the root is exactly e_j, else None."""
    hit = None
    for i, c in enumerate(root.coords):
        if c.is_zero():
            continue
        if hit is not None or c != root.system.field.one:
            return None
        hit = i + 1
    return hit


@dataclass(frozen=True)
class GraphEdge:
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


@dataclass
class ConjGraph:
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
    parent: dict = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in edges:
        parent[find(e.source)] = find(e.target)
    component_of = {}
    rep_order = {}
    for v in vertices:
        r = find(v)
        if r not in rep_order:
            rep_order[r] = len(rep_order)
        component_of[v] = rep_order[r]
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
    _, parent, _ = group_mod.closure(
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
    _check_conjugates_simples(sys_, x, tgt, src)
    return True, x


def _check_conjugates_simples(sys_, g, src, tgt) -> None:
    ginv = group_mod.inverse(g)
    seen = set()
    for i in sorted(src):
        img = roots_mod.act(g, roots_mod.simple_root(sys_, i))
        j = _as_simple_index(img)
        if j is None or j not in tgt or j in seen:
            raise InvariantViolation("witness does not map simples onto simples")
        seen.add(j)
        lhs = group_mod.multiply(group_mod.multiply(g, group_mod.generator(sys_, i)), ginv)
        if lhs.key != group_mod.generator(sys_, j).key:
            raise InvariantViolation("witness conjugation mismatch on a generator")
    if seen != set(tgt):
        raise InvariantViolation("witness misses part of the target subset")


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
    imgs = set()
    for i in sorted(idx):
        img = roots_mod.act(lam, roots_mod.simple_root(sys_, i))
        j = _as_simple_index(img)
        if j is None or j not in idx:
            raise InvariantViolation("loop element does not stabilize the simple roots")
        imgs.add(j)
    if imgs != set(idx):
        raise InvariantViolation("loop element permutes the simples incompletely")


# ------------------------------------------------------------ parabolic closure

@dataclass
class ParabolicClosure:
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
    result is certified to contain the inputs and matched to a
    conjugate g W_J g^{-1} of a standard parabolic of the scope.
    """
    gens_t = group_mod._norm_gens(sys_, gens)
    if not is_spherical(sys_, gens_t):
        raise ValueError("parabolic closure here requires a finite scope")
    gen_set = set(gens_t)
    for w in elements:
        if not set(group_mod.length_and_reduced(w)[1]) <= gen_set:
            raise ValueError("an input element lies outside the chosen scope")
    one = sys_.field.one
    basis: list[tuple] = []
    for w in elements:
        for j in range(sys_.rank):
            moved = [
                c - one if i == j else c for i, c in enumerate(w.cols[j])
            ]
            rest = _reduce(basis, moved)
            pivot = next((i for i, c in enumerate(rest) if not c.is_zero()), None)
            if pivot is not None:
                basis.append((pivot, rest))
    chosen = [
        t
        for t in refl_mod.reflections_of(sys_, gens_t)
        if all(c.is_zero() for c in _reduce(basis, t.root.coords))
    ]
    members = (
        refl_mod.generated_group([t.element for t in chosen], sys_=sys_)
        if chosen
        else {group_mod.identity(sys_).key: group_mod.identity(sys_)}
    )
    for w in elements:
        if w.key not in members:
            raise InvariantViolation("closure does not contain an input element")
    conjugator, standard = _match_standard(sys_, gens_t, members)
    return ParabolicClosure(members, conjugator, standard)


def _match_standard(sys_, gens_t, members) -> tuple[GroupElement, frozenset[int]]:
    size = len(members)
    subsets: list[tuple[int, ...]] = [()]
    for s in gens_t:
        subsets += [sub + (s,) for sub in subsets]
    subsets.sort(key=lambda t: (len(t), t))
    candidates = [
        sub for sub in subsets if len(group_mod.enumerate_group(sys_, gens=sub)) == size
    ]
    scope_elements = group_mod.enumerate_group(sys_, gens=gens_t).elements()
    for sub in candidates:
        for g in scope_elements:
            ginv = group_mod.inverse(g)
            if all(
                group_mod.multiply(group_mod.multiply(g, group_mod.generator(sys_, j)), ginv).key
                in members
                for j in sub
            ):
                return group_mod.canonical(g), frozenset(sub)
    raise InvariantViolation("closure is not conjugate to any standard parabolic")


def _reduce(basis: list, coords) -> list:
    """coords minus its components along the (pivot, vector) echelon basis;
    zero exactly when coords lies in the span."""
    vec = list(coords)
    for pivot_idx, pivot_vec in basis:
        if not vec[pivot_idx].is_zero():
            factor = vec[pivot_idx] / pivot_vec[pivot_idx]
            vec = [a - factor * b for a, b in zip(vec, pivot_vec)]
    return vec


# --------------------------------------------------------------- essentiality

@dataclass
class EssentialityProbe:
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
    full = frozenset(range(1, sys_.rank + 1))
    for x in group_mod.ball(sys_, radius).elements():
        conj = group_mod.multiply(
            group_mod.multiply(group_mod.inverse(x), w), x
        )
        support = frozenset(group_mod.length_and_reduced(conj)[1])
        if support != full:
            return EssentialityProbe(True, radius, x, support)
    return EssentialityProbe(False, radius)
