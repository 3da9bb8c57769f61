"""Closed-form checks that share no code with coxkit.

Everything here works from the Coxeter matrix alone, read by its own
parser, and from the classical table of finite Coxeter groups:

- a connected diagram is spherical exactly when it is one of A_n, B_n,
  D_n, E_6..8, F_4, H_3, H_4 or I_2(m), and its Poincare polynomial is
  prod_i [d_i]_t over the classical degrees d_i;
- |W| = prod d_i, the Coxeter number h is the largest degree, and a
  Coxeter element has n! h^n / |W| minimal reflection factorizations
  (Deligne's count), all in one Hurwitz orbit;
- for an infinite group, Steinberg's formula
      1 / W(t) = sum over spherical I of (-1)^|I| t^(N_I) / W_I(t)
  gives the growth series W(t) from the finite parabolics, where N_I is
  the length of the longest element of W_I (Humphreys, Reflection Groups
  and Coxeter Groups, 5.12).

All arithmetic is on integer power series.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial, prod

INF = 0


def parse_cox(text: str) -> list[list[int]]:
    """Coxeter matrix from the diagram file format; INF (0) marks infinity."""
    rank = None
    pairs = {}
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "rank":
            rank = int(tokens[1])
        elif tokens[0] == "m":
            i, j = int(tokens[1]), int(tokens[2])
            pairs[(i - 1, j - 1)] = INF if tokens[3] == "inf" else int(tokens[3])
    if rank is None:
        raise ValueError("diagram has no rank line")
    m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for (i, j), label in pairs.items():
        m[i][j] = m[j][i] = label
    return m


def _components(m, nodes):
    left, comps = set(nodes), []
    while left:
        stack = [min(left)]
        comp = set(stack)
        while stack:
            a = stack.pop()
            for b in left:
                if b not in comp and m[a][b] != 2:
                    comp.add(b)
                    stack.append(b)
        left -= comp
        comps.append(sorted(comp))
    return comps


def _connected_degrees(m, nodes) -> list[int] | None:
    """Classical degrees of a connected diagram, or None if it is infinite."""
    n = len(nodes)
    if n == 1:
        return [2]
    edges = [(a, b, m[a][b]) for a, b in combinations(nodes, 2) if m[a][b] != 2]
    if any(lab == INF for _, _, lab in edges):
        return None
    if n == 2:
        return [2, edges[0][2]]
    if len(edges) != n - 1:
        return None  # a cycle
    nbrs = {a: [] for a in nodes}
    for a, b, _ in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    labels = sorted(lab for _, _, lab in edges)
    branch = [a for a in nodes if len(nbrs[a]) > 2]
    if branch:
        if len(branch) > 1 or len(nbrs[branch[0]]) != 3 or labels[-1] != 3:
            return None
        arms = []
        for start in nbrs[branch[0]]:
            prev, cur, length = branch[0], start, 1
            while len(nbrs[cur]) == 2:
                prev, cur = cur, next(x for x in nbrs[cur] if x != prev)
                length += 1
            arms.append(length)
        arms.sort()
        if arms[:2] == [1, 1]:
            return list(range(2, 2 * n - 1, 2)) + [n]  # D_n
        return {
            (1, 2, 2): [2, 5, 6, 8, 9, 12],
            (1, 2, 3): [2, 6, 8, 10, 12, 14, 18],
            (1, 2, 4): [2, 8, 12, 14, 18, 20, 24, 30],
        }.get(tuple(arms))
    # a path: order its edge labels from one end
    end = next(a for a in nodes if len(nbrs[a]) == 1)
    path_labels, prev, cur = [], None, end
    while True:
        nxt = [x for x in nbrs[cur] if x != prev]
        if not nxt:
            break
        path_labels.append(m[cur][nxt[0]])
        prev, cur = cur, nxt[0]
    if labels[-1] == 3:
        return list(range(2, n + 2))  # A_n
    if labels[-2] != 3:
        return None
    big = labels[-1]
    at_end = path_labels[0] == big or path_labels[-1] == big
    if big == 4 and at_end:
        return list(range(2, 2 * n + 1, 2))  # B_n
    if big == 4 and n == 4:
        return [2, 6, 8, 12]  # F_4
    if big == 5 and at_end and n in (3, 4):
        return [2, 6, 10] if n == 3 else [2, 12, 20, 30]  # H_3, H_4
    return None


def degrees(m, nodes=None) -> list[int] | None:
    """Degrees of the standard parabolic on nodes (0-based), None if infinite."""
    if nodes is None:
        nodes = range(len(m))
    out = []
    for comp in _components(m, nodes):
        d = _connected_degrees(m, comp)
        if d is None:
            return None
        out += d
    return sorted(out)


def order(m, nodes=None) -> int | None:
    d = degrees(m, nodes)
    return None if d is None else prod(d)


def coxeter_number(m) -> int:
    d = degrees(m)
    if d is None or len(_components(m, range(len(m)))) != 1:
        raise ValueError("Coxeter number of an infinite or reducible group")
    return d[-1]


def factorization_count(m) -> int:
    """Minimal reflection factorizations of a Coxeter element: n! h^n / |W|."""
    n = len(m)
    return factorial(n) * coxeter_number(m) ** n // order(m)


# ------------------------------------------------------------ power series

def _mul(a, b, deg):
    out = [0] * (deg + 1)
    for i, x in enumerate(a[: deg + 1]):
        if x:
            for j, y in enumerate(b[: deg + 1 - i]):
                out[i + j] += x * y
    return out


def _inverse(a, deg):
    """1 / a as a power series, for integer a with constant term 1."""
    if a[0] != 1:
        raise ValueError("series must have constant term 1")
    out = [1] + [0] * deg
    for k in range(1, deg + 1):
        out[k] = -sum(a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1))
    return out


def _poincare(degs, deg):
    p = [1]
    for d in degs:
        p = _mul(p, [1] * d, deg)
    return p + [0] * (deg + 1 - len(p))


def growth_series(m, deg: int) -> list[int]:
    """Number of elements of each length 0..deg (Steinberg's formula)."""
    n = len(m)
    total = [0] * (deg + 1)
    for size in range(n + 1):
        for nodes in combinations(range(n), size):
            degs = degrees(m, nodes)
            if degs is None:
                continue
            top = sum(d - 1 for d in degs)  # N_I, the number of reflections
            if top > deg:
                continue
            term = _inverse(_poincare(degs, deg), deg)
            sign = -1 if size % 2 else 1
            for k in range(deg + 1 - top):
                total[k + top] += sign * term[k]
    return _inverse(total, deg)


def ball_size(m, radius: int) -> int:
    return sum(growth_series(m, radius))
