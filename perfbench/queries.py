"""The cli_queries mix: which commands run, on what, and how each is checked.

A pass is a fixed multiset of (command, system) pairs; the seed draws
the words, subsets and Coxeter-element orderings and the order in which
the queries run. Every query is checked:

- fixed queries (no seeded input) must reproduce a recorded sha256 of
  their stdout byte for byte (digests.json);
- seeded queries are checked against closed forms from oracle.py
  (group orders, Coxeter numbers, n! h^n / |W| factorization counts,
  straightness of Coxeter elements in infinite groups) and against each
  other (the inversions and betas counts of a word equal its length);
- every query must exit with the code the README's contract gives.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DATA = HERE.parent / "src" / "coxkit" / "data"

AFFINE = ("a1t", "a2t", "c2t", "g2t", "d4t")
INFINITE = AFFINE + ("tri334",)
CLASSIFY = ("a2", "a4", "b3", "d4", "f4", "h3", "h4", "i2_7", "a2t", "g2t", "d4t", "tri334")
TRIPLE = ("a3", "a4", "b3", "b4", "d4", "f4", "h3", "h4", "i2_5", "a2t", "g2t", "tri334")
# No usage data of the CLI exists; these weights are a design choice for a
# steady p90, not a model of real traffic. Every h4 conj / normalizer query
# builds the h4 conjugacy graph, so they cost about the same; with closure
# only on groups of order <= 120 (where the word barely changes its cost),
# the 90th percentile falls inside that block rather than at the gap between
# the light queries and redt / hurwitz, which are the slowest 8 and lie above it.
CONJ = ("a3", "b4", "d4", "h3", "h4", "h4", "h4", "h4")
NORMALIZER = ("a3", "b4", "d4", "f4", "h3", "h4", "h4", "d4t")
GRAPH = ("a3", "b3", "b4", "d4", "f4", "h3", "h4", "d4t")
CLOSURE = ("a3", "a4", "b3", "h3", "i2_5", "i2_8")
HEAVY = ("a4", "b4", "d4", "h3")
COMMANDS = (
    "classify", "length", "inversions", "betas", "straight", "outward", "conj",
    "normalizer", "conj-graph", "closure", "redt", "hurwitz", "coxeter-verify",
)

Check = Callable[[str], "str | None"]


@dataclass
class Query:
    cmd: str
    system: str | None
    args: list[str]
    check: Check | None = None
    fixed: bool = False
    exit_code: int = 0
    group: str | None = None
    value: Callable[[str], int] | None = None
    elements: int = 0

    @property
    def key(self) -> str:
        return " ".join([self.cmd, self.system or "-"] + self.args)

    def argv(self) -> list[str]:
        tail = ["--diagram", str(DATA / f"{self.system}.cox")] if self.system else []
        return [self.cmd] + self.args + tail


def systems() -> list[str]:
    """Every corpus system the mix touches."""
    return sorted(set(CLASSIFY + TRIPLE + INFINITE + CONJ + NORMALIZER + GRAPH + CLOSURE + HEAVY))


def matrix(name: str) -> list[list[int]]:
    return oracle.parse_cox((DATA / f"{name}.cox").read_text())


# ------------------------------------------------------------------ parsing

def _tail_int(out: str, label: str) -> int:
    lines = out.splitlines()
    if not lines or not lines[-1].startswith(label + " "):
        raise ValueError(f"no final '{label}' line")
    return int(lines[-1].split()[-1])


def _counted_lines(out: str, label: str = "count:") -> int:
    """The final 'count: N' value, checked against the N lines above it."""
    n = _tail_int(out, label)
    if len(out.splitlines()) - 1 != n:
        raise ValueError(f"{label} {n} but {len(out.splitlines()) - 1} lines")
    return n


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


def _guard(fn: Callable[[str], "str | None"]) -> Check:
    def check(out: str) -> str | None:
        try:
            return fn(out)
        except (ValueError, IndexError, KeyError) as exc:
            return f"unparseable output: {exc}"

    return check


# ------------------------------------------------------------------ checks

def _check_classify(name: str) -> Check:
    if oracle.degrees(matrix(name)) is not None:
        want = "finite"
    else:
        want = "affine" if name in AFFINE else "indefinite"
    return lambda out: _expect(out == want + "\n", f"classify gave {out!r}, want {want}")


def _check_length(out: str) -> str | None:
    length = int(re.fullmatch(r"length: (\d+)", out.splitlines()[0]).group(1))
    word = out.splitlines()[1].split(": ", 1)[1]
    letters = [] if word == "e" else word.split()
    return _expect(len(letters) == length, "canonical word length differs from length")


def _check_straight(out: str) -> str | None:
    return _expect(out == "straight up to 10: yes\n", f"coxeter element not straight: {out!r}")


def _check_outward(rank: int) -> Check:
    return _guard(lambda out: _expect(_counted_lines(out) == rank, "outward count != rank"))


def _check_conj(src: list[int], tgt: list[int]) -> Check:
    def check(out: str) -> str | None:
        if out.startswith("conjugate: "):
            if len(src) != len(tgt):
                return "subsets of different sizes reported conjugate"
            return _expect(src != tgt or out == "conjugate: e\n", "self-conjugacy witness is not e")
        if src == tgt:
            return "subset not conjugate to itself"
        return _expect(
            out in ("not conjugate (isolated vertices)\n", "not conjugate (different components)\n"),
            f"unexpected conj output {out!r}",
        )

    return _guard(check)


def _check_normalizer(subset: list[int]) -> Check:
    def check(out: str) -> str | None:
        n = _counted_lines(out)
        head = out.splitlines()[: len(subset)]
        if head != [str(s) for s in subset]:
            return "normalizer does not start with the simple reflections of the subset"
        return _expect(n >= len(subset), "normalizer count below the subset size")

    return _guard(check)


def _check_graph(out: str) -> str | None:
    lines = out.splitlines()
    comps = _tail_int(out, "components:")
    ok = comps >= 1 and all(" -" in line and " : " in line for line in lines[:-1])
    return _expect(ok, "malformed conj-graph output")


def _check_closure(m, word: list[int]) -> Check:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        size = int(lines[0].split(": ")[1])
        std = lines[1].split(": ")[1].strip("{}")
        nodes = [int(x) - 1 for x in std.split(",")] if std else []
        if size != oracle.order(m, nodes):
            return f"closure order {size} is not |W_J| for J={{{std}}}"
        return _expect(len(nodes) <= len(set(word)), "closure rank exceeds the word's support")

    return _guard(check)


def _check_redt(m, n: int) -> Check:
    want = oracle.factorization_count(m)

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if lines[0] != f"reflection-length: {n}":
            return f"reflection length line {lines[0]!r}, want {n}"
        count = _tail_int(out, "count:")
        if count != want or len(lines) != want + 2:
            return f"redt count {count}, want n! h^n / |W| = {want}"
        return _expect(all(line.count(";") == n - 1 for line in lines[1:-1]), "factorization of wrong length")

    return _guard(check)


def _check_hurwitz(m, first: str) -> Check:
    want = oracle.factorization_count(m)

    def check(out: str) -> str | None:
        size = _counted_lines(out, "orbit-size:")
        if size != want:
            return f"hurwitz orbit-size {size}, want n! h^n / |W| = {want}"
        return _expect(out.splitlines()[0] == first, "orbit does not start at the input factorization")

    return _guard(check)


def _check_verify(m, perm: list[int]) -> Check:
    size, h = oracle.order(m), oracle.coxeter_number(m)

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if lines[0] != "c = " + " ".join(map(str, perm)):
            return "wrong coxeter word"
        if lines[1] != f"mode finite-exhaustive group-order={size} coxeter-order={h}":
            return f"wrong group order or coxeter number: {lines[1]!r}, want {size}, {h}"
        ks = []
        for line in lines[2:-1]:
            got = re.fullmatch(r"g=(?:e|[\d ]+) k=(-?\d+) status=ok", line)
            if got is None:
                return f"bad centralizer line {line!r}"
            ks.append(int(got.group(1)))
        if sorted(ks) != list(range(h)):
            return "centralizer is not {c^k : 0 <= k < h}"
        return _expect(lines[-1] == f"finite-exhaustive: |C|={h}=|<c>| OK", "wrong summary line")

    return _guard(check)


# --------------------------------------------------------------- the pass

def _word(rng: random.Random, rank: int, lo: int, hi: int) -> list[int]:
    """A word with no letter twice in a row, which would cancel at once."""
    word = [rng.randint(1, rank)]
    for _ in range(rng.randint(lo, hi) - 1):
        word.append(rng.choice([s for s in range(1, rank + 1) if s != word[-1]]))
    return word


def _subset(rng: random.Random, rank: int, size: int) -> list[int]:
    return sorted(rng.sample(range(1, rank + 1), size))


def _brace(subset: list[int]) -> str:
    return "{" + ",".join(map(str, subset)) + "}"


def make_pass(rng: random.Random) -> list[Query]:
    """One pass of the mix, in the seeded order in which it runs."""
    qs: list[Query] = []
    for name in CLASSIFY:
        qs.append(Query("classify", name, [], _check_classify(name), fixed=True))
    for name in INFINITE:
        qs.append(Query("outward", name, [], _check_outward(len(matrix(name))), fixed=True))
    for name in GRAPH:
        qs.append(Query("conj-graph", name, [], _guard(_check_graph), fixed=True))
    for name in HEAVY:
        m = matrix(name)
        qs.append(Query("coxeter-verify", name, [], _check_verify(m, list(range(1, len(m) + 1))),
                        fixed=True, elements=oracle.order(m)))
    qs.append(Query("normalizer", "a3", ["{}"], fixed=True, exit_code=1))
    qs.append(Query("length", "a3", ["1", "9"], fixed=True, exit_code=1))
    qs.append(Query("hurwitz", "a3", ["1; 2; 3", "--cap", "2"], fixed=True, exit_code=2))
    qs.append(Query("coxeter-verify", None, [], fixed=True, exit_code=1))

    for i, name in enumerate(TRIPLE):
        word = [str(s) for s in _word(rng, len(matrix(name)), 3, 10)]
        group = f"triple{i}"
        qs.append(Query("length", name, word, _guard(_check_length), group=group,
                        value=lambda out: int(out.split()[1])))
        for cmd in ("inversions", "betas"):
            qs.append(Query(cmd, name, word, group=group, value=_counted_lines))
    for name in INFINITE:
        perm = list(range(1, len(matrix(name)) + 1))
        rng.shuffle(perm)
        qs.append(Query("straight", name, [str(s) for s in perm], _check_straight))
    for name in CONJ:
        rank = len(matrix(name))
        size = rng.randint(1, rank - 1)
        src, tgt = _subset(rng, rank, size), _subset(rng, rank, size)
        qs.append(Query("conj", name, [_brace(src), _brace(tgt)], _check_conj(src, tgt)))
    for name in NORMALIZER:
        rank = len(matrix(name))
        subset = _subset(rng, rank, rng.randint(1, rank - 1))
        qs.append(Query("normalizer", name, [_brace(subset)], _check_normalizer(subset)))
    for name in CLOSURE:
        m = matrix(name)
        word = _word(rng, len(m), 2, 8)
        qs.append(Query("closure", name, [str(s) for s in word], _check_closure(m, word)))
    for name in HEAVY:
        m = matrix(name)
        n = len(m)
        perms = []
        for _ in range(4):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            perms.append(perm)
        word = [str(s) for s in perms[0]]
        qs.append(Query("redt", name, word, _check_redt(m, n)))
        first = "; ".join(map(str, perms[1]))
        qs.append(Query("hurwitz", name, [first], _check_hurwitz(m, first)))
        for perm in perms[2:]:
            qs.append(Query("coxeter-verify", name, ["--perm"] + [str(s) for s in perm],
                            _check_verify(m, perm), elements=oracle.order(m)))
    rng.shuffle(qs)
    return qs


# ------------------------------------------------------------------ judging

def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


def judge(q: Query, code: int, out: str, err: str, digests: dict[str, str]) -> list[str]:
    """Everything wrong with one query's result; empty when it passed."""
    if code != q.exit_code:
        return [f"exit {code}, want {q.exit_code}: {err.strip()[-300:]}"]
    if q.exit_code:
        prefix = "error:" if q.exit_code == 1 else "inconclusive:"
        if out or not err.startswith(prefix):
            return [f"exit {code} without a '{prefix}' message on stderr alone"]
        return []
    problems = []
    if err:
        problems.append(f"unexpected stderr: {err.strip()[-300:]}")
    if q.fixed:
        want = digests.get(q.key)
        if want is None:
            problems.append("no recorded digest")
        elif digest(out) != want:
            problems.append("stdout differs from the recorded digest")
    if q.check is not None:
        problem = q.check(out)
        if problem:
            problems.append(problem)
    return problems


def judge_groups(qs: list[Query], outputs: list[str | None]) -> dict[int, list[str]]:
    """Cross-command consistency: every member of a group yields one value.

    outputs[i] is the stdout of a query that passed on its own, else None.
    """
    groups: dict[str, list[tuple[int, int | None]]] = {}
    for i, q in enumerate(qs):
        if q.group is None:
            continue
        value = None
        if outputs[i] is not None:
            try:
                value = q.value(outputs[i])
            except (ValueError, IndexError):
                pass
        groups.setdefault(q.group, []).append((i, value))
    problems: dict[int, list[str]] = {}
    for members in groups.values():
        values = {v for _, v in members}
        if len(values) != 1 or None in values:
            for i, _ in members:
                problems[i] = [f"length / inversions / betas disagree: {sorted(values, key=str)}"]
    return problems
