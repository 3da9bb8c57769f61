"""The depth-first walk of the canonical-word tree and its integer sign filter.

Oracles: the growth series of perfbench/oracle.py (Steinberg's formula
over the classical degrees, read from the diagram files by its own
parser), the descent walk of length_and_reduced for the words, and for
the signs the retired Fraction interval-Horner engine (ref_sign of
test_field), alongside the FieldElement.sign of the system's field.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
from contextlib import nullcontext
from operator import add
from pathlib import Path

import pytest

from coxkit import corpus, diagram, field, verify
from coxkit import group as group_mod
from coxkit.errors import ResourceLimitError
from coxkit.field import FieldElement
from coxkit.group import GroupElement

from test_field import _fibonacci_blocks, _pell_blocks, ref_sign
from test_group import _conjugate_key, _left_key, _load_oracle, _product

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------ the sign filter

def _field_sign(sys_, block):
    ring = group_mod._ring(sys_)
    return FieldElement(sys_.field, ring.embed(block), 1).sign()


@pytest.mark.parametrize("name", corpus.names())
def test_ring_sign_matches_field_sign_on_random_blocks(name):
    sys_ = corpus.load(name)
    ring = group_mod._ring(sys_)
    rng = random.Random(name)
    for size in (3, 10**6, 10**30):
        for _ in range(60):
            block = [rng.randint(-size, size) for _ in range(ring.degree)]
            assert ring.sign(block) == _field_sign(sys_, block) == ref_sign(ring.field.N, block), block
    assert ring.sign([0] * ring.degree) == 0


def _first_block_sign(sys_, col):
    """The first-nonzero-block rule, each block's sign decided exactly."""
    d = group_mod._ring(sys_).degree
    return next((_field_sign(sys_, col[a:a + d]) for a in range(0, len(col), d) if any(col[a:a + d])), 0)


@pytest.mark.parametrize("name", corpus.names())
def test_root_sign_matches_the_first_nonzero_block_on_mixed_columns(name):
    sys_ = corpus.load(name)
    ring = group_mod._ring(sys_)
    nd = sys_.rank * ring.degree
    rng = random.Random(name)
    for _ in range(200):
        col = [rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-10**6, 10**6))) for _ in range(nd)]
        if nd > 1:
            # mixed, so past the same-sign rule; a1 has one-int columns
            p, q = rng.sample(range(nd), 2)
            col[p], col[q] = rng.randint(1, 9), -rng.randint(1, 9)
        assert ring.root_sign(col) == _first_block_sign(sys_, col), col


SWEEPS = [("h4", None), ("f4", None), ("b4", None), ("h3", None), ("d4t", 10), ("tri334", 16)]


def _fresh_fields(monkeypatch):
    """Make every field asked for from here on a new instance, from the
    coarse isolation and with no bounds on its powers: a ring's field is
    then its own even where its N is the system's (i2_7)."""
    monkeypatch.setattr(field, "create", field.Field)


@pytest.mark.parametrize("name,radius", SWEEPS + [("i2_7", None)])
def test_sweeps_decide_their_signs_without_the_enclosure(name, radius, monkeypatch):
    # every block these sweeps meet has ints of one sign; i2_7 (d' = 3)
    # meets mixed ones, so bounds on the powers of theta' are built
    _fresh_fields(monkeypatch)
    sys_ = diagram.parse_system(corpus.read_text(name))
    ring_field = group_mod._ring(sys_).field
    built = []
    bound = field.Field._bound_powers
    monkeypatch.setattr(field.Field, "_bound_powers", lambda self: built.append(self) or bound(self))
    if radius is None:
        assert verify.verify_finite(sys_).theorem_consistent
    else:
        assert verify.verify_ball(sys_, radius=radius).theorem_consistent
    assert any(f is ring_field for f in built) == (name == "i2_7")


@pytest.mark.parametrize(
    "name,blocks",
    [("h4", _fibonacci_blocks), ("b4", _pell_blocks), ("f4", _pell_blocks)],
)
def test_ring_sign_falls_back_to_the_exact_sign_near_zero(name, blocks, monkeypatch):
    _fresh_fields(monkeypatch)
    ring = group_mod._ring(diagram.parse_system(corpus.read_text(name)))
    assert ring.degree == 2
    bisect = field.Field._bisect_once
    bisections = []
    monkeypatch.setattr(field.Field, "_bisect_once", lambda self: bisections.append(self) or bisect(self))
    cases = [b for blk in blocks(120) for b in (blk, [-x for x in blk])]
    got, refined = [], 0
    for b in cases:
        before = len(bisections)
        got.append(ring.sign(b))
        refined += len(bisections) > before
    # the values shrink like 1.6^-n or 2.4^-n while the coefficients grow,
    # so the enclosure decides most at the precision it has and is
    # refined for a few
    assert 0 < refined < len(cases)
    assert got == [ref_sign(ring.field.N, b) for b in cases]
    assert got[:2] == [1, -1]


def test_dyadic_enclosure_brackets_theta():
    # lo / 2^k <= theta <= hi / 2^k isolates theta, the largest root of
    # the minimal polynomial, from the Sturm isolation on, bit by bit
    for n in range(1, 61):
        f = field.Field(n)
        if f.degree == 1:
            assert f._lo == f._hi == -f.minpoly[0] and f._k == 0
            continue
        theta = 2 * math.cos(math.pi / n)
        chain = field._sturm_chain(f.minpoly)
        for _ in range(100):
            lo, hi, k = f._lo, f._hi, f._k
            assert field._scaled_value(f.minpoly, lo, k) < 0 < field._scaled_value(f.minpoly, hi, k)
            # one root in (lo, hi], none in (hi, 2]
            top = field._sign_changes(chain, hi, k)
            assert field._sign_changes(chain, lo, k) - top == 1
            assert top == field._sign_changes(chain, 2 << k, k)
            if k <= 20:
                assert lo / 2**k <= theta <= hi / 2**k
            f._bisect_once()
        assert f._k >= 100


# --------------------------------------------------------------------- the walk

def _layers(sys_, radius, cap=None):
    """Per-depth counts of the walk, and whether each word of length
    <= 6 is the canonical reduced word of its element."""
    counts: dict = {}
    canonical = True
    for g in group_mod.walk(sys_, radius, cap=cap):
        counts[len(g.word)] = counts.get(len(g.word), 0) + 1
        if len(g.word) <= 6:
            canonical &= group_mod.length_and_reduced(g) == (len(g.word), g.word)
    return [counts.get(k, 0) for k in range(max(counts) + 1)], canonical


def _series(name, radius):
    oracle = _load_oracle()
    m = oracle.parse_cox(corpus.read_text(name))
    if radius is None:
        radius = sum(d - 1 for d in oracle.degrees(m))
    return oracle.growth_series(m, radius)


LAYER_CASES = [
    ("a3", None), ("b4", None), ("d4", None), ("f4", None), ("h3", None), ("i2_7", None),
    ("a1t", 12), ("a2t", 10), ("c2t", 10), ("g2t", 10), ("tri334", 12), ("d4t", 7),
]


@pytest.mark.parametrize("name,radius", LAYER_CASES)
def test_walk_layers_match_growth_series(name, radius):
    layers, canonical = _layers(corpus.load(name), radius)
    assert layers == _series(name, radius)
    assert canonical


def test_walk_visits_each_element_once_with_its_canonical_word():
    sys_ = corpus.load("b3")
    seen = {}
    for g in group_mod.walk(sys_):
        assert g.key not in seen
        seen[g.key] = g.word
        assert group_mod.length_and_reduced(g) == (len(g.word), g.word)
        assert group_mod.from_word(sys_, g.word).key == g.key
    assert set(seen) == set(group_mod.enumerate_group(sys_).members)


def _reference_walk(sys_, radius, gens=None, coset=None, carry=None):
    """The walk's step loop on tuple keys as it was before its step rules
    were built once per walk and before keys were packed, kept as the
    reference: every generator (of gens) tried on every element, each
    column operation applied block by block with group._scaled, each
    sign that of the first nonzero block by the exact FieldElement.sign
    of Q(theta'), the coset prune against tuple unit columns, a carry
    (start, step) stepped as step(sys_, value, s). Yields (key, word,
    value) triples, value None without a carry."""
    ring = group_mod._ring(sys_)
    d, steps = group_mod._steps(sys_)
    nd = sys_.rank * d
    idkey = group_mod.identity(sys_).key
    units = {idkey[(s - 1) * nd:s * nd] for s in coset or ()}

    def negative(col):
        a = next(a for a in range(0, nd, d) if any(col[a:a + d]))
        return FieldElement(ring.field, tuple(col[a:a + d]), 1).sign() < 0

    rules = []
    for s0, row in enumerate(steps):
        touched = 1 << s0
        for j, _ in row:
            touched |= 1 << j
        if gens is None or s0 + 1 in gens:
            rules.append((s0, 1 << s0, ~touched, row))
    start, step = carry if carry is not None else (None, None)
    stack = [(idkey, 0, (), start)]
    while stack:
        key, descents, word, value = stack.pop()
        yield key, word, value
        if len(word) == radius:
            continue
        for s0, bit, keep, row in rules:
            below = (1 << s0) - 1
            if descents & bit or descents & keep & below:
                continue
            lo = s0 * nd
            col_s = key[lo:lo + nd]
            if col_s in units:
                continue
            out = list(key)
            mask = descents & keep | bit
            for j, op in row:
                a = j * nd
                col = list(map(add, key[a:a + nd], group_mod._scaled(op, col_s, d)))
                out[a:a + nd] = col
                if descents >> j & 1 and negative(col):
                    mask |= 1 << j
                    if mask & below:
                        break
            else:
                out[lo:lo + nd] = [-y for y in col_s]
                stack.append((tuple(out), mask, word + (s0 + 1,),
                              None if step is None else step(sys_, value, s0 + 1)))


# radii of the infinite systems: balls of at most about 17,500 elements
REFERENCE_RADII = {"a1t": 200, "a2t": 59, "c2t": 59, "g2t": 59, "d4t": 17, "tri334": 21}


@pytest.mark.parametrize("name", corpus.names())
def test_walk_matches_the_reference_step_loop(name):
    sys_ = corpus.load(name)
    radius = REFERENCE_RADII.get(name)
    if radius is None:
        assert diagram.is_spherical(sys_, tuple(range(1, sys_.rank + 1))), name
    got = [(g.key, g.word, None) for g in group_mod.walk(sys_, radius)]
    assert got == list(_reference_walk(sys_, radius))


@pytest.mark.parametrize("mutant", ["drop-least-descent-clause", "inherit-every-sign"])
def test_walk_mutants_are_caught(mutant, monkeypatch):
    if mutant == "drop-least-descent-clause":
        monkeypatch.setattr(group_mod, "_is_child", lambda descents, s0: True)
    else:
        monkeypatch.setattr(group_mod, "_still_negative", lambda lanes, col: True)
    for name, radius in (("a3", None), ("h3", None), ("tri334", 6), ("d4t", 4)):
        expected = _series(name, radius)
        try:
            layers, _ = _layers(corpus.load(name), radius, cap=sum(expected))
        except ResourceLimitError:
            continue
        assert layers != expected, name


@pytest.mark.parametrize("name", corpus.names())
def test_conjugates_carry_matches_products(name):
    """The key the walk carries at u by the packed conjugation step from
    w is that of u^-1 w u, for w the Coxeter element, a generator and a
    seeded random word, over the whole of a finite group and the ball of
    radius 4 of an infinite one. The reference is multiply:
    K = u^-1 w u exactly when u K = w u."""
    sys_ = corpus.load(name)
    lanes = group_mod._packer(sys_)
    rng = random.Random(name)
    radius = None if name in corpus.FINITE else 4
    word = [rng.randint(1, sys_.rank) for _ in range(6)]
    for w in (group_mod.coxeter_element(sys_), group_mod.generator(sys_, sys_.rank),
              group_mod.from_word(sys_, word)):
        carry = (lanes.pack(w.key), lanes.conjugate_step)
        for u, key in group_mod.walk(sys_, radius, carry=carry):
            conj = group_mod.GroupElement(sys_, key, (), lanes)
            assert group_mod.multiply(u, conj).key == group_mod.multiply(w, u).key, u.word


def _carry_by_depth(elements, start, step):
    """The carry the walk used to hand to a separate generator: one value
    kept per depth, the parent's being the one at depth l(x) - 1, which
    holds only when the elements come in depth-first order."""
    values = [start]
    for x in elements:
        depth = len(x.word)
        if depth:
            values[depth:] = [step(values[depth - 1], x.word[-1])]
        yield x, values[depth]


@pytest.mark.parametrize("name", corpus.names())
def test_walk_carry_keeps_the_order_and_carries_inverses(name):
    """A carried walk yields the plain walk's elements in its order; the
    key the packed left step carries from the identity is that of x^-1,
    equal to the depth-indexed reference's (the tuple _left_key) and to
    group.inverse's."""
    sys_ = corpus.load(name)
    lanes = group_mod._packer(sys_)
    radius = None if name in corpus.FINITE else 4
    e = group_mod.identity(sys_)
    plain = list(group_mod.walk(sys_, radius))
    carried = list(group_mod.walk(sys_, radius, carry=(lanes.one, lanes.left_step)))
    assert [(x.key, x.word) for x, _ in carried] == [(x.key, x.word) for x in plain]
    reference = _carry_by_depth(plain, e.key, lambda key, s: _left_key(sys_, key, s))
    for (x, key), (_, expected) in zip(carried, reference, strict=True):
        assert lanes.unpack(key) == expected == group_mod.inverse(x).key, x.word


class _Taken(Exception):
    pass


def _meet_carry(sys_, monkeypatch):
    """The carry verify._meet hands its walk on sys_, taken from that
    call, which stops there."""
    carries = []

    def spy(*args, carry=None, **kwargs):
        carries.append(carry)
        raise _Taken

    with monkeypatch.context() as patched:
        patched.setattr(group_mod, "walk", spy)
        with pytest.raises(_Taken):
            verify._meet(sys_, group_mod.coxeter_element(sys_), 2)
    (carry,) = carries
    return carry


@pytest.mark.parametrize("name", corpus.names())
def test_meet_pair_carry_matches_products(name, monkeypatch):
    """The pair verify._meet carries from (c, e) is, at every z, the keys
    of z^-1 c z and of z^-1, against products and group.inverse."""
    sys_ = corpus.load(name)
    lanes = group_mod._packer(sys_)
    c = group_mod.coxeter_element(sys_)
    radius = None if name in corpus.FINITE else 4
    for z, (conj, zinv) in group_mod.walk(sys_, radius, carry=_meet_carry(sys_, monkeypatch)):
        inv = group_mod.inverse(z)
        assert lanes.unpack(conj) == group_mod.multiply(group_mod.multiply(inv, c), z).key, z.word
        assert lanes.unpack(zinv) == inv.key, z.word


def _meet_pair(sys_, pair, s):
    conj, zinv = pair
    return _conjugate_key(sys_, conj, s), _left_key(sys_, zinv, s)


WALK_CASES = [(name, None if name in corpus.FINITE else 6) for name in corpus.names()] + [
    ("d4t", 10), ("tri334", 16),
]


@pytest.mark.parametrize("name,radius", WALK_CASES, ids=[f"{n}-{r}" for n, r in WALK_CASES])
def test_packed_walk_matches_the_reference_walk(name, radius, monkeypatch):
    # (key, word, carried key) in the walk's order: no carry, each carry
    # of the sweeps (inverses, conjugates of c, the meet's pair), and the
    # walks of W_J and of its minimal coset representatives; the
    # conjugates of c at tri334 R=16 outgrow 32-bit lanes, and the
    # comparison reruns with wider ones as the sweeps do, on a system of
    # its own
    sys_ = diagram.parse_system(corpus.read_text(name))
    group_mod._widening(_walks_agree, sys_, radius, monkeypatch)


def _walks_agree(sys_, radius, monkeypatch):
    lanes = group_mod._packer(sys_)
    c = group_mod.coxeter_element(sys_)
    e = group_mod.identity(sys_)
    j = verify._join_parabolic(sys_)

    def packed(carry=None, unpack=lanes.unpack, **kwargs):
        return [(w.key, w.word, None if carry is None else unpack(value))
                for w, value in ((x, None) if carry is None else x
                                 for x in group_mod.walk(sys_, radius, carry=carry, **kwargs))]

    def pair(values):
        return tuple(map(lanes.unpack, values))

    assert packed() == list(_reference_walk(sys_, radius))
    assert packed((lanes.one, lanes.left_step)) == list(
        _reference_walk(sys_, radius, carry=(e.key, _left_key)))
    assert packed((lanes.pack(c.key), lanes.conjugate_step)) == list(
        _reference_walk(sys_, radius, carry=(c.key, _conjugate_key)))
    assert packed(_meet_carry(sys_, monkeypatch), pair) == list(
        _reference_walk(sys_, radius, carry=((c.key, e.key), _meet_pair)))
    assert packed(gens=j) == list(_reference_walk(sys_, radius, gens=j))
    assert packed(coset=j) == list(_reference_walk(sys_, radius, coset=j))


def test_walk_cap_names_depth_and_count():
    with pytest.raises(ResourceLimitError) as err:
        for _ in group_mod.walk(corpus.load("tri334"), 8, cap=10):
            pass
    assert str(err.value).startswith("ball enumeration exceeded the cap of 10 elements")
    assert "after 10 elements" in str(err.value)
    assert "reached depth " in str(err.value)
    with pytest.raises(ValueError):
        next(group_mod.walk(corpus.load("a2t"), -1))
    assert [g.word for g in group_mod.walk(corpus.load("a2t"), 0)] == [()]


def test_walk_cap_exits_inconclusive_through_the_cli():
    script = (
        "import sys\n"
        "from coxkit import cli, group\n"
        "group.DEFAULT_BALL_CAP = 10\n"
        "sys.exit(cli.main(['coxeter-verify', '--diagram', sys.argv[1]]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src" / "coxkit" / "data" / "h3.cox")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "inconclusive: ball enumeration exceeded the cap of 10 elements (reached depth "
    )
    assert "after 10 elements)" in proc.stderr
    assert "Traceback" not in proc.stderr


# ------------------------------------------------------------ lane overflow

@pytest.mark.parametrize("name,radius", [("d4t", 10), ("tri334", 16)])
def test_narrow_lanes_widen_every_packed_walk(name, radius, monkeypatch):
    # from lanes of 8 bits, the keys the walk steps and each value it
    # carries trip the overflow check before a lane wraps: the walks
    # still match the tuple walk, rerun with wider lanes at each trip
    monkeypatch.setattr(group_mod, "_lane_bits", lambda sys_: 8)
    sys_ = diagram.parse_system(corpus.read_text(name))
    group_mod._widening(_walks_agree, sys_, radius, monkeypatch)
    assert group_mod._packer(sys_).bits > 8


@pytest.mark.parametrize("name,radius", [("d4t", 10), ("tri334", 16), ("b4", None)])
def test_a_lane_trip_ends_the_walk_and_widening_reruns_it(name, radius, monkeypatch):
    # one overflow rule: from 8-bit lanes, a bare walk yields a prefix of
    # the 32-bit walk's elements and then raises _LaneOverflow, never a
    # wrong key; under _widening the same walk gives the whole 32-bit
    # walk, each packer built is wider than the one before, and every
    # element of the finished run holds the system's packer; the same for
    # the walks of W_J and of its minimal coset representatives (W_J of
    # tri334 keeps its entries small and runs whole on 8 bits)
    j = verify._join_parabolic(corpus.load(name))
    kinds = [{}, {"gens": j}, {"coset": j}]
    expected = [[(x.key, x.word) for x in group_mod.walk(corpus.load(name), radius, **kw)]
                for kw in kinds]
    monkeypatch.setattr(group_mod, "_lane_bits", lambda sys_: 8)
    widths = []
    build = group_mod._Lanes.__init__

    def build_wider(lanes, sys_, bits):
        build(lanes, sys_, bits)
        assert not widths or lanes.bits > widths[-1], (widths, lanes.bits)
        widths.append(lanes.bits)

    monkeypatch.setattr(group_mod._Lanes, "__init__", build_wider)
    for kw, keys in zip(kinds, expected):
        sys_ = diagram.parse_system(corpus.read_text(name))
        widths.clear()
        bare = []
        whole = name == "tri334" and "gens" in kw
        with nullcontext() if whole else pytest.raises(group_mod._LaneOverflow):
            for x in group_mod.walk(sys_, radius, **kw):
                bare.append((x.key, x.word))
        assert bare == (keys if whole else keys[:len(bare)]), kw
        walked = group_mod._widening(lambda: list(group_mod.walk(sys_, radius, **kw)))
        assert [(x.key, x.word) for x in walked] == keys, kw
        lanes = group_mod._packer(sys_)
        assert widths[0] == 8 and lanes.bits == widths[-1], kw
        assert all(x._lanes is lanes for x in walked), kw


CONSUMERS = {
    "ball": lambda sys_: [(w.key, w.word) for w in group_mod.ball(sys_, 6).elements()],
    "growth_series": lambda sys_: group_mod.growth_series(sys_, 30),
    "carried_keys": lambda sys_: [(u.key, key) for u, key in group_mod._carried_keys(
        sys_, (1, 2), group_mod.coxeter_element(sys_).key, "conjugate")],
}


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_walk_consumers_rerun_on_narrow_lanes(consumer, monkeypatch):
    # ball (through _ball_order), growth_series (through _lengths) and
    # _carried_keys each run their walk under _widening: from 8-bit lanes
    # on g2t, each trips, and returns what 32-bit lanes give
    run = CONSUMERS[consumer]
    expected = run(diagram.parse_system(corpus.read_text("g2t")))
    monkeypatch.setattr(group_mod, "_lane_bits", lambda sys_: 8)
    sys_ = diagram.parse_system(corpus.read_text("g2t"))
    assert run(sys_) == expected
    assert group_mod._packer(sys_).bits > 8


@pytest.mark.parametrize("name", ["tri334", "d4t"])
def test_narrow_lanes_widen_and_keep_the_report(name, monkeypatch):
    # lanes of 8 bits hold entries below 4: the keys, rows and conjugates
    # of these sweeps trip the overflow check, each trip reruns the
    # certificate with lanes twice as wide, and the report is the one the
    # default width gives
    expected = verify.verify_ball(diagram.parse_system(corpus.read_text(name)), radius=20)
    monkeypatch.setattr(group_mod, "_lane_bits", lambda sys_: 8)
    widths = []
    build = group_mod._Lanes.__init__
    monkeypatch.setattr(group_mod._Lanes, "__init__",
                        lambda lanes, sys_, bits: widths.append(bits) or build(lanes, sys_, bits))
    sys_ = diagram.parse_system(corpus.read_text(name))
    report = verify.verify_ball(sys_, radius=20)
    assert report.text_lines() == expected.text_lines()
    assert widths[0] == 8 and len(widths) > 1
    assert widths == sorted(widths) and group_mod._packer(sys_).bits == widths[-1] > 8
    # the lanes it settled on hold the conjugates of c the half ball carries
    lanes = group_mod._packer(sys_)
    c = group_mod.coxeter_element(sys_)
    for z, conj in group_mod.walk(sys_, 10, carry=(lanes.pack(c.key), lanes.conjugate_step)):
        inv = group_mod.inverse(z)
        assert lanes.unpack(conj) == group_mod.multiply(group_mod.multiply(inv, c), z).key, z.word


def test_lanes_stop_widening_at_the_cap(monkeypatch):
    # tri334 at R = 20 needs 32-bit lanes: from 8 bits under a cap of 16,
    # the second trip ends the sweep as a resource limit, not a runaway
    monkeypatch.setattr(group_mod, "_lane_bits", lambda sys_: 8)
    monkeypatch.setattr(group_mod, "MAX_LANE_BITS", 16)
    with pytest.raises(ResourceLimitError, match="^a packed key outgrew lanes of 16 bits$"):
        verify.verify_ball(diagram.parse_system(corpus.read_text("tri334")), radius=20)


def test_a_finite_system_starts_on_16_bit_lanes_and_any_other_on_32(monkeypatch):
    # a finite W's key entries are root coordinates and its rows root
    # heights: the finite sweep never trips 16-bit lanes and builds one
    # packer; every other system starts at 32 bits
    widths = []
    build = group_mod._Lanes.__init__
    monkeypatch.setattr(group_mod._Lanes, "__init__",
                        lambda lanes, sys_, bits: build(lanes, sys_, bits) or widths.append(lanes.bits))
    for name in corpus.names():
        sys_ = diagram.parse_system(corpus.read_text(name))
        widths.clear()
        if name in corpus.FINITE:
            assert verify.verify_finite(sys_).theorem_consistent
            assert widths == [16], name
        else:
            group_mod._packer(sys_)
            assert widths == [32], name


def test_products_widen_past_the_cap_and_walks_stop_at_it(monkeypatch):
    # the entries of c^30 on tri334 need lanes of 128 bits: under a cap of
    # 64, the products of the powers and the straightness probe still
    # give what the tuple product gives, and a walk that outgrows 64 bits
    # afterwards, the depth-first walk of a ball whose cap trips late,
    # still ends as a resource limit
    monkeypatch.setattr(group_mod, "MAX_LANE_BITS", 64)
    sys_ = diagram.parse_system(corpus.read_text("tri334"))
    c = group_mod.coxeter_element(sys_)
    power = reference = c
    lengths = [group_mod.length_and_reduced(c)[0]]
    for _ in range(29):
        power, reference = group_mod.multiply(c, power), GroupElement(sys_, _product(c, reference), ())
        assert power.key == reference.key
        lengths.append(group_mod.length_and_reduced(reference)[0])
    assert power._lanes.bits > 64
    assert lengths == [3 * m for m in range(1, 31)]
    assert group_mod.is_straight_upto(c, 30)
    with pytest.raises(ResourceLimitError, match="^a packed key outgrew lanes of 64 bits$"):
        group_mod.ball(sys_, 400, cap=400)


def test_enumerating_an_infinite_group_raises_before_a_walk(monkeypatch):
    # an infinite group ends on the cap at once, with no packer built; a
    # finite scope over its cap still names the depth its walk reached
    built = []
    init = group_mod._Lanes.__init__
    monkeypatch.setattr(group_mod._Lanes, "__init__",
                        lambda lanes, sys_, bits: init(lanes, sys_, bits) or built.append(lanes.bits))
    for name, cap in (("tri334", 20000), ("a1t", group_mod.DEFAULT_BALL_CAP)):
        sys_ = diagram.parse_system(corpus.read_text(name))
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"^the group is infinite: its enumeration"
                                                     f" exceeds the cap of {cap} elements$"):
            group_mod.enumerate_group(sys_, cap=cap)
        assert time.perf_counter() - start < 1, name
    assert built == []
    assert len(group_mod.enumerate_group(sys_, gens=(1,))) == 2
    h3 = diagram.parse_system(corpus.read_text("h3"))
    with pytest.raises(ResourceLimitError, match=r"^ball enumeration exceeded the cap of 5 elements"
                                                 r" \(reached depth "):
        group_mod.enumerate_group(h3, cap=5)


def test_a_walked_element_unpacks_its_key_once_on_first_read(monkeypatch):
    # a walked element holds its key packed: reading its word or system
    # unpacks nothing, and its first read of key unpacks it, once
    sys_ = diagram.parse_system(corpus.read_text("h3"))
    walked = list(group_mod.walk(sys_, 3))
    calls = []
    unpack = group_mod._Lanes.unpack
    monkeypatch.setattr(group_mod._Lanes, "unpack",
                        lambda lanes, *args: calls.append(args) or unpack(lanes, *args))
    assert all(w.system is sys_ for w in walked) and len({w.word for w in walked}) == len(walked)
    assert calls == []
    for w in walked:
        key = w.key
        assert w.key is key == group_mod.from_word(sys_, w.word).key
    assert len(calls) == len(walked)
