"""Command line front end.

Output is line oriented, locale independent, and deterministic: words
print as 1-based generator indices, subsets as sorted brace lists, and
nothing varies with --threads. Exit codes: 0 for a successful or
theorem-consistent computation, 1 for input errors (including unknown
flags), 2 for inconclusive runs where a cap, a search window or memory
was exhausted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import diagram, group, parabolic, refl, roots, verify
from .errors import InvariantViolation, ResourceLimitError

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad input, which this tool
    # reserves for inconclusive runs; surface a UsageError instead
    def error(self, message):
        raise UsageError(message)


_WORD_COMMANDS = ("length", "inversions", "betas", "redt", "closure", "straight")


def _build_parser(command: str | None = None) -> _Parser:
    """The argument parser. When command names a subcommand, only its
    parser is built: its help, usage and errors are those of the full
    build, and anything else (no command, an unknown one, a top-level
    flag) builds every subcommand, for the choices and the help that
    list them."""
    common = _Parser(add_help=False)
    common.add_argument("--diagram", metavar="PATH", help="coxeter matrix file")
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="N",
        help="accepted for interface stability; never changes output",
    )
    p = _Parser(prog="coxkit", description="exact computation in coxeter groups")
    sub = p.add_subparsers(dest="command", metavar="command")
    # _DISPATCH lists the subcommands in the order of the full help
    for name in (command,) if command in _DISPATCH else _DISPATCH:
        _add_arguments(sub.add_parser(name, parents=[common]), name)
    return p


def _add_arguments(sp: _Parser, name: str) -> None:
    """The arguments of one subcommand beyond --diagram and --threads."""
    if name in _WORD_COMMANDS:
        sp.add_argument("word", nargs="+", help="1-based generator indices")
    if name in ("straight", "outward"):
        sp.add_argument("--max", type=int, default=10, metavar="M")
    if name == "coxeter-verify":
        sp.add_argument("--radius", type=int, metavar="R")
        sp.add_argument("--powers", type=int, metavar="P")
        sp.add_argument("--perm", nargs="+", type=int, metavar="S")
    elif name == "outward":
        sp.add_argument("--orbits", type=int, default=10, metavar="K")
    elif name == "hurwitz":
        sp.add_argument("factorization", nargs="+", help="reflection words joined by ';'")
        sp.add_argument("--cap", type=int, default=refl.DEFAULT_ORBIT_CAP, metavar="C")
    elif name == "conj":
        sp.add_argument("source", help="subset like {1,2}")
        sp.add_argument("target", help="subset like {2,3}")
    elif name == "normalizer":
        sp.add_argument("subset", help="nonempty subset like {1,3}")


def _load_system(args) -> diagram.CoxeterSystem:
    if args.diagram is None:
        raise UsageError("--diagram is required for this command")
    try:
        text = Path(args.diagram).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read diagram file: {exc}")
    return diagram.parse_system(text)


def _word_arg(args, sys_) -> group.GroupElement:
    return group.from_word(sys_, group.parse_word(" ".join(args.word), sys_.rank))


def _reflection_from_word(sys_, letters) -> refl.Reflection:
    w = group.from_word(sys_, letters)
    root = refl._flipped_root(w)
    if root is None:
        canonical = group.length_and_reduced(w)[1]
        raise UsageError(f"'{group.word_str(canonical)}' is not a reflection")
    # _flipped_root checked that w is the reflection through root
    return refl._reflection(sys_, root)


# ---------------------------------------------------------------- commands

def _cmd_classify(args) -> int:
    print(diagram.classify(_load_system(args)))
    return 0


def _cmd_length(args) -> int:
    sys_ = _load_system(args)
    w = _word_arg(args, sys_)
    length, word = group.length_and_reduced(w)
    print(f"length: {length}")
    print(f"canonical: {group.word_str(word)}")
    return 0


def _cmd_inversions(args) -> int:
    sys_ = _load_system(args)
    inv = roots.inversion_set(_word_arg(args, sys_))
    for r in inv:
        print(roots.root_str(r))
    print(f"count: {len(inv)}")
    return 0


def _cmd_betas(args) -> int:
    sys_ = _load_system(args)
    betas = roots.beta_sequence(_word_arg(args, sys_))
    for r in betas:
        print(roots.root_str(r))
    print(f"count: {len(betas)}")
    return 0


def _cmd_coxeter_verify(args) -> int:
    sys_ = _load_system(args)
    perm = tuple(args.perm) if args.perm else None
    if diagram.classify(sys_) == "finite":
        # verify_ball rejects these itself; the exhaustive sweep ignores them
        for value, name in ((args.radius, "radius"), (args.powers, "power bound")):
            if value is not None and value < 1:
                raise UsageError(f"{name} must be at least 1")
        rep = verify.verify_finite(sys_, perm=perm)
    else:
        rep = verify.verify_ball(
            sys_, radius=args.radius, power_bound=args.powers, perm=perm
        )
    for line in rep.text_lines():
        print(line)
    return 0 if rep.theorem_consistent else 2


def _cmd_straight(args) -> int:
    sys_ = _load_system(args)
    w = _word_arg(args, sys_)
    if args.max < 1:
        raise UsageError("--max must be at least 1")
    verdict = "yes" if group.is_straight_upto(w, args.max) else "no"
    print(f"straight up to {args.max}: {verdict}")
    return 0


def _cmd_outward(args) -> int:
    sys_ = _load_system(args)
    if args.orbits < 1:
        raise UsageError("--orbits must be at least 1")
    c = group.coxeter_element(sys_)
    reps = roots.outward_representatives(
        c, max_power=args.max, orbit_bound=args.orbits
    )
    for r in reps:
        print(roots.root_str(r))
    print(f"count: {len(reps)}")
    return 0


def _cmd_hurwitz(args) -> int:
    sys_ = _load_system(args)
    if args.cap < 1:
        raise UsageError("--cap must be at least 1")
    text = " ".join(args.factorization)
    parts = [p.strip() for p in text.split(";")]
    if not all(parts):
        raise UsageError("empty reflection word in factorization")
    factors = tuple(
        _reflection_from_word(sys_, group.parse_word(p, sys_.rank)) for p in parts
    )
    product = group.identity(sys_)
    for t in factors:
        product = group.multiply(product, t.element)
    fact = refl.ReflectionFactorization(factors, product)
    orbit = refl.hurwitz_orbit(fact, cap=args.cap)
    for member in orbit:
        print(refl.factorization_str(member))
    print(f"orbit-size: {len(orbit)}")
    return 0


def _cmd_redt(args) -> int:
    sys_ = _load_system(args)
    w = _word_arg(args, sys_)
    length = refl.reflection_length(sys_, w)
    print(f"reflection-length: {length}")
    facts = refl.reduced_factorizations(sys_, w)
    for fact in facts:
        print(refl.factorization_str(fact))
    print(f"count: {len(facts)}")
    return 0


def _cmd_conj_graph(args) -> int:
    graph = parabolic.conjugacy_graph(_load_system(args))
    for line in graph.export_lines():
        print(line)
    components = len(set(graph.component_of.values()))
    print(f"components: {components}")
    return 0


def _cmd_conj(args) -> int:
    sys_ = _load_system(args)
    src = parabolic.parse_subset(args.source, sys_.rank)
    tgt = parabolic.parse_subset(args.target, sys_.rank)
    graph = parabolic.conjugacy_graph(sys_)
    ok, witness = parabolic.standard_conjugate(sys_, src, tgt, graph=graph)
    if ok:
        print(f"conjugate: {group.word_str(witness.word)}")
    elif graph.is_isolated(src) and graph.is_isolated(tgt):
        print("not conjugate (isolated vertices)")
    else:
        print("not conjugate (different components)")
    return 0


def _cmd_normalizer(args) -> int:
    sys_ = _load_system(args)
    subset = parabolic.parse_subset(args.subset, sys_.rank)
    if not subset:
        raise UsageError(
            "normalizer of the empty subset is the whole group; pass a nonempty subset"
        )
    gens = parabolic.normalizer_generators(sys_, subset)
    for g in gens:
        print(group.word_str(g.word))
    print(f"count: {len(gens)}")
    return 0


def _cmd_closure(args) -> int:
    sys_ = _load_system(args)
    w = _word_arg(args, sys_)
    cl = parabolic.parabolic_closure_finite(sys_, [w])
    print(f"order: {len(cl)}")
    print(f"standard: {parabolic.subset_str(cl.standard)}")
    print(f"conjugator: {group.word_str(cl.conjugator.word)}")
    return 0


def _cmd_example(args) -> int:
    report = verify.verify_example_d4tilde()
    for line in report.text_lines():
        print(line)
    return 0 if report.passed else 2


_DISPATCH = {
    "classify": _cmd_classify,
    "length": _cmd_length,
    "inversions": _cmd_inversions,
    "betas": _cmd_betas,
    "redt": _cmd_redt,
    "closure": _cmd_closure,
    "straight": _cmd_straight,
    "coxeter-verify": _cmd_coxeter_verify,
    "outward": _cmd_outward,
    "hurwitz": _cmd_hurwitz,
    "conj-graph": _cmd_conj_graph,
    "conj": _cmd_conj,
    "normalizer": _cmd_normalizer,
    "example-d4tilde": _cmd_example,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (see --help)")
        if args.threads < 1:
            raise UsageError("--threads must be at least 1")
        return _DISPATCH[args.command](args)
    except (UsageError, ValueError) as exc:
        # DiagramParseError and FieldMismatchError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ResourceLimitError, InvariantViolation) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("inconclusive: out of memory", file=sys.stderr)
        return 2
