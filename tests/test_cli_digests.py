"""Byte identity of the CLI over the corpus.

A fixed matrix of subcommands runs in process on all 21 corpus
systems; each run's stdout, stderr and exit code are hashed together
and compared with cli_digests.json. A refactor that must not change
output keeps every digest. A deliberate output change regenerates the
file with `PYTHONPATH=src python tests/test_cli_digests.py` and says
why in its change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from importlib import resources
from pathlib import Path

from coxkit import corpus
from coxkit.cli import main

DIGESTS = Path(__file__).with_name("cli_digests.json")


def _matrix() -> list[tuple[str, tuple[str, ...]]]:
    """(system, argv without --diagram), in a fixed order."""
    runs = []
    for name in corpus.names():
        rank = corpus.load(name).rank
        cox = tuple(str(s) for s in range(1, rank + 1))
        word = ("1", "2", "1") if rank > 1 else ("1", "1")
        runs += [(name, ("classify",)), (name, ("coxeter-verify",)),
                 (name, ("coxeter-verify", "--perm", *reversed(cox)))]
        for cmd in ("length", "inversions", "betas", "straight"):
            runs += [(name, (cmd, *cox)), (name, (cmd, *word))]
        if name in corpus.FINITE:
            runs += [(name, ("closure", *word)), (name, ("redt", *word)),
                     (name, ("conj-graph",)), (name, ("normalizer", "{1}")),
                     (name, ("conj", "{1}", "{2}" if rank > 1 else "{1}")),
                     (name, ("hurwitz", "1;2" if rank > 1 else "1;1"))]
        else:
            runs += [(name, ("outward",)), (name, ("conj-graph",)),
                     (name, ("normalizer", "{1}")),
                     (name, ("hurwitz", "1;2", "--cap", "200"))]
    return runs


def _digest(name: str, argv: tuple[str, ...]) -> str:
    path = str(resources.files("coxkit.data") / f"{name}.cox")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--diagram", path])
    blob = f"{out.getvalue()}\0{err.getvalue()}\0{code}"
    return hashlib.sha256(blob.encode()).hexdigest()


def _label(name: str, argv: tuple[str, ...]) -> str:
    return f"{name}: {' '.join(argv)}"


def test_cli_output_is_byte_identical_over_the_corpus():
    expected = json.loads(DIGESTS.read_text())
    runs = _matrix()
    assert sorted(expected) == sorted(_label(*run) for run in runs)
    changed = [_label(*run) for run in runs if _digest(*run) != expected[_label(*run)]]
    assert not changed, f"{len(changed)} of {len(runs)} runs changed: {changed[:10]}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({_label(*run): _digest(*run) for run in _matrix()}, indent=1) + "\n")
