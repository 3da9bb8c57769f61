"""Byte identity of the CLI over the corpus, the worked example and the demos.

A fixed matrix of subcommands runs in process on all 21 corpus
systems, as do `example-d4tilde` and the five demos (through runpy);
each run's stdout, stderr and exit code are hashed together and
compared with cli_digests.json. A refactor that must not change
output keeps every digest. A deliberate output change regenerates the
file with `PYTHONPATH=src python tests/test_cli_digests.py` and says
why in its change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import runpy
from functools import partial
from importlib import resources
from pathlib import Path

from coxkit import corpus
from coxkit import group as group_mod
from coxkit.cli import main

DIGESTS = Path(__file__).with_name("cli_digests.json")
DEMOS = Path(__file__).resolve().parent.parent / "demos"


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


def _digest(run) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run()
    blob = f"{out.getvalue()}\0{err.getvalue()}\0{code}"
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_demo(path: Path) -> int:
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        return exc.code
    return 0


def _corpus_runs() -> dict:
    """label -> a call returning the exit code, for the matrix."""
    runs = {}
    for name, argv in _matrix():
        path = str(resources.files("coxkit.data") / f"{name}.cox")
        runs[f"{name}: {' '.join(argv)}"] = partial(main, [*argv, "--diagram", path])
    return runs


def _example_and_demo_runs() -> dict:
    runs = {"example-d4tilde": partial(main, ["example-d4tilde"])}
    for path in sorted(DEMOS.glob("*.py")):
        runs[f"demo: {path.stem}"] = partial(_run_demo, path)
    return runs


def _changed(runs: dict) -> list[str]:
    expected = json.loads(DIGESTS.read_text())
    return [label for label, run in runs.items() if _digest(run) != expected[label]]


def test_cli_output_is_byte_identical_over_the_corpus():
    runs = _corpus_runs()
    expected = json.loads(DIGESTS.read_text())
    assert sorted(expected) == sorted({**runs, **_example_and_demo_runs()})
    changed = _changed(runs)
    assert not changed, f"{len(changed)} of {len(runs)} runs changed: {changed[:10]}"


def test_example_and_demo_output_is_byte_identical():
    runs = _example_and_demo_runs()
    assert len(runs) == 6
    changed = _changed(runs)
    assert not changed, f"{len(changed)} of {len(runs)} runs changed: {changed}"


def test_output_is_byte_identical_on_narrow_lanes(monkeypatch):
    # from 8-bit lanes, packed values trip the overflow check on many
    # paths and each run reruns with wider lanes (group._widening): no
    # run leaks _LaneOverflow or changes a byte; the systems loaded
    # meanwhile go with a corpus cache of this test's own, so no narrow
    # packer outlives it
    monkeypatch.setattr(group_mod, "_lane_bits", lambda sys_: 8)
    monkeypatch.setattr(corpus, "_loaded", {})
    widths = []
    build = group_mod._Lanes.__init__
    monkeypatch.setattr(group_mod._Lanes, "__init__",
                        lambda lanes, sys_, bits: widths.append(bits) or build(lanes, sys_, bits))
    runs = {**_corpus_runs(), **_example_and_demo_runs()}
    changed = _changed(runs)
    assert not changed, f"{len(changed)} of {len(runs)} runs changed: {changed[:10]}"
    assert min(widths) == 8 and max(widths) > 8


if __name__ == "__main__":
    runs = {**_corpus_runs(), **_example_and_demo_runs()}
    DIGESTS.write_text(json.dumps({label: _digest(run) for label, run in runs.items()}, indent=1) + "\n")
