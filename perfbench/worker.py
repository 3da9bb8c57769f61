"""One fresh interpreter of a benchmark run; run.py starts it, never a user.

    worker.py setup SPAWN_NS RSS_FD NAME...
        import coxkit, parse the named corpus diagrams (building their
        fields) and report when it was ready.
    worker.py sweep SPAWN_NS RSS_FD TRACE NAME RADIUS PERM
        set up one system, then time verify_ball (RADIUS > 0) or
        verify_finite (RADIUS 0) for the Coxeter element PERM (1,2,...).
    worker.py query SPAWN_NS RSS_FD ARGV...
        traced CLI query: install the tracer, then run coxkit.cli.main.
    worker.py cli SPAWN_NS RSS_FD ARGV...
        run coxkit's __main__ as `python -m coxkit ARGV...` does; stdout,
        stderr and the exit code are the CLI's own.

SPAWN_NS is the parent's time.monotonic_ns() just before the spawn; the
clock is system-wide, so ready and startup times here include the
interpreter's own start. Each mode but cli prints one JSON object on
stdout. Every mode writes its own peak RSS in KiB to the inherited file
descriptor RSS_FD when it exits.
"""

from __future__ import annotations

import os
import sys
import time


def _systems(names):
    from coxkit import corpus, diagram

    # parse_system, not corpus.load: a cached system would carry its
    # balls and tables over from an earlier caller in this process
    return [diagram.parse_system(corpus.read_text(name)) for name in names]


def setup(spawn_ns: int, names: list[str]) -> dict:
    import coxkit

    _systems(names)
    ready = time.monotonic_ns()
    return {"setup_s": (ready - spawn_ns) / 1e9, "file": coxkit.__file__}


def _summary(report) -> dict:
    return {
        "mode": report.mode,
        "size": report.ball_size if report.mode == "ball" else report.group_size,
        "coxeter_word": report.coxeter_word,
        "coxeter_order": report.coxeter_order,
        "radius": report.radius,
        "consistent": report.theorem_consistent,
        "summary": report.summary_line(),
        "entries": [
            [e.k, e.status, 0 if e.word == "e" else len(e.word.split())] for e in report.entries
        ],
    }


def sweep(spawn_ns: int, traced: bool, name: str, radius: int, perm: str) -> dict:
    import coxkit

    startup = time.monotonic_ns()
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    (sys_,) = _systems([name])
    ready = time.monotonic_ns()
    perm_t = tuple(int(s) for s in perm.split(","))
    t0 = time.perf_counter()
    if radius:
        report = coxkit.verify.verify_ball(sys_, radius=radius, perm=perm_t)
    else:
        report = coxkit.verify.verify_finite(sys_, perm=perm_t)
    sweep_s = time.perf_counter() - t0
    out = {
        "sweep_s": sweep_s,
        "setup_s": (ready - spawn_ns) / 1e9,
        "startup_s": (startup - spawn_ns) / 1e9,
        "report": _summary(report),
    }
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    return out


def query(spawn_ns: int, argv: list[str]) -> dict:
    import contextlib
    import io

    import coxkit.cli

    startup = time.monotonic_ns()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = coxkit.cli.main(argv)
    return {
        "code": code,
        "out": out.getvalue(),
        "err": err.getvalue(),
        "startup_s": (startup - spawn_ns) / 1e9,
        "trace": tracer.snapshot(),
    }


def cli(argv: list[str]) -> None:
    import runpy

    sys.argv = sys.argv[:1] + argv
    runpy.run_module("coxkit", run_name="__main__", alter_sys=True)


def peak_rss_kib() -> int:
    """This process's own peak RSS (VmHWM). Not ru_maxrss: on Linux that
    starts from the parent's peak at exec, so it would show run.py's size."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    mode, spawn_ns, rss_fd = argv[0], int(argv[1]), int(argv[2])
    try:
        if mode == "cli":
            cli(argv[3:])
            return 0
        if mode == "setup":
            result = setup(spawn_ns, argv[3:])
        elif mode == "sweep":
            result = sweep(spawn_ns, argv[3] == "1", argv[4], int(argv[5]), argv[6])
        elif mode == "query":
            result = query(spawn_ns, argv[3:])
        else:
            print(f"unknown mode {mode!r}", file=sys.stderr)
            return 1
        import json

        print(json.dumps(result))
        return 0
    finally:
        os.write(rss_fd, str(peak_rss_kib()).encode())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
