"""coxkit benchmark: three workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload ball_sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the repository root. Every sweep, query and set-up probe runs
in a fresh interpreter that imports coxkit from ./src, so no cache of
one operation makes another one cheaper. Metric names and units come
from BENCHMARK.json; see perfbench/README.md for what each one means.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import oracle
import queries

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
CHILD_TIMEOUT = 150
# set-up probes: SETUP_PROBES at the start of a run, SWEEP_PROBES after every
# sweep and one after every PROBE_EVERY queries, so that setup_s is a median
# over samples from the whole run
SETUP_PROBES = 10
SWEEP_PROBES = 2
PROBE_EVERY = 5
BALL_PLAN = (("d4t", 10), ("tri334", 16))
FINITE_PLAN = (("h4", 0), ("f4", 0))
WORKLOADS = ("ball_sweep", "finite_sweep", "cli_queries")


class Fatal(Exception):
    """The benchmark cannot run here (for instance, no ./src/coxkit)."""


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def ratio(a, b):
    return a / b if b else 0.0


@dataclass
class Child:
    code: int
    out: str
    err: str
    latency: float  # spawn to exit, s
    rss_mb: float  # the child's own peak resident set, as it reported it


class Run:
    """State of one benchmark run: children, tallies, samples and spans."""

    def __init__(self, workload: str, seed: int, seconds: int, traced: bool) -> None:
        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        self.rng = random.Random(seed)
        self.t0 = time.perf_counter()
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
        # cache bytecode like an installed copy, whatever the caller's environment says
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.values: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.spans: list[dict] = []
        self.diagrams: list[str] = []
        self.setups: list[float] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def more(self, durations: list[float]) -> bool:
        """Whether to start another unit of work: always a first one, then only while
        one more of the mean duration so far fits in --seconds."""
        return not durations or self.elapsed() + statistics.mean(durations) <= self.seconds

    def tally(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")

    # -- children ------------------------------------------------------------

    def spawn(self, argv_tail: list[str], label: str) -> Child:
        """Run one worker.py child to completion and wait for it."""
        spawn_ns = time.monotonic_ns()
        start_ns = time.perf_counter_ns()
        rss_r, rss_w = os.pipe()
        argv = [sys.executable, str(HERE / "worker.py"), argv_tail[0], str(spawn_ns), str(rss_w)] + argv_tail[1:]
        with os.fdopen(rss_r, "rb") as rss_pipe:
            try:
                proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                        env=self.env, cwd=ROOT, pass_fds=(rss_w,))
            finally:
                os.close(rss_w)
            with proc:
                try:
                    out, err = proc.communicate(timeout=CHILD_TIMEOUT)
                    code = proc.returncode
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.communicate()
                    code, out, err = -1, "", f"timed out after {CHILD_TIMEOUT} s"
            end_ns = time.perf_counter_ns()
            rss_kib = rss_pipe.read()
        self.spans.append({"id": len(self.spans), "name": label, "start_ns": start_ns, "end_ns": end_ns, "parent": -1})
        return Child(code, out, err, (end_ns - start_ns) / 1e9, int(rss_kib or 0) / 1024)

    def worker(self, *args: str, label: str) -> tuple[dict | None, Child, list[str]]:
        child = self.spawn(list(args), label)
        if child.code != 0:
            return None, child, [f"worker exited {child.code}: {child.err.strip()[-300:]}"]
        try:
            result = json.loads(child.out.splitlines()[-1])
        except (IndexError, ValueError):
            return None, child, [f"worker printed no result: {child.err.strip()[-300:]}"]
        if "trace" in result:
            self._adopt_spans(result["trace"])
        return result, child, []

    def _adopt_spans(self, trace: dict) -> None:
        parent = self.spans[-1]
        base = len(self.spans)
        ids = {sid: base + i for i, (sid, *_rest) in enumerate(trace["spans"])}
        for sid, name, start, end, up in trace["spans"]:
            self.spans.append({
                "id": ids[sid], "name": name, "start_ns": start, "end_ns": end,
                "parent": ids.get(up, parent["id"]),
            })

    # -- shared steps ------------------------------------------------------------

    def check_install(self) -> None:
        """Compile coxkit once (like an installed copy) and make sure it is ./src's."""
        result, _, problems = self.worker("setup", label="warm-up")
        if problems:
            raise Fatal("cannot import coxkit from ./src: " + "; ".join(problems))
        if not Path(result["file"]).resolve().is_relative_to(ROOT / "src"):
            raise Fatal(f"coxkit imported from {result['file']}, not from ./src")
        self.spans.clear()

    def probe(self, times: int = 1) -> None:
        """Time set-up, each time in a fresh interpreter."""
        for _ in range(times):
            result, _, problems = self.worker("setup", *self.diagrams, label="setup")
            self.tally("setup", problems)
            if result:
                self.setups.append(result["setup_s"])

    def record(self, name: str, samples: list[float], value: float) -> None:
        self.samples[name] = samples
        self.values[name] = value

    def peak_rss(self, rows: list[dict]) -> None:
        """The largest peak RSS that a measured process reported; probes are not measured."""
        rss = [r["rss_mb"] for r in rows]
        self.record("peak_rss_mb", rss, max(rss, default=0.0))


# ------------------------------------------------------------------- sweeps

def expect_sweep(name: str, radius: int) -> dict:
    m = queries.matrix(name)
    if radius:
        q = radius // len(m)
        return {"mode": "ball", "size": oracle.ball_size(m, radius), "ks": list(range(-q, q + 1)),
                "rank": len(m)}
    h = oracle.coxeter_number(m)
    return {"mode": "finite-exhaustive", "size": oracle.order(m), "order": h, "ks": list(range(h))}


def check_sweep(report: dict, want: dict, perm: list[int]) -> list[str]:
    problems = []
    if report["mode"] != want["mode"] or report["size"] != want["size"]:
        problems.append(f"{report['mode']} of size {report['size']}, oracle says {want['size']}")
    if report["coxeter_word"] != " ".join(map(str, perm)):
        problems.append("wrong coxeter word")
    entries = report["entries"]
    if any(status != "ok" for _, status, _ in entries) or not report["consistent"]:
        problems.append("centralizer element that is not a power of c")
    if sorted(k for k, _, _ in entries) != want["ks"]:
        problems.append(f"exponents {sorted(k for k, _, _ in entries)}, want {want['ks']}")
    if want["mode"] == "ball":
        if any(length != abs(k) * want["rank"] for k, _, length in entries):
            problems.append("some c^k does not have length |k| n")
    elif report["coxeter_order"] != want["order"]:
        problems.append(f"coxeter order {report['coxeter_order']}, want h = {want['order']}")
    if not report["summary"].endswith(" OK"):
        problems.append(f"summary {report['summary']!r}")
    return problems


def sweep_cycle(run: Run, plan, perms, traced: bool) -> list[dict]:
    rows = []
    for (name, radius), perm in zip(plan, perms):
        result, child, problems = run.worker(
            "sweep", "1" if traced else "0", name, str(radius), ",".join(map(str, perm)),
            label=f"sweep:{name}",
        )
        if result:
            problems = check_sweep(result["report"], expect_sweep(name, radius), perm)
        run.tally(f"sweep {name} perm {perm}", problems)
        if result and not problems:
            rows.append({**result, "latency": child.latency, "rss_mb": child.rss_mb,
                         "elements": result["report"]["size"]})
        run.probe(SWEEP_PROBES)
    return rows


def sweep_workload(run: Run, plan) -> list[list[dict]]:
    def draw():
        perms = []
        for name, _ in plan:
            perm = list(range(1, len(queries.matrix(name)) + 1))
            run.rng.shuffle(perm)
            perms.append(perm)
        return perms

    if run.traced:
        perms = draw()
        return [sweep_cycle(run, plan, perms, False), sweep_cycle(run, plan, perms, True)]
    cycles, durations = [], []
    while run.more(durations):
        start = run.elapsed()
        cycles.append(sweep_cycle(run, plan, draw(), False))
        durations.append(run.elapsed() - start)
    rows = [r for c in cycles for r in c]
    walls = [sum(r["sweep_s"] for r in c) for c in cycles]
    # one query is one cycle: a fresh process per system, spawn to exit
    latencies = [sum(r["latency"] for r in c) * 1e3 for c in cycles]
    run.record("wall_s", walls, median(walls))
    run.record("elems_per_s", [r["elements"] / r["sweep_s"] for r in rows],
               ratio(sum(r["elements"] for r in rows), sum(r["sweep_s"] for r in rows)))
    run.record("query_p50_ms", latencies, median(latencies))
    run.record("query_p90_ms", latencies, p90(latencies))
    run.peak_rss(rows)
    return cycles


# ---------------------------------------------------------------------- cli

def run_query(run: Run, q: queries.Query, traced: bool) -> dict:
    label = f"query:{q.cmd}"
    trace = startup = None
    if traced:
        result, child, problems = run.worker("query", *q.argv(), label=label)
        if result:
            code, out, err = result["code"], result["out"], result["err"]
            trace, startup = result["trace"], result["startup_s"]
    else:
        child = run.spawn(["cli"] + q.argv(), label)
        code, out, err, problems = child.code, child.out, child.err, []
    if not problems:
        problems = queries.judge(q, code, out, err, run.digests)
    return {"q": q, "out": None if problems else out, "latency": child.latency, "rss_mb": child.rss_mb,
            "problems": problems, "trace": trace, "startup_s": startup}


def query_pass(run: Run, qs: list[queries.Query], traced: bool) -> list[dict]:
    rows = []
    for i, q in enumerate(qs, 1):
        rows.append(run_query(run, q, traced))
        if i % PROBE_EVERY == 0:
            run.probe()
    for i, problems in queries.judge_groups(qs, [r["out"] for r in rows]).items():
        rows[i]["problems"] += problems
    for r in rows:
        run.tally(f"query {r['q'].key}", r["problems"])
    return [r for r in rows if not r["problems"]]


def cli_workload(run: Run) -> list[list[dict]]:
    run.digests = queries.load_digests()
    if run.traced:
        qs = queries.make_pass(run.rng)
        return [query_pass(run, qs, False), query_pass(run, qs, True)]
    passes, durations = [], []
    while run.more(durations):
        start = run.elapsed()
        passes.append(query_pass(run, queries.make_pass(run.rng), False))
        durations.append(run.elapsed() - start)
    rows = [r for p in passes for r in p]
    latencies = [r["latency"] * 1e3 for r in rows]
    walls = [sum(r["latency"] for r in p) for p in passes]
    verifies = [r for r in rows if r["q"].elements]
    run.record("wall_s", walls, median(walls))
    run.record("elems_per_s", [r["q"].elements / r["latency"] for r in verifies],
               ratio(sum(r["q"].elements for r in verifies), sum(r["latency"] for r in verifies)))
    run.record("query_p50_ms", latencies, median(latencies))
    run.record("query_p90_ms", latencies, p90(latencies))
    run.peak_rss(rows)
    return passes


# ------------------------------------------------------------- per-layer

def layer_metrics(run: Run, names: list[str], plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics from one untraced and one traced pass over the same work."""
    counts, times = Counter(), Counter()
    for r in traced:
        counts.update(r["trace"]["counts"])
        times.update(r["trace"]["times"])
    if run.workload == "cli_queries":
        plain_wall = sum(r["latency"] for r in plain)
        traced_wall = sum(r["latency"] for r in traced)
    else:
        plain_wall = sum(r["sweep_s"] for r in plain)
        traced_wall = sum(r["sweep_s"] for r in traced)
    derived = {
        "field.sign.hit_ratio": ratio(counts["field.sign.calls"] - counts["field.sign.computed"],
                                      counts["field.sign.calls"]),
        "group.enum.useful_ratio": ratio(counts["group.enum.new"], counts["group.enum.children"]),
        "verify.stage.match_s": max(0.0, times["verify.sweep_s"] - times["verify.stage.enumerate_s"]
                                    - times["verify.stage.commute_s"]),
        "verify.commute.hit_ratio": ratio(counts["verify.commutes.true"], counts["verify.commutes.calls"]),
        "cli.startup_ms": median([r["startup_s"] * 1e3 for r in traced]),
        "trace.overhead_ratio": ratio(traced_wall, plain_wall),
    }
    for cmd in queries.COMMANDS:
        lat = [r["latency"] * 1e3 for r in plain if r.get("q") and r["q"].cmd == cmd]
        derived[f"cli.cmd.{cmd}.p50_ms"] = median(lat)
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        else:
            out[name] = counts[name] if name in counts else times[name]
    return out


# ------------------------------------------------------------------ output

def load_spec() -> dict:
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise Fatal(f"cannot read {SPEC.name}: {exc}")


def run_workload(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    spec = load_spec()
    metric_spec = spec["per_layer" if traced else "end_to_end"]
    run = Run(workload, seed, seconds, traced)
    run.check_install()
    plan = BALL_PLAN if workload == "ball_sweep" else FINITE_PLAN
    run.diagrams = queries.systems() if workload == "cli_queries" else [name for name, _ in plan]
    run.probe(SETUP_PROBES)
    if workload == "cli_queries":
        parts = cli_workload(run)
    else:
        parts = sweep_workload(run, plan)
    run.record("setup_s", run.setups, median(run.setups))
    if traced:
        run.values = layer_metrics(run, [m["name"] for m in metric_spec], *parts)
    missing = [m["name"] for m in metric_spec if m["name"] not in run.values]
    if missing:
        raise Fatal(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": run.values[m["name"]], "unit": m["unit"]} for m in metric_spec}

    print(f"workload {workload} seed {seed} seconds {seconds} trace {int(traced)}"
          f" python {platform.python_version()} nproc {os.cpu_count()}")
    for name, m in metrics.items():
        n = len(run.samples.get(name, ()))
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:<12s}" + (f" n={n}" if n else ""))
    print(f"  {'failed_frac':34s} {ratio(run.failed, run.attempted):>14.6g} {'ratio':<12s}"
          f" {run.failed}/{run.attempted}")
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "elapsed_s": run.elapsed(), "failures": run.problems,
        "samples": {k: len(v) for k, v in run.samples.items()}, "raw": run.samples,
    }
    print("record: " + json.dumps({k: v for k, v in record.items() if k != "raw"}))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps({**record, "metrics": metrics, "spans": run.spans if traced else []}))
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def run_all(seed: int, seconds: int, traced: bool) -> dict:
    """Each workload in its own fresh interpreter, then one combined line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise Fatal(f"{workload} failed: {proc.stderr.strip()[-300:]}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    return total


def record_digests() -> None:
    """Rewrite digests.json from the current CLI: only for a deliberate output change."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    digests = {}
    for q in queries.make_pass(random.Random(0)):
        if q.fixed and q.exit_code == 0:
            proc = subprocess.run([sys.executable, "-m", "coxkit"] + q.argv(), capture_output=True,
                                  text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT)
            if proc.returncode != 0:
                raise Fatal(f"{q.key} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            digests[q.key] = queries.digest(proc.stdout)
    queries.DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--record-digests", action="store_true",
                   help="rewrite digests.json of the fixed queries from the current CLI and exit")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        if not (ROOT / "src" / "coxkit" / "__init__.py").is_file():
            raise Fatal("no ./src/coxkit to benchmark; run from a checkout of the repository")
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            p.error("--workload is required")
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
