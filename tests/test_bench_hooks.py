"""The benchmark's per-layer tracer still sees the hooks it wraps.

perfbench/tracer.py replaces coxkit module attributes by name and counts
the calls that go through them. A refactor that renames such an
attribute, or calls the function some other way than through its module
global, leaves the counter at zero; this test makes that a failure here
rather than a silent zero in a traced benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
from tracer import Tracer

tracer = Tracer()
tracer.install()
from coxkit import corpus, group, parabolic, roots, verify

h3 = corpus.load("h3")
w = group.from_word(h3, (1, 2, 3, 1, 2, 3, 2))
roots.inversion_set(w)
roots.beta_sequence(w)
parabolic.conjugacy_graph(h3)
verify.verify_ball(corpus.load("a2t"), radius=4)
print(json.dumps(tracer.snapshot()["counts"]))
"""


def test_tracer_hooks_are_called():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    for key in (
        "group.descent.calls",
        "group.step.calls",
        "roots.make_root.calls",
        "parabolic.nu.calls",
        "diagram.classify.calls",
        "verify.commutes.calls",
    ):
        assert counts.get(key, 0) > 0, key
