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

import pytest

ROOT = Path(__file__).resolve().parent.parent

PRELUDE = """
import json
from tracer import Tracer

tracer = Tracer()
tracer.install()
from coxkit import corpus, group, parabolic, roots, verify
"""

SCRIPT = PRELUDE + """
h3 = corpus.load("h3")
w = group.from_word(h3, (1, 2, 3, 1, 2, 3, 2))
roots.inversion_set(w)
roots.beta_sequence(w)
parabolic.conjugacy_graph(h3)
verify.verify_ball(corpus.load("a2t"), radius=4)
print(json.dumps(tracer.snapshot()["counts"]))
"""

SWEEP_SCRIPT = PRELUDE + """
report = verify.verify_ball(corpus.load("{name}"), radius={radius})
counts = tracer.snapshot()["counts"]
counts["ball_size"] = report.ball_size
counts["entries"] = len(report.entries)
print(json.dumps(counts))
"""


def _traced_counts(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_hooks_are_called():
    counts = _traced_counts(SCRIPT)
    for key in (
        "group.descent.calls",
        "group.step.calls",
        "roots.make_root.calls",
        "parabolic.nu.calls",
        "parabolic.longest.calls",
        "diagram.classify.calls",
        "verify.commutes.calls",
    ):
        assert counts.get(key, 0) > 0, key


def test_sign_hooks_count_a_refining_classify():
    # the Gram pivots of h4 are mixed in Q(theta), and a fresh process
    # decides them from the coarse isolation of theta, so it must refine:
    # both field counters see work, through FieldElement._compute_sign
    # and Field._bisect_once
    counts = _traced_counts(PRELUDE + """
from coxkit import diagram
diagram.classify(corpus.load("h4"))
print(json.dumps(tracer.snapshot()["counts"]))
""")
    assert counts.get("field.sign.computed", 0) > 0
    assert counts.get("field.bisect.calls", 0) > 0


def test_ball_sweep_forms_no_product_per_element():
    # the join (d4t) and the meet (tri334) walk a parabolic, coset
    # representatives or a half ball, not the ball: fewer generator steps
    # and products than the ball has elements, and one commutation test
    # per centralizing element found
    for name, radius in (("d4t", 10), ("tri334", 16), ("a2t", 4)):
        counts = _traced_counts(SWEEP_SCRIPT.format(name=name, radius=radius))
        size = counts["ball_size"]
        assert counts["verify.commutes.calls"] == counts["entries"], name
        assert counts.get("group.step.calls", 0) < size, name
        assert counts.get("group.multiply.calls", 0) < size, name


@pytest.mark.parametrize("name,radius", [("a2t", 4), ("tri334", 6)])
def test_ball_sweep_does_no_field_arithmetic_per_element(name, radius):
    # generator steps and commutation tests run on integer keys; the
    # field multiplications left are set-up (the Gram matrix, the
    # definiteness tests), far fewer than the ball's elements
    counts = _traced_counts(SWEEP_SCRIPT.format(name=name, radius=radius))
    assert counts["verify.commutes.calls"] == counts["entries"]
    assert counts.get("field.mul.calls", 0) < counts["ball_size"]


FIELD_FREE_SCRIPTS = {
    "b4-hurwitz": """
from coxkit import cli, refl
b4 = corpus.load("b4")
factors = tuple(cli._reflection_from_word(b4, (s,)) for s in (1, 2, 3, 4))
product = group.from_word(b4, (1, 2, 3, 4))
refl.hurwitz_orbit(refl.ReflectionFactorization(factors, product))
""",
    "f4-redt": """
from coxkit import refl
f4 = corpus.load("f4")
refl.reduced_factorizations(f4, group.coxeter_element(f4))
""",
    "h4-conj-graph": """
parabolic.conjugacy_graph(corpus.load("h4"))
""",
    "tri334-outward": """
roots.outward_representatives(group.coxeter_element(corpus.load("tri334")))
""",
}


@pytest.mark.parametrize("name", sorted(FIELD_FREE_SCRIPTS))
def test_root_layers_do_no_field_arithmetic(name):
    # roots are key columns: acting on them, reflecting through them,
    # eliminating them and pairing them are integer operations, so the
    # field arithmetic left is set-up (the Gram matrix, the step
    # operators, a handful of views for sorting and printing). Computing
    # on FieldElement coordinates took 919 to 32,213 multiplications here.
    script = PRELUDE + FIELD_FREE_SCRIPTS[name] + """
print(json.dumps(tracer.snapshot()["counts"]))
"""
    counts = _traced_counts(script)
    assert counts.get("field.mul.calls", 0) < 200
    assert counts.get("field.add.calls", 0) < 200
