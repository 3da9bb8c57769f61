"""CLI contract tests: golden outputs and the exit-code matrix.

Golden strings are frozen byte-for-byte; any drift in word order,
formatting, or enumeration order is a regression, not a cosmetic
change.
"""

import errno
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from coxkit import cli
from coxkit.cli import main


def dpath(name: str) -> str:
    return str(resources.files("coxkit.data") / f"{name}.cox")


def run(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- golden

@pytest.mark.parametrize(
    "name,expected",
    [("a2", "finite\n"), ("a2t", "affine\n"), ("tri334", "indefinite\n")],
)
def test_classify_golden(capsys, name, expected):
    code, out, err = run(capsys, "classify", "--diagram", dpath(name))
    assert code == 0 and err == ""
    assert out == expected


def test_length_golden(capsys):
    code, out, _ = run(capsys, "length", "1", "2", "1", "2", "--diagram", dpath("a2"))
    assert code == 0
    assert out == "length: 2\ncanonical: 2 1\n"


def test_inversions_golden(capsys):
    code, out, _ = run(capsys, "inversions", "1", "2", "--diagram", dpath("a2"))
    assert code == 0
    assert out == "(1, 1)\n(0, 1)\ncount: 2\n"


def test_betas_golden(capsys):
    code, out, _ = run(capsys, "betas", "1", "2", "--diagram", dpath("a2"))
    assert code == 0
    assert out == "(1, 0)\n(1, 1)\ncount: 2\n"


def test_coxeter_verify_finite_golden(capsys):
    code, out, _ = run(capsys, "coxeter-verify", "--diagram", dpath("a2"))
    assert code == 0
    assert out == (
        "c = 1 2\n"
        "mode finite-exhaustive group-order=6 coxeter-order=3\n"
        "g=e k=0 status=ok\n"
        "g=1 2 k=1 status=ok\n"
        "g=2 1 k=2 status=ok\n"
        "finite-exhaustive: |C|=3=|<c>| OK\n"
    )


def test_coxeter_verify_ball_golden(capsys):
    code, out, _ = run(
        capsys, "coxeter-verify", "--diagram", dpath("a1t"), "--radius", "4"
    )
    assert code == 0
    assert out == (
        "c = 1 2\n"
        "mode ball radius=4 power-bound=3 ball-size=9\n"
        "g=e k=0 status=ok\n"
        "g=1 2 k=1 status=ok\n"
        "g=2 1 k=-1 status=ok\n"
        "g=1 2 1 2 k=2 status=ok\n"
        "g=2 1 2 1 k=-2 status=ok\n"
        "ball: radius=4 powers=3 |C|=5 OK\n"
    )


def test_straight_golden(capsys):
    code, out, _ = run(
        capsys, "straight", "1", "2", "--max", "5", "--diagram", dpath("a1t")
    )
    assert code == 0 and out == "straight up to 5: yes\n"
    code, out, _ = run(
        capsys, "straight", "1", "2", "--max", "5", "--diagram", dpath("a2")
    )
    assert code == 0 and out == "straight up to 5: no\n"


def test_outward_golden(capsys):
    code, out, _ = run(capsys, "outward", "--diagram", dpath("a1t"))
    assert code == 0
    assert out == "(1, 0)\n(2, 1)\ncount: 2\n"


def test_hurwitz_golden(capsys):
    code, out, _ = run(capsys, "hurwitz", "1; 2", "--diagram", dpath("a2"))
    assert code == 0
    assert out == "1; 2\n1 2 1; 1\n2; 1 2 1\norbit-size: 3\n"


def test_redt_golden(capsys):
    code, out, _ = run(capsys, "redt", "1", "2", "--diagram", dpath("a2"))
    assert code == 0
    assert out == (
        "reflection-length: 2\n"
        "2; 1 2 1\n"
        "1; 2\n"
        "1 2 1; 1\n"
        "count: 3\n"
    )


# The goldens above use a2 and a1t, where Q(theta) and the working ring
# Z[theta'] coincide. These print roots and orders that pass through the
# embedding of Z[theta'] into Q(theta): the redt order is the order of
# the positive roots by Q(theta) coordinates.

def test_redt_golden_b3(capsys):
    code, out, _ = run(capsys, "redt", "1", "2", "3", "--diagram", dpath("b3"))
    assert code == 0
    assert out == (
        "reflection-length: 3\n"
        "1 2 3 2 1; 2; 1 2 1\n"
        "1 2 3 2 1; 1; 2\n"
        "1 2 3 2 1; 1 2 1; 1\n"
        "2 3 2; 2; 3 1 2 3 1\n"
        "2 3 2; 3 1 2 3 1; 2 3 1 2 3 1 2\n"
        "2 3 2; 2 3 1 2 3 1 2; 2\n"
        "3; 3 2 3; 3 1 2 3 1\n"
        "3; 1; 3 2 3\n"
        "3; 3 1 2 3 1; 1\n"
        "3 2 3; 2 3 2; 3 1 2 3 1\n"
        "3 2 3; 3 1 2 3 1; 2 3 2\n"
        "2; 1 2 3 2 1; 1 2 1\n"
        "2; 3; 3 1 2 3 1\n"
        "2; 3 1 2 3 1; 1 2 3 2 1\n"
        "2; 1 2 1; 3\n"
        "1; 2 3 2; 2\n"
        "1; 3; 3 2 3\n"
        "1; 3 2 3; 2 3 2\n"
        "1; 2; 3\n"
        "3 1 2 3 1; 1 2 3 2 1; 1\n"
        "3 1 2 3 1; 2 3 2; 2 3 1 2 3 1 2\n"
        "3 1 2 3 1; 1; 2 3 2\n"
        "3 1 2 3 1; 2 3 1 2 3 1 2; 1 2 3 2 1\n"
        "1 2 1; 3; 1\n"
        "1 2 1; 1; 3\n"
        "2 3 1 2 3 1 2; 1 2 3 2 1; 2\n"
        "2 3 1 2 3 1 2; 2; 1 2 3 2 1\n"
        "count: 27\n"
    )


def test_inversions_golden_h3(capsys):
    code, out, _ = run(capsys, "inversions", "1", "2", "3", "--diagram", dpath("h3"))
    assert code == 0
    assert out == (
        "(1, [-2,0,9,0,-6,0,1,0], [-2,0,9,0,-6,0,1,0])\n"
        "(0, 1, 1)\n"
        "(0, 0, 1)\n"
        "count: 3\n"
    )


def test_outward_golden_tri334(capsys):
    code, out, _ = run(capsys, "outward", "--diagram", dpath("tri334"))
    assert code == 0
    assert out == (
        "(1, 0, 0)\n"
        "(1, 1, 0)\n"
        "([1,-3,0,1], [0,-3,0,1], 1)\n"
        "count: 3\n"
    )


def test_conj_graph_golden(capsys):
    code, out, _ = run(capsys, "conj-graph", "--diagram", dpath("a2"))
    assert code == 0
    assert out == (
        "{} -1-> {} : 1\n"
        "{} -2-> {} : 2\n"
        "{1} -2-> {2} : 2 1\n"
        "{2} -1-> {1} : 1 2\n"
        "components: 3\n"
    )


def test_conj_golden(capsys):
    code, out, _ = run(
        capsys, "conj", "{1,2}", "{2,3}", "--diagram", dpath("a3")
    )
    assert code == 0 and out == "conjugate: 3 2 1\n"
    code, out, _ = run(
        capsys, "conj", "{1,3}", "{1,2}", "--diagram", dpath("a3")
    )
    assert code == 0 and out == "not conjugate (different components)\n"
    code, out, _ = run(
        capsys, "conj", "{1,2,3,4}", "{1,2,3,5}", "--diagram", dpath("d4t")
    )
    assert code == 0 and out == "not conjugate (isolated vertices)\n"


def test_normalizer_golden(capsys):
    code, out, _ = run(capsys, "normalizer", "{1,3}", "--diagram", dpath("a3"))
    assert code == 0
    assert out == "1\n3\n2 3 1 2\ncount: 3\n"


def test_closure_golden(capsys):
    code, out, _ = run(capsys, "closure", "2", "1", "2", "--diagram", dpath("a3"))
    assert code == 0
    assert out == "order: 2\nstandard: {1}\nconjugator: 2\n"


def test_example_golden(capsys):
    code, out, _ = run(capsys, "example-d4tilde")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[-1] == "example: OK"
    assert lines[0].startswith("clause (a): |W'|=192")
    assert all(line.endswith("OK") for line in lines[:-1])


def test_output_identical_across_runs_and_threads(capsys):
    runs = []
    for threads in ("1", "1", "4"):
        code, out, err = run(
            capsys,
            "conj-graph",
            "--diagram",
            dpath("a3"),
            "--threads",
            threads,
        )
        assert code == 0 and err == ""
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------- exit-code matrix

def test_exit_input_errors(capsys, tmp_path):
    assert run(capsys, "bogus-command")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "classify")[0] == 1  # missing --diagram
    assert run(capsys, "classify", "--nope", "--diagram", dpath("a2"))[0] == 1
    assert run(capsys, "classify", "--diagram", str(tmp_path / "absent.cox"))[0] == 1
    bad = tmp_path / "bad.cox"
    bad.write_text("rank x\n")
    code, _, err = run(capsys, "classify", "--diagram", str(bad))
    assert code == 1
    assert err.startswith("error: line 1")
    assert run(capsys, "length", "7", "--diagram", dpath("a2"))[0] == 1
    assert run(capsys, "length", "zz", "--diagram", dpath("a2"))[0] == 1
    assert run(capsys, "normalizer", "{}", "--diagram", dpath("a2"))[0] == 1
    assert run(capsys, "normalizer", "{9}", "--diagram", dpath("a2"))[0] == 1
    assert (
        run(capsys, "classify", "--threads", "0", "--diagram", dpath("a2"))[0] == 1
    )
    assert run(capsys, "hurwitz", "1; 2 1", "--diagram", dpath("a2"))[0] == 1
    assert run(capsys, "outward", "--diagram", dpath("a2"))[0] == 1
    assert run(capsys, "closure", "1", "--diagram", dpath("a1t"))[0] == 1
    assert run(capsys, "redt", "1", "--diagram", dpath("a1t"))[0] == 1
    reducible = tmp_path / "red.cox"
    reducible.write_text("rank 2\n")
    assert run(capsys, "coxeter-verify", "--diagram", str(reducible))[0] == 1


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_an_unreadable_diagram_is_an_input_error(capsys, tmp_path, kind):
    # the line names the path and the reason the system gives, and
    # nothing goes to stdout
    path, code = {"missing": (tmp_path / "absent.cox", errno.ENOENT),
                  "directory": (tmp_path, errno.EISDIR)}[kind]
    reason = f"[Errno {code}] {os.strerror(code)}: {str(path)!r}"
    assert run(capsys, "classify", "--diagram", str(path)) == (
        1, "", f"error: cannot read diagram file: {reason}\n"
    )


def test_exit_vacuous_windows_and_caps_rejected(capsys):
    for orbits in ("-1", "0"):
        code, out, err = run(capsys, "outward", "--orbits", orbits, "--diagram", dpath("a2t"))
        assert (code, out) == (1, "")
        assert err.startswith("error:")
    for factors in ("1", "1; 2"):
        code, out, err = run(capsys, "hurwitz", factors, "--cap", "0", "--diagram", dpath("a2"))
        assert (code, out) == (1, "")
        assert err.startswith("error:")
    for powers in ("0", "-5"):
        code, out, err = run(capsys, "coxeter-verify", "--powers", powers, "--diagram", dpath("a2t"))
        assert (code, out) == (1, "")
        assert err.startswith("error:")
    for flag, value in (("--powers", "0"), ("--radius", "-3")):
        code, out, err = run(capsys, "coxeter-verify", flag, value, "--diagram", dpath("a2"))
        assert (code, out) == (1, "")
        assert err.startswith("error:")


def test_exit_inconclusive_on_out_of_memory(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._DISPATCH, "classify", exhausted)
    code, out, err = run(capsys, "classify", "--diagram", dpath("a2"))
    assert (code, out, err) == (2, "", "inconclusive: out of memory\n")


def test_exit_inconclusive_on_cap(capsys):
    code, out, err = run(
        capsys, "hurwitz", "1; 2", "--cap", "1", "--diagram", dpath("a2")
    )
    assert code == 2
    assert err.startswith("inconclusive:")


# the positional arguments each subcommand takes on the trivial group
_RANK_ZERO_ARGS = {"conj": ["{}", "{}"], "normalizer": ["{}"], "hurwitz": ["e"]}


@pytest.fixture
def rank_zero(tmp_path):
    path = tmp_path / "rank0.cox"
    path.write_text("rank 0\n")
    return str(path)


def test_rank_zero_golden(capsys, rank_zero):
    for argv, expected in (
        (["straight", "e"], "straight up to 10: yes\n"),
        (["closure", "e"], "order: 1\nstandard: {}\nconjugator: e\n"),
        (["outward"], "count: 0\n"),
    ):
        assert run(capsys, *argv, "--diagram", rank_zero) == (0, expected, "")


@pytest.mark.parametrize("command", list(cli._DISPATCH))
def test_rank_zero_every_subcommand_answers(capsys, rank_zero, command):
    # an exception would escape main and fail the test
    args = ["e"] if command in cli._WORD_COMMANDS else _RANK_ZERO_ARGS.get(command, [])
    code, _, err = run(capsys, command, *args, "--diagram", rank_zero)
    assert code in (0, 1)
    assert "Traceback" not in err


def test_error_stream_separation(capsys):
    code, out, err = run(capsys, "classify")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


# ----------------------------------------------------------------- subprocess

def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "coxkit", "classify", "--diagram", dpath("a2")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "finite\n"


def test_cli_import_leaves_out_slow_modules():
    # start-up cost of every query: dataclasses pulls in inspect and runs
    # exec per class, and importlib.resources is needed only by the corpus
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, coxkit.cli; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "coxkit.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "importlib.resources"}


def test_cli_import_leaves_out_typing():
    # annotations are never evaluated, so collections.abc, already loaded
    # on the import path, supplies the names
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import coxkit.cli, sys; assert 'typing' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


_QUERIES_WITHOUT_FRACTIONS = """
import io, sys
from contextlib import redirect_stdout
sys.path.insert(0, {src!r})
from coxkit import cli
for argv in (["classify"], ["length", "1", "2", "3"], ["inversions", "1", "2", "3"],
             ["conj-graph"], ["coxeter-verify"]):
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--diagram", {diagram!r}]) == 0, argv
from coxkit import field
assert hash(field.create(5).from_rational(-3)) == -3
print(*sorted({{"fractions", "decimal", "pathlib"}} & set(sys.modules)))
"""


def test_cli_queries_leave_out_fractions():
    # the field prints, compares and hashes its rationals through
    # integers, so no query imports fractions (with decimal and numbers
    # behind it), and the CLI opens its diagram without pathlib; -S
    # keeps the modules a site would preload out of the picture
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = _QUERIES_WITHOUT_FRACTIONS.format(src=src, diagram=dpath("h3"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


@pytest.mark.parametrize(
    "demo", ["01_classify", "02_centralizers", "03_hurwitz", "04_parabolic", "05_affine_d4"]
)
def test_demo_runs(demo):
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "demos" / f"{demo}.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of main(argv), --help's exit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_built_for_one_command_answers_as_the_full_build(capsys, monkeypatch):
    # main builds only the parser of the command argv names; its help,
    # usage and errors must be those of the parser with every command
    commands = list(cli._DISPATCH)
    cases = [[], ["--help"], ["-h"], ["nosuch"], ["nosuch", "--help"], ["--threads", "2"]]
    for name in commands:
        cases += [
            [name, "--help"], [name], [name, "--bogus"], [name, "--diagram"],
            [name, "--threads", "x"], [name, "1", "2", "--diagram", dpath("a2"), "--max", "y"],
        ]
    lazy = [_outcome(capsys, argv) for argv in cases]
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full())
    assert [_outcome(capsys, argv) for argv in cases] == lazy
    # the full build lists every command, the built-for-one only its own
    assert set(full()._subparsers._group_actions[0].choices) == set(commands)
    assert list(full("conj")._subparsers._group_actions[0].choices) == ["conj"]
    assert any("usage: coxkit" in out for _, out, _ in lazy)
