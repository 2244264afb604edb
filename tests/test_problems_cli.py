"""Problem file grammar, CLI subcommands, exit codes, report formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR

from toriclc import cli, cohomology, grading, sectors, semigroups
from toriclc.cli import run
from toriclc.errors import (
    ClassRankMismatch,
    CycleDetected,
    NoInteriorPoint,
    ProblemFormatError,
)
from toriclc.problems import parse_degree_list, parse_problem


GOOD = """
# a comment
matrix:
1 1 1
0 1 2

ideal:
1 1
bound: 77
box: 5
"""


def test_parse_problem():
    prob = parse_problem(GOOD)
    assert prob.matrix_rows == ((1, 1, 1), (0, 1, 2))
    assert prob.ideal == ((1, 1),)
    assert prob.options == {"bound": 77, "box": 5}


def test_parse_maximal_inline():
    prob = parse_problem("matrix:\n2 3\nideal: maximal\n")
    assert prob.ideal == "maximal"


def test_parse_no_ideal():
    prob = parse_problem("matrix:\n2 3\n")
    assert prob.ideal is None


@pytest.mark.parametrize("text,hint", [
    ("ideal:\n1 1\n", "no matrix"),
    ("matrix:\n1 2\n1\n", "ragged"),
    ("matrix:\n1 x\n", "integers"),
    ("matrix:\n2 3\nideal:\n1 1\n", "entries"),
    ("matrix:\n2 3\nfoo: 1\n", "unknown key"),
    ("matrix:\n2 3\nideal:\n", "empty ideal"),
    ("matrix:\n2 3\nmatrix:\n2 3\n", "duplicate"),
    ("matrix:\n2 3\nbound: 5\nbound: 6\n", ":4: duplicate option"),
    ("matrix: 1 2\n", "following lines"),
    ("stray\n", "unexpected"),
])
def test_parse_errors(text, hint):
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(text)
    assert hint.split()[0] in str(err.value)


def test_parse_degree_list():
    assert parse_degree_list("1,1;0,2", 2) == ((1, 1), (0, 2))
    assert parse_degree_list("1 1", 2) == ((1, 1),)
    with pytest.raises(ProblemFormatError):
        parse_degree_list("1,1,1", 2)
    with pytest.raises(ProblemFormatError):
        parse_degree_list("", 2)


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_analyze_human(capsys):
    code, out = _run(capsys, "analyze", str(CORPUS_DIR / "dim1_cusp.toric"))
    assert code == 0
    assert "scored: True" in out and "normal: False" in out


def test_cli_analyze_machine(capsys):
    code, out = _run(capsys, "analyze", str(CORPUS_DIR / "dim1_cusp.toric"),
                     "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "toriclc-report/1"
    assert report["presentation"]["flags"]["scored"] is True
    assert report["presentation"]["facets"][0]["value_semigroup"]["gaps"] == [1]


def test_cli_flag_evidence(capsys):
    _, out = _run(capsys, "analyze", str(CORPUS_DIR / "dim3_hartshorne.toric"),
                  "--format", "machine")
    flags = json.loads(out)["presentation"]["flags"]
    assert flags["evidence"] == {
        "normal": "certified", "scored": "certified", "serre_s2": "certified"}
    _, out = _run(capsys, "analyze", str(CORPUS_DIR / "dim3_hartshorne.toric"))
    assert "normal: True (certified)" in out and "facet-value box" not in out
    _, out = _run(capsys, "analyze", str(CORPUS_DIR / "dim2_nonscored.toric"))
    assert "scored: False (certified)" in out
    assert "\nserre_s2 verified on facet-value box [10, 10]\n" in out


def test_cli_sectors(capsys):
    code, out = _run(capsys, "sectors", str(CORPUS_DIR / "dim2_normal.toric"),
                     "--format", "machine")
    assert code == 0
    report = json.loads(out)
    analysis = report["sector_analysis"]
    assert len(analysis["classes"]) == 4
    empty = [s for s in analysis["sectors"] if not s["nonempty"]]
    assert len(empty) == 1


def test_cli_lc_with_socle(capsys):
    code, out = _run(capsys, "lc", str(CORPUS_DIR / "dim2_polynomial.toric"),
                     "--maximal", "--socle", "3", "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert report["local_cohomology"]["total_length"] == 1
    (probe,) = report["socle"]
    assert probe["counts"] == [[3, 1]]


def test_cli_lc_ideal_flag_overrides(capsys):
    code, out = _run(capsys, "lc", str(CORPUS_DIR / "dim2_normal.toric"),
                     "--ideal", "1,0", "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert report["local_cohomology"]["ideal"]["generator_degrees"] == [[1, 0]]


def test_cli_lc_needs_ideal(tmp_path, capsys):
    path = tmp_path / "noideal.toric"
    path.write_text("matrix:\n2 3\n")
    code, _ = _run(capsys, "lc", str(path))
    assert code == 4


def test_cli_grd(capsys):
    code, out = _run(capsys, "grd", str(CORPUS_DIR / "dim1_cusp.toric"),
                     "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert report["exponent_identities"]["failures"] == []
    assert report["dim1"]["notcm"]["gap_pairs"] == [[0, 1], [1, 0]]
    kinds = {c["kind"]: c for c in report["certificates"]}
    assert kinds["origin_fiber"]["verified"] is True
    assert kinds["char_variety_max"]["verified"] is True


def test_cli_grd_nonsimplicial_reports_rejection(capsys):
    code, out = _run(capsys, "grd", str(CORPUS_DIR / "dim3_hartshorne.toric"),
                     "--format", "machine")
    assert code == 0
    report = json.loads(out)
    kinds = {c["kind"]: c for c in report["certificates"]}
    assert "error" in kinds["origin_fiber"]
    assert kinds["origin_fiber"]["error"].startswith("HypothesisFailed")
    assert kinds["char_variety_max"]["verified"] is True


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.toric"
    bad.write_text("matrix:\n1 x\n")
    code, _ = _run(capsys, "analyze", str(bad))
    assert code == 4


def test_cli_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = _run(capsys, "analyze", str(CORPUS_DIR / "dim1_weyl.toric"),
                     "--format", "machine", "--output", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["command"] == "analyze"


def test_cli_bound_flag_echoed(capsys):
    code, out = _run(capsys, "analyze", str(CORPUS_DIR / "dim1_weyl.toric"),
                     "--bound", "44", "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert report["input"]["options"]["bound"] == 44
    assert report["presentation"]["options"]["search_bound"] == 44


def test_cli_usage_error(capsys):
    assert run(["analyze"]) == 4


def test_cli_lc_maximal_includes_sector_view(capsys):
    code, out = _run(capsys, "lc", str(CORPUS_DIR / "dim2_scored_nonnormal.toric"),
                     "--format", "machine")
    assert code == 0
    report = json.loads(out)
    view = report["sector_cohomology"]
    assert view["length"] >= 1
    top = max(f["id"] for f in report["presentation"]["faces"])
    assert any(
        p["cohomological_degree"] == 2 and p["sector"] == [top]
        for p in view["pieces"]
    )


def test_cli_analyze_unpointed_succeeds(tmp_path, capsys):
    path = tmp_path / "line.toric"
    path.write_text("matrix:\n1 -1\n")
    code, out = _run(capsys, "analyze", str(path), "--format", "machine")
    assert code == 0
    assert json.loads(out)["presentation"]["pointed"] is False


def test_cli_sectors_unpointed_exit_code(tmp_path, capsys):
    path = tmp_path / "line.toric"
    path.write_text("matrix:\n1 -1\n")
    code, _ = _run(capsys, "sectors", str(path))
    assert code == 2


def test_cli_sublattice_exit_code(tmp_path, capsys):
    path = tmp_path / "even.toric"
    path.write_text("matrix:\n2\n")
    code, _ = _run(capsys, "analyze", str(path))
    assert code == 4


@pytest.mark.parametrize("argv,code", [
    (["sectors", "dim2_normal", "--box", "-3"], 4),
    (["sectors", "dim2_normal", "--box", "0"], 4),
    (["sectors", "dim2_normal", "--samples", "0"], 4),
    (["analyze", "dim2_normal", "--bound", "0"], 4),
    (["analyze", "dim2_normal", "--bound", "-5"], 4),
    (["analyze", "dim2_normal", "--margin", "-1"], 4),
    (["analyze", "box_zero_in_file"], 4),
    (["lc", "dim2_normal", "--socle=x"], 4),
    (["lc", "dim2_normal", "--socle=-2"], 4),
    (["lc", "dim2_normal", "--socle="], 4),
    (["lc", "dim2_normal", "--ideal=5,-1"], 4),
    (["lc", "dim2_normal", "--ideal=0,0"], 4),
    (["lc", "dim2_normal", "--ideal="], 4),
    (["analyze", "missing_file"], 4),
    (["analyze", "non_utf8"], 4),
    (["lc", "dim2_normal", "--ideal=1,0", "--maximal"], 4),
    (["grd", "line"], 2),
    (["analyze", "dim2_normal", "--output",
      str(CORPUS_DIR / "no-such-dir" / "report.json")], 4),
    (["analyze", "broken_classify"], 5),
    (["sectors", "broken_class_order"], 5),
    (["lc", "broken_class_ranks"], 5),
    (["grd", "broken_interior_point"], 5),
], ids=["box-negative", "box-zero", "samples-zero", "bound-zero",
        "bound-negative", "margin-negative", "box-zero-in-file", "socle-text",
        "socle-negative", "socle-empty", "ideal-outside", "ideal-unit", "ideal-empty",
        "missing-file", "non-utf8",
        "ideal-and-maximal",
        "grd-not-pointed", "output-missing-dir", "invariant-assertion",
        "invariant-cycle", "invariant-rank-mismatch", "invariant-interior-point"])
def test_cli_exit_code_contract(tmp_path, capsys, monkeypatch, argv, code):
    """Bad input gives its documented exit code and a one-line error; a
    broken internal invariant (simulated by a patched stage) exits 5."""
    def fail(exc):
        def raiser(*args, **kwargs):
            raise exc
        return raiser

    broken = {
        "broken_classify": (semigroups, "_classify",
                            AssertionError("flags violate scored => Serre-S2")),
        "broken_class_order": (sectors, "class_poset", CycleDetected("cycle")),
        "broken_class_ranks": (cohomology, "assemble_module",
                               ClassRankMismatch("ranks differ")),
        "broken_interior_point": (grading, "verify_exponent_identities",
                                  NoInteriorPoint("no interior degree")),
    }
    if argv[1] in broken:
        module, name, exc = broken[argv[1]]
        monkeypatch.setattr(module, name, fail(exc))
        argv = [argv[0], "dim2_normal", *argv[2:]]
    problems = {
        "dim2_normal": CORPUS_DIR / "dim2_normal.toric",
        "box_zero_in_file": tmp_path / "box0.toric",
        "missing_file": tmp_path / "missing.toric",
        "non_utf8": tmp_path / "latin1.toric",
        "line": tmp_path / "line.toric",
    }
    problems["box_zero_in_file"].write_text("matrix:\n2 3\nbox: 0\n")
    problems["line"].write_text("matrix:\n1 -1\n")
    problems["non_utf8"].write_bytes(b"matrix:\n2 3\n# \xff\n")
    command, name, *flags = argv
    assert run([command, str(problems[name]), *flags]) == code
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    assert (code == 5) == errors[0].startswith("error: internal invariant failed: ")


def test_cli_parser_reused_across_runs(capsys):
    # one parser serves runs with different subcommands and options, usage
    # errors included, and each run reports as it does on a fresh parser
    corpus = str(CORPUS_DIR)
    runs = [
        ["analyze", f"{corpus}/dim2_normal.toric", "--format", "machine"],
        ["lc", f"{corpus}/dim3_hartshorne.toric", "--socle", "2,4", "--format", "machine"],
        ["sectors", f"{corpus}/dim1_cusp.toric", "--box", "3", "--samples", "2"],
        ["lc", f"{corpus}/dim2_normal.toric", "--ideal=1,0", "--maximal"],
        ["nosuchcommand"],
        ["lc", f"{corpus}/dim2_polynomial.toric", "--maximal", "--format", "machine"],
        ["grd", f"{corpus}/dim1_cusp.toric"],
        ["analyze", f"{corpus}/dim2_normal.toric", "--format", "machine"],
    ]

    def outcome(argv):
        code = run(argv)
        captured = capsys.readouterr()
        # the last stderr line reports the wall time
        err = [line for line in captured.err.splitlines() if "completed in" not in line]
        return code, captured.out, err

    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    cli._build_parser.cache_clear()
    assert [outcome(argv) for argv in runs] == fresh
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [0, 0, 0, 4, 4, 0, 0, 0]


_rarely = st.sampled_from([False] * 3 + [True])


@st.composite
def _problem_text(draw):
    """A problem file: 1-2 matrix rows of at most 4 entries in [-3, 3], an
    optional ideal and options; some get a malformed line or an option
    below its floor, and some are arbitrary text."""
    if draw(_rarely) and draw(_rarely):
        return draw(st.text(max_size=30))
    rows = draw(st.integers(1, 2))
    cols = draw(st.integers(1, 4))
    matrix = [[draw(st.integers(-3, 3)) for _ in range(cols)] for _ in range(rows)]
    lines = ["matrix:"] + [" ".join(map(str, row)) for row in matrix]
    ideal = draw(st.sampled_from(["none", "maximal", "degrees"]))
    if ideal == "maximal":
        lines.append("ideal: maximal")
    elif ideal == "degrees":
        lines.append("ideal:")
        lines.append(" ".join(str(draw(st.integers(0, 3))) for _ in range(rows)))
    for key in draw(st.lists(st.sampled_from(["bound", "box", "samples", "margin"]),
                             max_size=2, unique=True)):
        lines.append(f"{key}: {draw(st.integers(-1, 3) if draw(_rarely) else st.integers(1, 3))}")
    if draw(_rarely):
        garble = draw(st.sampled_from(["x", "1 2 3 4 5", ":", "ideal:", "", "matrix:"]))
        lines.insert(draw(st.integers(0, len(lines))), garble)
    return "\n".join(lines) + "\n"


@st.composite
def _cli_args(draw):
    """A subcommand with options; some get a malformed or clashing flag."""
    command = draw(st.sampled_from(["analyze", "sectors", "lc", "grd"]))
    flags = []
    for key in draw(st.lists(st.sampled_from(["--bound", "--box", "--samples", "--margin"]),
                             max_size=2, unique=True)):
        flags += [key, str(draw(st.integers(1, 3)))]
    if command == "lc":
        flags += draw(st.sampled_from([[], ["--maximal"], ["--ideal", "1,1"], ["--ideal", "1"]]))
        flags += draw(st.sampled_from([[], ["--socle", "1,2"], ["--socle", "2"]]))
    flags += draw(st.sampled_from([[], ["--format", "machine"]]))
    if draw(_rarely):
        flags += draw(st.sampled_from([
            ["--format", "xml"], ["--box", "-1"], ["--margin", "x"], ["--socle", "a"],
            ["--socle", "-1"], ["--ideal", "x"], ["--maximal", "--ideal", "1"], ["--nosuch"]]))
    if draw(_rarely) and draw(_rarely):
        command = "nosuch"
    return command, flags


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_problem_text(), args=_cli_args())
# one valid run per subcommand, on the table path and on both fast paths
@example(text="matrix:\n2 0 1 1\n0 2 1 2\n", args=("sectors", []))
@example(text="matrix:\n-2 -3\n", args=("grd", ["--format", "machine"]))
@example(text="matrix:\n1 1 1\n0 1 3\nideal: maximal\n", args=("lc", ["--socle", "1,2"]))
@example(text="matrix:\n1 1 1\n0 1 2\n", args=("analyze", ["--margin", "1"]))
def test_cli_contract_on_random_problems(tmp_path, text, args):
    """Every input ends in a documented exit code; no exception escapes."""
    path = tmp_path / "fuzz.toric"
    path.write_text(text, encoding="utf-8")
    command, flags = args
    assert run([command, str(path), *flags]) in {0, 2, 3, 4, 5}


@pytest.mark.parametrize("argv, code", [
    (["analyze", str(CORPUS_DIR / "dim1_2_5.toric"), "--format", "machine"], 0),
    (["analyze", str(CORPUS_DIR / "no_such_problem.toric")], 4),
], ids=["ok", "missing-file"])
def test_python_dash_m_runs_the_cli(argv, code):
    # `python -m toriclc` is the `toriclc` script: same exit code, same report
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "toriclc", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert json.loads(proc.stdout)["command"] == "analyze"
    else:
        assert proc.stderr.startswith("error: ")
