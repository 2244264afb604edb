"""The one-pass machine renderer against the standard library's canonical
JSON, and machine reports under `python -O`."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from report_digests import DIGESTS, REPO

from toriclc.reporting import render_machine

# strings the encoder must escape, or spell in \u form, besides random text
ESCAPES = st.sampled_from(['"', "\\", "\n\r\t\b\f", "\x00\x1f\x7f", " ", "é",
                           "\ud800", "\U0001f600", "</script>", ""])
STRINGS = st.one_of(st.text(), ESCAPES)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), STRINGS)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(STRINGS, children)),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(report=st.dictionaries(STRINGS, VALUES, max_size=4))
def test_render_machine_is_canonical_json(report):
    assert render_machine(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_render_machine_edge_values():
    report = {"b": [True, 1, False, 0, None], "a": {}, "é": [[], (), {"": ""}],
              "t": (1, ("x",)), "big": -(10 ** 30)}
    assert render_machine(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("report", [
    {1: "int key"}, {"a": {None: 1}}, {"x": 1.5}, {"x": [{1, 2}]}, {"x": b"bytes"},
    {"a": 1, 2: "mixed keys"}])
def test_render_machine_rejects_what_reports_never_hold(report):
    with pytest.raises(TypeError):
        render_machine(report)


def test_report_digests_under_optimize():
    # assert statements vanish under -O, so the classification's checks and
    # the box walk must raise explicitly; the reports stay the same, also
    # table2d_a's, whose decode lists three residues on each ray, a socle
    # probe's on the normal route, and pentagon_scored's grd, whose
    # characteristic-variety checks read signatures on the scored route
    argvs = [["grd", "corpus/dim1_4_6_9.toric"],
             ["lc", "corpus/dim2_nonscored.toric", "--socle", "2,4"],
             ["sectors", "perfbench/problems/table2d_a.toric"],
             ["lc", "corpus/dim3_hartshorne.toric", "--socle", "5,10"],
             ["grd", "perfbench/problems/pentagon_scored.toric"]]
    script = (
        "import json, sys\n"
        "from report_digests import digest\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('assert statements are live')\n"
        "print(json.dumps([digest(argv) for argv in json.loads(sys.argv[1])]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), str(REPO / "tests")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script, json.dumps(argvs)],
                          cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert json.loads(proc.stdout) == [[0, recorded[" ".join(argv)]] for argv in argvs]
