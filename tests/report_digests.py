"""sha256 digests of the machine reports of the corpus jobs.

The jobs are the 11 corpus problems under `analyze`, `sectors`, `lc` and
`grd`, and under `lc --socle 2,4` and `lc --socle 5,10` (66 jobs), plus
fifteen jobs on benchmark problems that the corpus does not reach: the
dim-3 scored route with nonzero conductors (pentagon_scored), also with
a socle probe at a larger radius, the torsion table route (table2d_a), a
table-path class scan out to radius 64 (table2d_b), a 14-face sector inventory (hexagon) and a socle probe on that cone, long
normal scan lines (disk16 sectors), `grd` on a scored dim-3 cone and on
a normal non-simplicial one, maximal ideals with generators off the
rays (hexagon, square5) and the maximal ideals of dim-3 cones with 8
and 12 minimal generator faces (cube, disk16); their input files are
only read.  Each runs in process with
`--format machine` and the problem path relative to the repository root,
which the report echoes.  tests/test_report_digests.py checks the digests recorded in
tests/data/corpus_report_digests.json; after a deliberate change to the
reports, rewrite that file from the root of a checkout with

    PYTHONPATH=src python tests/report_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DIGESTS = REPO / "tests" / "data" / "corpus_report_digests.json"

PROBLEMS = (
    "dim1_2_5", "dim1_3_4_5", "dim1_3_5_7", "dim1_4_6_9", "dim1_cusp",
    "dim1_weyl", "dim2_nonscored", "dim2_normal", "dim2_polynomial",
    "dim2_scored_nonnormal", "dim3_hartshorne",
)
COMMANDS = (
    ("analyze",), ("sectors",), ("lc",), ("grd",),
    ("lc", "--socle", "2,4"), ("lc", "--socle", "5,10"),
)
BENCH_JOBS = (
    ("sectors", "pentagon_scored"),
    ("lc", "pentagon_scored", "--maximal", "--socle", "2,4"),
    ("sectors", "table2d_a"),
    ("lc", "table2d_a", "--maximal", "--socle", "2,4"),
    ("sectors", "hexagon"),
    ("grd", "pentagon_scored"),
    ("grd", "hexagon"),
    ("lc", "hexagon", "--maximal"),
    ("lc", "square5", "--maximal"),
    ("lc", "cube", "--maximal"),
    ("lc", "disk16", "--maximal"),
    ("sectors", "disk16"),
    ("lc", "hexagon", "--socle", "2,3"),
    ("lc", "pentagon_scored", "--maximal", "--socle", "6,12"),
    ("sectors", "table2d_b"),
)


def jobs() -> list:
    """Every job as its argument list, the report format left out."""
    return [
        *([command[0], f"corpus/{name}.toric", *command[1:]]
          for name in PROBLEMS for command in COMMANDS),
        *([command, f"perfbench/problems/{name}.toric", *rest]
          for command, name, *rest in BENCH_JOBS),
    ]


def report(argv) -> tuple:
    """(exit code, machine report) of one in-process run from the
    repository root."""
    from toriclc.cli import run

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run([*argv, "--format", "machine"])
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def digest(argv) -> tuple:
    """(exit code, sha256 of the machine report) of one in-process run
    from the repository root."""
    code, text = report(argv)
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    table = {}
    for argv in jobs():
        code, sha = digest(argv)
        if code != 0:
            print(f"error: {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
        table[" ".join(argv)] = sha
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
