"""Workload definitions and seeded input generation for the toriclc benchmark.

A job is one command-line invocation: a problem file, a subcommand and its
extra arguments.  The seed permutes the column order of every problem
matrix (the semigroup, hence every seed-invariant answer, is unchanged) and
shuffles the job order of each pass.  The program under test only sees the
generated problem text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

STRESS = "perfbench/problems"

CORPUS = (
    "dim1_2_5", "dim1_3_4_5", "dim1_3_5_7", "dim1_4_6_9", "dim1_cusp",
    "dim1_weyl", "dim2_nonscored", "dim2_normal", "dim2_polynomial",
    "dim2_scored_nonnormal", "dim3_hartshorne",
)


@dataclass(frozen=True)
class Job:
    problem: str          # path relative to the checkout root
    command: str          # analyze | sectors | lc | grd
    args: tuple = ()
    smoke: bool = False   # part of the tiny self-test subset

    @property
    def key(self) -> str:
        return " ".join((self.problem, self.command) + self.args)


def _corpus_jobs():
    return tuple(
        Job(f"corpus/{name}.toric", command, smoke=name == "dim1_2_5")
        for name in CORPUS
        for command in ("analyze", "sectors", "lc", "grd")
    )


def _corpus_socle_jobs():
    return tuple(
        Job(f"corpus/{name}.toric", "lc", ("--socle", radii),
            smoke=name == "dim2_normal" and radii == "2,4")
        for name in CORPUS
        for radii in ("2,4", "5,10")
    )


# Why each workload exists, and which layer it loads, is recorded in
# BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    # 44 jobs of a few milliseconds each: fixed per-job costs (parse, build,
    # report, render, grading) dominate; scan and Cech work is light.
    "corpus": _corpus_jobs(),
    # cone geometry and classification only: face lattice, incidence signs,
    # box classification.  Run by hand only: BENCHMARK.json leaves it out,
    # because its 5-9 s jobs follow the machine's minute-long slow phases
    # too closely for the timed runs' bounds.
    "geometry": (
        Job(f"{STRESS}/disk26.toric", "analyze"),
        Job(f"{STRESS}/disk16.toric", "analyze"),
        Job(f"{STRESS}/cube.toric", "analyze"),
        Job(f"{STRESS}/hexagon.toric", "analyze", smoke=True),
    ),
    # class scans: degree signatures over large boxes on every fast path
    # (scored, normal, table).  Run by hand only: BENCHMARK.json leaves it
    # out, because its 15-18 s passes do not fit the timed runs' budget.
    "classes": (
        Job(f"{STRESS}/pentagon_scored.toric", "sectors"),
        Job(f"{STRESS}/hexagon.toric", "sectors"),
        Job(f"{STRESS}/table2d_a.toric", "sectors", smoke=True),
        Job(f"{STRESS}/table2d_b.toric", "sectors"),
    ),
    # 22 lc jobs with socle probes at small radii, 4 ms to 1 s each, with 1
    # to 5 ideal generators: class enumeration, socle probes, Cech slices
    # and their HNF ranks.
    "corpus_socle": _corpus_socle_jobs(),
    # socle probes: sparse membership through cached Cech slices, with 2 to
    # 7 ideal generators (2^t subsets per slice).  Run by hand only, for the
    # same reason as geometry: its jobs take 1-4 s each.
    "socle": (
        Job("corpus/dim3_hartshorne.toric", "lc", ("--socle", "5,10,20")),
        Job("corpus/dim2_nonscored.toric", "lc", ("--socle", "5,10,20"), smoke=True),
        Job(f"{STRESS}/square5.toric", "lc", ("--socle", "4,8")),
        Job(f"{STRESS}/hexagon.toric", "lc", ("--socle", "2,3")),
    ),
}


def permute_columns(text: str, rng: random.Random) -> str:
    """Return the problem text with the matrix columns in a random order.

    Only the rows of the `matrix:` section change; comments are dropped so
    the generated file carries nothing but the problem.
    """
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    lines = [line for line in lines if line]
    start = lines.index("matrix:") + 1
    end = start
    while end < len(lines) and ":" not in lines[end]:
        end += 1
    rows = [line.split() for line in lines[start:end]]
    order = list(range(len(rows[0])))
    rng.shuffle(order)
    lines[start:end] = [" ".join(row[i] for i in order) for row in rows]
    return "\n".join(lines) + "\n"


def write_inputs(root: Path, jobs, seed: int, workdir: Path) -> dict:
    """Write one seeded copy of every distinct problem; map problem -> path.

    Each problem's permutation depends only on the seed and the problem, so
    a problem shared by two workloads gets the same columns in both.
    """
    paths = {}
    for problem in sorted({job.problem for job in jobs}):
        rng = random.Random(f"{seed}:{problem}")
        text = permute_columns((root / problem).read_text(encoding="utf-8"), rng)
        path = workdir / problem.replace("/", "__")
        path.write_text(text, encoding="utf-8")
        paths[problem] = path
    return paths


def pass_orders(jobs, seed: int):
    """Yield the job order of each successive pass."""
    rng = random.Random(seed)
    while True:
        order = list(jobs)
        rng.shuffle(order)
        yield order
