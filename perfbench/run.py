"""Closed-loop benchmark of the toriclc command line.

One client in one thread: a job (one in-process `toriclc.cli.run` call with
`--format machine`, which parses the problem and builds a fresh
presentation, as a command-line user pays for it) starts only after the
previous one has finished.  Every job's report is checked against answers
recorded in perfbench/references.json, and for maximal-ideal `lc` jobs the
Cech lengths are checked against the Ishida lengths of the same report.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 50 --trace 0

A run repeats passes over the workload's jobs until --seconds have passed
and every job has run at least twice; it may stop inside a pass.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run makes one untraced and one traced pass and reports the
per-layer metrics, and the spans go to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPS = 5
MIN_PASSES = 2         # so that each job is timed by the fastest of two runs or more
SETUP_BUDGET_S = 8.0   # no further set-up once the set-ups made took this long
TAIL_BEYOND = 10       # jobs that must lie above the tail percentile


def load_cli():
    """Import toriclc.cli from this checkout's sources, never from elsewhere."""
    if not (SRC / "toriclc" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        raise SystemExit(f"error: {ROOT} holds no toriclc sources and corpus")
    sys.path.insert(0, str(SRC))
    import toriclc.cli

    if Path(toriclc.cli.__file__).resolve().parent != SRC / "toriclc":
        raise SystemExit(f"error: imported toriclc from {toriclc.cli.__file__}")
    return toriclc.cli


def load_references() -> dict:
    return json.loads((HERE / "references.json").read_text(encoding="utf-8"))


# -- jobs ---------------------------------------------------------------------


def check(code: int, text: str, stderr: str, reference):
    """None when the job's report is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}: {stderr.strip().splitlines()[:1]}"
    try:
        report = json.loads(text)
        got = answers.extract(report)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
    if reference is None:
        return "no reference answer recorded"
    if got != reference:
        return "answers differ from the reference"
    if not answers.cech_matches_ishida(report):
        return "Cech lengths disagree with Ishida lengths"
    return None


def execute(cli, job: wl.Job, path: Path):
    """Run one job in process; return (wall seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    argv = [job.command, str(path), *job.args, "--format", "machine"]
    started = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return perf_counter() - started, code, out.getvalue(), err.getvalue()


def run_job(cli, job: wl.Job, path: Path, reference):
    """Run one job; return (wall seconds, failure reason or None)."""
    started = perf_counter()
    try:
        seconds, code, out, err = execute(cli, job, path)
    except Exception as exc:  # a job that raises is a failed job
        return perf_counter() - started, f"raised {type(exc).__name__}: {exc}"
    return seconds, check(code, out, err, reference)


def run_passes(cli, jobs, paths, references, seed, seconds, min_passes,
               tracer=None):
    """Run the jobs pass after pass until `seconds` have passed and every
    job has run at least `min_passes` times.  The run may stop inside a
    pass, so it overshoots `seconds` by one job at most.

    Returns ({job key: wall seconds per run of the job}, failure
    descriptions)."""
    samples, failures = {job.key: [] for job in jobs}, []
    started = perf_counter()
    for passes, order in enumerate(wl.pass_orders(jobs, seed), start=1):
        for job in order:
            if tracer is not None:
                tracer.job = f"{passes}:{job.key}"
            elapsed, error = run_job(cli, job, paths[job.problem],
                                     references.get(job.key))
            samples[job.key].append(elapsed)
            if error is not None:
                failures.append(f"{job.key}: {error}")
            if (perf_counter() - started >= seconds
                    and min(map(len, samples.values())) >= min_passes):
                return samples, failures


def measure_setup(paths: dict):
    """Median seconds, over fresh processes, until every problem has a built
    presentation; and the number of set-ups made."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           *(str(p) for p in paths.values())]
    reps = []
    while len(reps) < SETUP_REPS and sum(reps) < SETUP_BUDGET_S:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150, check=True)
        reps.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(reps), len(reps)


# -- metrics ------------------------------------------------------------------


def tail_rank(n: int) -> int:
    """Nearest rank (1-based) of the highest percentile that leaves
    TAIL_BEYOND of n values above it.  With fewer than 4 * TAIL_BEYOND + 1
    values a quarter of them stays above it instead, and the maximum is used
    when that is less than one."""
    return n - min(TAIL_BEYOND, (n - 1) // 4)


def tail(values) -> float:
    return sorted(values)[tail_rank(len(values)) - 1]


def end_to_end(samples, failures, setup_s):
    """`samples` maps each job to its wall times, one per run of the job.

    Other tenants of the machine only ever add time, so each job is timed by
    its fastest run: that is the steadiest estimate of its cost.
    """
    best = [min(times) for times in samples.values()]
    attempted = sum(len(times) for times in samples.values())
    ok_frac = (attempted - len(failures)) / attempted
    return {
        "jobs_per_s": (ok_frac * len(best) / sum(best), "1/s"),
        "job_s_p50": (statistics.median(best), "s"),
        "job_s_tail": (tail(best), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (ok_frac, "fraction"),
    }


def per_layer(tracer, untraced_s: float, traced_s: float):
    self_s = tracer.self_times()
    counts = tracer.counts
    layer_s = Counter()
    for name, seconds in self_s.items():
        layer_s[name.split(".")[0]] += seconds
    traced_total = sum(layer_s.values())
    scanned = counts["sectors.degrees_scanned"]
    cech_calls = counts["cohomology.cech_ranks"]
    cech_distinct = counts["cohomology.cech_slice"]
    metrics = {
        "problems.parse_s": (self_s["problems.parse_problem_file"], "s"),
        "cones.facets_s": (self_s["cones.facet_support_functions"], "s"),
        "cones.face_lattice_s": (self_s["cones.build_face_lattice"], "s"),
        "cones.faces": (counts["cones.faces"], "count"),
        "semigroups.build_s": (self_s["semigroups.ToricPresentation.build"], "s"),
        "semigroups.membership_calls": (
            counts["semigroups.in_semigroup"] + counts["semigroups.in_face_localization"],
            "count"),
        "sectors.enumerate_s": (self_s["sectors.enumerate_classes"], "s"),
        "sectors.degrees_scanned": (scanned, "count"),
        "sectors.classes": (counts["sectors.classes"], "count"),
        "sectors.classes_per_scanned": (
            counts["sectors.classes"] / scanned if scanned else 0.0, "ratio"),
        "sectors.poset_s": (self_s["sectors.class_poset"], "s"),
        "sectors.inventory_s": (self_s["sectors.sector_inventory"], "s"),
        "cohomology.assemble_s": (self_s["cohomology.assemble_module"], "s"),
        "cohomology.ishida_s": (self_s["cohomology.local_cohomology_max"], "s"),
        "cohomology.socle_s": (self_s["cohomology.socle_probe"], "s"),
        "cohomology.cech_calls": (cech_calls, "count"),
        "cohomology.cech_distinct": (cech_distinct, "count"),
        "cohomology.cech_reuse": (
            1 - cech_distinct / cech_calls if cech_calls else 0.0, "ratio"),
        "grading.grd_s": (layer_s["grading"], "s"),
        "reporting.report_s": (layer_s["reporting"] - self_s["reporting.render_machine"], "s"),
        "reporting.render_s": (self_s["reporting.render_machine"], "s"),
        "reporting.bytes": (counts["reporting.bytes"], "bytes"),
        "intlinalg.rank_calls": (counts["intlinalg.rank"], "count"),
        "intlinalg.rank_s": (self_s["intlinalg.rank"], "s"),
        "intlinalg.hnf_calls": (counts["intlinalg.hermite_normal_form"], "count"),
    }
    for layer in tr.LAYERS:
        metrics[f"{layer}.self_share"] = (layer_s[layer] / traced_total, "fraction")
    metrics.update({
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return metrics


# -- runs ---------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Run one workload; return the result object and a summary.

    `smoke` keeps only the jobs marked for the self-test.
    """
    cli = load_cli()
    clean = tr.originals()
    tr.assert_untraced(clean)
    references = load_references()
    jobs = [job for job in wl.WORKLOADS[workload] if job.smoke or not smoke]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        paths = wl.write_inputs(ROOT, jobs, seed, Path(tmp))
        if trace:
            result = _measure_traced(cli, jobs, paths, references, seed, workload, clean)
        else:
            setup_s, reps = measure_setup(paths)
            samples, failures = run_passes(
                cli, jobs, paths, references, seed, seconds, MIN_PASSES)
            tr.assert_untraced(clean)
            runs = sorted(len(times) for times in samples.values())
            pct = 100.0 * tail_rank(len(jobs)) / len(jobs)
            result = _result(sum(runs), failures,
                             end_to_end(samples, failures, setup_s))
            result["summary"] = (
                f"{workload}: {sum(runs)} jobs; job_s_p50 and job_s_tail "
                f"(p{pct:.2f}) over the best of {runs[0]} to {runs[-1]} times "
                f"of each of {len(jobs)} jobs; setup_s median of {reps} set-ups")
    return result


def _measure_traced(cli, jobs, paths, references, seed, workload, clean):
    samples, failures = run_passes(cli, jobs, paths, references, seed, 0, 1)
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced, traced_failures = run_passes(
            cli, jobs, paths, references, seed, 0, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    tr.assert_untraced(clean)
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{workload}-seed{seed}.json.gz"
    tracer.write(trace_path)
    untraced_s = sum(sum(per_job) for per_job in samples.values())
    traced_s = sum(sum(per_job) for per_job in traced.values())
    result = _result(2 * len(jobs), failures + traced_failures,
                     per_layer(tracer, untraced_s, traced_s))
    result["summary"] = (
        f"{workload}: one untraced and one traced pass of {len(jobs)} jobs; "
        f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    return result


def _result(attempted, failures, metrics) -> dict:
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in result.pop("failures")[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(result.pop("summary"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
