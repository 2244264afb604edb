"""Self-test of the benchmark: smoke runs of every workload, answer-check
injection, trace hygiene and the result format.

    python3 -m pytest -q perfbench/tests
"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

run.load_cli()
import toriclc.cohomology  # noqa: E402
import toriclc.semigroups  # noqa: E402


def _names(section):
    return [m["name"] for m in SPEC[section]]


def _check_metrics(result, section):
    metrics = result["metrics"]
    assert list(metrics) == _names(section)
    for name, metric in metrics.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(metric["unit"]), (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(wl.WORKLOADS) - {"classes", "geometry", "socle"}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_smoke_run_is_correct(workload):
    result = run.measure(workload, seed=1, seconds=0, trace=False, smoke=True)
    assert result["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    _check_metrics(result, "end_to_end")
    assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_traced_smoke_restores_every_function():
    cech_ranks = toriclc.cohomology.cech_ranks
    membership = toriclc.semigroups.in_face_localization
    build = vars(toriclc.semigroups.ToricPresentation)["build"]
    result = run.measure("socle", seed=1, seconds=0, trace=True, smoke=True)
    assert result["correct"], result["failures"]
    _check_metrics(result, "per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cohomology.cech_calls"] > metrics["cohomology.cech_distinct"] > 0
    assert metrics["intlinalg.rank_calls"] > 0 and metrics["cones.faces"] > 0
    assert toriclc.cohomology.cech_ranks is cech_ranks
    assert toriclc.sectors.in_face_localization is membership
    assert toriclc.cohomology.in_face_localization is membership
    assert vars(toriclc.semigroups.ToricPresentation)["build"] is build


def test_tracer_patches_every_binding():
    clean = tr.originals()
    tracer = tr.Tracer()
    tracer.install()
    try:
        for module in (toriclc.semigroups, toriclc.sectors, toriclc.cohomology,
                       toriclc.grading):
            assert module.in_face_localization is not clean["semigroups.in_face_localization"]
        with pytest.raises(RuntimeError):
            tr.assert_untraced(clean)
    finally:
        tracer.uninstall()
    tr.assert_untraced(clean)


def test_corrupted_answer_counts_as_failure(monkeypatch):
    original = toriclc.cohomology.cech_ranks

    def off_by_one(pres, ideal, a):
        ranks = original(pres, ideal, a)
        return ranks[:-1] + (ranks[-1] + 1,)

    monkeypatch.setattr(toriclc.cohomology, "cech_ranks", off_by_one)
    result = run.measure("corpus", seed=1, seconds=0, trace=False, smoke=True)
    assert not result["correct"]
    assert result["failed"] == run.MIN_PASSES  # lc, once per pass
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert "lc: answers differ" in result["failures"][0]


def test_raising_job_counts_as_failure(monkeypatch):
    def broken(classes):
        raise RuntimeError("injected")

    monkeypatch.setattr(toriclc.sectors, "class_poset", broken)
    result = run.measure("corpus", seed=1, seconds=0, trace=False, smoke=True)
    assert result["failed"] == 2 * run.MIN_PASSES  # sectors and lc, each pass
    assert all("raised RuntimeError" in f for f in result["failures"])


def test_exit_code_is_checked():
    assert run.check(3, "", "error: search bound exceeded", None).startswith("exit code 3")


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_answers_do_not_depend_on_the_seed(seed):
    result = run.measure("classes", seed=seed, seconds=0, trace=False, smoke=True)
    assert result["correct"], result["failures"]


def test_seed_permutes_columns_only():
    text = (run.ROOT / wl.STRESS / "cube.toric").read_text(encoding="utf-8")
    one = wl.permute_columns(text, random.Random(1))
    assert one == wl.permute_columns(text, random.Random(1))
    assert one != wl.permute_columns(text, random.Random(2))

    def columns(t):
        lines = [line for line in t.splitlines() if line and not line.startswith("#")]
        rows = [line.split() for line in lines[1:5]]
        return sorted(zip(*rows))

    assert columns(one) == columns(text)


def test_tail_leaves_ten_values_beyond():
    values = [float(i) for i in range(44)]
    random.Random(0).shuffle(values)
    value = run.tail(values)
    assert sum(1 for v in values if v > value) == 10
    assert run.tail_rank(44) == 34
    # too few values: a quarter of them stays above, or none
    assert run.tail([float(i) for i in range(12)]) == 9.0
    assert run.tail([3.0, 1.0, 2.0, 0.5]) == 3.0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
