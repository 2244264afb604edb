"""Record the reference answers every benchmark job is checked against.

Runs each job of every workload once per seed, requires the seed-invariant
answers (see answers.py) to be identical for all seeds, and writes them to
perfbench/references.json.  Run it only when the program's answers are
meant to change:

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import answers
import run
import workloads as wl

SEEDS = (1, 2, 3)


def record() -> dict:
    cli = run.load_cli()
    jobs = {job.key: job for jobs in wl.WORKLOADS.values() for job in jobs}
    found = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
            paths = wl.write_inputs(run.ROOT, jobs.values(), seed, Path(tmp))
            for key, job in sorted(jobs.items()):
                seconds, code, out, err = run.execute(cli, job, paths[job.problem])
                if code != 0:
                    raise SystemExit(f"{key} (seed {seed}): exit code {code}: {err}")
                report = json.loads(out)
                if not answers.cech_matches_ishida(report):
                    raise SystemExit(f"{key} (seed {seed}): Cech and Ishida disagree")
                got = answers.extract(report)
                if found.setdefault(key, got) != got:
                    raise SystemExit(f"{key}: seed {seed} answers differ from seed {SEEDS[0]}")
                print(f"seed {seed} {seconds:8.3f}s {key}", file=sys.stderr)
    return found


def main() -> None:
    references = record()
    path = run.HERE / "references.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(references)} jobs agree on seeds {SEEDS}; wrote {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()
