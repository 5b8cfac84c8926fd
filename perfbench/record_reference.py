"""Record each workload's reference science outputs for a range of seeds.

    python3 perfbench/record_reference.py FIRST_SEED LAST_SEED

Every reference comes from one 1-worker study and holds the exact science
columns and their hash; `run.py` reports the drift of later runs from it.
Re-record only for a change that is meant to alter results, and report the
drift the old reference showed.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def record(first: int, last: int) -> dict:
    workloads = {}
    for w in run.WORKLOADS.values():
        refs = workloads.setdefault(w.name, {})
        for seed in range(first, last + 1):
            workdir = run.BENCH / ".work" / f"reference-{w.name}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                run.write_config(w, seed, workdir / "config.yaml")
                phases = run.run_studies(
                    w, workdir, [{"name": "reference", "threads": 1, "count": 1}])
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            cols, problems = run.check_outputs(w, seed, phases[0]["studies"][0])
            if problems:
                raise RuntimeError(f"{w.name} seed {seed}: {'; '.join(problems)}")
            refs[str(seed)] = {"hash": run.science_hash(cols), "values": cols}
            print(f"{w.name} seed {seed}: {refs[str(seed)]['hash']}", flush=True)
    return {"workers": 1, "workloads": workloads}


def dump(data: dict) -> str:
    """JSON with one line per (workload, seed), so re-recording diffs per seed."""
    blocks = [f" {json.dumps(name)}: {{\n"
              + ",\n".join(f"  {json.dumps(seed)}: {json.dumps(ref)}" for seed, ref in refs.items())
              + "\n }" for name, refs in data["workloads"].items()]
    return f'{{"workers": {data["workers"]}, "workloads": {{\n' + ",\n".join(blocks) + "\n}}\n"


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    data = record(int(sys.argv[1]), int(sys.argv[2]))
    run.REFERENCE_PATH.write_text(dump(data), encoding="utf-8")
