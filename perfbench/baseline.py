"""Measure the benchmark's baseline and write it to BASELINE.json.

    python3 perfbench/baseline.py RUNS FIRST_SEED [OUT.json]

Runs every workload RUNS times with seeds FIRST_SEED, FIRST_SEED + 1, ...
(untraced), interleaving workloads so that slow spells of the machine hit
all of them alike, then one traced run per workload on FIRST_SEED. Writes the
median and quartiles of every end-to-end metric, the traced per-layer
numbers, the layer map and the environment fingerprint. Nothing here is
gated; it is the record a later change is compared against.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import run

RUN_SECONDS = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]

#: Which end-to-end metric each layer metric should move, on which workload.
LAYER_MAP = {
    "localization": {
        "metrics": ["localization.s", "localization.fixes", "localization.us_per_fix",
                    "localization.converged_frac"],
        "moves": "study_s on altitude-urban (most) and count-lowalt; "
                 "no change on crlb-table"},
    "estimation": {
        "metrics": ["estimation.s", "estimation.links", "estimation.us_per_link",
                    "estimation.boundary_frac", "estimation.model_evals_per_link"],
        "moves": "study_s on crlb-table (most), then count-lowalt and "
                 "altitude-urban; peak_rss_mb on crlb-table"},
    "channel": {
        "metrics": ["channel.calls", "channel.s"],
        "moves": "study_s on count-lowalt (per-call validation); little elsewhere"},
    "experiments (with geometry, _streams)": {
        "metrics": ["experiments.self_s", "experiments.point_s_p50",
                    "experiments.point_s_p99"],
        "moves": "study_s on altitude-urban"},
    "experiments writing": {
        "metrics": ["experiments.write_s", "experiments.bytes_written"],
        "moves": "study_s on every workload, slightly; guards sidecar growth"},
    "experiments pool": {
        "metrics": ["experiments.pool_overhead_s", "experiments.parallel_eff"],
        "moves": "study_s on count-lowalt only"},
    "config (via cli)": {"metrics": ["config.load_s"], "moves": "setup_s"},
    "tracing": {"metrics": ["trace_overhead_frac"],
                "moves": "nothing; traced against untraced study_s"},
}


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(RUN_SECONDS),
                           "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, check=True)
    print(proc.stdout, flush=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs failed their checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def fingerprint() -> dict:
    import numpy
    import yaml
    cpu = next((line.split(":", 1)[1].strip()
                for line in open("/proc/cpuinfo", encoding="utf-8")
                if line.startswith("model name")), platform.processor())
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (run.ROOT / "src").rglob("*.py"))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "pyyaml": yaml.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "src_lines": src_lines}


def main(runs: int, first_seed: int) -> dict:
    seeds = list(range(first_seed, first_seed + runs))
    values = {w: [] for w in run.WORKLOADS}
    for seed in seeds:
        for w in run.WORKLOADS:
            values[w].append(bench(w, seed, 0))
    end_to_end = {}
    for w, results in values.items():
        end_to_end[w] = {}
        for metric in results[0]:
            xs = [r[metric] for r in results]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            end_to_end[w][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "iqr_over_median": (q3 - q1) / med}
    return {
        "environment": fingerprint(),
        "run_seconds": RUN_SECONDS,
        "calibration_ref_s": run.CAL_REF_S,
        "seeds": seeds,
        "links_per_study": {w.name: w.links for w in run.WORKLOADS.values()},
        "end_to_end": end_to_end,
        "per_layer": {w: bench(w, first_seed, 1) for w in run.WORKLOADS},
        "layer_map": LAYER_MAP,
    }


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    summary = main(int(sys.argv[1]), int(sys.argv[2]))
    out = sys.argv[3] if len(sys.argv) == 4 else run.BENCH / "BASELINE.json"
    with open(out, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
