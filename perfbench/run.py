"""uavloc benchmark: three studies timed end to end, per-layer costs traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`. Each run generates the workload's YAML config from the
seed, times `setup_s` in fresh interpreters, then starts one fresh study
interpreter (`study.py`) that drives `uavloc.cli.main` for about S seconds.
Every study's outputs are checked; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced 1-worker
run next to untraced runs of the same study.

`study_s` is the median study wall time at the reference machine speed:
each study's wall time is multiplied by CAL_REF_S over the time a fixed
numpy kernel (no uavloc code) took right around it. The raw median is
printed too. Per-layer times are raw.

Workloads (why each exists is in BENCHMARK.json; the layer map in BASELINE.json):
  altitude-urban  optimize, urban, 3 anchors, 1000 disk nodes, 50-3000 m grid
  crlb-table      crlb, r in {250, 500, 1000} m x the same grid, 10^4 reps
  count-lowalt    count-sweep at 50 m, 3-30 anchors, 8-node ring, 2 workers
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE_PATH = BENCH / "reference.json"

#: Seconds the calibration kernel (study.calibrate) took on the reference
#: machine (see BASELINE.json). Study times are reported at that speed.
CAL_REF_S = 0.185

#: Largest relative deviation from the recorded reference that still counts
#: as the same science output (machines may differ in the last ulp).
DRIFT_TOL = 1e-6
SETUP_REPEATS = 11
#: Every run ends within this many seconds, set-up included.
RUN_DEADLINE_S = 170.0
MIN_TIMED_STUDIES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ALTITUDE_GRID = [50.0 * k for k in range(1, 61)]      # 50..3000 m
COUNT_GRID = [float(n) for n in range(3, 31, 3)]       # 3..30 anchors
CRLB_R = [250.0, 500.0, 1000.0]
CRLB_REPETITIONS = 10_000

SWEEP_COLUMNS = ("mean_error_m", "error_std_m", "mean_position_error_m")
CRLB_COLUMNS = ("mle_sigma_m", "mle_mean_m")


@dataclass(frozen=True)
class Workload:
    """One study shape: CLI command, YAML body (without seed) and workers."""

    name: str
    command: str
    config: dict
    threads: int
    grid: tuple
    anchors: tuple          # anchors per sweep point (1 for the crlb table)
    nodes: int              # nodes per trial, or repetitions per table cell
    trials: int = 1
    r_values: tuple = ()

    @property
    def variable(self) -> str:
        return "anchor_count" if self.command == "count-sweep" else "altitude"

    @property
    def links(self) -> int:
        """Anchor-node links ranged (and, in sweeps, fixed) per study."""
        cells = max(len(self.r_values), 1)
        return cells * sum(self.anchors) * self.nodes * self.trials

    def argv(self, config_path: Path, out: Path) -> list[str]:
        args = [self.command, "--config", str(config_path), "--out", str(out)]
        for r in self.r_values:
            args += ["--r", repr(r)]
        if self.command == "crlb":
            args += ["--repetitions", str(self.nodes)]
        return args

    def yaml_body(self, seed: int) -> dict:
        return {**self.config, "seed": seed,
                "sweep": {"variable": self.variable, "values": list(self.grid)}}

    def tiny(self) -> "Workload":
        """The same study on two grid points and a few nodes (warm-up)."""
        nodes = self.nodes if self.command == "count-sweep" else 20
        config = {**self.config, "trials": 1}
        if "node_count" in config:
            config["node_count"] = nodes
        return replace(self, config=config, grid=self.grid[:2], anchors=self.anchors[:2],
                       nodes=nodes, trials=1, r_values=self.r_values[:1])


WORKLOADS = {
    "altitude-urban": Workload(
        "altitude-urban", "optimize",
        {"environment": "urban", "trials": 1, "node_count": 1000},
        threads=1, grid=tuple(ALTITUDE_GRID), anchors=(3,) * 60, nodes=1000),
    "crlb-table": Workload(
        "crlb-table", "crlb", {"environment": "urban"},
        threads=1, grid=tuple(ALTITUDE_GRID), anchors=(1,) * 60,
        nodes=CRLB_REPETITIONS, r_values=tuple(CRLB_R)),
    "count-lowalt": Workload(
        "count-lowalt", "count-sweep",
        {"environment": "urban", "trials": 50, "constellation": {"altitude": 50.0}},
        threads=2, grid=tuple(COUNT_GRID), anchors=tuple(int(n) for n in COUNT_GRID),
        nodes=8, trials=50),
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def check_outputs(w: Workload, seed: int, study: dict) -> tuple[dict, list[str]]:
    """Science columns of one study and every structural problem found."""
    if study.get("error"):
        return {}, ["raised: " + study["error"].strip().splitlines()[-1]]
    if study.get("exit_code") != 0:
        return {}, [f"exit code {study.get('exit_code')}"]
    if not study.get("csv"):
        return {}, ["no CSV written"]
    rows = list(csv.DictReader(io.StringIO(study["csv"])))
    problems = []
    try:
        if w.command == "crlb":
            expected = [(r, h) for r in w.r_values for h in w.grid]
            got = [(float(row["r_m"]), float(row["h_m"])) for row in rows]
            if got != expected:
                problems.append("table cells differ from the requested (r, h) grid")
            cols = {c: [float(row[c]) for row in rows] for c in CRLB_COLUMNS}
            bound = [float(row["crlb_sigma_m"]) for row in rows]
            boundary = [float(row["boundary_fraction"]) for row in rows]
            if not (_finite(bound) and all(v > 0 for v in bound + cols["mle_sigma_m"])):
                problems.append("non-finite or non-positive sigma")
            if not all(0.0 <= v <= 1.0 for v in boundary):
                problems.append("boundary fraction outside [0, 1]")
            if any(int(row["repetitions"]) != w.nodes for row in rows):
                problems.append("wrong repetition count")
        else:
            if [float(row["sweep_value"]) for row in rows] != list(w.grid):
                problems.append("sweep values differ from the requested grid")
            cols = {c: [float(row[c]) for row in rows] for c in SWEEP_COLUMNS}
            if any(v < 0 for c in cols.values() for v in c):
                problems.append("negative error")
            if any(int(row["n_nodes"]) != w.nodes or int(row["n_trials"]) != w.trials
                   for row in rows):
                problems.append("wrong n_nodes or n_trials column")
            meta = json.loads(study.get("meta") or "null")
            nonconv = (meta or {}).get("per_point", {}).get("n_nonconverged")
            if not isinstance(nonconv, list) or len(nonconv) != len(w.grid):
                problems.append("sidecar lacks per-point n_nonconverged")
            elif any(not 0 <= n <= w.nodes * w.trials for n in nonconv):
                problems.append("non-converged count exceeds the node count")
        if w.command == "optimize":
            m = re.search(r"h_opt = ([0-9.eE+-]+) m", study.get("stdout", ""))
            errs = cols["mean_error_m"]
            if m is None or float(m.group(1)) not in w.grid:
                problems.append("h_opt missing or off the grid")
            elif errs and float(m.group(1)) != w.grid[errs.index(min(errs))]:
                problems.append("h_opt is not the argmin of the mean error")
        if any(int(row["seed"]) != seed for row in rows):
            problems.append("wrong seed column")
    except (KeyError, ValueError, TypeError) as exc:
        return {}, [f"malformed output: {exc!r}"]
    if not all(_finite(v) for v in cols.values()):
        problems.append("non-finite science value")
    return cols, problems


def science_hash(cols: dict) -> str:
    body = json.dumps({c: [repr(v) for v in vals] for c, vals in sorted(cols.items())})
    return hashlib.sha256(body.encode()).hexdigest()


def drift(cols: dict, ref_values: dict) -> float:
    """Largest relative deviation of `cols` from the reference values."""
    worst = 0.0
    for c, ref in ref_values.items():
        got = cols.get(c)
        if got is None or len(got) != len(ref):
            return math.inf
        for v, r in zip(got, ref):
            worst = max(worst, abs(v - r) / (abs(r) if r != 0.0 else 1.0))
    return worst


def evaluate(w: Workload, seed: int, phases: list[dict], reference: dict | None) -> dict:
    """Check every full-size study of a run.

    A study fails when it raised or exited non-zero, when its outputs fail a
    structural check, when it drifts from the seed's reference by more than
    DRIFT_TOL, or when its hash differs from the run's majority hash (which
    also catches 1- versus 2-worker differences).
    """
    attempted = failed = 0
    problems: list[str] = []
    checked = []
    for phase in phases:
        for study in phase["studies"]:
            attempted += 1
            if phase["name"] == "warmup":
                _, found = check_outputs(w.tiny(), seed, study)
                if found:
                    failed += 1
                    problems.append(f"warmup: {found[0]}")
                continue
            cols, found = check_outputs(w, seed, study)
            checked.append((phase["name"], cols, found))
    hashes = [science_hash(c) for _, c, f in checked if not f]
    majority = max(set(hashes), key=hashes.count) if hashes else None
    worst = 0.0 if reference else None
    for name, cols, found in checked:
        if not found:
            if science_hash(cols) != majority:
                found.append("science hash differs from the other studies of this run")
            if reference:
                d = drift(cols, reference["values"])
                worst = max(worst, d)
                if d > DRIFT_TOL:
                    found.append(f"drift {d:.3g} from the recorded reference")
        if found:
            failed += 1
            problems.append(f"{name}: {'; '.join(found)}")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "hash": majority, "drift": worst}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """Environment of every child: checkout's src first, one BLAS thread."""
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _reap_group(pgid: int) -> None:
    """Wait for every process left in the group, killing stragglers."""
    deadline = time.monotonic() + 5.0
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
        time.sleep(0.05)


def run_child(argv: list[str], timeout: float) -> tuple[int | None, str, str]:
    """Run a child in its own process group; (returncode, stdout, stderr)."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        code = None
    _reap_group(proc.pid)
    return code, out, err


SETUP_CODE = """\
import time
t0 = time.perf_counter()
from uavloc import cli
cli.load_config(path={path!r}, variable={variable!r})
print(repr(time.perf_counter() - t0))
"""


def measure_setup(w: Workload, config_path: Path) -> float:
    """Median time for a fresh interpreter to import uavloc and load the YAML."""
    code = SETUP_CODE.format(path=str(config_path), variable=w.variable)
    times = []
    for _ in range(SETUP_REPEATS):
        rc, out, err = run_child([sys.executable, "-c", code], timeout=10.0)
        if rc != 0:
            raise RuntimeError(f"set-up failed: {err.strip()[-500:]}")
        times.append(float(out.strip().splitlines()[-1]))
    return statistics.median(times)


def write_config(w: Workload, seed: int, path: Path) -> None:
    # JSON is a subset of the YAML that load_config reads.
    path.write_text(json.dumps(w.yaml_body(seed), indent=2) + "\n", encoding="utf-8")


def plan_phases(w: Workload, workdir: Path, seed: int, seconds: int, trace: bool) -> list:
    tiny = w.tiny()
    write_config(tiny, seed, workdir / "warmup.yaml")
    warmup = {"name": "warmup", "threads": w.threads, "count": 1,
              "argv": tiny.argv(workdir / "warmup.yaml", workdir / "out.csv")}
    if not trace:
        phases = [warmup, {"name": "timed", "threads": w.threads, "seconds": seconds,
                           "min": MIN_TIMED_STUDIES, "calibrate": True}]
        if w.threads > 1:  # the "identical at any --threads" invariant
            phases.append({"name": "check_1w", "threads": 1, "count": 1})
        return phases
    runs = [("timed", w.threads, False)]
    if w.threads > 1:
        runs.append(("base_1w", 1, False))
    runs.append(("traced", 1, True))
    return [warmup] + [{"name": n, "threads": t, "trace": tr, "min": 1, "calibrate": True,
                        "seconds": seconds / len(runs)} for n, t, tr in runs]


def run_studies(w: Workload, workdir: Path, phases: list[dict],
                timeout: float = RUN_DEADLINE_S) -> list[dict]:
    """Run `phases` on workdir/config.yaml in one fresh study interpreter."""
    config = workdir / "config.yaml"
    spec = {"src": str(ROOT / "src"), "out": str(workdir / "out.csv"),
            "argv": w.argv(config, workdir / "out.csv"), "phases": phases}
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    rc, _, err = run_child([sys.executable, str(BENCH / "study.py"), str(spec_path),
                            str(result_path)], timeout=timeout)
    if rc != 0:
        status = "timed out" if rc is None else f"exited {rc}"
        raise RuntimeError(f"study process {status}: {err.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))["phases"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _phase(phases: list[dict], name: str) -> dict:
    return next(p for p in phases if p["name"] == name)


def _walls(phase: dict) -> list[float]:
    return [s["wall_s"] for s in phase["studies"]]


def _scaled_walls(phase: dict) -> list[float]:
    """Study wall times at the reference machine speed.

    This host's speed drifts by a quarter over minutes (other tenants), and
    raw 30-second runs inherit that drift. Scaling each study by the
    calibration kernel timed around it removes the shared part.
    """
    return [s["wall_s"] * CAL_REF_S / s["cal_s"] for s in phase["studies"]]


def end_to_end(w: Workload, phases: list[dict], setup_s: float) -> dict:
    timed = _phase(phases, "timed")
    study_s = statistics.median(_scaled_walls(timed))
    # The first timed study ran before any calibration kernel.
    first = timed["studies"][0]
    rss = first["maxrss_self_mb"]
    if w.threads > 1:  # upper bound: every worker at the largest worker's peak
        rss += w.threads * first["maxrss_child_mb"]
    return {"study_s": (study_s, "s"), "links_per_s": (w.links / study_s, "1/s"),
            "setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB")}


POINT_SPANS = ("experiments.point_errors", "experiments.crlb_cell")
WRITE_SPANS = ("experiments.write_results", "experiments.write_crlb_table")
RANGING_SPAN = "estimation.mle_distance_batch"


def study_layers(study: dict) -> dict:
    """Per-layer sums of one traced study, from its spans."""
    spans, off = study["spans"], study["span_offset"]
    dur = [sp[2] - sp[1] for sp in spans]
    child = [0.0] * len(spans)
    for i, sp in enumerate(spans):
        if sp[3] >= off:
            child[sp[3] - off] += dur[i]
    acc = dict.fromkeys(("loc_s", "fixes", "converged", "est_s", "links", "boundary",
                         "evals", "ch_calls", "ch_s", "exp_self", "write_s", "load_s"), 0)
    points = []
    for i, (name, _, _, parent, n, k) in enumerate(spans):
        if name == "localization.multilaterate_batch":
            acc["loc_s"] += dur[i]
            acc["fixes"] += n
            acc["converged"] += k
        elif name == RANGING_SPAN:
            acc["est_s"] += dur[i] - child[i]
            acc["links"] += n
            acc["boundary"] += k
        elif name.startswith("channel."):
            acc["ch_calls"] += 1
            acc["ch_s"] += dur[i]
            if name == "channel.path_loss_exponent" and parent >= off \
                    and spans[parent - off][0] == RANGING_SPAN:
                acc["evals"] += n
        elif name in POINT_SPANS:
            acc["exp_self"] += dur[i] - child[i]
            points.append(dur[i])
        elif name in WRITE_SPANS:
            acc["write_s"] += dur[i]
        elif name == "config.load_config":
            acc["load_s"] += dur[i]
    acc["points"] = points
    acc["wall_s"] = study["wall_s"]
    acc["bytes"] = study["bytes"]
    return acc


def _ratio(a: float, b: float, scale: float = 1.0) -> float:
    return a / b * scale if b else 0.0


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)] if ordered else 0.0


def per_layer(w: Workload, phases: list[dict]) -> dict:
    traced = [study_layers(s) for s in _phase(phases, "traced")["studies"]]

    def med(fn):
        return statistics.median(fn(t) for t in traced)

    points = [d for t in traced for d in t["points"]]
    # Pool overhead and efficiency come from the untraced run at the
    # workload's worker count, using the sidecar's per-point wall times. The
    # crlb table writes no sidecar, so there the traced cell spans stand in.
    timed = _phase(phases, "timed")
    busy = []
    for s in timed["studies"]:
        meta = json.loads(s.get("meta") or "null")
        elapsed = (meta or {}).get("per_point", {}).get("elapsed_s")
        if elapsed:
            busy.append((s["wall_s"], sum(elapsed), timed["threads"]))
    if not busy:
        busy = [(t["wall_s"], sum(t["points"]), 1) for t in traced]
    base = _phase(phases, "base_1w" if w.threads > 1 else "timed")
    metrics = {
        "localization.s": (med(lambda t: t["loc_s"]), "s"),
        "localization.fixes": (med(lambda t: t["fixes"]), "count"),
        "localization.us_per_fix": (med(lambda t: _ratio(t["loc_s"], t["fixes"], 1e6)), "us"),
        "localization.converged_frac": (med(lambda t: _ratio(t["converged"], t["fixes"])),
                                        "fraction"),
        "estimation.s": (med(lambda t: t["est_s"]), "s"),
        "estimation.links": (med(lambda t: t["links"]), "count"),
        "estimation.us_per_link": (med(lambda t: _ratio(t["est_s"], t["links"], 1e6)), "us"),
        "estimation.boundary_frac": (med(lambda t: _ratio(t["boundary"], t["links"])),
                                     "fraction"),
        "estimation.model_evals_per_link": (med(lambda t: _ratio(t["evals"], t["links"])),
                                            "evals/link"),
        "channel.calls": (med(lambda t: t["ch_calls"]), "count"),
        "channel.s": (med(lambda t: t["ch_s"]), "s"),
        "experiments.self_s": (med(lambda t: t["exp_self"]), "s"),
        "experiments.point_s_p50": (_percentile(points, 0.50), "s"),
        "experiments.point_s_p99": (_percentile(points, 0.99), "s"),
        "experiments.write_s": (med(lambda t: t["write_s"]), "s"),
        "experiments.bytes_written": (med(lambda t: t["bytes"]), "B"),
        "experiments.pool_overhead_s": (
            statistics.median(wall - b / n for wall, b, n in busy), "s"),
        "experiments.parallel_eff": (
            statistics.median(_ratio(b, n * wall) for wall, b, n in busy), "fraction"),
        "config.load_s": (med(lambda t: t["load_s"]), "s"),
        "trace_overhead_frac": (
            statistics.median(_scaled_walls(_phase(phases, "traced")))
            / statistics.median(_scaled_walls(base)) - 1.0, "fraction"),
    }
    if med(lambda t: t["links"]) != w.links:
        print(f"warning: traced run ranged {med(lambda t: t['links'])} links, "
              f"expected {w.links}; some spans are missing", file=sys.stderr)
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def load_reference(name: str, seed: int) -> dict | None:
    try:
        data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return data.get("workloads", {}).get(name, {}).get(str(seed))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "uavloc" / "cli.py").is_file():
        print(f"perfbench: no uavloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    w = WORKLOADS[args.workload]
    workdir = BENCH / ".work" / f"{w.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        phases = plan_phases(w, workdir, args.seed, args.seconds, bool(args.trace))
        write_config(w, args.seed, workdir / "config.yaml")
        setup_s = measure_setup(w, workdir / "config.yaml")
        phases = run_studies(w, workdir, phases,
                             timeout=RUN_DEADLINE_S - (time.monotonic() - started))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    verdict = evaluate(w, args.seed, phases, load_reference(w.name, args.seed))
    metrics = per_layer(w, phases) if args.trace else end_to_end(w, phases, setup_s)
    for problem in verdict["problems"]:
        print(f"FAILED {problem}")
    drift_text = "n/a (no reference for this seed)" if verdict["drift"] is None \
        else repr(verdict["drift"])
    print(f"workload {w.name}  seed {args.seed}  links/study {w.links}  "
          f"hash {verdict['hash']}")
    for phase in phases:
        print(f"phase {phase['name']:9s} {phase['threads']} worker(s), study wall/cpu/kernel s: "
              + " ".join(f"{s['wall_s']:.3f}/{s['cpu_s']:.3f}/{s.get('cal_s') or 0:.3f}"
                         for s in phase["studies"]))
        if phase.get("studies") and phase["studies"][0].get("cal_s"):
            print(f"  median raw wall {statistics.median(_walls(phase)):.4f} s, at reference "
                  f"speed {statistics.median(_scaled_walls(phase)):.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(f"{'result_drift':36s} {drift_text} relative")
    print(f"{'failed_frac':36s} {verdict['failed'] / verdict['attempted']:.6g} "
          f"({verdict['failed']}/{verdict['attempted']} studies)")
    print(json.dumps({
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
