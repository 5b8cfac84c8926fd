"""Study process of the uavloc benchmark.

Runs `uavloc.cli.main` in a loop inside one fresh interpreter and writes what
it saw to a JSON file. `run.py` starts it; by hand:

    PYTHONPATH=src python3 perfbench/study.py SPEC.json RESULT.json

SPEC.json holds the CLI arguments (without --threads), the output CSV path
and a list of phases. A phase runs either `count` studies or as many as fit
in `seconds` (at least `min`), with `threads` workers, optionally traced.
Every study records its wall time, exit code, printed summary, the output
files' text and size and the peak memory so far; a traced phase also
records spans. In a phase with `calibrate`, a fixed numpy kernel that runs
no uavloc code is timed after each study, so that `run.py` can factor out
how fast this shared machine was while each study ran. The first kernel
runs after the first study, which keeps its memory out of that study's peak.

Tracing wraps the library's functions where their callers look them up
(module globals), so `src/` stays untouched. Spans are kept in memory as
[name, start, end, parent, n, k] and written out once at the end: `n` is the
work handed to the call (rows, or elements for channel calls) and `k` a count
read from its result (boundary-pinned ranges, converged fixes).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np


class Tracer:
    """In-memory span recorder around wrapped module attributes."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, count=None):
        """Wrap `fn` so that each call records one span named `name`.

        `count(args, result)` returns the span's (n, k) counters.
        """
        def traced(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, time.perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1, 0, 0]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                rec[4], rec[5] = count(args, out)
            return out

        return traced

    def patch(self, module, attr: str, name: str, count=None) -> None:
        if hasattr(module, attr):
            setattr(module, attr, self.span(name, getattr(module, attr), count))


def _size(args, out):
    return int(np.size(args[0])), 0


def install_tracer(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from uavloc import channel, cli, estimation, experiments

    tracer.patch(cli, "load_config", "config.load_config")
    tracer.patch(cli, "write_results", "experiments.write_results")
    tracer.patch(cli, "write_crlb_table", "experiments.write_crlb_table")
    tracer.patch(experiments, "point_errors", "experiments.point_errors")
    # The crlb table has no point_errors; its per-cell unit is the worker.
    tracer.patch(experiments, "_crlb_worker", "experiments.crlb_cell")
    tracer.patch(experiments, "mle_distance_batch", "estimation.mle_distance_batch",
                 lambda a, out: (int(np.shape(a[0])[0]), int(np.count_nonzero(out[3]))))
    tracer.patch(experiments, "multilaterate_batch", "localization.multilaterate_batch",
                 lambda a, out: (int(np.shape(a[1])[0]), int(np.count_nonzero(out[2]))))
    for module in (experiments, estimation):
        for attr, value in list(vars(module).items()):
            if callable(value) and getattr(value, "__module__", None) == channel.__name__ \
                    and not isinstance(value, type):
                tracer.patch(module, attr, f"channel.{attr}", _size)


def calibrate() -> float:
    """Seconds taken by a fixed numpy kernel shaped like the studies' work.

    A pass over a 20 MB matrix with a row argmax (as in range bracketing)
    and small-array gathers and masked updates (as in multilateration).
    Large arrays are allocated and touched before timing, so the kernel's
    time does not depend on the allocator state the last study left.
    """
    rng = np.random.default_rng(0)
    x = 1.0 + rng.random((10_000, 256))
    y = np.ones_like(x)
    best = np.empty(x.shape[0], dtype=np.intp)
    p = rng.random((1000, 2)) * 100.0
    a = rng.random((3, 2)) * 100.0
    t0 = time.perf_counter()
    for _ in range(8):
        np.multiply(x, 0.5, out=y)
        np.log(y, out=y)
        np.subtract(y, x, out=y)
        np.argmax(y, axis=1, out=best)
    for _ in range(400):
        diff = p[:, None, :] - a[None, :, :]
        d = np.maximum(np.linalg.norm(diff, axis=2), 1e-12)
        g = np.einsum("lni,ln->li", diff / d[:, :, None], d - 50.0)
        m = np.hypot(g[:, 0], g[:, 1]) > 1.0
        p[m] = p[m] - 1e-3 * g[m]
    return time.perf_counter() - t0


def _read_text(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def run_study(main, argv: list[str], out: Path, tracer: Tracer | None) -> dict:
    """One CLI call; never raises for a failing study."""
    sidecar = out.with_suffix(".meta.json")
    for p in (out, sidecar):
        p.unlink(missing_ok=True)
    printed = io.StringIO()
    record = {"exit_code": None, "error": None}
    first_span = len(tracer.spans) if tracer else 0
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(printed):
            record["exit_code"] = main(argv)
    except SystemExit as exc:  # argparse usage errors exit through here
        record["exit_code"] = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        record["error"] = traceback.format_exc()
    record["wall_s"] = time.perf_counter() - t0
    record["cpu_s"] = time.process_time() - c0
    record["stdout"] = printed.getvalue()
    record["csv"] = _read_text(out)
    record["meta"] = _read_text(sidecar)
    record["bytes"] = sum(p.stat().st_size for p in (out, sidecar) if p.exists())
    # Peaks so far: the study process, and its largest worker.
    record["maxrss_self_mb"] = _maxrss_mb(resource.RUSAGE_SELF)
    record["maxrss_child_mb"] = _maxrss_mb(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        record["spans"] = tracer.spans[first_span:]
        record["span_offset"] = first_span
    return record


def run_phase(main, phase: dict, base_argv: list[str], out: Path,
              tracer: Tracer | None) -> list[dict]:
    argv = list(phase.get("argv", base_argv)) + ["--threads", str(phase["threads"])]
    studies: list[dict] = []
    t_start = time.perf_counter()
    cal = None
    while True:
        studies.append(run_study(main, argv, out, tracer))
        if phase.get("calibrate"):
            cal_next = calibrate()
            studies[-1]["cal_s"] = cal_next if cal is None else 0.5 * (cal + cal_next)
            cal = cal_next
        if studies[-1]["error"] or studies[-1]["exit_code"] != 0:
            break  # timing a failing study measures nothing
        if "count" in phase:
            if len(studies) >= phase["count"]:
                break
            continue
        elapsed = time.perf_counter() - t_start
        # Start another study only if it is expected to end within the budget.
        if len(studies) >= phase["min"] and elapsed + studies[-1]["wall_s"] > phase["seconds"]:
            break
    return studies


def _maxrss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import uavloc
    from uavloc import cli

    src = Path(spec["src"]).resolve()
    if src not in Path(uavloc.__file__).resolve().parents:
        print(f"study: imported uavloc from {uavloc.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    out = Path(spec["out"])
    tracer = None
    phases = []
    for phase in spec["phases"]:
        if phase.get("trace") and tracer is None:
            tracer = Tracer()
            install_tracer(tracer)
        studies = run_phase(cli.main, phase, spec["argv"], out,
                            tracer if phase.get("trace") else None)
        phases.append({"name": phase["name"], "threads": phase["threads"],
                       "studies": studies})
    Path(result_path).write_text(json.dumps({"phases": phases}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    # The guard matters: spawn-pool workers import this file as __mp_main__.
    if len(sys.argv) != 3:
        print("usage: study.py SPEC.json RESULT.json", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
