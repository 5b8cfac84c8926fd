"""The benchmark still runs on the library as it is.

`perfbench/study.py` traces by replacing module globals and skips a name
that is missing without a word, so a rename in `src/` would make its
per-layer counts read 0. One traced, 1-worker study per command shape
checks that every layer still reports. Every config the benchmark writes
must load for its command, or its studies would fail. And the seed-0 study
of each workload, run in process at 1 worker, must pass the benchmark's
output checks and hash as `perfbench/reference.json` records, so a change
of any benchmark result fails tier-1 too.
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uavloc import load_config

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench_hooks")
    alt = tmp / "alt.yaml"
    alt.write_text("node_count: 10\nsweep:\n  values: [300, 900]\n")
    count = tmp / "count.yaml"
    count.write_text("sweep:\n  values: [3, 6]\n")
    crlb = tmp / "crlb.yaml"
    crlb.write_text("sweep:\n  values: [300, 900]\n")
    out = str(tmp / "out.csv")
    commands = {
        "optimize": ["optimize", "--config", str(alt), "--out", out],
        "count-sweep": ["count-sweep", "--config", str(count), "--out", out],
        "crlb": ["crlb", "--config", str(crlb), "--out", out, "--r", "400",
                 "--repetitions", "50"],
    }
    spec = {"src": str(ROOT / "src"), "out": out, "argv": commands["optimize"],
            "phases": [{"name": name, "argv": argv, "threads": 1, "trace": True, "count": 1}
                       for name, argv in commands.items()]}
    spec_path, result_path = tmp / "spec.json", tmp / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "study.py"),
                           str(spec_path), str(result_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    phases = json.loads(result_path.read_text(encoding="utf-8"))["phases"]
    return {p["name"]: p["studies"][0] for p in phases}


@pytest.mark.parametrize("command,layer", [
    ("optimize", "localization.multilaterate_batch"),
    ("count-sweep", "localization.multilaterate_batch"),
    ("crlb", "experiments.crlb_cell"),
])
def test_every_layer_is_traced(traced, command, layer):
    study = traced[command]
    assert study["exit_code"] == 0 and study["error"] is None
    names = {span[0] for span in study["spans"]}
    # Each command's own writer, so that the benchmark's write time sees it.
    writer = "experiments.write_crlb_table" if command == "crlb" else "experiments.write_results"
    assert {"config.load_config", "estimation.mle_distance_batch", layer, writer} <= names
    assert any(name.startswith("channel.") for name in names)
    if command == "crlb":
        # Cells range inside the traced worker, so the benchmark's
        # `experiments.self_s` (a span's time minus its children's) keeps
        # its meaning.
        spans, offset = study["spans"], study["span_offset"]
        assert {spans[s[3] - offset][0] if s[3] >= offset else None for s in spans
                if s[0] == "estimation.mle_distance_batch"} == {"experiments.crlb_cell"}


def _perfbench_run():
    """perfbench/run.py as a module, imported from its path."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


PERFBENCH = _perfbench_run()


@pytest.mark.parametrize("name", sorted(PERFBENCH.WORKLOADS))
@pytest.mark.parametrize("size", ["full", "tiny"])
def test_workload_configs_load_for_their_command(tmp_path, name, size):
    workload = PERFBENCH.WORKLOADS[name]
    if size == "tiny":
        workload = workload.tiny()
    for seed in (0, 3):
        path = tmp_path / f"{seed}.yaml"
        PERFBENCH.write_config(workload, seed, path)
        cfg = load_config(path, command=workload.command)
        assert cfg.seed == seed and cfg.sweep.values == tuple(workload.grid)


REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(PERFBENCH.WORKLOADS))
def test_seed0_study_matches_the_benchmark_reference(tmp_path, name):
    from uavloc import cli

    workload = PERFBENCH.WORKLOADS[name]
    config, out = tmp_path / "config.yaml", tmp_path / "out.csv"
    PERFBENCH.write_config(workload, 0, config)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(workload.argv(config, out) + ["--threads", "1"])
    study = {"exit_code": code, "error": None, "stdout": printed.getvalue(),
             "csv": out.read_text(encoding="utf-8"),
             "meta": out.with_suffix(".meta.json").read_text(encoding="utf-8")}
    cols, problems = PERFBENCH.check_outputs(workload, 0, study)
    assert problems == []
    assert PERFBENCH.science_hash(cols) == REFERENCE["workloads"][name]["0"]["hash"]
