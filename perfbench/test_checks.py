"""Tests of the benchmark's own checks, on a tiny count sweep.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys

import pytest

import run

TINY = run.WORKLOADS["count-lowalt"].tiny()
SEED = 7


def _run(tmp_path, phases):
    run.write_config(TINY, SEED, tmp_path / "config.yaml")
    return run.run_studies(TINY, tmp_path, phases)


@pytest.fixture(scope="module")
def good_phases(tmp_path_factory):
    # Two workers, then one: the run must see one science hash.
    return _run(tmp_path_factory.mktemp("good"),
                [{"name": "timed", "threads": 2, "count": 2},
                 {"name": "check_1w", "threads": 1, "count": 1}])


def _reference(phases):
    cols, problems = run.check_outputs(TINY, SEED, phases[0]["studies"][0])
    assert problems == []
    return {"hash": run.science_hash(cols), "values": cols}


def test_good_run_passes_with_and_without_reference(good_phases):
    for reference in (None, _reference(good_phases)):
        verdict = run.evaluate(TINY, SEED, good_phases, reference)
        assert (verdict["attempted"], verdict["failed"]) == (3, 0), verdict["problems"]
    assert verdict["drift"] == 0.0


def test_corrupted_reference_fails_every_study(good_phases):
    reference = _reference(good_phases)
    reference["values"]["mean_error_m"][1] *= 1.0 + 1e-4
    verdict = run.evaluate(TINY, SEED, good_phases, reference)
    assert (verdict["attempted"], verdict["failed"]) == (3, 3)
    assert verdict["drift"] == pytest.approx(1e-4 / (1.0 + 1e-4))
    assert all("drift" in p for p in verdict["problems"])


def test_study_differing_from_the_others_fails(good_phases):
    phases = copy.deepcopy(good_phases)
    study = phases[1]["studies"][0]
    header, first, *rest = study["csv"].splitlines()
    cells = first.split(",")
    cells[1] = repr(float(cells[1]) * 2.0)
    study["csv"] = "\n".join([header, ",".join(cells), *rest]) + "\n"
    verdict = run.evaluate(TINY, SEED, phases, None)
    assert verdict["failed"] == 1
    assert "check_1w" in verdict["problems"][0]


def test_raising_or_exiting_studies_are_counted_not_fatal(tmp_path):
    argv = TINY.argv(tmp_path / "config.yaml", tmp_path / "out.csv")
    phases = _run(tmp_path, [
        # Exit code 3: the config file does not exist.
        {"name": "timed", "threads": 1, "count": 1,
         "argv": ["count-sweep", "--config", str(tmp_path / "missing.yaml"),
                  "--out", str(tmp_path / "out.csv")]},
        # argparse raises SystemExit(2) for an unknown flag.
        {"name": "timed", "threads": 1, "count": 1, "argv": argv + ["--no-such-flag"]},
    ])
    raised = {"exit_code": None, "error": "Traceback ...\nRuntimeError: boom\n",
              "wall_s": 0.1, "stdout": "", "csv": None, "meta": None, "bytes": 0}
    phases.append({"name": "timed", "threads": 1, "studies": [raised]})
    verdict = run.evaluate(TINY, SEED, phases, None)
    assert (verdict["attempted"], verdict["failed"]) == (3, 3)
    assert ["exit code 3" in verdict["problems"][0], "exit code 2" in verdict["problems"][1],
            "RuntimeError: boom" in verdict["problems"][2]] == [True, True, True]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crlb-table",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
