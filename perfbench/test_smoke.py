"""Tiny-scale smoke test of the benchmark harness.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS, model_names, workload_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "0.01"


def harness(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", TINY, "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_and_plain_cli_digest(tmp_path):
    proc = harness("--workload", "catalog", "--trace", "0")
    result = result_of(proc)
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())

    # a plain CLI run of the same config and seed writes the same outputs
    doc = workload_config(WORKLOADS["catalog"], float(TINY))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for stage in ("synth", "preprocess", "train", "evaluate", "attack", "report"):
        subprocess.run(
            [sys.executable, "-m", "pfcpbench.cli", stage, "--config", str(config),
             "--out", str(tmp_path / "runs")],
            env=env, check=True, capture_output=True, timeout=120,
        )
    (run_dir,) = (tmp_path / "runs").iterdir()
    assert not checks.check_report(run_dir, model_names(doc))
    digest_line = next(line for line in proc.stdout.splitlines() if "digest=" in line)
    assert digest_line.split("digest=")[1].split()[0] == checks.digest(run_dir)


def test_traced_run_emits_every_per_layer_metric():
    result = result_of(harness("--workload", "gmm-evasion", "--trace", "1"))
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert result["metrics"]["attack.queries.GA_DE"]["value"] > 0
    assert result["metrics"]["detectors.score_row_us.GMM"]["value"] > 0
    spans = json.loads((HERE / "traces" / "gmm-evasion-seed42.json").read_text())["spans"]
    assert {s[1] for s in spans} >= {"cli.attack", "attack.campaign", "attack.fitness"}


def test_refuses_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result, non-zero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = harness("--workload", "catalog", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
