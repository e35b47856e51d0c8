"""Output checks and digests for one pipeline run directory."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

# Files whose bytes must repeat exactly for the same config and seed.
DIGEST_FILES = ("metrics.json", "detection_matrix.csv", "evasion.json")
REPORT_FILES = ("metrics.json", "metrics.csv", "detection_matrix.csv", "evasion.json", "evasion.csv")


def campaign_files(run_dir: Path) -> list[Path]:
    return sorted(run_dir.glob("campaign-*.jsonl"))


def digest(run_dir: Path) -> str:
    """sha256 over the report and campaign files, names included."""
    h = hashlib.sha256()
    for path in [run_dir / name for name in DIGEST_FILES] + campaign_files(run_dir):
        if path.exists():
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_report(run_dir: Path, expected_models: set[str]) -> list[str]:
    """Every report file exists and parses, and every expected model has a row."""
    problems = []
    report = run_dir / "report"
    for name in REPORT_FILES:
        path = report / name
        if not path.exists():
            problems.append(f"report/{name} missing")
            continue
        try:
            text = path.read_text()
            rows = json.loads(text) if name.endswith(".json") else list(csv.DictReader(io.StringIO(text)))
        except (ValueError, csv.Error) as exc:
            problems.append(f"report/{name} does not parse: {exc}")
            continue
        if name in ("metrics.json", "detection_matrix.csv"):
            got = {row["model"] for row in rows}
            if got != expected_models:
                problems.append(f"report/{name} models {sorted(got)} != {sorted(expected_models)}")
    return problems


def check_campaigns(
    run_dir: Path,
    budget: int,
    controllable: frozenset[str],
    protected: dict[str, frozenset[str]],
) -> tuple[list[str], int]:
    """Budget, evasion and feasibility invariants of every campaign outcome.

    Returns the problems found and the total number of queries used.
    """
    problems = []
    queries = 0
    for path in campaign_files(run_dir):
        for line in path.read_text().splitlines():
            outcome = json.loads(line)
            where = f"{path.name}#{outcome['sample_index']}"
            queries += outcome["queries_used"]
            if not 1 <= outcome["queries_used"] <= budget:
                problems.append(f"{where}: queries_used {outcome['queries_used']} outside [1, {budget}]")
            if outcome["evaded"] != (outcome["best_fitness"] == 0):
                problems.append(f"{where}: evaded disagrees with best_fitness {outcome['best_fitness']}")
            modified = set(outcome["modified"])
            if not modified <= controllable:
                problems.append(f"{where}: modified uncontrollable {sorted(modified - controllable)}")
            hit = modified & protected[outcome["attack_class"]]
            if hit:
                problems.append(f"{where}: modified protected {sorted(hit)}")
    return problems, queries


def failed_models(run_dir: Path, expected_models: set[str]) -> int:
    """Expected models that train_log.json does not record as fitted."""
    path = run_dir / "train_log.json"
    log = json.loads(path.read_text()) if path.exists() else {}
    return sum(1 for name in expected_models if log.get(name, {}).get("status") != "ok")
