#!/usr/bin/env python3
"""Benchmark harness for the pfcpbench CLI.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--scale F]

Without ``--workload`` every workload runs in turn.  ``--trace 0`` runs the
real CLI stages (synth, preprocess, train, evaluate, attack, report) as
subprocesses, repeats the whole pipeline for ``--seconds`` and reports the
median of each end-to-end metric.  ``--trace 1`` runs the pipeline once that
way, then again in process with spans around calls into each module, and
reports per-layer metrics; the spans of the last traced run are written to
``perfbench/traces/``.  Every run writes under a fresh temporary output root
in the checkout and removes it afterwards.

Each pipeline's outputs are checked (stage exit codes, report files,
campaign budget, evasion and feasibility invariants) and digested; digests
must agree across every run of a workload.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import logging
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
from workloads import DEFAULT_SCALE, ROOT, SHIPPED_CONFIG, WORKLOADS, model_names, workload_config

SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"
STAGES = ("synth", "preprocess", "train", "evaluate", "attack", "report")
# One BLAS thread: timings then do not depend on what else shares the cores,
# and both sides of a comparison run the same setting.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0  # a run ends well inside 180 s, whatever --seconds says
# What reference_work() took on the shared 2-core Xeon VM the bounds were set on.
REFERENCE_S = 0.07

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "evaluate_s": "s",
    "attack_fixed_s": "s",
    "attack_query_us": "us",
    "peak_rss_mb": "MB",
    "models_mb": "MB",
}
# Printed with the end-to-end metrics but not part of the result object.
# Across seeds the attack and total times swing with how many samples evade,
# so attack_fixed_s and attack_query_us stand in for them; failed_ops_frac
# is 0 on a healthy run and is carried by the result's failed/attempted;
# reference_s is the raw time of reference_work() during the run.
PRINTED_ONLY = {
    "reference_s": "s",
    "attack_s": "s",
    "report_s": "s",
    "total_s": "s",
    "attack_queries_per_s": "1/s",
    "failed_ops_frac": "frac",
}
LAYER_UNITS = {
    "synth_s": "s", "save_csv_s": "s", "load_csv_s": "s", "fit_pipeline_s": "s",
    "transform_s": "s", "pipeline_load_s": "s", "fit_s": "s", "grid_search_s": "s",
    "save_s": "s", "load_s": "s", "campaign_s": "s", "marginals_s": "s",
    "metrics_rows_s": "s", "detection_matrix_s": "s", "emit_report_s": "s", "import_s": "s",
    "score_split_ms": "ms", "score_row_us": "us", "query_us": "us", "check_us": "us",
    "container_bytes": "bytes", "queries": "count", "score_calls": "count", "evaded": "count",
    "rows_per_call": "rows", "queries_per_evasion": "queries", "overhead_frac": "frac",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS[name.split(".")[1]]


class Pipeline:
    """Runs one workload's CLI stages under a temporary output root."""

    def __init__(self, workload, seed: int, scale: float, tmp: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.doc = workload_config(workload, scale)
        self.config = tmp / "config.json"
        self.config.write_text(json.dumps(self.doc, indent=2))
        self.probe_config = tmp / "probe.json"
        self.probe_config.write_text(json.dumps(workload_config(workload, scale, budget=1)))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.expected_models = model_names(self.doc)
        self.budget = self.doc["attack"]["budget"]

    def run_dir(self, config: Path, out: Path) -> Path:
        from pfcpbench.config import load_run_config

        return load_run_config(config, {"seed": self.seed, "out": str(out)}).run_dir()

    def stage(self, stage: str, config: Path, out: Path) -> tuple[int, float, int]:
        """Run one CLI stage; returns (exit code, wall seconds, peak RSS in KiB)."""
        argv = [sys.executable, "-m", "pfcpbench.cli", stage, "--config", str(config),
                "--seed", str(self.seed), "--out", str(out)]
        log_path = out.parent / f"{out.name}-{config.stem}-{stage}.log"
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log_path.read_text(errors="replace")[-2000:]
            print(f"# {self.workload.name}: {stage} exited {proc.returncode}\n{tail}", file=sys.stderr)
        return proc.returncode, elapsed, usage.ru_maxrss

    def check_campaigns(self, run_dir: Path, budget: int) -> tuple[list[str], int]:
        """Campaign invariants under the program's threat model, and total queries."""
        from pfcpbench.attack import DEFAULT_COMPLIANCE_RULES, DEFAULT_CONTROLLABLE_FEATURES

        protected = {k.value: spec.protected for k, spec in DEFAULT_COMPLIANCE_RULES.items()}
        problems, queries = checks.check_campaigns(
            run_dir, budget, frozenset(DEFAULT_CONTROLLABLE_FEATURES), protected
        )
        if not checks.campaign_files(run_dir):
            problems.append(f"no campaign files in {run_dir.name}")
        return problems, queries

    def untraced(self, rep: int) -> dict:
        out = self.tmp / f"rep{rep}"
        times, raw, rss, failed = {}, {}, 0, 0
        refs = [reference_work()]

        def timed_stage(name, stage, config):
            code, raw[name], kib = self.stage(stage, config, out)
            refs.append(reference_work())
            times[name] = raw[name] * REFERENCE_S / ((refs[-2] + refs[-1]) / 2)
            return code, kib

        for stage in STAGES:
            code, kib = timed_stage(stage, stage, self.config)
            rss = max(rss, kib)
            failed += code != 0
        run_dir = self.run_dir(self.config, out)

        # The same attack stage at budget 1 does all the per-stage work
        # (interpreter start, loading splits and the target, marginals,
        # initial scoring, writing outcomes) but almost no oracle queries.
        probe_dir = self.run_dir(self.probe_config, out)
        probe_dir.mkdir(parents=True, exist_ok=True)
        for name in ("pipeline.json", "preprocessed", "models"):
            src = run_dir / name
            if src.is_dir():
                shutil.copytree(src, probe_dir / name)
            elif src.exists():
                shutil.copy2(src, probe_dir / name)
        code, _ = timed_stage("probe", "attack", self.probe_config)
        failed += code != 0

        problems = checks.check_report(run_dir, self.expected_models)
        found, queries = self.check_campaigns(run_dir, self.budget)
        problems += found
        found, probe_queries = self.check_campaigns(probe_dir, 1)
        problems += found
        failed += checks.failed_models(run_dir, self.expected_models)
        attempted = len(STAGES) + 1 + len(self.expected_models)

        models = run_dir / "models"
        models_bytes = sum(p.stat().st_size for p in models.glob("*")) if models.exists() else 0
        marginal = times["attack"] - times["probe"]
        metrics = {
            "setup_s": times["synth"] + times["preprocess"],
            "train_s": times["train"],
            "evaluate_s": times["evaluate"],
            "attack_fixed_s": times["probe"],
            "attack_query_us": 1e6 * marginal / max(1, queries - probe_queries),
            "peak_rss_mb": rss * 1024 / 1e6,
            "models_mb": models_bytes / 1e6,
            "attack_s": times["attack"],
            "report_s": times["report"],
            "total_s": sum(times[stage] for stage in STAGES),
            "attack_queries_per_s": queries / times["attack"],
            "failed_ops_frac": failed / attempted,
            "reference_s": statistics.median(refs),
        }
        return {
            "metrics": metrics,
            "raw_total_s": sum(raw[stage] for stage in STAGES),
            "digest": checks.digest(run_dir),
            "problems": problems,
            "attempted": attempted,
            "failed": failed,
        }

    def traced(self, rep: int) -> dict:
        from pfcpbench import cli
        from tracing import Tracer, layer_metrics

        out = self.tmp / f"traced{rep}"
        argv = ["--config", str(self.config), "--seed", str(self.seed), "--out", str(out)]
        failed = 0

        def call(stage):
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    return cli.main([stage, *argv])
            except Exception as exc:  # a crashing stage is counted, later stages still run
                print(f"# {self.workload.name}: traced {stage} raised {exc!r}", file=sys.stderr)
                return 1

        tracer = Tracer()
        tracer.install()
        try:
            for stage in STAGES:
                failed += tracer.span(f"cli.{stage}", call, stage) != 0
        finally:
            tracer.uninstall()
        run_dir = self.run_dir(self.config, out)
        problems = checks.check_report(run_dir, self.expected_models)
        problems += self.check_campaigns(run_dir, self.budget)[0]
        failed += checks.failed_models(run_dir, self.expected_models)
        stage_s = sum(s[3] - s[2] for s in tracer.spans if s[1].startswith("cli."))
        return {
            "metrics": layer_metrics(tracer.spans),
            "stage_s": stage_s,
            "spans": tracer.spans,
            "digest": checks.digest(run_dir),
            "problems": problems,
            "attempted": len(STAGES) + len(self.expected_models),
            "failed": failed,
        }


def reference_work() -> float:
    """Seconds that a fixed mix of interpreter and numpy work takes now.

    On a shared machine, everything runs 20-30% faster or slower for tens of
    seconds at a time.  Each stage's wall time is rescaled by this reference,
    timed just before and after the stage on the same CPU, to the speed at
    which the reference takes REFERENCE_S.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    a = np.arange(20_000, dtype=float).reshape(200, 100)
    for _ in range(150):
        total += float((a @ a.T).sum())
    return time.perf_counter() - start


def import_seconds(env: dict) -> float:
    """Wall time of a fresh interpreter importing pfcpbench.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import pfcpbench.cli"], env=env, cwd=ROOT, timeout=60)
    return time.perf_counter() - start


def blas_threads_in_effect() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import numpy  # noqa: F401  loads the BLAS library

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads_in_effect(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def median_metrics(reps: list[dict]) -> dict[str, float]:
    return {name: statistics.median(r["metrics"][name] for r in reps) for name in reps[0]["metrics"]}


def run_workload(workload, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        pipeline = Pipeline(workload, seed, scale, tmp, deadline)
        # also fills the bytecode cache, so the first measured stage is not slower
        import_s = statistics.median(import_seconds(pipeline.env) for _ in range(3))
        reference_work()  # the first call pays numpy's and BLAS's start-up

        def more(reps):
            if not reps:
                return True
            elapsed = time.monotonic() - started
            per_rep = elapsed / len(reps)
            return elapsed + per_rep / 2 < seconds and time.monotonic() + per_rep < deadline

        untraced = [pipeline.untraced(0)]
        while not trace and more(untraced):
            untraced.append(pipeline.untraced(len(untraced)))
        traced = []
        while trace and more(traced):
            traced.append(pipeline.traced(len(traced)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    reps = untraced + traced
    problems = [p for r in reps for p in r["problems"]]
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        problems.append(f"outputs differ between runs of the same seed: {sorted(digests)}")
    summary = median_metrics(untraced)
    measured = traced if trace else untraced
    ranges = {name: (min(r["metrics"][name] for r in measured), max(r["metrics"][name] for r in measured))
              for name in measured[0]["metrics"]}
    if trace:
        metrics = median_metrics(traced)
        metrics["cli.import_s"] = import_s
        traced_total = statistics.median(r["stage_s"] for r in traced) + len(STAGES) * import_s
        metrics["trace.overhead_frac"] = traced_total / untraced[0]["raw_total_s"] - 1.0
        units = {name: layer_unit(name) for name in metrics}
        write_spans(workload.name, seed, traced[-1]["spans"])
    else:
        metrics = summary
        units = {**END_TO_END, **PRINTED_ONLY}
    return {
        "workload": workload.name,
        "runs": len(reps),
        "digests": sorted(digests),
        "ranges": ranges,
        "problems": problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def write_spans(workload: str, seed: int, spans: list[tuple]) -> None:
    TRACE_DIR.mkdir(exist_ok=True)
    t0 = min(s[2] for s in spans)
    rows = [[sid, name, start - t0, end - t0, parent, attrs]
            for sid, name, start, end, parent, attrs in spans]
    path = TRACE_DIR / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps({"fields": ["id", "name", "start_s", "end_s", "parent", "attrs"],
                                "spans": rows}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=42, help="corpus and pipeline seed")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="repeat the pipeline until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from an in-process traced run")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="synthetic corpus scale (the shipped config uses 0.25)")
    args = parser.parse_args(argv)

    if not (SRC / "pfcpbench" / "cli.py").exists() or not SHIPPED_CONFIG.exists():
        print(f"error: {SRC / 'pfcpbench'} or {SHIPPED_CONFIG} missing; run from a "
              "pfcpbench checkout", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception: the running stage is killed and
    # reaped, and the temporary output root removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy loads, here and in every stage
    sys.path.insert(0, str(SRC))
    root_logger = logging.getLogger()
    root_logger.setLevel(logging.INFO)  # the CLI's own level; records go nowhere
    root_logger.addHandler(logging.NullHandler())

    env = environment()
    # One CPU for the harness and every stage it starts, so reference_work()
    # runs on the core whose speed it stands for.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), args.scale)
               for n in names]

    for res in results:
        print(f"# {res['workload']} seed={args.seed} runs={res['runs']} trace={args.trace} "
              f"digest={','.join(res['digests'])}  (median [min, max] over the measured runs)")
        for name, m in res["metrics"].items():
            low, high = res["ranges"].get(name, (m["value"], m["value"]))
            print(f"#   {name:<40} {m['value']:>12.6g} [{low:.6g}, {high:.6g}] {m['unit']}")
        for problem in res["problems"]:
            print(f"#   FAIL {problem}")
    print("# env " + json.dumps(env, sort_keys=True))

    keep = set(END_TO_END) if not args.trace else None
    metrics = {}
    for res in results:
        for name, m in res["metrics"].items():
            if keep is None or name in keep:
                metrics[name if len(results) == 1 else f"{res['workload']}/{name}"] = m
    correct = not any(res["problems"] for res in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
