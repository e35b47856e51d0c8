"""In-process spans around calls into pfcpbench's public functions.

``Tracer.install`` replaces module and class attributes with timing
wrappers and ``Tracer.uninstall`` puts the originals back; the program's
own files are not changed.  Spans are kept in memory as
``(id, name, start, end, parent, attrs)`` and turned into per-layer metrics
by ``layer_metrics``.
"""

from __future__ import annotations

import itertools
import os
import statistics
import time
from collections import defaultdict

import numpy as np

from pfcpbench import attack, cli, corpus, detectors, ensemble, evaluate, preprocess

DETECTOR_KINDS = tuple(kind.value for kind in detectors.DetectorKind)
PRESETS = tuple(ensemble.PRESETS)
ALGORITHMS = attack.ALGORITHMS
ROW_SCORED_KINDS = ("HBOS", "GMM")


def _model_name(model) -> str:
    return model.spec.name if isinstance(model, ensemble.EnsembleModel) else model.kind.value


def _rows(args, result) -> dict:
    return {"model": _model_name(args[0]), "rows": int(np.shape(args[1])[0])}


def _saved(args, result) -> dict:
    return {"model": _model_name(args[0]), "bytes": os.path.getsize(args[1])}


def _loaded(args, result) -> dict:
    return {"model": _model_name(result), "bytes": os.path.getsize(args[0])}


def _fit(args, result) -> dict:
    return {"model": args[0].kind.value}


def _grid(args, result) -> dict:
    return {"model": args[0].value}


def _ensemble_fit(args, result) -> dict:
    return {"model": args[0].name}


def _campaign(args, result) -> dict:
    return {
        "algorithm": args[4].algorithm,
        "queries": sum(o.queries_used for o in result),
        "evaded": sum(1 for o in result if o.evaded),
    }


# (owner, attribute, span name, attrs from (args, result), is a staticmethod)
TARGETS = (
    (corpus, "synth_benchmark_splits", "corpus.synth", None, False),
    (corpus, "save_csv", "corpus.save_csv", None, False),
    (corpus, "load_csv", "corpus.load_csv", None, False),
    (preprocess, "fit_pipeline", "preprocess.fit_pipeline", None, False),
    (preprocess, "transform", "preprocess.transform", None, False),
    (preprocess.PipelineModel, "load", "preprocess.pipeline_load", None, True),
    (detectors, "fit", "detectors.fit", _fit, False),
    (detectors, "grid_search", "detectors.grid_search", _grid, False),
    (detectors.DetectorModel, "score_batch", "detectors.score_batch", _rows, False),
    (detectors.DetectorModel, "save", "detectors.save", _saved, False),
    (ensemble, "fit_ensemble", "ensemble.fit", _ensemble_fit, False),
    (ensemble.EnsembleModel, "score_batch", "ensemble.score_batch", _rows, False),
    (ensemble.EnsembleModel, "save", "ensemble.save", _saved, False),
    (cli, "load_any_model", "cli.load_model", _loaded, False),
    (attack, "run_campaign", "attack.campaign", _campaign, False),
    (attack.QueryOracle, "fitness", "attack.fitness", None, False),
    (attack, "check_feasible", "attack.check", None, False),
    (attack, "check_compliant", "attack.check", None, False),
    (attack, "estimate_marginals", "attack.marginals", None, False),
    (evaluate, "metrics_row", "evaluate.metrics_row", None, False),
    (evaluate, "detection_matrix", "evaluate.detection_matrix", None, False),
    (evaluate, "emit_report", "evaluate.emit_report", None, False),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._saved: list[tuple] = []

    def span(self, name: str, fn, *args, attrs=None, **kwargs):
        """Call ``fn`` inside a span; ``attrs(args, result)`` adds attributes."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        self.spans.append((sid, name, start, end, parent, attrs(args, result) if attrs else None))
        return result

    def _wrapper(self, fn, name, attrs):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, attrs=attrs, **kwargs)

        return traced

    def install(self) -> None:
        for owner, attr, name, attrs, static in TARGETS:
            original = owner.__dict__[attr]
            fn = original.__func__ if static else original
            wrapper = self._wrapper(fn, name, attrs)
            setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run, 0 for unused layers."""
    by_id = {s[0]: s for s in spans}
    by_name: dict[str, list[tuple]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s[1]].append(s)
        if s[4] is not None:
            child_time[s[4]] += s[3] - s[2]

    def dur(s):
        return s[3] - s[2]

    def self_time(s):
        return dur(s) - child_time[s[0]]

    def stage_of(s):
        while s[4] is not None:
            s = by_id[s[4]]
        return s[1]

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur(s) for s in named(name))

    m: dict[str, float] = {
        "corpus.synth_s": total("corpus.synth"),
        "corpus.save_csv_s": total("corpus.save_csv"),
        "corpus.load_csv_s": total("corpus.load_csv"),
        "preprocess.fit_pipeline_s": total("preprocess.fit_pipeline"),
        "preprocess.transform_s": total("preprocess.transform"),
        "preprocess.pipeline_load_s": total("preprocess.pipeline_load"),
        "detectors.save_s": total("detectors.save"),
    }

    fits = [s for s in named("detectors.fit")
            if s[4] is None or by_id[s[4]][1] != "detectors.grid_search"]
    scores = named("detectors.score_batch")
    loads = named("cli.load_model")
    for kind in DETECTOR_KINDS:
        m[f"detectors.fit_s.{kind}"] = sum(dur(s) for s in fits if s[5]["model"] == kind)
        m[f"detectors.score_split_ms.{kind}"] = 1e3 * _median(
            [self_time(s) for s in scores
             if s[5]["model"] == kind and s[5]["rows"] > 1 and stage_of(s) == "cli.evaluate"]
        )
        m[f"detectors.load_s.{kind}"] = _median([dur(s) for s in loads if s[5]["model"] == kind])
        m[f"detectors.container_bytes.{kind}"] = float(
            max([s[5]["bytes"] for s in named("detectors.save") if s[5]["model"] == kind], default=0)
        )
    m["detectors.grid_search_s.HBOS"] = sum(
        dur(s) for s in named("detectors.grid_search") if s[5]["model"] == "HBOS"
    )
    for kind in ROW_SCORED_KINDS:
        m[f"detectors.score_row_us.{kind}"] = 1e6 * _median(
            [dur(s) for s in scores if s[5]["model"] == kind and s[5]["rows"] == 1]
        )

    ens_scores = named("ensemble.score_batch")
    for preset in PRESETS:
        m[f"ensemble.fit_s.{preset}"] = sum(
            dur(s) for s in named("ensemble.fit") if s[5]["model"] == preset
        )
        m[f"ensemble.score_split_ms.{preset}"] = 1e3 * _median(
            [self_time(s) for s in ens_scores
             if s[5]["model"] == preset and stage_of(s) == "cli.evaluate"]
        )
        m[f"ensemble.load_s.{preset}"] = _median([dur(s) for s in loads if s[5]["model"] == preset])
        m[f"ensemble.container_bytes.{preset}"] = float(
            max([s[5]["bytes"] for s in named("ensemble.save") if s[5]["model"] == preset], default=0)
        )

    # oracle work: score and check calls made inside QueryOracle.fitness
    fitness = named("attack.fitness")
    campaign_of = {s[0]: by_id[s[4]][5]["algorithm"] for s in fitness}
    oracle_scores = [s for s in scores if s[4] in campaign_of]
    checks = [s for s in named("attack.check") if s[4] in campaign_of]
    for algo in ALGORITHMS:
        campaigns = [s for s in named("attack.campaign") if s[5]["algorithm"] == algo]
        queries = sum(s[5]["queries"] for s in campaigns)
        evaded = sum(s[5]["evaded"] for s in campaigns)
        calls = [s for s in oracle_scores if campaign_of[s[4]] == algo]
        algo_fitness = [s for s in fitness if campaign_of[s[0]] == algo]
        m[f"attack.campaign_s.{algo}"] = sum(dur(s) for s in campaigns)
        m[f"attack.queries.{algo}"] = float(queries)
        m[f"attack.query_us.{algo}"] = 1e6 * sum(dur(s) for s in algo_fitness) / max(1, len(algo_fitness))
        m[f"attack.score_calls.{algo}"] = float(len(calls))
        m[f"attack.rows_per_call.{algo}"] = sum(s[5]["rows"] for s in calls) / max(1, len(calls))
        m[f"attack.evaded.{algo}"] = float(evaded)
        m[f"attack.queries_per_evasion.{algo}"] = queries / max(1, evaded)
    m["attack.check_us"] = 1e6 * sum(dur(s) for s in checks) / max(1, len(fitness))
    m["attack.marginals_s"] = total("attack.marginals")

    evaluate_spans = [s for s in spans if stage_of(s) == "cli.evaluate"]
    stage_ids = {s[0] for s in named("cli.evaluate")}
    m["evaluate.metrics_rows_s"] = sum(
        dur(s) for s in evaluate_spans
        if s[1] == "evaluate.metrics_row"
        or (s[1] in ("detectors.score_batch", "ensemble.score_batch") and s[4] in stage_ids)
    )
    m["evaluate.detection_matrix_s"] = sum(
        dur(s) for s in evaluate_spans if s[1] == "evaluate.detection_matrix"
    )
    m["evaluate.emit_report_s"] = sum(dur(s) for s in evaluate_spans if s[1] == "evaluate.emit_report")
    return m
