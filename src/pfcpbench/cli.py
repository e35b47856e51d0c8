"""Batch command-line surface: preprocess -> train -> evaluate -> attack -> report.

Every command is an idempotent writer into a content-addressed run
directory derived from the config with ``--seed`` applied, so re-running a
step with the same configuration reproduces byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from . import attack as attack_mod
from . import corpus as corpus_mod
from . import detectors as det_mod
from . import ensemble as ens_mod
from . import evaluate as eval_mod
from . import errors, preprocess
from .config import DetectorEntry, RunConfig, load_run_config
from .seeding import derive_seed
from .traffic import (
    ClassLabel, FeatureSchema, LabeledDataset, make_dir, read_container, write_json, write_text,
)

logger = logging.getLogger("pfcpbench")

EXIT_CODES = {
    errors.IoError: 2,
    errors.SchemaError: 3,
    errors.GuidelineViolation: 4,
    errors.FitError: 5,
    errors.PipelineError: 6,
    errors.GridSearchError: 7,
    errors.MetricError: 8,
    errors.MarginalsError: 9,
    errors.BudgetExhausted: 10,
    errors.ComplianceViolation: 11,
    errors.ConfigError: 12,
}

SPLIT_NAMES = ("train", "validation", "test")


def _schema_for(cfg: RunConfig) -> FeatureSchema:
    if cfg.schema == "default":
        return corpus_mod.default_schema()
    return FeatureSchema.load(cfg.schema)


def _synth_splits(cfg: RunConfig, schema: FeatureSchema) -> tuple[LabeledDataset, ...]:
    return corpus_mod.synth_benchmark_splits(
        seed=derive_seed(cfg.seed, "corpus"),
        schema=schema,
        scale=cfg.synth["scale"],
        noise_scale=cfg.synth["noise_scale"],
    )


def _raw_splits(cfg: RunConfig, run_dir: Path) -> tuple[LabeledDataset, ...]:
    """Raw splits: persisted corpus CSVs win, then split sources, then the
    synthetic generator."""
    schema = _schema_for(cfg)
    corpus_dir = run_dir / "corpus"
    csvs = [corpus_dir / f"{name}.csv" for name in SPLIT_NAMES]
    if all(p.exists() for p in csvs):
        return tuple(corpus_mod.load_csv(p, schema) for p in csvs)
    if cfg.splits is not None:
        return corpus_mod.build_splits(cfg.splits, schema)
    return _synth_splits(cfg, schema)


def cmd_synth(cfg: RunConfig) -> int:
    if cfg.synth is None:
        raise errors.ConfigError("synth command needs corpus.synth in the config")
    run_dir = cfg.run_dir()
    corpus_dir = make_dir(run_dir / "corpus")
    splits = _synth_splits(cfg, _schema_for(cfg))
    for name, ds in zip(SPLIT_NAMES, splits):
        corpus_mod.save_csv(ds, corpus_dir / f"{name}.csv", seed=cfg.seed)
        logger.info("wrote %s (%d rows)", corpus_dir / f"{name}.csv", len(ds))
    print(run_dir)
    return 0


def cmd_preprocess(cfg: RunConfig) -> int:
    run_dir = make_dir(cfg.run_dir())
    train, validation, test = _raw_splits(cfg, run_dir)
    model = preprocess.fit_pipeline(
        train, scaling_enabled=cfg.scaling, gt1_patterns=cfg.gt1_patterns
    )
    model.save(run_dir / "pipeline.json")
    out_dir = make_dir(run_dir / "preprocessed")
    for name, ds in zip(SPLIT_NAMES, (train, validation, test)):
        transformed = preprocess.transform(model, ds)
        corpus_mod.save_csv(transformed, out_dir / f"{name}.csv", seed=cfg.seed)
    write_json(run_dir / "drop_report.json", dict(sorted(model.drop_report.items())), indent=2)
    logger.info(
        "pipeline kept %d features, dropped %d", len(model.output_schema), len(model.drop_report)
    )
    print(run_dir)
    return 0


def _load_preprocessed(
    run_dir: Path, names: tuple[str, ...]
) -> tuple[preprocess.PipelineModel, dict[str, LabeledDataset]]:
    """The fitted pipeline and the preprocessed splits named in ``names``."""
    pipeline_path = run_dir / "pipeline.json"
    if not pipeline_path.exists():
        raise errors.ConfigError(f"{pipeline_path} missing; run the preprocess command first")
    model = preprocess.PipelineModel.load(pipeline_path)
    splits = {}
    for name in names:
        path = run_dir / "preprocessed" / f"{name}.csv"
        if not path.exists():
            raise errors.ConfigError(f"{path} missing; run the preprocess command first")
        splits[name] = corpus_mod.load_csv(path, model.output_schema)
    return model, splits


def cmd_train(cfg: RunConfig) -> int:
    run_dir = cfg.run_dir()
    _, splits = _load_preprocessed(run_dir, ("train", "validation"))
    train, validation = splits["train"], splits["validation"]
    models_dir = make_dir(run_dir / "models")
    # models/ holds what this training fits and nothing an earlier one left
    _remove(path for path in models_dir.iterdir()
            if path.suffix == ".json" or det_mod.is_array_file(path.name))
    train_log: dict[str, dict] = {}

    fitted: dict[det_mod.DetectorKind, det_mod.DetectorModel] = {}
    entries = {entry.kind: entry for entry in cfg.detectors}
    # ensembles pull in any missing base kinds automatically
    for name in cfg.ensembles:
        for kind in ens_mod.PRESETS[name].base_kinds:
            entries.setdefault(kind, DetectorEntry(kind=kind))

    for kind, entry in entries.items():
        label = kind.value
        try:
            seed = derive_seed(cfg.seed, "fit", label)
            extra = {}  # a grid search's per-candidate log
            if entry.grid:
                model, extra["grid"] = det_mod.grid_search(
                    kind, entry.grid, train, validation,
                    contamination=entry.contamination, seed=seed,
                )
            else:
                config = det_mod.DetectorConfig(
                    kind=kind, params=entry.params, contamination=entry.contamination
                )
                model = det_mod.fit(config, train, seed=seed)
            model.save(models_dir / f"{label}.json")
            fitted[kind] = model
            train_log[label] = {"status": "ok", "params": model.config.params, "tau": model.tau,
                                **extra}
            logger.info("fitted %s (tau=%.6g)", label, model.tau)
        except errors.PfcpBenchError as exc:
            train_log[label] = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
            logger.error("%s failed: %s", label, exc)

    V = validation.matrix
    columns: dict[det_mod.DetectorKind, np.ndarray] = {}  # each base scored once on validation
    for name in cfg.ensembles:
        spec = ens_mod.PRESETS[name]
        try:
            bases = [fitted[kind] for kind in spec.base_kinds]
        except KeyError as exc:
            train_log[name] = {"status": "error", "error": f"missing base {exc}"}
            continue
        try:
            for base in bases:
                if base.kind not in columns:
                    columns[base.kind] = base.score_batch(V)
            model = ens_mod.fit_ensemble(
                spec, bases, validation, np.column_stack([columns[k] for k in spec.base_kinds])
            )
            model.save(models_dir / f"{name}.json")
            train_log[name] = {"status": "ok", "train_accuracy": model.train_accuracy}
            logger.info("fitted ensemble %s (train acc %.4f)", name, model.train_accuracy)
        except errors.PfcpBenchError as exc:
            train_log[name] = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
            logger.error("ensemble %s failed: %s", name, exc)

    write_json(run_dir / "train_log.json", train_log, indent=2)
    print(run_dir)
    return 0


def _remove(paths: Iterable[Path]) -> None:
    """Delete each file of ``paths`` that exists, an earlier run's output
    that a stage writes afresh; ``IoError`` when one cannot be deleted."""
    for path in list(paths):
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            raise errors.IoError(f"cannot remove {path}: {exc}") from exc


def load_any_model(path: Path, loaded: dict | None = None):
    """Load a detector or ensemble container, parsing it once.

    ``loaded`` maps container paths to (sha256, detector) for detectors
    already read, and array files to (sha256, bytes).  A detector read here
    is added to it, and a container takes its bases and array files from
    it before reading them from disk.
    """
    loaded = {} if loaded is None else loaded
    doc, digest = read_container(path)
    fmt = doc.get("format")
    if fmt == det_mod.DETECTOR_FORMAT:
        model = det_mod.DetectorModel.from_json_dict(doc, path.parent, loaded)
        loaded[path] = (digest, model)
        return model
    if fmt == ens_mod.ENSEMBLE_FORMAT:
        return ens_mod.EnsembleModel.from_json_dict(doc, path.parent, loaded)
    raise errors.SchemaError(f"{path}: unknown model container format {fmt!r}")


def _trained_models(run_dir: Path, names: tuple[str, ...] | None) -> list[tuple[str, object]]:
    models_dir = run_dir / "models"
    if not models_dir.exists():
        raise errors.ConfigError(f"{models_dir} missing; run the train command first")
    paths = [
        path for path in sorted(models_dir.glob("*.json")) if names is None or path.stem in names
    ]
    # detectors first, so that each ensemble finds its bases already loaded
    loaded: dict = {}
    models = {
        path.stem: load_any_model(path, loaded)
        for path in sorted(paths, key=lambda path: path.stem in ens_mod.PRESETS)
    }
    if names:
        for name in sorted(set(names) - set(models)):
            logger.warning("model %s not found, skipped", name)
    return [(path.stem, models[path.stem]) for path in paths]


def cmd_evaluate(cfg: RunConfig) -> int:
    run_dir = cfg.run_dir()
    pipeline, splits = _load_preprocessed(run_dir, ("test",))
    test = splits["test"]
    models = _trained_models(run_dir, None)
    if not models:
        raise errors.ConfigError("no trained models to evaluate")
    y = np.array([lab is not ClassLabel.NORMAL for lab in test.labels], dtype=bool)
    scores = eval_mod.score_models(models, test.matrix)
    scaled = pipeline.scaler is not None
    metrics = [
        eval_mod.metrics_row(name, s, y, model.tau, scaled)
        for (name, model), s in zip(models, scores)
    ]
    eval_mod.emit_report("metrics", metrics, run_dir)
    matrix = eval_mod.detection_matrix(models, scores, test)
    eval_mod.emit_report("detection_matrix", matrix, run_dir, csv_only=True)
    print(run_dir)
    return 0


def cmd_attack(cfg: RunConfig) -> int:
    run_dir = cfg.run_dir()
    from_train = cfg.marginals_source == "train"
    pipeline, splits = _load_preprocessed(run_dir, ("test", "train") if from_train else ("test",))
    test = splits["test"]
    attack_rows = test.subset(
        np.array([lab is not ClassLabel.NORMAL for lab in test.labels], dtype=bool)
    )
    models = _trained_models(run_dir, cfg.attack_targets)
    if not models:
        raise errors.ConfigError("no trained models to attack")
    specs = {
        kind: attack_mod.scale_compliance(spec, pipeline)
        for kind, spec in attack_mod.DEFAULT_COMPLIANCE_RULES.items()
    }
    feasible = attack_mod.load_feasible_sets(cfg.j_config, attack_rows.schema, specs)
    marginals_source = splits["train"] if from_train else attack_rows
    scaled = pipeline.scaler is not None
    # campaigns and evasion table of an earlier attack
    _remove([*run_dir.glob("campaign-*.jsonl"), run_dir / "evasion.json", run_dir / "evasion.csv"])

    rows = []
    for name, model in models:
        for algorithm in cfg.algorithms:
            attack_cfg = dataclasses.replace(
                cfg.attack, algorithm=algorithm, seed=derive_seed(cfg.seed, "campaign", name)
            )
            outcomes = attack_mod.run_campaign(
                model, attack_rows, feasible, specs, attack_cfg, marginals_source
            )
            attack_mod.write_outcomes_jsonl(
                outcomes,
                attack_rows.schema,
                run_dir / f"campaign-{name}-{algorithm}.jsonl",
                include_trace=cfg.include_traces,
            )
            rows.append(eval_mod.evasion_row(name, algorithm, scaled, outcomes))
            logger.info(
                "%s vs %s: %d/%d evaded", algorithm, name, rows[-1]["n_evaded"], len(outcomes)
            )
    eval_mod.emit_report("evasion", rows, run_dir, columns=eval_mod.EVASION_COLUMNS)
    print(run_dir)
    return 0


def cmd_report(cfg: RunConfig) -> int:
    """Consolidate evaluate/attack outputs under report/, which mirrors the
    run directory's tables: a table absent there is removed here too."""
    run_dir = cfg.run_dir()
    report_dir = make_dir(run_dir / "report")
    found = False
    for name in eval_mod.REPORT_FILES:
        src = run_dir / name
        if src.exists():
            write_text(report_dir / name, src.read_text())
            found = True
        else:
            logger.warning("%s not present yet", src)
            _remove([report_dir / name])
    if not found:
        raise errors.ConfigError("nothing to report; run evaluate and/or attack first")
    print(report_dir)
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "attack": cmd_attack,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfcpbench",
        description="Train, evaluate, and adversarially stress-test PFCP anomaly detectors.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="run-config JSON document")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="override the output root directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args.config, {"seed": args.seed, "out": args.out})
        return COMMANDS[args.command](cfg)
    except errors.PfcpBenchError as exc:
        code = EXIT_CODES.get(type(exc), 1)
        print(f"error[{type(exc).__name__}] {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
