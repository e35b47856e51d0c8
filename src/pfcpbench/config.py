"""Declarative run configuration.

One JSON document drives the whole batch pipeline; a single master seed
fans out to every stochastic component, and the canonical config hash
names the run directory so re-runs are idempotent.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .attack import ALGORITHMS, AttackConfig
from .corpus import DEFAULT_LABEL_COLUMN, SplitSource, SplitSpec
from .detectors import DEFAULT_CONTAMINATION, DetectorKind
from .ensemble import PRESETS
from .errors import ConfigError, SchemaError
from .preprocess import DEFAULT_GT1_PATTERNS
from .traffic import ClassLabel

# corpus.synth values a config leaves out; a config without a corpus section
# synthesizes at these.
_SYNTH_DEFAULTS = {"scale": 0.1, "noise_scale": 1.0}


def parse_algorithm(name: str) -> str:
    """The algorithm ``name`` spells, in any case and with ``-`` for ``_``."""
    key = name.strip().upper().replace("-", "_")
    if key in ALGORITHMS:
        return key
    raise ConfigError(f"unknown attack algorithm {name!r}")


@dataclass(frozen=True)
class DetectorEntry:
    kind: DetectorKind
    params: dict = field(default_factory=dict)
    grid: dict | None = None
    contamination: float = DEFAULT_CONTAMINATION


@dataclass(frozen=True)
class RunConfig:
    seed: int
    out: str
    schema: str  # "default" or a schema JSON path
    synth: dict | None  # {"scale": float, "noise_scale": float}, defaults applied
    splits: SplitSpec | None
    scaling: bool
    gt1_patterns: tuple[str, ...]
    detectors: tuple[DetectorEntry, ...]
    ensembles: tuple[str, ...]
    algorithms: tuple[str, ...]
    attack: AttackConfig  # popsize, budget and rs_retries; each campaign sets algorithm and seed
    attack_targets: tuple[str, ...] | None  # None = every trained model
    j_config: str | None
    marginals_source: str  # "train" or "attack"
    include_traces: bool
    raw: dict = field(compare=False, default_factory=dict)

    def run_hash(self) -> str:
        """Digest of the run's content: the config without its output root,
        which is a deployment path, so any spelling of it finds the run."""
        doc = {key: value for key, value in self.raw.items() if key != "out"}
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def run_dir(self) -> Path:
        return Path(self.out) / f"run-{self.run_hash()}"


def _parse_sources(entries: Sequence[dict]) -> tuple[SplitSource, ...]:
    out = []
    for entry in entries:
        include = entry.get("include")
        out.append(
            SplitSource(
                path=entry["path"],
                include=None if include is None else tuple(_class_label(v) for v in include),
                label_column=entry.get("label_column", DEFAULT_LABEL_COLUMN),
            )
        )
    return tuple(out)


def _detector_kind(name: str) -> DetectorKind:
    try:
        return DetectorKind.parse(name)
    except SchemaError:
        known = [kind.value for kind in DetectorKind]
        raise ConfigError(f"detectors: unknown kind {name!r} (have {known})") from None


def _class_label(value: str) -> ClassLabel:
    try:
        return ClassLabel(value)
    except ValueError:
        known = [label.value for label in ClassLabel]
        raise ConfigError(f"corpus.splits: unknown class {value!r} (have {known})") from None


def read_config(path: str | Path) -> dict:
    """The run-config document: a JSON object read from ``path``, whose
    sections, lists and numbers have the types the parser expects."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    _check_shape(doc, _SHAPE, "", path)
    return doc


# What a run config may hold: objects with their fields, lists with the shape
# of their items, and value types, where a float field takes integers too.
# An object may hold no other field, except one whose shape is ``dict``,
# which may hold any.  Any field may be absent except those named in
# _REQUIRED; those named in _NULLABLE may also be null.
_SOURCES = [{"path": str, "include": [str], "label_column": str}]
_SHAPE = {
    "seed": int,
    "out": str,
    "schema": str,
    "corpus": {"synth": {"scale": float, "noise_scale": float},
               "splits": {"train": _SOURCES, "validation": _SOURCES, "test": _SOURCES}},
    "pipeline": {"scaling": bool, "gt1_patterns": [str]},
    "detectors": [{"kind": str, "params": dict, "grid": dict, "contamination": float}],
    "ensembles": [str],
    "attack": {"algorithms": [str], "targets": [str], "j_config": str, "marginals": str,
               "budget": int, "popsize": int, "rs_retries": int, "include_traces": bool},
}
_REQUIRED = {"path"}
_NULLABLE = {"synth", "splits", "include", "gt1_patterns", "targets", "j_config", "grid"}
_TYPE_NAMES = {dict: "an object", list: "a list", int: "an integer", float: "a number",
               str: "a string", bool: "true or false"}


def _check_shape(value, shape, name: str, path: Path) -> None:
    expected = type(shape) if isinstance(shape, (dict, list)) else shape
    where = name or "the top level"
    if type(value) not in ((int, float) if expected is float else (expected,)):
        raise ConfigError(f"{path}: {where} must be {_TYPE_NAMES[expected]}, got {value!r}")
    if isinstance(shape, dict):
        unknown = sorted(set(value) - set(shape))
        if unknown:
            raise ConfigError(f"{path}: {where} has unknown fields {unknown}")
        absent = sorted(_REQUIRED & set(shape) - set(value))
        if absent:
            raise ConfigError(f"{path}: {where} needs the fields {absent}")
        for key, inner in shape.items():
            if key in value and not (value[key] is None and key in _NULLABLE):
                _check_shape(value[key], inner, f"{name}.{key}" if name else key, path)
    elif isinstance(shape, list):
        for i, item in enumerate(value):
            _check_shape(item, shape[0], f"{name}[{i}]", path)


def _check_distinct(names: Sequence[str], field: str) -> None:
    """A repeated name would fit a model or run a campaign twice, or keep
    only the last of two detector entries."""
    repeats = sorted({name for name in names if names.count(name) > 1})
    if repeats:
        raise ConfigError(f"{field} repeats {repeats}")


def load_run_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Read, parse and validate the run-config document at ``path``."""
    return parse_run_config(read_config(path), overrides)


def parse_run_config(doc: dict, overrides: dict | None = None) -> RunConfig:
    """Validate a run-config document as ``read_config`` returns it, with
    each field of ``overrides`` that is not None set over the document's.

    The CLI overrides only ``seed`` and ``out``; a seed becomes part of the
    canonical config and so names a different run directory.
    """
    doc = dict(doc)
    for key, value in (overrides or {}).items():
        if value is not None:
            doc[key] = value

    seed = doc.get("seed", 42)
    out = str(doc.get("out", "runs"))
    schema = str(doc.get("schema", "default"))
    if schema != "default" and not Path(schema).exists():
        raise ConfigError(f"schema file {schema} does not exist")

    corpus_doc = doc.get("corpus", {"synth": {}})
    synth = corpus_doc.get("synth")
    splits = None
    if corpus_doc.get("splits"):
        sdoc = corpus_doc["splits"]
        splits = SplitSpec(
            train_sources=_parse_sources(sdoc.get("train", [])),
            val_sources=_parse_sources(sdoc.get("validation", [])),
            test_sources=_parse_sources(sdoc.get("test", [])),
        )
        for sources in (splits.train_sources, splits.val_sources, splits.test_sources):
            for src in sources:
                if not Path(src.path).exists():
                    raise ConfigError(f"split source {src.path} does not exist")
    if synth is None and splits is None:
        raise ConfigError("config needs corpus.synth or corpus.splits")
    if synth is not None:
        synth = {key: float(synth.get(key, default)) for key, default in _SYNTH_DEFAULTS.items()}
        for key, value in synth.items():
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"corpus.synth.{key} must be a finite number > 0, got {value!r}")

    pipeline_doc = doc.get("pipeline", {})
    scaling = pipeline_doc.get("scaling", True)
    patterns = pipeline_doc.get("gt1_patterns")

    detectors = []
    for entry in doc.get("detectors", []):
        detectors.append(
            DetectorEntry(
                kind=_detector_kind(entry.get("kind", "")),
                params=dict(entry.get("params", {})),
                grid=entry.get("grid"),
                contamination=float(entry.get("contamination", DEFAULT_CONTAMINATION)),
            )
        )

    _check_distinct([entry.kind.value for entry in detectors], "detectors")
    ensembles = tuple(doc.get("ensembles", []))
    _check_distinct(ensembles, "ensembles")
    for name in ensembles:
        if name not in PRESETS:
            raise ConfigError(f"unknown ensemble preset {name!r} (have {sorted(PRESETS)})")

    attack_doc = doc.get("attack", {})
    algorithms = tuple(parse_algorithm(a) for a in attack_doc.get("algorithms", ALGORITHMS))
    _check_distinct(algorithms, "attack.algorithms")
    j_config = attack_doc.get("j_config")
    if j_config is not None and not Path(j_config).exists():
        raise ConfigError(f"feasible-set config {j_config} does not exist")
    marginals_source = attack_doc.get("marginals", "train")
    if marginals_source not in ("train", "attack"):
        raise ConfigError("attack.marginals must be 'train' or 'attack'")
    targets = attack_doc.get("targets")
    attack = AttackConfig(**{key: attack_doc[key] for key in ("popsize", "budget", "rs_retries")
                             if key in attack_doc})

    return RunConfig(
        seed=seed,
        out=out,
        schema=schema,
        synth=synth,
        splits=splits,
        scaling=scaling,
        gt1_patterns=tuple(DEFAULT_GT1_PATTERNS if patterns is None else patterns),
        detectors=tuple(detectors),
        ensembles=ensembles,
        algorithms=algorithms,
        attack=attack,
        attack_targets=None if targets is None else tuple(targets),
        j_config=j_config,
        marginals_source=marginals_source,
        include_traces=attack_doc.get("include_traces", False),
        raw=doc,
    )
