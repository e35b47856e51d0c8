"""Black-box evasion engine.

An attacker who can observe detector scores and the threshold, but nothing
else, perturbs only a feasible index set J of an initially-detected attack
sample, sampling replacement values from empirical marginals of observable
traffic.  Every queried candidate must be feasible (untouched outside J,
in-domain inside J) and compliant (protected fields intact, class
predicates holding), and each sample has a strict oracle-query budget.

Three optimizers solve the resulting positive-part minimization: a
single-draw random search and two genetic variants, one built on
differential mutation with two-point crossover and one on recombination
plus per-gene resampling.  Optimizers are generators that only propose
candidates; ``attack_sample`` alone queries the oracle and spends budget.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Generator, Mapping, Sequence

import numpy as np

from .errors import (
    BudgetExhausted,
    ComplianceViolation,
    ConfigError,
    MarginalsError,
    SchemaError,
)
from .preprocess import PipelineModel
from .seeding import rng_for
from .traffic import (
    ATTACK_LABELS,
    CATEGORICAL,
    ClassLabel,
    CategoricalDomain,
    FeatureSchema,
    LabeledDataset,
    NumericDomain,
)

logger = logging.getLogger(__name__)

RS = "RS"
GA_DE = "GA_DE"
GA_ES = "GA_ES"
ALGORITHMS = (RS, GA_DE, GA_ES)

_RELATIONS: dict[str, Callable[[float, float], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


@dataclass(frozen=True)
class ComplianceSpec:
    """Protocol-compliance contract of one attack class.

    ``protected`` fields must keep their original values; ``predicates``
    are (feature, relation, value) triples that must hold on every
    candidate.  Values live in the same representation as the vectors
    being checked (categorical values are domain labels).  Predicates may
    name protected fields only, so a candidate that keeps its protected
    fields keeps the class predicates of its original.
    """

    attack_class: ClassLabel
    protected: frozenset[str]
    predicates: tuple[tuple[str, str, object], ...]

    def __post_init__(self):
        for name, relation, _ in self.predicates:
            if relation not in _RELATIONS:
                raise SchemaError(f"unknown predicate relation {relation!r}")
            if name not in self.protected:
                raise SchemaError(
                    f"{self.attack_class.value}: predicate field {name!r} is not protected"
                )


# Raw-space compliance rules matching the synthetic attack generator: the
# predicate fields carry each class's malicious function, the remaining
# protected fields are tool artifacts whose alteration would break message
# parsing or session targeting.
DEFAULT_COMPLIANCE_RULES: dict[ClassLabel, ComplianceSpec] = {
    ClassLabel.RESTORATION_TEID: ComplianceSpec(
        ClassLabel.RESTORATION_TEID,
        frozenset({"pfcp.f_teid.teid", "pfcp.flags", "pfcp.s"}),
        (("pfcp.f_teid.teid", ">", 65536.0),),
    ),
    ClassLabel.FLOOD: ComplianceSpec(
        ClassLabel.FLOOD,
        frozenset({"pfcp.msg_type", "pfcp.flags", "pfcp.s"}),
        (("pfcp.msg_type", "=", "50"),),
    ),
    ClassLabel.DELETION: ComplianceSpec(
        ClassLabel.DELETION,
        frozenset({"pfcp.msg_type", "pfcp.flags", "pfcp.s", "pfcp.seid"}),
        (("pfcp.msg_type", "=", "54"), ("pfcp.s", "=", "1")),
    ),
    ClassLabel.MODIFICATION: ComplianceSpec(
        ClassLabel.MODIFICATION,
        frozenset({"pfcp.msg_type", "pfcp.apply_action.forw", "pfcp.seid"}),
        (("pfcp.msg_type", "=", "52"), ("pfcp.apply_action.forw", "=", "0")),
    ),
    ClassLabel.PDN0_FAULT: ComplianceSpec(
        ClassLabel.PDN0_FAULT,
        frozenset({"pfcp.pdn_type", "pfcp.flags"}),
        (("pfcp.pdn_type", "=", "0"),),
    ),
}

# Accounting, timing, and marking fields an attacker can set freely without
# touching any class's protected set.
DEFAULT_CONTROLLABLE_FEATURES = (
    "ip.dsfield.dscp",
    "ip.ttl",
    "ip.len",
    "udp.length",
    "pfcp.length",
    "pfcp.seqno",
    "pfcp.ie_len",
    "pfcp.duration_measurement",
    "pfcp.recovery_time_stamp",
    "pfcp.volume_measurement.tovol",
    "pfcp.volume_measurement.dlvol",
)


def scale_compliance(spec: ComplianceSpec, pipeline: PipelineModel) -> ComplianceSpec:
    """Re-express raw-value numeric predicates in the pipeline's output space.

    Robust scaling is a strictly increasing per-feature affine map, so the
    relation direction is preserved; categorical predicates are untouched.
    """
    # predicate fields are protected, so checking the protected set covers both
    missing = [name for name in spec.protected if name not in pipeline.kept_features]
    if missing:
        raise ConfigError(
            f"{spec.attack_class.value}: compliance references dropped features {sorted(missing)}"
        )
    if not pipeline.scaling_enabled or pipeline.scaler_state is None:
        return spec
    predicates = []
    for name, relation, value in spec.predicates:
        desc = pipeline.output_schema.descriptor(name)
        if desc.kind == CATEGORICAL:
            predicates.append((name, relation, value))
        else:
            med, scale = pipeline.scaler_state.scale_of(name)
            predicates.append((name, relation, (float(value) - med) / scale))
    return ComplianceSpec(spec.attack_class, spec.protected, tuple(predicates))


@dataclass(frozen=True)
class FeasibleSet:
    """Schema positions J the attacker may modify, with each one's allowed
    values: a ``NumericDomain``, or the tuple of allowed schema codes of a
    categorical feature.  ``fixed`` masks the positions outside J."""

    indices: tuple[int, ...]
    domains: dict  # position -> NumericDomain | tuple[int, ...]
    fixed: np.ndarray = field(compare=False)


def build_feasible_set(
    schema: FeatureSchema,
    feature_names: Sequence[str],
    compliance: ComplianceSpec,
    narrow: Mapping[str, object] | None = None,
) -> FeasibleSet:
    """Resolve controllable feature names to schema positions.

    Raises when no feature is named, when a feature is in the attack
    class's protected set (modifying it would break the attack itself), and
    when ``narrow`` names a feature outside J or does not fit its domain.
    """
    narrow = narrow or {}
    stray = set(narrow) - set(feature_names)
    if stray:
        raise ConfigError(
            f"feasible-set config: {compliance.attack_class.value} narrows "
            f"{sorted(stray)}, which are not in its feasible set"
        )
    if not feature_names:
        raise ConfigError(f"{compliance.attack_class.value}: empty feasible set")
    overlap = set(feature_names) & set(compliance.protected)
    if overlap:
        raise ConfigError(
            f"{compliance.attack_class.value}: feasible set overlaps protected fields "
            f"{sorted(overlap)}"
        )
    indices = []
    domains = {}
    for name in feature_names:
        pos = schema.position(name)
        domain = schema.features[pos].domain
        if name in narrow:
            where = f"feasible-set config: {compliance.attack_class.value} narrow {name}"
            domains[pos] = _narrowed(domain, narrow[name], where)
        else:
            domains[pos] = tuple(range(len(domain))) if isinstance(domain, CategoricalDomain) else domain
        indices.append(pos)
    fixed = np.ones(len(schema), dtype=bool)
    fixed[indices] = False
    fixed.flags.writeable = False
    return FeasibleSet(indices=tuple(sorted(indices)), domains=domains, fixed=fixed)


def _narrowed(domain, spec, where: str):
    """The values of ``domain`` left by a J-config narrowing: exactly
    ``{"labels": [...]}``, distinct labels of a categorical domain, as their
    codes, or exactly ``{"lo": number, "hi": number}`` meeting a numerical
    domain."""
    categorical = isinstance(domain, CategoricalDomain)
    try:
        if set(spec) != ({"labels"} if categorical else {"lo", "hi"}):
            raise TypeError
        if categorical:
            labels = spec["labels"]
            if not isinstance(labels, list) or not labels or not set(labels) <= set(domain.labels):
                raise ValueError
            # SchemaError on a repeated label
            return tuple(map(domain.code_of, CategoricalDomain(tuple(labels)).labels))
        if not all(type(spec[key]) in (int, float) for key in ("lo", "hi")):
            raise TypeError
        # SchemaError when the cut is empty or a bound is not finite
        return NumericDomain(max(spec["lo"], domain.lo), min(spec["hi"], domain.hi))
    except (TypeError, ValueError, SchemaError) as exc:
        raise ConfigError(f"{where}: {spec!r} does not narrow {domain}") from exc


def load_feasible_sets(
    path, schema: FeatureSchema, specs: Mapping[ClassLabel, ComplianceSpec]
) -> dict[ClassLabel, FeasibleSet]:
    """The feasible set J of each attack class in ``specs``: the default
    controllable features, unless the J-config file at ``path`` (if any)
    gives the class other ``features`` or ``narrow``s their domains.  A class
    given no features and no narrowing is skipped, left out of the result.
    A J-config of any other shape raises ``ConfigError``."""
    entries: dict = {}
    if path:
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"feasible-set config {path}: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ConfigError("feasible-set config must be a JSON object")
        classes = {label.value: label for label in ATTACK_LABELS}
        for key, entry in doc.items():
            if key not in classes:
                raise ConfigError(f"feasible-set config: {key!r} is not an attack class")
            if not (
                isinstance(entry, dict)
                and set(entry) <= {"features", "narrow"}
                and isinstance(entry.get("features", []), list)
                and all(isinstance(name, str) for name in entry.get("features", []))
                and isinstance(entry.get("narrow", {}), dict)
            ):
                raise ConfigError(
                    f"feasible-set config: {key} must be an object with an optional "
                    '"features" list of names and an optional "narrow" object'
                )
            entries[classes[key]] = entry
    sets = {}
    for kind, spec in specs.items():
        entry = entries.get(kind, {})
        names = entry.get("features", DEFAULT_CONTROLLABLE_FEATURES)
        narrow = entry.get("narrow")
        if not names and not narrow:
            logger.warning("%s: empty feasible set, class skipped", kind.value)
            continue
        sets[kind] = build_feasible_set(schema, names, spec, narrow)
    return sets


# ---------------------------------------------------------------------------
# Feasibility / compliance checks


def check_feasible(x: np.ndarray, candidate: np.ndarray, feasible: FeasibleSet) -> bool:
    """Candidate equals x outside J and holds an allowed value inside J."""
    candidate = np.asarray(candidate, dtype=float)
    fixed = feasible.fixed
    if candidate.shape != fixed.shape or not (candidate[fixed] == x[fixed]).all():
        return False
    row = candidate.tolist()  # Python floats compare faster than numpy scalars
    for j, allowed in feasible.domains.items():
        value = row[j]
        if isinstance(allowed, tuple):
            if value not in allowed:
                return False
        elif not allowed.lo <= value <= allowed.hi:
            return False
    return True


def check_compliant(spec: ComplianceSpec, schema: FeatureSchema, candidate: np.ndarray) -> bool:
    """All class predicates hold on ``candidate``."""
    for name, relation, value in spec.predicates:
        pos = schema.position(name)
        desc = schema.features[pos]
        if desc.kind == CATEGORICAL:
            value = desc.domain.code_of(str(value))
        if not _RELATIONS[relation](float(candidate[pos]), float(value)):
            return False
    return True


# ---------------------------------------------------------------------------
# Empirical marginals


@dataclass
class Marginals:
    """Per-index empirical sampling distributions.

    Categorical entries hold (codes, frequencies); numerical entries hold
    the observed value multiset.  Sampling can only return values seen in
    the source and inside the index's domain.
    """

    entries: dict  # position -> ("cat", codes, probs) | ("num", values, None)

    def sample(self, j: int, rng: np.random.Generator) -> float:
        kind, values, probs = self.entries[j]
        if kind == "cat":
            return float(rng.choice(values, p=probs))
        return float(values[rng.integers(len(values))])


def estimate_marginals(source: LabeledDataset, feasible: FeasibleSet) -> Marginals:
    """Frequency tables / value multisets over the source, restricted to
    each feasible index's domain."""
    if len(source) == 0:
        raise MarginalsError("cannot estimate marginals from an empty source")
    entries = {}
    for j in feasible.indices:
        allowed = feasible.domains[j]
        col = source.matrix[:, j]
        categorical = isinstance(allowed, tuple)
        keep = np.isin(col, allowed) if categorical else (col >= allowed.lo) & (col <= allowed.hi)
        if not keep.any():
            raise MarginalsError(f"{source.schema.features[j].name}: no in-domain source values")
        if categorical:
            codes, counts = np.unique(col[keep].astype(int), return_counts=True)
            entries[j] = ("cat", codes.astype(float), counts / counts.sum())
        else:
            entries[j] = ("num", np.sort(col[keep]), None)
    return Marginals(entries=entries)


# ---------------------------------------------------------------------------
# Oracle with budget accounting


class QueryOracle:
    """Wraps the defender's score function behind the threat model.

    The attacker sees only fitness values max(0, score - tau); every call
    burns one unit of budget.  Construction checks that the original is
    compliant and that J avoids its protected fields, so a candidate checked
    feasible before the score function runs is compliant too (a violation
    is an optimizer bug, not a runtime condition).
    """

    def __init__(
        self,
        score_fn: Callable[[np.ndarray], float],
        tau: float,
        budget: int,
        schema: FeatureSchema,
        original: np.ndarray,
        feasible: FeasibleSet,
        compliance: ComplianceSpec,
    ):
        if budget < 1:
            raise ConfigError("oracle budget must be at least 1")
        if not check_compliant(compliance, schema, original):
            raise ComplianceViolation("the original sample is not compliant")
        touched = sorted(n for n in compliance.protected if schema.position(n) in feasible.domains)
        if touched:
            raise ComplianceViolation(f"feasible set includes protected fields {touched}")
        self._score_fn = score_fn
        self.tau = tau
        self.budget = budget
        self.original = np.asarray(original, dtype=float).copy()
        self.feasible = feasible
        self.queries_used = 0
        self.trace: list[tuple[int, float]] = []
        self.best_candidate = self.original.copy()
        self.best_fitness = np.inf

    @property
    def remaining(self) -> int:
        return self.budget - self.queries_used

    def fitness(self, candidate: np.ndarray) -> float:
        if self.queries_used >= self.budget:
            raise BudgetExhausted(f"query budget of {self.budget} spent")
        if not check_feasible(self.original, candidate, self.feasible):
            raise ComplianceViolation("optimizer produced an infeasible candidate")
        self.queries_used += 1
        value = max(0.0, float(self._score_fn(candidate)) - self.tau)
        self.trace.append((self.queries_used, value))
        if value < self.best_fitness:
            self.best_fitness = value
            self.best_candidate = np.asarray(candidate, dtype=float).copy()
        return value


# ---------------------------------------------------------------------------
# Attack configuration and outcome


@dataclass(frozen=True)
class AttackConfig:
    algorithm: str = GA_DE
    popsize: int = 20
    budget: int = 100
    diff_weight: float = 0.5  # differential mutation weight on numeric genes
    recombination_ratio: float = 0.9
    mutation_rate: float | None = None  # defaults to 1/|J|
    seed: int = 42
    rs_retries: int = 1  # single-draw random search by default

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown attack algorithm {self.algorithm!r}")
        if min(self.popsize, self.budget, self.rs_retries) < 1:
            raise ConfigError("popsize, budget, and rs_retries must be positive")


@dataclass
class AttackOutcome:
    sample_index: int
    attack_class: ClassLabel
    algorithm: str
    original: np.ndarray
    best_candidate: np.ndarray
    best_fitness: float
    queries_used: int
    evaded: bool
    initial_score: float
    trace: tuple[tuple[int, float], ...]

    def to_json_dict(self, schema: FeatureSchema, include_trace: bool = False) -> dict:
        doc = {
            "sample_index": self.sample_index,
            "attack_class": self.attack_class.value,
            "algorithm": self.algorithm,
            "best_fitness": self.best_fitness,
            "queries_used": self.queries_used,
            "evaded": self.evaded,
            "initial_score": self.initial_score,
            "modified": {
                schema.features[j].name: self.best_candidate[j]
                for j in range(len(schema))
                if self.best_candidate[j] != self.original[j]
            },
        }
        if include_trace:
            doc["trace"] = [[q, f] for q, f in self.trace]
        return doc


def _outcome(oracle: QueryOracle, idx: int, kind: ClassLabel, algorithm: str, initial: float) -> AttackOutcome:
    return AttackOutcome(
        sample_index=idx,
        attack_class=kind,
        algorithm=algorithm,
        original=oracle.original,
        best_candidate=oracle.best_candidate,
        best_fitness=float(oracle.best_fitness),
        queries_used=oracle.queries_used,
        evaded=oracle.best_fitness == 0.0,
        initial_score=initial,
        trace=tuple(oracle.trace),
    )


# ---------------------------------------------------------------------------
# Optimizers: candidate generators that never see the oracle

Proposals = Generator[np.ndarray, float, None]


def _sample_candidate(
    x: np.ndarray, feasible: FeasibleSet, marginals: Marginals, rng: np.random.Generator
) -> np.ndarray:
    candidate = x.copy()
    for j in feasible.indices:
        candidate[j] = marginals.sample(j, rng)
    return candidate


def rs_attack(
    x: np.ndarray,
    feasible: FeasibleSet,
    marginals: Marginals,
    cfg: AttackConfig,
    rng: np.random.Generator,
) -> Proposals:
    """Random search: by default a single draw from the marginals."""
    for _ in range(cfg.rs_retries):
        yield _sample_candidate(x, feasible, marginals, rng)


def _init_population(
    x: np.ndarray,
    feasible: FeasibleSet,
    marginals: Marginals,
    popsize: int,
    rng: np.random.Generator,
) -> Generator[np.ndarray, float, tuple[list[np.ndarray], list[float]]]:
    pop: list[np.ndarray] = []
    fits: list[float] = []
    for _ in range(popsize):
        candidate = _sample_candidate(x, feasible, marginals, rng)
        fits.append((yield candidate))
        pop.append(candidate)
    return pop, fits


def ga_de_attack(
    x: np.ndarray,
    feasible: FeasibleSet,
    marginals: Marginals,
    cfg: AttackConfig,
    rng: np.random.Generator,
) -> Proposals:
    """Differential-evolution variant.

    Numeric genes mutate as a + F (b - c) clamped to the feasible domain;
    two-point crossover over the J positions mixes the mutant into the
    parent, resampling categorical genes wherever the crossover segment
    lands.  Replacement is greedy per slot, so later children of a
    generation already see earlier replacements.
    """
    J = feasible.indices
    pop, fits = yield from _init_population(x, feasible, marginals, cfg.popsize, rng)
    if len(pop) < 4:
        return
    while True:
        for i in range(len(pop)):
            # best/1 base vector: differences perturb the incumbent best
            a = int(np.argmin(fits))
            others = [t for t in range(len(pop)) if t != i and t != a]
            b, c = rng.choice(others, size=2, replace=False)
            child = pop[i].copy()
            cut1, cut2 = np.sort(rng.choice(len(J) + 1, size=2, replace=False))
            for j in J[cut1:cut2]:
                domain = feasible.domains[j]
                if isinstance(domain, NumericDomain):
                    child[j] = domain.clamp(pop[a][j] + cfg.diff_weight * (pop[b][j] - pop[c][j]))
                else:
                    child[j] = marginals.sample(j, rng)
            f = yield child
            if f <= fits[i]:
                pop[i], fits[i] = child, f


def ga_es_attack(
    x: np.ndarray,
    feasible: FeasibleSet,
    marginals: Marginals,
    cfg: AttackConfig,
    rng: np.random.Generator,
) -> Proposals:
    """Evolution-strategy variant: (mu + lambda) with uniform two-parent
    recombination at the configured ratio, per-gene marginal resampling at
    rate 1/|J|, and elitist survivor selection."""
    J = feasible.indices
    mutation_rate = cfg.mutation_rate if cfg.mutation_rate is not None else 1.0 / len(J)
    pop, fits = yield from _init_population(x, feasible, marginals, cfg.popsize, rng)
    if len(pop) < 2:
        return
    while True:
        children: list[np.ndarray] = []
        child_fits: list[float] = []
        for _ in range(cfg.popsize):
            if rng.random() < cfg.recombination_ratio:
                p1, p2 = rng.choice(len(pop), size=2, replace=False)
                child = pop[p1].copy()
                for j in J:
                    if rng.random() < 0.5:
                        child[j] = pop[p2][j]
            else:
                child = pop[int(rng.integers(len(pop)))].copy()
            for j in J:
                if rng.random() < mutation_rate:
                    child[j] = marginals.sample(j, rng)
            child_fits.append((yield child))
            children.append(child)
        pool = pop + children
        pool_fits = fits + child_fits
        order = np.argsort(pool_fits, kind="stable")[: cfg.popsize]
        pop = [pool[i] for i in order]
        fits = [pool_fits[i] for i in order]


_OPTIMIZERS = {RS: rs_attack, GA_DE: ga_de_attack, GA_ES: ga_es_attack}


def attack_sample(
    oracle: QueryOracle, marginals: Marginals, cfg: AttackConfig, rng: np.random.Generator
) -> None:
    """Run ``cfg.algorithm`` against one sample.

    The only caller of the oracle: each proposed candidate costs one query
    and its fitness is sent back to the optimizer.  Stops on the first zero
    fitness, when the budget is spent, or when the optimizer returns.
    """
    proposals = _OPTIMIZERS[cfg.algorithm](oracle.original, oracle.feasible, marginals, cfg, rng)
    value = None
    while oracle.remaining > 0 and value != 0.0:
        try:
            candidate = proposals.send(value)
        except StopIteration:
            break
        value = oracle.fitness(candidate)


# ---------------------------------------------------------------------------
# Campaigns


def run_campaign(
    model,
    attack_samples: LabeledDataset,
    feasible_sets: Mapping[ClassLabel, FeasibleSet],
    compliance_specs: Mapping[ClassLabel, ComplianceSpec],
    cfg: AttackConfig,
    marginals_source: LabeledDataset,
) -> list[AttackOutcome]:
    """Attack every initially-detected sample with a per-sample budget.

    ``model`` only needs ``score_batch`` and ``tau``; the optimizers never
    see anything else.  Samples the detector misses are skipped: evasion is
    defined over detected samples, and so are samples of a class without a
    feasible set.  Per-sample RNG streams derive from (seed, algorithm,
    sample index), so campaign order does not matter.
    """
    if any(lab is ClassLabel.NORMAL for lab in attack_samples.labels):
        raise SchemaError("campaign input must contain attack rows only")
    schema = attack_samples.schema
    marginals = {
        kind: estimate_marginals(marginals_source, feasible)
        for kind, feasible in feasible_sets.items()
    }

    X = attack_samples.matrix
    scores = model.score_batch(X)
    detected = scores > model.tau
    if not detected.any():
        logger.warning("campaign: no attack sample is initially detected")
        return []

    score_one = lambda row: float(model.score_batch(row.reshape(1, -1))[0])
    outcomes: list[AttackOutcome] = []
    skipped_noncompliant = 0
    for i in range(len(attack_samples)):
        kind = attack_samples.labels[i]
        if not detected[i] or kind not in feasible_sets:
            continue
        if not check_compliant(compliance_specs[kind], schema, X[i]):
            # a sample violating its own class predicates is not a valid
            # member of the class; attacking it would be meaningless
            skipped_noncompliant += 1
            continue
        oracle = QueryOracle(
            score_fn=score_one,
            tau=model.tau,
            budget=cfg.budget,
            schema=schema,
            original=X[i],
            feasible=feasible_sets[kind],
            compliance=compliance_specs[kind],
        )
        rng = rng_for(cfg.seed, "attack", cfg.algorithm, i)
        attack_sample(oracle, marginals[kind], cfg, rng)
        outcomes.append(_outcome(oracle, i, kind, cfg.algorithm, float(scores[i])))
    if skipped_noncompliant:
        logger.warning(
            "campaign: skipped %d samples violating their own class predicates",
            skipped_noncompliant,
        )
    return outcomes


def write_outcomes_jsonl(
    outcomes: Sequence[AttackOutcome], schema: FeatureSchema, path, include_trace: bool = False
) -> None:
    """Campaign results as JSON lines, one outcome per line."""
    with open(path, "w") as fh:
        for outcome in outcomes:
            fh.write(json.dumps(outcome.to_json_dict(schema, include_trace), sort_keys=True))
            fh.write("\n")
