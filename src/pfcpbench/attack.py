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
genomes, one value per position of J.  A campaign runs in lockstep: it
advances every sample's optimizer by one genome per round, has each
sample's oracle check its genome and build the candidate from its
original, scores the round's candidates as one block and charges each
sample one query.
"""

from __future__ import annotations

import json
import logging
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Mapping, Sequence

import numpy as np

from .errors import (
    BudgetExhausted,
    ComplianceViolation,
    ConfigError,
    MarginalsError,
    MetricError,
    SchemaError,
)
from .seeding import rng_for
from .traffic import (
    CATEGORICAL,
    ClassLabel,
    CategoricalDomain,
    FeatureSchema,
    LabeledDataset,
    NumericDomain,
    write_text,
)

if TYPE_CHECKING:
    from .preprocess import PipelineModel

logger = logging.getLogger(__name__)

RS = "RS"
GA_DE = "GA_DE"
GA_ES = "GA_ES"
DIFF_WEIGHT = 0.5  # GA_DE's differential weight F on numeric genes
RECOMBINATION_RATIO = 0.9  # share of GA_ES children bred from two parents
MUTATIONS_PER_CHILD = 1.0  # genes GA_ES resamples per child, on average

# the relations of DEFAULT_COMPLIANCE_RULES' predicates
_RELATIONS: dict[str, Callable[[float, float], bool]] = {"=": operator.eq, ">": operator.gt}


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
    schema, scaler = pipeline.output_schema, pipeline.scaler
    missing = [name for name in spec.protected if name not in schema.names]
    if missing:
        raise ConfigError(
            f"{spec.attack_class.value}: compliance references dropped features {sorted(missing)}"
        )
    if scaler is None:
        return spec
    predicates = []
    for name, relation, value in spec.predicates:
        pos = schema.position(name)
        if schema.features[pos].kind == CATEGORICAL:
            predicates.append((name, relation, value))
        else:
            scaled = (float(value) - scaler.center[pos]) / scaler.scale[pos]
            predicates.append((name, relation, scaled))
    return ComplianceSpec(spec.attack_class, spec.protected, tuple(predicates))


@dataclass(frozen=True)
class FeasibleSet:
    """Schema positions J the attacker may modify, in ascending order, and
    each one's allowed values: a ``NumericDomain``, or the tuple of allowed
    schema codes of a categorical feature.  A genome holds one value per
    position of J, in the same order.  ``compliance`` is the spec of the
    attack class J was built for, whose protected fields J avoids.  Built
    once from ``domains``: each gene's bounds ``lo``/``hi`` (a categorical
    gene's extreme codes) and the ``categorical`` genes."""

    indices: tuple[int, ...]
    domains: tuple  # NumericDomain | tuple[int, ...], aligned with indices
    compliance: ComplianceSpec
    lo: tuple[float, ...] = field(init=False, repr=False, compare=False)
    hi: tuple[float, ...] = field(init=False, repr=False, compare=False)
    categorical: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bounds = [(min(d), max(d)) if isinstance(d, tuple) else (d.lo, d.hi) for d in self.domains]
        lo, hi = tuple(b[0] for b in bounds), tuple(b[1] for b in bounds)
        categorical = tuple(g for g, d in enumerate(self.domains) if isinstance(d, tuple))
        for name, value in (("lo", lo), ("hi", hi), ("categorical", categorical)):
            object.__setattr__(self, name, value)


def build_feasible_set(
    schema: FeatureSchema,
    feature_names: Sequence[str],
    compliance: ComplianceSpec,
    narrow: Mapping[str, object] | None = None,
) -> FeasibleSet:
    """Resolve controllable feature names to schema positions, in a set
    that records ``compliance``.

    Raises when no feature is named, when a feature is named twice or is not
    in ``schema``, when a feature is in the attack class's protected set
    (modifying it would break the attack itself), and when ``narrow`` names
    a feature outside J or does not fit its domain.
    """
    narrow = narrow or {}
    where = f"attack.feasible.{compliance.attack_class.value}"
    unknown = sorted(set(feature_names) - set(schema.names))
    if unknown:
        raise ConfigError(f"{where} names {unknown}, which are not in the schema")
    if len(set(feature_names)) != len(feature_names):
        raise ConfigError(f"{where} names a feature more than once: {list(feature_names)}")
    stray = set(narrow) - set(feature_names)
    if stray:
        raise ConfigError(f"{where} narrows {sorted(stray)}, which are not in its feasible set")
    if not feature_names:
        raise ConfigError(f"{where}: empty feasible set")
    overlap = set(feature_names) & set(compliance.protected)
    if overlap:
        raise ConfigError(f"{where}: feasible set overlaps protected fields {sorted(overlap)}")
    domains = {}
    for name in feature_names:
        pos = schema.position(name)
        domain = schema.features[pos].domain
        if name in narrow:
            domains[pos] = _narrowed(domain, narrow[name], f"{where} narrow {name}")
        else:
            domains[pos] = tuple(range(len(domain))) if isinstance(domain, CategoricalDomain) else domain
    indices = tuple(sorted(domains))
    return FeasibleSet(indices, tuple(domains[j] for j in indices), compliance)


def _narrowed(domain, spec, where: str):
    """The values of ``domain`` left by an ``attack.feasible`` narrowing: exactly
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
    except (TypeError, ValueError, OverflowError, SchemaError) as exc:
        raise ConfigError(f"{where}: {spec!r} does not narrow {domain}") from exc


def load_feasible_sets(
    entries: Mapping[ClassLabel, Mapping],
    schema: FeatureSchema,
    specs: Mapping[ClassLabel, ComplianceSpec],
) -> dict[ClassLabel, FeasibleSet]:
    """The feasible set J of each attack class in ``specs``: the default
    controllable features, unless the class's entry in ``entries`` (the run
    config's ``attack.feasible``) gives it other ``features`` or ``narrow``s
    their domains.  A class given no features and no narrowing is skipped,
    left out of the result."""
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


def check_feasible(genes: np.ndarray, feasible: FeasibleSet) -> bool:
    """``genes`` holds one allowed value per position of J."""
    genes = np.asarray(genes, dtype=float)
    if genes.shape != (len(feasible.lo),):
        return False
    # compared as Python floats: a NaN gene fails both bounds
    values = genes.tolist()
    if not (all(map(operator.le, feasible.lo, values)) and all(map(operator.le, values, feasible.hi))):
        return False
    return all(values[g] in feasible.domains[g] for g in feasible.categorical)


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
    """Per-gene empirical sampling distributions, aligned with the genome.

    A categorical gene holds (codes, frequencies); a numerical gene holds
    the observed value multiset and ``None``.  Sampling can only return
    values seen in the source and inside the gene's domain.
    """

    entries: tuple  # (values, probs or None) per gene
    # each categorical gene's normalized cumulative frequencies, None for a
    # numerical gene
    cdfs: tuple = field(init=False, repr=False)
    # (g, None) for a categorical gene g, (g, value arrays) for numerical genes g, g+1, ...
    runs: list = field(init=False, repr=False)

    def __post_init__(self):
        self.cdfs = tuple(
            None if probs is None else (cdf := probs.cumsum()) / cdf[-1]
            for _, probs in self.entries
        )
        self.runs = []
        for g, (values, probs) in enumerate(self.entries):
            if probs is None and self.runs and self.runs[-1][1] is not None:
                self.runs[-1][1].append(values)
            else:
                self.runs.append((g, [values] if probs is None else None))

    def sample(self, g: int, rng: np.random.Generator) -> float:
        values, cdf = self.entries[g][0], self.cdfs[g]
        if cdf is not None:
            # how ``rng.choice(values, p=probs)`` draws, without re-checking p
            return float(values[cdf.searchsorted(rng.random(), side="right")])
        return float(values[rng.integers(len(values))])

    def genome(self, rng: np.random.Generator) -> np.ndarray:
        """One draw per gene, the stream of ``sample`` called gene by gene: given
        an array of bounds, ``rng.integers`` draws a run of numerical genes in order."""
        genes = np.empty(len(self.entries))
        for g, pools in self.runs:
            if pools is None:
                genes[g] = self.sample(g, rng)
            else:
                draws = rng.integers([len(values) for values in pools]).tolist()
                genes[g : g + len(pools)] = [values[k] for values, k in zip(pools, draws)]
        return genes


def estimate_marginals(source: LabeledDataset, feasible: FeasibleSet) -> Marginals:
    """Frequency tables / value multisets over the source, restricted to
    each feasible index's domain.  Raises one ``MarginalsError`` naming
    every gene whose domain holds no source value."""
    if len(source) == 0:
        raise MarginalsError("cannot estimate marginals from an empty source")
    entries, empty = [], []
    for j, allowed in zip(feasible.indices, feasible.domains):
        col = source.matrix[:, j]
        categorical = isinstance(allowed, tuple)
        keep = np.isin(col, allowed) if categorical else (col >= allowed.lo) & (col <= allowed.hi)
        if not keep.any():
            empty.append(source.schema.features[j].name)
        elif categorical:
            codes, counts = np.unique(col[keep].astype(int), return_counts=True)
            entries.append((codes.astype(float), counts / counts.sum()))
        else:
            entries.append((np.sort(col[keep]), None))
    if empty:
        label = feasible.compliance.attack_class.value
        raise MarginalsError(
            f"{label}: no in-domain source values for {empty}; "
            f"leave them out of attack.feasible.{label}.features"
        )
    return Marginals(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Oracle with budget accounting


class QueryOracle:
    """One sample's side of the threat model: its candidates and its budget.

    The attacker sees only fitness values max(0, score - tau); every query
    burns one unit of budget.  ``candidate`` checks a genome and builds the
    row that querying it scores: the original with the genes written into
    J, so it equals the original outside J by construction.  ``fitness``
    charges the query once that row is scored.  ``run_campaign`` builds an
    oracle only for a compliant original, and J avoids the protected fields
    of the class it was built for, so a candidate whose genes lie in their
    domains is feasible and compliant (an out-of-domain genome is an
    optimizer bug, not a runtime condition).
    """

    def __init__(self, tau: float, budget: int, original: np.ndarray, feasible: FeasibleSet):
        self.tau = tau
        self.budget = budget
        self.original = np.asarray(original, dtype=float).copy()
        self.feasible = feasible
        self._J = np.array(feasible.indices)
        self.queries_used = 0
        self.trace: list[tuple[int, float]] = []
        self.best_candidate = self.original.copy()
        self.best_fitness = np.inf

    @property
    def remaining(self) -> int:
        return self.budget - self.queries_used

    def candidate(self, genes: np.ndarray) -> np.ndarray:
        """The row that querying ``genes`` scores.  Raises when the budget
        is spent or a gene lies outside its domain; neither burns budget."""
        if self.queries_used >= self.budget:
            raise BudgetExhausted(f"query budget of {self.budget} spent")
        if not check_feasible(genes, self.feasible):
            raise ComplianceViolation("optimizer produced an infeasible genome")
        candidate = self.original.copy()
        candidate[self._J] = genes
        return candidate

    def fitness(self, candidate: np.ndarray, score: float) -> float:
        """Charge one query for ``candidate``, built by ``candidate()`` and
        scored ``score``, and record it; return its fitness.  A non-finite
        score is an error: max(0, NaN - tau) would read as an evasion."""
        score = float(score)
        if not math.isfinite(score):
            raise MetricError(f"the model scored a candidate {score}")
        self.queries_used += 1
        value = max(0.0, score - self.tau)
        self.trace.append((self.queries_used, value))
        if value < self.best_fitness:
            self.best_fitness = value
            self.best_candidate = candidate
        return value


# ---------------------------------------------------------------------------
# Attack configuration and outcome


@dataclass(frozen=True)
class AttackConfig:
    algorithm: str = GA_DE
    popsize: int = 20
    budget: int = 100
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


# ---------------------------------------------------------------------------
# Optimizers: genome generators that never see the oracle

Proposals = Generator[np.ndarray, float, None]


def _init_population(
    marginals: Marginals, popsize: int, rng: np.random.Generator
) -> Generator[np.ndarray, float, tuple[np.ndarray, np.ndarray]]:
    """Propose ``popsize`` genomes drawn gene by gene from the marginals;
    return them as a (popsize, |J|) matrix with their fitness values.  Rows
    are kept as they are queried, so a popsize beyond the budget costs
    nothing."""
    pop, fits = [], []
    for _ in range(popsize):
        pop.append(marginals.genome(rng))
        fits.append((yield pop[-1]))
    return np.array(pop), np.array(fits)


def _draw_pair(n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Two distinct integers below ``n``, drawn as ``rng.choice(n, size=2, replace=False)``
    draws them (Floyd's two bounded draws, then a shuffle): same pair, same stream."""
    a, b = rng.integers(n - 1), rng.integers(n)
    if b == a:
        b = n - 1
    return (a, b) if rng.integers(2) else (b, a)


def rs_attack(
    feasible: FeasibleSet, marginals: Marginals, cfg: AttackConfig, rng: np.random.Generator
) -> Proposals:
    """Random search: ``rs_retries`` draws from the marginals, one by default."""
    yield from _init_population(marginals, cfg.rs_retries, rng)


def ga_de_attack(
    feasible: FeasibleSet, marginals: Marginals, cfg: AttackConfig, rng: np.random.Generator
) -> Proposals:
    """Differential-evolution variant.

    Numeric genes mutate as a + F (b - c) clamped to the feasible domain;
    two-point crossover over the genome mixes the mutant into the parent,
    resampling categorical genes wherever the crossover segment lands.
    Replacement is greedy per slot, so later children of a generation
    already see earlier replacements.
    """
    pop, fits = yield from _init_population(marginals, cfg.popsize, rng)
    if len(pop) < 4:
        return
    while True:
        for i in range(len(pop)):
            # best/1 base vector: differences perturb the incumbent best
            a = int(fits.argmin())
            others = [t for t in range(len(pop)) if t != i and t != a]
            b, c = (others[k] for k in _draw_pair(len(others), rng))
            child = pop[i].copy()
            cut1, cut2 = sorted(_draw_pair(len(child) + 1, rng))
            for g in range(cut1, cut2):
                domain = feasible.domains[g]
                if isinstance(domain, NumericDomain):
                    child[g] = domain.clamp(pop[a, g] + DIFF_WEIGHT * (pop[b, g] - pop[c, g]))
                else:
                    child[g] = marginals.sample(g, rng)
            f = yield child
            if f <= fits[i]:
                pop[i], fits[i] = child, f


def ga_es_attack(
    feasible: FeasibleSet, marginals: Marginals, cfg: AttackConfig, rng: np.random.Generator
) -> Proposals:
    """Evolution-strategy variant: (mu + lambda) with uniform two-parent
    recombination at ``RECOMBINATION_RATIO``, per-gene marginal resampling at
    rate 1/|J|, and elitist survivor selection."""
    mutation_rate = MUTATIONS_PER_CHILD / len(feasible.indices)
    pop, fits = yield from _init_population(marginals, cfg.popsize, rng)
    if len(pop) < 2:
        return
    while True:
        children = np.empty_like(pop)
        child_fits = np.empty(len(pop))
        for k, child in enumerate(children):
            if rng.random() < RECOMBINATION_RATIO:
                p1, p2 = _draw_pair(len(pop), rng)
                # one uniform per gene, in gene order: the stream of a per-gene loop
                child[:] = np.where(rng.random(len(child)) < 0.5, pop[p2], pop[p1])
            else:
                child[:] = pop[rng.integers(len(pop))]
            # per gene, because a mutating gene's marginal draw comes before
            # the next gene's uniform
            for g in range(len(child)):
                if rng.random() < mutation_rate:
                    child[g] = marginals.sample(g, rng)
            child_fits[k] = yield child
        pool = np.concatenate([pop, children])
        pool_fits = np.concatenate([fits, child_fits])
        order = np.argsort(pool_fits, kind="stable")[: len(pop)]
        pop, fits = pool[order], pool_fits[order]


# algorithm name -> its optimizer; a campaign runs any one of these
_OPTIMIZERS = {RS: rs_attack, GA_DE: ga_de_attack, GA_ES: ga_es_attack}
ALGORITHMS = tuple(_OPTIMIZERS)


def _lockstep(model, attacks: Sequence[tuple[QueryOracle, Proposals]]) -> None:
    """Drive every (oracle, optimizer) pair in rounds until each one stops:
    on its first zero fitness, when its budget is spent, or when its
    optimizer returns.  A round takes one genome from each live optimizer
    and checks them all before any is scored.  Their candidates are scored
    in one call when the model's kind is row-invariant, else one row per
    call, so that no score depends on which other samples are still live."""
    from .detectors import ROW_INVARIANT_KINDS

    batched = getattr(model, "kind", None) in ROW_INVARIANT_KINDS
    live = [(oracle, proposals, None) for oracle, proposals in attacks]
    while True:
        queued = []
        for oracle, proposals, value in live:
            if oracle.remaining == 0 or value == 0.0:
                continue
            try:
                genes = proposals.send(value)
            except StopIteration:
                continue
            queued.append((oracle, proposals, oracle.candidate(genes)))
        if not queued:
            return
        block = np.array([candidate for _, _, candidate in queued])
        if batched:
            scores = model.score_batch(block)
        else:
            scores = [model.score_batch(block[k : k + 1])[0] for k in range(len(block))]
        live = [
            (oracle, proposals, oracle.fitness(candidate, score))
            for (oracle, proposals, candidate), score in zip(queued, scores)
        ]


# ---------------------------------------------------------------------------
# Campaigns


def run_campaign(
    model,
    attack_samples: LabeledDataset,
    feasible_sets: Mapping[ClassLabel, FeasibleSet],
    marginals: Mapping[ClassLabel, Marginals],
    cfg: AttackConfig,
) -> list[AttackOutcome]:
    """Attack every initially-detected sample with a per-sample budget.

    ``model`` only needs ``score_batch`` and ``tau``, and a ``kind`` when
    it is a detector; the optimizers never see anything else.  Samples the
    detector misses are skipped: evasion is defined over detected samples,
    and so are samples of a class without a feasible set, and samples that
    break their own class predicates (counted in one warning).  Per-sample
    RNG streams derive from (seed, algorithm, sample index), so the order
    in which the samples' queries are made does not matter.
    """
    if not attack_samples.attacks.all():
        raise SchemaError("campaign input must contain attack rows only")
    schema = attack_samples.schema

    X = attack_samples.matrix
    scores = model.score_batch(X)
    detected = scores > model.tau
    if not detected.any():
        logger.warning("campaign: no attack sample is initially detected")
        return []

    attacked = []
    skipped_noncompliant = 0
    for i in range(len(attack_samples)):
        kind = attack_samples.labels[i]
        if not detected[i] or kind not in feasible_sets:
            continue
        feasible = feasible_sets[kind]
        if not check_compliant(feasible.compliance, schema, X[i]):
            # a sample violating its own class predicates is not a valid
            # member of the class; attacking it would be meaningless
            skipped_noncompliant += 1
            continue
        oracle = QueryOracle(model.tau, cfg.budget, X[i], feasible)
        rng = rng_for(cfg.seed, "attack", cfg.algorithm, i)
        proposals = _OPTIMIZERS[cfg.algorithm](feasible, marginals[kind], cfg, rng)
        attacked.append((i, kind, oracle, proposals))
    if skipped_noncompliant:
        logger.warning(
            "campaign: skipped %d samples violating their own class predicates",
            skipped_noncompliant,
        )
    _lockstep(model, [(oracle, proposals) for _, _, oracle, proposals in attacked])
    return [
        AttackOutcome(
            sample_index=i, attack_class=kind, algorithm=cfg.algorithm, original=oracle.original,
            best_candidate=oracle.best_candidate, best_fitness=float(oracle.best_fitness),
            queries_used=oracle.queries_used, evaded=oracle.best_fitness == 0.0,
            initial_score=float(scores[i]), trace=tuple(oracle.trace),
        )
        for i, kind, oracle, _ in attacked
    ]


def write_outcomes_jsonl(
    outcomes: Sequence[AttackOutcome], schema: FeatureSchema, path, include_trace: bool = False
) -> None:
    """Campaign results as JSON lines, one outcome per line."""
    write_text(path, "".join(
        json.dumps(outcome.to_json_dict(schema, include_trace), sort_keys=True) + "\n"
        for outcome in outcomes
    ))
