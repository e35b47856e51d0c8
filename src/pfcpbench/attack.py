"""Black-box evasion engine.

An attacker who can observe detector scores and the threshold, but nothing
else, perturbs only a feasible index set J of an initially-detected attack
sample, sampling replacement values from empirical marginals of observable
traffic.  Every queried candidate must be feasible (untouched outside J,
in-domain inside J) and compliant (protected fields intact, class
predicates holding), and each sample has a strict oracle-query budget; all
three hold by construction, so no query is checked.

Three optimizers solve the resulting positive-part minimization: a
single-draw random search and two genetic variants, one built on
differential mutation with two-point crossover and one on recombination
plus per-gene resampling.  Optimizers are generators that only propose
genomes, arrays of doubles with one value per position of J; they breed
gene by gene on Python floats, and their stream of numpy draws is fixed by
``tests/test_attack_streams.py``.  A campaign runs one lockstep per gene
space.  Each round advances every sample's optimizer by one genome, writes
the round's genomes into one copy of the originals, scores that block and
charges each sample one query.
"""

from __future__ import annotations

import json
import logging
import math
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Mapping, Sequence

import numpy as np

# the algorithm names and AttackConfig live with the other names a config
# reads; ALGORITHMS is read here too, as ``attack.ALGORITHMS``
from .catalog import ALGORITHMS, GA_DE, GA_ES, RS, AttackConfig  # noqa: F401
from .errors import ConfigError, MarginalsError, MetricError, SchemaError
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
    relation direction is preserved; categorical predicates are untouched,
    and each must name a label of its field's domain, scaled or not.
    """
    # predicate fields are protected, so checking the protected set covers both
    schema, scaler = pipeline.output_schema, pipeline.scaler
    where = spec.attack_class.value
    missing = [name for name in spec.protected if name not in schema.names]
    if missing:
        raise ConfigError(f"{where}: compliance references dropped features {sorted(missing)}")
    predicates = []
    for name, relation, value in spec.predicates:
        pos = schema.position(name)
        desc = schema.features[pos]
        if desc.kind == CATEGORICAL:
            # an unknown label's code would match every label outside the domain
            if str(value) not in desc.domain.labels:
                raise ConfigError(f"{where}: predicate label {value!r} is outside {name}'s domain")
        elif scaler is not None:
            value = (float(value) - scaler.center[pos]) / scaler.scale[pos]
        predicates.append((name, relation, value))
    return ComplianceSpec(spec.attack_class, spec.protected, tuple(predicates))


@dataclass(frozen=True)
class FeasibleSet:
    """Schema positions J the attacker may modify, in ascending order, and
    each one's allowed values: a ``NumericDomain``, or the tuple of allowed
    schema codes of a categorical feature.  A genome holds one value per
    position of J, in the same order.  ``compliance`` is the spec of the
    attack class J was built for, whose protected fields J avoids; equality
    and hash ignore it, so a set is its gene space.  Genes stay in
    ``domains`` where they are made: marginals keep only in-domain values,
    and every gene is a marginal draw, a copy of one, or clamped."""

    indices: tuple[int, ...]
    domains: tuple  # NumericDomain | tuple[int, ...], aligned with indices
    compliance: ComplianceSpec = field(compare=False)


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
        dropped = [name for name in names if "features" not in entry and name not in schema.names]
        if dropped:
            raise ConfigError(
                f"the default controllable set names {dropped}, which the pipeline dropped; "
                f"choose J with attack.feasible.{kind.value}.features"
            )
        sets[kind] = build_feasible_set(schema, names, spec, narrow)
    return sets


# ---------------------------------------------------------------------------
# Feasibility / compliance checks


def check_feasible(genes, feasible: FeasibleSet) -> bool:
    """``genes`` is one genome, or a block of genomes one per row, and each
    holds one allowed value per position of J: one of a categorical gene's
    codes, or a value in a numerical gene's closed interval.  The rule that
    every gene meets where it is made; a campaign never calls it."""
    try:
        block = np.asarray(genes, dtype=float)
    except (TypeError, ValueError):  # ragged rows, or a gene that is not a number
        return False
    if block.ndim == 1:
        block = block[None]
    if block.ndim != 2 or block.shape[1] != len(feasible.domains):
        return False
    return all(
        all(value in domain for value in column.tolist()) if isinstance(domain, tuple)
        # a NaN gene fails both bounds, an infinite one its own side
        else bool(((column >= domain.lo) & (column <= domain.hi)).all())
        for column, domain in zip(block.T, feasible.domains)
    )


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
    values seen in the source and inside the gene's domain, and reads each
    as a Python float (``values.item``), so the arrays are not copied.
    """

    entries: tuple  # (values, probs or None) per gene
    # each categorical gene's normalized cumulative frequencies as a list,
    # None for a numerical gene
    cdfs: tuple = field(init=False, repr=False)
    # (g, None) for a categorical gene g, (g, value arrays) for numerical genes g, g+1, ...
    runs: list = field(init=False, repr=False)

    def __post_init__(self):
        self.cdfs = tuple(
            None if probs is None else ((cdf := probs.cumsum()) / cdf[-1]).tolist()
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
            # how ``rng.choice(values, p=probs)`` draws, without re-checking
            # p: bisect_right finds searchsorted(side="right")'s index
            return values.item(bisect_right(cdf, rng.random()))
        return values.item(rng.integers(len(values)))

    def genome(self, rng: np.random.Generator) -> array:
        """One draw per gene, the stream of ``sample`` called gene by gene: given
        an array of bounds, ``rng.integers`` draws a run of numerical genes in order."""
        genes = []
        for g, pools in self.runs:
            if pools is None:
                genes.append(self.sample(g, rng))
            else:
                draws = rng.integers([len(values) for values in pools]).tolist()
                genes += [values.item(k) for values, k in zip(pools, draws)]
        return array("d", genes)


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
    """One attacked sample: its side of the threat model, its original and
    its budget, and the fitness of each of its queries, in ``trace``.

    The attacker sees only fitness values max(0, score - tau); every query
    burns one unit of budget, and ``_lockstep`` stops proposing once it is
    spent.  ``round_candidates`` builds the rows that querying a round of
    genomes scores: each original with its genes written into J, so it
    equals the original outside J by construction.  ``fitness`` charges the
    query once its row is scored.  ``run_campaign`` builds an oracle only
    for a compliant original, J avoids the protected fields of the class it
    was built for, and every gene is in its domain where it is made, so each
    candidate is feasible and compliant without a check.
    """

    def __init__(
        self, tau: float, budget: int, original: np.ndarray, feasible: FeasibleSet, *,
        sample_index: int, algorithm: str, initial_score: float,
    ):
        self.tau = tau
        self.budget = budget
        self.original = np.asarray(original, dtype=float).copy()
        self.feasible = feasible
        self.sample_index = sample_index
        self.algorithm = algorithm
        self.initial_score = initial_score
        self.trace = array("d")
        self.best_candidate = self.original.copy()
        self.best_fitness = math.inf

    @property
    def queries_used(self) -> int:
        return len(self.trace)

    @property
    def evaded(self) -> bool:
        return self.best_fitness == 0.0

    @property
    def attack_class(self) -> ClassLabel:
        # run_campaign looks the feasible set up by the sample's own label
        return self.feasible.compliance.attack_class

    def fitness(self, candidate: np.ndarray, score: float) -> float:
        """Charge one query for ``candidate``, built by ``round_candidates``
        and scored ``score``, and record it; return its fitness.  An
        improving candidate is kept as a copy, so that no round's block
        outlives its round.  A non-finite score is an error: max(0, NaN -
        tau) would read as an evasion."""
        score = float(score)
        if not math.isfinite(score):
            raise MetricError(f"the model scored a candidate {score}")
        value = max(0.0, score - self.tau)
        self.trace.append(value)
        if value < self.best_fitness:
            self.best_fitness = value
            self.best_candidate = candidate.copy()
        return value

    def to_json_dict(self, schema: FeatureSchema, include_trace: bool = False) -> dict:
        """The sample's line of a campaign file; its trace as [query, fitness]
        pairs from query 1."""
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
            doc["trace"] = [[q, f] for q, f in enumerate(self.trace, 1)]
        return doc


def round_candidates(oracles: Sequence[QueryOracle], genomes: Sequence) -> np.ndarray:
    """The rows that querying ``genomes[k]`` against ``oracles[k]`` scores,
    as one block: a copy of each original with its genome written into J.
    A round's oracles share one gene space (their feasible sets are equal).
    It only writes: the genes are in their domains where they are made, and
    ``_lockstep`` passes no oracle whose budget is spent."""
    block = np.array([oracle.original for oracle in oracles])
    block[:, oracles[0].feasible.indices] = genomes
    return block


# ---------------------------------------------------------------------------
# Optimizers: genome generators that never see the oracle

# A genome is an array of doubles, ``array("d")``: breeding reads and writes
# one gene at a time as a Python float, which costs less than a numpy scalar,
# and a gene takes 8 bytes, as in a numpy row, not a float object's 24.
Proposals = Generator[array, float, None]


def _init_population(
    marginals: Marginals, popsize: int, rng: np.random.Generator
) -> Generator[array, float, tuple[list, list]]:
    """Propose ``popsize`` genomes drawn gene by gene from the marginals;
    return them with their fitness values.  Genomes are kept as they are
    queried, so a popsize beyond the budget costs nothing."""
    pop, fits = [], []
    for _ in range(popsize):
        pop.append(marginals.genome(rng))
        fits.append((yield pop[-1]))
    return pop, fits


def _draw_pair(n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Two distinct integers below ``n``, drawn as ``rng.choice(n, size=2, replace=False)``
    draws them (Floyd's two bounded draws, then a shuffle): same pair, same stream."""
    a, b = int(rng.integers(n - 1)), int(rng.integers(n))
    if b == a:
        b = n - 1
    return (a, b) if rng.integers(2) else (b, a)


def _draw_others(n: int, i: int, a: int, rng: np.random.Generator) -> tuple[int, int]:
    """Two distinct integers below ``n`` other than ``i`` and ``a``, drawn as
    ``_draw_pair`` draws two positions in the ascending list of them."""
    skipped = (i,) if i == a else (min(i, a), max(i, a))
    b, c = _draw_pair(n - len(skipped), rng)
    for s in skipped:  # a position in the list -> the integer there
        b += b >= s
        c += c >= s
    return b, c


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
    size = len(pop)
    if size < 4:
        return
    while True:
        for i in range(size):
            # best/1 base vector: differences perturb the incumbent best
            a = fits.index(min(fits))
            b, c = _draw_others(size, i, a, rng)
            base, plus, minus = pop[a], pop[b], pop[c]
            child = pop[i][:]
            cut1, cut2 = sorted(_draw_pair(len(child) + 1, rng))
            for g in range(cut1, cut2):
                domain = feasible.domains[g]
                if isinstance(domain, NumericDomain):
                    child[g] = domain.clamp(base[g] + DIFF_WEIGHT * (plus[g] - minus[g]))
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
    genes = range(len(feasible.indices))
    mutation_rate = MUTATIONS_PER_CHILD / len(genes)
    pop, fits = yield from _init_population(marginals, cfg.popsize, rng)
    size = len(pop)
    if size < 2:
        return
    while True:
        children, child_fits = [], []
        for _ in range(size):
            if rng.random() < RECOMBINATION_RATIO:
                p1, p2 = _draw_pair(size, rng)
                child, other = pop[p1][:], pop[p2]
                # one uniform per gene, in gene order: the stream of a per-gene loop
                for g, u in enumerate(rng.random(len(genes)).tolist()):
                    if u < 0.5:
                        child[g] = other[g]
            else:
                child = pop[rng.integers(size)][:]
            # per gene, because a mutating gene's marginal draw comes before
            # the next gene's uniform
            for g in genes:
                if rng.random() < mutation_rate:
                    child[g] = marginals.sample(g, rng)
            children.append(child)
            child_fits.append((yield child))
        # elitist survivors: a stable sort keeps the earlier of equal fits
        pool, pool_fits = pop + children, fits + child_fits
        order = sorted(range(len(pool)), key=pool_fits.__getitem__)[:size]
        pop, fits = [pool[k] for k in order], [pool_fits[k] for k in order]


# algorithm name -> its optimizer; a campaign runs any one of these
_OPTIMIZERS = {RS: rs_attack, GA_DE: ga_de_attack, GA_ES: ga_es_attack}


def _lockstep(model, attacks: Sequence[tuple[QueryOracle, Proposals]]) -> None:
    """Drive every (oracle, optimizer) pair in rounds until each one stops:
    on its first zero fitness, when its budget is spent, or when its
    optimizer returns.  A round takes one genome from each live optimizer
    and builds their candidates as one block, scored in one call; this is
    the one place that enforces a budget.  A detector or ensemble scores a
    row alike in any batch, so no score depends on which other samples are
    still live."""
    live = [(oracle, proposals, None) for oracle, proposals in attacks]
    while True:
        queued, genomes = [], []
        for oracle, proposals, value in live:
            if oracle.queries_used == oracle.budget or value == 0.0:
                continue
            try:
                genomes.append(proposals.send(value))
            except StopIteration:
                continue
            queued.append((oracle, proposals))
        if not queued:
            return
        block = round_candidates([oracle for oracle, _ in queued], genomes)
        scores = model.score_batch(block)
        live = [
            (oracle, proposals, oracle.fitness(candidate, score))
            for (oracle, proposals), candidate, score in zip(queued, block, scores)
        ]


# ---------------------------------------------------------------------------
# Campaigns


def run_campaign(
    model,
    attack_samples: LabeledDataset,
    feasible_sets: Mapping[ClassLabel, FeasibleSet],
    marginals: Mapping[ClassLabel, Marginals],
    cfg: AttackConfig,
) -> list[QueryOracle]:
    """Attack every initially-detected sample with a per-sample budget;
    return the oracles of the attacked samples, in sample order.

    ``model`` only needs ``score_batch`` and ``tau``; the optimizers never
    see anything else.  Samples the detector misses are skipped: evasion is
    defined over detected samples, and so are samples of a class without a
    feasible set, and samples that break their own class predicates
    (counted in one warning).  Each gene space (equal feasible sets) runs
    one lockstep, whose rounds' oracles share one set.  Per-sample RNG
    streams derive from (seed, algorithm, sample index), so the order of
    the samples' queries does not matter.
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
    spaces = {}  # gene space -> its samples' (oracle, optimizer) pairs
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
        oracle = QueryOracle(
            model.tau, cfg.budget, X[i], feasible,
            sample_index=i, algorithm=cfg.algorithm, initial_score=float(scores[i]),
        )
        rng = rng_for(cfg.seed, "attack", cfg.algorithm, i)
        attacked.append(oracle)
        spaces.setdefault(feasible, []).append(
            (oracle, _OPTIMIZERS[cfg.algorithm](feasible, marginals[kind], cfg, rng))
        )
    if skipped_noncompliant:
        logger.warning(
            "campaign: skipped %d samples violating their own class predicates",
            skipped_noncompliant,
        )
    for attacks in spaces.values():
        _lockstep(model, attacks)
    return attacked


def write_outcomes_jsonl(
    outcomes: Sequence[QueryOracle], schema: FeatureSchema, path, include_trace: bool = False
) -> None:
    """Campaign results as JSON lines, one attacked sample per line."""
    write_text(path, "".join(
        json.dumps(outcome.to_json_dict(schema, include_trace), sort_keys=True) + "\n"
        for outcome in outcomes
    ))
