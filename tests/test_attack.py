import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfcpbench import attack as attack_mod
from pfcpbench.attack import (
    DEFAULT_COMPLIANCE_RULES,
    GA_DE,
    GA_ES,
    RS,
    AttackConfig,
    ComplianceSpec,
    QueryOracle,
    build_feasible_set,
    check_compliant,
    check_feasible,
    estimate_marginals,
    load_feasible_sets,
    round_candidates,
    run_campaign,
    scale_compliance,
)
from pfcpbench.corpus import default_schema, synth_rows
from pfcpbench.detectors import DetectorConfig, DetectorKind, fit
from pfcpbench.errors import ConfigError, IoError, MarginalsError, MetricError, SchemaError
from pfcpbench.preprocess import fit_pipeline, transform
from pfcpbench.seeding import rng_for
from pfcpbench.traffic import (
    CategoricalDomain,
    ClassLabel,
    FeatureDescriptor,
    FeatureSchema,
    LabeledDataset,
    NumericDomain,
)


@pytest.fixture(scope="module")
def toy():
    """Three-feature schema: one categorical and one numerical in J, one
    protected numerical carrying the compliance predicate."""
    schema = FeatureSchema(
        features=(
            FeatureDescriptor(
                "pfcp.mark", "categorical", "pfcp", False, CategoricalDomain(("a", "b", "c"))
            ),
            FeatureDescriptor("pfcp.size", "numerical", "pfcp", False, NumericDomain(0.0, 10.0)),
            FeatureDescriptor("pfcp.teid", "numerical", "pfcp", False, NumericDomain(0.0, 1e6)),
        )
    )
    spec = ComplianceSpec(
        ClassLabel.RESTORATION_TEID, frozenset({"pfcp.teid"}), (("pfcp.teid", ">", 100.0),)
    )
    feasible = build_feasible_set(schema, ("pfcp.mark", "pfcp.size"), spec)
    rng = np.random.default_rng(0)
    n = 200
    cats = rng.integers(0, 3, size=(n, 1))
    nums = np.column_stack([rng.uniform(0, 10, n), rng.uniform(0, 90, n)])
    source = LabeledDataset(schema, np.column_stack([cats, nums]), [ClassLabel.NORMAL] * n)
    return schema, spec, feasible, source


def _oracle(feasible, original, budget=100, tau=1.0):
    return QueryOracle(
        tau=tau, budget=budget, original=original, feasible=feasible,
        sample_index=0, algorithm=RS, initial_score=0.0,
    )


def _campaign(model, attacks, feasible, cfg, source):
    """``run_campaign`` against the one class ``feasible`` was built for,
    its marginals estimated from ``source``."""
    kind = feasible.compliance.attack_class
    marginals = {kind: estimate_marginals(source, feasible)}
    return run_campaign(model, attacks, {kind: feasible}, marginals, cfg)


def _detected_sample(schema):
    # mark=c, size=9 (detected when tau < 9), teid=500 (compliant)
    return np.array([2.0, 9.0, 500.0])


class _RowModel:
    """Scores each row by ``score(row)`` (by default the controllable size)
    and keeps every block of rows it is sent."""

    def __init__(self, tau, score=lambda row: float(row[1])):
        self.tau = tau
        self.score = score
        self.calls = []

    def score_batch(self, X):
        self.calls.append(X.copy())
        return np.array([self.score(row) for row in X])


def _drive_one(toy, cfg, rng, tau, budget=100, score=lambda row: float(row[1])):
    """Attack the detected sample through the campaign loop alone, with
    ``rng`` as its optimizer's stream; returns its oracle and the model."""
    schema, spec, feasible, source = toy
    oracle = _oracle(feasible, _detected_sample(schema), budget=budget, tau=tau)
    model = _RowModel(tau, score)
    marginals = estimate_marginals(source, feasible)
    proposals = attack_mod._OPTIMIZERS[cfg.algorithm](feasible, marginals, cfg, rng)
    attack_mod._lockstep(model, [(oracle, proposals)])
    return oracle, model


# --- feasibility / compliance -----------------------------------------------------


def _genes(x, feasible):
    return x[list(feasible.indices)]


def test_identity_modification_is_feasible(toy):
    schema, spec, feasible, _ = toy
    x = _detected_sample(schema)
    assert check_feasible(_genes(x, feasible), feasible)


def test_out_of_domain_value_is_infeasible(toy):
    _, _, feasible, _ = toy
    # genes are (mark, size), in J order
    assert not check_feasible(np.array([2.0, 11.0]), feasible)  # above the size domain
    assert not check_feasible(np.array([3.0, 9.0]), feasible)  # no such category code
    assert not check_feasible(np.array([2.0, 9.0, 500.0]), feasible)  # one gene per J position


def test_check_feasible_on_narrowed_domains(toy):
    # codes between allowed codes, NaN genes and wrong shapes are infeasible
    schema, spec, _, _ = toy
    narrow = {"pfcp.mark": {"labels": ["a", "c"]}, "pfcp.size": {"lo": 2.0, "hi": 3.0}}
    feasible = build_feasible_set(schema, ("pfcp.mark", "pfcp.size"), spec, narrow)
    assert check_feasible(np.array([0.0, 2.5]), feasible)
    assert check_feasible([2.0, 3.0], feasible)
    # a block holds one genome per row, and passes when every row does
    assert check_feasible([[0.0, 2.5]], feasible)
    assert check_feasible(np.array([[0.0, 2.5], [2.0, 3.0]]), feasible)
    for genes in ([1.0, 2.5], [0.5, 2.5], [0.0, 3.5], [np.nan, 2.5], [0.0, np.nan],
                  [[[0.0, 2.5]]], [[0.0, 2.5], [1.0, 2.5]], [0.0], []):
        assert not check_feasible(np.array(genes), feasible), genes
    assert not check_feasible([[0.0, 2.5], [0.0]], feasible)  # ragged rows


def test_compliance_predicates(toy):
    schema, spec, feasible, _ = toy
    x = _detected_sample(schema)
    assert check_compliant(spec, schema, x)
    broken = x.copy()
    broken[2] = 50.0  # teid must stay above 100
    assert not check_compliant(spec, schema, broken)


def test_deletion_message_type_predicate():
    schema = default_schema()
    ds = synth_rows(ClassLabel.DELETION, 3, 5, schema)
    spec = DEFAULT_COMPLIANCE_RULES[ClassLabel.DELETION]
    row = ds.matrix[0]
    assert check_compliant(spec, schema, row)
    mutated = row.copy()
    pos = schema.position("pfcp.msg_type")
    mutated[pos] = schema.features[pos].domain.code_of("50")
    assert not check_compliant(spec, schema, mutated)


def test_feasible_set_rejects_protected_overlap(toy):
    # a set built for a class records that class's spec, so no oracle or
    # campaign can pair it with a spec whose protected fields it touches
    schema, spec, feasible, _ = toy
    assert feasible.compliance is spec
    with pytest.raises(ConfigError, match="overlaps protected fields"):
        build_feasible_set(schema, ("pfcp.teid",), spec)
    with pytest.raises(ConfigError, match="overlaps protected fields"):
        build_feasible_set(schema, ("pfcp.size", "pfcp.teid"), spec)
    unprotected = ComplianceSpec(ClassLabel.FLOOD, frozenset(), ())
    touching = build_feasible_set(schema, ("pfcp.size", "pfcp.teid"), unprotected)
    assert touching.compliance is unprotected


def test_feasible_set_rejects_empty_j(toy):
    # with J = {} every candidate equals the detected sample
    schema, spec, _, _ = toy
    with pytest.raises(ConfigError):
        build_feasible_set(schema, (), spec)


def test_compliance_spec_rejects_unprotected_predicate_field():
    # a predicate on a field outside the protected set could be broken by J
    with pytest.raises(SchemaError):
        ComplianceSpec(ClassLabel.FLOOD, frozenset({"pfcp.flags"}), (("pfcp.msg_type", "=", "50"),))


@pytest.mark.parametrize("relation", ["!=", ">=", "<", "<=", "=="])
def test_compliance_spec_rejects_relation_outside_the_table(relation):
    # only "=" and ">" are relations; the default rules use no other
    with pytest.raises(SchemaError, match="unknown predicate relation"):
        ComplianceSpec(ClassLabel.FLOOD, frozenset({"pfcp.msg_type"}),
                       (("pfcp.msg_type", relation, "50"),))


def test_feasible_set_narrowing(toy):
    schema, spec, _, source = toy
    narrowed = build_feasible_set(
        schema, ("pfcp.size",), spec, narrow={"pfcp.size": {"lo": 2.0, "hi": 3.0}}
    )
    assert narrowed.indices == (schema.position("pfcp.size"),)
    assert narrowed.domains == (NumericDomain(2.0, 3.0),)
    marginals = estimate_marginals(source, narrowed)
    rng = np.random.default_rng(1)
    draws = [marginals.sample(0, rng) for _ in range(200)]  # the one gene, size
    assert all(2.0 <= v <= 3.0 for v in draws)


# --- marginals ---------------------------------------------------------------------


def test_marginal_frequencies(toy):
    schema, spec, feasible, _ = toy
    cats = np.array([[0], [0], [1]])
    nums = np.column_stack([np.array([1.0, 2.0, 3.0]), np.full(3, 50.0)])
    source = LabeledDataset(schema, np.column_stack([cats, nums]), [ClassLabel.NORMAL] * 3)
    marginals = estimate_marginals(source, feasible)
    # one entry per gene, in J order; the protected teid is not a gene
    assert len(marginals.entries) == len(feasible.indices) == 2
    mark = feasible.indices.index(schema.position("pfcp.mark"))
    size = feasible.indices.index(schema.position("pfcp.size"))
    codes, probs = marginals.entries[mark]
    assert codes.tolist() == [0.0, 1.0]
    assert probs.tolist() == [2 / 3, 1 / 3]
    values, probs = marginals.entries[size]
    assert values.tolist() == [1.0, 2.0, 3.0]
    assert probs is None  # a numerical gene
    rng = np.random.default_rng(2)
    assert all(marginals.sample(size, rng) in {1.0, 2.0, 3.0} for _ in range(50))


def test_categorical_draws_match_generator_choice():
    # a categorical gene draws through its precomputed CDF exactly as
    # rng.choice(values, p=probs) does: same values, same stream after
    codes = np.array([0.0, 1.0, 2.0])
    for probs in ([0.2, 0.5, 0.3], [1 / 3, 1 / 3, 1 / 3], [0.0, 1.0, 0.0], [0.1, 0.0, 0.9]):
        probs = np.array(probs)
        marginals = attack_mod.Marginals(entries=((codes, probs),))
        ours, theirs = np.random.default_rng(21), np.random.default_rng(21)
        drawn = [marginals.sample(0, ours) for _ in range(2000)]
        assert drawn == [float(theirs.choice(codes, p=probs)) for _ in range(2000)]
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random(5).tolist() == theirs.random(5).tolist()


def test_pair_draws_match_generator_choice():
    # two distinct indices drawn exactly as rng.choice(n, size=2,
    # replace=False) draws them: same pairs, same stream after
    for n in range(2, 65):
        ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
        drawn = [attack_mod._draw_pair(n, ours) for _ in range(2000)]
        assert drawn == [tuple(theirs.choice(n, size=2, replace=False).tolist()) for _ in range(2000)]
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_bounded_index_draw_matches_generator_choice():
    # IForest picks a split feature as varying[rng.integers(len(varying))],
    # the one bounded draw rng.choice(varying) makes: same values, same
    # stream after
    for size in range(1, 65):
        varying = np.flatnonzero(np.arange(2 * size) % 2 == 0)
        ours, theirs = np.random.default_rng(size), np.random.default_rng(size)
        drawn = [varying[ours.integers(len(varying))] for _ in range(500)]
        assert drawn == [theirs.choice(varying) for _ in range(500)]
        assert ours.bit_generator.state == theirs.bit_generator.state


@settings(max_examples=80)
@given(data=st.data())
def test_genome_draws_match_the_per_gene_loop(data):
    # runs of numerical genes, a categorical gene between each two runs; a
    # genome is drawn with the stream of one ``sample`` call per gene
    runs = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=5), "runs")
    layout = []
    for r, run in enumerate(runs):
        layout += [False] * run + ([True] if r < len(runs) - 1 else [])
    if not layout:
        layout = [False]
    entries = []
    for g, categorical in enumerate(layout):
        size = data.draw(st.integers(1, 6), f"size {g}")
        if categorical:
            weights = np.array(data.draw(st.lists(st.integers(0, 5), min_size=size, max_size=size)))
            weights[0] += 1  # some mass
            entries.append((np.arange(size, dtype=float), weights / weights.sum()))
        else:
            entries.append((np.sort(np.arange(size) * 1.5 - g), None))
    marginals = attack_mod.Marginals(entries=tuple(entries))
    seed = data.draw(st.integers(0, 2**32 - 1), "seed")
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        expected = np.array([marginals.sample(g, theirs) for g in range(len(entries))])
        assert np.array(marginals.genome(ours)).tobytes() == expected.tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_marginals_empty_source(toy):
    schema, spec, feasible, _ = toy
    empty = LabeledDataset(schema, np.empty((0, 3)), [])
    with pytest.raises(MarginalsError):
        estimate_marginals(empty, feasible)


def test_marginals_error_names_the_class_and_every_gene_without_source_values(toy):
    # both genes of J are narrowed past every source value; one error names
    # them both, and the field to edit, so one edit fixes them
    schema, spec, _, source = toy
    narrow = {"pfcp.mark": {"labels": ["c"]}, "pfcp.size": {"lo": 2.0, "hi": 3.0}}
    marks, sizes = source.matrix[:, 0], source.matrix[:, 1]
    missing = source.subset((marks != 2) & ((sizes < 2.0) | (sizes > 3.0)))
    feasible = build_feasible_set(schema, ("pfcp.mark", "pfcp.size"), spec, narrow)
    with pytest.raises(MarginalsError) as info:
        estimate_marginals(missing, feasible)
    assert str(info.value) == (
        "restoration_teid: no in-domain source values for ['pfcp.mark', 'pfcp.size']; "
        "leave them out of attack.feasible.restoration_teid.features"
    )


# --- fitness and budget --------------------------------------------------------------


def test_fitness_positive_part(toy):
    schema, spec, feasible, _ = toy
    x = _detected_sample(schema)
    oracle = _oracle(feasible, x, tau=5.0)

    def query(genes):  # genes are (mark, size); the score is the size
        (candidate,) = round_candidates([oracle], [genes])
        return oracle.fitness(candidate, candidate[1])

    assert query([2.0, 0.0]) == 0.0  # score 0 = tau - 5
    assert query([2.0, 7.0]) == pytest.approx(2.0)  # tau + 2
    # exactly tau: not anomalous under the strict rule
    assert query([2.0, 5.0]) == 0.0
    assert oracle.queries_used == 3
    assert oracle.best_candidate.tolist() == [2.0, 0.0, 500.0]


def _scalar_rule(genes, feasible) -> bool:
    """The per-genome feasibility rule the block check keeps: one gene per
    position of J, each inside its bounds (so not NaN nor infinite) and, if
    categorical, one of its allowed codes."""
    genes = np.asarray(genes, dtype=float)
    if genes.shape != (len(feasible.domains),):
        return False
    for value, domain in zip(genes.tolist(), feasible.domains):
        lo, hi = (min(domain), max(domain)) if isinstance(domain, tuple) else (domain.lo, domain.hi)
        if not lo <= value <= hi or (isinstance(domain, tuple) and value not in domain):
            return False
    return True


# codes in and out of a narrowed mark domain {0, 2}, sizes at and just past
# a narrowed size domain [2, 3], and NaN and both infinities
_GENE_VALUES = st.sampled_from([
    0.0, -0.0, 1.0, 2.0, 3.0, 0.5, 1.999, 2.5, float(np.nextafter(3.0, 4.0)),
    float(np.nextafter(2.0, 1.0)), 10.0, 11.0, -1.0, math.nan, math.inf, -math.inf,
]) | st.floats()


@settings(max_examples=300)
@given(data=st.data())
def test_round_check_accepts_exactly_the_genomes_the_scalar_rule_accepts(toy, data):
    schema, spec, _, _ = toy
    narrow = data.draw(st.sampled_from(
        [None, {"pfcp.mark": {"labels": ["c", "a"]}, "pfcp.size": {"lo": 2.0, "hi": 3.0}}]
    ), "narrow")
    feasible = build_feasible_set(schema, ("pfcp.mark", "pfcp.size"), spec, narrow)
    # mostly one gene per position of J; sometimes one too few or too many
    genome = st.lists(_GENE_VALUES, min_size=2, max_size=2) | st.lists(_GENE_VALUES, max_size=3)
    genomes = data.draw(st.lists(genome, min_size=1, max_size=4), "genomes")
    accepted = [_scalar_rule(genes, feasible) for genes in genomes]
    for genes, ok in zip(genomes, accepted):
        assert check_feasible(genes, feasible) == ok, genes
    assert check_feasible(genomes, feasible) == all(accepted)

    if not all(accepted):
        return
    x = _detected_sample(schema)
    oracles = [_oracle(feasible, x, budget=2) for _ in genomes]
    block = round_candidates(oracles, genomes)
    J = list(feasible.indices)
    assert block[:, J].tolist() == genomes
    assert (np.delete(block, J, axis=1) == np.delete(x, J)).all()
    for oracle, row in zip(oracles, block):
        oracle.fitness(row, 0.0)  # an improvement, so kept
        assert oracle.best_candidate.tolist() == row.tolist()
        # a copy, so the round's block is not kept alive by it
        assert oracle.best_candidate.flags.owndata
        assert not np.shares_memory(oracle.best_candidate, block)


def _flood_twin(spec):
    """FLOOD's spec, with the toy's protected field and predicate."""
    return ComplianceSpec(ClassLabel.FLOOD, frozenset({"pfcp.teid"}), spec.predicates)


def test_feasible_sets_are_equal_when_their_gene_spaces_are(toy):
    schema, spec, feasible, _ = toy
    twin = build_feasible_set(schema, ("pfcp.size", "pfcp.mark"), _flood_twin(spec))
    assert twin.compliance is not feasible.compliance
    assert twin == feasible and hash(twin) == hash(feasible)
    assert len({feasible, twin}) == 1
    narrowed = build_feasible_set(schema, ("pfcp.mark", "pfcp.size"), spec,
                                  {"pfcp.size": {"lo": 2.0, "hi": 3.0}})
    size_only = build_feasible_set(schema, ("pfcp.size",), spec)
    assert len({feasible, narrowed, size_only}) == 3


def test_round_writes_each_run_of_a_feasible_set_into_one_block(toy):
    # a round's oracles share one gene space, here under two classes' specs
    schema, spec, feasible, _ = toy
    twin = build_feasible_set(schema, ("pfcp.mark", "pfcp.size"), _flood_twin(spec))
    x = _detected_sample(schema)
    ours, theirs = _oracle(feasible, x), _oracle(twin, x)
    block = round_candidates([ours, ours, theirs, ours],
                             [[0.0, 1.0], [1.0, 2.0], [2.0, 3.0], [2.0, 4.0]])
    assert block.tolist() == [[0.0, 1.0, 500.0], [1.0, 2.0, 500.0], [2.0, 3.0, 500.0],
                              [2.0, 4.0, 500.0]]


def test_campaign_rounds_take_each_class_as_one_run(toy):
    # six interleaved samples of two classes: one lockstep per gene space,
    # and each of its rounds one score call over the space's live samples
    schema, spec, feasible, source = toy
    kinds = [ClassLabel.RESTORATION_TEID, ClassLabel.FLOOD] * 3
    x = _detected_sample(schema)
    attacks = LabeledDataset(schema, np.array([x] * len(kinds)), kinds)
    for flood_features, rounds in (
        (("pfcp.size",), [3] * 10),  # two gene spaces, five rounds each
        (("pfcp.mark", "pfcp.size"), [6] * 5),  # one gene space under two specs
    ):
        other = build_feasible_set(schema, flood_features, _flood_twin(spec))
        sets = {ClassLabel.RESTORATION_TEID: feasible, ClassLabel.FLOOD: other}
        marginals = {kind: estimate_marginals(source, sets[kind]) for kind in sets}
        model = _RowModel(tau=-1.0)
        outcomes = run_campaign(model, attacks, sets, marginals,
                                AttackConfig(algorithm=GA_DE, budget=5))
        assert [o.sample_index for o in outcomes] == list(range(len(kinds)))
        assert [o.attack_class for o in outcomes] == kinds
        assert all(o.queries_used == 5 for o in outcomes)
        # the first call scores the originals
        assert [len(call) for call in model.calls[1:]] == rounds


def test_campaign_under_the_default_j_scores_each_round_once():
    # samples of every attack class under the shipped J: every round of the
    # campaign is one score call over all live samples
    schema = default_schema()
    kinds = [kind for kind in DEFAULT_COMPLIANCE_RULES for _ in range(2)]
    attacks = LabeledDataset.concat(
        [synth_rows(kind, 2, 7, schema) for kind in DEFAULT_COMPLIANCE_RULES]
    )
    assert list(attacks.labels) == kinds
    sets = load_feasible_sets({}, schema, DEFAULT_COMPLIANCE_RULES)
    source = synth_rows(ClassLabel.NORMAL, 200, 7, schema)
    table = estimate_marginals(source, sets[ClassLabel.FLOOD])
    model = _RowModel(tau=-1.0, score=lambda row: 1.0)
    outcomes = run_campaign(model, attacks, sets, dict.fromkeys(sets, table),
                            AttackConfig(algorithm=GA_ES, budget=4, popsize=2))
    assert [o.attack_class for o in outcomes] == kinds
    # the first call scores the originals
    assert [len(call) for call in model.calls[1:]] == [len(kinds)] * 4
    assert len(set(sets.values())) == 1


# --- optimizers -----------------------------------------------------------------------


def test_every_declared_algorithm_has_one_optimizer():
    # the names are declared apart from the optimizers, for config checks
    # that load no attack code
    assert tuple(attack_mod._OPTIMIZERS) == attack_mod.ALGORITHMS == (RS, GA_DE, GA_ES)




def test_rs_single_query(toy):
    # every candidate scores above tau
    oracle, _ = _drive_one(toy, AttackConfig(algorithm=RS, seed=1), rng_for(1, "t"), tau=-1.0)
    assert oracle.queries_used == 1


@pytest.mark.parametrize(
    "cfg, queries",
    [
        (AttackConfig(algorithm=RS, seed=1, rs_retries=7), 7),  # all retries spent
        # retries beyond the oracle's budget of 100 are never drawn
        (AttackConfig(algorithm=RS, seed=1, rs_retries=10**12), 100),
        # populations too small to breed stop after initialisation
        (AttackConfig(algorithm=GA_DE, seed=1, popsize=3), 3),
        (AttackConfig(algorithm=GA_ES, seed=1, popsize=1), 1),
    ],
    ids=["RS-retries7", "RS-retries-beyond-budget", "GA_DE-popsize3", "GA_ES-popsize1"],
)
def test_unevadable_sample_spends_every_proposal(toy, cfg, queries):
    oracle, _ = _drive_one(toy, cfg, rng_for(1, "t"), tau=-1.0)
    assert oracle.queries_used == queries


def test_ga_de_stops_on_zero_fitness_at_init(toy):
    # any size <= 10 scores below tau
    cfg = AttackConfig(algorithm=GA_DE, seed=1)
    oracle, _ = _drive_one(toy, cfg, rng_for(1, "t"), tau=15.0)
    assert oracle.best_fitness == 0.0
    assert oracle.queries_used <= cfg.popsize


def test_ga_de_respects_budget_and_improves(toy):
    # the model punishes distance from size 4.2; unreachable zero keeps it running
    oracle, _ = _drive_one(
        toy, AttackConfig(algorithm=GA_DE, seed=3), rng_for(3, "t"), tau=1.0, budget=60,
        score=lambda row: abs(row[1] - 4.2) + 3.0,
    )
    assert oracle.queries_used == 60
    fits = list(oracle.trace)
    assert min(fits[:20]) > oracle.best_fitness or fits.index(min(fits)) >= 20


def test_ga_es_static_without_variation(toy, monkeypatch):
    monkeypatch.setattr(attack_mod, "RECOMBINATION_RATIO", 0.0)
    monkeypatch.setattr(attack_mod, "MUTATIONS_PER_CHILD", 0.0)
    cfg = AttackConfig(algorithm=GA_ES, seed=4)
    oracle, _ = _drive_one(toy, cfg, rng_for(4, "t"), tau=-1.0)
    init_best = min(oracle.trace[: cfg.popsize])
    assert oracle.best_fitness == pytest.approx(init_best)


def test_ga_es_deterministic(toy):
    traces = []
    for _ in range(2):
        cfg = AttackConfig(algorithm=GA_ES, seed=5)
        oracle, _ = _drive_one(toy, cfg, rng_for(5, "sample", 0), tau=-1.0, budget=40)
        traces.append(tuple(oracle.trace))
    assert traces[0] == traces[1]


def test_monotone_best_so_far(toy):
    cfg = AttackConfig(algorithm=GA_DE, seed=6)
    oracle, _ = _drive_one(toy, cfg, rng_for(6, "t"), tau=-1.0, budget=80)
    best = np.inf
    for f in oracle.trace:
        best = min(best, f)
    assert best == oracle.best_fitness


def test_scored_rows_equal_their_original_outside_j(toy):
    # the oracle builds each candidate from its original, so no optimizer
    # can move a position outside J, whatever genes it proposes
    schema, spec, feasible, source = toy
    x = _detected_sample(schema)
    J = list(feasible.indices)
    for algorithm in (RS, GA_DE, GA_ES):
        cfg = AttackConfig(algorithm=algorithm, seed=7, popsize=6, rs_retries=5)
        oracle, model = _drive_one(toy, cfg, rng_for(7, "t"), tau=-1.0, budget=45)
        rows = [row for call in model.calls for row in call]
        assert len(rows) == oracle.queries_used == (5 if algorithm == RS else 45)
        for row in rows:
            assert np.array_equal(np.delete(row, J), np.delete(x, J))
            assert check_feasible(row[J], feasible)


# Five controllable features and a protected TEID, for the property test.
_WIDE_SCHEMA = FeatureSchema(
    features=(
        FeatureDescriptor("pfcp.mark", "categorical", "pfcp", False, CategoricalDomain(("a", "b", "c"))),
        FeatureDescriptor("pfcp.size", "numerical", "pfcp", False, NumericDomain(0.0, 10.0)),
        FeatureDescriptor("pfcp.teid", "numerical", "pfcp", False, NumericDomain(0.0, 1e6)),
        FeatureDescriptor("pfcp.flag", "categorical", "pfcp", False, CategoricalDomain(("0", "1"))),
        FeatureDescriptor("pfcp.len", "numerical", "pfcp", False, NumericDomain(0.0, 100.0)),
        FeatureDescriptor("pfcp.dur", "numerical", "pfcp", False, NumericDomain(-5.0, 5.0)),
    )
)
_WIDE_SOURCE = np.column_stack([
    np.arange(60) % 3,
    np.linspace(0.0, 10.0, 60),
    np.full(60, 50.0),
    np.arange(60) % 2,
    np.linspace(0.0, 100.0, 60) ** 2 / 100.0,
    np.sin(np.arange(60.0)) * 5.0,
])


class _RecordingModel:
    """Scores rows by their controllable values and keeps every row it sees."""

    def __init__(self, tau):
        self.tau = tau
        self.calls = []

    def score_batch(self, X):
        self.calls.append(X.copy())
        return X[:, 1] + X[:, 4] / 10.0 + X[:, 5] + 0.5 * (X[:, 0] == 2) + X[:, 3]


@settings(max_examples=60)
@given(data=st.data())
def test_every_scored_row_is_feasible_and_within_budget(data):
    schema = _WIDE_SCHEMA
    spec = ComplianceSpec(
        ClassLabel.RESTORATION_TEID, frozenset({"pfcp.teid"}), (("pfcp.teid", ">", 100.0),)
    )
    controllable = [f.name for f in schema.features if f.name != "pfcp.teid"]
    names = data.draw(st.lists(st.sampled_from(controllable), min_size=1, unique=True), "J")
    narrow, allowed = {}, {}  # allowed: a set of codes, or numerical bounds
    for name in names:
        pos = schema.position(name)
        domain = schema.features[pos].domain
        narrowed = data.draw(st.booleans(), f"narrow {name}")
        if isinstance(domain, CategoricalDomain):
            labels = domain.labels
            if narrowed:
                labels = data.draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
                narrow[name] = {"labels": labels}
            allowed[pos] = {float(domain.code_of(label)) for label in labels}
        else:
            bounds = (domain.lo, domain.hi)
            if narrowed:
                # bounds at source values, so that every narrowing keeps some
                values = st.sampled_from(_WIDE_SOURCE[:, pos].tolist())
                bounds = tuple(sorted(data.draw(st.lists(values, min_size=2, max_size=2))))
                narrow[name] = dict(zip(("lo", "hi"), bounds))
            allowed[pos] = bounds
    feasible = build_feasible_set(schema, names, spec, narrow)
    cfg = AttackConfig(
        algorithm=data.draw(st.sampled_from(attack_mod.ALGORITHMS), "algorithm"),
        budget=data.draw(st.integers(1, 40), "budget"),
        popsize=data.draw(st.integers(1, 10), "popsize"),
        rs_retries=data.draw(st.integers(1, 6), "rs_retries"),
        seed=data.draw(st.integers(0, 1000), "seed"),
    )
    # four originals, some outside J's domains, all with a compliant TEID
    originals = np.array([
        [2.0, 9.5, 500.0, 1.0, 90.0, 4.0],
        [1.0, 7.0, 800.0, 0.0, 150.0, -6.0],
        [0.0, 12.0, 300.0, 1.0, 20.0, 0.0],
        [2.0, 3.0, 101.0, 1.0, 99.0, 2.5],
    ])
    attacks = LabeledDataset(schema, originals, [ClassLabel.RESTORATION_TEID] * 4)
    model = _RecordingModel(tau=data.draw(st.floats(0.0, 15.0), "tau"))
    source = LabeledDataset(schema, _WIDE_SOURCE, [ClassLabel.NORMAL] * len(_WIDE_SOURCE))
    outcomes = _campaign(model, attacks, feasible, cfg, source)
    # the first call scores the originals; each later one is a round, one
    # row of each live sample: the protected TEID tells them apart
    rounds = model.calls[1:]
    assert all(len(set(q[:, 2])) == len(q) and q.shape[1] == 6 for q in rounds)
    queries = [row[None] for q in rounds for row in q]
    assert sum(o.queries_used for o in outcomes) == len(queries)
    J = list(feasible.indices)
    for o in outcomes:
        assert 1 <= o.queries_used <= (cfg.rs_retries if cfg.algorithm == RS else cfg.budget)
        assert o.queries_used <= cfg.budget
        rows = [row for (row,) in queries if row[2] == originals[o.sample_index, 2]]
        assert len(rows) == o.queries_used
        for row in rows:
            assert np.array_equal(np.delete(row, J), np.delete(originals[o.sample_index], J))
            assert check_feasible(row[J], feasible)
            for j in J:
                if isinstance(allowed[j], set):
                    assert row[j] in allowed[j]
                else:
                    assert allowed[j][0] <= row[j] <= allowed[j][1]


def test_rs_cannot_evade_oracle_ignoring_j(toy):
    # the model keys only on the protected feature: no J choice helps
    evaded = 0
    for trial in range(100):
        cfg = AttackConfig(algorithm=RS, seed=trial)
        oracle, _ = _drive_one(
            toy, cfg, rng_for(trial, "t"),
            tau=400.0, score=lambda row: float(row[2]),  # teid=500 > 400: detected
        )
        evaded += oracle.best_fitness == 0.0
    assert evaded == 0


# --- campaigns --------------------------------------------------------------------------


class _ThresholdModel:
    """Flags rows whose controllable size exceeds tau."""

    def __init__(self, tau):
        self.tau = tau

    def score_batch(self, X):
        return X[:, 1].astype(float)


def test_campaign_rejects_benign_rows(toy):
    schema, spec, feasible, source = toy
    with pytest.raises(SchemaError):
        _campaign(_ThresholdModel(0.5), source, feasible, AttackConfig(algorithm=RS), source)


@pytest.mark.parametrize("algorithm", [RS, GA_DE, GA_ES])
def test_campaign_fails_on_a_non_finite_candidate_score(toy, algorithm):
    # max(0, NaN - tau) is 0.0: the campaign recorded a NaN as an evasion
    schema, spec, feasible, source = toy
    rows = []

    def score(row):  # the third row the model is sent, the second candidate
        rows.append(row)
        return math.nan if len(rows) == 3 else float(row[1]) + 1.0

    attack = LabeledDataset(schema, _detected_sample(schema)[None, :], [ClassLabel.RESTORATION_TEID])
    cfg = AttackConfig(algorithm=algorithm, rs_retries=5)
    with pytest.raises(MetricError, match="the model scored a candidate nan"):
        _campaign(_RowModel(0.5, score), attack, feasible, cfg, source)
    assert len(rows) == 3


def test_campaign_skips_undetected_and_counts_queries(toy):
    schema, spec, feasible, source = toy
    rng = np.random.default_rng(9)
    n = 30
    cats = rng.integers(0, 3, size=(n, 1))
    sizes = np.concatenate([np.full(15, 9.0), np.full(15, 1.0)])  # half detected at tau=5
    nums = np.column_stack([sizes, np.full(n, 500.0)])
    attacks = LabeledDataset(schema, np.column_stack([cats, nums]), [ClassLabel.RESTORATION_TEID] * n)
    outcomes = _campaign(
        _ThresholdModel(5.0),
        attacks,
        feasible,
        AttackConfig(algorithm=RS, seed=2),
        source,
    )
    assert len(outcomes) == 15  # undetected samples filtered out
    assert all(o.queries_used == 1 for o in outcomes)
    assert all(o.initial_score > 5.0 for o in outcomes)
    # evaded outcomes carry compliant candidates differing only on J
    J = list(feasible.indices)
    for o in outcomes:
        assert np.array_equal(np.delete(o.best_candidate, J), np.delete(o.original, J))
        assert check_feasible(o.best_candidate[J], feasible)
        assert check_compliant(spec, schema, o.best_candidate)
        assert o.best_candidate[2] == o.original[2]  # the protected TEID


def test_campaign_skips_originals_that_break_their_class_predicates(toy, caplog):
    # a row whose TEID is at or below 100 is not a member of its class: it
    # is not queried and gets no outcome, and one warning counts the rows
    schema, spec, feasible, source = toy
    teids = np.array([500.0, 50.0, 300.0, 100.0, 90.0])
    nums = np.column_stack([np.full(5, 9.0), teids])
    attacks = LabeledDataset(
        schema, np.column_stack([np.zeros((5, 1)), nums]), [ClassLabel.RESTORATION_TEID] * 5
    )
    model = _RowModel(tau=1.0)
    with caplog.at_level("WARNING"):
        outcomes = _campaign(model, attacks, feasible, AttackConfig(algorithm=GA_DE), source)
    assert [o.sample_index for o in outcomes] == [0, 2]
    queried = {row[2] for call in model.calls[1:] for row in call}
    assert queried == {500.0, 300.0}
    assert sum(o.queries_used for o in outcomes) == sum(len(call) for call in model.calls[1:])
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == ["campaign: skipped 3 samples violating their own class predicates"]


def test_campaign_with_no_detections_warns(toy, caplog):
    schema, spec, feasible, source = toy
    cats = np.zeros((5, 1), dtype=np.int64)
    nums = np.column_stack([np.full(5, 1.0), np.full(5, 500.0)])
    attacks = LabeledDataset(schema, np.column_stack([cats, nums]), [ClassLabel.RESTORATION_TEID] * 5)
    with caplog.at_level("WARNING"):
        outcomes = _campaign(
            _ThresholdModel(5.0),
            attacks,
            build_feasible_set(schema, ("pfcp.size",), spec),
            AttackConfig(algorithm=RS, seed=2),
            source,
        )
    assert outcomes == []
    assert any("no attack sample" in r.message for r in caplog.records)


def test_campaign_budget_one_reduces_ga_to_single_draw(toy):
    schema, spec, feasible, source = toy
    cats = np.zeros((4, 1), dtype=np.int64)
    nums = np.column_stack([np.full(4, 9.5), np.full(4, 500.0)])
    attacks = LabeledDataset(schema, np.column_stack([cats, nums]), [ClassLabel.RESTORATION_TEID] * 4)
    outcomes = _campaign(
        _ThresholdModel(9.0),
        attacks,
        build_feasible_set(schema, ("pfcp.size",), spec),
        AttackConfig(algorithm=GA_DE, seed=2, budget=1),
        source,
    )
    assert all(o.queries_used == 1 for o in outcomes)


def test_campaign_deterministic(toy):
    schema, spec, feasible, source = toy
    rng = np.random.default_rng(12)
    cats = rng.integers(0, 3, size=(10, 1))
    nums = np.column_stack([np.full(10, 9.0), np.full(10, 500.0)])
    attacks = LabeledDataset(schema, np.column_stack([cats, nums]), [ClassLabel.RESTORATION_TEID] * 10)

    def run():
        return _campaign(
            _ThresholdModel(2.0),
            attacks,
            feasible,
            AttackConfig(algorithm=GA_ES, seed=3, budget=50),
            source,
        )

    a, b = run(), run()
    assert [o.trace for o in a] == [o.trace for o in b]
    assert all(np.array_equal(x.best_candidate, y.best_candidate) for x, y in zip(a, b))


class _DistanceModel:
    """Scores distance of the size from 4.2, a mark other than "b", and the
    protected TEID's offset from 500, so samples range from easy to
    unevadable."""

    tau = 0.5

    def score_batch(self, X):
        return np.abs(X[:, 1] - 4.2) + 0.5 * (X[:, 0] != 1) + (X[:, 2] - 500.0) / 100.0


# sha256 over every outcome's (sample index, trace, best candidate); a change
# to an optimizer's RNG draw order or to the stop rules changes these
GOLDEN_TRACE_DIGESTS = {
    RS: "18178b2f437149e26756fe85c3d5ec7c934e03b455a0a569f66d356300219eb8",
    GA_DE: "0fa837fbaa5669d61551971e480854af3601031bd24c96c2de947f32dd7dfb11",
    GA_ES: "54a083998d93f918766708ee43ff3739257f866acc1a70ef766013cd65c11c38",
}


@pytest.mark.parametrize("algorithm", [RS, GA_DE, GA_ES])
def test_campaign_golden_traces(toy, algorithm):
    # budget 37 with popsize 20 runs out partway through a generation, and
    # the samples mix early evasions, late evasions and spent budgets
    schema, spec, feasible, source = toy
    k = 16
    cats = (np.arange(k) % 3).reshape(-1, 1)
    nums = np.column_stack([np.linspace(0.5, 9.5, k), 300.0 + 18.0 * np.arange(k)])
    attacks = LabeledDataset(schema, np.column_stack([cats, nums]), [ClassLabel.RESTORATION_TEID] * k)
    outcomes = _campaign(
        _DistanceModel(),
        attacks,
        feasible,
        AttackConfig(algorithm=algorithm, seed=11, budget=37, rs_retries=3),
        source,
    )
    digest = hashlib.sha256()
    for o in outcomes:
        trace = [[q, f] for q, f in enumerate(o.trace, 1)]
        doc = [o.sample_index, trace, o.best_candidate.tolist()]
        digest.update(json.dumps(doc).encode())
    assert len(outcomes) == 12
    assert digest.hexdigest() == GOLDEN_TRACE_DIGESTS[algorithm]


# Nine genes in gene order: runs of two, three and two numerical genes with a
# categorical gene between each pair of runs.  The protected TEID sits among
# them in the schema, outside J.
_RUNS_SCHEMA = FeatureSchema(
    features=tuple(
        FeatureDescriptor(
            name, "categorical" if labels else "numerical", "pfcp", False,
            CategoricalDomain(labels) if labels else NumericDomain(0.0, 1e6 if name == "pfcp.teid" else 10.0),
        )
        for name, labels in (
            ("n0", ()), ("n1", ()), ("c0", ("a", "b", "c", "d")), ("n2", ()), ("n3", ()),
            ("n4", ()), ("pfcp.teid", ()), ("c1", ("x", "y", "z")), ("n5", ()), ("n6", ()),
        )
    )
)
_RUNS_NUMERICAL = [0, 1, 3, 4, 5, 8, 9]


class _RunsDistanceModel:
    """Mean distance of the numerical genes from 4, categorical genes other
    than "b" and "z", and the TEID's offset from 500."""

    tau = 1.0

    def score_batch(self, X):
        return (
            np.abs(X[:, _RUNS_NUMERICAL] - 4.0).mean(axis=1)
            + 0.5 * (X[:, 2] != 1) + 0.3 * (X[:, 7] != 2) + (X[:, 6] - 500.0) / 100.0
        )


# the same digest as GOLDEN_TRACE_DIGESTS over a J whose runs of numerical
# genes a draw may take in one call; recorded before any such change
GOLDEN_RUNS_DIGESTS = {
    RS: "24badd666edc370216b76e9f55bfa6d90b26ede600846b5f69a27fad030756af",
    GA_DE: "7b1a96e93ac118a10449dcbc6181c02adecbaf8f04c3ed8ffe4dea27162bd2c0",
    GA_ES: "f418329a3c6f2463457e882b94c8b1096e36fbc801665fa62a8df2ff7d51b894",
}


@pytest.mark.parametrize("algorithm", [RS, GA_DE, GA_ES])
def test_campaign_golden_traces_on_runs_of_numerical_genes(algorithm):
    # budget 29 with popsize 8 runs out partway through the third generation
    schema = _RUNS_SCHEMA
    spec = ComplianceSpec(
        ClassLabel.RESTORATION_TEID, frozenset({"pfcp.teid"}), (("pfcp.teid", ">", 100.0),)
    )
    names = [f.name for f in schema.features if f.name != "pfcp.teid"]
    feasible = build_feasible_set(schema, names, spec)
    rng = np.random.default_rng(17)
    source = np.round(rng.uniform(0.0, 10.0, size=(90, 10)), 2)
    source[:, 2], source[:, 7], source[:, 6] = rng.integers(4, size=90), rng.integers(3, size=90), 50.0
    k = 14
    originals = np.column_stack([
        np.linspace(0.5, 9.5, k), np.linspace(9.0, 1.0, k), np.arange(k) % 4, np.full(k, 7.0),
        np.linspace(2.0, 8.0, k), np.full(k, 9.5), 300.0 + 25.0 * np.arange(k), np.arange(k) % 3,
        np.linspace(0.0, 10.0, k), np.full(k, 4.0),
    ])
    outcomes = _campaign(
        _RunsDistanceModel(),
        LabeledDataset(schema, originals, [ClassLabel.RESTORATION_TEID] * k),
        feasible,
        AttackConfig(algorithm=algorithm, seed=23, budget=29, popsize=8, rs_retries=4),
        LabeledDataset(schema, source, [ClassLabel.NORMAL] * len(source)),
    )
    digest = hashlib.sha256()
    for o in outcomes:
        trace = [[q, f] for q, f in enumerate(o.trace, 1)]
        doc = [o.sample_index, trace, o.best_candidate.tolist()]
        digest.update(json.dumps(doc).encode())
    assert len(outcomes) == 13
    assert digest.hexdigest() == GOLDEN_RUNS_DIGESTS[algorithm]


class _BatchSizeModel(_DistanceModel):
    """``_DistanceModel`` plus ``per_row * len(Q)``: with ``per_row`` set, a
    row's score depends on how many rows share its call."""

    def __init__(self, per_row):
        self.per_row = per_row
        self.rows_per_call = []

    def score_batch(self, X):
        self.rows_per_call.append(len(X))
        return super().score_batch(X) + self.per_row * len(X)


def _one_sample_one_row_campaign(model, attacks, feasible, cfg, source):
    """Reference campaign: each detected sample attacked to its end before
    the next, every query scored alone; (index, trace, best, fitness) each."""
    marginals = estimate_marginals(source, feasible)
    J = list(feasible.indices)
    initial = model.score_batch(attacks.matrix)
    outcomes = []
    for i, original in enumerate(attacks.matrix):
        if not initial[i] > model.tau:
            continue
        rng = rng_for(cfg.seed, "attack", cfg.algorithm, i)
        proposals = attack_mod._OPTIMIZERS[cfg.algorithm](feasible, marginals, cfg, rng)
        trace, best, best_fitness, value = [], original, np.inf, None
        while len(trace) < cfg.budget and value != 0.0:
            try:
                genes = proposals.send(value)
            except StopIteration:
                break
            candidate = original.copy()
            candidate[J] = genes
            value = max(0.0, float(model.score_batch(candidate[None, :])[0]) - model.tau)
            trace.append(value)
            if value < best_fitness:
                best, best_fitness = candidate, value
        outcomes.append((i, tuple(trace), best.tolist(), best_fitness))
    return outcomes


@pytest.mark.parametrize("algorithm", [RS, GA_DE, GA_ES])
def test_lockstep_campaign_matches_one_sample_one_row_reference(toy, algorithm):
    schema, spec, feasible, source = toy
    k = 16
    cats = (np.arange(k) % 3).reshape(-1, 1)
    nums = np.column_stack([np.linspace(0.5, 9.5, k), 300.0 + 18.0 * np.arange(k)])
    attacks = LabeledDataset(schema, np.column_stack([cats, nums]), [ClassLabel.RESTORATION_TEID] * k)
    cfg = AttackConfig(algorithm=algorithm, seed=11, budget=37, rs_retries=3)

    def lockstep(model):
        outcomes = _campaign(model, attacks, feasible, cfg, source)
        return [(o.sample_index, tuple(o.trace), o.best_candidate.tolist(), o.best_fitness)
                for o in outcomes]

    def reference(model):
        return _one_sample_one_row_campaign(model, attacks, feasible, cfg, source)

    # every detector scores a row alike in any batch, so scoring each round
    # in one call attacks each sample as it would be attacked alone
    for kind in DetectorKind:
        model = fit(DetectorConfig(kind=kind), source, seed=3)
        outcomes = lockstep(model)
        assert outcomes and outcomes == reference(model), kind
    # the first round scores all 12 detected samples in one call
    counted = _BatchSizeModel(per_row=0.0)
    assert lockstep(counted) == reference(_BatchSizeModel(per_row=0.0))
    assert counted.rows_per_call[1] == 12
    # and a score that moved with the batch would show
    assert lockstep(_BatchSizeModel(per_row=1e-13)) != reference(_BatchSizeModel(per_row=1e-13))


class _CountingModel:
    """A fitted detector that records how many rows each score call holds."""

    def __init__(self, model):
        self.model, self.tau = model, model.tau
        self.rows_per_call = []

    def score_batch(self, X):
        self.rows_per_call.append(len(X))
        return self.model.score_batch(X)


@pytest.mark.parametrize("algorithm", [RS, GA_DE, GA_ES])
def test_lockstep_campaign_scores_each_gmm_round_in_one_call(toy, algorithm):
    schema, spec, feasible, source = toy
    model = _CountingModel(fit(DetectorConfig(kind=DetectorKind.GMM), source, seed=3))
    k = 16
    cats = (np.arange(k) % 3).reshape(-1, 1)
    nums = np.column_stack([np.linspace(0.5, 9.5, k), 101.0 + 2.0 * np.arange(k)])
    attacks = LabeledDataset(schema, np.column_stack([cats, nums]), [ClassLabel.RESTORATION_TEID] * k)
    cfg = AttackConfig(algorithm=algorithm, seed=11, budget=37, rs_retries=3)
    outcomes = _campaign(model, attacks, feasible, cfg, source)
    # the first call scores the originals; then one call per round, holding
    # every sample still live in that round
    used = [o.queries_used for o in outcomes]
    assert model.rows_per_call[1] == len(outcomes) > 1
    assert model.rows_per_call[1:] == [
        sum(n >= r for n in used) for r in range(1, max(used) + 1)
    ]
    reference = _one_sample_one_row_campaign(model.model, attacks, feasible, cfg, source)
    assert [
        (o.sample_index, tuple(o.trace), o.best_candidate.tolist(), o.best_fitness)
        for o in outcomes
    ] == reference


def test_campaign_compliance_checks_do_not_grow_with_budget(toy, monkeypatch):
    # compliance is checked per sample, never per query
    schema, spec, feasible, source = toy
    k = 16
    cats = (np.arange(k) % 3).reshape(-1, 1)
    nums = np.column_stack([np.linspace(0.5, 9.5, k), 300.0 + 18.0 * np.arange(k)])
    attacks = LabeledDataset(schema, np.column_stack([cats, nums]), [ClassLabel.RESTORATION_TEID] * k)
    calls = []
    original = attack_mod.check_compliant
    monkeypatch.setattr(
        attack_mod, "check_compliant", lambda *args: calls.append(1) or original(*args)
    )

    def run(budget):
        calls.clear()
        outcomes = _campaign(
            _DistanceModel(),
            attacks,
            feasible,
            AttackConfig(algorithm=GA_DE, seed=11, budget=budget),
            source,
        )
        return sum(o.queries_used for o in outcomes), len(calls)

    few_queries, few_checks = run(2)
    many_queries, many_checks = run(60)
    assert many_queries > few_queries
    assert many_checks == few_checks


def test_scale_compliance_maps_thresholds():
    schema = default_schema()
    train = synth_rows(ClassLabel.NORMAL, 400, 8, schema)
    pipeline = fit_pipeline(train, scaling_enabled=True)
    raw_spec = DEFAULT_COMPLIANCE_RULES[ClassLabel.RESTORATION_TEID]
    scaled_spec = scale_compliance(raw_spec, pipeline)
    attacks = synth_rows(ClassLabel.RESTORATION_TEID, 10, 8, schema)
    transformed = transform(pipeline, attacks)
    M = transformed.matrix
    for i in range(len(transformed)):
        assert check_compliant(scaled_spec, pipeline.output_schema, M[i])
    # benign rows stay below the mapped pool bound
    benign_t = transform(pipeline, train).matrix
    pos = pipeline.output_schema.position("pfcp.f_teid.teid")
    _, _, threshold = scaled_spec.predicates[0]
    assert (benign_t[:, pos] <= threshold).all()


def test_default_controllable_features_disjoint_from_protected():
    schema = default_schema()
    sets = load_feasible_sets({}, schema, DEFAULT_COMPLIANCE_RULES)
    assert set(sets) == set(DEFAULT_COMPLIANCE_RULES)
    for kind, spec in DEFAULT_COMPLIANCE_RULES.items():
        assert set(sets[kind].indices).isdisjoint(
            {schema.position(name) for name in spec.protected}
        )


def test_writing_outcomes_into_a_missing_directory_is_io_error(tmp_path):
    with pytest.raises(IoError, match="cannot write"):
        attack_mod.write_outcomes_jsonl([], default_schema(), tmp_path / "absent" / "c.jsonl")
