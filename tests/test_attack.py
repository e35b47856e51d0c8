import hashlib
import json

import numpy as np
import pytest

from pfcpbench import attack as attack_mod
from pfcpbench.attack import (
    DEFAULT_COMPLIANCE_RULES,
    GA_DE,
    GA_ES,
    RS,
    AttackConfig,
    ComplianceSpec,
    QueryOracle,
    attack_sample,
    build_feasible_set,
    check_compliant,
    check_feasible,
    estimate_marginals,
    load_feasible_sets,
    run_campaign,
    scale_compliance,
)
from pfcpbench.corpus import SynthConfig, default_schema, synth_attack, synth_benign
from pfcpbench.errors import (
    BudgetExhausted,
    ComplianceViolation,
    ConfigError,
    MarginalsError,
    SchemaError,
)
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


def _oracle(schema, spec, feasible, original, budget=100, score_fn=None, tau=1.0):
    if score_fn is None:
        score_fn = lambda row: float(row[1])  # score = the controllable size feature
    return QueryOracle(
        score_fn=score_fn,
        tau=tau,
        budget=budget,
        schema=schema,
        original=original,
        feasible=feasible,
        compliance=spec,
    )


def _detected_sample(schema):
    # mark=c, size=9 (detected when tau < 9), teid=500 (compliant)
    return np.array([2.0, 9.0, 500.0])


# --- feasibility / compliance -----------------------------------------------------


def test_identity_modification_is_feasible(toy):
    schema, spec, feasible, _ = toy
    x = _detected_sample(schema)
    assert check_feasible(x, x.copy(), feasible)


def test_out_of_j_change_is_infeasible(toy):
    schema, spec, feasible, _ = toy
    x = _detected_sample(schema)
    candidate = x.copy()
    candidate[2] = 700.0  # protected teid is outside J
    assert not check_feasible(x, candidate, feasible)


def test_out_of_domain_value_is_infeasible(toy):
    schema, spec, feasible, _ = toy
    x = _detected_sample(schema)
    candidate = x.copy()
    candidate[1] = 11.0  # above the size domain
    assert not check_feasible(x, candidate, feasible)
    candidate = x.copy()
    candidate[0] = 3.0  # no such category code
    assert not check_feasible(x, candidate, feasible)


def test_compliance_predicates(toy):
    schema, spec, feasible, _ = toy
    x = _detected_sample(schema)
    assert check_compliant(spec, schema, x)
    broken = x.copy()
    broken[2] = 50.0  # teid must stay above 100
    assert not check_compliant(spec, schema, broken)
    moved = x.copy()
    moved[2] = 600.0  # satisfies the predicate; feasibility keeps it from the oracle
    assert check_compliant(spec, schema, moved)
    assert not check_feasible(x, moved, feasible)


def test_deletion_message_type_predicate():
    schema = default_schema()
    ds = synth_attack(ClassLabel.DELETION, 3, 5, schema)
    spec = DEFAULT_COMPLIANCE_RULES[ClassLabel.DELETION]
    row = ds.matrix[0]
    assert check_compliant(spec, schema, row)
    mutated = row.copy()
    pos = schema.position("pfcp.msg_type")
    mutated[pos] = schema.descriptor("pfcp.msg_type").domain.code_of("50")
    assert not check_compliant(spec, schema, mutated)


def test_feasible_set_rejects_protected_overlap(toy):
    schema, spec, _, _ = toy
    with pytest.raises(ConfigError):
        build_feasible_set(schema, ("pfcp.teid",), spec)


def test_feasible_set_rejects_empty_j(toy):
    # with J = {} every candidate equals the detected sample
    schema, spec, _, _ = toy
    with pytest.raises(ConfigError):
        build_feasible_set(schema, (), spec)


def test_compliance_spec_rejects_unprotected_predicate_field():
    # a predicate on a field outside the protected set could be broken by J
    with pytest.raises(SchemaError):
        ComplianceSpec(ClassLabel.FLOOD, frozenset({"pfcp.flags"}), (("pfcp.msg_type", "=", "50"),))


def test_feasible_set_narrowing(toy):
    schema, spec, _, source = toy
    narrowed = build_feasible_set(
        schema, ("pfcp.size",), spec, narrow={"pfcp.size": {"lo": 2.0, "hi": 3.0}}
    )
    pos = schema.position("pfcp.size")
    marginals = estimate_marginals(source, narrowed)
    rng = np.random.default_rng(1)
    draws = [marginals.sample(pos, rng) for _ in range(200)]
    assert all(2.0 <= v <= 3.0 for v in draws)


# --- marginals ---------------------------------------------------------------------


def test_marginal_frequencies(toy):
    schema, spec, feasible, _ = toy
    cats = np.array([[0], [0], [1]])
    nums = np.column_stack([np.array([1.0, 2.0, 3.0]), np.full(3, 50.0)])
    source = LabeledDataset(schema, np.column_stack([cats, nums]), [ClassLabel.NORMAL] * 3)
    marginals = estimate_marginals(source, feasible)
    kind, codes, probs = marginals.entries[schema.position("pfcp.mark")]
    assert kind == "cat"
    assert codes.tolist() == [0.0, 1.0]
    assert probs.tolist() == [2 / 3, 1 / 3]
    kind, values, _ = marginals.entries[schema.position("pfcp.size")]
    assert kind == "num"
    rng = np.random.default_rng(2)
    assert all(marginals.sample(schema.position("pfcp.size"), rng) in {1.0, 2.0, 3.0}
               for _ in range(50))
    assert schema.position("pfcp.teid") not in marginals.entries


def test_marginals_empty_source(toy):
    schema, spec, feasible, _ = toy
    empty = LabeledDataset(schema, np.empty((0, 3)), [])
    with pytest.raises(MarginalsError):
        estimate_marginals(empty, feasible)


# --- fitness and budget --------------------------------------------------------------


def test_fitness_positive_part(toy):
    schema, spec, feasible, _ = toy
    x = _detected_sample(schema)
    oracle = _oracle(schema, spec, feasible, x, tau=5.0)
    low = x.copy()
    low[1] = 0.0  # score 0 = tau - 5
    assert oracle.fitness(low) == 0.0
    high = x.copy()
    high[1] = 7.0  # tau + 2
    assert oracle.fitness(high) == pytest.approx(2.0)
    boundary = x.copy()
    boundary[1] = 5.0  # exactly tau: not anomalous under the strict rule
    assert oracle.fitness(boundary) == 0.0
    assert oracle.queries_used == 3


def test_budget_exhaustion(toy):
    schema, spec, feasible, _ = toy
    x = _detected_sample(schema)
    oracle = _oracle(schema, spec, feasible, x, budget=2)
    oracle.fitness(x.copy())
    oracle.fitness(x.copy())
    with pytest.raises(BudgetExhausted):
        oracle.fitness(x.copy())


def test_oracle_rejects_noncompliant_candidates(toy):
    schema, spec, feasible, _ = toy
    x = _detected_sample(schema)
    oracle = _oracle(schema, spec, feasible, x)
    bad = x.copy()
    bad[2] = 999.0  # touches a protected index
    with pytest.raises(ComplianceViolation):
        oracle.fitness(bad)
    assert oracle.queries_used == 0  # rejected candidates burn no budget


def test_oracle_rejects_noncompliant_original(toy):
    schema, spec, feasible, _ = toy
    x = _detected_sample(schema)
    x[2] = 50.0  # teid must stay above 100
    with pytest.raises(ComplianceViolation):
        _oracle(schema, spec, feasible, x)


def test_oracle_rejects_feasible_set_touching_protected_fields(toy):
    # a set built for a class that does not protect the TEID
    schema, spec, _, _ = toy
    unprotected = ComplianceSpec(ClassLabel.FLOOD, frozenset(), ())
    feasible = build_feasible_set(schema, ("pfcp.size", "pfcp.teid"), unprotected)
    with pytest.raises(ComplianceViolation):
        _oracle(schema, spec, feasible, _detected_sample(schema))


# --- optimizers -----------------------------------------------------------------------


def _marginals_for(toy_tuple):
    schema, spec, feasible, source = toy_tuple
    return estimate_marginals(source, feasible)


def test_rs_single_query(toy):
    schema, spec, feasible, source = toy
    marginals = _marginals_for(toy)
    x = _detected_sample(schema)
    oracle = _oracle(schema, spec, feasible, x, tau=20.0)  # unevadable tau? no: size<=10 -> always 0
    oracle = _oracle(schema, spec, feasible, x, tau=-1.0)  # every candidate scores above tau
    cfg = AttackConfig(algorithm=RS, seed=1)
    attack_sample(oracle, marginals, cfg, rng_for(1, "t"))
    assert oracle.queries_used == 1


@pytest.mark.parametrize(
    "cfg, queries",
    [
        (AttackConfig(algorithm=RS, seed=1, rs_retries=7), 7),  # all retries spent
        # populations too small to breed stop after initialisation
        (AttackConfig(algorithm=GA_DE, seed=1, popsize=3), 3),
        (AttackConfig(algorithm=GA_ES, seed=1, popsize=1), 1),
    ],
    ids=["RS-retries7", "GA_DE-popsize3", "GA_ES-popsize1"],
)
def test_unevadable_sample_spends_every_proposal(toy, cfg, queries):
    schema, spec, feasible, source = toy
    marginals = _marginals_for(toy)
    x = _detected_sample(schema)
    oracle = _oracle(schema, spec, feasible, x, tau=-1.0)
    attack_sample(oracle, marginals, cfg, rng_for(1, "t"))
    assert oracle.queries_used == queries


def test_ga_de_stops_on_zero_fitness_at_init(toy):
    schema, spec, feasible, source = toy
    marginals = _marginals_for(toy)
    x = _detected_sample(schema)
    oracle = _oracle(schema, spec, feasible, x, tau=15.0)  # any size <= 10 scores below tau
    cfg = AttackConfig(algorithm=GA_DE, seed=1)
    attack_sample(oracle, marginals, cfg, rng_for(1, "t"))
    assert oracle.best_fitness == 0.0
    assert oracle.queries_used <= cfg.popsize


def test_ga_de_respects_budget_and_improves(toy):
    schema, spec, feasible, source = toy
    marginals = _marginals_for(toy)
    x = _detected_sample(schema)
    # oracle punishes distance from size 4.2; unreachable zero keeps it running
    score_fn = lambda row: abs(row[1] - 4.2) + 3.0
    oracle = _oracle(schema, spec, feasible, x, score_fn=score_fn, tau=1.0, budget=60)
    cfg = AttackConfig(algorithm=GA_DE, seed=3)
    attack_sample(oracle, marginals, cfg, rng_for(3, "t"))
    assert oracle.queries_used == 60
    fits = [f for _, f in oracle.trace]
    assert min(fits[:20]) > oracle.best_fitness or fits.index(min(fits)) >= 20


def test_ga_es_static_without_variation(toy):
    schema, spec, feasible, source = toy
    marginals = _marginals_for(toy)
    x = _detected_sample(schema)
    oracle = _oracle(schema, spec, feasible, x, tau=-1.0, budget=100)
    cfg = AttackConfig(algorithm=GA_ES, seed=4, recombination_ratio=0.0, mutation_rate=0.0)
    attack_sample(oracle, marginals, cfg, rng_for(4, "t"))
    init_best = min(f for _, f in oracle.trace[: cfg.popsize])
    assert oracle.best_fitness == pytest.approx(init_best)


def test_ga_es_deterministic(toy):
    schema, spec, feasible, source = toy
    marginals = _marginals_for(toy)
    x = _detected_sample(schema)
    traces = []
    for _ in range(2):
        oracle = _oracle(schema, spec, feasible, x, tau=-1.0, budget=40)
        cfg = AttackConfig(algorithm=GA_ES, seed=5)
        attack_sample(oracle, marginals, cfg, rng_for(5, "sample", 0))
        traces.append(tuple(oracle.trace))
    assert traces[0] == traces[1]


def test_monotone_best_so_far(toy):
    schema, spec, feasible, source = toy
    marginals = _marginals_for(toy)
    x = _detected_sample(schema)
    oracle = _oracle(schema, spec, feasible, x, tau=-1.0, budget=80)
    cfg = AttackConfig(algorithm=GA_DE, seed=6)
    attack_sample(oracle, marginals, cfg, rng_for(6, "t"))
    best = np.inf
    for _, f in oracle.trace:
        best = min(best, f)
    assert best == oracle.best_fitness


def test_rs_cannot_evade_oracle_ignoring_j(toy):
    # the oracle keys only on the protected feature: no J choice helps
    schema, spec, feasible, source = toy
    marginals = _marginals_for(toy)
    evaded = 0
    for trial in range(100):
        x = _detected_sample(schema)
        oracle = _oracle(
            schema, spec, feasible, x,
            score_fn=lambda row: float(row[2]), tau=400.0,  # teid=500 > 400: detected
        )
        cfg = AttackConfig(algorithm=RS, seed=trial)
        attack_sample(oracle, marginals, cfg, rng_for(trial, "t"))
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
        run_campaign(
            _ThresholdModel(0.5),
            source,
            {ClassLabel.RESTORATION_TEID: feasible},
            {ClassLabel.RESTORATION_TEID: spec},
            AttackConfig(algorithm=RS),
            source,
        )


def test_campaign_skips_undetected_and_counts_queries(toy):
    schema, spec, feasible, source = toy
    rng = np.random.default_rng(9)
    n = 30
    cats = rng.integers(0, 3, size=(n, 1))
    sizes = np.concatenate([np.full(15, 9.0), np.full(15, 1.0)])  # half detected at tau=5
    nums = np.column_stack([sizes, np.full(n, 500.0)])
    attacks = LabeledDataset(schema, np.column_stack([cats, nums]), [ClassLabel.RESTORATION_TEID] * n)
    outcomes = run_campaign(
        _ThresholdModel(5.0),
        attacks,
        {ClassLabel.RESTORATION_TEID: feasible},
        {ClassLabel.RESTORATION_TEID: spec},
        AttackConfig(algorithm=RS, seed=2),
        source,
    )
    assert len(outcomes) == 15  # undetected samples filtered out
    assert all(o.queries_used == 1 for o in outcomes)
    assert all(o.initial_score > 5.0 for o in outcomes)
    # evaded outcomes carry compliant candidates differing only on J
    for o in outcomes:
        assert check_feasible(o.original, o.best_candidate, feasible)
        assert check_compliant(spec, schema, o.best_candidate)
        assert o.best_candidate[2] == o.original[2]  # the protected TEID


def test_campaign_with_no_detections_warns(toy, caplog):
    schema, spec, feasible, source = toy
    cats = np.zeros((5, 1), dtype=np.int64)
    nums = np.column_stack([np.full(5, 1.0), np.full(5, 500.0)])
    attacks = LabeledDataset(schema, np.column_stack([cats, nums]), [ClassLabel.RESTORATION_TEID] * 5)
    with caplog.at_level("WARNING"):
        outcomes = run_campaign(
            _ThresholdModel(5.0),
            attacks,
            {ClassLabel.RESTORATION_TEID: build_feasible_set(schema, ("pfcp.size",), spec)},
            {ClassLabel.RESTORATION_TEID: spec},
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
    outcomes = run_campaign(
        _ThresholdModel(9.0),
        attacks,
        {ClassLabel.RESTORATION_TEID: build_feasible_set(schema, ("pfcp.size",), spec)},
        {ClassLabel.RESTORATION_TEID: spec},
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
        return run_campaign(
            _ThresholdModel(2.0),
            attacks,
            {ClassLabel.RESTORATION_TEID: feasible},
            {ClassLabel.RESTORATION_TEID: spec},
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
    outcomes = run_campaign(
        _DistanceModel(),
        attacks,
        {ClassLabel.RESTORATION_TEID: feasible},
        {ClassLabel.RESTORATION_TEID: spec},
        AttackConfig(algorithm=algorithm, seed=11, budget=37, rs_retries=3),
        source,
    )
    digest = hashlib.sha256()
    for o in outcomes:
        doc = [o.sample_index, [list(t) for t in o.trace], o.best_candidate.tolist()]
        digest.update(json.dumps(doc).encode())
    assert len(outcomes) == 12
    assert digest.hexdigest() == GOLDEN_TRACE_DIGESTS[algorithm]


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
        outcomes = run_campaign(
            _DistanceModel(),
            attacks,
            {ClassLabel.RESTORATION_TEID: feasible},
            {ClassLabel.RESTORATION_TEID: spec},
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
    train = synth_benign(SynthConfig(n_benign=400, seed=8), schema)
    pipeline = fit_pipeline(train, scaling_enabled=True)
    raw_spec = DEFAULT_COMPLIANCE_RULES[ClassLabel.RESTORATION_TEID]
    scaled_spec = scale_compliance(raw_spec, pipeline)
    attacks = synth_attack(ClassLabel.RESTORATION_TEID, 10, 8, schema)
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
    sets = load_feasible_sets(None, schema, DEFAULT_COMPLIANCE_RULES)
    assert set(sets) == set(DEFAULT_COMPLIANCE_RULES)
    for kind, spec in DEFAULT_COMPLIANCE_RULES.items():
        assert set(sets[kind].indices).isdisjoint(
            {schema.position(name) for name in spec.protected}
        )
