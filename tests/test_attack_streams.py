"""The optimizers breed on Python floats.  This file keeps the numpy versions
of ``Marginals`` sampling, GA_DE and GA_ES that they replaced, as a
reference, and holds that both propose the same genomes, bit for bit, from
the same stream and leave the generator in the same state."""

import numpy as np
import pytest

from pfcpbench import attack as attack_mod
from pfcpbench.attack import (
    GA_DE,
    GA_ES,
    AttackConfig,
    ComplianceSpec,
    build_feasible_set,
    estimate_marginals,
)
from pfcpbench.traffic import (
    CategoricalDomain,
    ClassLabel,
    FeatureDescriptor,
    FeatureSchema,
    LabeledDataset,
    NumericDomain,
)

# --- reference: the numpy implementations ---------------------------------------------


class _NumpyMarginals:
    def __init__(self, entries):
        self.entries = entries
        self.cdfs = tuple(
            None if probs is None else (cdf := probs.cumsum()) / cdf[-1] for _, probs in entries
        )
        self.runs = []
        for g, (values, probs) in enumerate(entries):
            if probs is None and self.runs and self.runs[-1][1] is not None:
                self.runs[-1][1].append(values)
            else:
                self.runs.append((g, [values] if probs is None else None))

    def sample(self, g, rng):
        values, cdf = self.entries[g][0], self.cdfs[g]
        if cdf is not None:
            return float(values[cdf.searchsorted(rng.random(), side="right")])
        return float(values[rng.integers(len(values))])

    def genome(self, rng):
        genes = np.empty(len(self.entries))
        for g, pools in self.runs:
            if pools is None:
                genes[g] = self.sample(g, rng)
            else:
                draws = rng.integers([len(values) for values in pools]).tolist()
                genes[g : g + len(pools)] = [values[k] for values, k in zip(pools, draws)]
        return genes


def _numpy_init_population(marginals, popsize, rng):
    pop, fits = [], []
    for _ in range(popsize):
        pop.append(marginals.genome(rng))
        fits.append((yield pop[-1]))
    return np.array(pop), np.array(fits)


def _numpy_draw_pair(n, rng):
    a, b = rng.integers(n - 1), rng.integers(n)
    if b == a:
        b = n - 1
    return (a, b) if rng.integers(2) else (b, a)


def _numpy_ga_de(feasible, marginals, cfg, rng):
    pop, fits = yield from _numpy_init_population(marginals, cfg.popsize, rng)
    if len(pop) < 4:
        return
    while True:
        for i in range(len(pop)):
            a = int(fits.argmin())
            others = [t for t in range(len(pop)) if t != i and t != a]
            b, c = (others[k] for k in _numpy_draw_pair(len(others), rng))
            child = pop[i].copy()
            cut1, cut2 = sorted(_numpy_draw_pair(len(child) + 1, rng))
            for g in range(cut1, cut2):
                domain = feasible.domains[g]
                if isinstance(domain, NumericDomain):
                    child[g] = domain.clamp(
                        pop[a, g] + attack_mod.DIFF_WEIGHT * (pop[b, g] - pop[c, g])
                    )
                else:
                    child[g] = marginals.sample(g, rng)
            f = yield child
            if f <= fits[i]:
                pop[i], fits[i] = child, f


def _numpy_ga_es(feasible, marginals, cfg, rng):
    mutation_rate = attack_mod.MUTATIONS_PER_CHILD / len(feasible.indices)
    pop, fits = yield from _numpy_init_population(marginals, cfg.popsize, rng)
    if len(pop) < 2:
        return
    while True:
        children = np.empty_like(pop)
        child_fits = np.empty(len(pop))
        for k, child in enumerate(children):
            if rng.random() < attack_mod.RECOMBINATION_RATIO:
                p1, p2 = _numpy_draw_pair(len(pop), rng)
                child[:] = np.where(rng.random(len(child)) < 0.5, pop[p2], pop[p1])
            else:
                child[:] = pop[rng.integers(len(pop))]
            for g in range(len(child)):
                if rng.random() < mutation_rate:
                    child[g] = marginals.sample(g, rng)
            child_fits[k] = yield child
        pool = np.concatenate([pop, children])
        pool_fits = np.concatenate([fits, child_fits])
        order = np.argsort(pool_fits, kind="stable")[: len(pop)]
        pop, fits = pool[order], pool_fits[order]


_REFERENCE = {GA_DE: _numpy_ga_de, GA_ES: _numpy_ga_es}

# --- the layouts -----------------------------------------------------------------------

# Five controllable features, two of them categorical, and a protected TEID.
_SCHEMA = FeatureSchema(
    features=(
        FeatureDescriptor("pfcp.mark", "categorical", "pfcp", False, CategoricalDomain(("a", "b", "c"))),
        FeatureDescriptor("pfcp.size", "numerical", "pfcp", False, NumericDomain(0.0, 10.0)),
        FeatureDescriptor("pfcp.teid", "numerical", "pfcp", False, NumericDomain(0.0, 1e6)),
        FeatureDescriptor("pfcp.flag", "categorical", "pfcp", False, CategoricalDomain(("0", "1"))),
        FeatureDescriptor("pfcp.len", "numerical", "pfcp", False, NumericDomain(0.0, 100.0)),
        FeatureDescriptor("pfcp.dur", "numerical", "pfcp", False, NumericDomain(-5.0, 5.0)),
    )
)
_SOURCE = LabeledDataset(
    _SCHEMA,
    np.column_stack([
        np.arange(60) % 3,
        np.linspace(0.0, 10.0, 60),
        np.full(60, 50.0),
        (np.arange(60) % 5 == 0).astype(float),
        np.linspace(0.0, 100.0, 60) ** 2 / 100.0,
        np.sin(np.arange(60.0)) * 5.0,
    ]),
    [ClassLabel.NORMAL] * 60,
)
_SPEC = ComplianceSpec(
    ClassLabel.RESTORATION_TEID, frozenset({"pfcp.teid"}), (("pfcp.teid", ">", 100.0),)
)
_CONTROLLABLE = ("pfcp.mark", "pfcp.size", "pfcp.flag", "pfcp.len", "pfcp.dur")
# the narrowed cuts leave few source values, so differential steps often
# land outside them and are clamped
_LAYOUTS = {
    "categorical": (_CONTROLLABLE, None),
    "narrowed": (_CONTROLLABLE, {
        "pfcp.mark": {"labels": ["c", "a"]},
        "pfcp.size": {"lo": 2.0, "hi": 3.0},
        "pfcp.dur": {"lo": -1.0, "hi": 1.5},
    }),
    "numerical": (("pfcp.size", "pfcp.len"), None),
}


def _fitness(genes: np.ndarray) -> float:
    # coarse, so that equal fitness values decide the first-minimum base
    # vector, the replacement rule and the survivors' order
    return float(int(np.sum(genes) // 3.0) % 5)


def _stream(optimizer, feasible, marginals, cfg, seed, queries=150):
    """The genomes ``optimizer`` proposes, as bytes, and its generator's final state."""
    rng = np.random.default_rng(seed)
    proposals = optimizer(feasible, marginals, cfg, rng)
    genomes, value = [], None
    for _ in range(queries):
        try:
            genes = np.array(proposals.send(value), dtype=float)
        except StopIteration:
            break
        genomes.append(genes.tobytes())
        value = _fitness(genes)
    return genomes, rng.bit_generator.state


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("popsize", [1, 3, 4, 20])
@pytest.mark.parametrize("algorithm", [GA_DE, GA_ES])
def test_optimizers_propose_the_numpy_reference_stream(algorithm, popsize, layout):
    names, narrow = _LAYOUTS[layout]
    feasible = build_feasible_set(_SCHEMA, names, _SPEC, narrow)
    marginals = estimate_marginals(_SOURCE, feasible)
    reference = _NumpyMarginals(marginals.entries)
    cfg = AttackConfig(algorithm=algorithm, popsize=popsize)
    breeds = popsize >= {GA_DE: 4, GA_ES: 2}[algorithm]  # else it stops after initialisation
    for seed in (0, 1, 7, 2024):
        genomes, state = _stream(attack_mod._OPTIMIZERS[algorithm], feasible, marginals, cfg, seed)
        expected, expected_state = _stream(_REFERENCE[algorithm], feasible, reference, cfg, seed)
        assert len(expected) == (150 if breeds else popsize)
        assert genomes == expected, seed
        assert state == expected_state, seed


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_marginal_draws_match_the_numpy_reference(layout):
    names, narrow = _LAYOUTS[layout]
    marginals = estimate_marginals(_SOURCE, build_feasible_set(_SCHEMA, names, _SPEC, narrow))
    reference = _NumpyMarginals(marginals.entries)
    for seed in range(5):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            genome = marginals.genome(ours)
            assert all(type(value) is float for value in genome)
            assert np.array(genome).tobytes() == reference.genome(theirs).tobytes()
            for g in range(len(marginals.entries)):
                assert marginals.sample(g, ours) == reference.sample(g, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state
