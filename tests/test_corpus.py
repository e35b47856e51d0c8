import numpy as np
import pytest

from pfcpbench.attack import DEFAULT_COMPLIANCE_RULES, check_compliant
from pfcpbench.corpus import (
    BENCHMARK_SPLIT_COUNTS,
    TEID_POOL_MAX,
    SplitSource,
    SplitSpec,
    SynthConfig,
    build_splits,
    class_distribution,
    default_schema,
    load_csv,
    save_csv,
    synth_attack,
    synth_benign,
    synth_benchmark_splits,
)
from pfcpbench.errors import GuidelineViolation, IoError, SchemaError
from pfcpbench.traffic import ATTACK_LABELS, MISSING_CODE, UNKNOWN_CODE, ClassLabel


@pytest.fixture(scope="module")
def schema():
    return default_schema()


# --- load_csv -------------------------------------------------------------


def test_load_csv_basic(tmp_path, tiny_schema):
    path = tmp_path / "rows.csv"
    path.write_text(
        "proto.kind,proto.len,proto.count,Label\n"
        "A,1.5,0,normal\n"
        "B,2.0,1,flood\n"
        "C,3.0,-1,\n"
        ",4.0,2,normal\n"  # empty categorical cell
        "Z,5.0,3,normal\n"  # label outside the domain
        "A,,abc,normal\n"  # empty and unparsable numeric cells
    )
    ds = load_csv(path, tiny_schema)
    assert len(ds) == 6
    assert ds.labels[:3] == (ClassLabel.NORMAL, ClassLabel.FLOOD, ClassLabel.NORMAL)
    assert ds.matrix[:5, 1].tolist() == [1.5, 2.0, 3.0, 4.0, 5.0]
    assert ds.matrix[:, 0].tolist() == [0, 1, 2, MISSING_CODE, UNKNOWN_CODE, 0]
    assert np.isnan(ds.matrix[5, 1:]).all()


def test_load_csv_ignores_extra_columns(tmp_path, tiny_schema, caplog):
    path = tmp_path / "rows.csv"
    path.write_text("proto.kind,proto.len,proto.count,bogus\nA,1,2,zzz\n")
    with caplog.at_level("WARNING"):
        ds = load_csv(path, tiny_schema)
    assert len(ds) == 1
    assert any("bogus" in record.message for record in caplog.records)


def test_load_csv_no_matching_columns(tmp_path, tiny_schema):
    path = tmp_path / "rows.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(SchemaError):
        load_csv(path, tiny_schema)


def test_load_csv_missing_file(tiny_schema):
    with pytest.raises(IoError):
        load_csv("/nonexistent/nowhere.csv", tiny_schema)


def test_csv_roundtrip(tmp_path, schema):
    ds = synth_benign(SynthConfig(n_benign=50, seed=7), schema)
    path = tmp_path / "out.csv"
    save_csv(ds, path, seed=7)
    loaded = load_csv(path, schema)
    assert np.array_equal(loaded.matrix, ds.matrix, equal_nan=True)
    assert loaded.labels == ds.labels
    assert (tmp_path / "out.csv.manifest.json").exists()


# --- synthetic generator ----------------------------------------------------


def test_synth_benign_deterministic(schema):
    cfg = SynthConfig(n_benign=100, seed=42)
    a, b = synth_benign(cfg, schema), synth_benign(cfg, schema)
    assert np.array_equal(a.matrix, b.matrix, equal_nan=True)


def test_synth_benign_empty(schema):
    assert len(synth_benign(SynthConfig(n_benign=0, seed=1), schema)) == 0


def test_benign_teids_stay_in_pool(schema):
    # derived bound: scan the generated TEID column against the pool limit
    ds = synth_benign(SynthConfig(n_benign=2000, seed=42), schema)
    col = schema.position("pfcp.f_teid.teid")
    assert (ds.matrix[:, col] <= TEID_POOL_MAX).all()
    assert (ds.matrix[:, col] >= 1024).all()


def test_synth_attack_deterministic(schema):
    a = synth_attack(ClassLabel.FLOOD, 25, 9, schema)
    b = synth_attack(ClassLabel.FLOOD, 25, 9, schema)
    assert np.array_equal(a.matrix, b.matrix, equal_nan=True)


def test_synth_attack_rejects_normal(schema):
    with pytest.raises(SchemaError):
        synth_attack(ClassLabel.NORMAL, 5, 1, schema)


def test_deletion_rows_carry_message_type_54(schema):
    ds = synth_attack(ClassLabel.DELETION, 13, 3, schema)
    assert len(ds) == 13
    col = schema.position("pfcp.msg_type")
    code_54 = schema.features[col].domain.code_of("54")
    assert set(ds.matrix[:, col].tolist()) == {code_54}


def test_restoration_teids_exceed_pool(schema):
    ds = synth_attack(ClassLabel.RESTORATION_TEID, 20, 3, schema)
    col = schema.position("pfcp.f_teid.teid")
    assert (ds.matrix[:, col] > TEID_POOL_MAX).all()


@pytest.mark.parametrize("kind", ATTACK_LABELS)
def test_generator_rows_are_compliant(schema, kind):
    # every generated row satisfies its class predicates
    ds = synth_attack(kind, 40, 11, schema)
    spec = DEFAULT_COMPLIANCE_RULES[kind]
    assert all(check_compliant(spec, schema, row) for row in ds.matrix)


# --- splits -----------------------------------------------------------------


def _write_corpus(tmp_path, schema):
    benign = synth_benign(SynthConfig(n_benign=60, seed=5), schema)
    attacks = synth_attack(ClassLabel.FLOOD, 12, 5, schema)
    benign_path = tmp_path / "benign.csv"
    attack_path = tmp_path / "attacks.csv"
    save_csv(benign, benign_path)
    save_csv(attacks, attack_path)
    return benign_path, attack_path


def test_build_splits_enforces_benign_training(tmp_path, schema):
    benign_path, attack_path = _write_corpus(tmp_path, schema)
    spec = SplitSpec(
        train_sources=(SplitSource(str(benign_path)), SplitSource(str(attack_path))),
        val_sources=(),
        test_sources=(),
    )
    with pytest.raises(GuidelineViolation) as err:
        build_splits(spec, schema)
    assert err.value.guideline == "GT4"
    assert "GT4" in str(err.value)


def test_split_spec_rejects_attack_filter_on_train(tmp_path, schema):
    benign_path, attack_path = _write_corpus(tmp_path, schema)
    with pytest.raises(GuidelineViolation):
        SplitSpec(
            train_sources=(SplitSource(str(attack_path), include=(ClassLabel.FLOOD,)),),
            val_sources=(),
            test_sources=(),
        )


def test_build_splits_disjoint(tmp_path, schema):
    benign_path, attack_path = _write_corpus(tmp_path, schema)
    # a benign row with an empty categorical and an empty numeric cell, put
    # in every split, and a variant of it whose categorical cell is filled
    lines = benign_path.read_text().splitlines()
    header = lines[0].split(",")
    variant = lines[1].split(",")
    variant[header.index("pfcp.seqno")] = ""
    repeated = list(variant)
    repeated[header.index("pfcp.s")] = ""
    repeat_path = tmp_path / "repeat.csv"
    repeat_path.write_text("\n".join([lines[0], ",".join(repeated)]) + "\n")
    variant_path = tmp_path / "variant.csv"
    variant_path.write_text("\n".join([lines[0], ",".join(repeated), ",".join(variant)]) + "\n")
    spec = SplitSpec(
        train_sources=(
            SplitSource(str(benign_path), include=(ClassLabel.NORMAL,)),
            SplitSource(str(repeat_path), include=(ClassLabel.NORMAL,)),
        ),
        val_sources=(
            SplitSource(str(benign_path)), SplitSource(str(attack_path)), SplitSource(str(repeat_path)),
        ),
        test_sources=(SplitSource(str(attack_path)), SplitSource(str(variant_path))),
    )
    train, val, test = build_splits(spec, schema)
    ids = [{row.tobytes() for row in ds.matrix} for ds in (train, val, test)]
    assert ids[0] & ids[1] == set()
    assert ids[0] & ids[2] == set()
    assert ids[1] & ids[2] == set()
    # validation reuses the benign file and the repeated row: every benign
    # row deduplicated away
    assert class_distribution(val)[ClassLabel.NORMAL] == 0
    assert len(val) == 12
    # the repeated row goes, though its empty cells are MISSING_CODE and NaN;
    # the variant differs in one cell and stays
    (row,) = test.matrix
    assert row[schema.position("pfcp.s")] != MISSING_CODE
    assert np.isnan(row[schema.position("pfcp.seqno")])


def test_benign_only_validation_warns(tmp_path, schema, caplog):
    benign_path, _ = _write_corpus(tmp_path, schema)
    half = tmp_path / "half.csv"
    save_csv(synth_benign(SynthConfig(n_benign=10, seed=77), schema), half)
    spec = SplitSpec(
        train_sources=(SplitSource(str(benign_path)),),
        val_sources=(SplitSource(str(half)),),
        test_sources=(),
    )
    with caplog.at_level("WARNING"):
        build_splits(spec, schema)
    assert any("benign-only" in record.message for record in caplog.records)


# --- class accounting --------------------------------------------------------


def test_class_distribution_counts(schema):
    ds = synth_attack(ClassLabel.MODIFICATION, 5, 2, schema)
    dist = class_distribution(ds)
    assert dist[ClassLabel.MODIFICATION] == 5
    assert sum(dist.values()) == 5


def test_class_distribution_empty(schema):
    ds = synth_benign(SynthConfig(n_benign=0, seed=0), schema)
    assert all(v == 0 for v in class_distribution(ds).values())


def test_benchmark_split_proportions(schema):
    train, val, test = synth_benchmark_splits(seed=1, schema=schema, scale=1.0)
    assert class_distribution(train) == {
        **{label: 0 for label in ClassLabel},
        ClassLabel.NORMAL: 21341,
    }
    val_dist = class_distribution(val)
    test_dist = class_distribution(test)
    for label, expected in BENCHMARK_SPLIT_COUNTS["validation"].items():
        assert val_dist[label] == expected
    assert test_dist[ClassLabel.NORMAL] == 4732
    assert test_dist[ClassLabel.FLOOD] == 1026
    assert test_dist[ClassLabel.RESTORATION_TEID] == 22
    assert test_dist[ClassLabel.DELETION] == 13
    assert test_dist[ClassLabel.MODIFICATION] == 12
    assert test_dist[ClassLabel.PDN0_FAULT] == 12


def test_synth_config_validation():
    with pytest.raises(SchemaError):
        SynthConfig(n_benign=-1)
    with pytest.raises(SchemaError):
        SynthConfig(n_benign=1, noise_scale=0.0)
