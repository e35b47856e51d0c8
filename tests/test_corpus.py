import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pfcpbench import corpus
from pfcpbench.attack import DEFAULT_COMPLIANCE_RULES, check_compliant
from pfcpbench.corpus import (
    BENCHMARK_SPLIT_COUNTS,
    MAX_CELL_MAGNITUDE,
    TEID_POOL_MAX,
    SplitSource,
    SplitSpec,
    build_splits,
    class_distribution,
    default_schema,
    load_csv,
    save_csv,
    synth_benchmark_splits,
    synth_rows,
)
from pfcpbench.errors import GuidelineViolation, IoError, SchemaError
from pfcpbench.traffic import (
    ATTACK_LABELS,
    CATEGORICAL,
    MISSING_CODE,
    NUMERICAL,
    UNKNOWN_CODE,
    CategoricalDomain,
    ClassLabel,
    FeatureDescriptor,
    FeatureSchema,
    LabeledDataset,
    NumericDomain,
)


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


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", "nan", "Infinity"])
def test_load_csv_reads_a_non_finite_cell_as_missing(tmp_path, tiny_schema, cell):
    path = tmp_path / "rows.csv"
    path.write_text(f"proto.kind,proto.len,proto.count\nA,{cell},2\n")
    ds = load_csv(path, tiny_schema)
    assert np.isnan(ds.matrix[0, 1]) and ds.matrix[0, 2] == 2.0


def test_load_csv_reads_a_cell_beyond_64_bits_as_missing(tmp_path, tiny_schema):
    # no protocol field is wider than 64 bits; 1e300 would overflow the detectors
    bound = MAX_CELL_MAGNITUDE
    assert bound == 2.0**64
    cells = [1e300, -1e300, np.nextafter(bound, math.inf), -np.nextafter(bound, math.inf),
             bound, -bound, 18446744073709551615]
    path = tmp_path / "rows.csv"
    path.write_text("proto.kind,proto.len,proto.count\n" + "".join(f"A,{c},2\n" for c in cells))
    ds = load_csv(path, tiny_schema)
    assert np.isnan(ds.matrix[:4, 1]).all()
    assert ds.matrix[4:, 1].tolist() == [bound, -bound, bound]  # the last rounds to 2**64
    assert (ds.matrix[:, 2] == 2.0).all()


def test_load_csv_rejects_a_header_that_names_a_column_twice(tmp_path, schema):
    # read by name, the second ip.ttl cell (200) would hide the first
    path = tmp_path / "rows.csv"
    path.write_text("ip.ttl,pfcp.seqno,ip.ttl,Label\n60,7,200,normal\n")
    with pytest.raises(SchemaError, match=r"header names \['ip.ttl'\] more than once"):
        load_csv(path, schema)


def test_load_csv_rejects_a_row_longer_than_its_header(tmp_path, tiny_schema):
    path = tmp_path / "rows.csv"
    path.write_text("proto.kind,proto.len,proto.count\nA,1,2\n\nB,3,4,5\n")
    with pytest.raises(SchemaError, match="line 4 has 4 cells, the header 3"):
        load_csv(path, tiny_schema)


def test_load_csv_reads_the_absent_cells_of_a_short_row_as_missing(tmp_path, tiny_schema):
    path = tmp_path / "rows.csv"
    path.write_text("proto.kind,proto.len,proto.count,Label\nB,2.5\n")
    ds = load_csv(path, tiny_schema)
    assert ds.matrix[0, :2].tolist() == [1, 2.5] and np.isnan(ds.matrix[0, 2])
    assert ds.labels == (ClassLabel.NORMAL,)


@pytest.mark.parametrize(
    "text",
    ["Label,proto.kind,proto.len,proto.count\nflood,B,2.5,1\nnormal,A,3,0\n",
     "proto.kind,proto.len,proto.count,Label\nB,2.5,1,flood\nA,3,0,normal\n"],
    ids=["label-first", "feature-first"],
)
def test_load_csv_reads_a_split_with_a_byte_order_mark_as_without(tmp_path, tiny_schema, text):
    # spreadsheets save "CSV UTF-8" with a leading BOM, which must not
    # rename the first column
    loaded = []
    for encoding in ("utf-8", "utf-8-sig"):
        path = tmp_path / f"{encoding}.csv"
        path.write_text(text, encoding=encoding)
        loaded.append(load_csv(path, tiny_schema))
    plain, marked = loaded
    assert marked.labels == plain.labels == (ClassLabel.FLOOD, ClassLabel.NORMAL)
    assert marked.matrix.tolist() == plain.matrix.tolist() == [[1, 2.5, 1], [0, 3, 0]]


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
    ds = synth_rows(ClassLabel.NORMAL, 50, 7, schema)
    path = tmp_path / "out.csv"
    save_csv(ds, path, seed=7)
    loaded = load_csv(path, schema)
    assert np.array_equal(loaded.matrix, ds.matrix, equal_nan=True)
    assert loaded.labels == ds.labels
    assert (tmp_path / "out.csv.manifest.json").exists()


def test_save_csv_writes_every_row_of_every_block(tmp_path, schema):
    ds = synth_rows(ClassLabel.NORMAL, 2 * corpus.SAVE_BLOCK_ROWS + 3, 7, schema)
    path = tmp_path / "out.csv"
    save_csv(ds, path)
    assert np.array_equal(load_csv(path, schema).matrix, ds.matrix, equal_nan=True)


def test_save_csv_writes_a_cell_outside_a_categorical_domain_as_unknown(tmp_path, tiny_schema):
    # proto.kind's codes are 0, 1 and 2: a fraction, a code past the domain
    # and NaN are none of them, and none is the missing code
    cells = [0.0, 1.5, 5.0, math.nan, MISSING_CODE, UNKNOWN_CODE]
    rows = [[v, 1.0, 0.0] for v in cells]
    ds = LabeledDataset(tiny_schema, rows, [ClassLabel.NORMAL] * len(rows))
    path = tmp_path / "out.csv"
    save_csv(ds, path)
    unknown = corpus.UNKNOWN_MARKER
    assert [line.split(",")[0] for line in path.read_text().splitlines()[1:]] == [
        "A", unknown, unknown, unknown, corpus.MISSING_MARKER, unknown
    ]
    codes = load_csv(path, tiny_schema).matrix[:, 0].tolist()
    assert codes == [0, UNKNOWN_CODE, UNKNOWN_CODE, UNKNOWN_CODE, MISSING_CODE, UNKNOWN_CODE]


# Domain labels that the CSV writer quotes, and numbers of every exponent up
# to the cell bound; an empty label would read back as missing, a line break
# is not kept, and a larger magnitude reads back as missing.
_LABELS = st.text(alphabet='ab,"\' 5.-', min_size=1, max_size=4)
_REALS = st.floats(-MAX_CELL_MAGNITUDE, MAX_CELL_MAGNITUDE) | st.just(math.nan)


@st.composite
def _splits(draw) -> LabeledDataset:
    """A split of a drawn schema: NaN numerics, missing and unknown codes, every class."""
    kinds = draw(st.lists(st.sampled_from([CATEGORICAL, NUMERICAL]), min_size=1, max_size=5))
    features, cells = [], []
    for j, kind in enumerate(kinds):
        if kind == CATEGORICAL:
            labels = draw(st.lists(_LABELS, min_size=1, max_size=4, unique=True))
            domain = CategoricalDomain(tuple(labels))
            cells.append(st.sampled_from([*range(len(labels)), MISSING_CODE, UNKNOWN_CODE]))
        else:
            domain = NumericDomain(0.0, 1.0)
            cells.append(_REALS)
        features.append(FeatureDescriptor(f"f{j}", kind, "pfcp", False, domain))
    rows = draw(st.lists(st.tuples(*cells, st.sampled_from(list(ClassLabel))), max_size=20))
    return LabeledDataset(
        FeatureSchema(tuple(features)), [row[:-1] for row in rows], [row[-1] for row in rows]
    )


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ds=_splits())
def test_csv_round_trip_is_exact(tmp_path, ds):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    save_csv(ds, first, seed=3)
    loaded = load_csv(first, ds.schema)
    assert loaded.matrix.tobytes() == ds.matrix.tobytes()
    assert loaded.labels == ds.labels
    save_csv(loaded, second, seed=3)
    assert second.read_bytes() == first.read_bytes()
    assert (tmp_path / "second.csv.manifest.json").read_bytes() == (
        tmp_path / "first.csv.manifest.json"
    ).read_bytes()


# --- synthetic generator ----------------------------------------------------


def test_synth_benign_deterministic(schema):
    a = synth_rows(ClassLabel.NORMAL, 100, 42, schema)
    b = synth_rows(ClassLabel.NORMAL, 100, 42, schema)
    assert np.array_equal(a.matrix, b.matrix, equal_nan=True)


def test_synth_benign_empty(schema):
    assert len(synth_rows(ClassLabel.NORMAL, 0, 1, schema)) == 0


def test_benign_teids_stay_in_pool(schema):
    # derived bound: scan the generated TEID column against the pool limit
    ds = synth_rows(ClassLabel.NORMAL, 2000, 42, schema)
    col = schema.position("pfcp.f_teid.teid")
    assert (ds.matrix[:, col] <= TEID_POOL_MAX).all()
    assert (ds.matrix[:, col] >= 1024).all()


def test_synth_attack_deterministic(schema):
    a = synth_rows(ClassLabel.FLOOD, 25, 9, schema)
    b = synth_rows(ClassLabel.FLOOD, 25, 9, schema)
    assert np.array_equal(a.matrix, b.matrix, equal_nan=True)


def test_deletion_rows_carry_message_type_54(schema):
    ds = synth_rows(ClassLabel.DELETION, 13, 3, schema)
    assert len(ds) == 13
    col = schema.position("pfcp.msg_type")
    code_54 = schema.features[col].domain.code_of("54")
    assert set(ds.matrix[:, col].tolist()) == {code_54}


def test_restoration_teids_exceed_pool(schema):
    ds = synth_rows(ClassLabel.RESTORATION_TEID, 20, 3, schema)
    col = schema.position("pfcp.f_teid.teid")
    assert (ds.matrix[:, col] > TEID_POOL_MAX).all()


@pytest.mark.parametrize("kind", ATTACK_LABELS)
def test_generator_rows_are_compliant(schema, kind):
    # every generated row satisfies its class predicates
    ds = synth_rows(kind, 40, 11, schema)
    spec = DEFAULT_COMPLIANCE_RULES[kind]
    assert all(check_compliant(spec, schema, row) for row in ds.matrix)


# --- splits -----------------------------------------------------------------


def _write_corpus(tmp_path, schema):
    benign = synth_rows(ClassLabel.NORMAL, 60, 5, schema)
    attacks = synth_rows(ClassLabel.FLOOD, 12, 5, schema)
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
    save_csv(synth_rows(ClassLabel.NORMAL, 10, 77, schema), half)
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
    ds = synth_rows(ClassLabel.MODIFICATION, 5, 2, schema)
    dist = class_distribution(ds)
    assert dist[ClassLabel.MODIFICATION] == 5
    assert sum(dist.values()) == 5


def test_class_distribution_empty(schema):
    ds = synth_rows(ClassLabel.NORMAL, 0, 0, schema)
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


@pytest.mark.parametrize(
    "kwargs, digest",
    [
        ({"seed": 42, "scale": 0.05},
         "02d0777dbc80bad5742cd4195a092afa082d8049b418f394617d8aba72db2ccf"),
        ({"seed": 7, "scale": 0.02, "noise_scale": 0.5},
         "09bc8c175b06d33b37703abc7c1e407e8b903836aa6fe392e12cd9cd9bfa8f80"),
    ],
    ids=["seed42-scale0.05", "seed7-scale0.02-noise0.5"],
)
def test_benchmark_splits_match_their_golden_digest(kwargs, digest):
    # every run output starts from these bytes: a generator edit that moves
    # one draw changes every report
    h = hashlib.sha256()
    for ds in synth_benchmark_splits(**kwargs):
        h.update(ds.matrix.tobytes())
        h.update("\n".join(label.value for label in ds.labels).encode())
    assert h.hexdigest() == digest
