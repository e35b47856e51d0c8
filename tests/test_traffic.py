import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfcpbench.corpus import load_csv, save_csv
from pfcpbench.errors import SchemaError
from pfcpbench.traffic import (
    MISSING_CODE,
    UNKNOWN_CODE,
    CategoricalDomain,
    ClassLabel,
    FeatureDescriptor,
    FeatureSchema,
    LabeledDataset,
    NumericDomain,
    parse_label,
)


def test_categorical_codes_are_sorted_positions():
    domain = CategoricalDomain(("C", "A", "B"))
    assert domain.labels == ("A", "B", "C")
    assert domain.code_of("B") == 1


def test_encode_missing_and_unknown(tmp_path, tiny_schema):
    path = tmp_path / "rows.csv"
    path.write_text("proto.kind,proto.len,proto.count\nB,4.5,1\n,,0\nZ,1,0\n")
    ds = load_csv(path, tiny_schema)
    assert ds.matrix[:, 0].tolist() == [1, MISSING_CODE, UNKNOWN_CODE]
    assert ds.matrix[0, 1:].tolist() == [4.5, 1.0]
    assert np.isnan(ds.matrix[1, 1])


def _csv_roundtrip(tmp_dir, ds: LabeledDataset) -> tuple[list[list[str]], LabeledDataset]:
    """The data cells ``save_csv`` writes for ``ds``'s rows, and ``load_csv`` of them."""
    path = tmp_dir / "rows.csv"
    save_csv(ds, path)
    cells = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return cells, load_csv(path, ds.schema)


def _one_row(schema, label, length, count) -> LabeledDataset:
    code = schema.features[0].domain.code_of(label)
    return LabeledDataset(schema, [[code, length, count]], [ClassLabel.NORMAL])


def test_roundtrip_in_domain(tmp_path, tiny_schema):
    cells, loaded = _csv_roundtrip(tmp_path, _one_row(tiny_schema, "C", 42.25, -3.0))
    assert cells == [["C", repr(42.25), repr(-3.0), "normal"]]
    assert loaded.matrix.tolist() == [[2, 42.25, -3.0]]


@settings(max_examples=50)
@given(
    label=st.sampled_from(["A", "B", "C"]),
    length=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    count=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
def test_roundtrip_property(tmp_path_factory, label, length, count):
    schema = FeatureSchema(
        features=(
            FeatureDescriptor(
                "proto.kind", "categorical", "pfcp", False, CategoricalDomain(("A", "B", "C"))
            ),
            FeatureDescriptor("proto.len", "numerical", "pfcp", False, NumericDomain(0.0, 100.0)),
            FeatureDescriptor("proto.count", "numerical", "pfcp", False, NumericDomain(-5.0, 5.0)),
        )
    )
    ds = _one_row(schema, label, length, count)
    cells, loaded = _csv_roundtrip(tmp_path_factory.mktemp("roundtrip"), ds)
    assert cells == [[label, repr(length), repr(count), "normal"]]
    assert np.array_equal(loaded.matrix, ds.matrix)
    assert loaded.labels == ds.labels


def test_schema_roundtrip(tmp_path, tiny_schema):
    path = tmp_path / "schema.json"
    tiny_schema.save(path)
    loaded = FeatureSchema.load(path)
    assert loaded.names == tiny_schema.names
    assert loaded.version == tiny_schema.version
    assert loaded.features[0].domain.labels == tiny_schema.features[0].domain.labels
    assert loaded.features[1].domain == tiny_schema.features[1].domain
    # serializing again produces identical bytes
    path2 = tmp_path / "schema2.json"
    loaded.save(path2)
    assert path.read_text() == path2.read_text()


def test_schema_rejects_duplicates():
    desc = FeatureDescriptor("x", "numerical", "meta", False, NumericDomain(0, 1))
    with pytest.raises(SchemaError):
        FeatureSchema(features=(desc, desc))


def test_schema_rejects_empty_categorical_domain(tiny_schema):
    # an empty label set has no code for an attack gene to take
    doc = tiny_schema.to_json_dict()
    doc["features"][0]["domain"] = {"labels": []}
    with pytest.raises(SchemaError, match="at least one label"):
        FeatureSchema.from_json_dict(doc)


@pytest.mark.parametrize(
    "path, value",
    [
        (("features", 0, "environment_dependent"), "false"),
        (("features", 0, "environment_dependent"), 0),
        (("features", 0, "name"), 7),
        (("features", 0, "domain", "labels"), [1, 2, 3]),
        (("features", 0, "domain", "labels"), "ABC"),
        (("features", 1, "domain", "lo"), "0"),
        (("features", 1, "domain", "hi"), True),
        (("version",), "1"),
        (("version",), 1.0),
        (("features", 0, "comment"), "a note"),
        (("features", 0, "domain", "comment"), "a note"),
        (("comment",), "a note"),
    ],
    ids=["string-flag", "integer-flag", "numeric-name", "numeric-labels", "string-labels",
         "string-bound", "bool-bound", "string-version", "float-version", "unknown-key",
         "unknown-domain-key", "unknown-top-level-key"],
)
def test_schema_document_values_are_checked_not_coerced(tiny_schema, path, value):
    doc = tiny_schema.to_json_dict()
    *parents, key = path
    node = doc
    for parent in parents:
        node = node[parent]
    node[key] = value
    with pytest.raises(SchemaError):
        FeatureSchema.from_json_dict(doc)


@pytest.mark.parametrize("labels", [("", "1"), ("1", "__unknown__")])
def test_categorical_domain_refuses_a_label_that_is_a_csv_marker(labels):
    # an empty cell reads back as missing and "__unknown__" as outside the
    # domain, so such a label would not survive a CSV round trip
    with pytest.raises(SchemaError, match="reserved"):
        CategoricalDomain(labels)


def test_attacks_mask_marks_non_normal_rows(tiny_schema):
    labels = [ClassLabel.NORMAL, ClassLabel.FLOOD, ClassLabel.PDN0_FAULT, ClassLabel.NORMAL]
    ds = LabeledDataset(tiny_schema, np.zeros((4, 3)), labels)
    assert ds.attacks.dtype == bool
    assert ds.attacks.tolist() == [False, True, True, False]
    with pytest.raises(ValueError):
        ds.attacks[0] = True
    assert LabeledDataset(tiny_schema, np.zeros((0, 3)), []).attacks.shape == (0,)


def test_vectors_are_immutable(tiny_schema):
    source = np.array([[0.0, 1.0, 2.0]])
    ds = LabeledDataset(tiny_schema, source, [ClassLabel.NORMAL])
    assert not ds.matrix.flags.writeable
    with pytest.raises(ValueError):
        ds.matrix[0, 1] = 9.0
    with pytest.raises(ValueError):
        ds.matrix[0, 0] = 1
    source[0, 1] = 9.0  # the dataset holds its own copy
    assert ds.matrix[0, 1] == 1.0


def test_dataset_row_alignment(tmp_path, tiny_schema):
    labels = [ClassLabel.NORMAL, ClassLabel.FLOOD] * 2 + [ClassLabel.NORMAL]
    ds = LabeledDataset(tiny_schema, [[i % 3, float(i), -1.0] for i in range(5)], labels)
    assert len(ds) == 5
    assert ds.matrix.shape == (5, 3)
    assert ds.matrix[:, 0].tolist() == [0, 1, 2, 0, 1]
    assert ds.matrix[:, 1].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    floods = ds.subset(np.array([lab is ClassLabel.FLOOD for lab in labels]))
    assert floods.matrix[:, 1].tolist() == [1.0, 3.0]
    assert floods.labels == (ClassLabel.FLOOD, ClassLabel.FLOOD)
    with pytest.raises(ValueError):
        LabeledDataset(tiny_schema, ds.matrix, labels[:4])
    # columns follow the schema positions, not the order of the CSV header
    path = tmp_path / "rows.csv"
    path.write_text("proto.count,proto.len,proto.kind\n-2,7.5,C\n")
    assert load_csv(path, tiny_schema).matrix.tolist() == [[2, 7.5, -2.0]]


def test_parse_label_aliases():
    assert parse_label("Normal") is ClassLabel.NORMAL
    assert parse_label("PFCP Restoration-TEID") is ClassLabel.RESTORATION_TEID
    assert parse_label("pdn0") is ClassLabel.PDN0_FAULT
    with pytest.raises(SchemaError):
        parse_label("mystery")


def test_json_schema_document_shape(tiny_schema):
    doc = tiny_schema.to_json_dict()
    assert set(doc) == {"version", "features"}
    assert set(doc["features"][0]) == {
        "name", "kind", "protocol", "environment_dependent", "domain",
    }
    json.dumps(doc)  # JSON-serializable
