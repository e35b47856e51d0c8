import csv
import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pfcpbench import detectors as det_mod
from pfcpbench.cli import main
from pfcpbench.config import parse_algorithm, parse_run_config, read_config
from pfcpbench.corpus import default_schema, load_csv
from pfcpbench.detectors import DETECTOR_FORMAT, DetectorKind, DetectorModel
from pfcpbench.ensemble import ENSEMBLE_FORMAT, EnsembleModel
from pfcpbench.errors import ConfigError, PfcpBenchError
from pfcpbench.preprocess import PipelineModel
from pfcpbench.traffic import ClassLabel

REPO = Path(__file__).resolve().parent.parent

BASE_CONFIG = {
    "seed": 42,
    "corpus": {"synth": {"scale": 0.03}},
    "pipeline": {"scaling": False},
    "detectors": [{"kind": "HBOS"}],
    "ensembles": [],
    "attack": {"algorithms": ["RS"], "targets": ["HBOS"]},
}


def write_config(tmp_path, **updates) -> Path:
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["out"] = str(tmp_path / "runs")
    doc.update(updates)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


def run(cmd, config, *extra) -> int:
    return main([cmd, "--config", str(config), *extra])


def only_run_dir(tmp_path) -> Path:
    runs = sorted((tmp_path / "runs").glob("run-*"))
    assert len(runs) == 1
    return runs[0]


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture()
def pipeline_run(tmp_path):
    config = write_config(tmp_path)
    assert run("preprocess", config) == 0
    return config, only_run_dir(tmp_path)


def test_preprocess_writes_artifacts(pipeline_run):
    _, run_dir = pipeline_run
    assert (run_dir / "pipeline.json").exists()
    assert (run_dir / "drop_report.json").exists()
    for split in ("train", "validation", "test"):
        assert (run_dir / "preprocessed" / f"{split}.csv").exists()
    report = json.loads((run_dir / "drop_report.json").read_text())
    assert report["ip.src"] == "GT1"
    assert report["udp.dstport"] == "GT1"


@pytest.mark.parametrize("scaling", [False, True], ids=["off", "on"])
def test_preprocess_follows_pipeline_scaling(tmp_path, scaling):
    config = write_config(tmp_path, pipeline={"scaling": scaling})
    assert run("preprocess", config) == 0
    run_dir = only_run_dir(tmp_path)
    doc = json.loads((run_dir / "pipeline.json").read_text())
    assert (doc["scaler"] is not None) is scaling


def test_preprocess_rerun_is_byte_identical(pipeline_run):
    config, run_dir = pipeline_run
    before = tree_digest(run_dir)
    assert run("preprocess", config) == 0
    assert tree_digest(run_dir) == before


def test_preprocess_rejects_attack_rows_in_train(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run("synth", config) == 0
    run_dir = only_run_dir(tmp_path)
    train_csv = run_dir / "corpus" / "train.csv"
    rows = train_csv.read_text().splitlines()
    test_csv = (run_dir / "corpus" / "test.csv").read_text().splitlines()
    attack_line = next(line for line in test_csv[1:] if line.endswith("flood"))
    train_csv.write_text("\n".join(rows + [attack_line]) + "\n")
    code = run("preprocess", config)
    captured = capsys.readouterr()
    assert code == 4
    assert "GT4" in captured.err


def test_train_writes_models_and_grid_log(tmp_path):
    config = write_config(
        tmp_path,
        detectors=[{"kind": "HBOS", "grid": {"bins": [5, 10, 20, 40]}}],
    )
    assert run("preprocess", config) == 0
    assert run("train", config) == 0
    run_dir = only_run_dir(tmp_path)
    assert (run_dir / "models" / "HBOS.json").exists()
    # models/ holds containers and array files only; the grid log is in train_log.json
    assert all(p.suffix == ".json" or det_mod.is_array_file(p.name)
               for p in (run_dir / "models").iterdir())
    assert [p.name for p in (run_dir / "models").glob("*.json")] == ["HBOS.json"]
    train_log = json.loads((run_dir / "train_log.json").read_text())
    assert train_log["HBOS"]["status"] == "ok"
    grid_log = train_log["HBOS"]["grid"]
    assert len(grid_log) == 4
    assert all("f1" in entry for entry in grid_log)


def test_train_keeps_the_grid_winner_without_refitting(tmp_path, monkeypatch):
    fitted = []
    real_fit = det_mod.fit

    def counting_fit(config, *args, **kwargs):
        fitted.append(config.kind)
        return real_fit(config, *args, **kwargs)

    monkeypatch.setattr(det_mod, "fit", counting_fit)
    config = write_config(tmp_path, detectors=[{"kind": "HBOS", "grid": {"bins": [5, 10, 20]}}])
    assert run("preprocess", config) == 0
    assert run("train", config) == 0
    assert fitted == [DetectorKind.HBOS] * 3


def test_train_logs_bad_hyperparameters(tmp_path):
    config = write_config(tmp_path, detectors=[
        {"kind": "kNN", "params": {"k": 0}},
        {"kind": "LODA", "params": {"bins": "x"}},
        {"kind": "HBOS", "grid": {"bins": 3}},
        {"kind": "PCA", "grid": {"variance_fraction": [0]}},
        {"kind": "COPOD", "grid": {"contamination": ["x"]}},
        {"kind": "FeatureBagging", "params": {"subset_range": [5, 2]}},
    ])
    assert run("preprocess", config) == 0
    assert run("train", config) == 0
    train_log = json.loads((only_run_dir(tmp_path) / "train_log.json").read_text())
    assert {name: entry["error"].split(":")[0] for name, entry in train_log.items()} == {
        "kNN": "FitError", "LODA": "FitError", "HBOS": "GridSearchError", "PCA": "FitError",
        "COPOD": "SchemaError", "FeatureBagging": "FitError",
    }
    assert "k must be" in train_log["kNN"]["error"]
    assert "variance_fraction must lie in (0, 1]" in train_log["PCA"]["error"]
    assert "contamination must be a number" in train_log["COPOD"]["error"]
    assert "subset_range must be null or [lo, hi]" in train_log["FeatureBagging"]["error"]


def test_failed_retrain_leaves_no_earlier_model_to_score(tmp_path):
    config = write_config(
        tmp_path,
        detectors=[{"kind": "HBOS"}, {"kind": "kNN", "params": {"k": 5}}],
        attack={"algorithms": ["RS"], "targets": None},
    )
    for cmd in ("preprocess", "train", "evaluate", "attack"):
        assert run(cmd, config) == 0
    run_dir = only_run_dir(tmp_path)
    assert (run_dir / "campaign-kNN-RS.jsonl").exists()
    # five rows are too few for kNN with k = 5, and enough for HBOS
    train_csv = run_dir / "preprocessed" / "train.csv"
    train_csv.write_text("\n".join(train_csv.read_text().splitlines()[:6]) + "\n")
    for cmd in ("train", "evaluate", "attack"):
        assert run(cmd, config) == 0
    train_log = json.loads((run_dir / "train_log.json").read_text())
    assert train_log["kNN"]["error"].startswith("FitError")
    assert [p.name for p in (run_dir / "models").glob("*.json")] == ["HBOS.json"]
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert [row["model"] for row in metrics] == ["HBOS"]
    matrix = list(csv.DictReader((run_dir / "detection_matrix.csv").read_text().splitlines()))
    assert [row["model"] for row in matrix] == ["HBOS"]
    evasion = json.loads((run_dir / "evasion.json").read_text())
    assert [row["model"] for row in evasion] == ["HBOS"]
    assert [p.name for p in run_dir.glob("campaign-*.jsonl")] == ["campaign-HBOS-RS.jsonl"]


def test_train_clears_earlier_models_and_keeps_other_files(pipeline_run):
    config, run_dir = pipeline_run
    models_dir = run_dir / "models"
    models_dir.mkdir()
    (models_dir / "grid_HBOS.json").write_text('[{"params": {"bins": 5}, "f1": 0.5}]')
    (models_dir / f"{'ab' * 32}.f8").write_bytes(bytes(8))
    (models_dir / "NOTES.txt").write_text("kept")
    assert run("train", config) == 0
    assert sorted(p.name for p in models_dir.glob("*.json")) == ["HBOS.json"]
    assert not (models_dir / f"{'ab' * 32}.f8").exists()
    assert (models_dir / "NOTES.txt").read_text() == "kept"
    assert run("evaluate", config) == 0


def test_stage_that_cannot_start_keeps_its_earlier_outputs(tmp_path, capsys):
    j_config = tmp_path / "feasible.json"
    j_config.write_text("{}")
    config = write_config(
        tmp_path, attack={"algorithms": ["RS"], "targets": ["HBOS"], "j_config": str(j_config)}
    )
    for cmd in ("preprocess", "train", "attack"):
        assert run(cmd, config) == 0
    run_dir = only_run_dir(tmp_path)
    before = tree_digest(run_dir)
    j_config.write_text('{"flood": {"features": "ip.ttl"}}')
    assert run("attack", config) == 12
    (run_dir / "preprocessed" / "validation.csv").unlink()
    assert run("train", config) == 12
    del before["preprocessed/validation.csv"]
    assert tree_digest(run_dir) == before
    assert "Traceback" not in capsys.readouterr().err


def test_corpus_csv_that_is_not_utf8_is_io_error(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run("synth", config) == 0
    with open(only_run_dir(tmp_path) / "corpus" / "test.csv", "ab") as csv_file:
        csv_file.write(b"\xff")
    assert run("preprocess", config) == 2
    err = capsys.readouterr().err
    assert "error[IoError] cannot read" in err and "test.csv" in err and "Traceback" not in err


def test_preprocess_with_an_empty_training_csv_is_a_pipeline_error(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run("synth", config) == 0
    corpus = only_run_dir(tmp_path) / "corpus"
    empty = tmp_path / "empty_train.csv"
    empty.write_text((corpus / "train.csv").read_text().splitlines()[0] + "\n")
    splits = {
        "train": [{"path": str(empty)}],
        "validation": [{"path": str(corpus / "validation.csv")}],
        "test": [{"path": str(corpus / "test.csv")}],
    }
    config = write_config(tmp_path, corpus={"splits": splits})
    assert run("preprocess", config) == 6
    assert "no benign training rows" in capsys.readouterr().err


def test_train_pulls_ensemble_bases(tmp_path):
    config = write_config(tmp_path, detectors=[], ensembles=["HKGIP"])
    assert run("preprocess", config) == 0
    assert run("train", config) == 0
    run_dir = only_run_dir(tmp_path)
    for name in ("HBOS", "kNN", "GMM", "INNE", "PCA", "HKGIP"):
        assert (run_dir / "models" / f"{name}.json").exists(), name


def test_evaluate_outputs(tmp_path):
    config = write_config(tmp_path)
    for cmd in ("preprocess", "train", "evaluate"):
        assert run(cmd, config) == 0
    run_dir = only_run_dir(tmp_path)
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert metrics[0]["model"] == "HBOS"
    assert set(metrics[0]) == {"model", "scaled", "auc", "precision", "recall", "f1"}
    matrix_rows = list(csv.DictReader((run_dir / "detection_matrix.csv").read_text().splitlines()))
    assert matrix_rows[0]["model"] == "HBOS"
    assert "normal" in matrix_rows[0]


def test_attack_respects_algorithm_restriction(tmp_path):
    # a lower-case name is the same algorithm as its canonical spelling
    config = write_config(tmp_path, attack={"algorithms": ["rs"], "targets": ["HBOS"]})
    for cmd in ("preprocess", "train", "attack"):
        assert run(cmd, config) == 0
    run_dir = only_run_dir(tmp_path)
    evasion = json.loads((run_dir / "evasion.json").read_text())
    assert {e["algorithm"] for e in evasion} == {"RS"}
    assert (run_dir / "campaign-HBOS-RS.jsonl").exists()
    assert not (run_dir / "campaign-HBOS-GA_DE.jsonl").exists()


def test_attack_without_algorithms_writes_an_empty_evasion_table(tmp_path):
    config = write_config(tmp_path, attack={"algorithms": [], "targets": ["HBOS"]})
    for cmd in ("preprocess", "train", "attack"):
        assert run(cmd, config) == 0
    run_dir = only_run_dir(tmp_path)
    assert (run_dir / "evasion.json").read_text() == "[]"
    assert (run_dir / "evasion.csv").read_text() == (
        "model,algorithm,scaled,evasion_rate,n_attempted,n_evaded\n"
    )
    assert not list(run_dir.glob("campaign-*.jsonl"))


def test_attack_budget_changes_run_dir_and_outcomes(tmp_path):
    for budget in (100, 7):
        config = write_config(
            tmp_path,
            attack={"algorithms": ["GA_DE"], "targets": ["HBOS"], "budget": budget},
        )
        for cmd in ("preprocess", "train"):
            assert run(cmd, config) == 0
    # the budget is part of the run's content, so each budget has its own run
    assert run("attack", config) == 0
    runs = sorted((tmp_path / "runs").glob("run-*"))
    assert len(runs) == 2
    (attacked,) = [r for r in runs if (r / "campaign-HBOS-GA_DE.jsonl").exists()]
    outcomes = [
        json.loads(line)
        for line in (attacked / "campaign-HBOS-GA_DE.jsonl").read_text().splitlines()
    ]
    assert outcomes and all(o["queries_used"] <= 7 for o in outcomes)


def test_v1_detector_container_fails_with_schema_error(pipeline_run, capsys):
    config, run_dir = pipeline_run
    assert run("train", config) == 0
    path = run_dir / "models" / "HBOS.json"
    doc = json.loads(path.read_text())
    doc["format"] = "pfcpbench-detector-v1"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("evaluate", config) == 3
    assert "pfcpbench-detector-v1" in capsys.readouterr().err


def _damage_heights(**changes):
    """Rewrite HBOS's ``heights`` array reference with ``changes``."""
    def damage(doc, models):
        doc["state"]["heights"].update(changes)
    return damage


def _inline_data(data):
    """``heights`` as an inline ``data`` payload, as v8 and older stored most
    arrays, in place of its file's sha256."""
    def damage(doc, models):
        doc["state"]["heights"]["data"] = data
        del doc["state"]["heights"]["sha256"]
    return damage


def _truncate_heights_file(doc, models):
    path = models / f"{doc['state']['heights']['sha256']}.f8"
    path.write_bytes(path.read_bytes()[:-8])


def _retagged(tag):
    def damage(doc, models):
        doc["format"] = tag
    return damage


def _as_v2_detector(doc, models):
    doc["format"] = "pfcpbench-detector-v2"
    payload = doc["state"]["heights"]
    shape = payload["shape"]
    payload["data"] = [0.5] * (shape[0] * shape[1])


def _string_iforest_depth(doc, models):
    doc["state"]["depth"] = "3"


def _reverse_loda_shape(doc, models):
    doc["state"]["W"]["shape"].reverse()  # the same byte count


def _assert_exit_3(config, message, capsys):
    for cmd in ("evaluate", "attack"):
        capsys.readouterr()
        assert run(cmd, config) == 3, cmd
        err = capsys.readouterr().err
        assert "error[SchemaError]" in err and message in err, err


@pytest.mark.parametrize(
    "damage, message",
    [
        (_inline_data("AAAAAAAAAAA="), "sha256 None"),
        (_inline_data([1.0, 2.0]), "sha256 None"),
        (_truncate_heights_file, "sha256"),
        (_damage_heights(shape=[1, 3]), "bytes of data"),
        (_damage_heights(dtype="<f4"), "dtype"),
        (_damage_heights(dtype="float64"), "dtype"),
        (_damage_heights(shape=[-1, 10]), "shape"),
        (_damage_heights(shape=[2.0, 10]), "shape"),
        (_damage_heights(shape="3x10"), "shape"),
        (_as_v2_detector, "pfcpbench-detector-v2"),
        (_retagged("pfcpbench-detector-v3"), "pfcpbench-detector-v3"),
        (_retagged("pfcpbench-detector-v4"), "pfcpbench-detector-v4"),
        (_retagged("pfcpbench-detector-v5"), "pfcpbench-detector-v5"),
        (_retagged("pfcpbench-detector-v6"), "pfcpbench-detector-v6"),
        (_retagged("pfcpbench-detector-v7"), "pfcpbench-detector-v7"),
        (_retagged("pfcpbench-detector-v8"), "pfcpbench-detector-v8"),
    ],
    ids=[
        "inline-base64-data", "inline-list-data", "truncated-array-file", "wrong-byte-count",
        "f4-dtype", "named-dtype", "negative-shape", "float-shape", "string-shape",
        "v2-detector", "v3-detector", "v4-detector", "v5-detector", "v6-detector",
        "v7-detector", "v8-detector",
    ],
)
def test_malformed_array_payload_fails_with_schema_error(pipeline_run, damage, message, capsys):
    config, run_dir = pipeline_run
    assert run("train", config) == 0
    path = run_dir / "models" / "HBOS.json"
    doc = json.loads(path.read_text())
    damage(doc, path.parent)
    path.write_text(json.dumps(doc, sort_keys=True))
    _assert_exit_3(config, message, capsys)


@pytest.mark.parametrize(
    "kind, damage",
    [("IForest", _string_iforest_depth), ("LODA", _reverse_loda_shape)],
    ids=["string-iforest-depth", "reversed-loda-shape"],
)
def test_damaged_container_that_still_parses_fails_with_schema_error(tmp_path, kind, damage,
                                                                    capsys):
    # each would score into a TypeError or ValueError traceback if it loaded
    config = write_config(tmp_path, detectors=[{"kind": kind}],
                          attack={"algorithms": ["RS"], "targets": [kind]})
    for cmd in ("preprocess", "train"):
        assert run(cmd, config) == 0
    path = only_run_dir(tmp_path) / "models" / f"{kind}.json"
    doc = json.loads(path.read_text())
    damage(doc, path.parent)
    path.write_text(json.dumps(doc, sort_keys=True))
    _assert_exit_3(config, "does not hash to its recorded sha256", capsys)


def test_attack_honors_feasible_set_config(tmp_path):
    j_config = tmp_path / "feasible.json"
    j_config.write_text(json.dumps({
        "flood": {"features": ["ip.ttl", "pfcp.seqno"]},
        "deletion": {"features": []},  # class skipped entirely
    }))
    config = write_config(
        tmp_path,
        attack={
            "algorithms": ["RS"],
            "targets": ["HBOS"],
            "j_config": str(j_config),
        },
    )
    for cmd in ("preprocess", "train", "attack"):
        assert run(cmd, config) == 0
    run_dir = only_run_dir(tmp_path)
    outcomes = [
        json.loads(line)
        for line in (run_dir / "campaign-HBOS-RS.jsonl").read_text().splitlines()
    ]
    assert outcomes
    assert all(o["attack_class"] != "deletion" for o in outcomes)
    allowed = {"ip.ttl", "pfcp.seqno"}
    for o in outcomes:
        if o["attack_class"] == "flood":
            assert set(o["modified"]) <= allowed


def test_attack_marginals_from_the_attack_rows(tmp_path):
    # RS and GA_ES set a gene only to a value drawn from the marginals;
    # GA_DE's a + F(b - c) makes new values, so it is left out.  The fields
    # of J are those where some attack rows fall inside the benign range; in
    # the rest, such as ip.ttl, no attack row does, so they have no marginal.
    j_config = tmp_path / "feasible.json"
    j_config.write_text(json.dumps({
        label.value: {"features": ["ip.dsfield.dscp", "ip.len", "udp.length", "pfcp.length"]}
        for label in ClassLabel if label is not ClassLabel.NORMAL
    }))
    campaigns = {}
    for source in ("train", "attack"):
        (tmp_path / source).mkdir()
        config = write_config(
            tmp_path / source,
            attack={"algorithms": ["RS", "GA_ES"], "targets": ["HBOS"], "marginals": source,
                    "j_config": str(j_config)},
        )
        for cmd in ("preprocess", "train", "attack"):
            assert run(cmd, config) == 0
        run_dir = only_run_dir(tmp_path / source)
        campaigns[source] = {p.name: p.read_text() for p in run_dir.glob("campaign-*.jsonl")}
    assert sorted(campaigns["attack"]) == ["campaign-HBOS-GA_ES.jsonl", "campaign-HBOS-RS.jsonl"]
    for name, text in campaigns["attack"].items():
        assert text != campaigns["train"][name], name
    schema = PipelineModel.load(run_dir / "pipeline.json").output_schema
    test = load_csv(run_dir / "preprocessed" / "test.csv", schema)
    attack_rows = test.matrix[[label is not ClassLabel.NORMAL for label in test.labels]]
    modified = [
        (name, value)
        for text in campaigns["attack"].values()
        for outcome in map(json.loads, text.splitlines())
        for name, value in outcome["modified"].items()
    ]
    assert modified
    for name, value in modified:
        assert value in attack_rows[:, schema.position(name)], (name, value)


def test_attack_builds_each_feasible_set_once(tmp_path, monkeypatch):
    from pfcpbench import attack

    built = []
    build = attack.build_feasible_set

    def counted(schema, names, spec, narrow=None):
        built.append(spec.attack_class)
        return build(schema, names, spec, narrow)

    monkeypatch.setattr(attack, "build_feasible_set", counted)
    config = write_config(
        tmp_path, attack={"algorithms": ["RS", "GA_DE", "GA_ES"], "targets": ["HBOS"], "budget": 3}
    )
    for cmd in ("preprocess", "train", "attack"):
        assert run(cmd, config) == 0
    assert len(list(only_run_dir(tmp_path).glob("campaign-*.jsonl"))) == 3
    assert sorted(built, key=str) == sorted(attack.DEFAULT_COMPLIANCE_RULES, key=str)


@pytest.fixture(scope="module")
def j_config_run(tmp_path_factory):
    """A trained run whose config points at a J-config file the test rewrites."""
    tmp_path = tmp_path_factory.mktemp("jconfig")
    j_config = tmp_path / "feasible.json"
    j_config.write_text("{}")
    config = write_config(
        tmp_path,
        attack={"algorithms": ["RS"], "targets": ["HBOS"], "j_config": str(j_config)},
    )
    for cmd in ("preprocess", "train"):
        assert run(cmd, config) == 0
    return config, j_config


@pytest.mark.parametrize(
    "text",
    [
        '{"not_a_class": {"features": ["ip.ttl"]}}',
        '{"normal": {"features": ["ip.ttl"]}}',
        '{"restoration_teid": ["ip.ttl"]}',
        '{"flood": {"features": "ip.ttl"}}',
        '{"flood": {"features": [7]}}',
        '{"flood": {"narrow": ["ip.ttl"]}}',
        '{"flood": {"feature": ["ip.ttl"]}}',
        '["flood"]',
        '{"flood": ',
        '{"flood": {"features": ["ip.ttl"], "narrow": {"ip.ttl": {}}}}',
        '{"flood": {"features": ["ip.ttl"], "narrow": {"ip.ttl": {"lo": "x", "hi": 3}}}}',
        '{"flood": {"features": ["ip.ttl"], "narrow": {"ip.ttl": {"lo": NaN, "hi": 3}}}}',
        '{"flood": {"features": ["ip.ttl"], "narrow": {"ip.ttl": {"lo": 0, "hi": 1e9, "step": 1}}}}',
        '{"flood": {"features": ["ip.ttl"], "narrow": {"ip.ttl": {"lo": 62, "hi": 60}}}}',
        '{"flood": {"features": ["ip.ttl"], "narrow": {"ip.ttl": {"lo": 1e6, "hi": 2e6}}}}',
        '{"flood": {"features": ["ip.dsfield.dscp"], '
        '"narrow": {"ip.dsfield.dscp": {"lo": 0, "hi": 1}}}}',
        '{"flood": {"features": ["ip.dsfield.dscp"], '
        '"narrow": {"ip.dsfield.dscp": {"labels": ["0", "0"]}}}}',
        '{"flood": {"features": ["ip.dsfield.dscp"], '
        '"narrow": {"ip.dsfield.dscp": {"labels": ["no-such-label"]}}}}',
        '{"flood": {"features": ["ip.ttl"], "narrow": {"ip.len": {"lo": 0, "hi": 1e9}}}}',
        '{"flood": {"features": [], "narrow": {"ip.ttl": {"lo": 0, "hi": 1e9}}}}',
        '{"flood": {"narrow": {"pfcp.msg_type": {"labels": ["50"]}}}}',
        '{"flood": {"features": ["ip.src"]}}',
        '{"flood": {"features": ["ip.ttl", "ip.len", "ip.ttl"]}}',
    ],
    ids=["unknown-class", "benign-class", "bare-list", "features-string", "features-number",
         "narrow-list", "misspelt-key", "top-level-list", "invalid-json",
         "narrow-empty-bounds", "narrow-string-bound", "narrow-nan-bound", "narrow-extra-key",
         "narrow-inverted", "narrow-outside-domain", "narrow-bounds-on-categorical",
         "narrow-repeated-label", "narrow-unknown-label", "narrow-outside-j",
         "narrow-with-empty-j", "narrow-protected-field", "feature-not-in-schema",
         "repeated-feature"],
)
def test_attack_rejects_malformed_feasible_set_config(j_config_run, text, capsys):
    config, j_config = j_config_run
    j_config.write_text(text)
    assert run("attack", config) == 12
    assert "error[ConfigError] feasible-set config" in capsys.readouterr().err


def test_attack_rejects_a_directory_as_feasible_set_config(j_config_run, capsys):
    config, j_config = j_config_run
    j_config.unlink()
    j_config.mkdir()
    try:
        assert run("attack", config) == 12
    finally:
        j_config.rmdir()
        j_config.write_text("{}")
    err = capsys.readouterr().err
    assert "error[ConfigError] cannot read feasible-set config" in err and "Traceback" not in err


def test_attack_narrow_without_features_narrows_the_default_set(j_config_run):
    config, j_config = j_config_run
    campaign = only_run_dir(config.parent) / "campaign-HBOS-RS.jsonl"

    def flood_outcomes(text):
        j_config.write_text(text)
        assert run("attack", config) == 0
        outcomes = map(json.loads, campaign.read_text().splitlines())
        return [o for o in outcomes if o["attack_class"] == "flood"]

    default = flood_outcomes("{}")
    narrowed = flood_outcomes('{"flood": {"narrow": {"ip.ttl": {"lo": 60, "hi": 62}}}}')
    assert narrowed
    assert [o["sample_index"] for o in narrowed] == [o["sample_index"] for o in default]
    assert any(set(o["modified"]) - {"ip.ttl"} for o in narrowed)
    assert all(60 <= o["modified"].get("ip.ttl", 60) <= 62 for o in narrowed)


def test_full_pipeline_rerun_is_byte_identical(tmp_path):
    config = write_config(
        tmp_path,
        attack={"algorithms": ["RS", "GA_DE"], "targets": ["HBOS"]},
    )
    for cmd in ("preprocess", "train", "evaluate", "attack", "report"):
        assert run(cmd, config) == 0
    run_dir = only_run_dir(tmp_path)
    first = tree_digest(run_dir)
    for cmd in ("preprocess", "train", "evaluate", "attack", "report"):
        assert run(cmd, config) == 0
    assert tree_digest(run_dir) == first


def test_report_consolidates(tmp_path):
    config = write_config(tmp_path)
    for cmd in ("preprocess", "train", "evaluate", "attack", "report"):
        assert run(cmd, config) == 0
    run_dir = only_run_dir(tmp_path)
    report_dir = run_dir / "report"
    for name in ("metrics.json", "metrics.csv", "evasion.json", "evasion.csv", "detection_matrix.csv"):
        assert (report_dir / name).read_text() == (run_dir / name).read_text()


def test_report_without_artifacts_fails(tmp_path):
    config = write_config(tmp_path)
    assert run("report", config) == 12  # ConfigError exit family


@pytest.fixture()
def reported_run(tmp_path):
    """A two-detector run taken through all six stages."""
    config = write_config(
        tmp_path, seed=1, corpus={"synth": {"scale": 0.02}},
        detectors=[{"kind": "HBOS"}, {"kind": "kNN"}],
        attack={"algorithms": ["RS"], "budget": 10},
    )
    for cmd in ("synth", "preprocess", "train", "evaluate", "attack", "report"):
        assert run(cmd, config) == 0
    run_dir = only_run_dir(tmp_path)
    assert (run_dir / "report" / "evasion.json").exists()
    return config, run_dir


def test_failed_attack_leaves_no_evasion_table(reported_run, capsys):
    config, run_dir = reported_run
    train_csv = run_dir / "preprocessed" / "train.csv"
    train_csv.write_text(train_csv.read_text().splitlines()[0] + "\n")
    assert run("attack", config) == 9  # no training rows to draw marginals from
    assert "error[MarginalsError]" in capsys.readouterr().err
    # neither this attack's campaigns nor the last attack's table remain
    assert not list(run_dir.glob("campaign-*.jsonl"))
    assert not (run_dir / "evasion.json").exists() and not (run_dir / "evasion.csv").exists()
    assert run("report", config) == 0
    assert sorted(p.name for p in (run_dir / "report").iterdir()) == [
        "detection_matrix.csv", "metrics.csv", "metrics.json",
    ]


def test_report_drops_a_table_the_run_no_longer_has(reported_run):
    config, run_dir = reported_run
    (run_dir / "metrics.json").unlink()
    (run_dir / "metrics.csv").unlink()
    assert run("report", config) == 0
    assert sorted(p.name for p in (run_dir / "report").iterdir()) == [
        "detection_matrix.csv", "evasion.csv", "evasion.json",
    ]


def test_missing_config_is_config_error(tmp_path, capsys):
    code = main(["preprocess", "--config", str(tmp_path / "absent.json")])
    assert code == 12
    assert "error[ConfigError]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"seed": 1,',
        "[1, 2]",
        '"runs"',
        '{"attack": [1]}',
        '{"pipeline": 3}',
        '{"seed": "x"}',
        '{"attack": {"budget": "many"}}',
        '{"corpus": {"synth": {"scale": "x"}}}',
        '{"corpus": {"splits": {"train": [{"include": ["normal"]}]}}}',
        '{"corpus": {"splits": {"train": [{"path": "a.csv", "include": ["nope"]}]}}}',
        '{"corpus": {"splits": {"train": "a.csv"}}}',
        '{"pipeline": {"scaling": "no"}}',
        '{"attack": {"include_traces": "yes"}}',
        '{"attack": {"budgte": 5}}',
        '{"sede": 1}',
        '{"attack": {"budget": 0}}',
        '{"attack": {"popsize": 0}}',
        '{"attack": {"rs_retries": 0}}',
    ],
    ids=["truncated", "array", "string", "attack-list", "pipeline-number", "seed-string",
         "budget-string", "scale-string", "split-without-path", "split-unknown-class",
         "split-list-string", "scaling-string", "include-traces-string", "misspelt-attack-key",
         "misspelt-top-level-key", "budget-zero", "popsize-zero", "rs-retries-zero"],
)
def test_malformed_config_is_config_error(tmp_path, monkeypatch, capsys, text):
    monkeypatch.chdir(tmp_path)  # a config read as valid would write its run here
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["preprocess", "--config", str(path)]) == 12
    err = capsys.readouterr().err
    assert "error[ConfigError]" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "updates, named",
    [
        ({"attack": {"algorithms": ["RS", "rs"], "targets": ["HBOS"]}}, "attack.algorithms"),
        ({"ensembles": ["HKAIP", "HKLIP", "HKAIP"]}, "ensembles"),
        ({"detectors": [{"kind": "HBOS"}, {"kind": "hbos", "params": {"bins": 5}}]}, "detectors"),
    ],
    ids=["algorithm", "ensemble", "detector-kind"],
)
def test_repeated_name_is_config_error(tmp_path, monkeypatch, capsys, updates, named):
    # a repeat would run a campaign twice, fit an ensemble twice or keep
    # only the last of two detector entries
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, **updates)
    assert run("preprocess", config) == 12
    err = capsys.readouterr().err
    assert "error[ConfigError]" in err and f"{named} repeats" in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "updates, named",
    [
        ({"detectors": [{"kind": "nope"}]}, "detectors: unknown kind 'nope'"),
        ({"ensembles": ["HKXYZ"]}, "unknown ensemble preset 'HKXYZ'"),
        ({"attack": {"algorithms": ["GA_XX"]}}, "unknown attack algorithm 'GA_XX'"),
    ],
    ids=["detector-kind", "ensemble-preset", "algorithm"],
)
def test_unknown_name_is_config_error(tmp_path, monkeypatch, capsys, updates, named):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, **updates)
    assert run("preprocess", config) == 12
    err = capsys.readouterr().err
    assert "error[ConfigError]" in err and named in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "spelling, name",
    [("rs", "RS"), ("RS", "RS"), (" ga-de ", "GA_DE"), ("GA-DE", "GA_DE"), ("ga_de", "GA_DE"),
     ("Ga_Es", "GA_ES"), ("ga-es\n", "GA_ES")],
)
def test_algorithm_spellings(spelling, name):
    assert parse_algorithm(spelling) == name


@pytest.mark.parametrize("spelling", ["ga de", "r-s", "GA__DE", ""])
def test_unknown_algorithm_spelling(spelling):
    with pytest.raises(ConfigError, match=re.escape(f"unknown attack algorithm {spelling!r}")):
        parse_algorithm(spelling)


@pytest.mark.parametrize("patterns, dropped", [([], False), (None, True)], ids=["empty", "null"])
def test_empty_gt1_patterns_drop_only_flagged_fields(tmp_path, patterns, dropped):
    # ip.src matches a default pattern; with its environment flag cleared,
    # only the patterns can drop it
    doc = default_schema().to_json_dict()
    (entry,) = [f for f in doc["features"] if f["name"] == "ip.src"]
    entry["environment_dependent"] = False
    (tmp_path / "schema.json").write_text(json.dumps(doc))
    config = write_config(
        tmp_path, schema=str(tmp_path / "schema.json"),
        pipeline={"scaling": False, "gt1_patterns": patterns},
    )
    assert run("preprocess", config) == 0
    report = json.loads((only_run_dir(tmp_path) / "drop_report.json").read_text())
    assert (report.get("ip.src") == "GT1") is dropped
    assert report["udp.dstport"] == "GT1"  # still environment-flagged


@pytest.mark.parametrize("command", ["synth", "preprocess"])
@pytest.mark.parametrize(
    "field, value",
    [("scale", 0), ("scale", -0.3), ("scale", float("nan")), ("scale", float("inf")),
     ("noise_scale", -1), ("noise_scale", 0), ("noise_scale", float("nan"))],
    ids=["scale-zero", "scale-negative", "scale-nan", "scale-inf",
         "noise-negative", "noise-zero", "noise-nan"],
)
def test_bad_synth_size_is_config_error(tmp_path, monkeypatch, capsys, command, field, value):
    # NaN and Infinity are JSON as Python reads and writes it
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, corpus={"synth": {"scale": 0.03, field: value}})
    assert run(command, config) == 12
    err = capsys.readouterr().err
    assert f"corpus.synth.{field}" in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def _json_paths(doc, prefix=()):
    """Every (path, value) of a JSON document, the containers included."""
    yield prefix, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_FIELD_NAMES = st.sampled_from(
    ["seed", "out", "schema", "corpus", "synth", "splits", "train", "path", "include", "pipeline",
     "scaling", "detectors", "kind", "params", "grid", "attack", "budget", "include_traces"]
) | st.text(max_size=6)


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_run_config_parses_or_fails_cleanly(tmp_path, data):
    # the shipped config with keys dropped, keys added and leaves swapped
    # for JSON values of other types
    doc = json.loads((REPO / "configs" / "benchmark.json").read_text())
    for _ in range(data.draw(st.integers(1, 4))):
        path, value = data.draw(st.sampled_from(list(_json_paths(doc))))
        action = data.draw(st.sampled_from(["drop", "add", "swap"]))
        if action == "add" and isinstance(value, dict):
            value[data.draw(_FIELD_NAMES)] = data.draw(_JSON_VALUES)
        elif not path:
            doc = data.draw(_JSON_VALUES)
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if action == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(_JSON_VALUES)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    try:
        parse_run_config(read_config(config))
    except PfcpBenchError:
        pass


@pytest.mark.parametrize(
    "target, text, prepare, command",
    [
        ("pipeline.json", "{", ("preprocess",), "train"),
        ("pipeline.json", '{"kept_features": []}', ("preprocess",), "train"),
        ("pipeline.json", '{"format": "pfcpbench-pipeline-v2"}', ("preprocess",), "train"),
        ("models/HBOS.json", json.dumps({"format": DETECTOR_FORMAT}), ("preprocess", "train"), "evaluate"),
        ("schema.json", '{"version": 1}', (), "preprocess"),
    ],
    ids=["truncated-pipeline", "pipeline-without-imputer", "tagged-pipeline-without-imputer",
         "detector-without-kind",
         "schema-without-features"],
)
def test_damaged_artefact_fails_with_schema_error(tmp_path, capsys, target, text, prepare, command):
    if target == "schema.json":
        (tmp_path / target).write_text(text)
        config = write_config(tmp_path, schema=str(tmp_path / target))
    else:
        config = write_config(tmp_path)
        for cmd in prepare:
            assert run(cmd, config) == 0
        (only_run_dir(tmp_path) / target).write_text(text)
    capsys.readouterr()
    assert run(command, config) == 3
    err = capsys.readouterr().err
    assert "error[SchemaError]" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["synth", "preprocess"])
def test_out_on_a_regular_file_is_io_error(tmp_path, capsys, command):
    config = write_config(tmp_path)
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    assert run(command, config, "--out", str(blocker)) == 2
    err = capsys.readouterr().err
    assert "error[IoError]" in err and "Traceback" not in err


def test_out_spelling_does_not_change_run_dir(tmp_path, monkeypatch):
    # the output root is where runs live, not part of a run's content
    config = write_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run("preprocess", config, "--out", str(tmp_path / "out")) == 0
    assert run("train", config, "--out", "out") == 0
    (run_dir,) = (tmp_path / "out").glob("run-*")
    assert (run_dir / "pipeline.json").exists()
    assert (run_dir / "models" / "HBOS.json").exists()
    assert not (tmp_path / "runs").exists()


def test_synth_corpus_loadable(tmp_path):
    config = write_config(tmp_path)
    assert run("synth", config) == 0
    run_dir = only_run_dir(tmp_path)
    schema = default_schema()
    ds = load_csv(run_dir / "corpus" / "train.csv", schema)
    assert len(ds) > 0
    manifest = json.loads((run_dir / "corpus" / "train.csv.manifest.json").read_text())
    assert manifest["schema_version"] == schema.version
    assert manifest["rows"] == len(ds)


@pytest.fixture(scope="module")
def catalog_run(tmp_path_factory):
    """The shipped catalog config at synth scale 0.01, trained and evaluated,
    then attacked with HKGIP as the only target (budget 10, traces on)."""
    tmp_path = tmp_path_factory.mktemp("catalog")
    doc = json.loads((REPO / "configs" / "benchmark.json").read_text())
    doc["corpus"]["synth"]["scale"] = 0.01
    doc["attack"].update(targets=["HKGIP"], budget=10, include_traces=True)
    doc["out"] = str(tmp_path / "runs")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc, indent=2))
    for cmd in ("synth", "preprocess", "train", "evaluate", "attack"):
        assert run(cmd, config) == 0
    return config, only_run_dir(tmp_path)


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_catalog_evaluate_reports_golden(catalog_run):
    _, run_dir = catalog_run
    assert {name: file_sha256(run_dir / name) for name in
            ("metrics.json", "metrics.csv", "detection_matrix.csv")} == {
        "metrics.json": "346553af19cda330c9d933585b2bb8448c115cbd794e2005a1efd733f4283ba6",
        "metrics.csv": "a4271a74f61b027c93adf88fa171de233230d9581cd572c92c5a828eced14936",
        "detection_matrix.csv": "b8694c2b293f727ca4e4080bfed5737d3e4906434fd1a2ccf597fbe4d65b8e2f",
    }


def test_catalog_evasion_reports_golden(catalog_run):
    _, run_dir = catalog_run
    assert {name: file_sha256(run_dir / name) for name in ("evasion.json", "evasion.csv")} == {
        "evasion.json": "6a4eb2998ef24df8d5d135d842b6d4698e38f08c20defc455c67be05f905e7c8",
        "evasion.csv": "dcf9b2556670eba6777fd9ceb28395b2d9874752baa762f578a445d08e63b693",
    }


def test_ensemble_target_campaigns_golden(catalog_run):
    _, run_dir = catalog_run
    assert {p.name: file_sha256(p) for p in sorted(run_dir.glob("campaign-*.jsonl"))} == {
        "campaign-HKGIP-GA_DE.jsonl": "a3420a775c5797c87b50b66d3ba92ea5911f7011a5d8744c80a62d892fa5a4e6",
        "campaign-HKGIP-GA_ES.jsonl": "5635db5a5937c26d671e7adb3ca5514652ef13631e3d3332e329d43da1b4c06c",
        "campaign-HKGIP-RS.jsonl": "8f361ced799f1d9ae89237db828cd175ca1ead92cd42cbd7dc8b3765838d44c2",
    }


def test_evaluate_scores_each_detector_once(catalog_run, monkeypatch):
    config, run_dir = catalog_run
    test_rows = json.loads((run_dir / "preprocessed" / "test.csv.manifest.json").read_text())["rows"]
    detector_calls: list[tuple[str, int]] = []
    ensemble_calls: list[str] = []
    score_detector, score_ensemble = DetectorModel.score_batch, EnsembleModel.score_batch

    def counted_detector(self, Q):
        detector_calls.append((self.kind.value, len(Q)))
        return score_detector(self, Q)

    def counted_ensemble(self, X):
        ensemble_calls.append(self.spec.name)
        return score_ensemble(self, X)

    monkeypatch.setattr(DetectorModel, "score_batch", counted_detector)
    monkeypatch.setattr(EnsembleModel, "score_batch", counted_ensemble)
    assert run("evaluate", config) == 0
    # the catalog config trains all twelve detector kinds
    assert sorted(detector_calls) == sorted((kind.value, test_rows) for kind in DetectorKind)
    assert ensemble_calls == []


def _tamper_base(models: Path):
    doc = json.loads((models / "HBOS.json").read_text())
    doc["tau"] += 1.0
    (models / "HBOS.json").write_text(json.dumps(doc, sort_keys=True))


def _delete_base(models: Path):
    (models / "kNN.json").unlink()


def _shared_train(models: Path) -> Path:
    """The array file of kNN's training rows, which its container references."""
    digest = json.loads((models / "kNN.json").read_text())["state"]["train"]["sha256"]
    return models / f"{digest}.f8"


def _delete_shared(models: Path):
    _shared_train(models).unlink()


def _flip_shared_byte(models: Path):
    path = _shared_train(models)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


def _truncate_shared(models: Path):
    path = _shared_train(models)
    path.write_bytes(path.read_bytes()[:-8])


def _unhashed_reference(models: Path):
    doc = json.loads((models / "kNN.json").read_text())
    doc["state"]["train"]["sha256"] = "../HBOS.json"
    (models / "kNN.json").write_text(json.dumps(doc, sort_keys=True))


def _drop_gmm_state_key(models: Path):
    doc = json.loads((models / "GMM.json").read_text())
    del doc["state"]["log_weights"]
    (models / "GMM.json").write_text(json.dumps(doc, sort_keys=True))


def _strip_ensemble(models: Path):
    (models / "HKGIP.json").write_text(json.dumps({"format": ENSEMBLE_FORMAT}))


def _retagged_ensemble(tag):
    def damage(models: Path):
        doc = json.loads((models / "HKGIP.json").read_text())
        doc["format"] = tag
        (models / "HKGIP.json").write_text(json.dumps(doc, sort_keys=True))
    return damage


@pytest.mark.parametrize(
    "damage, message",
    [
        (_tamper_base, "sha256"),
        (_delete_base, "kNN.json"),
        (_retagged_ensemble("pfcpbench-ensemble-v1"), "pfcpbench-ensemble-v1"),
        (_strip_ensemble, "malformed ensemble container"),
        (_retagged_ensemble("pfcpbench-ensemble-v3"), "pfcpbench-ensemble-v3"),
        (_retagged_ensemble("pfcpbench-ensemble-v4"), "pfcpbench-ensemble-v4"),
        (_retagged_ensemble("pfcpbench-ensemble-v5"), "pfcpbench-ensemble-v5"),
        (_delete_shared, "missing"),
        (_flip_shared_byte, "sha256"),
        (_truncate_shared, "sha256"),
        (_unhashed_reference, "not a hex digest"),
        (_drop_gmm_state_key, "state must hold exactly"),
    ],
    ids=["tampered-base", "deleted-base", "v1-ensemble", "format-only-ensemble", "v3-ensemble",
         "v4-ensemble", "v5-ensemble", "deleted-shared-array", "flipped-shared-byte", "truncated-shared-array",
         "unhashed-reference", "state-key-missing"],
)
def test_broken_ensemble_container_fails_with_schema_error(tmp_path, damage, message, capsys):
    config = write_config(
        tmp_path, detectors=[], ensembles=["HKGIP"],
        attack={"algorithms": ["RS"], "targets": ["HKGIP"]},
    )
    for cmd in ("preprocess", "train"):
        assert run(cmd, config) == 0
    damage(only_run_dir(tmp_path) / "models")
    _assert_exit_3(config, message, capsys)
