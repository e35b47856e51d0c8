import base64
import csv
import hashlib
import json
from pathlib import Path

import pytest

from pfcpbench.cli import main
from pfcpbench.corpus import default_schema, load_csv
from pfcpbench.detectors import DetectorKind, DetectorModel
from pfcpbench.ensemble import ENSEMBLE_FORMAT, EnsembleModel

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


def test_preprocess_no_scale_flag(tmp_path):
    config = write_config(tmp_path)
    assert run("preprocess", config, "--no-scale") == 0
    run_dir = only_run_dir(tmp_path)
    doc = json.loads((run_dir / "pipeline.json").read_text())
    assert doc["scaling_enabled"] is False
    assert doc["scaler"] is None


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
    grid_log = json.loads((run_dir / "models" / "grid_HBOS.json").read_text())
    assert len(grid_log) == 4
    assert all("f1" in entry for entry in grid_log)
    train_log = json.loads((run_dir / "train_log.json").read_text())
    assert train_log["HBOS"]["status"] == "ok"


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
    config = write_config(tmp_path)
    for cmd in ("preprocess", "train"):
        assert run(cmd, config) == 0
    assert run("attack", config, "--algorithm", "rs") == 0
    run_dir = only_run_dir(tmp_path)
    evasion = json.loads((run_dir / "evasion.json").read_text())
    assert {e["algorithm"] for e in evasion} == {"RS"}
    assert (run_dir / "campaign-HBOS-RS.jsonl").exists()
    assert not (run_dir / "campaign-HBOS-GA_DE.jsonl").exists()


def test_attack_budget_override_changes_run_dir_and_outcomes(tmp_path):
    config = write_config(
        tmp_path,
        attack={"algorithms": ["GA_DE"], "targets": ["HBOS"], "budget": 100},
    )
    for cmd in ("preprocess", "train"):
        assert run(cmd, config) == 0
    # overriding the budget addresses a different run; rebuild its inputs
    for cmd in ("preprocess", "train"):
        assert run(cmd, config, "--budget", "7") == 0
    assert run("attack", config, "--budget", "7") == 0
    runs = sorted((tmp_path / "runs").glob("run-*"))
    assert len(runs) == 2
    override_dir = next(
        r for r in runs if (r / "campaign-HBOS-GA_DE.jsonl").exists()
    )
    outcomes = [
        json.loads(line)
        for line in (override_dir / "campaign-HBOS-GA_DE.jsonl").read_text().splitlines()
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
    """Rewrite HBOS's ``heights`` array payload with ``changes``."""
    def damage(doc):
        doc["state"]["heights"].update(changes)
    return damage


def _short_data(doc):
    payload = doc["state"]["heights"]
    payload["data"] = base64.b64encode(base64.b64decode(payload["data"])[:-8]).decode()


def _as_v3_detector(doc):
    doc["format"] = "pfcpbench-detector-v3"


def _as_v2_detector(doc):
    doc["format"] = "pfcpbench-detector-v2"
    payload = doc["state"]["heights"]
    shape = payload["shape"]
    payload["data"] = [0.5] * (shape[0] * shape[1])


@pytest.mark.parametrize(
    "damage, message",
    [
        (_damage_heights(data="not base64!"), "not base64"),
        (_damage_heights(data=[1.0, 2.0]), "not base64"),
        (_short_data, "bytes of data"),
        (_damage_heights(dtype="<f4"), "dtype"),
        (_damage_heights(dtype="float64"), "dtype"),
        (_damage_heights(shape=[-1, 10]), "shape"),
        (_damage_heights(shape=[2.0, 10]), "shape"),
        (_damage_heights(shape="3x10"), "shape"),
        (_as_v2_detector, "pfcpbench-detector-v2"),
        (_as_v3_detector, "pfcpbench-detector-v3"),
    ],
    ids=[
        "bad-base64", "list-data", "short-data", "f4-dtype", "named-dtype",
        "negative-shape", "float-shape", "string-shape", "v2-detector", "v3-detector",
    ],
)
def test_malformed_array_payload_fails_with_schema_error(pipeline_run, damage, message, capsys):
    config, run_dir = pipeline_run
    assert run("train", config) == 0
    path = run_dir / "models" / "HBOS.json"
    doc = json.loads(path.read_text())
    damage(doc)
    path.write_text(json.dumps(doc, sort_keys=True))
    for cmd in ("evaluate", "attack"):
        capsys.readouterr()
        assert run(cmd, config) == 3, cmd
        err = capsys.readouterr().err
        assert "error[SchemaError]" in err and message in err, err


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


def test_attack_builds_each_feasible_set_once(tmp_path, monkeypatch):
    from pfcpbench import attack

    built = []
    build = attack.build_feasible_set

    def counted(schema, names, spec, narrow=None):
        built.append(spec.attack_class)
        return build(schema, names, spec, narrow)

    monkeypatch.setattr(attack, "build_feasible_set", counted)
    config = write_config(
        tmp_path, attack={"algorithms": ["RS", "GA_DE", "GA_ES"], "targets": ["HBOS"]}
    )
    for cmd in ("preprocess", "train", "attack"):
        assert run(cmd, config, "--budget", "3") == 0
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
    ],
    ids=["unknown-class", "benign-class", "bare-list", "features-string", "features-number",
         "narrow-list", "misspelt-key", "top-level-list", "invalid-json",
         "narrow-empty-bounds", "narrow-string-bound", "narrow-nan-bound", "narrow-extra-key",
         "narrow-inverted", "narrow-outside-domain", "narrow-bounds-on-categorical",
         "narrow-repeated-label", "narrow-unknown-label", "narrow-outside-j",
         "narrow-with-empty-j", "narrow-protected-field"],
)
def test_attack_rejects_malformed_feasible_set_config(j_config_run, text, capsys):
    config, j_config = j_config_run
    j_config.write_text(text)
    assert run("attack", config) == 12
    assert "error[ConfigError] feasible-set config" in capsys.readouterr().err


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


def test_missing_config_is_config_error(tmp_path, capsys):
    code = main(["preprocess", "--config", str(tmp_path / "absent.json")])
    assert code == 12
    assert "error[ConfigError]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, flags",
    [
        ('{"seed": 1,', []),
        ('{"seed": 1,', ["--no-scale", "--budget", "5"]),
        ("[1, 2]", []),
        ("[1, 2]", ["--ensemble", "HKAIP"]),
        ('"runs"', []),
        ('{"attack": [1]}', []),
        ('{"pipeline": 3}', []),
        ('{"seed": "x"}', []),
        ('{"attack": {"budget": "many"}}', []),
        ('{"corpus": {"synth": {"scale": "x"}}}', []),
    ],
    ids=["truncated", "truncated-with-flags", "array", "array-with-flags", "string",
         "attack-list", "pipeline-number", "seed-string", "budget-string", "scale-string"],
)
def test_malformed_config_is_config_error(tmp_path, capsys, text, flags):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["preprocess", "--config", str(path), *flags]) == 12
    err = capsys.readouterr().err
    assert "error[ConfigError]" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "target, text, prepare, command",
    [
        ("pipeline.json", "{", ("preprocess",), "train"),
        ("pipeline.json", '{"kept_features": []}', ("preprocess",), "train"),
        ("models/HBOS.json", '{"format": "pfcpbench-detector-v4"}', ("preprocess", "train"), "evaluate"),
        ("schema.json", '{"version": 1}', (), "preprocess"),
    ],
    ids=["truncated-pipeline", "pipeline-without-imputer", "detector-without-kind",
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
    doc["attack"]["targets"] = ["HKGIP"]
    doc["out"] = str(tmp_path / "runs")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc, indent=2))
    for cmd in ("synth", "preprocess", "train", "evaluate", "attack"):
        assert run(cmd, config, "--budget", "10", "--trace") == 0
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


def test_ensemble_target_campaigns_golden(catalog_run):
    _, run_dir = catalog_run
    assert {p.name: file_sha256(p) for p in sorted(run_dir.glob("campaign-*.jsonl"))} == {
        "campaign-HKGIP-GA_DE.jsonl": "93c7c2ed2b4b012fa9dfe4b1064ae302cac00a0f52f2b37b7fbe06d71e28d62e",
        "campaign-HKGIP-GA_ES.jsonl": "a25995ba54df4b50088a08a69a555314d90f6b59b66f0e2d0dfeeae0fc63c0f6",
        "campaign-HKGIP-RS.jsonl": "7d3848fc0ec1fff4bb0c013fdb5cef0526d6c1a9531a6b1015f2c93493a7df5f",
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
    assert run("evaluate", config, "--budget", "10", "--trace") == 0
    # the catalog config trains all twelve detector kinds
    assert sorted(detector_calls) == sorted((kind.value, test_rows) for kind in DetectorKind)
    assert ensemble_calls == []


def _tamper_base(models: Path):
    doc = json.loads((models / "HBOS.json").read_text())
    doc["tau"] += 1.0
    (models / "HBOS.json").write_text(json.dumps(doc, sort_keys=True))


def _delete_base(models: Path):
    (models / "kNN.json").unlink()


def _strip_ensemble(models: Path):
    (models / "HKGIP.json").write_text(json.dumps({"format": ENSEMBLE_FORMAT}))


def _downgrade_ensemble(models: Path):
    doc = json.loads((models / "HKGIP.json").read_text())
    doc["format"] = "pfcpbench-ensemble-v1"
    (models / "HKGIP.json").write_text(json.dumps(doc, sort_keys=True))


@pytest.mark.parametrize(
    "damage, message",
    [
        (_tamper_base, "sha256"),
        (_delete_base, "kNN.json"),
        (_downgrade_ensemble, "pfcpbench-ensemble-v1"),
        (_strip_ensemble, "malformed ensemble container"),
    ],
    ids=["tampered-base", "deleted-base", "v1-ensemble", "format-only-ensemble"],
)
def test_broken_ensemble_container_fails_with_schema_error(tmp_path, damage, message, capsys):
    config = write_config(
        tmp_path, detectors=[], ensembles=["HKGIP"],
        attack={"algorithms": ["RS"], "targets": ["HKGIP"]},
    )
    for cmd in ("preprocess", "train"):
        assert run(cmd, config) == 0
    damage(only_run_dir(tmp_path) / "models")
    for cmd in ("evaluate", "attack"):
        capsys.readouterr()
        assert run(cmd, config) == 3, cmd
        err = capsys.readouterr().err
        assert "error[SchemaError]" in err and message in err, err
