"""The benchmark's tracer (``perfbench/tracing.py``) wraps program functions by
name and reads their arguments by position, and its harness
(``perfbench/run.py``) runs each CLI stage with ``--config``, ``--seed`` and
``--out`` and finds the run directory through ``load_run_config``; these tests
fail when a rename or a signature change would break either."""

import ast
import inspect
import json
import typing
from pathlib import Path

import pytest

from pfcpbench import attack
from pfcpbench.cli import build_parser, main
from pfcpbench.config import load_run_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracer_targets():
    # executed from its source, so that no bytecode is written next to it
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace["TARGETS"]


def test_every_tracer_target_exists_on_its_owner():
    targets = _tracer_targets()
    assert targets
    for owner, attr, _, _, static in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is gone"
        assert isinstance(owner.__dict__[attr], staticmethod) == static, attr


def test_run_campaign_fifth_positional_parameter_is_the_attack_config():
    # the tracer reads ``args[4].algorithm`` of every campaign
    fifth = list(inspect.signature(attack.run_campaign).parameters.values())[4]
    assert fifth.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert typing.get_type_hints(attack.run_campaign)[fifth.name] is attack.AttackConfig


def _harness_stages() -> tuple[str, ...]:
    # read from the source, so that the harness's own imports need not resolve
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["STAGES"]]
    return ast.literal_eval(value)


@pytest.mark.parametrize("stage", _harness_stages())
def test_cli_accepts_the_harness_flags_for_each_stage(stage):
    args = build_parser().parse_args(
        [stage, "--config", "config.json", "--seed", "7", "--out", "runs"]
    )
    assert (args.command, args.config, args.seed, args.out) == (stage, "config.json", 7, "runs")


def test_harness_run_dir_is_where_the_cli_writes(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 42, "corpus": {"synth": {"scale": 0.03}}, "detectors": [{"kind": "HBOS"}],
    }))
    out = tmp_path / "out"
    expected = load_run_config(config, {"seed": 7, "out": str(out)}).run_dir()
    assert expected != load_run_config(config, {"out": str(out)}).run_dir()
    assert main(["preprocess", "--config", str(config), "--seed", "7", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(expected)
    assert list(out.iterdir()) == [expected]
    assert (expected / "pipeline.json").exists()
