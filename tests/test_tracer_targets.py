"""The benchmark's tracer (``perfbench/tracing.py``) wraps program functions by
name and reads their arguments by position; these tests fail when a rename or
a signature change would break it."""

import inspect
import typing
from pathlib import Path

from pfcpbench import attack

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
