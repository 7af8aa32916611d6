"""The benchmark under perfbench/ wraps subtok functions, methods and
attributes by name. These checks make a rename that would break one of
those bindings fail here rather than in a benchmark run."""

import importlib
import sys
from pathlib import Path

from subtok.train import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
        targets = [t for _, _, names in tracer.TARGETS for t in names]
    finally:
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)
    assert targets
    for target in targets:
        module_name, path = target.split(":")
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{target} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), target


def test_train_config_takes_threads():
    assert TrainConfig(threads=2).threads == 2
