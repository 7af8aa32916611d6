"""The benchmark under perfbench/ wraps subtok functions, methods and
attributes by name and calls them with keywords. These checks make a rename
that would break one of those bindings fail here rather than in a benchmark
run."""

import ast
import importlib
import inspect
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


def _module_attribute_chains(path: Path) -> dict[str, str]:
    """`<x>_mod.<attr>...` chains read in `path` -> the module x stands for,
    where `x_mod = importlib.import_module("...")` is a line of that file."""
    tree = ast.parse(path.read_text("utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and ast.unparse(node.value.func) == "importlib.import_module"):
            modules[node.targets[0].id] = node.value.args[0].value
    chains = {}
    for node in ast.walk(tree):
        root = node
        while isinstance(root, ast.Attribute):
            root = root.value
        if (node is not root and isinstance(root, ast.Name)
                and root.id in modules):
            chains[ast.unparse(node)] = modules[root.id]
    return chains


def _resolve(chain: str, module_name: str):
    owner = importlib.import_module(module_name)
    for part in chain.split(".")[1:]:
        assert hasattr(owner, part), f"{chain} does not resolve"
        owner = getattr(owner, part)
    return owner


def test_workload_attribute_chains_resolve():
    chains = _module_attribute_chains(PERFBENCH / "workloads.py")
    assert "model_mod.SubwordModel.build" in chains
    assert "probe_mod.mention_features" in chains
    for chain, module_name in chains.items():
        _resolve(chain, module_name)


def test_workload_calls_bind():
    """Each call of a chain binds to the live signature with its number of
    positional arguments and its keyword names; `*` and `**` arguments are
    left out."""
    path = PERFBENCH / "workloads.py"
    chains = _module_attribute_chains(path)
    calls = [node for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func) in chains]
    assert {"probe_mod.train_mention_probe", "train_mod.TrainConfig"} <= \
        {ast.unparse(call.func) for call in calls}
    for call in calls:
        func = ast.unparse(call.func)
        args = [None for a in call.args if not isinstance(a, ast.Starred)]
        kwargs = dict.fromkeys(k.arg for k in call.keywords if k.arg)
        try:
            inspect.signature(_resolve(func, chains[func])).bind_partial(
                *args, **kwargs)
        except TypeError as exc:
            raise AssertionError(f"{ast.unparse(call)}: {exc}") from None


def test_train_config_takes_threads():
    assert TrainConfig(threads=2).threads == 2
