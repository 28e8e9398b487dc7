"""The benchmark's span tracer wraps pinlab functions by name, and its
workloads run pinlab configs; keep both valid."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from pinlab.harness import config_from_mapping

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    # load a benchmark module by path without installing it: installing the
    # tracer would rebind pinlab's functions for every later test
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    return _load("spans").TRACED


def test_every_traced_name_resolves_on_pinlab():
    missing = []
    for mod, attr in _traced():
        owner = importlib.import_module(f"pinlab.{mod}")
        head, _, tail = attr.partition(".")
        target = getattr(owner, head, None)
        if target is None:
            missing.append(f"{mod}.{attr}")
        elif tail and not isinstance(vars(target).get(tail), classmethod):
            missing.append(f"{mod}.{attr} (not a classmethod)")
        elif not tail and not callable(target):
            missing.append(f"{mod}.{attr} (not callable)")
    assert not missing, f"perfbench/spans.py traces names pinlab lacks: {missing}"


@pytest.mark.parametrize("seed", [1, 7])
def test_every_workload_config_validates(seed):
    # the benchmark's child process builds each config as below; a config
    # that sets a key its experiment does not read would exit 2 there
    run = _load("run")
    for workload in run.WORKLOADS:
        for data in run.workload_configs(workload, seed):
            config_from_mapping(dict(data, out_dir="out"))
