"""The benchmark's span tracer wraps pinlab functions by name, and its
workloads run pinlab configs; keep both valid."""

import importlib
import importlib.util
import math
import re
from pathlib import Path

import pytest

from pinlab.chain import METHODS
from pinlab.harness import EXPERIMENTS, SPECS, config_from_mapping

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


def test_rederive_runs_every_method_the_check_passes():
    # child.rederive recomputes threshold cells through the public API, by
    # the default method and by every method name check_thresholds passes
    child = _load("child")
    source = (PERFBENCH / "child.py").read_text(encoding="utf-8")
    methods = {"auto", *re.findall(r'rederive\(cfg, k, r, "(\w+)"\)', source)}
    assert methods <= set(METHODS) and len(methods) > 1, methods
    for data in ({"experiment": "threshold-pinning", "k_list": [8, 16], "replicas": 2, "seed": 3},
                 {"experiment": "threshold-polymer", "k_list": [8, 16], "replicas": 2, "seed": 3}):
        cfg = config_from_mapping(dict(data, out_dir="out"))
        for method in sorted(methods):
            for k in cfg.k_list:
                value = child.rederive(cfg, k, 1, method)
                assert math.isfinite(value) and value >= 0.0, (data["experiment"], method, k)


def test_cell_headers_match_the_benchmark():
    # child.check_outputs fails a cell whose header is not HEADERS[name];
    # cells(cfg) lists the cells without computing them
    headers = _load("child").HEADERS
    for name in EXPERIMENTS:
        cfg = config_from_mapping({"experiment": name, "out_dir": "out"})
        assert {tuple(cell.header) for cell in SPECS[name].cells(cfg)} == {
            tuple(headers[name])}, name
