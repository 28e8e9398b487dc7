"""Every pinlab function is reached by a run or is an allowlisted entry.

Under sys.setprofile, the CLI runs all six experiments at tiny sizes and
validates and lists them, and the benchmark's threshold check rederives
cells by every method it passes.  The pinlab functions that neither
reaches must be exactly UNREACHED, each entry naming what reads it, so a
function that only its own tests call shows up here before it piles up.
"""

import importlib
import inspect
import json
import os
import pkgutil
import re
import sys
from pathlib import Path

import pinlab
from pinlab import harness
from pinlab.cli import main
from pinlab.harness import config_from_mapping
from test_perfbench_contract import PERFBENCH, _load

RUNS = (
    {"experiment": "convergence", "N_list": [16, 32], "k_list": [8], "replicas": 3},
    {"experiment": "concentration", "N_list": [16, 24, 32], "n_samples": 20, "n_max": 2000},
    {"experiment": "threshold-pinning", "k_list": [8, 16], "replicas": 2},
    {"experiment": "threshold-polymer", "k_list": [8, 16], "replicas": 2},
    {"experiment": "renewal-asymptotics", "n_eval": 50, "n_max": 2000},
    {"experiment": "subordinator-growth", "k_list": [50], "replicas": 3},
)

#: Functions no run reaches, and what reads each one.
UNREACHED = {
    "chain._subsets": "enumerate_best's subset chunks",
    "chain.enumerate_best": "the enumeration oracle (test_chain, test_varmax, test_polymer)",
    "disorder.sample_coupled": "criterion 3, test_gibbs, test_subordinator",
    "geometry.PinnedSet.__eq__": "test_varmax's pinned_set examples and reflection check",
    "geometry.PinnedSet.gaps": "set_entropy",
    "geometry.PinnedSet.insert": "criterion 8's entropy monotonicity",
    "geometry.PinnedSet.reflect": "criterion 8's entropy symmetry",
    "geometry.set_entropy": "varmax.objective, criterion 8, TRACED",
    "gibbs.enumerate_distribution": "the Gibbs oracle (test_gibbs, criterion 3)",
    "gibbs.exact_sample": "the README example, TRACED",
    "gibbs.set_log_weight": "the Gibbs oracle (test_gibbs, criterion 3)",
    "polymer.objective": "the polymer value checks in test_polymer and test_chain",
    "polymer.solve_polymer": "the polymer DP oracle (test_polymer, test_chain)",
    "polymer.solve_polymer_bruteforce": "the polymer enumeration oracle (test_polymer)",
    "renewal.subexp_diagnostics": "TRACED, test_renewal",
    "subordinator.edge_jump_times": "TRACED, the growth oracle in conftest",
    "subordinator.edge_process": "TRACED, the growth oracle in conftest (criterion 9)",
    "varmax.objective": "the value checks in test_varmax and test_chain",
    "varmax.solve_bruteforce": "the pinning enumeration oracle (test_varmax, criterion 1)",
}


def _functions() -> dict:
    """(file, qualified name) -> "module.qualname" for every named function
    in pinlab's source, nested ones included.  The key holds no line number,
    so a module edited on disk after the session imported it still matches
    the code objects the trace records, as long as no function is renamed."""
    out = {}
    for info in pkgutil.iter_modules(pinlab.__path__):
        path = os.path.abspath(importlib.import_module(f"pinlab.{info.name}").__file__)
        todo = [compile(Path(path).read_text(encoding="utf-8"), path, "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            # class bodies run at import; comprehensions and lambdas are parts of a function
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                out[path, code.co_qualname] = f"{info.name}.{code.co_qualname}"
    return out


def _reached(tmp_path) -> set:
    child = _load("child")  # by path: no tracer is installed
    source = (PERFBENCH / "child.py").read_text(encoding="utf-8")
    methods = sorted({"auto", *re.findall(r'rederive\(cfg, k, r, "(\w+)"\)', source)})
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    harness._law.cache_clear()  # an earlier test's law would hide build_law from the trace
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        assert main(["list-experiments"]) == 0
        for i, data in enumerate(RUNS):
            path = tmp_path / f"cfg{i}.json"
            path.write_text(json.dumps(dict(data, out_dir=str(tmp_path / "out"))),
                            encoding="utf-8")
            assert main(["validate", "--config", str(path)]) == 0
            assert main(["run", "--config", str(path)]) == 0
            if data["experiment"].startswith("threshold-"):
                cfg = config_from_mapping(data)
                for method in methods:
                    child.rederive(cfg, cfg.k_list[-1], 1, method)
        # run again, the first config reads its cells back from disk
        assert main(["run", "--config", str(tmp_path / "cfg0.json")]) == 0
    finally:
        sys.setprofile(previous)
    return {(os.path.abspath(c.co_filename), c.co_qualname) for c in seen}


def test_every_unreached_function_is_allowlisted(tmp_path):
    reached = _reached(tmp_path)
    unreached = sorted(name for key, name in _functions().items() if key not in reached)
    assert unreached == sorted(UNREACHED), (
        f"reached by no run: {sorted(set(unreached) - UNREACHED.keys())}; "
        f"reached now: {sorted(UNREACHED.keys() - set(unreached))}")


def test_trace_does_not_depend_on_laws_cached_by_earlier_tests(tmp_path):
    for data in RUNS:
        harness._renewal_law(config_from_mapping(data))
    test_every_unreached_function_is_allowlisted(tmp_path)
