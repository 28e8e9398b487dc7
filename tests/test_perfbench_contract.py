"""The benchmark's span tracer wraps pinlab functions by name; keep them there."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    # load the tracer module by path without installing it: installing
    # would rebind pinlab's functions for every later test
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


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
