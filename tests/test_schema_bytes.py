"""Cell bytes are pinned to their experiment's schema version.

A resumed run reuses every well-formed cell on disk whose directory key
matches, and the key changes with the code only through Spec.schema.  So
each experiment runs here at a small config that reaches the branches that
set its bytes, and a sha256 over its cells and summary.json must equal the
entry for (experiment, schema).  A change that moves the bytes without
raising the schema fails; a schema bump adds an entry.

The digests belong to this host's numpy build, whose AVX-512 exp and log
kernels set the last bits of many floats; a build on another SIMD path may
round differently, and then every entry differs with no change to pinlab.
"""

import hashlib
import os

from pinlab.harness import EXPERIMENTS, SPECS, config_from_mapping, run_experiment

#: seed-1 configs that reach each experiment's byte-setting branches
CONFIGS = {
    # two sweep blocks (n_samples > SCORE_BLOCK); no exceedance at N = 16,
    # where the Wilson interval ends at exactly 0
    "concentration": dict(N_list=[16, 32, 64], n_samples=1030, n_max=2000, delta=0.2),
    # a size past BUFFER_MIN, so the buffer is drawn at max(N_list)
    "convergence": dict(N_list=[16, 4500], k_list=[16], replicas=2),
    # pruning past the 25-position enumeration cap
    "threshold-pinning": dict(k_list=[8, 40], replicas=3),
    "threshold-polymer": dict(k_list=[4, 16, 64], replicas=3),
    # past a 1024-row block edge of renewal_function
    "renewal-asymptotics": dict(n_eval=1100, n_max=2000),
    "subordinator-growth": dict(k_list=[64], replicas=2),
}

#: (experiment, schema) -> sha256 of CONFIGS[experiment]'s output at seed 1
DIGESTS = {
    ("concentration", 3): "bf346bfe7d5169f5c2de6fa92856550c156f702b81d1f0ba45e1c944352336f1",
    ("convergence", 0): "a2038ed341d311dd98242a18c03d56096b22dbe9cc8181c8217cd89ad6c99401",
    ("threshold-pinning", 0): "295293fba93adec716d4c85f2b7ce57e4d664a1ed9c41cb15d9d292ce8d5a51e",
    ("threshold-polymer", 0): "69c064fc9d7edf50482dd26398d3777e801a3db7d98306c96221d37c8df4f442",
    ("renewal-asymptotics", 3): "1cb5fb59a05edad9d8a2bb3e53399597ea7efdc8a31167850127c42b23e6aea6",
    ("subordinator-growth", 2): "496d7ed4673652a8a5ffb1627782ed1a9a1e66c461d36ded1616810f08bedeba",
}


def _digest(root: str, experiment: str) -> str:
    """sha256 over the path relative to root and the bytes of every cell and
    summary.json of the experiment, in sorted path order."""
    h = hashlib.sha256()
    paths = sorted(os.path.join(d, n) for d, _, names in os.walk(os.path.join(root, experiment))
                   for n in names if n.endswith(".csv") or n == "summary.json")
    for path in paths:
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def test_cell_bytes_match_their_schema(tmp_path, monkeypatch):
    # out_dir is relative, so summary.json embeds the same config on any host
    monkeypatch.chdir(tmp_path)
    got = {}
    for name in EXPERIMENTS:
        run_experiment(config_from_mapping(dict(CONFIGS[name], experiment=name, seed=1,
                                                out_dir="out")))
        got[name, SPECS[name].schema] = _digest("out", name)
    assert got == DIGESTS
