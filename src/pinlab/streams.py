"""Named, reproducible RNG substreams.

Every piece of randomness in the library is drawn from a Generator built
here, so a (seed, tag, replica) triple always maps to the same stream no
matter which experiments ran before it.
"""

from __future__ import annotations

import zlib

import numpy as np
import numpy.random  # numpy loads it lazily; load it with pinlab, not in a run


def _as_entropy(key) -> int:
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    return int(key) & 0xFFFFFFFFFFFFFFFF


def substream(seed: int, *keys) -> np.random.Generator:
    """Derive an independent generator from a base seed and a key path.

    String keys are hashed (crc32) so tags like ("convergence", replica)
    give stable, platform-independent streams.
    """
    entropy = [_as_entropy(seed)] + [_as_entropy(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))
