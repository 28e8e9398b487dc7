"""Shared test settings and oracles.

Differential tests compare fast kernels with their oracles on drawn inputs;
their run time depends on the drawn sizes and on how busy the host is, so
hypothesis's per-example deadline is off for every test.  An explicit
@settings on a test still overrides the other fields of this profile.
"""

import numpy as np
import pytest
from hypothesis import settings

from pinlab.subordinator import _envelope, edge_jump_times, edge_process

settings.register_profile("pinlab", deadline=None)
settings.load_profile("pinlab")


def _growth_oracle(points, alpha, q, t_lo, t_hi):
    """(sup, rel): the growth supremum from edge_process, one call per point,
    and the relative distance from it within which growth_check must lie.

    The oracle takes edge_process at t_lo, at every jump time in (t_lo, t_hi]
    and at t_hi, and divides by h there, computed as growth_check computes
    it at the same times.  At each point both sides sum the same n' <= n
    positive marks, in different orders (np.sum's pairwise blocks here, a
    running cumsum in growth_check), then divide once by the same h.  Any
    order of summing positive terms, followed by one division, gives the
    exact ratio times 1 + theta with |theta| <= gamma_n = n u / (1 - n u),
    u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., section 4.2 and Lemma 3.1).  Two such ratios differ by at most
    rel = 2 gamma_n / (1 - gamma_n) relative to either, and so do the
    maxima over the same points.
    """
    jumps = edge_jump_times(points)
    ts = np.concatenate(([t_lo], jumps[(jumps > t_lo) & (jumps <= t_hi)], [t_hi]))
    ratios = np.array([edge_process(points, float(t)) for t in ts]) / _envelope(ts, alpha, q)
    n = points.marks.size
    gamma_n = n * 2.0**-53 / (1.0 - n * 2.0**-53)
    return float(ratios.max()), 2.0 * gamma_n / (1.0 - gamma_n)


@pytest.fixture(scope="session")
def growth_oracle():
    return _growth_oracle
