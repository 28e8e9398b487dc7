"""Coupled heavy-tailed disorder: quantiles, order statistics, grid slots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pinlab.disorder import (
    BUFFER_MIN,
    DisorderLaw,
    _assign_grid,
    compute_b_N,
    couple,
    draw_base,
    pareto_quantile,
    sample_coupled,
)


def test_pareto_quantile_examples():
    law = DisorderLaw(0.5)
    assert pareto_quantile(law, 0.0) == 1.0
    assert pareto_quantile(law, 0.75) == pytest.approx(16.0, rel=1e-12)
    assert pareto_quantile(law, 0.99) == pytest.approx(10000.0, rel=1e-12)


def test_pareto_quantile_monotone_and_domain():
    law = DisorderLaw(0.7)
    ps = np.linspace(0.0, 0.99, 50)
    qs = pareto_quantile(law, ps)
    assert np.all(np.diff(qs) > 0)
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            pareto_quantile(law, bad)


def test_law_validation():
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            DisorderLaw(alpha)


def test_compute_b_N_examples():
    assert compute_b_N(DisorderLaw(0.5), 100) == pytest.approx(10000.0, rel=1e-12)
    assert compute_b_N(DisorderLaw(0.8), 10) == pytest.approx(10 ** 1.25, rel=1e-12)
    assert compute_b_N(DisorderLaw(0.3), 1) == 1.0
    # b_N solves the survival equation exactly
    law = DisorderLaw(0.6)
    assert compute_b_N(law, 50) ** -law.alpha == pytest.approx(1 / 50, rel=1e-12)


def test_couple_closed_forms():
    law = DisorderLaw(0.5)
    T = np.array([1.0, 2.0])
    Y = np.array([0.3, 0.6])
    d = couple(law, T, Y, N=2)
    assert d.M_disc == pytest.approx([1.0], rel=1e-12)  # (T_1/T_2)^(-2) / b_2
    # N=4 with T_1=1, T_4=4: top rescaled maximum is exactly 1
    T = np.array([1.0, 2.0, 3.0, 4.0])
    Y = np.array([0.3, 0.6, 0.9, 0.2])
    d = couple(law, T, Y, N=4)
    assert d.b_N == 16.0
    assert d.M_disc[0] == pytest.approx(1.0, rel=1e-12)


def test_coupled_structure():
    law = DisorderLaw(0.5)
    rng = np.random.default_rng(0)
    d = sample_coupled(law, N=64, rng=rng)
    # the buffer floor: the uniforms follow max(N, BUFFER_MIN) exponentials
    T, Y = draw_base(max(64, BUFFER_MIN), np.random.default_rng(0))
    want = couple(law, T, Y, 64)
    for name in ("M_disc", "Y_disc", "slots"):
        assert getattr(d, name).tobytes() == getattr(want, name).tobytes(), name
    assert np.all(np.diff(T ** (-1.0 / law.alpha)) < 0)
    assert np.all(np.diff(d.M_disc) <= 0)
    # Y_disc is a bijection onto the interior grid
    slots = np.rint(d.Y_disc * 64).astype(int)
    assert sorted(slots) == list(range(1, 64))
    with pytest.raises(ValueError):
        sample_coupled(law, N=1, rng=rng)
    with pytest.raises(ValueError, match="need 64, have 63"):  # the shorter of T and Y
        couple(law, T, Y[:63], 64)



def test_site_disorder_holds_each_maximum_at_its_slot():
    # omega is what the Gibbs callers built from the grid positions before
    for N in (2, 3, 64, 1000):
        d = sample_coupled(DisorderLaw(0.5), N, np.random.default_rng(N))
        assert np.array_equal(d.Y_disc, d.slots / float(N))
        want = np.zeros(N - 1)
        want[np.rint(d.Y_disc * N).astype(int) - 1] = d.M_disc * d.b_N
        assert d.omega.tobytes() == want.tobytes()

def test_grid_snap_is_nearest_when_free():
    law = DisorderLaw(0.5)
    T = np.arange(1.0, 9.0)
    Y = np.array([0.52, 0.54, 0.1, 0.9, 0.3, 0.7, 0.6, 0.4])
    d = couple(law, T, Y, N=8)
    # first rank takes the nearest slot 4/8; second collides and scans left first
    assert d.Y_disc[0] == pytest.approx(4 / 8)
    assert d.Y_disc[1] == pytest.approx(5 / 8)  # 0.54*8=4.32 -> slot 4 taken -> 5 nearer than 3
    assert d.Y_disc[2] == pytest.approx(1 / 8)


def test_marginal_law_of_top_maximum():
    # coupled M_disc[0]*b_N must follow the law of the max of N-1 iid Pareto
    law = DisorderLaw(0.5)
    N = 8
    rng = np.random.default_rng(7)
    tops = np.empty(10_000)
    for i in range(tops.size):
        T, Y = draw_base(N, rng)
        d = couple(law, T, Y, N=N)
        tops[i] = d.M_disc[0] * d.b_N

    def cdf_max(t):
        t = np.asarray(t, dtype=float)
        base = np.where(t < 1.0, 0.0, 1.0 - t ** -0.5)
        return base ** (N - 1)

    ks = stats.kstest(tops, cdf_max)
    assert ks.statistic < 0.02
    # independent oracle: direct iid sampling + sorting
    direct = pareto_quantile(law, rng.uniform(0, 1, (10_000, N - 1))).max(axis=1)
    ks2 = stats.ks_2samp(tops, direct)
    assert ks2.statistic < 0.03


@pytest.mark.parametrize("i", [1, 16])
def test_order_statistics_beta_marginals(i):
    # T_i/T_N has the Beta(i, N-i) law of the i-th ordered uniform
    N = 32
    rng = np.random.default_rng(11)
    vals = np.empty(4000)
    for j in range(vals.size):
        T, _ = draw_base(N, rng)
        vals[j] = T[i - 1] / T[N - 1]
    ks = stats.kstest(vals, stats.beta(i, N - i).cdf)
    assert ks.pvalue > 1e-3


def test_pathwise_coupling_convergence():
    # per-index gaps |M_disc - T^(-1/alpha)|, |Y_disc - Y| shrink along N on a
    # shared base, medians monotone up to a 2 N^(-1/4) fluctuation allowance
    law = DisorderLaw(0.5)
    N_grid = [2**e for e in range(6, 13)]
    seeds = 100
    gaps_m = np.empty((seeds, len(N_grid), 5))
    gaps_y = np.empty((seeds, len(N_grid), 5))
    for s in range(seeds):
        rng = np.random.default_rng(1000 + s)
        T, Y = draw_base(4096, rng)
        for j, N in enumerate(N_grid):
            d = couple(law, T, Y, N)
            gaps_m[s, j] = np.abs(d.M_disc[:5] - T[:5] ** (-1.0 / law.alpha))
            gaps_y[s, j] = np.abs(d.Y_disc[:5] - Y[:5])
    for arr in (gaps_m, gaps_y):
        med = np.median(arr, axis=0)  # (N, index)
        for j in range(len(N_grid) - 1):
            allowance = 2.0 * N_grid[j + 1] ** -0.25
            assert np.all(med[j + 1] <= med[j] + allowance)


def test_continuum_sum_increments_small_past_1000():
    for alpha in (0.5, 0.8):
        T, _ = draw_base(BUFFER_MIN, np.random.default_rng(3))
        assert np.all(T[1000:] ** (-1.0 / alpha) < 1e-2)


def test_replica_streams_reproducible():
    law = DisorderLaw(0.4)
    from pinlab.streams import substream

    a = sample_coupled(law, 16, substream(5, "tag", 3))
    b = sample_coupled(law, 16, substream(5, "tag", 3))
    c = sample_coupled(law, 16, substream(5, "tag", 4))
    assert np.array_equal(a.M_disc, b.M_disc) and np.array_equal(a.Y_disc, b.Y_disc)
    assert not np.array_equal(a.M_disc, c.M_disc)


def _assign_grid_scan(y_inf, N):
    # the outward scan: slots in order of distance to N*y, left on exact ties
    occupied = np.zeros(N, dtype=bool)
    slots = np.empty(N - 1, dtype=np.int64)
    for i in range(N - 1):
        x = N * y_inf[i]
        lo = int(np.floor(x))
        hi = lo + 1
        while True:
            lo_in = lo >= 1
            hi_in = hi <= N - 1
            if lo_in and (not hi_in or (x - lo) <= (hi - x)):
                j = lo
                lo -= 1
            else:
                j = hi
                hi += 1
            if 1 <= j <= N - 1 and not occupied[j]:
                break
        occupied[j] = True
        slots[i] = j
    return slots


@given(N=st.integers(2, 300), extra=st.integers(0, 8), half=st.floats(0.0, 1.0),
       share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300)
def test_assign_grid_matches_outward_scan(N, extra, half, share, seed):
    # buffers longer than N; a share `half` of positions sit on exact
    # half-integers (and integers) of N*y, where the left-on-ties rule decides.
    # Stopped after any count R of ranks, the kernel gives the full scan's
    # first R slots (R = 0, a `share` of the ranks, and all N - 1)
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.0, 1.0, N - 1 + extra)
    on_grid = rng.random(y.size) < half
    y[on_grid] = rng.integers(0, 2 * N, on_grid.sum()) / (2.0 * N)
    scan = _assign_grid_scan(y, N)
    slots = _assign_grid(y, N, N - 1)
    assert np.array_equal(slots, scan)
    assert sorted(slots.tolist()) == list(range(1, N))
    for R in (0, int(share * (N - 1))):
        assert np.array_equal(_assign_grid(y, N, R), scan[:R])
