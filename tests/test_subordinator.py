"""Edge sum process, growth envelopes, and the polymer band process."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pinlab.disorder import DisorderLaw, draw_base, sample_coupled
from pinlab.polymer import PolymerEnvironment
from pinlab.streams import substream
from pinlab.subordinator import (
    MarkedPointSet,
    band_area_phi,
    band_process,
    band_u,
    edge_evaluator,
    edge_jump_times,
    edge_process,
    growth_check,
)


def test_edge_process_examples():
    mps = MarkedPointSet(np.array([1.0, 0.25]), np.array([0.05, 0.5]))
    assert edge_process(mps, 0.0) == 0.0
    assert edge_process(mps, 0.5) == 1.25
    assert edge_process(mps, 0.1) == 1.0
    with pytest.raises(ValueError):
        edge_process(mps, 0.6)


def test_edge_process_step_structure():
    rng = substream(3, "steps")
    T, Y = draw_base(50, rng)
    mps = MarkedPointSet(T ** -2.0, Y)
    jumps = edge_jump_times(mps)
    assert np.all(np.diff(jumps) >= 0)
    last = 0.0
    for t in jumps:
        before = edge_process(mps, max(t - 1e-12, 0.0))
        at = edge_process(mps, t)
        assert at >= before >= last - 1e-15
        last = before
    assert edge_process(mps, 0.5) == pytest.approx(mps.marks.sum(), rel=1e-12)


def test_growth_check_examples():
    empty = MarkedPointSet(np.array([]), np.array([]))
    assert growth_check(lambda t: edge_process(empty, t), 0.5, 1.5, [0.01, 0.1]) == 0.0
    one = MarkedPointSet(np.array([2.0]), np.array([0.05]))
    val = growth_check(lambda t: edge_process(one, t), 0.5, 1.5, [0.06])
    h = 0.06 ** 2 * math.log(1 / 0.06) ** 3
    assert val == pytest.approx(2.0 / h, rel=1e-12)
    # the jump inside the grid range is added automatically
    val2 = growth_check(
        lambda t: edge_process(one, t), 0.5, 1.5, [0.01, 0.06],
        jump_times=edge_jump_times(one),
    )
    h5 = 0.05 ** 2 * math.log(1 / 0.05) ** 3
    assert val2 == pytest.approx(2.0 / h5, rel=1e-12)


def test_growth_check_domain():
    mps = MarkedPointSet(np.array([1.0]), np.array([0.3]))
    ev = lambda t: edge_process(mps, t)
    with pytest.raises(ValueError):
        growth_check(ev, 0.5, 1.0, [0.01])  # q must exceed 1
    with pytest.raises(ValueError):
        growth_check(ev, 0.5, 1.5, [0.0, 0.01])
    with pytest.raises(ValueError):
        growth_check(ev, 0.5, 1.5, [0.2])


def test_growth_check_rejects_an_envelope_that_is_zero_or_not_finite():
    # t^(1/alpha) underflows to 0 at alpha = 0.01; log^(q/alpha)(1/t) overflows at q = 1e300
    for alpha, q in ((0.01, 1.5), (0.5, 1e300)):
        with pytest.raises(ValueError, match="envelope"):
            growth_check(lambda t: 0.0, alpha, q, np.geomspace(1e-4, 1e-1, 40))


@given(k=st.integers(0, 80), alpha=st.floats(0.05, 0.99), q=st.floats(1.0, 6.0, exclude_min=True),
       n_a=st.integers(2, 50), n_b=st.integers(2, 500), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_growth_supremum_depends_only_on_the_grid_ends(k, alpha, q, n_a, n_b, seed):
    # h is unimodal, so grid points inside a stretch of constant X never
    # beat the stretch's ends, which both grids hold with the jump times
    rng = np.random.default_rng(seed)
    t_lo, t_hi = np.sort(rng.uniform(1e-5, 0.1, 2))
    mps = MarkedPointSet(rng.pareto(alpha, k) + 1e-3, rng.uniform(0.0, 1.0, k))
    jumps = edge_jump_times(mps)
    ev = edge_evaluator(mps)
    a = growth_check(ev, alpha, q, np.geomspace(t_lo, t_hi, n_a), jumps)
    b = growth_check(ev, alpha, q, np.geomspace(t_lo, t_hi, n_b), jumps)
    assert a == pytest.approx(b, rel=1e-12, abs=0.0)


def test_growth_ratio_bounded_over_realizations():
    # the 95th percentile stays within a factor 2 under 10x grid refinement
    coarse = np.geomspace(1e-4, 1e-1, 30)
    fine = np.geomspace(1e-4, 1e-1, 300)
    sups_c, sups_f = [], []
    for r in range(200):
        rng = substream(77, "growth", r)
        T, Y = draw_base(256, rng)
        mps = MarkedPointSet(T ** -2.0, Y)
        jumps = edge_jump_times(mps)
        ev = lambda t: edge_process(mps, t)
        sups_c.append(growth_check(ev, 0.5, 1.5, coarse, jumps))
        sups_f.append(growth_check(ev, 0.5, 1.5, fine, jumps))
    p_c = np.percentile(sups_c, 95)
    p_f = np.percentile(sups_f, 95)
    assert np.isfinite(p_c) and p_c > 0
    assert 0.5 <= p_f / p_c <= 2.0


def test_band_area_phi_values():
    assert band_area_phi(0.0) == 0.0
    assert band_area_phi(0.25) == 0.5
    assert band_area_phi(3 / 16) == pytest.approx(0.25, rel=1e-12)
    ts = np.linspace(0.001, 0.249, 50)
    phis = np.array([band_area_phi(t) for t in ts])
    assert np.all(np.diff(phis) > 0)
    assert np.all(phis > ts)
    for bad in (-0.01, 0.26):
        with pytest.raises(ValueError):
            band_area_phi(bad)


def test_band_process_examples():
    env = PolymerEnvironment(x=np.array([0.5]), y=np.array([0.2]), w=np.array([3.0]), alpha=0.5)
    assert band_u(env, 0.1) == 0.0
    assert band_u(env, 0.3) == 3.0
    assert band_u(env, 0.5) == 3.0
    U, W = band_process(env, 0.1)
    assert U == 0.0 and W == 0.0
    U, W = band_process(env, 0.2)
    assert U == 3.0 and W == 3.0


def test_w_dominates_u():
    for r in range(100):
        env = PolymerEnvironment.sample(0.5, 64, substream(5, "wu", r))
        for t in np.linspace(0.0, 0.25, 9):
            U, W = band_process(env, float(t))
            assert W >= U


def test_band_increment_homogeneity():
    # truncated band process: mean increment depends only on the lag
    incs = np.empty((300, 3))
    s = 1 / 32
    for r in range(incs.shape[0]):
        env = PolymerEnvironment.sample(0.5, 256, substream(6, "homog", r))
        for j, t0 in enumerate((0.0, 1 / 16, 1 / 8)):
            incs[r, j] = band_process(env, t0 + s)[1] - band_process(env, t0)[1]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        d = incs[:, i] - incs[:, j]
        se = d.std(ddof=1) / math.sqrt(len(d))
        assert abs(d.mean()) <= 3 * se


def test_poisson_exceedance_counts():
    # number of continuum marks above z is Poisson(z^-alpha)
    alpha = 0.5
    law = DisorderLaw(alpha)
    for z in (1.0, 2.0):
        lam = z ** -alpha
        counts = []
        for r in range(1000):
            d = sample_coupled(law, 4, substream(13, "pois", int(z * 10), r))
            counts.append(int(np.sum(d.M_inf[:64] > z)))
        counts = np.array(counts)
        kmax = 5
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        pmf = np.array([stats.poisson.pmf(k, lam) for k in range(kmax)])
        pmf = np.append(pmf, 1.0 - pmf.sum())
        res = stats.chisquare(observed, 1000 * pmf)
        assert res.pvalue > 1e-3


def test_marked_point_set_validation():
    with pytest.raises(ValueError):
        MarkedPointSet(np.array([0.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        MarkedPointSet(np.array([1.0]), np.array([1.5]))
    with pytest.raises(ValueError):
        MarkedPointSet(np.array([1.0]), np.array([[0.5, 0.1]]))  # locations are 1-d
    d = sample_coupled(DisorderLaw(0.5), 8, substream(1, "mpsa"))
    mps = MarkedPointSet(d.M_inf[:16], d.Y_inf[:16])
    assert mps.size == 16


@given(k=st.integers(0, 60), dup=st.floats(0.0, 1.0), mirror=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300)
def test_memoized_growth_supremum_matches_per_point_edge_process(k, dup, mirror, seed):
    # locations on a coarse grid (duplicates), mirrored pairs loc / 1 - loc,
    # and heavy-tailed marks, so the summation order shows in the last bits
    rng = np.random.default_rng(seed)
    loc = rng.uniform(0.0, 1.0, k)
    on_grid = rng.random(k) < dup
    loc[on_grid] = rng.integers(0, 41, on_grid.sum()) / 40.0
    mirrored = rng.random(k) < mirror
    loc = np.concatenate([loc, 1.0 - loc[mirrored]])
    marks = rng.pareto(0.5, loc.size) + 1e-3
    mps = MarkedPointSet(marks, rng.permutation(loc))
    jumps = edge_jump_times(mps)
    coarse = np.geomspace(1e-3, 1e-1, 12)
    fine = np.geomspace(1e-3, 1e-1, 120)
    oracle = lambda t: edge_process(mps, t)
    ev = edge_evaluator(mps)  # one memo across both grids, as the harness uses it
    for grid in (coarse, fine):
        want = growth_check(oracle, 0.5, 1.5, grid, jumps)
        assert growth_check(ev, 0.5, 1.5, grid, jumps) == want
    # every jump time, the values just below it, and the ends of [0, 1/2]
    for t in [*jumps.tolist(), *np.nextafter(jumps, -1.0).tolist(), 0.0, 0.5]:
        t = min(max(t, 0.0), 0.5)
        assert ev(t) == edge_process(mps, t)
    with pytest.raises(ValueError):
        ev(0.6)
