"""Edge sum process, growth envelopes, and the polymer band process."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pinlab.disorder import BUFFER_MIN, draw_base
from pinlab.polymer import PolymerEnvironment
from pinlab.streams import substream
from pinlab.subordinator import (
    MarkedPointSet,
    band_area_phi,
    band_process,
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
    assert growth_check(empty, 0.5, 1.5, 0.01, 0.1) == 0.0
    one = MarkedPointSet(np.array([2.0]), np.array([0.95]))  # edge distance 0.05
    assert growth_check(one, 0.5, 1.5, 0.01, 0.04) == 0.0
    val = growth_check(one, 0.5, 1.5, 0.06, 0.06)
    h = 0.06 ** 2 * math.log(1 / 0.06) ** 3
    assert val == pytest.approx(2.0 / h, rel=1e-12)
    # the jump at 0.05 beats both ends: h rises up to e^(-1.5) = 0.22
    val2 = growth_check(one, 0.5, 1.5, 0.01, 0.06)
    h5 = 0.05 ** 2 * math.log(1 / 0.05) ** 3
    assert val2 == pytest.approx(2.0 / h5, rel=1e-12)
    # past the peak e^(-q) = 0.018 at q = 4, h falls, so the range's end wins
    val3 = growth_check(one, 0.5, 4.0, 0.01, 0.08)
    h8 = 0.08 ** 2 * math.log(1 / 0.08) ** 8
    assert val3 == pytest.approx(2.0 / h8, rel=1e-12)


def test_growth_check_domain():
    mps = MarkedPointSet(np.array([1.0]), np.array([0.3]))
    with pytest.raises(ValueError, match="q must exceed 1"):
        growth_check(mps, 0.5, 1.0, 0.01, 0.1)
    for t_lo, t_hi in ((0.0, 0.01), (0.02, 0.01), (0.01, 0.2)):
        with pytest.raises(ValueError, match="t_lo"):
            growth_check(mps, 0.5, 1.5, t_lo, t_hi)


def test_growth_check_rejects_an_envelope_that_is_zero_or_not_finite():
    # t^(1/alpha) underflows to 0 at alpha = 0.01; log^(q/alpha)(1/t) overflows at q = 1e300
    empty = MarkedPointSet(np.array([]), np.array([]))
    for alpha, q in ((0.01, 1.5), (0.5, 1e300)):
        with pytest.raises(ValueError, match="envelope"):
            growth_check(empty, alpha, q, 1e-4, 1e-1)


@given(k=st.integers(0, 80), dup=st.floats(0.0, 1.0), mirror=st.floats(0.0, 1.0),
       alpha=st.floats(0.1, 0.99), q=st.floats(1.0, 6.0, exclude_min=True),
       lo_on_jump=st.booleans(), hi_on_jump=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300)
def test_growth_check_matches_the_edge_process_oracle(growth_oracle, k, dup, mirror, alpha, q,
                                                      lo_on_jump, hi_on_jump, seed):
    # half the locations near an end, so that many jumps fall in [t_lo, t_hi];
    # duplicates on a grid of 1/400 (exact ties of the jump times), mirrored
    # pairs loc / 1 - loc, heavy-tailed marks, and range ends on jump times
    rng = np.random.default_rng(seed)
    near = 10.0 ** rng.uniform(-5.0, -0.7, k)
    loc = np.where(rng.random(k) < 0.5, near, rng.uniform(0.0, 1.0, k))
    on_grid = rng.random(k) < dup
    loc[on_grid] = rng.integers(0, 41, on_grid.sum()) / 400.0
    mirrored = rng.random(k) < mirror
    loc = np.concatenate([loc, 1.0 - loc[mirrored]])
    mps = MarkedPointSet(rng.pareto(0.5, loc.size) + 1e-3, rng.permutation(loc))
    t_lo, t_hi = 10.0 ** rng.uniform(-5.0, -1.0, 2)
    jumps = edge_jump_times(mps)
    jumps = jumps[(jumps > 0.0) & (jumps <= 0.1)]
    if jumps.size:
        t_lo = rng.choice(jumps) if lo_on_jump else t_lo
        t_hi = rng.choice(jumps) if hi_on_jump else t_hi
    t_lo, t_hi = sorted((float(t_lo), float(t_hi)))
    want, rel = growth_oracle(mps, alpha, q, t_lo, t_hi)
    assert abs(growth_check(mps, alpha, q, t_lo, t_hi) - want) <= rel * want


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
    U, W = band_process(env, 0.1)
    assert U == 0.0 and W == 0.0
    U, W = band_process(env, 0.2)  # |y| <= t holds at t = |y|
    assert U == 3.0 and W == 3.0
    U, W = band_process(env, 0.19)  # phi(0.19) = 0.2616 reaches the charge
    assert U == 0.0 and W == 3.0
    U, W = band_process(env, np.array([0.1, 0.19, 0.2, 0.25]))
    assert U.tolist() == [0.0, 0.0, 3.0, 3.0] and W.tolist() == [0.0, 3.0, 3.0, 3.0]
    for bad in (-0.01, 0.26, np.array([0.1, 0.3])):
        with pytest.raises(ValueError, match=r"\[0, 1/4\]"):
            band_process(env, bad)


@given(k=st.integers(0, 300), dup=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_band_process_matches_the_masked_sum(k, dup, seed):
    # the oracle sums the weights of |y| <= t by np.sum over a mask, the
    # cumulative sum adds the same positive weights in another order: each
    # is within gamma_k = k 2^-53 / (1 - k 2^-53) of the exact sum, so they
    # differ by at most 2 gamma_k / (1 - gamma_k) relative.  Some |y| sit on
    # a grid of 1/64, ties and times on a charge's |y| included; W >= U holds
    # exactly
    rng = np.random.default_rng(seed)
    y = rng.uniform(-0.5, 0.5, k)
    on_grid = rng.random(k) < dup
    y[on_grid] = rng.integers(-32, 33, on_grid.sum()) / 64.0
    w = np.cumsum(rng.standard_exponential(k)) ** -2.0  # heavy-tailed, decreasing
    env = PolymerEnvironment(x=np.full(k, 0.5), y=y, w=w, alpha=0.5)
    ts = np.concatenate((rng.uniform(0.0, 0.25, 20), np.arange(17) / 64.0, [0.0, 0.25]))
    U, W = band_process(env, ts)
    assert np.all(W >= U)
    g = k * 2.0**-53 / (1.0 - k * 2.0**-53)
    for t, u, w in zip(ts.tolist(), U, W):
        for got, width in ((u, t), (w, band_area_phi(t))):
            want = np.sum(env.w[np.abs(env.y) <= width])
            assert abs(got - want) <= 2.0 * g / (1.0 - g) * want
        assert band_process(env, t) == (u, w)


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
    for z in (1.0, 2.0):
        lam = z ** -alpha
        counts = []
        for r in range(1000):
            T, _ = draw_base(64, substream(13, "pois", int(z * 10), r))
            counts.append(int(np.sum(T ** (-1.0 / alpha) > z)))
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
    T, Y = draw_base(BUFFER_MIN, substream(1, "mpsa"))
    mps = MarkedPointSet(T[:16] ** -2.0, Y[:16])
    assert mps.marks.size == 16
