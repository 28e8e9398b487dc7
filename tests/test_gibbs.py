"""Exact partition function, exact sampler, and concentration estimator."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from pinlab.disorder import DisorderLaw, sample_coupled, truncation_residual
from pinlab.geometry import PinnedSet, grid_hausdorff, hausdorff
from pinlab.gibbs import (
    ROW_BUDGET,
    SCORE_BLOCK,
    ExactSampler,
    GibbsSample,
    _logsumexp,
    PinningModel,
    concentration_probability,
    enumerate_distribution,
    exact_sample,
    forward_table,
    log_partition,
    set_log_weight,
    wilson_interval,
)
from pinlab.renewal import build_law, renewal_function, tilt
from pinlab.streams import substream
from pinlab.varmax import EnergyLandscape, solve_dp


@pytest.fixture(scope="module")
def law():
    return build_law(0.5, 1.0, 0.0, 0.0, n_max=2000)


@pytest.fixture(scope="module")
def term(law):
    return tilt(law, 0.5)


def _disordered_model(law, N, beta_hat=1.0, seed=17):
    dlaw = DisorderLaw(0.5)
    d = sample_coupled(dlaw, N, substream(seed, "gibbs-test"))
    omega = np.zeros(N - 1)
    slots = np.rint(d.Y_disc * N).astype(int)
    omega[slots - 1] = d.M_disc * d.b_N
    beta = beta_hat * N**0.5 / d.b_N
    return PinningModel(law=law, omega=omega, beta=beta, N=N), d


def test_partition_two_paths(term):
    omega = np.array([2.0])
    model = PinningModel(law=tilt(term, 0.3), omega=omega, beta=0.7, N=2)
    # the tilt scales each of the path's gaps by exp(-0.3)
    expect = term.K[2] + term.K[1] ** 2 * math.exp(0.7 * 2.0 - 0.3)
    assert log_partition(model) == pytest.approx(math.log(expect) - 0.3, rel=1e-12)


def test_partition_free_case_is_renewal_function(term):
    for N in (2, 3, 10, 50):
        model = PinningModel(law=term, omega=np.zeros(N - 1), beta=0.0, N=N)
        u = renewal_function(term, N)
        assert log_partition(model) == pytest.approx(math.log(u[N]), rel=1e-10)
    # four-path enumeration at N=3
    K = term.K
    z3 = K[3] + 2 * K[1] * K[2] + K[1] ** 3
    model3 = PinningModel(law=term, omega=np.zeros(2), beta=0.0, N=3)
    assert log_partition(model3) == pytest.approx(math.log(z3), rel=1e-12)


def test_partition_horizon_error(term):
    with pytest.raises(ValueError):
        model = PinningModel(law=term, omega=np.zeros(2000), beta=0.0, N=2001)
        log_partition(model)


def test_set_log_weight_examples(term):
    N = 8
    omega = np.linspace(0.5, 3.0, N - 1)
    model = PinningModel(law=term, omega=omega, beta=0.4, N=N)
    assert set_log_weight(model, (0, N)) == pytest.approx(math.log(term.K[N]), rel=1e-12)
    expect = 2 * math.log(term.K[4]) + 0.4 * omega[3]
    assert set_log_weight(model, (0, 4, N)) == pytest.approx(expect, rel=1e-12)
    model2 = PinningModel(law=term, omega=np.array([1.0]), beta=0.5, N=2)
    assert set_log_weight(model2, (0, 1, 2)) == pytest.approx(
        2 * math.log(term.K[1]) + 0.5, rel=1e-12
    )


def test_set_log_weight_rejects_configurations_that_do_not_increase(term):
    # a negative gap would read K from the end of the array, a zero gap log(0)
    model = PinningModel(law=term, omega=np.linspace(0.5, 3.0, 9), beta=0.4, N=10)
    for idx in ((0, 7, 3, 10), (0, 3, 3, 10), (0, 10, 10), ()):
        with pytest.raises(ValueError):
            set_log_weight(model, idx)


def test_normalization_over_enumeration(term):
    model, _ = _disordered_model(term, N=10, beta_hat=2.0)
    logZ = log_partition(model)
    total = 0.0
    for mask in range(1 << 9):
        idx = (0,) + tuple(i + 1 for i in range(9) if mask >> i & 1) + (10,)
        total += math.exp(set_log_weight(model, idx) - logZ)
    assert abs(total - 1.0) < 1e-9


def test_sampler_two_site_frequencies(term):
    model = PinningModel(law=term, omega=np.array([1.5]), beta=0.9, N=2)
    z = math.exp(log_partition(model))
    p_mid = term.K[1] ** 2 * math.exp(0.9 * 1.5) / z
    rng = substream(8, "freq")
    table = forward_table(model)
    n = 100_000
    hits = sum(exact_sample(model, rng, table).indices == (0, 1, 2) for _ in range(n))
    sigma = math.sqrt(p_mid * (1 - p_mid) / n)
    assert abs(hits / n - p_mid) < 3 * sigma


def test_sampler_matches_enumeration_tv(term):
    model, _ = _disordered_model(term, N=8, beta_hat=2.0)
    dist = enumerate_distribution(model)
    table = forward_table(model)
    rng = substream(15, "tv")
    n = 40_000
    counts = {}
    for _ in range(n):
        idx = exact_sample(model, rng, table).indices
        counts[idx] = counts.get(idx, 0) + 1
    tv = 0.5 * sum(abs(counts.get(idx, 0) / n - p) for idx, p in dist.items())
    assert tv < 0.02


def test_free_marginal_product_rule(term):
    # at beta=0 the chance of visiting n factorizes through the renewal function
    N = 12
    model = PinningModel(law=term, omega=np.zeros(N - 1), beta=0.0, N=N)
    dist = enumerate_distribution(model)
    u = renewal_function(term, N)
    for n in range(1, N):
        p = sum(prob for idx, prob in dist.items() if n in idx)
        assert p == pytest.approx(u[n] * u[N - n] / u[N], rel=1e-9)


def test_truncation_bound(term):
    # keeping only the k largest charges moves each log-probability by at
    # most beta * b_N * (the discrete mass beyond rank k)
    N = 10
    model, d = _disordered_model(term, N=N, beta_hat=1.5)
    k = 3
    keep = np.argsort(-model.omega, kind="stable")[:k]
    top_k = np.zeros_like(model.omega)
    top_k[keep] = model.omega[keep]
    trunc = PinningModel(law=term, omega=top_k, beta=model.beta, N=N)
    dist_full = enumerate_distribution(model)
    dist_trunc = enumerate_distribution(trunc)
    rho = truncation_residual(d, k)
    bound = model.beta * d.b_N * rho  # == beta_hat * N^gamma * rho
    worst = max(
        abs(math.log(dist_full[idx]) - math.log(dist_trunc[idx])) for idx in dist_full
    )
    assert worst <= bound + 1e-9


def test_strong_repulsion_thins_sets(term):
    N = 8
    model, _ = _disordered_model(term, N=N, beta_hat=1.0)
    probs = []
    for h in (0.0, 1.0, 2.0, 4.0):
        m = PinningModel(law=tilt(term, h), omega=model.omega, beta=model.beta, N=N)
        dist = enumerate_distribution(m)
        probs.append(sum(p for idx, p in dist.items() if len(idx) > 2))
    assert all(b < a for a, b in zip(probs, probs[1:]))


def test_concentration_probability_edges(term):
    model, d = _disordered_model(term, N=16, beta_hat=1.0)
    ref = PinnedSet([0.0, 1.0])
    rng = substream(9, "conc")
    est = concentration_probability(model, ref, 1.5, 200, rng)
    assert est.estimate == 0.0 and est.exceed == 0
    table = forward_table(model)
    rng = substream(9, "conc0")
    draws = [exact_sample(model, rng, table) for _ in range(500)]
    frac_neq = np.mean([s.set != ref for s in draws])
    rng = substream(9, "conc0")
    est0 = concentration_probability(model, ref, 0.0, 500, rng)
    assert est0.estimate == pytest.approx(frac_neq)
    assert 0.0 <= est0.lo <= est0.estimate <= est0.hi <= 1.0


def test_concentration_decay_in_N(law):
    # same coupling, same sampling seeds: larger system concentrates harder
    strong = tilt(law, 1.0)
    ests = {}
    for N in (64, 256):
        model, d = _disordered_model(strong, N=N, beta_hat=0.4, seed=31)
        land = EnergyLandscape.from_marks(d.Y_disc, d.M_disc, 0.4, 0.5)
        ref = solve_dp(land).maximizer
        est = concentration_probability(model, ref, 0.1, 2000, substream(31, "cd", N))
        ests[N] = est.estimate
    assert ests[256] < ests[64]


def test_wilson_interval_known_value():
    lo, hi = wilson_interval(5, 10)
    assert lo == pytest.approx(0.2365930, abs=1e-6)
    assert hi == pytest.approx(0.7634070, abs=1e-6)


def test_model_validation(term):
    with pytest.raises(ValueError):
        PinningModel(law=term, omega=np.zeros(3), beta=1.0, N=3)
    with pytest.raises(ValueError):
        PinningModel(law=term, omega=-np.ones(2), beta=1.0, N=3)
    with pytest.raises(ValueError):
        PinningModel(law=term, omega=np.ones(2), beta=-1.0, N=3)
    with pytest.raises(ValueError):
        GibbsSample(indices=(0, 1), N=2)  # missing the right endpoint
    with pytest.raises(ValueError):
        GibbsSample(indices=(), N=2)
    s = GibbsSample(indices=(0, 3, 8), N=8)
    assert list(s.indices) == [0, 3, 8]
    assert s.set == PinnedSet([0, 3 / 8, 1])


# Oracles: the per-call forms the fast paths replaced.  The fast paths must
# reproduce their floats and their use of the generator bit for bit.


def _forward_table_oracle(model):
    N = model.N
    logK = np.full(N + 1, -np.inf)
    logK[1:] = np.log(model.law.K[1 : N + 1])
    site = model.site_log_weights
    logZ = np.empty(N + 1)
    logZ[0] = 0.0
    for n in range(1, N + 1):
        logZ[n] = logsumexp(logZ[:n] + logK[n:0:-1]) + (site[n - 1] if n < N else 0.0)
    return logZ


def _exact_sample_oracle(model, rng, table):
    N = model.N
    logK = np.full(N + 1, -np.inf)
    logK[1:] = np.log(model.law.K[1 : N + 1])
    points = [N]
    n = N
    while n > 0:
        logits = table[:n] + logK[n:0:-1]
        p = np.exp(logits - logits.max())
        p /= p.sum()
        n = int(rng.choice(n, p=p))
        points.append(n)
    return tuple(reversed(points))


def _hausdorff_oracle(A, B):
    def directed(a, b):
        idx = np.searchsorted(b, a)
        left = b[np.clip(idx - 1, 0, b.size - 1)]
        right = b[np.clip(idx, 0, b.size - 1)]
        return float(np.max(np.minimum(np.abs(a - left), np.abs(a - right))))

    return max(directed(A.points, B.points), directed(B.points, A.points))


def _heavy_tailed_model(law, N, beta, h, alpha, zeros, seed):
    # Pareto(alpha) site rewards with a fraction of exact zeros
    rng = np.random.default_rng(seed)
    omega = rng.random(N - 1) ** (-1.0 / alpha) - 1.0
    omega[rng.random(N - 1) < zeros] = 0.0
    return PinningModel(law=tilt(law, h), omega=omega, beta=beta, N=N)


model_params = dict(
    N=st.integers(2, 300),
    beta=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    h=st.sampled_from((0.0, 1.0)),
    alpha=st.sampled_from((0.3, 0.5, 0.9)),
    zeros=st.sampled_from((0.0, 0.5, 0.95)),
    seed=st.integers(0, 2**32 - 1),
)


@given(st.lists(st.one_of(
    st.sampled_from((0.0, 1.0, -2.5, 700.0, -745.0, 1e308, -np.inf, np.inf, np.nan)),
    st.floats(-800.0, 800.0)), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_logsumexp_rows_match_scipy(values):
    # repeated maxima, +-inf and nan rows: every branch of scipy's steps
    a = np.array(values)
    with np.errstate(all="ignore"):
        got, want = _logsumexp(a), logsumexp(a)
    assert got == want or (np.isnan(got) and np.isnan(want))


@given(**model_params)
@settings(max_examples=100, deadline=None)
def test_forward_table_matches_scipy_logsumexp(law, N, beta, h, alpha, zeros, seed):
    model = _heavy_tailed_model(law, N, beta, h, alpha, zeros, seed)
    assert np.array_equal(forward_table(model), _forward_table_oracle(model))


def test_forward_table_matches_scipy_logsumexp_at_infinite_site_weight(law):
    # beta * omega overflows to +inf at one site: the model refuses it, as it
    # refuses non-finite omega and beta
    omega = np.zeros(49)
    omega[20] = 1e308
    with pytest.raises(ValueError, match="overflow"):
        PinningModel(law=law, omega=omega, beta=10.0, N=50)
    bad = ({"omega": np.where(np.arange(49) == 7, np.nan, 1.0)},
           {"omega": np.where(np.arange(49) == 7, np.inf, 1.0)},
           {"beta": np.inf}, {"beta": np.nan})
    for kwargs in bad:
        with pytest.raises(ValueError, match="finite"):
            PinningModel(**{"law": law, "omega": np.ones(49), "beta": 1.0, "N": 50, **kwargs})
    # a forward-table row past such a site mixes +inf with finite and -inf
    # entries; the row kernel still gives scipy's value
    for row in ([-3.0, np.inf, 1.5, -np.inf], [np.inf, np.inf], [np.inf, -np.inf, np.inf, 2.0]):
        a = np.array(row)
        with np.errstate(all="ignore"):
            assert _logsumexp(a) == logsumexp(a) == np.inf


@given(**model_params, draws=st.integers(1, 20))
@settings(max_examples=100, deadline=None)
def test_exact_sample_matches_choice_sampler(law, N, beta, h, alpha, zeros, seed, draws):
    model = _heavy_tailed_model(law, N, beta, h, alpha, zeros, seed)
    table = forward_table(model)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        assert exact_sample(model, fast, table).indices == _exact_sample_oracle(model, slow, table)
    assert fast.bit_generator.state == slow.bit_generator.state


@given(**model_params, n_samples=st.integers(1, 40), delta=st.floats(0.0, 0.6))
@settings(max_examples=100, deadline=None)
def test_concentration_probability_matches_per_draw_pinned_sets(
        law, N, beta, h, alpha, zeros, seed, n_samples, delta):
    model = _heavy_tailed_model(law, N, beta, h, alpha, zeros, seed)
    table = forward_table(model)
    ref = PinnedSet(np.linspace(0.0, 1.0, 2 + seed % 5))
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    est = concentration_probability(model, ref, delta, n_samples, fast, table)
    exceed = 0
    for _ in range(n_samples):
        s = GibbsSample(_exact_sample_oracle(model, slow, table), N)
        d = _hausdorff_oracle(s.set, ref)
        assert hausdorff(s.set, ref) == d
        exceed += d > delta
    assert est.exceed == exceed
    assert fast.bit_generator.state == slow.bit_generator.state


@given(N=st.integers(1024, 2000), beta_hat=st.floats(0.8, 2.0),
       seed=st.integers(0, 2**32 - 1), draws=st.integers(300, 600))
@settings(max_examples=6, deadline=None)
def test_sampler_past_the_row_budget_matches_choice_sampler(law, N, beta_hat, seed, draws):
    model, _ = _disordered_model(tilt(law, 0.5), N, beta_hat=beta_hat, seed=seed)
    table = forward_table(model)
    sampler = ExactSampler(model, table)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sampler.draws(fast, draws)
    assert got == [_exact_sample_oracle(model, slow, table) for _ in range(draws)]
    assert fast.bit_generator.state == slow.bit_generator.state
    # the rows visited hold more floats than the budget; the kept ones fit in it
    assert sum({n for idx in got for n in idx[1:-1]}) > ROW_BUDGET
    assert sum(row.size for row in sampler.rows.values()) <= ROW_BUDGET


@pytest.mark.parametrize("ref", [PinnedSet([0.0, 10 / 40, 1.0]),
                                 PinnedSet([0.0, 0.3141, 0.7, 1.0])])
def test_concentration_counts_across_score_blocks(term, ref):
    # more draws than one block; a delta equal to a drawn distance is not
    # exceeded (the comparison is strict)
    N = 40
    model, _ = _disordered_model(term, N=N, beta_hat=1.0)
    table = forward_table(model)
    n_samples = 2 * SCORE_BLOCK + 7
    slow = substream(12, "blocks")
    dists = [hausdorff(np.asarray(_exact_sample_oracle(model, slow, table)) / N, ref)
             for _ in range(n_samples)]
    for delta in (0.0, sorted(dists)[n_samples // 2], max(dists)):
        fast = substream(12, "blocks")
        est = concentration_probability(model, ref, delta, n_samples, fast, table)
        assert est.exceed == sum(d > delta for d in dists)
        assert fast.bit_generator.state == slow.bit_generator.state


def test_concentration_memory_stays_within_row_budget():
    # from 1x to 4x the draws, the traced peak may grow only by the rows kept
    # (at most ROW_BUDGET floats) and by one block: a block's draws and its
    # scoring temporaries, measured on a fresh copy of the first block.  An
    # unbounded row store or one scoring pass over every draw breaks this.
    law = build_law(0.5, 1.0, 0.0, 0.0, n_max=4000)
    N = 2048
    model, _ = _disordered_model(tilt(law, 1.0), N=N, beta_hat=1.0, seed=3)
    table = forward_table(model)
    ref = PinnedSet([0.0, 0.5, 1.0])

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def estimate(n_samples):
        return lambda: concentration_probability(
            model, ref, 0.1, n_samples, substream(5, "mem"), table)

    sets = pickle.dumps(ExactSampler(model, table).draws(substream(5, "mem"), SCORE_BLOCK))
    block = peak(lambda: grid_hausdorff(pickle.loads(sets), N, ref))
    assert peak(estimate(4 * SCORE_BLOCK)) - peak(estimate(SCORE_BLOCK)) <= 8 * ROW_BUDGET + block
