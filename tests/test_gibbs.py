"""Exact partition function, exact sampler, and concentration estimator."""

import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from pinlab import gibbs
from pinlab.disorder import DisorderLaw, sample_coupled
from pinlab.geometry import PinnedSet, grid_hausdorff, hausdorff
from pinlab.gibbs import (
    SCORE_BLOCK,
    PinningModel,
    backward_sweep,
    concentration_probability,
    enumerate_distribution,
    exact_sample,
    forward_table,
    set_log_weight,
    wilson_interval,
)
from pinlab.renewal import build_law, renewal_function, tilt
from pinlab.streams import substream
from pinlab.varmax import EnergyLandscape, pinned_set, solve_dp


@pytest.fixture(scope="module")
def law():
    return build_law(0.5, 1.0, 0.0, 0.0, n_max=2000)


@pytest.fixture(scope="module")
def term(law):
    return tilt(law, 0.5)


def _disordered_model(law, N, beta_hat=1.0, seed=17):
    dlaw = DisorderLaw(0.5)
    d = sample_coupled(dlaw, N, substream(seed, "gibbs-test"))
    beta = beta_hat * N**0.5 / d.b_N
    return PinningModel(law=law, omega=d.omega, beta=beta, N=N), d


def test_partition_two_paths(term):
    omega = np.array([2.0])
    model = PinningModel(law=tilt(term, 0.3), omega=omega, beta=0.7, N=2)
    # the tilt scales each of the path's gaps by exp(-0.3)
    expect = term.K[2] + term.K[1] ** 2 * math.exp(0.7 * 2.0 - 0.3)
    assert float(forward_table(model)[model.N]) == pytest.approx(math.log(expect) - 0.3, rel=1e-12)


def test_partition_free_case_is_renewal_function(term):
    for N in (2, 3, 10, 50):
        model = PinningModel(law=term, omega=np.zeros(N - 1), beta=0.0, N=N)
        u = renewal_function(term, N)
        assert float(forward_table(model)[model.N]) == pytest.approx(math.log(u[N]), rel=1e-10)
    # four-path enumeration at N=3
    K = term.K
    z3 = K[3] + 2 * K[1] * K[2] + K[1] ** 3
    model3 = PinningModel(law=term, omega=np.zeros(2), beta=0.0, N=3)
    assert float(forward_table(model3)[model3.N]) == pytest.approx(math.log(z3), rel=1e-12)


def test_partition_horizon_error(term):
    with pytest.raises(ValueError):
        model = PinningModel(law=term, omega=np.zeros(2000), beta=0.0, N=2001)
        forward_table(model)
    # the horizon n_max itself lies within the support
    at = PinningModel(law=term, omega=np.zeros(1999), beta=0.0, N=term.n_max)
    assert math.isfinite(forward_table(at)[at.N])


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
    # a gap of n_max is the last one the support carries
    far = PinningModel(law=term, omega=np.zeros(term.n_max - 1), beta=0.0, N=term.n_max)
    assert set_log_weight(far, (0, term.n_max)) == math.log(term.K[term.n_max])


def test_set_log_weight_rejects_configurations_that_do_not_increase(term):
    # a negative gap would read K from the end of the array, a zero gap log(0)
    model = PinningModel(law=term, omega=np.linspace(0.5, 3.0, 9), beta=0.4, N=10)
    for idx in ((0, 7, 3, 10), (0, 3, 3, 10), (0, 10, 10), ()):
        with pytest.raises(ValueError):
            set_log_weight(model, idx)


def test_normalization_over_enumeration(term):
    model, _ = _disordered_model(term, N=10, beta_hat=2.0)
    logZ = float(forward_table(model)[model.N])
    total = 0.0
    for mask in range(1 << 9):
        idx = (0,) + tuple(i + 1 for i in range(9) if mask >> i & 1) + (10,)
        total += math.exp(set_log_weight(model, idx) - logZ)
    assert abs(total - 1.0) < 1e-9


def test_sampler_two_site_frequencies(term):
    model = PinningModel(law=term, omega=np.array([1.5]), beta=0.9, N=2)
    z = math.exp(float(forward_table(model)[model.N]))
    p_mid = term.K[1] ** 2 * math.exp(0.9 * 1.5) / z
    rng = substream(8, "freq")
    n = 100_000
    hits = sum(idx == (0, 1, 2) for idx in backward_sweep(model, forward_table(model), rng, n))
    sigma = math.sqrt(p_mid * (1 - p_mid) / n)
    assert abs(hits / n - p_mid) < 3 * sigma


def test_sampler_matches_enumeration_tv(term):
    model, _ = _disordered_model(term, N=8, beta_hat=2.0)
    dist = enumerate_distribution(model)
    rng = substream(15, "tv")
    n = 40_000
    counts = {}
    for idx in backward_sweep(model, forward_table(model), rng, n):
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
    rho = float(d.M_disc[k:].sum())
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
    rng = substream(9, "conc0")
    oracle = _sweep_oracle(model, rng, forward_table(model), 500)
    frac_neq = np.mean([PinnedSet(np.asarray(idx) / model.N) != ref for idx in oracle])
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
        ref = pinned_set(land, solve_dp(land))
        est = concentration_probability(model, ref, 0.1, 2000, substream(31, "cd", N))
        ests[N] = est.estimate
    assert ests[256] < ests[64]


def test_wilson_interval_known_value():
    lo, hi = wilson_interval(5, 10)
    assert lo == pytest.approx(0.2365930, abs=1e-6)
    assert hi == pytest.approx(0.7634070, abs=1e-6)
    # all or no successes end the interval exactly at 1 and 0; the formula
    # alone passes 1 at n = 16, drops below 0 at n = 21 and falls short of 1
    # by 2^-53 at n = 10
    for n in range(1, 200):
        assert wilson_interval(n, n)[1] == 1.0 and wilson_interval(0, n)[0] == 0.0, n


def test_enumeration_cap_is_checked_before_any_configuration(term):
    model = PinningModel(law=term, omega=np.zeros(20), beta=0.0, N=21)
    with mock.patch.object(gibbs, "set_log_weight", side_effect=AssertionError("enumerated")):
        with pytest.raises(ValueError, match="capped at N = 20"):
            enumerate_distribution(model)


def test_model_validation(term):
    with pytest.raises(ValueError):
        PinningModel(law=term, omega=np.zeros(3), beta=1.0, N=3)
    with pytest.raises(ValueError):
        PinningModel(law=term, omega=-np.ones(2), beta=1.0, N=3)
    with pytest.raises(ValueError):
        PinningModel(law=term, omega=np.ones(2), beta=-1.0, N=3)
    # every site weight is finite, but their sum overflows, or passes the
    # 2^1020 that forward_table's bound takes; at 2^1020 itself it is accepted
    for omega, beta in (([1e308, 1e308], 1.0), ([2.0**1019, 2.0**1019], 1.5)):
        with pytest.raises(ValueError, match="overflow"):
            PinningModel(law=term, omega=np.array(omega), beta=beta, N=3)
    PinningModel(law=term, omega=np.array([2.0**1019, 2.0**1019]), beta=1.0, N=3)
    # a K that falls below 2^-969 within the horizon is refused, at the
    # first N that reaches it
    steep = build_law(0.5, 15.0, 0.0, 0.0, n_max=2500)
    first = int(np.argmax(steep.K[1:] < gibbs.K_FLOOR)) + 1
    assert first > 2
    PinningModel(law=steep, omega=np.zeros(first - 2), beta=0.0, N=first - 1)
    with pytest.raises(ValueError, match="2\\^-969"):
        PinningModel(law=steep, omega=np.zeros(first - 1), beta=0.0, N=first)


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


def _sweep_oracle(model, rng, table, count):
    # rng.choice per step in backward_sweep's order: rows descending, and the
    # draws at a row by ascending index
    N = model.N
    logK = np.full(N + 1, -np.inf)
    logK[1:] = np.log(model.law.K[1 : N + 1])
    paths = [[N] for _ in range(count)]
    for n in range(N, 0, -1):
        at = [path for path in paths if path[-1] == n]
        if at:
            logits = table[:n] + logK[n:0:-1]
            p = np.exp(logits - logits.max())
            p /= p.sum()
            for path in at:
                path.append(int(rng.choice(n, p=p)))
    return [tuple(reversed(path)) for path in paths]


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


def _assert_within_bound(model, table):
    # forward_table's docstring bounds |table - log Z| by n((n+1)/B + 8) u L.
    # The scipy row oracle takes the same steps over rows of n terms: a term
    # 4L, n shifted exponentials 4.4n, their sum 1.01n, log1p and log(count)
    # 4 log n + 4, and + a_max, + s_n 2L, so it stays within n(7L + 3(n+1)) u.
    # The two differ by at most the sum.
    oracle = _forward_table_oracle(model)
    n = np.arange(model.N + 1)
    L = 1024 + max(np.abs(table).max(), np.abs(oracle).max()) + model.site_log_weights.max()
    u = 2.0**-53
    bound = n * ((n + 1) / gibbs.B + 8) * u * L + n * (7 * L + 3 * (n + 1)) * u
    assert np.all(np.abs(table - oracle) <= bound)


@given(**model_params)
@settings(max_examples=100, deadline=None)
def test_forward_table_matches_scipy_logsumexp(law, N, beta, h, alpha, zeros, seed):
    model = _heavy_tailed_model(law, N, beta, h, alpha, zeros, seed)
    _assert_within_bound(model, forward_table(model))


@pytest.mark.parametrize("N", [2, gibbs.B - 1, gibbs.B, gibbs.B + 1, 2 * gibbs.B,
                               3 * gibbs.B + 1])
@pytest.mark.parametrize("beta", [0.0, 2.0])
def test_forward_table_at_block_edges(law, N, beta):
    # rows 0..N go in blocks of B: N = 2 and B - 1 fill part of one block and
    # all of it, B and 2B end on a block of one row, B + 1 and 3B + 1 on a
    # block of two
    model = _heavy_tailed_model(law, N, beta, 1.0, 0.5, 0.5, seed=N)
    table = forward_table(model)
    _assert_within_bound(model, table)
    if beta == 0.0:
        assert table[N] == pytest.approx(math.log(renewal_function(model.law, N)[N]), rel=1e-12)


def test_forward_table_with_log_Z_above_1e4(law):
    model = PinningModel(law=law, omega=np.linspace(250.0, 350.0, 59), beta=1.0, N=60)
    table = forward_table(model)
    assert table[-1] > 1e4
    _assert_within_bound(model, table)


def test_forward_table_with_a_tie_between_the_fold_and_a_block_term(law):
    # Row B + 1 sums two terms: log Z_B + log K(1), from its own block, and
    # A[B + 1], the fold of the first block.  The site weight at B sets the
    # first term: log Z_B = A[B] + s_B.  Tapping max() reads both terms, and
    # s_B is chosen so that they are the same float.
    N = gibbs.B + 2

    def row_terms(w):
        omega = np.zeros(N - 1)
        omega[gibbs.B - 1] = w
        model = PinningModel(law=law, omega=omega, beta=1.0, N=N)
        seen = []

        def tap(*args):
            if len(args) == 1:  # a list of terms, not max(b0, 1)
                seen.append(list(args[0]))
            return max(*args)

        with mock.patch.object(gibbs, "max", tap, create=True):
            table = forward_table(model)
        pairs = [t for t in seen if len(t) == 2]
        return model, table, seen[gibbs.B][0], pairs[-1]  # row B is [A[B]]; row B + 1

    _, _, a_B, (_, a_next) = row_terms(0.0)
    log_k1 = np.log(law.K[1 : gibbs.B + 1]).tolist()[0]  # as forward_table forms it
    for step in range(-40, 41):
        w = a_next - log_k1 - a_B + step * math.ulp(a_next - log_k1 - a_B)
        if (a_B + w) + log_k1 == a_next:
            break
    else:
        pytest.fail("no site weight gives a tie")
    model, table, _, (block_term, fold) = row_terms(w)
    assert block_term == fold
    _assert_within_bound(model, table)


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


@given(**model_params, draws=st.integers(1, 20))
@settings(max_examples=100, deadline=None)
def test_exact_sample_matches_choice_sampler(law, N, beta, h, alpha, zeros, seed, draws):
    model = _heavy_tailed_model(law, N, beta, h, alpha, zeros, seed)
    # one draw by exact_sample, then `draws` by one sweep
    table = forward_table(model)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    assert exact_sample(model, fast) == _exact_sample_oracle(model, slow, table)
    assert fast.bit_generator.state == slow.bit_generator.state
    assert backward_sweep(model, table, fast, draws) == _sweep_oracle(model, slow, table, draws)
    assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("count", [0, -1])
def test_backward_sweep_count_below_one(term, count):
    # no draws is an empty list, as grid_hausdorff([]) is an empty result;
    # a negative count is an error that names it; neither takes a uniform
    model, _ = _disordered_model(term, N=16)
    table = forward_table(model)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    if count < 0:
        with pytest.raises(ValueError, match="count must be >= 0"):
            backward_sweep(model, table, rng, count)
    else:
        assert backward_sweep(model, table, rng, count) == []
    assert rng.bit_generator.state == state


@given(**model_params, n_samples=st.integers(1, 40), delta=st.floats(0.0, 0.6))
@settings(max_examples=100, deadline=None)
def test_concentration_probability_matches_per_draw_pinned_sets(
        law, N, beta, h, alpha, zeros, seed, n_samples, delta):
    model = _heavy_tailed_model(law, N, beta, h, alpha, zeros, seed)
    table = forward_table(model)
    ref = PinnedSet(np.linspace(0.0, 1.0, 2 + seed % 5))
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    est = concentration_probability(model, ref, delta, n_samples, fast)
    exceed = 0
    for idx in _sweep_oracle(model, slow, table, n_samples):
        s = PinnedSet(np.asarray(idx) / N)
        d = _hausdorff_oracle(s, ref)
        assert hausdorff(s, ref) == d
        exceed += d > delta
    assert est.exceed == exceed
    assert fast.bit_generator.state == slow.bit_generator.state


@given(N=st.integers(1024, 2000), beta_hat=st.floats(0.8, 2.0),
       seed=st.integers(0, 2**32 - 1), draws=st.integers(150, 300))
@settings(max_examples=6, deadline=None)
def test_sweep_at_large_N_matches_oracle_and_builds_each_row_once(law, N, beta_hat, seed, draws):
    model, _ = _disordered_model(tilt(law, 0.5), N, beta_hat=beta_hat, seed=seed)
    table = forward_table(model)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    real = gibbs._backward_cdf

    def counted(table, logK, n):
        built.append(n)
        return real(table, logK, n)

    for _ in range(2):  # two blocks from one generator
        built = []
        with mock.patch.object(gibbs, "_backward_cdf", counted):
            got = backward_sweep(model, table, fast, draws)
        assert got == _sweep_oracle(model, slow, table, draws)
        assert fast.bit_generator.state == slow.bit_generator.state
        # each row some draw sits at is built once, in descending order
        assert built == sorted({n for idx in got for n in idx[1:]}, reverse=True)


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
    dists = [hausdorff(np.asarray(idx) / N, ref) for size in (SCORE_BLOCK, SCORE_BLOCK, 7)
             for idx in _sweep_oracle(model, slow, table, size)]
    for delta in (0.0, sorted(dists)[n_samples // 2], max(dists)):
        fast = substream(12, "blocks")
        est = concentration_probability(model, ref, delta, n_samples, fast)
        assert est.exceed == sum(d > delta for d in dists)
        assert fast.bit_generator.state == slow.bit_generator.state


def test_concentration_memory_stays_within_one_block():
    # from 1x to 4x the draws, the traced peak may grow only by one block: a
    # block's draws and its scoring temporaries, measured on a fresh copy of
    # the first block.  A store of CDF rows kept across blocks or one scoring
    # pass over every draw breaks this.
    law = build_law(0.5, 1.0, 0.0, 0.0, n_max=4000)
    N = 2048
    model, _ = _disordered_model(tilt(law, 1.0), N=N, beta_hat=1.0, seed=3)
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
            model, ref, 0.1, n_samples, substream(5, "mem"))

    sets = pickle.dumps(backward_sweep(model, forward_table(model), substream(5, "mem"),
                                       SCORE_BLOCK))
    block = peak(lambda: grid_hausdorff(pickle.loads(sets), N, ref))
    assert peak(estimate(4 * SCORE_BLOCK)) - peak(estimate(SCORE_BLOCK)) <= block
