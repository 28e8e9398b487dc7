"""The shared chain kernel: chunked enumeration, tie-breaks, thresholds."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pinlab.chain as chain
import pinlab.polymer as polymer
import pinlab.varmax as varmax
from pinlab.chain import BLOCK, chain_dp, enumerate_best
from pinlab.disorder import BUFFER_MIN, draw_base
from pinlab.polymer import (
    PolymerEnvironment,
    _segment_entropy_matrix,
    binary_entropy_rate,
    polymer_beta_critical,
    solve_polymer_bruteforce,
)
from pinlab.streams import substream
from pinlab.varmax import (
    EnergyLandscape,
    _gap_column,
    beta_critical,
    objective,
    solve_bruteforce,
    solve_dp,
)


def test_chunked_enumeration_matches_one_chunk(monkeypatch):
    # below 2^CHUNK_BITS subsets everything is one chunk; shrinking the
    # chunk width to 1-2 bits forces the high-bit extension on every instance
    rng = np.random.default_rng(77)
    landscapes = []
    for _ in range(10):
        T, Y = draw_base(int(rng.integers(2, 10)), rng)
        landscapes.append(EnergyLandscape.from_marks(
            Y, T ** -2.0, float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.2, 0.9))))
    prng = substream(77, "chunks")
    envs = [PolymerEnvironment.sample(float(prng.uniform(0.3, 1.5)), int(prng.integers(2, 10)), prng)
            for _ in range(10)]

    def results():
        pinning = []
        for L in landscapes:
            sol = solve_bruteforce(L)
            pinning.append((sol, objective(L, sol),
                            beta_critical(L.positions, L.weights, L.gamma, method="enumerate")))
        paths = []
        for env in envs:
            idx = solve_polymer_bruteforce(env, 0.8)
            paths.append((idx, polymer.objective(env, 0.8, idx),
                            polymer_beta_critical(env, method="enumerate")))
        return pinning, paths

    one_chunk = results()
    for bits in (1, 2):
        monkeypatch.setattr(chain, "CHUNK_BITS", bits)
        assert results() == one_chunk


def test_beta_critical_enumeration_past_twenty_points():
    rng = np.random.default_rng(22)
    T, Y = draw_base(22, rng)
    for w in (T ** -2.0, rng.uniform(0.9, 1.1, 22)):
        a = beta_critical(Y, w, 0.5, method="enumerate")
        b = beta_critical(Y, w, 0.5, method="parametric")
        assert a == pytest.approx(b, abs=1e-12)


@given(
    half=st.lists(st.integers(1, 63), min_size=1, max_size=4, unique=True),
    beta=st.floats(0.05, 8.0),
    gamma=st.sampled_from((0.25, 0.5, 0.75)),
)
@settings(max_examples=200, deadline=None)
def test_dp_tie_breaks_match_enumeration_pinning(half, beta, gamma):
    # positions mirrored about 1/2 with equal weights: every chain has a
    # mirror image with the same exact score
    p = np.sort(np.array(half, dtype=float)) / 128.0
    pos = np.concatenate([p, 1.0 - p[::-1]])
    w = np.ones(pos.size)
    L = EnergyLandscape(pos, w, beta, gamma)
    column = _gap_column(L.positions, L.gamma)
    best = chain_dp(w, beta, column)
    assert best == enumerate_best(w, beta, column)
    assert solve_dp(L) == best  # on the pruned candidates
    assert beta_critical(pos, w, gamma) == chain.min_ratio(w, column, 1.0, "enumerate")


@given(
    xs=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4, unique=True),
    frac=st.floats(0.05, 1.0),
    beta=st.floats(0.0, 4.0),
)
@settings(max_examples=200, deadline=None)
def test_dp_tie_breaks_match_enumeration_polymer(xs, frac, beta):
    # charges mirrored in y with equal weights; e is even, so a chain and its
    # mirror image have bit-equal costs and tie exactly
    x = np.sort(np.array(xs))
    y = frac * np.minimum(x, 1.0 - x)
    ex = np.concatenate(([0.0], np.repeat(x, 2), [1.0]))
    ey = np.concatenate(([0.0], np.column_stack([-y, y]).ravel(), [0.0]))
    w = np.ones(2 * x.size)
    column = _segment_entropy_matrix(ex, ey)
    assert chain_dp(w, beta, column) == enumerate_best(w, beta, column)


def test_equal_length_ties_prefer_the_smallest_last_point():
    # chains (0, 3) and (1, 2) tie; the DP keeps the smallest predecessor of
    # the closing node, and the enumeration ranks ties the same way
    cost = np.full((6, 6), np.inf)
    for i, j in ((0, 1), (1, 4), (4, 5), (0, 2), (2, 3), (3, 5)):
        cost[i, j] = 0.0
    cost[0, 5] = 1.0
    w = np.ones(4)
    assert chain_dp(w, 1.0, lambda j: cost[:j, j]) == (1, 2)
    assert enumerate_best(w, 1.0, lambda j: cost[:j, j]) == (1, 2)


@given(
    m=st.integers(1, 6),
    beta=st.integers(0, 3),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_dp_tie_breaks_match_enumeration_exact_costs(m, beta, data):
    # small integer weights and costs make every score exact, so chains of
    # equal and of different lengths tie; +inf marks infeasible segments
    w = np.array(data.draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)), dtype=float)
    entries = st.sampled_from((0.0, 1.0, 2.0, 3.0, np.inf))
    flat = data.draw(st.lists(entries, min_size=(m + 2) ** 2, max_size=(m + 2) ** 2))
    cost = np.array(flat).reshape(m + 2, m + 2)
    cost[0, m + 1] = 2.0  # the empty chain stays feasible
    column = lambda j: cost[:j, j]  # noqa: E731
    assert chain_dp(w, beta, column) == enumerate_best(w, beta, column)


@given(
    half=st.lists(st.integers(1, 31), min_size=1, max_size=4, unique=True),
    weights=st.lists(st.integers(1, 8), min_size=4, max_size=4),
)
@example(half=[2], weights=[1, 1, 1, 1])
@settings(max_examples=200, deadline=None)
def test_dp_and_enumeration_agree_at_the_critical_coupling(half, weights):
    # at beta = beta_c the empty chain and the critical chain tie exactly in
    # theory; both solvers must round that tie the same way, so the
    # enumeration scores chains in the DP's order of accumulation
    p = np.sort(np.array(half, dtype=float)) / 64.0
    pos = np.concatenate([p, 1.0 - p[::-1]])
    wh = np.array(weights[: p.size], dtype=float)
    w = np.concatenate([wh, wh[::-1]])
    L = EnergyLandscape(pos, w, beta_critical(pos, w, 0.5), 0.5)
    column = _gap_column(L.positions, L.gamma)
    assert L.beta == chain.min_ratio(w, column, 1.0, "enumerate")  # unpruned
    assert chain_dp(w, L.beta, column) == enumerate_best(w, L.beta, column)
    assert solve_dp(L) == solve_bruteforce(L)


def _argmax_sums_strided(w, beta, cost, c):
    # the Dinkelbach step reading the strided column cost[:j, j]
    m = w.size
    wx = np.append(w, 0.0)
    best, wsum, csum = np.zeros(m + 2), np.zeros(m + 2), np.zeros(m + 2)
    for j in range(1, m + 2):
        cand = best[:j] + beta * wx[j - 1] - c * cost[:j, j]
        i = int(np.argmax(cand))
        best[j] = cand[i]
        wsum[j] = wsum[i] + wx[j - 1]
        csum[j] = csum[i] + cost[i, j]
    return best[m + 1], wsum[m + 1], csum[m + 1]


@given(m=st.integers(1, 40), beta=st.floats(0.0, 4.0), c=st.sampled_from((0.5, 1.0)),
       inf_share=st.sampled_from((0.0, 0.3)), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_argmax_sums_on_transposed_costs_match_strided_columns(m, beta, c, inf_share, seed):
    rng = np.random.default_rng(seed)
    w = rng.pareto(0.7, m) + 0.1
    cost = rng.random((m + 2, m + 2))
    cost[rng.random(cost.shape) < inf_share] = np.inf
    cost[0, m + 1] = 1.0
    costT = np.ascontiguousarray(cost.T)  # row j holds column j, as the cost tables do
    got = chain._argmax_sums(w, beta, lambda j: costT[j, :j], c)
    assert got == _argmax_sums_strided(w, beta, cost, c)


@given(m=st.integers(1, 30), beta=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_chain_dp_matches_flatnonzero_tie_rule(m, beta, seed):
    # exact integer costs, so most rows have several maximal candidates
    rng = np.random.default_rng(seed)
    w = rng.integers(1, 4, m).astype(float)
    cost = rng.integers(0, 4, (m + 2, m + 2)).astype(float)
    wx = np.append(w, 0.0)
    best = np.zeros(m + 2)
    cnt = np.zeros(m + 2, dtype=np.int64)
    bp = np.zeros(m + 2, dtype=np.int64)
    for j in range(1, m + 2):
        cand = best[:j] + beta * wx[j - 1] - cost[:j, j]
        tie = np.flatnonzero(cand == cand.max())
        i = int(tie[np.argmin(cnt[tie])])
        best[j], cnt[j], bp[j] = cand.max(), cnt[i] + 1, i
    sel, node = [], int(bp[m + 1])
    while node != 0:
        sel.append(node - 1)
        node = int(bp[node])
    assert chain_dp(w, beta, lambda j: cost[:j, j]) == tuple(reversed(sel))


def _never(*args):
    raise AssertionError("costs computed for a call that must fail")


def test_unknown_method_is_rejected_before_any_cost_is_built(monkeypatch):
    # a bad method name must not pay for any cost: the polymer's table takes
    # about (m+2)^2 / 2 floats
    monkeypatch.setattr(varmax, "_gap_column", _never)
    monkeypatch.setattr(polymer, "_segment_entropy_matrix", _never)
    T, Y = draw_base(64, substream(5, "bogus"))
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        beta_critical(Y, T**-2.0, 0.5, method="bogus")
    env = PolymerEnvironment.sample(0.8, 64, substream(5, "bogus"))
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        polymer_beta_critical(env, method="bogus")


def test_enumeration_cap_is_checked_before_any_cost_is_built(monkeypatch):
    # one position or charge past the cap; no cost is computed before the
    # enumeration refuses to start
    monkeypatch.setattr(varmax, "_gap_column", _never)
    monkeypatch.setattr(polymer, "_segment_entropy_matrix", _never)
    T, Y = draw_base(varmax.BRUTEFORCE_MAX + 1, substream(5, "cap"))
    with pytest.raises(ValueError, match="enumeration capped at 25 points"):
        beta_critical(Y, T**-2.0, 0.5, method="enumerate")
    env = PolymerEnvironment.sample(0.8, polymer.ENUM_MAX + 1, substream(5, "cap"))
    with pytest.raises(ValueError, match="enumeration capped at 20 points"):
        polymer_beta_critical(env, method="enumerate")


def test_auto_equals_enumeration_at_the_benchmark_pinning_draws():
    # the chain-thresholds benchmark's threshold-pinning draws (alpha = gamma
    # = 0.5, one base of BUFFER_MIN per replica).  k = 16: 50 replicas of
    # seeds 1-5; k = 25, where one unpruned enumeration scans 2^25 subsets
    # (about 0.5 CPU s on one core), the first and last replica of each seed,
    # as the benchmark's own check takes them
    for seed in range(1, 6):
        for r in range(50):
            T, Y = draw_base(BUFFER_MIN, substream(seed, "threshold-pinning", r))
            for k in (16, 25) if r in (0, 49) else (16,):
                w = T[:k] ** -2.0
                assert beta_critical(Y[:k], w, 0.5) == beta_critical(
                    Y[:k], w, 0.5, method="enumerate"), (seed, r, k)


def test_auto_equals_enumeration_at_small_polymer_draws():
    # environments drawn as the threshold-polymer runner draws them, at the
    # chain-thresholds benchmark's alpha = 0.8, truncated to k <= 20
    for seed in range(1, 6):
        for r in range(50):
            env = PolymerEnvironment.sample(0.8, 20, substream(seed, "threshold-polymer", r))
            for k in (5, 10, 20):
                sub = env.truncate(k)
                assert polymer_beta_critical(sub) == polymer_beta_critical(
                    sub, method="enumerate"), (seed, r, k)


def _lazy_columns(solve):
    # every column that the polymer's solver hands chain_dp
    seen = []

    def spy(w, beta, column, c=1.0):
        seen.extend(column(j) for j in range(1, w.size + 2))
        return ()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polymer, "chain_dp", spy)
        solve()
    return seen


# endpoint-augmented sizes m + 2 on either side of one and two block edges
_BLOCK_EDGES = (BLOCK - 3, BLOCK - 2, BLOCK - 1, 2 * BLOCK - 1)


@given(m=st.integers(0, 3 * BLOCK), alpha=st.sampled_from((0.3, 0.8, 1.5)),
       seed=st.integers(0, 2**32 - 1))
@example(m=_BLOCK_EDGES[0], alpha=0.8, seed=1)
@example(m=_BLOCK_EDGES[1], alpha=0.3, seed=2)
@example(m=_BLOCK_EDGES[2], alpha=1.5, seed=3)
@example(m=_BLOCK_EDGES[3], alpha=0.8, seed=4)
@settings(max_examples=100, deadline=None)
def test_cost_tables_match_the_lazy_columns(m, alpha, seed):
    # the polymer's table, read by its thresholds and oracles, against the
    # columns solve_polymer computes one at a time, byte for byte, over up to
    # three blocks of rows (pinning builds no table)
    rng = np.random.default_rng(seed)
    env = PolymerEnvironment.sample(alpha, m, rng)
    ex, ey, _ = polymer._sorted_nodes(env)
    column = _segment_entropy_matrix(ex, ey)
    lazy = _lazy_columns(lambda: polymer.solve_polymer(env, 1.0))
    assert [c.tobytes() for c in lazy] == [column(j).tobytes() for j in range(1, m + 2)]


def _full_gap_powers(ext, gamma):
    # the whole (m+2)^2 table, row j holding column j
    table = ext[:, None] - ext[None, :]
    np.maximum(table, 0.0, out=table)
    table **= gamma
    return table


def _full_segment_entropy(ex, ey):
    # the whole (m+2)^2 table, row j holding column j; the entropy rate on
    # the feasible pairs only, +inf elsewhere
    dx = ex[:, None] - ex[None, :]
    dy = ey[:, None] - ey[None, :]
    f = (dx > 0.0) & (np.abs(dy) <= dx)
    table = np.full(dx.shape, np.inf)
    table[f] = dx[f] * binary_entropy_rate(dy[f] / dx[f])
    return table


def _grid_charges(m, rng):
    # charges with repeated x (on a 1/64 grid) and slopes of exactly 0 and
    # +-1 between them: on the axis, on the diamond's edge, on the grid, or
    # a drawn fraction of the height
    x = np.where(rng.random(m) < 0.5, rng.integers(1, 64, m) / 64.0, rng.uniform(0.001, 0.999, m))
    h = np.minimum(x, 1.0 - x)
    y = np.choose(rng.integers(0, 4, m), [np.zeros(m), h, np.floor(h * 64.0) / 64.0, rng.random(m) * h])
    y *= rng.choice((-1.0, 1.0), m)
    order = np.lexsort((y, x))
    return np.concatenate(([0.0], x[order], [1.0])), np.concatenate(([0.0], y[order], [0.0]))


@given(m=st.integers(0, 3 * BLOCK), gamma=st.sampled_from((0.25, 0.5, 0.75, 0.8)),
       seed=st.integers(0, 2**32 - 1))
@example(m=_BLOCK_EDGES[0], gamma=0.5, seed=1)
@example(m=_BLOCK_EDGES[1], gamma=0.25, seed=2)
@example(m=_BLOCK_EDGES[2], gamma=0.75, seed=3)
@example(m=_BLOCK_EDGES[3], gamma=0.8, seed=4)
@settings(max_examples=60, deadline=None)
def test_cost_tables_match_the_full_square(m, gamma, seed):
    # every column of the gap-power accessor and of the polymer's blocked
    # table equals the column of the whole square table, byte for byte, so
    # +inf sits in the same places
    rng = np.random.default_rng(seed)
    T, Y = draw_base(m, rng)
    L = EnergyLandscape.from_marks(Y, T**-2.0, 0.0, gamma)
    column = _gap_column(L.positions, L.gamma)
    full = _full_gap_powers(np.concatenate(([0.0], L.positions, [1.0])), gamma)
    assert all(column(j).tobytes() == full[j, :j].tobytes() for j in range(m + 2))
    ex, ey = _grid_charges(m, rng)
    column = _segment_entropy_matrix(ex, ey)
    full = _full_segment_entropy(ex, ey)
    assert all(column(j).tobytes() == full[j, :j].tobytes() for j in range(m + 2))
