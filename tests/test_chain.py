"""The shared chain kernel: chunked enumeration, tie-breaks, thresholds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinlab.chain as chain
from pinlab.chain import chain_dp, enumerate_best
from pinlab.disorder import draw_base
from pinlab.polymer import (
    PolymerEnvironment,
    _segment_entropy_matrix,
    polymer_beta_critical,
    solve_polymer_bruteforce,
)
from pinlab.streams import substream
from pinlab.varmax import EnergyLandscape, _gap_powers, beta_critical, solve_bruteforce


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
            pinning.append((sol.selected, sol.value,
                            beta_critical(L.positions, L.weights, L.gamma, method="enumerate")))
        polymer = []
        for env in envs:
            path, value = solve_polymer_bruteforce(env, 0.8)
            polymer.append((path.to_json(), value, polymer_beta_critical(env, method="enumerate")))
        return pinning, polymer

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
    cost = _gap_powers(EnergyLandscape(pos, w, beta, gamma))
    assert chain_dp(w, beta, lambda j: cost[:j, j]) == enumerate_best(w, beta, cost)


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
    cost = _segment_entropy_matrix(ex, ey)
    assert chain_dp(w, beta, lambda j: cost[:j, j]) == enumerate_best(w, beta, cost)


def test_equal_length_ties_prefer_the_smallest_last_point():
    # chains (0, 3) and (1, 2) tie; the DP keeps the smallest predecessor of
    # the closing node, and the enumeration ranks ties the same way
    cost = np.full((6, 6), np.inf)
    for i, j in ((0, 1), (1, 4), (4, 5), (0, 2), (2, 3), (3, 5)):
        cost[i, j] = 0.0
    cost[0, 5] = 1.0
    w = np.ones(4)
    assert chain_dp(w, 1.0, lambda j: cost[:j, j]) == (1, 2)
    assert enumerate_best(w, 1.0, cost) == (1, 2)


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
    assert chain_dp(w, beta, lambda j: cost[:j, j]) == enumerate_best(w, beta, cost)
