"""Energy-entropy maximization: solvers, thresholds, structural properties."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pinlab.varmax as varmax
from pinlab.chain import chain_dp, min_ratio
from pinlab.disorder import BUFFER_MIN, DisorderLaw, _assign_grid, couple, draw_base
from pinlab.geometry import PinnedSet, hausdorff
from pinlab.streams import substream
from pinlab.varmax import (
    BRUTEFORCE_MAX,
    EnergyLandscape,
    _gap_column,
    _prune,
    beta_critical,
    grid_ranks,
    objective,
    pinned_set,
    solve_bruteforce,
    solve_dp,
)

GRID = (0.3, 0.5, 0.8)
SQ3, SQ4, SQ5, SQ7 = math.sqrt(0.3), math.sqrt(0.4), math.sqrt(0.5), math.sqrt(0.7)


def _pair_landscape(beta=1.0, gamma=0.5):
    return EnergyLandscape(np.array([0.3, 0.7]), np.array([1.0, 1.0]), beta, gamma)


def _random_landscape(rng, m, alpha=0.5, gamma=0.5, beta=None):
    T, Y = draw_base(m, rng)
    beta = float(rng.uniform(0.05, 3.0)) if beta is None else beta
    return EnergyLandscape.from_marks(Y, T ** (-1.0 / alpha), beta, gamma)


def test_objective_examples():
    L0 = EnergyLandscape(np.array([]), np.array([]), 0.0, 0.5)
    assert objective(L0, ()) == -1.0
    L1 = EnergyLandscape(np.array([0.5]), np.array([0.5]), 1.0, 0.5)
    assert objective(L1, (0,)) == pytest.approx(0.5 - 2 * SQ5, rel=1e-12)
    # full pair instance; gaps are (0.3, 0.4, 0.3)
    L = _pair_landscape()
    full = objective(L, (0, 1))
    assert full == pytest.approx(2 - (2 * SQ3 + SQ4), rel=1e-12)
    assert full == pytest.approx(0.27209935295599186, rel=1e-12)
    W = EnergyLandscape(np.array([0.3, 0.7]), np.array([2.0, 1.0]), 1.0, 0.5)
    assert objective(W, (0,)) == pytest.approx(2.0 - (SQ3 + SQ7), rel=1e-12)
    assert pinned_set(W, (0,)) == PinnedSet([0, 0.3, 1])
    assert pinned_set(W, (0, 1)) == PinnedSet([0, 0.3, 0.7, 1])


def test_solve_examples():
    L1 = EnergyLandscape(np.array([0.5]), np.array([0.5]), 1.0, 0.5)
    sol = solve_bruteforce(L1)
    assert sol == (0,) and pinned_set(L1, sol) == PinnedSet([0, 0.5, 1])
    assert objective(L1, sol) == pytest.approx(0.5 - 2 * SQ5, rel=1e-12)
    L0 = _pair_landscape(beta=0.0)
    zero_beta = solve_bruteforce(L0)
    assert zero_beta == () and objective(L0, zero_beta) == -1.0
    pair = solve_bruteforce(_pair_landscape())
    assert pair == (0, 1)
    assert objective(_pair_landscape(), pair) == pytest.approx(0.27209935295599186, rel=1e-12)
    for L in (L1, _pair_landscape(beta=0.0), _pair_landscape()):
        assert solve_dp(L) == solve_bruteforce(L)


def test_solve_dp_empty_landscape():
    L0 = EnergyLandscape(np.array([]), np.array([]), 1.0, 0.5, c_entropy=2.5)
    sol = solve_dp(L0)
    assert sol == () and pinned_set(L0, sol) == PinnedSet([0, 1]) and objective(L0, sol) == -2.5


def test_dp_equals_bruteforce_random():
    rng = np.random.default_rng(42)
    for _ in range(300):
        m = int(rng.integers(1, 13))
        L = _random_landscape(rng, m, gamma=float(rng.uniform(0.2, 0.9)))
        assert solve_dp(L) == solve_bruteforce(L)


def test_solve_dp_maximizes_the_objective_over_all_subsets():
    # the chain DP scores a chain node by node, objective sums its weights
    # and gap powers apart; each is within (2m + 19) u P of the exact score
    # (the bound _prune states), so no subset may beat the DP's choice by
    # more than twice both
    rng = np.random.default_rng(3)
    for _ in range(60):
        m = int(rng.integers(0, 11))
        L = _random_landscape(rng, m, gamma=float(rng.uniform(0.2, 0.9)))
        P = L.beta * float(np.sum(L.weights)) + L.c_entropy * (m + 1) ** (1.0 - L.gamma)
        tol = 4 * (2 * m + 19) * 2.0**-53 * P
        best = objective(L, solve_dp(L))
        assert best >= -L.c_entropy
        for r in range(m + 1):
            for idx in combinations(range(m), r):
                assert best >= objective(L, idx) - tol, (m, idx)


def constrained_max(L: EnergyLandscape, ref, delta: float) -> float:
    """Best objective among subsets at Hausdorff distance >= delta from the
    subset ref, by enumeration; -inf when none qualifies."""
    best = -math.inf
    for r in range(L.size + 1):
        for idx in combinations(range(L.size), r):
            if hausdorff(pinned_set(L, idx), pinned_set(L, ref)) >= delta:
                best = max(best, objective(L, idx))
    return best


def test_constrained_max_examples():
    L1 = EnergyLandscape(np.array([0.5]), np.array([0.5]), 1.0, 0.5)
    ref = solve_bruteforce(L1)
    assert constrained_max(L1, ref, 0.3) == -1.0  # only {0,1} is far enough
    assert constrained_max(L1, ref, 0.0) == objective(L1, ref)
    assert constrained_max(L1, ref, 1.1) == -math.inf


def test_beta_critical_examples():
    assert beta_critical([0.5], [1.0], 0.5) == pytest.approx(2 * SQ5 - 1, rel=1e-12)
    # pair instance: the two-point subset wins, ratio (2*sqrt(.3)+sqrt(.4)-1)/2
    val = beta_critical([0.3, 0.7], [1.0, 1.0], 0.5)
    ratios = [2 * SQ3 + SQ4 - 1.0, SQ3 + SQ7 - 1.0, SQ7 + SQ3 - 1.0]
    expect = min(ratios[0] / 2, ratios[1], ratios[2])
    assert val == pytest.approx(expect, rel=1e-12)
    assert val == pytest.approx(0.363950323522004, rel=1e-9)
    assert beta_critical([], [], 0.5) == math.inf


def test_beta_critical_methods_agree():
    rng = np.random.default_rng(8)
    for trial in range(20):
        m = int(rng.integers(5, 18))
        T, Y = draw_base(m, rng)
        # alternate heavy-tailed weights (single-position optima) with
        # near-equal ones, where multi-point subsets carry the minimum
        w = T ** -2.0 if trial % 2 == 0 else rng.uniform(0.9, 1.1, m)
        a = beta_critical(Y, w, 0.5, method="enumerate")
        b = beta_critical(Y, w, 0.5, method="parametric")
        c = beta_critical(Y, w, 0.5, method="bisect")
        assert a == pytest.approx(b, abs=1e-12)
        assert a == pytest.approx(c, abs=2e-9)
    # regression: multi-point minimizer, not the cheapest single position
    assert beta_critical([0.3, 0.7], [1.0, 1.0], 0.5, method="parametric") == pytest.approx(
        0.363950323522004, abs=1e-12
    )


def test_threshold_dichotomy():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = int(rng.integers(2, 12))
        L = _random_landscape(rng, m, beta=0.0)
        bc = beta_critical(L.positions, L.weights, L.gamma)
        below = EnergyLandscape(L.positions, L.weights, bc - 1e-9, L.gamma)
        above = EnergyLandscape(L.positions, L.weights, bc + 1e-9, L.gamma)
        assert solve_dp(below) == ()
        assert len(solve_dp(above)) > 0


def test_threshold_dichotomy_at_large_k():
    # no enumeration reaches these sizes; the pruned DP must find the
    # maximizer empty just below the threshold and not empty just above it
    for k in (512, 10_000):
        for r in range(20):
            T, Y = draw_base(k, substream(16, "dichotomy", k, r))
            w = T**-2.0
            bc = beta_critical(Y, w, 0.5)
            below = EnergyLandscape.from_marks(Y, w, bc * (1.0 - 1e-9), 0.5)
            above = EnergyLandscape.from_marks(Y, w, bc * (1.0 + 1e-9), 0.5)
            assert solve_dp(below) == (), (k, r)
            assert solve_dp(above) != (), (k, r)


def test_value_monotone_convex_in_beta():
    rng = np.random.default_rng(5)
    L0 = _random_landscape(rng, 10, beta=0.0)
    betas = np.linspace(0.0, 3.0, 31)
    lands = [EnergyLandscape(L0.positions, L0.weights, b, L0.gamma) for b in betas]
    vals = np.array([objective(L, solve_dp(L)) for L in lands])
    assert np.all(np.diff(vals) >= -1e-12)
    second = np.diff(vals, 2)
    assert np.all(second >= -1e-9)  # max of affine functions is convex


def test_scale_invariance_of_argmax():
    rng = np.random.default_rng(6)
    L = _random_landscape(rng, 8, beta=1.3)
    for c in (0.5, 2.0, 7.0):
        Lc = EnergyLandscape(L.positions, L.weights, L.beta, L.gamma, c_entropy=c)
        Ln = EnergyLandscape(L.positions, L.weights, L.beta / c, L.gamma, c_entropy=1.0)
        sc, sn = solve_dp(Lc), solve_dp(Ln)
        assert sc == sn
        assert objective(Lc, sc) == pytest.approx(c * objective(Ln, sn), rel=1e-12)


def test_maximizer_supported_on_landscape():
    rng = np.random.default_rng(9)
    for _ in range(20):
        L = _random_landscape(rng, int(rng.integers(1, 15)))
        sol = solve_dp(L)
        # strictly increasing Python ints, each a landscape position
        assert all(type(i) is int for i in sol)
        assert list(sol) == sorted(set(sol)) and all(0 <= i < L.size for i in sol)


def test_value_monotone_in_truncation():
    rng = np.random.default_rng(12)
    T, Y = draw_base(64, rng)
    w = T ** -2.0
    vals = []
    for k in (4, 8, 16, 32, 64):
        L = EnergyLandscape.from_marks(Y[:k], w[:k], 1.0, 0.5)
        vals.append(objective(L, solve_dp(L)))
    assert np.all(np.diff(vals) >= -1e-12)


def test_reflection_equivariance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        L = _random_landscape(rng, int(rng.integers(1, 12)))
        sol = solve_dp(L)
        LR = EnergyLandscape.from_marks(1.0 - L.positions, L.weights, L.beta, L.gamma)
        solR = solve_dp(LR)
        assert objective(LR, solR) == pytest.approx(objective(L, sol), rel=1e-12)
        assert pinned_set(LR, solR) == pinned_set(L, sol).reflect()


def test_small_beta_keeps_maximizer_near_edges():
    rng = np.random.default_rng(14)
    gamma = 0.5
    for _ in range(20):
        T, Y = draw_base(32, rng)
        w = T ** -2.0
        S = w.sum()
        for eps in (0.1, 0.2):
            beta0 = (eps**gamma + (1 - eps) ** gamma - 1.0) / S
            L = EnergyLandscape.from_marks(Y, w, 0.99 * beta0, gamma)
            inner = L.positions[list(solve_dp(L))]
            assert np.all((inner <= eps) | (inner >= 1 - eps))


def test_landscape_validation():
    with pytest.raises(ValueError):
        EnergyLandscape(np.array([0.0, 0.5]), np.array([1.0, 1.0]), 1.0, 0.5)
    with pytest.raises(ValueError):
        EnergyLandscape(np.array([0.5, 0.3]), np.array([1.0, 1.0]), 1.0, 0.5)
    with pytest.raises(ValueError):
        EnergyLandscape(np.array([0.5]), np.array([0.0]), 1.0, 0.5)
    with pytest.raises(ValueError):
        EnergyLandscape(np.array([0.5]), np.array([1.0]), -1.0, 0.5)
    with pytest.raises(ValueError):
        EnergyLandscape(np.array([0.5]), np.array([1.0]), 1.0, 1.5)


# --- candidate pruning: differential tests against the unpruned kernels ---


def _full_dp(L):
    return chain_dp(L.weights, L.beta, _gap_column(L.positions, L.gamma), L.c_entropy)


def _full_threshold(L, method="auto"):
    return min_ratio(L.weights, _gap_column(L.positions, L.gamma), L.c_entropy, method)


def _margin(L):
    # the tolerance _prune states: 8 (m + 16) u P
    m = L.size
    P = L.beta * float(np.sum(L.weights)) + L.c_entropy * (m + 1) ** (1.0 - L.gamma)
    return 8 * (m + 16) * 2.0**-53 * P


def _prune_one_at_a_time(L):
    # oracle: drop one position at a time, the first one the margin of
    # _prune lets go, until none is left; the iteration is monotone, so any
    # removal order ends at the same (greatest) fixed point
    tol = _margin(L)
    keep = list(range(L.size))
    while keep:
        ext = np.concatenate(([0.0], L.positions[keep], [1.0]))
        gp = np.diff(ext) ** L.gamma
        gain = L.c_entropy * ((gp[:-1] + gp[1:]) - (ext[2:] - ext[:-2]) ** L.gamma)
        over = np.flatnonzero(gain - L.beta * L.weights[keep] > tol)
        if over.size == 0:
            break
        del keep[over[0]]
    return keep


@given(m=st.integers(0, 64), alpha=st.sampled_from(GRID), gamma=st.sampled_from(GRID),
       beta=st.floats(0.0, 5.0), c=st.sampled_from((0.5, 1.0, 2.0)),
       seed=st.integers(0, 2**32 - 1))
@example(m=64, alpha=0.5, gamma=0.5, beta=0.0, c=1.0, seed=1)
@example(m=64, alpha=0.8, gamma=0.8, beta=5.0, c=0.5, seed=2)
@settings(max_examples=300, deadline=None)
def test_pruned_solve_dp_matches_full_dp(m, alpha, gamma, beta, c, seed):
    rng = np.random.default_rng(seed)
    T, Y = draw_base(m, rng)
    L = EnergyLandscape.from_marks(Y, T ** (-1.0 / alpha), beta, gamma, c)
    ref = _full_dp(L)
    sol = solve_dp(L)
    assert sol == ref
    keep = _prune(L.positions, L.weights, beta, gamma, c)
    assert keep.tolist() == _prune_one_at_a_time(L)
    if beta == 0.0:  # no point pays its entropy
        assert keep.size == 0 and sol == ()


def _top_ranks_maximizer(M, Y, N, beta, gamma, c):
    """The convergence cell's maximizer: the landscape of the grid_ranks
    leading ranks only, with their grid slots."""
    R = grid_ranks(M, beta, gamma, c, N)
    top = EnergyLandscape.from_marks(_assign_grid(Y, N, R) / float(N), M[:R], beta, gamma, c)
    return pinned_set(top, solve_dp(top)), R


@given(N=st.integers(2, 700), alpha=st.floats(0.3, 0.95), gamma=st.floats(0.05, 0.95),
       beta=st.one_of(st.just(0.0), st.floats(1e-3, 20.0)), c=st.floats(0.1, 5.0),
       seed=st.integers(0, 2**32 - 1))
@example(N=4500, alpha=0.5, gamma=0.5, beta=1.0, c=1.0, seed=1)
@example(N=1000, alpha=0.8, gamma=0.8, beta=1.0, c=1.0, seed=2)
@settings(max_examples=150, deadline=None)
def test_top_ranks_give_the_maximizer_over_all_ranks(N, alpha, gamma, beta, c, seed):
    # bit for bit against the unpruned DP over every rank, at sizes that are
    # not powers of two (grid positions j/N rounded) and at beta = 0 (R = 0)
    T, Y = draw_base(N, np.random.default_rng(seed))
    d = couple(DisorderLaw(alpha), T, Y, N)
    full = EnergyLandscape.from_marks(d.Y_disc, d.M_disc, beta, gamma, c)
    got, R = _top_ranks_maximizer(d.M_disc, Y, N, beta, gamma, c)
    assert got.points.tobytes() == pinned_set(full, _full_dp(full)).points.tobytes()
    if beta == 0.0:
        assert R == 0 and got.points.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("step", [-1, 0, 1])
def test_top_ranks_keep_the_tie_order(step):
    # one leading weight 1 at site 2/8, gamma = 1/2, c = 1: at beta = r - 1/2,
    # r = sqrt(3/4), the DP's sums (beta - 1/2) - r and 0 - 1 are both
    # exactly -1 (every step is exact by Sterbenz), so {1/4} ties with the
    # empty chain and fewer points win, in both landscapes; 2^-50 above it
    # (16 ulp of beta, the sum then -1 + 2^-50 exactly) the point is taken
    N = 8
    r = math.sqrt(0.75)
    beta = r - 0.5 + step * 2.0**-50
    assert (beta - 0.5) - r == -1.0 + step * 2.0**-50
    M = np.array([1.0, *([1e-9] * 6)])
    Y = np.array([2.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0]) / N
    full = EnergyLandscape.from_marks(Y, M, beta, 0.5, 1.0)
    got, R = _top_ranks_maximizer(M, Y, N, beta, 0.5, 1.0)
    assert R == 1
    assert got.points.tobytes() == pinned_set(full, _full_dp(full)).points.tobytes()
    assert got.points.tolist() == ([0.0, 0.25, 1.0] if step > 0 else [0.0, 1.0])


def test_grid_ranks_rejects_weights_that_are_not_positive_and_finite():
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            grid_ranks(np.array([2.0, 1.0, bad]), 1.0, 0.5, 1.0, 4)


@given(m=st.integers(1, 40), alpha=st.sampled_from(GRID), gamma=st.sampled_from(GRID),
       c=st.sampled_from((0.5, 1.0, 2.0)), flat=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(m=25, alpha=0.5, gamma=0.5, c=1.0, flat=False, seed=3)
@example(m=26, alpha=0.5, gamma=0.5, c=1.0, flat=False, seed=3)
@example(m=26, alpha=0.8, gamma=0.8, c=1.0, flat=True, seed=4)
@settings(max_examples=150, deadline=None)
def test_pruned_beta_critical_matches_full_threshold(m, alpha, gamma, c, flat, seed):
    # flat weights keep many candidates and give multi-point critical chains
    rng = np.random.default_rng(seed)
    T, Y = draw_base(m, rng)
    w = rng.uniform(0.9, 1.1, m) if flat else T ** (-1.0 / alpha)
    L = EnergyLandscape.from_marks(Y, w, 0.0, gamma, c)
    if m <= 18 or m == BRUTEFORCE_MAX:  # the full enumeration costs 2^m
        assert beta_critical(Y, w, gamma, c) == _full_threshold(L)
        assert beta_critical(Y, w, gamma, c, method="enumerate") == _full_threshold(L, "enumerate")
    if m > BRUTEFORCE_MAX:
        assert beta_critical(Y, w, gamma, c) == _full_threshold(L)
        with pytest.raises(ValueError):
            beta_critical(Y, w, gamma, c, method="enumerate")
    assert beta_critical(Y, w, gamma, c, method="parametric") == _full_threshold(L, "parametric")


def test_branch_follows_the_full_count():
    # {0.45} and {0.45, 0.55} have the same exact ratio at this w2, and the
    # enumeration and the parametric iteration round that tie to different
    # floats.  "auto" is the parametric iteration at every count, and the
    # enumeration's float stays reachable by name.  24 light points bring m
    # to 26, and pruning leaves the heavy two
    w2 = 0.5950639282703815
    heavy = EnergyLandscape(np.array([0.45, 0.55]), np.array([1.0, w2]), 0.0, 0.5)
    enum = beta_critical(heavy.positions, heavy.weights, 0.5, method="enumerate")
    par = beta_critical(heavy.positions, heavy.weights, 0.5, method="parametric")
    assert enum != par
    assert enum == _full_threshold(heavy, "enumerate")
    assert beta_critical(heavy.positions, heavy.weights, 0.5) == par
    light = np.linspace(0.02, 0.98, 24)
    L = EnergyLandscape.from_marks(np.concatenate(([0.45, 0.55], light)),
                                   np.concatenate(([1.0, w2], np.full(24, 1e-9))), 0.0, 0.5)
    beta0 = float(((L.positions**0.5 + (1.0 - L.positions) ** 0.5 - 1.0) / L.weights).min())
    assert L.positions[_prune(L.positions, L.weights, beta0, 0.5, 1.0)].tolist() == [0.45, 0.55]
    assert beta_critical(L.positions, L.weights, 0.5) == _full_threshold(L) == par


@given(log_a=st.floats(-11.0, -6.0), ulps=st.integers(-4, 4),
       t=st.sampled_from((-2.0, -1.5, -0.5, 0.0, 0.5, 2.0)),
       gamma=st.sampled_from(GRID), beta=st.sampled_from((0.5, 1.0, 3.0)))
@settings(max_examples=200, deadline=None)
def test_pruning_margin_where_the_entropy_gain_cancels(log_a, ulps, t, gamma, beta):
    # x2 sits a << b from the heavy x1, so D(a, b) = a^g + (b^g - (a+b)^g)
    # cancels; w2 puts beta * w2 within a few ulps, or a few margins, of
    # c * D as _prune computes it
    x1 = 0.25
    x2 = x1 + 10.0**log_a
    ext = np.array([0.0, x1, x2, 1.0])
    gp = np.diff(ext) ** gamma
    d = float((gp[1] + gp[2]) - (ext[3] - ext[1]) ** gamma)
    tol = _margin(EnergyLandscape(ext[1:3], np.array([10.0, d / beta]), beta, gamma))
    w2 = (d + ulps * math.ulp(d) + t * tol) / beta
    L = EnergyLandscape(np.array([x1, x2]), np.array([10.0, w2]), beta, gamma)
    keep = _prune(L.positions, L.weights, beta, gamma, 1.0)
    assert 0 in keep
    if t >= -0.5:  # within the margin: kept
        assert 1 in keep
    if t <= -1.5:
        assert 1 not in keep
    assert solve_dp(L) == _full_dp(L)


def test_threshold_at_large_k(monkeypatch):
    """beta_c^(k) for k = 512, 10^4, 10^5 on one base per replica, drawn as
    the threshold-pinning runner draws it, over the nine (alpha, gamma) of
    criterion 6; then the pruned threshold at m = 4096 against the unpruned
    parametric iteration on the gap powers of all positions.

    The threshold computes every column of gap powers at every Dinkelbach
    step, which is cheap only because _prune leaves few positions: at most
    211 here (alpha = gamma = 0.8, k = 10^5), and the test fails past 1000.

    Measured: 4.3 s on 2 cores (Python 3.11, numpy 2.4); the process peaks
    at 127 MB.  The unpruned parametric iteration at m = 10^5 would need a
    40 GB table."""
    survivors, prune = [], varmax._prune

    def spy(*args):
        keep = prune(*args)
        survivors.append(keep.size)
        return keep

    monkeypatch.setattr(varmax, "_prune", spy)
    R = 20
    ks = (512, 10_000, 100_000)
    for r in range(R):
        T, Y = draw_base(max(max(ks), BUFFER_MIN), substream(6, "threshold-pinning", r))
        for alpha in GRID:
            for gamma in GRID:
                prev = math.inf
                for k in ks:
                    bc = beta_critical(Y[:k], T[:k] ** (-1.0 / alpha), gamma)
                    assert survivors.pop() <= 1000, (r, alpha, gamma, k)
                    # a longer prefix only adds chains, so the minimum ratio can only fall
                    assert 0.0 < bc <= prev * (1.0 + 1e-12)
                    prev = bc
    for r in range(3):
        T, Y = draw_base(4096, substream(6, "threshold-pinning", r))
        w = T ** -2.0
        L = EnergyLandscape.from_marks(Y, w, 0.0, 0.5)
        full = min_ratio(L.weights, _gap_column(L.positions, L.gamma), 1.0, "parametric")
        assert beta_critical(Y, w, 0.5) == full
