"""Energy-entropy maximization: solvers, thresholds, structural properties."""

import math

import numpy as np
import pytest

from pinlab.disorder import draw_base
from pinlab.geometry import PinnedSet, set_entropy
from pinlab.varmax import (
    EnergyLandscape,
    beta_critical,
    constrained_max,
    energy,
    objective,
    solve_bruteforce,
    solve_dp,
)

SQ3, SQ4, SQ5, SQ7 = math.sqrt(0.3), math.sqrt(0.4), math.sqrt(0.5), math.sqrt(0.7)


def _pair_landscape(beta=1.0, gamma=0.5):
    return EnergyLandscape(np.array([0.3, 0.7]), np.array([1.0, 1.0]), beta, gamma)


def _random_landscape(rng, m, alpha=0.5, gamma=0.5, beta=None):
    T, Y = draw_base(m, rng)
    beta = float(rng.uniform(0.05, 3.0)) if beta is None else beta
    return EnergyLandscape.from_marks(Y, T ** (-1.0 / alpha), beta, gamma)


def test_energy_examples():
    L = EnergyLandscape(np.array([0.3, 0.7]), np.array([2.0, 1.0]), 1.0, 0.5)
    assert energy(L, PinnedSet([0, 0.3, 1])) == 2.0
    assert energy(L, PinnedSet([0, 1])) == 0.0
    assert energy(L, PinnedSet([0, 0.3, 0.7, 1])) == 3.0


def test_objective_examples():
    L0 = EnergyLandscape(np.array([]), np.array([]), 0.0, 0.5)
    assert objective(L0, PinnedSet([0, 1])) == -1.0
    L1 = EnergyLandscape(np.array([0.5]), np.array([0.5]), 1.0, 0.5)
    assert objective(L1, PinnedSet([0, 0.5, 1])) == pytest.approx(0.5 - 2 * SQ5, rel=1e-12)
    # full pair instance; gaps are (0.3, 0.4, 0.3)
    L = _pair_landscape()
    full = objective(L, PinnedSet([0, 0.3, 0.7, 1]))
    assert full == pytest.approx(2 - (2 * SQ3 + SQ4), rel=1e-12)
    assert full == pytest.approx(0.27209935295599186, rel=1e-12)


def test_objective_rejects_foreign_points():
    L = _pair_landscape()
    with pytest.raises(ValueError):
        objective(L, PinnedSet([0, 0.5, 1]))


def test_solve_examples():
    L1 = EnergyLandscape(np.array([0.5]), np.array([0.5]), 1.0, 0.5)
    sol = solve_bruteforce(L1)
    assert sol.maximizer == PinnedSet([0, 0.5, 1])
    assert sol.value == pytest.approx(0.5 - 2 * SQ5, rel=1e-12)
    zero_beta = solve_bruteforce(_pair_landscape(beta=0.0))
    assert zero_beta.maximizer == PinnedSet([0, 1]) and zero_beta.value == -1.0
    pair = solve_bruteforce(_pair_landscape())
    assert pair.selected == (0, 1)
    assert pair.value == pytest.approx(0.27209935295599186, rel=1e-12)
    for L in (L1, _pair_landscape(beta=0.0), _pair_landscape()):
        dp = solve_dp(L)
        bf = solve_bruteforce(L)
        assert dp.maximizer == bf.maximizer and dp.value == bf.value


def test_solve_dp_empty_landscape():
    L0 = EnergyLandscape(np.array([]), np.array([]), 1.0, 0.5, c_entropy=2.5)
    sol = solve_dp(L0)
    assert sol.maximizer == PinnedSet([0, 1]) and sol.value == -2.5


def test_dp_equals_bruteforce_random():
    rng = np.random.default_rng(42)
    for _ in range(300):
        m = int(rng.integers(1, 13))
        L = _random_landscape(rng, m, gamma=float(rng.uniform(0.2, 0.9)))
        bf = solve_bruteforce(L)
        dp = solve_dp(L)
        assert dp.selected == bf.selected
        assert dp.value == bf.value  # both recompute canonically from the set


def test_value_recomputable():
    rng = np.random.default_rng(3)
    L = _random_landscape(rng, 9)
    sol = solve_dp(L)
    again = L.beta * energy(L, sol.maximizer) - L.c_entropy * set_entropy(sol.maximizer, L.gamma)
    assert sol.value == again
    assert sol.value >= -L.c_entropy


def test_constrained_max_examples():
    L1 = EnergyLandscape(np.array([0.5]), np.array([0.5]), 1.0, 0.5)
    ref = solve_bruteforce(L1)
    assert constrained_max(L1, ref, 0.3) == -1.0  # only {0,1} is far enough
    assert constrained_max(L1, ref, 0.0) == ref.value
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
        assert solve_dp(below).selected == ()
        assert len(solve_dp(above).selected) > 0


def test_value_monotone_convex_in_beta():
    rng = np.random.default_rng(5)
    L0 = _random_landscape(rng, 10, beta=0.0)
    betas = np.linspace(0.0, 3.0, 31)
    vals = np.array([
        solve_dp(EnergyLandscape(L0.positions, L0.weights, b, L0.gamma)).value for b in betas
    ])
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
        assert sc.selected == sn.selected
        assert sc.value == pytest.approx(c * sn.value, rel=1e-12)


def test_maximizer_supported_on_landscape():
    rng = np.random.default_rng(9)
    for _ in range(20):
        L = _random_landscape(rng, int(rng.integers(1, 15)))
        sol = solve_dp(L)
        objective(L, sol.maximizer)  # raises if any foreign point slipped in


def test_value_monotone_in_truncation():
    rng = np.random.default_rng(12)
    T, Y = draw_base(64, rng)
    w = T ** -2.0
    vals = []
    for k in (4, 8, 16, 32, 64):
        L = EnergyLandscape.from_marks(Y[:k], w[:k], 1.0, 0.5)
        vals.append(solve_dp(L).value)
    assert np.all(np.diff(vals) >= -1e-12)


def test_reflection_equivariance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        L = _random_landscape(rng, int(rng.integers(1, 12)))
        sol = solve_dp(L)
        LR = EnergyLandscape.from_marks(1.0 - L.positions, L.weights, L.beta, L.gamma)
        solR = solve_dp(LR)
        assert solR.value == pytest.approx(sol.value, rel=1e-12)
        assert solR.maximizer == sol.maximizer.reflect()


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
            sol = solve_dp(L)
            inner = sol.maximizer.interior
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
