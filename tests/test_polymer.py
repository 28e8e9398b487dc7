"""Directed polymer ground state: entropy rate, DP solver, threshold."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pinlab
from pinlab.chain import min_ratio
from pinlab.polymer import (
    PolymerEnvironment,
    _segment_entropy_matrix,
    _sorted_nodes,
    binary_entropy_rate,
    objective,
    polymer_beta_critical,
    solve_polymer,
    solve_polymer_bruteforce,
    tent_entropy,
)
from pinlab.streams import substream

E_HALF = 0.5 * (1.5 * math.log(1.5) + 0.5 * math.log(0.5))  # = e(1/2)


def test_entropy_rate_values():
    assert binary_entropy_rate(0.0) == 0.0
    assert binary_entropy_rate(1.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert binary_entropy_rate(-1.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert binary_entropy_rate(0.5) == pytest.approx(E_HALF, rel=1e-12)
    assert binary_entropy_rate(0.5) == pytest.approx(0.1308120359, abs=1e-9)
    with pytest.raises(ValueError):
        binary_entropy_rate(1.0000001)


def test_entropy_rate_even_convex_accurate():
    xs = np.linspace(-1.0, 1.0, 201)
    vals = binary_entropy_rate(xs)
    assert np.allclose(vals, vals[::-1], rtol=1e-12)
    assert np.all(np.diff(vals, 2)[np.abs(xs[1:-1]) < 0.999] > -1e-12)
    # quadratic behavior near zero survives cancellation
    for s in (1e-4, 1e-6, 1e-8):
        assert binary_entropy_rate(s) == pytest.approx(s * s / 2, rel=1e-6)


def _entropy(x, y):
    # entropy of the path through the charges at (x, y), in order: the
    # objective at beta = 0, negated
    return -objective(PolymerEnvironment(x, y, np.arange(len(x), 0.0, -1.0), 1.0), 0.0,
                      range(len(x)))


def test_path_entropy_examples():
    assert _entropy([], []) == 0.0
    assert _entropy([0.5], [0.5]) == pytest.approx(math.log(2.0), rel=1e-12)
    assert _entropy([0.5], [0.25]) == pytest.approx(E_HALF, rel=1e-12)
    # charges that no 1-Lipschitz path visits in the given order score -inf
    assert _entropy([0.5, 0.25], [0.25, 0.0]) == math.inf
    assert _entropy([0.25, 0.3], [0.0, 0.2]) == math.inf
    assert tent_entropy(0.5, 0.25) == pytest.approx(E_HALF, rel=1e-12)
    # elementwise over arrays, with the scalar floats and 0.0 on the axis
    xs, ys = np.array([0.0, 0.5, 0.25, 0.7, 1.0]), np.array([0.0, 0.25, -0.125, 0.0, 0.0])
    assert tent_entropy(xs, ys).tolist() == [tent_entropy(x, y) for x, y in zip(xs, ys)]
    assert tent_entropy(xs, ys)[[0, 3, 4]].tolist() == [0.0, 0.0, 0.0]


def test_tent_optimality():
    rng = substream(2, "tentopt")
    for _ in range(100):
        x = float(rng.uniform(0.1, 0.9))
        ymax = min(x, 1 - x)
        y = float(rng.uniform(-ymax, ymax))
        base = tent_entropy(x, y)
        # any feasible detour through (x, y) costs at least the tent
        for _ in range(5):
            x2 = float(rng.uniform(0.0, 1.0))
            if abs(x2 - x) < 1e-6:
                continue
            reach = abs(x2 - x)
            lim_lo = max(y - reach, -min(x2, 1 - x2))
            lim_hi = min(y + reach, min(x2, 1 - x2))
            if lim_lo > lim_hi:
                continue
            y2 = float(rng.uniform(lim_lo, lim_hi))
            (xa, ya), (xb, yb) = sorted([(x, y), (x2, y2)])
            assert _entropy([xa, xb], [ya, yb]) >= base - 1e-12


def test_solve_single_charge():
    env = PolymerEnvironment(np.array([0.5]), np.array([0.25]), np.array([1.0]), 0.5)
    assert solve_polymer(env, 1.0) == (0,)
    u = objective(env, 1.0, (0,))
    assert u == pytest.approx(1.0 - E_HALF, rel=1e-12)
    assert u == pytest.approx(0.8691879640, abs=1e-9)


def test_solve_zero_beta_is_flat():
    env = PolymerEnvironment.sample(0.5, 20, substream(1, "flat"))
    assert solve_polymer(env, 0.0) == ()
    assert objective(env, 0.0, ()) == 0.0


def test_dp_equals_bruteforce():
    rng = substream(10, "dpbf")
    for trial in range(100):
        alpha = float(rng.uniform(0.2, 1.8))
        k = int(rng.integers(1, 13))
        env = PolymerEnvironment.sample(alpha, k, rng)
        beta = float(rng.uniform(0.0, 2.0))
        idx = solve_polymer(env, beta)
        assert idx == solve_polymer_bruteforce(env, beta)
        # path order: x increases along the tuple
        assert np.all(np.diff(env.x[list(idx)]) > 0.0)
        assert objective(env, beta, idx) >= 0.0


def test_value_monotone_convex_in_beta():
    env = PolymerEnvironment.sample(0.7, 24, substream(11, "conv"))
    betas = np.linspace(0.0, 1.0, 21)
    vals = np.array([objective(env, b, solve_polymer(env, b)) for b in betas])
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all(np.diff(vals, 2) >= -1e-9)
    assert np.all(vals >= 0.0)


def test_beta_critical_examples():
    env = PolymerEnvironment(np.array([0.5]), np.array([0.25]), np.array([1.0]), 0.5)
    assert polymer_beta_critical(env) == pytest.approx(E_HALF, rel=1e-12)
    on_axis = PolymerEnvironment(np.array([0.5]), np.array([0.0]), np.array([1.0]), 0.5)
    assert polymer_beta_critical(on_axis) == 0.0
    empty = PolymerEnvironment(np.array([]), np.array([]), np.array([]), 0.5)
    assert polymer_beta_critical(empty) == math.inf


def test_beta_critical_methods_agree():
    rng = substream(12, "bc")
    for _ in range(8):
        env = PolymerEnvironment.sample(float(rng.uniform(0.3, 1.5)), int(rng.integers(4, 16)), rng)
        a = polymer_beta_critical(env, method="enumerate")
        b = polymer_beta_critical(env, method="parametric")
        c = polymer_beta_critical(env, method="bisect")
        assert a == pytest.approx(b, abs=1e-12)
        assert a == pytest.approx(c, abs=2e-9)


def test_threshold_dichotomy():
    rng = substream(13, "dich")
    for _ in range(20):
        env = PolymerEnvironment.sample(0.6, int(rng.integers(2, 12)), rng)
        bc = polymer_beta_critical(env)
        below, above = max(bc - 1e-9, 0.0), bc + 1e-9
        assert objective(env, below, solve_polymer(env, below)) == 0.0
        assert objective(env, above, solve_polymer(env, above)) > 0.0


def test_threshold_dichotomy_at_large_k():
    # no enumeration reaches k = 512; the chain DP must find the flat path
    # just below the threshold and a path through charges just above it
    for r in range(20):
        env = PolymerEnvironment.sample(0.8, 512, substream(17, "dichotomy", 512, r))
        bc = polymer_beta_critical(env)
        assert solve_polymer(env, bc * (1.0 - 1e-9)) == (), r
        assert solve_polymer(env, bc * (1.0 + 1e-9)) != (), r


def _full_threshold(env):
    # Dinkelbach over every charge: the cost table of all k + 2 nodes
    ex, ey, ws = _sorted_nodes(env)
    return min_ratio(ws, _segment_entropy_matrix(ex, ey), 1.0, "auto")


def test_threshold_table_stays_below_one_square_table():
    # the threshold reads the costs below the diagonal only; at k = 2048 the
    # traced peak of a table over every charge must stay below one (k+2)^2
    # float64 table (33.6 MB)
    k = 2048
    env = PolymerEnvironment.sample(0.8, k, substream(17, "memory"))
    tracemalloc.start()
    try:
        _full_threshold(env)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (k + 2) ** 2 * 8


_REPEATED_THRESHOLDS = """
import resource
from pinlab.chain import min_ratio
from pinlab.polymer import PolymerEnvironment, _segment_entropy_matrix, _sorted_nodes
from pinlab.streams import substream
env = PolymerEnvironment.sample(0.8, 4096, substream(17, "memory", 4096))
ex, ey, ws = _sorted_nodes(env)
for _ in range(3):
    min_ratio(ws, _segment_entropy_matrix(ex, ey), 1.0, "auto")
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_repeated_thresholds_do_not_raise_peak_rss():
    # a second and third threshold over all k = 4096 charges in one process
    # reuse the first one's memory: the peak may not grow by more than 4 MB.  One
    # table holds 67 MB; column views that keep their blocks alive, once
    # glibc has raised its mmap threshold, grow the peak by about 36 MB
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pinlab.__file__)))
    out = subprocess.run([sys.executable, "-c", _REPEATED_THRESHOLDS], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    first, _, last = (int(kb) for kb in out.split())
    assert last - first <= 4096, (first, last)


def test_tent_entropy_quadratic_sandwich():
    # E(tent through (x,y)) is within constant multiples of y^2/x + y^2/(1-x)
    xs = np.linspace(0.02, 0.98, 49)
    ratios = []
    for x in xs:
        for frac in np.linspace(0.05, 0.999, 25):
            y = frac * min(x, 1 - x)
            denom = y * y / x + y * y / (1 - x)
            ratios.append(tent_entropy(x, y) / denom)
    ratios = np.array(ratios)
    c1, c2 = ratios.min(), ratios.max()
    assert 0.0 < c1 <= c2 < math.inf
    assert c1 == pytest.approx(0.5, abs=0.01)  # small-slope limit
    assert c2 <= math.log(2.0) + 1e-9  # attained toward the diamond boundary


def test_environment_validation():
    with pytest.raises(ValueError):
        PolymerEnvironment(np.array([0.5]), np.array([0.6]), np.array([1.0]), 0.5)
    with pytest.raises(ValueError):
        PolymerEnvironment(np.array([0.2, 0.5]), np.array([0.1, 0.1]),
                           np.array([1.0, 2.0]), 0.5)  # weights must decrease
    with pytest.raises(ValueError):
        PolymerEnvironment(np.array([0.5]), np.array([0.1]), np.array([1.0]), 2.5)


def test_truncate_keeps_heaviest_prefix():
    env = PolymerEnvironment.sample(0.5, 32, substream(4, "trunc"))
    sub = env.truncate(8)
    assert sub.size == 8
    assert np.array_equal(sub.w, env.w[:8])
    assert sub.w.min() >= env.w[8:].max()


def _segment_entropy_matrix_where(ex, ey):
    # the former form: the entropy rate over every pair, masked afterwards
    dx = ex[None, :] - ex[:, None]
    dy = ey[None, :] - ey[:, None]
    feasible = (dx > 0.0) & (np.abs(dy) <= dx)
    slope = np.where(feasible, dy / np.where(dx > 0.0, dx, 1.0), 0.0)
    return np.where(feasible, dx * binary_entropy_rate(slope), np.inf)


@st.composite
def _charges(draw):
    # x on a 1/64 grid (duplicates allowed) or anywhere; y on the axis, on
    # the diamond's edge (slope +-1 from an endpoint), on the 1/64 grid
    # (slope +-1 between charges) or a drawn fraction of the height
    n = draw(st.integers(0, 24))
    xs, ys = [], []
    for _ in range(n):
        x = draw(st.one_of(st.integers(1, 63).map(lambda k: k / 64.0), st.floats(0.001, 0.999)))
        h = min(x, 1.0 - x)
        kind = draw(st.sampled_from(("axis", "edge", "grid", "frac")))
        if kind == "axis":
            y = 0.0
        elif kind == "edge":
            y = h
        elif kind == "grid":
            y = math.floor(h * 64.0) / 64.0
        else:
            y = draw(st.floats(0.0, 1.0)) * h
        xs.append(x)
        ys.append(draw(st.sampled_from((1.0, -1.0))) * y)
    return np.array(xs), np.array(ys)


@given(_charges())
@example((np.array([0.25, 0.25, 0.5, 0.75]), np.array([0.25, -0.25, 0.0, 0.0])))
@settings(max_examples=150, deadline=None)
def test_segment_entropy_matrix_matches_where_form(charges):
    x, y = charges
    order = np.lexsort((y, x))
    ex = np.concatenate(([0.0], x[order], [1.0]))
    ey = np.concatenate(([0.0], y[order], [0.0]))
    column = _segment_entropy_matrix(ex, ey)
    want = _segment_entropy_matrix_where(ex, ey)
    for j in range(1, ex.size):
        assert column(j).tobytes() == want[:j, j].tobytes()


#: a charge off the axis: x on the 1/64 grid or anywhere, the kind of its
#: height, a drawn fraction, its sign, and whether (x, -y) joins it
_CHARGE = st.tuples(
    st.one_of(st.integers(1, 63).map(lambda k: k / 64.0), st.floats(0.001, 0.999)),
    st.sampled_from(("near", "edge", "grid", "frac")), st.floats(0.0, 1.0),
    st.sampled_from((1.0, -1.0)), st.booleans())


@st.composite
def _threshold_envs(draw):
    # up to 64 charges off the axis: near it, on the diamond's edge, on the
    # 1/64 grid or a drawn fraction of the height, some mirrored to (x, -y),
    # whose tent entropy is the same float; weights flat (distinct
    # integers, whose sums tie) or heavy-tailed
    xs, ys = [], []
    for x, kind, t, sign, mirrored in draw(st.lists(_CHARGE, min_size=1, max_size=32)):
        h = min(x, 1.0 - x)
        y = {"near": 2e-12 + t * 1e-6, "edge": h, "grid": math.floor(h * 64.0) / 64.0 or h,
             "frac": max(t, 0.01) * h}[kind]
        for s in ((sign, -sign) if mirrored else (sign,)):
            xs.append(x)
            ys.append(s * y)
    k = len(xs)
    if draw(st.booleans()):
        w = sorted(draw(st.lists(st.integers(1, 4 * k), min_size=k, max_size=k, unique=True)),
                   reverse=True)
    else:
        w = np.arange(1, k + 1) ** (-1.0 / draw(st.sampled_from((0.3, 0.8, 1.5))))
    return PolymerEnvironment(np.array(xs), np.array(ys), np.array(w, dtype=float), 1.0)


@given(_threshold_envs())
@example(PolymerEnvironment(np.array([0.25, 0.25, 0.5, 0.75]), np.array([0.25, -0.25, 1e-9, 0.1]),
                            np.array([4.0, 3.0, 2.0, 1.0]), 1.0))
@settings(max_examples=300, deadline=None)
def test_pruned_threshold_matches_full_dinkelbach(env):
    # the charges the tent bound drops change neither the Dinkelbach
    # iterates nor the float they land on
    assert polymer_beta_critical(env) == _full_threshold(env)


def test_pruned_threshold_matches_full_at_the_benchmark_draws():
    # environments drawn as the threshold-polymer runner draws them: the
    # chain-thresholds benchmark's alpha = 0.8 and k, seeds 1-5, its first and
    # last replica, and alpha = 0.3, where the bound keeps the most charges.
    # The tent entropies are the floats of the single-charge bounds.
    for alpha in (0.8, 0.3):
        for seed in range(1, 6):
            for r in (0, 24):
                env = PolymerEnvironment.sample(alpha, 512, substream(seed, "threshold-polymer", r))
                for k in (32, 128, 512):
                    sub = env.truncate(k)
                    ex, ey, ws = _sorted_nodes(sub)
                    column = _segment_entropy_matrix(ex, ey)
                    single = np.array([column(j)[0] for j in range(1, k + 1)]) + column(k + 1)[1:]
                    assert tent_entropy(ex[1:-1], ey[1:-1]).tobytes() == single.tobytes()
                    assert polymer_beta_critical(sub) == min_ratio(ws, column, 1.0, "auto"), (
                        alpha, seed, r, k)


def test_oracles_run_over_every_charge(monkeypatch):
    # the tent bound serves the Dinkelbach iteration only: enumerate and
    # bisect read the cost table of all k charges
    seen, real = [], pinlab.polymer.min_ratio
    monkeypatch.setattr(pinlab.polymer, "min_ratio",
                        lambda w, column, c, method: seen.append((method, w.size))
                        or real(w, column, c, method))
    env = PolymerEnvironment.sample(0.8, 16, substream(18, "oracles"))
    for method in ("auto", "parametric", "enumerate", "bisect"):
        polymer_beta_critical(env, method)
    (_, kept), _, *oracles = seen
    assert kept < 16 and seen[1] == ("parametric", kept)
    assert oracles == [("enumerate", 16), ("bisect", 16)]
