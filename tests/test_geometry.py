"""Pinned sets: gap entropy and Hausdorff distance."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pinlab.geometry import DUPLICATE_TOL, PinnedSet, grid_hausdorff, hausdorff, set_entropy


def test_entropy_unit_gap():
    assert set_entropy(PinnedSet([0.0, 1.0]), 0.5) == 1.0


def test_entropy_closed_form():
    val = set_entropy(PinnedSet([0.0, 0.25, 1.0]), 0.5)
    assert val == pytest.approx(0.5 + np.sqrt(0.75), rel=1e-12)
    assert val == pytest.approx(1.3660254037844386, rel=1e-9)


@pytest.mark.parametrize("N", [4, 16, 256, 65536])
def test_entropy_equispaced_power_law(N):
    # N equispaced gaps of size 1/N give N^(1-gamma)
    pts = np.linspace(0.0, 1.0, N + 1)
    gamma = 0.5
    assert set_entropy(PinnedSet(pts), gamma) == pytest.approx(N ** (1 - gamma), rel=1e-9)


def test_entropy_unbounded_in_refinement():
    vals = [set_entropy(PinnedSet(np.linspace(0, 1, 2**e + 1)), 0.5) for e in range(2, 17)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_entropy_gamma_domain():
    I = PinnedSet([0.0, 1.0])
    for g in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            set_entropy(I, g)


def test_pinned_set_validation():
    with pytest.raises(ValueError):
        PinnedSet([0.0, 0.5])  # missing endpoint 1
    with pytest.raises(ValueError):
        PinnedSet([0.1, 1.0])
    with pytest.raises(ValueError):
        PinnedSet([0.0, 0.5, 0.5 + 5e-13, 1.0])  # closer than the tolerance
    ok = PinnedSet([0.0, 0.5, 0.5 + 2e-12, 1.0])
    assert ok.points.size == 4


def test_pinned_set_sorts_input():
    I = PinnedSet([1.0, 0.3, 0.0, 0.7])
    assert np.all(np.diff(I.points) > 0)


def test_insertion_increment_identity():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pts = np.sort(rng.uniform(0.01, 0.99, 6))
        I = PinnedSet(np.concatenate([[0.0], pts, [1.0]]))
        gamma = rng.uniform(0.1, 0.9)
        x = rng.uniform(0.0, 1.0)
        if np.min(np.abs(I.points - x)) < 1e-6:
            continue
        a = I.points[I.points < x].max()
        b = I.points[I.points > x].min()
        inc = set_entropy(I.insert(x), gamma) - set_entropy(I, gamma)
        expect = (x - a) ** gamma + (b - x) ** gamma - (b - a) ** gamma
        assert inc == pytest.approx(expect, abs=1e-12)
        assert inc > 0.0


@given(
    pts=st.lists(st.floats(0.01, 0.99), min_size=0, max_size=8),
    x=st.floats(0.005, 0.995),
    gamma=st.floats(0.05, 0.95),
)
@settings(max_examples=200, deadline=None)
def test_insertion_strictly_increases_entropy(pts, x, gamma):
    base = np.unique(np.concatenate([[0.0, 1.0], pts]))
    if np.any(np.diff(base) <= 1e-9):
        return
    I = PinnedSet(base)
    if np.min(np.abs(I.points - x)) <= 1e-9:
        return
    assert set_entropy(I.insert(x), gamma) > set_entropy(I, gamma)


@given(a=st.floats(1e-9, 1.0), b=st.floats(1e-9, 1.0), gamma=st.floats(0.05, 0.95))
@settings(max_examples=300, deadline=None)
def test_gap_superadditivity(a, b, gamma):
    assert a**gamma + b**gamma > (a + b) ** gamma


def test_reflection_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(300):
        pts = np.unique(rng.uniform(0.001, 0.999, rng.integers(0, 10)))
        I = PinnedSet(np.concatenate([[0.0], pts, [1.0]]))
        g = rng.uniform(0.1, 0.9)
        assert set_entropy(I.reflect(), g) == pytest.approx(set_entropy(I, g), rel=1e-9)


def test_hausdorff_examples():
    assert hausdorff(PinnedSet([0, 1]), PinnedSet([0, 1])) == 0.0
    assert hausdorff(PinnedSet([0, 1]), PinnedSet([0, 0.5, 1])) == 0.5
    # each off-point is 0.25 from the nearer endpoint of the other set
    assert hausdorff(PinnedSet([0, 0.25, 1]), PinnedSet([0, 0.75, 1])) == 0.25
    # brute-force oracle on the same pair
    A, B = np.array([0, 0.25, 1.0]), np.array([0, 0.75, 1.0])
    direct = max(
        max(min(abs(a - b) for b in B) for a in A),
        max(min(abs(a - b) for a in A) for b in B),
    )
    assert hausdorff(A, B) == direct


def test_hausdorff_zero_iff_equal():
    A = PinnedSet([0, 0.3, 1])
    B = PinnedSet([0, 0.3 + 1e-7, 1])
    assert hausdorff(A, A) == 0.0
    assert hausdorff(A, B) > 0.0


@given(
    a=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    b=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    c=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_hausdorff_metric_properties(a, b, c):
    a, b, c = np.array(a), np.array(b), np.array(c)
    dab = hausdorff(a, b)
    dba = hausdorff(b, a)
    assert dab == dba
    assert dab >= 0.0
    assert dab <= hausdorff(a, c) + hausdorff(c, b) + 1e-12


@st.composite
def grid_sets_and_ref(draw):
    # index sets on {0..N} (the bare endpoints among them) and a reference
    # mixing grid points k/N with points off the grid, possibly outside [0,1]
    N = draw(st.integers(1, 64))
    sets = draw(st.lists(st.one_of(
        st.just((0, N)),
        st.sets(st.integers(0, N), min_size=1).map(lambda s: tuple(sorted(s)))),
        min_size=1, max_size=30))
    ref = draw(st.lists(st.one_of(
        st.integers(0, N).map(lambda k: k / N), st.floats(-0.5, 1.5)), min_size=1, max_size=12))
    if draw(st.booleans()):
        pts = np.unique(np.clip(np.concatenate([[0.0, 1.0], ref]), 0.0, 1.0))
        assume(np.all(np.diff(pts) > DUPLICATE_TOL))
        ref = PinnedSet(pts)
    return N, sets, ref


@given(grid_sets_and_ref())
@settings(max_examples=300, deadline=None)
def test_grid_hausdorff_equals_per_set_hausdorff(case):
    N, sets, ref = case
    got = grid_hausdorff(sets, N, ref)
    want = [hausdorff(np.asarray(s) / N, ref) for s in sets]
    assert got.tolist() == want


def test_grid_hausdorff_edges():
    assert grid_hausdorff([], 8, PinnedSet([0, 1])).size == 0
    with pytest.raises(ValueError):
        grid_hausdorff([(0, 8), ()], 8, PinnedSet([0, 1]))
    got = grid_hausdorff([(0, 8), (0, 2, 8), (0, 4, 8)], 8, PinnedSet([0, 0.5, 1]))
    assert got.tolist() == [0.5, 0.25, 0.0]
