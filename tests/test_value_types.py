"""Value types: range checks reject NaN, and inputs are copied, not frozen."""

import dataclasses
import math

import numpy as np
import pytest

from pinlab.disorder import DisorderLaw, compute_b_N, pareto_quantile
from pinlab.gibbs import PinningModel
from pinlab.polymer import PolymerEnvironment, binary_entropy_rate, solve_polymer
from pinlab.renewal import build_law
from pinlab.subordinator import MarkedPointSet
from pinlab.varmax import EnergyLandscape, beta_critical

nan, inf = math.nan, math.inf
LAW = build_law(0.5, 1.0, 0.0, 0.0, n_max=2000)


@pytest.mark.parametrize("call", [
    lambda: EnergyLandscape([nan, 0.5], [1.0, 1.0], 1.0, 0.5),
    lambda: EnergyLandscape([0.25, nan, 0.5], [1.0, 1.0, 1.0], 1.0, 0.5),
    lambda: EnergyLandscape([0.5], [1.0], nan, 0.5),
    lambda: EnergyLandscape([0.5], [1.0], 1.0, 0.5, nan),
    lambda: EnergyLandscape([0.25, 0.5], [1.0, 2.0], inf, 0.5),
    lambda: EnergyLandscape([0.5], [1.0], 1.0, 0.5, inf),
    lambda: beta_critical([0.25, 0.5], [1.0, 2.0], 0.5, inf),
    lambda: beta_critical([nan, 0.5], [1.0, 1.0], 0.5),
    lambda: PolymerEnvironment([nan], [0.1], [1.0], 1.0),
    lambda: PolymerEnvironment([0.5], [nan], [1.0], 1.0),
    lambda: solve_polymer(PolymerEnvironment([0.5], [0.1], [1.0], 1.0), nan),
    lambda: solve_polymer(PolymerEnvironment([0.5], [0.1], [1.0], 1.0), inf),
    lambda: binary_entropy_rate(nan),
    lambda: MarkedPointSet([1.0], [nan]),
    lambda: pareto_quantile(DisorderLaw(0.5), nan),
    lambda: compute_b_N(DisorderLaw(0.5), nan),
    lambda: dataclasses.replace(LAW, c=nan),
    lambda: dataclasses.replace(LAW, K=np.where(np.arange(2001) == 7, nan, LAW.K)),
], ids=["landscape-first", "landscape-inner", "landscape-beta", "landscape-c",
        "landscape-beta-inf", "landscape-c-inf", "beta_critical-c-inf", "beta_critical",
        "environment-x", "environment-y", "solve_polymer-beta",
        "solve_polymer-beta-inf", "entropy-rate", "marked-location", "pareto-level", "b_N",
        "law-c", "law-K"])
def test_range_checks_reject_nan(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("rho", [nan, -inf, inf])
def test_build_law_names_a_non_finite_rho(rho):
    with pytest.raises(ValueError, match="rho must be finite"):
        build_law(0.5, 1.0, rho, 0.0, 2000)


def test_caller_arrays_stay_writeable_and_apart():
    cases = [
        (EnergyLandscape, [np.array([0.25, 0.5]), np.array([2.0, 1.0])], (1.0, 0.5),
         ("positions", "weights")),
        (MarkedPointSet, [np.array([2.0, 1.0]), np.array([0.25, 0.5])], (), ("marks", "locations")),
        (PolymerEnvironment, [np.array([0.25, 0.5]), np.array([0.1, -0.2]), np.array([2.0, 1.0])],
         (1.0,), ("x", "y", "w")),
        (lambda om: PinningModel(LAW, om, 1.0, 4), [np.array([0.5, 1.0, 2.0])], (), ("omega",)),
        (lambda K: dataclasses.replace(LAW, K=K), [LAW.K.copy()], (), ("K",)),
    ]
    for make, arrays, rest, names in cases:
        obj = make(*arrays, *rest)
        before = [getattr(obj, name).copy() for name in names]
        for a in arrays:
            assert a.flags.writeable
            a *= 0.5
        for name, b in zip(names, before, strict=True):
            assert np.array_equal(getattr(obj, name), b)
