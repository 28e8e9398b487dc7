"""Stretched-exponential renewal laws, tilting, renewal function, diagnostics."""

import decimal
import itertools
import math
import os
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

import pinlab
from pinlab.renewal import (
    _BLOCK,
    TAIL_BUDGET,
    _convolve_head,
    _log_upper_gamma,
    build_law,
    ratio_table,
    renewal_function,
    subexp_diagnostics,
    tilt,
)

# frozen from two independent computations (convolution recursion and direct
# series summation, see test_renewal_function_matches_series_oracle, agree to
# 7e-15 relative up to n=2000) for gamma=0.5, c=1, rho=0, K_inf=0.3
U_OVER_K_AT_2000 = 18.0393352200216
CONV2_AT_2000 = 2.182131977874312
CONV3_AT_2000 = 3.5720190186987644


@pytest.fixture(scope="module")
def proper_law():
    return build_law(0.5, 1.0, 0.0, 0.0, n_max=4000)


@pytest.fixture(scope="module")
def terminating_law():
    return build_law(0.5, 1.0, 0.0, 0.3, n_max=4000)


def test_build_normalization(proper_law, terminating_law):
    assert proper_law.K[1:].sum() == pytest.approx(1.0, abs=1e-12)
    assert terminating_law.K[1:].sum() == pytest.approx(0.7, abs=1e-12)
    assert terminating_law.K_inf == 0.3


def test_build_ratio_identities(proper_law):
    K = proper_law.K
    for n in (1, 10, 100, 999):
        assert K[n] / K[n + 1] == pytest.approx(
            math.exp(math.sqrt(n + 1) - math.sqrt(n)), rel=1e-12
        )
    assert K[1] / K[4] == pytest.approx(math.e, rel=1e-12)


def test_build_errors():
    with pytest.raises(ValueError):
        build_law(0.5, 1.0, 0.0, 0.0, n_max=10)  # tail mass over budget
    with pytest.raises(ValueError):
        build_law(0.9, 1.0, 0.0, 0.0, n_max=100_000)  # K underflows
    with pytest.raises(ValueError):
        build_law(1.2, 1.0)
    with pytest.raises(ValueError):
        build_law(0.5, -1.0)
    with pytest.raises(ValueError):
        build_law(0.5, 1.0, K_inf_target=1.0)


def test_tilt(proper_law):
    same = tilt(proper_law, 0.0)
    assert np.array_equal(same.K, proper_law.K)
    half = tilt(proper_law, math.log(2.0))
    assert half.K_inf == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(half.K, 0.5 * proper_law.K)
    nearly_dead = tilt(proper_law, 50.0)
    assert nearly_dead.K_inf == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        tilt(proper_law, -0.1)  # finite mass would exceed 1
    # a terminating law can be tilted back
    back = tilt(tilt(proper_law, math.log(2.0)), -math.log(2.0))
    assert back.K_inf == pytest.approx(0.0, abs=1e-12)


def test_renewal_function_small_identities(terminating_law):
    K = terminating_law.K
    u = renewal_function(terminating_law, 2)
    assert u[0] == 1.0
    assert u[1] == pytest.approx(K[1], rel=1e-14)
    assert u[2] == pytest.approx(K[2] + K[1] ** 2, rel=1e-14)
    assert np.all((u > 0) & (u <= 1))


def test_renewal_function_matches_series_oracle(terminating_law):
    # independent oracle: u(n) = sum_m K^{*m}(n) by direct convolution, up to
    # the horizon of U_OVER_K_AT_2000
    n = 2000
    K = np.zeros(n + 1)
    K[1:] = terminating_law.K[1 : n + 1]
    series = np.zeros(n + 1)
    power = K.copy()
    series += power
    for _ in range(2, 200):
        power = np.convolve(power, K)[: n + 1]
        series += power
    u = renewal_function(terminating_law, n)
    # abs=0: u(2000) ~ 3e-19, far below pytest.approx's default abs=1e-12
    assert u[1:] == pytest.approx(series[1:], rel=1e-10, abs=0.0)


def test_renewal_function_horizon_error(terminating_law):
    with pytest.raises(ValueError):
        renewal_function(terminating_law, 4001)


def test_terminating_ratio_frozen_value(terminating_law):
    d = subexp_diagnostics(terminating_law, 2000)
    assert d["u_over_K"] == pytest.approx(U_OVER_K_AT_2000, rel=1e-9)


def test_diagnostics_shift_ratio_closed_form():
    law = build_law(0.5, 1.0, 0.0, 0.0, n_max=10_100)
    d = subexp_diagnostics(law, 10_000)
    expect = math.exp(-(math.sqrt(10_001) - math.sqrt(10_000)))
    assert d["shift_ratio"] == pytest.approx(expect, rel=1e-12)
    assert d["shift_ratio"] == pytest.approx(0.99501, abs=1e-5)


def test_diagnostics_convolutions(terminating_law):
    # explicit double-sum oracle at a small n
    n = 300
    q = terminating_law.q
    q2 = sum(q[j] * q[n - j] for j in range(1, n))
    q3 = sum(
        q[i] * q[j] * q[n - i - j]
        for i in range(1, n - 1)
        for j in range(1, n - i)
    )
    d = subexp_diagnostics(terminating_law, n)
    assert d["conv2_ratio"] == pytest.approx(q2 / q[n], rel=1e-12)
    assert d["conv3_ratio"] == pytest.approx(q3 / q[n], rel=1e-9)
    # frozen regression values at n=2000, approaching 2 and 3 from above
    d2 = subexp_diagnostics(terminating_law, 2000)
    assert d2["conv2_ratio"] == pytest.approx(CONV2_AT_2000, rel=1e-9)
    assert d2["conv3_ratio"] == pytest.approx(CONV3_AT_2000, rel=1e-9)
    d1 = subexp_diagnostics(terminating_law, 1000)
    assert d2["conv2_ratio"] < d1["conv2_ratio"]
    assert d2["conv3_ratio"] < d1["conv3_ratio"]
    assert d2["conv2_ratio"] > 2.0 and d2["conv3_ratio"] > 3.0


@given(seed=st.integers(0, 2**32 - 1),
       count=st.sampled_from([1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]),
       a_over_count=st.floats(0.0, 3.0), extra=st.integers(0, 40),
       spread=st.floats(0.0, 300.0))
def test_convolve_head_matches_np_convolve(seed, count, a_over_count, extra, spread):
    # positive entries over up to 130 decades, a shorter or longer than count;
    # each value on either side is a sum of at most count positive products,
    # so the two agree within 2 count 2^-53 relative, and 4 count 2^-53
    # covers q*3, which carries q*2's error
    rng = np.random.default_rng(seed)
    a = np.exp(-spread * rng.random(max(1, int(a_over_count * count))))
    v = np.exp(-spread * rng.random(count + extra))
    head = _convolve_head(a, v, count)
    full = np.convolve(a, v)[:count]
    assert head.shape == (count,)
    assert np.all(np.abs(head - full) <= 4 * count * 2.0**-53 * full)
    if count <= _BLOCK:  # one block: np.convolve's own sums
        assert head.tobytes() == np.convolve(a, v[:count])[:count].tobytes()


def _exact_convolution_square(Q):
    """Q*Q for non-negative integers Q, exactly, by Kronecker substitution:
    Q packed as the decimal digits of one number P, each entry in a field of
    D digits that holds any coefficient of P^2 (libmpdec multiplies large
    operands by number-theoretic transform, so this takes well under a
    second for 20000 entries of 255 bits)."""
    D = len(str(max(Q) ** 2 * len(Q)))
    P = decimal.Decimal("".join(str(x).zfill(D) for x in Q))
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    digits = str(ctx.multiply(P, P)).zfill(D * (2 * len(Q) - 1))
    return [int(digits[k * D : (k + 1) * D]) for k in range(2 * len(Q) - 1)]


def test_convolution_ratios_match_exact_sums():
    # q*2 and q*3 of the cell at n = 2000 and 20000 against exact sums:
    # q(i) = Q_i 2^-E with integers Q_i, so q*2 = C 2^-2E with C = Q*Q exact
    # and q*3(n) = sum_k C_k Q_(n-3-k) 2^-3E; the ratios are formed at 50 digits
    n_max = 20_000
    law = build_law(0.5, 1.0, 0.0, 0.3, n_max=n_max + 1)
    q = law.q[1 : n_max + 1]
    *_, q2_over_q, q3_over_q = ratio_table(law, n_max)
    fractions = [x.as_integer_ratio() for x in q.tolist()]
    E = max(den.bit_length() - 1 for _, den in fractions)
    Q = [num << (E - den.bit_length() + 1) for num, den in fractions]
    C = _exact_convolution_square(Q)
    with mpmath.workdps(50):
        for n in (2000, 20_000):
            c3 = sum(C[k] * Q[n - 3 - k] for k in range(n - 2))
            exact2 = mpmath.mpf(C[n - 2]) / mpmath.mpf(Q[n - 1]) / mpmath.mpf(2) ** E
            exact3 = mpmath.mpf(c3) / mpmath.mpf(Q[n - 1]) / mpmath.mpf(2) ** (2 * E)
            for got, exact in ((q2_over_q[n - 1], exact2), (q3_over_q[n - 1], exact3)):
                err = abs((mpmath.mpf(float(got)) - exact) / exact)
                assert err <= (4 * n + 1) * 2.0**-53, (n, float(err))


_COLUMN_DIGESTS = """
import hashlib
from pinlab.renewal import build_law, ratio_table
for col in ratio_table(build_law(0.5, 1.0, 0.0, 0.3, n_max=20_001), 20_000):
    print(hashlib.sha256(col.tobytes()).hexdigest())
"""


def test_ratio_table_bytes_do_not_depend_on_blas_threads():
    # a dot product longer than 10000 goes to OpenBLAS's threaded kernel,
    # whose sums depend on the thread count; _convolve_head asks for none
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(pinlab.__file__))
    digests = [
        subprocess.run([sys.executable, "-c", _COLUMN_DIGESTS], env=dict(env, **extra),
                       check=True, capture_output=True, text=True, timeout=120).stdout
        for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"})
    ]
    assert len(digests[0].split()) == 5
    assert digests[0] == digests[1]


def test_log_u_slope(terminating_law):
    u = renewal_function(terminating_law, 2000)
    ns = np.arange(500, 2001)
    x = ns ** 0.5
    slope = np.polyfit(x, np.log(u[ns]), 1)[0]
    assert abs(slope - (-1.0)) < 0.1  # within 10% of -c


def test_tilt_consistency_weighted_series(proper_law):
    # u_tilted(n) == sum_m exp(-h m) K^{*m}(n) for the proper base law
    h = 0.4
    n = 200
    tilted = tilt(proper_law, h)
    lhs = renewal_function(tilted, n)
    K = np.zeros(n + 1)
    K[1:] = proper_law.K[1 : n + 1]
    rhs = np.zeros(n + 1)
    power = np.zeros(n + 1)
    power[0] = 1.0
    for m in range(1, n + 1):
        power = np.convolve(power, K)[: n + 1]
        rhs += math.exp(-h * m) * power
    assert lhs[1:] == pytest.approx(rhs[1:], rel=1e-10)


def test_q_requires_mass(terminating_law):
    q = terminating_law.q
    assert q[1:].sum() == pytest.approx(1.0, abs=1e-12)


def _log_norm(gamma, c, rho, k_inf, n_max):
    """build_law's log C, step for step."""
    n = np.arange(1, n_max + 1, dtype=float)
    logk = rho * np.log(n) - c * n**gamma
    m = logk.max()
    return math.log1p(-k_inf) - (m + math.log(float(np.exp(logk - m).sum())))


def _tail_verdict(gamma, c, rho, k_inf, n_max):
    """'accept', 'tail' (rejected over the tail budget) or 'other' (rejected
    by a check ahead of it), with the tail mass named in the error."""
    try:
        build_law(gamma, c, rho, k_inf, n_max=n_max)
    except ValueError as exc:
        found = re.match(r"tail mass beyond n_max is (\S+),", str(exc))
        return ("tail", float(found.group(1))) if found else ("other", None)
    return "accept", None


def _quad_verdict(gamma, c, rho, k_inf, n_max):
    """The tail decision with the integral by scipy's quad; None where quad
    did not converge: it warns, or it misses mpmath's value of the integral by
    more than its own error estimate (quad stops on an absolute error of
    1.5e-8, which is above most of these tails)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            tail, err = integrate.quad(lambda x: x**rho * math.exp(-c * x**gamma),
                                       n_max, np.inf, limit=200)
        except integrate.IntegrationWarning:
            return None
    s = (rho + 1) / gamma
    with mpmath.workdps(40):
        exact = mpmath.gammainc(s, c * n_max**gamma) / (gamma * mpmath.mpf(c) ** s)
    if abs(tail - exact) > err:
        return None
    over = math.exp(_log_norm(gamma, c, rho, k_inf, n_max)) * tail > TAIL_BUDGET * (1 - k_inf)
    return "tail" if over else "accept"


_GRID = list(itertools.product((0.1, 0.3, 0.5, 0.9), (0.05, 0.5, 1.0, 3.0),
                               (-3.0, -1.5, -1.0, -0.5, 0.0, 2.0), (10, 100, 2000, 20_000)))


def test_upper_gamma_matches_mpmath_on_the_law_grid():
    # s = (rho+1)/gamma runs from -20 to 30, through s <= 0, and y = c n_max^gamma
    # from 0.06 to 2e4
    with mpmath.workdps(40):
        for gamma, c, rho, n_max in _GRID:
            s, y = (rho + 1.0) / gamma, c * n_max**gamma
            ref = float(mpmath.log(mpmath.gammainc(s, y)))
            assert _log_upper_gamma(s, y) == pytest.approx(ref, rel=1e-13, abs=1e-13), (s, y)


@pytest.mark.parametrize("s", [-19.5, -3.0, -1.0, -0.5, 0.0, 1e-9, 0.5, 1.0, 2.0, 40.0])
def test_upper_gamma_matches_mpmath_off_the_grid(s):
    with mpmath.workdps(60):
        for y in (1e-300, 1e-8, 0.3, 0.999, 1.5, 1.999, 3.0, 41.5, 700.0):
            ref = float(mpmath.log(mpmath.gammainc(s, y)))
            assert _log_upper_gamma(s, y) == pytest.approx(ref, rel=1e-13, abs=1e-13), (s, y)


def test_tail_decision_matches_quad_where_quad_converges():
    compared = 0
    for gamma, c, rho, n_max in _GRID:
        verdict, _ = _tail_verdict(gamma, c, rho, 0.3, n_max)
        if verdict == "other":
            continue
        old = _quad_verdict(gamma, c, rho, 0.3, n_max)
        if old is not None:
            compared += 1
            assert verdict == old, (gamma, c, rho, n_max)
    assert compared > 100


@pytest.mark.parametrize("args, verdict", [
    ((0.5, 1.0, 0.0, 0.3, 20), "tail"),
    ((0.5, 1.0, 0.0, 0.3, 6), "other"),  # n_max < 10
    ((0.5, 1.0, 5.0, 0.3, 2000), "tail"),
    ((0.5, 1.0, 0.0, 0.0, 16), "tail"),
    ((0.5, 1.0, 0.0, 0.0, 100_000), "accept"),  # then the tilt by h = 800 fails
    ((0.5, 1.0, 0.0, 0.3, 130_000), "accept"),
])
def test_tail_decision_on_the_harness_configs(args, verdict):
    assert _tail_verdict(*args)[0] == verdict
    if verdict != "other":
        assert _quad_verdict(*args) == verdict


@pytest.mark.parametrize("args", [
    # y = 0.05 * 2000^0.1 = 0.107: quad warns and gives a tail mass of 6.6e2 for 2.0e16
    (0.1, 0.05, 0.0, 0.0, 2000),
    # quad stops on its absolute tolerance with 4.3e-11 for 3.0e-10 and no
    # warning, which accepted a tail mass 4x over the budget
    (0.1, 0.5, -3.0, 0.3, 20_000),
    # the same at c = 1: 1.1e-11 for 7.4e-11, 1.7x over the budget
    (0.1, 1.0, -3.0, 0.3, 20_000),
])
def test_tail_mass_where_quad_fails_matches_mpmath(args):
    gamma, c, rho, k_inf, n_max = args
    verdict, tail = _tail_verdict(*args)
    s = (rho + 1) / gamma
    with mpmath.workdps(40):
        ref = (mpmath.exp(_log_norm(*args)) * mpmath.gammainc(s, c * n_max**gamma)
               / (gamma * mpmath.mpf(c) ** s))
    assert verdict == "tail"
    assert tail == pytest.approx(float(ref), rel=5e-4)  # the message prints 4 digits
