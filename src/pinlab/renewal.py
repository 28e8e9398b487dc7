"""Stretched-exponential inter-arrival laws with a possible atom at infinity.

Provides exact construction of K(n) = C n^rho exp(-c n^gamma) on a truncated
support with a certified tail-mass budget, exponential tilting into a
terminating law, the renewal function by convolution recursion, and the
heavy-tail convolution diagnostics q^{*m}(n)/q(n) -> m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Fraction of the finite mass allowed beyond the truncated support.
TAIL_BUDGET = 1e-10

_NORM_TOL = 1e-12

_EPS = 2.0**-52
_TINY = 1e-300
_LN2 = math.log(2.0)
_MAX_TERMS = 1_000_000

#: Block length of _convolve_head: no BLAS dot product it asks for is longer.
_BLOCK = 1024


@dataclass(frozen=True)
class RenewalLaw:
    """Inter-arrival law on {1..n_max} plus an atom K_inf at infinity.

    K[n] is the mass at n (index 0 is a zero sentinel).  The shape parameters
    (gamma, c, rho) and the normalizing constant are kept so diagnostics can
    check log K(n)/n^gamma -> -c against the closed form.
    """

    gamma: float
    c: float
    rho: float
    K: np.ndarray
    K_inf: float
    n_max: int
    norm_const: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0,1), got {self.gamma}")
        if self.c <= 0.0:
            raise ValueError(f"c must be positive, got {self.c}")
        # K_inf can round to exactly 1.0 under extreme tilts while the finite
        # part stays positive, so the closed upper endpoint is tolerated
        if not 0.0 <= self.K_inf <= 1.0:
            raise ValueError(f"K_inf must lie in [0,1], got {self.K_inf}")
        if self.K.shape[0] != self.n_max + 1 or self.K[0] != 0.0:
            raise ValueError("K must be indexed 0..n_max with K[0] == 0")
        if np.any(self.K[1:] <= 0.0):
            raise ValueError("K(n) must be positive up to n_max (underflow? reduce n_max)")
        total = float(np.sum(self.K)) + self.K_inf
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"K must sum to 1 with the atom, off by {total - 1.0:.3e}")
        # closed form gives |log K(n)/n^g + c| == |rho log n + log C| / n^g exactly
        n = self.n_max
        lhs = abs(math.log(self.K[n]) / n**self.gamma + self.c)
        rhs = (abs(self.rho) * math.log(n) + abs(math.log(self.norm_const))) / n**self.gamma
        if lhs > rhs * (1.0 + 1e-9) + 1e-12:
            raise ValueError("K table is inconsistent with its stretched-exponential shape")
        self.K.setflags(write=False)

    @property
    def q(self) -> np.ndarray:
        """Conditional law on finite values, q = K / (1 - K_inf)."""
        if self.K_inf >= 1.0:
            raise ValueError("conditional law undefined: the atom carries all mass")
        return self.K / (1.0 - self.K_inf)


def _log_upper_gamma(s: float, y: float) -> float:
    """log Gamma(s, y), the upper incomplete gamma function, for real s and y > 0.

    - y >= max(1, s + 1), or s <= -20: Legendre's continued fraction,
      evaluated by the modified Lentz method.
    - s > 1 otherwise: Gamma(s) minus the lower series gamma(s, y).
    - -1 < s <= 1 otherwise (so y < 2): Gamma(s, 2) plus
      int_y^2 u^(s-1) e^(-u) du = sum_n (-1)^n / n! (2^t - y^t) / t, t = s + n.
    - -20 < s <= -1 otherwise (so y < 1): the recurrence
      Gamma(a, y) = (y^a e^(-y) - Gamma(a+1, y)) / (-a), from s + floor(-s)
      down to s; for a <= -1 cancellation costs at most a factor 3.

    Everything is carried in logs, so no branch overflows.
    """
    log_y = math.log(y)
    if s <= -20.0 or (y >= 1.0 and y >= s + 1.0):
        b = y + (1.0 - s)
        c, d = 1.0 / _TINY, 1.0 / b
        h = d
        for i in range(1, _MAX_TERMS):
            an = -i * (i - s)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = b + an / c
            c = c if abs(c) >= _TINY else _TINY
            h *= d * c
            if abs(d * c - 1.0) <= _EPS:
                return s * log_y - y + math.log(h)
    elif s > 1.0:
        term = total = 1.0 / s
        for i in range(1, _MAX_TERMS):
            term *= y / (s + i)
            total += term
            if term <= _EPS * total:
                log_lower = s * log_y - y + math.log(total)
                return math.lgamma(s) + math.log1p(-math.exp(log_lower - math.lgamma(s)))
    elif s > -1.0:
        # the n = 0 term, 2^s L expm1(x)/x with L = log(2/y) and x = -s L, is
        # the only one that can be large; |term n| < 2^(n+1) / n! after it
        big_l = _LN2 - log_y
        x = -s * big_l
        if x == 0.0:
            log_ratio = 0.0
        elif x < 700.0:
            log_ratio = math.log(math.expm1(x) / x)
        else:
            log_ratio = x - math.log(x)
        log_first = s * _LN2 + math.log(big_l) + log_ratio
        rest = math.exp(_log_upper_gamma(s, 2.0))
        coef = 1.0
        for n in range(1, 40):
            coef /= -n
            t = s + n
            rest -= coef * 2.0**t * math.expm1(-t * big_l) / t
        return log_first + math.log1p(rest * math.exp(-log_first))
    else:
        k = math.floor(-s)
        log_g = _log_upper_gamma(s + k, y)
        for a in (s + j for j in range(k - 1, -1, -1)):
            log_lead = a * log_y - y
            log_g = log_lead + math.log1p(-math.exp(log_g - log_lead)) - math.log(-a)
        return log_g
    raise ValueError(f"incomplete gamma Gamma({s}, {y}) did not converge")


def build_law(gamma: float, c: float, rho: float = 0.0, K_inf_target: float = 0.0,
              n_max: int = 100_000) -> RenewalLaw:
    """Normalize K(n) = C n^rho exp(-c n^gamma) over 1..n_max to mass 1 - K_inf.

    The analytic tail mass beyond n_max (an integral bound, valid where the
    density is decreasing) must stay below TAIL_BUDGET of the finite mass,
    otherwise n_max is too small and construction fails.  The bound is the
    closed form C * Gamma(s, y) / (gamma c^s) of C * int_{n_max}^inf
    x^rho exp(-c x^gamma) dx, with s = (rho+1)/gamma and y = c n_max^gamma
    (substitute u = c x^gamma).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    if c <= 0.0:
        raise ValueError(f"c must be positive, got {c}")
    if not 0.0 <= K_inf_target < 1.0:
        raise ValueError(f"K_inf_target must lie in [0,1), got {K_inf_target}")
    if n_max < 10:
        raise ValueError(f"n_max must be >= 10, got {n_max}")
    if rho > 0.0 and c * gamma * n_max**gamma <= rho:
        raise ValueError("density not yet decreasing at n_max; enlarge n_max")

    n = np.arange(0, n_max + 1, dtype=float)
    logk = np.full(n_max + 1, -np.inf)
    logk[1:] = rho * np.log(n[1:]) - c * n[1:] ** gamma
    m = logk[1:].max()
    raw_sum = float(np.exp(logk[1:] - m).sum())
    log_norm = math.log1p(-K_inf_target) - (m + math.log(raw_sum))
    K = np.exp(logk + log_norm)
    K[0] = 0.0
    if np.any(K[1:] == 0.0):
        raise ValueError("K underflows before n_max; reduce n_max or c")
    # exact renormalization so the law invariant holds to 1e-12
    K[1:] *= (1.0 - K_inf_target) / K[1:].sum()

    norm_const = math.exp(log_norm)
    s = (rho + 1.0) / gamma
    log_tail = (log_norm + _log_upper_gamma(s, c * n_max**gamma)
                - math.log(gamma) - s * math.log(c))
    tail = math.exp(log_tail) if log_tail < 709.0 else math.inf
    if tail > TAIL_BUDGET * (1.0 - K_inf_target):
        raise ValueError(
            f"tail mass beyond n_max is {tail:.3e}, "
            f"over budget {TAIL_BUDGET * (1.0 - K_inf_target):.3e}; n_max too small"
        )
    return RenewalLaw(gamma=gamma, c=c, rho=rho, K=K, K_inf=K_inf_target,
                      n_max=n_max, norm_const=norm_const)


def tilt(law: RenewalLaw, h: float) -> RenewalLaw:
    """Scale the finite part by exp(-h), moving mass to the atom at infinity.

    h > 0 turns a proper law into a terminating one; h < 0 is allowed only
    while the finite mass stays below 1.
    """
    scale = math.exp(-h)
    finite = scale * (1.0 - law.K_inf)
    if finite > 1.0 + _NORM_TOL:
        raise ValueError(f"tilt by h={h} would give finite mass {finite} > 1")
    K = law.K * scale
    K[0] = 0.0
    return RenewalLaw(gamma=law.gamma, c=law.c, rho=law.rho, K=K,
                      K_inf=1.0 - min(finite, 1.0), n_max=law.n_max,
                      norm_const=law.norm_const * scale)


def renewal_function(law: RenewalLaw, n: int) -> np.ndarray:
    """Return the table u(0..n) of visit probabilities, u(0) = 1.

    u(m) = sum_{j=1}^{m} K(j) u(m-j): each value conditions on the first
    arrival, so everything stays in (0,1].
    """
    if n > law.n_max:
        raise ValueError(f"horizon {n} exceeds law support n_max={law.n_max}")
    if n < 0:
        raise ValueError("horizon must be >= 0")
    u = np.empty(n + 1)
    u[0] = 1.0
    K = law.K
    for m in range(1, n + 1):
        u[m] = K[1 : m + 1] @ u[m - 1 :: -1]
    return u


def _convolve_head(a: np.ndarray, v: np.ndarray, count: int) -> np.ndarray:
    """The first count entries of the convolution a*v, for count <= len(v).

    a is cut into blocks of _BLOCK entries, and block s adds
    np.convolve(a[s:s+_BLOCK], v[:count-s]) to out[s:], so nothing past
    count is computed and no dot product numpy hands to BLAS is longer than
    _BLOCK: below OpenBLAS's threading cut-off, so the bytes do not depend on
    the BLAS thread count.  With count <= _BLOCK there is one block, and the
    result has the bytes of np.convolve(a, v[:count])[:count].
    """
    out = np.zeros(count)
    for s in range(0, min(count, a.size), _BLOCK):
        out[s:] += np.convolve(a[s : s + _BLOCK], v[: count - s])[: count - s]
    return out


def ratio_table(law: RenewalLaw, n: int) -> tuple[np.ndarray, ...]:
    """Columns K, u, u/K, q*2/q and q*3/q over 1..n for q = K/(1-K_inf).

    q*2 and q*3 are summed directly and read as 0 below 2 and 3; needs
    n >= 3.  Only their values up to n are formed (_convolve_head): each
    value is a sum over blocks of _BLOCK positions of the first factor, so
    for n > _BLOCK + 1 the summation order differs from a single
    np.convolve (within a relative 4 n 2^-53, all terms being positive),
    and the bytes are the same at any BLAS thread count.
    """
    if n < 3:
        raise ValueError("need n >= 3 for the convolution ratios")
    u = renewal_function(law, n)[1:]
    K = law.K[1 : n + 1]
    q = law.q[1 : n + 1]  # q[i] = q(i+1)
    conv2 = _convolve_head(q, q, n - 1)  # index j <-> mass at j+2
    conv3 = _convolve_head(conv2, q, n - 2)  # index j <-> mass at j+3
    q2 = np.concatenate(([0.0], conv2))
    q3 = np.concatenate(([0.0, 0.0], conv3))
    return K, u, u / K, q2 / q, q3 / q


def subexp_diagnostics(law: RenewalLaw, n: int) -> dict[str, float]:
    """Heavy-tail convolution ratios at n for q = K/(1-K_inf).

    Returns q(n+1)/q(n), q*2(n)/q(n), q*3(n)/q(n) (the last row of
    ratio_table) and u(n)/K(n); the first three approach 1, 2, 3 and the
    last 1/K_inf^2 for terminating laws.
    """
    if n + 1 > law.n_max:
        raise ValueError(f"n + 1 = {n + 1} exceeds n_max={law.n_max}")
    _, _, u_over_K, conv2_ratio, conv3_ratio = ratio_table(law, n)
    return {
        "shift_ratio": float(law.q[n + 1] / law.q[n]),
        "conv2_ratio": float(conv2_ratio[-1]),
        "conv3_ratio": float(conv3_ratio[-1]),
        "u_over_K": float(u_over_K[-1]),
    }
