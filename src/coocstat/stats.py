"""Self-contained statistical primitives.

The chi-square survival function (the closed form ``erfc(sqrt(x / 2))``
for one degree of freedom, the regularized incomplete gamma function
otherwise), an exact two-sided binomial test, midranks, and the
Brunner-Munzel rank test (t-distribution tail via the regularized
incomplete beta function).  The special functions are stdlib float
arithmetic; midranks sort with NumPy and stay exact multiples of 1/2.

The special functions follow the classic series/continued-fraction
split (Lentz's method for the continued fractions) and are accurate to
roughly 1e-14 relative, comfortably inside the 1e-10 contract the rest
of the package relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = 1e-16
_TINY = 1e-300
_MAX_ITER = 500


@dataclass
class TestResult:
    """Outcome of a hypothesis test.

    `df` is filled for t-approximated tests, `effect` carries the
    Brunner-Munzel relative effect, and `degenerate` marks results where
    the variance estimate collapsed (statistic not finite or variance 0).
    """

    statistic: float
    p_value: float
    df: float | None = None
    degenerate: bool = False
    effect: float | None = None


# ---------------------------------------------------------------------------
# Regularized incomplete gamma: P(s, x) and Q(s, x)

def _gamma_p_series(s: float, x: float) -> float:
    # Series expansion, converges fast for x < s + 1.
    term = 1.0 / s
    total = term
    denom = s
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))

def _gamma_q_cf(s: float, x: float) -> float:
    # Continued fraction (modified Lentz), converges fast for x >= s + 1.
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _reg_gamma_q(s: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(s, x) = 1 - P(s, x)."""
    if x < 0 or s <= 0:
        raise ValueError(f"invalid incomplete gamma arguments s={s}, x={x}")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _gamma_p_series(s, x)
    return _gamma_q_cf(s, x)


def chi2_sf(x: float, df: float) -> float:
    """Upper-tail probability P(X >= x) for a chi-square variable.

    Raises ValueError for x < 0 or df <= 0.
    """
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    if df == 1.0:
        return math.erfc(math.sqrt(x / 2.0))  # Q(1/2, x/2), exactly
    return _reg_gamma_q(df / 2.0, x / 2.0)


# ---------------------------------------------------------------------------
# Regularized incomplete beta

def _beta_cf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta (modified Lentz).
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError(f"invalid incomplete beta arguments a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided tail probability P(|T| >= |t|) for Student's t."""
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    return _reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))


# ---------------------------------------------------------------------------
# Exact binomial test

def _binom_cdf_half(k: int, n: int) -> float:
    """P(X <= k) for Binomial(n, 1/2)."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if n <= 1024:
        # Exact integer arithmetic; the final division rounds correctly.
        total = 0
        coeff = 1  # C(n, 0)
        for i in range(k + 1):
            total += coeff
            coeff = coeff * (n - i) // (i + 1)
        return total / (1 << n)
    # I_{1/2}(n - k, k + 1) is the upper tail of the complement.
    return _reg_inc_beta(n - k, k + 1, 0.5)


def binom_test_two_sided(k: int, n: int, p0: float = 0.5) -> TestResult:
    """Exact two-sided binomial test of H0: success probability = p0.

    Uses the minimum-likelihood method: the p-value sums P(X = i) over
    every outcome i no more likely than the observed k.  For the
    symmetric p0 = 0.5 case this reduces to the doubled smaller tail,
    capped at 1, which is evaluated without enumeration.
    """
    if n < 1 or k < 0 or k > n:
        raise ValueError(f"invalid binomial test arguments k={k}, n={n}")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must be within [0, 1], got {p0}")

    if p0 == 0.0:
        return TestResult(float(k), 1.0 if k == 0 else 0.0)
    if p0 == 1.0:
        return TestResult(float(k), 1.0 if k == n else 0.0)

    if p0 == 0.5:
        if 2 * k == n:
            return TestResult(float(k), 1.0)
        tail = min(k, n - k)
        p = min(1.0, 2.0 * _binom_cdf_half(tail, n))
        return TestResult(float(k), p)

    # General p0: O(n) enumeration of the pmf with a small relative
    # tolerance so float noise cannot flip near-tied likelihoods.
    log_p = math.log(p0)
    log_q = math.log1p(-p0)

    def log_pmf(i: int) -> float:
        return (
            math.lgamma(n + 1)
            - math.lgamma(i + 1)
            - math.lgamma(n - i + 1)
            + i * log_p
            + (n - i) * log_q
        )

    cutoff = log_pmf(k) + 1e-7
    p = 0.0
    for i in range(n + 1):
        lp = log_pmf(i)
        if lp <= cutoff:
            p += math.exp(lp)
    return TestResult(float(k), min(1.0, p))


# ---------------------------------------------------------------------------
# Midranks and the Brunner-Munzel test

def midranks(values: list[float]) -> list[float]:
    """1-based ranks where tied values share the average of their span."""
    m = len(values)
    if m == 0:
        raise ValueError("midranks of an empty sequence are undefined")
    array = np.asarray(values, dtype=np.float64)
    order = np.argsort(array, kind="stable")
    ordered = array[order]
    start = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    end = np.append(start[1:], m) - 1
    ranks = np.empty(m)
    # Ranks start+1 .. end+1 of each tie run, averaged.
    ranks[order] = np.repeat((start + end + 2) / 2.0, end - start + 1)
    return ranks.tolist()


def brunner_munzel(x: list[float], y: list[float]) -> TestResult:
    """Brunner-Munzel test of H0: P(X < Y) + 0.5 P(X = Y) = 1/2.

    Returns the studentized statistic with Satterthwaite degrees of
    freedom and a two-sided t-distribution p-value; `effect` is the
    relative effect estimate (the probability above, estimated from
    midranks).  With both rank variances zero the result is degenerate:
    p = 0 under complete separation (effect 0 or 1), otherwise the
    conservative statistic 0 / p = 1.
    """
    nx, ny = len(x), len(y)
    if nx < 2 or ny < 2:
        raise ValueError(f"each sample needs >= 2 values, got {nx} and {ny}")

    combined = list(x) + list(y)
    ranks = midranks(combined)
    ranks_x = ranks[:nx]
    ranks_y = ranks[nx:]
    inner_x = midranks(list(x))
    inner_y = midranks(list(y))

    sum_rx = sum(ranks_x)
    sum_ry = sum(ranks_y)
    mean_rx = sum_rx / nx
    mean_ry = sum_ry / ny
    # Midranks are multiples of 1/2, so this matches brute-force
    # (wins + ties/2) / (nx*ny) bit for bit.
    effect = (sum_ry - ny * (ny + 1) / 2.0) / (nx * ny)

    sx2 = sum(
        (ranks_x[i] - inner_x[i] - mean_rx + (nx + 1) / 2.0) ** 2 for i in range(nx)
    ) / (nx - 1)
    sy2 = sum(
        (ranks_y[i] - inner_y[i] - mean_ry + (ny + 1) / 2.0) ** 2 for i in range(ny)
    ) / (ny - 1)

    var_sum = nx * sx2 + ny * sy2
    if var_sum == 0.0:
        if effect in (0.0, 1.0):
            statistic = math.inf if effect == 1.0 else -math.inf
            return TestResult(statistic, 0.0, df=None, degenerate=True, effect=effect)
        return TestResult(0.0, 1.0, df=None, degenerate=True, effect=effect)

    statistic = nx * ny * (mean_ry - mean_rx) / ((nx + ny) * math.sqrt(var_sum))
    df = var_sum**2 / ((nx * sx2) ** 2 / (nx - 1) + (ny * sy2) ** 2 / (ny - 1))
    p = t_sf_two_sided(statistic, df)
    return TestResult(statistic, p, df=df, degenerate=False, effect=effect)
