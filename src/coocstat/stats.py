"""Self-contained statistical primitives.

The two tests the pipeline scores pairs with: the chi-square tail with
one degree of freedom, the closed form ``erfc(sqrt(x / 2))``, and an
exact two-sided binomial test against p = 1/2.  Also midranks and the
Brunner-Munzel rank test (t-distribution tail via the regularized
incomplete beta function, which also gives the binomial tail for large
n).  The special functions are stdlib float arithmetic.  `rank` sorts a
sample once with NumPy; its midranks stay exact multiples of 1/2.
`brunner_munzel_ranked` tests two ranked samples without sorting them
together: each value's midrank among both is its own midrank plus its
placement in the other sample, found by `searchsorted`, so a group
compared with several others is ranked once.  The squared rank
deviations go through `math.pow`, as `** 2` on a float does.  Float sums
are `sequential_sum`, which gives the same bits on every Python version.

The incomplete beta is the classic continued fraction (Lentz's method)
and is accurate to roughly 1e-14 relative, comfortably inside the 1e-10
contract the rest of the package relies on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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


def sequential_sum(values: Sequence[float] | np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, rounded after each addition.

    This is the float sum of the builtin `sum` before Python 3.12, which
    compensates for rounding instead; `np.sum` adds pairwise.  Both would
    change the last bits of the report's means.  A NaN's payload is not
    part of this contract: a NaN result may carry any, since `repr`
    writes every NaN as `nan`.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN as `sum` gives them
        partial = np.cumsum(np.asarray(values, dtype=np.float64))  # one addition at a time
    # Adding 0.0 turns -0.0, the sum of values that are all -0.0, into the
    # 0.0 that a sum from 0.0 gives, and changes no other sum.
    return float(partial[-1]) + 0.0 if len(partial) else 0.0


# ---------------------------------------------------------------------------
# Chi-square tail with one degree of freedom

def chi2_sf(x: float) -> float:
    """Upper-tail probability P(X >= x) for a chi-square variable with one
    degree of freedom, ``erfc(sqrt(x / 2))``.

    Raises ValueError for x < 0.
    """
    return chi2_sfs(np.array([x], dtype=np.float64)).item()


def chi2_sfs(x: np.ndarray) -> np.ndarray:
    """`chi2_sf` of each value of a float64 array."""
    negative = x[x < 0]
    if len(negative):
        raise ValueError(f"x must be non-negative, got {negative[0].item()}")
    return math_map(math.erfc, np.sqrt(x / 2.0))


def math_map(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """`f`, a `math` function, of each value of `x`, as float64.

    NumPy's own transcendentals (`np.log1p`, `np.log`, ...) are not
    correctly rounded and can differ from `math`'s in the last bit, which
    would move output bytes; `+ - * /` and `sqrt` are exact in both.
    """
    return np.fromiter(map(f, x.tolist()), dtype=np.float64, count=len(x))


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
    """P(X <= k) for Binomial(n, 1/2), for 0 <= k < n."""
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


def binom_test_two_sided(k: int, n: int) -> TestResult:
    """Exact two-sided binomial test of H0: success probability = 1/2.

    The p-value is the doubled smaller tail, P(X <= min(k, n - k)) twice,
    capped at 1; with p = 1/2 this equals the sum of P(X = i) over every
    outcome i no more likely than the observed k.
    """
    if n < 1 or k < 0 or k > n:
        raise ValueError(f"invalid binomial test arguments k={k}, n={n}")
    if 2 * k == n:
        return TestResult(float(k), 1.0)
    p = min(1.0, 2.0 * _binom_cdf_half(min(k, n - k), n))
    return TestResult(float(k), p)


# ---------------------------------------------------------------------------
# Midranks and the Brunner-Munzel test

class Ranked(NamedTuple):
    """One sample sorted once, as `rank` gives it."""

    order: np.ndarray  # the stable sort order of the sample's values
    ordered: np.ndarray  # the values in that order, as float64
    ranks: np.ndarray  # the values' midranks, in the sample's order


def rank(values: Sequence[float] | np.ndarray) -> Ranked:
    """Sort `values` once and give each its 1-based midrank: tied values
    share the average of their span.

    Raises ValueError for an empty sample and for NaN, which has no rank.
    """
    array = np.asarray(values, dtype=np.float64)
    m = len(array)
    if m == 0:
        raise ValueError("midranks of an empty sequence are undefined")
    if np.isnan(array).any():
        raise ValueError("midranks of NaN are undefined")
    order = np.argsort(array, kind="stable")
    ordered = array[order]
    start = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    end = np.append(start[1:], m) - 1
    ranks = np.empty(m)
    # Ranks start+1 .. end+1 of each tie run, averaged.
    ranks[order] = np.repeat((start + end + 2) / 2.0, end - start + 1)
    return Ranked(order, ordered, ranks)


def midranks(values: list[float]) -> list[float]:
    """1-based ranks where tied values share the average of their span."""
    return rank(values).ranks.tolist()


def _placements(x: Ranked, y: Ranked) -> np.ndarray:
    """For each value of `x`, the number of `y` values below it plus half
    the number equal to it: its midrank among `x + y` less its midrank
    within `x`.

    Both are exact multiples of 1/2, so ``x.ranks + _placements(x, y)``
    equals the midranks of `x + y` bit for bit.
    """
    below = np.searchsorted(y.ordered, x.ordered, "left")
    not_above = np.searchsorted(y.ordered, x.ordered, "right")
    placements = np.empty(len(x.ranks))
    placements[x.order] = (below + not_above) / 2.0
    return placements


def _sum_of_squares(d: np.ndarray) -> float:
    # libm's `pow`, which `d ** 2` on a Python float calls: `d * d` differs
    # from it in the last bit for some values.
    return sequential_sum(list(map(math.pow, d.tolist(), itertools.repeat(2.0, len(d)))))


def brunner_munzel(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Brunner-Munzel test of H0: P(X < Y) + 0.5 P(X = Y) = 1/2.

    `brunner_munzel_ranked` of the two samples' `rank`s.
    """
    return brunner_munzel_ranked(rank(x), rank(y))


def brunner_munzel_ranked(x: Ranked, y: Ranked) -> TestResult:
    """Brunner-Munzel test of H0: P(X < Y) + 0.5 P(X = Y) = 1/2 on two
    ranked samples, so that a sample compared with several others is
    sorted once.

    Returns the studentized statistic with Satterthwaite degrees of
    freedom and a two-sided t-distribution p-value; `effect` is the
    relative effect estimate (the probability above, estimated from
    midranks).  With both rank variances zero the result is degenerate:
    p = 0 under complete separation (effect 0 or 1), otherwise the
    conservative statistic 0 / p = 1.
    """
    nx, ny = len(x.ranks), len(y.ranks)
    if nx < 2 or ny < 2:
        raise ValueError(f"each sample needs >= 2 values, got {nx} and {ny}")

    # The midranks among x + y are each sample's own midranks plus its
    # placements, in the sample's order.
    place_x = _placements(x, y)
    place_y = _placements(y, x)
    sum_rx = sequential_sum(x.ranks + place_x)
    sum_ry = sequential_sum(y.ranks + place_y)
    mean_rx = sum_rx / nx
    mean_ry = sum_ry / ny
    # Midranks are multiples of 1/2, so this matches brute-force
    # (wins + ties/2) / (nx*ny) bit for bit.
    effect = (sum_ry - ny * (ny + 1) / 2.0) / (nx * ny)

    # A placement is exactly the combined midrank less the inner one.
    sx2 = _sum_of_squares(place_x - mean_rx + (nx + 1) / 2.0) / (nx - 1)
    sy2 = _sum_of_squares(place_y - mean_ry + (ny + 1) / 2.0) / (ny - 1)

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
