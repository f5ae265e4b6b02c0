import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from coocstat.stats import (
    binom_test_two_sided,
    brunner_munzel,
    _reg_gamma_q,
    chi2_sf,
    midranks,
    t_sf_two_sided,
)


# ---------------------------------------------------------------------------
# Oracles

def binom_two_sided_oracle(k: int, n: int) -> float:
    """Exact minimum-likelihood two-sided p-value at p0=1/2, in rationals."""
    pmf = [Fraction(math.comb(n, i), 2**n) for i in range(n + 1)]
    target = pmf[k]
    return float(sum(p for p in pmf if p <= target))


def relative_effect_oracle(x, y) -> float:
    wins = sum(1 for xi in x for yj in y if xi < yj)
    ties = sum(1 for xi in x for yj in y if xi == yj)
    return (wins + 0.5 * ties) / (len(x) * len(y))


# ---------------------------------------------------------------------------
# chi-square survival function

class TestChi2Sf:
    def test_zero_gives_full_mass(self):
        assert chi2_sf(0.0, 1.0) == 1.0
        assert chi2_sf(0.0, 5.0) == 1.0

    def test_published_quantiles(self):
        assert chi2_sf(6.6349, 1.0) == pytest.approx(0.01, abs=1e-4)
        assert chi2_sf(3.8415, 1.0) == pytest.approx(0.05, abs=1e-4)

    def test_against_scipy(self):
        rng = random.Random(1)
        for _ in range(300):
            x = rng.uniform(0.0, 80.0)
            df = rng.choice([0.5, 1.0, 2.0, 3.0, 7.5, 20.0])
            expected = scipy.stats.chi2.sf(x, df)
            assert chi2_sf(x, df) == pytest.approx(expected, rel=1e-10, abs=1e-13)

    def test_strictly_decreasing(self):
        xs = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0]
        values = [chi2_sf(x, 1.0) for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_quantile_round_trip(self):
        # invert by bisection and come back to the same tail probability
        for q in (0.9, 0.5, 0.1, 0.05, 0.01, 1e-4):
            lo, hi = 0.0, 1e4
            for _ in range(200):
                mid = (lo + hi) / 2
                if chi2_sf(mid, 1.0) > q:
                    lo = mid
                else:
                    hi = mid
            assert chi2_sf((lo + hi) / 2, 1.0) == pytest.approx(q, rel=1e-8)

    def test_one_df_closed_form_matches_incomplete_gamma(self):
        # erfc(sqrt(x / 2)) against Q(1/2, x / 2), through the alpha = 0.05
        # and 0.01 critical values out to the smallest normal floats (x = 1400
        # gives 2e-306), and both underflow to 0 by x = 1500.
        xs = [3.8415, 6.6349, 1e-12, 1e-6, *np.linspace(0.0, 1400.0, 5601).tolist()]
        for x in xs:
            expected = _reg_gamma_q(0.5, x / 2.0)
            assert chi2_sf(x, 1.0) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert chi2_sf(1500.0, 1.0) == _reg_gamma_q(0.5, 750.0) == 0.0

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            chi2_sf(-1.0, 1.0)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0.0)


class TestStudentTail:
    def test_against_scipy(self):
        rng = random.Random(2)
        for _ in range(300):
            t = rng.uniform(-40.0, 40.0)
            df = rng.uniform(1.0, 200.0)
            expected = 2.0 * scipy.stats.t.sf(abs(t), df)
            assert t_sf_two_sided(t, df) == pytest.approx(expected, rel=1e-10, abs=1e-13)


# ---------------------------------------------------------------------------
# Exact binomial test

class TestBinomTest:
    def test_hand_cases(self):
        assert binom_test_two_sided(12, 13).p_value == pytest.approx(
            28 / 8192, abs=1e-15
        )
        assert binom_test_two_sided(4, 4).p_value == pytest.approx(0.125, abs=1e-15)

    def test_balanced_is_one(self):
        for n in (2, 10, 64, 1000):
            assert binom_test_two_sided(n // 2, n).p_value == 1.0

    def test_enumeration_oracle_all_small_n(self):
        for n in range(1, 21):
            for k in range(n + 1):
                expected = binom_two_sided_oracle(k, n)
                got = binom_test_two_sided(k, n).p_value
                assert abs(got - expected) <= 1e-12, (k, n)

    def test_large_n_against_scipy(self):
        for k, n in ((480, 1000), (520, 1000), (4000, 10000), (5200, 10000)):
            expected = scipy.stats.binomtest(k, n, 0.5).pvalue
            assert binom_test_two_sided(k, n).p_value == pytest.approx(
                expected, rel=1e-9
            )

    def test_general_p0_against_scipy(self):
        for k, n, p0 in ((3, 20, 0.3), (17, 20, 0.8), (0, 15, 0.1), (9, 30, 0.25)):
            expected = scipy.stats.binomtest(k, n, p0).pvalue
            assert binom_test_two_sided(k, n, p0).p_value == pytest.approx(
                expected, rel=1e-8
            )

    @given(st.integers(min_value=1, max_value=200), st.data())
    def test_symmetry_at_half(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        assert (
            binom_test_two_sided(k, n).p_value
            == binom_test_two_sided(n - k, n).p_value
        )

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            binom_test_two_sided(5, 4)
        with pytest.raises(ValueError):
            binom_test_two_sided(-1, 4)
        with pytest.raises(ValueError):
            binom_test_two_sided(0, 0)


# ---------------------------------------------------------------------------
# Midranks

class TestMidranks:
    def test_examples(self):
        assert midranks([10, 20, 30]) == [1, 2, 3]
        assert midranks([5, 5, 9]) == [1.5, 1.5, 3]
        assert midranks([7, 7, 7, 7]) == [2.5, 2.5, 2.5, 2.5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            midranks([])

    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=40))
    def test_matches_scipy_and_sums(self, values):
        got = midranks(values)
        expected = scipy.stats.rankdata(values).tolist()
        assert got == expected
        m = len(values)
        assert sum(got) == pytest.approx(m * (m + 1) / 2)


# ---------------------------------------------------------------------------
# Brunner-Munzel

class TestBrunnerMunzel:
    def test_identical_multisets(self):
        res = brunner_munzel([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
        assert res.effect == 0.5
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_hand_effect(self):
        res = brunner_munzel([1, 3], [2, 4])
        assert res.effect == 0.75

    def test_complete_separation_degenerate(self):
        res = brunner_munzel([1, 2, 3], [4, 5, 6])
        assert res.effect == 1.0
        assert res.degenerate
        assert res.p_value == 0.0
        assert math.isinf(res.statistic) and res.statistic > 0
        flipped = brunner_munzel([4, 5, 6], [1, 2, 3])
        assert flipped.effect == 0.0
        assert flipped.statistic < 0

    def test_constant_equal_samples(self):
        res = brunner_munzel([5, 5, 5], [5, 5])
        assert res.effect == 0.5
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.degenerate

    def test_small_sample_too_small(self):
        with pytest.raises(ValueError):
            brunner_munzel([1], [2, 3])
        with pytest.raises(ValueError):
            brunner_munzel([1, 2], [3])

    def test_effect_equals_brute_force_exactly(self):
        rng = random.Random(3)
        for nx in range(2, 9):
            for ny in range(2, 9):
                for _ in range(12):
                    x = [rng.randint(0, 4) for _ in range(nx)]
                    y = [rng.randint(0, 4) for _ in range(ny)]
                    assert brunner_munzel(x, y).effect == relative_effect_oracle(x, y)

    def test_antisymmetry(self):
        rng = random.Random(4)
        for _ in range(300):
            nx, ny = rng.randint(2, 12), rng.randint(2, 12)
            x = [rng.randint(0, 6) for _ in range(nx)]
            y = [rng.randint(0, 6) for _ in range(ny)]
            fwd = brunner_munzel(x, y)
            rev = brunner_munzel(y, x)
            assert abs(fwd.effect + rev.effect - 1.0) <= 1e-12
            if not fwd.degenerate:
                assert fwd.statistic == pytest.approx(-rev.statistic, rel=1e-12, abs=1e-12)
                assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-12, abs=1e-15)

    def test_against_scipy(self):
        rng = random.Random(5)
        checked = 0
        while checked < 200:
            nx, ny = rng.randint(4, 30), rng.randint(4, 30)
            x = [rng.gauss(0, 1) for _ in range(nx)]
            y = [rng.gauss(0.4, 1.6) for _ in range(ny)]
            res = brunner_munzel(x, y)
            if res.degenerate:
                continue
            w, p = scipy.stats.brunnermunzel(x, y)
            assert res.statistic == pytest.approx(w, rel=1e-10)
            assert res.p_value == pytest.approx(p, rel=1e-8, abs=1e-12)
            checked += 1


# ---------------------------------------------------------------------------
# Monte Carlo calibration at alpha = 0.01
#
# Discrete exact tests can only reject at achievable levels <= alpha, so
# the trial sizes below are large enough that the nearest achievable
# level sits inside the required window.

ALPHA = 0.01
N_TRIALS = 20000


class TestNullCalibration:
    def test_chi2_on_squared_normals(self):
        rng = np.random.Generator(np.random.PCG64(10))
        z = rng.standard_normal(N_TRIALS)
        rejections = sum(1 for v in z * z if chi2_sf(float(v), 1.0) < ALPHA)
        rate = rejections / N_TRIALS
        assert 0.005 <= rate <= 0.015, rate

    def test_binomial_exact(self):
        rng = np.random.Generator(np.random.PCG64(11))
        n = 1000
        draws = rng.binomial(n, 0.5, size=N_TRIALS)
        cache: dict[int, float] = {}
        rejections = 0
        for k in draws:
            k = int(k)
            if k not in cache:
                cache[k] = binom_test_two_sided(k, n).p_value
            if cache[k] < ALPHA:
                rejections += 1
        rate = rejections / N_TRIALS
        assert 0.005 <= rate <= 0.015, rate

    def test_brunner_munzel_asymptotic(self):
        rng = np.random.Generator(np.random.PCG64(12))
        rejections = 0
        for _ in range(N_TRIALS):
            x = rng.standard_normal(50)
            y = rng.standard_normal(50)
            if brunner_munzel(x.tolist(), y.tolist()).p_value < ALPHA:
                rejections += 1
        rate = rejections / N_TRIALS
        assert 0.005 <= rate <= 0.015, rate
