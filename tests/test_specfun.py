"""Special-function values against independent oracles.

Digamma and zeta oracles here are brute-force partial sums; the deep-tail
(1e8-term) spot checks live in the acceptance suite.
"""

import math

import pytest

from mspacings import (
    ArgumentTooSmall,
    EULER_GAMMA,
    NonPositiveArgument,
    digamma_int,
    hurwitz_zeta2,
    mu_n,
    normal_cdf,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def harmonic(k: int) -> float:
    return math.fsum(1.0 / j for j in range(1, k + 1))


class TestDigamma:
    def test_one_is_minus_gamma(self):
        assert digamma_int(1) == -EULER_GAMMA

    def test_two(self):
        assert digamma_int(2) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-15)
        assert digamma_int(2) == pytest.approx(0.4227843351, abs=1e-10)

    def test_ten_against_harmonic_oracle(self):
        assert harmonic(9) == pytest.approx(2.8289682540, abs=1e-10)
        assert digamma_int(10) == pytest.approx(harmonic(9) - EULER_GAMMA, abs=1e-13)
        assert digamma_int(10) == pytest.approx(2.2517525891, abs=1e-10)

    def test_brute_force_sweep(self):
        # covers both sides of the summation/asymptotic switch
        for m in range(1, 201):
            assert digamma_int(m) == pytest.approx(
                harmonic(m - 1) - EULER_GAMMA, abs=1e-12), m

    def test_recurrence(self):
        for m in (1, 2, 3, 10, 63, 64, 65, 100, 1000, 10_000):
            assert digamma_int(m + 1) - digamma_int(m) == pytest.approx(
                1.0 / m, abs=1e-13)

    def test_domain(self):
        with pytest.raises(NonPositiveArgument):
            digamma_int(0)
        with pytest.raises(NonPositiveArgument):
            digamma_int(-3)


class TestHurwitzZeta2:
    def test_basel(self):
        assert hurwitz_zeta2(1) == pytest.approx(math.pi**2 / 6.0, abs=1e-13)

    def test_two_by_recurrence_from_basel(self):
        assert hurwitz_zeta2(2) == pytest.approx(math.pi**2 / 6.0 - 1.0, abs=1e-13)

    def test_hundred(self):
        # cancellation in the oracle costs ~1e-16 here, well under budget
        oracle = math.pi**2 / 6.0 - math.fsum(1.0 / (j * j) for j in range(1, 100))
        assert hurwitz_zeta2(100) == pytest.approx(oracle, abs=1e-13)
        assert hurwitz_zeta2(100) == pytest.approx(0.0100501667, abs=1e-10)

    def test_recurrence(self):
        for m in (1, 2, 3, 10, 100, 1000, 10_000):
            assert hurwitz_zeta2(m) - hurwitz_zeta2(m + 1) == pytest.approx(
                1.0 / (m * m), abs=1e-13)

    def test_domain(self):
        with pytest.raises(NonPositiveArgument):
            hurwitz_zeta2(0)


class TestNormalCdf:
    def test_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_frozen_values(self):
        assert normal_cdf(1.96) == pytest.approx(0.9750021049, abs=1e-10)
        assert normal_cdf(0.8) == pytest.approx(0.7881446014, abs=1e-10)

    def test_symmetry(self):
        for z in (-6.5, -2.0, -0.3, 0.7, 1.0, 3.14, 5.0):
            assert normal_cdf(z) + normal_cdf(-z) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_on_grid(self):
        # strictly increasing until double precision saturates near 1
        # (increments fall below one ulp of 1.0 past z ~ 7.6)
        values = [normal_cdf((-8000 + i) / 1000.0) for i in range(16001)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        strict_part = values[: 15500 + 1]  # z in [-8, 7.5]
        assert all(b > a for a, b in zip(strict_part, strict_part[1:]))

    def test_tails(self):
        assert normal_cdf(-40.0) == 0.0
        assert normal_cdf(40.0) == 1.0


class TestMuN:
    def test_two(self):
        assert mu_n(2) == pytest.approx(4.0 * math.sqrt(2.0) * math.pi * math.exp(-2.0),
                                        rel=1e-12)

    def test_ten(self):
        assert mu_n(10) == pytest.approx(2.4858333856, abs=1e-9)

    def test_approaches_sqrt_2pi_from_below(self):
        last = mu_n(10)
        for n in (100, 1000, 10_000, 100_000):
            value = mu_n(n)
            assert last < value < SQRT_2PI
            last = value

    def test_stirling_deficit_bound(self):
        for n in (10, 100, 1000, 10_000):
            assert abs(mu_n(n) / SQRT_2PI - 1.0) <= 1.0 / (11.0 * n)

    def test_no_overflow_at_one_million(self):
        value = mu_n(10**6)
        assert math.isfinite(value)
        assert value == pytest.approx(SQRT_2PI, rel=1e-6)

    def test_domain(self):
        with pytest.raises(ArgumentTooSmall):
            mu_n(1)
