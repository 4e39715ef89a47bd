"""Closed-form references that estimator tests check against."""

import math

import pytest


def normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def lookback_call_gsg(s0, sigma, r, T):
    """The continuously monitored floating-strike lookback call at its start,
    e^{-rT} E[S_T - min_{t <= T} S_t], under Black-Scholes with rate r > 0,
    volatility sigma and no dividend (Goldman, Sosin and Gatto, "Path
    dependent options: buy at the low, sell at the high", J. Finance 34,
    1979). The running minimum starts at s0, so the log-moneyness terms
    vanish."""
    vol = sigma * math.sqrt(T)
    a1 = (r + 0.5 * sigma**2) * T / vol
    a2 = a1 - vol
    a3 = (0.5 * sigma**2 - r) * T / vol
    k = sigma**2 / (2.0 * r)
    return s0 * (normal_cdf(a1) - k * normal_cdf(-a1)
                 - math.exp(-r * T) * (normal_cdf(a2) - k * normal_cdf(-a3)))


class TestGoldmanSosinGatto:
    def test_reference_value(self):
        assert lookback_call_gsg(100.0, 0.25, 0.05, 1.0) == pytest.approx(20.552183, abs=5e-7)

    def test_vanishing_vol_tends_to_the_discounted_drift(self):
        # with sigma -> 0 the minimum is s0 and S_T = s0 e^{rT}; the gap is
        # about s0 e^{-rT} sigma^2 / (2r)
        limit = 100.0 * (1.0 - math.exp(-0.05))
        assert limit == pytest.approx(4.87706, abs=5e-6)
        gaps = [lookback_call_gsg(100.0, sigma, 0.05, 1.0) - limit
                for sigma in (1e-2, 1e-3, 1e-4)]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0
        assert gaps[2] < 1e-5
        assert lookback_call_gsg(100.0, 1e-4, 0.05, 1.0) == pytest.approx(4.87707, abs=5e-6)

    @pytest.mark.parametrize("sigma, r, T", [(0.25, 0.05, 1.0), (0.6, 0.02, 2.5)])
    def test_linear_in_s0(self, sigma, r, T):
        unit = lookback_call_gsg(1.0, sigma, r, T)
        for s0 in (50.0, 100.0, 321.5):
            assert lookback_call_gsg(s0, sigma, r, T) == pytest.approx(s0 * unit, rel=1e-14)
