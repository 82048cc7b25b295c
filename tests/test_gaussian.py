"""Tests of the Gaussian expectation engine and normal-law utilities."""

import math
import sys

import numpy as np
import pytest
from mpmath import mp

from eoc_lab._moments import _Kernel
from eoc_lab.activations import ActivationSpec
from eoc_lab.gaussian import _check_q, erf_inv, normal_cdf, normal_quantile

from conftest import gaussian_mc
from oracles import gauss_expect, kinks


def series_normal_cdf(x):
    """Independent CDF oracle: alternating Taylor series of the error
    function, accurate to ~1e-12 for |x| <= 5."""
    t = x / math.sqrt(2.0)
    total = t
    term = t
    for k in range(1, 300):
        term *= -t * t / k
        contribution = term / (2 * k + 1)
        total += contribution
        if abs(contribution) < 1e-18:
            break
    return 0.5 + total / math.sqrt(math.pi)


def bisect_series_quantile(p, lo=-10.0, hi=10.0):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if series_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestGaussExpect:
    def test_normalisation(self):
        assert gauss_expect(lambda z: np.ones_like(z), 2.0) == pytest.approx(1.0, abs=1e-13)

    def test_standard_second_moment(self):
        assert gauss_expect(lambda z: z * z, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_variance_scales(self):
        assert gauss_expect(lambda z: z * z, 3.7) == pytest.approx(3.7, rel=1e-12)

    def test_odd_integrands_vanish(self):
        odd_fns = [
            lambda z: z,
            lambda z: z ** 3,
            lambda z: np.sin(z),
            ActivationSpec("cst", 0.5, 1.0).evaluate,
        ]
        for q in (0.2, 1.0, 4.0):
            for f in odd_fns:
                assert abs(gauss_expect(f, q)) <= 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gauss_expect(lambda z: z, 0.0)
        with pytest.raises(ValueError):
            gauss_expect(lambda z: z, -1.0)

    def test_variance_must_be_positive_and_finite(self):
        """Every positive finite variance passes, a subnormal one included
        (it is an exact value, and the kernel computes at its q0 in
        [1, 4)); zero, negative and non-finite ones are refused."""
        for q in (sys.float_info.min, 5e-309, 5e-324, 1e308):
            assert _check_q(q) == q
        np.testing.assert_array_equal(_check_q(np.array([1.0, 5e-324])), [1.0, 5e-324])
        for q in (0.0, -1.0, math.inf, math.nan, np.array([1.0, 0.0])):
            with pytest.raises(ValueError, match="variance must be positive and finite"):
                _check_q(q)

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(ValueError):
            gauss_expect(lambda z: np.full_like(z, np.nan), 1.0)

    def test_closed_form_moments_match_panel_quadrature(self):
        """The kernel's E[phi^2], E[phi^4] and P(phi' = 1) agree with
        kink-split panel quadrature of their defining integrals to 1e-12."""
        specs = [
            ActivationSpec("relu"),
            ActivationSpec("crelu", 0.25, 1.22),
            ActivationSpec("crelu", 1.04, 2.0),
            ActivationSpec("cst", 0.84, 1.2),
            ActivationSpec("cst", 1.44, 2.0),
        ]
        for spec in specs:
            for q in (0.5, 1.0, 3.0):
                k = _Kernel.at(spec, q)
                for closed, f in (
                    (k.second, lambda z, s=spec: s.evaluate(z) ** 2),
                    (k.fourth, lambda z, s=spec: s.evaluate(z) ** 4),
                    (k.linear, lambda z, s=spec: s.derivative(z) ** 2),
                ):
                    quad = gauss_expect(f, q, kinks(spec))
                    assert float(closed) == pytest.approx(quad, rel=1e-12, abs=0.0)

    def test_against_monte_carlo_oracle(self):
        """Seeded MC agreement within 3 standard errors on 20 randomized
        (activation, q) pairs."""
        rng = np.random.default_rng(7)
        for trial in range(20):
            tau = float(rng.uniform(0.0, 1.5))
            m = float(rng.uniform(0.3, 2.5))
            q = float(rng.uniform(0.3, 3.0))
            kind = ["crelu", "cst"][trial % 2]
            spec = ActivationSpec(kind, tau, m)
            exact = gauss_expect(lambda z: spec.evaluate(z) ** 2, q, kinks=kinks(spec))
            est, se = gaussian_mc(lambda z: spec.evaluate(z) ** 2, q, 1_000_000, seed=100 + trial)
            assert abs(exact - est) <= 3.0 * se

    def test_clipped_square_matches_large_monte_carlo(self):
        spec = ActivationSpec("crelu", 0.25, 1.22)
        exact = gauss_expect(lambda z: spec.evaluate(z) ** 2, 1.0, kinks=kinks(spec))
        est, se = gaussian_mc(lambda z: spec.evaluate(z) ** 2, 1.0, 10_000_000, seed=3)
        assert abs(exact - est) <= 3.0 * se


class TestNormalUtilities:
    def test_cdf_quantile_roundtrip(self):
        for p in np.linspace(1e-6, 1 - 1e-6, 41):
            assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-12

    def test_quantile_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_quantile_against_series_bisection(self):
        oracle = bisect_series_quantile(0.85)
        value = normal_quantile(0.85)
        assert value == pytest.approx(oracle, abs=1e-9)
        assert value == pytest.approx(1.0364333894937898, abs=1e-12)

    def test_erf_odd(self):
        for x in np.linspace(0.0, 5.0, 21):
            assert math.erf(-x) == -math.erf(x)

    def test_erf_inv_roundtrip(self):
        """Roundtrip to 1e-10 where float64 permits.

        Beyond |x| ~ 3.5 the forward value saturates toward 1 and a double
        cannot represent it finely enough to recover x to 1e-10 (the
        recoverable precision is ulp(1) / erf'(x)); there the roundtrip is
        held to a small multiple of that conditioning bound instead.
        """
        eps = np.finfo(float).eps
        for x in np.linspace(-5.0, 5.0, 41):
            conditioning = 4.0 * eps * (math.sqrt(math.pi) / 2.0) * math.exp(x * x)
            assert abs(erf_inv(math.erf(x)) - x) <= max(1e-10, conditioning)

    def test_erf_inv_zero(self):
        assert erf_inv(0.0) == 0.0

    def test_erf_inv_odd(self):
        for p in (1e-3, 0.5, 0.85, 1.0 - 1e-12):
            assert erf_inv(-p) == -erf_inv(p)

    def test_quantile_domain(self):
        for p in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError):
                normal_quantile(p)
        for p in (-1.0, 1.0, 2.0):
            with pytest.raises(ValueError):
                erf_inv(p)


def _relative_errors(values, exact):
    """|value - exact| / |exact|, and |value| where the exact value is 0."""
    return [abs(mp.mpf(float(v)) - e) / (abs(e) or 1) for v, e in zip(values, exact)]


class TestAgainstMpmath:
    """The normal-law utilities against 40-digit mpmath values."""

    # up to s = 1 - 1e-14, where the tail 1 - s is tiny and a quantile of
    # (1 + p) / 2 would lose digits
    SPARSITIES = (0.5, 0.85, 0.99, 1 - 1e-8, 1 - 1e-10, 1 - 1e-12, 1 - 1e-14)

    def test_normal_cdf(self):
        """Relative error <= 1e-14 for |x| < 6 and <= 1e-12 over [-37, 8],
        where Phi(x) is still a normal double, for scalars and arrays."""
        xs = np.linspace(-37.0, 8.0, 901)
        array = normal_cdf(xs)
        scalars = [normal_cdf(x) for x in xs]
        assert isinstance(array, np.ndarray) and array.shape == xs.shape
        assert all(type(v) is float for v in scalars)
        assert array.tolist() == scalars
        with mp.workdps(40):
            errors = _relative_errors(scalars, [mp.ncdf(mp.mpf(x)) for x in xs])
            assert max(errors) <= 1e-12
            assert max(e for e, x in zip(errors, xs) if abs(x) < 6.0) <= 1e-14

    def test_normal_quantile(self):
        with mp.workdps(40):
            exact = [mp.sqrt(2) * mp.erfinv(2 * mp.mpf(s) - 1) for s in self.SPARSITIES]
            errors = _relative_errors([normal_quantile(s) for s in self.SPARSITIES], exact)
        assert max(errors) <= 1e-15

    def test_erf_inv(self):
        with mp.workdps(40):
            exact = [mp.erfinv(mp.mpf(s)) for s in self.SPARSITIES]
            errors = _relative_errors([erf_inv(s) for s in self.SPARSITIES], exact)
        assert max(errors) <= 1e-15
