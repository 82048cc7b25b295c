"""Tests of the variance map, its derivatives, the growth factor and the
two-input correlation map."""

import itertools
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eoc_lab._moments import _Kernel
from eoc_lab.activations import ActivationSpec
from eoc_lab.maps import chi1, chi1_prime, diagnostics, v_map, v_prime, v_prime2
from eoc_lab.solver import init_from_m, solve_init

from conftest import gaussian_mc
from oracles import (correlation_map, correlation_map_precise, first_moment_shifted, gauss_expect,
                     kinks, v_map_quadrature)


def random_cases(n, seed, kinds=("crelu", "cst")):
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        spec = ActivationSpec(
            kinds[i % len(kinds)],
            float(rng.uniform(0.05, 1.8)),
            float(rng.uniform(0.2, 2.8)),
        )
        sw2 = float(rng.uniform(0.5, 8.0))
        q = float(rng.uniform(0.2, 4.0))
        cases.append((spec, sw2, q))
    return cases


class TestVarianceMap:
    def test_relu_critical_point_is_linear(self):
        spec = ActivationSpec("relu")
        for q in (0.5, 1.0, 2.0, 7.3):
            assert v_map(spec, 2.0, 0.0, q) == pytest.approx(q, rel=1e-14)

    def test_closed_form_matches_quadrature(self):
        for spec, sw2, q in random_cases(30, seed=11):
            sb2 = 0.3
            closed = v_map(spec, sw2, sb2, q)
            quad = v_map_quadrature(spec, sw2, sb2, q)
            assert closed == pytest.approx(quad, abs=1e-11, rel=1e-11)

    def test_matches_monte_carlo(self):
        spec = ActivationSpec("crelu", 0.6, 1.3)
        sw2, sb2, q = 1.7, 0.2, 2.0
        closed = v_map(spec, sw2, sb2, q)
        est, se = gaussian_mc(lambda z: spec.evaluate(z) ** 2, q, 10_000_000, seed=21)
        assert abs(closed - (sw2 * est + sb2)) <= 3.0 * sw2 * se

    def test_domain_error(self):
        with pytest.raises(ValueError):
            v_map(ActivationSpec("relu"), 2.0, 0.0, -1.0)

    @pytest.mark.parametrize("q", [0.0, -1.0, math.inf, math.nan])
    def test_kernel_constructor_checks_variance(self, q):
        """The bare constructor, which the sweep's q axis and the slope
        solve use, checks q like every other caller."""
        with pytest.raises(ValueError, match="variance must be"):
            _Kernel("crelu", 1.0, 2.0, q)

    @pytest.mark.parametrize("kind", ["crelu", "cst"])
    @pytest.mark.parametrize("q", [1e-309, 5e-324, 1e-300, 1e300])
    def test_kernel_is_the_q0_kernel_scaled(self, kind, q):
        """A kernel at q = q0 4^k, a subnormal q included, is the kernel at
        q0 with the same a, b and x, each output scaled once by its power
        of 4^k: E[phi^2] and E[phi^4] by 4^k and 4^2k, chi1' and V'' by
        4^-k, and the ratios unchanged."""
        def scaled(x, power):  # beyond the float range it reads inf
            try:
                return math.ldexp(float(x), power * k)
            except OverflowError:
                return math.copysign(math.inf, x)

        k = (math.frexp(q)[1] - 1) // 2
        q0 = math.ldexp(q, -2 * k)
        at_q = _Kernel(kind, math.ldexp(0.9, k), math.ldexp(1.6, k), q)
        at_q0 = _Kernel(kind, 0.9, 1.6, q0)
        assert 1.0 <= at_q.q0 == q0 < 4.0
        for name, power in (("second", 2), ("fourth", 4)):
            assert getattr(at_q, name) == scaled(getattr(at_q0, name), power)
        for name, power in (("chi1_prime", -2), ("v_prime2", -2), ("v_prime", 0), ("chi1", 0)):
            assert getattr(at_q, name)(1.3) == scaled(getattr(at_q0, name)(1.3), power)


class TestArrayInput:
    def test_array_q_matches_scalar_calls(self):
        """An ndarray of q gives the array of the scalar results, exactly;
        a scalar q gives a Python float."""
        qs = np.array([0.05, 0.3, 1.0, 2.7, 40.0])
        specs = [ActivationSpec("relu"), ActivationSpec("crelu", 0.4, 1.3),
                 ActivationSpec("cst", 0.7, 0.9)]
        for spec in specs:
            for fn, args in ((v_map, (1.7, 0.2)), (chi1, (1.7,)), (v_prime, (1.7,)),
                             (chi1_prime, (1.7,)), (v_prime2, (1.7,))):
                values = fn(spec, *args, qs)
                assert isinstance(values, np.ndarray) and values.shape == qs.shape
                scalars = [fn(spec, *args, float(q)) for q in qs]
                assert all(type(v) is float for v in scalars)
                assert values.tolist() == scalars

    def test_invalid_entry_rejected(self):
        with pytest.raises(ValueError, match="got -1.0"):
            v_map(ActivationSpec("crelu", 0.4, 1.3), 1.7, 0.2, np.array([1.0, -1.0]))


class TestDerivativeClosedForms:
    def test_v_prime_matches_central_difference(self):
        for spec, sw2, q in random_cases(40, seed=12):
            h = 1e-5 * q
            fd = (v_map(spec, sw2, 0.0, q + h) - v_map(spec, sw2, 0.0, q - h)) / (2 * h)
            assert v_prime(spec, sw2, q) == pytest.approx(fd, abs=1e-6)

    def test_v_prime2_matches_second_difference(self):
        for spec, sw2, q in random_cases(40, seed=13):
            h = 1e-4 * q
            fd = (
                v_map(spec, sw2, 0.0, q + h)
                - 2.0 * v_map(spec, sw2, 0.0, q)
                + v_map(spec, sw2, 0.0, q - h)
            ) / (h * h)
            assert v_prime2(spec, sw2, q) == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_chi1_prime_matches_central_difference(self):
        spec = ActivationSpec("crelu", 0.5, 1.0)
        sw2, q = 1.9, 1.7
        h = 1e-5 * q
        fd = (chi1(spec, sw2, q + h) - chi1(spec, sw2, q - h)) / (2 * h)
        assert chi1_prime(spec, sw2, q) == pytest.approx(fd, abs=1e-6)

    def test_curvature_spot_values(self):
        init = solve_init("crelu", 0.6, 1.0, 0.5)
        assert v_prime2(init.spec, init.sw2, 1.0) == pytest.approx(-0.44, abs=0.01)
        init = solve_init("crelu", 0.85, 3.0, 0.7)
        assert v_prime2(init.spec, init.sw2, 3.0) == pytest.approx(0.01, abs=0.01)


class TestGrowthFactor:
    def test_critical_inits_have_unit_chi1(self):
        for s in (0.6, 0.85, 0.9):
            for q in (1.0, 2.0, 3.0):
                init = solve_init("crelu", s, q, 0.7)
                assert abs(chi1(init.spec, init.sw2, q) - 1.0) <= 1e-9

    def test_relu_chi1_flat_in_q(self):
        spec = ActivationSpec("relu")
        for q in (0.1, 1.0, 5.0, 40.0):
            assert chi1(spec, 2.0, q) == pytest.approx(1.0, rel=1e-14)
            assert chi1_prime(spec, 2.0, q) == 0.0


class TestSlopeIdentities:
    def test_chi1_equals_v_prime_plus_clip_term(self):
        """chi1 - V' is exactly the Gaussian mass the clip removes."""
        for spec, sw2, q in random_cases(100, seed=14):
            factor = 2.0 if spec.kind == "cst" else 1.0
            clip = factor * sw2 * spec.m / math.sqrt(2 * math.pi * q) * math.exp(
                -((spec.tau + spec.m) ** 2) / (2 * q)
            )
            lhs = chi1(spec, sw2, q)
            rhs = v_prime(spec, sw2, q) + clip
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_chi1_prime_equals_v_prime2_plus_clip_term(self):
        for spec, sw2, q in random_cases(100, seed=15):
            factor = 2.0 if spec.kind == "cst" else 1.0
            tm = spec.tau + spec.m
            clip = (
                factor
                * sw2
                * spec.m
                / math.sqrt(2 * math.pi * q)
                * math.exp(-(tm ** 2) / (2 * q))
                * (-1.0 / (2 * q) + tm ** 2 / (2 * q * q))
            )
            lhs = chi1_prime(spec, sw2, q)
            rhs = v_prime2(spec, sw2, q) + clip
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_two_sided_is_exactly_twice_one_sided(self):
        """The factor-of-2 relations hold as the same floating-point
        expression scaled, not merely approximately."""
        rng = np.random.default_rng(16)
        for _ in range(50):
            tau = float(rng.uniform(0.05, 1.5))
            m = float(rng.uniform(0.2, 2.5))
            sw2 = float(rng.uniform(0.5, 6.0))
            q = float(rng.uniform(0.3, 3.0))
            one = ActivationSpec("crelu", tau, m)
            two = ActivationSpec("cst", tau, m)
            assert v_prime(two, sw2, q) == 2.0 * v_prime(one, sw2, q)
            assert v_prime2(two, sw2, q) == 2.0 * v_prime2(one, sw2, q)
            assert chi1_prime(two, sw2, q) == 2.0 * chi1_prime(one, sw2, q)
            assert chi1(two, sw2, q) == pytest.approx(2.0 * chi1(one, sw2, q), rel=1e-15)


class TestDiagnosticsRecord:
    def test_fields_consistent(self):
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        d = diagnostics(init.spec, init.sw2, init.sb2, 1.3)
        assert d.V == v_map(init.spec, init.sw2, init.sb2, 1.3)
        assert d.chi1 == chi1(init.spec, init.sw2, 1.3)
        assert d.q == 1.3


class TestCorrelationMap:
    def test_fixed_point_at_unit_correlation(self):
        for kind in ("crelu", "cst"):
            init = solve_init(kind, 0.85, 2.0, 0.7)
            r1 = correlation_map(init.spec, init.sw2, init.sb2, init.q_star, 1.0)
            assert abs(r1 - 1.0) <= 1e-8

    def test_odd_activation_decouples_at_zero(self):
        spec = ActivationSpec("cst", 0.9, 1.2)
        value = correlation_map(spec, 1.8, 0.0, 1.5, 0.0)
        assert abs(value) <= 1e-12
        value = correlation_map_precise(spec, 1.8, 0.0, 1.5, 0.0)
        assert abs(value) <= 1e-12

    def test_tensor_rule_matches_reduced_form(self):
        """The tensor-product route carries a few-1e-3 kink error; the
        reduced route is the precise one and the two must agree inside the
        tensor rule's own accuracy."""
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        for rho in (-0.8, -0.3, 0.0, 0.4, 0.9):
            a = correlation_map(init.spec, init.sw2, init.sb2, init.q_star, rho)
            b = correlation_map_precise(init.spec, init.sw2, init.sb2, init.q_star, rho)
            assert a == pytest.approx(b, abs=5e-3)

    def test_against_bivariate_monte_carlo(self):
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        rho, q = 0.5, init.q_star
        n = 10_000_000
        rng = np.random.default_rng(31)
        total, total_sq = 0.0, 0.0
        chunk = 1_000_000
        for _ in range(n // chunk):
            z1 = rng.standard_normal(chunk)
            z2 = rng.standard_normal(chunk)
            u1 = math.sqrt(q) * z1
            u2 = math.sqrt(q) * (rho * z1 + math.sqrt(1 - rho * rho) * z2)
            vals = init.spec.evaluate(u1) * init.spec.evaluate(u2)
            total += float(vals.sum())
            total_sq += float((vals * vals).sum())
        mean = total / n
        se = math.sqrt(max(total_sq / n - mean * mean, 0.0) / n)
        mc = (init.sw2 * mean + init.sb2) / q
        exact = correlation_map_precise(init.spec, init.sw2, init.sb2, q, rho)
        assert abs(exact - mc) <= 3.0 * init.sw2 * se / q
        coarse = correlation_map(init.spec, init.sw2, init.sb2, q, rho)
        assert abs(coarse - mc) <= 3.0 * init.sw2 * se / q + 5e-3

    def test_one_sided_derivative_approaches_chi1(self):
        """(R(1) - R(1-h)) / h converges to chi1(q*) at criticality."""
        for kind, s, q_star in (("crelu", 0.85, 1.0), ("crelu", 0.85, 3.0), ("cst", 0.7, 2.0)):
            init = solve_init(kind, s, q_star, 0.7)
            h = 3e-8
            r1 = correlation_map_precise(init.spec, init.sw2, init.sb2, init.q_star, 1.0)
            r1m = correlation_map_precise(init.spec, init.sw2, init.sb2, init.q_star, 1.0 - h)
            slope = (r1 - r1m) / h
            target = chi1(init.spec, init.sw2, init.q_star)
            assert slope == pytest.approx(target, abs=1e-3)

    def test_domain_error(self):
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        with pytest.raises(ValueError):
            correlation_map(init.spec, init.sw2, init.sb2, init.q_star, 1.2)

    @pytest.mark.parametrize("spec", [
        ActivationSpec("relu"), ActivationSpec("crelu", 0.4, 1.5), ActivationSpec("cst", 0.84, 1.2),
    ], ids=lambda spec: spec.kind)
    def test_shifted_first_moment_matches_quadrature(self, spec):
        """The oracle's closed-form inner integral of R against kink-split
        quadrature of E[phi(mu + z)], z ~ N(0, sigma^2)."""
        for mu, sigma in itertools.product((-3.0, -0.5, 0.0, 0.7, 4.0), (0.05, 1.0, 3.0)):
            shifted = [k - mu for k in kinks(spec)]
            quad = gauss_expect(lambda z: spec.evaluate(mu + z), sigma * sigma, shifted)
            assert first_moment_shifted(spec, mu, sigma) == pytest.approx(quad, abs=1e-12, rel=0)


# q from the bottom to the top of the float range
FLOAT_RANGE_Q = (1e-300, 1e-150, 1e-12, 0.3, 1.0, 3.7, 1e6, 1e150, 1e300)


class TestReluLimit:
    """relu is crelu at tau = 0, m = inf: the kernel's clip terms vanish and
    its closed forms are relu's exact ones at every q."""

    @pytest.mark.parametrize("q", [*FLOAT_RANGE_Q, np.array(FLOAT_RANGE_Q)],
                             ids=[*map(repr, FLOAT_RANGE_Q), "array"])
    def test_exact_closed_forms(self, q):
        k = _Kernel.at(ActivationSpec("relu"), q)
        sw2 = 2.0
        with np.errstate(over="ignore"):
            fourth, expected = np.asarray(k.fourth), np.asarray(1.5 * np.square(q))
        assert np.array_equal(k.second, 0.5 * np.asarray(q))
        assert np.all(k.linear == 0.5)
        assert np.all(k.v_prime(sw2) == 0.5 * sw2)
        for value in (k.chi1_prime(sw2), k.v_prime2(sw2), k.slope_gap):
            assert np.shape(value) == np.shape(q)
            assert np.all(value == 0.0)
        fourth, expected = fourth[np.isfinite(expected)], expected[np.isfinite(expected)]
        assert np.all(np.abs(fourth - expected) <= np.spacing(expected))


class TestFloatRange:
    def test_curvature_at_the_top_of_the_float_range(self):
        """chi1' and V'' scale like 1/q*: at q* = 1e308, where 2 q* would
        overflow, q* times each is its value at q* = 1."""
        one = solve_init("crelu", 0.85, 1.0, 0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            top = solve_init("crelu", 0.85, 1e308, 0.7)
            for f in (v_prime2, chi1_prime):
                scaled = f(top.spec, top.sw2, 1e308) * 1e308
                assert scaled == pytest.approx(f(one.spec, one.sw2, 1.0), rel=1e-12)

    @pytest.mark.parametrize("kind", ["crelu", "cst"])
    @pytest.mark.parametrize("q_star, m", [(1.0, 1e100), (1.0, 1e200), (1.0, 1e300),
                                           (1e-300, 1e300)])
    def test_clip_without_mass_is_no_clip(self, kind, q_star, m):
        """A clip far past the Gaussian's mass, even where m / sqrt(q*)
        overflows, gives the init of the clip m = 40, which has no mass in
        float either: bit for bit, with no warning."""
        def fields(clip):
            init = init_from_m(kind, 0.85, q_star, clip)
            curvature = v_prime2(init.spec, init.sw2, q_star)
            return init.sw2, init.sb2, init.v_prime_at_fp, curvature

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far, unclipped = fields(m), fields(40.0)
        assert far == unclipped
        assert all(math.isfinite(v) for v in far)


    @pytest.mark.parametrize("kind", ["crelu", "cst"])
    @pytest.mark.parametrize("q", [1e-300, 2.3e-308, 5e-324])
    def test_threshold_without_mass_is_a_dead_segment(self, kind, q):
        """Where q is so far below tau^2 that g(a) is 0, a = tau / sqrt(q)
        can pass 1e154: a^2 and x (1 - b^2) overflowed and met g(a) = 0 as
        inf * 0 (V'' at 1e-300 and V at 2.3e-308 read nan).  The segment
        has no mass in float, so V reads sb2 and every slope 0, with no
        warning."""
        init = solve_init(kind, 0.85, 100.0, 0.7)
        spec, sw2 = init.spec, init.sw2
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert v_map(spec, sw2, init.sb2, q) == init.sb2
            for f in (v_prime, v_prime2, chi1_prime, chi1):
                assert f(spec, sw2, q) == 0.0


class TestSensitivityAcrossFixedPoints:
    def test_chi1_prime_decreases_with_q_star_on_solved_inits(self):
        """At fixed sparsity and slope target, the growth-factor sensitivity
        falls as the fixed-point variance rises."""
        values = []
        for q in (1.0, 2.0, 3.0):
            init = solve_init("crelu", 0.85, q, 0.7)
            values.append(chi1_prime(init.spec, init.sw2, q))
        assert values[0] > values[1] > values[2] > 0.0
