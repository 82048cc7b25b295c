"""Tests of initialisation solving and fixed-point reporting."""

import json
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from eoc_lab import cli
from eoc_lab.activations import ActivationSpec
from eoc_lab.gaussian import normal_quantile
from eoc_lab.maps import chi1, v_map, v_prime, v_prime2
from eoc_lab.solver import (
    EocInit,
    FixedPoint,
    InfeasibleTargetError,
    find_fixed_points,
    init_from_m,
    relu_init,
    solve_init,
    _bisect,
    sparsity_threshold,
)

from test_gaussian import bisect_series_quantile, series_normal_cdf

import reference_tables as tables


def bisect_series_erf_inv(p, lo=0.0, hi=8.0):
    """Independent inverse-erf oracle built on the series CDF
    (erf(t) = 2 Phi(t sqrt(2)) - 1)."""
    def series_erf(t):
        return 2.0 * series_normal_cdf(t * math.sqrt(2.0)) - 1.0

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if series_erf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _brackets_root(f, x):
    """f vanishes at x, or changes sign between x and a neighbouring float."""
    sign = math.copysign(1.0, f(x))
    return f(x) == 0.0 or any(
        math.copysign(1.0, f(math.nextafter(x, side))) != sign for side in (-math.inf, math.inf)
    )


class TestBisect:
    @pytest.mark.parametrize(
        "f, lo, hi, root",
        [
            (lambda x: x ** 3 - 2.0, 0.0, 2.0, lambda: mp.cbrt(2)),
            (math.sin, 3.0, 4.0, lambda: mp.pi),
            (lambda x: 1e-3 - x, -5.0, 5.0, lambda: mp.mpf("1e-3")),
        ],
    )
    def test_root_within_one_ulp(self, f, lo, hi, root):
        x = _bisect(f, lo, hi)
        assert _brackets_root(f, x)
        with mp.workdps(40):
            assert abs(mp.mpf(x) - root()) <= math.ulp(x)

    def test_root_on_a_plateau_of_zeros(self):
        """fl(log x) == 50 holds on a plateau 34 ulps wide around e^50, so
        the bisection stops where f is exactly zero."""
        x = _bisect(lambda x: math.log(x) - 50.0, 1.0, 1e30)
        assert math.log(x) == 50.0
        with mp.workdps(40):
            assert abs(mp.mpf(x) - mp.exp(50)) <= 20 * math.ulp(x)

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            _bisect(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_root_at_endpoint_returned(self):
        assert _bisect(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert _bisect(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_golden_clip_levels_to_the_last_bits(self):
        """m / sqrt(q*) against a 50-digit root of the same slope residual,
        g(x) = 1 - x g(a + x) / (Phi(a + x) - Phi(a)) - V', taken at the
        float a = Phi^-1(s) the solver uses."""
        worst = 0.0
        for s, v in sorted({(s, v) for (s, v, _) in tables.ONE_SIDED}):
            a = normal_quantile(s)
            with mp.workdps(50):
                ma, mv = mp.mpf(a), mp.mpf(v)
                for q in (1.0, 2.0, 3.0):
                    x = solve_init("crelu", s, q, v).spec.m / math.sqrt(q)
                    root = mp.findroot(
                        lambda t: 1 - t * mp.npdf(ma + t) / (mp.ncdf(ma + t) - mp.ncdf(ma)) - mv,
                        mp.mpf(x),
                    )
                    worst = max(worst, float(abs(mp.mpf(x) - root)))
        assert worst <= 2e-15


class TestSparsityThreshold:
    def test_median_sparsity_means_zero_threshold(self):
        for q in (0.4, 1.0, 9.0):
            assert sparsity_threshold("crelu", 0.5, q) == 0.0

    def test_one_sided_against_quantile_oracle(self):
        oracle = bisect_series_quantile(0.85)
        assert sparsity_threshold("crelu", 0.85, 1.0) == pytest.approx(oracle, abs=1e-9)

    def test_two_sided_against_erf_inv_oracle(self):
        oracle = 2.0 * bisect_series_erf_inv(0.85)
        assert sparsity_threshold("cst", 0.85, 2.0) == pytest.approx(oracle, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sparsity_threshold("crelu", 0.0, 1.0)
        with pytest.raises(ValueError):
            sparsity_threshold("crelu", 0.5, -1.0)


class TestSolveInit:
    @pytest.mark.parametrize(
        "s,v,q,m_expected",
        [(0.6, 0.5, 1.0, 1.22), (0.85, 0.7, 3.0, 2.03), (0.9, 0.7, 2.0, 1.50)],
    )
    def test_spot_clip_levels(self, s, v, q, m_expected):
        init = solve_init("crelu", s, q, v)
        assert init.spec.m == pytest.approx(m_expected, abs=0.01)

    def test_round_trip_conditions(self):
        for (s, v, q) in [(0.6, 0.5, 1.0), (0.8, 0.9, 2.0), (0.85, 0.7, 3.0), (0.9, 0.9, 1.0)]:
            for kind in ("crelu", "cst"):
                init = solve_init(kind, s, q, v)
                assert abs(chi1(init.spec, init.sw2, q) - 1.0) <= 1e-9
                assert abs(v_map(init.spec, init.sw2, init.sb2, q) - q) <= 1e-9 * max(1.0, q)
                assert init.sb2 >= 0.0
                assert 0.0 < init.v_prime_at_fp < 1.0

    def test_one_sided_achieves_requested_slope(self):
        init = solve_init("crelu", 0.85, 2.0, 0.7)
        assert init.v_prime_at_fp == pytest.approx(0.7, abs=1e-10)

    def test_solved_thresholds_follow_sparsity_formula(self):
        for kind in ("crelu", "cst"):
            init = solve_init(kind, 0.8, 2.0, 0.7)
            assert init.spec.tau == sparsity_threshold(kind, 0.8, 2.0)

    def test_two_sided_shares_clip_level_with_one_sided(self):
        """Both families solve the slope equation in the one-sided threshold
        convention, so the clip level matches cell for cell."""
        one = solve_init("crelu", 0.7, 2.0, 0.9)
        two = solve_init("cst", 0.7, 2.0, 0.9)
        assert two.spec.m == pytest.approx(one.spec.m, abs=1e-12)
        assert two.spec.tau == pytest.approx(sparsity_threshold("cst", 0.7, 2.0))
        # achieved two-sided slope is a derived quantity, not the target
        assert two.v_prime_at_fp == pytest.approx(
            v_prime(two.spec, two.sw2, 2.0), abs=1e-14
        )

    def test_monte_carlo_sparsity_of_solved_inits(self):
        for i, (kind, s, v, q) in enumerate(
            [("crelu", 0.85, 0.7, 1.0), ("crelu", 0.6, 0.5, 3.0), ("cst", 0.8, 0.9, 2.0)]
        ):
            init = solve_init(kind, s, q, v)
            rng = np.random.default_rng(900 + i)
            z = math.sqrt(q) * rng.standard_normal(1_000_000)
            frac = float(np.mean(init.spec.evaluate(z) == 0.0))
            se = math.sqrt(s * (1.0 - s) / 1_000_000)
            assert abs(frac - s) <= 3.0 * se

    def test_clip_level_monotone_in_q_star(self):
        for (s, v) in {(s, v) for (s, v, _) in tables.ONE_SIDED}:
            ms = [solve_init("crelu", s, q, v).spec.m for q in (1.0, 2.0, 3.0)]
            assert ms[0] < ms[1] < ms[2]

    def test_curvature_shrinks_with_q_star_at_high_sparsity(self):
        for s in (0.85, 0.9):
            for v in (0.5, 0.7, 0.9):
                mags = []
                for q in (1.0, 2.0, 3.0):
                    init = solve_init("crelu", s, q, v)
                    mags.append(abs(v_prime2(init.spec, init.sw2, q)))
                assert mags[0] > mags[1] > mags[2]

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            solve_init("crelu", 1.2, 1.0, 0.5)
        with pytest.raises(ValueError):
            solve_init("crelu", 0.8, 1.0, 1.5)
        with pytest.raises(ValueError):
            solve_init("crelu", 0.8, -2.0, 0.5)
        with pytest.raises(InfeasibleTargetError):
            solve_init("relu", 0.5, 1.0, 0.5)

    def test_bias_variance_stays_feasible_on_adversarial_grid(self):
        """Criticality keeps the required bias variance nonnegative even for
        extreme clip levels; the infeasibility guard is a backstop."""
        for s in (0.505, 0.6, 0.9):
            for q in (0.5, 5.0, 40.0):
                for m in (0.05, 3.0, 40.0):
                    init = init_from_m("crelu", s, q, m)
                    assert init.sb2 >= 0.0

    def test_negative_bias_variance_branch_raises(self, monkeypatch):
        from eoc_lab import _moments

        # sb2 is the kernel's bias_variance, subtracted at q0 from E[phi^2]
        # at q0; inflate that past what sw2 allows
        monkeypatch.setattr(_moments._Kernel, "_second0", property(lambda self: 1e9))
        with pytest.raises(InfeasibleTargetError, match="negative"):
            init_from_m("crelu", 0.6, 1.0, 1.0)

    @pytest.mark.parametrize("q_star", [5e-324, 1.5e-323, 5e-309])
    @pytest.mark.parametrize("kind", ["crelu", "cst"])
    def test_subnormal_qstar_is_the_q0_init_scaled(self, kind, q_star):
        """At a subnormal q* = 4^k q0 the threshold and clip level are their
        q0 values times 2^k and sb2 its q0 value times 4^k, rounded once.
        The threshold is formed at q0: sqrt(2 q*) rounds 2 q* first, which
        made tau 0 at 5e-324 and 18 % off at 1.5e-323."""
        k = (math.frexp(q_star)[1] - 1) // 2
        q0 = math.ldexp(q_star, -2 * k)
        for make, last, last_power in ((solve_init, 0.7, 0), (init_from_m, 2.6, 1)):
            at_q0 = make(kind, 0.85, q0, last)
            init = make(kind, 0.85, q_star, math.ldexp(last, last_power * k))
            spec = ActivationSpec(kind, math.ldexp(at_q0.spec.tau, k),
                                  math.ldexp(at_q0.spec.m, k))
            assert init == replace(at_q0, spec=spec, q_star=q_star,
                                   sb2=math.ldexp(at_q0.sb2, 2 * k))
            assert sparsity_threshold(kind, 0.85, q_star) == spec.tau > 0.0
            assert sparsity_threshold(kind, 0.85, np.array([q_star, q0])).tolist() == [
                spec.tau, at_q0.spec.tau]

    def test_init_from_m_names_relu_as_unclipped(self):
        with pytest.raises(ValueError, match=r"clipped families .* use relu_init"):
            init_from_m("relu", 0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="unknown activation kind 'gelu'"):
            init_from_m("gelu", 0.85, 1.0, 1.0)

    def test_nan_second_moment_is_infeasible(self, monkeypatch):
        """A nan E[phi^2] makes sb2 nan; the verdict reads nan as failing the
        bias-variance condition, which names it instead of returning the init."""
        from eoc_lab import _moments

        monkeypatch.setattr(_moments._Kernel, "_second0", property(lambda self: math.nan))
        with pytest.raises(InfeasibleTargetError,
                           match=r"required bias variance is negative or nan \(nan\)"):
            init_from_m("crelu", 0.85, 1.0, 2.0)

    def test_inconsistent_init_fails_validation(self):
        from eoc_lab import solver
        from eoc_lab._moments import _Kernel

        init = solve_init("crelu", 0.85, 1.0, 0.7)
        sw2, sb2, verdict = solver._critical(_Kernel.at(init.spec, init.q_star))
        assert (sw2, sb2, verdict) == (init.sw2, init.sb2, -1)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(kind=st.sampled_from(["crelu", "cst", "relu"]),
           s=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           log_q=st.floats(-300.0, 300.0), log_x=st.floats(-6.0, 3.0))
    @example(kind="crelu", s=math.nextafter(1.0, 0.0), log_q=0.0, log_x=-6.0)  # saturated
    @example(kind="cst", s=math.nextafter(1.0, 0.0), log_q=0.0, log_x=-6.0)  # sb2 < 0
    def test_critical_meets_both_conditions_by_construction(self, kind, s, log_q, log_x):
        """Where the verdict accepts a cell, chi1(q*) = 1 and V(q*) = q*
        hold without being tested; it reads saturated exactly where
        P(phi' = 1) is 0.  relu reads no s."""
        from eoc_lab import solver
        from eoc_lab._moments import _Kernel

        assume(kind != "crelu" or s >= 0.5)
        q_star = 10.0 ** log_q
        if kind == "relu":
            spec = ActivationSpec(kind)
        else:
            spec = ActivationSpec(kind, sparsity_threshold(kind, s, q_star),
                                  10.0 ** log_x * math.sqrt(q_star))
        k = _Kernel.at(spec, q_star)
        sw2, sb2, verdict = solver._critical(k)
        if verdict == -1:
            assert abs(k.chi1(sw2) - 1.0) <= 1e-9
            assert abs(sw2 * k.second - (q_star - sb2)) <= 1e-9 * max(1.0, q_star)
        assert (verdict == solver._SATURATED) == (k.linear == 0.0)

    @pytest.mark.parametrize("init", [
        relu_init(3.0), solve_init("crelu", 0.85, 1.0, 0.7), solve_init("cst", 0.85, 2.0, 0.7),
    ])
    def test_json_roundtrip(self, init, capsys):
        """Through the text the strict writer prints, relu's m = inf as null."""
        cli._emit_json(init.to_dict())
        assert EocInit.from_dict(json.loads(capsys.readouterr().out)) == init

    def test_from_dict_rejects_unknown_and_missing_keys(self):
        doc = relu_init(3.0).to_dict()
        with pytest.raises(TypeError):
            EocInit.from_dict({**doc, "extra": 1.0})
        del doc["sb2"]
        with pytest.raises(TypeError):
            EocInit.from_dict(doc)


class TestReluInit:
    def test_canonical_values(self):
        init = relu_init(3.0)
        assert init.sw2 == 2.0 and init.sb2 == 0.0 and init.s == 0.5
        assert chi1(init.spec, init.sw2, 3.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize(
        "q", [5e-324, 5e-309, 2.2250738585072014e-308, 2.5e-308, 3e-308, 4.4e-308,
              1e-300, 1e-150, 1e-12, 0.3, 1.0, 3.7, 1e6, 1e150, 1e300])
    def test_exact_across_the_float_range(self, q):
        assert relu_init(q) == EocInit(ActivationSpec("relu"), q, 2.0, 0.0, 0.5, 1.0)


class TestFixedPoints:
    def test_relu_degenerate_line(self):
        report = find_fixed_points(relu_init(1.0), lo=0.1, hi=10.0)
        assert report.degenerate_line
        assert report.points[0].q == 1.0

    def test_wide_clip_has_second_fixed_point(self):
        init = init_from_m("crelu", 0.85, 1.0, 2.0)
        report = find_fixed_points(init, lo=0.1, hi=10.0)
        assert not report.degenerate_line
        extra = [p.q for p in report.points if p.q > 2.0]
        assert len(extra) == 1
        assert extra[0] == pytest.approx(3.5, abs=0.3)
        for p in report.points:
            resid = v_map(init.spec, init.sw2, init.sb2, p.q) - p.q
            assert abs(resid) <= 1e-8 * max(1.0, p.q)
            assert p.stable == (abs(p.slope) < 1.0)

    def test_narrow_clip_has_single_fixed_point(self):
        init = init_from_m("crelu", 0.85, 1.0, 1.2)
        report = find_fixed_points(init, lo=0.1, hi=10.0)
        assert [p.q for p in report.points] == [pytest.approx(1.0, abs=1e-9)]

    @pytest.mark.parametrize("q_star", [3e-308, 1e-150, 1e-12, 1e-6, 1.0, 1e6, 1e150])
    def test_search_is_scale_invariant(self, q_star):
        init = init_from_m("crelu", 0.85, q_star, 2.0 * math.sqrt(q_star))
        report = find_fixed_points(init)
        assert not report.degenerate_line
        assert [p.q / q_star for p in report.points] == [
            pytest.approx(x, rel=1e-12) for x in (1.0, 1.2347663871617, 3.4765254748842)
        ]
        assert find_fixed_points(relu_init(q_star)).degenerate_line

    def test_root_on_the_upper_end_is_reported(self):
        init = init_from_m("crelu", 0.85, 1.0, 2.0)
        hi = 1.2347663871617907
        assert v_map(init.spec, init.sw2, init.sb2, hi) - hi == 0.0
        report = find_fixed_points(init, lo=0.5, hi=hi)
        assert [p.q for p in report.points] == [1.0, hi]

    def test_subnormal_lower_end_is_the_q0_search(self):
        """A subnormal lower end, the q*/20 default or a given one, is a
        variance like any other (it was refused as --lo): the report is
        the q0 report scaled, each end rounded once.  A lower end that is
        not positive is refused as --lo."""
        q_star = 1e-307
        k = (math.frexp(q_star)[1] - 1) // 2
        report = find_fixed_points(relu_init(q_star))
        at_q0 = find_fixed_points(relu_init(math.ldexp(q_star, -2 * k)))
        assert report.degenerate_line and report.points == (FixedPoint(q_star, 1.0, False),)
        for end, end0 in zip(report.search_interval, at_q0.search_interval):
            assert abs(end - math.ldexp(end0, 2 * k)) <= math.ulp(0.0)
        init = init_from_m("crelu", 0.85, 1.0, 2.0)
        given = find_fixed_points(init, lo=1e-310, hi=10.0)
        assert [p.q for p in given.points] == [
            pytest.approx(p.q, rel=1e-12) for p in find_fixed_points(init, lo=0.1, hi=10.0).points
        ]
        with pytest.raises(ValueError, match="--lo"):
            find_fixed_points(init, lo=0.0)

    @pytest.mark.parametrize("q_star", [5e-324, 1.5e-323, 9e306, sys.float_info.max])
    def test_default_interval_is_held_in_the_float_range(self, q_star):
        """[q*/20, 20 q*] starts at the smallest subnormal where q*/20
        rounds to 0 (at q* = 5e-324 it starts at q*) and ends at the
        largest float where 20 q* overflows; the search runs without a
        RuntimeWarning and reports q*."""
        for init in (relu_init(q_star), init_from_m("cst", 0.85, q_star, 2.6 * math.sqrt(q_star))):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                report = find_fixed_points(init)
            assert report.search_interval == (max(q_star / 20.0, math.ulp(0.0)),
                                              min(q_star * 20.0, sys.float_info.max))
            assert q_star in [p.q for p in report.points]

    def test_interval_validation(self):
        init = init_from_m("crelu", 0.85, 1.0, 1.2)
        with pytest.raises(ValueError):
            find_fixed_points(init, lo=2.0, hi=10.0)
        with pytest.raises(ValueError, match="hi must be finite"):
            find_fixed_points(init, lo=0.1, hi=math.inf)
