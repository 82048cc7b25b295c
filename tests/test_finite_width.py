"""Tests of the finite-width correction recursions, closed forms and the
depth-independent envelope."""

import math
import warnings

import numpy as np
import pytest
from mpmath import mp

from eoc_lab._moments import _Kernel
from eoc_lab.finite_width import log_theorem1_bound, nlo_trajectory, theorem1_bound
from eoc_lab.maps import v_prime2
from eoc_lab.solver import init_from_m, relu_init, solve_init

from oracles import fourth_moment_innovation, lemma_q1_closed_form, lemma_r_closed_form


def random_valid_inits(n, seed):
    """Critical initialisations with slopes spread over (0, 1)."""
    rng = np.random.default_rng(seed)
    inits = []
    while len(inits) < n:
        s = float(rng.uniform(0.55, 0.95))
        v = float(rng.uniform(0.1, 0.95))
        q = float(rng.uniform(0.5, 4.0))
        kind = "cst" if len(inits) % 3 == 2 else "crelu"
        init = solve_init(kind, s, q, v)
        if 0.0 < init.v_prime_at_fp < 1.0:
            inits.append(init)
    return inits


class TestTrajectory:
    def test_first_layer_state(self):
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        states = nlo_trajectory(init, 1)
        assert len(states) == 1
        assert (states[0].q, states[0].r, states[0].q1) == (1.0, 0.0, 0.0)

    def test_second_layer_correction_still_zero(self):
        init = solve_init("crelu", 0.85, 1.0, 0.9)
        states = nlo_trajectory(init, 2)
        assert states[1].q1 == 0.0
        assert states[1].r == pytest.approx(fourth_moment_innovation(init), rel=1e-14)

    def test_variance_pinned_at_fixed_point(self):
        init = solve_init("cst", 0.8, 2.0, 0.7)
        for st in nlo_trajectory(init, 40):
            assert st.q == init.q_star

    def test_r_nondecreasing_and_geometric_convergence(self):
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        states = nlo_trajectory(init, 120)
        rs = [st.r for st in states]
        assert all(b >= a for a, b in zip(rs, rs[1:]))
        vp = init.v_prime_at_fp
        limit = fourth_moment_innovation(init) / (1.0 - vp * vp)
        assert rs[-1] == pytest.approx(limit, rel=1e-12)
        # geometric approach at rate V'^2, checked while the gap is still
        # well above subtraction noise
        gaps = [limit - r for r in rs[1:]]
        for a, b in zip(gaps, gaps[1:]):
            if a < 1e-8 * limit:
                break
            assert b == pytest.approx(vp * vp * a, rel=1e-6)


class TestClosedForms:
    def test_lemma_r_base_case(self):
        init = solve_init("crelu", 0.85, 2.0, 0.7)
        assert lemma_r_closed_form(init, 2) == pytest.approx(
            fourth_moment_innovation(init), rel=1e-14
        )

    def test_lemma_q1_base_case(self):
        init = solve_init("crelu", 0.85, 1.0, 0.9)
        vpp = v_prime2(init.spec, init.sw2, init.q_star)
        expected = 0.5 * vpp * lemma_r_closed_form(init, 2)
        assert lemma_q1_closed_form(init, 3) == pytest.approx(expected, rel=1e-13)

    def test_closed_forms_match_recursion_depth_50(self):
        init = solve_init("crelu", 0.85, 1.0, 0.9)
        states = nlo_trajectory(init, 50)
        assert lemma_r_closed_form(init, 50) == pytest.approx(states[49].r, rel=1e-10)
        assert lemma_q1_closed_form(init, 40) == pytest.approx(states[39].q1, rel=1e-10)

    def test_closed_forms_match_recursion_everywhere(self):
        for init in random_valid_inits(6, seed=41):
            states = nlo_trajectory(init, 200)
            for layer in (2, 3, 7, 50, 200):
                assert lemma_r_closed_form(init, layer) == pytest.approx(
                    states[layer - 1].r, rel=1e-9, abs=1e-12
                )
                if layer >= 3:
                    assert lemma_q1_closed_form(init, layer) == pytest.approx(
                        states[layer - 1].q1, rel=1e-9, abs=1e-12
                    )


class TestEnvelope:
    def test_trajectory_never_exceeds_bound(self):
        # the trajectory approaches the envelope asymptotically, so give the
        # 200-step recursion its accumulated-roundoff headroom (~1e-12 rel)
        for init in random_valid_inits(10, seed=42):
            bound = theorem1_bound(init)
            states = nlo_trajectory(init, 200)
            assert max(abs(st.q1) for st in states) <= bound * (1.0 + 1e-12)

    def test_near_zero_curvature_gives_near_zero_bound(self):
        """At the curvature sign change the envelope collapses; the grid
        prints 0.00 there and the exact value is below print precision."""
        init = solve_init("crelu", 0.9, 2.0, 0.5)
        vpp = v_prime2(init.spec, init.sw2, init.q_star)
        assert abs(vpp) < 0.005
        bound = theorem1_bound(init)
        expected = (
            0.5 * abs(vpp) * abs(fourth_moment_innovation(init))
            / ((1 - init.v_prime_at_fp) ** 2 * (1 + init.v_prime_at_fp))
        )
        assert bound == pytest.approx(expected, rel=1e-12)
        assert bound < 0.05

    def test_log_bound_decreases_with_q_star_at_fixed_clip(self):
        for s in (0.85, 0.9, 0.95):
            values = []
            for q in np.linspace(1.0, 3.0, 9):
                init = init_from_m("crelu", s, float(q), 2.0)
                values.append(log_theorem1_bound(init))
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_log_bound_finite_where_bound_overflows(self):
        """1 - V'(q*) is 1.6e-158 here, so the bound itself overflows to inf
        and its log is summed from the envelope's factors.  The pinned
        value is the same log at 220 digits: the oracle of
        ``TestSlopeGapPrecision`` (``mp.diff`` of ``_mp_cst_moment`` at the
        exact critical gain) evaluated at this init under
        ``mp.workdps(220)``, which took about 21 s."""
        init = init_from_m("cst", 0.85, 0.01, 2.57)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert theorem1_bound(init) == math.inf
            log_bound = log_theorem1_bound(init)
        assert abs(log_bound / 722.22459615629969 - 1) <= 1e-13

    def test_precondition(self):
        with pytest.raises(ValueError):
            theorem1_bound(relu_init(1.0))


class TestScaleOfQStar:
    """The bound and q1 scale like q* and r like q*^2, though E[phi^4] and
    E[phi^2]^2 leave the float range above q* of about 1e154 and below
    about 1e-154."""

    @pytest.mark.parametrize("kind", ["crelu", "cst"])
    def test_bound_and_trajectory_in_units_of_q_star(self, kind):
        one = solve_init(kind, 0.85, 1.0, 0.7)
        bound = theorem1_bound(one)
        states = nlo_trajectory(one, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for q in 10.0 ** np.arange(-300, 301, 25):
                init = solve_init(kind, 0.85, float(q), 0.7)
                assert abs(theorem1_bound(init) / q / bound - 1) <= 1e-12, q
                for st, ref in zip(nlo_trajectory(init, 12)[2:], states[2:]):
                    assert abs(st.q1 / q / ref.q1 - 1) <= 1e-12, q
                    if 1e-100 <= q <= 1e100:
                        assert abs(st.r / (q * q) / ref.r - 1) <= 1e-12, q

    def test_r_overflows_alone(self):
        """At q* = 1e200, r ~ q*^2 exceeds the float range and reads inf;
        q1 and the bound do not."""
        init = solve_init("crelu", 0.85, 1e200, 0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = nlo_trajectory(init, 5)
            bound = theorem1_bound(init)
        assert [st.r for st in states[1:]] == [math.inf] * 4
        assert all(math.isfinite(st.q1) for st in states)
        assert math.isfinite(bound)


def _mp_cst_moment(tau, m, q, k):
    """E[cst(z)^k] for z ~ N(0, q) and even k, by quadrature of the
    definition: twice the integral over the positive half-line."""
    s = mp.sqrt(q)
    body = mp.quad(lambda u: (u - tau) ** k * mp.npdf(u, 0, s), [tau, tau + m])
    return 2 * (body + m ** k * mp.ncdf(-(tau + m) / s))


class TestSlopeGapPrecision:
    """Near the saturated corner of the cst plane 1 - V'(q*) falls below
    the ulp of 1: V' reads exactly 1.0 at m = 2.5 and 3.0, and 1 - V'
    keeps only three digits at m = 2.  The kernel's x g(b) / i0 keeps them
    all; the oracle differentiates the quadrature of the defining integral
    at 50 digits, at the exact critical gain for the same (tau, m, q*)."""

    @pytest.mark.parametrize("m", [2.0, 2.5, 3.0])
    def test_gap_and_bound_match_50_digit_oracle(self, m):
        init = init_from_m("cst", 0.8, 0.09, m)
        with mp.workdps(50):
            tau, clip, q = mp.mpf(init.spec.tau), mp.mpf(init.spec.m), mp.mpf(init.q_star)
            s = mp.sqrt(q)
            sw2 = 1 / (2 * (mp.ncdf(-tau / s) - mp.ncdf(-(tau + clip) / s)))

            def second(t):
                return _mp_cst_moment(tau, clip, t, 2)

            vp = sw2 * mp.diff(second, q)
            vpp = sw2 * mp.diff(second, q, 2)
            gap = 1 - vp
            inject = sw2 ** 2 * (_mp_cst_moment(tau, clip, q, 4) - second(q) ** 2)
            bound = abs(vpp) * abs(inject) / (2 * gap ** 2 * (1 + vp))
        assert 0.0 < gap < 1e-12
        kernel_gap = _Kernel.at(init.spec, init.q_star).slope_gap
        assert abs(kernel_gap / gap - 1) <= 1e-12
        assert abs(theorem1_bound(init) / bound - 1) <= 1e-10
