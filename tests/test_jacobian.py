"""Tests of the Jacobian spectral moments and of simulated growth factors."""

import math

import numpy as np
import pytest

from eoc_lab.activations import ActivationSpec
from eoc_lab.jacobian import S1_GAUSSIAN_WEIGHTS, jacobian_moments
from eoc_lab.simulator import SimConfig, run_forward
from eoc_lab.solver import EocInit, init_from_m, relu_init, solve_init

from oracles import gauss_expect, kinks


class TestDerivativeMoments:
    def test_indicator_moments_identical_all_orders(self):
        """E[phi'^(2k)] is one probability for every k, checked against
        quadrature for k = 1..4."""
        for kind, s, v, q in [("crelu", 0.85, 0.7, 1.0), ("cst", 0.7, 0.9, 2.0)]:
            init = solve_init(kind, s, q, v)
            moments = jacobian_moments(init, depth=4)
            spec = init.spec
            for k in range(1, 5):
                quad = gauss_expect(
                    lambda z, k=k: spec.derivative(z) ** (2 * k), q, kinks=kinks(spec)
                )
                assert quad == pytest.approx(moments.mu1, abs=1e-12)
            assert moments.mu2 == moments.mu1

    def test_relu_critical_moments(self):
        moments = jacobian_moments(relu_init(1.0), depth=10)
        assert moments.mu1 == 0.5 and moments.mu2 == 0.5
        assert moments.m1 == pytest.approx(1.0, rel=1e-14)
        assert moments.sigma_jjt == pytest.approx(2.0 * 10, rel=1e-12)
        assert moments.s1 == S1_GAUSSIAN_WEIGHTS == -1.0


class TestSpectralMoments:
    def test_unit_first_moment_at_criticality(self):
        for depth in (1, 10, 100):
            for kind in ("crelu", "cst"):
                init = solve_init(kind, 0.85, 1.0, 0.7)
                assert jacobian_moments(init, depth).m1 == pytest.approx(1.0, abs=1e-9)

    def test_variance_linear_in_depth(self):
        init = solve_init("crelu", 0.85, 2.0, 0.7)
        for depth in (1, 4, 16):
            a = jacobian_moments(init, depth).sigma_jjt
            b = jacobian_moments(init, 2 * depth).sigma_jjt
            assert b == 2.0 * a

    def test_off_critical_rejected(self):
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        detuned = EocInit(
            spec=init.spec, q_star=init.q_star, sw2=0.9 * init.sw2,
            sb2=init.sb2, s=init.s, v_prime_at_fp=init.v_prime_at_fp,
        )
        with pytest.raises(ValueError):
            jacobian_moments(detuned, depth=5)

    def test_saturated_infinite_gain_is_not_critical(self):
        """A threshold no input reaches with an infinite gain makes chi1 =
        inf * 0 = nan, which is not 1, so the criticality check rejects it
        rather than letting the nan through."""
        dead = EocInit(ActivationSpec("crelu", 40.0, 1.0), 1.0, math.inf, 0.0, 0.99, 0.5)
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=r"only at criticality; chi1\(q\*\) = nan"
        ):
            jacobian_moments(dead, depth=5)

    def test_relu_moments_against_monte_carlo(self):
        """Trace moments of J J^T from explicit random networks, width 500
        and 10 layers, agree with the closed forms within 10 percent."""
        init = relu_init(1.0)
        depth, width, trials = 10, 500, 12
        pred = jacobian_moments(init, depth)
        rng = np.random.default_rng(77)
        m1_hat, m2_hat = [], []
        for _ in range(trials):
            h = rng.normal(0.0, math.sqrt(init.q_star), size=width)
            jac = np.eye(width)
            for _ in range(depth):
                w = rng.normal(0.0, math.sqrt(init.sw2 / width), size=(width, width))
                d = init.spec.derivative(h)
                jac = (d[:, None] * w) @ jac
                h = w @ init.spec.evaluate(h)
            jjt = jac @ jac.T
            m1_hat.append(np.trace(jjt) / width)
            m2_hat.append(np.sum(jjt * jjt) / width)
        m1_hat = float(np.mean(m1_hat))
        m2_hat = float(np.mean(m2_hat))
        assert m1_hat == pytest.approx(pred.m1, rel=0.10)
        assert m2_hat - m1_hat ** 2 == pytest.approx(pred.sigma_jjt, rel=0.10)


class TestErrorMomentTrajectory:
    def test_simulated_growth_factors_explode_at_wide_clip(self):
        """Growth factors read off a narrow network at a wide-clip unstable
        initialisation accumulate into an exploding product by depth 100.
        Whether one width-64 network escapes is close to a coin flip, and
        even the solved initialisation escapes now and then at width 64
        (1.3 % of 3000 seeds under explicit dense weights, 1.5 % under the
        simulator), so the claim is a gap in escape rates over 64 seeds:
        the wide clip in at least a quarter of them (it escapes in 48 %,
        25-37 per block of 64), the solved initialisation in at most 6
        (0-3 per block of 64)."""
        seeds = 64

        def escapes(init):
            count = 0
            for seed in range(seeds):
                config = SimConfig(init=init, depth=100, width=64, batch=8, seed=seed)
                if math.prod(st.chi1_hat for st in run_forward(config)) > 10.0:
                    count += 1
            return count

        assert escapes(init_from_m("crelu", 0.85, 1.0, 2.0)) >= 0.25 * seeds
        assert escapes(solve_init("crelu", 0.85, 1.0, 0.7)) <= 6
