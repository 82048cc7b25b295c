"""Tests of the finite-width Monte Carlo simulator."""

import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from eoc_lab import cli
from eoc_lab.activations import ActivationSpec
from eoc_lab.maps import chi1
from eoc_lab.simulator import (
    SimConfig,
    _conditional_pass,
    _correlated_input_pair,
    _design,
    _draw_inputs,
    _pull_down,
    run_backward,
    run_correlation,
    run_forward,
)
from eoc_lab.solver import EocInit, find_fixed_points, init_from_m, relu_init, solve_init

from oracles import (
    backward_keeping_h,
    dense_backward,
    dense_forward,
    iterated_correlation,
    lemma_q1_closed_form,
)


def scaled_gain(init, factor):
    """The same initialisation with the weight gain multiplied by factor,
    which moves chi1(q*) to exactly that factor."""
    return EocInit(
        spec=init.spec,
        q_star=init.q_star,
        sw2=factor * init.sw2,
        sb2=init.sb2,
        s=init.s,
        v_prime_at_fp=init.v_prime_at_fp,
    )


class TestDeterminism:
    def test_identical_seeds_bitwise_equal(self):
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        config = SimConfig(init=init, depth=6, width=64, batch=8, seed=123)
        a = run_forward(config)
        b = run_forward(config)
        assert a == b

    def test_different_seeds_differ(self):
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        a = run_forward(SimConfig(init=init, depth=6, width=64, batch=8, seed=1))
        b = run_forward(SimConfig(init=init, depth=6, width=64, batch=8, seed=2))
        assert a != b

    def test_width_change_keeps_other_layer_streams(self):
        """Per-layer substreams: the input draw is the same stream whatever
        the width, so its leading entries coincide across widths."""
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        small = _draw_inputs(SimConfig(init=init, depth=4, width=16, batch=4, seed=9))
        large = _draw_inputs(SimConfig(init=init, depth=4, width=32, batch=4, seed=9))
        assert np.allclose(small.ravel()[:32], large.ravel()[:32])


def dense_stats(states, pair_rows=None):
    """Per-layer (q_hat, sparsity_hat) as the simulator reports them, plus
    rho_hat when pair_rows says where a stacked second input begins."""
    out = []
    for h, x, _ in states:
        row = [float(np.mean(h * h)), float(np.mean(x == 0.0))]
        if pair_rows is not None:
            ha, hb = h[:pair_rows], h[pair_rows:]
            dot = np.sum(ha * hb, axis=1)
            rho = dot / np.sqrt(np.sum(ha * ha, axis=1) * np.sum(hb * hb, axis=1))
            row.append(float(np.mean(rho)))
        out.append(row)
    return out


class TestConditionalLaw:
    """Runs draw each layer's pre-activations from their law given the
    layer below, and the backward pass its weights given that draw; over
    many seeds their statistics must match a network drawn with explicit
    weights, layer by layer.  At 300 seeds the q_hat SD ratio of an exact
    sampler leaves [0.8, 1.25] in about a third of seed sets; at 1000 it
    stayed within 0.86-1.15 for every set measured."""

    SEEDS = 1000
    DEPTH = 6

    @staticmethod
    def assert_same_law(conditional, dense):
        # arrays of shape (seeds, layers, quantities)
        n = conditional.shape[0]
        sd_c = conditional.std(axis=0, ddof=1)
        sd_d = dense.std(axis=0, ddof=1)
        se = np.sqrt((sd_c ** 2 + sd_d ** 2) / n)
        gap = np.abs(conditional.mean(axis=0) - dense.mean(axis=0))
        assert np.all(gap <= 4.0 * se), gap / se
        ratio = sd_c / sd_d
        assert np.all((ratio >= 0.8) & (ratio <= 1.25)), ratio

    def test_forward_matches_dense_weights(self):
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        conditional, dense = [], []
        for seed in range(self.SEEDS):
            config = SimConfig(init=init, depth=self.DEPTH, width=16, batch=4, seed=seed)
            conditional.append([(st.q_hat, st.sparsity_hat) for st in run_forward(config)])
            states = dense_forward(init, _draw_inputs(config), self.DEPTH,
                                   np.random.default_rng([seed, 1]))
            dense.append(dense_stats(states))
        self.assert_same_law(np.array(conditional), np.array(dense))

    def test_correlation_matches_dense_weights(self):
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        conditional, dense = [], []
        for seed in range(self.SEEDS):
            config = SimConfig(init=init, depth=self.DEPTH, width=16, batch=4, seed=seed)
            conditional.append(
                [(st.q_hat, st.sparsity_hat, st.rho_hat) for st in run_correlation(config, 0.3)]
            )
            stacked = np.concatenate(_correlated_input_pair(config, 0.3), axis=0)
            states = dense_forward(init, stacked, self.DEPTH, np.random.default_rng([seed, 2]))
            dense.append(dense_stats(states, config.batch))
        self.assert_same_law(np.array(conditional), np.array(dense))

    def test_backward_matches_dense_weights(self):
        """The error moment is a product of per-layer factors and heavy
        tailed: at 300 seeds the SD ratio of v_hat itself spans 0.76-1.65
        over seed sets even between two dense samplers, so its log is
        compared."""
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        conditional, dense = [], []
        for seed in range(self.SEEDS):
            config = SimConfig(init=init, depth=self.DEPTH, width=64, batch=4, seed=seed)
            conditional.append([[st.v_hat] for st in run_backward(config)])
            rng = np.random.default_rng([seed, 3])
            states = dense_forward(init, _draw_inputs(config), self.DEPTH, rng)
            top_error = rng.standard_normal((config.batch, config.width))
            dense.append([[v] for v in dense_backward(init, states, top_error)])
        self.assert_same_law(np.log(conditional), np.log(dense))

    def test_more_rows_than_width(self):
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        config = SimConfig(init=init, depth=5, width=8, batch=64, seed=3)
        forward = run_forward(config)
        paired = run_correlation(config, 0.5)
        for st in forward + paired:
            assert math.isfinite(st.q_hat) and st.q_hat > 0.0
            assert 0.0 <= st.sparsity_hat <= 1.0
        assert all(math.isfinite(st.rho_hat) for st in paired)

    @pytest.mark.parametrize("rho0", [1.0, -1.0])
    def test_duplicate_and_opposite_inputs(self, rho0):
        """rho0 = +-1 makes the stacked rows linearly dependent; the first
        layer is linear, so its correlation is exactly rho0."""
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        config = SimConfig(init=init, depth=3, width=64, batch=8, seed=5)
        stats = run_correlation(config, rho0)
        assert stats[0].rho_hat == pytest.approx(rho0, abs=1e-12)
        assert all(math.isfinite(st.rho_hat) for st in stats)


def zero_bias(init):
    return EocInit(spec=init.spec, q_star=init.q_star, sw2=init.sw2, sb2=0.0,
                   s=init.s, v_prime_at_fp=init.v_prime_at_fp)


class TestConditioning:
    """The backward pass draws each layer's weights times the error given
    the forward draw h = A theta, so A (theta delta^T) must equal
    h delta^T to round-off at every layer, however degenerate A is."""

    @staticmethod
    def assert_conditioned(config, x0):
        states = list(_conditional_pass(config, x0))
        delta = np.random.default_rng(config.seed).standard_normal(x0.shape)
        for (_, _, x_below, *_), (layer, h, _, u, s) in zip(states, states[1:]):
            a = _design(config.init, layer, x_below)
            theta_delta = _pull_down(a, u, s, h @ delta.T, delta,
                                     np.random.default_rng([config.seed, layer]))
            gap = np.linalg.norm(a @ theta_delta - h @ delta.T)
            assert gap <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(theta_delta), layer
        return states

    def test_plain(self):
        config = SimConfig(init=solve_init("crelu", 0.85, 1.0, 0.7), depth=6, width=64,
                           batch=8, seed=3)
        self.assert_conditioned(config, _draw_inputs(config))

    def test_duplicate_rows(self):
        config = SimConfig(init=solve_init("crelu", 0.85, 1.0, 0.7), depth=6, width=64,
                           batch=8, seed=5)
        self.assert_conditioned(config, np.concatenate(_correlated_input_pair(config, 1.0)))

    def test_more_rows_than_parameters_per_unit(self):
        config = SimConfig(init=solve_init("crelu", 0.85, 1.0, 0.7), depth=6, width=16,
                           batch=40, seed=7)
        self.assert_conditioned(config, _draw_inputs(config))

    def test_dead_layer(self):
        """Without biases this odd-activation stack dies by layer 5 (h = 0
        exactly), after which A = 0 and nothing is conditioned on."""
        config = SimConfig(init=zero_bias(solve_init("cst", 0.7, 1.0, 0.7)), depth=6,
                           width=16, batch=4, seed=1)
        states = self.assert_conditioned(config, _draw_inputs(config))
        assert not np.any(states[-2][1]) and not np.any(states[-1][1])


class TestForward:
    def test_variance_and_sparsity_track_predictions(self):
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        config = SimConfig(init=init, depth=20, width=1000, batch=64, seed=1)
        stats = run_forward(config)
        qs = [st.q_hat for st in stats[4:]]
        sp = [st.sparsity_hat for st in stats[4:]]
        assert np.mean(qs) == pytest.approx(init.q_star, rel=0.05)
        assert np.mean(sp) == pytest.approx(0.85, abs=0.02)

    def test_variance_preserving_stack_is_flat(self):
        """The critical relu stack has V(q) = q exactly; its empirical
        variance random-walks without restoring force, so the tolerance is
        sized to the marginal-stability fluctuation scale."""
        config = SimConfig(init=relu_init(1.0), depth=8, width=4000, batch=32, seed=13)
        stats = run_forward(config)
        for st in stats:
            assert st.q_hat == pytest.approx(1.0, abs=0.3)

    def test_escape_from_critical_basin_at_wide_clip(self):
        """A wide-clip map has a second, outer fixed point.  Inputs landed
        above the basin boundary leave q* and climb toward the outer fixed
        point (where the growth factor exceeds 1), tracking the iterated map.
        The clip bounds V, so nothing runs to infinity; the failure mode is
        the escape itself."""
        init = init_from_m("crelu", 0.85, 1.0, 2.0)
        report = find_fixed_points(init, lo=0.1, hi=10.0)
        outer = max(p.q for p in report.points)
        basin_edge = sorted(p.q for p in report.points)[1]
        assert chi1(init.spec, init.sw2, outer) > 1.0

        config = SimConfig(
            init=init, depth=20, width=1000, batch=32, seed=17, input_variance=2.0
        )
        qs = [st.q_hat for st in run_forward(config)]
        assert qs[0] > basin_edge
        assert np.mean(qs[-3:]) > np.mean(qs[:3]) + 0.4
        assert qs[-1] > 2.4  # far from q* = 1, heading for the outer point

        # landed above the outer fixed point: the map pulls the variance
        # down toward it, not back to q* and not off to infinity
        config_hi = SimConfig(
            init=init, depth=20, width=1000, batch=32, seed=17, input_variance=4.0
        )
        qs_hi = [st.q_hat for st in run_forward(config_hi)]
        assert all(q > 2.8 for q in qs_hi)
        assert 2.8 < qs_hi[-1] < 4.2

    def test_config_validation(self):
        init = relu_init(1.0)
        with pytest.raises(ValueError):
            SimConfig(init=init, depth=1, width=64)
        with pytest.raises(ValueError):
            SimConfig(init=init, depth=4, width=4)
        with pytest.raises(ValueError):
            SimConfig(init=init, depth=4, width=64, batch=0)
        for variance in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="variance must be positive and finite"):
                SimConfig(init=init, depth=4, width=64, input_variance=variance)


class TestBackward:
    def test_error_moment_flat_at_criticality(self):
        """Layer-to-layer ratios of the error moment match the growth
        factor at that layer's empirical variance, within 10 percent."""
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        config = SimConfig(init=init, depth=12, width=2000, batch=32, seed=19)
        stats = run_backward(config)
        for i in range(1, 10):
            ratio = stats[i].v_hat / stats[i + 1].v_hat
            assert ratio == pytest.approx(stats[i].chi1_hat, rel=0.10)

    def test_error_moment_decays_at_reduced_gain(self):
        """Scaling the gain to 0.8 sets the growth factor to 0.8 at q*; the
        off-critical variance then drifts, so the measured geometric decay
        rate is compared against the growth factor evaluated along the
        realised variance trajectory."""
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        config = SimConfig(
            init=scaled_gain(init, 0.8), depth=8, width=2000, batch=64, seed=23
        )
        stats = run_backward(config)
        rate = (stats[1].v_hat / stats[5].v_hat) ** 0.25
        oracle = float(np.prod([stats[i].chi1_hat for i in range(1, 5)])) ** 0.25
        assert abs(rate - oracle) <= 0.05
        assert abs(oracle - 0.8) <= 0.10  # the nominal detuning, minus drift

    def test_single_step_ratio_equals_empirical_growth_factor(self):
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        config = SimConfig(init=init, depth=2, width=2000, batch=64, seed=29)
        stats = run_backward(config)
        ratio = stats[0].v_hat / stats[1].v_hat
        assert ratio == pytest.approx(stats[0].chi1_hat, rel=0.05)


def scaled_lengths(init, c):
    """The same network with every length multiplied by c: pre-activations
    scale by c, q* and sb2 by c^2, and the gain is unchanged."""
    spec = ActivationSpec(init.spec.kind, init.spec.tau * c, init.spec.m * c)
    return EocInit(spec=spec, q_star=init.q_star * c * c, sw2=init.sw2,
                   sb2=init.sb2 * c * c, s=init.s, v_prime_at_fp=init.v_prime_at_fp)


# sha256 of the CSVs of small simulate, simulate --backward and correlate
# runs of the symmetric-root sampler, h = (u s u^T) Z (x86-64, numpy 2.4
# with OpenBLAS).  backward-deep drops round-off directions in 70 of its 79
# Gram factors; dead-layer's inputs are so small that layer 1 reads
# sparsity 1, so layer 2's Gram matrix has rank 1.
_CRELU = ["--activation", "crelu", "-s", "0.85", "--qstar", "1", "--vprime", "0.7"]
_SHAPE = ["--depth", "6", "--width", "64", "--batch", "8", "--seed", "7"]
_GOLDEN = {
    "simulate-crelu": (
        ["simulate", *_CRELU, *_SHAPE],
        "829b9ffa15e2f467eb937d57efc4c021a62a4fe598252b00caca5bfd7a0d3601"),
    "backward-crelu": (
        ["simulate", "--backward", *_CRELU, *_SHAPE],
        "e79ca4b44fdf9e7e336946ffcbb8490bbe0d651b61668aea63ea7a1fef2bc1b1"),
    "backward-cst": (
        ["simulate", "--backward", "--activation", "cst", "-s", "0.85", "--qstar", "1",
         "--vprime", "0.7", *_SHAPE],
        "f078e5ba917021bf521571741d5d2d5dd9e41c4c9bc47f2effdf9ba359bce995"),
    "backward-relu": (
        ["simulate", "--backward", "--activation", "relu", "--qstar", "1", *_SHAPE],
        "e6d277038f7579bfa73faadac063409c41f363a3463f2da572391c43f1cc8fb9"),
    "backward-more-rows-than-width": (
        ["simulate", "--backward", *_CRELU, "--depth", "6", "--width", "16", "--batch", "40",
         "--seed", "7"],
        "564ab06db864b896d68608111da7e110b7bc1a5b26deb0bc3ea4a79ba9ea5861"),
    "backward-dead-layer": (
        ["simulate", "--backward", *_CRELU, "--input-variance", "1e-6", "--depth", "6",
         "--width", "16", "--batch", "4", "--seed", "1"],
        "c21a1e23250737fbbf3e399acb5cbe0401f95ba45d8341d93146339a124c044d"),
    "backward-deep": (
        ["simulate", "--backward", "--activation", "crelu", "-s", "0.85", "--qstar", "1",
         "--vprime", "0.15", "--depth", "40", "--width", "128", "--batch", "16", "--seed", "3"],
        "be6906fe88be6c14a1cb869a7d6bfc7862de8ee44a396117cc81b6f8c2ddfb8a"),
    "correlate-cst": (
        ["correlate", "--activation", "cst", "-s", "0.85", "--qstar", "1", "--vprime", "0.7",
         "--rho0", "0.5", *_SHAPE],
        "967fb57851ae040f88468d400598354ec0863642fe5807f0bfa1a66cce8f05aa"),
    "correlate-crelu-duplicate": (
        ["correlate", *_CRELU, "--rho0", "1", *_SHAPE],
        "416c75232e872a7608f094b007b1ac35c0c46762ecea5b8fb8bbe0b52eed7033"),
}


@pytest.mark.parametrize("case", list(_GOLDEN))
def test_monte_carlo_output_bytes_are_golden(tmp_path, case):
    """Every simulated row is byte for byte that of the recorded run: a
    change to the factor, the draw or the pull-down that moves one bit of
    one statistic shows here."""
    argv, sha = _GOLDEN[case]
    out = tmp_path / "run.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


class TestBackwardState:
    def test_peak_memory_grows_by_one_eigenbasis_per_layer(self):
        """The backward pass keeps each layer's eigenbasis, batch x batch
        and batch floats, and draws h again on the way down: peak traced
        bytes grow by at most (batch^2 + batch) 8 bytes plus 1 KiB (the
        layer's stats row) per added layer, at every width.  2611 bytes
        were measured at both widths; two batch x batch factors a layer
        grew by 4546, and keeping h by 35 266 at width 256 and 133 570 at
        1024.  Less the kept bases, the peak at width 1024 holds at most six
        batch x (width + 1) float64 arrays: the error, one h and the
        pull-down arrays of one layer.  5.2-5.4 were measured; 10.4-11.1
        while the loops kept arrays they would not read again."""
        batch = 16
        basis = (batch * batch + batch) * 8
        init = solve_init("crelu", 0.85, 1.0, 0.7)

        def peak(depth, width):
            config = SimConfig(init=init, depth=depth, width=width, batch=batch, seed=3)
            run_backward(config)  # untraced: the modules a first run imports are not state
            tracemalloc.start()
            try:
                run_backward(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peaks = {(depth, width): peak(depth, width) for depth in (20, 60) for width in (256, 1024)}
        for width in (256, 1024):
            growth = (peaks[60, width] - peaks[20, width]) / 40
            assert growth <= basis + 1024, (width, growth)
        for depth in (20, 60):
            arrays = (peaks[depth, 1024] - depth * basis) / (batch * 1025 * 8)
            assert arrays <= 6, (depth, arrays)

    @pytest.mark.parametrize("init, width, batch", [
        (solve_init("crelu", 0.85, 1.0, 0.7), 64, 8),
        (solve_init("cst", 0.85, 1.0, 0.7), 64, 8),
        (relu_init(1.0), 64, 8),
        (solve_init("crelu", 0.85, 1.0, 0.7), 16, 40),
        (zero_bias(solve_init("cst", 0.7, 1.0, 0.7)), 16, 4),
        (solve_init("crelu", 0.85, 2.0 ** 500, 0.7), 64, 8),
    ], ids=["crelu", "cst", "relu", "more-rows-than-width", "dead-layer", "rescaled"])
    def test_rebuilt_draws_match_kept_ones(self, init, width, batch):
        """Drawing each layer's h again from its factor changes no bit of
        any statistic against keeping the forward pass's h.  The rows are
        compared by repr, which differs between floats of different bits
        and reads nan as nan."""
        config = SimConfig(init=init, depth=8, width=width, batch=batch, seed=1)
        stats = run_backward(config)
        assert list(map(repr, stats)) == list(map(repr, backward_keeping_h(config)))
        if init.sb2 == 0.0 and init.spec.kind == "cst":
            assert stats[-1].q_hat == 0.0  # dead by the top layer

    @pytest.mark.parametrize("kind", ["crelu", "cst"])
    def test_runs_are_scale_invariant(self, kind):
        """A run at q* = 2^-400 or 2^400 is computed at q0 = 1, so it is the
        run at q* = 1 with q_hat scaled by q*, bit for bit, backward too."""
        base = solve_init(kind, 0.85, 1.0, 0.7)
        ref = run_backward(SimConfig(init=base, depth=8, width=64, batch=8, seed=11))
        for c in (2.0 ** -200, 2.0 ** 200):
            init = scaled_lengths(base, c)
            run = run_backward(SimConfig(init=init, depth=8, width=64, batch=8, seed=11))
            assert run == [replace(st, q_hat=st.q_hat * init.q_star) for st in ref]

    @pytest.mark.parametrize("kind", ["crelu", "cst"])
    def test_forward_and_correlate_are_scale_invariant_far_out(self, kind):
        """At q* = 1e-150 and 1e150 the run computes at a q0 that is not 1,
        where eigh's eigenvectors differ from the q* = 1 ones in their last
        bits and may come back in another basis or with other signs.  The
        draw's symmetric root (u s) u^T does not depend on the basis, so
        the run is still the scaled q* = 1 run to round-off, at every seed.
        At q* = 2^-498 and 2^498 the run computes at q0 = 1 and is the
        q* = 1 run scaled, bit for bit."""
        base = solve_init(kind, 0.85, 1.0, 0.7)
        for seed in range(30):
            config = SimConfig(init=base, depth=8, width=64, batch=8, seed=seed)
            ref_fwd, ref_cor = run_forward(config), run_correlation(config, 0.5)
            for c in (1e-75, 1e75, 2.0 ** -249, 2.0 ** 249):
                init = scaled_lengths(base, c)
                scaled = replace(config, init=init)
                for run, ref in ((run_forward(scaled), ref_fwd),
                                 (run_correlation(scaled, 0.5), ref_cor)):
                    if math.frexp(c)[0] == 0.5:
                        assert run == [replace(st, q_hat=st.q_hat * init.q_star) for st in ref]
                        continue
                    for st, st_ref in zip(run, ref):
                        assert st.q_hat / init.q_star == pytest.approx(st_ref.q_hat, rel=1e-11)
                        assert st.sparsity_hat == st_ref.sparsity_hat
                        if st.rho_hat is not None:
                            assert st.rho_hat == pytest.approx(st_ref.rho_hat, abs=1e-10)

    @pytest.mark.parametrize("kind", ["crelu", "cst"])
    def test_same_seed_run_is_continuous_in_its_init(self, kind):
        """m and sb2 moved by 1e-14 relative move a same-seed run by
        round-off, because the symmetric root does not rotate with the
        eigenbasis that eigh returns.  Measured worst changes over seeds
        7-9, crelu and cst: 1.3e-13 and 5.2e-13 in forward q_hat through
        depth 40, 1.1e-11 and 5.2e-11 in rho_hat, 1.1e-10 and 3.3e-8 in
        v_hat at depth 20.  The eigenbasis draw u s moved them by up to
        9.1e-4, 2.2e-3 and 0.25."""
        base = solve_init(kind, 0.85, 1.0, 0.7)
        f = 1.0 + 1e-14
        moved = replace(base, spec=replace(base.spec, m=base.spec.m * f), sb2=base.sb2 * f)
        for seed in (7, 8, 9):
            for run, depth, column, bound, args in (
                (run_forward, 40, "q_hat", 1e-12, ()),
                (run_correlation, 40, "rho_hat", 1e-9, (0.5,)),
                (run_backward, 20, "v_hat", 1e-6, ()),
            ):
                ref, out = (run(SimConfig(init=init, depth=depth, width=300, batch=32,
                                          seed=seed), *args) for init in (base, moved))
                for st, st_ref in zip(out, ref, strict=True):
                    value, value_ref = getattr(st, column), getattr(st_ref, column)
                    assert value == pytest.approx(value_ref, rel=bound), (seed, column, st.layer)

    def test_huge_input_variance_keeps_a_tiny_qstar(self):
        """Inputs at 1e300 into a network at q* = 1e-300, and at 1e308 into
        q* = 1, where the Gram matrix overflowed: lengths scaled by 2^-k,
        k = (e_q* + e_v) // 4, put the two variances either side of 1 alike,
        so every layer is alive.  Width 64 keeps the layer-2 sample near
        its theory value of 5.62 q* (seeds 1-3 read 4.97-6.51; width 8 read
        10.8 at seed 1)."""
        for q_star, variance in ((1e-300, 1e300), (1.0, 1e308)):
            init = solve_init("crelu", 0.85, q_star, 0.7)
            config = SimConfig(init=init, depth=4, width=64, batch=4, seed=1,
                               input_variance=variance)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                stats = run_forward(config)
            assert stats[0].q_hat / variance == pytest.approx(1.2414090771155475, rel=1e-12)
            for st in stats[1:]:
                assert 0.0 < st.sparsity_hat < 1.0
                assert 1.0 < st.q_hat / q_star < 10.0

    @pytest.mark.parametrize("q_scale", [1e-150, 1e150])
    def test_pull_down_does_not_overflow(self, q_scale):
        """``_pull_down`` is homogeneous of degree 0 in the layer's scale:
        A, h and s scaled by c give the same theta delta^T, down
        to q* = 1e-150 and up to 1e150."""
        config = SimConfig(init=solve_init("cst", 0.85, 1.0, 0.7), depth=6, width=64,
                           batch=8, seed=13)
        c = math.sqrt(q_scale)
        states = list(_conditional_pass(config, _draw_inputs(config)))
        delta = np.random.default_rng(13).standard_normal((config.batch, config.width))
        for (_, _, x_below, *_), (layer, h, _, u, s) in zip(states, states[1:]):
            a = _design(config.init, layer, x_below)
            ref = _pull_down(a, u, s, h @ delta.T, delta, np.random.default_rng(layer))
            out = _pull_down(a * c, u, s * c, (h * c) @ delta.T, delta,
                             np.random.default_rng(layer))
            assert np.all(np.isfinite(out))
            assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref), layer


class TestCorrelation:
    def test_identical_inputs_stay_identical(self):
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        config = SimConfig(init=init, depth=8, width=256, batch=8, seed=31)
        stats = run_correlation(config, 1.0)
        for st in stats:
            assert st.rho_hat == pytest.approx(1.0, abs=1e-12)

    def test_tracks_iterated_map(self):
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        config = SimConfig(init=init, depth=10, width=2000, batch=16, seed=37)
        stats = run_correlation(config, 0.5)
        theory = iterated_correlation(init, 0.5, 10)
        for st, rho in zip(stats, theory):
            assert st.rho_hat == pytest.approx(rho, abs=0.05)

    def test_odd_activation_keeps_zero_correlation(self):
        """With an odd activation and zero biases the correlation has no
        mechanism to leave 0.  Without a bias floor the variance itself
        decays and the stack eventually dies (exact zeros), so the check
        runs at shallow depth and the dead tail is reported as nan."""
        # The row-averaged rho_hat has a standard error of 0.25/sqrt(width)
        # at layer 1 and 0.38/sqrt(width) at layer 3 (200 seeds at width
        # 1000), so width 16000 puts the 0.02 bound at least 6.5 standard
        # errors out.  Layer streams do not depend on the depth, so the
        # first three layers of this run are the shallow run.
        config = SimConfig(init=zero_bias(solve_init("cst", 0.7, 1.0, 0.7)), depth=5,
                           width=16000, batch=16, seed=41)
        stats = run_correlation(config, 0.0)
        for st in stats[:3]:
            assert st.q_hat > 0.0
            assert abs(st.rho_hat) <= 0.02

        assert stats[-1].q_hat == 0.0
        assert math.isnan(stats[-1].rho_hat)

    def test_domain(self):
        config = SimConfig(init=relu_init(1.0), depth=4, width=32)
        for rho0 in (1.5, -1.5, math.nan):
            with pytest.raises(ValueError, match=r"correlation must lie in \[-1, 1\]"):
                run_correlation(config, rho0)

    def test_input_variance_is_refused(self):
        """Both inputs are drawn at q*, so an input variance would only move
        the run's scaling: at 1e300 it changed q_hat in its last digit."""
        config = SimConfig(init=solve_init("crelu", 0.85, 1.0, 0.7), depth=3, width=8,
                           batch=4, seed=1, input_variance=1e300)
        with pytest.raises(ValueError, match="input_variance must be None"):
            run_correlation(config, 0.5)


class TestWidthScaling:
    def test_fluctuations_shrink_like_root_width(self):
        """Doubling the width should shrink the trial-to-trial deviation of
        the deep-layer variance by roughly sqrt(2) (factor in [1.5, 3] per
        two doublings is checked pairwise).  The SD of 48 trials left these
        bounds by seed luck alone; 400 trials passed for every measured
        seed set."""
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        trials = 400
        stds = []
        for width in (250, 500, 1000):
            deep = [
                run_forward(
                    SimConfig(init=init, depth=8, width=width, batch=4, seed=1000 + t)
                )[-1].q_hat
                for t in range(trials)
            ]
            stds.append(float(np.std(deep)))
        assert 1.5 <= stds[0] / stds[2] <= 3.0
        assert 1.1 <= stds[0] / stds[1] <= 2.2
        assert 1.1 <= stds[1] / stds[2] <= 2.2

    def test_width_correction_sign_detected(self):
        """At a high-curvature initialisation the mean empirical variance
        shifts off q* in the direction the width correction predicts,
        detectable at three standard errors over 200 trials."""
        init = solve_init("crelu", 0.85, 1.0, 0.9)
        predicted = lemma_q1_closed_form(init, 12)
        assert predicted > 0.0
        deviations = [
            run_forward(
                SimConfig(init=init, depth=12, width=100, batch=16, seed=2000 + t)
            )[-1].q_hat
            - init.q_star
            for t in range(200)
        ]
        mean = float(np.mean(deviations))
        se = float(np.std(deviations) / math.sqrt(len(deviations)))
        assert mean > 3.0 * se
        assert math.copysign(1.0, mean) == math.copysign(1.0, predicted)