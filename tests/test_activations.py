"""Tests of the activation families and their derivative convention."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eoc_lab.activations import ActivationSpec
from eoc_lab.solver import sparsity_threshold

from oracles import kinks


SPECS = [ActivationSpec("relu"), ActivationSpec("crelu", 0.8, 1.4),
         ActivationSpec("crelu", 0.0, 2.0), ActivationSpec("cst", 0.6, 0.9),
         ActivationSpec("cst", 0.0, 1.5)]


def _spec_id(spec):
    return f"{spec.kind}-{spec.tau}"


def _with_special_points(spec, rng):
    """4000 normal draws plus the kinks, their negatives, signed zeros,
    infinities and nan, shuffled."""
    special = [*kinks(spec), *(-k for k in kinks(spec)), 0.0, -0.0,
               np.inf, -np.inf, np.nan, -np.nan]
    x = np.concatenate([rng.normal(0.0, 2.0, size=4000), special])
    rng.shuffle(x)
    return x


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


class TestPiecewiseValues:
    def test_clipped_relu_below_threshold(self):
        assert ActivationSpec("crelu", 1.0, 1.0).evaluate(0.5) == 0.0

    def test_clipped_relu_saturates(self):
        assert ActivationSpec("crelu", 1.0, 1.0).evaluate(2.5) == 1.0

    def test_soft_threshold_negative_branch(self):
        assert ActivationSpec("cst", 1.0, 1.0).evaluate(-1.5) == -0.5

    def test_zero_maps_to_zero(self):
        for spec in (ActivationSpec("relu"), ActivationSpec("crelu", 0.7, 1.3),
                     ActivationSpec("cst", 0.7, 1.3)):
            assert spec.evaluate(0.0) == 0.0

    def test_relu_matches_numpy(self, rng):
        x = rng.normal(size=1000)
        assert_allclose(ActivationSpec("relu").evaluate(x), np.maximum(x, 0.0))

    @pytest.mark.parametrize("spec", [ActivationSpec("relu"), ActivationSpec("crelu", 0.8, 1.4),
                                      ActivationSpec("crelu", 0.0, 2.0),
                                      ActivationSpec("cst", 0.6, 0.9),
                                      ActivationSpec("cst", 0.0, 1.5)],
                             ids=lambda spec: f"{spec.kind}-{spec.tau}")
    def test_in_place_form_is_bitwise_the_plain_expression(self, spec, rng):
        """``evaluate`` fills one buffer in place; its bits must be those of
        the plain expression, on the kinks, signed zeros, infinities and
        nan included, and its input must be left as it was."""
        special = [*kinks(spec), *(-k for k in kinks(spec)), 0.0, -0.0,
                   np.inf, -np.inf, np.nan, -np.nan]
        x = np.concatenate([rng.normal(0.0, 2.0, size=4000), special])
        rng.shuffle(x)
        before = x.copy()
        if spec.kind == "relu":
            plain = np.maximum(x, 0.0)
        elif spec.kind == "crelu":
            plain = np.clip(x - spec.tau, 0.0, spec.m)
        else:
            plain = np.sign(x) * np.clip(np.abs(x) - spec.tau, 0.0, spec.m)
        out = spec.evaluate(x)
        assert np.array_equal(out.view(np.uint64), plain.view(np.uint64))
        assert np.array_equal(x.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_given_buffer_gets_the_fresh_bits(self, spec, rng):
        """``evaluate`` and ``segment_mask`` write into a given ``out``
        what they return fresh, and return it."""
        x = _with_special_points(spec, rng)
        values, mask = np.empty_like(x), np.empty(x.shape, dtype=bool)
        assert spec.evaluate(x, out=values) is values
        assert _same_bits(values, spec.evaluate(x))
        assert spec.segment_mask(x, out=mask) is mask
        assert np.array_equal(mask, spec.segment_mask(x))


class TestDerivative:
    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_segment_mask_products_are_bitwise_the_derivative_products(self, spec, rng):
        """``derivative`` keeps the bits of the plain indicator expression,
        and a product with the boolean ``segment_mask``, fresh or in place,
        keeps the bits of the product with ``derivative``: on the kinks,
        signed zeros, infinities and nan of x, and with the signed zeros,
        infinities and nan of the factor too."""
        x = _with_special_points(spec, rng)
        delta = _with_special_points(spec, rng)
        if spec.kind == "relu":
            plain = (x > 0.0).astype(float)
        else:
            ax = x if spec.kind == "crelu" else np.abs(x)
            plain = ((ax > spec.tau) & (ax < spec.tau + spec.m)).astype(float)
        derivative = spec.derivative(x)
        assert _same_bits(derivative, plain)

        mask = spec.segment_mask(x)
        assert mask.dtype == np.bool_
        assert np.array_equal(mask, plain == 1.0)
        with np.errstate(invalid="ignore"):
            expected = delta * derivative
            in_place = delta.copy()
            in_place *= mask
            assert _same_bits(delta * mask, expected)
        assert _same_bits(in_place, expected)

    def test_linear_segment(self):
        spec = ActivationSpec("crelu", 1.0, 1.0)
        assert spec.derivative(1.5) == 1.0

    def test_clipped_region(self):
        spec = ActivationSpec("crelu", 1.0, 1.0)
        assert spec.derivative(3.0) == 0.0

    def test_negative_linear_segment(self):
        assert ActivationSpec("cst", 1.0, 1.0).derivative(-1.2) == 1.0

    def test_zero_at_kinks(self):
        crelu = ActivationSpec("crelu", 1.0, 1.0)
        assert crelu.derivative(1.0) == 0.0
        assert crelu.derivative(2.0) == 0.0
        cst = ActivationSpec("cst", 0.5, 1.5)
        for kink in kinks(cst):
            assert cst.derivative(kink) == 0.0
        assert ActivationSpec("relu").derivative(0.0) == 0.0

    def test_matches_finite_differences_away_from_kinks(self, rng):
        specs = [ActivationSpec("relu"), ActivationSpec("crelu", 0.8, 1.4),
                 ActivationSpec("cst", 0.6, 0.9)]
        h = 1e-6
        for spec in specs:
            x = rng.uniform(-4.0, 4.0, size=4000)
            margin = np.min(np.abs(x[:, None] - np.array(kinks(spec))[None, :]), axis=1)
            x = x[margin > 1e-3]
            fd = (spec.evaluate(x + h) - spec.evaluate(x - h)) / (2.0 * h)
            assert_allclose(spec.derivative(x), fd, atol=1e-8)


class TestShapeProperties:
    def test_clipped_relu_bounded_and_monotone(self, rng):
        spec = ActivationSpec("crelu", 0.9, 1.7)
        x = np.sort(rng.uniform(-6.0, 6.0, size=5000))
        y = spec.evaluate(x)
        assert np.all(np.abs(y) <= spec.m)
        assert np.all(np.diff(y) >= 0.0)

    def test_soft_threshold_odd(self, rng):
        spec = ActivationSpec("cst", 0.8, 1.1)
        x = rng.uniform(-5.0, 5.0, size=5000)
        assert_allclose(spec.evaluate(-x), -spec.evaluate(x), atol=0.0)

    def test_sparsity_identity_monte_carlo(self):
        """At the threshold ``sparsity_threshold(kind, s, q)`` the output of
        an N(0, q) input is exactly 0 at rate s, within 3 SE."""
        cases = [
            ("relu", 0.5, 1.0, None),
            ("crelu", 0.85, 1.0, 1.2),
            ("crelu", 0.8, 2.0, 2.0),
            ("cst", 0.85, 1.0, 1.0),
            ("cst", 0.6, 0.5, 1.5),
        ]
        n = 1_000_000
        for i, (kind, s, q, m) in enumerate(cases):
            spec = ActivationSpec(kind, sparsity_threshold(kind, s, q), m)
            rng = np.random.default_rng(500 + i)
            z = np.sqrt(q) * rng.standard_normal(n)
            frac = float(np.mean(spec.evaluate(z) == 0.0))
            se = np.sqrt(s * (1.0 - s) / n)
            assert abs(frac - s) <= 3.0 * se


class TestSpecValidation:
    def test_relu_ignores_shape_parameters(self):
        spec = ActivationSpec("relu", 3.0, 7.0)
        assert spec.tau == 0.0 and spec.m == np.inf

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ActivationSpec("crelu", -0.5, 1.0)
        with pytest.raises(ValueError):
            ActivationSpec("cst", 0.5, 0.0)
        with pytest.raises(ValueError):
            ActivationSpec("softplus", 0.5, 1.0)

    def test_json_roundtrip(self):
        for spec in (ActivationSpec("relu"), ActivationSpec("crelu", 0.3, 2.0),
                     ActivationSpec("cst", 1.1, 0.4)):
            assert ActivationSpec.from_dict(spec.to_dict()) == spec
