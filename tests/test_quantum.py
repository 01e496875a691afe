import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wisealice.game import PayoffMatrix
from wisealice.quantum import (
    MeasurementFrame,
    OutcomeWeights,
    StrategyAngle,
    bilinear_form,
    harmonic_coefficients,
    harmonic_coefficients_in_beta,
    outcome_weights,
    payoff_kernel,
    payoff_surface,
    quantum_payoff,
)

angles = st.floats(min_value=-720.0, max_value=720.0,
                   allow_nan=False, allow_infinity=False)
frame_angles = st.floats(min_value=1.0, max_value=89.0,
                         allow_nan=False, allow_infinity=False)
positive_payoff = st.floats(min_value=0.1, max_value=10.0,
                            allow_nan=False, allow_infinity=False)


def test_strategy_angle_canonical_mod_180():
    assert StrategyAngle(180.0).degrees == 0.0
    assert StrategyAngle(190.0).degrees == pytest.approx(10.0)
    assert StrategyAngle(-30.0).degrees == pytest.approx(150.0)
    assert StrategyAngle(145.5) == StrategyAngle(325.5)


def test_measurement_frame_bounds():
    with pytest.raises(ValueError):
        MeasurementFrame(0.0)
    with pytest.raises(ValueError):
        MeasurementFrame(90.0)
    MeasurementFrame(89.999)


def test_outcome_weights_reference_point():
    # alpha = 145.5 deg in a 10-degree frame
    w = outcome_weights(StrategyAngle(145.5), MeasurementFrame(10))
    assert w.p1 == pytest.approx(0.679, abs=1e-3)
    assert w.p2 == pytest.approx(0.509, abs=1e-3)
    assert w.p3 == pytest.approx(0.321, abs=1e-3)
    assert w.p4 == pytest.approx(0.491, abs=1e-3)


def test_outcome_weights_axis_strategy():
    w = outcome_weights(StrategyAngle(0), MeasurementFrame(45))
    assert w.as_tuple() == pytest.approx((1.0, 0.5, 0.0, 0.5), abs=1e-15)


def test_outcome_weights_orthogonal_strategy():
    for theta in (10, 45, 80):
        w = outcome_weights(StrategyAngle(90), MeasurementFrame(theta))
        assert w.p1 == pytest.approx(0.0, abs=1e-15)
        assert w.p3 == pytest.approx(1.0, abs=1e-15)


def test_outcome_weights_rejects_unnormalized_pairs():
    with pytest.raises(ValueError):
        OutcomeWeights(0.7, 0.5, 0.4, 0.5)
    with pytest.raises(ValueError):
        OutcomeWeights(0.7, 0.6, 0.3, 0.5)


@settings(max_examples=200)
@given(angles, frame_angles)
def test_pair_normalization_identity(angle, theta):
    w = outcome_weights(StrategyAngle(angle), MeasurementFrame(theta))
    assert abs(w.p1 + w.p3 - 1.0) <= 1e-12
    assert abs(w.p2 + w.p4 - 1.0) <= 1e-12


def test_quantum_payoff_reference_weights():
    # printed equilibrium weights of the asymmetric instance
    h = PayoffMatrix(3, 3, 5, 1)
    p = OutcomeWeights(0.679, 0.509, 0.321, 0.491)
    q = OutcomeWeights(0.258, 0.967, 0.742, 0.033)
    assert quantum_payoff(h, p, q) == pytest.approx(2.452, abs=0.01)


def test_quantum_payoff_unit_instance():
    h = PayoffMatrix(1, 1, 1, 1)
    w = OutcomeWeights(1.0, 0.5, 0.0, 0.5)
    assert quantum_payoff(h, w, w) == pytest.approx(0.5)


def test_quantum_payoff_all_paired_factors_vanish():
    h = PayoffMatrix(2, 3, 4, 5)
    w = OutcomeWeights(1.0, 1.0, 0.0, 0.0)
    assert quantum_payoff(h, w, w) == 0.0


def test_surface_at_unit_instance_origin():
    h = PayoffMatrix(1, 1, 1, 1)
    f45 = MeasurementFrame(45)
    assert payoff_surface(h, f45, f45, StrategyAngle(0), StrategyAngle(0)) \
        == pytest.approx(0.5)


@settings(max_examples=100)
@given(positive_payoff, positive_payoff, positive_payoff, positive_payoff,
       frame_angles, frame_angles, angles, angles)
def test_surface_equals_weight_composition(a, b, c, d, ta, tb, alpha, beta):
    h = PayoffMatrix(a, b, c, d)
    fa, fb = MeasurementFrame(ta), MeasurementFrame(tb)
    composed = quantum_payoff(
        h,
        outcome_weights(StrategyAngle(alpha), fa),
        outcome_weights(StrategyAngle(beta), fb),
    )
    assert payoff_surface(h, fa, fb, StrategyAngle(alpha), StrategyAngle(beta)) \
        == pytest.approx(composed, abs=1e-14)


@settings(max_examples=100)
@given(frame_angles, frame_angles, angles, angles)
def test_surface_is_half_turn_periodic(ta, tb, alpha, beta):
    h = PayoffMatrix(3, 3, 5, 1)
    fa, fb = MeasurementFrame(ta), MeasurementFrame(tb)
    base = payoff_kernel(h, fa, fb, alpha, beta)
    assert payoff_kernel(h, fa, fb, alpha + 180.0, beta) == pytest.approx(base, abs=1e-12)
    assert payoff_kernel(h, fa, fb, alpha, beta + 180.0) == pytest.approx(base, abs=1e-12)


@settings(max_examples=100)
@given(positive_payoff, positive_payoff, positive_payoff, positive_payoff,
       frame_angles, frame_angles, angles, angles)
def test_surface_bounds(a, b, c, d, ta, tb, alpha, beta):
    # each pair-term is a convex combination bounded by its larger payoff
    h = PayoffMatrix(a, b, c, d)
    value = payoff_kernel(h, MeasurementFrame(ta), MeasurementFrame(tb), alpha, beta)
    assert -1e-12 <= value <= max(a, c) + max(b, d) + 1e-12


@settings(max_examples=50)
@given(positive_payoff, positive_payoff, positive_payoff, positive_payoff,
       frame_angles, frame_angles, angles)
def test_harmonic_reconstruction(a, b, c, d, ta, tb, beta):
    h = PayoffMatrix(a, b, c, d)
    fa, fb = MeasurementFrame(ta), MeasurementFrame(tb)
    k, u, v = harmonic_coefficients(h, fa, fb, StrategyAngle(beta))
    rng = np.random.default_rng(7)
    for alpha in rng.uniform(0.0, 180.0, size=100):
        rebuilt = k + u * math.cos(2 * math.radians(alpha)) \
            + v * math.sin(2 * math.radians(alpha))
        direct = payoff_kernel(h, fa, fb, alpha, beta)
        assert rebuilt == pytest.approx(direct, abs=1e-12)


@settings(max_examples=50)
@given(positive_payoff, positive_payoff, positive_payoff, positive_payoff,
       frame_angles, frame_angles, angles)
def test_harmonic_reconstruction_in_beta(a, b, c, d, ta, tb, alpha):
    h = PayoffMatrix(a, b, c, d)
    fa, fb = MeasurementFrame(ta), MeasurementFrame(tb)
    k, u, v = harmonic_coefficients_in_beta(h, fa, fb, StrategyAngle(alpha))
    rng = np.random.default_rng(11)
    for beta in rng.uniform(0.0, 180.0, size=100):
        rebuilt = k + u * math.cos(2 * math.radians(beta)) \
            + v * math.sin(2 * math.radians(beta))
        direct = payoff_kernel(h, fa, fb, alpha, beta)
        assert rebuilt == pytest.approx(direct, abs=1e-12)


@settings(max_examples=50)
@given(positive_payoff, positive_payoff, positive_payoff, positive_payoff,
       frame_angles, frame_angles, angles, angles)
def test_bilinear_form_reconstruction(a, b, c, d, ta, tb, alpha, beta):
    h = PayoffMatrix(a, b, c, d)
    fa, fb = MeasurementFrame(ta), MeasurementFrame(tb)
    c0, g, k, m = bilinear_form(h, fa, fb)
    x = np.array([math.cos(2 * math.radians(alpha)), math.sin(2 * math.radians(alpha))])
    y = np.array([math.cos(2 * math.radians(beta)), math.sin(2 * math.radians(beta))])
    assert c0 + g @ x + k @ y + x @ m @ y == pytest.approx(
        payoff_kernel(h, fa, fb, alpha, beta), abs=1e-12)


def test_non_finite_angle_rejected():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            StrategyAngle(value)


def test_unit_instance_harmonic_maximizer():
    # F(alpha, 0) = sin^2(alpha) + 1/2 for unit payoffs in 45-degree frames
    h = PayoffMatrix(1, 1, 1, 1)
    f45 = MeasurementFrame(45)
    k, u, v = harmonic_coefficients(h, f45, f45, StrategyAngle(0))
    maximizer = (0.5 * math.degrees(math.atan2(v, u))) % 180.0
    assert maximizer == pytest.approx(90.0)
    assert k + math.hypot(u, v) == pytest.approx(1.5)


def test_degenerate_harmonic_case_constructible():
    # balance both pair-terms: a/c and b/d tuned so U = V = 0 at beta = 30
    theta_b = 70.0
    beta = math.radians(30.0)
    q1, q3 = math.cos(beta) ** 2, math.sin(beta) ** 2
    q2 = math.cos(beta - math.radians(theta_b)) ** 2
    q4 = math.sin(beta - math.radians(theta_b)) ** 2
    h = PayoffMatrix(q1 / q3, q2 / q4, 1.0, 1.0)
    fa, fb = MeasurementFrame(25), MeasurementFrame(theta_b)
    k, u, v = harmonic_coefficients(h, fa, fb, StrategyAngle(30.0))
    assert math.hypot(u, v) < 1e-15 * h.scale


@settings(max_examples=50)
@given(frame_angles, frame_angles, angles, angles,
       st.floats(min_value=0.1, max_value=10.0))
def test_uniform_scaling_scales_surface_pointwise(ta, tb, alpha, beta, lam):
    h = PayoffMatrix(3, 3, 5, 1)
    fa, fb = MeasurementFrame(ta), MeasurementFrame(tb)
    base = payoff_kernel(h, fa, fb, alpha, beta)
    scaled = payoff_kernel(h.scaled(lam), fa, fb, alpha, beta)
    assert scaled == pytest.approx(lam * base, rel=1e-12)


def test_scaling_preserves_argmax_on_grid():
    h = PayoffMatrix(3, 3, 5, 1)
    fa, fb = MeasurementFrame(10), MeasurementFrame(70)
    grid = np.arange(0.0, 180.0, 1.0)
    for beta in (0.0, 59.4, 123.5):
        base = payoff_kernel(h, fa, fb, grid, beta)
        scaled = payoff_kernel(h.scaled(4.0), fa, fb, grid, beta)
        assert int(np.argmax(base)) == int(np.argmax(scaled))
