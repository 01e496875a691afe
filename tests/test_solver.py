import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from wisealice.game import PayoffMatrix
from wisealice.quantum import (
    MeasurementFrame,
    StrategyAngle,
    harmonic_coefficients,
    harmonic_coefficients_in_beta,
    payoff_kernel,
)
from wisealice.scenario import load_scenario
from wisealice.solver import (
    _SAMPLES,
    BLOCK_CELLS,
    NASH_TOLERANCE,
    _half_angle_roots,
    best_response_alice,
    best_response_bob,
    find_equilibria,
    find_equilibria_grid,
    grid_nash_audit,
    reaction_curve,
    verify_nash_quantum,
)

from scan_reference import (
    half_angle_coefficients,
    half_angle_coefficients_in_beta,
    scan_equilibria,
)

frame_angles = st.floats(min_value=1.0, max_value=89.0,
                         allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=0.0, max_value=180.0, exclude_max=True,
                   allow_nan=False, allow_infinity=False)
payoffs = st.floats(min_value=0.1, max_value=10.0,
                    allow_nan=False, allow_infinity=False)

GRID_001 = np.arange(0.0, 180.0, 0.01)


def circle_dist(a: float, b: float) -> float:
    d = abs(a - b) % 180.0
    return min(d, 180.0 - d)


def brute_best_alice(h, frames, beta: float) -> float:
    """Argmax of the payoff over a 0.01-degree grid, straight from the trig form."""
    values = payoff_kernel(h, frames[0], frames[1], GRID_001, beta)
    return float(GRID_001[np.argmax(values)])


def brute_best_bob(h, frames, alpha: float) -> float:
    values = payoff_kernel(h, frames[0], frames[1], alpha, GRID_001)
    return float(GRID_001[np.argmin(values)])


def brute_force_gain(h, frames, alpha: float, beta: float) -> float:
    """Best unilateral gain on the 0.01-degree grid, from the trig form alone."""
    f0 = payoff_kernel(h, frames[0], frames[1], alpha, beta)
    return max(payoff_kernel(h, frames[0], frames[1], GRID_001, beta).max() - f0,
               f0 - payoff_kernel(h, frames[0], frames[1], alpha, GRID_001).min())


# --- best responses ----------------------------------------------------------

def test_alice_best_response_unit_instance(unit_instance):
    h, frames = unit_instance
    response = best_response_alice(h, frames, StrategyAngle(0))
    assert response.angle.degrees == pytest.approx(90.0)
    assert not response.degenerate


def test_bob_best_response_matches_grid_unit_instance(unit_instance):
    h, frames = unit_instance
    response = best_response_bob(h, frames, StrategyAngle(90))
    assert circle_dist(response.angle.degrees,
                       brute_best_bob(h, frames, 90.0)) <= 0.01


@settings(max_examples=60, deadline=None)
@given(payoffs, payoffs, payoffs, payoffs, frame_angles, frame_angles, angles)
def test_analytic_responses_match_grid(a, b, c, d, ta, tb, opponent):
    h = PayoffMatrix(a, b, c, d)
    frames = (MeasurementFrame(ta), MeasurementFrame(tb))
    alice = best_response_alice(h, frames, StrategyAngle(opponent))
    if not alice.degenerate:
        assert circle_dist(alice.angle.degrees,
                           brute_best_alice(h, frames, opponent)) <= 0.01
    bob = best_response_bob(h, frames, StrategyAngle(opponent))
    if not bob.degenerate:
        assert circle_dist(bob.angle.degrees,
                           brute_best_bob(h, frames, opponent)) <= 0.01


def test_bob_response_definitional_minimum(two_eq_instance):
    h, frames = two_eq_instance
    rng = np.random.default_rng(3)
    for alpha in rng.uniform(0.0, 180.0, size=5):
        best = best_response_bob(h, frames, StrategyAngle(alpha))
        f_best = payoff_kernel(h, frames[0], frames[1], alpha, best.angle.degrees)
        for mu in rng.uniform(0.0, 180.0, size=100):
            assert f_best <= payoff_kernel(h, frames[0], frames[1], alpha, mu) + 1e-12


def test_alice_response_definitional_maximum(two_eq_instance):
    h, frames = two_eq_instance
    rng = np.random.default_rng(4)
    for beta in rng.uniform(0.0, 180.0, size=5):
        best = best_response_alice(h, frames, StrategyAngle(beta))
        f_best = payoff_kernel(h, frames[0], frames[1], best.angle.degrees, beta)
        for lam in rng.uniform(0.0, 180.0, size=100):
            assert f_best >= payoff_kernel(h, frames[0], frames[1], lam, beta) - 1e-12


def test_degenerate_response_flagged():
    theta_b = 70.0
    beta = math.radians(30.0)
    q1, q3 = math.cos(beta) ** 2, math.sin(beta) ** 2
    q2 = math.cos(beta - math.radians(theta_b)) ** 2
    q4 = math.sin(beta - math.radians(theta_b)) ** 2
    h = PayoffMatrix(q1 / q3, q2 / q4, 1.0, 1.0)
    frames = (MeasurementFrame(25), MeasurementFrame(theta_b))
    response = best_response_alice(h, frames, StrategyAngle(30.0))
    assert response.degenerate
    assert response.angle.degrees == 0.0


def test_scaling_leaves_responses_unchanged(two_eq_instance):
    h, frames = two_eq_instance
    for lam in (0.5, 2.0, 10.0):
        scaled = h.scaled(lam)
        for beta in (0.0, 59.4, 150.0):
            assert circle_dist(
                best_response_alice(scaled, frames, StrategyAngle(beta)).angle.degrees,
                best_response_alice(h, frames, StrategyAngle(beta)).angle.degrees,
            ) <= 1e-9
        for alpha in (0.0, 53.5, 145.4):
            assert circle_dist(
                best_response_bob(scaled, frames, StrategyAngle(alpha)).angle.degrees,
                best_response_bob(h, frames, StrategyAngle(alpha)).angle.degrees,
            ) <= 1e-9


# --- reaction curves ---------------------------------------------------------

def test_unit_instance_alice_curve_jumps_at_90(unit_instance):
    h, frames = unit_instance
    curve = reaction_curve("alice", h, frames, resolution=0.05)
    assert curve.player == "alice"
    assert any(abs(j - 90.0) <= 0.05 for j in curve.discontinuities), \
        curve.discontinuities


def test_unit_instance_bob_curve_is_continuous(unit_instance):
    h, frames = unit_instance
    curve = reaction_curve("bob", h, frames, resolution=0.05)
    assert curve.discontinuities == ()


def test_unit_instance_curves_are_half_period_shifts(unit_instance):
    h, frames = unit_instance
    alice = reaction_curve("alice", h, frames, resolution=0.5)
    bob = reaction_curve("bob", h, frames, resolution=0.5)
    for sa, sb in zip(alice.samples, bob.samples):
        assert circle_dist(sa.response_deg, sb.response_deg + 90.0) <= 1e-9


def test_two_eq_instance_alice_curve_is_discontinuous(two_eq_instance):
    h, frames = two_eq_instance
    curve = reaction_curve("alice", h, frames, resolution=0.05)
    assert len(curve.discontinuities) > 0


def test_reaction_curve_inputs_strictly_increasing(two_eq_instance):
    h, frames = two_eq_instance
    curve = reaction_curve("bob", h, frames, resolution=0.5)
    inputs = [s.input_deg for s in curve.samples]
    assert inputs == sorted(inputs)
    assert len(set(inputs)) == len(inputs)
    assert inputs[0] == 0.0 and inputs[-1] < 180.0


def test_reaction_curve_samples_satisfy_optimality(two_eq_instance):
    h, frames = two_eq_instance
    curve = reaction_curve("alice", h, frames, resolution=11.0)
    rng = np.random.default_rng(5)
    for s in curve.samples:
        if s.degenerate:
            continue
        f_best = payoff_kernel(h, frames[0], frames[1], s.response_deg, s.input_deg)
        probes = rng.uniform(0.0, 180.0, size=10)
        assert np.all(
            f_best >= payoff_kernel(h, frames[0], frames[1], probes, s.input_deg) - 1e-12
        )


def test_responses_are_half_turn_periodic(two_eq_instance):
    h, frames = two_eq_instance
    for t in (0.0, 33.3, 90.0):
        a = best_response_alice(h, frames, StrategyAngle(t))
        b = best_response_alice(h, frames, StrategyAngle(t + 180.0))
        assert a.angle == b.angle


def test_reaction_curve_rejects_bad_resolution(two_eq_instance):
    h, frames = two_eq_instance
    with pytest.raises(ValueError):
        reaction_curve("alice", h, frames, resolution=0.0)
    with pytest.raises(ValueError):
        reaction_curve("carol", h, frames, resolution=1.0)


# --- Nash verification -------------------------------------------------------

def test_residual_zero_at_two_eq_equilibrium(two_eq_instance):
    h, frames = two_eq_instance
    eq = find_equilibria(h, frames)[0]
    assert verify_nash_quantum(h, frames, eq.alpha, eq.beta) < 1e-12


def test_residual_positive_off_equilibrium(two_eq_instance):
    h, frames = two_eq_instance
    assert verify_nash_quantum(h, frames, StrategyAngle(0), StrategyAngle(0)) > 0.1


def test_unit_instance_origin_is_not_an_equilibrium(unit_instance):
    # F(alpha, 0) = sin^2(alpha) + 1/2: the origin pays 0.5 but a unilateral
    # move to 90 degrees pays 1.5, so the residual is exactly 1
    h, frames = unit_instance
    residual = verify_nash_quantum(h, frames, StrategyAngle(0), StrategyAngle(0))
    assert residual == pytest.approx(1.0, abs=1e-12)


def test_residual_invariant_under_half_turns(two_eq_instance):
    h, frames = two_eq_instance
    base = verify_nash_quantum(h, frames, StrategyAngle(30), StrategyAngle(40))
    shifted = verify_nash_quantum(h, frames, StrategyAngle(210), StrategyAngle(220))
    assert shifted == pytest.approx(base, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(payoffs, payoffs, payoffs, payoffs, frame_angles, frame_angles,
       st.lists(angles, min_size=1, max_size=6), st.lists(angles, min_size=1, max_size=6),
       st.integers(min_value=-100, max_value=100), st.integers(min_value=-100, max_value=100))
def test_residual_arrays_invariant_under_half_turn_shifts(a, b, c, d, ta, tb, alphas, betas,
                                                         turns_a, turns_b):
    # within 100 turns the shifted angles round by under 2e-12 degrees,
    # which moves a residual by far less than the bound
    h = PayoffMatrix(a, b, c, d)
    frames = (MeasurementFrame(ta), MeasurementFrame(tb))
    alphas, betas = np.array(alphas)[:, None], np.array(betas)[None, :]
    base = verify_nash_quantum(h, frames, alphas, betas)
    shifted = verify_nash_quantum(h, frames, alphas + 180.0 * turns_a, betas + 180.0 * turns_b)
    assert base.shape == (alphas.size, betas.size)
    assert np.allclose(shifted, base, rtol=0.0, atol=1e-12 * h.scale)


def test_nan_angles_give_nan_residuals_without_a_warning(two_eq_instance):
    # _candidates hands a failed Newton step to the judge as NaN, which must fail
    h, frames = two_eq_instance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = verify_nash_quantum(h, frames, np.array([math.nan, 30.0, math.nan]),
                                       np.array([40.0, math.nan, math.nan]))
    assert np.isnan(residual).all()
    assert not np.any(residual <= NASH_TOLERANCE * h.scale)


# --- equilibrium search ------------------------------------------------------

# frozen by hand-refined bisection plus an independent 0.0005-degree
# brute-force deviation check on the raw trigonometric payoff
TWO_EQ_POINT = (145.4422305099, 59.3824150044, 2.451521021507)
CLOSE_FRAMES_POINT = (53.5073962816, 51.6622967369, 2.706545984924)
INTERIOR_POINT = (140.4312309346, 55.8243721293, 2.567797609698)


def assert_single_equilibrium(eqs, expected):
    alpha, beta, value = expected
    assert len(eqs) == 1
    eq = eqs[0]
    assert eq.alpha.degrees == pytest.approx(alpha, abs=1e-6)
    assert eq.beta.degrees == pytest.approx(beta, abs=1e-6)
    assert eq.value == pytest.approx(value, abs=1e-9)
    assert eq.residual <= 1e-8 * 12.0


def test_find_equilibria_two_eq_instance(two_eq_instance):
    h, frames = two_eq_instance
    assert_single_equilibrium(find_equilibria(h, frames), TWO_EQ_POINT)


def test_find_equilibria_unit_instance_is_empty(unit_instance):
    # maxmin = 0.5 < minmax = 1.5: the best-response maps form a cycle
    # (Alice answers beta + 90, Bob matches alpha), so no fixed point exists
    h, frames = unit_instance
    assert find_equilibria(h, frames) == []


def test_find_equilibria_close_frames_instance(close_frames_instance):
    h, frames = close_frames_instance
    assert_single_equilibrium(find_equilibria(h, frames), CLOSE_FRAMES_POINT)


def test_find_equilibria_interior_instance(interior_instance):
    h, frames = interior_instance
    assert_single_equilibrium(find_equilibria(h, frames), INTERIOR_POINT)


def test_equilibrium_value_consistent_with_surface(two_eq_instance):
    h, frames = two_eq_instance
    eq = find_equilibria(h, frames)[0]
    assert eq.value == pytest.approx(
        payoff_kernel(h, frames[0], frames[1],
                      eq.alpha.degrees, eq.beta.degrees),
        abs=1e-12,
    )


def test_equilibria_verified_by_brute_force_deviations(two_eq_instance,
                                                       close_frames_instance,
                                                       interior_instance):
    for h, frames in (two_eq_instance, close_frames_instance, interior_instance):
        for eq in find_equilibria(h, frames):
            assert brute_force_gain(h, frames, eq.alpha.degrees, eq.beta.degrees) <= 1e-6


def test_equilibrium_set_invariant_under_scaling(two_eq_instance):
    h, frames = two_eq_instance
    base = find_equilibria(h, frames)
    for lam in (0.5, 2.0, 10.0):
        scaled = find_equilibria(h.scaled(lam), frames)
        assert len(scaled) == len(base)
        for eq_b, eq_s in zip(base, scaled):
            assert circle_dist(eq_b.alpha.degrees, eq_s.alpha.degrees) <= 1e-9
            assert circle_dist(eq_b.beta.degrees, eq_s.beta.degrees) <= 1e-9
            assert eq_s.value == pytest.approx(lam * eq_b.value, rel=1e-9)


def test_steep_crossing_is_not_mistaken_for_a_wrap():
    # the composed best-response defect swings ~91 degrees per 0.05-degree
    # step at this crossing, which a sampled scan could take for the wrap
    # of its [-90, 90) representative (frozen from a fuzzing run with an
    # independent duality-gap audit)
    h = PayoffMatrix(0.21567360739370703, 3.879623576993435,
                     0.9145567564246947, 6.239475458641274)
    frames = (MeasurementFrame(12.235840976241876),
              MeasurementFrame(50.05798855781285))
    eqs = find_equilibria(h, frames)
    assert len(eqs) == 1
    assert eqs[0].alpha.degrees == pytest.approx(153.9746, abs=1e-3)
    assert eqs[0].beta.degrees == pytest.approx(100.9789, abs=1e-3)
    assert eqs[0].residual <= 1e-8 * h.scale


# --- the cusp: Bob indifferent ------------------------------------------------

# (payoffs, frames, equilibria as (alpha, beta, value)), the first at the
# cusp: there k + M^T x = 0, so every beta is Bob's reply and the quartic's
# root has no reply -w/|w| to pair with; x_c = -M^-T k has unit length
CUSP_INSTANCES = [
    ((1, 3, 1, 1), (15, 60), [(135.0, 69.8960906, 1.25)]),
    # Alice's condition touches the circle at beta = 95: a double root
    ((1, 1, 3, 3), (60, 10), [(30.0, 95.0, 1.5)]),
    ((5, 1, 5, 3), (75, 15), [(45.0, 135.0, 3.25), (148.8978862, 135.0, 3.25)]),
]
CUSP_THETAS = [15.0, 30.0, 45.0, 60.0, 75.0]


def bob_amplitude(h, frames, alpha: float) -> float:
    """max - min of F(alpha, .) over the 0.01-degree grid, from the trig form."""
    return float(np.ptp(payoff_kernel(h, frames[0], frames[1], alpha, GRID_001)))


@pytest.mark.parametrize("payoffs, thetas, expected", CUSP_INSTANCES)
def test_equilibria_where_bob_is_indifferent(payoffs, thetas, expected):
    h = PayoffMatrix(*payoffs)
    frames = (MeasurementFrame(thetas[0]), MeasurementFrame(thetas[1]))
    # the oracle, without the root solve: no unilateral deviation on the
    # 0.01-degree grid gains at the expected points, Bob's payoff is flat
    # at the cusp, and the independent grid audit counts as many clusters
    for alpha, beta, value in expected:
        assert brute_force_gain(h, frames, alpha, beta) <= 1e-12 * h.scale
        assert payoff_kernel(h, *frames, alpha, beta) == pytest.approx(value, rel=1e-12)
    assert bob_amplitude(h, frames, expected[0][0]) <= 1e-12 * h.scale
    assert grid_cluster_count(grid_nash_audit(h, frames)) == len(expected)

    found = find_equilibria(h, frames)
    assert len(found) == len(expected)
    for eq, (alpha, beta, value) in zip(found, expected):
        # the double root's beta keeps half the digits of its angle
        assert circle_dist(eq.alpha.degrees, alpha) <= 1e-5
        assert circle_dist(eq.beta.degrees, beta) <= 1e-5
        assert eq.value == pytest.approx(value, rel=1e-12)
        assert eq.residual <= 1e-14 * h.scale


@pytest.mark.parametrize("payoffs", [payoffs for payoffs, _, _ in CUSP_INSTANCES])
def test_grid_cells_match_find_equilibria_alone_at_cusps(payoffs):
    # random frames never land on a cusp; multiples of 15 degrees do, in
    # whole rows or columns of the grid for these payoffs
    h = PayoffMatrix(*payoffs)
    grid = find_equilibria_grid(h, CUSP_THETAS, CUSP_THETAS)
    assert_grid_matches_alone(h, grid, CUSP_THETAS, CUSP_THETAS)
    frames = [(MeasurementFrame(ta), MeasurementFrame(tb))
              for ta in CUSP_THETAS for tb in CUSP_THETAS]
    assert any(bob_amplitude(h, cell_frames, eq.alpha.degrees) <= 1e-12 * h.scale
               for cell_frames, found in zip(frames, grid) for eq in found)


def test_cusp_candidate_is_the_only_one_to_find_this_equilibrium():
    # Bob is nearly indifferent here: the quartic's samples are at most 1.4e-7,
    # every polished root misses, and only _cusp's (90.2133, 179.9406) passes
    h = PayoffMatrix(32.35978971903452, 224.85711873998432,
                     0.0004248362085169901, 0.001003037919629702)
    frames = (MeasurementFrame(0.3438537318107828), MeasurementFrame(0.013675748768441364))
    # the oracle, without the root solve: the circle game has no duality gap
    assert duality_gap(h, frames) <= 1e-12 * h.scale
    found = find_equilibria(h, frames)
    assert len(found) == 1
    eq = found[0]
    assert circle_dist(eq.alpha.degrees, 90.2133) <= 1e-4
    assert circle_dist(eq.beta.degrees, 179.9406) <= 1e-4
    assert brute_force_gain(h, frames, eq.alpha.degrees, eq.beta.degrees) <= (
        NASH_TOLERANCE * h.scale)


# --- differential check against the sampled scan ------------------------------

wide_payoffs = st.floats(min_value=-4.0, max_value=4.0).map(math.exp)
wide_frames = st.floats(min_value=0.01, max_value=89.99)


def duality_gap(h, frames) -> float:
    """minmax - maxmin of the circle game; zero exactly when an equilibrium exists.

    The inner optima are K -+ |(U, V)| from the half-angle coefficients; the
    outer ones come from the 0.01-degree grid, refined by a bounded scalar
    search around the best grid point.
    """
    def outer_max(fn):
        values = fn(GRID_001)
        best = GRID_001[np.argmax(values)]
        found = minimize_scalar(lambda t: -fn(t), bounds=(best - 0.01, best + 0.01),
                                method="bounded", options={"xatol": 1e-12})
        return max(-found.fun, values.max())

    def worst_for_alice(alpha):
        k, u, v = half_angle_coefficients_in_beta(h, frames, alpha)
        return k - np.hypot(u, v)

    def minus_best_for_alice(beta):
        k, u, v = half_angle_coefficients(h, frames, beta)
        return -(k + np.hypot(u, v))

    return -outer_max(minus_best_for_alice) - outer_max(worst_for_alice)


def assert_same_equilibria(h, frames):
    """Root solve and scan agree up to equilibria at the tolerance's edge.

    Equilibria match when both angles agree to 1e-3 degrees.  One that only
    one solver returns must have a residual within a factor 2 of the
    tolerance, where verification cannot tell it from a miss, or else:
    - if only the scan returns it, the game has a positive duality gap, so
      it is a point within the tolerance of an equilibrium that does not
      exist, not a fixed point the root solve lost;
    - if only the root solve returns it, a brute-force deviation search
      confirms it: the scan misses crossings steeper than its sampling.
    """
    tol = NASH_TOLERANCE * h.scale
    roots, scanned = find_equilibria(h, frames), scan_equilibria(h, frames)

    def unmatched(ours, theirs):
        return [
            eq for eq in ours
            if eq.residual < tol / 2.0 and not any(
                circle_dist(eq.alpha.degrees, other.alpha.degrees) <= 1e-3
                and circle_dist(eq.beta.degrees, other.beta.degrees) <= 1e-3
                for other in theirs
            )
        ]

    if unmatched(scanned, roots):
        assert duality_gap(h, frames) > 1e-12 * h.scale, (scanned, roots)
    for eq in unmatched(roots, scanned):
        assert brute_force_gain(h, frames, eq.alpha.degrees, eq.beta.degrees) <= tol, (
            eq, scanned)
    return roots


@settings(max_examples=150, deadline=None)
@given(wide_payoffs, wide_payoffs, wide_payoffs, wide_payoffs, wide_frames, wide_frames)
# both frames near 90 or near 0, where Alice and Bob are both nearly
# indifferent at the equilibrium: Bob's reply to the root is tens of
# degrees off, and Newton from it stops 0.002 degrees short or elsewhere
@example(math.exp(-4.0), math.exp(3.5), math.exp(4.0), math.exp(-4.0), 89.875, 89.984375)
@example(math.exp(-4.0), math.exp(3.5), math.exp(4.0), math.exp(-3.625), 89.875, 89.984375)
@example(48.182698291098816, 0.018948344087971147, 0.01831563888873418, 44.36807025768936,
         89.97966635944748, 89.90699606634448)
@example(48.182698291098816, 33.11545195869231, 0.042528085166786085, 0.028332142798731294,
         0.011536394184157093, 0.024679625850786854)
def test_root_solve_matches_scan(a, b, c, d, ta, tb):
    h = PayoffMatrix(a, b, c, d)
    assert_same_equilibria(h, (MeasurementFrame(ta), MeasurementFrame(tb)))


def test_root_solve_matches_scan_on_shipped_instances(two_eq_instance, unit_instance,
                                                      close_frames_instance,
                                                      interior_instance):
    for h, frames in (two_eq_instance, unit_instance, close_frames_instance,
                      interior_instance):
        assert_same_equilibria(h, frames)


# (3,3,5,1) at theta_A = 30: the equilibrium of theta_B = 20 leaves the
# verified set near theta_B = 22.2387592, where its residual crosses the
# tolerance
@pytest.mark.parametrize("theta_b, count", [
    (22.2387, 1), (22.238756, 1), (22.2387590, 1), (22.23875917, None),
    (22.2387592, 0), (22.2388, 0),
])
def test_bifurcation_frames(theta_b, count):
    h = PayoffMatrix(3, 3, 5, 1)
    eqs = assert_same_equilibria(h, (MeasurementFrame(30), MeasurementFrame(theta_b)))
    if count is not None:
        assert len(eqs) == count


@settings(max_examples=40, deadline=None)
@given(wide_payoffs, wide_payoffs, frame_angles, frame_angles)
def test_balanced_payoffs_have_no_equilibrium(ac, bd, ta, tb):
    # with a = c and b = d, g = k = 0: x would have to be a positive
    # multiple of -M M^T x, which the positive definite M M^T rules out;
    # frames within hundredths of a degree of 0 or 90 make M nearly
    # singular, and points within the tolerance of equilibria appear there
    h = PayoffMatrix(ac, bd, ac, bd)
    assert find_equilibria(h, (MeasurementFrame(ta), MeasurementFrame(tb))) == []


def test_equilibrium_invariant_across_the_float_range(two_eq_instance):
    h, frames = two_eq_instance
    for lam in (1e-300, 1e-150, 1e-80, 1e80, 1e150, 1e300):
        scaled = h.scaled(lam)
        eqs = find_equilibria(scaled, frames)
        assert len(eqs) == 1, lam
        assert eqs[0].alpha.degrees == pytest.approx(TWO_EQ_POINT[0], abs=1e-6)
        assert eqs[0].beta.degrees == pytest.approx(TWO_EQ_POINT[1], abs=1e-6)
        assert eqs[0].value == pytest.approx(lam * TWO_EQ_POINT[2], rel=1e-9)
        assert eqs[0].residual <= 1e-8 * scaled.scale


@settings(max_examples=60, deadline=None)
@given(wide_payoffs, wide_payoffs, wide_payoffs, wide_payoffs, frame_angles, frame_angles,
       st.integers(min_value=-1074, max_value=1023))
def test_equilibria_invariant_under_power_of_two_scaling(a, b, c, d, ta, tb, k):
    # scaling by 2^k is exact while every payoff stays normal, so the
    # equilibria may move only by rounding inside the solve
    lam = 2.0**k
    scaled = (a * lam, b * lam, c * lam, d * lam)
    assume(all(x >= sys.float_info.min for x in scaled) and math.isfinite(sum(scaled)))
    frames = (MeasurementFrame(ta), MeasurementFrame(tb))
    base = find_equilibria(PayoffMatrix(a, b, c, d), frames)
    found = find_equilibria(PayoffMatrix(*scaled), frames)
    assert len(found) == len(base)
    for eq_b, eq_s in zip(base, found):
        assert circle_dist(eq_s.alpha.degrees, eq_b.alpha.degrees) <= 1e-9
        assert circle_dist(eq_s.beta.degrees, eq_b.beta.degrees) <= 1e-9
        assert eq_s.value == pytest.approx(lam * eq_b.value, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(wide_payoffs, wide_payoffs, wide_payoffs, wide_payoffs, wide_frames, wide_frames,
       angles)
def test_harmonic_views_match_half_angle_formulas(a, b, c, d, ta, tb, angle):
    h = PayoffMatrix(a, b, c, d)
    frames = (MeasurementFrame(ta), MeasurementFrame(tb))
    for view, reference in (
        (harmonic_coefficients(h, *frames, angle),
         half_angle_coefficients(h, frames, angle)),
        (harmonic_coefficients_in_beta(h, *frames, angle),
         half_angle_coefficients_in_beta(h, frames, angle)),
    ):
        assert np.allclose(view, reference, rtol=0.0, atol=1e-14 * h.scale)


@settings(max_examples=100, deadline=None)
@given(wide_payoffs, wide_payoffs, wide_payoffs, wide_payoffs, wide_frames, wide_frames,
       st.integers(min_value=-1074, max_value=1023),
       st.lists(angles, min_size=1, max_size=6), st.lists(angles, min_size=1, max_size=6))
def test_judge_matches_the_trigonometric_definition(a, b, c, d, ta, tb, k, alphas, betas):
    # the judge reads each gain off the bilinear form; the reference takes
    # F from its trigonometric definition and the best replies K -+ |(U, V)|
    # from the half-angle formulas, so it never calls bilinear_form
    lam = 2.0**k
    scaled = (a * lam, b * lam, c * lam, d * lam)
    assume(all(x >= sys.float_info.min for x in scaled) and math.isfinite(sum(scaled)))
    h = PayoffMatrix(*scaled)
    frames = (MeasurementFrame(ta), MeasurementFrame(tb))
    alphas, betas = np.array(alphas)[:, None], np.array(betas)[None, :]
    value = payoff_kernel(h, *frames, alphas, betas)
    ka, ua, va = half_angle_coefficients(h, frames, betas)
    kb, ub, vb = half_angle_coefficients_in_beta(h, frames, alphas)
    expected = np.maximum(np.maximum(ka + np.hypot(ua, va) - value,
                                     value - (kb - np.hypot(ub, vb))), 0.0)
    residual = verify_nash_quantum(h, frames, alphas, betas)
    assert residual.shape == expected.shape
    assert np.allclose(residual, expected, rtol=0.0, atol=1e-14 * h.scale)


# --- grid solve ---------------------------------------------------------------

def test_half_angle_map_recovers_the_roots_of_a_trigonometric_quartic():
    # the product of sin(phi - phi_j) over four phi_j is of degree 4 in phi
    # and vanishes at phi_j and phi_j + pi.  phi_j = pi is a root at
    # alpha = 90, and pi +- 2e-9 one 1e-9 rad to either side of it: each
    # row's own origin keeps those roots as accurate as the others.  The
    # rows are solved in one call; an all-zero row has no roots
    cases = ([0.3, 1.1, 2.0, 2.9], [math.pi, 0.4, 1.7, 2.5],
             [math.pi + 2e-9, 0.4, 1.7, 2.5], [math.pi - 2e-9, 0.9, 1.3, 2.2])
    samples = np.array([np.prod(np.sin(_SAMPLES[:, None] - np.array(phis)), axis=-1)
                        for phis in cases] + [np.zeros(16)])
    found = np.degrees(_half_angle_roots(samples)) / 2
    assert found.shape == (5, 8)
    for phis, roots in zip(cases, found):
        for phi in phis:
            for alpha in (math.degrees(phi) / 2, math.degrees(phi) / 2 + 90.0):
                assert min(circle_dist(alpha, a) for a in roots) <= 1e-9
    assert np.isnan(found[-1]).all()


GRID_SHAPES = {1: (1, 1), 255: (15, 17), 256: (16, 16), 257: (1, 257), 600: (24, 25)}


def grid_thetas(count: int, rng) -> np.ndarray:
    """count frame angles with 45 degrees among them, some near the edges."""
    thetas = rng.uniform(0.01, 89.99, count)
    thetas[rng.integers(count)] = 45.0
    return thetas


def assert_grid_matches_alone(h, grid, thetas_a, thetas_b):
    """Each grid cell holds what find_equilibria returns for its frames alone."""
    for found, (ta, tb) in zip(grid, ((ta, tb) for ta in thetas_a for tb in thetas_b)):
        alone = find_equilibria(h, (MeasurementFrame(ta), MeasurementFrame(tb)))
        assert len(found) == len(alone)
        for eq_grid, eq_alone in zip(found, alone):
            assert circle_dist(eq_grid.alpha.degrees, eq_alone.alpha.degrees) <= 1e-9
            assert circle_dist(eq_grid.beta.degrees, eq_alone.beta.degrees) <= 1e-9
            assert eq_grid.value == eq_alone.value
            assert eq_grid.residual == eq_alone.residual


@pytest.mark.parametrize("cells", sorted(GRID_SHAPES))
@pytest.mark.parametrize("payoffs", [(3, 3, 5, 1), (1, 1, 1, 1), (2.5, 0.75, 2.5, 0.75),
                                     (0.21567, 3.8796, 0.91455, 6.2394)])
def test_grid_cells_match_find_equilibria_alone(cells, payoffs):
    # a cell's result must not depend on the block it is solved in: the
    # grids end inside, at and just past a block and span three blocks;
    # a = c, b = d (the unit instance at 45/45 among them) admits none
    h = PayoffMatrix(*payoffs)
    rng = np.random.default_rng(cells)
    rows, cols = GRID_SHAPES[cells]
    thetas_a, thetas_b = grid_thetas(rows, rng), grid_thetas(cols, rng)
    grid = find_equilibria_grid(h, thetas_a, thetas_b)
    assert len(grid) == cells
    assert BLOCK_CELLS == 256
    assert_grid_matches_alone(h, grid, thetas_a, thetas_b)
    if payoffs[0] == payoffs[2] and payoffs[1] == payoffs[3]:
        assert grid == [[]] * cells
    elif cells > 1:
        assert any(grid)   # the blocks mix cells with and without equilibria


def test_grid_rejects_an_invalid_frame_angle():
    h = PayoffMatrix(3, 3, 5, 1)
    for bad in (0.0, 90.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            find_equilibria_grid(h, [10.0, bad], [20.0])


SWEEP_THETAS = [5.0 + 2.5 * k for k in range(33)]


@pytest.mark.parametrize("name, cells_with_one", [
    ("two_equilibria", 513), ("unit_payoffs", 0), ("no_equilibrium", 513),
    ("interior_equilibrium", 513),
])
def test_sweep_grid_cells_have_at_most_one_equilibrium(scenario_dir, name, cells_with_one):
    scenario = load_scenario(scenario_dir / f"{name}.txt")
    counts = [len(eqs) for eqs in find_equilibria_grid(
        scenario.payoff_matrix(), SWEEP_THETAS, SWEEP_THETAS)]
    assert max(counts) <= 1
    assert counts.count(1) == cells_with_one


@pytest.mark.xfail(strict=True, reason=(
    "the absolute tolerance 1e-8 * scale also verifies points near the one "
    "equilibrium whose residual has a positive local minimum"))
@settings(max_examples=200, deadline=None)
@given(wide_payoffs, wide_payoffs, wide_payoffs, wide_payoffs,
       st.floats(min_value=0.1, max_value=89.9), st.floats(min_value=0.1, max_value=89.9))
# found by a seeded search of 768,000 cells (36 hits, none by hypothesis in
# 9000 examples): the second point lies 78 and 60 degrees from the first,
# with residual 1.3e-8 and 8.1e-9 whose local minima are 6.8e-9 * scale
# and 4.5e-10 * scale, so it is no equilibrium
@example(0.1, 0.576422617034681, 0.576422617034681, 0.576422617034681,
         1.0232507043975223, 22.387533976194195)
@example(0.05224121895171803, 10.06081972187502, 0.07587639195024413, 3.2897644466639595,
         0.1, 20.5541948881458)
# both frames far from 0 and 90: (23.0957, 117.0742) at residual 6.6e-9 *
# scale lies 0.28 degrees, just past MERGE_DISTANCE_DEG, from the
# equilibrium (23.3784, 117.0783) at 4.9e-17 * scale
@example(0.27389357093257377, 0.07567227636498573, 1.035501233998605, 35.037844417659976,
         31.47012855935395, 24.53836514601862)
def test_random_instances_have_at_most_one_equilibrium(a, b, c, d, ta, tb):
    # F is bilinear in the unit vectors, so the game extended to the disks is
    # convex-concave and its saddle set convex; it meets the torus at most
    # at isolated points.  Frames within hundredths of a degree of 0 or 90
    # admit points within the tolerance of equilibria that do not exist.
    h = PayoffMatrix(a, b, c, d)
    assert len(find_equilibria(h, (MeasurementFrame(ta), MeasurementFrame(tb)))) <= 1


# --- independent grid audit --------------------------------------------------

def grid_cluster_count(hits, step=0.1) -> int:
    """Group passing grid points into connected clusters on the torus."""
    clusters: list[list[tuple[float, float]]] = []
    for alpha, beta, _ in hits:
        for cluster in clusters:
            if any(
                circle_dist(alpha, a) <= 2 * step and circle_dist(beta, b) <= 2 * step
                for a, b in cluster
            ):
                cluster.append((alpha, beta))
                break
        else:
            clusters.append([(alpha, beta)])
    return len(clusters)


def test_grid_audit_matches_solver_counts(two_eq_instance, unit_instance,
                                          close_frames_instance):
    # local-deviation tolerance sized to the grid: a true equilibrium within
    # half a step of a grid point leaves a residual of order curvature*step^2
    step = 0.1
    for h, frames in (two_eq_instance, unit_instance, close_frames_instance):
        tol = 4.0 * h.scale * (step * math.pi / 180.0) ** 2
        hits = grid_nash_audit(h, frames, step=step, tol=tol)
        assert grid_cluster_count(hits, step) == len(find_equilibria(h, frames))


def test_grid_audit_rejects_everything_at_solver_tolerance(unit_instance):
    h, frames = unit_instance
    assert grid_nash_audit(h, frames, step=0.1, tol=NASH_TOLERANCE * h.scale) == []


def test_grid_audit_default_tolerance_confirms_equilibria(two_eq_instance,
                                                          close_frames_instance,
                                                          unit_instance):
    for h, frames in (two_eq_instance, close_frames_instance):
        assert grid_cluster_count(grid_nash_audit(h, frames)) == 1
    h, frames = unit_instance
    assert grid_nash_audit(h, frames) == []
