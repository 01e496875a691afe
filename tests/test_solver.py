import itertools
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from wisealice.game import PayoffMatrix
from wisealice.quantum import MeasurementFrame, StrategyAngle, bilinear_form
from wisealice.scenario import load_scenario
from wisealice.solver import (
    MERGE_DISTANCE_DEG,
    ROUNDOFF,
    _indifference,
    _merge,
    best_responses,
    find_equilibria,
    find_equilibria_grid,
    reaction_curve,
    verify_nash_quantum,
)

from oracles import (
    AT_ROUNDOFF,
    _payoff_derivatives,
    circle_dist,
    circle_margin,
    exact_gain,
    exact_indifference,
    exact_reply,
    exact_saddle,
    grid_nash_audit,
    half_angle_coefficients,
    half_angle_coefficients_in_beta,
    interval_i,
    iv,
    judge_counts,
    off_the_lines,
    payoff_kernel,
    prove_saddle,
    pure_equilibrium_count,
    reference_merge,
)
from solver_stress import log_uniform_sets, wide_sets

frame_angles = st.floats(min_value=1.0, max_value=89.0,
                         allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=0.0, max_value=180.0, exclude_max=True,
                   allow_nan=False, allow_infinity=False)
payoffs = st.floats(min_value=0.1, max_value=10.0,
                    allow_nan=False, allow_infinity=False)

GRID_001 = np.arange(0.0, 180.0, 0.01)


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


# how far in degrees a reported point may lie from the exact zero of grad F:
# over the named cells of the interval proof the worst is 1.46e-11 degrees,
# at the HARD_CELLS cell with frames 89.34 and 89.12
SADDLE_DEG = 1e-10


def exact_offsets(h, frames, alpha: float, beta: float) -> tuple[float, float]:
    """(exact gain / S, degrees to the exact zero of grad F) at (alpha, beta)."""
    thetas = [frame.theta_deg for frame in frames]
    saddle = exact_saddle(h, *thetas, alpha, beta)
    return (exact_gain(h, *thetas, alpha, beta) / h.scale,
            max(circle_dist(alpha, saddle[0]), circle_dist(beta, saddle[1])))


# --- best responses ----------------------------------------------------------

def test_alice_best_response_unit_instance(unit_instance):
    # F(alpha, 0) = sin^2(alpha) + 1/2 for unit payoffs in 45-degree frames
    h, frames = unit_instance
    angle, amplitude, degenerate = best_responses("alice", h, frames, StrategyAngle(0).degrees)
    assert angle == pytest.approx(90.0)
    assert amplitude == pytest.approx(0.5)
    assert not degenerate
    assert payoff_kernel(h, frames[0], frames[1], angle, 0.0) == pytest.approx(1.5)


def test_bob_best_response_matches_grid_unit_instance(unit_instance):
    h, frames = unit_instance
    angle, _, _ = best_responses("bob", h, frames, StrategyAngle(90).degrees)
    assert circle_dist(angle, brute_best_bob(h, frames, 90.0)) <= 0.01


@settings(max_examples=60, deadline=None)
@given(payoffs, payoffs, payoffs, payoffs, frame_angles, frame_angles, angles)
def test_analytic_responses_match_grid(a, b, c, d, ta, tb, opponent):
    h = PayoffMatrix(a, b, c, d)
    frames = (MeasurementFrame(ta), MeasurementFrame(tb))
    alice, _, degenerate = best_responses("alice", h, frames, StrategyAngle(opponent).degrees)
    if not degenerate:
        assert circle_dist(alice, brute_best_alice(h, frames, opponent)) <= 0.01
    bob, _, degenerate = best_responses("bob", h, frames, StrategyAngle(opponent).degrees)
    if not degenerate:
        assert circle_dist(bob, brute_best_bob(h, frames, opponent)) <= 0.01


def test_bob_response_definitional_minimum(two_eq_instance):
    h, frames = two_eq_instance
    rng = np.random.default_rng(3)
    for alpha in rng.uniform(0.0, 180.0, size=5):
        best, _, _ = best_responses("bob", h, frames, StrategyAngle(alpha).degrees)
        f_best = payoff_kernel(h, frames[0], frames[1], alpha, best)
        for mu in rng.uniform(0.0, 180.0, size=100):
            assert f_best <= payoff_kernel(h, frames[0], frames[1], alpha, mu) + 1e-12


def test_alice_response_definitional_maximum(two_eq_instance):
    h, frames = two_eq_instance
    rng = np.random.default_rng(4)
    for beta in rng.uniform(0.0, 180.0, size=5):
        best, _, _ = best_responses("alice", h, frames, StrategyAngle(beta).degrees)
        f_best = payoff_kernel(h, frames[0], frames[1], best, beta)
        for lam in rng.uniform(0.0, 180.0, size=100):
            assert f_best >= payoff_kernel(h, frames[0], frames[1], lam, beta) - 1e-12


def flat_for_alice(eps: float = 0.0):
    """Payoffs and frames on which F(., 30) is flat, with a scaled by 1 + eps."""
    theta_b = 70.0
    beta = math.radians(30.0)
    q1, q3 = math.cos(beta) ** 2, math.sin(beta) ** 2
    q2 = math.cos(beta - math.radians(theta_b)) ** 2
    q4 = math.sin(beta - math.radians(theta_b)) ** 2
    h = PayoffMatrix(q1 / q3 * (1.0 + eps), q2 / q4, 1.0, 1.0)
    return h, (MeasurementFrame(25), MeasurementFrame(theta_b))


def test_degenerate_response_flagged():
    h, frames = flat_for_alice()
    angle, amplitude, degenerate = best_responses("alice", h, frames,
                                                  StrategyAngle(30.0).degrees)
    assert amplitude < 1e-15 * h.scale
    assert degenerate
    assert angle == 0.0


def test_every_unflagged_reply_meets_the_grid_oracle():
    """DEGENERACY_RATIO flags each reply whose roundoff exceeds 0.01 degrees.

    That is the grid oracle's resolution.  Ten steps a decade take the
    amplitude from 5.8e-8 down to 1e-16 times the scale; a ratio of 1e-14
    would leave the reply at 1.85e-14 unflagged, 0.012 degrees off.
    """
    for eps in 10.0 ** -np.arange(6.0, 15.01, 0.1):
        h, frames = flat_for_alice(eps)
        angle, _, degenerate = best_responses("alice", h, frames, 30.0)
        if not degenerate:
            assert circle_dist(angle, exact_reply("alice", h, 25, 70, 30)) <= 0.01, eps


def test_scaling_leaves_responses_unchanged(two_eq_instance):
    h, frames = two_eq_instance
    for lam in (0.5, 2.0, 10.0):
        scaled = h.scaled(lam)
        for beta in (0.0, 59.4, 150.0):
            assert circle_dist(
                best_responses("alice", scaled, frames, StrategyAngle(beta).degrees)[0],
                best_responses("alice", h, frames, StrategyAngle(beta).degrees)[0],
            ) <= 1e-9
        for alpha in (0.0, 53.5, 145.4):
            assert circle_dist(
                best_responses("bob", scaled, frames, StrategyAngle(alpha).degrees)[0],
                best_responses("bob", h, frames, StrategyAngle(alpha).degrees)[0],
            ) <= 1e-9


# --- the half-turn circle -----------------------------------------------------

circle_payoffs = st.floats(min_value=-8.0, max_value=8.0).map(math.exp)
# exact multiples of 45 degrees, where the unit instance's replies sit on the 0/180 edge
opponent_angles = st.one_of(st.integers(-8, 8).map(lambda n: 45.0 * n), angles)


def on_half_turn(degrees) -> bool:
    """Every angle in [0, 180), compared raw: circle_dist takes 180 for 0."""
    degrees = np.asarray(degrees)
    return bool(np.all((0.0 <= degrees) & (degrees < 180.0)))


def test_unit_instance_replies_lie_on_the_half_turn_circle(unit_instance):
    """% alone leaves Alice's reply to beta = 90 at 180 itself."""
    h, frames = unit_instance
    assert best_responses("alice", h, frames, 90.0)[0] == 0.0
    assert best_responses("bob", h, frames, 180.0)[0] == 0.0


@settings(max_examples=100, deadline=None)
@given(circle_payoffs, circle_payoffs, circle_payoffs, circle_payoffs,
       st.one_of(st.just(45.0), frame_angles), st.one_of(st.just(45.0), frame_angles),
       st.lists(opponent_angles, min_size=1, max_size=8))
@example(1.0, 1.0, 1.0, 1.0, 45.0, 45.0, [90.0, 180.0])
def test_every_angle_lies_on_the_half_turn_circle(a, b, c, d, ta, tb, opponents):
    h = PayoffMatrix(a, b, c, d)
    frames = (MeasurementFrame(ta), MeasurementFrame(tb))
    for player in ("alice", "bob"):
        assert on_half_turn(best_responses(player, h, frames, opponents[0])[0])
        assert on_half_turn(best_responses(player, h, frames, np.array(opponents))[0])
        for resolution in (45.0, 0.05):
            assert on_half_turn(reaction_curve(player, h, frames, resolution).response_deg)
    found = find_equilibria(h, frames)
    assert on_half_turn([eq.alpha.degrees for eq in found] + [eq.beta.degrees for eq in found])
    _, alpha, beta, _, _ = find_equilibria_grid(h, [ta, 45.0], [tb, 45.0])
    assert on_half_turn(alpha) and on_half_turn(beta)


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
    for ra, rb in zip(alice.response_deg, bob.response_deg):
        assert circle_dist(ra, rb + 90.0) <= 1e-9


def test_two_eq_instance_alice_curve_is_discontinuous(two_eq_instance):
    h, frames = two_eq_instance
    curve = reaction_curve("alice", h, frames, resolution=0.05)
    assert len(curve.discontinuities) > 0


@pytest.mark.parametrize("player", ["alice", "bob"])
def test_curve_flags_do_not_depend_on_resolution(scenario_dir, player):
    for path in sorted(scenario_dir.glob("*.txt")):
        scenario = load_scenario(path)
        h, frames = scenario.payoff_matrix(), scenario.frames()
        coarse, *finer = (reaction_curve(player, h, frames, resolution).discontinuities
                          for resolution in (0.5, 0.25, 0.05))
        for fine in finer:
            assert len(fine) == len(coarse), (path.name, coarse, fine)
            for a, b in zip(coarse, fine):
                assert abs(a - b) <= 0.5, (path.name, coarse, fine)


def test_curve_wraps_count_the_winding():
    """Flags plus the closing step are odd exactly when r < 1.

    r(theta) is |-M^-1 g| at theta_B for Alice and |-M^-T k| at theta_A for
    Bob, written from the payoffs and frames alone.
    """
    rng = np.random.default_rng(18)
    checked = 0
    for _ in range(200):
        a, b, c, d = np.exp(rng.uniform(-4.0, 4.0, size=4))
        theta_a, theta_b = rng.uniform(0.05, 89.95, size=2)
        h = PayoffMatrix(a, b, c, d)
        frames = (MeasurementFrame(theta_a), MeasurementFrame(theta_b))
        s, t = (a - c) / (a + c), (b - d) / (b + d)
        for player, theta in (("alice", theta_b), ("bob", theta_a)):
            two = math.radians(2.0 * theta)
            r = math.sqrt(s * s + t * t - 2.0 * s * t * math.cos(two)) / math.sin(two)
            # beside r = 1 the reply turns more than 90 deg within one step,
            # which no sampled rule resolves
            if abs(r - 1.0) < 1e-3:
                continue
            curve = reaction_curve(player, h, frames, resolution=0.5)
            closing = abs(curve.response_deg[-1] - curve.response_deg[0]) > 90.0
            assert (len(curve.jumps) + closing) % 2 == (r < 1.0), \
                (a, b, c, d, theta_a, theta_b, player, r, curve.discontinuities)
            checked += 1
    assert checked > 390


def test_reaction_curve_inputs_strictly_increasing(two_eq_instance):
    h, frames = two_eq_instance
    curve = reaction_curve("bob", h, frames, resolution=0.5)
    inputs = curve.input_deg.tolist()
    assert inputs == sorted(inputs)
    assert len(set(inputs)) == len(inputs)
    assert inputs[0] == 0.0 and inputs[-1] < 180.0


def test_reaction_curve_samples_satisfy_optimality(two_eq_instance):
    h, frames = two_eq_instance
    curve = reaction_curve("alice", h, frames, resolution=11.0)
    rng = np.random.default_rng(5)
    for t, r, degenerate in zip(curve.input_deg, curve.response_deg, curve.degenerate):
        if degenerate:
            continue
        f_best = payoff_kernel(h, frames[0], frames[1], r, t)
        probes = rng.uniform(0.0, 180.0, size=10)
        assert np.all(f_best >= payoff_kernel(h, frames[0], frames[1], probes, t) - 1e-12)


def test_responses_are_half_turn_periodic(two_eq_instance):
    h, frames = two_eq_instance
    for t in (0.0, 33.3, 90.0):
        a, _, _ = best_responses("alice", h, frames, StrategyAngle(t).degrees)
        b, _, _ = best_responses("alice", h, frames, StrategyAngle(t + 180.0).degrees)
        assert StrategyAngle(a) == StrategyAngle(b)


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
    # the solver hands a failed Newton step or a missing chord end to the
    # judge as NaN, which must fail
    h, frames = two_eq_instance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = verify_nash_quantum(h, frames, np.array([math.nan, 30.0, math.nan]),
                                       np.array([40.0, math.nan, math.nan]))
    assert np.isnan(residual).all()
    assert not np.any(residual <= ROUNDOFF * h.scale)


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
# cusp: there k + M^T x = 0, so every beta is Bob's reply; x_c = -M^-T k
# has unit length, so theta_A lies on an end of I and the cell on a line
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
        # prove_saddle needs F_aa < 0 < F_bb, and here F_bb = 0 or, at the
        # corner's second point, F_aa = 0; but the Hessian's determinant is
        # -F_ab^2 < 0, not 0, so Newton still reaches the exact zero
        gain, distance = exact_offsets(h, frames, eq.alpha.degrees, eq.beta.degrees)
        assert gain <= AT_ROUNDOFF
        assert distance <= SADDLE_DEG


@pytest.mark.parametrize("payoffs", [payoffs for payoffs, _, _ in CUSP_INSTANCES])
def test_grid_cells_match_find_equilibria_alone_at_cusps(payoffs):
    # random frames never land on a cusp; multiples of 15 degrees do, in
    # whole rows or columns of the grid for these payoffs
    h = PayoffMatrix(*payoffs)
    grid = find_equilibria_grid(h, CUSP_THETAS, CUSP_THETAS)
    assert_grid_matches_alone(h, grid, CUSP_THETAS, CUSP_THETAS)
    frames = [(MeasurementFrame(ta), MeasurementFrame(tb))
              for ta in CUSP_THETAS for tb in CUSP_THETAS]
    assert any(bob_amplitude(h, cell_frames, alpha) <= 1e-12 * h.scale
               for cell_frames, found in zip(frames, grid_cells(grid, len(frames)))
               for alpha, _, _, _ in found)


def test_cusp_candidate_is_the_only_one_to_find_this_equilibrium():
    # the name is kept from the quartic candidates, of which only the cusp
    # x_c found this point: Bob is nearly indifferent here, and the
    # quartic's samples are at most 1.4e-7
    h = PayoffMatrix(32.35978971903452, 224.85711873998432,
                     0.0004248362085169901, 0.001003037919629702)
    frames = (MeasurementFrame(0.3438537318107828), MeasurementFrame(0.013675748768441364))
    # the oracle, without the root solve: the circle game has no duality gap,
    # and its maxmin and minmax strategies sit at the 40-digit equilibrium
    gap, alpha, beta = duality_gap(h, frames)
    assert gap <= 1e-12 * h.scale
    assert circle_dist(alpha, 90.2266157) <= 1e-5
    assert circle_dist(beta, 179.9574804) <= 1e-5
    found = find_equilibria(h, frames)
    assert len(found) == 1
    eq = found[0]
    assert circle_dist(eq.alpha.degrees, alpha) <= 1e-5
    assert circle_dist(eq.beta.degrees, beta) <= 1e-5
    assert eq.residual <= AT_ROUNDOFF * h.scale
    # the 0.01-degree grid's gain, at the solver's tolerance before ROUNDOFF
    assert brute_force_gain(h, frames, eq.alpha.degrees, eq.beta.degrees) <= 1e-8 * h.scale


def test_indifference_points_match_a_60_digit_solve():
    # numpy seed 26: 1,000 cells at payoffs e^U(-8,8), frames U(0.01, 89.99).
    # exact_indifference solves M^T x = -k and M y = -g at 60 digits, on a
    # form built from e_1, e(2 theta_A) and e(2 theta_B), not from
    # bilinear_form.  _indifference gives sin 2theta_A x_c at theta_A and
    # -sin 2theta_B y_c at theta_B, and its angle at theta_A is x_c's, which
    # a line cell's chord reads (a quotient by det M, the formula it
    # replaced, was off by 3.4e-10 rad).  Its q = sin 2theta (1 - |p|)
    # errs by up to 7.54e-16, 0.32 of 4.4 eps (sin 2theta + |s sin 2theta|
    # + |s cos 2theta| + |t|), and stays below ROUNDOFF, the band it draws
    rng = np.random.default_rng(26)
    worst_angle = worst_point = worst_q = worst_q_share = 0.0
    for _ in range(1000):
        payoffs = np.exp(rng.uniform(-8.0, 8.0, 4))
        thetas = rng.uniform(0.01, 89.99, 2)
        h = PayoffMatrix(*payoffs)
        s, t = (h.a - h.c) / (h.a + h.c), (h.b - h.d) / (h.b + h.d)
        owner, _, q = _indifference(h, thetas)
        x_c, y_c, q_a, q_b = exact_indifference(h, *thetas)
        for got, point, theta, margin, exact in ((owner[0], x_c, thetas[0], q[0], q_a),
                                                 (-owner[1], y_c, thetas[1], q[1], q_b)):
            sin2, cos2 = math.sin(2.0 * math.radians(theta)), math.cos(2.0 * math.radians(theta))
            want = [sin2 * float(z) for z in point]
            worst_point = max(worst_point, math.hypot(got[0] - want[0], got[1] - want[1])
                              / math.hypot(*want))
            error = abs(float(exact - float(margin)))
            bound = 4.4 * sys.float_info.epsilon * (sin2 + abs(s * sin2) + abs(s * cos2) + abs(t))
            worst_q, worst_q_share = max(worst_q, error), max(worst_q_share, error / bound)
        worst_angle = max(worst_angle, abs(math.remainder(
            math.atan2(owner[0][1], owner[0][0]) - math.atan2(float(x_c[1]), float(x_c[0])),
            2.0 * math.pi)))
    assert worst_angle <= 1e-12
    assert worst_point <= 1e-12
    assert worst_q_share <= 1.0
    assert worst_q < ROUNDOFF


def test_line_equilibria_are_the_chord_ends(scenario_dir):
    # Bob's frame sits on I's left end, so |y_c| = 1 and Alice is indifferent
    # at y_c, while |x_c| > 1.  Her optimal set is the part of the ray
    # x_c - lam M^-T y_c (lam >= 0) inside the disk, a chord whose two ends
    # are the pure equilibria, both at y_c's beta: the zeros of grad F at
    # that beta where Bob gains nothing.  Measured: alpha 47.5440984163 and
    # 138.6027975434, beta 52.2387560930; find_equilibria takes them from
    # the chord's closed form and reports every angle within 7.1e-15 degrees
    # of the exact zeros, under one ulp of 138.6
    sc = load_scenario(scenario_dir / "line_two_equilibria.txt")
    h, frames = sc.payoff_matrix(), sc.frames()
    thetas = [frame.theta_deg for frame in frames]
    _, y_c, q_a, q_b = exact_indifference(h, *thetas)
    assert abs(q_b) <= 1e-12
    assert q_a < 0
    beta_c = math.degrees(math.atan2(float(y_c[1]), float(y_c[0]))) / 2
    found = find_equilibria(h, frames)
    assert len(found) == 2
    for eq in found:
        alpha, beta = exact_saddle(h, *thetas, eq.alpha.degrees, eq.beta.degrees)
        assert circle_dist(eq.alpha.degrees, alpha) <= 2e-14
        assert circle_dist(eq.beta.degrees, beta) <= 2e-14
        assert circle_dist(beta, beta_c) <= 2e-14
        assert exact_gain(h, *thetas, eq.alpha.degrees, eq.beta.degrees) <= AT_ROUNDOFF * h.scale


# (3, 1, 1, 3) gives s = 1/2 and t = -1/2, so sigma = 60, tau = 120 and
# I = (30, 90): q(30) = sin 60 - sqrt(3)/2 = 0, and the float 30.0 is 30
# exactly, so these cells lie on a line by construction.  interval_i gives
# 30.000000000000004 for that end, and judge_counts files them as near and
# judges none.  The last is CUSP_INSTANCES' corner, on both lines, whose
# points its own test places
@pytest.mark.parametrize("payoffs, thetas, expected", [
    ((3, 1, 1, 3), (10, 30), [(50, 150), (140, 150)]),
    ((3, 1, 1, 3), (5, 30), [(47.5, 150), (137.5, 150)]),
    ((3, 1, 1, 3), (30, 10), [(150, 140)]),
    ((5, 1, 5, 3), (75, 15), None),
])
def test_exact_line_cells_hold_their_points_at_exact_gain(payoffs, thetas, expected):
    h = PayoffMatrix(*payoffs)
    found = find_equilibria(h, tuple(MeasurementFrame(t) for t in thetas))
    assert judge_counts(h, *thetas, len(found)) == ([], [0])
    if expected is not None:
        assert len(found) == len(expected)
        for eq, (alpha, beta) in zip(found, expected):
            assert circle_dist(eq.alpha.degrees, alpha) <= 1e-12
            assert circle_dist(eq.beta.degrees, beta) <= 1e-12
    for eq in found:
        assert exact_gain(h, *thetas, eq.alpha.degrees, eq.beta.degrees) <= 1e-30 * h.scale


# --- the count rule: which cells hold an equilibrium ---------------------------

wide_payoffs = st.floats(min_value=-4.0, max_value=4.0).map(math.exp)
wide_frames = st.floats(min_value=0.01, max_value=89.99)


def duality_gap(h, frames) -> tuple[float, float, float]:
    """minmax - maxmin of the circle game, zero exactly when an equilibrium
    exists, with Alice's maxmin alpha and Bob's minmax beta in degrees.

    The inner optima are K -+ |(U, V)| from the half-angle coefficients; the
    outer ones come from the 0.01-degree grid, refined by a bounded scalar
    search around the best grid point.
    """
    def outer_max(fn):
        values = fn(GRID_001)
        best = GRID_001[np.argmax(values)]
        found = minimize_scalar(lambda t: -fn(t), bounds=(best - 0.01, best + 0.01),
                                method="bounded", options={"xatol": 1e-12})
        if -found.fun > values.max():
            return -found.fun, found.x % 180.0
        return values.max(), best

    def worst_for_alice(alpha):
        k, u, v = half_angle_coefficients_in_beta(h, frames, alpha)
        return k - np.hypot(u, v)

    def minus_best_for_alice(beta):
        k, u, v = half_angle_coefficients(h, frames, beta)
        return -(k + np.hypot(u, v))

    maxmin, alpha = outer_max(worst_for_alice)
    minus_minmax, beta = outer_max(minus_best_for_alice)
    return -minus_minmax - maxmin, alpha, beta


def assert_count_is_the_rule(h, frames):
    """The solver reports as many points as the rule gives at a cell off
    I's ends, each at roundoff."""
    found = find_equilibria(h, frames)
    assert judge_counts(h, frames[0].theta_deg, frames[1].theta_deg,
                        len(found)) == ([], []), (h, frames, found)
    assert all(eq.residual <= AT_ROUNDOFF * h.scale for eq in found), (h, frames, found)
    return found


def assert_grid_keeps_the_rule(h, ta, tb) -> list[int]:
    """The grid of frames ta x tb in one call: every point lies at roundoff,
    and every cell holds the rule's count, none near an end.  Returns the
    counts, theta_A first."""
    ta, tb = np.asarray(ta, dtype=float), np.asarray(tb, dtype=float)
    cell, _, _, _, residual = find_equilibria_grid(h, ta, tb)
    assert (residual <= AT_ROUNDOFF * h.scale).all(), (h, residual.max() / h.scale)
    counts = np.bincount(cell, minlength=ta.size * tb.size)
    assert judge_counts(h, ta[:, None], tb, counts) == ([], []), h
    return counts.tolist()


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
    # the name is kept from when a sampled scan was the oracle; the count
    # rule replaces it.  The rule holds off I's ends only: on them a cell may
    # hold two equilibria, and a frame within roundoff of one may lie on
    # either side
    h = PayoffMatrix(a, b, c, d)
    assume(off_the_lines(h, ta, tb))
    assert_count_is_the_rule(h, (MeasurementFrame(ta), MeasurementFrame(tb)))


def test_root_solve_matches_scan_on_shipped_instances(two_eq_instance, unit_instance,
                                                      close_frames_instance,
                                                      interior_instance):
    # one equilibrium at 10/70, 30/20 and 15/35, none on the unit payoffs
    for h, frames in (two_eq_instance, unit_instance, close_frames_instance,
                      interior_instance):
        assert_count_is_the_rule(h, frames)


def test_line_cells_with_theta_a_in_i_or_two_points_sit_at_alices_indifference():
    """With theta_B on an end of I, Alice's indifference point y_c lies on the
    circle.  Every point of a cell with theta_A in I, where there is exactly
    one, and of a cell with two points, has beta at y_c: there Alice's
    amplitude vanishes and the value is ac/(a+c) + bd/(b+d).  A cell with
    theta_A outside I and one point need not.  Of these 300 cells 143 have
    theta_A in I, 102 two points and 55 one point outside I; at the last
    the amplitude is 1.9e-5 * S and more, and the value off by up to 34%.
    """
    rng = np.random.default_rng(5)
    cells = {"in": 0, "two": 0, "one": 0}
    for _ in range(300):
        a, b, c, d = np.exp(rng.uniform(-2.0, 2.0, size=4))
        h = PayoffMatrix(a, b, c, d)
        lo, hi = interval_i(h)
        frames = (MeasurementFrame(rng.uniform(0.5, 89.5)),
                  MeasurementFrame((lo, hi)[rng.integers(2)]))
        found = find_equilibria(h, frames)
        if lo < frames[0].theta_deg < hi:
            assert len(found) == 1, (h, frames, found)
            cells["in"] += 1
        else:
            assert len(found) in (1, 2), (h, frames, found)
            cells["two" if len(found) == 2 else "one"] += 1
            if len(found) == 1:
                continue
        value = a * c / (a + c) + b * d / (b + d)
        for eq in found:
            _, u, v = half_angle_coefficients(h, frames, eq.beta.degrees)
            assert math.hypot(u, v) <= 1e-13 * h.scale, (h, frames, eq)
            assert eq.value == pytest.approx(value, rel=1e-12, abs=0.0), (h, frames, eq)
    assert min(cells.values()) > 0, cells


# where the rule says one equilibrium and the quartic candidates of the
# solver before the reply-arc walk stopped short: no candidate reached
# (179.34066, 89.82577), and the other was reported 0.01 degrees off, at
# 1.3e-12 * S.  Then two cells 1.6e-9 and 1.7e-9 degrees from an end of I
# (tests/solver_stress.py's near-end family), where a judge at 1e-8 * S
# passed a point that no box proves: (89.912787, 0.087213) at 1.6e-13 * S
# where the rule says 0, and (20.44413, 179.873559) at 6.5e-14 * S beside
# the one equilibrium.  All four cells are HARD_CELLS of the interval
# proof too
RULE_CELLS = [
    ((0.0005859766306065266, 1412.714583118388, 0.055246477694773664,
      0.005087920384938334), (89.21701484019307, 89.89337087656244)),
    ((0.0005290755669106352, 1873.584314388169, 0.11572485695187998,
      0.003049614304498293), (89.33922842917872, 89.11813051198726)),
    ((597.5036440441979, 287.4771556401267, 0.0013843847975021904,
      0.0028301564479909025), (0.09256028315592581, 0.26698589183568094)),
    ((80.67279428183576, 0.013350653703699466, 0.00039288083533490684,
      1478.7568234922398), (9.632266196060828, 89.70140193141565)),
]


@pytest.mark.parametrize("payoffs, thetas", [
    pytest.param(*RULE_CELLS[0], id="missed"), pytest.param(*RULE_CELLS[1], id="off"),
    pytest.param(*RULE_CELLS[2], id="near-end-none"),
    pytest.param(*RULE_CELLS[3], id="near-end-one"),
])
def test_rule_names_the_cells_the_solver_misses(payoffs, thetas):
    assert_count_is_the_rule(PayoffMatrix(*payoffs), tuple(map(MeasurementFrame, thetas)))


# (3,3,5,1) at theta_A = 30: the equilibrium of theta_B = 20 exists up to
# I's left end, 22.2387560930, and past it the rule gives none.  22.2387590
# lies 2.9e-6 degrees inside I: no point there passes the judge, while the
# solver's quartic candidates used to leave one at 9.9e-9 * S until the
# residual of the vanished point crossed 1e-8 * S near theta_B = 22.2387592
@pytest.mark.parametrize("theta_b, count", [
    (22.2387, 1), (22.238756, 1), (22.2387590, 0), (22.23875917, None),
    (22.2387592, 0), (22.2388, 0),
])
def test_bifurcation_frames(theta_b, count):
    h = PayoffMatrix(3, 3, 5, 1)
    eqs = assert_count_is_the_rule(h, (MeasurementFrame(30), MeasurementFrame(theta_b)))
    if count is not None:
        assert len(eqs) == count


@settings(max_examples=40, deadline=None)
@given(wide_payoffs, wide_payoffs, frame_angles, frame_angles)
# unit payoffs with both frames within roundoff of I's ends, (0, 90): the
# cell reads as a line cell, and with both indifference points at 0 it has
# no cone and no chord
@example(1.0, 1.0, 1e-300, 89.99999999999999)
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


# the smallest frame whose sin 2theta, as the solver computes it, is a normal double
FRAME_FLOOR = 6.3743670598675964e-307


@pytest.mark.parametrize("thetas", [
    (1e-300, 30.0), (1e-100, 30.0), (1e-20, 30.0), (1e-10, 30.0), (1e-6, 30.0),
    (89.99999999999999, 30.0), (89.9999999, 30.0), (45.0, 1e-12), (1e-8, 89.99999),
    (FRAME_FLOOR, 30.0), (30.0, FRAME_FLOOR),
])
def test_frames_next_to_0_and_90_keep_their_one_equilibrium(thetas):
    # there M's entries of size sin 2theta decide the replies, and the walker
    # is nearly indifferent at the equilibrium, so its reply alone misplaces
    # the point by tens of degrees; the quartic candidates reported a second
    # point at roundoff in most of these cells
    frames = tuple(map(MeasurementFrame, thetas))
    assert len(assert_count_is_the_rule(PayoffMatrix(3, 3, 5, 1), frames)) == 1


def test_bob_frames_next_to_0_and_90_keep_the_rule():
    # numpy seed 36: 40 payoff sets at e^U(-8,8), each on Alice's frames
    # U(0.01, 89.99) against Bob's from 1e-3 to 1e-8 degrees of 0 and of 90.
    # A walk of Alice's cone wherever |x_c| > 1 missed the point of 172 of
    # these 4,800 cells, in 22 of the 40 sets
    rng = np.random.default_rng(36)
    ends = [10.0**-k for k in range(3, 9)]
    tb = np.array(ends + [90.0 - e for e in ends])
    for _ in range(40):
        h = PayoffMatrix(*np.exp(rng.uniform(-8.0, 8.0, 4)))
        assert_grid_keeps_the_rule(h, rng.uniform(0.01, 89.99, 10), tb)


@pytest.mark.parametrize("theta", [5e-324, math.nextafter(FRAME_FLOOR, 0.0)])
def test_frames_below_the_floor_are_rejected(theta):
    # the walk divides by sin 2theta: at 5e-324 it is 0 and (3, 3, 5, 1)
    # at 30 degrees had no point where the rule says 1
    h = PayoffMatrix(3, 3, 5, 1)
    for thetas in ((theta, 30.0), (30.0, theta)):
        with pytest.raises(ValueError, match=r"^frame angle .* is too close to 0 to solve"):
            find_equilibria(h, tuple(map(MeasurementFrame, thetas)))
        # the tiny angle is named whichever axis holds it, behind a valid one
        with pytest.raises(ValueError, match=f"^frame angle {re.escape(repr(theta))} "
                                             "is too close to 0"):
            find_equilibria_grid(h, [45.0, thetas[0]], [60.0, thetas[1]])


@pytest.mark.parametrize("axes", [([], [10.0, 20.0]), ([10.0, 20.0], []), ([], [])])
def test_an_empty_axis_gives_five_empty_arrays(axes):
    cell, *points = find_equilibria_grid(PayoffMatrix(3, 3, 5, 1), *axes)
    assert cell.dtype == np.intp
    for column in (cell, *points):
        assert column.shape == (0,)


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


def test_tiny_totals_keep_the_equilibria_and_replies():
    # (3, 3, 5, 1) 2^k is exact at every k here, but below a total of about
    # 2^-1018 the form loses digits and ROUNDOFF * S underflows; the
    # solve on payoffs lifted by a power of two keeps the k = 0 answers.
    # A value sums four products of subnormals, each rounded to 2^-1074
    frames = (MeasurementFrame(10), MeasurementFrame(70))
    base_h = PayoffMatrix(3, 3, 5, 1)
    base = find_equilibria(base_h, frames)
    replies = {player: best_responses(player, base_h, frames, 60.0)
               for player in ("alice", "bob")}
    for k in range(-1072, 1):
        h = PayoffMatrix(*(math.ldexp(p, k) for p in (3, 3, 5, 1)))
        found = find_equilibria(h, frames)
        assert len(found) == len(base), k
        for eq_s, eq_b in zip(found, base):
            assert circle_dist(eq_s.alpha.degrees, eq_b.alpha.degrees) <= 1e-9, k
            assert circle_dist(eq_s.beta.degrees, eq_b.beta.degrees) <= 1e-9, k
            assert abs(eq_s.value - math.ldexp(eq_b.value, k)) <= 4 * 2.0**-1074, k
        for player, (angle, amplitude, degenerate) in replies.items():
            reply = best_responses(player, h, frames, 60.0)
            assert reply == (angle, math.ldexp(amplitude, k), degenerate), (player, k)


@settings(max_examples=100, deadline=None)
@given(wide_payoffs, wide_payoffs, wide_payoffs, wide_payoffs, wide_frames, wide_frames,
       angles)
def test_harmonic_views_match_half_angle_formulas(a, b, c, d, ta, tb, angle):
    # best_responses reads each player's harmonic (U, V) off the bilinear
    # form; the half-angle formulas give it from the trigonometric definition.
    # Alice's reply points along (U, V) and Bob's against it
    h = PayoffMatrix(a, b, c, d)
    frames = (MeasurementFrame(ta), MeasurementFrame(tb))
    for player, sign, (_, u, v) in (
        ("alice", 1.0, half_angle_coefficients(h, frames, angle)),
        ("bob", -1.0, half_angle_coefficients_in_beta(h, frames, angle)),
    ):
        reply, amplitude, degenerate = best_responses(player, h, frames, angle)
        assert abs(amplitude - math.hypot(u, v)) <= 1e-14 * h.scale
        if not degenerate:
            two_r = 2.0 * math.radians(reply)
            assert abs(amplitude * math.cos(two_r) - sign * u) <= 1e-14 * h.scale
            assert abs(amplitude * math.sin(two_r) - sign * v) <= 1e-14 * h.scale


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

GRID_SHAPES = {1: (1, 1), 255: (15, 17), 256: (16, 16), 257: (1, 257), 600: (24, 25)}


def grid_thetas(count: int, rng) -> np.ndarray:
    """count frame angles with 45 degrees among them, some near the edges."""
    thetas = rng.uniform(0.01, 89.99, count)
    thetas[rng.integers(count)] = 45.0
    return thetas


def grid_cells(grid, cells: int) -> list[list[tuple[float, float, float, float]]]:
    """find_equilibria_grid's arrays as one list per cell of its points'
    (alpha, beta, value, residual), in the arrays' order."""
    found = [[] for _ in range(cells)]
    cell, *points = grid
    assert all(len(t) == len(cell) for t in points)
    for i, *point in zip(cell.tolist(), *(t.tolist() for t in points)):
        found[i].append(tuple(point))
    return found


def assert_same_arrays(left, right):
    assert len(left) == len(right) == 5
    for a, b in zip(left, right):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def assert_grid_matches_alone(h, grid, thetas_a, thetas_b):
    """Each grid cell holds what find_equilibria returns for its frames alone.

    The arrays run cell by cell; a cell's points, sorted by alpha and then
    by residual, are find_equilibria's.
    """
    assert (np.diff(grid[0]) >= 0).all()
    cells = grid_cells(grid, len(thetas_a) * len(thetas_b))
    for found, (ta, tb) in zip(cells, ((ta, tb) for ta in thetas_a for tb in thetas_b)):
        alone = find_equilibria(h, (MeasurementFrame(ta), MeasurementFrame(tb)))
        assert len(found) == len(alone)
        by_alpha = sorted(found, key=lambda point: (point[0], point[3]))
        for (alpha, beta, value, residual), eq in zip(by_alpha, alone):
            assert 0.0 <= alpha < 180.0 and 0.0 <= beta < 180.0
            assert circle_dist(alpha, eq.alpha.degrees) <= 1e-9
            assert circle_dist(beta, eq.beta.degrees) <= 1e-9
            assert value == eq.value
            assert residual == eq.residual


@pytest.mark.parametrize("cells", sorted(GRID_SHAPES))
@pytest.mark.parametrize("payoffs", [(3, 3, 5, 1), (1, 1, 1, 1), (2.5, 0.75, 2.5, 0.75),
                                     (0.21567, 3.8796, 0.91455, 6.2394)])
def test_grid_cells_match_find_equilibria_alone(cells, payoffs, monkeypatch):
    # a cell's result must not depend on the block it is solved in: in
    # blocks of 256 cells the grids end inside, at and just past a block and
    # span three blocks, and the shipped BLOCK_CELLS gives the same arrays;
    # a = c, b = d (the unit instance at 45/45 among them) admits none
    h = PayoffMatrix(*payoffs)
    rng = np.random.default_rng(cells)
    rows, cols = GRID_SHAPES[cells]
    thetas_a, thetas_b = grid_thetas(rows, rng), grid_thetas(cols, rng)
    shipped = find_equilibria_grid(h, thetas_a, thetas_b)
    monkeypatch.setattr("wisealice.solver.BLOCK_CELLS", 256)
    grid = find_equilibria_grid(h, thetas_a, thetas_b)
    assert_same_arrays(grid, shipped)
    assert grid[0].size == 0 or 0 <= grid[0].min() <= grid[0].max() < cells
    assert_grid_matches_alone(h, grid, thetas_a, thetas_b)
    if payoffs[0] == payoffs[2] and payoffs[1] == payoffs[3]:
        assert all(t.size == 0 for t in grid)
    elif cells > 1:
        assert grid[0].size > 0   # the blocks mix cells with and without equilibria


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
    h = load_scenario(scenario_dir / f"{name}.txt").payoff_matrix()
    assert assert_grid_keeps_the_rule(h, SWEEP_THETAS, SWEEP_THETAS).count(1) == cells_with_one


@settings(max_examples=200, deadline=None)
@given(wide_payoffs, wide_payoffs, wide_payoffs, wide_payoffs,
       st.floats(min_value=0.1, max_value=89.9), st.floats(min_value=0.1, max_value=89.9))
# found by a seeded search of 768,000 cells (36 hits, none by hypothesis in
# 9000 examples) when the solver's quartic candidates also passed a second
# point 78 and 60 degrees from the first, with residual 1.3e-8 and 8.1e-9
# whose local minima are 6.8e-9 * scale and 4.5e-10 * scale: no equilibrium
@example(0.1, 0.576422617034681, 0.576422617034681, 0.576422617034681,
         1.0232507043975223, 22.387533976194195)
@example(0.05224121895171803, 10.06081972187502, 0.07587639195024413, 3.2897644466639595,
         0.1, 20.5541948881458)
# both frames far from 0 and 90: the quartic candidates left (23.0957,
# 117.0742) at residual 6.6e-9 * scale, 0.28 degrees from the equilibrium
# (23.3784, 117.0783) at 4.9e-17 * scale
@example(0.27389357093257377, 0.07567227636498573, 1.035501233998605, 35.037844417659976,
         31.47012855935395, 24.53836514601862)
def test_random_instances_have_at_most_one_equilibrium(a, b, c, d, ta, tb):
    # F is bilinear in the unit vectors, so the game extended to the disks is
    # convex-concave and its saddle set convex; it meets the torus at most
    # at isolated points, and off the lines of item 1 at one.
    h = PayoffMatrix(a, b, c, d)
    assert len(find_equilibria(h, (MeasurementFrame(ta), MeasurementFrame(tb)))) <= 1


def test_wide_stress_counts_are_the_rule():
    # tests/solver_stress.py's first 20 wide sets, numpy seed 13: payoffs at
    # e^U(-8,8), each on a 10 x 10 grid of frames from U(0.001, 89.999),
    # one grid call per set; no cell lies near an end of I
    for h, ta, tb in itertools.islice(wide_sets(), 20):
        assert_grid_keeps_the_rule(h, ta, tb)


def test_log_uniform_frames_keep_the_rule():
    # tests/solver_stress.py's first 20 log-uniform sets of numpy seeds 45
    # and 50: payoffs at e^U(-8,8), each on a 10 x 10 grid of frames
    # 10^U(-14, 1.9) degrees, one grid call per set.  Walking only the player
    # whose indifference point lies farther out missed the point of 12
    # cells, 8 in seed 45's set 17 and 4 in seed 50's set 19: there Bob's
    # point lies just outside the circle and only his walk finds it
    for start in (1500, 3000):
        for h, ta, tb in itertools.islice(log_uniform_sets(), start, start + 20):
            assert_grid_keeps_the_rule(h, ta, tb)


# --- the interval proof: each reported point is a proved saddle ---------------

# the @examples of the test above, as (a, b, c, d, theta_a, theta_b)
AT_MOST_ONE_EXAMPLES = [
    (0.1, 0.576422617034681, 0.576422617034681, 0.576422617034681,
     1.0232507043975223, 22.387533976194195),
    (0.05224121895171803, 10.06081972187502, 0.07587639195024413, 3.2897644466639595,
     0.1, 20.5541948881458),
    (0.27389357093257377, 0.07567227636498573, 1.035501233998605, 35.037844417659976,
     31.47012855935395, 24.53836514601862),
]
# the @examples of test_root_solve_matches_scan where both frames lie
# near 90 or near 0, two bifurcation frames, 9.3e-8 degrees outside I and
# 2.9e-6 inside, the RULE_CELLS, two cells where Bob's frame lies next to
# 0 or 90 and both indifference points outside the circle, whose point the
# walk missed while Alice walked whenever |x_c| > 1, and four log-uniform
# cells with theta_A below 1e-8, where Alice's point lies far out and Bob's
# within 7e-4 of the circle: Alice's walk misses the point of the first two
# and leaves those of the last two at 1.4e-11 * S and 4.1e-11 * S, which no
# box proves, and Bob's finds each at residual 0
HARD_CELLS = [
    (math.exp(-4.0), math.exp(3.5), math.exp(4.0), math.exp(-4.0), 89.875, 89.984375),
    (math.exp(-4.0), math.exp(3.5), math.exp(4.0), math.exp(-3.625), 89.875, 89.984375),
    (48.182698291098816, 0.018948344087971147, 0.01831563888873418, 44.36807025768936,
     89.97966635944748, 89.90699606634448),
    (48.182698291098816, 33.11545195869231, 0.042528085166786085, 0.028332142798731294,
     0.011536394184157093, 0.024679625850786854),
    (3, 3, 5, 1, 30, 22.238756), (3, 3, 5, 1, 30, 22.2387590),
    *((*payoffs, *thetas) for payoffs, thetas in RULE_CELLS),
    (7.90066095128409, 0.11613612599934513, 0.024564084595853557, 0.31866391583835135,
     49.61761541408758, 1e-9),
    (0.006036864402984121, 0.19628024329532068, 545.2903783678288, 0.2131362002643206,
     45.99706075091924, 89.9999999),
    (543.9021940783261, 761.2609365921613, 0.0007821976556284133, 0.0011090019607127035,
     4.3012996124952495e-14, 1.4074871669405675),
    (0.0038722985117020936, 0.004672387049629906, 104.57774034685723, 126.77707608693012,
     8.603611900027126e-09, 2.2506245749563254),
    (2762.41618151469, 151.4916231220772, 0.007947893804427, 0.0007321029461244316,
     9.80677989653438e-13, 0.8208011571135391),
    (1961.1002393293338, 512.7349247788168, 0.0004950960694321023, 0.0005227797092291814,
     1.242317900345732e-11, 0.7945168554325953),
]


def test_interval_proof_certifies_every_equilibrium_at_roundoff(scenario_dir):
    # the four shipped scenarios, the at-most-one examples, the hard cells
    # and 300 seeded cells; no cusp (CUSP_INSTANCES), where F_bb = 0 and no
    # box proves a saddle.  Every reported point lies at roundoff and is
    # proved, and each in a named cell lies at an exact gain below
    # AT_ROUNDOFF and within SADDLE_DEG of the exact zero of grad F
    scenarios = (load_scenario(scenario_dir / f"{name}.txt") for name in (
        "two_equilibria", "unit_payoffs", "no_equilibrium", "interior_equilibrium"))
    cells = [(s.payoff_matrix(), s.frames()) for s in scenarios]
    cells += [(PayoffMatrix(*payoffs), (MeasurementFrame(ta), MeasurementFrame(tb)))
              for *payoffs, ta, tb in AT_MOST_ONE_EXAMPLES + HARD_CELLS]
    named = len(cells)
    rng = np.random.default_rng(7)
    for _ in range(300):
        h = PayoffMatrix(*np.exp(rng.uniform(-4.0, 4.0, size=4)))
        theta_a, theta_b = rng.uniform(0.05, 89.95, size=2)
        cells.append((h, (MeasurementFrame(theta_a), MeasurementFrame(theta_b))))

    proved = 0
    for i, (h, frames) in enumerate(cells):
        for eq in find_equilibria(h, frames):
            assert eq.residual <= AT_ROUNDOFF * h.scale, (h, frames, eq)
            assert prove_saddle(h, frames, eq.alpha.degrees, eq.beta.degrees) is not None, (
                h, frames, eq)
            if i < named:
                gain, distance = exact_offsets(h, frames, eq.alpha.degrees, eq.beta.degrees)
                assert gain <= AT_ROUNDOFF and distance <= SADDLE_DEG, (h, frames, eq)
            proved += 1
    # 3 shipped, 3 at the examples, 14 at the hard cells (none at 2.9e-6
    # degrees inside I or in the near-end cell where the rule says 0) and
    # 268 seeded
    assert proved == 288


def test_a_point_moved_by_a_microdegree_fails_the_exact_checks(scenario_dir):
    # the move takes a point 1e-6 degrees from its zero, 10^4 SADDLE_DEG.
    # Its gain grows as the square of the move, about |F_aa| (1.7e-8)^2 / 2:
    # at the shipped scenario's curvature that stays under AT_ROUNDOFF, so
    # only the distance sees the move, while at the example with theta_A =
    # 0.1 degrees the gain sees it too
    sc = load_scenario(scenario_dir / "two_equilibria.txt")
    *payoffs, theta_a, theta_b = AT_MOST_ONE_EXAMPLES[1]
    flat = (MeasurementFrame(theta_a), MeasurementFrame(theta_b))
    for h, frames, gain_sees in ((sc.payoff_matrix(), sc.frames(), False),
                                 (PayoffMatrix(*payoffs), flat, True)):
        [eq] = find_equilibria(h, frames)
        for d_alpha, d_beta in ((1e-6, 0.0), (0.0, 1e-6)):
            gain, distance = exact_offsets(h, frames, eq.alpha.degrees + d_alpha,
                                           eq.beta.degrees + d_beta)
            assert distance > SADDLE_DEG
            assert (gain > AT_ROUNDOFF) == gain_sees


def test_exact_gain_and_reply_match_the_package():
    # numpy seed 12: 300 points at payoffs e^U(-4,4), frames U(0.05, 89.95)
    # and angles U(0, 180).  verify_nash_quantum reads the bilinear form in
    # double, exact_gain F's derivatives at 60 digits; the worst difference
    # is 2.8e-16 * S.  No reply here is flagged, and the worst of
    # best_responses lies 8.0e-13 degrees from exact_reply
    rng = np.random.default_rng(12)
    for _ in range(300):
        h = PayoffMatrix(*np.exp(rng.uniform(-4.0, 4.0, size=4)))
        thetas = rng.uniform(0.05, 89.95, size=2)
        frames = (MeasurementFrame(thetas[0]), MeasurementFrame(thetas[1]))
        alpha, beta = rng.uniform(0.0, 180.0, size=2)
        judged = float(verify_nash_quantum(h, frames, alpha, beta))
        assert abs(judged - exact_gain(h, *thetas, alpha, beta)) <= 1e-15 * h.scale
        for player, opponent in (("alice", beta), ("bob", alpha)):
            reply, _, _ = best_responses(player, h, frames, opponent)
            assert circle_dist(reply, exact_reply(player, h, *thetas, opponent)) <= 5e-12


def test_proof_derivatives_are_those_of_the_payoff():
    # the proof is only as sound as its derivatives, and near a saddle a
    # wrong Hessian still passes Krawczyk's test: each derivative must match
    # a central difference of payoff_kernel at a 0.01-degree step
    rng = np.random.default_rng(8)
    step = math.radians(0.01)
    for _ in range(20):
        h = PayoffMatrix(*np.exp(rng.uniform(-2.0, 2.0, size=4)))
        frames = tuple(MeasurementFrame(t) for t in rng.uniform(1.0, 89.0, size=2))
        alpha, beta = rng.uniform(0.0, 180.0, size=2)

        def f(da, db):
            return payoff_kernel(h, *frames, alpha + 0.01 * da, beta + 0.01 * db)

        differences = (
            (f(1, 0) - f(-1, 0)) / (2 * step),
            (f(0, 1) - f(0, -1)) / (2 * step),
            (f(1, 0) - 2 * f(0, 0) + f(-1, 0)) / step**2,
            (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / (4 * step**2),
            (f(0, 1) - 2 * f(0, 0) + f(0, -1)) / step**2,
        )
        angles = (frames[0].theta_deg, frames[1].theta_deg, alpha, beta)
        derivatives = _payoff_derivatives(iv, h, *(math.radians(x) for x in angles))
        for derivative, difference in zip(derivatives, differences):
            assert float(derivative.mid) == pytest.approx(difference, abs=1e-6 * h.scale)


# --- lemma A: cells in I x I hold no point and are not solved ------------------

certificate_payoffs = st.floats(min_value=-8.0, max_value=8.0).map(math.exp)
fractions = st.floats(min_value=0.0, max_value=1.0)
GRID_05 = np.arange(0.0, 180.0, 0.5)


@settings(max_examples=150, deadline=None)
@given(certificate_payoffs, certificate_payoffs, certificate_payoffs, certificate_payoffs,
       fractions, fractions)
@example(1.0, 1.0, 1.0, 1.0, 0.5, 0.5)
@example(math.exp(-8.0), math.exp(8.0), math.exp(8.0), math.exp(-8.0), 0.5, 0.5)
def test_certificate_bounds_every_pure_gain(a, b, c, d, u_a, u_b):
    # frames at fractions u of I, kept inside (0.05, 89.95), so most draws
    # land in I x I and u = 0 or 1 on its edges.  Where q > 0 at both
    # frames every pure pair gains at least (a+c)(b+d)/(4S) q_A q_B; the
    # judge must agree at every point of a 0.5-degree grid, up to its own
    # roundoff of 1e-14 * S (test_judge_matches_the_trigonometric_definition),
    # and the solver reports no point there off I's ends: farther than 1e-9
    # degrees, and with both q above 1e-14, where the closed form here
    # places them (next to a corner it was 3e-15 off in one cell)
    h = PayoffMatrix(a, b, c, d)
    lo, hi = interval_i(h)
    ta, tb = (min(max(lo + u * (hi - lo), 0.05), 89.95) for u in (u_a, u_b))
    q_a, q_b = circle_margin(h, ta), circle_margin(h, tb)
    if not (q_a > 0 and q_b > 0):
        return
    bound = (a + c) * (b + d) / (4.0 * h.scale) * q_a * q_b
    residual = verify_nash_quantum(h, (ta, tb), GRID_05[:, None], GRID_05[None, :])
    assert residual.min() >= bound - 1e-14 * h.scale
    if off_the_lines(h, ta, tb) and min(q_a, q_b) > 1e-14:
        assert find_equilibria(h, (MeasurementFrame(ta), MeasurementFrame(tb))) == []
        assert all(t.size == 0 for t in find_equilibria_grid(h, [ta], [tb]))


def solved_cells(monkeypatch) -> list[tuple[float, float]]:
    """The frame pairs the solver builds a bilinear form for, as it builds them."""
    cells = []

    def record(h, theta_a, theta_b):
        cells.extend(zip(np.ravel(theta_a).tolist(), np.ravel(theta_b).tolist()))
        return bilinear_form(h, theta_a, theta_b)

    monkeypatch.setattr("wisealice.solver.bilinear_form", record)
    return cells


def test_certificate_skips_nothing_outside_the_interval(monkeypatch):
    # (3, 3, 5, 1): I = (22.2387560930, 82.2387560930); 30/40 lies in I x I,
    # 10 and 85 lie outside.  The grid builds a form for exactly the 32
    # cells outside I x I, and the judge's forms are the solve's cells again
    h = PayoffMatrix(3, 3, 5, 1)
    lo, hi = interval_i(h)
    assert (lo, hi) == pytest.approx((22.2387560930, 82.2387560930), abs=1e-9)
    thetas = [10.0, 22.2, 30.0, 40.0, 82.3, 85.0]
    assert [lo < t < hi for t in thetas] == [False, False, True, True, False, False]
    cells = solved_cells(monkeypatch)
    assert_grid_keeps_the_rule(h, thetas, thetas)
    outside = [(ta, tb) for ta in thetas for tb in thetas
               if pure_equilibrium_count(h, ta, tb) == 1]
    assert len(outside) == 32
    assert sorted(set(cells)) == sorted(outside)


def test_masked_grid_matches_the_full_solve_cell_for_cell():
    # numpy seed 20: 30 payoff draws at e^U(-4,4) and 30 at e^U(-8,8), each
    # on 8 x 8 frames from U(0.05, 89.95).  Every cell off I's ends holds the
    # rule's count, so no cell the grid skips holds a point; in each grid
    # the skipped cell with the smallest lemma-A bound also passes no point
    # of the 0.5-degree grid audit at 1e-8 * S, the solver's tolerance
    # before ROUNDOFF: a smaller one would make the empty audit easier
    rng = np.random.default_rng(20)
    for width in (4.0, 8.0):
        skipped = 0
        for _ in range(30):
            h = PayoffMatrix(*np.exp(rng.uniform(-width, width, 4)))
            ta, tb = rng.uniform(0.05, 89.95, (2, 8))
            counts = assert_grid_keeps_the_rule(h, ta, tb)
            inside = [(circle_margin(h, ta[i]) * circle_margin(h, tb[j]), i, j)
                      for i, j in np.ndindex(8, 8) if counts[8 * i + j] == 0]
            if inside:
                _, i, j = min(inside)
                frames = (MeasurementFrame(ta[i]), MeasurementFrame(tb[j]))
                assert grid_nash_audit(h, frames, step=0.5, tol=1e-8 * h.scale) == []
            skipped += len(inside)
        assert skipped > 0
    # the cusp instances' grids hold cells on a line, where q is 0 up to
    # roundoff: a bare q > 0 mask would skip 7 cells of (1, 1, 3, 3) that
    # hold 8 equilibria, and each of those cells holds what it holds alone
    thetas = np.array(CUSP_THETAS)
    for payoffs, _, _ in CUSP_INSTANCES:
        h = PayoffMatrix(*payoffs)
        grid = find_equilibria_grid(h, thetas, thetas)
        assert_grid_matches_alone(h, grid, thetas, thetas)
        if payoffs == (1, 1, 3, 3):
            q = np.array([circle_margin(h, t) for t in thetas])
            bare = ((q[:, None] > 0) & (q[None, :] > 0)).ravel()
            held = [len(found) for found, inside in zip(grid_cells(grid, 25), bare) if inside]
            assert (sum(map(bool, held)), sum(held)) == (7, 8)


def test_certified_cells_are_never_solved(unit_instance, monkeypatch):
    # lemma A is decided from the payoffs and the frames alone: no bilinear
    # form is built for a cell in I x I
    def fail(*args):
        raise AssertionError("solved a cell in I x I")

    monkeypatch.setattr("wisealice.solver.bilinear_form", fail)
    h, frames = unit_instance
    assert find_equilibria(h, frames) == []
    # the payoffs perfbench's sweep workload draws at seed 1: every cell of
    # its 5:85 step 2.5 grid lies in I x I
    h = PayoffMatrix(2.255464, 4.438643, 2.772891, 4.887643)
    assert all(t.size == 0 for t in find_equilibria_grid(h, SWEEP_THETAS, SWEEP_THETAS))


def test_the_grid_builds_no_per_equilibrium_object(monkeypatch):
    # the arrays alone: no Equilibrium, StrategyAngle or OutcomeWeights, and
    # the values come from the outcome-weight formula on arrays
    def fail(*args, **kwargs):
        raise AssertionError("built a per-equilibrium object")

    for name in ("solver.Equilibrium", "solver.StrategyAngle", "solver.outcome_weights",
                 "quantum.StrategyAngle", "quantum.OutcomeWeights",
                 "quantum.outcome_weights", "quantum.quantum_payoff"):
        monkeypatch.setattr(f"wisealice.{name}", fail)
    h = PayoffMatrix(3, 3, 5, 1)
    cell, alpha, beta, value, residual = find_equilibria_grid(h, SWEEP_THETAS, SWEEP_THETAS)
    assert cell.size == 513
    theta_a = np.repeat(SWEEP_THETAS, len(SWEEP_THETAS))[cell]
    theta_b = np.tile(SWEEP_THETAS, len(SWEEP_THETAS))[cell]
    np.testing.assert_allclose(value, payoff_kernel(h, theta_a, theta_b, alpha, beta),
                               rtol=1e-12)
    assert (residual <= ROUNDOFF * h.scale).all()


# --- the merge: candidates within MERGE_DISTANCE_DEG are one equilibrium -------

def array_merge(alpha, beta, residual, passed) -> list[list[int]]:
    """_merge's kept slots per row, in slot order."""
    return [np.flatnonzero(row).tolist() for row in _merge(alpha, beta, residual, passed)]


def slot_order(rows: list[list[int]]) -> list[list[int]]:
    return [sorted(row) for row in rows]


NAN = math.nan
# hand-made rows of 9 slots, (alpha, beta, residual) each; a slot passes at a
# residual of at most 1e-8, and the slots kept are listed in the order kept
MERGE_ROWS = [
    # NaN residuals fail and sort last; a NaN slot near a kept one changes nothing
    ([10.0, 10.1, 50.0, NAN, 50.1, 90.0, NAN, NAN, NAN],
     [20.0, 20.1, 60.0, NAN, 60.0, 30.0, NAN, NAN, NAN],
     [NAN, 2e-9, 1e-9, NAN, 3e-9, 1e-6, NAN, NAN, NAN], [2, 1]),
    # equal residuals keep slot order
    ([30.0, 30.1, 100.0, 30.05, NAN, NAN, NAN, NAN, NAN],
     [40.0, 40.05, 40.0, 40.0, NAN, NAN, NAN, NAN, NAN],
     [5e-10, 5e-10, 5e-10, 4e-10, NAN, NAN, NAN, NAN, NAN], [3, 2]),
    ([30.1, 30.0, NAN, NAN, NAN, NAN, NAN, NAN, NAN],
     [40.05, 40.0, NAN, NAN, NAN, NAN, NAN, NAN, NAN],
     [5e-10, 5e-10, NAN, NAN, NAN, NAN, NAN, NAN, NAN], [0]),
    # a chain: A near B and B near C, A not near C; only kept slots merge
    ([10.0, 10.15, 10.3, NAN, NAN, NAN, NAN, NAN, NAN],
     [60.0, 60.0, 60.0, NAN, NAN, NAN, NAN, NAN, NAN],
     [1e-12, 2e-12, 3e-12, NAN, NAN, NAN, NAN, NAN, NAN], [0, 2]),
    ([10.0, 10.15, 10.3, NAN, NAN, NAN, NAN, NAN, NAN],
     [60.0, 60.0, 60.0, NAN, NAN, NAN, NAN, NAN, NAN],
     [2e-12, 1e-12, 3e-12, NAN, NAN, NAN, NAN, NAN, NAN], [1]),
    # across the 0/180 seam in either angle, and near in one angle only
    ([0.05, 179.9, 179.95, 0.1, 90.0, 90.1, NAN, NAN, NAN],
     [45.0, 45.1, 179.95, 0.05, 10.0, 10.3, NAN, NAN, NAN],
     [1e-9, 2e-9, 3e-9, 4e-9, 5e-9, 6e-9, NAN, NAN, NAN], [0, 2, 4, 5]),
    # the two walks, slots 0 and 1, are one candidate however far apart:
    # the smaller residual stands, a tie goes to Alice's walk in slot 0, and
    # a walk that is not kept blocks none
    ([10.0, 100.0, 50.0, NAN, NAN, NAN, NAN, NAN, NAN],
     [20.0, 60.0, 70.0, NAN, NAN, NAN, NAN, NAN, NAN],
     [2e-9, 1e-9, 3e-9, NAN, NAN, NAN, NAN, NAN, NAN], [1, 2]),
    ([10.0, 100.0, NAN, NAN, NAN, NAN, NAN, NAN, NAN],
     [20.0, 60.0, NAN, NAN, NAN, NAN, NAN, NAN, NAN],
     [1e-9, 1e-9, NAN, NAN, NAN, NAN, NAN, NAN, NAN], [0]),
    ([10.0, 100.0, 10.05, NAN, NAN, NAN, NAN, NAN, NAN],
     [20.0, 60.0, 20.0, NAN, NAN, NAN, NAN, NAN, NAN],
     [2e-9, 3e-9, 1e-9, NAN, NAN, NAN, NAN, NAN, NAN], [2, 1]),
]


def test_the_array_merge_on_hand_made_rows():
    alpha, beta, residual = (np.array([row[i] for row in MERGE_ROWS]) for i in range(3))
    passed = residual <= 1e-8
    expected = [row[3] for row in MERGE_ROWS]
    assert reference_merge(alpha.tolist(), beta.tolist(), residual.tolist(),
                           passed.tolist(), MERGE_DISTANCE_DEG) == expected
    assert array_merge(alpha, beta, residual, passed) == slot_order(expected)


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
    # 1e-8 * S, the solver's tolerance before ROUNDOFF: an audit at a
    # smaller one would reject everything more easily
    h, frames = unit_instance
    assert grid_nash_audit(h, frames, step=0.1, tol=1e-8 * h.scale) == []


def test_grid_audit_default_tolerance_confirms_equilibria(two_eq_instance,
                                                          close_frames_instance,
                                                          unit_instance):
    for h, frames in (two_eq_instance, close_frames_instance):
        assert grid_cluster_count(grid_nash_audit(h, frames)) == 1
    h, frames = unit_instance
    assert grid_nash_audit(h, frames) == []
