import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wisealice.classical import MixedProfile, solve_zero_sum
from wisealice.game import PayoffMatrix, pure_saddle_analysis

from oracles import as_array, expected_payoff, verify_nash_classical

E = [tuple(1.0 if i == j else 0.0 for i in range(4)) for j in range(4)]
UNIFORM = (0.25, 0.25, 0.25, 0.25)

positive_payoff = st.floats(min_value=0.1, max_value=10.0,
                            allow_nan=False, allow_infinity=False)
# payoffs from e^-30 to e^30, a ratio of up to 1e26 between any two
wide_payoff = st.floats(min_value=-30.0, max_value=30.0).map(math.exp)
# 2^k times a wide payoff stays a normal float
power_of_two = st.integers(min_value=-950, max_value=950)

# wide payoff ratios and subnormal payoffs
EXTREME_PAYOFFS = [(1e9, 1, 1, 1), (1e5, 1e-5, 1, 1), (1e-310,) * 4]


def exact_solution(h: PayoffMatrix) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Value and both strategies in rational arithmetic.

    v = 1 / sum 1/h_j, x_j = v / h_j, and Bob's weight on the column
    opposite row j is x_j.
    """
    payoffs = [Fraction(p) for p in (h.a, h.b, h.c, h.d)]
    value = 1 / sum(1 / p for p in payoffs)
    x = [value / p for p in payoffs]
    return value, x, x[2:] + x[:2]


def assert_within_ulps(got: float, exact: Fraction, ulps: int = 4) -> None:
    nearest = float(exact)
    assert abs(Fraction(got) - exact) <= ulps * Fraction(math.ulp(nearest)), (
        got, nearest)


def assert_exact_to_ulps(h: PayoffMatrix) -> None:
    profile = solve_zero_sum(h)
    value, x, y = exact_solution(h)
    assert_within_ulps(profile.value, value)
    for got, want in zip(profile.x + profile.y, x + y):
        assert_within_ulps(got, want)


def lp_oracle_value(h: PayoffMatrix) -> float:
    """Game value via the standard minimax LP, solved with scipy.

    Maximize v s.t. sum_j x_j h[j][k] >= v for every column k, x on the
    simplex; independent of the closed form.
    """
    from scipy.optimize import linprog

    arr = as_array(h)
    # variables: x1..x4, v ; minimize -v
    c = np.array([0, 0, 0, 0, -1.0])
    a_ub = np.hstack([-arr.T, np.ones((4, 1))])   # v - x @ h[:, k] <= 0
    b_ub = np.zeros(4)
    a_eq = np.array([[1.0, 1, 1, 1, 0]])
    b_eq = np.array([1.0])
    bounds = [(0, None)] * 4 + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds)
    assert res.success
    return float(res.x[4])


def test_expected_payoff_uniform_all_ones():
    h = PayoffMatrix(1, 1, 1, 1)
    assert expected_payoff(h, UNIFORM, UNIFORM) == pytest.approx(0.25)


def test_expected_payoff_pure_strategies():
    h = PayoffMatrix(3, 3, 5, 1)
    assert expected_payoff(h, E[0], E[2]) == pytest.approx(3.0)   # h[1][3] = a
    assert expected_payoff(h, E[0], E[0]) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_expected_payoff_rejects_non_finite(bad):
    h = PayoffMatrix(1, 1, 1, 1)
    with pytest.raises(ValueError, match="finite"):
        expected_payoff(h, (bad,) * 4, UNIFORM)
    with pytest.raises(ValueError, match="finite"):
        expected_payoff(h, UNIFORM, (bad, 0.0, 0.0, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mixed_profile_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        MixedProfile((bad,) * 4, (bad,) * 4, bad)
    with pytest.raises(ValueError, match="finite"):
        MixedProfile((bad, 0.0, 0.0, 1.0), UNIFORM, 0.25)
    with pytest.raises(ValueError, match="finite"):
        MixedProfile(UNIFORM, UNIFORM, bad)


def test_expected_payoff_rejects_off_simplex():
    h = PayoffMatrix(1, 1, 1, 1)
    with pytest.raises(ValueError):
        expected_payoff(h, (0.5, 0.5, 0.5, 0.5), UNIFORM)
    with pytest.raises(ValueError):
        expected_payoff(h, (1.2, -0.2, 0.0, 0.0), UNIFORM)


def test_all_ones_solution_is_uniform():
    profile = solve_zero_sum(PayoffMatrix(1, 1, 1, 1))
    assert profile.value == pytest.approx(0.25, abs=1e-12)
    assert profile.x == pytest.approx(UNIFORM, abs=1e-12)
    assert profile.y == pytest.approx(UNIFORM, abs=1e-12)


def test_reference_matrix_value_matches_lp_oracle():
    h = PayoffMatrix(3, 3, 5, 1)
    profile = solve_zero_sum(h)
    assert profile.value == pytest.approx(lp_oracle_value(h), abs=1e-9)
    # harmonic-sum closed form for this matrix family: 1 / sum(1/payoff)
    assert profile.value == pytest.approx(15.0 / 28.0, abs=1e-12)


def test_catch_probabilities_equalize_columns():
    # at the optimum every question is caught with the same probability:
    # x_j * payoff_j is constant
    for payoffs in [(3, 3, 5, 1)] + EXTREME_PAYOFFS:
        profile = solve_zero_sum(PayoffMatrix(*payoffs))
        products = [x * w for x, w in zip(profile.x, payoffs)]
        assert products == pytest.approx([profile.value] * 4, abs=1e-12)
        # the same relative to the value, which the absolute check cannot
        # see for subnormal payoffs
        ratios = [p / profile.value for p in products]
        assert ratios == pytest.approx([1.0] * 4, abs=1e-12)


@pytest.mark.parametrize("payoffs", EXTREME_PAYOFFS)
def test_extreme_payoffs_match_exact_solution(payoffs):
    h = PayoffMatrix(*payoffs)
    assert_exact_to_ulps(h)
    assert verify_nash_classical(h, solve_zero_sum(h))


@settings(max_examples=200, deadline=None)
@given(wide_payoff, wide_payoff, wide_payoff, wide_payoff)
def test_closed_form_matches_exact_rationals(a, b, c, d):
    assert_exact_to_ulps(PayoffMatrix(a, b, c, d))


@settings(max_examples=200, deadline=None)
@given(wide_payoff, wide_payoff, wide_payoff, wide_payoff, power_of_two)
def test_power_of_two_scaling_is_exact(a, b, c, d, k):
    base = solve_zero_sum(PayoffMatrix(a, b, c, d))
    h = PayoffMatrix(*(math.ldexp(p, k) for p in (a, b, c, d)))
    scaled = solve_zero_sum(h)
    assert_exact_to_ulps(h)
    assert scaled.x == base.x and scaled.y == base.y
    assert scaled.value == math.ldexp(base.value, k)


def test_scaling_keeps_strategies_scales_value():
    h = PayoffMatrix(3, 3, 5, 1)
    base = solve_zero_sum(h)
    scaled = solve_zero_sum(h.scaled(7.0))
    assert scaled.x == pytest.approx(base.x, abs=1e-12)
    assert scaled.y == pytest.approx(base.y, abs=1e-12)
    assert scaled.value == pytest.approx(7.0 * base.value, rel=1e-12)


# the judge's slack is relative, so its verdicts hold at every payoff scale
VERDICT_SCALES = (1e-300, 1e-12, 1.0, 1e9, 1e300)


def test_verify_nash_classical_accepts_uniform_on_all_ones():
    h = PayoffMatrix(1, 1, 1, 1)
    assert verify_nash_classical(h, MixedProfile(UNIFORM, UNIFORM, 0.25))
    for lam in VERDICT_SCALES:
        h = PayoffMatrix(3, 3, 5, 1).scaled(lam)
        assert verify_nash_classical(h, solve_zero_sum(h)), lam


def test_verify_nash_classical_rejects_pure_profile():
    h = PayoffMatrix(1, 1, 1, 1)
    assert not verify_nash_classical(h, MixedProfile(E[0], E[2], 1.0))
    # at x = y = e_1 Alice gains c = 5 * lam by switching to row 3
    for lam in VERDICT_SCALES:
        h = PayoffMatrix(3, 3, 5, 1).scaled(lam)
        assert not verify_nash_classical(h, MixedProfile(E[0], E[0], 0.0)), lam


def test_mixed_profile_validates_simplex():
    with pytest.raises(ValueError):
        MixedProfile((0.5, 0.5, 0.5, -0.5), UNIFORM, 0.0)
    with pytest.raises(ValueError):
        MixedProfile(UNIFORM, (0.3, 0.3, 0.3, 0.3), 0.0)


def test_mixed_profile_rejects_a_vector_of_three_entries():
    with pytest.raises(ValueError, match=r"^x must have 4 entries, got \(0\.5, 0\.25, 0\.25\)$"):
        MixedProfile((0.5, 0.25, 0.25), UNIFORM, 0.0)


@settings(max_examples=100, deadline=None)
@given(positive_payoff, positive_payoff, positive_payoff, positive_payoff)
def test_solver_output_always_verifies(a, b, c, d):
    h = PayoffMatrix(a, b, c, d)
    profile = solve_zero_sum(h)
    assert verify_nash_classical(h, profile)


@settings(max_examples=100, deadline=None)
@given(positive_payoff, positive_payoff, positive_payoff, positive_payoff)
def test_minimax_duality(a, b, c, d):
    h = PayoffMatrix(a, b, c, d)
    arr = as_array(h)
    profile = solve_zero_sum(h)
    x = np.asarray(profile.x)
    y = np.asarray(profile.y)
    alice_guarantee = (x @ arr).min()       # worst column against x
    bob_guarantee = (arr @ y).max()         # best row against y
    assert alice_guarantee == pytest.approx(bob_guarantee, abs=1e-9)
    assert alice_guarantee == pytest.approx(profile.value, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(positive_payoff, positive_payoff, positive_payoff, positive_payoff)
def test_value_between_pure_bounds(a, b, c, d):
    h = PayoffMatrix(a, b, c, d)
    pure = pure_saddle_analysis(h)
    value = solve_zero_sum(h).value
    assert pure.maxmin - 1e-12 <= value <= pure.minmax + 1e-12
