import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wisealice.game import (
    OPPOSITE,
    VERTICES,
    PayoffMatrix,
    pure_saddle_analysis,
)

from oracles import as_array, bob_outcome, payoff_matrix_from_rules

positive_payoff = st.floats(min_value=0.01, max_value=100.0,
                            allow_nan=False, allow_infinity=False)


def test_bob_escapes_from_adjacent_corner():
    assert bob_outcome(1, 2) == "yes"
    assert bob_outcome(1, 4) == "yes"


def test_bob_trapped_at_opposite_corner():
    assert bob_outcome(1, 3) == "no"


def test_ball_already_at_question():
    assert bob_outcome(1, 1) == "yes"


def test_invalid_vertex_rejected():
    with pytest.raises(ValueError):
        bob_outcome(0, 1)
    with pytest.raises(ValueError):
        bob_outcome(1, 5)


def test_entry_rejects_a_cell_off_the_matrix():
    with pytest.raises(ValueError, match=r"^invalid matrix cell \(0, 1\)$"):
        PayoffMatrix(3, 3, 5, 1).entry(0, 1)


def test_exactly_one_losing_ball_position_per_question():
    for question in VERTICES:
        losing = [
            ball for ball in VERTICES
            if bob_outcome(question, ball) == "no"
        ]
        assert losing == [OPPOSITE[question]]


def test_payoff_matrix_matches_game_rules():
    h = payoff_matrix_from_rules(3, 3, 5, 1)
    expected = np.array([
        [0, 0, 3, 0],
        [0, 0, 0, 3],
        [5, 0, 0, 0],
        [0, 1, 0, 0],
    ], dtype=float)
    assert np.array_equal(as_array(h), expected)


def test_all_ones_matrix():
    h = payoff_matrix_from_rules(1, 1, 1, 1)
    arr = as_array(h)
    assert np.count_nonzero(arr) == 4
    assert set(arr[arr != 0]) == {1.0}


def test_matrix_has_exactly_four_nonzero_entries():
    arr = as_array(PayoffMatrix(2.5, 0.7, 9.1, 4.0))
    assert np.count_nonzero(arr) == 4


@pytest.mark.parametrize("name,payoffs", [
    ("a", (0, 1, 1, 1)),
    ("b", (1, -2, 1, 1)),
    ("d", (1, 1, 1, 0)),
])
def test_nonpositive_payoff_rejected(name, payoffs):
    with pytest.raises(ValueError, match=name):
        PayoffMatrix(*payoffs)


@pytest.mark.parametrize("payoffs", [
    (math.inf, 1, 1, 1),
    (1, 1, math.nan, 1),
    (1e308, 1e308, 1, 1),   # finite entries whose sum overflows
])
def test_non_finite_payoffs_rejected(payoffs):
    with pytest.raises(ValueError, match="finite"):
        PayoffMatrix(*payoffs)


@pytest.mark.parametrize("payoffs,expected_minmax", [
    ((3, 3, 5, 1), 1.0),
    ((1, 1, 1, 1), 1.0),
])
def test_pure_saddle_analysis_reference(payoffs, expected_minmax):
    result = pure_saddle_analysis(PayoffMatrix(*payoffs))
    assert result.maxmin == 0.0
    assert result.minmax == expected_minmax
    assert not result.saddle_exists


@given(positive_payoff, positive_payoff, positive_payoff, positive_payoff)
def test_no_pure_saddle_for_any_positive_payoffs(a, b, c, d):
    result = pure_saddle_analysis(PayoffMatrix(a, b, c, d))
    assert result.maxmin == 0.0
    assert result.minmax == min(a, b, c, d)
    assert not result.saddle_exists
