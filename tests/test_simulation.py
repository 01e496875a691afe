import dataclasses
import functools
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from wisealice.game import PayoffMatrix, SquareGeometry
from wisealice.quantum import MeasurementFrame, StrategyAngle, payoff_surface
from wisealice.simulate import (
    SimulationConfig,
    _codes,
    _scoring_table,
    _uniforms,
    run_automaton,
    sample_round,
    simulate,
    transcript_rows,
    write_transcript,
)

import simulate_reference as reference


def make_config(rounds=1000, seed=42, payoffs=(1, 1, 1, 1),
                thetas=(45, 45), alpha=0.0, beta=0.0):
    return SimulationConfig(
        rounds=rounds,
        seed=seed,
        payoffs=PayoffMatrix(*payoffs),
        frame_a=MeasurementFrame(thetas[0]),
        frame_b=MeasurementFrame(thetas[1]),
        alpha=StrategyAngle(alpha),
        beta=StrategyAngle(beta),
    )


def test_round_count_validation():
    with pytest.raises(ValueError):
        make_config(rounds=0)


@pytest.mark.parametrize("field, value", [
    ("rounds", 2**62 + 1), ("seed", -1), ("seed", 2**64), ("seed", 2**64 + 3),
])
def test_config_rejects_what_the_stream_cannot_draw(no_draws, field, value):
    """Round i draws at counters 4i..4i+3 under a 64-bit key, so both must fit.

    A masked seed made 2**64 + 3 replay seed 3; the check runs before any draw.
    """
    with pytest.raises(ValueError, match=f"^{field} must lie in"):
        make_config(**{field: value})


def test_last_round_of_the_stream_draws_the_last_counters():
    config = make_config(rounds=2**62, seed=2**64 - 1)
    counters = 4 * (config.rounds - 1) + np.arange(4, dtype=np.uint64)
    draw = reference.draw_round(config, _uniforms(config.seed, counters))
    assert counters[-1] == np.uint64(2**64 - 1)
    assert sample_round(config, config.rounds - 1) == draw.payoff_13 + draw.payoff_24


def test_sample_round_deterministic():
    config = make_config()
    first = [sample_round(config, i) for i in range(50)]
    second = [sample_round(config, i) for i in range(50)]
    assert first == second


def test_vectorized_run_matches_per_round_sampling():
    config = make_config(rounds=200, seed=7, payoffs=(3, 3, 5, 1),
                         thetas=(10, 70), alpha=145.44, beta=59.38)
    result = simulate(config)
    by_hand = [sample_round(config, i) for i in range(config.rounds)]
    assert result.mean == pytest.approx(float(np.mean(by_hand)), abs=1e-15)


def test_different_seeds_differ():
    a = simulate(make_config(rounds=500, seed=1, alpha=30, beta=40))
    b = simulate(make_config(rounds=500, seed=2, alpha=30, beta=40))
    assert a.mean != b.mean


def test_zero_cells_score_nothing():
    # forced outcomes (1,1) and (2,2) land on zero payoff cells
    config = make_config()
    [(code13, code24)] = _codes(config, np.zeros((1, 4)))
    table = _scoring_table(config.payoffs)
    alice_13, bob_13, payoff_13 = table[0][code13]
    alice_24, bob_24, payoff_24 = table[1][code24]
    assert alice_13 == 1 and bob_13 == 1
    assert alice_24 == 2 and bob_24 == 2
    assert payoff_13 == 0.0 and payoff_24 == 0.0


def test_unit_instance_origin_mean():
    # the unit instance at the origin pays 0 or 1 per round, mean 1/2
    config = make_config(rounds=1_000_000, seed=99)
    result = simulate(config)
    assert result.std_error is not None
    assert abs(result.mean - 0.5) <= 3.0 * result.std_error
    assert result.analytic_value == pytest.approx(0.5)


def test_estimator_unbiased_on_generic_instance():
    config = make_config(rounds=500_000, seed=123, payoffs=(3, 3, 5, 1),
                         thetas=(10, 70), alpha=145.4422, beta=59.3824)
    result = simulate(config)
    analytic = payoff_surface(config.payoffs, config.frame_a, config.frame_b,
                              config.alpha, config.beta)
    assert abs(result.mean - analytic) <= 4.0 * result.std_error


def test_marginal_frequencies_converge():
    from wisealice.quantum import outcome_weights

    config = make_config(rounds=100_000, seed=17, payoffs=(3, 3, 5, 1),
                         thetas=(10, 70), alpha=145.44, beta=59.38)
    p = outcome_weights(config.alpha, config.frame_a)
    q = outcome_weights(config.beta, config.frame_b)
    rows = list(transcript_rows(config))
    n = config.rounds
    freq_a13 = sum(1 for r in rows if r.pair == "13" and r.alice_outcome == 1) / n
    freq_b13 = sum(1 for r in rows if r.pair == "13" and r.bob_outcome == 1) / n
    freq_a24 = sum(1 for r in rows if r.pair == "24" and r.alice_outcome == 2) / n
    freq_b24 = sum(1 for r in rows if r.pair == "24" and r.bob_outcome == 2) / n
    for freq, prob in [(freq_a13, p.p1), (freq_b13, q.p1),
                       (freq_a24, p.p2), (freq_b24, q.p2)]:
        se = np.sqrt(prob * (1.0 - prob) / n)
        assert abs(freq - prob) <= 4.5 * se


def test_transcript_shape_and_determinism():
    config = make_config(rounds=25, seed=5)
    rows_a = list(transcript_rows(config))
    rows_b = list(transcript_rows(config))
    assert rows_a == rows_b
    assert len(rows_a) == 2 * config.rounds
    assert [r.pair for r in rows_a[:4]] == ["13", "24", "13", "24"]
    per_round = rows_a[0].payoff + rows_a[1].payoff
    assert per_round == sample_round(config, 0)


def test_single_round_has_undefined_std_error():
    result = simulate(make_config(rounds=1))
    assert result.std_error is None
    assert result.z_score() is None


def test_automaton_answers_and_payoffs():
    geo = SquareGeometry()
    h = PayoffMatrix(3, 3, 5, 1)
    steps = run_automaton(geo, h, [1, 1], initial_ball=3)
    assert steps[0].answer == "no"
    assert steps[0].payoff == 3.0
    steps = run_automaton(geo, h, [1], initial_ball=4)
    assert steps[0].answer == "yes"
    assert steps[0].payoff == 0.0


def test_automaton_reproduces_payoff_table():
    geo = SquareGeometry()
    h = PayoffMatrix(3, 3, 5, 1)
    for question in range(1, 5):
        for ball in range(1, 5):
            step = run_automaton(geo, h, [question], initial_ball=ball)[0]
            assert step.payoff == h.entry(question, ball)


def test_automaton_rejects_bad_vertices():
    geo = SquareGeometry()
    h = PayoffMatrix(1, 1, 1, 1)
    with pytest.raises(ValueError):
        run_automaton(geo, h, [1], initial_ball=7)
    with pytest.raises(ValueError):
        run_automaton(geo, h, [0], initial_ball=1)


# -- the block kernel against the per-round path ------------------------------

DIFFERENTIAL_ROUNDS = (1, 4095, 4096, 4097, 8195)   # around one and two blocks
DIFFERENTIAL_SEEDS = (0, 7, 2**64 - 1)
DIFFERENTIAL_PAYOFFS = ((3, 3, 5, 1), (1 / 3, math.e, 1e-300, 1e300))


def differential_config(rounds, seed, payoffs):
    return make_config(rounds=rounds, seed=seed, payoffs=payoffs,
                       thetas=(10, 70), alpha=145.44, beta=59.38)


@functools.cache
def reference_draws(seed, payoffs):
    """Per-round draws of the longest run; counters make shorter runs its prefixes."""
    config = differential_config(max(DIFFERENTIAL_ROUNDS), seed, payoffs)
    return reference.round_draws(config)


@pytest.mark.parametrize("payoffs", DIFFERENTIAL_PAYOFFS)
@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
@pytest.mark.parametrize("rounds", DIFFERENTIAL_ROUNDS)
def test_block_kernel_matches_per_round_reference(rounds, seed, payoffs):
    config = differential_config(rounds, seed, payoffs)
    draws = reference_draws(seed, payoffs)[:rounds]
    rows = list(reference.transcript_rows(draws))
    assert list(transcript_rows(config)) == rows

    expected, written = io.StringIO(), io.StringIO()
    reference.write_transcript(rows, expected)
    write_transcript(config, written)
    assert written.getvalue() == expected.getvalue()

    vector = np.array([draw.payoff_13 + draw.payoff_24 for draw in draws])
    for i in sorted({0, rounds // 2, rounds - 1}):
        assert sample_round(config, i) == vector[i]

    result = simulate(config)
    # numpy's std of the payoffs in units of their total, scaled back: the
    # raw squares of 1e300 deviations would overflow
    scale = config.payoffs.scale
    std = float(np.std(vector / scale, ddof=1)) * scale if rounds > 1 else None
    assert result.mean == pytest.approx(float(np.mean(vector)), rel=1e-13)
    if std is None:
        assert result.std_error is None
    else:
        assert result.std_error == pytest.approx(std / math.sqrt(rounds), rel=1e-13)


def test_unreached_cells_leave_the_std_error_as_numpy_has_it():
    # at the unit origin both players always draw 1 on the {1,3} pair, so
    # most joint cells never occur; with 1e300 payoffs the error must still
    # be numpy's std of the payoffs in units of their total, scaled back:
    # finite, and no NaN from the cells no round reached
    config = make_config(rounds=1000, seed=3, payoffs=(1e300,) * 4)
    vector = np.array([draw.payoff_13 + draw.payoff_24
                       for draw in reference.round_draws(config)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = simulate(config)
    scale = config.payoffs.scale
    std = float(np.std(vector / scale, ddof=1)) * scale
    assert result.mean == pytest.approx(float(np.mean(vector)), rel=1e-13)
    assert math.isfinite(result.std_error)
    assert result.std_error == pytest.approx(std / math.sqrt(config.rounds), rel=1e-13)


@pytest.mark.parametrize("lam", [1e-300, 1e200, 1e300, 1.4e307])
def test_std_error_scales_with_the_payoffs(lam):
    # deviations squared raw overflow above ~1e154 and underflow below
    # ~1e-154; in units of the total payoff they do neither.  At 1.4e307
    # the total payoff is 1.68e308, and summing counts times values before
    # dividing by the rounds would overflow the mean
    config = make_config(rounds=10_000, seed=5, payoffs=(3, 3, 5, 1),
                         thetas=(10, 70), alpha=30.0, beta=40.0)
    base = simulate(config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = simulate(dataclasses.replace(config, payoffs=config.payoffs.scaled(lam)))
    assert scaled.std_error == pytest.approx(lam * base.std_error, rel=1e-12)
    # mean - analytic cancels about two digits, so the z-scores agree to
    # roundoff times |mean / std error| ~ 100, not to the last bit
    assert scaled.z_score() == pytest.approx(base.z_score(), rel=0.0, abs=1e-12)


def test_simulate_memory_does_not_grow_with_rounds():
    def peak(rounds):
        config = make_config(rounds=rounds, seed=11, payoffs=(3, 3, 5, 1),
                             thetas=(10, 70), alpha=30.0, beta=40.0)
        tracemalloc.start()
        try:
            simulate(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2**14), peak(2**20)
    assert large < 2 * 2**20
    assert large - small < 2**20 / 2
