import csv
import dataclasses
import functools
import io
import math
import tracemalloc
import unittest.mock
import warnings

import numpy as np
import pytest

from wisealice.cli import main
from wisealice.game import PayoffMatrix
from wisealice.quantum import MeasurementFrame, StrategyAngle, outcome_weights
from wisealice.simulate import (
    BLOCK_ROUNDS,
    SimulationConfig,
    _PAIRS,
    _draws,
    _scoring_table,
    simulate,
)

import simulate_reference as reference
from oracles import payoff_surface


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


def kernel_args(config):
    """The seed and thresholds simulate hands the block kernel for config."""
    seen = []

    def draws(seed, thresholds, start, stop):
        seen.append((seed, thresholds))
        return _draws(seed, thresholds, start, stop)

    with unittest.mock.patch("wisealice.simulate._draws", draws):
        simulate(dataclasses.replace(config, rounds=1))
    return seen[0]


def kernel_draws(config, start, stop):
    """Rounds [start, stop) of the block kernel, read as the reference's RoundDraw."""
    table13, table24 = _scoring_table(config.payoffs)
    return [reference.RoundDraw(*table13[c13][:2], *table24[c24][:2],
                                table13[c13][2], table24[c24][2])
            for c13, c24 in _draws(*kernel_args(config), start, stop).tolist()]


def transcript_rows(config):
    """The rows of simulate's CSV transcript, parsed back into TranscriptRow."""
    fh = io.StringIO()
    simulate(config, fh)
    fh.seek(0)
    return [reference.TranscriptRow(int(r["round"]), r["pair"], int(r["alice_outcome"]),
                                    int(r["bob_outcome"]), float(r["payoff"]))
            for r in csv.DictReader(fh)]


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


# splitmix64.c's first five outputs from state 1234567, as published with it
PUBLISHED_SEED = 1234567
PUBLISHED_OUTPUTS = (6457827717110365317, 3203168211198807973, 9817491932198370423,
                     4593380528125082431, 16408922859458223821)


def test_reference_stream_is_the_published_splitmix64():
    assert tuple(reference.splitmix64(PUBLISHED_SEED, c) for c in range(5)) == PUBLISHED_OUTPUTS


def test_draws_match_the_reference_from_the_published_state():
    # rounds 0 and 1 read counters 0..7, the published outputs among them
    config = differential_config(BLOCK_ROUNDS, PUBLISHED_SEED, (3, 3, 5, 1))
    assert kernel_draws(config, 0, config.rounds) == reference.round_draws(config)


def test_last_round_of_the_stream_draws_the_last_counters():
    # the last round reads counter 2**64 - 1, whose +1 wraps to 0 before mixing
    config = differential_config(2**62, 2**64 - 1, (3, 3, 5, 1))
    start = config.rounds - BLOCK_ROUNDS
    assert 4 * config.rounds - 1 == 2**64 - 1
    assert kernel_draws(config, start, config.rounds) == [
        reference.round_draw(config, i) for i in range(start, config.rounds)]


def test_draws_deterministic():
    args = kernel_args(make_config())
    first = _draws(*args, 0, 50)
    assert np.array_equal(first, _draws(*args, 0, 50))
    # a block of rounds draws what the same rounds draw inside a longer block
    assert np.array_equal(first[20:], _draws(*args, 20, 50))


def test_vectorized_run_matches_per_round_sampling():
    config = make_config(rounds=200, seed=7, payoffs=(3, 3, 5, 1),
                         thetas=(10, 70), alpha=145.44, beta=59.38)
    result = simulate(config)
    by_hand = [draw.payoff_13 + draw.payoff_24 for draw in reference.round_draws(config)]
    assert result.mean == pytest.approx(float(np.mean(by_hand)), abs=1e-15)


def test_different_seeds_differ():
    a = simulate(make_config(rounds=500, seed=1, alpha=30, beta=40))
    b = simulate(make_config(rounds=500, seed=2, alpha=30, beta=40))
    assert a.mean != b.mean


def test_zero_cells_score_nothing():
    # forced outcomes (1,1) and (2,2), code 0 of each pair, land on zero
    # payoff cells, in the scoring table and in the reference's own rule
    config = make_config()
    table13, table24 = _scoring_table(config.payoffs)
    assert table13[0] == (1, 1, 0.0)
    assert table24[0] == (2, 2, 0.0)
    assert reference.draw_round(config, (0.0,) * 4) == (1, 1, 2, 2, 0.0, 0.0)


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
    config = make_config(rounds=100_000, seed=17, payoffs=(3, 3, 5, 1),
                         thetas=(10, 70), alpha=145.44, beta=59.38)
    p = outcome_weights(config.alpha, config.frame_a)
    q = outcome_weights(config.beta, config.frame_b)
    rows = transcript_rows(config)
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
    rows_a = transcript_rows(config)
    rows_b = transcript_rows(config)
    assert rows_a == rows_b
    assert len(rows_a) == 2 * config.rounds
    assert [r.pair for r in rows_a[:4]] == ["13", "24", "13", "24"]
    draw = reference.round_draw(config, 0)
    assert rows_a[0].payoff + rows_a[1].payoff == draw.payoff_13 + draw.payoff_24


def test_single_round_has_undefined_std_error():
    result = simulate(make_config(rounds=1))
    assert result.std_error is None
    assert result.z_score() is None


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

    expected, written = io.StringIO(), io.StringIO()
    reference.write_transcript(rows, expected)
    result = simulate(config, written)
    assert written.getvalue() == expected.getvalue()
    assert simulate(config) == result

    assert kernel_draws(config, 0, rounds) == draws

    vector = np.array([draw.payoff_13 + draw.payoff_24 for draw in draws])

    # numpy's std of the payoffs in units of their total, scaled back: the
    # raw squares of 1e300 deviations would overflow
    scale = config.payoffs.scale
    std = float(np.std(vector / scale, ddof=1)) * scale if rounds > 1 else None
    assert result.mean == pytest.approx(float(np.mean(vector)), rel=1e-13)
    if std is None:
        assert result.std_error is None
    else:
        assert result.std_error == pytest.approx(std / math.sqrt(rounds), rel=1e-13)


def formatted_per_row(config):
    """The transcript as one f-string per round over _draws' codes of every round."""
    tails13, tails24 = (
        [f",{pair},{alice},{bob},{payoff:.6g}\n" for alice, bob, payoff in cells]
        for pair, cells in zip(_PAIRS, _scoring_table(config.payoffs))
    )
    codes = _draws(*kernel_args(config), 0, config.rounds)
    return "round,pair,alice_outcome,bob_outcome,payoff\n" + "".join(
        f"{i}{tails13[code13]}{i}{tails24[code24]}"
        for i, code13, code24 in zip(range(config.rounds), *codes.T.tolist())
    )


@pytest.mark.parametrize("rounds", [1, 999, 1000, 1001, BLOCK_ROUNDS + 1, 100_001])
def test_transcript_matches_a_per_row_formatter(rounds):
    # 100,001 rounds print indices of 1 to 6 digits, across every block edge
    config = differential_config(rounds, 7, DIFFERENTIAL_PAYOFFS[1])
    written = io.StringIO()
    simulate(config, written)
    assert written.getvalue() == formatted_per_row(config)


def test_a_transcript_draws_each_block_once(scenario_dir, tmp_path, monkeypatch):
    calls = []

    def counted(seed, thresholds, start, stop):
        calls.append((start, stop))
        return _draws(seed, thresholds, start, stop)

    monkeypatch.setattr("wisealice.simulate._draws", counted)
    assert main(["simulate", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--alpha", "10", "--beta", "20", "--rounds", "10000",
                 "--out", str(tmp_path / "o.txt"),
                 "--transcript", str(tmp_path / "t.csv")]) == 0
    assert len(calls) == math.ceil(10_000 / BLOCK_ROUNDS) == 3
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 1 + 2 * 10_000


def test_a_run_weighs_each_strategy_once(monkeypatch):
    # every 4,096-round block recomputed both players' weights, and the
    # analytic value computed them again: 8 calls at 10,000 rounds
    calls = []

    def counted(angle, frame):
        calls.append(angle)
        return outcome_weights(angle, frame)

    monkeypatch.setattr("wisealice.simulate.outcome_weights", counted)
    config = make_config(rounds=10_000, seed=7, alpha=30, beta=40)
    simulate(config, io.StringIO())
    assert calls == [config.alpha, config.beta]


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
