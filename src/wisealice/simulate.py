"""Monte Carlo check of the payoff rule and a round-by-round automaton.

One simulated round plays both question pairs: Alice's outcome on the
{1,3} pair is drawn with weights (p1, p3) and Bob's with (q1, q3), the
payoff cell is scored, and the {2,4} pair is drawn independently with
(p2, p4) and (q2, q4).  Summing both sub-rounds makes the per-round
expectation equal the quantum payoff exactly, with no extra factor.

Randomness is counter-based: round i consumes the four SplitMix64 outputs
at counters 4i..4i+3 under the run's seed, so any block of rounds can be
drawn independently with identical results.  One block kernel, `_draws`,
turns a block's counters into per-pair outcome codes, and one table,
`_scoring_table`, scores them; `simulate`, `transcript_rows`,
`write_transcript` and `sample_round` are views of the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from wisealice.game import PayoffMatrix, SquareGeometry, bob_outcome
from wisealice.quantum import MeasurementFrame, StrategyAngle, outcome_weights, payoff_surface

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = float(1 << 53)
MAX_ROUNDS = 1 << 62   # the counters 4i..4i+3 of every round fit in uint64


def _check_stream(rounds: int, seed: int) -> None:
    """Reject a round count or seed outside the counter stream's domain."""
    if not 1 <= rounds <= MAX_ROUNDS:
        raise ValueError(f"rounds must lie in [1, 2**62], got {rounds}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; a bijection on 64-bit words."""
    z = x
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) doubles at the given stream counters."""
    key = np.uint64(seed)
    counters = np.asarray(counters, dtype=np.uint64)
    words = _mix64((counters + np.uint64(1)) * _GAMMA + key)
    return (words >> np.uint64(11)).astype(np.float64) / _U53


@dataclass(frozen=True)
class SimulationConfig:
    rounds: int
    seed: int
    payoffs: PayoffMatrix
    frame_a: MeasurementFrame
    frame_b: MeasurementFrame
    alpha: StrategyAngle
    beta: StrategyAngle

    def __post_init__(self) -> None:
        _check_stream(self.rounds, self.seed)


BLOCK_ROUNDS = 4096   # rounds drawn per numpy call; results do not depend on it
_PAIRS = ("13", "24")


def _scoring_table(h: PayoffMatrix) -> tuple[tuple[tuple[int, int, float], ...], ...]:
    """The scoring rule: table[pair][code] = (alice outcome, bob outcome, payoff).

    A pair's code is 2·[Alice drew its second outcome] + [Bob drew it]; Alice
    is paid only when the two outcomes are opposite corners.
    """
    return (
        ((1, 1, 0.0), (1, 3, h.a), (3, 1, h.c), (3, 3, 0.0)),
        ((2, 2, 0.0), (2, 4, h.b), (4, 2, h.d), (4, 4, 0.0)),
    )


def _codes(config: SimulationConfig, uniforms: np.ndarray) -> np.ndarray:
    """Per-pair outcome codes (n, 2) of the rounds whose uniforms are (n, 4)."""
    p = outcome_weights(config.alpha, config.frame_a)
    q = outcome_weights(config.beta, config.frame_b)
    second = ~(uniforms < np.array([p.p1, q.p1, p.p2, q.p2]))
    return 2 * second[:, 0::2] + second[:, 1::2]


def _draws(config: SimulationConfig, start: int, stop: int) -> np.ndarray:
    """Outcome codes of rounds [start, stop), from counters 4i..4i+3 of round i."""
    counters = np.arange(4 * start, 4 * stop, dtype=np.uint64).reshape(-1, 4)
    return _codes(config, _uniforms(config.seed, counters))


def _blocks(config: SimulationConfig) -> Iterator[tuple[range, np.ndarray]]:
    """(round indices, outcome codes) of every round, BLOCK_ROUNDS at a time."""
    for start in range(0, config.rounds, BLOCK_ROUNDS):
        stop = min(start + BLOCK_ROUNDS, config.rounds)
        yield range(start, stop), _draws(config, start, stop)


def sample_round(config: SimulationConfig, round_index: int) -> float:
    """Payoff of one round: both question pairs drawn and scored."""
    if not 0 <= round_index < config.rounds:
        raise ValueError(f"round_index out of range: {round_index}")
    code13, code24 = _draws(config, round_index, round_index + 1)[0]
    table = _scoring_table(config.payoffs)
    return table[0][code13][2] + table[1][code24][2]


@dataclass(frozen=True)
class SimulationResult:
    rounds: int
    mean: float
    std_error: float | None   # None when a single round leaves it undefined
    analytic_value: float

    def z_score(self) -> float | None:
        if self.std_error is None or self.std_error == 0.0:
            return None
        return (self.mean - self.analytic_value) / self.std_error


def simulate(config: SimulationConfig) -> SimulationResult:
    """Run every round and report the empirical mean against the exact value.

    Rounds are streamed in blocks and only the count of each joint outcome
    code is kept, so memory does not grow with the number of rounds.
    """
    counts = np.zeros(16, dtype=np.int64)
    for _, codes in _blocks(config):
        counts += np.bincount(4 * codes[:, 0] + codes[:, 1], minlength=16)
    pay13, pay24 = (np.array([cell[2] for cell in pair])
                    for pair in _scoring_table(config.payoffs))
    values = (pay13[:, None] + pay24[None, :]).ravel()   # round payoff by joint code
    n = config.rounds
    # weights before values: the sum of counts times values overflows first
    mean = float((counts / n) @ values)
    if n > 1:
        # deviations in units of the total payoff: their squares can neither
        # overflow nor underflow, whatever the payoff magnitude
        scale = config.payoffs.scale
        deviations = (values - mean) / scale
        se = float(np.sqrt(counts @ deviations**2 / (n - 1)) / np.sqrt(n)) * scale
    else:
        se = None
    analytic = payoff_surface(
        config.payoffs, config.frame_a, config.frame_b, config.alpha, config.beta
    )
    return SimulationResult(n, mean, se, analytic)


class TranscriptRow(NamedTuple):
    round_index: int
    pair: str               # "13" or "24"
    alice_outcome: int
    bob_outcome: int
    payoff: float


def transcript_rows(config: SimulationConfig) -> Iterator[TranscriptRow]:
    """Two rows per round, one per question pair, in round order."""
    table = _scoring_table(config.payoffs)
    for indices, codes in _blocks(config):
        for i, round_codes in zip(indices, codes.tolist()):
            for pair, cells, code in zip(_PAIRS, table, round_codes):
                yield TranscriptRow(i, pair, *cells[code])


def write_transcript(config: SimulationConfig, fh: TextIO) -> None:
    """Write transcript_rows as CSV with a header, payoffs formatted .6g."""
    tails13, tails24 = (
        [f",{pair},{alice},{bob},{payoff:.6g}\n" for alice, bob, payoff in cells]
        for pair, cells in zip(_PAIRS, _scoring_table(config.payoffs))
    )
    fh.write("round,pair,alice_outcome,bob_outcome,payoff\n")
    for indices, codes in _blocks(config):
        fh.write("".join(
            f"{i}{tails13[code13]}{i}{tails24[code24]}"
            for i, code13, code24 in zip(indices, *codes.T.tolist())
        ))


class AutomatonStep(NamedTuple):
    question: int
    answer: str
    payoff: float
    ball: int


def run_automaton(
    geometry: SquareGeometry,
    payoffs: PayoffMatrix,
    questions: Sequence[int],
    initial_ball: int,
) -> list[AutomatonStep]:
    """Play a question sequence with the ball reset before every round.

    Each round starts from initial_ball (rounds are independent plays of
    the one-shot game); the recorded ball is where Bob left it.
    """
    geometry.require_vertex(initial_ball)
    steps = []
    for question in questions:
        answer, new_ball = bob_outcome(geometry, question, initial_ball)
        payoff = payoffs.row_payoff(question) if answer == "no" else 0.0
        steps.append(AutomatonStep(question, answer, payoff, new_ball))
    return steps
