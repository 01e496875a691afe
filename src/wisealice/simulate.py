"""Monte Carlo check of the payoff rule.

One simulated round plays both question pairs: Alice's outcome on the
{1,3} pair is drawn with weights (p1, p3) and Bob's with (q1, q3), the
payoff cell is scored, and the {2,4} pair is drawn independently with
(p2, p4) and (q2, q4).  Summing both sub-rounds makes the per-round
expectation equal the quantum payoff exactly, with no extra factor.

Randomness is counter-based: round i consumes the four SplitMix64 outputs
(Steele, Lea & Flood, OOPSLA 2014) at counters 4i..4i+3 under the run's
seed, so any block of rounds can be drawn independently with identical
results.  Each output's top 53 bits are a word in [0, 2^53), standing for
the uniform u = word / 2^53, and an outcome is the first of its pair when
u < w for its weight w.  The kernel compares words, never doubles:
w·2^53 is exact in floating point, and an integer word lies below it
exactly when it lies below ceil(w·2^53), so u < w holds exactly when
word < ceil(w·2^53).  One block kernel, `_draws`, turns a block's
counters into per-pair outcome codes, and one table, `_scoring_table`,
scores them.  `simulate` makes the table, the weights and their
thresholds once per run and draws each block once: its codes feed the
counts of joint outcomes and, when a transcript handle is given, that
block's CSV rows, joined from pieces made once per run
(`_transcript_writer`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from wisealice.game import MeasurementFrame, PayoffMatrix
from wisealice.quantum import StrategyAngle, outcome_weights, quantum_payoff
from wisealice.scenario import _check_stream

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


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
# each question pair's label and its two corners
_PAIRS = {"13": (1, 3), "24": (2, 4)}


def _scoring_table(h: PayoffMatrix) -> tuple[tuple[tuple[int, int, float], ...], ...]:
    """The scoring rule: table[pair][code] = (alice outcome, bob outcome, payoff).

    A pair's code is 2·[Alice drew its second outcome] + [Bob drew it]; the
    payoff is the matrix entry of the two outcomes, so Alice is paid only
    when they are opposite corners.
    """
    return tuple(tuple((j, k, h.entry(j, k)) for j in pair for k in pair)
                 for pair in _PAIRS.values())


def _draws(seed: int, thresholds: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Per-pair outcome codes (n, 2) of rounds [start, stop).

    Round i's columns are counters 4i..4i+3, drawn for Alice and Bob on
    {1,3}, then Alice and Bob on {2,4}, and compared with the thresholds
    of p1, q1, p2 and q2 in that order; SplitMix64 runs in place on the
    one array of counters.
    """
    z = np.arange(4 * start, 4 * stop, dtype=np.uint64)
    z += np.uint64(1)   # wraps at the stream's last counter, 2^64 - 1
    z *= _GAMMA
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    second = z.reshape(-1, 4) >= thresholds
    return 2 * second[:, 0::2] + second[:, 1::2]


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


def _transcript_writer(table: tuple, fh: TextIO) -> Callable[[range, np.ndarray], None]:
    """Write the transcript's CSV header to fh; return the writer of a block's rows.

    Each round gives two rows, one per question pair, in round order:
    round, pair ("13" or "24"), alice_outcome, bob_outcome, payoff (.6g),
    the last three read off table, the run's `_scoring_table`.
    A block is joined from pieces made once, so no int is formatted and no
    Python code runs per row: round i prints as str(i // 1000), empty
    below 1000, then i % 1000 from a table, zero-padded to three digits
    above 999; what follows it is the row tail of its pair's code.
    """
    tails = [np.array([f",{pair},{alice},{bob},{payoff:.6g}\n" for alice, bob, payoff in cells],
                      dtype=object) for pair, cells in zip(_PAIRS, table)]
    plain, padded = [str(r) for r in range(1000)], [f"{r:03d}" for r in range(1000)]
    fh.write("round,pair,alice_outcome,bob_outcome,payoff\n")

    def write(rounds: range, codes: np.ndarray) -> None:
        heads, rests = [], []
        for k in range(rounds.start // 1000, (rounds.stop - 1) // 1000 + 1):
            lo, hi = max(rounds.start - 1000 * k, 0), min(rounds.stop - 1000 * k, 1000)
            heads += [str(k) if k else ""] * (hi - lo)
            rests += (padded if k else plain)[lo:hi]
        parts = [""] * (6 * len(rounds))
        parts[0::6] = parts[3::6] = heads
        parts[1::6] = parts[4::6] = rests
        parts[2::6], parts[5::6] = (tail[column].tolist() for tail, column in zip(tails, codes.T))
        fh.write("".join(parts))
    return write


def simulate(config: SimulationConfig, transcript: TextIO | None = None) -> SimulationResult:
    """Run every round and report the empirical mean against the exact value.

    Rounds are streamed in blocks and only the count of each joint outcome
    code is kept, so memory does not grow with the number of rounds.  With
    a transcript handle, each block's rows are also written there as CSV
    (`_transcript_writer`) while the block is at hand.
    """
    table = _scoring_table(config.payoffs)
    write = None if transcript is None else _transcript_writer(table, transcript)
    p = outcome_weights(config.alpha, config.frame_a)
    q = outcome_weights(config.beta, config.frame_b)
    # w in [0, 1], so each threshold lies in [0, 2^53]
    thresholds = np.array([math.ceil(w * 2.0**53) for w in (p.p1, q.p1, p.p2, q.p2)],
                          dtype=np.uint64)
    counts = np.zeros(16, dtype=np.int64)
    for start in range(0, config.rounds, BLOCK_ROUNDS):
        stop = min(start + BLOCK_ROUNDS, config.rounds)
        codes = _draws(config.seed, thresholds, start, stop)
        counts += np.bincount(4 * codes[:, 0] + codes[:, 1], minlength=16)
        if write:
            write(range(start, stop), codes)
    pay13, pay24 = (np.array([cell[2] for cell in pair]) for pair in table)
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
    return SimulationResult(n, mean, se, quantum_payoff(config.payoffs, p, q))
