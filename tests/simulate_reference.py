"""A per-round Monte Carlo path, the differential reference of simulate.py.

It draws one round at a time from its own SplitMix64 (Steele, Lea & Flood,
OOPSLA 2014) in plain Python integers masked to 64 bits, turns each word
into a double u in [0, 1) and tests u < w, scores the round with its own
copy of the scoring rule and writes the transcript through csv.writer.
So the block kernel, its integer thresholds, the scoring table and the
string-built CSV share no code with it; only the stream's definition is
common: round i reads the outputs at counters 4i..4i+3 under the run's
seed.  Rounds are drawn by counter, so the draws of a shorter run are a
prefix of a longer run's and tests derive every run from one list.
"""

from __future__ import annotations

import csv
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

from wisealice.quantum import outcome_weights
from wisealice.simulate import SimulationConfig

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


class TranscriptRow(NamedTuple):
    round_index: int
    pair: str               # "13" or "24"
    alice_outcome: int
    bob_outcome: int
    payoff: float


class RoundDraw(NamedTuple):
    alice_13: int   # 1 or 3
    bob_13: int
    alice_24: int   # 2 or 4
    bob_24: int
    payoff_13: float
    payoff_24: float


def splitmix64(seed: int, counter: int) -> int:
    """Output at `counter` of the stream under `seed`.

    splitmix64.c's state starts at the seed and each next() adds GAMMA
    before mixing, so counter c is its (c+1)-th output.
    """
    z = (seed + (counter + 1) * GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def uniform(seed: int, counter: int) -> float:
    """The top 53 bits of the word at `counter`, as a double in [0, 1)."""
    return (splitmix64(seed, counter) >> 11) / 2**53


def draw_round(config: SimulationConfig, uniforms: Sequence[float]) -> RoundDraw:
    h = config.payoffs
    p = outcome_weights(config.alpha, config.frame_a)
    q = outcome_weights(config.beta, config.frame_b)
    a13 = 1 if uniforms[0] < p.p1 else 3
    b13 = 1 if uniforms[1] < q.p1 else 3
    a24 = 2 if uniforms[2] < p.p2 else 4
    b24 = 2 if uniforms[3] < q.p2 else 4
    pay13 = h.a if (a13, b13) == (1, 3) else h.c if (a13, b13) == (3, 1) else 0.0
    pay24 = h.b if (a24, b24) == (2, 4) else h.d if (a24, b24) == (4, 2) else 0.0
    return RoundDraw(a13, b13, a24, b24, pay13, pay24)


def round_draw(config: SimulationConfig, round_index: int) -> RoundDraw:
    """Round `round_index`, drawn from counters 4i..4i+3."""
    return draw_round(config, [uniform(config.seed, 4 * round_index + j) for j in range(4)])


def round_draws(config: SimulationConfig) -> list[RoundDraw]:
    """Every round of the run, one round_draw each."""
    return [round_draw(config, i) for i in range(config.rounds)]


def transcript_rows(draws: Sequence[RoundDraw]) -> Iterator[TranscriptRow]:
    for i, draw in enumerate(draws):
        yield TranscriptRow(i, "13", draw.alice_13, draw.bob_13, draw.payoff_13)
        yield TranscriptRow(i, "24", draw.alice_24, draw.bob_24, draw.payoff_24)


def write_transcript(rows: Iterable[TranscriptRow], fh: TextIO) -> None:
    """The CLI's csv.writer loop over the transcript rows."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["round", "pair", "alice_outcome", "bob_outcome", "payoff"])
    for row in rows:
        writer.writerow(
            [row.round_index, row.pair, row.alice_outcome,
             row.bob_outcome, f"{row.payoff:.6g}"]
        )
