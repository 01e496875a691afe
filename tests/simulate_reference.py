"""The per-round Monte Carlo path that simulate.py used before the block kernel.

Kept as a differential reference: it draws one round at a time from the
same counter-based uniforms, scores it with its own copy of the scoring
rule and writes the transcript through csv.writer, so the block kernel,
the scoring table and the string-built CSV share only the random stream
with it.  Rounds are drawn by counter, so the draws of a shorter run are
a prefix of a longer run's and tests derive every run from one list.
"""

from __future__ import annotations

import csv
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from wisealice.quantum import outcome_weights
from wisealice.simulate import SimulationConfig, _uniforms


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


def round_draws(config: SimulationConfig) -> list[RoundDraw]:
    """Every round of the run, one _uniforms call and one draw_round each."""
    draws = []
    for i in range(config.rounds):
        us = _uniforms(config.seed, 4 * i + np.arange(4))
        draws.append(draw_round(config, us))
    return draws


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
