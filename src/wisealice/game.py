"""The ball-in-a-box game: square geometry, Bob's move rule, payoffs.

Bob hides a ball in a corner of a square box; Alice asks whether it sits
in a particular corner.  Before answering, Bob may slide the ball to an
adjacent corner, so he escapes every question except the one about the
corner opposite to the ball.  Alice is paid only on a "no".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

VERTICES = (1, 2, 3, 4)


@dataclass(frozen=True)
class SquareGeometry:
    """Corners 1..4 in cyclic order with adjacency and the opposite map."""

    vertices: tuple[int, ...] = VERTICES
    adjacency: dict[int, frozenset[int]] = field(
        default_factory=lambda: {
            1: frozenset({2, 4}),
            2: frozenset({1, 3}),
            3: frozenset({2, 4}),
            4: frozenset({1, 3}),
        }
    )
    opposite: dict[int, int] = field(
        default_factory=lambda: {1: 3, 2: 4, 3: 1, 4: 2}
    )

    def require_vertex(self, v: int) -> None:
        if v not in self.vertices:
            raise ValueError(f"invalid vertex: {v}")


class BobOutcome(NamedTuple):
    answer: str  # "yes" | "no"
    new_ball: int


def bob_outcome(geometry: SquareGeometry, question: int, ball: int) -> BobOutcome:
    """Resolve one question: Bob slides to the asked corner whenever he can.

    The ball reaches the question corner iff it is already there or
    adjacent; only the opposite corner forces a "no".  On a "no" the ball
    stays put (the payoff does not depend on where Bob leaves it, but the
    simulator needs a definite rule).
    """
    geometry.require_vertex(question)
    geometry.require_vertex(ball)
    if ball == question or ball in geometry.adjacency[question]:
        return BobOutcome("yes", question)
    return BobOutcome("no", ball)


@dataclass(frozen=True)
class PayoffMatrix:
    """Alice's payoffs a, b, c, d on the four losing corners of Bob.

    Row j is Alice's question, column k is Bob's initial corner; the only
    nonzero entries sit where k is opposite to j:
    h[1][3] = a, h[2][4] = b, h[3][1] = c, h[4][2] = d.
    Bob's matrix is exactly -h.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"payoff {name} must be positive and finite, got {value}")
        if self.scale == math.inf:
            raise ValueError("payoffs must have a finite sum")

    @property
    def scale(self) -> float:
        return self.a + self.b + self.c + self.d

    def row_payoff(self, question: int) -> float:
        return (self.a, self.b, self.c, self.d)[question - 1]

    def entry(self, j: int, k: int) -> float:
        if j not in VERTICES or k not in VERTICES:
            raise ValueError(f"invalid matrix cell ({j}, {k})")
        opposite = ((j + 1) % 4) + 1
        return self.row_payoff(j) if k == opposite else 0.0

    def as_array(self) -> np.ndarray:
        h = np.zeros((4, 4))
        for j in VERTICES:
            for k in VERTICES:
                h[j - 1, k - 1] = self.entry(j, k)
        return h

    def bob_array(self) -> np.ndarray:
        return -self.as_array()

    def scaled(self, factor: float) -> "PayoffMatrix":
        return PayoffMatrix(self.a * factor, self.b * factor,
                            self.c * factor, self.d * factor)


def payoff_matrix_from_rules(
    geometry: SquareGeometry, a: float, b: float, c: float, d: float
) -> PayoffMatrix:
    """Derive the payoff matrix by playing out all 16 question/ball pairs."""
    payoffs = PayoffMatrix(a, b, c, d)
    for question in geometry.vertices:
        for ball in geometry.vertices:
            answer, _ = bob_outcome(geometry, question, ball)
            expected = payoffs.row_payoff(question) if answer == "no" else 0.0
            if payoffs.entry(question, ball) != expected:
                raise AssertionError(
                    f"payoff pattern mismatch at ({question}, {ball})"
                )
    return payoffs


class PureSaddleAnalysis(NamedTuple):
    maxmin: float
    minmax: float
    saddle_exists: bool


def pure_saddle_analysis(h: PayoffMatrix) -> PureSaddleAnalysis:
    """max_j min_k vs min_k max_j of the 4x4 matrix.

    Every row contains zeros and every column maximum is one of the four
    payoffs, so maxmin = 0 < min(a,b,c,d) = minmax: the game never has a
    pure saddle point.
    """
    arr = h.as_array()
    maxmin = float(arr.min(axis=1).max())
    minmax = float(arr.max(axis=0).min())
    return PureSaddleAnalysis(maxmin, minmax, maxmin == minmax)
