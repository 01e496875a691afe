"""The ball-in-a-box game: the square's corners, payoffs, frames.

Bob hides a ball in a corner of a square box; Alice asks whether it sits
in a particular corner.  Before answering, Bob may slide the ball to an
adjacent corner, so he escapes every question except the one about the
corner opposite to the ball.  Alice is paid only on a "no".  Each player
measures in two bases at a frame angle theta apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

# corners 1..4 in cyclic order, and the one opposite each: the only corner
# from which Bob cannot slide the ball to the one asked about
VERTICES = (1, 2, 3, 4)
OPPOSITE = {1: 3, 2: 4, 3: 1, 4: 2}
# slack on a probability distribution: entries >= -_PROBABILITY_TOL, and
# their exact sum within it of 1
_PROBABILITY_TOL = 1e-12


def _check_distribution(name: str, weights: Sequence[float]) -> None:
    """ValueError unless weights are finite and a probability distribution.

    The one owner of the rule for the classical simplex points and the
    quantum outcome pairs alike: every entry finite and at least
    -_PROBABILITY_TOL, and math.fsum of the entries within it of 1.
    """
    if not all(map(math.isfinite, weights)):
        raise ValueError(f"{name} must have finite entries, got {weights}")
    if min(weights) < -_PROBABILITY_TOL or abs(math.fsum(weights) - 1.0) > _PROBABILITY_TOL:
        raise ValueError(f"{name} is not a probability distribution, got {weights}")


@dataclass(frozen=True)
class MeasurementFrame:
    """Angle between a player's two measurement bases, in (0, 90) degrees."""

    theta_deg: float

    def __post_init__(self) -> None:
        if not 0.0 < self.theta_deg < 90.0:
            raise ValueError(
                f"theta_deg must lie strictly inside (0, 90), got {self.theta_deg}"
            )


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
        return self.row_payoff(j) if k == OPPOSITE[j] else 0.0

    def scaled(self, factor: float) -> "PayoffMatrix":
        return PayoffMatrix(self.a * factor, self.b * factor,
                            self.c * factor, self.d * factor)


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
    rows = [[h.entry(j, k) for k in VERTICES] for j in VERTICES]
    # float(): a PayoffMatrix built from ints would otherwise report an int
    maxmin = float(max(map(min, rows)))
    minmax = float(min(map(max, zip(*rows))))
    return PureSaddleAnalysis(maxmin, minmax, maxmin == minmax)
