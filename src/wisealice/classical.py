"""Classical mixed-strategy baseline for the 4x4 zero-sum game.

Row j pays h_j only in the column opposite to it, so the matrix is
diagonal up to a column permutation and the game solves in closed form.
Against x, Bob's best column leaves Alice min_j x_j h_j; against y,
Alice's best row earns max_j h_j y_opp(j).  Both equal the value v only
when every term equals v, so the equilibrium is unique:

    v = 1 / sum_j 1/h_j,   x_j = v / h_j,   y_opp(j) = x_j.

The weights are computed relative to the smallest payoff, so no ratio
overflows, subnormal payoffs work, and scaling the payoffs by a power of
two leaves x and y bitwise unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from wisealice.game import OPPOSITE, VERTICES, PayoffMatrix, _check_distribution


@dataclass(frozen=True)
class MixedProfile:
    """A mixed-strategy pair with the resulting expected payoff to Alice."""

    x: tuple[float, float, float, float]
    y: tuple[float, float, float, float]
    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value}")
        for name, vec in (("x", self.x), ("y", self.y)):
            if len(vec) != 4:
                raise ValueError(f"{name} must have 4 entries, got {vec}")
            _check_distribution(name, vec)


def solve_zero_sum(h: PayoffMatrix) -> MixedProfile:
    """The unique equilibrium: catch probabilities x_j h_j all equal the value."""
    payoffs = (h.a, h.b, h.c, h.d)
    low = min(payoffs)
    ratios = [low / p for p in payoffs]       # in [0, 1], the smallest payoff's is 1
    total = math.fsum(ratios)                 # in [1, 4]
    x = tuple(r / total for r in ratios)
    return MixedProfile(x, tuple(x[OPPOSITE[k] - 1] for k in VERTICES), low / total)
