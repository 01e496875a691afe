"""Angle-parameterized quantum strategies and the payoff function F.

A pure strategy is a unit vector in a two-dimensional state space; only
squared amplitudes enter the payoff, so the angle of the vector on the
half-turn circle [0, 180) is the complete state.  Each player measures in
two bases whose principal directions differ by the frame angle theta, and
the four outcome weights form two coupled binary distributions:

    p1 = cos^2(alpha)            p3 = sin^2(alpha)
    p2 = cos^2(alpha - theta)    p4 = sin^2(alpha - theta)

Alice's expected payoff against Bob's weights q is

    F = a p1 q3 + c p3 q1 + b p2 q4 + d p4 q2

which, in the unit vectors x = (cos 2alpha, sin 2alpha) and
y = (cos 2beta, sin 2beta), is the bilinear form F = c0 + g.x + k.y + x^T M y.
The single-harmonic reductions K + U cos 2a + V sin 2a in either angle, the
analytic best responses and the solver's root solve all derive from it.

Angles are degrees at every interface and radians only inside the
trigonometric kernels.  The kernels broadcast over numpy arrays, of
strategy angles and of frame angles alike, so the solver can sweep
thousands of angles over a whole grid of frames at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from wisealice.game import PayoffMatrix

_PAIR_TOL = 1e-12

ArrayLike = Union[float, np.ndarray]


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
class StrategyAngle:
    """An angle on the half-turn circle; 180-degree shifts compare equal."""

    degrees: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.degrees):
            raise ValueError(f"angle must be finite, got {self.degrees}")
        object.__setattr__(self, "degrees", self.degrees % 180.0)

    @property
    def radians(self) -> float:
        return math.radians(self.degrees)


@dataclass(frozen=True)
class OutcomeWeights:
    """Squared amplitudes of the four outcomes: two binary distributions.

    p1 + p3 = 1 and p2 + p4 = 1; the four weights total 2 because they
    describe two measurements, not one four-outcome distribution.
    """

    p1: float
    p2: float
    p3: float
    p4: float

    def __post_init__(self) -> None:
        if abs(self.p1 + self.p3 - 1.0) > _PAIR_TOL:
            raise ValueError(f"p1 + p3 must equal 1, got {self.p1 + self.p3}")
        if abs(self.p2 + self.p4 - 1.0) > _PAIR_TOL:
            raise ValueError(f"p2 + p4 must equal 1, got {self.p2 + self.p4}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p1, self.p2, self.p3, self.p4)


def outcome_weights(strategy: StrategyAngle, frame: MeasurementFrame) -> OutcomeWeights:
    """Squared amplitudes of a strategy angle in the given frame."""
    a = strategy.radians
    t = math.radians(frame.theta_deg)
    c1, s1 = math.cos(a), math.sin(a)
    c2, s2 = math.cos(a - t), math.sin(a - t)
    return OutcomeWeights(c1 * c1, c2 * c2, s1 * s1, s2 * s2)


def quantum_payoff(h: PayoffMatrix, p: OutcomeWeights, q: OutcomeWeights) -> float:
    """Expected payoff to Alice: a p1 q3 + c p3 q1 + b p2 q4 + d p4 q2."""
    return (
        h.a * p.p1 * q.p3
        + h.c * p.p3 * q.p1
        + h.b * p.p2 * q.p4
        + h.d * p.p4 * q.p2
    )


# a MeasurementFrame, or frame angles in degrees already checked by one
Frame = Union[MeasurementFrame, ArrayLike]


def _degrees(angle: Union[StrategyAngle, ArrayLike]) -> ArrayLike:
    return getattr(angle, "degrees", angle)


def _frame_degrees(frame: Frame) -> ArrayLike:
    return getattr(frame, "theta_deg", frame)


def payoff_kernel(
    h: PayoffMatrix,
    frame_a: Frame,
    frame_b: Frame,
    alpha_deg: ArrayLike,
    beta_deg: ArrayLike,
) -> ArrayLike:
    """F(alpha, beta) for scalar or broadcastable array angles in degrees.

    Frame angle arrays broadcast with the strategy angles.
    """
    al = np.radians(alpha_deg)
    be = np.radians(beta_deg)
    ta = np.radians(_frame_degrees(frame_a))
    tb = np.radians(_frame_degrees(frame_b))
    return (
        h.a * np.cos(al) ** 2 * np.sin(be) ** 2
        + h.c * np.sin(al) ** 2 * np.cos(be) ** 2
        + h.b * np.cos(al - ta) ** 2 * np.sin(be - tb) ** 2
        + h.d * np.sin(al - ta) ** 2 * np.cos(be - tb) ** 2
    )


def payoff_surface(
    h: PayoffMatrix,
    frame_a: MeasurementFrame,
    frame_b: MeasurementFrame,
    alpha: StrategyAngle,
    beta: StrategyAngle,
) -> float:
    """F(alpha, beta), by definition the composition of weights and payoff."""
    return quantum_payoff(
        h, outcome_weights(alpha, frame_a), outcome_weights(beta, frame_b)
    )


def unit_vectors(phi: ArrayLike) -> np.ndarray:
    """(cos phi, sin phi) along a new last axis; phi in radians."""
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . v over the last axis, broadcasting the others."""
    return np.sum(u * v, axis=-1)


def _mat_vec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for stacks of 2x2 matrices and 2-vectors that broadcast."""
    return np.sum(m * v[..., None, :], axis=-1)


def _vec_mat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """M^T v (the row vector v times M), broadcast like _mat_vec."""
    return np.sum(v[..., :, None] * m, axis=-2)


def bilinear_form(
    h: PayoffMatrix, frame_a: Frame, frame_b: Frame
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(c0, g, k, M) with F = c0 + g.x + k.y + x^T M y.

    x = (cos 2alpha, sin 2alpha) and y = (cos 2beta, sin 2beta) are the
    players' strategies as unit vectors; every squared cosine or sine in F
    is (1 +- x.e)/2 for the unit vector e of the corresponding basis.  For
    arrays of frame angles, g, k and M gain their broadcast shape in front
    of their (2,) and (2, 2) axes.
    """
    e1 = np.array([1.0, 0.0])
    ea = unit_vectors(2.0 * np.radians(_frame_degrees(frame_a)))
    eb = unit_vectors(2.0 * np.radians(_frame_degrees(frame_b)))
    c0 = (h.a + h.b + h.c + h.d) / 4.0
    g = (h.a - h.c) / 4.0 * e1 + (h.b - h.d) / 4.0 * ea
    k = (h.c - h.a) / 4.0 * e1 + (h.d - h.b) / 4.0 * eb
    m = (-(h.a + h.c) / 4.0 * e1[:, None] * e1
         - (h.b + h.d) / 4.0 * ea[..., :, None] * eb[..., None, :])
    return c0, g, k, m


def harmonic_coefficients(
    h: PayoffMatrix,
    frame_a: Frame,
    frame_b: Frame,
    beta: Union[StrategyAngle, ArrayLike],
) -> tuple[ArrayLike, ArrayLike, ArrayLike]:
    """(K, U, V) with F(alpha, beta) = K + U cos 2alpha + V sin 2alpha.

    The view (c0 + k.y, g + M y) of the bilinear form; exact for every
    alpha.  Accepts a scalar or an array of beta angles in degrees, which
    broadcasts with arrays of frame angles.
    """
    c0, g, k, m = bilinear_form(h, frame_a, frame_b)
    y = unit_vectors(2.0 * np.radians(_degrees(beta)))
    u, v = np.moveaxis(g + _mat_vec(m, y), -1, 0)
    return c0 + _dot(y, k), u, v


def harmonic_coefficients_in_beta(
    h: PayoffMatrix,
    frame_a: Frame,
    frame_b: Frame,
    alpha: Union[StrategyAngle, ArrayLike],
) -> tuple[ArrayLike, ArrayLike, ArrayLike]:
    """(K, U, V) with F(alpha, beta) = K + U cos 2beta + V sin 2beta.

    The view (c0 + g.x, k + M^T x) of the bilinear form.
    """
    c0, g, k, m = bilinear_form(h, frame_a, frame_b)
    x = unit_vectors(2.0 * np.radians(_degrees(alpha)))
    u, v = np.moveaxis(k + _vec_mat(x, m), -1, 0)
    return c0 + _dot(x, g), u, v
