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
The analytic best responses, the judge and the solver's root solve all
read it (see solver).

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

from wisealice.game import MeasurementFrame, PayoffMatrix, _check_distribution

ArrayLike = Union[float, np.ndarray]


def _half_turn(degrees: ArrayLike) -> ArrayLike:
    """Angles in degrees on the half-turn circle [0, 180), a float or an array.

    The one owner of the rule.  % alone rounds a tiny negative angle, -1e-20
    say, up to 180 itself; the subtraction takes that to 0 and, unlike
    np.where, keeps a float a float.  NaN and +-inf give NaN.
    """
    turned = degrees % 180.0
    return turned - 180.0 * (turned == 180.0)


@dataclass(frozen=True)
class StrategyAngle:
    """An angle on the half-turn circle; 180-degree shifts compare equal."""

    degrees: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.degrees):
            raise ValueError(f"angle must be finite, got {self.degrees}")
        object.__setattr__(self, "degrees", _half_turn(self.degrees))


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
        _check_distribution("(p1, p3)", (self.p1, self.p3))
        _check_distribution("(p2, p4)", (self.p2, self.p4))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p1, self.p2, self.p3, self.p4)


def _weights(angle_deg: ArrayLike, theta_deg: ArrayLike) -> tuple[ArrayLike, ...]:
    """(p1, p2, p3, p4) at strategy and frame angles in degrees, scalars or arrays."""
    a, t = np.radians(angle_deg), np.radians(theta_deg)
    c1, s1, c2, s2 = np.cos(a), np.sin(a), np.cos(a - t), np.sin(a - t)
    return c1 * c1, c2 * c2, s1 * s1, s2 * s2


def _payoff(h: PayoffMatrix, p: tuple[ArrayLike, ...], q: tuple[ArrayLike, ...]) -> ArrayLike:
    """a p1 q3 + c p3 q1 + b p2 q4 + d p4 q2 for weights (p1, p2, p3, p4), scalars or arrays."""
    return h.a * p[0] * q[2] + h.c * p[2] * q[0] + h.b * p[1] * q[3] + h.d * p[3] * q[1]


def outcome_weights(strategy: StrategyAngle, frame: MeasurementFrame) -> OutcomeWeights:
    """Squared amplitudes of a strategy angle in the given frame."""
    return OutcomeWeights(*map(float, _weights(strategy.degrees, frame.theta_deg)))


def quantum_payoff(h: PayoffMatrix, p: OutcomeWeights, q: OutcomeWeights) -> float:
    """Expected payoff to Alice: a p1 q3 + c p3 q1 + b p2 q4 + d p4 q2."""
    return _payoff(h, p.as_tuple(), q.as_tuple())


# a MeasurementFrame, or frame angles in degrees already checked by one
Frame = Union[MeasurementFrame, ArrayLike]


def _degrees(angle: Union[StrategyAngle, ArrayLike]) -> ArrayLike:
    return getattr(angle, "degrees", angle)


def _frame_degrees(frame: Frame) -> ArrayLike:
    return getattr(frame, "theta_deg", frame)


def unit_vectors(phi: ArrayLike) -> np.ndarray:
    """(cos phi, sin phi) along a new last axis; phi in radians."""
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


# The 2-vector kernels are written out by component: the same two products
# and one sum that np.sum over an axis of length 2 forms, without its overhead

def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . v for 2-vectors on the last axis, broadcasting the others."""
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]


def _mat_vec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for stacks of 2x2 matrices and 2-vectors that broadcast."""
    return np.stack([m[..., 0, 0] * v[..., 0] + m[..., 0, 1] * v[..., 1],
                     m[..., 1, 0] * v[..., 0] + m[..., 1, 1] * v[..., 1]], axis=-1)


def _vec_mat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """M^T v (the row vector v times M), broadcast like _mat_vec."""
    return np.stack([v[..., 0] * m[..., 0, 0] + v[..., 1] * m[..., 1, 0],
                     v[..., 0] * m[..., 0, 1] + v[..., 1] * m[..., 1, 1]], axis=-1)


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

