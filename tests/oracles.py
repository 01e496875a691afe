"""Reference checks that no command of the package runs.

Each function here only checks other code, so it lives with the tests
rather than in the package, which ships what its commands reach.

- bob_outcome states Bob's move rule from the square's adjacency, and
  payoff_matrix_from_rules plays it out to cross-check the payoff matrix,
  which the package states by OPPOSITE alone; as_array writes the matrix
  out as a 4x4 array;
- orthocomplement reads a lattice's complement map, for the lattice laws;
- expected_payoff and verify_nash_classical check the classical solve
  against every pure deviation;
- payoff_kernel and payoff_surface compute F from its trigonometric
  definition and from the outcome weights;
- half_angle_coefficients and half_angle_coefficients_in_beta give F's
  harmonic in one angle from the half-angle formulas;
- grid_nash_audit sweeps the strategy torus on a grid;
- interval_i, circle_margin and pure_equilibrium_count state in closed
  form which frame cells hold a pure equilibrium; off_the_lines and
  judge_counts apply that count rule to the solver's cells, with the one
  near-end band NEAR_AN_END_DEG and the one roundoff bound AT_ROUNDOFF
  that every judge of the solver shares;
- _payoff_derivatives gives F's first and second derivatives from the
  trigonometric definition in an mpmath context: iv, 40-digit intervals,
  or mp60, 60-digit values.  prove_saddle certifies a reported equilibrium
  with an interval proof in iv; exact_reply, exact_gain and exact_saddle
  give a best reply, the unilateral gain at a point and the zero of the
  gradient near it in mp60;
- exact_indifference builds the disk game's form at 60 digits and gives
  the indifference points and q at each frame.  These are the tests' only
  high-precision arithmetic: no test module imports mpmath;
- reference_merge states the solver's merge of near candidates one slot at
  a time.

None of them reads quantum.bilinear_form, the form the solver and its
judge use.

Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from mpmath.ctx_iv import MPIntervalContext
from mpmath.ctx_mp import MPContext

from wisealice.classical import MixedProfile
from wisealice.game import VERTICES, MeasurementFrame, PayoffMatrix
from wisealice.lattice import FiniteOrtholattice
from wisealice.quantum import (
    ArrayLike,
    Frame,
    StrategyAngle,
    outcome_weights,
    quantum_payoff,
)
from wisealice.solver import Frames


# the corners adjacent to each corner of the square
ADJACENT = {1: frozenset({2, 4}), 2: frozenset({1, 3}),
            3: frozenset({2, 4}), 4: frozenset({1, 3})}


def require_vertex(v: int) -> None:
    if v not in VERTICES:
        raise ValueError(f"invalid vertex: {v}")


def bob_outcome(question: int, ball: int) -> str:
    """Bob's answer, "yes" or "no": he slides to the asked corner whenever he can.

    The ball reaches the question corner iff it is already there or
    adjacent; only the opposite corner forces a "no".
    """
    require_vertex(question)
    require_vertex(ball)
    return "yes" if ball == question or ball in ADJACENT[question] else "no"


def orthocomplement(lattice: FiniteOrtholattice, x: str) -> str:
    """x', or KeyError for an element the lattice does not hold."""
    if x not in lattice.elements:
        raise KeyError(f"unknown lattice element: {x!r}")
    return lattice.complement[x]


def payoff_matrix_from_rules(a: float, b: float, c: float, d: float) -> PayoffMatrix:
    """Derive the payoff matrix by playing out all 16 question/ball pairs.

    Bob's move rule reads ADJACENT and the matrix reads OPPOSITE, so this
    cross-checks two separate statements of the one rule.
    """
    payoffs = PayoffMatrix(a, b, c, d)
    for question in VERTICES:
        for ball in VERTICES:
            no = bob_outcome(question, ball) == "no"
            expected = payoffs.row_payoff(question) if no else 0.0
            if payoffs.entry(question, ball) != expected:
                raise AssertionError(
                    f"payoff pattern mismatch at ({question}, {ball})"
                )
    return payoffs


def as_array(h: PayoffMatrix) -> np.ndarray:
    """The 4x4 matrix h[j][k] of Alice's payoffs, read entry by entry."""
    arr = np.zeros((4, 4))
    for j in VERTICES:
        for k in VERTICES:
            arr[j - 1, k - 1] = h.entry(j, k)
    return arr


# slack of verify_nash_classical, times the total payoff a + b + c + d; over
# 20,000 payoff sets drawn from e^-30..e^30 the closed form's worst
# violation was 1.2e-17 of that total
_NASH_TOL = 1e-12


# how far expected_payoff lets an entry fall below 0, and the sum miss 1
_SIMPLEX_TOL = 1e-12


def _simplex_point(name: str, vec: Sequence[float]) -> np.ndarray:
    """vec as an array, or ValueError unless it is a finite point of the simplex."""
    v = np.array([float(z) for z in vec])
    if len(v) != 4:
        raise ValueError(f"{name} must have 4 entries, got {vec}")
    if not all(math.isfinite(z) for z in v):
        raise ValueError(f"{name} must have finite entries, got {vec}")
    if min(v) < -_SIMPLEX_TOL or abs(math.fsum(v) - 1.0) > _SIMPLEX_TOL:
        raise ValueError(f"{name} is not a point of the probability simplex, got {vec}")
    return v


def expected_payoff(h: PayoffMatrix, x: Sequence[float], y: Sequence[float]) -> float:
    """Bilinear form sum_jk h[j][k] x_j y_k of two probability vectors."""
    return float(_simplex_point("x", x) @ as_array(h) @ _simplex_point("y", y))


def verify_nash_classical(h: PayoffMatrix, profile: MixedProfile) -> bool:
    """Check the equilibrium inequalities against all pure deviations.

    A deviation may gain at most _NASH_TOL * (a + b + c + d), so the
    verdict does not depend on the payoff scale.
    """
    arr = as_array(h)
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
    ta, tb = (np.radians(frame.theta_deg if isinstance(frame, MeasurementFrame) else frame)
              for frame in (frame_a, frame_b))
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


def half_angle_coefficients(h: PayoffMatrix, frames: Frames, beta_deg):
    """(K, U, V) with F = K + U cos 2alpha + V sin 2alpha, from half angles."""
    be = np.radians(beta_deg)
    tb = math.radians(frames[1].theta_deg)
    s1 = h.a * np.sin(be) ** 2
    c1 = h.c * np.cos(be) ** 2
    s2 = h.b * np.sin(be - tb) ** 2
    c2 = h.d * np.cos(be - tb) ** 2
    two_ta = 2.0 * math.radians(frames[0].theta_deg)
    k = (s1 + c1 + s2 + c2) / 2.0
    u = (s1 - c1) / 2.0 + (s2 - c2) / 2.0 * math.cos(two_ta)
    v = (s2 - c2) / 2.0 * math.sin(two_ta)
    return k, u, v


def half_angle_coefficients_in_beta(h: PayoffMatrix, frames: Frames, alpha_deg):
    """(K, U, V) with F = K + U cos 2beta + V sin 2beta, from half angles."""
    al = np.radians(alpha_deg)
    ta = math.radians(frames[0].theta_deg)
    s1 = h.a * np.cos(al) ** 2
    c1 = h.c * np.sin(al) ** 2
    s2 = h.b * np.cos(al - ta) ** 2
    c2 = h.d * np.sin(al - ta) ** 2
    two_tb = 2.0 * math.radians(frames[1].theta_deg)
    k = (s1 + c1 + s2 + c2) / 2.0
    u = (c1 - s1) / 2.0 + (c2 - s2) / 2.0 * math.cos(two_tb)
    v = (c2 - s2) / 2.0 * math.sin(two_tb)
    return k, u, v


def grid_nash_audit(
    h: PayoffMatrix,
    frames: Frames,
    step: float = 0.1,
    tol: float | None = None,
) -> list[tuple[float, float, float]]:
    """2-D sweep: grid points whose unilateral gain is below tol.

    The payoff grid, payoff_kernel, is built straight from the
    trigonometric definition, and the per-row/per-column optima
    K -+ |(U, V)| it is compared against come from the half-angle
    formulas.  So the audit shares neither the root solve nor the
    bilinear form with the solver.  Returns (alpha, beta, deviation) for
    every passing grid point.

    The default tol is 4 * scale * (step in radians)^2: a grid point within
    half a step of an equilibrium leaves a gain of order curvature * step^2,
    so a tolerance below that passes no point even where one exists.
    """
    if tol is None:
        tol = 4.0 * h.scale * math.radians(step) ** 2
    alphas = np.arange(0.0, 180.0, step)
    betas = np.arange(0.0, 180.0, step)
    ka, ua, va = half_angle_coefficients(h, frames, betas)
    fmax_by_beta = ka + np.hypot(ua, va)
    kb, ub, vb = half_angle_coefficients_in_beta(h, frames, alphas)
    fmin_by_alpha = kb - np.hypot(ub, vb)

    surface = payoff_kernel(
        h, frames[0], frames[1], alphas[:, None], betas[None, :]
    )
    deviation = np.maximum(
        fmax_by_beta[None, :] - surface, surface - fmin_by_alpha[:, None]
    )
    hits = np.argwhere(deviation <= tol)
    return [
        (float(alphas[i]), float(betas[j]), float(deviation[i, j])) for i, j in hits
    ]


def interval_i(h: PayoffMatrix) -> tuple[float, float]:
    """I = (|sigma - tau|/2, min(sigma + tau, 360 - sigma - tau)/2) in degrees,
    sigma = arccos s and tau = arccos t with s = (a-c)/(a+c), t = (b-d)/(b+d):
    the frames at which an indifference point lies inside the circle."""
    sigma = math.degrees(math.acos((h.a - h.c) / (h.a + h.c)))
    tau = math.degrees(math.acos((h.b - h.d) / (h.b + h.d)))
    return abs(sigma - tau) / 2, min(sigma + tau, 360.0 - sigma - tau) / 2


def circle_margin(h: PayoffMatrix, theta: float) -> float:
    """q(theta) = sin 2theta (1 - r(theta)), positive exactly on I.

    r(theta) is |x_c| at theta_A and |y_c| at theta_B, from
    r^2 = (s^2 + t^2 - 2st cos 2theta) / sin^2 2theta with s = (a-c)/(a+c)
    and t = (b-d)/(b+d).
    """
    s = (h.a - h.c) / (h.a + h.c)
    t = (h.b - h.d) / (h.b + h.d)
    two = 2.0 * math.radians(theta)
    return math.sin(two) - math.sqrt(s * s + t * t - 2.0 * s * t * math.cos(two))


def pure_equilibrium_count(h: PayoffMatrix, theta_a: float, theta_b: float) -> int:
    """How many pure equilibria the cell at frames theta_a, theta_b (degrees) holds.

    F is bilinear in the unit vectors, so the game extended to the disks has
    a saddle (Sion 1958), and the pure equilibria are where its saddle set
    meets the circles.  With both frames in I, both indifference points lie
    inside the circles, the disk game's one saddle is theirs, and no pure
    equilibrium exists.  With either frame outside I's closure the saddle
    set is one point of the torus.  This holds only off I's ends: on a line
    theta = lo or hi, a cell can hold two equilibria.  It also holds only
    for frames farther than roundoff from I's ends, where a float frame
    cannot say which side it lies on: unit payoffs at theta_a = 1e-300 and
    theta_b = 89.99999999999999 give q = 3.5e-302 and 5.7e-16, and the
    solver's quartic candidates once passed 5 points at <= 1.4e-16 *
    (a+b+c+d) there where this rule says 0.  ROADMAP item 2 owns
    classifying such points.
    """
    lo, hi = interval_i(h)
    return 0 if lo < theta_a < hi and lo < theta_b < hi else 1


# a frame this close to an end of I, in degrees, may lie on either side of it
NEAR_AN_END_DEG = 1e-9
# residual / S, S = a + b + c + d, at or below which a reported point lies at roundoff
AT_ROUNDOFF = 1e-15


def off_the_lines(h: PayoffMatrix, *thetas: float) -> bool:
    """Every frame farther than NEAR_AN_END_DEG from I's ends."""
    return min(abs(t - end) for t in thetas for end in interval_i(h)) > NEAR_AN_END_DEG


def judge_counts(h: PayoffMatrix, theta_a, theta_b,
                 counts) -> tuple[list[tuple[int, int, int]], list[int]]:
    """(off, near) for cells holding counts[k] points at frames theta_a[k], theta_b[k].

    off lists (k, count, rule) for each cell off I's ends whose count is not
    pure_equilibrium_count's rule, and near the k of each cell with a frame
    within NEAR_AN_END_DEG of an end, which is not judged.  The frames
    broadcast together and counts takes their shape, all read in C order, so
    a grid's theta_a[:, None], theta_b and its flat counts read cell by cell.
    """
    theta_a, theta_b = np.broadcast_arrays(theta_a, theta_b)
    off, near = [], []
    for k, (ta, tb, count) in enumerate(zip(theta_a.ravel().tolist(), theta_b.ravel().tolist(),
                                            np.reshape(counts, theta_a.shape).ravel().tolist())):
        if not off_the_lines(h, ta, tb):
            near.append(k)
        elif count != (rule := pure_equilibrium_count(h, ta, tb)):
            off.append((k, count, rule))
    return off, near


# the interval proof's context at 40 digits and the exact values' at 60; each
# sets its own precision, leaving mpmath.mp and mpmath.iv as they are
iv = MPIntervalContext()
iv.dps = 40
mp60 = MPContext()
mp60.dps = 60
# box radii in radians, smallest first: a point Newton left short of the
# saddle needs a wider box, a nearly flat payoff (F_aa ~ -1.6e-8 at
# theta_A = 0.1 degrees) a narrower one
PROOF_RADII = tuple(10.0 ** -k for k in range(12, 5, -1))


def _squares_and_doubles(ctx, x):
    """(cos^2 x, sin^2 x, sin 2x, cos 2x) in the mpmath context ctx."""
    return ctx.cos(x) ** 2, ctx.sin(x) ** 2, ctx.sin(2 * x), ctx.cos(2 * x)


def _payoff_derivatives(ctx, h: PayoffMatrix, theta_a, theta_b, alpha, beta):
    """(F_a, F_b, F_aa, F_ab, F_bb) from the trigonometric definition.

    F = a cos^2 al sin^2 be + c sin^2 al cos^2 be + b cos^2 A sin^2 B
    + d sin^2 A cos^2 B with A = al - theta_a and B = be - theta_b; every
    argument is in radians, a number of the mpmath context ctx (iv's
    intervals or mp60's values), and so is every derivative.
    """
    a, b, c, d = (ctx.mpf(p) for p in (h.a, h.b, h.c, h.d))
    cos_al, sin_al, sin_2al, cos_2al = _squares_and_doubles(ctx, alpha)
    cos_be, sin_be, sin_2be, cos_2be = _squares_and_doubles(ctx, beta)
    cos_a, sin_a, sin_2a, cos_2a = _squares_and_doubles(ctx, alpha - theta_a)
    cos_b, sin_b, sin_2b, cos_2b = _squares_and_doubles(ctx, beta - theta_b)
    return (
        -a * sin_2al * sin_be + c * sin_2al * cos_be - b * sin_2a * sin_b + d * sin_2a * cos_b,
        a * cos_al * sin_2be - c * sin_al * sin_2be + b * cos_a * sin_2b - d * sin_a * sin_2b,
        2 * (-a * cos_2al * sin_be + c * cos_2al * cos_be
             - b * cos_2a * sin_b + d * cos_2a * cos_b),
        -(a + c) * sin_2al * sin_2be - (b + d) * sin_2a * sin_2b,
        2 * (a * cos_al * cos_2be - c * sin_al * cos_2be
             + b * cos_a * cos_2b - d * sin_a * cos_2b),
    )


def _radians(*degrees):
    """Float angles in degrees, each read as the exact binary number it is, in mp60 radians."""
    return [mp60.mpf(x) * mp60.pi / 180 for x in degrees]


def exact_reply(player: str, h: PayoffMatrix, theta_a, theta_b, angle) -> float:
    """The player's best reply in degrees to the other's float angle, at 60 digits.

    F is K + U cos 2al + V sin 2al in al, so U = -F_aa/4 and V = F_a/2 at
    al = 0, and Alice's reply is atan2(V, U)/2.  Bob minimises, so his is
    atan2(-V, -U)/2, with F_b and F_bb at be = 0.
    """
    alice = player == "alice"
    theta_a, theta_b, zero, other = _radians(theta_a, theta_b, 0, angle)
    f_a, f_b, f_aa, _, f_bb = _payoff_derivatives(mp60, h, theta_a, theta_b,
                                                  *((zero, other) if alice else (other, zero)))
    u, v = (-f_aa / 4, f_a / 2) if alice else (f_bb / 4, -f_b / 2)
    return float(mp60.degrees(mp60.atan2(v, u)) / 2 % 180)


def _harmonic_gain(f_1, f_11):
    """max over d of U cos 2d + V sin 2d, less its value U at d = 0, with
    U = -f_11/4 and V = f_1/2: A - U, A = |(U, V)|, taken as V^2/(A + U)
    where U > 0, so it cancels nothing."""
    amplitude = mp60.hypot(f_1 / 2, f_11 / 4)
    return (f_1 / 2) ** 2 / (amplitude - f_11 / 4) if f_11 < 0 else amplitude + f_11 / 4


def exact_gain(h: PayoffMatrix, theta_a, theta_b, alpha, beta) -> float:
    """The larger unilateral gain at the float angles alpha and beta, at 60 digits.

    Alice's is the harmonic gain of F in al; Bob minimises F, so his is
    that of -F in be, with F_b and -F_bb.
    """
    f_a, f_b, f_aa, _, f_bb = _payoff_derivatives(mp60, h, *_radians(theta_a, theta_b,
                                                                    alpha, beta))
    return float(max(_harmonic_gain(f_a, f_aa), _harmonic_gain(f_b, -f_bb)))


def exact_saddle(h: PayoffMatrix, theta_a, theta_b, alpha, beta) -> tuple[float, float]:
    """The zero of (F_a, F_b) near the float point (alpha, beta), in degrees.

    Twelve Newton steps at 60 digits from that point: from a double point
    near a zero whose Hessian is regular they reach it to the context's
    digits.  Where the Hessian is singular they need not.
    """
    theta_a, theta_b, al, be = _radians(theta_a, theta_b, alpha, beta)
    for _ in range(12):
        f_a, f_b, f_aa, f_ab, f_bb = _payoff_derivatives(mp60, h, theta_a, theta_b, al, be)
        det = f_aa * f_bb - f_ab ** 2
        al, be = al - (f_bb * f_a - f_ab * f_b) / det, be - (f_aa * f_b - f_ab * f_a) / det
    return float(mp60.degrees(al)), float(mp60.degrees(be))


def _solve(m, rhs):
    """Cramer's rule for the 2x2 system m z = rhs."""
    (p, q), (r, s) = m
    det = p * s - q * r
    return (rhs[0] * s - q * rhs[1]) / det, (p * rhs[1] - r * rhs[0]) / det


def exact_indifference(h: PayoffMatrix, theta_a, theta_b):
    """(x_c, y_c, q_A, q_B) at 60 digits, at the float frames in degrees.

    M, g and k of F = c0 + g.x + k.y + x^T M y are built from e_1,
    e(2 theta_A) and e(2 theta_B), not from bilinear_form.  Bob is
    indifferent at x_c = -M^-T k and Alice at y_c = -M^-1 g, and
    q = sin 2theta (1 - |p|) at each frame, p its point.
    """
    a, b, c, d = (mp60.mpf(p) for p in (h.a, h.b, h.c, h.d))
    e1 = (1, 0)
    ea, eb = ((mp60.cos(2 * t), mp60.sin(2 * t)) for t in _radians(theta_a, theta_b))
    m = [[-(a + c) / 4 * e1[i] * e1[j] - (b + d) / 4 * ea[i] * eb[j] for j in (0, 1)]
         for i in (0, 1)]
    minus_g = [(c - a) / 4 * e1[i] + (d - b) / 4 * ea[i] for i in (0, 1)]
    minus_k = [(a - c) / 4 * e1[i] + (b - d) / 4 * eb[i] for i in (0, 1)]
    x_c, y_c = _solve(list(zip(*m)), minus_k), _solve(m, minus_g)
    return x_c, y_c, *(e[1] * (1 - mp60.hypot(*p)) for e, p in ((ea, x_c), (eb, y_c)))


def prove_saddle(h: PayoffMatrix, frames: Frames, alpha_deg: float,
                 beta_deg: float) -> float | None:
    """The first radius of PROOF_RADII that proves a Nash equilibrium near
    (alpha_deg, beta_deg), or None where none does.

    Krawczyk (1969): take the box X of radius rho around the point x~, the
    Hessian J of F and Y, the inverse of J at X's midpoint.  If
    K(X) = x~ - Y grad F(x~) + (I - Y J(X)) (X - x~) lies inside X, then X
    holds exactly one zero of grad F.  If also F_aa < 0 < F_bb on X, that
    zero is a strict local maximum of F in alpha and minimum in beta.  F is
    a single harmonic in each angle, so both are global, and the zero is a
    Nash equilibrium.  Evaluated in intervals at 40 digits, every roundoff
    lies inside them.
    """
    theta_a, theta_b = (iv.mpf(f.theta_deg) * iv.pi / 180 for f in frames)
    centre = [(iv.mpf(x) * iv.pi / 180).mid for x in (alpha_deg, beta_deg)]
    grad = _payoff_derivatives(iv, h, theta_a, theta_b, *centre)[:2]
    for rho in PROOF_RADII:
        box = [x + iv.mpf([-rho, rho]) for x in centre]
        _, _, f_aa, f_ab, f_bb = _payoff_derivatives(iv, h, theta_a, theta_b, *box)
        if not (f_aa < 0 and f_bb > 0):
            continue
        det = f_aa.mid * f_bb.mid - f_ab.mid ** 2
        y = [[(f_bb.mid / det).mid, (-f_ab.mid / det).mid],
             [(-f_ab.mid / det).mid, (f_aa.mid / det).mid]]
        hessian = [[f_aa, f_ab], [f_ab, f_bb]]
        step = [x - x0 for x, x0 in zip(box, centre)]
        inside = True
        for i in range(2):
            k = centre[i] - (y[i][0] * grad[0] + y[i][1] * grad[1])
            for j in range(2):
                slope = float(i == j) - (y[i][0] * hessian[0][j] + y[i][1] * hessian[1][j])
                k += slope * step[j]
            inside = inside and k.a > box[i].a and k.b < box[i].b
        if inside:
            return rho
    return None


def circle_dist(a: float, b: float) -> float:
    """Distance of two angles in degrees on the half-turn circle."""
    d = abs(a - b) % 180.0
    return min(d, 180.0 - d)


def reference_merge(alpha, beta, residual, passed, distance: float) -> list[list[int]]:
    """The slots each row keeps, in the order it keeps them.

    A row's passed slots are taken by residual, ties in slot order, and a
    slot is kept unless a slot kept before it lies within distance of it in
    both angles; slots 0 and 1, the two walks, count as that close wherever
    they lie.  Plain Python over nested sequences, one slot at a time.
    """
    rows = []
    for a, b, r, ok in zip(alpha, beta, residual, passed):
        kept: list[int] = []
        for slot in sorted((s for s in range(len(a)) if ok[s]), key=lambda s: r[s]):
            if not any(max(slot, k) < 2 or (circle_dist(a[slot], a[k]) < distance
                                             and circle_dist(b[slot], b[k]) < distance)
                       for k in kept):
                kept.append(slot)
        rows.append(kept)
    return rows
