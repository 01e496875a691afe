"""Best responses, reaction curves, and Nash equilibria on the strategy torus.

In the bilinear form F = c0 + g.x + k.y + x^T M y (see quantum), F is
c0 + k.y + x.v in x with v = g + M y and c0 + g.x + y.w in y with
w = k + M^T x, a single harmonic (U, V) in each player's doubled angle.
best_responses reads both off the form: Alice's reply to y is parallel to
v, 2*alpha = atan2(v1, v0), and Bob's reply to x is y = -w/|w|, so every
equilibrium satisfies

    |w|^2 (x cross g)^2 = (x cross M w)^2

a trigonometric polynomial of degree 4 in 2*alpha.  Times (1 + t^2)^4 it is
a real polynomial of degree 8 in the half-angle t = tan(alpha - alpha_0),
whose at most eight roots come from one real companion matrix.  Each cell
takes its own origin alpha_0, a quarter turn before its largest sample of
the quartic, so the leading coefficient is that sample and no root lies at
t = inf.  Squaring admits spurious roots, so each root is only a
candidate.  Where Bob is indifferent, w = 0, the quartic's root may be
lost in roundoff, so the cusp x_c joins the eight roots as a ninth.
Each of the nine is completed by Bob's reply, or where that fits worse
by a y to which Alice replies with it, polished by Newton steps on
grad F = 0, and judged as Newton leaves it (a failed step leaves NaN,
which fails).  A grid of frame pairs goes through in blocks, each step
one array operation over the block: one stacked eigenvalue call for the
roots and one broadcast verification.  Both indifference points, x_c
of Bob and y_c of Alice, have one closed form in the payoff ratios and
the frame angle, and _indifference is its one owner.  Cells where both
lie far enough inside the circle are not solved: there every pure pair
gains more than the judge's tolerance, a bound read off the payoffs and
the two frame angles (_certified_empty).
Every returned equilibrium carries its residual, the larger unilateral gain

    max( |v| - x.v,  |w| + y.w ),   v = g + M y,  w = k + M^T x

which is max_l F(l, beta) - F(alpha, beta) and F(alpha, beta) - min_m F(alpha, m)
read off the bilinear form, so callers never need to trust the fixed-point
argument itself.  Payoffs whose total is below 1 are solved and judged
lifted by a power of two (_lift), so a subnormal total keeps its digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from wisealice.game import PayoffMatrix
from wisealice.quantum import (
    Frame,
    MeasurementFrame,
    OutcomeWeights,
    StrategyAngle,
    _degrees,
    _dot,
    _half_turn,
    _mat_vec,
    _payoff,
    _vec_mat,
    _weights,
    bilinear_form,
    outcome_weights,
    unit_vectors,
)

Frames = tuple[MeasurementFrame, MeasurementFrame]

# relative amplitude below which a best response is treated as indifferent.
# On a payoff flat in alpha but for a factor 1 + eps, a 50-digit atan2 puts
# the reply's roundoff at 3.7e-4 deg at amplitude 5.8e-13 * scale, 3.7e-3 at
# 5.8e-14 and 0.012 at 1.85e-14, past the 0.01-deg grid oracle; the tests
# fail at a ratio of 1e-14
DEGENERACY_RATIO = 1e-12
# a candidate is an equilibrium when verify_nash_quantum gives at most this
# times the total payoff a + b + c + d
NASH_TOLERANCE = 1e-8
# verified candidates closer than this in both angles are one equilibrium:
# near-tangent instances yield two roots of the quartic for one equilibrium
MERGE_DISTANCE_DEG = 0.2
# frame pairs solved per stacked call; a cell's result does not depend on
# it, and it bounds the block's arrays to a few hundred KiB
BLOCK_CELLS = 256


@dataclass(frozen=True)
class ReactionCurve:
    """Sampled best-response map of one player over [0, 180).

    The arrays are best_responses' at the inputs input_deg, one entry per
    sample.  jumps holds the index of each sample where the reply crosses
    the 0/180 edge, so the flags count the curve's wraps.  The curve is open
    at 180: the step from the last sample back to the first is not
    flagged, so the unit instance's Bob reply, which wraps exactly there,
    carries no flag.
    """

    player: Literal["alice", "bob"]
    input_deg: np.ndarray
    response_deg: np.ndarray
    amplitude: np.ndarray
    degenerate: np.ndarray
    jumps: np.ndarray

    @property
    def discontinuities(self) -> tuple[float, ...]:
        """Input angles midway across each wrap."""
        midpoints = (self.input_deg[self.jumps - 1] + self.input_deg[self.jumps]) / 2.0
        return tuple(midpoints.tolist())


@dataclass(frozen=True)
class Equilibrium:
    alpha: StrategyAngle
    beta: StrategyAngle
    value: float
    weights_a: OutcomeWeights
    weights_b: OutcomeWeights
    residual: float


def _lift(h: PayoffMatrix) -> tuple[PayoffMatrix, int]:
    """(h times 2^shift, shift), the power of two lifting a total below 1 into [1, 2).

    A total of 1 or more gives (h, 0).  Below about 2^-1018 the form's /4
    and its products lose digits, and NASH_TOLERANCE and DEGENERACY_RATIO
    times the total underflow to 0.  Scaling up by a power of two is exact,
    and no payoff exceeds the total, so the lifted game has the caller's
    equilibria and replies; its residuals and amplitudes are 2^shift times
    the caller's.
    """
    if h.scale >= 1.0:
        return h, 0
    shift = 1 - math.frexp(h.scale)[1]
    return PayoffMatrix(*(math.ldexp(p, shift) for p in (h.a, h.b, h.c, h.d))), shift


def best_responses(
    player: Literal["alice", "bob"], h: PayoffMatrix, frames: Frames, opponent_deg
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best replies of one player to opponent angles in degrees, scalar or array.

    Returns (angle_deg, amplitude, degenerate): Alice's maximizer or Bob's
    minimizer in [0, 180), the amplitude sqrt(U^2 + V^2) of the payoff's
    harmonic in the player's angle, and whether that amplitude is below
    DEGENERACY_RATIO * (a + b + c + d).  (U, V) is read off the bilinear
    form: g + M y for Alice, k + M^T x for Bob, whose minimizer is the
    antipode of that vector's direction.  A degenerate reply, where the
    payoff is flat up to roundoff, is reported at angle 0.
    """
    if player not in ("alice", "bob"):
        raise ValueError(f"unknown player: {player!r}")
    lifted, shift = _lift(h)
    _, g, k, m = bilinear_form(lifted, *frames)
    # g + M y for Alice, k + M^T x for Bob; the opponent's vectors are not
    # kept, as curves of a million samples hold several such arrays at once
    offset, matrix, phase = ((g, m, 0.0) if player == "alice"
                             else (k, np.swapaxes(m, -1, -2), 90.0))
    uv = offset + _mat_vec(matrix, unit_vectors(2.0 * np.radians(opponent_deg)))
    u, v = uv[..., 0], uv[..., 1]
    amplitude = np.hypot(u, v)
    degenerate = amplitude < DEGENERACY_RATIO * lifted.scale
    angle = _half_turn(0.5 * np.degrees(np.arctan2(v, u)) + phase)
    if shift:
        amplitude = np.ldexp(amplitude, -shift)
    return np.where(degenerate, 0.0, angle), amplitude, degenerate


def reaction_curve(
    player: Literal["alice", "bob"],
    h: PayoffMatrix,
    frames: Frames,
    resolution: float,
) -> ReactionCurve:
    """best_responses sampled over [0, 180), with each wrap flagged.

    A sample is flagged where its [0, 180) reply differs from the previous
    sample's by more than 90, half the reply's period.  A reply that turns
    less than a quarter turn between samples does that only by crossing
    the 0/180 edge, so every flag marks a crossing.  The curve is open at
    180: the closing step, from the last sample back to the first, is not
    flagged.  With that step the crossings count the curve's winding mod 2.
    The reply is parallel to g + M y for Alice and to -(k + M^T x) for Bob,
    so the curve winds once exactly when the opponent vector at which the
    player is indifferent, y_c or x_c from _indifference, lies inside the
    unit circle.
    No sampled rule resolves two crossings within one step, or a reply that
    turns more than 90 within one step, as it does where that vector lies
    next to the circle.
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    inputs = np.arange(0.0, 180.0, resolution)
    responses, amplitudes, degenerate = best_responses(player, h, frames, inputs)
    jumps = np.flatnonzero(np.abs(np.diff(responses)) > 180.0 / 2) + 1
    return ReactionCurve(player, inputs, responses, amplitudes, degenerate, jumps)


def _gain(g, k, m, x, y):
    """The larger player's gain from deviating alone at unit vectors (x, y).

    F is c0 + k.y + x.v in x with v = g + M y, and c0 + g.x + y.w in y with
    w = k + M^T x, so Alice gains |v| - x.v and Bob |w| + y.w.
    """
    v = g + _mat_vec(m, y)
    w = k + _vec_mat(x, m)
    return np.maximum(np.hypot(v[..., 0], v[..., 1]) - _dot(x, v),
                      _dot(y, w) + np.hypot(w[..., 0], w[..., 1]))


def verify_nash_quantum(
    h: PayoffMatrix,
    frames: tuple[Frame, Frame],
    alpha: StrategyAngle | np.ndarray,
    beta: StrategyAngle | np.ndarray,
) -> float | np.ndarray:
    """Worst unilateral improvement at (alpha, beta), from analytic optima.

    That is max(_gain(g, k, M, x, y), 0) at the unit vectors of 2 alpha and
    2 beta, so no gain is a difference of two payoffs of size a + b + c + d.
    Zero (up to roundoff) exactly at Nash points; invariant under
    180-degree shifts of either angle.  The angles may also be arrays in
    degrees and the frames arrays of frame angles in degrees, all
    broadcasting together; a NaN angle gives a NaN residual.  Called
    directly on payoffs whose total is below about 2^-1018, it rounds its
    residual in their units, to multiples of 2^-1074; find_equilibria
    judges such payoffs lifted by a power of two.
    """
    _, g, k, m = bilinear_form(h, frames[0], frames[1])
    x = unit_vectors(2.0 * np.radians(_degrees(alpha)))
    y = unit_vectors(2.0 * np.radians(_degrees(beta)))
    return np.maximum(_gain(g, k, m, x, y), 0.0)


def _circle_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance of angles a and b in [0, 180] degrees on the half-turn circle.

    Elementwise.  |a - b| lies in [0, 180] already, so no % is needed.
    """
    d = np.abs(a - b)
    return np.minimum(d, 180.0 - d)


def _turn(v: np.ndarray) -> np.ndarray:
    """v turned a quarter, (-v1, v0): _turn(x) . u is x cross u."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _saddle_newton(g, k, m, phi, psi):
    """Newton steps on grad F = 0 in (phi, psi) = (2 alpha, 2 beta).

    The Hessian's determinant -|g + M y| |k + M^T x| - (x'.M y')^2 is
    negative at an equilibrium, so the steps converge there even where a
    best reply is ill-conditioned; a singular one gives non-finite angles.
    Four steps, because the cusp can start farther from a saddle than a
    root does.
    """
    with np.errstate(all="ignore"):
        for _ in range(4):
            x, y = unit_vectors(phi), unit_vectors(psi)
            x_turn, y_turn = _turn(x), _turn(y)
            v = g + _mat_vec(m, y)
            w = k + _vec_mat(x, m)
            grad_a, grad_b = _dot(x_turn, v), _dot(y_turn, w)
            h_aa, h_bb = -_dot(x, v), -_dot(y, w)
            h_ab = _dot(x_turn, _mat_vec(m, y_turn))
            det = h_aa * h_bb - h_ab**2
            phi = phi - (h_bb * grad_a - h_ab * grad_b) / det
            psi = psi - (h_aa * grad_b - h_ab * grad_a) / det
    return phi, psi


def _indifference(h: PayoffMatrix, theta_deg: np.ndarray) -> np.ndarray:
    """sin 2theta p(theta) = (-s sin 2theta, s cos 2theta - t), (..., 2).

    The one owner of where a player is indifferent, with s = (a-c)/(a+c)
    and t = (b-d)/(b+d).  Bob is indifferent, k + M^T x = 0, exactly where
    e_1.x = -s and e(2theta_A).x = -t, at x_c = p(theta_A); Alice,
    g + M y = 0, where e_1.y = s and e(2theta_B).y = t, at y_c = -p(theta_B).
    Times sin 2theta > 0 the form never divides, and as s and t are ratios
    it cannot overflow.
    """
    s = (h.a - h.c) / (h.a + h.c)
    t = (h.b - h.d) / (h.b + h.d)
    two_theta = 2.0 * np.radians(theta_deg)
    return np.stack([-s * np.sin(two_theta), s * np.cos(two_theta) - t], axis=-1)


def _cayley(a: int, b: int) -> list[complex]:
    """Coefficients of (1 + i t)^a (1 - i t)^b, highest first (np.convolve
    would cost every process ~0.3 MiB of peak RSS)."""
    return [sum(math.comb(a, j) * math.comb(b, k - j) * 1j**j * (-1j)**(k - j)
                for j in range(k + 1))
            for k in range(a + b, -1, -1)]


_SAMPLES = np.arange(16) * (2.0 * math.pi / 16)
# Fourier coefficients p_n, |n| <= 4, exact from the 16 samples, from p_4
# down to p_-4.  With z = e^{2i alpha} = (1 + i t)/(1 - i t), t = tan alpha,
# (1 + t^2)^4 z^n = (1 + i t)^(4+n) (1 - i t)^(4-n), so (1 + t^2)^4 P is a
# degree-8 polynomial in t, real because p_-n is the conjugate of p_n; the
# rows of _HALF_ANGLE take the 16 samples to its coefficients, highest first
_DFT = np.exp(-1j * np.outer(np.arange(4, -5, -1), _SAMPLES)) / 16
_CAYLEY = np.array([_cayley(4 + n, 4 - n) for n in range(4, -5, -1)])
# not a matmul: a first BLAS call costs ~0.5 MiB of RSS
_HALF_ANGLE = np.sum(_CAYLEY.T[:, None, :] * _DFT.T, axis=-1).real


def _half_angle_roots(samples: np.ndarray) -> np.ndarray:
    """2 alpha at the roots of the quartic from each row of its samples, (n, 8).

    Each row is measured from its own origin alpha_0, a quarter turn before
    its largest |P|: in t = tan(alpha - alpha_0), (1 + t^2)^4 P leads with
    P(alpha_0 + 90), that largest sample, so t = inf is never a root and
    the companion roots keep their accuracy relative to the coefficients.
    An all-zero row has no roots and gives NaN.
    """
    origin = (np.argmax(np.abs(samples), axis=1) + 8) % 16
    rolled = np.take_along_axis(samples, (origin[:, None] + np.arange(16)) % 16, axis=1)
    rows = np.sum(rolled[:, None, :] * _HALF_ANGLE, axis=-1)
    zero = rows[:, :1] == 0
    companion = np.zeros((len(rows), 8, 8))
    companion[:, 0, :] = -rows[:, 1:] / np.where(zero, 1.0, rows[:, :1])
    companion[:, np.arange(1, 8), np.arange(7)] = 1.0
    t = np.linalg.eigvals(companion)
    phi = np.angle((1 + 1j * t) / (1 - 1j * t))
    return np.where(zero, np.nan, phi + _SAMPLES[origin, None])


def _partner(g, k, m, phi) -> np.ndarray:
    """psi = 2 beta for each phi: Bob's reply -w/|w|, or one of the up to two y
    to which Alice replies x, whichever gains less (a nearly indifferent Bob
    magnifies phi's error, and at the cusp w = 0).  Alice replies x to y where
    x cross (g + M y) = 0, and x cross M y = (M^T x_turn) . y = |r| cos(psi - angle r)."""
    x = unit_vectors(phi)
    w = k + _vec_mat(x, m)
    r = _vec_mat(_turn(x), m)
    with np.errstate(all="ignore"):
        spread = np.arccos(-_dot(_turn(x), g) / np.hypot(r[..., 0], r[..., 1]))
    bob = np.arctan2(-w[..., 1:], -w[..., :1])
    alice = np.arctan2(r[..., 1:], r[..., :1]) + spread[..., None] * [1.0, -1.0]
    psi = np.concatenate([bob, alice], -1)
    gain = _gain(g[..., None, :], k[..., None, :], m[..., None, :, :], x[..., None, :],
                 unit_vectors(psi))
    best = np.argmin(np.where(np.isnan(gain), np.inf, gain), axis=-1)[..., None]
    return np.take_along_axis(psi, best, axis=-1)[..., 0]


def _candidates(
    h: PayoffMatrix, theta_a: np.ndarray, theta_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) candidates in degrees, (n, 9), at n frame pairs.

    The eight roots of the fixed-point polynomial and the cusp, each paired
    by _partner and taken as Newton's steps leave it; NaN fills the places
    of candidates a cell does not have or whose step failed.  Built from the
    form divided by the total payoff, so the coefficients stay near one
    whatever the payoff magnitude.
    """
    # g, k: (n, 1, 2) and M: (n, 1, 2, 2); axis 1 runs over samples or roots
    _, g, k, m = (t / h.scale
                  for t in bilinear_form(h, theta_a[:, None], theta_b[:, None]))
    x = unit_vectors(_SAMPLES)
    x_turn = _turn(x)
    w = k + _vec_mat(x, m)
    x_cross_mw = _dot(x_turn, _mat_vec(m, w))
    samples = _dot(w, w) * _dot(x_turn, g) ** 2 - x_cross_mw**2
    # the cusp x_c, where Bob is indifferent: k + M^T x = 0, so the quartic's
    # root there, if roundoff leaves one, has no reply -w/|w|; _partner
    # pairs it like a root, and off the circle it is one more candidate
    cusp = _indifference(h, theta_a[:, None])
    phi = np.concatenate([_half_angle_roots(samples),
                          np.arctan2(cusp[..., 1], cusp[..., 0])], axis=1)
    # a root shared with the spurious factor |w| (x cross g) + x cross M w
    # keeps only half the digits, and a nearly indifferent Bob turns that
    # error into a wrong beta, which _partner can only shrink; Newton steps
    # on the saddle restore both
    phi, psi = _saddle_newton(g, k, m, phi, _partner(g, k, m, phi))
    # a singular Newton step leaves +-inf, which _half_turn turns into NaN:
    # such a candidate gets a NaN residual and fails the judge
    with np.errstate(invalid="ignore"):
        return _half_turn(np.degrees(phi) / 2.0), _half_turn(np.degrees(psi) / 2.0)


def _merge(alpha: np.ndarray, beta: np.ndarray, residual: np.ndarray,
           passed: np.ndarray) -> np.ndarray:
    """Which candidate slots of each row are kept, (n, 9).

    Slots are taken by residual, ties in slot order, and a slot is kept if
    it passed and no slot kept before it lies within MERGE_DISTANCE_DEG of
    it in both angles: of candidates that close, the smallest residual
    stands for them all.  No sort, whose first call costs a process 128 KiB
    of peak RSS: each step re-decides every slot from the last step's
    verdicts, and a slot's verdict is final once those of all slots before
    it are, so the k-th slot's is final after k - 1 steps.  A failed slot,
    NaN residual included, is never kept and so blocks none.
    """
    # float slot numbers: the solver compares no integers elsewhere, and a
    # first integer comparison would cost 128 KiB of peak RSS too
    slot = np.arange(float(residual.shape[1]))
    r_s, r_t = residual[:, :, None], residual[:, None, :]
    # blocks[i, s, t]: slot t comes before slot s and lies near it
    blocks = (((r_t < r_s) | ((r_t == r_s) & (slot < slot[:, None])))
              & (_circle_dist(alpha[:, :, None], alpha[:, None, :]) < MERGE_DISTANCE_DEG)
              & (_circle_dist(beta[:, :, None], beta[:, None, :]) < MERGE_DISTANCE_DEG))
    kept = passed
    for _ in range(slot.size - 1):
        kept = passed & ~(blocks & kept[:, None, :]).any(axis=2)
    return kept


def _solve_block(h: PayoffMatrix, theta_a: np.ndarray,
                 theta_b: np.ndarray) -> tuple[np.ndarray, ...]:
    """find_equilibria_grid's arrays at the frame pairs (theta_a[i], theta_b[i]), cell i.

    Solved and judged on _lift(h); values come from h itself.
    """
    lifted, shift = _lift(h)
    alpha, beta = _candidates(lifted, theta_a, theta_b)
    residual = verify_nash_quantum(lifted, (theta_a[:, None], theta_b[:, None]), alpha, beta)
    cell, slot = np.nonzero(_merge(alpha, beta, residual,
                                   residual <= NASH_TOLERANCE * lifted.scale))
    alpha, beta = alpha[cell, slot], beta[cell, slot]
    value = _payoff(h, _weights(alpha, theta_a[cell]), _weights(beta, theta_b[cell]))
    return cell, alpha, beta, value, np.ldexp(residual[cell, slot], -shift)


def find_equilibria(h: PayoffMatrix, frames: Frames) -> list[Equilibrium]:
    """All verified Nash equilibria, deduplicated and sorted by alpha.

    An empty list is a valid outcome.  Candidates are the roots of the
    fixed-point polynomial and the point where Bob is indifferent, each
    paired with Bob's best response or a beta to which it is Alice's, and
    polished by Newton steps; each one must pass
    verify_nash_quantum at NASH_TOLERANCE * (a + b + c + d) before it is
    reported, so spurious roots are never returned.  The tolerance is a
    module constant, not a parameter.  Of candidates within
    MERGE_DISTANCE_DEG of each other in both angles, the one with the
    smallest residual is kept.
    This is find_equilibria_grid's grid of one cell.
    """
    _, *points = find_equilibria_grid(h, [frames[0].theta_deg], [frames[1].theta_deg])
    found = []
    for alpha, beta, value, residual in zip(*(t.tolist() for t in points)):
        alpha, beta = StrategyAngle(alpha), StrategyAngle(beta)
        found.append(Equilibrium(alpha, beta, value, outcome_weights(alpha, frames[0]),
                                 outcome_weights(beta, frames[1]), residual))
    # ties in alpha by residual, as the merge takes them
    return sorted(found, key=lambda e: (e.alpha.degrees, e.residual))


def _circle_margin(h: PayoffMatrix, theta_deg: np.ndarray) -> np.ndarray:
    """q(theta) = sin 2theta - |sin 2theta p(theta)| from _indifference.

    That is sin 2theta (1 - |p(theta)|), where |p(theta_A)| = |x_c| and
    |p(theta_B)| = |y_c|; q > 0 exactly where the indifference point lies
    inside the circle.  It reads the payoffs and the frame alone, not the
    bilinear form.
    """
    point = _indifference(h, theta_deg)
    return np.sin(2.0 * np.radians(theta_deg)) - np.hypot(point[..., 0], point[..., 1])


def _certified_empty(h: PayoffMatrix, theta_a: np.ndarray, theta_b: np.ndarray) -> np.ndarray:
    """(len(theta_a), len(theta_b)) mask of frame cells where no point can pass the judge.

    With F = v* + (x - x_c)^T M (y - y_c), the two gains at unit vectors
    (x, y) sum to |M dy| - x_c^T M dy + |M^T dx| + y_c^T M^T dx, dx = x - x_c
    and dy = y - y_c, which is at least (1 - |x_c|) |M dy| + (1 - |y_c|) |M^T dx|.
    As |dx| >= 1 - |x_c|, |dy| >= 1 - |y_c| and sigma_min(M) >= |det M| / (S/4),
    S = a + b + c + d, the sum is at least 2 sigma_min(M) (1 - |x_c|) (1 - |y_c|),
    so the larger gain is at least (a+c)(b+d)/(4S) q(theta_A) q(theta_B) where
    both q are positive.  A cell is certified where that bound, formed
    scale-free, exceeds NASH_TOLERANCE * S.
    """
    q_a = _circle_margin(h, theta_a)[:, None]
    q_b = _circle_margin(h, theta_b)[None, :]
    weight = (h.a + h.c) / h.scale * ((h.b + h.d) / h.scale) / 4.0
    return (q_a > 0) & (q_b > 0) & (weight * q_a * q_b > NASH_TOLERANCE)


def find_equilibria_grid(
    h: PayoffMatrix,
    thetas_a_deg: Iterable[float],
    thetas_b_deg: Iterable[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """find_equilibria at every pair of the frame angles, as arrays.

    Returns (cell, alpha, beta, value, residual), one entry per equilibrium,
    in cell order: cell i * len(thetas_b_deg) + j is the frame pair
    (thetas_a_deg[i], thetas_b_deg[j]), and within a cell the points come
    in candidate order.  alpha and beta are StrategyAngle's degrees in
    [0, 180).  Every angle must be a valid MeasurementFrame.  A cell that
    _certified_empty proves holds no point within NASH_TOLERANCE is not
    solved and has no entry.  The others are solved BLOCK_CELLS at a time
    and judged at that same tolerance, so each cell's entries are what
    find_equilibria returns for it alone.
    """
    theta_a, theta_b = (
        np.array([MeasurementFrame(float(t)).theta_deg for t in thetas], dtype=float)
        for thetas in (thetas_a_deg, thetas_b_deg))
    cells_a = np.repeat(theta_a, theta_b.size)
    cells_b = np.tile(theta_b, theta_a.size)
    solve = np.flatnonzero(~_certified_empty(h, theta_a, theta_b).ravel())
    found = [(np.empty(0, dtype=np.intp), *[np.empty(0)] * 4)]
    for start in range(0, solve.size, BLOCK_CELLS):
        block = solve[start:start + BLOCK_CELLS]
        index, *points = _solve_block(h, cells_a[block], cells_b[block])
        found.append((block[index], *points))
    return tuple(np.concatenate(column) for column in zip(*found))
