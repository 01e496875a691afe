"""Best responses, reaction curves, and Nash equilibria on the strategy torus.

In the bilinear form F = c0 + g.x + k.y + x^T M y (see quantum), F is
c0 + k.y + x.v in x with v = g + M y and c0 + g.x + y.w in y with
w = k + M^T x, a single harmonic (U, V) in each player's doubled angle.
best_responses reads both off the form: Alice's reply to y is parallel to
v, 2*alpha = atan2(v1, v0), and Bob's reply to x is y = -w/|w|.

Bob is indifferent at x_c, where w = 0, and Alice at y_c, where v = 0;
_indifference owns their one closed form in the payoff ratios and the
frame angle.  Then F = v* + (x - x_c)^T M (y - y_c) with det M > 0, so
Alice replies dir(M (y - y_c)) and Bob dir(-M^T (x - x_c)), and three
lemmas on the game extended to the unit disks, where it has a saddle,
settle each cell of frame pairs:

- A: with |x_c| < 1 and |y_c| < 1 the cell holds no pure equilibrium.
  _indifference's margin q decides it from the payoffs and the frames
  alone, and such a cell is not solved.
- C: with |x_c| > 1 the directions x - x_c of Alice's circle points fill
  a cone, and Alice's reply to Bob's reply to a direction lands back in
  it, so the composed reply has a fixed point, a pure equilibrium.
  _reply_arc bisects for it on the arc of Bob's replies.  With |y_c| > 1
  the players swap.
- B: off the lines |x_c| = 1 and |y_c| = 1 that point is the only one.

In a solved cell each player whose point is not inside the circle walks,
and the merge keeps one walk point: the one with the smaller residual.
A cell within roundoff of a line can hold two, and there the ends of the
chord of Alice's (or Bob's) optimal points on the circle join the walks'
points as candidates (_cell_points).  The walks' points are polished by
Newton steps on grad F = 0, and every candidate is judged as it stands,
at ROUNDOFF times the total payoff (a failed step, or a walker with no
cone, leaves NaN, which fails).  A grid of frame pairs goes through in
blocks, each step one array operation over the block.
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
# verified candidates closer than this in both angles are one equilibrium:
# in a cell on a line a walk's point is often a chord end too, and at a
# corner both lines' chords end at (x_c, y_c)
MERGE_DISTANCE_DEG = 0.2
# frame pairs solved per stacked call; a cell's result does not depend on
# it.  Measured on a 2-vCPU host, per-call overhead bounds the walk in
# smaller blocks (the 179 x 179 grid at payoffs 0.1, 10, 10, 0.1 takes
# 250 ms in blocks of 256 and 130 ms in blocks of 2048), and blocks of
# 4096 are no faster but peak higher; a block's arrays stay within a few MiB
BLOCK_CELLS = 2048
# the roundoff of every cut the solver makes: of _indifference's q, and of
# a residual relative to the total payoff S = a + b + c + d.  A frame whose
# q lies within this of 0 is taken to lie on a line, |x_c| = 1 or
# |y_c| = 1, for it cannot say on which side it lies: against 40 digits q
# errs by up to 7.6e-16 (1,000 frames, payoffs up to e^+-8), and the ends
# of I computed in floats (60,000 of them) give |q| up to 1.3e-15.  A wider
# band takes frames off the line for lines, whose chord ends are no
# equilibria (at 1e-14 one lay 2e-8 degrees inside I next to a corner).  A
# candidate is an equilibrium when verify_nash_quantum gives at most this
# times S: true points lie at <= 3.6e-16 * S (the wide and log-uniform
# stresses, 540,000 cells), and the points off the count rule that an
# earlier quartic solver passed at 1e-8 * S lay at >= 2.5e-11 * S in a
# 102,400-cell stress.  Within 1e-8 degrees of an end of I the residuals
# leave no such gap (the near-end stress of tests/solver_stress.py)
ROUNDOFF = 2e-15


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
    and its products lose digits, and ROUNDOFF and DEGENERACY_RATIO times
    the total underflow to 0.  Scaling up by a power of two is exact,
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
    w = k + _mat_vec(np.swapaxes(m, -1, -2), x)
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
    Four steps: from _reply_arc's start they take every point of the wide
    stress tests to roundoff.
    """
    mt = np.swapaxes(m, -1, -2)
    with np.errstate(all="ignore"):
        for _ in range(4):
            x, y = unit_vectors(phi), unit_vectors(psi)
            x_turn, y_turn = _turn(x), _turn(y)
            v = g + _mat_vec(m, y)
            w = k + _mat_vec(mt, x)
            grad_a, grad_b = _dot(x_turn, v), _dot(y_turn, w)
            h_aa, h_bb = -_dot(x, v), -_dot(y, w)
            h_ab = _dot(x_turn, _mat_vec(m, y_turn))
            det = h_aa * h_bb - h_ab**2
            phi = phi - (h_bb * grad_a - h_ab * grad_b) / det
            psi = psi - (h_aa * grad_b - h_ab * grad_a) / det
    return phi, psi


def _indifference(h: PayoffMatrix,
                  theta_deg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(center, sigma, q) at frame angles theta_deg: all a frame alone decides.

    center = sin 2theta p(theta) = (-s sin 2theta, s cos 2theta - t),
    (..., 2), is where a player is indifferent, with s = (a-c)/(a+c) and
    t = (b-d)/(b+d).  Bob is indifferent, k + M^T x = 0, exactly where
    e_1.x = -s and e(2theta_A).x = -t, at x_c = p(theta_A); Alice,
    g + M y = 0, where e_1.y = s and e(2theta_B).y = t, at y_c = -p(theta_B).
    Times sigma = sin 2theta > 0 the form never divides, and as s and t are
    ratios it cannot overflow.  q = sigma - |center| is sin 2theta
    (1 - |p(theta)|), where |p(theta_A)| = |x_c| and |p(theta_B)| = |y_c|:
    q > 0 exactly where the indifference point lies inside the circle.
    """
    s = (h.a - h.c) / (h.a + h.c)
    t = (h.b - h.d) / (h.b + h.d)
    two_theta = 2.0 * np.radians(theta_deg)
    sigma = np.sin(two_theta)
    center = np.stack([-s * sigma, s * np.cos(two_theta) - t], axis=-1)
    return center, sigma, sigma - np.hypot(center[..., 0], center[..., 1])


def _unit(u0, u1):
    """The 2-vector (u0, u1), given by its components, scaled to unit length."""
    norm = np.hypot(u0, u1)
    return u0 / norm, u1 / norm


def _reply_arc(first, offset, second, center, sigma, q):
    """One pure equilibrium per cell, (x, r), by bisection on a reply arc.

    One player walks: its indifference point c = center / sigma lies
    outside the circle (q = sigma - |center| < 0), so the directions d of
    its circle points from c fill a cone around -c, with ends
    -t center +- sigma turn(center), t = sqrt(|center|^2 - sigma^2).  The
    other player replies to d with r = dir(first d), and the walker to r
    with b = dir(offset + second r); where b - c is parallel to d, (b, r)
    is an equilibrium (lemma C).  det(first) > 0, so r runs over the arc
    of replies to the cone in d's order, and adj(first) r points along d.
    At the arc's clockwise end b - c lies counterclockwise of d or on it,
    at the other end clockwise, so each halving keeps the half where
    d cross (sigma b - center) changes sign: sums of unit vectors, with no
    trigonometry.  Thirty halvings give the polish a start it converges
    from in every cell of the wide stress tests.

    The walker's point x is not b itself but the circle point on the ray
    from c along the last d that the walker prefers: x = rho d + kappa
    turn(d) for unit d, kappa = d cross c and rho = +-sqrt(1 - kappa^2)
    signed as d . b.  Next to frames of 0 or 90 degrees the walker is
    nearly indifferent there, and b turns fast with r.  For those frames
    the matrices' entries also stay apart, in components: entries of size
    sin 2theta decide the replies, and a sum with entries of size 1 would
    lose them.  Arrays over n cells: first and second (n, 2, 2), offset
    and center (n, 2), sigma and q (n,); x and r come back as pairs of
    components.
    """
    f00, f01, f10, f11 = first.reshape(-1, 4).T
    s00, s01, s10, s11 = second.reshape(-1, 4).T
    (o0, o1), (c0, c1) = offset.T, center.T
    t, side = np.sqrt(-q * (2.0 * sigma - q))[:, None], sigma[:, None] * _turn(center)
    (lo0, lo1), (hi0, hi1) = (_unit(*_mat_vec(first, sign * side - t * center).T)
                              for sign in (1.0, -1.0))
    # the 31st midpoint, of the arc halved 30 times, is the walk's point
    for _ in range(31):
        r0, r1 = _unit(lo0 + hi0, lo1 + hi1)
        d0, d1 = f11 * r0 - f01 * r1, f00 * r1 - f10 * r0
        b0, b1 = o0 + s00 * r0 + s01 * r1, o1 + s10 * r0 + s11 * r1
        up = sigma * (d0 * b1 - d1 * b0) > np.hypot(b0, b1) * (d0 * c1 - d1 * c0)
        lo0, lo1 = np.where(up, r0, lo0), np.where(up, r1, lo1)
        hi0, hi1 = np.where(up, hi0, r0), np.where(up, hi1, r1)
    d0, d1 = _unit(d0, d1)
    kappa = (d0 * c1 - d1 * c0) / sigma
    rho = np.copysign(np.sqrt(np.maximum(1.0 - kappa * kappa, 0.0)), d0 * b0 + d1 * b1)
    return (rho * d0 - kappa * d1, rho * d1 + kappa * d0), (r0, r1)


def _chord_ends(center, sigma, q, ray, keep):
    """center + nu ray at both roots nu of |center + nu ray| = sigma, (..., 2, 2).

    These point along where the ray from center / sigma along ray meets
    the unit circle, at most twice.  A meeting behind center (nu < 0), one
    that does not happen, and every place where keep is False are NaN.
    The smaller root is taken from the larger by Vieta, so neither
    cancels, and |center|^2 - sigma^2 = -q (2 sigma - q) keeps q's digits.
    """
    b, a, c = _dot(center, ray), _dot(ray, ray), -q * (2.0 * sigma - q)
    big = -(b + np.copysign(np.sqrt(b * b - a * c), b))
    nu = np.stack([big / a, c / big], axis=-1)
    nu = np.where((nu >= 0.0) & keep[..., None], nu, np.nan)
    return center[..., None, :] + nu[..., None] * ray[..., None, :]


def _cell_points(h: PayoffMatrix, theta, center, sigma, q) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) candidates in degrees, (n, slots), at n frame pairs.

    Each argument after h stacks the players' arrays, Alice's first, as
    find_equilibria_grid gathers them from _indifference cell by cell:
    theta (2, n) the frame angles in degrees, center (2, n, 2) sigma x_c
    and sigma y_c, sigma and q (2, n).
    Slots 0 and 1 are _reply_arc's points where Alice walks and where Bob
    walks, each polished by _saddle_newton; a player whose point lies
    inside the circle by more than ROUNDOFF does not walk, and its slot is
    NaN.  Where some cell lies on a line (ROUNDOFF), four more slots hold
    the chord ends of the cells on one, in closed form, and NaN elsewhere.
    On |y_c| = 1 Alice is indifferent at y_c, and Bob replies y_c to each
    x = x_c - lam M^-T y_c with lam >= 0; on |x_c| = 1, mirrored, Alice
    replies x_c to each y = y_c + lam M^-1 x_c.  NaN also fills the place of a failed Newton
    step.  Built from the form divided by the total payoff, so every
    coefficient stays near one whatever the payoff magnitude.
    """
    _, g, k, m = (t / h.scale for t in bilinear_form(h, *theta))
    mt = np.swapaxes(m, -1, -2)
    # the other player replies to a direction d from one's own indifference
    # point with dir(first d), and one replies to the other's r with
    # dir(offset + second r): Bob with dir(-M^T d) and Alice dir(g + M y)
    first, offset, second = np.stack([-mt, m]), np.stack([g, -k]), np.stack([m, -mt])
    # NaN fills the place of a candidate that does not exist, and fails the
    # judge: a walker inside the circle has no cone, an indifference point
    # at 0 no direction, a chord may miss the circle, and a singular Newton
    # step leaves +-inf, which _half_turn makes NaN
    with np.errstate(all="ignore"):
        # a player walks where its point is not inside the circle by more
        # than roundoff, both in one call on their stacked arrays: own[p]
        # and reply[p] are the doubled angles of player p's point and of the
        # other's reply in p's walk, NaN where p does not walk
        walk = q <= ROUNDOFF
        own, reply = np.full((2, *q.shape), np.nan)
        for angle, (p0, p1) in zip((own, reply), _reply_arc(
                *(t[walk] for t in (first, offset, second, center, sigma, q)))):
            angle[walk] = np.arctan2(p1, p0)
        # Newton's arrays are (slot, cell): slot 0 is Alice's walk and slot 1 Bob's
        angles = np.stack(_saddle_newton(g, k, m, np.stack([own[0], reply[1]]),
                                         np.stack([reply[0], own[1]]))).swapaxes(1, 2)
        line = np.abs(q) <= ROUNDOFF
        if line.any():
            # each player's chord lies on the other's line, along adj(first)
            # of the other's indifference point: for 2 x 2 matrices
            # adj(A) = det(A) A^-1 = tr(A) I - A, and det(first) > 0
            adj = (first[..., 0, 0] + first[..., 1, 1])[..., None, None] * np.eye(2) - first
            chord = _chord_ends(center, sigma, q, _mat_vec(adj, center[::-1]), line[::-1])
            other = np.broadcast_to(center[::-1, :, None, :], chord.shape)
            ends = np.stack([np.concatenate([chord[0], other[1]], axis=1),
                             np.concatenate([other[0], chord[1]], axis=1)])
            angles = np.concatenate([angles, np.arctan2(ends[..., 1], ends[..., 0])], axis=-1)
        return tuple(_half_turn(np.degrees(angles) / 2.0))


def _merge(alpha: np.ndarray, beta: np.ndarray, residual: np.ndarray,
           passed: np.ndarray) -> np.ndarray:
    """Which candidate slots of each row are kept, (n, slots).

    Slots are taken by residual, ties in slot order, and a slot is kept if
    it passed and no slot kept before it lies within MERGE_DISTANCE_DEG of
    it in both angles: of candidates that close, the smallest residual
    stands for them all.  The two walks, slots 0 and 1, count as that close
    wherever they lie, for off the lines they seek one point (lemma B), so
    at most one of them is kept.  No sort, whose first call costs a process
    128 KiB of peak RSS: each step re-decides every slot from the last step's
    verdicts, and a slot's verdict is final once those of all slots before
    it are, so the k-th slot's is final after k - 1 steps.  A failed slot,
    NaN residual included, is never kept and so blocks none.
    """
    # float slot numbers: the solver compares no integers elsewhere, and a
    # first integer comparison would cost 128 KiB of peak RSS too
    slot = np.arange(float(residual.shape[1]))
    r_s, r_t = residual[:, :, None], residual[:, None, :]
    # blocks[i, s, t]: slot t comes before slot s and lies near it, as the
    # two walks always do
    blocks = (((r_t < r_s) | ((r_t == r_s) & (slot < slot[:, None])))
              & ((_circle_dist(alpha[:, :, None], alpha[:, None, :]) < MERGE_DISTANCE_DEG)
                 & (_circle_dist(beta[:, :, None], beta[:, None, :]) < MERGE_DISTANCE_DEG)
                 | (slot < 2.0) & (slot[:, None] < 2.0)))
    kept = passed
    for _ in range(slot.size - 1):
        kept = passed & ~(blocks & kept[:, None, :]).any(axis=2)
    return kept


def find_equilibria(h: PayoffMatrix, frames: Frames) -> list[Equilibrium]:
    """All verified Nash equilibria, deduplicated and sorted by alpha.

    An empty list is a valid outcome.  The candidates are each player's
    _reply_arc point, polished by Newton steps, and on a line the chord ends;
    each one must pass verify_nash_quantum at ROUNDOFF * (a + b + c + d)
    before it is reported.  The tolerance is the module's roundoff
    constant, not a parameter.  Of candidates within MERGE_DISTANCE_DEG of
    each other in both angles, the one with the smallest residual is kept.
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
    [0, 180).  Every angle must be a valid MeasurementFrame whose sin 2theta
    is a normal double, at least 6.3743670598675964e-307 degrees; a smaller
    one raises ValueError.  A cell where
    both indifference points lie inside the circle by more than roundoff
    holds no pure equilibrium and is not solved (lemma A).
    The others are solved BLOCK_CELLS at a time, so each cell's entries
    are what find_equilibria returns for it alone.  Cells are solved and
    judged on _lift(h); values come from h itself.
    """
    theta_a, theta_b = (
        np.array([MeasurementFrame(float(t)).theta_deg for t in thetas], dtype=float)
        for thetas in (thetas_a_deg, thetas_b_deg))
    lifted, shift = _lift(h)
    # each frame's data once, the players' rows stacked, Alice's first:
    # center is sigma (x_c, y_c)
    thetas = np.concatenate([theta_a, theta_b])
    center, sigma, q = _indifference(lifted, thetas)
    center[theta_a.size:] *= -1.0
    # the walk and the chord ends divide by sin 2theta, which a frame within
    # about 6.4e-307 degrees of 0 leaves subnormal, without its digits
    tiny = thetas[sigma < np.finfo(float).tiny]
    if tiny.size:
        raise ValueError(f"frame angle {float(tiny[0])!r} is too close to 0 to solve: "
                         "sin 2theta is below the smallest normal double")
    # frame[p, i] is the row of player p's frame in cell i
    frame = np.stack([np.repeat(np.arange(theta_a.size), theta_b.size),
                      np.tile(np.arange(theta_a.size, thetas.size), theta_a.size)])
    solve = np.flatnonzero(~(q > ROUNDOFF)[frame].all(axis=0))
    found = [(np.empty(0, dtype=np.intp), *[np.empty(0)] * 4)]
    for start in range(0, solve.size, BLOCK_CELLS):
        block = solve[start:start + BLOCK_CELLS]
        theta, *per_frame = (t[frame[:, block]] for t in (thetas, center, sigma, q))
        alpha, beta = _cell_points(lifted, theta, *per_frame)
        residual = verify_nash_quantum(lifted, tuple(theta[..., None]), alpha, beta)
        cell, slot = np.nonzero(_merge(alpha, beta, residual,
                                       residual <= ROUNDOFF * lifted.scale))
        alpha, beta = alpha[cell, slot], beta[cell, slot]
        value = _payoff(h, _weights(alpha, theta[0, cell]), _weights(beta, theta[1, cell]))
        found.append((block[cell], alpha, beta, value, np.ldexp(residual[cell, slot], -shift)))
    return tuple(np.concatenate(column) for column in zip(*found))
