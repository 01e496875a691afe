"""Best responses, reaction curves, and Nash equilibria on the strategy torus.

For a fixed opponent angle the payoff is a single-harmonic sinusoid, so
both best-response maps are analytic: Alice's maximizer satisfies
2*alpha = atan2(V, U) and Bob's minimizer is the antipode.

In the bilinear form F = c0 + g.x + k.y + x^T M y (see quantum), Bob's
reply to x is y = -w/|w| with w = k + M^T x and Alice's reply to y is
parallel to g + M y, so every equilibrium satisfies

    |w|^2 (x cross g)^2 = (x cross M w)^2

a trigonometric polynomial of degree 4 in 2*alpha.  Times (1 + t^2)^4 it is
a real polynomial of degree 8 in the half-angle t = tan(alpha - alpha_0),
whose at most eight roots come from one real companion matrix.  Each cell
takes its own origin alpha_0, a quarter turn before its largest sample of
the quartic, so the leading coefficient is that sample and no root lies at
t = inf.  Squaring admits spurious roots, so each root is only a
candidate: Bob's reply completes it, Newton steps on grad F = 0 polish it,
and verification against the analytic unilateral optima decides.  Where
Bob is indifferent, w = 0, his reply -w/|w| is undefined, so the cusp
x_c = -M^-T k joins the candidates, paired with each y that makes Alice
reply x_c.  A grid of frame pairs goes through in blocks, each step one
array operation over the block: one stacked eigenvalue call for the roots
and one broadcast verification.  Every returned equilibrium carries that
residual

    max( max_l F(l, beta) - F(alpha, beta),  F(alpha, beta) - min_m F(alpha, m) )

so callers never need to trust the fixed-point argument itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, NamedTuple

import numpy as np

from wisealice.game import PayoffMatrix
from wisealice.quantum import (
    Frame,
    MeasurementFrame,
    OutcomeWeights,
    StrategyAngle,
    _degrees,
    _dot,
    _mat_vec,
    _vec_mat,
    bilinear_form,
    harmonic_coefficients,
    harmonic_coefficients_in_beta,
    outcome_weights,
    payoff_kernel,
    quantum_payoff,
    unit_vectors,
)

Frames = tuple[MeasurementFrame, MeasurementFrame]

# consecutive reaction-curve samples further apart than this are flagged
JUMP_THRESHOLD_DEG = 5.0
# relative amplitude below which a best response is treated as indifferent
DEGENERACY_RATIO = 1e-12
# verified candidates closer than this in both angles are one equilibrium:
# near-tangent instances yield two roots of the quartic for one equilibrium
MERGE_DISTANCE_DEG = 0.2
# frame pairs solved per stacked call; a cell's result does not depend on
# it, and it bounds the block's arrays to a few hundred KiB
BLOCK_CELLS = 256


class BestResponse(NamedTuple):
    angle: StrategyAngle
    amplitude: float
    degenerate: bool


class CurveSample(NamedTuple):
    input_deg: float
    response_deg: float
    amplitude: float
    degenerate: bool


@dataclass(frozen=True)
class ReactionCurve:
    """Sampled best-response map of one player over [0, 180).

    jumps holds the index of each sample whose response moved by more than
    JUMP_THRESHOLD_DEG from the previous sample's.
    """

    player: Literal["alice", "bob"]
    samples: tuple[CurveSample, ...]
    jumps: tuple[int, ...]

    @property
    def discontinuities(self) -> tuple[float, ...]:
        """Input angles midway across each jump."""
        return tuple(
            (self.samples[i - 1].input_deg + self.samples[i].input_deg) / 2.0
            for i in self.jumps
        )


@dataclass(frozen=True)
class Equilibrium:
    alpha: StrategyAngle
    beta: StrategyAngle
    value: float
    weights_a: OutcomeWeights
    weights_b: OutcomeWeights
    residual: float


def _responses(
    player: Literal["alice", "bob"], h: PayoffMatrix, frames: Frames, opponent_deg
) -> tuple[np.ndarray, np.ndarray]:
    """Best-response angles and amplitudes of one player to opponent angles."""
    if player == "alice":
        _, u, v = harmonic_coefficients(h, frames[0], frames[1], opponent_deg)
        phase = 0.0
    elif player == "bob":
        _, u, v = harmonic_coefficients_in_beta(h, frames[0], frames[1], opponent_deg)
        phase = 90.0
    else:
        raise ValueError(f"unknown player: {player!r}")
    return (0.5 * np.degrees(np.arctan2(v, u)) + phase) % 180.0, np.hypot(u, v)


def _best_response(player, h: PayoffMatrix, frames: Frames, opponent) -> BestResponse:
    angle, amplitude = _responses(player, h, frames, opponent.degrees)
    if amplitude < DEGENERACY_RATIO * h.scale:
        return BestResponse(StrategyAngle(0.0), float(amplitude), True)
    return BestResponse(StrategyAngle(float(angle)), float(amplitude), False)


def best_response_alice(
    h: PayoffMatrix, frames: Frames, beta: StrategyAngle
) -> BestResponse:
    """Maximizer of F(., beta); degenerate when F is flat in alpha."""
    return _best_response("alice", h, frames, beta)


def best_response_bob(
    h: PayoffMatrix, frames: Frames, alpha: StrategyAngle
) -> BestResponse:
    """Minimizer of F(alpha, .); the phase is the antipode of Alice's rule."""
    return _best_response("bob", h, frames, alpha)


def reaction_curve(
    player: Literal["alice", "bob"],
    h: PayoffMatrix,
    frames: Frames,
    resolution: float = 1.0,
) -> ReactionCurve:
    """Sample a best-response map and flag jumps between adjacent samples.

    A jump is any change of the [0, 180) representative larger than
    JUMP_THRESHOLD_DEG; this flags both genuinely steep stretches and
    crossings of the 0/180 plot boundary, matching how the curves are
    drawn on the square.
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    inputs = np.arange(0.0, 180.0, resolution)
    responses, amplitudes = _responses(player, h, frames, inputs)
    degenerate = amplitudes < DEGENERACY_RATIO * h.scale
    samples = tuple(
        CurveSample(float(t), float(r), float(a), bool(g))
        for t, r, a, g in zip(inputs, responses, amplitudes, degenerate)
    )
    jumps = np.flatnonzero(np.abs(np.diff(responses)) > JUMP_THRESHOLD_DEG) + 1
    return ReactionCurve(player, samples, tuple(int(i) for i in jumps))


def verify_nash_quantum(
    h: PayoffMatrix,
    frames: tuple[Frame, Frame],
    alpha: StrategyAngle | np.ndarray,
    beta: StrategyAngle | np.ndarray,
) -> float | np.ndarray:
    """Worst unilateral improvement at (alpha, beta), from analytic optima.

    Zero (up to roundoff) exactly at Nash points; invariant under
    180-degree shifts of either angle.  The angles may also be arrays in
    degrees and the frames arrays of frame angles in degrees, all
    broadcasting together; a NaN angle gives a NaN residual.
    """
    value = payoff_kernel(h, frames[0], frames[1], _degrees(alpha), _degrees(beta))
    ka, ua, va = harmonic_coefficients(h, frames[0], frames[1], beta)
    kb, ub, vb = harmonic_coefficients_in_beta(h, frames[0], frames[1], alpha)
    alice_gain = (ka + np.hypot(ua, va)) - value
    bob_gain = value - (kb - np.hypot(ub, vb))
    return np.maximum(np.maximum(alice_gain, bob_gain), 0.0)


def _make_equilibrium(
    h: PayoffMatrix, frames: Frames, alpha_deg: float, beta_deg: float, residual: float
) -> Equilibrium:
    alpha = StrategyAngle(alpha_deg)
    beta = StrategyAngle(beta_deg)
    p, q = outcome_weights(alpha, frames[0]), outcome_weights(beta, frames[1])
    return Equilibrium(alpha=alpha, beta=beta, value=quantum_payoff(h, p, q),
                       weights_a=p, weights_b=q, residual=residual)


def _circle_dist(a: float, b: float) -> float:
    d = abs(a - b) % 180.0
    return min(d, 180.0 - d)


def _turn(v: np.ndarray) -> np.ndarray:
    """v turned a quarter, (-v1, v0): _turn(x) . u is x cross u."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _saddle_newton(g, k, m, phi, psi):
    """Newton steps on grad F = 0 in (phi, psi) = (2 alpha, 2 beta).

    The Hessian's determinant -|g + M y| |k + M^T x| - (x'.M y')^2 is
    negative at an equilibrium, so the steps converge there even where a
    best reply is ill-conditioned; a singular one gives non-finite angles.
    """
    with np.errstate(all="ignore"):
        for _ in range(3):
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


def _cusp(g, k, m) -> tuple[np.ndarray, np.ndarray]:
    """(phi, psi) = (2 alpha, 2 beta) of the two cusp candidates, (n, 2) each.

    Where Bob is indifferent, k + M^T x = 0, every beta is his reply, so the
    quartic's root there has no reply -w/|w| to pair with.  That x is
    x_c = -M^-T k, a strategy where it has unit length, and Alice replies
    with it to the y where x_c cross (g + M y) = 0: a condition of degree
    one in y, met by up to two y on the circle.
    """
    k0, k1 = k[..., 0], k[..., 1]
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    # a singular M, or no y on the circle, leaves NaN candidates
    with np.errstate(all="ignore"):
        det = m00 * m11 - m01 * m10
        phi = np.arctan2((k0 * m01 - k1 * m00) / det, (k1 * m10 - k0 * m11) / det)
        # x_c cross M y = (M^T x_turn) . y = |r| cos(psi - angle of r)
        x_turn = _turn(unit_vectors(phi))
        r = _vec_mat(x_turn, m)
        spread = np.arccos(-_dot(x_turn, g) / np.hypot(r[..., 0], r[..., 1]))
    psi = np.arctan2(r[..., 1], r[..., 0]) + np.array([1.0, -1.0]) * spread
    return np.broadcast_to(phi, psi.shape), psi


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
_HALF_ANGLE = _dot(_CAYLEY.T[:, None, :], _DFT.T).real


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
    rows = _dot(rolled[:, None, :], _HALF_ANGLE)
    zero = rows[:, :1] == 0
    companion = np.zeros((len(rows), 8, 8))
    companion[:, 0, :] = -rows[:, 1:] / np.where(zero, 1.0, rows[:, :1])
    companion[:, np.arange(1, 8), np.arange(7)] = 1.0
    t = np.linalg.eigvals(companion)
    phi = np.angle((1 + 1j * t) / (1 - 1j * t))
    return np.where(zero, np.nan, phi + _SAMPLES[origin, None])


def _candidates(
    h: PayoffMatrix, theta_a: np.ndarray, theta_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) candidates in degrees, (n, 10), at n frame pairs.

    Eight are the roots of the fixed-point polynomial and two the cusp's;
    NaN fills the places of candidates a cell does not have.  Built from the
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
    phi = _half_angle_roots(samples)
    w = k + _vec_mat(unit_vectors(phi), m)
    psi = np.arctan2(-w[..., 1], -w[..., 0])
    # a root shared with the spurious factor |w| (x cross g) + x cross M w
    # keeps only half the digits, and a nearly indifferent Bob turns that
    # error into a wrong beta; Newton steps on the saddle restore both
    polished_phi, polished_psi = _saddle_newton(g, k, m, phi, psi)
    ok = np.isfinite(polished_phi) & np.isfinite(polished_psi)
    cusp_phi, cusp_psi = _cusp(g, k, m)
    phi = np.concatenate([np.where(ok, polished_phi, phi), cusp_phi], axis=1)
    psi = np.concatenate([np.where(ok, polished_psi, psi), cusp_psi], axis=1)
    return (np.degrees(phi) / 2.0) % 180.0, (np.degrees(psi) / 2.0) % 180.0


def _solve_block(
    h: PayoffMatrix,
    theta_a: np.ndarray,
    theta_b: np.ndarray,
    nash_tolerance: float | None,
) -> list[list[Equilibrium]]:
    """find_equilibria at the frame pairs (theta_a[i], theta_b[i]), in degrees."""
    tol = nash_tolerance if nash_tolerance is not None else 1e-8 * h.scale
    alpha, beta = _candidates(h, theta_a, theta_b)
    residual = verify_nash_quantum(h, (theta_a[:, None], theta_b[:, None]), alpha, beta)
    passed = residual <= tol
    found: list[list[Equilibrium]] = [[] for _ in theta_a]
    for cell in np.flatnonzero(passed.any(axis=1)):
        kept: list[int] = []
        for slot in sorted(np.flatnonzero(passed[cell]), key=lambda s: residual[cell, s]):
            if not any(
                _circle_dist(alpha[cell, slot], alpha[cell, k]) < MERGE_DISTANCE_DEG
                and _circle_dist(beta[cell, slot], beta[cell, k]) < MERGE_DISTANCE_DEG
                for k in kept
            ):
                kept.append(slot)
        frames = (MeasurementFrame(theta_a[cell]), MeasurementFrame(theta_b[cell]))
        found[cell] = sorted(
            (_make_equilibrium(h, frames, float(alpha[cell, s]), float(beta[cell, s]),
                               float(residual[cell, s])) for s in kept),
            key=lambda e: e.alpha.degrees)
    return found


def find_equilibria(
    h: PayoffMatrix,
    frames: Frames,
    nash_tolerance: float | None = None,
) -> list[Equilibrium]:
    """All verified Nash equilibria, deduplicated and sorted by alpha.

    An empty list is a valid outcome.  Candidates are the roots of the
    fixed-point polynomial paired with Bob's best response and polished by
    Newton steps, and the point where Bob is indifferent paired with the
    angles at which it is Alice's best response; each one must pass
    verify_nash_quantum at nash_tolerance (default 1e-8 * total payoff)
    before it is reported, so spurious roots are never returned.  Of
    candidates within MERGE_DISTANCE_DEG of each other in both angles, the
    one with the smallest residual is kept.
    This is find_equilibria_grid's block of one.
    """
    theta_a, theta_b = (np.array([frame.theta_deg]) for frame in frames)
    return _solve_block(h, theta_a, theta_b, nash_tolerance)[0]


def find_equilibria_grid(
    h: PayoffMatrix,
    thetas_a_deg: Iterable[float],
    thetas_b_deg: Iterable[float],
    nash_tolerance: float | None = None,
) -> list[list[Equilibrium]]:
    """find_equilibria at every pair of the frame angles, theta_a major.

    Cell i * len(thetas_b_deg) + j holds the equilibria at frames
    (thetas_a_deg[i], thetas_b_deg[j]).  Every angle must be a valid
    MeasurementFrame.  Cells are solved BLOCK_CELLS at a time, and each
    cell's result is what find_equilibria returns for it alone.
    """
    theta_a, theta_b = (
        np.array([MeasurementFrame(float(t)).theta_deg for t in thetas], dtype=float)
        for thetas in (thetas_a_deg, thetas_b_deg))
    cells_a = np.repeat(theta_a, theta_b.size)
    cells_b = np.tile(theta_b, theta_a.size)
    found: list[list[Equilibrium]] = []
    for start in range(0, cells_a.size, BLOCK_CELLS):
        block = slice(start, start + BLOCK_CELLS)
        found += _solve_block(h, cells_a[block], cells_b[block], nash_tolerance)
    return found


def grid_nash_audit(
    h: PayoffMatrix,
    frames: Frames,
    step: float = 0.1,
    tol: float | None = None,
) -> list[tuple[float, float, float]]:
    """Independent 2-D sweep: grid points whose unilateral gain is below tol.

    The payoff grid is built straight from the trigonometric definition
    and compared against the analytic per-row/per-column optima, so this
    audit shares no code path with the root solve.  Returns
    (alpha, beta, deviation) for every passing grid point.

    The default tol is 4 * scale * (step in radians)^2: a grid point within
    half a step of an equilibrium leaves a gain of order curvature * step^2,
    so a tolerance below that passes no point even where one exists.
    """
    if tol is None:
        tol = 4.0 * h.scale * math.radians(step) ** 2
    alphas = np.arange(0.0, 180.0, step)
    betas = np.arange(0.0, 180.0, step)
    ka, ua, va = harmonic_coefficients(h, frames[0], frames[1], betas)
    fmax_by_beta = ka + np.hypot(ua, va)
    kb, ub, vb = harmonic_coefficients_in_beta(h, frames[0], frames[1], alphas)
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
