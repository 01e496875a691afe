"""The sampled fixed-point scan that find_equilibria used before the root solve.

Kept as a differential reference for the exact solver: it scans

    g(alpha) = wrap180(R_A(R_B(alpha)) - alpha)

at 0.05-degree steps for sign changes, bisects each bracket, verifies
every candidate and merges near-duplicates.  The best responses come from
the half-angle form of the harmonic coefficients, not from the bilinear
form, so the reference shares only verification with the solver.
"""

from __future__ import annotations

import math

import numpy as np

from wisealice.game import PayoffMatrix
from wisealice.quantum import StrategyAngle
from wisealice.solver import (
    MERGE_DISTANCE_DEG,
    NASH_TOLERANCE,
    Equilibrium,
    Frames,
    _make_equilibrium,
    verify_nash_quantum,
)

SCAN_RESOLUTION_DEG = 0.05
REFINE_TOLERANCE_DEG = 1e-9


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


def _wrap90(x):
    return (x + 90.0) % 180.0 - 90.0


def _alice_response(h, frames, beta_deg):
    _, u, v = half_angle_coefficients(h, frames, beta_deg)
    return (0.5 * np.degrees(np.arctan2(v, u))) % 180.0


def _bob_response(h, frames, alpha_deg):
    _, u, v = half_angle_coefficients_in_beta(h, frames, alpha_deg)
    return (0.5 * np.degrees(np.arctan2(v, u)) + 90.0) % 180.0


def _composed_defect(h, frames, alpha_deg):
    alpha_deg = np.asarray(alpha_deg, dtype=float)
    return _wrap90(_alice_response(h, frames, _bob_response(h, frames, alpha_deg))
                   - alpha_deg)


def _circle_dist(a: float, b: float) -> float:
    d = abs(a - b) % 180.0
    return min(d, 180.0 - d)


def scan_equilibria(h: PayoffMatrix, frames: Frames) -> list[Equilibrium]:
    """Verified equilibria from sign changes of the composed defect."""
    tol = NASH_TOLERANCE * h.scale
    step = SCAN_RESOLUTION_DEG
    alphas = np.arange(0.0, 180.0, step)
    g = _composed_defect(h, frames, alphas)
    n = len(alphas)

    candidates: list[float] = []
    for i in range(n):
        j = (i + 1) % n
        lo, hi = float(alphas[i]), float(alphas[i]) + step
        gi, gj = float(g[i]), float(g[j])
        if gi == 0.0:
            candidates.append(lo)
            continue
        if gi * gj >= 0.0:
            continue
        if abs(gj - gi) > 90.0:
            # a swing this large may be the wrap at +-90, not a crossing
            candidates.extend((lo, hi % 180.0))
        flo = gi
        for _ in range(200):
            if hi - lo <= REFINE_TOLERANCE_DEG:
                break
            mid = (lo + hi) / 2.0
            fm = float(_composed_defect(h, frames, mid))
            if flo * fm <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        candidates.append((lo + hi) / 2.0)

    betas = _bob_response(h, frames, np.asarray(candidates, dtype=float))
    verified = [
        eq for eq in (_make_equilibrium(h, frames, float(a), float(b), float(
                          verify_nash_quantum(h, frames, StrategyAngle(a), StrategyAngle(b))))
                      for a, b in zip(candidates, betas))
        if eq.residual <= tol
    ]
    verified.sort(key=lambda e: e.alpha.degrees)
    merged: list[Equilibrium] = []
    for eq in verified:
        for i, kept in enumerate(merged):
            if (_circle_dist(eq.alpha.degrees, kept.alpha.degrees) < MERGE_DISTANCE_DEG
                    and _circle_dist(eq.beta.degrees, kept.beta.degrees)
                    < MERGE_DISTANCE_DEG):
                if eq.residual < kept.residual:
                    merged[i] = eq
                break
        else:
            merged.append(eq)
    return merged
