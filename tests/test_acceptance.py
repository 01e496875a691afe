"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every criterion is asserted at its stated tolerance, and all must stay
green.  Criteria 1-3 concern the three classic payoff-and-frame
instances.  The game is zero-sum (Alice maximizes F, Bob minimizes it),
so all its equilibria share one value, maxmin = minmax, and none exists
when maxmin < minmax.  Those criteria therefore assert the verified
structure of each instance: one equilibrium at 10/70 degrees, none on
the unit instance, one at 30/20 degrees and none at 30/40 degrees.  Next
to each count stands an oracle that does not go through find_equilibria:
a grid maxmin/minmax built from the README formula alone, the
independent grid audit, or a brute-force deviation search.
"""

import math
import time
from typing import NamedTuple

import numpy as np

from wisealice.classical import solve_zero_sum
from wisealice.game import PayoffMatrix, pure_saddle_analysis
from wisealice.lattice import (
    PlaneSubspaceRep,
    check_representation,
    disjunction_paradox,
    find_distributivity_violation,
    join,
    meet,
    ortholattice_law_report,
    wise_alice_lattice,
)
from wisealice.quantum import (
    MeasurementFrame,
    StrategyAngle,
    outcome_weights,
)
from wisealice.simulate import SimulationConfig, simulate
from wisealice.solver import (
    best_responses,
    find_equilibria,
    reaction_curve,
    verify_nash_quantum,
)

from oracles import (
    circle_dist,
    grid_nash_audit,
    payoff_kernel,
    payoff_surface,
    verify_nash_classical,
)

H_ASYM = PayoffMatrix(3, 3, 5, 1)
H_UNIT = PayoffMatrix(1, 1, 1, 1)
FRAMES_1 = (MeasurementFrame(10), MeasurementFrame(70))
FRAMES_2 = (MeasurementFrame(45), MeasurementFrame(45))
FRAMES_3 = (MeasurementFrame(30), MeasurementFrame(20))
FRAMES_4 = (MeasurementFrame(15), MeasurementFrame(35))
FRAMES_5 = (MeasurementFrame(30), MeasurementFrame(40))

# the verified close-frames equilibrium, frozen in tests/test_solver.py from
# hand-refined bisection and a 0.0005-degree brute-force deviation check
CLOSE_FRAMES_POINT = (53.5073962816, 51.6622967369, 2.706545984924)
AUDIT_STEP = 0.1


def report(criterion: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f"  [{'; '.join(failures)}]"
    print(f"[{status}] {criterion}{detail}")
    assert not failures, f"{criterion}: {failures}"


def arc_count(angles, step: float) -> int:
    """Connected arcs of a set of grid angles on the half-turn circle.

    Points at most two grid steps apart belong to the same arc.
    """
    a = np.sort(np.asarray(angles, dtype=float) % 180.0)
    if a.size == 0:
        return 0
    gaps = np.diff(np.append(a, a[0] + 180.0))
    return max(1, int(np.count_nonzero(gaps > 2.5 * step)))


def audit_tolerance(h: PayoffMatrix, step: float) -> float:
    """Grid-audit tolerance sized to the step.

    A true equilibrium within half a step of a grid point leaves a
    residual of order curvature * step^2 there.
    """
    return 4.0 * h.scale * math.radians(step) ** 2


class GridGame(NamedTuple):
    """The circle game sampled on a grid, from the README formula alone."""

    grid: np.ndarray
    alice_floor: np.ndarray     # min over grid beta of F, per grid alpha
    bob_ceiling: np.ndarray     # max over grid alpha of F, per grid beta
    error: float                # bound on the grid error of maxmin and minmax

    @property
    def maxmin(self) -> float:
        return float(self.alice_floor.max())

    @property
    def minmax(self) -> float:
        return float(self.bob_ceiling.min())

    @property
    def gap(self) -> float:
        return self.minmax - self.maxmin

    def optimal_alphas(self) -> np.ndarray:
        """Grid angles holding a grid neighbour of every maxmin strategy."""
        return self.grid[self.alice_floor >= self.maxmin - 2.0 * self.error]

    def optimal_betas(self) -> np.ndarray:
        """Grid angles holding a grid neighbour of every minmax strategy."""
        return self.grid[self.bob_ceiling <= self.minmax + 2.0 * self.error]


def grid_game(h: PayoffMatrix, frames, step: float = 0.05) -> GridGame:
    """Maxmin and minmax of F on a grid, sharing no code with the solver.

    F is a sum of four products of a function of alpha and a function of
    beta, so the surface is one four-column matrix product, built here in
    row blocks to keep memory small.  F is L-Lipschitz in either angle
    (radians) with L = max(a, c) + max(b, d), and every angle lies within
    half a step of the grid, so the grid maxmin and minmax are each within
    L * step / 2 of the true ones.
    """
    grid = np.arange(0.0, 180.0, step)
    angle = np.radians(grid)[:, None]
    ta = math.radians(frames[0].theta_deg)
    tb = math.radians(frames[1].theta_deg)
    alice = np.hstack([h.a * np.cos(angle) ** 2, h.c * np.sin(angle) ** 2,
                       h.b * np.cos(angle - ta) ** 2,
                       h.d * np.sin(angle - ta) ** 2])
    bob = np.hstack([np.sin(angle) ** 2, np.cos(angle) ** 2,
                     np.sin(angle - tb) ** 2, np.cos(angle - tb) ** 2])
    floor = np.empty(grid.size)
    ceiling = np.full(grid.size, -np.inf)
    for i in range(0, grid.size, 360):
        block = alice[i:i + 360] @ bob.T
        floor[i:i + 360] = block.min(axis=1)
        np.maximum(ceiling, block.max(axis=0), out=ceiling)
    lipschitz = max(h.a, h.c) + max(h.b, h.d)
    return GridGame(grid, floor, ceiling, lipschitz * math.radians(step) / 2.0)


def game_value_evidence(game: GridGame, eqs) -> list[str]:
    """Failures unless the grid game certifies each verified equilibrium.

    In a zero-sum game an equilibrium exists only if maxmin = minmax, its
    value is that common value, and its strategies are maxmin and minmax
    strategies.  A single arc of optimal strategies per player leaves room
    for one equilibrium up to the grid's resolution.
    """
    failures = []
    if game.gap > 2.0 * game.error:
        failures.append(f"grid maxmin {game.maxmin:.6f} < minmax "
                        f"{game.minmax:.6f}: no equilibrium can exist")
    alphas, betas = game.optimal_alphas(), game.optimal_betas()
    step = float(game.grid[1] - game.grid[0])
    if arc_count(alphas, step) != 1 or arc_count(betas, step) != 1:
        failures.append(f"optimal strategies form {arc_count(alphas, step)} "
                        f"arcs for Alice and {arc_count(betas, step)} for Bob")
    for eq in eqs:
        if not (game.maxmin - game.error <= eq.value
                <= game.minmax + game.error):
            failures.append(f"value {eq.value:.6f} outside the grid game value "
                            f"[{game.maxmin:.6f}, {game.minmax:.6f}] "
                            f"+- {game.error:.1e}")
        if min(circle_dist(eq.alpha.degrees, a) for a in alphas) > step or \
           min(circle_dist(eq.beta.degrees, b) for b in betas) > step:
            failures.append(f"({eq.alpha.degrees:.4f}, {eq.beta.degrees:.4f}) "
                            "is not a pair of grid-optimal strategies")
    return failures


def test_criterion_1_two_equilibria_instance():
    failures = []
    start = time.perf_counter()
    eqs = find_equilibria(H_ASYM, FRAMES_1)
    elapsed = time.perf_counter() - start

    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    values = sorted(eq.value for eq in eqs)
    if len(eqs) != 1:
        failures.append(f"expected exactly 1 verified equilibrium, found "
                        f"{len(eqs)} with values {values}")
    if not any(abs(v - 2.452) <= 0.01 for v in values):
        failures.append(f"no equilibrium value within 0.01 of 2.452: {values}")
    if any(abs(v - 1.926) <= 0.01 for v in values):
        failures.append(f"an equilibrium value lies within 0.01 of 1.926: "
                        f"{values}")

    first = min(eqs, key=lambda e: abs(e.value - 2.452), default=None)
    if first is None:
        failures.append("no equilibrium to check weights against")
    else:
        expected_p = (0.679, 0.509, 0.321, 0.491)
        for got, want in zip(first.weights_a.as_tuple(), expected_p):
            if abs(got - want) > 0.005:
                failures.append(
                    f"Alice weights {first.weights_a.as_tuple()} != {expected_p}")
                break
        printed_q = (0.258, 0.967, 0.742, 0.033)
        swapped_q = (printed_q[2], printed_q[3], printed_q[0], printed_q[1])
        q = first.weights_b.as_tuple()
        direct = all(abs(g - w) <= 0.005 for g, w in zip(q, printed_q))
        swapped = all(abs(g - w) <= 0.005 for g, w in zip(q, swapped_q))
        if not (direct or swapped):
            failures.append(f"Bob weights {q} match neither {printed_q} nor its "
                            "pair swap")

    # independent evidence: the game value is 2.452 and leaves no room for
    # a second equilibrium of value 1.926
    game = grid_game(H_ASYM, FRAMES_1)
    failures += game_value_evidence(game, eqs)
    if abs(game.maxmin - 2.452) > 0.01 - game.error:
        failures.append(f"grid game value {game.maxmin:.6f} not within 0.01 "
                        "of 2.452")
    if abs(game.maxmin - 1.926) <= 0.01 + game.error:
        failures.append(f"grid game value {game.maxmin:.6f} within 0.01 of "
                        "1.926")

    # the reference's second point is Bob-optimal, but Alice gains over 2
    grid = np.arange(0.0, 180.0, 0.01)
    f0 = float(payoff_kernel(H_ASYM, *FRAMES_1, 0.0, 33.4))
    brute_gain = float(payoff_kernel(H_ASYM, *FRAMES_1, grid, 33.4).max()) - f0
    residual = verify_nash_quantum(H_ASYM, FRAMES_1, StrategyAngle(0.0),
                                   StrategyAngle(33.4))
    if abs(f0 - 1.9628) > 1e-4:
        failures.append(f"F(0, 33.4) = {f0:.6f}, expected 1.9628")
    if not brute_gain > 2.0:
        failures.append(f"Alice gains only {brute_gain:.4f} at (0, 33.4) on a "
                        "0.01-degree grid")
    if abs(residual - brute_gain) > 1e-6:
        failures.append(f"verify_nash_quantum {residual:.6f} at (0, 33.4) != "
                        f"brute-force gain {brute_gain:.6f}")
    report("criterion 1: asymmetric instance has exactly one verified "
           "equilibrium, value 2.452; (0, 33.4) and value 1.926 are not "
           "equilibria", failures)


def test_criterion_2_unit_instance():
    failures = []
    eqs = find_equilibria(H_UNIT, FRAMES_2)
    if eqs:
        failures.append(
            f"expected no equilibrium, found {len(eqs)}: "
            + ", ".join(f"({e.alpha.degrees:.4f}, {e.beta.degrees:.4f}, "
                        f"value={e.value:.6f})" for e in eqs))

    # the reference corner pays 0.5 with the reference weights, but Alice
    # gains 1.0 by moving to 90 degrees
    corner = StrategyAngle(0.0)
    value = payoff_surface(H_UNIT, *FRAMES_2, corner, corner)
    if abs(value - 0.5) > 1e-6:
        failures.append(f"corner value {value} != 0.5")
    expected_p = (1.0, 0.5, 0.0, 0.5)
    weights = outcome_weights(corner, FRAMES_2[0]).as_tuple()
    if any(abs(g - w) > 1e-6 for g, w in zip(weights, expected_p)):
        failures.append(f"corner Alice weights {weights} != {expected_p}")
    residual = verify_nash_quantum(H_UNIT, FRAMES_2, corner, corner)
    if abs(residual - 1.0) > 1e-12:
        failures.append(f"corner residual {residual} != 1.0")

    game = grid_game(H_UNIT, FRAMES_2)
    if abs(game.gap - 1.0) > 2.0 * game.error:
        failures.append(f"grid maxmin {game.maxmin:.6f}, minmax "
                        f"{game.minmax:.6f}: gap not 1.0")

    curve = reaction_curve("alice", H_UNIT, FRAMES_2, resolution=0.05)
    if not any(abs(j - 90.0) <= 0.05 for j in curve.discontinuities):
        failures.append("Alice's reaction curve has no discontinuity at 90 deg")
    report("criterion 2: unit instance has no equilibrium (maxmin 0.5 < "
           "minmax 1.5); the corner pays 0.5 but Alice gains 1.0", failures)


def test_criterion_3_close_frames_instance():
    failures = []
    alpha, beta, value = CLOSE_FRAMES_POINT
    eqs = find_equilibria(H_ASYM, FRAMES_3)
    if len(eqs) != 1:
        failures.append(f"expected exactly 1 verified equilibrium at 30/20, "
                        f"found {len(eqs)}")
    else:
        eq = eqs[0]
        if abs(eq.alpha.degrees - alpha) > 1e-6 or \
           abs(eq.beta.degrees - beta) > 1e-6 or abs(eq.value - value) > 1e-9:
            failures.append(f"equilibrium ({eq.alpha.degrees:.10f}, "
                            f"{eq.beta.degrees:.10f}, {eq.value:.12f}) != "
                            f"{CLOSE_FRAMES_POINT}")
        if eq.residual > 1e-8 * H_ASYM.scale:
            failures.append(f"residual {eq.residual} > 1e-8 * scale")
    tol = audit_tolerance(H_ASYM, AUDIT_STEP)
    hits = grid_nash_audit(H_ASYM, FRAMES_3, step=AUDIT_STEP, tol=tol)
    if not hits or arc_count([a for a, _, _ in hits], AUDIT_STEP) != 1 or \
       arc_count([b for _, b, _ in hits], AUDIT_STEP) != 1:
        failures.append(f"grid audit at 30/20 does not form one cluster: "
                        f"{len(hits)} hits")
    elif not any(circle_dist(a, alpha) <= 2 * AUDIT_STEP
                 and circle_dist(b, beta) <= 2 * AUDIT_STEP
                 for a, b, _ in hits):
        failures.append("grid audit cluster at 30/20 misses the equilibrium")
    failures += game_value_evidence(grid_game(H_ASYM, FRAMES_3), eqs)

    # nearby frames 30/40: no equilibrium, certified by the duality gap
    eqs = find_equilibria(H_ASYM, FRAMES_5)
    if eqs:
        failures.append(
            f"expected no equilibria at 30/40, found {len(eqs)}: "
            + ", ".join(f"({e.alpha.degrees:.4f}, {e.beta.degrees:.4f}, "
                        f"value={e.value:.6f}, residual={e.residual:.1e})"
                        for e in eqs))
    hits = grid_nash_audit(H_ASYM, FRAMES_5, step=AUDIT_STEP, tol=tol)
    if hits:
        failures.append(f"grid audit at 30/40 found {len(hits)} passing points")
    game = grid_game(H_ASYM, FRAMES_5)
    if abs(game.gap - 0.373) > 0.01 - 2.0 * game.error:
        failures.append(f"grid maxmin {game.maxmin:.6f}, minmax "
                        f"{game.minmax:.6f}: gap not within 0.01 of 0.373")
    report("criterion 3: close frames 30/20 carry one verified equilibrium; "
           "nearby frames 30/40 carry none (gap 0.373)", failures)


def test_criterion_4_interior_equilibrium():
    failures = []
    eqs = find_equilibria(H_ASYM, FRAMES_4)
    if len(eqs) != 1:
        failures.append(f"expected exactly 1 equilibrium, found {len(eqs)}")
    else:
        eq = eqs[0]
        if not (0.0 < eq.alpha.degrees < 180.0 and 0.0 < eq.beta.degrees < 180.0):
            failures.append(f"equilibrium ({eq.alpha.degrees}, {eq.beta.degrees}) "
                            "not strictly interior")
        if eq.residual >= 1e-8:
            failures.append(f"residual {eq.residual} >= 1e-8")
    report("criterion 4: intermediate frames yield one interior equilibrium",
           failures)


def test_criterion_5_classical_baseline():
    failures = []
    rng = np.random.default_rng(20240105)
    for _ in range(1000):
        a, b, c, d = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=4))
        h = PayoffMatrix(a, b, c, d)
        pure = pure_saddle_analysis(h)
        if pure.maxmin != 0.0 or pure.minmax != min(a, b, c, d) or pure.saddle_exists:
            failures.append(f"pure analysis wrong for {(a, b, c, d)}")
            break
    for _ in range(100):
        a, b, c, d = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=4))
        h = PayoffMatrix(a, b, c, d)
        if not verify_nash_classical(h, solve_zero_sum(h)):
            failures.append(f"solver profile failed verification for {(a, b, c, d)}")
            break

    profile = solve_zero_sum(H_UNIT)
    if abs(profile.value - 0.25) > 1e-12:
        failures.append(f"all-ones value {profile.value} != 0.25")
    if not profile.value < 0.5:
        failures.append("classical value not below the quantum unit-instance value")
    report("criterion 5: classical baseline exact on random and reference "
           "matrices", failures)


def test_criterion_6_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(20240106)
    grid = np.arange(0.0, 180.0, 0.01)
    worst = 0.0
    for _ in range(1000):
        a, b, c, d = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=4))
        h = PayoffMatrix(a, b, c, d)
        fa = MeasurementFrame(rng.uniform(1e-6, 90.0 - 1e-6))
        fb = MeasurementFrame(rng.uniform(1e-6, 90.0 - 1e-6))
        opponent = rng.uniform(0.0, 180.0)

        alice = float(best_responses("alice", h, (fa, fb), opponent)[0])
        brute_a = grid[np.argmax(payoff_kernel(h, fa, fb, grid, opponent))]
        bob = float(best_responses("bob", h, (fa, fb), opponent)[0])
        brute_b = grid[np.argmin(payoff_kernel(h, fa, fb, opponent, grid))]

        worst = max(worst, circle_dist(alice, brute_a), circle_dist(bob, brute_b))
        if worst > 0.01:
            failures.append(
                f"analytic/grid argmax differ by {worst:.4f} deg for "
                f"{(a, b, c, d)}, frames ({fa.theta_deg}, {fb.theta_deg}), "
                f"opponent {opponent}")
            break
    report(f"criterion 6: analytic best responses match 0.01-degree grid "
           f"(worst {worst:.4f} deg over 1000 draws)", failures)


def test_criterion_7_lattice_suite():
    failures = []
    lat = wise_alice_lattice()
    laws = ortholattice_law_report(lat)
    if not all(laws.values()):
        failures.append(f"law failures: {[k for k, v in laws.items() if not v]}")

    witness = find_distributivity_violation(lat)
    if witness is None:
        failures.append("no distributivity violation witness found")
    else:
        x, y, z = witness
        if meet(lat, x, join(lat, y, z)) == join(lat, meet(lat, x, y),
                                                 meet(lat, x, z)):
            failures.append("witness does not actually violate distributivity")

    paradox = disjunction_paradox(lat)
    if len(paradox.entries) != 6:
        failures.append(f"{len(paradox.entries)} sure-event pairs, expected 6")
    if not all(e.join_element == "I" and abs(e.weight_sum - 0.5) < 1e-12
               for e in paradox.entries):
        failures.append("paradox table does not show six pairs at weight 1/2")

    bad_thetas = [t for t in range(1, 90)
                  if not check_representation(lat, PlaneSubspaceRep(float(t)))]
    if bad_thetas:
        failures.append(f"representation check failed at {bad_thetas}")
    report("criterion 7: lattice laws, paradox table, and plane realization",
           failures)


def test_criterion_8_monte_carlo():
    failures = []
    start = time.perf_counter()
    within = 0
    for seed in range(20):
        config = SimulationConfig(
            rounds=1_000_000, seed=seed, payoffs=H_UNIT,
            frame_a=FRAMES_2[0], frame_b=FRAMES_2[1],
            alpha=StrategyAngle(0.0), beta=StrategyAngle(0.0),
        )
        result = simulate(config)
        if abs(result.mean - 0.5) <= 3.0 * result.std_error:
            within += 1
    elapsed = time.perf_counter() - start
    if within < 19:
        failures.append(f"only {within}/20 runs within 3 standard errors")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    report(f"criterion 8: Monte Carlo mean within 3 SE of 0.5 in {within}/20 "
           f"seeded runs ({elapsed:.1f}s)", failures)


def test_criterion_9_invariance_suite():
    failures = []
    rng = np.random.default_rng(20240109)

    for _ in range(200):
        alpha, beta = rng.uniform(0.0, 180.0, size=2)
        base = payoff_kernel(H_ASYM, FRAMES_1[0], FRAMES_1[1], alpha, beta)
        if abs(payoff_kernel(H_ASYM, FRAMES_1[0], FRAMES_1[1],
                             alpha + 180.0, beta) - base) > 1e-12 or \
           abs(payoff_kernel(H_ASYM, FRAMES_1[0], FRAMES_1[1],
                             alpha, beta + 180.0) - base) > 1e-12:
            failures.append("half-turn periodicity violated")
            break

    for _ in range(200):
        angle = rng.uniform(-720.0, 720.0)
        theta = rng.uniform(1.0, 89.0)
        w = outcome_weights(StrategyAngle(angle), MeasurementFrame(theta))
        if abs(w.p1 + w.p3 - 1.0) > 1e-12 or abs(w.p2 + w.p4 - 1.0) > 1e-12:
            failures.append("pair normalization beyond 1e-12")
            break

    base_eqs = find_equilibria(H_ASYM, FRAMES_1)
    for lam in (0.5, 2.0, 10.0):
        scaled_eqs = find_equilibria(H_ASYM.scaled(lam), FRAMES_1)
        if len(scaled_eqs) != len(base_eqs):
            failures.append(f"equilibrium count changed under scaling by {lam}")
            continue
        for eq_b, eq_s in zip(base_eqs, scaled_eqs):
            if circle_dist(eq_b.alpha.degrees, eq_s.alpha.degrees) > 1e-9 or \
               circle_dist(eq_b.beta.degrees, eq_s.beta.degrees) > 1e-9:
                failures.append(f"equilibrium angles moved under scaling by {lam}")
            if abs(eq_s.value - lam * eq_b.value) > 1e-9 * abs(lam * eq_b.value):
                failures.append(f"value not scaled linearly by {lam}")
    report("criterion 9: periodicity, pair normalization, and scaling "
           "invariance", failures)
