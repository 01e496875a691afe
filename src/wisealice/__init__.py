"""Wise Alice: a guessing game whose mixed strategies obey quantum rules.

Alice interrogates Bob about the position of a ball in a square box while
Bob may slide the ball to an adjacent corner before answering.  The event
logic of the repeated game is a non-distributive ortholattice, so mixed
strategies are angle-parameterized state vectors rather than probability
vectors.  This package models the game, solves its classical zero-sum
baseline exactly, evaluates the quantum payoff over the strategy torus,
locates Nash equilibria as verified fixed points of the best-response
maps, and Monte-Carlo-checks the payoff rule.
"""

from wisealice.game import (
    BobOutcome,
    PayoffMatrix,
    PureSaddleAnalysis,
    SquareGeometry,
    bob_outcome,
    payoff_matrix_from_rules,
    pure_saddle_analysis,
)
from wisealice.lattice import (
    FiniteOrtholattice,
    LatticeStructureError,
    PlaneSubspaceRep,
    check_representation,
    disjunction_paradox,
    find_distributivity_violation,
    join,
    meet,
    orthocomplement,
    wise_alice_lattice,
)
from wisealice.classical import (
    MixedProfile,
    expected_payoff,
    solve_zero_sum,
    verify_nash_classical,
)
from wisealice.quantum import (
    MeasurementFrame,
    OutcomeWeights,
    StrategyAngle,
    bilinear_form,
    harmonic_coefficients,
    harmonic_coefficients_in_beta,
    outcome_weights,
    payoff_surface,
    quantum_payoff,
)
from wisealice.solver import (
    BestResponse,
    Equilibrium,
    ReactionCurve,
    best_response_alice,
    best_response_bob,
    find_equilibria,
    find_equilibria_grid,
    grid_nash_audit,
    reaction_curve,
    verify_nash_quantum,
)
from wisealice.simulate import (
    AutomatonStep,
    SimulationConfig,
    SimulationResult,
    run_automaton,
    sample_round,
    simulate,
    transcript_rows,
    write_transcript,
)
from wisealice.scenario import Scenario, ScenarioError, load_scenario

__version__ = "0.1.0"

__all__ = [
    "AutomatonStep",
    "BestResponse",
    "BobOutcome",
    "Equilibrium",
    "FiniteOrtholattice",
    "LatticeStructureError",
    "MeasurementFrame",
    "MixedProfile",
    "OutcomeWeights",
    "PayoffMatrix",
    "PlaneSubspaceRep",
    "PureSaddleAnalysis",
    "ReactionCurve",
    "Scenario",
    "ScenarioError",
    "SimulationConfig",
    "SimulationResult",
    "SquareGeometry",
    "StrategyAngle",
    "best_response_alice",
    "best_response_bob",
    "bilinear_form",
    "bob_outcome",
    "check_representation",
    "disjunction_paradox",
    "expected_payoff",
    "find_distributivity_violation",
    "find_equilibria",
    "find_equilibria_grid",
    "grid_nash_audit",
    "harmonic_coefficients",
    "harmonic_coefficients_in_beta",
    "join",
    "load_scenario",
    "meet",
    "orthocomplement",
    "outcome_weights",
    "payoff_matrix_from_rules",
    "payoff_surface",
    "pure_saddle_analysis",
    "quantum_payoff",
    "reaction_curve",
    "run_automaton",
    "sample_round",
    "simulate",
    "solve_zero_sum",
    "transcript_rows",
    "verify_nash_classical",
    "verify_nash_quantum",
    "wise_alice_lattice",
    "write_transcript",
]
