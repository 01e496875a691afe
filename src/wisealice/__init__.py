"""Wise Alice: a guessing game whose mixed strategies obey quantum rules.

Alice interrogates Bob about the position of a ball in a square box while
Bob may slide the ball to an adjacent corner before answering.  The event
logic of the repeated game is a non-distributive ortholattice, so mixed
strategies are angle-parameterized state vectors rather than probability
vectors.  This package models the game, solves its classical zero-sum
baseline exactly, evaluates the quantum payoff over the strategy torus,
locates Nash equilibria as verified fixed points of the best-response
maps, and Monte-Carlo-checks the payoff rule.

The package is lazy (PEP 562): `import wisealice` loads no layer module
and no numpy; each exported name imports its home module on first use.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# exported name -> home module
_HOME = {name: module for module, names in {
    "game": ("BobOutcome", "PayoffMatrix", "PureSaddleAnalysis", "SquareGeometry",
             "bob_outcome", "payoff_matrix_from_rules", "pure_saddle_analysis"),
    "lattice": ("FiniteOrtholattice", "LatticeStructureError", "PlaneSubspaceRep",
                "check_representation", "disjunction_paradox",
                "find_distributivity_violation", "join", "meet", "orthocomplement",
                "wise_alice_lattice"),
    "classical": ("MixedProfile", "expected_payoff", "solve_zero_sum",
                  "verify_nash_classical"),
    "quantum": ("MeasurementFrame", "OutcomeWeights", "StrategyAngle", "bilinear_form",
                "harmonic_coefficients", "harmonic_coefficients_in_beta",
                "outcome_weights", "payoff_surface", "quantum_payoff"),
    "solver": ("BestResponse", "Equilibrium", "ReactionCurve", "best_response_alice",
               "best_response_bob", "find_equilibria", "find_equilibria_grid",
               "grid_nash_audit", "reaction_curve", "verify_nash_quantum"),
    "simulate": ("AutomatonStep", "SimulationConfig", "SimulationResult",
                 "run_automaton", "sample_round", "simulate", "transcript_rows",
                 "write_transcript"),
    "scenario": ("Scenario", "ScenarioError", "load_scenario"),
}.items() for name in names}

__all__ = sorted(_HOME)


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Importing a submodule binds it on its package; the module
        # `simulate` must not shadow the function `simulate` exported here.
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
