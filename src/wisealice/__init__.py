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

__version__ = "0.1.0"

# exported name -> home module
_HOME = {name: module for module, names in {
    "game": ("MeasurementFrame", "PayoffMatrix", "PureSaddleAnalysis", "bob_outcome",
             "pure_saddle_analysis"),
    "lattice": ("FiniteOrtholattice", "LatticeStructureError", "PlaneSubspaceRep",
                "check_representation", "disjunction_paradox",
                "find_distributivity_violation", "join", "meet", "orthocomplement",
                "wise_alice_lattice"),
    "classical": ("MixedProfile", "solve_zero_sum"),
    "quantum": ("OutcomeWeights", "StrategyAngle", "bilinear_form", "outcome_weights",
                "quantum_payoff"),
    "solver": ("Equilibrium", "ReactionCurve", "best_responses", "find_equilibria",
               "find_equilibria_grid", "reaction_curve",
               "verify_nash_quantum"),
    "simulate": ("SimulationConfig", "SimulationResult", "write_transcript"),
    "scenario": ("Scenario", "ScenarioError", "load_scenario"),
}.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
