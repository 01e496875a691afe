"""Scenario files: flat key-value text describing one game instance.

The keys are the fields of Scenario (a, b, c, d, theta_a_deg,
theta_b_deg, rounds, seed), each parsed as its field's type; the fields
with defaults, the simulation settings rounds and seed, may be omitted.
Lines starting with '#' (or blank) are ignored; values follow an '=' sign.
Any other key is an error; an equilibrium is judged at the solver's
roundoff constant, solver.ROUNDOFF, which cannot be set here.
"""

# no `from __future__ import annotations`: load_scenario calls each field's
# type to parse its value, so the types must stay classes, not strings
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from wisealice.game import MeasurementFrame, PayoffMatrix

DEFAULT_ROUNDS = 100_000
DEFAULT_SEED = 1
# the domain of simulate's counter stream, kept here so a scenario loads no numpy
MAX_ROUNDS = 1 << 62   # the counters 4i..4i+3 of every round fit in uint64


def _check_stream(rounds: int, seed: int) -> None:
    """Reject a round count or seed outside the counter stream's domain."""
    if not 1 <= rounds <= MAX_ROUNDS:
        raise ValueError(f"rounds must lie in [1, 2**62], got {rounds}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


class ScenarioError(ValueError):
    """A scenario file could not be parsed or violates a field constraint."""


@dataclass(frozen=True)
class Scenario:
    a: float
    b: float
    c: float
    d: float
    theta_a_deg: float
    theta_b_deg: float
    rounds: int = DEFAULT_ROUNDS
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        try:
            self.payoff_matrix()
            for name in ("theta_a_deg", "theta_b_deg"):
                try:
                    MeasurementFrame(getattr(self, name))
                except ValueError as exc:
                    raise ValueError(f"{name}: {exc}") from None
            _check_stream(self.rounds, self.seed)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    def payoff_matrix(self) -> PayoffMatrix:
        return PayoffMatrix(self.a, self.b, self.c, self.d)

    def frames(self) -> tuple[MeasurementFrame, MeasurementFrame]:
        return (MeasurementFrame(self.theta_a_deg), MeasurementFrame(self.theta_b_deg))


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file, applying defaults for omissions."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

    kinds = {f.name: f.type for f in fields(Scenario)}
    values: dict[str, float | int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in values:
            raise ScenarioError(f"{path}:{lineno}: duplicate field {key!r}")
        if key not in kinds:
            raise ScenarioError(f"{path}:{lineno}: unknown field {key!r}")
        try:
            values[key] = kinds[key](value)
        except ValueError as exc:
            noun = "an integer" if kinds[key] is int else "a number"
            raise ScenarioError(
                f"{path}:{lineno}: field {key} needs {noun}, got {value!r}"
            ) from exc

    missing = [f.name for f in fields(Scenario)
               if f.default is MISSING and f.name not in values]
    if missing:
        raise ScenarioError(f"{path}: missing required fields: {', '.join(missing)}")
    try:
        return Scenario(**values)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
