"""Scenario files: flat key-value text describing one game instance.

Recognized keys: a, b, c, d, theta_a_deg, theta_b_deg, rounds, seed.
Lines starting with '#' (or blank) are ignored; values follow an '=' sign.
The simulation settings rounds and seed fall back to defaults when
omitted.  Any other key is an error; the equilibrium tolerance is
solver.NASH_TOLERANCE and cannot be set here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from wisealice.game import PayoffMatrix
from wisealice.quantum import MeasurementFrame
from wisealice.simulate import _check_stream

DEFAULT_ROUNDS = 100_000
DEFAULT_SEED = 1

_REQUIRED = ("a", "b", "c", "d", "theta_a_deg", "theta_b_deg")
_FLOAT_KEYS = _REQUIRED
_INT_KEYS = ("rounds", "seed")


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
                value = getattr(self, name)
                if not 0.0 < value < 90.0:
                    raise ValueError(
                        f"{name} must lie strictly inside (0, 90), got {value}"
                    )
            _check_stream(self.rounds, self.seed)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    def payoff_matrix(self) -> PayoffMatrix:
        return PayoffMatrix(self.a, self.b, self.c, self.d)

    def frames(self) -> tuple[MeasurementFrame, MeasurementFrame]:
        return (MeasurementFrame(self.theta_a_deg), MeasurementFrame(self.theta_b_deg))

    def with_overrides(self, **kwargs) -> "Scenario":
        supplied = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **supplied) if supplied else self


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file, applying defaults for omissions."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

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
        if key in _FLOAT_KEYS:
            try:
                values[key] = float(value)
            except ValueError as exc:
                raise ScenarioError(
                    f"{path}:{lineno}: field {key} needs a number, got {value!r}"
                ) from exc
        elif key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError as exc:
                raise ScenarioError(
                    f"{path}:{lineno}: field {key} needs an integer, got {value!r}"
                ) from exc
        else:
            raise ScenarioError(f"{path}:{lineno}: unknown field {key!r}")

    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ScenarioError(f"{path}: missing required fields: {', '.join(missing)}")
    try:
        return Scenario(**values)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
