"""Orthocomplemented lattice of the players' question/answer logic.

The six-element lattice has bottom O, top I, and four incomparable atoms
1..4 (each atom is one "Bob cannot say yes" situation).  Distinct atoms
meet at O and join at I, which breaks distributivity and rules out any
additive probability measure on the events.  The same lattice is realized
geometrically by two pairs of mutually orthogonal lines in the plane; the
angle between the pairs is the free parameter that later defines each
player's measurement frame.

Everything here is extensional: the order is an explicit pair set and all
law checks are exhaustive enumerations (6 elements, 216 triples).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

BOTTOM = "O"
TOP = "I"
ATOMS = ("1", "2", "3", "4")

# tolerance for comparing line angles of the plane realization, in degrees
ANGLE_TOL_DEG = 1e-9
# slack of additivity_holds on a weight sum, whose target is 1
_WEIGHT_TOL = 1e-12


class LatticeStructureError(ValueError):
    """Raised when the stored order fails to determine a unique meet/join."""


@dataclass(frozen=True)
class FiniteOrtholattice:
    """A finite bounded lattice with an orthocomplementation.

    ``order`` holds every pair (x, y) with x <= y, reflexive pairs
    included.  ``complement`` is the involution x -> x'.
    """

    elements: tuple[str, ...]
    order: frozenset[tuple[str, str]]
    complement: Mapping[str, str]

    def leq(self, x: str, y: str) -> bool:
        self._require(x)
        self._require(y)
        return (x, y) in self.order

    def atoms(self) -> tuple[str, ...]:
        """Elements covering the bottom and nothing else below them."""
        bottom = self.bottom()
        out = []
        for x in self.elements:
            if x == bottom:
                continue
            below = [z for z in self.elements if self.leq(z, x) and z != x]
            if below == [bottom]:
                out.append(x)
        return tuple(out)

    def bottom(self) -> str:
        for x in self.elements:
            if all(self.leq(x, y) for y in self.elements):
                return x
        raise LatticeStructureError("no minimum element")

    def top(self) -> str:
        for x in self.elements:
            if all(self.leq(y, x) for y in self.elements):
                return x
        raise LatticeStructureError("no maximum element")

    def _require(self, x: str) -> None:
        if x not in self.elements:
            raise KeyError(f"unknown lattice element: {x!r}")


def wise_alice_lattice() -> FiniteOrtholattice:
    """The six-element question lattice: O < {1, 2, 3, 4} < I.

    Complement pairs the orthogonal questions: 1' = 3 and 2' = 4.
    """
    elements = (BOTTOM, *ATOMS, TOP)
    pairs = {(x, x) for x in elements}
    pairs |= {(BOTTOM, x) for x in elements}
    pairs |= {(x, TOP) for x in elements}
    complement = {BOTTOM: TOP, TOP: BOTTOM, "1": "3", "3": "1", "2": "4", "4": "2"}
    return FiniteOrtholattice(elements, frozenset(pairs), complement)


def meet(lattice: FiniteOrtholattice, x: str, y: str) -> str:
    """Greatest lower bound of x and y."""
    lattice._require(x)
    lattice._require(y)
    lower = [z for z in lattice.elements if lattice.leq(z, x) and lattice.leq(z, y)]
    greatest = [z for z in lower if all(lattice.leq(w, z) for w in lower)]
    if len(greatest) != 1:
        raise LatticeStructureError(f"meet({x}, {y}) is not unique: {greatest}")
    return greatest[0]


def join(lattice: FiniteOrtholattice, x: str, y: str) -> str:
    """Least upper bound of x and y."""
    lattice._require(x)
    lattice._require(y)
    upper = [z for z in lattice.elements if lattice.leq(x, z) and lattice.leq(y, z)]
    least = [z for z in upper if all(lattice.leq(z, w) for w in upper)]
    if len(least) != 1:
        raise LatticeStructureError(f"join({x}, {y}) is not unique: {least}")
    return least[0]


def orthocomplement(lattice: FiniteOrtholattice, x: str) -> str:
    lattice._require(x)
    return lattice.complement[x]


def ortholattice_law_report(lattice: FiniteOrtholattice) -> dict[str, bool]:
    """Exhaustively check every ortholattice law; one entry per law."""
    els = lattice.elements
    leq = lattice.leq
    report: dict[str, bool] = {}

    report["reflexive"] = all(leq(x, x) for x in els)
    report["antisymmetric"] = all(
        not (leq(x, y) and leq(y, x)) or x == y for x in els for y in els
    )
    report["transitive"] = all(
        not (leq(x, y) and leq(y, z)) or leq(x, z)
        for x in els for y in els for z in els
    )
    bottom = lattice.bottom()
    top = lattice.top()
    report["bounded"] = bottom == BOTTOM and top == TOP

    comp = lattice.complement
    report["complement_involution"] = all(comp[comp[x]] == x for x in els)
    report["complement_order_reversing"] = all(
        not leq(x, y) or leq(comp[y], comp[x]) for x in els for y in els
    )
    report["complement_meet_bottom"] = all(meet(lattice, x, comp[x]) == bottom for x in els)
    report["complement_join_top"] = all(join(lattice, x, comp[x]) == top for x in els)
    report["de_morgan"] = all(
        comp[join(lattice, x, y)] == meet(lattice, comp[x], comp[y])
        for x in els for y in els
    )
    return report


def find_distributivity_violation(
    lattice: FiniteOrtholattice,
) -> tuple[str, str, str] | None:
    """First triple (x, y, z) with x ^ (y v z) != (x ^ y) v (x ^ z), if any."""
    for x, y, z in itertools.product(lattice.elements, repeat=3):
        left = meet(lattice, x, join(lattice, y, z))
        right = join(lattice, meet(lattice, x, y), meet(lattice, x, z))
        if left != right:
            return (x, y, z)
    return None


@dataclass(frozen=True)
class ParadoxEntry:
    """One atom pair whose join is the sure event, with the additive weight sum."""

    pair: tuple[str, str]
    weight_sum: float
    join_element: str


@dataclass(frozen=True)
class ParadoxReport:
    entries: tuple[ParadoxEntry, ...]

    def additivity_holds(self) -> bool:
        """True iff every sure-event pair carries total weight 1."""
        return all(
            abs(e.weight_sum - 1.0) <= _WEIGHT_TOL
            for e in self.entries
            if e.join_element == TOP
        )


def disjunction_paradox(
    lattice: FiniteOrtholattice,
    atom_probability: Mapping[str, float] | None = None,
) -> ParadoxReport:
    """Tabulate weight sums of atom pairs whose join is the top element.

    With equal weights 1/4 every disjunction of two distinct atoms is the
    sure event I yet carries additive weight 1/2: no additive probability
    measure fits the lattice.
    """
    atoms = lattice.atoms()
    if atom_probability is None:
        atom_probability = {a: 1.0 / len(atoms) for a in atoms}
    weights = dict(atom_probability)
    unknown = set(weights) - set(atoms)
    if unknown:
        raise ValueError(f"weights given for non-atoms: {sorted(unknown)}")
    if any(w < 0 for w in weights.values()):
        raise ValueError("atom weights must be nonnegative")
    total = sum(weights.get(a, 0.0) for a in atoms)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"atom weights must sum to 1, got {total}")

    entries = []
    for x, y in itertools.combinations(atoms, 2):
        j = join(lattice, x, y)
        if j == lattice.top():
            entries.append(
                ParadoxEntry((x, y), weights.get(x, 0.0) + weights.get(y, 0.0), j)
            )
    return ParadoxReport(tuple(entries))


# --- plane realization -------------------------------------------------------

def _norm180(angle_deg: float) -> float:
    return angle_deg % 180.0


def _same_line(a: float, b: float) -> bool:
    d = abs(_norm180(a) - _norm180(b))
    return min(d, 180.0 - d) <= ANGLE_TOL_DEG


@dataclass(frozen=True)
class PlaneSubspaceRep:
    """Realization of the lattice by subspaces of the plane.

    Atoms map to lines through the origin: atom 1 at 0 degrees, atom 3 at
    90, atom 2 at theta, atom 4 at theta + 90 (all mod 180); O maps to the
    zero subspace and I to the whole plane.  theta must lie strictly
    between 0 and 90 degrees or the four lines collapse pairwise.
    """

    theta_deg: float
    line_angles: Mapping[str, float] = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.theta_deg < 90.0:
            raise ValueError(
                f"theta_deg must lie strictly inside (0, 90), got {self.theta_deg}"
            )
        angles = {
            "1": 0.0,
            "3": 90.0,
            "2": _norm180(self.theta_deg),
            "4": _norm180(self.theta_deg + 90.0),
        }
        object.__setattr__(self, "line_angles", angles)
        for x, y in itertools.combinations(angles, 2):
            if _same_line(angles[x], angles[y]):
                raise ValueError(
                    f"line angles for atoms {x} and {y} coincide at theta_deg="
                    f"{self.theta_deg}"
                )


# plane subspaces for the case analysis: dimension tag plus line angle
_ZERO = (0, 0.0)
_PLANE = (2, 0.0)


def _line(angle_deg: float) -> tuple[int, float]:
    return (1, _norm180(angle_deg))


def _sub_meet(s: tuple[int, float], t: tuple[int, float]) -> tuple[int, float]:
    if s[0] == 0 or t[0] == 0:
        return _ZERO
    if s[0] == 2:
        return t
    if t[0] == 2:
        return s
    return s if _same_line(s[1], t[1]) else _ZERO


def _sub_join(s: tuple[int, float], t: tuple[int, float]) -> tuple[int, float]:
    if s[0] == 2 or t[0] == 2:
        return _PLANE
    if s[0] == 0:
        return t
    if t[0] == 0:
        return s
    return s if _same_line(s[1], t[1]) else _PLANE


def _sub_perp(s: tuple[int, float]) -> tuple[int, float]:
    if s[0] == 0:
        return _PLANE
    if s[0] == 2:
        return _ZERO
    return _line(s[1] + 90.0)


def _sub_eq(s: tuple[int, float], t: tuple[int, float]) -> bool:
    if s[0] != t[0]:
        return False
    return s[0] != 1 or _same_line(s[1], t[1])


def check_representation(lattice: FiniteOrtholattice, rep: PlaneSubspaceRep) -> bool:
    """True iff the atom->line mapping is an ortholattice isomorphism.

    Meet must map to intersection, join to linear span, complement to the
    orthogonal complement, with O and I going to the zero subspace and the
    full plane.
    """
    mapping: dict[str, tuple[int, float]] = {BOTTOM: _ZERO, TOP: _PLANE}
    for atom in lattice.atoms():
        if atom not in rep.line_angles:
            return False
        mapping[atom] = _line(rep.line_angles[atom])
    if set(mapping) != set(lattice.elements):
        return False

    # injectivity: distinct elements must map to distinct subspaces
    items = list(mapping.items())
    for (x, s), (y, t) in itertools.combinations(items, 2):
        if _sub_eq(s, t):
            return False

    for x in lattice.elements:
        if not _sub_eq(_sub_perp(mapping[x]), mapping[orthocomplement(lattice, x)]):
            return False
    for x, y in itertools.product(lattice.elements, repeat=2):
        if not _sub_eq(_sub_meet(mapping[x], mapping[y]), mapping[meet(lattice, x, y)]):
            return False
        if not _sub_eq(_sub_join(mapping[x], mapping[y]), mapping[join(lattice, x, y)]):
            return False
    return True
