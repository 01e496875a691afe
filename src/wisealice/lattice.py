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
from fractions import Fraction
from numbers import Rational
from typing import Mapping

from wisealice.game import MeasurementFrame

BOTTOM = "O"
TOP = "I"
ATOMS = ("1", "2", "3", "4")


@dataclass(frozen=True)
class FiniteOrtholattice:
    """A finite lattice, bounded by BOTTOM and TOP, with an orthocomplementation.

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
        out = []
        for x in self.elements:
            if x == BOTTOM:
                continue
            below = [z for z in self.elements if self.leq(z, x) and z != x]
            if below == [BOTTOM]:
                out.append(x)
        return tuple(out)

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


def _bound(lattice: FiniteOrtholattice, x: str, y: str, name: str, leq) -> str:
    """Greatest element below both x and y in the order leq, named name in errors.

    ValueError if the order has no unique one: then it is no lattice.
    """
    lower = [z for z in lattice.elements if leq(z, x) and leq(z, y)]
    greatest = [z for z in lower if all(leq(w, z) for w in lower)]
    if len(greatest) != 1:
        raise ValueError(f"{name}({x}, {y}) is not unique: {greatest}")
    return greatest[0]


def meet(lattice: FiniteOrtholattice, x: str, y: str) -> str:
    """Greatest lower bound of x and y."""
    return _bound(lattice, x, y, "meet", lattice.leq)


def join(lattice: FiniteOrtholattice, x: str, y: str) -> str:
    """Least upper bound of x and y: their meet in the dual order."""
    return _bound(lattice, x, y, "join", lambda a, b: lattice.leq(b, a))


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
    report["bounded"] = all(leq(BOTTOM, x) and leq(x, TOP) for x in els)

    comp = lattice.complement
    report["complement_involution"] = all(comp[comp[x]] == x for x in els)
    report["complement_order_reversing"] = all(
        not leq(x, y) or leq(comp[y], comp[x]) for x in els for y in els
    )
    report["complement_meet_bottom"] = all(meet(lattice, x, comp[x]) == BOTTOM for x in els)
    report["complement_join_top"] = all(join(lattice, x, comp[x]) == TOP for x in els)
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
        """True iff every entry, a sure-event pair, carries total weight exactly 1.

        With n atoms of weight 1/n a pair sums to exactly 1 only when n = 2.
        """
        return all(e.weight_sum == 1.0 for e in self.entries)


def disjunction_paradox(lattice: FiniteOrtholattice) -> ParadoxReport:
    """Tabulate the weight sums of atom pairs whose join is the top element.

    Every atom carries the same weight, 1/n for n atoms.  With the four
    atoms each disjunction of two distinct atoms is the sure event I yet
    carries additive weight 1/2: no additive probability measure fits the
    lattice.
    """
    atoms = lattice.atoms()
    weight = 1.0 / len(atoms)
    return ParadoxReport(tuple(
        ParadoxEntry((x, y), weight + weight, TOP)
        for x, y in itertools.combinations(atoms, 2)
        if join(lattice, x, y) == TOP
    ))


# --- plane realization -------------------------------------------------------

@dataclass(frozen=True)
class PlaneSubspaceRep:
    """Realization of the lattice by subspaces of the plane.

    Atoms map to lines through the origin: atom 1 at 0 degrees, atom 3 at
    90, atom 2 at theta, atom 4 at theta + 90; O maps to the zero subspace
    and I to the whole plane.  theta must be a valid MeasurementFrame.  The
    line angles are exact rationals, so the four lines are distinct for
    every theta strictly between 0 and 90 degrees.
    """

    theta_deg: float
    line_angles: Mapping[str, Rational] = field(init=False)

    def __post_init__(self) -> None:
        MeasurementFrame(self.theta_deg)
        theta = Fraction(self.theta_deg)
        object.__setattr__(self, "line_angles",
                           {"1": 0, "3": 90, "2": theta, "4": theta + 90})


def check_representation(lattice: FiniteOrtholattice, rep: PlaneSubspaceRep) -> bool:
    """True iff the atom->line mapping is an ortholattice isomorphism.

    Each plane subspace has one name: O the zero subspace, I the plane, and
    a line its exact angle mod 180 (a float angle is taken at its exact
    value; a NaN raises ValueError and an infinity OverflowError).  So a
    subspace lies in another iff it is O, the other is I, or the two are
    one.  The mapping must preserve and reflect the order (x <= y iff x's
    subspace lies in y's) and send each x' to the orthogonal complement of
    x's subspace.  That suffices: an order embedding is injective, and O,
    distinct lines and the plane are closed under intersection and span,
    so the order alone makes meet the intersection and join the span.
    """
    name: dict[str, str | Fraction] = {BOTTOM: BOTTOM, TOP: TOP}
    for atom in lattice.atoms():
        if atom not in rep.line_angles:
            return False
        name[atom] = Fraction(rep.line_angles[atom]) % 180
    if set(name) != set(lattice.elements):
        return False
    return all(
        lattice.leq(x, y) == (s is BOTTOM or t is TOP or s == t)
        for (x, s), (y, t) in itertools.product(name.items(), repeat=2)
    ) and all(
        name[lattice.complement[x]] == (TOP if s is BOTTOM else BOTTOM if s is TOP
                                        else (s + 90) % 180)
        for x, s in name.items()
    )
