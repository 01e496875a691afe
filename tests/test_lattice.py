import itertools
import math
from types import SimpleNamespace

import pytest

from wisealice.lattice import (
    FiniteOrtholattice,
    PlaneSubspaceRep,
    check_representation,
    disjunction_paradox,
    find_distributivity_violation,
    join,
    meet,
    ortholattice_law_report,
    wise_alice_lattice,
)

from oracles import orthocomplement


@pytest.fixture(scope="module")
def lat():
    return wise_alice_lattice()


def boolean_square() -> FiniteOrtholattice:
    """The four-element Boolean algebra 2^2: O < {x, y} < I with x' = y."""
    elements = ("O", "x", "y", "I")
    pairs = {(e, e) for e in elements}
    pairs |= {("O", e) for e in elements}
    pairs |= {(e, "I") for e in elements}
    complement = {"O": "I", "I": "O", "x": "y", "y": "x"}
    return FiniteOrtholattice(elements, frozenset(pairs), complement)


def test_all_ortholattice_laws_hold(lat):
    report = ortholattice_law_report(lat)
    assert all(report.values()), report


def test_meet_examples(lat):
    assert meet(lat, "1", "2") == "O"
    assert meet(lat, "1", "1") == "1"
    assert meet(lat, "I", "3") == "3"


def test_join_examples(lat):
    assert join(lat, "1", "2") == "I"
    assert join(lat, "O", "4") == "4"
    assert join(lat, "3", "3") == "3"


def test_every_pair_has_a_unique_meet_and_a_unique_join(lat):
    # 6 x 6 = 36 pairs; the bounds are found by brute force over the order
    for x, y in itertools.product(lat.elements, repeat=2):
        lower = [z for z in lat.elements if lat.leq(z, x) and lat.leq(z, y)]
        upper = [z for z in lat.elements if lat.leq(x, z) and lat.leq(y, z)]
        greatest = [z for z in lower if all(lat.leq(w, z) for w in lower)]
        least = [z for z in upper if all(lat.leq(z, w) for w in upper)]
        assert greatest == [meet(lat, x, y)], (x, y)
        assert least == [join(lat, x, y)], (x, y)


def test_an_order_without_a_unique_join_is_an_error():
    # x and y lie below both p and q, which are incomparable: no least upper bound
    elements = ("O", "x", "y", "p", "q", "I")
    pairs = {(e, e) for e in elements} | {("O", e) for e in elements}
    pairs |= {(e, "I") for e in elements}
    pairs |= {(low, high) for low in "xy" for high in "pq"}
    complement = {"O": "I", "I": "O", "x": "q", "q": "x", "y": "p", "p": "y"}
    bad = FiniteOrtholattice(elements, frozenset(pairs), complement)
    with pytest.raises(ValueError, match=r"^join\(x, y\) is not unique: \[\]$"):
        join(bad, "x", "y")
    assert meet(bad, "x", "y") == "O"


def test_orthocomplement_examples(lat):
    assert orthocomplement(lat, "1") == "3"
    assert orthocomplement(lat, "O") == "I"
    assert orthocomplement(lat, orthocomplement(lat, "2")) == "2"


def test_unknown_element_rejected(lat):
    with pytest.raises(KeyError):
        meet(lat, "1", "5")
    with pytest.raises(KeyError):
        orthocomplement(lat, "bogus")


def test_atoms(lat):
    assert lat.atoms() == ("1", "2", "3", "4")


def test_distributivity_violation_found_and_rechecked(lat):
    witness = find_distributivity_violation(lat)
    assert witness is not None
    x, y, z = witness
    left = meet(lat, x, join(lat, y, z))
    right = join(lat, meet(lat, x, y), meet(lat, x, z))
    assert left != right


def test_every_atom_triple_with_complement_pair_violates(lat):
    # 2 ^ (1 v 3) = 2 while (2 ^ 1) v (2 ^ 3) = O
    assert meet(lat, "2", join(lat, "1", "3")) == "2"
    assert join(lat, meet(lat, "2", "1"), meet(lat, "2", "3")) == "O"


def test_boolean_lattice_is_distributive():
    assert find_distributivity_violation(boolean_square()) is None


def test_de_morgan_exhaustive(lat):
    for x, y in itertools.product(lat.elements, repeat=2):
        assert orthocomplement(lat, join(lat, x, y)) == meet(
            lat, orthocomplement(lat, x), orthocomplement(lat, y)
        )


def test_disjunction_paradox_uniform(lat):
    report = disjunction_paradox(lat)
    assert len(report.entries) == 6
    for entry in report.entries:
        assert entry.join_element == "I"
        assert entry.weight_sum == pytest.approx(0.5)
    assert not report.additivity_holds()


def test_two_atom_paradox_is_additive():
    # equal weights 1/2 make the one sure-event pair sum to exactly 1
    report = disjunction_paradox(boolean_square())
    assert [(e.pair, e.weight_sum, e.join_element) for e in report.entries] == [
        (("x", "y"), 1.0, "I")
    ]
    assert report.additivity_holds()


def test_no_additive_measure_for_uniform_assignment(lat):
    # every pair of distinct atoms meets at O yet joins to the sure event,
    # so additivity would force weight(x) + weight(y) = 1 for all six pairs
    report = disjunction_paradox(lat)
    assert all(
        meet(lat, *e.pair) == "O" and e.join_element == "I" and e.weight_sum != 1.0
        for e in report.entries
    )


@pytest.mark.parametrize("theta", [70.0, 45.0])
def test_representation_at_reference_angles(lat, theta):
    assert check_representation(lat, PlaneSubspaceRep(theta))


def test_representation_every_degree(lat):
    for theta in range(1, 90):
        assert check_representation(lat, PlaneSubspaceRep(float(theta))), theta


@pytest.mark.parametrize("theta", [5e-324, 1e-10, 1e-9, 90 - 1e-14, math.nextafter(90, 0)])
def test_representation_at_every_frame_near_the_ends(lat, theta):
    assert check_representation(lat, PlaneSubspaceRep(theta))


@pytest.mark.parametrize("angles", [
    {"1": 0.0, "3": 60.0, "2": 30.0, "4": 120.0},   # 3 = 1' is not perpendicular to 1
    {"1": 0.0, "3": 90.0, "2": 0.0, "4": 90.0},     # atoms 1 and 2 share a line
])
def test_representation_check_can_fail(lat, angles):
    assert not check_representation(lat, SimpleNamespace(line_angles=angles))


def test_representation_needs_a_line_for_every_atom(lat):
    # atom 4 has no line
    assert not check_representation(lat, SimpleNamespace(line_angles={"1": 0, "3": 90, "2": 30}))


def test_representation_needs_a_lattice_of_atoms_and_its_bounds():
    # the Boolean algebra 2^3: its pair joins such as 12 have no plane subspace
    subsets = [frozenset(c) for r in range(4) for c in itertools.combinations("123", r)]
    name = {s: "O" if not s else "I" if len(s) == 3 else "".join(sorted(s)) for s in subsets}
    cube = FiniteOrtholattice(
        tuple(name[s] for s in subsets),
        frozenset((name[s], name[t]) for s in subsets for t in subsets if s <= t),
        {name[s]: name[frozenset("123") - s] for s in subsets})
    assert cube.atoms() == ("1", "2", "3")
    assert not check_representation(
        cube, SimpleNamespace(line_angles={"1": 0, "2": 30, "3": 90}))


@pytest.mark.parametrize("theta", [0.0, 90.0, 95.0, -10.0])
def test_degenerate_theta_rejected(theta):
    with pytest.raises(ValueError):
        PlaneSubspaceRep(theta)


def test_line_angles_layout():
    rep = PlaneSubspaceRep(70.0)
    assert rep.line_angles == {"1": 0.0, "3": 90.0, "2": 70.0, "4": 160.0}
