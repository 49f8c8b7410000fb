"""Tests for Kac diagrams, marks, and marked-diagram descriptors."""

import hashlib
import itertools
import json
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wonderful.catalog import (
    _eval,
    _fmt,
    _route,
    enumerate_records,
    instantiate,
    load_catalog,
    validate,
)
from wonderful.kac import (
    KAC_BUILDERS,
    KacDiagram,
    _canonical,
    _factor_dim,
    _factors,
    _name_factor,
    _parse_factor,
    affine_diagram,
    canonical_type,
    component_descriptor,
    diagram_marks,
    kac_sym2,
    kac_tensor,
    marked_diagrams,
    name_dimension,
    normalize_name,
    validate_diagram,
)
from wonderful.rootsystem import (
    VALID_RANKS,
    build_root_system,
    positive_roots,
)
from kac_builders import (
    kac_cycle,
    kac_ei,
    kac_eii,
    kac_eiii,
    kac_eiv,
    kac_ev,
    kac_evi,
    kac_evii,
    kac_eviii,
    kac_eix,
    kac_fi,
    kac_fii,
    kac_g,
    kac_gl_half,
    kac_hermitian_rank1,
    kac_lagr,
    kac_sp_tensor,
    kac_tensor2,
    kac_wedge2,
)
from weyl_words import subsystem_roots


def _mark_product(kd, marks):
    cartan = kd.cartan()
    return [sum(cartan[i][j] * marks[j] for j in range(kd.size))
            for i in range(kd.size)]


AFFINE_MARKS = {
    ("A", 1): (1, 1),
    ("A", 3): (1, 1, 1, 1),
    ("B", 2): (1, 1, 2),
    ("B", 3): (1, 1, 2, 2),
    ("C", 3): (1, 2, 2, 1),
    ("D", 4): (1, 1, 2, 1, 1),
    ("E", 6): (1, 1, 2, 2, 3, 2, 1),
    ("E", 7): (1, 2, 2, 3, 4, 3, 2, 1),
    ("E", 8): (1, 2, 3, 4, 6, 5, 4, 3, 2),
    ("F", 4): (1, 2, 3, 4, 2),
    ("G", 2): (1, 3, 2),
}


@pytest.mark.parametrize("key", sorted(AFFINE_MARKS))
def test_affine_marks(key):
    kd = affine_diagram(*key)
    marks = diagram_marks(kd)
    assert marks == AFFINE_MARKS[key]
    assert _mark_product(kd, marks) == [0] * kd.size
    # extending node is the unique white and carries mark 1
    assert kd.whites == (0,)
    validate_diagram(kd, inner=False)
    with pytest.raises(ValueError):
        validate_diagram(kd, inner=True)


def _table_aff1_marks(typ, n):
    """Marks of the classical untwisted affine diagrams, alpha_0 first
    (V. Kac, Infinite-dimensional Lie algebras, Table Aff 1)."""
    if typ == "A":
        return (1,) * (n + 1)
    if typ == "B":
        return (1, 1) + (2,) * (n - 1)
    if typ == "C":
        return (1,) + (2,) * (n - 1) + (1,)
    if n == 3:
        return (1, 1, 1, 1)
    return (1, 1) + (2,) * (n - 3) + (1, 1)


@pytest.mark.parametrize("typ, n", [("A", n) for n in range(1, 10)]
                         + [(t, n) for t in "BC" for n in range(2, 10)]
                         + [("D", n) for n in range(3, 10)])
def test_classical_affine_marks_closed_form(typ, n):
    kd = affine_diagram(typ, n)
    assert diagram_marks(kd) == _table_aff1_marks(typ, n)
    assert kd.whites == (0,)
    validate_diagram(kd, inner=False)


def test_non_affine_rejected():
    for kd in (KacDiagram(("w", "b"), ((0, 1, -1, -1),)), KacDiagram((), ())):
        with pytest.raises(ValueError, match="^diagram is not affine$"):
            diagram_marks(kd)


def _fraction_nullspace_line(a):
    """Reference: Gauss-Jordan over Fraction, the free column set to 1; the
    primitive integer null vector with nonnegative sum, or None unless the
    null space is a line."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    pivots = []
    for col in range(n):
        row = len(pivots)
        pivot = next((r for r in range(row, n) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        m[row] = [x / m[row][col] for x in m[row]]
        for r in range(n):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    vec = [Fraction(0)] * n
    vec[free[0]] = Fraction(1)
    for r, pc in enumerate(pivots):
        vec[pc] = -m[r][free[0]]
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    return ints if sum(ints) >= 0 else [-x for x in ints]


def _agrees_with_the_reference(kd):
    """diagram_marks returns the reference's vector when that is positive, and
    raises ValueError otherwise."""
    ref = _fraction_nullspace_line(kd.cartan())
    if ref is not None and min(ref) > 0:
        assert diagram_marks(kd) == tuple(ref), kd
    else:
        with pytest.raises(ValueError, match="^diagram is not affine$"):
            diagram_marks(kd)
    return ref is not None and min(ref) > 0


def test_marks_match_the_fraction_reference_on_every_engine_diagram():
    catalog = load_catalog()
    records = enumerate_records(catalog, 10) + [instantiate(catalog, f"GroupE{n}")
                                                for n in (6, 7, 8)]
    affine = [(t, n) for t in "ABCD" for n in range(1, 12) if VALID_RANKS[t](n)]
    affine += [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    diagrams = [r.kac for r in records] + [affine_diagram(*key) for key in affine]
    assert (len(records), len(affine)) == (218, 45)
    assert all(_agrees_with_the_reference(kd) for kd in diagrams)


# affine diagrams of rank <= 2 in both orientations, twisted ones among them
# (Kac, Tables Aff 1-3), with their marks; then two trees that are not
# affine: one whose leaf-up pass meets a zero ratio, one that fails A m = 0
# at the root
SMALL_DIAGRAMS = [
    (((0, 1, -1, -4),), (1, 2)),
    (((0, 1, -4, -1),), (2, 1)),
    (((0, 1, -2, -2),), (1, 1)),
    (((0, 1, -1, -2), (1, 2, -1, -2)), (1, 2, 2)),
    (((0, 1, -2, -1), (1, 2, -2, -1)), (2, 2, 1)),
    (((0, 1, -1, -2), (1, 2, -2, -1)), (1, 2, 1)),
    (((0, 1, -1, -1), (1, 2, -1, -3)), (1, 2, 3)),
    (((0, 1, -1, -1), (1, 2, -3, -1)), (1, 2, 1)),
    (((0, 1, -1, -1), (1, 2, -2, -2)), None),
    (((0, 1, -1, -1), (0, 2, -4, -1)), None),
]


@pytest.mark.parametrize("edges, marks", SMALL_DIAGRAMS)
def test_marks_of_small_diagrams(edges, marks):
    kd = KacDiagram(("b",) * (len(edges) + 1), edges)
    assert _agrees_with_the_reference(kd) == (marks is not None)
    if marks:
        assert diagram_marks(kd) == marks


@st.composite
def _graphs(draw):
    """A simple graph on n <= 6 nodes in a random order, bond entries in
    -1..-4 (mostly -1): a random tree, sometimes less one edge (so
    disconnected) and plus up to two more (so with cycles)."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    pairs = {(order[draw(st.integers(0, k - 1))], order[k]) for k in range(1, n)}
    if pairs and draw(st.booleans()):
        pairs.remove(draw(st.sampled_from(sorted(pairs))))
    others = sorted(set(itertools.combinations(range(n), 2))
                    - {tuple(sorted(p)) for p in pairs})
    if others:
        pairs |= set(draw(st.lists(st.sampled_from(others), max_size=2)))
    entry = st.sampled_from([-1, -1, -1, -2, -3, -4])
    return KacDiagram(("b",) * n, tuple((i, j, draw(entry), draw(entry))
                                         for i, j in sorted(pairs)))


@settings(max_examples=400, deadline=None)
@given(_graphs())
def test_marks_match_the_fraction_reference_on_random_graphs(kd):
    _agrees_with_the_reference(kd)


@pytest.mark.parametrize("edges", [
    ((0, 0, -1, -1),),
    ((0, 1, -2, -2), (1, 0, -2, -2)),
    ((0, 1, -2, -2), (0, 1, -2, -2)),
    ((0, 2, -1, -1),),
    ((0, -1, -2, -2),),
    ((0, 1, 0, -1),),
    ((0, 1, 1, 1),),
], ids=["self-loop", "repeated-pair", "repeated-edge", "past-the-end", "negative-node",
        "zero-entry", "positive-entries"])
def test_malformed_diagram_raises_value_error(edges):
    with pytest.raises(ValueError, match=r"^Kac diagram edge \(.*\) is not a new bond of 2 nodes$"):
        diagram_marks(KacDiagram(("w", "b"), edges))


# Each entry: diagram, inner flag, per-white normalized names, per-white dims.
SHAPES = [
    (kac_hermitian_rank1(), True, [(), ()], [0, 0]),
    (kac_sym2(2), False, [("P1",)], [1]),
    (kac_sym2(3), False, [("P1", "P1")], [2]),
    (kac_sym2(4), False, [("Q3",)], [3]),
    (kac_sym2(5), False, [("Q4",)], [4]),
    (kac_wedge2(2), False, [("IG(2,6)",)], [7]),
    (kac_wedge2(3), False, [("IG(2,8)",)], [11]),
    (kac_wedge2(4), False, [("IG(2,10)",)], [15]),
    (kac_cycle(4, 1), True, [("P2",), ("P2",)], [2, 2]),
    (kac_cycle(5, 2), True, [("P1", "P2"), ("P1", "P2")], [3, 3]),
    (kac_cycle(6, 3), True, [("P2", "P2"), ("P2", "P2")], [4, 4]),
    (kac_cycle(7, 3), True, [("P2", "P3"), ("P2", "P3")], [5, 5]),
    (kac_tensor(5, 1), True, [("P1", "P1")], [2]),
    (kac_tensor(6, 1), False, [("Q3",)], [3]),
    (kac_tensor(7, 1), True, [("Q4",)], [4]),
    (kac_tensor(7, 3), True, [("P1", "P1", "P1")], [3]),
    (kac_tensor(10, 3), False, [("P1", "Q5")], [6]),
    (kac_tensor(8, 4), True, [("P1", "P1", "P1", "P1")], [4]),
    (kac_tensor(11, 4), True, [("P1", "P1", "Q5")], [7]),
    (kac_tensor2(5), True, [("P1",), ("P1",)], [1, 1]),
    (kac_tensor2(6), True, [("P1", "P1"), ("P1", "P1")], [2, 2]),
    (kac_tensor2(7), True, [("Q3",), ("Q3",)], [3, 3]),
    (kac_tensor2(8), True, [("Q4",), ("Q4",)], [4, 4]),
    (kac_tensor2(9), True, [("Q5",), ("Q5",)], [5, 5]),
    (kac_tensor2(10), True, [("Q6",), ("Q6",)], [6, 6]),
    (kac_lagr(3), True, [("P2",), ("P2",)], [2, 2]),
    (kac_lagr(4), True, [("P3",), ("P3",)], [3, 3]),
    (kac_lagr(5), True, [("P4",), ("P4",)], [4, 4]),
    (kac_sp_tensor(3, 1), True, [("P1", "P3")], [4]),
    (kac_sp_tensor(5, 2), True, [("P3", "P5")], [8]),
    (kac_sp_tensor(4, 2), True, [("P3", "P3")], [6]),
    (kac_sp_tensor(6, 2), True, [("P3", "P7")], [10]),
    (kac_gl_half(4), True, [("Q4",), ("Q4",)], [4, 4]),
    (kac_gl_half(6), True, [("Gr(2,6)",), ("Gr(2,6)",)], [8, 8]),
    (kac_gl_half(3), True, [("P2",), ("P2",)], [2, 2]),
    (kac_gl_half(5), True, [("Gr(2,5)",), ("Gr(2,5)",)], [6, 6]),
    (kac_gl_half(7), True, [("Gr(2,7)",), ("Gr(2,7)",)], [10, 10]),
    (kac_gl_half(8), True, [("Gr(2,8)",), ("Gr(2,8)",)], [12, 12]),
    (kac_ei(), False, [("LG(4,8)",)], [10]),
    (kac_eii(), True, [("Gr(3,6)", "P1")], [10]),
    (kac_eiii(), True, [("OG(5,10)",), ("OG(5,10)",)], [10, 10]),
    (kac_eiv(), False, [("F4/P4",)], [15]),
    (kac_ev(), True, [("Gr(4,8)",)], [16]),
    (kac_evi(), True, [("OG(6,12)", "P1")], [16]),
    (kac_eviii(), True, [("OG(8,16)",)], [28]),
    (kac_eix(), True, [("E7/P7", "P1")], [28]),
    (kac_fi(), True, [("LG(3,6)", "P1")], [7]),
    (kac_fii(), True, [("OG(4,9)",)], [10]),
    (kac_g(), True, [("P1", "P1")], [2]),
]


@pytest.mark.parametrize("idx", range(len(SHAPES)))
def test_shape_marks_and_descriptors(idx):
    kd, inner, names, dims = SHAPES[idx]
    marks = validate_diagram(kd, inner=inner)
    assert _mark_product(kd, marks) == [0] * kd.size
    with pytest.raises(ValueError):
        validate_diagram(kd, inner=not inner)
    descs = marked_diagrams(kd)
    assert len(descs) == len(names)
    assert [normalize_name(d.name) for d in descs] == names
    assert [d.dim for d in descs] == dims


# each family's Kac diagram from the literature builders of kac_builders.py,
# called with the family's parameters
REFERENCE_KAC = {
    "GroupA": lambda r: affine_diagram("A", r),
    "GroupA1": lambda: affine_diagram("A", 1),
    "GroupB": lambda r: affine_diagram("B", r),
    "GroupC": lambda r: affine_diagram("C", r),
    "GroupD": lambda r: affine_diagram("D", r),
    "GroupE6": lambda: affine_diagram("E", 6),
    "GroupE7": lambda: affine_diagram("E", 7),
    "GroupE8": lambda: affine_diagram("E", 8),
    "GroupF4": lambda: affine_diagram("F", 4),
    "GroupG2": lambda: affine_diagram("G", 2),
    "AI": kac_sym2,
    "AI1": kac_hermitian_rank1,
    "AII": kac_wedge2,
    "AIII": lambda n, r: kac_cycle(n, r),
    "AIIIeq": lambda r: kac_cycle(2 * r, r),
    "BDI": kac_tensor,
    "BDI2": kac_tensor2,
    "BDII": lambda n: kac_tensor(n, 1),
    "CI": kac_lagr,
    "CII": kac_sp_tensor,
    "CIIeq": lambda r: kac_sp_tensor(2 * r, r),
    "DI": lambda r: kac_tensor(2 * r, r),
    "DIIIeven": lambda r: kac_gl_half(2 * r),
    "DIIIodd": lambda r: kac_gl_half(2 * r + 1),
    "EI": kac_ei, "EII": kac_eii, "EIII": kac_eiii, "EIV": kac_eiv, "EV": kac_ev,
    "EVI": kac_evi, "EVII": kac_evii, "EVIII": kac_eviii, "EIX": kac_eix,
    "FI": kac_fi, "FII": kac_fii, "G": kac_g,
}


def test_catalog_diagrams_equal_the_reference_builders():
    # every instance of ambient rank <= 16, E6-E8, F4 and G2 among them:
    # the same colors and the same edges in the same order
    records = enumerate_records(load_catalog(), 16)
    assert {r.label for r in records} == set(REFERENCE_KAC)
    for record in records:
        assert record.kac == REFERENCE_KAC[record.label](**record.params), record.label


def test_evii_descriptor_names():
    descs = marked_diagrams(kac_evii())
    got = sorted(d.name for d in descs)
    assert got == ["E6/P1", "E6/P6"]
    assert [d.dim for d in descs] == [16, 16]


def test_group_descriptors():
    cases = {
        ("A", 1): ("P1", 1),
        ("A", 3): ("Flag(1,3)", 5),
        ("B", 2): ("OG(2,5)", 3),
        ("B", 4): ("OG(2,9)", 11),
        ("C", 3): ("P5", 5),
        ("D", 4): ("OG(2,8)", 9),
        ("E", 6): ("E6/P2", 21),
        ("E", 7): ("E7/P1", 33),
        ("E", 8): ("E8/P8", 57),
        ("F", 4): ("F4/P1", 15),
        ("G", 2): ("G2/P2", 5),
    }
    for key, (name, dim) in cases.items():
        (desc,) = marked_diagrams(affine_diagram(*key))
        assert desc.name == name
        assert desc.dim == dim


def test_component_descriptor_requires_white():
    kd = affine_diagram("A", 2)
    with pytest.raises(ValueError):
        component_descriptor(kd, 1)


@pytest.mark.parametrize("colors, edges", [
    # a white node beside a black triangle, the cycle A_2^(1)
    ("wbbb", ((0, 1, -1, -1), (1, 2, -1, -1), (2, 3, -1, -1), (3, 1, -1, -1))),
    # a black node bonded to itself, so its diagonal Cartan entry is -1
    ("wb", ((0, 1, -1, -1), (1, 1, -1, -1))),
], ids=["black-triangle", "self-bond"])
def test_black_component_without_a_type_is_refused(colors, edges):
    with pytest.raises(ValueError, match="^black component has no Cartan type$"):
        marked_diagrams(KacDiagram(tuple(colors), edges))


def test_normalize_name():
    assert normalize_name("Q2") == ("P1", "P1")
    assert normalize_name("Q1 x Q3") == ("P1", "Q3")
    assert normalize_name("Gr(2,4)") == ("Q4",)
    assert normalize_name("Gr(3,4)") == ("P3",)
    assert normalize_name("Gr(4,6)") == ("Gr(2,6)",)
    assert normalize_name("OG(2,5)") == ("P3",)
    assert normalize_name("LG(2,4)") == ("Q3",)
    assert normalize_name("IG(2,4)") == ("Q3",)
    assert normalize_name("IG(1,6)") == ("P5",)
    assert normalize_name("P0 x P2") == ("P2",)
    assert normalize_name("pt") == ()
    assert normalize_name("(P4)*") == ("P4",)
    assert normalize_name("E6/P1") == ("E6/P1",)


def test_name_dimension():
    assert name_dimension("P4") == 4
    assert name_dimension("Q7") == 7
    assert name_dimension("pt") == 0
    assert name_dimension("Flag(1,3)") == 5
    assert name_dimension("Gr(2,6)") == 8
    assert name_dimension("Gr(4,8)") == 16
    assert name_dimension("LG(3,6)") == 6
    assert name_dimension("IG(2,6)") == 7
    assert name_dimension("OG(2,7)") == 7
    assert name_dimension("OG(5,10)") == 10
    assert name_dimension("OG(4,9)") == 10
    assert name_dimension("OG(8,16)") == 28
    assert name_dimension("E6/P2") == 21
    assert name_dimension("E7/P7") == 27
    assert name_dimension("F4/P4") == 15
    assert name_dimension("G2/P2") == 5
    assert name_dimension("Gr(3,6) x P1") == 10
    with pytest.raises(ValueError):
        name_dimension("Xanadu")


@pytest.mark.parametrize("name", ["E6/P9", "OG(7,10)", "Gr(0,4)", "IG(4,6)", "Gr(5,4)",
                                  "OG(4,10)", "Flag(2,5)", "Q0", "E9/P1", "A5/P3-3",
                                  "Xanadu", "P2 x Xanadu"])
def test_name_outside_the_grammar_is_rejected(name):
    for read in (normalize_name, name_dimension):
        with pytest.raises(ValueError, match="unrecognized space name"):
            read(name)


# every valid type of rank <= 8 with one crossed node, and A_n crossed at (1, n)
ROUND_TRIP = [(t, n, (k,)) for t in "ABCDEFG" for n in range(1, 9) if VALID_RANKS[t](n)
              for k in range(1, n + 1)] + [("A", n, (1, n)) for n in range(2, 9)]


def test_names_parse_back_to_their_diagrams():
    for typ, rank, crossed in ROUND_TRIP:
        name = _name_factor(typ, rank, crossed)
        want = (typ, rank, crossed)
        if typ == "C" and crossed == (1,):
            want = ("A", 2 * rank - 1, (1,))      # Sp_2r/P_1 is P^(2r-1)
        if typ == "D" and crossed == (rank - 1,):
            want = ("D", rank, (rank,))           # both spinor nodes are OG(r,2r)
        assert [_canonical(*d) for d in _parse_factor(name)] == [_canonical(*want)], name
        assert name_dimension(name) == _factor_dim(typ, rank, crossed), name


def test_low_rank_coincidences_share_one_representative():
    assert _canonical("A", 3, (2,)) == _canonical("D", 3, (1,)) == ("D", 3, (1,))
    assert _canonical("A", 3, (3,)) == _canonical("D", 3, (2,)) == ("A", 3, (1,))
    assert _canonical("D", 3, (3,)) == ("A", 3, (1,))
    assert _canonical("C", 2, (2,)) == ("B", 2, (1,))
    assert _canonical("B", 2, (2,)) == ("C", 2, (1,))
    assert _canonical("A", 5, (4,)) == ("A", 5, (2,))
    assert _canonical("E", 6, (6,)) == ("E", 6, (6,))
    assert normalize_name("E6/P1 x E6/P6") == ("E6/P1", "E6/P6")


def _catalog_names(max_rank):
    """Stored hc and vmrt names and engine descriptor names of every catalog
    instance of ambient rank <= max_rank, without building the instances."""
    names = set()
    for t in load_catalog().templates:
        for values in itertools.product(range(1, 2 * max_rank + 2), repeat=len(t.params)):
            params = dict(zip(t.params, values))
            if _route(t.label, params)[0] != t.label \
                    or not all(_eval(c, params) for c in t.constraints) \
                    or sum(n for _, n in _eval(t.data["ambient"], params)) > max_rank:
                continue
            names.update(_fmt(x, params) for x in t.data["hc"] + (t.data.get("vmrt") or []))
            kd = _eval(t.data["kac"], {**params, **KAC_BUILDERS})
            names.update(d.name for d in marked_diagrams(kd))
    return names


# the other name literals of the test suite
TEST_NAMES = ("Q1 x Q3", "Gr(2,4)", "Gr(3,4)", "Gr(4,6)", "OG(2,5)", "LG(2,4)", "IG(2,4)",
              "IG(1,6)", "P0 x P2", "(P4)*", "P2∨", "P2*", "Q2", "Q3", "Q7", "Flag(1,3)",
              "Gr(2,6)", "Gr(4,8)", "LG(3,6)", "IG(2,6)", "OG(2,7)", "OG(4,9)", "OG(2,9)",
              "OG(2,8)", "E6/P2", "E7/P1", "E7/P7", "E8/P8", "F4/P1", "F4/P4", "G2/P2",
              "Gr(3,6) x P1", "E6/P1", "E6/P6", "P4", "P5")

# SHA-256 of (name, normalize_name, name_dimension) over the 549 names above,
# recorded with the earlier string-rewrite normaliser: the grammar must read
# every one of them the same way
NAMES_COUNT = 549
NAMES_DIGEST = "08c3c4234bd1f7b457ebf0ffa20eb6d829ad0ff14944628498ccbc91e1324700"


def test_name_readings_are_pinned():
    names = _catalog_names(16) | set(TEST_NAMES) | {
        n for _, _, per_white, _ in SHAPES for factors in per_white for n in factors}
    rows = [[n, list(normalize_name(n)), name_dimension(n)] for n in sorted(names)]
    assert len(rows) == NAMES_COUNT
    digest = hashlib.sha256(json.dumps(rows, ensure_ascii=False).encode()).hexdigest()
    assert digest == NAMES_DIGEST


def test_validate_parses_each_factor_text_once(monkeypatch):
    seen = []

    def counted(text):
        seen.append(text)
        return _parse_factor(text)
    monkeypatch.setattr("wonderful.kac._parse_factor", counted)
    _factors.cache_clear()
    try:
        for record in enumerate_records(load_catalog(), 8):
            assert validate(record) == []
    finally:
        _factors.cache_clear()  # drop what was read through the wrapper
    assert seen and len(seen) == len(set(seen))


def test_factor_dim_counts_match_the_root_tables():
    for typ, rank in [(t, n) for t in "ABCDEFG" for n in range(1, 9) if VALID_RANKS[t](n)]:
        rs = build_root_system(((typ, rank),))
        for k in range(1, rank + 1):
            for crossed in itertools.combinations(range(1, rank + 1), k):
                kept = tuple(j for j in range(rank) if j + 1 not in crossed)
                assert _factor_dim(typ, rank, crossed) == \
                    len(positive_roots(rs)) - len(subsystem_roots(rs, kept)), (typ, rank, crossed)


def test_factor_dim_builds_no_root_table(monkeypatch):
    monkeypatch.setattr("wonderful.rootsystem._root_generation",
                        lambda rs: pytest.fail("a root table was built"))
    assert name_dimension("Gr(2,100)") == 2 * 98
    assert name_dimension("E8/P1-8") == 120 - 30      # the uncrossed nodes form D6


@pytest.mark.parametrize("label, canonical", [
    ("A1", "A1"), ("B1", "A1"), ("C1", "A1"), ("C2", "B2"), ("D3", "A3"), ("B2", "B2"),
    ("A3", "A3"), ("C3", "C3"), ("D4", "D4"), ("BC1", "BC1"), ("BC2", "BC2"), ("BC0", "BC0"),
])
def test_type_labels_up_to_the_low_rank_coincidences(label, canonical):
    assert canonical_type(label) == canonical
