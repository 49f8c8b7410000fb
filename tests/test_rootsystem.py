"""Root system core: counts, highest roots, reflections, longest words."""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wonderful.linalg import invert
from wonderful.rootsystem import (
    VALID_RANKS,
    _form6,
    build_root_system,
    cartan_matrix,
    connected_components,
    coroot,
    highest_roots,
    identify_cartan,
    inner_product,
    longest_element,
    memoised,
    minus_w0_permutation,
    opposition,
    pack,
    pairing,
    positive_roots,
    root_codes,
    root_steps,
    subsystem_roots,
    two_rho,
    two_rho_vee,
    unpack,
)
from araki_scan import two_rho_vee_by_scan
from cartan_search import identify_cartan as search_identify_cartan
from coweights import pair_coweight
from satake_data import TYPES
from weyl_words import (
    longest_subsystem_word,
    matrix_opposition,
    reflect,
    word_action,
    word_matrix,
)

# number of roots |R| for every admissible type of rank <= 8
ROOT_COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12, ("A", 4): 20,
    ("A", 5): 30, ("A", 6): 42, ("A", 7): 56, ("A", 8): 72,
    ("B", 2): 8, ("B", 3): 18, ("B", 4): 32, ("B", 5): 50,
    ("B", 6): 72, ("B", 7): 98, ("B", 8): 128,
    ("C", 2): 8, ("C", 3): 18, ("C", 4): 32, ("C", 5): 50,
    ("C", 6): 72, ("C", 7): 98, ("C", 8): 128,
    ("D", 3): 12, ("D", 4): 24, ("D", 5): 40, ("D", 6): 60,
    ("D", 7): 84, ("D", 8): 112,
    ("E", 6): 72, ("E", 7): 126, ("E", 8): 240,
    ("F", 4): 48, ("G", 2): 12,
}

ALL_TYPES = sorted(ROOT_COUNTS)


def _cartan_inverse(rs):
    return invert([list(row) for row in rs.cartan])


def fundamental_weight(rs, i):
    """The weight with <alpha_j^vee, .> = delta_ij, in simple-root coordinates."""
    inv = _cartan_inverse(rs)
    return tuple(inv[k][i] for k in range(rs.rank))


def rho(rs):
    inv = _cartan_inverse(rs)
    return tuple(sum(row) for row in inv)


@pytest.mark.parametrize("typ,rank", ALL_TYPES)
def test_root_counts(typ, rank):
    rs = build_root_system(((typ, rank),))
    assert 2 * len(positive_roots(rs)) == ROOT_COUNTS[(typ, rank)]
    assert len(root_codes(rs)[1]) == ROOT_COUNTS[(typ, rank)]


def _bourbaki_lengths(typ, n):
    """d_i = (alpha_i, alpha_i)/2 of Bourbaki's plates, long roots d = 1."""
    one, half = Fraction(1), Fraction(1, 2)
    return {"A": [one] * n, "D": [one] * n, "E": [one] * n,
            "B": [one] * (n - 1) + [half], "C": [half] * (n - 1) + [one],
            "F": [one, one, half, half], "G": [Fraction(1, 3), one]}[typ]


def _lengths(rs):
    """d_i read off the diagonal of the 6-scaled form, 6 (alpha_i, alpha_i)."""
    return tuple(Fraction(rs.gram6[i][i], 12) for i in range(rs.rank))


# E6-E8 list their branch bond from the chain node; rank 100 is the ceiling
@pytest.mark.parametrize("typ,rank", ALL_TYPES + [(t, 100) for t in "ABCD"])
def test_lengths_match_bourbaki(typ, rank):
    rs = build_root_system(((typ, rank),))
    assert _lengths(rs) == tuple(_bourbaki_lengths(typ, rank))


def test_lengths_per_component():
    rs = build_root_system((("G", 2), ("B", 3), ("A", 1)))
    assert _lengths(rs) == tuple(_bourbaki_lengths("G", 2) + _bourbaki_lengths("B", 3)
                                 + _bourbaki_lengths("A", 1))
    assert [rs.component_nodes(c) for c in range(3)] == [(0, 1), (2, 3, 4), (5,)]


@pytest.mark.parametrize("typ,rank", ALL_TYPES)
def test_indexed_roots_and_steps(typ, rank):
    rs = build_root_system(((typ, rank),))
    codes, index = root_codes(rs)
    roots = positive_roots(rs)
    npos = len(roots)
    assert codes[:npos] == tuple(map(pack, roots))
    assert all(codes[k + npos] == -codes[k] for k in range(npos))
    assert all(index[c] == k for k, c in enumerate(codes)) and len(index) == 2 * npos
    steps = root_steps(rs)
    assert len(steps) == npos - rank
    for m, (k, i) in enumerate(steps, start=rank):
        assert k < m
        assert tuple(x + (j == i) for j, x in enumerate(roots[k])) == roots[m]


@pytest.mark.parametrize("typ,rank", [(t, 100) for t in "ABCD"] + [("E", 8)])
def test_pack_is_an_injective_linear_round_trip(typ, rank):
    rs = build_root_system(((typ, rank),))
    pos = positive_roots(rs)
    roots = pos + tuple(tuple(-x for x in b) for b in pos)
    codes = [pack(b) for b in roots]
    assert [unpack(c, rank) for c in codes] == list(roots)
    assert len(set(codes)) == len(roots)
    # each root against the one as far from the end as it is from the start
    for a, b, ca, cb in zip(roots, reversed(roots), codes, reversed(codes)):
        assert pack(tuple(x + y for x, y in zip(a, b))) == ca + cb
        assert pack(tuple(x - y for x, y in zip(a, b))) == ca - cb


def test_equal_root_systems_hash_equal():
    comps = (("B", 3), ("A", 2))
    first = build_root_system(comps)
    fresh = build_root_system.__wrapped__(comps)
    assert fresh is not first and fresh == first
    assert hash(fresh) == hash(first)
    assert positive_roots(fresh) is positive_roots(first)


def test_invalid_components():
    for comp in (("D", 2), ("E", 5), ("F", 3), ("G", 3), ("A", 0), ("H", 2)):
        with pytest.raises(ValueError):
            build_root_system((comp,))
    with pytest.raises(ValueError):
        build_root_system(())


def test_highest_root_values():
    assert highest_roots(build_root_system((("A", 3),)))[0] == (1, 1, 1)
    rs_b2 = build_root_system((("B", 2),))
    theta, short = highest_roots(rs_b2)
    assert theta == (1, 2)
    assert short == (1, 1)
    rs_g2 = build_root_system((("G", 2),))
    theta, short = highest_roots(rs_g2)
    assert theta == (3, 2)
    assert short == (2, 1)
    theta_f4, short_f4 = highest_roots(build_root_system((("F", 4),)))
    assert theta_f4 == (2, 3, 4, 2)
    assert short_f4 == (1, 2, 3, 2)
    assert highest_roots(build_root_system((("E", 6),)))[0] == (1, 2, 2, 3, 2, 1)


def test_cartan_conventions():
    b2 = build_root_system((("B", 2),))
    assert b2.cartan == ((2, -1), (-2, 2))
    c3 = build_root_system((("C", 3),))
    assert c3.cartan[1][2] == -2 and c3.cartan[2][1] == -1
    g2 = build_root_system((("G", 2),))
    assert g2.cartan == ((2, -3), (-1, 2))
    f4 = build_root_system((("F", 4),))
    assert f4.cartan[2][1] == -2 and f4.cartan[1][2] == -1


def test_pairing_and_reflection_b2():
    rs = build_root_system((("B", 2),))
    alpha1 = (1, 0)
    assert pairing(rs, 1, alpha1) == -2
    assert reflect(rs, 1, alpha1) == (1, 2)
    assert two_rho(rs) == (3, 4)
    assert rho(rs) == (Fraction(3, 2), Fraction(2))


def test_inner_product_normalization():
    rs = build_root_system((("G", 2),))
    assert inner_product(rs, (0, 1), (0, 1)) == 2
    assert inner_product(rs, (1, 0), (1, 0)) == Fraction(2, 3)
    theta = highest_roots(rs)[0]
    assert inner_product(rs, theta, theta) == 2
    b3 = build_root_system((("B", 3),))
    assert inner_product(b3, (0, 0, 1), (0, 0, 1)) == 1
    assert coroot(b3, (0, 0, 1)) == (0, 0, 1)
    # coroot of a long root beta is beta transported with unit coefficients
    assert coroot(b3, (1, 1, 2)) == (1, 1, 1)


@pytest.mark.parametrize("typ, n", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                     ("F", 4), ("G", 2)])
def test_inner_product_matches_fraction_formula(typ, n):
    rs = build_root_system(((typ, n),))
    pos = positive_roots(rs)
    d = _bourbaki_lengths(typ, n)
    for v in pos:
        for w in pos:
            want = sum((v[i] * w[j] * d[i] * rs.cartan[i][j]
                        for i in range(n) for j in range(n)), Fraction(0))
            got = inner_product(rs, v, w)
            assert isinstance(got, Fraction)
            assert got == want, (v, w)


def test_fundamental_weights_and_rho():
    rs = build_root_system((("A", 2),))
    w1 = fundamental_weight(rs, 0)
    assert w1 == (Fraction(2, 3), Fraction(1, 3))
    assert pairing(rs, 0, w1) == 1 and pairing(rs, 1, w1) == 0
    assert rho(rs) == (1, 1)
    assert two_rho(rs) == (2, 2)


@pytest.mark.parametrize("typ,rank", ALL_TYPES)
def test_two_rho_consistency(typ, rank):
    rs = build_root_system(((typ, rank),))
    assert tuple(2 * x for x in rho(rs)) == two_rho(rs)


def test_longest_word_a2():
    rs = build_root_system((("A", 2),))
    word = longest_subsystem_word(rs, [0, 1])
    assert len(word) == 3
    assert word_action(rs, word, (1, 0)) == (0, -1)
    mat = word_matrix(rs, word)
    assert mat[0] == [0, -1] and mat[1] == [-1, 0]


@pytest.mark.parametrize("typ,rank", ALL_TYPES)
def test_w0_sends_theta_to_minus_theta(typ, rank):
    rs = build_root_system(((typ, rank),))
    word = longest_subsystem_word(rs, range(rank))
    theta = highest_roots(rs)[0]
    assert word_action(rs, word, theta) == tuple(-x for x in theta)


def test_minus_w0_permutations():
    assert minus_w0_permutation(build_root_system((("A", 3),))) == (2, 1, 0)
    assert minus_w0_permutation(build_root_system((("D", 5),))) == (0, 1, 2, 4, 3)
    assert minus_w0_permutation(build_root_system((("D", 4),))) == (0, 1, 2, 3)
    assert minus_w0_permutation(build_root_system((("E", 6),))) == (5, 1, 4, 3, 2, 0)
    assert minus_w0_permutation(build_root_system((("E", 7),))) == tuple(range(7))


# the types on which the closed-form w_L and iota are checked against Weyl words
WEYL_WORD_TYPES = ([("A", n) for n in range(1, 8)] + [("B", n) for n in range(2, 7)]
                   + [("C", n) for n in range(3, 7)] + [("D", n) for n in range(4, 8)]
                   + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("typ,rank", WEYL_WORD_TYPES)
def test_longest_element_and_opposition_match_weyl_words(typ, rank):
    # every black set L and, through the whole matrix, every node j
    rs = build_root_system(((typ, rank),))
    for k in range(rank + 1):
        for nodes in itertools.combinations(range(rank), k):
            wl = word_matrix(rs, longest_subsystem_word(rs, nodes))
            iota = opposition(rs, nodes)
            assert iota == matrix_opposition(wl, nodes), nodes
            cols = [unpack(code, rank) for code in longest_element(rs, iota)]
            assert [list(row) for row in zip(*cols)] == wl, nodes
    assert minus_w0_permutation(rs) == tuple(iota[i] for i in range(rank))


def test_two_rho_vee_matches_the_root_scan():
    # every black set of every irreducible type of rank <= 8, E6-E8, F4, G2
    sets = 0
    for typ, rank in TYPES:
        rs = build_root_system(((typ, rank),))
        for k in range(rank + 1):
            for nodes in itertools.combinations(range(rank), k):
                assert two_rho_vee(rs, nodes) == two_rho_vee_by_scan(rs, nodes), (typ, nodes)
                sets += 1
    assert sets == 2498


def test_multi_component():
    rs = build_root_system((("A", 1), ("A", 1)))
    assert len(positive_roots(rs)) == 2
    assert highest_roots(rs, 1)[0] == (0, 1)
    assert pair_coweight(rs, (Fraction(1, 2), Fraction(1, 2)), (1, 1)) == 2


def test_identify_cartan_prefers_lower_letter():
    for typ, rank in ALL_TYPES:
        mat = [list(r) for r in build_root_system(((typ, rank),)).cartan]
        got = identify_cartan(mat)
        assert got is not None
        expect = {("C", 2): "B", ("D", 3): "A"}.get((typ, rank), typ)
        assert got[0] == expect
    # relabeled B3 with node order reversed
    mat = [[2, -2, 0], [-1, 2, -1], [0, -1, 2]]
    typ, rank, mapping = identify_cartan(mat)
    assert (typ, rank) == ("B", 3)
    assert mapping == (2, 1, 0)
    assert identify_cartan([[2, -1], [-4, 2]]) is None


def _connected_subsets(typ, rank):
    a = cartan_matrix(typ, rank)
    for size in range(1, rank + 1):
        for nodes in itertools.combinations(range(rank), size):
            if len(connected_components(nodes, lambda i, j: a[i][j] != 0)) == 1:
                yield [[a[i][j] for j in nodes] for i in nodes]


def _relabel(mat, order):
    return [[mat[i][j] for j in order] for i in order]


def _searched(mat):
    """The search's answer, with its list mapping as a tuple."""
    found = search_identify_cartan(mat)
    return found and (*found[:2], tuple(found[2]))


def test_identify_cartan_matches_the_search():
    """The shape reader gives the search's (type, rank, mapping), or None,
    on connected subdiagrams of every type of rank <= 9 under relabelings and
    on random integer matrices with 2 on the diagonal."""
    rng = random.Random(13)
    types = [(t, n) for t in "ABCDEFG" for n in range(1, 10) if VALID_RANKS[t](n)]
    for typ, rank in types:
        subsets = list(_connected_subsets(typ, rank))
        for mat in rng.sample(subsets, min(len(subsets), 80)):
            order = list(range(len(mat)))
            rng.shuffle(order)
            for m in (mat, _relabel(mat, order)):
                assert identify_cartan(m) == _searched(m), m
    for _ in range(8000):
        n = rng.randint(1, 5)
        m = [[2 if i == j else rng.choice((0, 0, 0, 1, -1, -1, -1, -2, -3, -4))
              for j in range(n)] for i in range(n)]
        assert identify_cartan(m) == _searched(m), m


def _diagram(n, bonds, diagonal=2):
    """Matrix with the given diagonal, and a_ij, a_ji on each bond (i, j,
    a_ij, a_ji); a pair (i, j) is a single bond."""
    mat = [[diagonal if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, *entries in bonds:
        mat[i][j], mat[j][i] = entries or (-1, -1)
    return mat


@pytest.mark.parametrize("mat", [
    _diagram(3, [(0, 1), (1, 2), (2, 0)]),                               # cycle A~2
    _diagram(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),                       # degree 4, D~4
    _diagram(6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]),               # two branches, D~5
    _diagram(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),       # arms 2,2,2: E~6
    _diagram(8, [(0, 1), (0, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7)]),  # 1,3,3: E~7
    _diagram(9, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8)]),  # E~8
    _diagram(5, [(0, 1), (1, 2, -1, -2), (2, 3), (3, 4)]),              # double bond inside
    _diagram(3, [(0, 1, -2, -1), (1, 2, -1, -2)]),                       # two double bonds, C~2
    _diagram(4, [(0, 2), (1, 2), (2, 3, -1, -2)]),                       # branch and double, B~3
    _diagram(2, []),                                                     # A1 + A1
    _diagram(5, [(0, 1), (2, 3), (3, 4), (4, 2)]),                       # A2 + A~2
    _diagram(7, [(0, 1), (1, 2), (1, 3), (4, 5), (5, 6), (6, 4)]),       # D4 + A~2
    _diagram(2, [(0, 1)], diagonal=3),                                   # a diagonal entry of 3
])
def test_identify_cartan_refuses_other_diagrams(mat):
    rng = random.Random(len(mat))
    for _ in range(3):
        order = list(range(len(mat)))
        rng.shuffle(order)
        assert identify_cartan(_relabel(mat, order)) is None


def test_connected_components_match_union_find():
    rng = random.Random(5)
    for _ in range(300):
        nodes = rng.sample(range(12), rng.randint(0, 12))
        edges = {frozenset(e) for e in itertools.combinations(nodes, 2) if rng.random() < 0.15}
        parent = {i: i for i in nodes}

        def root(i):
            while parent[i] != i:
                i = parent[i]
            return i
        for i, j in map(sorted, edges):
            parent[root(j)] = root(i)
        want = {}
        for i in sorted(nodes):
            want.setdefault(root(i), []).append(i)
        got = connected_components(nodes, lambda i, j: frozenset((i, j)) in edges)
        assert got == sorted(want.values(), key=min)


@st.composite
def _root_system_and_root(draw):
    typ, rank = draw(st.sampled_from(ALL_TYPES))
    rs = build_root_system(((typ, rank),))
    beta = draw(st.sampled_from(positive_roots(rs)))
    return rs, beta


@settings(max_examples=60, deadline=None)
@given(_root_system_and_root())
def test_reflection_stability(data):
    rs, beta = data
    index = root_codes(rs)[1]
    for i in range(rs.rank):
        assert pack(reflect(rs, i, beta)) in index


@settings(max_examples=60, deadline=None)
@given(_root_system_and_root())
def test_cartan_integers(data):
    rs, beta = data
    beta_cov = coroot(rs, beta)
    for alpha in positive_roots(rs):
        a = pair_coweight(rs, beta_cov, alpha)
        b = pair_coweight(rs, coroot(rs, alpha), beta)
        assert a.denominator == 1 and b.denominator == 1
        if tuple(alpha) != tuple(beta):
            assert int(a) * int(b) in (0, 1, 2, 3)


@pytest.mark.parametrize("typ,rank", ALL_TYPES)
def test_coroot_pairing_is_a_ratio_of_integer_forms(typ, rank):
    # the engine pairs <u^vee, w> as 2 (u, w) / (u, u) without building u^vee
    rs = build_root_system(((typ, rank),))
    roots = [unpack(c, rank) for c in root_codes(rs)[0]]
    rng = random.Random(f"{typ}{rank}")
    for _ in range(40):
        u, w = rng.choice(roots), rng.choice(roots)
        assert Fraction(2 * _form6(rs, u, w), _form6(rs, u, u)) \
            == pair_coweight(rs, coroot(rs, u), w)


@dataclass(frozen=True)
class _Box:
    x: int


def test_memoised_is_per_object_and_does_not_cache_errors():
    runs = []

    @memoised
    def halve(box, extra):
        runs.append(box.x)
        if box.x % 2:
            raise ValueError(f"{box.x} is odd")
        return box.x // 2 + extra

    box = _Box(4)
    assert halve(box, 0) == halve(box, 0) == 2
    assert halve(box, 1) == 3
    assert runs == [4, 4]
    # an equal but distinct object keeps its own memo
    assert halve(_Box(4), 0) == 2
    assert runs == [4, 4, 4]
    odd = _Box(3)
    for _ in range(2):
        with pytest.raises(ValueError, match="3 is odd"):
            halve(odd, 0)
    assert runs == [4, 4, 4, 3, 3]


def test_subsystem_roots_count_per_node_set():
    rs = build_root_system((("E", 8),))
    assert len(subsystem_roots(rs, tuple(range(8)))) == 120
    assert len(subsystem_roots(rs, (0, 2, 3))) == 6       # A3
    assert len(longest_subsystem_word(rs, [3, 2, 0])) == 6


@pytest.mark.parametrize("components", [(("A", 101),), (("E", 8), ("A", 93))])
def test_no_root_system_above_the_rank_ceiling(components):
    with pytest.raises(ValueError, match="above the ambient rank ceiling 100"):
        build_root_system(components)
    assert build_root_system((("A", 100),)).rank == 100
