"""Finite root systems of types A-G in exact simple-root coordinates.

Roots and weights are tuples of coordinates over the simple roots
(Bourbaki numbering within each component, components concatenated).
Coweights are tuples of coordinates over the simple coroots.  All node
indices in this package are 0-based.
"""

import struct
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, wraps
from operator import mul

VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

# the bound of each cache keyed by what a catalog names, so a long --catalog cannot grow one
MAX_CACHED = 4096

# largest rank build_root_system accepts; the root table grows like rank^3.
# pack is injective on vectors of one length with coordinates in [-2^15,
# 2^15).  The engine packs roots and sums of two or four of them (at most 24),
# sigma(beta) = sum_i beta_i sigma(alpha_i) (at most 6 ht(beta) < 1200) and
# kappa <= 2 rho, whose largest coordinate at this rank is 10,098 (C100)
MAX_AMBIENT_RANK = 100


def _edges(typ, n):
    """Bonds of the Dynkin diagram as (i, j, a_ij, a_ji), 0-based chain order;
    each bond's near end i is a node of an earlier bond, or node 0."""
    if typ == "A":
        return [(i, i + 1, -1, -1) for i in range(n - 1)]
    if typ == "B":
        # alpha_n short: <alpha_n^vee, alpha_{n-1}> = -2
        e = [(i, i + 1, -1, -1) for i in range(n - 2)]
        e.append((n - 2, n - 1, -1, -2))
        return e
    if typ == "C":
        # alpha_n long: <alpha_{n-1}^vee, alpha_n> = -2
        e = [(i, i + 1, -1, -1) for i in range(n - 2)]
        e.append((n - 2, n - 1, -2, -1))
        return e
    if typ == "D":
        e = [(i, i + 1, -1, -1) for i in range(n - 2)]
        e.append((n - 3, n - 1, -1, -1))
        return e
    if typ == "E":
        # chain 1-3-4-5-6(-7)(-8) with 2 attached to 4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        e = [(chain[k], chain[k + 1], -1, -1) for k in range(len(chain) - 1)]
        e.append((3, 1, -1, -1))
        return e
    if typ == "F":
        # alpha_1, alpha_2 long; <alpha_3^vee, alpha_2> = -2
        return [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)]
    if typ == "G":
        # alpha_1 short: <alpha_1^vee, alpha_2> = -3
        return [(0, 1, -3, -1)]
    raise ValueError(f"unknown type {typ!r}")


def memoised(f):
    """Memoise a pure f(obj, *args) in obj.__dict__, so the value lives
    exactly as long as obj; works on a namedtuple subclass that declares no
    __slots__.  Exceptions are not cached, and the values must be immutable
    because every caller shares them."""
    @wraps(f)
    def wrapper(obj, *args):
        memo = obj.__dict__.setdefault("_memo", {})
        if (f, args) not in memo:
            memo[f, args] = f(obj, *args)
        return memo[f, args]
    return wrapper


def unit_vector(n, i):
    """The i-th standard basis vector of length n, e.g. the simple root alpha_i."""
    return tuple(1 if k == i else 0 for k in range(n))


def pack(v):
    """The code sum_i v_i 2^(16 i) of v, in balanced base-2^16 digits: linear,
    so a root plus alpha_i is code + pack(alpha_i)."""
    return sum(x << 16 * i for i, x in enumerate(v) if x)


def unpack(code, n):
    """The vector of length n that pack sends to code."""
    half = int.from_bytes(b"\0\x80" * n, "little")  # 2^15 in every digit
    # adding half makes every digit nonnegative; xor takes 2^15 off again,
    # leaving each digit in two's complement
    return struct.unpack(f"<{n}h", ((code + half) ^ half).to_bytes(2 * n, "little"))


def cartan_from_bonds(n, bonds):
    """The Cartan matrix of n nodes joined by the bonds (i, j, a_ij, a_ji)."""
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j, aij, aji in bonds:
        a[i][j], a[j][i] = aij, aji
    return a


def cartan_matrix(typ, n):
    return cartan_from_bonds(n, _edges(typ, n))


class RootSystem(namedtuple("RootSystem", "components cartan gram6")):
    """A root system: its (type, rank) components and Cartan matrix; gram6
    is the integer symmetrised form 6 d_i a_ij, i.e. six times
    (alpha_i, alpha_j), whose diagonal holds the root lengths (12 on a long
    simple root)."""

    def __hash__(self):
        # the components determine every other field, so equal systems
        # hash equal; hashing only them keeps lru_cache lookups cheap
        return hash(self.components)

    @property
    def rank(self):
        return len(self.cartan)

    def component_nodes(self, c):
        start = sum(n for _, n in self.components[:c])
        return tuple(range(start, start + self.components[c][1]))


@lru_cache(maxsize=None)
def build_root_system(components):
    """Build a root system from a tuple of (type, rank) components."""
    if not components:
        raise ValueError("empty component list")
    for typ, n in components:
        if typ not in VALID_RANKS or not VALID_RANKS[typ](n):
            raise ValueError(f"invalid component {typ}{n}")
    total = sum(n for _, n in components)
    if total > MAX_AMBIENT_RANK:
        raise ValueError(f"rank {total} is above the ambient rank ceiling "
                         f"{MAX_AMBIENT_RANK}")
    bonds, scale = [], []  # scale is 6 d_i, so 6 on a long root
    for typ, n in components:
        offset = len(scale)
        d = [6] * n
        for i, j, aij, aji in _edges(typ, n):
            bonds.append((offset + i, offset + j, aij, aji))
            # d_i a_ij = d_j a_ji exactly, so gram6 is symmetric: each near end
            # d_i is set before its bond, and is 6 where a_ji is -2 or -3
            d[j] = d[i] * aij // aji
        top = max(d)
        scale += [6 * x // top for x in d]
    cartan = cartan_from_bonds(total, bonds)
    gram6 = tuple(tuple(scale[i] * cartan[i][j] for j in range(total)) for i in range(total))
    return RootSystem(
        components=tuple(components),
        cartan=tuple(tuple(row) for row in cartan),
        gram6=gram6,
    )


def pairing(rs, i, w):
    """<alpha_i^vee, w> for w in simple-root coordinates."""
    return sum(map(mul, rs.cartan[i], w))


def _form6(rs, v, w):
    """6 (v, w); an integer for integer v and w."""
    return sum([vi * sum(map(mul, row, w)) for vi, row in zip(v, rs.gram6) if vi])


def inner_product(rs, v, w):
    """(v, w) with long roots normalized to squared length 2 per component."""
    return Fraction(_form6(rs, v, w), 6)


def coroot(rs, root):
    """Coroot 2*root/(root,root) in simple-coroot coordinates.  The engine
    pairs coroots without building them: <u^vee, w> = 2 _form6(u, w) /
    _form6(u, u), a ratio of integers."""
    # 2 b_j d_j / (root, root) = b_j * gram6[j][j] / (6 (root, root))
    sq6 = _form6(rs, root, root)
    return tuple(Fraction(b * rs.gram6[j][j], sq6) for j, b in enumerate(root))


@lru_cache(maxsize=None)
def _root_generation(rs):
    """(positive roots by height, steps, codes, index): beta + alpha_i is a
    root when the alpha_i-string through beta goes on up, and its step
    (position of beta, i) is recorded when it is first reached.  The pairings
    p = <alpha_i^vee, beta> ride along with each root: a step adds column i of
    the Cartan matrix.  codes are the packed positive roots followed by
    their negatives, and index maps each code to its position there."""
    n = rs.rank
    columns = [tuple(row[i] for row in rs.cartan) for i in range(n)]
    short = {i for i in range(n) if rs.gram6[i][i] != 12}
    unit = [1 << 16 * i for i in range(n)]
    ordered, pairings, codes = [unit_vector(n, i) for i in range(n)], columns[:], unit[:]
    index = {c: k for k, c in enumerate(codes)}
    steps = []
    # breadth first: the loop also visits the roots appended inside it
    for k, beta in enumerate(ordered):
        for i, p in enumerate(pairings[k]):
            # the string goes up exactly when it goes down further than p;
            # along a long alpha_i it holds at most two roots, so it goes up
            # exactly when p < 0
            down = 0
            while p >= 0 and i in short and codes[k] - (down + 1) * unit[i] in index:
                down += 1
            if down <= p or codes[k] + unit[i] in index:
                continue
            index[codes[k] + unit[i]] = len(ordered)
            codes.append(codes[k] + unit[i])
            ordered.append(beta[:i] + (beta[i] + 1,) + beta[i + 1:])
            steps.append((k, i))
            pairings.append(tuple(a + b for a, b in zip(pairings[k], columns[i])))
    npos = len(codes)
    codes += [-c for c in codes]
    index.update((codes[k], k) for k in range(npos, 2 * npos))
    return tuple(ordered), tuple(steps), tuple(codes), index


def positive_roots(rs):
    """All positive roots, enumerated by height."""
    return _root_generation(rs)[0]


def root_codes(rs):
    """(codes, index): the packed positive roots in height order followed by
    their negatives, so codes[k + N] == -codes[k] for N positive roots, and
    the map from each code to its position."""
    return _root_generation(rs)[2:]


def root_steps(rs):
    """(k, i) for each non-simple positive root, in the order of root_codes
    from position rank on: roots[k] + alpha_i is that root and k is an
    earlier position."""
    return _root_generation(rs)[1]


@lru_cache(maxsize=None)
def highest_roots(rs):
    """The highest root of each irreducible component, in component order."""
    return tuple(highest_root(typ, rs.component_nodes(c), rs.rank)
                 for c, (typ, _) in enumerate(rs.components))


@lru_cache(maxsize=None)
def two_rho(rs):
    return tuple(map(sum, zip(*positive_roots(rs))))


def connected_components(cartan, nodes):
    """Components of the Dynkin diagram of cartan on the given nodes, with i
    and j linked where cartan[i][j] is nonzero; each sorted, ordered by least node."""
    rest, comps = sorted(nodes), []
    while rest:
        comp = [rest.pop(0)]
        for i in comp:  # breadth first: comp grows inside the loop
            comp += (near := [j for j in rest if cartan[i][j]])
            rest = [j for j in rest if j not in near]
        comps.append(sorted(comp))
    return comps


def typed_components(cartan, nodes):
    """(type, nodes in Bourbaki order) per connected component of the nodes;
    a component with no Cartan type raises ValueError."""
    for comp in connected_components(cartan, nodes):
        ident = (("A", 1, [0]) if len(comp) == 1 and cartan[comp[0]][comp[0]] == 2
                 else identify_cartan([[cartan[i][j] for j in comp] for i in comp]))
        if ident is None:
            raise ValueError("black component has no Cartan type")
        yield ident[0], [comp[k] for k in ident[2]]


def opposition(rs, nodes):
    """{i: j} on the given nodes with -w_0(alpha_i) = alpha_j, w_0 the longest
    element of their parabolic subgroup.  On each connected component of the
    nodes, -w_0 is the flip of A_n or E6, the swap of the two spinor nodes of
    D_n for odd n, and the identity on the other types (Bourbaki, Plates)."""
    perm = {}
    for typ, comp in typed_components(rs.cartan, nodes):
        n = len(comp)
        std = (range(n - 1, -1, -1) if typ == "A"
               else (*range(n - 2), n - 1, n - 2) if typ == "D" and n % 2
               else (5, 1, 4, 3, 2, 0) if (typ, n) == ("E", 6)
               else range(n))
        for k, image in enumerate(std):
            perm[comp[k]] = comp[image]
    return perm


# 2 rho^vee of the exceptional types over the simple coroots, Bourbaki order
_EXCEPTIONAL_TWO_RHO_VEE = {
    ("E", 6): (16, 22, 30, 42, 30, 16), ("E", 7): (34, 49, 66, 96, 75, 52, 27),
    ("E", 8): (92, 136, 182, 270, 220, 168, 114, 58), ("F", 4): (22, 42, 30, 16), ("G", 2): (6, 10)}


def two_rho_vee(rs, nodes):
    """{i: c_i} with 2 rho^vee = sum_i c_i alpha_i^vee, the sum of the positive
    coroots of the parabolic subsystem on the given nodes: on each component,
    2 rho of the dual type (Bourbaki, Lie Groups, Ch. VI, Plates)."""
    c = {}
    for typ, comp in typed_components(rs.cartan, nodes):
        n = len(comp)
        k = range(1, n + 1)
        c.update(zip(comp, [i * (n + 1 - i) for i in k] if typ == "A"
                     else [i * (2 * n - i + 1) for i in k[:-1]] + [n * (n + 1) // 2] if typ == "B"
                     else [i * (2 * n - i) for i in k[:-1]] + [n * n] if typ == "C"
                     else [i * (2 * n - i - 1) for i in k[:-2]] + [n * (n - 1) // 2] * 2
                     if typ == "D" else _EXCEPTIONAL_TWO_RHO_VEE[typ, n]))
    return c


_EXCEPTIONAL_HIGHEST = {("E", 6): (1, 2, 2, 3, 2, 1), ("E", 7): (2, 2, 3, 4, 3, 2, 1),
                        ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2), ("F", 4): (2, 3, 4, 2), ("G", 2): (3, 2)}


def highest_root(typ, nodes, rank):
    """The highest root of a component of type typ on the nodes, given in Bourbaki
    order, as a vector of length rank (Bourbaki, Lie Groups, Ch. VI, Plates)."""
    n = len(nodes)
    top = dict(zip(nodes, (1,) * n if typ == "A" else (1,) + (2,) * (n - 1) if typ == "B"
                   else (2,) * (n - 1) + (1,) if typ == "C"
                   else (1,) + (2,) * (n - 3) + (1, 1) if typ == "D"
                   else _EXCEPTIONAL_HIGHEST[typ, n]))
    return tuple(top.get(i, 0) for i in range(rank))


def longest_element(rs, iota):
    """Packed codes (pack) of the columns w_L(alpha_j), j = 0..rank-1, of the
    longest element w_L of the parabolic subgroup on the nodes L of iota =
    opposition(rs, L): -alpha_iota(j) for j in L.  For j outside L, alpha_j is
    the lowest weight of the L-module of the roots alpha_j + (sums over L),
    irreducible with simple weights, and w_L sends it to the highest: the
    root reached by adding simple roots of L while the sum stays a root."""
    codes, index = root_codes(rs)
    cols = []
    for j in range(rs.rank):
        top = codes[iota.get(j, j)]
        grown = j not in iota
        while grown:
            grown = False
            for i in iota:
                if top + codes[i] in index:
                    top, grown = top + codes[i], True
        cols.append(-top if j in iota else top)
    return cols


@lru_cache(maxsize=None)
def minus_w0_permutation(rs):
    """The permutation i -> j with -w_0(alpha_i) = alpha_j."""
    return tuple(j for _, j in sorted(opposition(rs, range(rs.rank)).items()))


def _bourbaki_order(mat):
    """(type, nodes in Bourbaki order) of a connected Dynkin diagram, read off
    its shape (Bourbaki, Lie Groups, Ch. VI, Plates): a path is A, B, C, F4 or
    G2 by its multiple bond, one branch node with arms (1, 1, k) is D and with
    (1, 2, k) E.  Other shapes give None; ranks and entries are not checked.
    Where automorphisms allow several orders, the least sequence is returned:
    a path walked from its least end, arms sorted by (length, end node)."""
    n = len(mat)
    near = [[j for j in range(n) if j != i and (mat[i][j] or mat[j][i])] for i in range(n)]
    degree = [len(js) for js in near]
    if not n or sum(degree) != 2 * n - 2 or max(degree) > 3 or degree.count(3) > 1:
        return None

    def walk(prev, i):  # from i away from prev up to the first node not of degree 2
        nodes = [i]
        while degree[i] == 2:
            prev, i = i, near[i][near[i][0] == prev]
            nodes.append(i)
        return nodes

    if 3 in degree:
        b = degree.index(3)
        short, mid, long = sorted((walk(b, j) for j in near[b]), key=lambda a: (len(a), a[-1]))
        if n == 4:  # D4: any leaf order is allowed, so the least leaf goes first
            short, mid, long = mid, long, short
        typ, order = (("D", long[::-1] + [b] + short + mid) if len(mid) == 1
                      else ("E", [mid[1], short[0], mid[0], b] + long)
                      if (len(short), len(mid)) == (1, 2) else (None, []))
        # refuses an arm that runs back into b, and a node no arm reaches
        return (typ, order) if sorted(order) == list(range(n)) else None
    end = min(i for i in range(n) if degree[i] < 2)
    order = [end] + (walk(end, near[end][0]) if degree[end] else [])
    multiple = [k for k in range(len(order) - 1)
                if mat[order[k]][order[k + 1]] != -1 or mat[order[k + 1]][order[k]] != -1]
    if len(order) != n or len(multiple) > 1:
        return None
    if not multiple:
        return "A", order
    k = multiple[0]
    i, j = order[k], order[k + 1]
    # where the bond's short and long node sit gives the type, and whether the
    # walk runs the way Bourbaki numbers the nodes
    at_short, at_long = (k, k + 1) if mat[i][j] < -1 else (k + 1, k)
    typ, forward = (("G", at_short == 0) if mat[i][j] * mat[j][i] == 3
                    else ("F", at_short == 2) if (n, k) == (4, 1)
                    else ("B", at_short == n - 1) if at_short in (0, n - 1)
                    else ("C", at_long == n - 1) if at_long in (0, n - 1) else (None, True))
    return (typ, order if forward else order[::-1]) if typ else None


def identify_cartan(mat):
    """(type, rank, mapping) of an irreducible Cartan matrix, with
    mapping[standard 0-based index] = input index, or None: the type and
    order read off the diagram's shape, kept when the rank is valid and the
    type's Cartan matrix is mat.  B2 wins over C2 and A3 over D3.  Each
    distinct matrix is identified once, and its callers share the answer."""
    return _identify(tuple(map(tuple, mat)))


@lru_cache(maxsize=MAX_CACHED)
def _identify(mat):
    n = len(mat)
    typ, order = _bourbaki_order(mat) or (None, None)
    if typ is None or not VALID_RANKS[typ](n):
        return None
    std = cartan_matrix(typ, n)
    same = all(std[k][l] == mat[i][j] for k, i in enumerate(order) for l, j in enumerate(order))
    return (typ, n, tuple(order)) if same else None
