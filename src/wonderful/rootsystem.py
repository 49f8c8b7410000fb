"""Finite root systems of types A-G in exact simple-root coordinates.

Roots and weights are tuples of coordinates over the simple roots
(Bourbaki numbering within each component, components concatenated).
Coweights are tuples of coordinates over the simple coroots.  All node
indices in this package are 0-based.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, wraps

VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

# largest rank build_root_system accepts; the root table grows like rank^3
MAX_AMBIENT_RANK = 100


def _edges(typ, n):
    """Bonds of the Dynkin diagram as (i, j, a_ij, a_ji), 0-based chain order."""
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
        e.append((1, 3, -1, -1))
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
    exactly as long as obj; works on frozen dataclasses.  Exceptions are not
    cached, and the values must be immutable because every caller shares them."""
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


def cartan_matrix(typ, n):
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, aij, aji in _edges(typ, n):
        a[i][j] = aij
        a[j][i] = aji
    return a


def _symmetrizer(a):
    """d_i = (alpha_i, alpha_i)/2 of an irreducible Cartan matrix a, from
    d_i a_ij = d_j a_ji, normalized so long roots have d = 1."""
    n = len(a)
    d = [Fraction(1)] + [None] * (n - 1)
    for _ in range(n):
        for i in range(n):
            for j in range(n):
                if a[i][j] and d[i] is not None and d[j] is None:
                    d[j] = d[i] * a[i][j] / a[j][i]
    top = max(d)
    return [x / top for x in d]


@dataclass(frozen=True)
class RootSystem:
    components: tuple
    cartan: tuple
    lengths: tuple
    node_component: tuple
    # integer symmetrised form 6 * d_i * a_ij, i.e. six times (alpha_i, alpha_j)
    gram6: tuple = field(compare=False, repr=False)

    def __hash__(self):
        # the components determine every other field, so equal systems
        # hash equal; hashing only them keeps lru_cache lookups cheap
        return hash(self.components)

    @property
    def rank(self):
        return len(self.cartan)

    def component_nodes(self, c):
        return tuple(i for i in range(self.rank) if self.node_component[i] == c)


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
    cartan = [[0] * total for _ in range(total)]
    lengths = []
    node_component = []
    offset = 0
    for ci, (typ, n) in enumerate(components):
        block = cartan_matrix(typ, n)
        for i in range(n):
            for j in range(n):
                cartan[offset + i][offset + j] = block[i][j]
        lengths.extend(_symmetrizer(block))
        node_component.extend([ci] * n)
        offset += n
    gram6 = tuple(tuple(int(6 * lengths[i]) * cartan[i][j] for j in range(total))
                  for i in range(total))
    for i in range(total):
        for j in range(total):
            if gram6[i][j] != gram6[j][i]:
                raise ValueError("asymmetric inner product")
    return RootSystem(
        components=tuple(components),
        cartan=tuple(tuple(row) for row in cartan),
        lengths=tuple(lengths),
        node_component=tuple(node_component),
        gram6=gram6,
    )


def pairing(rs, i, w):
    """<alpha_i^vee, w> for w in simple-root coordinates."""
    return sum(a * x for a, x in zip(rs.cartan[i], w))


def pair_coweight(rs, cw, w):
    """<c, w> for a coweight c in simple-coroot coordinates."""
    return sum(c * pairing(rs, i, w) for i, c in enumerate(cw) if c)


def reflect(rs, i, w):
    """Simple reflection s_i applied to w in simple-root coordinates."""
    p = pairing(rs, i, w)
    out = list(w)
    out[i] -= p
    return tuple(out)


def _form6(rs, v, w):
    """6 (v, w); an integer for integer v and w."""
    total = 0
    for vi, row in zip(v, rs.gram6):
        if vi:
            total += vi * sum(g * wj for g, wj in zip(row, w) if wj)
    return total


def inner_product(rs, v, w):
    """(v, w) with long roots normalized to squared length 2 per component."""
    return Fraction(_form6(rs, v, w), 6)


def length_sq(rs, v):
    return inner_product(rs, v, v)


def coroot(rs, root):
    """Coroot 2*root/(root,root) in simple-coroot coordinates."""
    # 2 b_j d_j / (root, root) = b_j * gram6[j][j] / (6 (root, root))
    sq6 = _form6(rs, root, root)
    return tuple(Fraction(b * rs.gram6[j][j], sq6) for j, b in enumerate(root))


@lru_cache(maxsize=None)
def _root_generation(rs):
    """(positive roots by height, steps): beta + alpha_i is a root when the
    alpha_i-string through beta goes on up, and its step (position of beta,
    i) is recorded when it is first reached."""
    n = rs.rank
    ordered = [unit_vector(n, i) for i in range(n)]
    position = {b: k for k, b in enumerate(ordered)}
    steps = []
    # breadth first: the loop also visits the roots appended inside it
    for k, beta in enumerate(ordered):
        for i in range(n):
            cur = list(beta)
            cur[i] -= 1
            down = 0
            while tuple(cur) in position:
                down += 1
                cur[i] -= 1
            up = list(beta)
            up[i] += 1
            up = tuple(up)
            if down > pairing(rs, i, beta) and up not in position:
                position[up] = len(ordered)
                ordered.append(up)
                steps.append((k, i))
    return tuple(ordered), tuple(steps)


def positive_roots(rs):
    """All positive roots, enumerated by height."""
    return _root_generation(rs)[0]


@lru_cache(maxsize=None)
def indexed_roots(rs):
    """(roots, index): the positive roots in height order followed by their
    negatives, so roots[k + N] == -roots[k] for N positive roots, and the
    map from each root to its position."""
    pos = positive_roots(rs)
    roots = pos + tuple(tuple(-x for x in b) for b in pos)
    return roots, {b: k for k, b in enumerate(roots)}


def root_steps(rs):
    """(k, i) for each non-simple positive root, in the order of
    indexed_roots from position rank on: roots[k] + alpha_i is that root
    and k is an earlier position."""
    return _root_generation(rs)[1]


@lru_cache(maxsize=None)
def root_set(rs):
    return frozenset(indexed_roots(rs)[0])


@lru_cache(maxsize=None)
def highest_roots(rs, component=0):
    """(highest root, highest short root) of one irreducible component."""
    nodes = rs.component_nodes(component)
    roots = subsystem_roots(rs, nodes)
    dominant = [b for b in roots if all(pairing(rs, i, b) >= 0 for i in nodes)]
    min_sq6 = min(_form6(rs, b, b) for b in roots)
    long_dom = [b for b in dominant if _form6(rs, b, b) == 6 * 2]
    short_dom = [b for b in dominant if _form6(rs, b, b) == min_sq6]
    if len(long_dom) != 1 or len(short_dom) != 1:
        raise ValueError("component is not irreducible")
    theta, theta_short = long_dom[0], short_dom[0]
    for b in roots:
        if any(theta[j] < b[j] for j in range(rs.rank)):
            raise ValueError("highest root is not coordinate-wise maximal")
    return theta, theta_short


@lru_cache(maxsize=None)
def two_rho(rs):
    total = [0] * rs.rank
    for b in positive_roots(rs):
        for j in range(rs.rank):
            total[j] += b[j]
    return tuple(total)


@lru_cache(maxsize=4096)
def subsystem_roots(rs, nodes):
    """The positive roots supported on nodes (a sorted tuple), by height."""
    outside = [j for j in range(rs.rank) if j not in nodes]
    return tuple(b for b in positive_roots(rs) if not any(b[j] for j in outside))


def longest_subsystem_word(rs, nodes):
    """A reduced word (first letter applied first) for the longest element
    of the parabolic subgroup generated by the given nodes."""
    nodes = sorted(set(nodes))
    p = {i: 1 for i in nodes}
    word = []
    while True:
        i = next((k for k in nodes if p[k] > 0), None)
        if i is None:
            break
        word.append(i)
        pi = p[i]
        for k in nodes:
            p[k] -= pi * rs.cartan[k][i]
    if len(word) != len(subsystem_roots(rs, tuple(nodes))):
        raise ValueError("longest word has wrong length")
    return word


def word_action(rs, word, w):
    for i in word:
        w = reflect(rs, i, w)
    return w


def word_matrix(rs, word):
    """Matrix of the word acting on simple-root coordinate columns."""
    cols = [word_action(rs, word, unit_vector(rs.rank, j)) for j in range(rs.rank)]
    return [list(row) for row in zip(*cols)]


def opposition(wl, nodes):
    """{i: j} on the given nodes with -w_0(alpha_i) = alpha_j, read off the
    columns of the matrix wl of the longest element w_0 of their parabolic
    subgroup."""
    perm = {}
    for i in nodes:
        img = [-row[i] for row in wl]
        ones = [k for k, x in enumerate(img) if x == 1]
        if sum(img) != 1 or len(ones) != 1 or ones[0] not in nodes:
            raise ValueError("-w_0 does not permute the simple roots")
        perm[i] = ones[0]
    return perm


def connected_components(nodes, linked):
    """Components of the graph on nodes with an edge i-j where linked(i, j),
    for a symmetric linked; each sorted, ordered by least node."""
    comps = []
    for i in sorted(nodes):
        near = [c for c in comps if any(linked(i, j) for j in c)]
        comps = [c for c in comps if c not in near] + [sorted([i, *sum(near, [])])]
    return sorted(comps)


@lru_cache(maxsize=None)
def minus_w0_permutation(rs):
    """The permutation i -> j with -w_0(alpha_i) = alpha_j."""
    nodes = range(rs.rank)
    perm = opposition(word_matrix(rs, longest_subsystem_word(rs, nodes)), nodes)
    return tuple(perm[i] for i in nodes)


def _node_signature(mat, i):
    return tuple(sorted(mat[i][j] * mat[j][i] for j in range(len(mat)) if j != i and mat[i][j]))


def _match_cartan(std, given):
    """Bijection f with std[i][j] == given[f(i)][f(j)], or None."""
    n = len(std)
    std_sig = [_node_signature(std, i) for i in range(n)]
    given_sig = [_node_signature(given, i) for i in range(n)]
    assignment = [None] * n
    used = [False] * n

    def backtrack(i):
        if i == n:
            return True
        for cand in range(n):
            if used[cand] or std_sig[i] != given_sig[cand]:
                continue
            ok = all(assignment[j] is None
                     or (std[i][j] == given[cand][assignment[j]]
                         and std[j][i] == given[assignment[j]][cand])
                     for j in range(n))
            if ok:
                assignment[i] = cand
                used[cand] = True
                if backtrack(i + 1):
                    return True
                assignment[i] = None
                used[cand] = False
        return False

    return list(assignment) if backtrack(0) else None


def identify_cartan(mat):
    """Identify an irreducible Cartan matrix.

    Returns (type, rank, mapping) with mapping[standard 0-based index] =
    input index, preferring A < B < C < D < E < F < G on coincidences.
    """
    n = len(mat)
    candidates = [t for t in "ABCDEFG" if VALID_RANKS[t](n)]
    for typ in candidates:
        std = cartan_matrix(typ, n)
        found = _match_cartan(std, mat)
        if found is not None:
            return typ, n, found
    return None
