"""Kac diagrams of the catalog families, their marks and marked-diagram spaces.

A Kac diagram is a generalized affine Dynkin diagram with black and white nodes;
edges store both Cartan pairings, and the marks are read from the leaves up.  Marking
one white node determines a flag variety of the black subdiagram: its factors are the
black components, crossed at the neighbors of the marked node.  A catalog draws each
diagram with a KAC_BUILDERS call: affine_diagram (an untwisted affine diagram with
the given nodes white), white_on (one white node joined by simple bonds to black
Dynkin diagrams), or kac_sym2 and kac_tensor, which attach so_m arms by the
multiple bonds (-1, -4), (-1, -2) and (-2, -1) that white_on does not draw.
"""

import re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

from .rootsystem import (
    MAX_AMBIENT_RANK,
    _form6,
    VALID_RANKS,
    build_root_system,
    cartan_matrix,
    highest_roots,
    memoised,
    pairing,
    typed_components,
    unit_vector,
)


@dataclass(frozen=True)
class KacDiagram:
    colors: tuple
    edges: tuple

    @property
    def size(self):
        return len(self.colors)

    @property
    def whites(self):
        return tuple(i for i, c in enumerate(self.colors) if c == "w")

    @property
    def blacks(self):
        return tuple(i for i, c in enumerate(self.colors) if c == "b")

    def cartan(self):
        n = self.size
        mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j, aij, aji in self.edges:
            mat[i][j] = aij
            mat[j][i] = aji
        return mat


@dataclass(frozen=True)
class HomogeneousSpaceDescriptor:
    name: str
    dim: int


def diagram_marks(kd):
    """Primitive positive integer null vector of the affine Cartan matrix A.  On a
    tree, row i of A m = 0 gives m_i / m_parent, leaves first; else try all 1 (A_n^(1)).
    Connected with A m = 0 and m > 0 is affine (Kac, Thm 4.3; Tables Aff 1-3)."""
    n, links = kd.size, [{} for _ in range(kd.size or 1)]  # no node fails len(order) == n
    for i, j, aij, aji in kd.edges:
        if not (0 <= i < n and 0 <= j < n) or i == j or j in links[i] or max(aij, aji) >= 0:
            raise ValueError(f"Kac diagram edge {i, j, aij, aji} is not a new bond of 2 nodes")
        links[i][j], links[j][i] = aij, aji
    order, parent = [0], {0: None}  # breadth first from node 0
    for i in order:
        for j in links[i]:
            if j not in parent:
                parent[j] = i
                order.append(j)
    marks = [1] * n
    if len(order) == n and len(kd.edges) == n - 1:
        ratio = {}  # m_i / m_parent as a reduced pair, leaves first
        for i in reversed(order[1:]):
            s, d = 2, 1  # 2 + the sum of a_ic m_c / m_i over the children c, as s / d
            for c in links[i].keys() - {parent[i]}:
                s, d = s * ratio[c][1] + links[i][c] * ratio[c][0] * d, d * ratio[c][1]
            if s <= 0:  # m_parent / m_i = s / (-a_ip d) must be positive
                raise ValueError("diagram is not affine")
            g = gcd(num := -links[i][parent[i]] * d, s)
            ratio[i] = num // g, s // g
        marks[0] = prod(den for _, den in ratio.values())  # so each m_i is an integer
        for i in order[1:]:
            marks[i] = marks[parent[i]] * ratio[i][0] // ratio[i][1]
    if len(order) != n or any(2 * m + sum(a * marks[j] for j, a in links[i].items())
                              for i, m in enumerate(marks)):
        raise ValueError("diagram is not affine")
    g = gcd(*marks)
    return tuple(m // g for m in marks)


def validate_diagram(kd, inner):
    """Affineness and the order-two condition on the white marks."""
    marks = diagram_marks(kd)
    total = sum(marks[i] for i in kd.whites)
    expected = 2 if inner else 1
    if total != expected:
        raise ValueError(f"white marks sum to {total}, expected {expected}")
    return marks


def _positive_count(typ, n):
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
            "E": {6: 36, 7: 63, 8: 120}.get(n), "F": 24, "G": 6}[typ]


@lru_cache(maxsize=4096)  # bounded like _factors
def _factor_dim(typ, rank, crossed):
    """dim G/P = |Phi+| - |Phi+_L|, L the uncrossed nodes, from the counts
    of the diagram's type and of the type of each component of L."""
    if crossed == (1,) and typ in "ABCD":
        # P^n, Q^(2n-1), P^(2n-1), Q^(2n-2) at any rank
        return rank if typ == "A" else 2 * rank - 1 - (typ == "D")
    if rank > MAX_AMBIENT_RANK:
        raise ValueError(f"rank {rank} is above the ambient rank ceiling "
                         f"{MAX_AMBIENT_RANK}")
    kept = [j for j in range(rank) if j + 1 not in crossed]
    return _positive_count(typ, rank) - sum(_positive_count(t, len(comp)) for t, comp
                                            in typed_components(cartan_matrix(typ, rank), kept))


def _name_factor(typ, rank, crossed):
    """Name of a crossed Dynkin diagram, 1-based sorted crossing."""
    k, n = crossed[0], 2 * rank
    if typ == "A" and crossed == (1, rank):
        return f"Flag(1,{rank})"
    if len(crossed) == 1 and typ == "A":
        k = min(k, rank + 1 - k)
        return f"P{rank}" if k == 1 else f"Gr({k},{rank + 1})"
    if len(crossed) == 1 and typ == "B":
        return f"Q{n - 1}" if k == 1 else f"OG({k},{n + 1})"
    if len(crossed) == 1 and typ == "C":
        return f"P{n - 1}" if k == 1 else f"{'LG' if k == rank else 'IG'}({k},{n})"
    if len(crossed) == 1 and typ == "D":
        # the two spinor nodes rank-1 and rank share the name OG(rank,2rank)
        k = rank if k == rank - 1 else k
        return f"Q{n - 2}" if k == 1 else f"OG({k},{n})"
    return f"{typ}{rank}/P" + "-".join(map(str, crossed))


def component_descriptor(kd, white):
    """Descriptor of the flag variety attached to one marked white node."""
    if kd.colors[white] != "w":
        raise ValueError(f"node {white} is not white")
    cartan = kd.cartan()
    factors = []
    for typ, comp in typed_components(cartan, kd.blacks):
        # 1-based Bourbaki numbers of the nodes next to the white one
        crossed = tuple(k + 1 for k, j in enumerate(comp) if cartan[white][j])
        if crossed:
            factors.append((typ, len(comp), crossed))
    return HomogeneousSpaceDescriptor(
        name=" x ".join(_name_factor(*f) for f in factors) or "pt",
        dim=sum(_factor_dim(*f) for f in factors))


@memoised
def marked_diagrams(kd):
    """One descriptor per white node, in node order."""
    return tuple(component_descriptor(kd, w) for w in kd.whites)


# space names -------------------------------------------------------------

# A factor name is pt or P0 (a point), Pn, Qn, Gr/IG/LG/OG(a,b), Flag(1,n) or
# Xn/Pk[-k...], with an optional *, the dual mark, or parentheses.
_FACTOR = re.compile(r"([PQ])(\d+)|(\w+)\((\d+), *(\d+)\)|([A-G])(\d+)/P(\d+(?:-\d+)*)")

# The low-rank diagram isomorphisms A3 = D3 and B2 = C2 as 1-based node maps;
# each map is an involution, so it also maps the second diagram to the first.
_ISOMORPHIC = {(("A", 3), ("D", 3)): (2, 1, 3), (("B", 2), ("C", 2)): (2, 1)}


def canonical_type(label):
    """A type label up to the low-rank coincidences: B1 = C1 = A1, and the
    second type of an _ISOMORPHIC pair is the first; BCn labels stay."""
    typ = label.rstrip("0123456789")
    rank = int(label[len(typ):] or 0)
    if typ in ("B", "C") and rank == 1:
        return "A1"
    return next((f"{a}{n}" for (a, n), second in _ISOMORPHIC if second == (typ, rank)), label)


def _grassmannian(head, a, b):
    """Crossed diagram of head(a,b), or None when no diagram has that name."""
    r, odd = divmod(b, 2)
    return {"Gr": ("A", b - 1, (a,)),
            "Flag": ("A", b, (1, b)) if a == 1 else None,
            "IG": None if odd else ("C", r, (a,)),
            "LG": ("C", r, (a,)) if b == 2 * a else None,
            "OG": ("B", r, (a,)) if odd else ("D", r, (a,)) if a != r - 1 else None,
            }.get(head)


def _parse_factor(text):
    """The crossed diagrams (type, rank, 1-based crossing) a factor name
    stands for: Q1 is one A1 and Q2 two, as B1 and D2 have no diagram."""
    f = text.strip().replace("*", "").replace("∨", "")
    if f[:1] == "(" and f[-1:] == ")":
        f = f[1:-1]
    if f in ("pt", "P0"):
        return []
    m = _FACTOR.fullmatch(f)
    pq, n, head, a, b, typ, rank, tags = m.groups() if m else (None,) * 8
    if pq == "Q" and n in ("1", "2"):
        return [("A", 1, (1,))] * int(n)
    if pq == "P":
        d = ("A", int(n), (1,))
    elif pq == "Q":     # Q^(2r-1) and Q^(2r-2) are B_r and D_r crossed at node 1
        d = ("B" if int(n) % 2 else "D", int(n) // 2 + 1, (1,))
    elif head:
        d = _grassmannian(head, int(a), int(b))
    elif typ:
        d = (typ, int(rank), tuple(int(k) for k in tags.split("-")))
    else:
        d = None
    # a valid rank, and a crossing that rises strictly from 1 to at most it
    if not d or not VALID_RANKS[d[0]](d[1]) \
            or not 0 < d[2][0] <= d[2][-1] <= d[1] or d[2] != tuple(sorted(set(d[2]))):
        raise ValueError(f"unrecognized space name {text!r}")
    return [d]


def _canonical(typ, rank, crossed):
    """The representative of a crossed diagram up to the A_n flip k -> n+1-k
    and _ISOMORPHIC: least crossing, then least type letter.  E6's flip is
    not used, so E6/P1 and E6/P6 stay distinct names.  From the first type of
    a pair, the crossing, its flip and their images make up the class."""
    for (first, second), nodes in _ISOMORPHIC.items():
        if (typ, rank) == second:
            typ, rank = first
            crossed = tuple(sorted(nodes[c - 1] for c in crossed))
    same = [(crossed, typ, rank)]
    if typ == "A":
        same.append((tuple(rank + 1 - c for c in reversed(crossed)), typ, rank))
    for (first, second), nodes in _ISOMORPHIC.items():
        if (typ, rank) == first:
            same += [(tuple(sorted(nodes[k - 1] for k in c)), *second) for c, _, _ in same]
    crossed, typ, rank = min(same)
    return typ, rank, crossed


@lru_cache(maxsize=4096)  # bounded, so a long --catalog cannot grow it without end
def _factors(name):
    """Canonical crossed diagrams of the factors of a product name; each part
    is memoised as a name of its own, so each factor text is parsed once."""
    parts = name.split(" x ")
    return sum(map(_factors, parts), ()) if len(parts) > 1 \
        else tuple(_canonical(*d) for d in _parse_factor(name))


@lru_cache(maxsize=4096)  # bounded like _factors
def normalize_name(name):
    """Canonical sorted factor tuple of a product name."""
    return tuple(sorted(_name_factor(*d) for d in _factors(name)))


def name_dimension(name):
    """Dimension of a named generalized flag variety."""
    return sum(_factor_dim(*d) for d in _factors(name))


# diagram builders -------------------------------------------------------

def _require(kinds, what, **args):
    """Refuse, by name, a builder argument whose type is not among kinds."""
    for name, x in args.items():
        if type(x) not in kinds:
            raise ValueError(f"{name} = {x!r} is not {what}")


class _Builder:
    def __init__(self):
        self.colors = []
        self.edges = []

    def node(self, color):
        self.colors.append(color)
        return len(self.colors) - 1

    def edge(self, i, j, aij=-1, aji=-1):
        self.edges.append((i, j, aij, aji))

    def dynkin(self, typ, n):
        """Add n black nodes in Bourbaki order, joined as in cartan_matrix."""
        _require((int,), "an int", rank=n)
        # a letter outside A-G, or e.g. so_2 or sp_2 read as D1 or C1
        if type(typ) is not str or typ not in VALID_RANKS or not VALID_RANKS[typ](n):
            raise ValueError(f"invalid component {typ}{n}")
        if (rank := self.colors.count("b") + n) > MAX_AMBIENT_RANK:  # with those so far
            raise ValueError(f"rank {rank} is above the ambient rank ceiling {MAX_AMBIENT_RANK}")
        ids = [self.node("b") for _ in range(n)]
        a = cartan_matrix(typ, n)
        for i in range(n):
            for j in range(i + 1, n):
                if a[i][j]:
                    self.edge(ids[i], ids[j], a[i][j], a[j][i])
        return ids

    def done(self):
        return KacDiagram(tuple(self.colors), tuple(self.edges))

    def so_arm(self, m, white, wedge):
        """Attach the Dynkin diagram of so_m at its vector node(s)."""
        if m == 3:
            b = self.node("b")
            self.edge(white, b, wedge[0], wedge[1] * 2)
        elif m == 4:
            for _ in range(2):
                b = self.node("b")
                self.edge(white, b, *wedge)
        else:
            self.edge(white, self.dynkin("B" if m % 2 else "D", m // 2)[0], *wedge)


def affine_diagram(typ, rank, *whites):
    """Untwisted affine diagram: the Dynkin diagram of typ_rank (nodes 1..rank)
    and the extending node 0, alpha_0 = -theta (Kac, Table Aff 1).  The given
    nodes are white; with none given, node 0 alone is."""
    b = _Builder()
    w = b.node("w")
    ids = b.dynkin(typ, rank)  # checks typ and rank before they key a cache
    rs = build_root_system(((typ, rank),))
    theta = highest_roots(rs)[0]
    for i, node in enumerate(ids):
        a_i0 = -pairing(rs, i, theta)
        if a_i0:
            # theta is long, so <theta^vee, alpha_i> = (theta, alpha_i), an integer
            b.edge(w, node, -(_form6(rs, theta, unit_vector(rank, i)) // 6), a_i0)
    whites = whites or (0,)
    if not all(x in range(rank + 1) for x in whites):
        raise ValueError(f"white nodes {list(whites)} are not all among the {rank + 1} nodes")
    return KacDiagram(tuple("w" if i in whites else "b" for i in range(rank + 1)), tuple(b.edges))


def white_on(components, attach):
    """White node 0, then the black Dynkin diagrams of the (type, rank)
    components in order; node 0 is joined to the given 1-based black nodes."""
    _require((list, tuple), "a list", components=components, attach=attach)
    b = _Builder()
    w = b.node("w")
    for comp in components:
        if type(comp) is not tuple or len(comp) != 2:
            raise ValueError(f"component {comp!r} is not a (type, rank) pair")
        b.dynkin(*comp)
    for i in attach:  # black node i is node i of the diagram
        if i not in range(1, len(b.colors)):
            raise ValueError(f"attach node {i!r} is not among the black nodes "
                             f"1..{len(b.colors) - 1}")
        b.edge(w, i)
    return b.done()


def kac_sym2(r):
    """White node against so_{r+1}."""
    _require((int,), "an int", r=r)
    b = _Builder()
    b.so_arm(r + 1, b.node("w"), (-1, -2))
    return b.done()


def kac_tensor(n, r):
    """White node against so_r x so_{n-r} at the vector nodes."""
    _require((int,), "an int", n=n, r=r)
    b = _Builder()
    w = b.node("w")
    if r == 1:
        b.so_arm(n - 1, w, (-2, -1))
    else:
        b.so_arm(r, w, (-1, -1))
        b.so_arm(n - r, w, (-1, -1))
    return b.done()


# the callables of a catalog's kac expressions
KAC_BUILDERS = {
    "affine_diagram": affine_diagram,
    "white_on": white_on,
    "kac_sym2": kac_sym2,
    "kac_tensor": kac_tensor,
}
