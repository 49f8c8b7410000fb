"""Kac diagrams of the catalog families and their marked-diagram spaces.

A Kac diagram is a generalized affine Dynkin diagram with black and
white nodes; edges store both Cartan pairings.  Marking one white node
determines a flag variety of the black subdiagram: its factors are the
black components, crossed at the neighbors of the marked node.
"""

from dataclasses import dataclass

from .linalg import nullspace_line
from .rootsystem import (
    build_root_system,
    cartan_matrix,
    connected_components,
    highest_roots,
    identify_cartan,
    inner_product,
    memoised,
    pairing,
    positive_roots,
    subsystem_positive_count,
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
class Factor:
    type: str
    rank: int
    crossed: tuple
    name: str
    dual: bool


@dataclass(frozen=True)
class HomogeneousSpaceDescriptor:
    white: int
    factors: tuple
    name: str
    dim: int


def diagram_marks(kd):
    """Primitive positive integer null vector of the affine Cartan matrix."""
    marks = nullspace_line(kd.cartan())
    if marks is None or any(m <= 0 for m in marks):
        raise ValueError("diagram is not affine")
    return tuple(marks)


def validate_diagram(kd, inner):
    """Affineness and the order-two condition on the white marks."""
    marks = diagram_marks(kd)
    total = sum(marks[i] for i in kd.whites)
    expected = 2 if inner else 1
    if total != expected:
        raise ValueError(f"white marks sum to {total}, expected {expected}")
    if len(kd.whites) not in (1, 2):
        raise ValueError("expected one or two white nodes")
    return marks


def _factor_dim(typ, rank, crossed):
    rs = build_root_system(((typ, rank),))
    uncrossed = tuple(j for j in range(rank) if j + 1 not in crossed)
    return len(positive_roots(rs)) - subsystem_positive_count(rs, uncrossed)


def _name_factor(typ, rank, crossed):
    """(name, dual flag) for a crossed Dynkin diagram, 1-based crossing."""
    crossed = tuple(sorted(crossed))
    if typ == "A":
        m = rank
        if len(crossed) == 1:
            k = crossed[0]
            kk = min(k, m + 1 - k)
            dual = k > m + 1 - k
            name = f"P{m}" if kk == 1 else f"Gr({kk},{m + 1})"
            return name, dual
        if crossed == (1, m):
            return f"Flag(1,{m})", False
    if typ == "B" and len(crossed) == 1:
        k = crossed[0]
        return (f"Q{2 * rank - 1}" if k == 1 else f"OG({k},{2 * rank + 1})"), False
    if typ == "C" and len(crossed) == 1:
        k = crossed[0]
        if k == 1:
            return f"P{2 * rank - 1}", False
        return (f"LG({rank},{2 * rank})" if k == rank
                else f"IG({k},{2 * rank})"), False
    if typ == "D" and len(crossed) == 1:
        k = crossed[0]
        if k == 1:
            return f"Q{2 * rank - 2}", False
        if k <= rank - 2:
            return f"OG({k},{2 * rank})", False
        return f"OG({rank},{2 * rank})", k == rank
    if typ in ("E", "F", "G") and len(crossed) == 1:
        return f"{typ}{rank}/P{crossed[0]}", False
    tags = "-".join(str(c) for c in crossed)
    return f"{typ}{rank}/P{tags}", False


def component_descriptor(kd, white):
    """Descriptor of the flag variety attached to one marked white node."""
    if kd.colors[white] != "w":
        raise ValueError(f"node {white} is not white")
    cartan = kd.cartan()
    crossed_nodes = {j for j in kd.blacks if cartan[white][j] != 0}
    factors = []
    dim = 0
    for comp in connected_components(kd.blacks, lambda i, j: cartan[i][j] != 0):
        sub = [[cartan[i][j] for j in comp] for i in comp]
        ident = identify_cartan(sub)
        if ident is None:
            raise ValueError("black component has no Cartan type")
        typ, rank, mapping = ident
        crossed = tuple(sorted(std + 1 for std, local in enumerate(mapping)
                               if comp[local] in crossed_nodes))
        if not crossed:
            continue
        name, dual = _name_factor(typ, rank, crossed)
        factors.append(Factor(typ, rank, crossed, name, dual))
        dim += _factor_dim(typ, rank, crossed)
    name = " x ".join(f.name for f in factors) if factors else "pt"
    return HomogeneousSpaceDescriptor(
        white=white, factors=tuple(factors), name=name, dim=dim)


@memoised
def marked_diagrams(kd):
    """One descriptor per white node, in node order."""
    return tuple(component_descriptor(kd, w) for w in kd.whites)


# name normalization ----------------------------------------------------

def _canonical_factor(f):
    f = f.replace("*", "").replace("∨", "")
    if f.startswith("(") and f.endswith(")"):
        f = f[1:-1]
    if f in ("pt", "P0"):
        return []
    if f.startswith("Gr(") or f.startswith("IG(") or f.startswith("OG(") \
            or f.startswith("LG("):
        head = f[:2]
        a, b = f[3:-1].split(",")
        a, b = int(a), int(b)
        if head == "Gr":
            a = min(a, b - a)
            if a == 1:
                return [f"P{b - 1}"]
            if (a, b) == (2, 4):
                return ["Q4"]
            return [f"Gr({a},{b})"]
        if head == "IG":
            if a == 1:
                return [f"P{b - 1}"]
            if 2 * a != b:
                return [f"IG({a},{b})"]
            head = "LG"
        if head == "OG":
            if a == 1:
                return [f"Q{b - 2}"]
            if (a, b) == (2, 5):
                return ["P3"]
            return [f"OG({a},{b})"]
        if (a, b) == (2, 4):
            return ["Q3"]
        return [f"LG({a},{b})"]
    if f == "Q1":
        return ["P1"]
    if f == "Q2":
        return ["P1", "P1"]
    return [f]


def normalize_name(name):
    """Canonical sorted factor tuple of a product name."""
    out = []
    for part in name.split(" x "):
        out.extend(_canonical_factor(part.strip()))
    return tuple(sorted(out))


def name_dimension(name):
    """Dimension of a named generalized flag variety."""
    total = 0
    for part in normalize_name(name):
        total += _one_name_dimension(part)
    return total


def _one_name_dimension(f):
    if f == "pt":
        return 0
    if f.startswith("P") and f[1:].isdigit():
        return int(f[1:])
    if f.startswith("Q") and f[1:].isdigit():
        return int(f[1:])
    if f.startswith("Flag(1,"):
        m = int(f[:-1].split(",")[1])
        return 2 * m - 1
    if "(" in f:
        head = f[: f.index("(")]
        a, b = (int(x) for x in f[f.index("(") + 1:-1].split(","))
        if head == "Gr":
            return _factor_dim("A", b - 1, (a,))
        if head == "IG":
            return _factor_dim("C", b // 2, (a,))
        if head == "LG":
            return _factor_dim("C", a, (a,))
        if head == "OG":
            if b % 2:
                return _factor_dim("B", (b - 1) // 2, (a,))
            if 2 * a == b:
                return _factor_dim("D", a, (a,))
            return _factor_dim("D", b // 2, (a,))
    if "/P" in f:
        base, tag = f.split("/P")
        typ, rank = base[0], int(base[1:])
        crossed = tuple(int(x) for x in tag.split("-"))
        return _factor_dim(typ, rank, crossed)
    raise ValueError(f"unrecognized space name {f!r}")


# diagram builders -------------------------------------------------------

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


def affine_diagram(typ, rank):
    """Untwisted affine diagram: the Dynkin diagram of typ_rank (nodes 1..rank)
    and the white extending node 0, alpha_0 = -theta (Kac, Table Aff 1)."""
    rs = build_root_system(((typ, rank),))
    theta = highest_roots(rs)[0]
    b = _Builder()
    w = b.node("w")
    for i, node in enumerate(b.dynkin(typ, rank)):
        a_i0 = -pairing(rs, i, theta)
        if a_i0:
            # theta is long: <theta^vee, alpha_i> = (theta, alpha_i)
            b.edge(w, node, -int(inner_product(rs, theta, unit_vector(rank, i))), a_i0)
    return b.done()


def with_whites(kd, whites):
    """kd with exactly the given nodes white."""
    return KacDiagram(tuple("w" if i in whites else "b" for i in range(kd.size)),
                      kd.edges)


def _white_on(typ, rank, *attach, extra=False):
    """White node 0 joined to the given Bourbaki nodes of a black typ_rank,
    and to one more black node if extra."""
    b = _Builder()
    w = b.node("w")
    ids = b.dynkin(typ, rank)
    for i in attach:
        b.edge(w, ids[i - 1])
    if extra:
        b.edge(w, b.node("b"))
    return b.done()


def kac_hermitian_rank1():
    return with_whites(affine_diagram("A", 1), (0, 1))


def kac_sym2(r):
    """White node against so_{r+1}."""
    b = _Builder()
    b.so_arm(r + 1, b.node("w"), (-1, -2))
    return b.done()


def kac_wedge2(r):
    """White node against sp_{2r+2} at its second node."""
    b = _Builder()
    w = b.node("w")
    b.edge(w, b.dynkin("C", r + 1)[1])
    return b.done()


def kac_cycle(n, k):
    """Affine cycle of length n with whites at positions 0 and k."""
    return with_whites(affine_diagram("A", n - 1), (0, k))


def kac_tensor(n, r):
    """White node against so_r x so_{n-r} at the vector nodes."""
    b = _Builder()
    w = b.node("w")
    if r == 1:
        b.so_arm(n - 1, w, (-2, -1))
    else:
        b.so_arm(r, w, (-1, -1))
        b.so_arm(n - r, w, (-1, -1))
    return b.done()


def kac_tensor2(n):
    """Two white nodes against so_{n-2} at the vector nodes."""
    return with_whites(affine_diagram("B" if n % 2 else "D", n // 2), (0, 1))


def kac_lagr(r):
    """Two white nodes at the ends of a black A_{r-1} chain."""
    return with_whites(affine_diagram("C", r), (0, r))


def kac_sp_tensor(n, r):
    """White node against sp_{2r} x sp_{2n-2r} at the first nodes."""
    return with_whites(affine_diagram("C", n), (r,))


def kac_gl_half(m):
    """Two white nodes against gl_m inside so_{2m}."""
    return with_whites(affine_diagram("D", m), (0, m))


def kac_ei():
    return _white_on("C", 4, 4)


def kac_eii():
    return _white_on("A", 5, 3, extra=True)


def kac_eiii():
    return with_whites(affine_diagram("E", 6), (0, 1))


def kac_eiv():
    return _white_on("F", 4, 4)


def kac_ev():
    return with_whites(affine_diagram("E", 7), (2,))


def kac_evi():
    return _white_on("D", 6, 5, extra=True)


def kac_evii():
    return with_whites(affine_diagram("E", 7), (0, 7))


def kac_eviii():
    return _white_on("D", 8, 7)


def kac_eix():
    return _white_on("E", 7, 7, extra=True)


def kac_fi():
    return _white_on("C", 3, 3, extra=True)


def kac_fii():
    return _white_on("B", 4, 4)


def kac_g():
    return with_whites(affine_diagram("G", 2), (2,))


KAC_BUILDERS = {
    "affine_diagram": affine_diagram,
    "kac_hermitian_rank1": kac_hermitian_rank1,
    "kac_sym2": kac_sym2,
    "kac_wedge2": kac_wedge2,
    "kac_cycle": kac_cycle,
    "kac_tensor": kac_tensor,
    "kac_tensor2": kac_tensor2,
    "kac_lagr": kac_lagr,
    "kac_sp_tensor": kac_sp_tensor,
    "kac_gl_half": kac_gl_half,
    "kac_ei": kac_ei,
    "kac_eii": kac_eii,
    "kac_eiii": kac_eiii,
    "kac_eiv": kac_eiv,
    "kac_ev": kac_ev,
    "kac_evi": kac_evi,
    "kac_evii": kac_evii,
    "kac_eviii": kac_eviii,
    "kac_eix": kac_eix,
    "kac_fi": kac_fi,
    "kac_fii": kac_fii,
    "kac_g": kac_g,
}
