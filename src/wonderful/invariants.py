"""Numerical invariants of the minimal rational curve families."""

from dataclasses import dataclass
from operator import add, mul

from .curves import build_colors, minimal_covering_classes
from .involution import sigma_root
from .rootsystem import (
    _form6,
    highest_root,
    highest_roots,
    memoised,
    pairing,
    positive_roots,
    root_codes,
    two_rho,
    typed_components,
    unpack,
)

O_MIN = "O_min"
O_SUM = "O_sum_sigma"


@memoised
def kappa_and_sigma(rrs):
    """(kappa, Sigma): the sum of positive roots sent to negatives, and
    the sum of the restricted simple roots."""
    inv = rrs.involution
    rs = inv.root_system
    codes = root_codes(rs)[0]
    npos, perm = len(codes) // 2, inv.sigma_perm
    kappa = sum(codes[k] for k in range(npos) if perm[k] >= npos)
    return unpack(kappa, rs.rank), tuple(map(sum, zip(*rrs.restricted_simple)))


@memoised
def dimensions(rrs):
    """(boundary_degree, dim_family, dim_nilpotent_orbit, dim_hc)."""
    rs, theta_bar = rrs.root_system, rrs.theta_bar
    top = _form6(rs, theta_bar, theta_bar)
    # <theta_bar^vee, w> = 2 (theta_bar, w) / (theta_bar, theta_bar)
    (t, r1), (s, r2) = [divmod(2 * _form6(rs, theta_bar, w), top) for w in kappa_and_sigma(rrs)]
    if r1 or r2:
        raise ValueError("non-integral dimension pairing")
    if s not in (1, 2):
        raise ValueError(f"boundary degree {s} is not 1 or 2")
    return s, t + s - 2, 2 * t, t - 1


@memoised
def sigma_theta_is_minus_theta(inv):
    """Whether sigma sends the highest root to its negative; group type
    (two ambient components swapped by sigma) counts as yes."""
    rs = inv.root_system
    if len(rs.components) == 2:
        return True
    theta = highest_roots(rs)[0]
    return sigma_root(inv, theta) == tuple(-x for x in theta)


def orbit_type(inv):
    return O_MIN if sigma_theta_is_minus_theta(inv) else O_SUM


@memoised
def check_strong_orthogonality(inv):
    """For sigma(theta) != -theta: theta and -sigma(theta) are strongly
    orthogonal, and -sigma(theta) is the highest root of its component
    of the subsystem orthogonal to theta, compared with its closed form."""
    rs = inv.root_system
    theta = highest_roots(rs)[0]
    img = sigma_root(inv, theta)
    if img == tuple(-x for x in theta):
        raise ValueError("sigma(theta) = -theta: nothing to check")
    if _form6(rs, theta, img) != 0:
        raise ValueError("theta and sigma(theta) are not orthogonal")
    # a root orthogonal to theta is strongly orthogonal to it (theta is long)
    # and supported on the theta-orthogonal nodes (theta is dominant)
    neg = tuple(-x for x in img)
    orth = {i for i in range(rs.rank) if pairing(rs, i, theta) == 0}
    support = {i for i in range(rs.rank) if neg[i] != 0}
    # a root dominates every root of its component iff it is the highest one
    comps = [c for c in typed_components(rs.cartan, orth) if support & set(c[1])]
    if len(comps) != 1 or highest_root(*comps[0], rs.rank) != neg:
        raise ValueError("-sigma(theta) is not the highest root of its "
                         "component of the orthogonal subsystem")
    return True


def dim_minimal_orbit(rs):
    """Dimension of the minimal nilpotent orbit: <theta^vee, 2 rho>, an
    integer as theta^vee is a coroot and 2 rho is in the root lattice."""
    theta = highest_roots(rs)[0]
    return 2 * _form6(rs, theta, two_rho(rs)) // _form6(rs, theta, theta)


def nilpotent_orbit_dimension(inv):
    """Dimension of the nilpotent orbit attached to the family, computed
    independently of kappa."""
    rs = inv.root_system
    if sigma_theta_is_minus_theta(inv):  # a group case counts each component
        return len(rs.components) * dim_minimal_orbit(rs)
    check_strong_orthogonality(inv)
    theta = highest_roots(rs)[0]
    img = sigma_root(inv, theta)
    # h = theta^vee - img^vee = S(u) / d with S(u)_j = gram6[j][j] u_j, so
    # <h, beta> = 2 (u, beta) / d = <w, beta> / d for the integer row w
    t6, i6 = _form6(rs, theta, theta), _form6(rs, img, img)
    u = [a * i6 - b * t6 for a, b in zip(theta, img)]
    d = t6 * i6
    w = [2 * sum(x * g for x, g in zip(u, col) if x) for col in zip(*rs.gram6)]
    g1 = g2 = 0
    # -beta pairs to -<w, beta>, so a positive root counts for the pair
    for beta in positive_roots(rs):
        val = abs(sum(map(mul, w, beta)))
        if val == d:
            g1 += 1
        elif val == 2 * d:
            g2 += 1
    return g1 + 2 * g2


def dim_isotropy_complement(rrs):
    """Dimension of the -1 eigenspace: restricted rank plus half the roots sigma
    moves: the sum of the multiplicities, which count each moved positive root once."""
    return rrs.rank + sum(rrs.multiplicities)


@memoised
def is_fano(rrs):
    """Whether X is Fano.  -K_X restricts to the closed orbit G/P with weight
    kappa + Sigma, and a line bundle on a wonderful variety is ample iff its
    restriction to the closed orbit is (Brion, Duke Math. J. 58, 1989): iff
    its weight pairs positively with every white simple coroot."""
    weight = tuple(map(add, *kappa_and_sigma(rrs)))
    return all(pairing(rrs.root_system, i, weight) > 0
               for i in rrs.involution.satake.white_nodes)


@memoised
def is_hermitian(rrs):
    """Moore's criterion: G/K is Hermitian iff it is not a group case, its
    restricted type is C_r or BC_r (A1 = C1, B2 = C2) and its longest
    restricted roots have multiplicity 1 (Amer. J. Math. 86, 1964).  The Weyl group
    is transitive on them and keeps multiplicities (Helgason, Ch. X), so one is
    read: twice the doubled simple root on BC_r, else the longest simple root."""
    rs = rrs.root_system
    letter = rrs.type_label.rstrip("0123456789")
    if len(rs.components) == 2 or (letter not in ("C", "BC")
                                   and rrs.type_label not in ("A1", "B2")):
        return False
    sq = [_form6(rs, v, v) for v in rrs.restricted_simple]
    codes, d = rrs.restricted_codes, rrs.doubled_index
    return rrs.multiplicities[sq.index(max(sq)) if d is None else codes.index(2 * codes[d])] == 1


# VMRT of restricted type A_r, r >= 2, by the common multiplicity m: the
# rank-one locus of the Hermitian (r+1) x (r+1) matrices over R, C, H or O
# (Landsberg-Manivel, Comment. Math. Helv. 78, 2003); O only for r = 2
_TYPE_A_VMRT = {1: ("P{r}", (2,)), 2: ("P{r} x P{r}", (1, 1)),
                4: ("Gr(2,{n})", (1,)), 8: ("E6/P6", (1,))}


def type_a_vmrt(rrs):
    """(name, embedding degree) of the VMRT for restricted type A_r, r >= 2."""
    r, mults = rrs.rank, sorted(set(rrs.multiplicities))
    m = mults[0] if len(mults) == 1 else None
    if m not in _TYPE_A_VMRT or (m == 8 and r != 2):
        raise ValueError(f"no VMRT rule for restricted type {rrs.type_label} "
                         f"with multiplicities {mults}")
    name, emb = _TYPE_A_VMRT[m]
    return name.format(r=r, n=2 * r + 2), emb


@dataclass(frozen=True)
class VmrtReport:
    restricted_type: str
    rank: int
    sigma_theta_is_minus_theta: bool
    orbit_type: str
    boundary_degree: int
    dim_family: int
    dim_nilpotent_orbit: int
    dim_hc: int
    dim_p: int
    hermitian: bool
    exceptional: bool
    fano: bool
    picard_rank: int
    minimal_classes: tuple
    vmrt_components: tuple
    embedding_degree: tuple

    @property
    def n_families(self):
        return len(self.minimal_classes)


def vmrt_report(rrs, hc_components, embedding_degree):
    """Assemble the report; hc_components is a list of (name, dim) pairs
    for the marked-diagram descriptors.  embedding_degree is the stored
    multidegree, used only where the engine has no rule: outside
    restricted type A of rank >= 2."""
    inv = rrs.involution
    s, dim_family, dim_orbit, dim_hc = dimensions(rrs)
    hermitian = is_hermitian(rrs)
    exceptional = rrs.exceptional_pair is not None
    dim_p = dim_isotropy_complement(rrs)
    letter = rrs.type_label.rstrip("0123456789")

    if rrs.type_label == "A1":
        if dim_family != dim_p - 1:
            raise ValueError("rank-one family dimension mismatch")
        components = ((f"P{dim_p - 1}", dim_family),)
    elif letter == "A":
        name, embedding_degree = type_a_vmrt(rrs)
        components = ((name, dim_family),)
    else:
        expected = 2 if hermitian and not exceptional else 1
        names = list(hc_components)
        if exceptional:
            names = list(dict.fromkeys(names))
        if len(names) != expected:
            raise ValueError(f"expected {expected} VMRT components, "
                             f"got {len(names)}")
        for _, dim in names:
            if dim != dim_hc:
                raise ValueError("VMRT component dimension mismatch")
        components = tuple(names)

    return VmrtReport(
        restricted_type=rrs.type_label,
        rank=rrs.rank,
        sigma_theta_is_minus_theta=sigma_theta_is_minus_theta(inv),
        orbit_type=orbit_type(inv),
        boundary_degree=s,
        dim_family=dim_family,
        dim_nilpotent_orbit=dim_orbit,
        dim_hc=dim_hc,
        dim_p=dim_p,
        hermitian=hermitian,
        exceptional=exceptional,
        fano=is_fano(rrs),
        picard_rank=len(build_colors(inv)),
        minimal_classes=minimal_covering_classes(rrs),
        vmrt_components=components,
        embedding_degree=embedding_degree,
    )
