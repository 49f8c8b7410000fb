"""Restricted root system of an involution.

The restriction of a root beta is beta - sigma(beta), in ambient simple-root
coordinates.  The distinct restrictions of the white simple roots form the restricted
simple system, its Cartan matrix read off pairings <alpha_i^vee, v>; the restricted
coroot of a restriction is its metric coroot 2v/(v,v) in ambient coroot coordinates.
"""

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .linalg import row_rank, solve_scaled
from .involution import NONREDUCED
from .rootsystem import (
    _form6,
    highest_roots,
    identify_cartan,
    pack,
    pairing,
    root_codes,
    unpack,
)


class RestrictedRootSystem(namedtuple(
        "RestrictedRootSystem", "involution restricted_simple node_fiber restricted_codes "
        "multiplicities type_label rank doubled_index cartan theta_bar exceptional_pair "
        "theta_bar_expansion")):
    """The restricted root system of an involution.  node_fiber is the
    restricted index of each white node, None on a black one;
    restricted_codes are the packed restricted positive roots,
    restricted_simple first, and multiplicities[k] counts the positive roots
    restricting to restricted_codes[k]; exceptional_pair is the first
    (i, tau(i)) with i nonreduced and moved, else None; theta_bar_expansion
    holds the nonnegative integer coefficients of theta_bar_covector over
    the primitive coroots {ahat_vee}."""

    @property
    def root_system(self):
        return self.involution.root_system


def _left_inverse(basis):
    """(m, d): an integer matrix m and an integer d != 0 such that m / d,
    the pseudo-inverse (B B^T)^-1 B of the basis rows B, is a left inverse
    of B on its span.  Raises ValueError if the basis is dependent."""
    scale = lcm(*(x.denominator for row in basis for x in row))
    ints = [[int(x * scale) for x in row] for row in basis]
    m, d = solve_scaled([[sum(a * b for a, b in zip(x, y)) for y in ints] for x in ints],
                        ints)
    return [[x * scale for x in row] for row in m], d


def _coefficients(basis, left, v):
    """(row, d): integers with row / d the coefficients of v over the basis,
    where left = _left_inverse(basis); None if v is zero or outside the span."""
    if not any(v):
        return None
    m, d = left
    scaled = [sum(a * b for a, b in zip(row, v)) for row in m]
    for k, x in enumerate(v):
        if sum(c * y[k] for c, y in zip(scaled, basis)) != d * x:
            return None
    return scaled, d


def expand(basis, v):
    """Coefficients of v over a linearly independent basis, or None."""
    if not any(v):
        return None
    found = _coefficients(basis, _left_inverse(basis), v)
    return None if found is None else [Fraction(c, found[1]) for c in found[0]]


def build_restricted(inv):
    """Build and validate the restricted root system of an involution."""
    rs = inv.root_system
    (codes, index), sigma_perm = root_codes(rs), inv.sigma_perm
    fibers = {}
    for i in inv.satake.white_nodes:
        # alpha_i sits at position i of the root codes
        fibers.setdefault(codes[i] - codes[sigma_perm[i]], []).append(i)
    dbar = [unpack(v, rs.rank) for v in fibers]
    rank = len(dbar)
    node_fiber = [None] * rs.rank
    for k, v in enumerate(fibers.values()):
        for i in v:
            node_fiber[i] = k

    # the codes open with the simple roots, so mult opens with the fibers in order
    mult = {}
    for k in range(len(codes) // 2):
        v = codes[k] - codes[sigma_perm[k]]
        if v:
            mult[v] = mult.get(v, 0) + 1
    if row_rank(dbar) < rank:
        raise ValueError("restricted simple roots are linearly dependent")

    doubled = [i for i, v in enumerate(fibers) if 2 * v in mult]
    if len(doubled) > 1:
        raise ValueError("more than one doubled restricted simple root")
    doubled_index = doubled[0] if doubled else None

    # for i = f[0] in fiber k, sigma is an isometric involution with sigma v_l =
    # -v_l, so 6(v_k, v_l) = 12(alpha_i, v_l) = gram6[i][i] <alpha_i^vee, v_l>, and
    # 2(v_k, v_l)/(v_k, v_k) = 2<alpha_i^vee, v_l>/(2 - p), p the case pairing of i:
    # an integer for p = 1, 0, and for p = -2 (v_k = 2 alpha_i) <alpha_i^vee, v_l> = 2 a_ij
    pairs = [[pairing(rs, f[0], w) for w in dbar] for f in fibers.values()]
    sq6 = [rs.gram6[f[0]][f[0]] * p[k] for k, (f, p) in enumerate(zip(fibers.values(), pairs))]
    cartan = [[2 * x // p[k] for x in p] for k, p in enumerate(pairs)]
    ident = identify_cartan(cartan)
    if ident is None:
        raise ValueError("restricted simple system has no Cartan type")
    letter = ident[0]
    nonreduced = doubled_index is not None
    if nonreduced:
        if letter not in ("A", "B") or (letter == "A" and rank != 1):
            raise ValueError("nonreduced restriction without B/BC shape")
        type_label = f"BC{rank}"
    else:
        type_label = f"{letter}{rank}"

    # sigma fixes the black simple roots and is linear, as root_steps builds
    # it, so the restriction of beta is the nonnegative combination with
    # coefficient sum(beta[i] for i in fiber k) on the k-th restricted
    # simple root.  Every restricted positive root is res(beta) with
    # beta <= theta, on one component or in a group datum (fibers
    # {i, i + n}), so res(theta) dominates; it is 0 when theta's component
    # is black
    theta = highest_roots(rs)[0]
    k = index[pack(theta)]
    theta_bar = unpack(codes[k] - codes[sigma_perm[k]], rs.rank)
    if not any(theta_bar):
        raise ValueError("the highest root's component has no white node")

    # coroot(u) = S(u) / 6(u, u) with S(u)_j = gram6[j][j] u_j.  For a white
    # node i of case pairing p, 6(v, v) = (2 - p) gram6[i][i], so the case
    # formula S(v) / ({4, 2, 1}[case] gram6[i][i]) is the metric coroot and
    # agrees across a fiber, a tau-orbit; it is halved on a nonreduced one
    top = _form6(rs, theta_bar, theta_bar)
    theta_bar_expansion = []
    for idx, fiber in enumerate(fibers.values()):
        m = 2 if idx == doubled_index else 1
        if (inv.cases[fiber[0]] == NONREDUCED) != (m == 2):
            raise ValueError("primitive coroot disagrees with the longest multiple")
        # theta_bar = sum_k c_k v_k and ahat_vee_k = S(v_k) / (m_k 6(v_k, v_k))
        # with S linear, so theta_bar_covector = S(theta_bar) / top has the
        # coefficient below on ahat_vee_k
        q, r = divmod(sum(theta[i] for i in fiber) * m * sq6[idx], top)
        if r:
            raise ValueError("theta_bar covector is not a nonnegative integer "
                             "combination of the primitive coroots")
        theta_bar_expansion.append(q)

    return RestrictedRootSystem(
        involution=inv,
        restricted_simple=tuple(dbar),
        node_fiber=tuple(node_fiber),
        restricted_codes=tuple(mult),
        multiplicities=tuple(mult.values()),
        type_label=type_label,
        rank=rank,
        doubled_index=doubled_index,
        cartan=tuple(map(tuple, cartan)),
        theta_bar=theta_bar,
        exceptional_pair=next(((i, j) for i, j in enumerate(inv.tau)
                               if j != i and inv.cases[i] == NONREDUCED), None),
        theta_bar_expansion=tuple(theta_bar_expansion),
    )
