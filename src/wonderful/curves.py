"""Colors and curve classes on the compactification.

Colors index a basis of the Picard group; they are read off the stored
cases of the white nodes.  Curve classes are integer vectors over the
colors; the class of a covering family of minimal rational curves solves
psi(gamma) = theta_bar_covector.  Each function that needs the colors
reads them off the restricted root system it is given.
"""

from itertools import product

from .involution import ORTHOGONAL, REAL
from .rootsystem import _form6, memoised, minus_w0_permutation, unit_vector


@memoised
def build_colors(inv):
    """Colors: white nodes i and tau(i) share one exactly when i is
    ORTHOGONAL, else i is its own; their number is the Picard rank.  That
    is sigma(alpha_i) = -alpha_tau(i) with a_{i,tau(i)} = 0; README proves it."""
    return tuple(sorted({tuple(sorted({i, inv.tau[i]})) if inv.cases[i] == ORTHOGONAL
                         else (i,) for i in inv.satake.white_nodes}))


def lambda_weight(inv, color):
    """Restriction of O_X(color) to the closed orbit, in fundamental
    weight coordinates."""
    rs = inv.root_system
    n = rs.rank
    if len(color) == 2:
        return tuple(1 if k in color else 0 for k in range(n))
    i = color[0]
    e = unit_vector(n, i)
    if inv.cases[i] == REAL:
        return tuple(2 * x for x in e)
    return e


def degree_functional(rs, eta):
    """lam -> <eta, lam - w_0 lam> on fundamental weight coordinates.

    w_0 omega_j = -omega_iota(j) for the permutation iota = -w_0 of the
    simple roots, and <eta, omega_k> = eta_k."""
    iota = minus_w0_permutation(rs)
    weights = tuple(eta[j] + eta[iota[j]] for j in range(rs.rank))

    def degree(lam):
        return sum(w * x for w, x in zip(weights, lam))

    return degree


@memoised
def minimal_covering_classes(rrs):
    """Curve classes gamma with psi(gamma) = theta_bar_covector,
    ordered with the lower-numbered exceptional color first."""
    expansion, witness = rrs.theta_bar_expansion, rrs.exceptional_pair
    colors = build_colors(rrs.involution)
    color_fiber = [rrs.node_fiber[c[0]] for c in colors]
    per_index_colors = [[ci for ci, f in enumerate(color_fiber) if f == idx]
                        for idx in range(rrs.rank)]

    # psi(gamma) = sum_c gamma_c ahat_vee(c), and every class splits each
    # fiber's coefficient c_k among that fiber's colors, so psi(gamma) =
    # sum_k c_k ahat_vee_k = theta_bar_covector, as build_restricted proved
    choices = [[p for p in product(range(m + 1), repeat=len(cols)) if sum(p) == m]
               for m, cols in zip(expansion, per_index_colors)]
    classes = []
    for combo in product(*choices):
        gamma = [0] * len(colors)
        for cols, part in zip(per_index_colors, combo):
            for ci, coeff in zip(cols, part):
                gamma[ci] = coeff
        classes.append(tuple(gamma))
    classes = tuple(sorted(classes, reverse=True))
    expected = 1 if witness is None else 2
    if len(classes) != expected:
        raise ValueError(f"expected {expected} minimal classes, "
                         f"found {len(classes)}")
    if witness is not None:
        idx = rrs.node_fiber[witness[0]]
        if expansion[idx] != 1 or len(per_index_colors[idx]) != 2:
            raise ValueError("exceptional index is not a simple split")
    return classes


def pushforward_class(rrs):
    """Class of the theta_bar cocharacter curve over the color basis,
    verified against the degree functional on every color weight."""
    inv = rrs.involution
    classes = minimal_covering_classes(rrs)
    if rrs.exceptional_pair is not None:
        expected = tuple(a + b for a, b in zip(classes[0], classes[1]))
    else:
        expected = tuple(2 * c for c in classes[0])
    # degree_functional is linear in eta; S(theta_bar) = top theta_bar_covector
    rs = rrs.root_system
    top = _form6(rs, rrs.theta_bar, rrs.theta_bar)
    degree = degree_functional(rs, [rs.gram6[j][j] * x for j, x in enumerate(rrs.theta_bar)])
    for ci, c in enumerate(build_colors(inv)):
        if degree(lambda_weight(inv, c)) != expected[ci] * top:
            raise ValueError("pushforward class disagrees with the degree "
                             "functional")
    return expected
