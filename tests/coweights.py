"""Fraction coweights: the reference the integer coroot pairings are tested on.

The engine never builds a coweight to pair it: for a root u, <u^vee, w> is
the ratio 2 (u, w) / (u, u) of two integer 6-scaled forms
(`rootsystem._form6`), and psi(gamma) = theta_bar^vee is compared over one
common denominator.  These helpers compute the same data the direct way, in
`fractions.Fraction` coordinates over the simple coroots, so the tests can
compare the two.
"""

from fractions import Fraction

from wonderful.curves import degree_functional
from wonderful.rootsystem import coroot, minus_w0_permutation, pairing


def pair_coweight(rs, cw, w):
    """<c, w> for a coweight c in simple-coroot coordinates."""
    return sum(c * pairing(rs, i, w) for i, c in enumerate(cw) if c)


def coroots(rrs):
    """(abar_vee, ahat_vee) per restricted simple root: its coroot and
    the coroot of its longest multiple."""
    rs, out = rrs.root_system, []
    for k, v in enumerate(rrs.restricted_simple):
        m = 2 if k == rrs.doubled_index else 1
        out.append((coroot(rs, v), coroot(rs, tuple(m * x for x in v))))
    return tuple(out)


def restricted_coroot(rrs, i):
    """(abar_vee, ahat_vee) for the white node i."""
    return coroots(rrs)[rrs.node_fiber[i]]


def color_coroot(rrs, color):
    """The primitive coroot ahat_vee attached to a color."""
    return restricted_coroot(rrs, color[0])


def psi(rrs, colors, gamma):
    """Image of a curve class under psi: sum of gamma_c * ahat_vee(c)."""
    rs = rrs.root_system
    total = [Fraction(0)] * rs.rank
    for c, coeff in zip(colors, gamma):
        vee = color_coroot(rrs, c)[1]
        for k in range(rs.rank):
            total[k] += coeff * vee[k]
    return tuple(total)


def boundary_pairing(rrs, colors):
    """Integer matrix <ahat_vee(color), restricted simple root>."""
    rs = rrs.root_system
    rows = []
    for v in rrs.restricted_simple:
        row = []
        for c in colors:
            val = pair_coweight(rs, color_coroot(rrs, c)[1], v)
            if val.denominator != 1:
                raise ValueError("boundary pairing is not integral")
            row.append(int(val))
        rows.append(tuple(row))
    return tuple(rows)


def cocharacter_curve(rrs, eta):
    """Limit data of the curve traced by a dominant cocharacter eta."""
    rs = rrs.root_system
    iota = minus_w0_permutation(rs)
    at_zero = []
    at_infinity = []
    embedding = False
    for idx, v in enumerate(rrs.restricted_simple):
        p = pair_coweight(rs, eta, v)
        if p != 0:
            at_zero.append(idx)
            if p == 1:
                embedding = True
        # (w_0 v)_k = -v_iota(k)
        if pair_coweight(rs, eta, tuple(v[iota[k]] for k in range(rs.rank))) != 0:
            at_infinity.append(idx)
    return {
        "orbit_at_zero": tuple(at_zero),
        "orbit_at_infinity": tuple(at_infinity),
        "is_embedding": embedding,
        "degree": degree_functional(rs, eta),
    }
