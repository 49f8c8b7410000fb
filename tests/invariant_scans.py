"""The root scans that Moore's criterion and the strong-orthogonality check
are tested on.

The engine reads the multiplicity of one longest restricted root
(`invariants.is_hermitian`) and compares -sigma(theta) with the closed-form
highest root of its component of the theta-orthogonal subsystem
(`invariants.check_strong_orthogonality`).  These helpers decide the same
the slow way, from the length of every restricted positive root and from
every root of that subsystem, so the tests can compare the two.
"""

from wonderful.involution import sigma_root
from wonderful.rootsystem import (
    _form6,
    connected_components,
    highest_roots,
    pack,
    pairing,
    root_codes,
    unpack,
)
from weyl_words import subsystem_roots


def restricted_positive(rrs):
    """The restricted positive roots, unpacked from rrs.restricted_codes in
    the order of rrs.multiplicities."""
    return tuple(unpack(v, rrs.root_system.rank) for v in rrs.restricted_codes)


def hermitian_by_scan(rrs):
    """Moore's criterion: not a group case, restricted type C_r or BC_r
    (A1 = C1, B2 = C2), and every restricted root of the longest length has
    multiplicity 1."""
    rs = rrs.root_system
    letter = rrs.type_label.rstrip("0123456789")
    if len(rs.components) == 2 or (letter not in ("C", "BC")
                                   and rrs.type_label not in ("A1", "B2")):
        return False
    sq = [_form6(rs, v, v) for v in restricted_positive(rrs)]
    longest = max(sq)
    return all(m == 1 for m, q in zip(rrs.multiplicities, sq) if q == longest)


def strong_orthogonality_by_scan(inv):
    """check_strong_orthogonality with the same messages, its last step a
    scan: -sigma(theta) dominates every root of the components of the
    theta-orthogonal subsystem that meet its support."""
    rs = inv.root_system
    theta = highest_roots(rs)[0]
    img = sigma_root(inv, theta)
    if img == tuple(-x for x in theta):
        raise ValueError("sigma(theta) = -theta: nothing to check")
    if _form6(rs, theta, img) != 0:
        raise ValueError("theta and sigma(theta) are not orthogonal")
    index = root_codes(rs)[1]
    if pack(theta) + pack(img) in index or pack(theta) - pack(img) in index:
        raise ValueError("theta and sigma(theta) are not strongly orthogonal")
    neg = tuple(-x for x in img)
    orth = {i for i in range(rs.rank) if pairing(rs, i, theta) == 0}
    support = {i for i in range(rs.rank) if neg[i] != 0}
    if not support <= orth:
        raise ValueError("-sigma(theta) is not supported on the "
                         "theta-orthogonal subsystem")
    comp = tuple(sorted(i for c in connected_components(rs.cartan, orth)
                        if support & set(c) for i in c))
    for b in subsystem_roots(rs, comp):
        if any(neg[j] < b[j] for j in range(rs.rank)):
            raise ValueError("-sigma(theta) is not the highest root of its "
                             "component of the orthogonal subsystem")
    return True
