"""Kac diagram builders per family: the reference the catalog's kac fields are tested on.

The catalog draws each Kac diagram with one call of `kac.affine_diagram` or
`kac.white_on` (Kac, Infinite-dimensional Lie Algebras, Tables Aff 1-3;
Helgason, Ch. X, Section 5).  These helpers name the same diagrams one
family at a time, so the tests can compare the two.
"""

from wonderful.kac import KacDiagram, _Builder, affine_diagram


def with_whites(kd, whites):
    """kd with exactly the given nodes white."""
    return KacDiagram(tuple("w" if i in whites else "b" for i in range(kd.size)), kd.edges)


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


def kac_wedge2(r):
    """White node against sp_{2r+2} at its second node."""
    b = _Builder()
    w = b.node("w")
    b.edge(w, b.dynkin("C", r + 1)[1])
    return b.done()


def kac_cycle(n, k):
    """Affine cycle of length n with whites at positions 0 and k."""
    return with_whites(affine_diagram("A", n - 1), (0, k))


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
