"""Weyl words: the reference the closed-form longest elements are tested on.

The engine builds w_L, iota = -w_0 and sigma without Weyl words or matrices
(`rootsystem.longest_element`, `rootsystem.opposition`,
`Involution.sigma_perm`).  These helpers compute the same data the slow way,
by applying a reduced word of simple reflections, so the tests can compare
the two.  `subsystem_roots` filters the positive roots of a parabolic
subsystem, the scan the closed-form highest roots are tested against.
"""

from wonderful.rootsystem import pairing, positive_roots, unit_vector


def subsystem_roots(rs, nodes):
    """The positive roots supported on nodes (a sorted tuple), by height."""
    outside = [j for j in range(rs.rank) if j not in nodes]
    return tuple(b for b in positive_roots(rs) if not any(b[j] for j in outside))


def reflect(rs, i, w):
    """Simple reflection s_i applied to w in simple-root coordinates."""
    p = pairing(rs, i, w)
    out = list(w)
    out[i] -= p
    return tuple(out)


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


def matrix_opposition(wl, nodes):
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


def sigma_matrix(inv):
    """The matrix of sigma = -w_L . tau on simple-root coordinate columns,
    with w_L applied as a reduced word of the black nodes."""
    rs = inv.root_system
    wl = word_matrix(rs, longest_subsystem_word(rs, inv.satake.black_nodes))
    return [[-row[inv.tau[j]] for j in range(rs.rank)] for row in wl]
