"""Cartan type by search: the reference the shape reader is tested on.

The engine reads a connected Dynkin diagram's type and Bourbaki order off
its shape (`rootsystem.identify_cartan`).  This module finds the same data
the slow way: it tries each type letter in turn, builds that type's Cartan
matrix and backtracks over node assignments, so the tests can compare the
two.
"""

from wonderful.rootsystem import VALID_RANKS, cartan_matrix


def _node_signature(mat, i):
    return tuple(sorted(mat[i][j] * mat[j][i] for j in range(len(mat)) if j != i and mat[i][j]))


def _match_cartan(std, given):
    """The least bijection f, as the sequence f(0), f(1), ..., with
    std[i][j] == given[f(i)][f(j)] off the diagonal, or None."""
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
    """(type, rank, mapping) with mapping[standard 0-based index] = input
    index, preferring A < B < C < D < E < F < G on coincidences; or None."""
    n = len(mat)
    for typ in (t for t in "ABCDEFG" if VALID_RANKS[t](n)):
        found = _match_cartan(cartan_matrix(typ, n), mat)
        if found is not None:
            return typ, n, found
    return None
