"""Raw Satake data of the irreducible types up to a rank, 8 unless given,
built without the catalog: the whole classification the catalog is compared
with.

Each datum is a type, a black set and the arrows an involutive diagram
automorphism draws between white nodes; data whose arrows coincide under
different automorphisms count once.  `diagram_class` names a datum up to
every diagram automorphism, D4's S3 included.
"""

import itertools

from wonderful.involution import make_satake
from wonderful.rootsystem import build_root_system

def types(max_rank=8):
    """Every irreducible type of rank <= max_rank, E6-E8, F4 and G2 included."""
    return ([("A", n) for n in range(1, max_rank + 1)]
            + [(t, n) for t in "BC" for n in range(2, max_rank + 1)]
            + [("D", n) for n in range(3, max_rank + 1)]
            + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


TYPES = types()


def automorphisms(typ, n):
    """The automorphisms of the Dynkin diagram, as node permutations in
    Bourbaki order."""
    ident = tuple(range(n))
    if typ == "A" and n >= 2:
        return [ident, ident[::-1]]
    if typ == "D" and n == 4:
        return [(p[0], 1, p[1], p[2]) for p in itertools.permutations((0, 2, 3))]
    if typ == "D":
        return [ident, ident[:-2] + (n - 1, n - 2)]
    if typ == "E" and n == 6:
        return [ident, (5, 1, 4, 3, 2, 0)]
    return [ident]


def raw_data(max_rank=8):
    """Distinct (type, rank, black, arrows) over types(max_rank), every black
    set and every involutive diagram automorphism, 0-based."""
    seen = {}
    for typ, n in types(max_rank):
        taus = [g for g in automorphisms(typ, n) if all(g[g[i]] == i for i in range(n))]
        for k in range(n + 1):
            for black in itertools.combinations(range(n), k):
                for tau in taus:
                    arrows = tuple((i, j) for i, j in enumerate(tau)
                                   if i < j and i not in black and j not in black)
                    seen.setdefault((typ, n, black, arrows), None)
    return list(seen)


def satake(datum):
    typ, n, black, arrows = datum
    return make_satake(build_root_system(((typ, n),)), black, arrows)


def diagram_class(typ, n, black, arrows):
    """The least image of (black, arrows) under the diagram automorphisms."""
    return typ, n, min(
        (tuple(sorted(g[b] for b in black)),
         tuple(sorted(tuple(sorted((g[i], g[j]))) for i, j in arrows)))
        for g in automorphisms(typ, n))
