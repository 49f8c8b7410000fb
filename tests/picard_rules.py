"""Earlier rules for the colors and Fano-ness: the references the engine's
readings of the stored cases and of -K_X are tested on.

The engine joins white nodes i and tau(i) in one color when i is ORTHOGONAL
(`curves.build_colors`) and calls X Fano when kappa + Sigma pairs positively
with every white simple coroot (`invariants.is_fano`).  These helpers give
the same answers the way they were first computed: colors by the merge test
on sigma(alpha_i) and the Cartan matrix, Fano-ness by a rule on the type.
"""


def merged_colors(inv):
    """Colors, sorted tuples of white nodes merged when beta = -sigma(alpha)
    with <alpha^vee, beta> = 0."""
    rs = inv.root_system
    # -alpha_j sits at position j + N of the root codes, N positive roots
    npos = len(inv.sigma_perm) // 2
    merged = []
    used = set()
    for i in inv.satake.white_nodes:
        if i in used:
            continue
        # sigma(alpha_i) = -alpha_j is possible only for j = tau(i)
        j = inv.tau[i]
        if j != i and j not in used and rs.cartan[i][j] == 0 \
                and inv.sigma_perm[i] == j + npos:
            merged.append(tuple(sorted((i, j))))
            used.update((i, j))
        else:
            merged.append((i,))
            used.add(i)
    return tuple(sorted(merged))


def split_rule_fano(rrs):
    """Fano unless the datum is split (no black nodes, no arrows) with
    restricted type not A or B."""
    sd = rrs.involution.satake
    split = not sd.black_nodes and all(
        sd.diagram_involution[i] == i for i in range(rrs.root_system.rank))
    letter = rrs.type_label.rstrip("0123456789")
    return not (split and letter not in ("A", "B"))
