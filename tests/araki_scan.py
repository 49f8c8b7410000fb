"""The root scan that the closed-form 2 rho^vee is tested on.

Araki's condition reads the coefficients of 2 rho^vee of the black nodes
over their simple coroots.  The engine takes them from a closed form per
black component (`rootsystem.two_rho_vee`).  This helper sums the coroots of
every positive root supported on the nodes, the slow way, so the tests can
compare the two.
"""

from wonderful.rootsystem import _root_generation


def two_rho_vee_by_scan(rs, nodes):
    """{i: c_i} with 2 rho^vee = sum_i c_i alpha_i^vee for the parabolic
    subsystem on nodes: the sum of the coroots beta^vee = sum_i beta_i
    gram6[i][i] / 6(beta, beta) alpha_i^vee of the positive roots beta with
    support in nodes, whose coefficients are integers."""
    c = dict.fromkeys(nodes, 0)
    roots, _, sq6, _, _ = _root_generation(rs)
    for beta, s in zip(roots, sq6):
        if all(i in c for i, x in enumerate(beta) if x):
            for i in c:
                q, r = divmod(beta[i] * rs.gram6[i][i], s)
                assert r == 0, (beta, i)
                c[i] += q
    return c
