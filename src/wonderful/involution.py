"""Satake data and the induced involution of the root lattice.

A Satake datum is a root system with a set of black nodes and a matching
of white nodes (the diagram arrows).  The induced lattice involution is
sigma = -w_L . tau, where w_L is the longest element of the subgroup
generated by the black nodes and tau extends the arrow matching by the
opposition involution of the black subdiagram.
"""

from collections import namedtuple
from functools import cached_property

from .rootsystem import (
    longest_element,
    minus_w0_permutation,
    opposition,
    pack,
    pairing,
    root_codes,
    root_steps,
    two_rho_vee,
    unpack,
)

REAL = "REAL"
ORTHOGONAL = "ORTHOGONAL"
NONREDUCED = "NONREDUCED"
_CASES = {-2: REAL, 0: ORTHOGONAL, 1: NONREDUCED}


class SatakeError(ValueError):
    """Raised when Satake data does not define a valid involution."""


def _fail(detail):
    raise SatakeError(f"inconsistent Satake data: {detail}")


class SatakeData(namedtuple("SatakeData", "root_system black_nodes diagram_involution")):
    """A root system, its black nodes and the arrow matching of the white
    nodes as a permutation of all nodes."""

    @cached_property  # kept in the instance __dict__, beside the read-only fields
    def white_nodes(self):
        black = set(self.black_nodes)
        return tuple(i for i in range(self.root_system.rank) if i not in black)


def make_satake(rs, black=(), arrows=()):
    """Build SatakeData from black nodes and white arrow pairs."""
    black = tuple(sorted(set(black)))
    perm = list(range(rs.rank))
    for a, b in arrows:
        # a negative index would wrap to a node from the end
        if not (0 <= a < rs.rank and 0 <= b < rs.rank):
            _fail("node index out of range")
        perm[a], perm[b] = b, a
    return SatakeData(rs, black, tuple(perm))


class Involution(namedtuple("Involution", "satake tau cases sigma_perm")):
    """The lattice involution of a Satake datum: tau is the Satake involution
    sigma_bar on the white nodes; cases holds REAL, ORTHOGONAL or NONREDUCED
    per white node and None per black one; sigma_perm is sigma as a
    permutation of the positions of root_codes."""

    @property
    def root_system(self):
        return self.satake.root_system


def apply_matrix(mat, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in mat)


def sigma_root(inv, v):
    """sigma(v) for a root v, read from sigma_perm."""
    n = inv.root_system.rank
    codes, index = root_codes(inv.root_system)
    k = index.get(pack(v))
    # a vector of another length or outside the code's range may share a code
    if k is None or unpack(codes[k], n) != tuple(v):
        raise ValueError(f"{v} is not a root")
    return unpack(codes[inv.sigma_perm[k]], n)


def _check_satake(sd):
    rs = sd.root_system
    n = rs.rank
    black = set(sd.black_nodes)
    perm = sd.diagram_involution
    if not black <= set(range(n)):
        _fail("node index out of range")
    if not sd.white_nodes:
        _fail("no white nodes")
    if sorted(perm) != list(range(n)):
        _fail("diagram involution is not a permutation")
    for i in range(n):
        if perm[perm[i]] != i:
            _fail("diagram involution is not an involution")
        if i in black and perm[i] != i:
            _fail("diagram involution moves a black node")


def _complete_tau(sd, black_iota):
    """Extend the arrow matching by -w_0 of the black nodes, which acts on
    each black component separately.  Both are involutions, the matching
    one of the white nodes, so tau is one."""
    cartan = sd.root_system.cartan  # bound once: 3.11 does not specialise namedtuple reads
    tau = tuple(black_iota.get(i, j) for i, j in enumerate(sd.diagram_involution))
    for i in range(len(cartan)):
        for j in range(len(cartan)):
            if cartan[tau[i]][tau[j]] != cartan[i][j]:
                _fail("completed diagram involution does not preserve the Cartan matrix")
    return tau


def build_involution(sd):
    """Construct and validate the lattice involution of a Satake datum.

    sigma = -w_L tau is an isometry, as tau preserves the Cartan matrix.  It
    fixes each black alpha_i, since w_L(alpha_iota_L(i)) = -alpha_i, and
    sends a white alpha_j to -alpha_tau(j) minus black roots, so the Satake
    involution sigma_bar of the white nodes is tau (Araki 1962).  sigma is
    kept as packed root codes; a check unpacks only the images it reads."""
    _check_satake(sd)
    rs = sd.root_system
    n = rs.rank
    black_iota = opposition(rs, sd.black_nodes)
    tau = _complete_tau(sd, black_iota)
    # sigma(alpha_j) = -w_L(alpha_tau(j)) on the simple roots; every check
    # that reads only these runs before sigma is extended to all roots
    wl = longest_element(rs, black_iota)
    codes = [-wl[tau[j]] for j in range(n)]

    # w_0 = -iota on simple roots, so sigma w_0 = w_0 sigma permutes entries;
    # where iota = 1 it reads images[j][i] == images[j][i], which always holds
    iota = minus_w0_permutation(rs)
    if iota != tuple(range(n)):
        images = [unpack(code, n) for code in codes]
        if any(images[iota[j]][i] != images[j][iota[i]] for i in range(n) for j in range(n)):
            _fail("sigma does not commute with w_0")

    # the case of a white node is read off <alpha_i^vee, sigma(alpha_i)>;
    # -2 forces tau(i) = i and a zero black part, so sigma(alpha_i) = -alpha_i
    white = sd.white_nodes
    cases = [None] * n
    for i in white:
        p = pairing(rs, i, unpack(codes[i], n))
        if p not in _CASES:
            _fail(f"<alpha^vee, sigma(alpha)> = {p} is not in {{-2, 0, 1}}")
        cases[i] = _CASES[p]

    # Araki's condition (Araki 1962; Kolb, Adv. Math. 267, Def. 2.3):
    # <alpha_j, rho_X^vee> is an integer for every white j without an arrow;
    # 2 rho_X^vee = sum_i c_i alpha_i^vee has integer c_i in closed form per
    # black component, read only on black nodes next to such a j
    fixed = [j for j in white if sd.diagram_involution[j] == j]
    near = [i for i in sd.black_nodes if any(rs.cartan[i][j] for j in fixed)]
    if near:
        c = two_rho_vee(rs, sd.black_nodes)
        if any(sum(c[i] * rs.cartan[i][j] for i in near) % 2 for j in fixed):
            _fail("a white node without an arrow pairs to a half-integer with "
                  "rho^vee of the black nodes (Araki's condition)")

    # by height, on packed codes: sigma(beta' + alpha_i) is sigma(beta') + sigma(alpha_i);
    # sigma = -w_L tau permutes the roots, so a code missing from the index is an engine bug
    for k, i in root_steps(rs):
        codes.append(codes[k] + codes[i])
    index = root_codes(rs)[1]
    perm = [index[code] for code in codes]
    npos = len(perm)
    sigma_perm = tuple(perm) + tuple((k + npos) % (2 * npos) for k in perm)

    return Involution(
        satake=sd,
        tau=tau,
        cases=tuple(cases),
        sigma_perm=sigma_perm,
    )


def is_inner(inv):
    """Whether the involution is inner (trivial twist of the diagram)."""
    rs = inv.root_system
    iota = minus_w0_permutation(rs)
    return all(iota[inv.tau[i]] == i for i in range(rs.rank))
