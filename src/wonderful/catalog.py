"""Family catalog: load templates, instantiate records, validate, enumerate.

The shipped data/catalog.json and a `--catalog PATH` file are both JSON, read
up to MAX_CATALOG_CHARS and parsed by json.  A catalog is
{"version": 1, "families": [...]}; a family has the fields of _REQUIRED and
_OPTIONAL: label, integer params, constraints on them, the engine's input
(ambient -> [(type, rank), ...]; black -> compact nodes; arrows -> node pairs
the diagram involution swaps; nodes 1-based; kac -> Kac diagram from a call of a
kac.KAC_BUILDERS builder, whose node 0 is alpha_0 or the lone white node) and
the expected columns.  Each constraint, -> field and {...} chunk of the name
templates gh, restricted, hc and vmrt follows the expressions.py grammar with
the parameters in scope; its callables are range, list and, in kac, the four
Kac builders.  validate() compares each derived column with its stored value:
restricted, sigma_theta, fano (from -K_X's weight, invariants.is_fano),
hermitian (null, "e" or "ne"), hc, vmrt (omitted: hc), and emb of restricted
type A_r, r >= 2.  Stored for output only: gh (G/H), and emb (multidegree of
O(1) on the VMRT) elsewhere: build_report passes it through and validate()
checks its factor count.
"""

import itertools
import json
import os
from collections import namedtuple
from math import gcd
from operator import sub

from .curves import build_colors, minimal_covering_classes, pushforward_class
from .expressions import _eval, _fmt
from .invariants import (
    check_strong_orthogonality,
    dimensions,
    is_fano,
    is_hermitian,
    nilpotent_orbit_dimension,
    sigma_theta_is_minus_theta,
    vmrt_report,
)
from .involution import build_involution, is_inner, make_satake, sigma_root
from .kac import (
    KAC_BUILDERS,
    KacDiagram,
    canonical_type,
    marked_diagrams,
    name_dimension,
    normalize_name,
    validate_diagram,
)
from .restricted import build_restricted
from .rootsystem import (
    MAX_AMBIENT_RANK,
    _form6,
    build_root_system,
    highest_roots,
    memoised,
    two_rho,
)

# most characters read from a catalog, so /dev/zero cannot fill memory (shipped: 15,179)
MAX_CATALOG_CHARS = 1_000_000
# most parameters a family may take (the shipped AIII, BDI and CII take 2):
# enumerate_records tries (2 max_rank + 1)^params value tuples
MAX_PARAMS = 2

FamilyTemplate = namedtuple("FamilyTemplate", "label params constraints data")
StoredColumns = namedtuple(
    "StoredColumns", "gh restricted_type hc vmrt emb sigma_theta hermitian fano")


class SymmetricSpaceRecord(namedtuple(
        "SymmetricSpaceRecord", "label params involution restricted kac stored")):
    """One catalog instance: its engine layers and its StoredColumns."""

    @property
    def root_system(self):
        return self.involution.root_system

    @property
    def ambient_rank(self):
        return self.root_system.rank


CheckResult = namedtuple("CheckResult", "name detail")


class Catalog:
    def __init__(self, version, templates):
        self.version = version
        self.templates = tuple(templates)
        self.by_label = {t.label: t for t in templates}
        if len(self.by_label) != len(self.templates):
            raise ValueError("duplicate family labels in catalog data")


# required family fields and their types; the optional ones may be null
_REQUIRED = {"label": str, "ambient": str, "black": str, "arrows": str, "gh": str,
             "restricted": str, "kac": str, "hc": list, "emb": list,
             "sigma_theta": bool, "fano": bool}
_OPTIONAL = {"params": list, "constraints": list, "vmrt": list, "hermitian": str}
# element types of the list fields; `type(x) is int` also rejects JSON booleans
_ITEMS = {"params": str, "constraints": str, "hc": str, "vmrt": str, "emb": int}


def _check_family(index, entry):
    """Raise ValueError naming the family and field of a schema violation."""
    if not isinstance(entry, dict):
        raise ValueError(f"catalog families[{index}] is not a mapping")
    label = entry.get("label")
    where = f"family {label!r}" if isinstance(label, str) else f"families[{index}]"
    for key, typ in {**_REQUIRED, **_OPTIONAL}.items():
        value = entry.get(key)
        if value is None and key in _REQUIRED:
            raise ValueError(f"catalog {where}: missing field {key!r}")
        if value is not None and not isinstance(value, typ):
            raise ValueError(f"catalog {where}: field {key!r} must be a {typ.__name__}")
        item = _ITEMS.get(key)
        if value is not None and item and any(type(x) is not item for x in value):
            raise ValueError(f"catalog {where}: field {key!r} must be a list of "
                             f"{item.__name__}")
    params = entry.get("params") or []
    if len(params) > MAX_PARAMS:
        raise ValueError(f"catalog {where}: field 'params' lists "
                         f"{len(params)} parameters, more than {MAX_PARAMS}")
    if twins := [p for k, p in enumerate(params) if p in params[:k]]:  # else instances recur
        raise ValueError(f"catalog {where}: field 'params' names {twins[0]!r} twice")
    if entry.get("hermitian") not in (None, "e", "ne"):
        raise ValueError(f"catalog {where}: field 'hermitian' must be null, 'e' or 'ne'")


def load_catalog(path=None):
    with open(os.path.join(os.path.dirname(__file__), "data", "catalog.json")
              if path is None else path, encoding="utf-8") as fh:
        text = fh.read(MAX_CATALOG_CHARS + 1)
    if len(text) > MAX_CATALOG_CHARS:
        raise ValueError(f"catalog is longer than {MAX_CATALOG_CHARS} characters")
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise ValueError(f"catalog is not valid JSON: {exc}") from None
    except RecursionError:
        # the decoder recurses once per level, up to the interpreter's limit
        raise ValueError("catalog nests collections too deep") from None
    if not isinstance(raw, dict) or "version" not in raw \
            or not isinstance(raw.get("families"), list):
        raise ValueError("catalog must be a mapping with a 'version' and a "
                         "'families' list")
    # check prints the version raw; `type(x) is int` also rejects JSON booleans
    if type(raw["version"]) is not int:
        raise ValueError("catalog field 'version' must be an int")
    templates = []
    for index, entry in enumerate(raw["families"]):
        _check_family(index, entry)
        templates.append(FamilyTemplate(
            label=entry["label"],
            params=tuple(entry.get("params") or ()),
            constraints=tuple(entry.get("constraints") or ()),
            data=entry,
        ))
    return Catalog(raw["version"], templates)


def _route(label, params):
    """Send parameter values that belong to a sibling Table row there."""
    r, n = params.get("r"), params.get("n")
    if label == "GroupA" and r == 1:
        return "GroupA1", {}
    if label == "AI" and r == 1:
        return "AI1", {}
    if label == "AIII" and r is not None and n == 2 * r:
        return "AIIIeq", {"r": r}
    if label == "BDI" and r == 2 and n is not None:
        return "BDI2", {"n": n}
    if label == "BDI" and r == 1 and n is not None:
        return "BDII", {"n": n}
    if label == "CII" and r is not None and n == 2 * r:
        return "CIIeq", {"r": r}
    return label, params


# what each -> field must evaluate to, and the _kind of its list items
_FIELDS = {"ambient": ("a list of (type, rank) pairs", (str, int)),
           "black": ("a list of ints", int), "arrows": ("a list of node pairs", (int, int)),
           "kac": ("a Kac diagram", None)}


def _kind(x):
    return tuple(map(type, x)) if type(x) in (list, tuple) else type(x)


def _field(template, key, env):
    """A family's -> field evaluated in env; ValueError names the family and
    the field unless the value has the shape _FIELDS gives."""
    value = _eval(template.data[key], env)
    what, item = _FIELDS[key]
    if item is None:
        ok = isinstance(value, KacDiagram)
    else:
        ok = type(value) in (list, tuple) and all(_kind(x) == item for x in value)
    if not ok:
        raise ValueError(f"catalog family {template.label!r}: field {key!r} must "
                         f"evaluate to {what}")
    return value


def instantiate(catalog, label, params=None):
    params = dict(params or {})
    template = catalog.by_label.get(label)
    if template is None:
        raise ValueError(f"unknown family {label!r}")
    if set(params) != set(template.params):
        raise ValueError(
            f"family {label} takes parameters {list(template.params)}, "
            f"got {sorted(params)}")
    for name, value in params.items():
        if not isinstance(value, int):
            raise ValueError(f"parameter {name} must be an integer")
    routed, sibling_params = _route(label, params)
    template = catalog.by_label.get(routed)
    if template is None or set(sibling_params) != set(template.params):
        raise ValueError(f"family {label} with {params} belongs to family {routed} "
                         f"with parameters {sorted(sibling_params)}, which the "
                         f"catalog lacks")
    label, params = routed, sibling_params
    for cond in template.constraints:
        if not _eval(cond, params):
            raise ValueError(
                f"family {label}: condition {cond!r} fails for {params}")
    params = {k: params[k] for k in template.params}
    data = template.data
    ambient = tuple(map(tuple, _field(template, "ambient", params)))
    rank = sum(n for _, n in ambient)
    if rank > MAX_AMBIENT_RANK:
        raise ValueError(f"family {label}: ambient rank {rank} is above the "
                         f"ceiling {MAX_AMBIENT_RANK}")
    rs = build_root_system(ambient)
    black = tuple(sorted(b - 1 for b in _field(template, "black", params)))
    arrows = tuple((i - 1, j - 1) for i, j in _field(template, "arrows", params))
    inv = build_involution(make_satake(rs, black, arrows))
    rrs = build_restricted(inv)
    kd = _field(template, "kac", {**params, **KAC_BUILDERS})
    stored = StoredColumns(
        gh=_fmt(data["gh"], params),
        restricted_type=_fmt(data["restricted"], params),
        hc=tuple(_fmt(x, params) for x in data["hc"]),
        vmrt=tuple(_fmt(x, params) for x in data.get("vmrt") or data["hc"]),
        emb=tuple(data["emb"]),
        sigma_theta=bool(data["sigma_theta"]),
        hermitian=data.get("hermitian"),
        fano=bool(data["fano"]),
    )
    return SymmetricSpaceRecord(label, params, inv, rrs, kd, stored)


@memoised
def build_report(record):
    """VmrtReport for a record, assembled from all engine layers; the
    stored emb is read only as the documented fallback of vmrt_report."""
    descs = marked_diagrams(record.kac)
    return vmrt_report(record.restricted, tuple((d.name, d.dim) for d in descs),
                       embedding_degree=record.stored.emb)


ALL_CHECKS = (
    "restricted-type",
    "exceptional-flag",
    "sigma-theta",
    "fano",
    "boundary-degree",
    "picard-rank",
    "dim-identities",
    "nilpotent-oracle",
    "strong-orthogonality",
    "theta-bar",
    "primitivity",
    "minimal-classes",
    "pushforward",
    "kappa-identity",
    "kac-affine",
    "kac-white-count",
    "kac-descriptors",
    "vmrt-components",
    "emb-structure",
    "hc-vmrt-coherence",
)


def validate(record):
    """Run every consistency check; returns the failures (empty = pass)."""
    inv = record.involution
    rrs = record.restricted
    rs = inv.root_system
    stored = record.stored
    # theta_bar_covector = S(theta_bar) / top with S(u)_j = gram6[j][j] u_j,
    # so <theta_bar_covector, w> = 2 (theta_bar, w) / top, in 6-scaled forms
    top = _form6(rs, rrs.theta_bar, rrs.theta_bar)
    exceptional = rrs.exceptional_pair is not None
    canonical = canonical_type(rrs.type_label)
    letter = canonical.rstrip("0123456789")

    def check_restricted_type():
        if canonical != canonical_type(stored.restricted_type):
            raise ValueError(f"computed {rrs.type_label}, stored "
                             f"{stored.restricted_type}")

    def check_exceptional_flag():
        got = (is_hermitian(rrs), exceptional)
        want = (stored.hermitian is not None, stored.hermitian == "e")
        if got != want:
            raise ValueError(f"computed (hermitian, exceptional) = {got}, "
                             f"stored Herm/Exc {stored.hermitian!r} implies {want}")

    def check_sigma_theta():
        got = sigma_theta_is_minus_theta(inv)
        if got != stored.sigma_theta:
            raise ValueError(f"computed {got}, stored {stored.sigma_theta}")

    def check_fano():
        got = is_fano(rrs)
        if got != stored.fano:
            raise ValueError(f"computed {got}, stored {stored.fano}")

    def check_boundary_degree():
        s = dimensions(rrs)[0]
        if (s == 2) != (letter == "A"):
            raise ValueError(f"boundary degree {s} vs restricted letter "
                             f"{letter}")

    def check_picard_rank():
        want = rrs.rank + (1 if exceptional else 0)
        got = len(build_colors(inv))
        if got != want:
            raise ValueError(f"Picard rank {got}, expected {want}")

    def check_dim_identities():
        s, dim_family, dim_orbit, dim_hc = dimensions(rrs)
        if dim_family != dim_hc + s - 1:
            raise ValueError("dim_family != dim_hc + boundary_degree - 1")
        if dim_orbit != 2 * (dim_hc + 1) or dim_orbit % 2:
            raise ValueError("orbit dimension identity fails")

    def check_nilpotent_oracle():
        want = nilpotent_orbit_dimension(inv)
        if dimensions(rrs)[2] != want:
            raise ValueError(f"2<theta_bar_covector, kappa> = {dimensions(rrs)[2]} "
                             f"but independent count = {want}")

    def check_strong_orth():
        if not sigma_theta_is_minus_theta(inv):
            check_strong_orthogonality(inv)

    def check_theta_bar():
        theta = highest_roots(rs)[0]
        if rrs.theta_bar != tuple(map(sub, theta, sigma_root(inv, theta))):
            raise ValueError("theta_bar covector inconsistent with the "
                             "ambient highest root")

    def check_primitivity():
        if canonical == "A1":
            return
        doubled = [divmod(2 * rs.gram6[j][j] * x, top) for j, x in enumerate(rrs.theta_bar)]
        if any(r for _, r in doubled):
            raise ValueError("2 theta_bar_covector is not integral")
        if gcd(*(abs(q) for q, _ in doubled)) != 1:
            raise ValueError("2 theta_bar_covector is divisible")
        if not any(2 * _form6(rs, rrs.theta_bar, a) == top for a in rrs.restricted_simple):
            raise ValueError("no simple restricted root pairs to 1")

    def check_minimal_classes():
        minimal_covering_classes(rrs)

    def check_pushforward():
        pushforward_class(rrs)

    def check_kappa_identity():
        if sigma_theta_is_minus_theta(inv):
            return
        # 2 <theta_bar_covector, 2 rho> = 4 (theta_bar, 2 rho) / top
        if 4 * _form6(rs, rrs.theta_bar, two_rho(rs)) != dimensions(rrs)[2] * top:
            raise ValueError("<theta_bar_covector, kappa> != "
                             "<theta_bar_covector, 2 rho>")

    def check_kac_affine():
        validate_diagram(record.kac, is_inner(inv))

    def check_kac_white_count():
        want = 2 if is_hermitian(rrs) else 1
        if len(record.kac.whites) != want:
            raise ValueError(f"{len(record.kac.whites)} white nodes, "
                             f"expected {want}")

    def check_kac_descriptors():
        descs = marked_diagrams(record.kac)
        dim_hc = dimensions(rrs)[3]
        for d in descs:
            if d.dim != dim_hc:
                raise ValueError(f"descriptor {d.name} has dimension "
                                 f"{d.dim}, expected {dim_hc}")
        got = [normalize_name(d.name) for d in descs]
        want = [normalize_name(x) for x in stored.hc]
        if len(got) == len(want):
            if sorted(got) != sorted(want):
                raise ValueError(f"descriptors {got} vs stored {want}")
        elif exceptional and len(want) == 1 and len(got) == 2:
            if got[0] != got[1] or got[0] != want[0]:
                raise ValueError(f"descriptors {got} vs stored {want}")
        else:
            raise ValueError(f"{len(got)} descriptors vs {len(want)} "
                             f"stored names")

    def check_vmrt_components():
        rep = build_report(record)
        got = sorted((normalize_name(n), d) for n, d in rep.vmrt_components)
        want = sorted((normalize_name(n), name_dimension(n))
                      for n in stored.vmrt)
        if got != want:
            raise ValueError(f"VMRT components {got} vs stored {want}")

    def check_emb_structure():
        got = build_report(record).embedding_degree
        if got != stored.emb:
            raise ValueError(f"embedding degree {got}, stored {stored.emb}")
        for name in stored.vmrt:
            if name.count(" x ") + 1 != len(stored.emb):
                raise ValueError(f"embedding degree {stored.emb} does not "
                                 f"match factors of {name!r}")

    def check_hc_vmrt_coherence():
        if letter != "A" and stored.vmrt != stored.hc:
            raise ValueError("stored VMRT differs from stored closed orbit "
                             "for a non-A restricted type")

    bodies = (check_restricted_type, check_exceptional_flag, check_sigma_theta,
              check_fano, check_boundary_degree, check_picard_rank,
              check_dim_identities, check_nilpotent_oracle, check_strong_orth,
              check_theta_bar, check_primitivity, check_minimal_classes,
              check_pushforward, check_kappa_identity, check_kac_affine,
              check_kac_white_count, check_kac_descriptors,
              check_vmrt_components, check_emb_structure, check_hc_vmrt_coherence)
    failures = []
    for name, body in zip(ALL_CHECKS, bodies, strict=True):
        try:
            body()
        except ValueError as exc:
            failures.append(CheckResult(name, str(exc)))
    return failures


def enumerate_records(catalog, max_rank):
    """All instances with ambient rank <= max_rank, in catalog order."""
    if max_rank < 2:
        raise ValueError("max_rank must be at least 2")
    if max_rank > MAX_AMBIENT_RANK:
        raise ValueError(f"--max-rank {max_rank} is above the ambient rank "
                         f"ceiling {MAX_AMBIENT_RANK}")
    out = []
    hi = 2 * max_rank + 2
    for template in catalog.templates:
        for values in itertools.product(range(1, hi), repeat=len(template.params)):
            params = dict(zip(template.params, values))
            if _route(template.label, params)[0] != template.label:
                continue
            if not all(_eval(c, params) for c in template.constraints):
                continue
            ambient = _field(template, "ambient", params)
            if sum(n for _, n in ambient) > max_rank:
                continue
            out.append(instantiate(catalog, template.label, params))
    return out
