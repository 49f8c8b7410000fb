"""Command line interface.

Subcommands:
  report  full invariant report for one family instance
  table   classification table for all instances up to a rank bound
  check   recompute everything and compare against the stored catalog
  roots   ambient and restricted root data for one family instance

Exit codes: 0 success, 1 failed consistency checks, 2 usage or data errors,
3 internal error (an engine bug, reported in one line without a traceback),
141 (128 + SIGPIPE) when the reader closes standard output early.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .catalog import (
    ALL_CHECKS,
    build_report,
    enumerate_records,
    instantiate,
    load_catalog,
    validate,
)
from .involution import is_inner
from .kac import marked_diagrams
from .rootsystem import coroot


def _parse_params(pairs):
    params = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"expected name=value, got {item!r}")
        if key in params:
            raise ValueError(f"parameter {key} given twice")
        try:
            params[key] = int(value)
        except ValueError:
            raise ValueError(f"parameter {key} must be an integer, "
                             f"got {value!r}") from None
    return params


def _params_str(params):
    return " ".join(f"{k}={v}" for k, v in params.items())


def _family_head(record):
    """The family label followed by its parameters, e.g. 'AIII n=7 r=2'."""
    return " ".join([record.label, _params_str(record.params)]).rstrip()


def _yesno(flag):
    return "yes" if flag else "no"


def _vec(values):
    """Exact coordinates as strings, e.g. ['2', '1/2']."""
    return [str(Fraction(x)) for x in values]


def _dual_name(name, ascii_only):
    mark = "*" if ascii_only else "∨"
    if " x " in name:
        return f"({name}){mark}"
    return name + mark


def _family_rows(rep, ascii_only):
    """One display row per minimal family: (class, vmrt text, dual flag)."""
    classes = rep.minimal_classes
    comps = rep.vmrt_components
    if len(classes) == 2 and len(comps) == 1:
        base = comps[0][0]
        return [(classes[0], base, False),
                (classes[1], _dual_name(base, ascii_only), True)]
    text = " + ".join(f"{n} (dim {d})" for n, d in comps)
    return [(cls, text, False) for cls in classes]


def _report_document(record, rep, catalog_version):
    descs = marked_diagrams(record.kac)
    families = [{"class": list(cls), "vmrt": text, "dual": dual,
                 "embedding_degree": list(rep.embedding_degree)}
                for cls, text, dual in _family_rows(rep, ascii_only=True)]
    return {
        "tool_version": __version__,
        "catalog_version": catalog_version,
        "family": record.label,
        "params": dict(record.params),
        "space": record.stored.gh,
        "ambient": [f"{t}{n}" for t, n in record.root_system.components],
        "restricted_type": rep.restricted_type,
        "restricted_rank": rep.rank,
        "orbit_type": rep.orbit_type,
        "sigma_theta_is_minus_theta": rep.sigma_theta_is_minus_theta,
        "boundary_degree": rep.boundary_degree,
        "dim_family": rep.dim_family,
        "dim_nilpotent_orbit": rep.dim_nilpotent_orbit,
        "dim_hc": rep.dim_hc,
        "dim_p": rep.dim_p,
        "hermitian": rep.hermitian,
        "exceptional": rep.exceptional,
        "fano": rep.fano,
        "picard_rank": rep.picard_rank,
        "closed_orbit": [{"name": d.name, "dim": d.dim} for d in descs],
        "vmrt_components": [{"name": n, "dim": d}
                            for n, d in rep.vmrt_components],
        "n_families": rep.n_families,
        "families": families,
    }


def _print_json(doc, out):
    json.dump(doc, out, indent=2, sort_keys=True, ensure_ascii=True)
    out.write("\n")


def _render_report(record, rep, out, ascii_only):
    descs = marked_diagrams(record.kac)
    out.write(f"family: {_family_head(record)}\n")
    out.write(f"space: {record.stored.gh}\n")
    ambient = " x ".join(f"{t}{n}" for t, n in record.root_system.components)
    out.write(f"ambient type: {ambient}\n")
    out.write(f"restricted type: {rep.restricted_type}\n")
    out.write(f"orbit type: {rep.orbit_type}\n")
    out.write("sigma(theta) = -theta: "
              f"{_yesno(rep.sigma_theta_is_minus_theta)}\n")
    out.write(f"hermitian: {_yesno(rep.hermitian)}   "
              f"exceptional: {_yesno(rep.exceptional)}   "
              f"fano: {_yesno(rep.fano)}\n")
    out.write(f"boundary degree: {rep.boundary_degree}\n")
    out.write(f"dim of family: {rep.dim_family}\n")
    out.write(f"dim of nilpotent orbit: {rep.dim_nilpotent_orbit}\n")
    out.write(f"dim of -1 eigenspace: {rep.dim_p}\n")
    closed = ", ".join(f"{d.name} (dim {d.dim})" for d in descs)
    out.write(f"closed orbit fiber: {closed}\n")
    out.write(f"picard rank: {rep.picard_rank}\n")
    out.write(f"minimal families: {rep.n_families}\n")
    emb = tuple(rep.embedding_degree)
    for k, (cls, text, _) in enumerate(_family_rows(rep, ascii_only), 1):
        out.write(f"  {k}: class {tuple(cls)}, VMRT {text}, "
                  f"embedding degree {emb}\n")


def cmd_report(args, out):
    catalog = load_catalog(args.catalog)
    record = instantiate(catalog, args.family, _parse_params(args.params))
    rep = build_report(record)
    if args.format == "json":
        _print_json(_report_document(record, rep, catalog.version), out)
    else:
        _render_report(record, rep, out, args.ascii)
    return 0


def cmd_table(args, out):
    catalog = load_catalog(args.catalog)
    records = enumerate_records(catalog, args.max_rank)
    rows = [(record, build_report(record)) for record in records]
    if args.format == "json":
        doc = [_report_document(rec, rep, catalog.version)
               for rec, rep in rows]
        _print_json(doc, out)
        return 0
    header = (f"{'family':<10} {'params':<12} {'restricted':<10} "
              f"{'dim':>4} {'orbit':>5} {'fam':>3}  vmrt")
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for record, rep in rows:
        # each distinct VMRT text once, in family order
        vmrt = "; ".join(dict.fromkeys(t for _, t, _ in _family_rows(rep, args.ascii)))
        out.write(f"{record.label:<10} {_params_str(record.params):<12} "
                  f"{rep.restricted_type:<10} {rep.dim_family:>4} "
                  f"{rep.dim_nilpotent_orbit:>5} {rep.n_families:>3}  "
                  f"{vmrt}\n")
    out.write(f"{len(rows)} instances, ambient rank <= {args.max_rank}\n")
    return 0


def cmd_check(args, out):
    catalog = load_catalog(args.catalog)
    records = enumerate_records(catalog, args.max_rank)
    if not records:  # nothing checked is not a pass
        raise ValueError(f"no catalog instance has ambient rank <= {args.max_rank}")
    fail_count = {name: 0 for name in ALL_CHECKS}
    details = []
    for record in records:
        for failure in validate(record):
            fail_count[failure.name] += 1
            details.append((record, failure))
    out.write(f"checked {len(records)} instances "
              f"(ambient rank <= {args.max_rank}), "
              f"catalog version {catalog.version}\n")
    width = max(len(n) for n in ALL_CHECKS)
    out.write(f"{'check':<{width}}  pass  fail\n")
    for name in ALL_CHECKS:
        bad = fail_count[name]
        out.write(f"{name:<{width}}  {len(records) - bad:>4}  {bad:>4}\n")
    if not details:
        out.write("all checks passed\n")
        return 0
    out.write(f"{len(details)} failures:\n")
    for record, failure in details:
        out.write(f"  {_family_head(record)}: {failure.name}: "
                  f"{failure.detail}\n")
    return 1


def cmd_roots(args, out):
    catalog = load_catalog(args.catalog)
    record = instantiate(catalog, args.family, _parse_params(args.params))
    inv = record.involution
    rrs = record.restricted
    sd = inv.satake
    perm = sd.diagram_involution
    arrows = sorted((i, perm[i]) for i in sd.white_nodes if perm[i] > i)
    doc = {
        "family": record.label,
        "params": dict(record.params),
        "ambient": [f"{t}{n}" for t, n in record.root_system.components],
        "black_nodes": [i + 1 for i in sd.black_nodes],
        "arrows": [[i + 1, j + 1] for i, j in arrows],
        "inner": is_inner(inv),
        "restricted_type": rrs.type_label,
        "restricted_simple": [_vec(a) for a in rrs.restricted_simple],
        "theta_bar": _vec(rrs.theta_bar),
        "theta_bar_covector": _vec(coroot(record.root_system, rrs.theta_bar)),
    }
    if args.format == "json":
        _print_json(doc, out)
        return 0
    out.write(f"family: {_family_head(record)}\n")
    out.write(f"ambient type: {' x '.join(doc['ambient'])}\n")
    black = " ".join(str(i) for i in doc["black_nodes"]) or "(none)"
    out.write(f"black nodes: {black}\n")
    arr = " ".join(f"{i}<->{j}" for i, j in doc["arrows"]) or "(none)"
    out.write(f"arrows: {arr}\n")
    out.write(f"inner: {_yesno(doc['inner'])}\n")
    out.write(f"restricted type: {rrs.type_label}\n")
    out.write("restricted simple roots (ambient coordinates):\n")
    for k, a in enumerate(rrs.restricted_simple, 1):
        out.write(f"  {k}: ({', '.join(_vec(a))})\n")
    out.write(f"highest restricted root: ({', '.join(_vec(rrs.theta_bar))})\n")
    out.write(f"highest root covector: ({', '.join(doc['theta_bar_covector'])})\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wonderful",
        description="Numerical invariants of minimal rational curves on "
                    "wonderful compactifications of symmetric spaces.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_ascii=True, with_format=True):
        p.add_argument("--catalog", default=None, metavar="PATH",
                       help="alternate catalog data file")
        if with_ascii:
            p.add_argument("--ascii", action="store_true",
                           help="ASCII-only output")
        if with_format:
            p.add_argument("--format", choices=("text", "json"),
                           default="text")

    p = sub.add_parser("report", help="invariants of one family instance")
    p.add_argument("family")
    p.add_argument("params", nargs="*", metavar="name=value")
    common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("table", help="classification table")
    p.add_argument("--max-rank", type=int, default=6)
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("check", help="validate the catalog against "
                                     "recomputed invariants")
    p.add_argument("--max-rank", type=int, default=6)
    common(p, with_ascii=False, with_format=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("roots", help="ambient and restricted root data")
    p.add_argument("family")
    p.add_argument("params", nargs="*", metavar="name=value")
    common(p, with_ascii=False)
    p.set_defaults(func=cmd_roots)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, sys.stdout)
        # flush here, so that a closed pipe is caught below and not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
