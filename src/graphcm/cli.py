"""Command-line front door.

Subcommands: analyze (full classification report), check (one predicate,
exit code carries the verdict), gen (families and catalog graphs),
enumerate (graph6 stream of small connected graphs), verify (theorem
suites), convert (format conversion).

Exit codes: 0 success / predicate true, 1 predicate false, 2 errors
(parse failures, unknown names, violated preconditions).
"""

from __future__ import annotations

import argparse
import sys

from . import enumeration, families, graphio, recognition
from .complexes import DEFAULT_FIELDS, is_cm_graph, is_doubly_cm_graph, is_gorenstein_graph, parse_fields
from .decomposability import is_vertex_decomposable
from .graph import Graph, GraphInputError, INFINITY
from .independence import is_w2, is_well_covered


def _add_input_options(p):
    p.add_argument("--g6", metavar="STR", help="graph6 string")
    p.add_argument("--edges", metavar="FILE", help="edge-list file")
    p.add_argument("--input", metavar="FILE", help="graph6 file (first graph)")


def _read_graph(args) -> Graph:
    given = [x for x in (args.g6, args.edges, args.input) if x]
    if len(given) != 1:
        raise GraphInputError("provide exactly one of --g6, --edges, --input")
    if args.g6:
        return graphio.from_graph6(args.g6)
    if args.edges:
        return graphio.read_edge_list_file(args.edges)
    graphs = graphio.read_graph6_file(args.input)
    if not graphs:
        raise GraphInputError(f"no graphs in {args.input}")
    return graphs[0]


def _fields(args):
    return parse_fields(args.fields) if args.fields else DEFAULT_FIELDS


def _write_out(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_graph(g: Graph, fmt: str) -> str:
    if fmt == "g6":
        return graphio.to_graph6(g) + "\n"
    if fmt == "edges":
        return graphio.to_edge_list(g)
    if fmt == "dot":
        return graphio.to_dot(g)
    # human; argparse admits only these four formats
    girth = g.girth()
    lines = [f"n: {g.n}", f"m: {g.m}", f"girth: {'infinity' if girth is INFINITY else girth}"]
    lines += [f"edge: {u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> int:
    g = _read_graph(args)
    report = recognition.classify(g, _fields(args))
    _write_out(args, report.to_text())
    return 0


def _cmd_complex(args) -> int:
    from .complexes import betti_profile, from_facet_list, is_cm

    with open(args.facets, "r", encoding="utf-8") as fh:
        delta = from_facet_list(fh.read())
    lines = [
        f"universe_size: {len(delta.universe)}",
        f"facet_count: {len(delta.facets)}",
        f"dim: {'void' if delta.dim is None else delta.dim}",
        f"f_vector: {','.join(map(str, delta.f_vector()))}",
    ]
    for field in _fields(args):
        prof = betti_profile(delta, field)
        betti = ",".join(map(str, prof.betti))
        lines.append(f"betti[char{field.characteristic}]: {betti}")
        lines.append(f"cm[char{field.characteristic}]: {'true' if is_cm(delta, field) else 'false'}")
    _write_out(args, "\n".join(lines) + "\n")
    return 0


_PREDICATES = ("well-covered", "w2", "vd", "cm", "gorenstein", "doubly-cm", "sqc", "sc", "pc", "t3", "block-cactus", "cactus", "square-cm")


def _cmd_check(args) -> int:
    g = _read_graph(args)
    fields = _fields(args)
    name = args.predicate
    certificate = None
    if name == "well-covered":
        verdict = is_well_covered(g)
    elif name == "w2":
        verdict = is_w2(g)
    elif name == "vd":
        verdict, certificate = is_vertex_decomposable(g, want_certificate=True)
        certificate = certificate.to_text() if certificate else None
    elif name == "cm":
        verdict = all(is_cm_graph(g, f) for f in fields)
    elif name == "gorenstein":
        verdict = all(is_gorenstein_graph(g, f) for f in fields)
    elif name == "doubly-cm":
        verdict = all(is_doubly_cm_graph(g, f) for f in fields)
    elif name in ("sqc", "sc", "pc"):
        rec = {"sqc": recognition.recognize_sqc, "sc": recognition.recognize_sc, "pc": recognition.recognize_pc}[name]
        cert = rec(g)
        verdict = cert is not None
        certificate = cert.to_text() if cert else None
    elif name == "t3":
        verdict = recognition.t3_partition_condition(g)
    elif name == "block-cactus":
        verdict = recognition.is_block_cactus(g)
    elif name == "cactus":
        verdict = recognition.is_cactus(g)
    else:  # square-cm; argparse admits only the names in _PREDICATES
        verdict = all(recognition.square_cm_criterion(g, f) for f in fields)
    print(f"{name}: {'true' if verdict else 'false'}")
    if certificate:
        print(certificate.rstrip("\n"))
    return 0 if verdict else 1


def _cmd_gen(args) -> int:
    if args.family in ("G", "H"):
        if args.n is None:
            raise GraphInputError(f"family {args.family} needs an index n")
        g = families.gen_G(args.n) if args.family == "G" else families.gen_H(args.n)
    else:
        if args.n is not None:
            raise GraphInputError("an index is only valid for families G and H")
        g = families.catalog(args.family)
    _write_out(args, _emit_graph(g, args.format))
    return 0


def _cmd_enumerate(args) -> int:
    filt = enumeration.EnumFilter(
        min_girth=args.min_girth,
        max_girth=args.max_girth,
        forbid_c4=args.forbid_c4,
        forbid_c5=args.forbid_c5,
        planar_only=args.planar_only,
        block_cactus_only=args.block_cactus_only,
        cactus_only=args.cactus_only,
    )
    if args.upto:
        stream = enumeration.enumerate_connected_upto(args.n, filt)
    else:
        stream = enumeration.enumerate_connected(args.n, filt)
    lines = [graphio.to_graph6(g) for g in stream]
    _write_out(args, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def _cmd_verify(args) -> int:
    report = enumeration.verify_theorem(
        args.theorem,
        n_max=args.nmax,
        fields=_fields(args),
        workers=args.workers,
        input_path=args.input,
    )
    structured = args.format == "structured"
    _write_out(args, report.to_text(structured=structured))
    if report.counterexamples:
        cex_path = args.cex_out or f"{args.theorem}.counterexamples.g6"
        with open(cex_path, "w", encoding="ascii") as fh:
            fh.write("\n".join(report.counterexamples) + "\n")
        print(f"counterexamples written to {cex_path}", file=sys.stderr)
    return 0 if report.ok() else 1


def _cmd_convert(args) -> int:
    g = _read_graph(args)
    _write_out(args, _emit_graph(g, args.to))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="graphcm", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full classification report for one graph")
    _add_input_options(p)
    p.add_argument("--fields", help="comma-separated characteristics, default 0,2")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("complex", help="inspect a simplicial complex from a facet-list file")
    p.add_argument("--facets", required=True, metavar="FILE", help="one facet per line, vertices space-separated")
    p.add_argument("--fields")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_complex)

    p = sub.add_parser("check", help="decide one predicate; exit 0 true, 1 false, 2 error")
    p.add_argument("predicate", choices=_PREDICATES)
    _add_input_options(p)
    p.add_argument("--fields")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="generate a family member or catalog graph")
    p.add_argument("family", help="G, H, or a catalog name such as C7, T10, paw")
    p.add_argument("n", nargs="?", type=int)
    p.add_argument("--format", default="g6", choices=("g6", "edges", "dot", "human"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("enumerate", help="graph6 stream of connected graphs on n vertices")
    p.add_argument("n", type=int)
    p.add_argument("--upto", action="store_true", help="include all sizes 1..n")
    p.add_argument("--min-girth", type=int, dest="min_girth")
    p.add_argument("--max-girth", type=int, dest="max_girth")
    p.add_argument("--forbid-c4", action="store_true")
    p.add_argument("--forbid-c5", action="store_true")
    p.add_argument("--planar-only", action="store_true")
    p.add_argument("--block-cactus-only", action="store_true")
    p.add_argument("--cactus-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run one theorem verification suite")
    p.add_argument("theorem", choices=enumeration.theorem_ids())
    p.add_argument("--nmax", type=int, help="largest order to check; with --input, larger graphs are skipped (default: none)")
    p.add_argument("--fields")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--input", help="verify against an external graph6 stream")
    p.add_argument("--format", default="human", choices=("human", "structured"))
    p.add_argument("--out")
    p.add_argument("--cex-out", help="path for the counterexample .g6 file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("convert", help="convert between graph formats")
    _add_input_options(p)
    p.add_argument("--format", "--to", dest="to", default="g6", choices=("g6", "edges", "dot", "human"))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_convert)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except GraphInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
