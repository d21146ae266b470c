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
import dataclasses
import sys

from . import enumeration, families, graphio, recognition
from .complexes import DEFAULT_FIELDS, betti_profile, from_facet_list, is_cm, parse_fields
from .complexes import is_cm_graph, is_doubly_cm_graph, is_gorenstein_graph
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


def _human(g: Graph) -> str:
    girth = g.girth()
    lines = [f"n: {g.n}", f"m: {g.m}", f"girth: {'infinity' if girth is INFINITY else girth}"]
    lines += [f"edge: {u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


# output format name -> writer; the choices of gen --format and convert --to
_WRITERS = {
    "g6": lambda g: graphio.to_graph6(g) + "\n",
    "edges": graphio.to_edge_list,
    "dot": graphio.to_dot,
    "human": _human,
}


def _cmd_analyze(args) -> int:
    g = _read_graph(args)
    report = recognition.classify(g, _fields(args))
    _write_out(args, report.to_text())
    return 0


def _cmd_complex(args) -> int:
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


def _plain(predicate):
    return lambda g, fields: (predicate(g), None)


def _over_fields(predicate):
    return lambda g, fields: (all(predicate(g, f) for f in fields), None)


def _certified(verdict, certificate):
    return verdict, certificate.to_text() if certificate else None


def _recognized(recognize):
    def check(g, fields):
        certificate = recognize(g)
        return _certified(certificate is not None, certificate)

    return check


# check predicate name -> (graph, fields) -> (verdict, certificate text or None)
_CHECKS = {
    "well-covered": _plain(is_well_covered),
    "w2": _plain(is_w2),
    "vd": lambda g, fields: _certified(*is_vertex_decomposable(g, want_certificate=True)),
    "cm": _over_fields(is_cm_graph),
    "gorenstein": _over_fields(is_gorenstein_graph),
    "doubly-cm": _over_fields(is_doubly_cm_graph),
    "sqc": _recognized(recognition.recognize_sqc),
    "sc": _recognized(recognition.recognize_sc),
    "pc": _recognized(recognition.recognize_pc),
    "t3": _plain(recognition.t3_partition_condition),
    "block-cactus": _plain(recognition.is_block_cactus),
    "cactus": _plain(recognition.is_cactus),
    "square-cm": _over_fields(recognition.square_cm_criterion),
}


def _cmd_check(args) -> int:
    verdict, certificate = _CHECKS[args.predicate](_read_graph(args), _fields(args))
    print(f"{args.predicate}: {'true' if verdict else 'false'}")
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
    _write_out(args, _WRITERS[args.format](g))
    return 0


# one flag per filter field: --min-girth N for min_girth, --planar-only for planar_only
_FILTERS = dataclasses.fields(enumeration.EnumFilter)


def _cmd_enumerate(args) -> int:
    filt = enumeration.EnumFilter(**{f.name: getattr(args, f.name) for f in _FILTERS})
    stream = (enumeration.enumerate_connected_upto if args.upto else enumeration.enumerate_connected)(args.n, filt)
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
    _write_out(args, _WRITERS[args.to](_read_graph(args)))
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
    p.add_argument("predicate", choices=_CHECKS)
    _add_input_options(p)
    p.add_argument("--fields")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="generate a family member or catalog graph")
    p.add_argument("family", help="G, H, or a catalog name such as C7, T10, paw")
    p.add_argument("n", nargs="?", type=int)
    p.add_argument("--format", default="g6", choices=_WRITERS)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("enumerate", help="graph6 stream of connected graphs on n vertices")
    p.add_argument("n", type=int)
    p.add_argument("--upto", action="store_true", help="include all sizes 1..n")
    for f in _FILTERS:
        kind = {"action": "store_true"} if f.default is False else {"type": int}
        p.add_argument("--" + f.name.replace("_", "-"), **kind)
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
    p.add_argument("--format", "--to", dest="to", default="g6", choices=_WRITERS)
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
    except (GraphInputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
