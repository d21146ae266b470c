#!/usr/bin/env python3
"""Census of connected girth>=5 graphs: which are well-covered, CM over
all requested fields, Gorenstein, W2.  With the default cap this
reproduces the fact that K1, K2 and C5 are the only Gorenstein graphs of
girth at least five in range."""

import argparse
import sys

from graphcm.complexes import DEFAULT_FIELDS, FieldSpec, is_cm_graph, is_gorenstein_graph, parse_fields
from graphcm.enumeration import EnumFilter, enumerate_connected_upto
from graphcm.graph import GraphInputError
from graphcm.graphio import to_graph6
from graphcm.independence import is_w2, is_well_covered


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=8)
    ap.add_argument("--fields", help="comma separated characteristics (default 0,2)")
    args = ap.parse_args()
    try:
        if args.nmax < 1:
            raise GraphInputError(f"n_max must be at least 1, got {args.nmax}")
        fields = parse_fields(args.fields) if args.fields else DEFAULT_FIELDS
        graphs = list(enumerate_connected_upto(args.nmax, EnumFilter(min_girth=5)))
    except GraphInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    total = wc = cm = gor = w2 = 0
    for g in graphs:
        total += 1
        g_wc = is_well_covered(g)
        g_cm = all(is_cm_graph(g, f.characteristic) for f in fields)
        g_gor = all(is_gorenstein_graph(g, f) for f in fields)
        g_w2 = is_w2(g)
        wc += g_wc
        cm += g_cm
        gor += g_gor
        w2 += g_w2
        if g_gor:
            print(f"gorenstein: {to_graph6(g)}  (n={g.n})")
    print(f"girth>=5 connected graphs with n<={args.nmax}: {total}")
    print(f"well-covered: {wc}   cm(all fields): {cm}   gorenstein: {gor}   w2: {w2}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
