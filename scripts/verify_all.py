#!/usr/bin/env python3
"""Run every theorem verification suite and print a one-line summary each.

Default sizes match the per-theorem defaults; pass --nmax to override all
of them (useful for a quick smoke run, e.g. --nmax 6).
"""

import argparse
import sys

from graphcm.complexes import DEFAULT_FIELDS, parse_fields
from graphcm.enumeration import theorem_ids, verify_theorem
from graphcm.graph import GraphInputError


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, help="override every suite's size cap")
    ap.add_argument("--fields", help="comma separated characteristics (default 0,2)")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--theorems", nargs="*", help="subset of suites to run")
    args = ap.parse_args()

    failures = 0
    try:
        fields = parse_fields(args.fields) if args.fields else DEFAULT_FIELDS
        for tid in args.theorems or theorem_ids():
            rep = verify_theorem(tid, n_max=args.nmax, fields=fields, workers=args.workers)
            status = "ok" if rep.ok() else f"{len(rep.counterexamples)} COUNTEREXAMPLES"
            print(f"{tid:8s} n<={rep.n_max}: {rep.graphs_checked:6d} graphs, {status}, {rep.elapsed_s:.1f}s")
            for g6 in rep.counterexamples:
                print(f"         counterexample: {g6}")
            failures += not rep.ok()
    except GraphInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
