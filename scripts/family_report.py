#!/usr/bin/env python3
"""Print the full classification report for family members gen_G(n)."""

import argparse
import sys

from graphcm.families import gen_G
from graphcm.graph import GraphInputError
from graphcm.recognition import classify


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("n", type=int, nargs="*", default=[1, 2, 3, 4])
    args = ap.parse_args()
    try:
        # every index is checked before anything is printed
        members = [gen_G(n) for n in args.n]
    except GraphInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for n, g in zip(args.n, members):
        print(f"=== gen_G({n}) ===")
        print(classify(g).to_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
