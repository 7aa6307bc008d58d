#!/usr/bin/env python3
"""Fails when a pinned optimum of the perfbench answers drifts.

    python3 scripts/check_pinned_optima.py perfbench/expected.tsv NEW.tsv

NEW.tsv is a fresh `perfbench --write-expected` of the current tree. Every
`point` row that the committed file pins as `optimal` must appear in it
with the same status and selection digest: an exact solve proves its
answer, so no solver or formulation change may move it. Rows pinned at a
node cap (`feasible_budget_exhausted`) may move; they are re-pinned with
the benchmark. Prints one line per drift and exits 1 if there is any.
"""

import sys


def points(path):
    """Maps (id, rg, node cap) to (status, digest) for every point row."""
    rows = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            fields = line.rstrip("\n").split("\t")
            if fields[0] != "point":
                continue
            _, ident, rg, cap, status, digest = fields[:6]
            rows[(ident, rg, cap)] = (status, digest)
    return rows


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    pinned, fresh = points(sys.argv[1]), points(sys.argv[2])
    optimal = {k: v for k, v in pinned.items() if v[0] == "optimal"}
    drift = 0
    for key, want in sorted(optimal.items()):
        got = fresh.get(key)
        if got != want:
            drift += 1
            ident, rg, cap = key
            print(f"{ident} rg {rg} cap {cap}: pinned {want}, now {got}")
    print(f"{len(optimal)} pinned optimal rows, {drift} drifted")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
