#!/usr/bin/env python3
"""Compare two campaign CSVs row by row.

Usage: python scripts/campaign_diff.py A.csv B.csv

Both files are `qmsgap verify --out` / `scripts/run_campaign.py` reports
(columns property,case,dim,defect,passed).  Prints, for each property in
A's order, the number of rows whose defect changed and the largest
|defect_B - defect_A| (defects are in tolerance units).  Exits 1 if the
files differ in anything but defect values: the row count or, in any
row, the property, case id, dim or pass flag.
"""

import csv
import math
import sys

KEYS = ("property", "case", "dim", "passed")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def defect_change(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if math.isinf(x) or math.isinf(y):
        return math.inf
    return abs(y - x)


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    rows_a, rows_b = read_rows(argv[0]), read_rows(argv[1])
    mismatches = []
    if len(rows_a) != len(rows_b):
        mismatches.append(f"row count {len(rows_a)} vs {len(rows_b)}")
    stats: dict[str, list] = {}  # property -> [rows, changed, max delta]
    for n, (a, b) in enumerate(zip(rows_a, rows_b), start=2):
        for key in KEYS:
            if a[key] != b[key]:
                mismatches.append(f"line {n}: {key} {a[key]!r} vs {b[key]!r}")
        entry = stats.setdefault(a["property"], [0, 0, 0.0])
        entry[0] += 1
        if a["defect"] != b["defect"]:
            entry[1] += 1
            entry[2] = max(entry[2], defect_change(a["defect"], b["defect"]))

    print("property,rows,changed,max_abs_delta")
    for name, (n_rows, n_changed, worst) in stats.items():
        print(f"{name},{n_rows},{n_changed},{worst:.3g}")
    for line in mismatches:
        print(f"MISMATCH {line}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
