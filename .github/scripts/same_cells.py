#!/usr/bin/env python3
"""Compare the simulated results of two BENCH_*.json artifacts.

    same_cells.py A.json B.json

Both artifacts must list the same cells in the same order, equal in
every key but "host_perf" (host wall time and tick counts, which
differ between runs and tickers by design).  Exits 0 when they are;
otherwise names the first differing cell label and key path and
exits 1.
"""
import json
import sys


def first_difference(a, b, path):
    """The path of the first leaf where a and b differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a or key not in b:
                return path + [key]
            found = first_difference(a[key], b[key], path + [key])
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return path + [f"<length {len(a)} vs {len(b)}>"]
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, path + [i])
            if found is not None:
                return found
        return None
    return None if a == b else path


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = (json.load(open(p))["cells"] for p in sys.argv[1:])
    if len(a) != len(b):
        sys.exit(f"{sys.argv[1]} has {len(a)} cells, "
                 f"{sys.argv[2]} has {len(b)}")
    for x, y in zip(a, b):
        x = {k: v for k, v in x.items() if k != "host_perf"}
        y = {k: v for k, v in y.items() if k != "host_perf"}
        where = first_difference(x, y, [])
        if where is not None:
            key = ".".join(str(p) for p in where)
            sys.exit(f"cell {x.get('label')!r} differs at {key}")
    print(f"{len(a)} cells identical (host_perf aside)")


main()
