#!/usr/bin/env python3
"""Pin the run loop's skip decisions: the host ticks of bench/perf.

    host_ticks.py BENCH_perf_seed1.json BENCH_perf_seed2.json

Each file is the BENCH_perf.json that `bench/perf/run.py --seed N`
wrote.  Every repetition that reports `sim.host_ticks` (untraced and
traced) must report the count below for its seed and workload, and
every count below must be reported.  Host ticks are deterministic:
they change only when the loop ticks different cycles, so a change
that means to do so updates EXPECTED in the same commit.  Exits 0
when every count matches; otherwise names each mismatch and exits 1.
"""
import json
import sys

# (seed, workload) -> host ticks of one repetition.
EXPECTED = {
    (1, "fig9"): 1_804_240,
    (1, "scaling"): 1_158_686,
    (1, "traffic"): 1_141_038,
    (1, "crash"): 619_271,
    (2, "fig9"): 1_802_994,
    (2, "scaling"): 1_119_933,
    (2, "traffic"): 1_144_056,
    (2, "crash"): 619_271,
}


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    seen = set()
    errors = []
    for path in sys.argv[1:]:
        with open(path) as f:
            results = json.load(f)["results"]
        for res in results:
            key = (res["seed"], res["workload"])
            for mode in ("untraced", "traced"):
                metric = (res.get(mode) or {}).get("sim.host_ticks")
                if metric is None:
                    continue
                seen.add(key)
                want = EXPECTED.get(key)
                for got in metric["values"]:
                    if got != want:
                        errors.append(f"{path}: seed {key[0]} {key[1]} "
                                      f"({mode}): {got} host ticks, "
                                      f"expected {want}")
    for key in sorted(set(EXPECTED) - seen):
        errors.append(f"seed {key[0]} {key[1]}: no sim.host_ticks in "
                      f"{' '.join(sys.argv[1:])}")
    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        print(f"host ticks match for {len(seen)} seed/workload pairs")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
