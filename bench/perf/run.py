#!/usr/bin/env python3
"""Host-speed and fidelity benchmark for the EDE simulator.

Builds bench/perf (the ede_perf program over the repository's src/),
runs repetitions of one workload -- each in its own single-threaded
process -- for a fixed time budget, checks every repetition's outputs,
and reports the median of every metric.

  python3 bench/perf/run.py                      # all four workloads
  python3 bench/perf/run.py --workload fig9 --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics named in
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.
BENCH_perf.json (every metric, every repetition) and, for traced runs,
BENCH_perf_trace.json (Chrome trace events) are written at the
repository root.  See bench/perf/README.md.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "perf")
EXE = os.path.join(BUILD, "ede_perf")
EXPECTED = os.path.join(HERE, "expected")
WORKLOADS = ["fig9", "scaling", "traffic", "crash"]

# A repetition is never started once this many seconds of measuring
# have passed, so one invocation ends well inside three minutes.
HARD_LIMIT_S = 140.0


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def build():
    """Configure and build ede_perf; quiet unless it fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"simulator sources not found under {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "--target", "ede_perf",
              "-j", jobs]]
    # An existing build tree re-configures itself when a CMake file
    # changes, so only a fresh one needs the configure step.
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out,
                                    stderr=subprocess.STDOUT).returncode
            except OSError as e:
                raise BenchError(f"cannot run {cmd[0]}: {e}")
            if rc != 0:
                raise BenchError(f"build failed ({' '.join(cmd)}); see "
                                 f"{os.path.join(BUILD, 'build.log')}")


def run_rep(workload, seed, traced, index, deadline):
    """One repetition in its own process; returns its report dict."""
    tag = f"{os.getpid()}-{index}"
    out = os.path.join(BUILD, f"rep-{tag}.json")
    trace_out = os.path.join(BUILD, f"trace-{workload}.json")
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--out", out, "--scratch", os.path.join(BUILD, f"scratch-{tag}")]
    if traced:
        cmd += ["--trace", "--trace-out", trace_out]
    start = time.monotonic()
    # ede_perf's own progress lines go to stderr, keeping stdout for
    # the report.
    proc = subprocess.Popen(cmd, stdout=sys.stderr.fileno())
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.monotonic() - start
    rep = {"traced": traced, "elapsed_s": elapsed, "ok": False,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "metrics": {},
           "units": [], "cells": [], "failures": {}, "self_s": {}}
    if proc.returncode == 0:
        try:
            with open(out) as f:
                rep.update(json.load(f))
            rep["ok"] = True
        except (OSError, ValueError):
            pass
    else:
        log(f"[perf] {workload} repetition {index} exited with "
            f"status {proc.returncode}")
    if os.path.exists(out):
        os.remove(out)
    return rep


def read_expected(seed, workload):
    """Committed digests of this seed's cells, or None."""
    path = os.path.join(EXPECTED, f"seed{seed}.txt")
    if not os.path.isfile(path):
        return None
    cells = {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) == 3 and parts[0] == workload:
                cells[parts[1]] = parts[2]
    return cells


def judge(workload, seed, reps):
    """Correctness over every repetition: (attempted, failed, notes)."""
    good = [r for r in reps if r["ok"]]
    reference = good[0]["cells"] if good else []
    expected = read_expected(seed, workload)
    ncells = max(len(reference), 1)
    attempted = failed = 0
    notes = []
    for i, rep in enumerate(reps):
        attempted += ncells
        if not rep["ok"]:
            failed += ncells
            notes.append(f"repetition {i}: ede_perf failed")
            continue
        bad = set(rep["failures"])
        for cell, why in rep["failures"].items():
            notes.append(f"repetition {i}: {cell}: {'; '.join(why)}")
        if rep["cells"] != reference:
            for (label, d), ref in zip(rep["cells"], reference):
                if [label, d] != ref:
                    bad.add(label)
                    notes.append(f"repetition {i}: {label}: digest "
                                 f"differs from repetition 0")
            if len(rep["cells"]) != len(reference):
                bad.add("<cell list>")
                notes.append(f"repetition {i}: cell list differs")
        if expected is not None:
            for label, d in rep["cells"]:
                if expected.get(label) != d:
                    bad.add(label)
                    notes.append(f"repetition {i}: {label}: digest {d} "
                                 f"!= expected {expected.get(label)}")
            if len(expected) != len(rep["cells"]):
                bad.add("<expected>")
                notes.append(f"repetition {i}: expected/seed{seed}.txt "
                             f"lists {len(expected)} {workload} cells")
        failed += min(len(bad), ncells)
    return attempted, failed, notes


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def fastest_units(reps):
    """Sum over a repetition's units of each unit's fastest time.

    Other tenants of the host only ever add time, and they come and go
    within seconds, so each unit's minimum over the run's repetitions
    is its least disturbed measurement.
    """
    best = {}
    for rep in reps:
        for key, s in rep["units"]:
            best[key] = min(s, best.get(key, s))
    return sum(best.values())


def stat(values, unit, value=None):
    """One metric over repetitions: the median unless @value is given."""
    lo, hi = quartiles(values)
    return {"value": statistics.median(values) if value is None else value,
            "unit": unit, "q1": lo, "q3": hi, "n": len(values),
            "values": values}


def summarize(reps):
    """Median and spread of every metric over the given repetitions."""
    names = {}
    for rep in reps:
        for name, m in rep["metrics"].items():
            names.setdefault(name, m["unit"])
    out = {name: stat([r["metrics"][name]["value"] for r in reps
                       if name in r["metrics"]], unit)
           for name, unit in names.items()}
    out["wall_median_s"] = out["wall_s"]
    out["wall_s"] = stat(out["wall_s"]["values"], "s", fastest_units(reps))
    return out


def measure(workload, seed, seconds, trace, min_reps):
    """Run repetitions until the time budget is spent; report medians."""
    start = time.monotonic()
    reps = []
    while True:
        # Traced runs alternate untraced and traced repetitions so the
        # tracing overhead is measured in the same run.
        traced = bool(trace) and len(reps) % 2 == 1
        deadline = start + HARD_LIMIT_S + 30.0
        reps.append(run_rep(workload, seed, traced, len(reps), deadline))
        elapsed = time.monotonic() - start
        last = reps[-1]["elapsed_s"]
        kinds = {r["traced"] for r in reps}
        enough = len(reps) >= min_reps and (not trace or len(kinds) == 2)
        if not reps[-1]["ok"]:
            break
        if enough and elapsed + last > seconds:
            break
        if elapsed + last > HARD_LIMIT_S:
            break

    plain = [r for r in reps if r["ok"] and not r["traced"]]
    traced = [r for r in reps if r["ok"] and r["traced"]]
    attempted, failed, notes = judge(workload, seed, reps)
    result = {"workload": workload, "seed": seed, "trace": trace,
              "attempted": attempted, "failed": failed, "notes": notes,
              "repetitions": len(reps),
              "untraced": summarize(plain) if plain else {},
              "traced": summarize(traced) if traced else {},
              "cells": reps[0]["cells"] if reps[0]["ok"] else []}
    if plain:
        result["untraced"]["peak_rss_mb"] = stat(
            [r["peak_rss_mb"] for r in plain], "MiB")
        result["untraced"]["fail_ratio"] = stat([failed / attempted],
                                                "ratio")
    if plain and traced:
        u = fastest_units(plain)
        t = fastest_units(traced)
        result["traced"]["trace.overhead_pct"] = stat(
            [(t - u) / u * 100.0], "%")
        self_s = {}
        for rep in traced:
            for layer, s in rep["self_s"].items():
                self_s.setdefault(layer, []).append(s)
        result["self_s"] = {k: statistics.median(v)
                            for k, v in sorted(self_s.items())}
    return result


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_result(res):
    print(f"== {res['workload']} (seed {res['seed']}, "
          f"{res['repetitions']} repetitions) ==")
    for key in ("untraced", "traced"):
        metrics = res[key]
        if not metrics:
            continue
        print(f"  {key}: median [q1, q3] over n repetitions")
        for name in sorted(metrics):
            m = metrics[name]
            print(f"    {name:26s} {fmt(m['value']):>14s} {m['unit']:8s}"
                  f" [{fmt(m['q1'])}, {fmt(m['q3'])}] n={m['n']}")
    if res.get("self_s"):
        print("  per-layer self time, traced repetition (s):")
        for layer, s in res["self_s"].items():
            print(f"    {layer:26s} {fmt(s):>14s}")
    print(f"  correctness: {res['attempted'] - res['failed']}/"
          f"{res['attempted']} cells passed")
    for note in res["notes"][:20]:
        print(f"    FAIL {note}")


def contract_line(results, trace, e2e, layer):
    """The result line: every check, and the declared metrics of the
    results measured in the requested mode."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    wanted = layer if trace else e2e
    shown = [r for r in results if r["trace"] == trace]
    metrics = {}
    for res in shown:
        have = res["traced"] if trace else res["untraced"]
        prefix = "" if len(shown) == 1 else res["workload"] + ":"
        for name, unit in wanted.items():
            if name not in have:
                raise BenchError(f"{res['workload']}: metric {name} "
                                 f"was not measured")
            metrics[prefix + name] = {"value": have[name]["value"],
                                      "unit": unit}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def host_info():
    info = {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version()}
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    info["build_type"] = line.split("=", 1)[1].strip()
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    ver = subprocess.run([cxx, "--version"],
                                         capture_output=True, text=True)
                    info["compiler"] = ver.stdout.splitlines()[0]
    return info


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def write_expected(seed, results):
    """Replace the measured workloads' lines in expected/seed<N>.txt."""
    os.makedirs(EXPECTED, exist_ok=True)
    path = os.path.join(EXPECTED, f"seed{seed}.txt")
    keep = {w: [] for w in WORKLOADS}
    if os.path.isfile(path):
        with open(path) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 3 and parts[0] in keep:
                    keep[parts[0]].append(line.rstrip("\n"))
    for res in results:
        keep[res["workload"]] = [f"{res['workload']} {label} {d}"
                                 for label, d in res["cells"]]
    with open(path, "w") as f:
        f.write(f"# ede_perf cell digests at --seed {seed}: "
                f"workload cell fnv1a64\n")
        for w in WORKLOADS:
            for line in keep[w]:
                f.write(line + "\n")
    log(f"[perf] wrote {path}")


def baseline(path, seconds, e2e, layer):
    """Two sets of five invocations per workload at seed 1."""
    doc = {"host": host_info(), "seed": 1, "seconds": seconds,
           "workloads": {}}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    doc["host"]["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for w in WORKLOADS:
        sets = []
        for s in range(2):
            runs = {"untraced": [], "traced": []}
            for i in range(5):
                for trace in (0, 1):
                    res = measure(w, 1, seconds, trace, 3)
                    key = "traced" if trace else "untraced"
                    names = layer if trace else e2e
                    runs[key].append({n: res[key][n]["value"]
                                      for n in names if n in res[key]})
                    if res["failed"]:
                        raise BenchError(f"{w}: {res['notes'][:3]}")
                    log(f"[perf] baseline {w} set {s} run {i} {key}: "
                        f"wall_s {res[key]['wall_s']['value']:.4g}")
            sets.append(runs)
        entry = {}
        for key, names in (("untraced", e2e), ("traced", layer)):
            for n in names:
                per_set = []
                for runs in sets:
                    vals = [r[n] for r in runs[key] if n in r]
                    lo, hi = quartiles(vals)
                    per_set.append({"median": statistics.median(vals),
                                    "q1": lo, "q3": hi, "values": vals})
                entry[n] = per_set
        doc["workloads"][w] = entry
    write_json(path, doc)
    log(f"[perf] wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all four, untraced "
                         "then traced)")
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed (default 1; 2 is held out)")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measuring budget per invocation (default 25)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced repetitions, per-layer metrics")
    ap.add_argument("--reps", type=int, default=3,
                    help="minimum repetitions (default 3)")
    ap.add_argument("--write-expected", action="store_true",
                    help="record this seed's digests in expected/")
    ap.add_argument("--baseline", metavar="FILE",
                    help="measure two sets of five invocations per "
                         "workload at seed 1 into FILE")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    # A terminating signal unwinds through the repetition loop, which
    # kills and reaps the running ede_perf before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        e2e, layer = load_contract()
        build()
        if args.baseline:
            baseline(args.baseline, args.seconds, e2e, layer)
            return 0
        plan = ([(args.workload, args.trace)] if args.workload else
                [(w, t) for w in WORKLOADS for t in (0, 1)])
        results = []
        for w, t in plan:
            res = measure(w, args.seed, args.seconds, t, args.reps)
            print_result(res)
            results.append(res)
        if args.write_expected:
            write_expected(args.seed, [r for r in results
                                       if not r["trace"]])
        write_json(os.path.join(ROOT, "BENCH_perf.json"),
                   {"host": host_info(), "results": results})
        traces = [os.path.join(BUILD, f"trace-{r['workload']}.json")
                  for r in results if r["trace"]]
        events = []
        for pid, p in enumerate(traces, start=1):
            if os.path.isfile(p):
                with open(p) as f:
                    for ev in json.load(f)["traceEvents"]:
                        ev["pid"] = pid
                        events.append(ev)
                os.remove(p)
        if events:
            write_json(os.path.join(ROOT, "BENCH_perf_trace.json"),
                       {"traceEvents": events})
        line = contract_line(results, args.trace if args.workload else 0,
                             e2e, layer)
    except BenchError as e:
        log(f"[perf] error: {e}")
        return 2
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
