#!/usr/bin/env python3
"""Wall time and peak memory of the equal-sum kernel's callers and of the
greedy avoider, per source tree.

Run from the root of a checkout:

    python3 bench/kernel.py --src c96c544=/path/to/c96c544/src --src new=src

Each call runs REPEAT = 7 times per tree, each in a fresh interpreter,
with the trees interleaved (the first tree leads on even repeats, the
other on odd ones), so a drift in host speed falls on both.  A child imports pslab from
its tree, times the call with ``perf_counter`` and reads its own peak RSS
(VmHWM, Linux only).  The calls are ``expsum.mean_value_count`` at (3000,
2, 4), (10^4, 2, 4), (2*10^4, 2, 4) and (120, 2, 6), and
``diophantine.enumerate_solutions`` of the Roth system (c = 21/20) over
the greedy avoider sets of the sequence primes up to 10^4 (756 primes,
the avoider's own verification) and 2*10^5, over all sequence primes up
to 10^6 with cap 0 (the count pass alone, total 41,357), over the avoider
set up to 10^5 plus the prime 17 (the count and the listing of its 8
nontrivial solutions) and over all 779 sequence primes up to 10^4 (the
count and the listing of its 52 nontrivial solutions), and of (1, 1, -1,
-1) over 600 of those 779 primes drawn by ``random.Random(1)``, as
perfbench's ``counting`` workload draws them at seed 1 (the count and the
listing of its first 100 nontrivial solutions).  The avoider sets
of these calls are built once, in a child of the first tree, and handed
to every child; a child builds the sequence primes before its timer
starts (its VmHWM includes them).  The last calls time
``diophantine.greedy_avoider`` itself, scan and verification, on Roth
at 10^4 and 2*10^5 and on the s = 5 system (1, 1, 1, 1, -4) at 3*10^3;
their result is the sha256 of the comma-joined set.  ``cell_1e8`` and
``cell_1e9`` time ``cli.pipeline_cell`` without the avoider (d = 2, toy
W = 32, 4096 samples) at 10^8 and 10^9; their result is the repr of
(b, sigma, prime_count, mass, decay, restrict_moment), so the trees
agree only if those values are identical.  ``warm_cells`` runs
``cli.pipeline_cell`` (4096 samples) on perfbench's three ``window``
cells, its 10^4 ``avoider`` cell and the eight cells of the CI
determinism sweep, WARM_PASSES = 30 times in one interpreter: ``wall_s``
is its first pass, with every cache cold, and ``warm_s`` the median of
the other 29.  Its result is the sha256 of the repr of each distinct
pass's rows and warnings, so a tree agrees only if every pass is the
same and equal to the other tree's.

The JSON written to ``--out`` holds the machine (CPU, cores, Python,
numpy), and for each call and tree label the result, the per-run seconds
and MB and their medians; it records labels, not paths, so name each
tree by its commit.  The script exits 1 if two trees disagree on a
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import hashlib, json, random, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from pslab import cli, diophantine, expsum
call = json.loads(sys.stdin.read())
from pslab.ps_core import PSExponent, ps_primes
c = PSExponent(21, 20)
roth = diophantine.validate_system((1, -2, 1), 2)
if call["name"] == "avoider_set":
    A, _ = diophantine.greedy_avoider(call["x"], c, roth,
                                      primes=ps_primes(call["x"], c))
    print(json.dumps([int(a) for a in A]))
    sys.exit()
if "primes" in call:
    call["set"] = ps_primes(call["primes"], c).members.tolist()
if "sample" in call:
    call["set"] = random.Random(1).sample(call["set"], call["sample"])
if "coeffs" in call:
    form = diophantine.validate_system(call["coeffs"], 2)
    primes = ps_primes(call["x"], c)
start = time.perf_counter()
if "coeffs" in call:
    A, _ = diophantine.greedy_avoider(call["x"], c, form, primes=primes)
    result = hashlib.sha256(",".join(map(str, A)).encode()).hexdigest()
elif "S" in call:
    result = expsum.mean_value_count(call["x"], call["d"], call["S"])
elif "cell" in call:
    row, _ = cli.pipeline_cell(call["cell"], 2, c, 32, run_avoider=False)
    result = repr(tuple(row[k] for k in ("b", "sigma", "prime_count", "mass",
                                         "decay", "restrict_moment")))
elif "warm" in call:
    walls, passes = [], []
    for _ in range(call["warm"]):
        begin = time.perf_counter()
        rows = [cli.pipeline_cell(x, d, PSExponent.parse(ct), w,
                                  run_avoider=avoider)
                for x, d, ct, w, avoider in call["cells"]]
        walls.append(time.perf_counter() - begin)
        passes.append(repr(rows))
    # one digest per distinct pass, in order: one unless a pass differs
    result = [hashlib.sha256(text.encode()).hexdigest()
              for text in dict.fromkeys(passes)]
else:
    form = diophantine.validate_system(call.get("form", (1, -2, 1)), 2)
    report = diophantine.enumerate_solutions(call["set"], form,
                                             cap=call.get("cap", 100))
    result = [report.total, report.nontrivial]
    if call.get("cap"):
        result.append(report.witnesses)
wall = time.perf_counter() - start
peak_kib = next(int(line.split()[1]) for line in open("/proc/self/status")
                if line.startswith("VmHWM:"))
record = {"result": result, "wall_s": wall}
if "warm" in call:
    record.update(wall_s=walls[0], warm_s=statistics.median(walls[1:]))
record["vmhwm_mb"] = peak_kib / 1024
print(json.dumps(record))
"""

MEAN_VALUE = [(3000, 2, 4), (10 ** 4, 2, 4), (2 * 10 ** 4, 2, 4), (120, 2, 6)]
VERIFY_X = 10 ** 4
AVOIDER_X = 2 * 10 ** 5
LISTING_X = 10 ** 5
COUNT_X = 10 ** 6
AVOIDERS = [("roth_1e4", (1, -2, 1), 10 ** 4),
            ("roth_2e5", (1, -2, 1), 2 * 10 ** 5),
            ("s5_3e3", (1, 1, 1, 1, -4), 3 * 10 ** 3)]
CELLS = (8, 9)  # pipeline cells at 10^8 and 10^9
# (x, d, c, toy W, avoider): perfbench's window and avoider cells, then the
# eight cells of the CI determinism sweep
WARM_CELLS = [(10 ** 5, 2, "21/20", 32, False), (10 ** 5, 2, "31/30", 32, False),
              (10 ** 4, 4, "21/20", 32, False), (10 ** 4, 2, "21/20", 32, True),
              *[(x, 2, c, w, False) for x in (10 ** 3, 10 ** 4)
                for c in ("21/20", "11/10") for w in (32, 480)]]
WARM_PASSES = 30
REPEAT = 7


def child(src: str, call: dict) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD, src],
                         input=json.dumps(call), capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out)


def machine() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True,
                        metavar="LABEL=DIR",
                        help="a tree's src directory, repeatable")
    parser.add_argument("--out", default="BENCH_kernel.json")
    args = parser.parse_args(argv)
    trees = dict(spec.split("=", 1) for spec in args.src)
    if len(trees) != len(args.src):
        parser.error("--src labels must differ")
    trees = {label: str(Path(src).resolve()) for label, src in trees.items()}

    first = next(iter(trees.values()))
    verified = child(first, {"name": "avoider_set", "x": VERIFY_X})
    avoider = child(first, {"name": "avoider_set", "x": AVOIDER_X})
    listed = child(first, {"name": "avoider_set", "x": LISTING_X})
    calls = [{"name": f"mean_value_{x}_{d}_{S}", "x": x, "d": d, "S": S}
             for x, d, S in MEAN_VALUE]
    calls.append({"name": "verify_roth_avoider_1e4", "set": verified})
    calls.append({"name": "enumerate_roth_avoider_2e5", "set": avoider})
    calls.append({"name": "count_roth_primes_1e6", "primes": COUNT_X,
                  "cap": 0})
    calls.append({"name": "list_roth_avoider_1e5_plus_17",
                  "set": listed + [17], "cap": 100})
    calls.append({"name": "list_roth_primes_1e4", "primes": VERIFY_X,
                  "cap": 100})
    calls.append({"name": "list_pairs_600_primes_1e4", "primes": VERIFY_X,
                  "sample": 600, "form": (1, 1, -1, -1), "cap": 100})
    calls += [{"name": f"avoider_{name}", "coeffs": coeffs, "x": x}
              for name, coeffs, x in AVOIDERS]
    calls += [{"name": f"cell_1e{k}", "cell": 10 ** k} for k in CELLS]
    calls.append({"name": "warm_cells", "warm": WARM_PASSES,
                  "cells": WARM_CELLS})
    runs = {call["name"]: {label: [] for label in trees} for call in calls}
    order = list(trees)
    for rep in range(REPEAT):
        for call in calls:
            for label in order if rep % 2 == 0 else order[::-1]:
                run = child(trees[label], call)
                runs[call["name"]][label].append(run)
                print(call["name"], label, json.dumps(run), flush=True)

    record = {"machine": machine(), "repeat": REPEAT,
              "verified_set_size": len(verified),
              "avoider_set_size": len(avoider),
              "listing_set_size": len(listed) + 1, "calls": {}}
    agree = True
    for name, by_tree in runs.items():
        record["calls"][name] = {}
        for label, rs in by_tree.items():
            entry = record["calls"][name][label] = {"result": rs[0]["result"]}
            for key in [key for key in rs[0] if key != "result"]:
                entry[key] = [r[key] for r in rs]
                entry[f"{key}_median"] = statistics.median(entry[key])
        results = {json.dumps(r["result"]) for rs in by_tree.values()
                   for r in rs}
        if len(results) != 1:
            print(f"{name}: trees disagree: {sorted(results)}",
                  file=sys.stderr)
            agree = False
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
