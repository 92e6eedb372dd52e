#!/usr/bin/env python3
"""Benchmark for pslab: times public calls from outside and checks every output.

Run from the root of a checkout:

    python3 perfbench/run.py --workload avoider --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``wall_s``, ``setup_s``,
``peak_rss_mb``) from untraced passes, ``wall_s`` scaled to a reference
host speed by a probe run around every call; with ``--trace 1`` they are the
per-layer ones from a traced run.  Earlier lines are diagnostics: the
machine record, per-call timing spreads, the host-speed probe and the
known defects.  See README.md in this directory for the workloads and the
metric map.

pslab is imported from ``src/`` of the checkout this file sits in; the run
stops with exit code 2 if that tree is missing or pslab resolves elsewhere.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("cli", "diophantine", "exponents", "expsum", "ps_core", "wtrick")
REFERENCE = json.loads((HERE / "reference.json").read_text())

# Share of the majorant mass by which a sampled transform may differ from
# the exact fold.  sparse_transform promises phase errors below 1e-10
# cycles, which moves each sample by less than 2*pi*1e-10 of the mass.
FOLD_TOL = 1e-9
# Fresh-interpreter set-up probes per run, spread evenly through it.
SETUP_PROBES = 16
# Nominal seconds of one host probe; wall_s is given at this probe speed.
# On the host described in README.md a probe takes 0.08-0.13 s.
HOST_REF_S = 0.1

SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); "
    "from pslab import cli, diophantine, exponents, expsum, ps_core, wtrick; "
    "exponents.c_of(2, 5)"
)


class Abort(Exception):
    """The benchmark cannot run in this directory."""


def load_pslab():
    """Import pslab from this checkout's src/ and refuse any other copy."""
    init = SRC / "pslab" / "__init__.py"
    if not init.is_file():
        raise Abort(f"no pslab source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"pslab.{name}") for name in MODULES}
    for mod in [importlib.import_module("pslab"), *mods.values()]:
        if SRC.resolve() not in Path(mod.__file__).resolve().parents:
            raise Abort(f"{mod.__name__} resolves to {mod.__file__}, "
                        f"outside {SRC}")
    return type("Pslab", (), mods)


# --- machine record -----------------------------------------------------------

def blas_threads() -> Tuple[str, Optional[int]]:
    """Path and thread count of the OpenBLAS that numpy loaded."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return "unknown", None
    libs = sorted({line.split()[-1] for line in maps
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return lib, int(fn())
    return ",".join(libs) or "unknown", None


def machine_record(np) -> Dict:
    nproc = len(os.sched_getaffinity(0))
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    lib, threads = blas_threads()
    if threads is not None and threads > nproc:
        raise Abort(f"BLAS uses {threads} threads on {nproc} CPUs")
    return {"nproc": nproc, "cpu": model, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, "blas_lib": lib,
            "blas_threads": threads}


# --- independent references ---------------------------------------------------

@functools.lru_cache(maxsize=None)
def cell_majorant(pl, x, d, c_text, toy_w=32):
    """The majorant a pipeline cell builds, from pslab's public stages."""
    c = pl.ps_core.PSExponent.parse(c_text)
    primes = pl.ps_core.ps_primes(x, c)
    params = pl.wtrick.w_params(x, d, toy_w=toy_w)
    b, _ = pl.wtrick.choose_b(primes.members, params, c)
    return pl.wtrick.build_majorant(primes.members, b, params, c)


def folded_transform(np, nu, M):
    """Exact nu_hat(j/M) for j < M: fold the weights by the integer n mod M."""
    folded = np.zeros(M)
    for n, w in nu.weights.items():
        folded[n % M] += w
    return np.fft.ifft(folded) * M  # ifft matches the e(+jn/M) convention


def fold_reference(np, nu, M, u):
    """(decay, moment / mass^u) of the cell from the exact fold.

    Uses neither sparse_transform nor interval_transform; every phase is
    reduced in integer arithmetic.
    """
    nu_hat = folded_transform(np, nu, M)
    N = nu.N
    # sum_{n=1}^{N} e(jn/M) = e(j(N+1)/(2M)) sin(pi jN/M) / sin(pi j/M)
    interval = np.empty(M, dtype=complex)
    interval[0] = N
    for j in range(1, M):
        turn = 2 * math.pi * ((j * (N + 1)) % (2 * M)) / (2 * M)
        interval[j] = (complex(math.cos(turn), math.sin(turn))
                       * math.sin(math.pi * ((j * N) % (2 * M)) / M)
                       / math.sin(math.pi * j / M))
    decay = float(np.max(np.abs(nu_hat - interval)) / N)
    scaled = float(np.mean((np.abs(nu_hat) / nu.mass()) ** u))
    return decay, scaled


def equal_sum_count(np, left, right) -> int:
    """#{(i, j) : left[i] == right[j]} by sorted multiplicities."""
    lv, lc = np.unique(left, return_counts=True)
    rv, rc = np.unique(right, return_counts=True)
    _, li, ri = np.intersect1d(lv, rv, assume_unique=True, return_indices=True)
    return int(np.dot(lc[li].astype(np.int64), rc[ri].astype(np.int64)))


def sum_terms(np, values, coeffs):
    """All sums c_1*values[a_1] + ... + c_k*values[a_k] over ordered choices."""
    out = np.zeros(1, dtype=np.int64)
    for c in coeffs:
        out = (out[:, None] + c * values[None, :]).ravel()
    return out


def mean_value_numpy(np, x, d, S) -> int:
    powers = np.arange(1, x + 1, dtype=np.int64) ** d
    sums = sum_terms(np, powers, [1] * (S // 2))
    return equal_sum_count(np, sums, sums)


# --- calls and their checks -----------------------------------------------------

@dataclass
class Call:
    """One timed call into pslab and the check of its output.

    ``check(output) -> error or None`` runs after the timed passes on every
    output; the independent reference it compares against is built once.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def pipeline_call(pl, np, name, x, d, c_text, run_avoider, samples=4096):
    c = pl.ps_core.PSExponent.parse(c_text)
    ref = REFERENCE[name]

    def run():
        return pl.cli.pipeline_cell(x, d, c, 32, samples=samples,
                                    run_avoider=run_avoider)[0]

    @functools.lru_cache(maxsize=None)
    def fold():
        nu = cell_majorant(pl, x, d, c_text)
        return (*fold_reference(np, nu, samples, ref["u"]), nu.mass(), nu.N)

    def check(row):
        for key, want in ref.items():
            if row[key] != want:
                return f"{key} = {row[key]!r}, reference {want!r}"
        decay_ref, scaled_ref, mass, N = fold()
        if abs(row["mass"] - mass) > 1e-12 * mass:
            return f"mass {row['mass']!r} != majorant mass {mass!r}"
        # |decay - ref| <= max_j |nu_hat_j - fold_j| / N
        off = abs(row["decay"] - decay_ref) * N / mass
        if off > FOLD_TOL:
            return f"decay off the exact fold by {off:.3g} of the mass"
        moment = row["restrict_moment"]
        u = ref["u"]
        if not (moment > 0 and math.isfinite(moment)):
            return f"restrict_moment = {moment!r}"
        scaled = math.exp(math.log(moment) - u * math.log(mass))
        # each sample is within FOLD_TOL of the mass, so the scaled moment
        # (samples divided by the mass, to the power u <= 1) within u*FOLD_TOL
        if abs(scaled - scaled_ref) > u * FOLD_TOL + 1e-12 * scaled_ref:
            return (f"restrict_moment / mass^u = {scaled:.12g}, exact fold "
                    f"{scaled_ref:.12g}")
        return None

    return Call(name, run, check)


def check_witnesses(report, coeffs, d, cap) -> Optional[str]:
    ws = report.witnesses
    if len(ws) != min(report.nontrivial, cap) or len(set(ws)) != len(ws):
        return f"{len(ws)} distinct witnesses for {report.nontrivial} nontrivial"
    if report.truncated != (report.nontrivial > cap):
        return f"truncated = {report.truncated} with {report.nontrivial} nontrivial"
    for w in ws:
        if sum(c * v ** d for c, v in zip(coeffs, w)) != 0:
            return f"witness {w} does not solve {coeffs}"
        if len(set(w)) == 1:
            return f"witness {w} lies on the diagonal"
    return None


def solutions_call(pl, np, name, elems, coeffs, expected_total=None):
    system = pl.diophantine.validate_system(coeffs, 2)
    elems = sorted(elems)

    def run():
        return pl.diophantine.enumerate_solutions(elems, system)

    @functools.lru_cache(maxsize=None)
    def numpy_total():
        sq = np.array(elems, dtype=np.int64) ** 2
        pos = [c for c in coeffs if c > 0]
        neg = [-c for c in coeffs if c < 0]
        left = sum_terms(np, sq, pos)
        right = sum_terms(np, sq, neg)
        return equal_sum_count(np, left, right)

    def check(report):
        total = numpy_total()
        if expected_total is not None and total != expected_total:
            return f"numpy total {total} != reference {expected_total}"
        if report.total != total:
            return f"total {report.total} != numpy count {total}"
        if report.trivial != len(elems) or report.nontrivial != total - len(elems):
            return f"trivial/nontrivial {report.trivial}/{report.nontrivial}"
        return check_witnesses(report, coeffs, 2, 100)

    return Call(name, run, check)


def mean_value_call(pl, np, name, x, d, S):
    want = REFERENCE[name]["count"]

    def run():
        return pl.expsum.mean_value_count(x, d, S)

    independent_count = functools.lru_cache(maxsize=None)(
        lambda: mean_value_numpy(np, x, d, S))

    def check(count):
        independent = independent_count()
        if independent != want:
            return f"numpy count {independent} != reference {want}"
        return None if count == want else f"count {count} != {want}"

    return Call(name, run, check)


def quadrature_call(pl, np, name, x, d, S, M):
    def run():
        return pl.expsum.quadrature_vs_count(x, d, S, M)

    independent_count = functools.lru_cache(maxsize=None)(
        lambda: mean_value_numpy(np, x, d, S))

    def check(out):
        quad, count = out
        want = independent_count()
        if count != want:
            return f"count {count} != numpy count {want}"
        if abs(quad - count) > 1e-9 * count:
            return f"quadrature {quad!r} differs from the count {count}"
        return None

    return Call(name, run, check)


def build_workload(pl, np, workload: str, rng: random.Random) -> List[Call]:
    if workload == "avoider":
        return [pipeline_call(pl, np, "avoider_1e4", 10 ** 4, 2, "21/20", True)]
    if workload == "window":
        return [
            pipeline_call(pl, np, "window_1e5_21_20", 10 ** 5, 2, "21/20", False),
            pipeline_call(pl, np, "window_1e5_31_30", 10 ** 5, 2, "31/30", False),
            pipeline_call(pl, np, "window_1e4_d4", 10 ** 4, 4, "21/20", False),
        ]
    if workload == "counting":
        c = pl.ps_core.PSExponent(21, 20)
        primes = [int(p) for p in pl.ps_core.ps_primes(10 ** 4, c).members]
        subset = rng.sample(primes, 600)
        return [
            solutions_call(pl, np, "roth_779", primes, (1, -2, 1),
                           REFERENCE["roth_779"]["total"]),
            solutions_call(pl, np, "pairs_600", subset, (1, 1, -1, -1)),
            mean_value_call(pl, np, "mean_value_3000_2_4", 3000, 2, 4),
            mean_value_call(pl, np, "mean_value_120_2_6", 120, 2, 6),
            quadrature_call(pl, np, "quadrature_40_2_4", 40, 2, 4, 8192),
        ]
    raise Abort(f"unknown workload {workload!r}")


def pipeline_defect(pl, np, name, x, d):
    call = pipeline_call(pl, np, name, x, d, "21/20", False)
    return call.check(call.run())


def transform_defect(pl, np, name, x, d, M=4096):
    """The cell's outputs, then sparse_transform itself against the fold."""
    error = pipeline_defect(pl, np, name, x, d)
    if error is not None:
        return error
    nu = cell_majorant(pl, x, d, "21/20")
    exact = folded_transform(np, nu, M)
    got = pl.expsum.sparse_transform(nu, np.arange(M) / M)
    off = float(np.max(np.abs(got - exact))) / nu.mass()
    if off > FOLD_TOL:
        return f"sparse_transform off the exact fold by {off:.3g} of the mass"
    return None


# Each is checked once per run on the workload whose layers it hits, outside
# the timed passes, and reported by name while it still fails.  They stay out
# of the result's attempted and failed counts, which cover the timed calls
# only, so that the counts agree between runs of the same code.
KNOWN_DEFECTS = {
    "window": [
        ("restriction_overflow_d3",
         "pipeline_cell(10^4, d=3, c=21/20): mass ** 104.5 overflows in "
         "restriction_moment_sampled",
         lambda pl, np: pipeline_defect(pl, np, "defect_1e4_d3", 10 ** 4, 3)),
        ("sparse_transform_precision_d4",
         "pipeline_cell(3*10^4, d=4, c=21/20): sparse_transform is off the "
         "exact fold at positions up to 2^54.5",
         lambda pl, np: transform_defect(pl, np, "defect_3e4_d4",
                                         3 * 10 ** 4, 4)),
    ],
}


def check_known_defects(pl, np, workload) -> None:
    """Run each known defect once and print whether it still fails."""
    for label, text, probe in KNOWN_DEFECTS.get(workload, []):
        try:
            error = probe(pl, np)
        except Exception as exc:  # the defect may raise; report it by name
            error = f"{type(exc).__name__}: {exc}"
        if error is None:
            print(f"known defect {label}: now passes ({text})")
        else:
            print(f"known defect {label}: FAILED ({text}): {error}")


# --- probes -----------------------------------------------------------------------

def setup_probe(env: Dict[str, str]) -> float:
    """Wall time of a fresh interpreter that imports pslab and makes one call.

    The wait blocks in waitpid, because ``Popen.wait(timeout)`` polls with
    sleeps of up to 50 ms and would round each probe up to the next poll.
    A timer kills a child that hangs.
    """
    cmd = [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))]
    start = time.perf_counter()
    with subprocess.Popen(cmd, env=env) as proc:
        killer = threading.Timer(120, proc.kill)
        killer.start()
        code = proc.wait()
        elapsed = time.perf_counter() - start
        killer.cancel()
        killer.join()
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def host_probe() -> float:
    """Wall time of a fixed mix of work that tracks host speed, not pslab.

    An interpreter loop, a dict of 200k tuples and a numpy sort of 16 MB:
    the kinds of work pslab's calls do, so a slow host phase stretches the
    probe about as much as the calls around it.
    """
    import numpy as np
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    table = {}
    for i in range(200_000):
        table[(i * 7919) % 1_000_003] = (i, acc)
    data = np.random.default_rng(0).integers(0, 1 << 40, size=2_000_000)
    data.sort()
    return time.perf_counter() - start


def warm_up(pl) -> None:
    """Touch every code path once at a tiny size, so lazy set-up is done."""
    c = pl.ps_core.PSExponent(21, 20)
    pl.cli.pipeline_cell(1000, 2, c, 32)
    pl.cli.pipeline_cell(300, 4, c, 32, run_avoider=False)
    system = pl.diophantine.validate_system((1, 1, -1, -1), 2)
    pl.diophantine.enumerate_solutions(range(1, 40), system)
    pl.expsum.quadrature_vs_count(10, 2, 4, 512)
    pl.expsum.mean_value_count(10, 2, 6)


# --- timed passes ---------------------------------------------------------------------

def tail_summary(samples: List[float]) -> Dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    q1 = statistics.quantiles(ordered, n=4, method="inclusive")[0] if n > 1 else ordered[0]
    out = {"n": n, "min": ordered[0], "q1": q1,
           "median": statistics.median(ordered)}
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = ordered[min(n - 1, math.ceil(n * pct / 100) - 1)]
            break
    return out


@dataclass
class PassLog:
    """Per call name: the timed seconds, the host probe around each call
    (mean of the probes just before and just after it), the outputs and
    the exceptions; and every host probe in order."""

    times: Dict[str, List[float]]
    host: Dict[str, List[float]]
    outputs: Dict[str, list]
    errors: Dict[str, List[str]]
    probes: List[float]

    @classmethod
    def for_calls(cls, calls: List[Call]) -> "PassLog":
        return cls(*({c.name: [] for c in calls} for _ in range(4)), [])

    def probe(self) -> float:
        self.probes.append(host_probe())
        return self.probes[-1]


def run_pass(calls: List[Call], rng: random.Random, log: PassLog,
             between: Callable[[], None], tracer=None) -> float:
    """One pass over the calls in a seeded order; returns its timed seconds.

    A host probe runs before the first call and after each call, and
    ``between`` after that, all outside the timed region.
    """
    order = list(calls)
    rng.shuffle(order)
    spent = 0.0
    before = log.probe()
    for call in order:
        gc.collect()
        if tracer is not None:
            tracer.begin()
        start = time.perf_counter()
        try:
            out = call.run()
        except Exception as exc:  # a raising call counts as failed
            out = None
            log.errors[call.name].append(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
        spent += elapsed
        after = log.probe()
        log.times[call.name].append(elapsed)
        log.host[call.name].append((before + after) / 2)
        before = after
        if out is not None:
            log.outputs[call.name].append(out)
        between()
    return spent


def check_outputs(calls: List[Call], log: PassLog) -> Tuple[int, int]:
    """Check every output; returns (attempted, failed)."""
    attempted = failed = 0
    for call in calls:
        attempted += len(log.times[call.name])
        failed += len(log.errors[call.name])
        verdicts = [call.check(out) for out in log.outputs[call.name]]
        failed += sum(v is not None for v in verdicts)
        for error in sorted({*log.errors[call.name], *filter(None, verdicts)}):
            print(f"FAILED {call.name}: {error}")
    return attempted, failed


def peak_rss_pass(calls: List[Call]) -> float:
    """Peak RSS in MB after one pass over the calls, before any host probe.

    ru_maxrss only grows, so it is read before the probes' own allocations
    can set it.  A call that raises is counted by the timed passes.
    """
    for call in calls:
        gc.collect()
        with contextlib.suppress(Exception):
            call.run()
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(calls, rng, seconds, env) -> Tuple[PassLog, List[float]]:
    """Untraced passes for `seconds`, with set-up probes spread through."""
    log = PassLog.for_calls(calls)
    setups: List[float] = []
    start = time.perf_counter()

    def between():
        due = seconds * len(setups) / SETUP_PROBES
        if len(setups) < SETUP_PROBES and time.perf_counter() - start >= due:
            setups.append(setup_probe(env))

    while True:
        pass_start = time.perf_counter()
        run_pass(calls, rng, log, between)
        end = time.perf_counter()
        if end - start + (end - pass_start) > seconds:
            break
    while len(setups) < 3:
        setups.append(setup_probe(env))
    return log, setups


# --- traced run -------------------------------------------------------------------------

class Tracer:
    """Records a span around each wrapped pslab function.

    A span is [name, start, end, parent index, raised].  Counts derived
    from arguments and results accumulate by metric name.  Spans stay in
    memory and are summarised per call.
    """

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self.per_call: List[Dict[str, float]] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self.stack[-1] if self.stack else -1, False]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                for key, value in count(*args, result=result, **kwargs).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result
        return traced

    def begin(self):
        self.spans, self.stack, self.counts = [], [], {}

    def end(self):
        """Fold the spans of one call into self time and counts per name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        summary = dict(self.counts)
        for (name, start, end, _, raised), inner in zip(self.spans, child):
            summary[f"self:{name}"] = summary.get(f"self:{name}", 0.0) + end - start - inner
            summary[f"calls:{name}"] = summary.get(f"calls:{name}", 0) + 1
            if raised:
                module = name.split(".")[0]
                summary[f"{module}.raised"] = summary.get(f"{module}.raised", 0) + 1
        self.per_call.append(summary)


def traced_functions(candidates):
    """(module, function, count) for every layer boundary the trace records."""

    def transform_terms(weight, alphas, *_, result, **__):
        return {"expsum.sparse_transform.terms": len(weight) * len(alphas)}

    def support(*_, result, **__):
        return {"wtrick.build_majorant.support": len(result)}

    def window_mb(x, d, S, *_, result, **__):
        if S != 4 or 2 * x ** d >= 2 ** 62:  # only the pair path has a window
            return {}
        span = min(1 << 26, 2 * x ** d - 2 + 1)
        return {"expsum.mean_value_count.window_mb": span * 4 / 2 ** 20}

    def avoider_counts(x, c, *_, result, **__):
        return {"diophantine.greedy_avoider.candidates": candidates(x, c),
                "diophantine.greedy_avoider.accepted": len(result[0])}

    def solution_counts(A, system, *_, result, **__):
        size = len({int(a) for a in A})
        return {"diophantine.enumerate_solutions.table_entries":
                size ** ((system.s + 1) // 2),
                "diophantine.enumerate_solutions.solutions": result.total}

    return [
        ("ps_core", "ps_members", None), ("ps_core", "sieve_primes", None),
        ("ps_core", "ps_primes", None),
        ("wtrick", "choose_b", None), ("wtrick", "build_majorant", support),
        ("expsum", "sparse_transform", transform_terms),
        ("expsum", "fourier_decay_sampled", None),
        ("expsum", "restriction_moment_sampled", None),
        ("expsum", "mean_value_count", window_mb),
        ("expsum", "quadrature_vs_count", None),
        ("diophantine", "greedy_avoider", avoider_counts),
        ("diophantine", "enumerate_solutions", solution_counts),
        ("diophantine", "k_trivial_weighted_sum", None),
        ("exponents", "c_of", None), ("exponents", "eta", None),
        ("exponents", "u_threshold", None), ("exponents", "density_bound", None),
        ("exponents", "degree_params", None),
        ("cli", "pipeline_cell", None),
    ]


@contextlib.contextmanager
def installed(pl, tracer, functions):
    """Rebind each traced function in every pslab module that holds it."""
    undo: List[Tuple[object, str, object]] = []
    modules = [getattr(pl, m) for m in MODULES]
    try:
        for mod_name, fn_name, count in functions:
            original = getattr(getattr(pl, mod_name), fn_name)
            traced = tracer.wrap(f"{mod_name}.{fn_name}", original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        undo.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


PER_LAYER_UNITS = {
    "ps_core.ps_members.s": "s", "ps_core.sieve_primes.s": "s",
    "ps_core.ps_primes.calls": "count",
    "wtrick.choose_b.s": "s", "wtrick.build_majorant.s": "s",
    "wtrick.build_majorant.support": "count",
    "expsum.sparse_transform.s": "s", "expsum.sparse_transform.calls": "count",
    "expsum.sparse_transform.terms": "count",
    "expsum.fourier_decay_sampled.s": "s",
    "expsum.restriction_moment_sampled.s": "s",
    "expsum.mean_value_count.s": "s",
    "expsum.mean_value_count.window_mb": "MB_computed",
    "expsum.quadrature_vs_count.s": "s",
    "diophantine.greedy_avoider.self_s": "s",
    "diophantine.greedy_avoider.candidates": "count",
    "diophantine.greedy_avoider.accept_ratio": "ratio",
    "diophantine.enumerate_solutions.s": "s",
    "diophantine.enumerate_solutions.table_entries": "count",
    "diophantine.enumerate_solutions.solutions": "count",
    "diophantine.k_trivial_weighted_sum.s": "s",
    "exponents.s": "s",
    "cli.pipeline_cell.self_s": "s",
    **{f"{m}.raised": "count" for m in MODULES},
    "trace.overhead_s": "s",
    "host.calib_s": "s",
}


def pass_layers(summaries: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-layer values of one pass, from the summaries of its calls."""
    total: Dict[str, float] = {}
    for summary in summaries:
        for key, value in summary.items():
            total[key] = total.get(key, 0) + value
    out = {}
    for metric in PER_LAYER_UNITS:
        head, _, tail = metric.rpartition(".")
        if metric == "exponents.s":
            out[metric] = sum((v for k, v in total.items()
                               if k.startswith("self:exponents.")), 0.0)
        elif tail in ("s", "self_s"):
            out[metric] = total.get(f"self:{head}", 0.0)
        elif tail == "calls":
            out[metric] = total.get(f"calls:{head}", 0)
        elif metric == "diophantine.greedy_avoider.accept_ratio":
            cand = total.get("diophantine.greedy_avoider.candidates", 0)
            out[metric] = (total.get("diophantine.greedy_avoider.accepted", 0)
                           / cand if cand else 0.0)
        elif metric in ("trace.overhead_s", "host.calib_s"):
            continue
        else:
            out[metric] = total.get(metric, 0)
    return out


def traced_run(pl, calls, rng, seconds):
    """Untraced and traced passes in turn; per-layer medians over traced ones."""
    log = PassLog.for_calls(calls)
    plain: List[float] = []
    traced: List[float] = []
    layers: List[Dict[str, float]] = []
    tracer = Tracer()
    ps_primes = pl.ps_core.ps_primes  # untraced, so counting adds no span
    candidates = functools.lru_cache(maxsize=None)(
        lambda x, c: len(ps_primes(x, c)))
    functions = traced_functions(candidates)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        plain.append(run_pass(calls, rng, log, lambda: None))
        tracer.per_call.clear()
        with installed(pl, tracer, functions):
            traced.append(run_pass(calls, rng, log, lambda: None, tracer=tracer))
        layers.append(pass_layers(tracer.per_call))
        end = time.perf_counter()
        if end - start + (end - pass_start) > seconds:
            break
    metrics = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["host.calib_s"] = statistics.median(log.probes)
    return log, metrics


# --- main -------------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("avoider", "window", "counting"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread: pslab's only BLAS call is a small gemv in
    # sparse_transform.  With a second thread every call waits on the other
    # vCPU, which on a shared 2-vCPU host added 0.05-0.35 s of host-dependent
    # delay per avoider cell.  Set before numpy loads; the set-up probes run
    # with the caller's environment, as a user's invocation would.
    user_env = dict(os.environ)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        pl = load_pslab()
        import numpy as np
        machine = machine_record(np)
    except Abort as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print("machine " + json.dumps(machine))

    rng = random.Random(args.seed)
    calls = build_workload(pl, np, args.workload, rng)
    warm_up(pl)

    if args.trace:
        log, layer_metrics = traced_run(pl, calls, rng, args.seconds)
        metrics = {k: {"value": layer_metrics[k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
    else:
        peak_mb = peak_rss_pass(calls)
        log, setups = timed_run(calls, rng, args.seconds, user_env)
        # The host's speed drifts by up to 2x in phases of seconds to
        # minutes, so whole runs can fall in a slow phase.  Each call's time
        # is divided by the host probe around it and given at the probe's
        # reference speed; wall_s sums the per-call medians of that.
        scaled = {}
        for name, ts in log.times.items():
            scaled[name] = [HOST_REF_S * t / h for t, h in zip(ts, log.host[name])]
            print(f"call {name} " + json.dumps(tail_summary(ts)))
            print(f"scaled {name} " + json.dumps(tail_summary(scaled[name])))
        print("host.calib_s " + json.dumps(tail_summary(log.probes)))
        print("setup_s " + json.dumps(tail_summary(setups)))
        print("wall_raw_min_s " + json.dumps(sum(min(ts) for ts in log.times.values())))
        wall = sum(statistics.median(v) for v in scaled.values())
        metrics = {"wall_s": {"value": wall, "unit": "s"},
                   "setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}

    attempted, failed = check_outputs(calls, log)
    check_known_defects(pl, np, args.workload)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
