"""Experiment orchestration: reproducible runs, sweeps, CSV/JSON reports.

Config files are line-oriented ``key=value`` text; a sweep key may repeat
to form a list, and a key read as one value must not repeat.  Every run
emits a manifest (config hash, version, timing, per-check pass/fail,
artifact list; on stderr without ``--out-dir``); re-running an identical
config reproduces identical CSV bytes.

Exit codes: 0 success, 2 precondition failure, 3 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__, diophantine, exponents, expsum, wtrick
from .ps_core import (PSExponent, parse_rational, pnt_ratio,
                      ps_prime_segments, ps_primes)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_CHECK = 3

MAX_SWEEP_CELLS = 10_000

CONFIG_KEYS = ("x", "d", "s", "c", "toy_w", "samples")


class CheckFailure(RuntimeError):
    """A manifest check came out false."""


class ConfigError(ValueError):
    """Malformed or out-of-range configuration."""


# --- config ----------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Ordered key=value pairs; repeated keys encode lists."""

    pairs: List[Tuple[str, str]] = field(default_factory=list)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        pairs = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            pairs.append((key, value))
        return cls(pairs=pairs)

    def to_text(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in self.pairs)

    def sha256(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """The key's one value, or ``default``; a repeated key is an error."""
        values = self.get_list(key)
        if len(values) > 1:
            raise ConfigError(f"{key} takes one value, got {len(values)}")
        return values[0] if values else default

    def get_list(self, key: str) -> List[str]:
        return [v for k, v in self.pairs if k == key]

    def get_int(self, key: str, default: Optional[int] = None) -> Optional[int]:
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key} must be an integer, got {raw!r}") from exc


# --- value formatting -------------------------------------------------------

def _fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return str(int(v))
    return str(v)


def emit_rows(rows: Sequence[Dict], columns: Sequence[str], fmt: str,
              stream) -> None:
    if fmt == "json":
        json.dump([{c: _fmt_value(r.get(c)) for c in columns} for r in rows],
                  stream, indent=2)
        stream.write("\n")
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt_value(row.get(c)) for c in columns])


def write_rows(rows, columns, fmt, path: Optional[Path]) -> None:
    if path is None:
        emit_rows(rows, columns, fmt, sys.stdout)
    else:
        with open(path, "w") as fh:
            emit_rows(rows, columns, fmt, fh)


# --- pipeline ----------------------------------------------------------------

PIPELINE_COLUMNS = [
    "x", "d", "s", "c", "W", "b", "sigma", "prime_count", "mass",
    "decay", "u", "restrict_moment", "restrict_ratio",
    "ktrivial_left", "ktrivial_right", "ktrivial_ratio",
    "density_bound", "avoider_size", "avoider_nontrivial", "warnings",
]


@dataclass
class RunManifest:
    config_hash: str
    version: str
    elapsed: float = 0.0
    checks: Dict[str, bool] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)
    rows: List[Dict] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "config_hash": self.config_hash,
            "version": self.version,
            "elapsed": self.elapsed,
            "checks": self.checks,
            "warnings": self.warnings,
            "artifacts": self.artifacts,
            "rows": [{k: _fmt_value(v) for k, v in row.items()}
                     for row in self.rows],
        }
        return json.dumps(payload, indent=2) + "\n"


def _zero_row(x: int, d: int, s: int, c: PSExponent) -> Dict:
    row = {col: 0 for col in PIPELINE_COLUMNS}
    row.update(x=x, d=d, s=s, c=str(c), warnings="")
    return row


def pipeline_cell(x: int, d: int, c: PSExponent, toy_w: Optional[int],
                  s: Optional[int] = None, samples: int = 4096,
                  run_avoider: bool = True) -> Tuple[Dict, List[str]]:
    """One end-to-end run; returns the report row and any warnings.

    Stages: sequence primes, tallied one sieve segment at a time into the
    majorant's fold, mass and sum of nu^s per class (every prime is held
    only for the avoider), residue choice, one torus grid of ``samples``
    points giving the Fourier decay and the restriction moment at the
    threshold exponent plus 1/2, the diagonal structured weighted sum,
    the density envelope, and the greedy avoiding-set experiment with
    independent verification.
    """
    warnings_out: List[str] = []
    params_d = exponents.degree_params(d)
    s = s if s is not None else params_d.s_bar
    if x < 16:
        return _zero_row(x, d, s, c), warnings_out

    radius = exponents.c_of(d, s)
    if not (1 < c.c < 1 + radius):
        warnings_out.append(
            f"c = {c} outside the admissible range (1, 1 + {radius})"
        )

    params = wtrick.w_params(x, d, toy_w=toy_w)
    if run_avoider:  # it scans every sequence prime, so they are kept
        primes = ps_primes(x, c)
        segments = [primes.members]
    else:
        segments = ps_prime_segments(x, c)
    nu = wtrick.fold_majorant(segments, params, c, samples, s)

    grid = expsum.fourier_grid(nu, samples)
    decay = expsum.fourier_decay_sampled(grid)
    try:
        thr, _ = exponents.u_threshold(d, c.c)
        u = float(thr) + 0.5
    except exponents.InadmissibleCError:
        warnings_out.append("restriction threshold undefined; using S + 1/2")
        u = params_d.S + 0.5
    moment, ratio = expsum.restriction_moment_sampled(grid, u)

    try:
        eta_val = float(exponents.eta(d, s, c.c))
    except exponents.InadmissibleCError:
        warnings_out.append("saving exponent negative; evaluated at 0")
        eta_val = 0.0
    left, right = diophantine.k_trivial_weighted_sum(nu, s, eta_val)

    bound = exponents.density_bound(x, d, s, c.c)
    if bound.guarded:
        warnings_out.append("density envelope quad-log guarded")

    if run_avoider:
        # the three-variable Roth form, diagonal K
        roth = diophantine.validate_system((1, -2, 1), d)
        avoider, report = diophantine.greedy_avoider(x, c, roth, primes=primes)
        avoider_size, avoider_nontrivial = len(avoider), report.nontrivial
    else:
        avoider_size = avoider_nontrivial = 0

    row = {
        "x": x, "d": d, "s": s, "c": str(c), "W": params.W, "b": nu.b,
        "sigma": nu.sigma_b, "prime_count": nu.prime_count, "mass": grid.mass,
        "decay": decay, "u": u, "restrict_moment": moment,
        "restrict_ratio": ratio, "ktrivial_left": left,
        "ktrivial_right": right,
        "ktrivial_ratio": left / right if right > 0 else float("inf"),
        "density_bound": bound.value, "avoider_size": avoider_size,
        "avoider_nontrivial": avoider_nontrivial,
        "warnings": ";".join(warnings_out),
    }
    return row, warnings_out


def _cell_args(config: ExperimentConfig) -> Dict:
    """``pipeline_cell``'s arguments: x, and d = 2, c = 21/20, samples = 4096
    unless the cell's config sets them."""
    x = config.get_int("x")
    if x is None:
        raise ConfigError("a pipeline cell needs x")
    return dict(x=x, d=config.get_int("d", 2),
                c=PSExponent.parse(config.get("c", "21/20")),
                toy_w=config.get_int("toy_w"), s=config.get_int("s"),
                samples=config.get_int("samples", 4096))


def _run_cells(config: ExperimentConfig, cells: Sequence[ExperimentConfig],
               run_avoider: bool) -> RunManifest:
    """One pipeline row per cell, in order, and the checks over all rows.

    Cells are always evaluated sequentially and buffered in cell order, so
    the emitted CSV is byte-identical across runs.
    """
    start = time.perf_counter()
    manifest = RunManifest(config_hash=config.sha256(), version=__version__)
    for cell in cells:
        row, warns = pipeline_cell(**_cell_args(cell), run_avoider=run_avoider)
        manifest.rows.append(row)
        manifest.warnings.extend(warns)

    def finite(column: str) -> bool:
        return all(math.isfinite(float(r[column])) for r in manifest.rows)

    manifest.checks.update(
        decay_finite=finite("decay"),
        restriction_finite=finite("restrict_moment"),
        ktrivial_finite=finite("ktrivial_left"),
        avoider_clean=all(int(r["avoider_nontrivial"]) == 0
                          for r in manifest.rows))
    manifest.elapsed = time.perf_counter() - start
    return manifest


SWEEP_KEYS = ["x", "d", "s", "c", "toy_w"]


def sweep_cells(config: ExperimentConfig) -> List[ExperimentConfig]:
    """One config per cell of the cartesian product of all listed
    parameters, in file order; every cell carries the sweep's samples."""
    axes = [[(key, v) for v in config.get_list(key)] for key in SWEEP_KEYS]
    axes = [axis for axis in axes if axis]
    n_cells = math.prod(map(len, axes))
    if n_cells > MAX_SWEEP_CELLS:
        raise ConfigError(f"sweep has {n_cells} cells > {MAX_SWEEP_CELLS}")
    samples = [("samples", v) for v in config.get_list("samples")]
    return [ExperimentConfig(pairs=[*cell, *samples])
            for cell in itertools.product(*axes)]


# --- subcommand handlers -----------------------------------------------------

def _out_path(args, name: str) -> Optional[Path]:
    if args.out_dir is None:
        return None
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _emit(args, name: str, rows: List[Dict]) -> int:
    """Write ``rows``, whose first row's keys are the columns, as ``name``."""
    write_rows(rows, list(rows[0]), args.format, _out_path(args, name))
    return EXIT_OK


def cmd_exponents_table(args) -> int:
    if args.d_min > args.d_max or args.s_count < 1:
        raise ConfigError("exponents table needs --d-min <= --d-max and "
                          "--s-count >= 1")
    rows = exponents.table_rows(args.d_min, args.d_max, s_count=args.s_count)
    return _emit(args, "exponents.csv", list(rows))


def cmd_ps_count(args) -> int:
    if args.decades < 0:
        raise ConfigError(f"--decades must be >= 0, got {args.decades}")
    c = PSExponent.parse(args.c)
    rows = []
    for j in range(args.decades, -1, -1):
        rep = pnt_ratio(args.x // 10 ** j, c)
        rows.append({"x": rep.x, "count": rep.count, "ratio": rep.ratio})
    return _emit(args, "ps_count.csv", rows)


def _refuse_global_flags(args) -> None:
    """A subcommand that writes no rows reads neither global flag."""
    command = f"{args.command} {args.subcommand}"
    if args.format != "csv":
        raise ConfigError(f"{command} writes no rows; --format refused")
    if args.out_dir is not None:
        raise ConfigError(f"{command} writes no artifacts; --out-dir refused")


def cmd_ps_list(args) -> int:
    _refuse_global_flags(args)
    c = PSExponent.parse(args.c)
    for p in ps_primes(args.x, c).members:
        print(int(p))
    return EXIT_OK


def cmd_wtrick_majorant(args) -> int:
    _refuse_global_flags(args)
    nu = _majorant_from_args(args)
    with open(args.out, "w") as fh:
        fh.write(f"# x={args.x},d={args.d},c={nu.c},W={nu.params.W},"
                 f"b={nu.b},sigma={nu.sigma_b},N={nu.N}\n")
        for n, w in zip(nu.positions.tolist(), nu.values.tolist()):
            fh.write(f"{n},{w!r}\n")
    print(f"wrote {len(nu)} weights to {args.out}")
    return EXIT_OK


def cmd_expsum_weyl(args) -> int:
    val = expsum.weyl_sum(args.x, args.d, parse_rational(args.alpha))
    return _emit(args, "weyl.csv", [{"x": args.x, "d": args.d,
                                     "alpha": args.alpha, "re": val.real,
                                     "im": val.imag, "abs": abs(val)}])


def cmd_expsum_meanvalue(args) -> int:
    count = expsum.mean_value_count(args.x, args.d, args.S)
    norm = count / (args.x ** (args.S - args.d) * math.log(max(args.x, 2)))
    return _emit(args, "meanvalue.csv", [{"x": args.x, "d": args.d,
                                          "S": args.S, "count": count,
                                          "normalized": norm}])


def _majorant_from_args(args) -> wtrick.Majorant:
    c = PSExponent.parse(args.c)
    params = wtrick.w_params(args.x, args.d, toy_w=args.toy_w)
    return wtrick.choose_majorant(ps_primes(args.x, c).members, params, c)


def _grid_from_args(args) -> expsum.FourierGrid:
    """The majorant's grid of ``--samples`` points, tallied as a cell's."""
    c = PSExponent.parse(args.c)
    params = wtrick.w_params(args.x, args.d, toy_w=args.toy_w)
    nu = wtrick.fold_majorant(ps_prime_segments(args.x, c), params, c,
                              args.samples, 1)  # the grid reads no nu^s
    return expsum.fourier_grid(nu, args.samples)


def cmd_expsum_decay(args) -> int:
    grid = _grid_from_args(args)
    value = expsum.fourier_decay_sampled(grid)
    return _emit(args, "decay.csv", [{"x": args.x, "d": args.d, "c": args.c,
                                      "samples": args.samples,
                                      "decay": value}])


def cmd_expsum_restrict(args) -> int:
    grid = _grid_from_args(args)
    moment, ratio = expsum.restriction_moment_sampled(grid, args.u)
    return _emit(args, "restrict.csv", [{"x": args.x, "d": args.d,
                                         "c": args.c, "u": args.u,
                                         "moment": moment, "ratio": ratio}])


def cmd_expsum_arcs(args) -> int:
    # bad input is refused before mu is built, which is slow at large x
    alphas = [parse_rational(alpha) for alpha in args.alpha]
    if args.Q < 1:
        raise ValueError(f"Q must be >= 1, got {args.Q}")
    params = wtrick.w_params(args.x, args.d, toy_w=args.toy_w)
    adm = wtrick.admissible_residues(params.W, args.d)
    if not adm:
        raise wtrick.EmptyResidueSetError(f"no admissible b mod {params.W}")
    mu = wtrick.build_mu(args.x, args.d, adm[0], params)
    rows = []
    for alpha, point in zip(args.alpha, alphas):
        lab = expsum.classify_arc(point, mu, args.x, args.d, Q=args.Q)
        rows.append({"alpha": alpha, "kind": lab.kind, "witness": lab.witness,
                     "threshold": lab.threshold, "a": lab.a, "q": lab.q,
                     "envelope": lab.envelope})
    return _emit(args, "arcs.csv", rows)


def _load_set(spec: str) -> List[int]:
    """Element set from 'ps:x,c' or a file of one integer per line."""
    if spec.startswith("ps:"):
        x_str, c_str = spec[3:].split(",", 1)
        return [int(p) for p in ps_primes(int(x_str),
                                          PSExponent.parse(c_str)).members]
    with open(spec) as fh:
        return [int(line) for line in fh if line.strip()]


def cmd_dioph_count(args) -> int:
    coeffs = [int(tok) for tok in args.coeffs.split(",")]
    sys_ = diophantine.validate_system(coeffs, args.d)
    elems = _load_set(args.set)
    K = None  # the diagonal
    if args.K is not None:
        with open(args.K) as fh:
            K = diophantine.parse_subspace_file(fh.read(), sys_)
    report = diophantine.enumerate_solutions(elems, sys_, K, cap=args.cap)
    return _emit(args, "dioph.csv", [{
        "coeffs": args.coeffs, "d": args.d, "set_size": len(set(elems)),
        "total": report.total, "trivial": report.trivial,
        "nontrivial": report.nontrivial, "truncated": report.truncated}])


def _config_from_args(args) -> ExperimentConfig:
    """The run's config: the ``--config`` file or the per-key flags, not both."""
    pairs = [(key, str(getattr(args, key))) for key in CONFIG_KEYS
             if getattr(args, key, None) is not None]
    if args.config is None:
        return ExperimentConfig(pairs=pairs)
    if pairs:
        raise ConfigError("--config cannot be combined with "
                          + ", ".join("--" + k.replace("_", "-")
                                      for k, _ in pairs))
    with open(args.config) as fh:
        return ExperimentConfig.from_text(fh.read())


def _write_run(args, manifest: RunManifest, csv_name: str) -> int:
    """Write the rows, then the manifest, which lists both files; raise
    CheckFailure naming every failed check.

    Without ``--out-dir`` the rows go to stdout and the manifest to stderr.
    """
    csv_path = _out_path(args, csv_name)
    man_path = _out_path(args, "manifest.json")
    if man_path is not None:
        manifest.artifacts.extend([str(csv_path), str(man_path)])
    write_rows(manifest.rows, PIPELINE_COLUMNS, args.format, csv_path)
    if man_path is None:
        sys.stderr.write(manifest.to_json())
    else:
        man_path.write_text(manifest.to_json())
    failed = [k for k, v in manifest.checks.items() if not v]
    if failed:
        raise CheckFailure("failed checks: " + ", ".join(failed))
    return EXIT_OK


def cmd_pipeline(args) -> int:
    config = _config_from_args(args)
    manifest = _run_cells(config, [config], run_avoider=not args.no_avoider)
    return _write_run(args, manifest, "pipeline.csv")


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    manifest = _run_cells(config, sweep_cells(config),
                          run_avoider=args.avoider)
    return _write_run(args, manifest, "sweep.csv")


# --- parser -------------------------------------------------------------------

def _majorant_parser(subparsers, name: str, func):
    """A subcommand with the majorant's flags, read by _majorant_from_args."""
    t = subparsers.add_parser(name)
    t.add_argument("--x", type=int, required=True)
    t.add_argument("--d", type=int, required=True)
    t.add_argument("--c", required=True)
    t.add_argument("--toy-w", type=int, default=None)
    t.set_defaults(func=func)
    return t


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pslab",
        description="Experiments on floor-power primes, exponential sums, "
                    "and power-system solution counts.",
    )
    parser.add_argument("--out-dir", default=None,
                        help="write artifacts here instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents")
    ps_sub = p.add_subparsers(dest="subcommand", required=True)
    t = ps_sub.add_parser("table")
    t.add_argument("--d-min", type=int, default=2)
    t.add_argument("--d-max", type=int, default=12)
    t.add_argument("--s-count", type=int, default=3)
    t.set_defaults(func=cmd_exponents_table)

    p = sub.add_parser("ps")
    ps_sub = p.add_subparsers(dest="subcommand", required=True)
    t = ps_sub.add_parser("count")
    t.add_argument("--c", required=True)
    t.add_argument("--x", type=int, required=True)
    t.add_argument("--decades", type=int, default=0)
    t.set_defaults(func=cmd_ps_count)
    t = ps_sub.add_parser("list")
    t.add_argument("--c", required=True)
    t.add_argument("--x", type=int, required=True)
    t.set_defaults(func=cmd_ps_list)

    p = sub.add_parser("wtrick")
    ps_sub = p.add_subparsers(dest="subcommand", required=True)
    t = _majorant_parser(ps_sub, "majorant", cmd_wtrick_majorant)
    t.add_argument("--out", required=True)

    p = sub.add_parser("expsum")
    ps_sub = p.add_subparsers(dest="subcommand", required=True)
    t = ps_sub.add_parser("weyl")
    t.add_argument("--x", type=int, required=True)
    t.add_argument("--d", type=int, required=True)
    t.add_argument("--alpha", required=True)
    t.set_defaults(func=cmd_expsum_weyl)
    t = ps_sub.add_parser("meanvalue")
    t.add_argument("--x", type=int, required=True)
    t.add_argument("--d", type=int, required=True)
    t.add_argument("--S", type=int, required=True)
    t.set_defaults(func=cmd_expsum_meanvalue)
    t = _majorant_parser(ps_sub, "decay", cmd_expsum_decay)
    t.add_argument("--samples", type=int, default=4096)
    t = _majorant_parser(ps_sub, "restrict", cmd_expsum_restrict)
    t.add_argument("--u", type=float, required=True)
    t.add_argument("--samples", type=int, default=4096)
    t = ps_sub.add_parser("arcs")
    t.add_argument("--x", type=int, required=True)
    t.add_argument("--d", type=int, required=True)
    t.add_argument("--toy-w", type=int, default=None)
    t.add_argument("--alpha", action="append", required=True)
    t.add_argument("--Q", type=int, default=1000)
    t.set_defaults(func=cmd_expsum_arcs)

    p = sub.add_parser("dioph")
    ps_sub = p.add_subparsers(dest="subcommand", required=True)
    t = ps_sub.add_parser("count")
    t.add_argument("--coeffs", required=True)
    t.add_argument("--d", type=int, required=True)
    t.add_argument("--set", required=True,
                   help="'ps:x,c' or a file of integers")
    t.add_argument("--K", default=None, help="constraint-matrix file")
    t.add_argument("--cap", type=int, default=100)
    t.set_defaults(func=cmd_dioph_count)

    t = sub.add_parser("pipeline")
    t.add_argument("--config", default=None)
    for key in CONFIG_KEYS:
        t.add_argument("--" + key.replace("_", "-"), default=None,
                       type=str if key == "c" else int)
    t.add_argument("--no-avoider", action="store_true")
    t.set_defaults(func=cmd_pipeline)

    t = sub.add_parser("sweep")
    t.add_argument("--config", required=True)
    t.add_argument("--avoider", action="store_true")
    t.set_defaults(func=cmd_sweep)

    return parser


# Only the package's own refusals and bad input exit 2; any other error,
# such as a float overflow inside a stage, is an internal fault and raises.
PRECONDITION_ERRORS = (ValueError, diophantine.SplitRefusedError,
                       expsum.CountRefusedError, OSError)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckFailure as exc:
        sys.stderr.write(f"check failure: {exc}\n")
        return EXIT_CHECK
    except PRECONDITION_ERRORS as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
