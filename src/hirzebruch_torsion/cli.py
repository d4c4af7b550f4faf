"""Command-line front end: torsion values, heights, tables, reports.

All configuration is by flags (no environment variables), and identical
invocations produce byte-identical output.  Exit codes: 0 success, 1 a
verification failed, 2 bad configuration (a ruling index whose floats
overflow, such as --n 10**400 for forms, integrals or verify, included, and
one whose logarithms need prime factors beyond the bounded factorization,
such as --n 10**400 for torsion or table, and a --grid-points or
--height-range above MAX_COUNT), 3 quadrature failed to converge,
141 the reader closed standard output early (128 + SIGPIPE, as a shell
reports for a tool stopped by a closed pipe; nothing is printed then).
A command refuses a bad flag value with ConfigError, which main reports,
as it does the factorization limit, as one "error: ..." line and exit 2.

A process imports only what its command runs: constants and settings (the
value protocol, the quadrature settings and the report text of a float)
for every command;
radial, forms, chow and torsion where the command uses them (height needs
the ring but not torsion); the kernels module (the evaluation kernels) only
where something is evaluated in floats (table, integrals, verify and forms),
and the quadrature module (the rules) only where something is integrated
(all of these but forms); and json only where JSON is written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional, Sequence

from .constants import ExactConstant, FactorizationLimit, ZETA_M1, ZETA_PRIME_M1, atom_table
from .settings import DEFAULT_CONFIG, SCHEMES, NonConvergence, QuadratureConfig, _fmt

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_BROKEN_PIPE = 141

MAX_COUNT = 10**6  # the largest --grid-points and --height-range


class ConfigError(Exception):
    """Bad configuration, which main reports as one error line and exit 2."""


def format_exact(c: ExactConstant, expand_tau: bool = False) -> str:
    """Canonical human-readable form, folding the base-line torsion when possible."""
    if expand_tau:
        return str(c)
    from . import torsion

    t = torsion.closed_tau_p1()
    q = -c.coefficient(ZETA_PRIME_M1) / 4
    if q != 0:
        rest = c - t.scale(q)
        if rest.coefficient(ZETA_PRIME_M1) == 0 and rest.coefficient(ZETA_M1) == 0:
            mult = "" if abs(q) == 1 else f"{abs(q)}*"
            if rest.is_zero:
                sign = "-" if q < 0 else ""
            else:
                sign = str(rest) + (" - " if q < 0 else " + ")
            return f"{sign}{mult}tau_P1"
    return str(c)


def _parse_n_list(args) -> List[int]:
    if getattr(args, "n_list", None):
        try:
            values = [int(s) for s in args.n_list.split(",") if s != ""]
        except ValueError as exc:  # names the token that is not an integer
            raise ConfigError(f"--n-list: {exc}")
        if not values or any(v < 0 for v in values):
            raise ConfigError("ruling indices must be integers >= 0")
        return values
    if getattr(args, "n_max", None) is not None:
        if args.n_max < 0:
            raise ConfigError("--n-max must be >= 0")
        return list(range(args.n_max + 1))
    if getattr(args, "n", None) is not None:
        if args.n < 0:
            raise ConfigError("--n must be >= 0")
        return [args.n]
    raise ConfigError("one of --n / --n-list / --n-max is required")


def _print_json(value, file=None) -> None:
    import json

    print(json.dumps(value, indent=2), file=file)


def _quad_config(args) -> QuadratureConfig:
    try:
        return QuadratureConfig(target_tol=args.quad_tol, scheme=args.scheme)
    except ValueError as exc:
        raise ConfigError(str(exc))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_torsion(args) -> int:
    from . import torsion

    rows = []
    for n in _parse_n_list(args):
        res = torsion.main_theorem(n)
        values = {"rr": res.tau_rr, "bb": res.tau_bb, "closed": res.tau_closed}
        routes = ["rr", "bb", "closed"] if args.route == "all" else [args.route]
        rows.append((n, res, values, routes))
    if args.format == "json":
        payload = []
        for n, res, values, routes in rows:
            entry = {"n": n, "routes": {}}
            for r in routes:
                entry["routes"][r] = {"exact": values[r].to_json_dict(),
                                      "float": values[r].to_float()}
            entry["tau_omega1"] = res.tau_omega1.to_float()
            entry["tau_omega2"] = res.tau_omega2.to_float()
            entry["vol"] = str(res.vol)
            entry["main_theorem_value"] = {
                "exact": res.main_theorem_value.to_json_dict(),
                "float": res.main_theorem_value.to_float()}
            payload.append(entry)
        _print_json(payload)
    elif args.format == "csv":
        print("n,route,value_float,value_exact")
        for n, res, values, routes in rows:
            for r in routes:
                print(f"{n},{r},{_fmt(values[r].to_float())},"
                      f"\"{format_exact(values[r], args.expand_tau)}\"")
    else:
        for n, res, values, routes in rows:
            print(f"n = {n}  (volume {res.vol})")
            for r in routes:
                print(f"  tau[{r:6s}] = {format_exact(values[r], args.expand_tau)}"
                      f"  = {_fmt(values[r].to_float())}")
            print(f"  tau(middle twist) = {format_exact(res.tau_omega1, args.expand_tau)}")
            print(f"  tau(top twist)    = "
                  f"{format_exact(res.tau_omega2, args.expand_tau)}")
            print(f"  tau - log Vol     = "
                  f"{format_exact(res.main_theorem_value, args.expand_tau)}"
                  f"  = {_fmt(res.main_theorem_value.to_float())}")
    return EXIT_OK


def cmd_height(args) -> int:
    from . import chow

    trace: Optional[List[dict]] = [] if args.trace else None
    values = [(n, chow.height(n, trace)) for n in _parse_n_list(args)]
    if trace is not None:
        _print_json(trace, file=sys.stderr)
    if args.format == "json":
        _print_json([{"n": n, "height": str(h), "height_float": float(h)}
                     for n, h in values])
    elif args.format == "csv":
        print("n,height")
        for n, h in values:
            print(f"{n},{h}")
    else:
        for n, h in values:
            print(h if len(values) == 1 else f"n = {n}: {h}")
    return EXIT_OK


def cmd_table(args) -> int:
    from . import torsion

    cfg = _quad_config(args)
    rows = torsion.table_rows(_parse_n_list(args), cfg)
    if args.format == "json":
        _print_json([{**r, "height": str(r["height"])} for r in rows])
    else:
        text = torsion.table_csv(rows)
        if args.format == "csv":
            sys.stdout.write(text)
        else:
            for line in text.splitlines():
                print("  ".join(f"{cell:>22s}" for cell in line.split(",")))
    return EXIT_OK


def cmd_integrals(args) -> int:
    from . import torsion

    cfg = _quad_config(args)
    report = torsion.VerificationReport(
        [m for n in _parse_n_list(args) for m in torsion.named_integrals(n, cfg)])
    if args.format == "json":
        _print_json([{**m.as_report_row(),
                      "exact": format_exact(m.closed_form, expand_tau=True)}
                     for m in report.entries])
    elif args.format == "csv":
        sys.stdout.write(report.to_csv_text())
    else:
        for m in report.entries:
            mark = "PASS" if m.passed else "FAIL"
            print(f"{mark}  n={m.n:<3d} {m.name:<28s} "
                  f"closed={format_exact(m.closed_form, expand_tau=True):<40s} "
                  f"quad={_fmt(m.quadrature_value)} err={m.abs_error:.3e}")
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    from . import torsion

    cfg = _quad_config(args)
    if not 0 < args.tol < math.inf or args.height_range < 0:
        raise ConfigError("--tol must be positive and finite and --height-range nonnegative")
    if args.height_range > MAX_COUNT:
        raise ConfigError(f"--height-range must be at most {MAX_COUNT}")
    report = torsion.verify_all(_parse_n_list(args), cfg, tol=args.tol,
                                height_range=args.height_range)
    if args.format == "json":
        print(report.to_json_text())
    elif args.format == "csv":
        sys.stdout.write(report.to_csv_text())
    else:
        for e in report.entries:
            mark = "PASS" if e.passed else "FAIL"
            nfield = "" if e.n is None else f"n={e.n}"
            print(f"{mark}  {e.name:<38s} {nfield:<6s} "
                  f"computed={_fmt(e.computed)} err={e.abs_error:.3e}")
        print(f"{len(report.entries)} checks, "
              f"{'all passed' if report.all_passed else 'FAILURES PRESENT'}, "
              f"max discrepancy {report.max_abs_error:.3e}")
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def cmd_constants(args) -> int:
    rows = [{"atom": label, "reference": value} for label, value in atom_table()]
    if args.format == "json":
        _print_json(rows)
    elif args.format == "csv":
        print("atom,reference")
        for r in rows:
            print(f"{r['atom']},\"{r['reference']}\"")
    else:
        for r in rows:
            print(f"{r['atom']:<12s} {r['reference']}")
    return EXIT_OK


def cmd_forms(args) -> int:
    from . import forms

    if args.n < 0:
        raise ConfigError("--n must be >= 0")
    if not 0 < args.u_min < args.u_max < math.inf or args.grid_points < 2:
        raise ConfigError("need 0 < u-min < u-max < inf and at least 2 grid points")
    if args.grid_points > MAX_COUNT:
        raise ConfigError(f"--grid-points must be at most {MAX_COUNT}")
    # a geometric grid, as numpy's geomspace: exact endpoints, 10^y between
    lo = math.log10(args.u_min)
    step = (math.log10(args.u_max) - lo) / (args.grid_points - 1)
    us = ([args.u_min] + [10.0 ** (i * step + lo) for i in range(1, args.grid_points - 1)]
          + [args.u_max])
    cat = forms.catalog(args.n)
    if args.form is not None:
        if args.form not in cat:
            raise ConfigError(f"unknown form {args.form!r}; catalog: {', '.join(sorted(cat))}")
        rows = [(u, *cat[args.form].evaluate(u)) for u in us]
        print("u,fx,fphi")
        for u, fx, fphi in rows:
            print(f"{_fmt(u)},{_fmt(fx)},{_fmt(fphi)}")
    else:
        print("form,u,fx,fphi")
        for name, u, fx, fphi in forms.sample_catalog(args.n, us):
            print(f"{name},{_fmt(u)},{_fmt(fx)},{_fmt(fphi)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hirzebruch-torsion",
        description="Exact and numerical verification of analytic torsion, "
                    "heights and invariant-form integrals on ruled surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_quad_flags(p):
        p.add_argument("--quad-tol", type=float, default=DEFAULT_CONFIG.target_tol,
                       help="quadrature target tolerance (default %(default)g)")
        p.add_argument("--scheme", choices=SCHEMES, default=DEFAULT_CONFIG.scheme,
                       help="quadrature scheme")

    def add_n_flags(p, with_max=False):
        group = p.add_mutually_exclusive_group()  # a conflict exits 2
        group.add_argument("--n", type=int, help="ruling index")
        group.add_argument("--n-list", help="comma-separated ruling indices")
        if with_max:
            group.add_argument("--n-max", type=int, help="iterate n = 0..n-max")

    def add_format_flag(p, default="text"):
        p.add_argument("--format", choices=["text", "csv", "json"], default=default)

    p = sub.add_parser("torsion", help="torsion per route, exact and float")
    add_n_flags(p)
    p.add_argument("--route", choices=["rr", "bb", "closed", "all"], default="all")
    p.add_argument("--expand-tau", action="store_true",
                   help="print raw atoms instead of folding tau_P1")
    add_format_flag(p)
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("height", help="exact arithmetic height")
    add_n_flags(p, with_max=True)
    add_format_flag(p)
    p.add_argument("--trace", action="store_true",
                   help="emit the rewrite steps as JSON on stderr")
    p.set_defaults(func=cmd_height)

    p = sub.add_parser("table", help="summary table over a range of n")
    add_n_flags(p, with_max=True)
    add_format_flag(p, default="csv")
    add_quad_flags(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("integrals", help="named integrals vs quadrature")
    add_n_flags(p)
    add_format_flag(p)
    add_quad_flags(p)
    p.set_defaults(func=cmd_integrals)

    p = sub.add_parser("verify", help="full invariant suite; nonzero exit on failure")
    add_n_flags(p, with_max=True)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="pass tolerance for float cross-checks (default 1e-8)")
    p.add_argument("--height-range", type=int, default=20,
                   help="check heights for n = 0..this (default 20)")
    add_format_flag(p)
    add_quad_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("constants", help="atom basis and reference values")
    add_format_flag(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("forms", help="dump catalog form coefficients on a u-grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--form", help="single catalog form (default: all, "
                                  "with a leading name column)")
    p.add_argument("--grid-points", type=int, default=20)
    p.add_argument("--u-min", type=float, default=1e-3)
    p.add_argument("--u-max", type=float, default=1e3)
    p.set_defaults(func=cmd_forms)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the recipe of the signal module's documentation: later flushes,
        # at exit included, go to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except NonConvergence as exc:
        print(f"error: quadrature did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OverflowError as exc:
        print(f"error: a value is too large for floating point ({exc})", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, FactorizationLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _chow_error() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


def _chow_error() -> type:
    """chow.ChowError, imported only once an exception has reached main."""
    from .chow import ChowError

    return ChowError


if __name__ == "__main__":
    sys.exit(main())
