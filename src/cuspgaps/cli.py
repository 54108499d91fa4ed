"""Command-line front end.

Exit codes: 0 success, 1 verification failure (a JSON witness is printed),
2 usage or precondition error (among them a cache path that cannot be read
or written), 3 engine error (an internal certificate failed, or a cache
file does not parse or fails the echelon contract), 141 stdout closed
early, as by `| head` (the SIGPIPE status).  All output is deterministic
for fixed inputs; the MFCACHE environment variable overrides --cache.
`scan --csv` rows are RFC 4180 (csv.writer over invariants.CSV_COLUMNS):
the quadrant field, which holds a comma, is quoted.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from operator import attrgetter

from . import gaps as gaps_mod
from . import invariants as inv
from .cache import basis_text, find_cached, write_basis
from .errors import EngineError
from .invariants import CSV_COLUMNS, ScanConfig, scan_triples
from .msengine import qexpansion_basis


_JSON = json.JSONEncoder(sort_keys=True)  # json.dumps(obj, sort_keys=True), built once


def _print_json(obj) -> None:
    print(_JSON.encode(obj))


def _cache_dir(args) -> str | None:
    return os.environ.get("MFCACHE") or getattr(args, "cache", None)


def _get_basis(level: int, weight: int, precision: int, cache_dir: str | None):
    if cache_dir:
        cached = find_cached(cache_dir, level, weight, precision)
        if cached is not None:
            return cached
    basis = qexpansion_basis(level, weight, precision)
    if cache_dir:
        write_basis(basis, cache_dir)
    return basis


def cmd_invariants(args) -> int:
    n = args.level
    _print_json({"level": n, "index": inv.index(n), "eps2": inv.eps2(n), "eps3": inv.eps3(n),
                 "epsInf": inv.eps_inf(n), "genus": inv.genus(n)})
    return 0


def cmd_dim(args) -> int:
    print(inv.cusp_dim(args.level, args.weight))
    return 0


def cmd_scan(args) -> int:
    config = scan_config(args)
    total = 0
    violations = []
    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header for header, _ in CSV_COLUMNS)
        row = attrgetter(*(field for _, field in CSV_COLUMNS))
    for rep in scan_triples(config):
        total += 1
        if not rep.verified:
            violations.append(rep)
        if args.csv:
            writer.writerow(row(rep))
        elif args.json:
            _print_json(rep.as_dict())
    # plain scan prints the summary and the first witnesses on stdout; --csv
    # and --json keep stdout for their rows and send both to stderr
    out = sys.stderr if args.csv or args.json else sys.stdout
    print(_JSON.encode({"triples": total, "violations": len(violations)}), file=out)
    for rep in violations[:10]:
        print(_JSON.encode(rep.as_dict()), file=out)
    return 0 if not violations else 1


def cmd_basis(args) -> int:
    bound = inv.sturm_bound(args.level, args.weight)
    precision = bound + 10 if args.prec is None else args.prec
    basis = _get_basis(args.level, args.weight, precision, _cache_dir(args))
    print(basis_text(basis), end="")
    return 0


def cmd_gaps(args) -> int:
    _print_json(gaps_mod.gap_data(args.level, args.weight).as_dict())
    return 0


def cmd_wdim(args) -> int:
    print(gaps_mod.gap_data(args.level, args.weight).w_dim)
    return 0


# verify subcommand -> (its positional arguments, the verifier they are passed to)
_VERIFY = {
    "theorem": (("level", "weight", "prime"), gaps_mod.verify_order_bound),
    "cor-subspace": (("level", "weight", "prime"), gaps_mod.verify_gap_dimension_bound),
    "cor-analogue": (("level", "weight", "prime"), gaps_mod.verify_vanishing_analogue),
    "ogg": (("level", "prime"), gaps_mod.verify_weight2_nonweierstrass),
    "examples": ((), gaps_mod.verify_reference_examples),
}


def cmd_verify(args) -> int:
    names, verifier = _VERIFY[args.what]
    reports = verifier(*(getattr(args, name) for name in names))
    if not isinstance(reports, list):
        reports = [reports]
    for rep in reports:
        _print_json(rep.as_dict())
        for check in rep.checks:
            if check.informational and not check.passed:
                print(
                    f"note: {check.name}: stated value differs from computed value "
                    f"({_JSON.encode(check.witness)})",
                    file=sys.stderr,
                )
    return 0 if all(r.passed for r in reports) else 1


def add_scan_box(p: argparse.ArgumentParser) -> None:
    """The scan box options, one --<field> per ScanConfig field, with its default."""
    for field in dataclasses.fields(ScanConfig):
        p.add_argument(f"--{field.name}", type=int, default=field.default)


def scan_config(args) -> ScanConfig:
    """The validated ScanConfig of the options add_scan_box added."""
    return ScanConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(ScanConfig)}).validate()


def _add_level_weight(p: argparse.ArgumentParser) -> None:
    p.add_argument("level", type=int)
    p.add_argument("weight", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspgaps",
        description="Exact invariants, q-expansion bases, operators and gap data "
        "for cusp form spaces on Gamma_0(N).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="index, elliptic counts, cusps and genus as JSON")
    p.add_argument("level", type=int)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("dim", help="dim S_k(Gamma_0(N))")
    _add_level_weight(p)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("scan", help="classify the inequality over a (k, N, p) box")
    add_scan_box(p)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("basis", help="print (and optionally cache) the echelon basis")
    _add_level_weight(p)
    p.add_argument("--prec", type=int, default=None)
    p.add_argument("--cache", type=str, default=None)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("gaps", help="pivot structure and gap dimension as JSON")
    _add_level_weight(p)
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("wdim", help="dimension of the gap space W_k(N)")
    _add_level_weight(p)
    p.set_defaults(func=cmd_wdim)

    p = sub.add_parser("verify", help="run a verification and emit a JSON report")
    vsub = p.add_subparsers(dest="what", required=True)
    for name, (arguments, _) in _VERIFY.items():
        vp = vsub.add_parser(name)
        for argument in arguments:
            vp.add_argument(argument, type=int)
        vp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader closed stdout; devnull keeps the interpreter's last flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
