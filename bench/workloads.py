"""The two workloads: their operations, in an order drawn from the seed,
and the correctness gate that checks every output against the values
fixed from the seed commit in expected.json.

An operation is (name, run, check).  ``run`` calls the program and is the
only timed part; ``check`` compares what it returned with the expected
values, raises GateError on any difference and returns a digest of the
output.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

from cuspgaps import cache as cache_mod
from cuspgaps import gaps as gaps_mod
from cuspgaps import invariants as inv_mod
from cuspgaps.msengine import basis as basis_mod

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())

ATLAS_WEIGHTS = tuple(range(4, 25, 2))  # the default ScanConfig box, one weight at a time
# the reference gap examples of the paper small enough to repeat in every
# run; 46*12 and 29*28 take about 30 s each and are left out (see DESIGN.md)
REFGAP_SPACES = ((19, 16),)
STACK_TRIPLES = ((1, 12, 5), (2, 4, 7), (1, 12, 13))
WORKLOADS = ("atlas", "stack")

# header of `cuspgaps scan --csv`; rows below follow the same format
CSV_HEADER = (
    "k,N,p,bigWeightMod12,alpha2,alpha3,quadrant,certificate,"
    "certificateLhs,masterLhs,dim,orderBound,identityHolds,inequalityHolds"
)


class GateError(Exception):
    """An output differs from its expected value."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def expect(what: str, got, want) -> None:
    if got != want:
        raise GateError(f"{what}: got {got!r}, expected {want!r}")


def csv_row(rep) -> str:
    return (
        f"{rep.weight},{rep.level},{rep.prime},{rep.big_weight_mod12},"
        f"{rep.alpha2},{rep.alpha3},{rep.quadrant},{rep.certificate},"
        f"{rep.certificate_lhs},{rep.master_lhs},{rep.dim_upper},"
        f"{rep.order_bound},{rep.identity_holds},{rep.inequality_holds}"
    )


def mfbasis_text(basis) -> str:
    """The basis as `cuspgaps basis` prints it."""
    lines = [f"MFBASIS v1 {basis.level} {basis.weight} {basis.precision} {basis.dimension}"]
    lines.extend(" ".join(str(int(c)) for c in row.coeffs) for row in basis.rows)
    return "\n".join(lines) + "\n"


def check_atlas_rows(reports, want: dict) -> tuple[list[str], Counter, str]:
    """Gate one weight of the atlas; returns its CSV rows, their certificate
    histogram and their digest."""
    rows = [csv_row(rep) for rep in reports]
    certificates = Counter(rep.certificate for rep in reports)
    violations = sum(
        1 for rep in reports
        if not (rep.inequality_holds and rep.identity_holds and rep.certificate_matches_master)
    )
    expect("triples", len(rows), want["triples"])
    expect("violations", violations, 0)
    expect("certificates", dict(certificates), want["certificates"])
    digest = sha256("\n".join(rows) + "\n")
    expect("rows sha256", digest, want["sha256"])
    return rows, certificates, digest


def check_basis(basis, want: dict) -> str:
    """Gate one reference gap space; returns the digest of its MFBASIS text."""
    expect("precision", basis.precision, want["precision"])
    expect("dimension", basis.dimension, want["dim"])
    gap_pivots = [c for c in basis.pivots if c > basis.dimension]
    expect("gap pivots", gap_pivots, want["gap_pivots"])
    expect("wdim", len(gap_pivots), want["wdim"])
    digest = sha256(mfbasis_text(basis))
    expect("MFBASIS sha256", digest, want["mfbasis_sha256"])
    return digest


def same_basis(what: str, got, want) -> None:
    if got is None:
        raise GateError(f"{what}: cache returned nothing")
    expect(f"{what} precision", got.precision, want.precision)
    expect(f"{what} pivots", tuple(got.pivots), tuple(want.pivots))
    expect(f"{what} rows", [tuple(r.coeffs) for r in got.rows], [tuple(r.coeffs) for r in want.rows])


def truncated(basis, precision: int):
    rows = tuple(type(r)(r.coeffs[:precision], r.weight, r.level) for r in basis.rows)
    return basis_mod.SpaceBasis(basis.level, basis.weight, precision, rows, basis.pivots)


class Workload:
    """The operations of one pass of a workload, sharing state between an
    operation and the later ones that depend on it."""

    def __init__(self, name: str, seed: int, scratch: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.expected = EXPECTED[name]
        self.scratch = scratch
        self.rng = random.Random(seed)
        self.atlas_rows: dict[int, list[str]] = {}
        self.atlas_certificates: Counter = Counter()
        self.bases: dict[str, object] = {}
        self.triples = 0
        self.checks_passed = 0
        self.checks_total = 0

    def operations(self) -> list[tuple]:
        return getattr(self, f"_{self.name}_ops")()

    # -- atlas ---------------------------------------------------------------

    def _atlas_ops(self):
        weights = list(ATLAS_WEIGHTS)
        self.rng.shuffle(weights)
        ops = [(f"scan k={k}", self._scan(k), self._check_scan(k)) for k in weights]
        ops.append(("atlas total", lambda: None, self._check_atlas_total))
        return ops

    def _scan(self, k):
        config = inv_mod.ScanConfig(kmin=k, kmax=k)
        return lambda: list(inv_mod.scan_triples(config))

    def _check_scan(self, k):
        def check(reports):
            rows, certificates, digest = check_atlas_rows(reports, self.expected["by_weight"][str(k)])
            self.atlas_rows[k] = rows
            self.atlas_certificates += certificates
            self.triples += len(rows)
            return digest

        return check

    def _check_atlas_total(self, _):
        missing = [k for k in ATLAS_WEIGHTS if k not in self.atlas_rows]
        if missing:
            raise GateError(f"weights {missing} produced no checked rows")
        rows = [row for k in ATLAS_WEIGHTS for row in self.atlas_rows[k]]
        want = self.expected["total"]
        expect("triples", len(rows), want["triples"])
        expect("certificates", dict(self.atlas_certificates), want["certificates"])
        # the digest of `cuspgaps scan --csv` on standard output
        digest = sha256("\n".join([CSV_HEADER, *rows]) + "\n")
        expect("scan CSV sha256", digest, want["sha256"])
        return digest

    # -- stack -----------------------------------------------------------------

    def _stack_ops(self):
        ops = [
            (f"verify_order_bound {n}-{k}-{p}",
             (lambda n=n, k=k, p=p: gaps_mod.verify_order_bound(n, k, p)),
             self._check_report(f"{n}-{k}-{p}"))
            for n, k, p in STACK_TRIPLES
        ]
        keys = [f"{level}-{weight}" for level, weight in REFGAP_SPACES]
        ops += [(f"gap_data {key}", self._gap_data(*space), self._check_gap(key))
                for key, space in zip(keys, REFGAP_SPACES)]
        self.rng.shuffle(ops)
        # a cache round trip needs the checked basis of its gap_data
        ops += [(f"cache {key}", self._round_trip(key), self._check_round_trip(key)) for key in keys]
        return ops

    def _check_report(self, key):
        def check(report):
            checks = [c for c in report.checks if not c.informational]
            self.checks_total += len(checks)
            self.checks_passed += sum(1 for c in checks if c.passed)
            expect("report passes", report.passed, True)
            digest = sha256(json.dumps(report.as_dict(), sort_keys=True))
            expect("report sha256", digest, self.expected[key]["report_sha256"])
            self.triples += 1
            return digest

        return check

    def _gap_data(self, level, weight):
        def run():
            data = gaps_mod.gap_data(level, weight)
            precision = inv_mod.sturm_bound(level, weight) + 10
            return data, basis_mod.qexpansion_basis(level, weight, precision)

        return run

    def _check_gap(self, key):
        def check(result):
            data, basis = result
            want = self.expected[key]
            expect("gap_data", data.as_dict(), {
                "level": basis.level, "weight": basis.weight, "dim": want["dim"],
                "pivots": list(basis.pivots), "wdim": want["wdim"],
            })
            digest = check_basis(basis, want)
            self.bases[key] = basis
            self.triples += 1
            return digest

        return check

    def _round_trip(self, key):
        def run():
            basis = self.bases.get(key)
            if basis is None:
                raise GateError(f"no checked basis for {key} to round-trip")
            directory = self.scratch / key
            sturm = inv_mod.sturm_bound(basis.level, basis.weight)
            cache_mod.write_basis(basis, directory)
            return basis, (
                cache_mod.find_cached(directory, basis.level, basis.weight, basis.precision),
                cache_mod.find_cached(directory, basis.level, basis.weight, sturm),
                cache_mod.find_cached(directory, basis.level, basis.weight, basis.precision + 1),
            )

        return run

    def _check_round_trip(self, key):
        def check(result):
            basis, (same, low, above) = result
            sturm = inv_mod.sturm_bound(basis.level, basis.weight)
            same_basis("read at the written precision", same, basis)
            same_basis("read at the Sturm bound", low, truncated(basis, sturm))
            expect("read above the written precision", above, None)
            return sha256(mfbasis_text(same) + mfbasis_text(low))

        return check
