#!/usr/bin/env python3
"""Run the full inequality atlas and summarize the case analysis.

For every even weight k in [kmin, kmax], level N <= nmax and prime
p <= pmax with p coprime to N and p >= max(5, k+1), classify the triple,
evaluate the reduced certificate and the master inequality exactly, and
confirm the reduction identity dim - bound = master - 1.
"""

import argparse
import sys
import time
from collections import Counter

from cuspgaps.cli import add_scan_box, scan_config
from cuspgaps.invariants import scan_triples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_scan_box(parser)
    config = scan_config(parser.parse_args())
    t0 = time.perf_counter()
    total = 0
    violations = 0
    by_quadrant = Counter()
    by_certificate = Counter()
    min_master = None
    for rep in scan_triples(config):
        total += 1
        by_quadrant[rep.quadrant] += 1
        by_certificate[rep.certificate] += 1
        if min_master is None or rep.master_lhs < min_master:
            min_master = rep.master_lhs
        if not rep.verified:
            violations += 1
            print(f"VIOLATION: {rep.as_dict()}")
    elapsed = time.perf_counter() - t0
    min_margin = None if min_master is None else min_master - 1

    print(f"triples scanned : {total}")
    print(f"violations      : {violations}")
    print(f"smallest margin : master - 1 = {min_margin}")
    print("quadrants       :")
    for name, count in sorted(by_quadrant.items()):
        print(f"    {name:24s} {count}")
    print("certificates    :")
    for name, count in sorted(by_certificate.items()):
        print(f"    {name:24s} {count}")
    print(f"elapsed         : {elapsed:.1f}s")
    return 0 if violations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
