#!/usr/bin/env python3
"""The long-running k = 6 job: count y^2 + y = x^65 + x^(-1) up to m = 33
(about 1.7e10 enumeration steps), then build the genus-33 L-polynomial,
divide by the k = 1 member and attempt the two-prime split of the quotient
(``lpdiv.decomp.dk_report_from_counts``).

Progress is printed per extension degree; the counts take a few seconds
on one thread."""

import argparse
import json
import sys
import time

from lpdiv.curves import count_points, dk_curve, genus
from lpdiv.decomp import dk_report_from_counts
from lpdiv.intpoly import format_poly
from lpdiv.zeta import validate_lpoly


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--out", default="dk6_result.json")
    args = parser.parse_args(argv)

    curve = dk_curve(6)
    g = genus(curve)
    counts = []
    total0 = time.time()
    for m in range(1, g + 1):
        t0 = time.time()
        counts.append(count_points(curve, m, threads=args.threads))
        print(f"m={m:2d}  N={counts[-1]:<12d}  {time.time() - t0:7.2f}s", flush=True)
    rep = dk_report_from_counts(6, counts)
    assert validate_lpoly(rep.lpoly).ok
    print(f"L = {format_poly(rep.lpoly.poly)}")
    print(f"divides by the k=1 L-polynomial: {rep.divides}")
    record = {"k": 6, "genus": g, "counts": counts, "divides": rep.divides,
              "lpoly": format_poly(rep.lpoly.poly, spaced=False),
              "two_rank": rep.lpoly_two_rank}
    if rep.divides:
        print(f"quotient = {format_poly(rep.quotient)}")
        kind = rep.structure.kind
        record["quotient"] = format_poly(rep.quotient, spaced=False)
        record["split_status"] = "split" if kind == "two_prime" else kind
        if kind == "two_prime":
            a, b = rep.structure.parts
            record["split_a_t2"] = format_poly(a, spaced=False)
            record["split_b_t3"] = format_poly(b, spaced=False)
            print(f"quotient = A(t^2) * B(t^3) with A = {format_poly(a)}, "
                  f"B = {format_poly(b)}")
        else:
            print(f"two-prime split: {kind}")
    print(f"total {time.time() - total0:.1f}s")
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    return 0 if rep.divides else 1


if __name__ == "__main__":
    sys.exit(main())
