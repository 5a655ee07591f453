#!/usr/bin/env python3
"""Recompute the five family L-polynomials from scratch and print them in
factored form next to the published ones."""

import argparse
import sys
import time

from lpdiv.decomp import verify_conjecture_dk
from lpdiv.intpoly import IntPoly, format_poly
from lpdiv.zeta import validate_lpoly

PUBLISHED = {
    1: IntPoly([1]),
    2: IntPoly([1, 0, 2]),
    3: IntPoly([1, 0, 0, -4, 0, 0, 8]),
    4: IntPoly([1, 0, 2] + [0] * 9 + [64, 0, 128]),
    5: IntPoly([1] + [0] * 4 + [4] + [0] * 19 + [4096] + [0] * 4 + [32768]),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-max", type=int, default=5)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args()

    all_ok = True
    for k in range(1, args.k_max + 1):
        t0 = time.time()
        rep = verify_conjecture_dk(k, threads=args.threads)
        dt = time.time() - t0
        ok = rep.divides and validate_lpoly(rep.lpoly).ok
        if k in PUBLISHED:
            ok = ok and rep.quotient == PUBLISHED[k]
        all_ok &= ok
        status = "ok" if ok else "MISMATCH"
        print(f"k={k} ({dt:6.2f}s, genus {rep.genus})  [{status}]")
        print(f"  L = ({format_poly(rep.d1_lpoly.poly)}) * ({format_poly(rep.quotient)})")
        print(f"  structure: {rep.structure.kind}", end="")
        if rep.structure.parts:
            inner = " * ".join(
                f"({format_poly(part)})|t->t^{p}"
                for part, p in zip(rep.structure.parts, rep.structure.primes)
            )
            print(f"  {inner}", end="")
        print()
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
