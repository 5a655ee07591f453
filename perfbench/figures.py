"""Single-operation timings to set beside the figures in ROADMAP item 1.

    PYTHONPATH=src python3 perfbench/figures.py [--repeats 3]

Each figure is timed in a fresh process with threads=1 and the field built
before the clock starts ("warm" means the power tables are built too).
Prints one JSON object per figure: its median and all samples, in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

FIGURES = {
    "stream_m22": "0.23 s",
    "stream_m25": "2.2-2.5 s",
    "table_m22_warm": "0.65 s",
    "verify_dk_k5": "0.13 s",
    "scan_gsum_6x20": "1.4 s",
}


def _time_one(name: str) -> float:
    from lpdiv.curves import dk_map
    from lpdiv.decomp import gsum_invariance_scan, verify_conjecture_dk
    from lpdiv.finite_fields import char_sum, make_field

    if name.startswith(("stream", "table")):
        m = 22 if name.endswith(("m22", "m22_warm")) else 25
        field, f = make_field(2, m), dk_map(6)
        kwargs = {"table_max_m": m - 1} if name.startswith("stream") else {}
        if name.startswith("table"):
            field.power_tables()
        t0 = time.perf_counter()
        char_sum(field, f, threads=1, **kwargs)
        return time.perf_counter() - t0
    t0 = time.perf_counter()
    if name == "verify_dk_k5":
        verify_conjecture_dk(5, threads=1)
    else:
        gsum_invariance_scan(6, 20, threads=1)
    return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--one", choices=FIGURES, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(_time_one(args.one))
        return 0
    env = dict(os.environ, LPDIV_THREADS="1")
    for name, roadmap in FIGURES.items():
        samples = []
        for _ in range(args.repeats):
            done = subprocess.run([sys.executable, __file__, "--one", name],
                                  capture_output=True, text=True, env=env, check=True)
            samples.append(float(done.stdout))
        print(json.dumps({"figure": name, "median_s": statistics.median(samples),
                          "samples_s": samples, "roadmap": roadmap}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
