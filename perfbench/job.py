"""One cold job: import lpdiv, run a workload's operations once, report.

    python3 perfbench/job.py SPEC --launched T [--trace]

``run.py`` starts one of these per job with ``src`` on PYTHONPATH and T its
``time.monotonic()`` just before the launch, so ``setup_s`` covers process
start, interpreter start-up and the numpy and lpdiv imports.  The last
stdout line is a JSON record of the job.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

import numpy
from lpdiv import cli, curves, decomp, intpoly, zeta

import tracer as tracing
import workloads


def execute(op: dict):
    """Run one operation through lpdiv's public entry points, looked up at
    call time so that installed tracing wrappers see the call."""
    kind = op["kind"]
    if kind == "count_series":
        curve = curves.curve_from_json_dict(op["curve"])
        return list(curves.count_series(curve, op["r"], threads=1).counts)
    if kind == "count_points":
        curve = curves.curve_from_json_dict(op["curve"])
        return curves.count_points(curve, op["m"], threads=1)
    if kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(op["argv"])
        return code, out.getvalue()
    if kind == "dk6_algebra":
        lp = zeta.lpoly_from_counts(2, 33, op["counts"])
        divides, quotient = intpoly.divides_with_quotient(intpoly.IntPoly(op["d1"]), lp.poly)
        split = decomp.split_two_prime(quotient, 2, 3)
        parts = [list(p.coeffs) if p is not None else None for p in (split.a, split.b)]
        return (list(lp.poly.coeffs), divides, list(quotient.coeffs), split.status, *parts)
    raise ValueError(f"unknown operation kind {kind!r}")


def run_ops(ops: list[dict], tracer: tracing.Tracer | None = None) -> dict:
    """Run every operation once, timing the whole job, then check each
    output against its reference outside the timed region."""
    values, seconds, errors = [], [], []
    clock = time.perf_counter
    root = tracer.open("job") if tracer else None
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            values.append(execute(op))
            errors.append(None)
        except Exception:  # an operation that raises is a failed operation
            values.append(None)
            errors.append(traceback.format_exc(limit=3))
        seconds.append(clock() - t0)
    job_s = clock() - start
    if tracer:
        tracer.close(root)
    records = []
    for op, value, secs, err in zip(ops, values, seconds, errors):
        ok = err is None and _checked(op, value)
        records.append({"label": op["label"], "seconds": secs, "ok": ok, "error": err})
    return {
        "job_s": job_s,
        "elems": sum(op["elems"] for op in ops),
        "ops": records,
        "failed": sum(not r["ok"] for r in records),
    }


def _checked(op, value) -> bool:
    try:
        return workloads.check(op, value)
    except (ValueError, TypeError, KeyError, AttributeError):
        return False  # malformed output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("spec")
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    with open(args.spec) as fh:
        spec = json.load(fh)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    setup_s = time.monotonic() - args.launched
    record = {"setup_s": setup_s, "numpy": numpy.__version__}
    record.update(run_ops(spec["ops"], tracer))
    if tracer:
        tracer.restore()
        record["layers"] = tracing.layer_metrics(tracer.totals())
        record["spans"] = tracer.spans
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
