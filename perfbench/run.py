"""lpdiv benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed generates the workload's inputs
and their references (``workloads``, ``reference``); the program receives
only the generated curves, files and arguments.  Load model: a closed loop
with one client.  For S seconds the runner starts one fresh process at a
time (``job.py``), each importing lpdiv from ``src`` and running the whole
job once with threads=1, as a command-line user pays for it: cold field
caches, cold power tables, the numpy import.  The process pool
(threads > 1) is left out: on two shared cores its wall clock measures the
scheduler, not the program.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` traced and untraced jobs alternate and it carries the
per-layer metrics (medians over the traced jobs).

``job_s`` is the mean wall time of the run's untraced jobs, and
``elems_per_s`` is the job's elements over it.  On a shared host the
speed of the same job drifts by up to 2x in phases of seconds to minutes,
so job times within a run are often bimodal: their median jumps between
the modes from run to run, while their mean weighs each phase by the time
the run spent in it.  On the same recorded runs, the run-to-run spread
of the mean stayed below that of the median on all but one of seven sets
(``BASELINE.md``).  ``setup_s`` and ``peak_rss_mb`` are medians over the
run.  A human-readable summary, with the environment record, the median
job time and ``fail_frac``, goes to stderr; the full record
(per-operation times, spans) is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
JOB = Path(__file__).resolve().parent / "job.py"
OUT_DIR = ROOT / ".perfbench"

MIN_JOBS = 3
HARD_STOP_S = 150  # the whole run must end well within 180 s
END_TO_END_UNITS = {"job_s": "s", "elems_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def environment(numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": 1,
        "commit": commit,
    }


def launch(spec_path: str, *flags: str, timeout: float) -> dict | None:
    """Start one job process, wait for it, and return its record (None when
    it failed or timed out).  The process is always reaped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["LPDIV_THREADS"] = "1"
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(JOB), spec_path, "--launched", repr(launched), *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write(f"job timed out after {timeout:.0f} s\n")
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"job exited with {proc.returncode}\n{err}")
        return None
    record = json.loads(lines[-1])
    for op in record.get("ops", ()):
        if op["error"]:
            sys.stderr.write(f"operation {op['label']} raised:\n{op['error']}")
        elif not op["ok"]:
            sys.stderr.write(f"operation {op['label']}: output differs from its reference\n")
    return record


def measure(spec_path: str, seconds: int, trace: bool) -> tuple[list, list, list, int]:
    """Closed loop for ``seconds``: whole jobs one after another.  Returns
    (setup samples of the untraced jobs, untraced jobs, traced jobs, jobs
    that produced no record)."""
    start = time.monotonic()
    deadline, hard_stop = start + seconds, start + HARD_STOP_S
    setups, plain, traced, lost = [], [], [], 0
    rounds: list[float] = []  # wall time of each job, launch included
    while True:
        begun = time.monotonic()
        use_trace = trace and len(rounds) % 2 == 1
        record = launch(spec_path, *(["--trace"] if use_trace else []),
                        timeout=max(10.0, hard_stop - time.monotonic()))
        if record is None:
            lost += 1
            break
        (traced if use_trace else plain).append(record)
        if not use_trace:
            setups.append(record["setup_s"])
        now = time.monotonic()
        rounds.append(now - begun)
        typical = statistics.median(rounds)
        enough = len(rounds) >= MIN_JOBS + trace
        if now + typical > hard_stop or (enough and now + typical > deadline):
            break
    return setups, plain, traced, lost


def tally(jobs: list[dict], lost: int, n_ops: int) -> tuple[int, int]:
    """(attempted, failed) operations.  A job that produced no record counts
    every one of its operations as failed."""
    attempted = n_ops * (len(jobs) + lost)
    return attempted, sum(job["failed"] for job in jobs) + n_ops * lost


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lpdiv benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lpdiv" / "__init__.py").is_file():
        sys.stderr.write(f"error: no lpdiv sources under {SRC}; run from a checkout of the repository\n")
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        spec = workloads.generate(args.workload, args.seed, tmp)
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        n_ops = len(spec["ops"])
        setups, plain, traced, lost = measure(spec_path, args.seconds, bool(args.trace))

    jobs = plain + traced
    attempted, failed = tally(jobs, lost, n_ops)
    if not plain or (args.trace and not traced):
        sys.stderr.write("error: no job completed\n")
        return 1
    med = statistics.median
    if args.trace:
        layers = {name: med(j["layers"][name] for j in traced) for name in traced[0]["layers"]}
        traced_job_s = med(j["job_s"] for j in traced)
        layers["trace.job_s"] = traced_job_s
        layers["trace.overhead_frac"] = traced_job_s / med(j["job_s"] for j in plain) - 1
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in layers.items()}
    else:
        job_s = statistics.mean(j["job_s"] for j in plain)
        values = {
            "job_s": job_s,
            "elems_per_s": plain[0]["elems"] / job_s,
            "setup_s": med(setups),
            "peak_rss_mb": med(j["peak_rss_mb"] for j in plain),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    env = environment(jobs[0]["numpy"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "fail_frac": failed / attempted, "setup_samples": setups,
        "jobs": [{k: v for k, v in j.items() if k != "spans"} for j in jobs],
        "spans": [j["spans"] for j in traced],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as fh:
        json.dump(record, fh)

    summary = [f"{args.workload} seed={args.seed}: {len(plain)} untraced + {len(traced)} traced jobs, "
               f"{len(setups)} setups, environment {json.dumps(env)}"]
    summary += [f"  {k:32s} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    job_median = med(j["job_s"] for j in plain)
    summary.append(f"  {'median untraced job':32s} {job_median:.6g} s over {len(plain)} jobs")
    summary.append(f"  {'fail_frac':32s} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    sys.stderr.write("\n".join(summary) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("elems_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
