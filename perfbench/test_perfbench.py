"""The benchmark's own tests: python3 -m pytest perfbench -q

They run the job code in-process on cheap operations.  Test doubles are
installed by monkeypatching lpdiv's module attributes; nothing under src/
is edited.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import job  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from lpdiv import curves, decomp, finite_fields  # noqa: E402


def _ops(workload, tmp_path, labels):
    ops = workloads.generate(workload, 7, str(tmp_path))["ops"]
    picked = [op for op in ops if op["label"] in labels]
    assert len(picked) == len(labels)
    return picked


def test_generation_is_seeded_and_cost_is_seed_independent(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 1, str(tmp_path))["ops"]
        again = workloads.generate(workload, 1, str(tmp_path))["ops"]
        b = workloads.generate(workload, 2, str(tmp_path))["ops"]
        assert a == again
        assert sum(op["elems"] for op in a) == sum(op["elems"] for op in b)
        assert [op["kind"] for op in a] == [op["kind"] for op in b]
        assert a != b


def test_references_agree_with_the_program_at_small_degrees(tmp_path):
    # Laurent maps and general denominators: brute force against lpdiv.
    for num, den in ([[1] + [0] * 9 + [1], [0] * 7 + [1]], [[1, 0, 1, 0, 1, 0, 1], [1, 1, 0, 1]]):
        curve = curves.curve_from_json_dict(workloads._as2(num, den))
        for m in range(1, 7):
            assert ref.as2_count(num, den, m) == curves.count_points(curve, m, threads=1)
    f = [2, 0, 1, 1, 0, 1]
    curve = curves.curve_from_json_dict({"model": "hyper_odd", "p": 3, "h": [], "f": f})
    for m in (1, 2, 3):
        assert ref.hyper_count(f, 3, m) == curves.count_points(curve, m)
    # The recorded D_6 series is that of one genus-33 curve, as recorded.
    assert ref.counts_from_lpoly(2, ref.dk_lpoly(6), 33) == list(ref.DK6_COUNTS)
    # gsum(k, m) = gsum(k mod m, m), the Kloosterman-type map when k mod m = 0.
    for k, m in ((8, 8), (9, 8), (12, 10)):
        assert workloads._gsum_reference(k, m) == curves.gsum(k, m, threads=1)


def test_a_wrong_count_is_a_failed_operation(tmp_path, monkeypatch):
    ops = _ops("table-cli", tmp_path, ["GF(5) m<=2", "GF(5^5)"])
    assert job.run_ops(ops)["failed"] == 0

    real = curves.count_points

    def off_by_two(c, m, **kwargs):  # test double: wrong at m = 5 only
        return real(c, m, **kwargs) + (2 if m == 5 else 0)

    monkeypatch.setattr(curves, "count_points", off_by_two)
    result = job.run_ops(ops)
    assert [r["ok"] for r in result["ops"]] == [True, False]
    assert result["ops"][1]["error"] is None  # a disagreement, not a crash
    attempted, failed = run.tally([result], 0, len(ops))
    assert (attempted, failed) == (2, 1)


def test_a_raising_or_lost_job_counts_as_failed(tmp_path, monkeypatch):
    ops = _ops("table-cli", tmp_path, ["verify-dk k=2"])

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(decomp, "count_series", broken)  # where verify-dk resolves it
    result = job.run_ops(ops)
    assert result["failed"] == 1 and "injected" in result["ops"][0]["error"]
    assert run.tally([result], 2, len(ops)) == (3, 3)


def _traced(ops):
    t = tracing.Tracer()
    tracing.install(t)
    try:
        result = job.run_ops(ops, t)
    finally:
        t.restore()
    return t, result


def test_span_self_times_add_up_to_the_traced_job(tmp_path):
    ops = _ops("table-cli", tmp_path, [f"verify-dk k={k}" for k in range(1, 5)]
               + ["lpoly curve0", "counterexample", "D6 genus-33 algebra"])
    t, result = _traced(ops)
    assert result["failed"] == 0
    totals = t.totals()
    root = t.spans[0]
    assert root[0] == "job" and all(span[2] is not None for span in t.spans)
    self_sum = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    assert abs(self_sum - (root[2] - root[1])) < 1e-9
    # The root span brackets the timed loop and nothing else.
    assert 0 <= (root[2] - root[1]) - result["job_s"] < 1e-3
    layers = tracing.layer_metrics(totals)
    assert layers["lpoly_from_counts.calls"] >= 4 + 1 + 1
    assert layers["split_two_prime.s"] > 0 and layers["squarefree_over_Q.s"] > 0
    assert layers["run.self_s"] > 0
    # Tracing is gone once restored.
    assert curves.count_points.__module__ == "lpdiv.curves"
    assert not hasattr(curves.count_points, "__wrapped__")


def test_char_sum_is_classified_from_public_inputs():
    t = tracing.Tracer()
    tracing.install(t)
    try:
        field = finite_fields.make_field(2, 10)
        f = curves.dk_map(1)
        table = finite_fields.char_sum(field, f, threads=1)
        stream = finite_fields.char_sum(field, f, threads=1, table_max_m=8)
        # count_points resolves char_sum through curves, not finite_fields.
        curves.count_points(curves.dk_curve(1), 9, threads=1)
    finally:
        t.restore()
    assert table == stream
    names = [span[0] for span in t.spans]
    assert names.count("char_sum.table") == 2 and names.count("char_sum.stream") == 1
    assert "geometric_block" in names
    totals = t.totals()
    assert totals["char_sum.stream.elems"] == 2**10
    assert totals["char_sum.table.elems"] == 2**10 + 2**9


def test_missing_program_exits_nonzero_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-src")
    code = run.main(["--workload", "table-cli", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_reported_metrics_match_the_benchmark_definition():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = list(tracing.layer_metrics({})) + ["trace.job_s", "trace.overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == layers
    assert all(m["unit"] == run._layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
