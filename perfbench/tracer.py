"""Per-layer spans recorded from outside the program.

``install`` replaces lpdiv's public functions, at every module attribute a
call resolves through, with wrappers that open a span on entry and close it
on exit.  ``curves`` imports ``char_sum`` and ``make_field`` by name, for
instance, so the wrapper goes into ``curves`` as well as ``finite_fields``.
Per-element calls (``pow_el``, ``mul``, ``add``) are never wrapped.

Spans stay in memory as ``[name, start, end, parent, counts]`` until the job
reports them.  A span's self time is its duration minus that of its direct
children; the spans are properly nested (one thread, no worker processes),
so the self times of all spans add up to the root span's duration.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str, counts: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, counts])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name_of):
        """``name_of(args, kwargs)`` gives the span name and its counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(*name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> dict[str, float]:
        """Per span name: ``.s`` (inclusive, outermost occurrences only),
        ``.self_s``, ``.calls`` and the sum of each recorded count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += end - start - child_time[i]
            if not self._nested_in_same_name(i):
                out[name + ".s"] += end - start
            for key, value in (counts or {}).items():
                out[f"{name}.{key}"] += value
        return dict(out)

    def _nested_in_same_name(self, index: int) -> bool:
        name, parent = self.spans[index][0], self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def _fixed(name):
    return lambda args, kwargs: (name, None)


def install(tracer: Tracer) -> None:
    """Wrap lpdiv's layer boundaries.  Call after lpdiv is imported."""
    import lpdiv
    from lpdiv import cli, curves, decomp, gfpoly, intpoly, zeta
    from lpdiv import finite_fields as ff

    def char_sum_name(args, kwargs):
        field, f = args[0], args[1]
        if field.m <= kwargs.get("table_max_m", ff.TABLE_MAX_M):
            kind = "table"
        elif f.laurent_exponents() is not None:
            kind = "stream"
        else:
            kind = "refused"  # char_sum raises TooLarge
        return f"char_sum.{kind}", {"elems": field.order}

    def count_points_name(args, kwargs):
        c = args[0]
        m = args[1] if len(args) > 1 else kwargs["m"]
        if isinstance(c, curves.OddHyperellipticCurve):
            return "count_points.odd", {"elems": c.p**m}
        return "count_points.as2", {"elems": 2**m}

    built: list = []  # fields whose (cached) power tables were built

    def power_tables_name(args, kwargs):
        field = args[0]
        if any(f is field for f in built):
            return "power_tables", None
        built.append(field)
        # exps (uint64) and logs (int64): 16 bytes per field element
        return "power_tables", {"builds": 1, "bytes": 16 * field.order}

    functions = [
        (ff.char_sum, char_sum_name),
        (ff.make_field, _fixed("make_field")),
        (gfpoly.is_irreducible, _fixed("is_irreducible")),
        (curves.count_points, count_points_name),
        (curves.count_series, _fixed("count_series")),
        (curves.gsum, _fixed("gsum")),
        (zeta.lpoly_from_counts, _fixed("lpoly_from_counts")),
        (zeta.extension_lpoly, _fixed("extension_lpoly")),
        (intpoly.divides_with_quotient, _fixed("divides_with_quotient")),
        (intpoly.squarefree_over_Q, _fixed("squarefree_over_Q")),
        (intpoly.power_sums_from_poly, _fixed("power_sums_from_poly")),
        (decomp.verify_conjecture_dk, _fixed("verify_conjecture_dk")),
        (decomp.split_two_prime, _fixed("split_two_prime")),
        (decomp.gsum_invariance_scan, _fixed("gsum_invariance_scan")),
        (cli.run, _fixed("run")),
    ]
    modules = (lpdiv, ff, gfpoly, intpoly, curves, zeta, decomp, cli)
    for fn, name_of in functions:
        wrapper = tracer.wrap(fn, name_of)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    tracer.patch(module, attr, wrapper)

    methods = [
        (ff.FiniteField, "__init__", _fixed("FiniteField.build")),
        (ff.FiniteField, "power_tables", power_tables_name),
        (ff.FiniteField, "geometric_block", _fixed("geometric_block")),
        (ff.FiniteField, "small_log_tables", _fixed("small_log_tables")),
        (ff.RationalMap, "__init__", _fixed("RationalMap.init")),
    ]
    for cls, attr, name_of in methods:
        tracer.patch(cls, attr, tracer.wrap(getattr(cls, attr), name_of))


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """The benchmark's per-layer metrics (without the trace.* pair, which
    the parent computes across jobs) from one job's ``Tracer.totals``."""
    t = defaultdict(float, totals)
    out = {}
    for kind in ("stream", "table"):
        name = f"char_sum.{kind}"
        out[f"{name}.s"] = t[f"{name}.s"]
        out[f"{name}.elems"] = t[f"{name}.elems"]
        out[f"{name}.elems_per_s"] = _rate(t[f"{name}.elems"], t[f"{name}.s"])
    out.update({
        "geometric_block.s": t["geometric_block.s"],
        "geometric_block.calls": t["geometric_block.calls"],
        "FiniteField.builds": t["FiniteField.build.calls"],
        "make_field.calls": t["make_field.calls"],
        "FiniteField.build_s": t["FiniteField.build.s"],
        "power_tables.s": t["power_tables.s"],
        "power_tables.bytes": t["power_tables.bytes"],
        "RationalMap.init_s": t["RationalMap.init.s"],
        "small_log_tables.s": t["small_log_tables.s"],
        "is_irreducible.calls": t["is_irreducible.calls"],
        "is_irreducible.s": t["is_irreducible.s"],
        "count_points.odd.self_s": t["count_points.odd.self_s"],
        "count_points.odd.elems_per_s": _rate(t["count_points.odd.elems"], t["count_points.odd.self_s"]),
        "count_series.self_s": t["count_series.self_s"],
        "lpoly_from_counts.s": t["lpoly_from_counts.s"],
        "lpoly_from_counts.calls": t["lpoly_from_counts.calls"],
        "extension_lpoly.s": t["extension_lpoly.s"],
        "divides_with_quotient.s": t["divides_with_quotient.s"],
        "squarefree_over_Q.s": t["squarefree_over_Q.s"],
        "power_sums_from_poly.s": t["power_sums_from_poly.s"],
        "verify_conjecture_dk.self_s": t["verify_conjecture_dk.self_s"],
        "split_two_prime.s": t["split_two_prime.s"],
        "gsum_invariance_scan.self_s": t["gsum_invariance_scan.self_s"],
        "run.self_s": t["run.self_s"],
    })
    return out
