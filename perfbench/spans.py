"""Per-layer instruments for the traced run.

Two sources, both outside the program:

* ``parse_stats`` turns the text of ``Dataset.stats()`` into one record per
  executed operator (wall, CPU and UDF time, tasks, rows, bytes, heap).
* ``Tracer`` records spans around calls into the program's public
  functions while the benchmark replays the workload's UDFs in the driver
  process. The wrappers are installed on module attributes for the length
  of a replay and removed afterwards; Ray workers never see them.
"""

from __future__ import annotations

import contextlib
import re
import time
from collections import defaultdict

_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0}
_DUR = r"([0-9.]+)(ns|us|ms|s|m|h)"
_OP = re.compile(r"^\s*Operator \d+ (.+?): (?:(\d+) tasks executed, (\d+) blocks produced in "
                 + _DUR + r"|executed in " + _DUR + ")")
_SUB = re.compile(r"^\s*Suboperator \d+ (.+?): (\d+) tasks executed")
_TOTAL = re.compile(r"^\s*\* (Remote wall time|Remote cpu time|UDF time): .* " + _DUR + " total")
_SUM = re.compile(r"^\s*\* (Output num rows per block|Output size bytes per block): .* (\d+) total")
_HEAP = re.compile(r"^\s*\* Peak heap memory usage \(MiB\): [0-9.]+ min, ([0-9.]+) max")


def _secs(num: str, unit: str) -> float:
    return float(num) * _UNITS[unit]


def parse_stats(text: str) -> list[dict]:
    """Per-operator records from ``Dataset.stats()`` text. Suboperators of
    an all-to-all operator (shuffle map/reduce) are folded into it."""
    ops: list[dict] = []
    for line in text.splitlines():
        m = _OP.match(line)
        if m:
            name, tasks, _blocks, n1, u1, n2, u2 = m.groups()
            ops.append({"operator": name, "tasks": int(tasks or 0),
                        "wall_s": _secs(n1, u1) if n1 else _secs(n2, u2),
                        "remote_wall_s": 0.0, "cpu_s": 0.0, "udf_s": 0.0,
                        "rows_out": 0, "bytes_out": 0, "peak_heap_mib": 0.0})
            continue
        if not ops:
            continue
        cur = ops[-1]
        if m := _SUB.match(line):
            cur["tasks"] += int(m.group(2))
        elif m := _TOTAL.match(line):
            key = {"Remote wall time": "remote_wall_s", "Remote cpu time": "cpu_s",
                   "UDF time": "udf_s"}[m.group(1)]
            cur[key] += _secs(m.group(2), m.group(3))
        elif m := _SUM.match(line):
            key = "rows_out" if m.group(1).startswith("Output num rows") else "bytes_out"
            cur[key] = int(m.group(2))  # the last suboperator's output is the operator's
        elif m := _HEAP.match(line):
            cur["peak_heap_mib"] = max(cur["peak_heap_mib"], float(m.group(1)))
    return ops


def engine_split(ops: list[dict], pass_s: float) -> dict:
    """UDF time vs everything else in one pass, after "Accelerating Python
    UDFs in Vectorized Query Execution" (CIDR 2022): time inside user
    functions, time in the read tasks outside them, and the orchestration
    remainder of the pass wall time."""
    udf = sum(o["udf_s"] for o in ops)
    return {
        "ops.pass_s": pass_s,
        "ops.udf_s": udf,
        "ops.orchestration_s": pass_s - udf,
        "ops.read_s": sum(o["remote_wall_s"] - o["udf_s"] for o in ops if o["operator"].startswith("Read")),
        "ops.tasks": sum(o["tasks"] for o in ops),
        "ops.bytes_out": sum(o["bytes_out"] for o in ops),
        "ops.peak_heap_mib": max((o["peak_heap_mib"] for o in ops), default=0.0),
    }


@contextlib.contextmanager
def capture_datasets():
    """Collect every Dataset that is executed (iterated, counted or
    written) while the context is open, so that its ``stats()`` can be read
    afterwards — including Datasets built inside the program's stage
    functions, which the caller never holds."""
    import ray.data as rd

    seen: list = []

    def recorder(orig):
        def method(self, *a, **k):
            seen.append(self)
            return orig(self, *a, **k)
        return method

    names = ("iter_batches", "count", "write_parquet")
    with patched(*((rd.Dataset, n, recorder(getattr(rd.Dataset, n))) for n in names)):
        yield seen


@contextlib.contextmanager
def patched(*triples):
    """Temporarily set ``obj.attr = value`` (or ``obj[key] = value`` for a
    dict) for each (obj, attr, value)."""
    saved = []
    try:
        for obj, attr, value in triples:
            if isinstance(obj, dict):
                saved.append((obj, attr, obj[attr]))
                obj[attr] = value
            else:
                saved.append((obj, attr, getattr(obj, attr)))
                setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            if isinstance(obj, dict):
                obj[attr] = value
            else:
                setattr(obj, attr, value)


class Tracer:
    """In-memory spans (name, start, end, parent span, batch id) and counts.
    Spans nest by call order on the driver thread."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, batch]
        self.counts: dict[str, int] = defaultdict(int)
        self.batch: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.batch]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, *, consume: bool = False):
        """``fn`` with a span around every call; ``consume`` materialises a
        returned iterator inside the span so lazy work is charged here."""
        def traced(*a, **k):
            with self.span(name):
                out = fn(*a, **k)
                return list(out) if consume else out
        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: Σ(duration − time covered by direct children)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return dict(out)

    def indices(self, name: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def dump(self) -> list[dict]:
        base = self.spans[0][1] if self.spans else 0.0
        return [{"id": i, "name": n, "start_s": t0 - base, "end_s": t1 - base, "parent": p, "batch": b}
                for i, (n, t0, t1, p, b) in enumerate(self.spans)]
