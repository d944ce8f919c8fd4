"""The traced run: spans around each layer's entry point, from outside.

:func:`install` replaces each entry point named in :data:`ENTRY_POINTS`
with a wrapper, at the name its callers look it up by (a module global
such as ``repro.core.routing.batch_scan`` or a class attribute such as
``ViewIndex.get_optimal_views``).  Every call then records one span:
name, start, end, parent span, request id, and the deltas of the cost
ledger counters the layer drives.  Spans stay in memory; the run
writes them out as one Chrome trace file when it ends.

Wrappers never charge the simulated ledger, so a traced run returns the
same results and the same ledger totals as an untraced one (the
``parity`` command of ``steady.py`` checks exactly that).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

#: (module, attribute path, span name, ledger counters, result summary).
#: A class method is patched on its class; a function on every module
#: whose callers look it up there.
ENTRY_POINTS = (
    ("repro.server.client", "ServerClient.query", "client", (), None),
    ("repro.server.session", "Session.query", "server", (), None),
    ("repro.server.session", "result_digest", "digest", (), None),
    (
        "repro.core.view_index",
        "ViewIndex.get_optimal_views",
        "route",
        (),
        lambda views: {"views": len(views)},
    ),
    (
        "repro.core.routing",
        "batch_scan",
        "scan",
        ("pages_scanned", "values_scanned"),
        None,
    ),
    (
        "repro.core.adaptive",
        "batch_scan",
        "scan",
        ("pages_scanned", "values_scanned"),
        None,
    ),
    (
        "repro.core.adaptive",
        "materialize_pages",
        "create",
        ("mmap_calls", "pages_mapped"),
        None,
    ),
    (
        "repro.core.maintenance",
        "materialize_pages",
        "create",
        ("mmap_calls", "pages_mapped"),
        None,
    ),
    (
        "repro.core.view_index",
        "ViewIndex.consider_candidate",
        "consider",
        (),
        lambda event: {"event": event.value},
    ),
    (
        "repro.core.adaptive",
        "align_partial_views",
        "maint",
        ("maps_lines_parsed",),
        lambda stats: {"dropped": len(stats.dropped_views)},
    ),
    ("repro.storage.table", "Table.live_row_mask", "filter", (), None),
    ("repro.tier.buffer", "WriteBuffer.matching", "staged", (), None),
    (
        "repro.core.facade",
        "AdaptiveDatabase.flush_inserts",
        "merge",
        (),
        lambda out: {"rows": int(out["merged_rows"])},
    ),
    (
        "repro.core.adaptive",
        "AdaptiveStorageLayer.rebind_storage",
        "rebind",
        (),
        None,
    ),
    (
        "repro.wal.log",
        "WriteAheadLog.append",
        "wal.append",
        ("wal_appends", "wal_bytes"),
        None,
    ),
    ("repro.wal.log", "WriteAheadLog._fsync", "wal.sync", ("fsyncs",), None),
    (
        "repro.wal.recovery",
        "recover_database",
        "recovery",
        (),
        lambda out: {"records": int(out[1].replayed_records)},
    ),
    ("repro.sql.executor", "Session.execute", "sql", (), None),
)

#: Candidate decisions that keep the candidate in the view index.
KEPT_EVENTS = ("inserted", "replaced", "evicted_lru")


class Tracer:
    """In-memory span recorder shared by every wrapper."""

    def __init__(self) -> None:
        #: (id, name, start_ns, end_ns, parent_id, request, phase, tid, extra)
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        #: Request id of the operation in flight (closed loop: one).
        self.request = 0
        #: Phase label stamped on every span (setup / run / final).
        self.phase = "setup"
        #: The ledger counter deltas are read from (the run's database).
        self.ledger = None
        #: Parent for the first span on a thread with an empty stack:
        #: the client's span, whose request the server thread serves.
        self.remote_parent = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counters=(), summary=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.remote_parent
            with tracer._id_lock:
                tracer._next_id += 1
                span_id = tracer._next_id
            ledger = tracer.ledger
            before = (
                [ledger.counter(c) for c in counters]
                if counters and ledger is not None
                else None
            )
            if name == "client":
                tracer.remote_parent = span_id
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            extra = {}
            if before is not None:
                for counter, was in zip(counters, before):
                    extra[counter] = ledger.counter(counter) - was
            if summary is not None:
                extra.update(summary(result))
            tracer.spans.append(
                (
                    span_id,
                    name,
                    start,
                    end,
                    parent,
                    tracer.request,
                    tracer.phase,
                    threading.get_ident(),
                    extra,
                )
            )
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for module_name, path, name, counters, summary in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counters, summary))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def span_cost_s(self, calls: int = 20000) -> float:
        """Measured wall cost one wrapper adds to one call."""

        def noop():
            return None

        class _Ledger:
            def counter(self, name):
                return 0

        probe = Tracer()
        probe.ledger = _Ledger()
        wrapped = probe.wrap("probe", noop, ("a", "b"))
        began = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - began
        began = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - began
        return max(traced - bare, 0.0) / calls

    # -- output ----------------------------------------------------------

    def write_chrome(self, path: Path) -> None:
        """All spans as Chrome trace_event JSON (chrome://tracing)."""
        tids: dict[int, int] = {}
        events = []
        for span_id, name, start, end, parent, request, phase, tid, extra in self.spans:
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": start / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": 1,
                    "tid": tids.setdefault(tid, len(tids) + 1),
                    "args": {
                        "id": span_id,
                        "parent": parent,
                        "request": request,
                        "phase": phase,
                        **extra,
                    },
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Each span's duration minus the part its children cover (ns)."""
    bounds = {s[0]: (s[2], s[3]) for s in spans}
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[4] in bounds:
            children[span[4]].append((span[2], span[3]))
    result = {}
    for span_id, (start, end) in bounds.items():
        covered = 0
        cursor = start
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def layer_metrics(
    tracer: Tracer,
    reads: int,
    ops: int,
    run_seconds: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the measured phase, name -> (value, unit).

    Times are self times (ms) per operation; ``server.*`` times are per
    read; counts are per read, per call or per thousand operations as
    their units say.
    """
    run = [s for s in tracer.spans if s[6] == "run"]
    own = self_times(run)
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in run:
        by_name[span[1]].append(span)

    def self_ms(name: str) -> float:
        return sum(own[s[0]] for s in by_name[name]) / 1e6

    def dur_ms(name: str) -> float:
        return sum(s[3] - s[2] for s in by_name[name]) / 1e6

    def total(name: str, key: str) -> float:
        return float(sum(s[8].get(key, 0) for s in by_name[name]))

    per_op = 1.0 / max(ops, 1)
    per_read = 1.0 / max(reads, 1)
    per_kop = 1000.0 / max(ops, 1)

    served_ms: dict[int, float] = defaultdict(float)
    for span in by_name["server"]:
        served_ms[span[4]] += (span[3] - span[2]) / 1e6
    envelope = sum(
        (span[3] - span[2]) / 1e6 - served_ms[span[0]]
        for span in by_name["client"]
    )

    candidates = len(by_name["consider"])
    kept = sum(1 for s in by_name["consider"] if s[8].get("event") in KEPT_EVENTS)
    maint_calls = len(by_name["maint"])
    appends = total("wal.append", "wal_appends")
    values = total("scan", "values_scanned")
    recoveries = [s for s in tracer.spans if s[1] == "recovery" and s[6] == "setup"]
    recovery_ms = sorted((s[3] - s[2]) / 1e6 for s in recoveries)
    span_cost = tracer.span_cost_s()

    return {
        "server.request_ms": (dur_ms("server") * per_read, "ms/read"),
        "server.envelope_ms": (envelope * per_read, "ms/read"),
        "server.digest_ms": (self_ms("digest") * per_read, "ms/read"),
        "route.ms": (self_ms("route") * per_op, "ms/op"),
        "route.views_per_read": (total("route", "views") * per_read, "views/read"),
        "scan.ms": (self_ms("scan") * per_op, "ms/op"),
        "scan.pages_per_read": (total("scan", "pages_scanned") * per_read, "pages/read"),
        "scan.ns_per_value": (
            self_ms("scan") * 1e6 / values if values else 0.0,
            "ns/value",
        ),
        "create.ms": (self_ms("create") * per_op, "ms/op"),
        "create.consider_ms": (self_ms("consider") * per_op, "ms/op"),
        "create.mmap_calls_per_read": (total("create", "mmap_calls") * per_read, "calls/read"),
        "create.pages_mapped_per_read": (
            total("create", "pages_mapped") * per_read,
            "pages/read",
        ),
        "create.kept_ratio": (kept / candidates if candidates else 0.0, "ratio"),
        "maint.ms": (self_ms("maint") * per_op, "ms/op"),
        "maint.calls": (maint_calls * per_kop, "1/kop"),
        "maint.maps_lines_per_call": (
            total("maint", "maps_lines_parsed") / maint_calls if maint_calls else 0.0,
            "lines/call",
        ),
        "maint.views_dropped": (total("maint", "dropped") * per_kop, "1/kop"),
        "filter.ms": (self_ms("filter") * per_op, "ms/op"),
        "staged.ms": (self_ms("staged") * per_op, "ms/op"),
        "merge.ms": (self_ms("merge") * per_op, "ms/op"),
        "merge.count": (
            sum(1 for s in by_name["merge"] if s[8].get("rows")) * per_kop,
            "1/kop",
        ),
        "rebind.ms": (self_ms("rebind") * per_op, "ms/op"),
        "wal.append_ms": (self_ms("wal.append") * per_op, "ms/op"),
        "wal.sync_ms": (self_ms("wal.sync") * per_op, "ms/op"),
        "wal.fsyncs": (total("wal.sync", "fsyncs") * per_kop, "1/kop"),
        "wal.bytes_per_write": (
            total("wal.append", "wal_bytes") / appends if appends else 0.0,
            "B/write",
        ),
        "recovery.ms": (
            recovery_ms[len(recovery_ms) // 2] if recovery_ms else 0.0,
            "ms",
        ),
        "recovery.records": (
            float(recoveries[-1][8]["records"]) if recoveries else 0.0,
            "count",
        ),
        "sql.ms": (self_ms("sql") * per_op, "ms/op"),
        "trace.ops_per_s": (ops / run_seconds, "1/s"),
        "trace.spans_per_op": (len(run) * per_op, "spans/op"),
        "trace.overhead_ms": (len(run) * span_cost * 1e3 * per_op, "ms/op"),
    }
