"""The served workloads: ``scan-uniform`` and ``adaptive-sine``.

One :class:`ServerClient` drives an in-process :class:`QueryServer` over
TCP in a closed loop: the next request goes out only when the last
answer is back.  Each range read on the column ``t.v`` is followed by
one point write to a small side table ``w.x`` on the same database, so
the read column and its views stay read-only while every workload
reports write latency, sampled across the whole run (README).
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

import numpy as np

from common import (
    DOMAIN_HI,
    DOMAIN_LO,
    VALUES_PER_PAGE,
    CheckFailed,
    RunClock,
    check_tail,
    expect,
    fingerprint,
    note,
    peak_rss_mb,
    percentile_ms,
    range_starts,
)


@dataclass(frozen=True)
class ServedSpec:
    """Input make-up of one served workload."""

    name: str
    distribution: str
    pages: int
    #: Range width as a share of the value domain.
    width: float
    #: Seed of the read ranges; ``None`` draws them from the run's seed.
    query_seed: int | None
    #: Reads every run makes even past ``--seconds``.  The first
    #: ``min_reads`` reads are also what ``sim.ms_per_read`` averages.
    min_reads: int
    #: End the run after exactly ``min_reads`` reads, however long they
    #: take; ``--seconds`` then does not bound the run.
    count_bound: bool
    #: Largest share of the column a final-stretch read may scan
    #: (``None``: every read must scan every page).
    final_scan_share: float | None


SCAN_UNIFORM = ServedSpec(
    name="scan-uniform",
    distribution="uniform",
    pages=4096,
    width=0.05,
    query_seed=None,
    min_reads=240,
    count_bound=False,
    final_scan_share=None,
)

#: The read ranges do not depend on the seed (only the data's jitter
#: does), so how fast views converge barely varies from seed to seed:
#: generation stops after about 1100 reads.  Every run makes exactly
#: 5600 reads, so every run, and every version of the program, has the
#: same mix of phases: a faster program or a faster stretch of the
#: machine cannot add cheap late reads that pull the median down.
ADAPTIVE_SINE = ServedSpec(
    name="adaptive-sine",
    distribution="sine",
    pages=8192,
    width=0.005,
    query_seed=0,
    min_reads=5600,
    count_bound=True,
    final_scan_share=0.05,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 7

#: Pages of the side table the writes go to.
SIDE_PAGES = 4

#: Reads at the end of the run the final-stretch property covers.
FINAL_STRETCH = 200


class SortedModel:
    """The column as the benchmark knows it, indexed for range lookups.

    Only the sort order and the sorted values are kept, as int32 (row
    ids and the value domain both fit), so the model adds little to the
    process's peak memory.
    """

    def __init__(self, values: np.ndarray) -> None:
        order = np.argsort(values, kind="stable")
        self._sorted = values[order].astype(np.int32)
        self._order = order.astype(np.int32)

    def select(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        # int32 bounds: a Python int would make numpy cast the whole
        # array to int64 on every lookup.
        a = np.searchsorted(self._sorted, np.int32(lo), side="left")
        b = np.searchsorted(self._sorted, np.int32(hi), side="right")
        rowids = self._order[a:b].astype(np.int64)
        by_row = np.argsort(rowids)
        return rowids[by_row], self._sorted[a:b][by_row].astype(np.int64)


def _set_up(values: np.ndarray, side: np.ndarray):
    """Load the columns, start the server, open the session."""
    from repro.server import DatabaseManager, QueryServer, ServerClient, SessionOptions

    manager = DatabaseManager()
    db = manager.create_database(backend="simulated")
    db.create_table("t", {"v": values})
    db.create_table("w", {"x": side})
    server = QueryServer(manager=manager)
    host, port = server.start()
    client = ServerClient(host, port, options=SessionOptions(autocommit=False))
    return manager, db, server, client


def _tear_down(manager, server, client) -> None:
    client.close()
    server.stop()
    manager.close()


def run_served(spec: ServedSpec, seed: int, seconds: float, tracer) -> dict:
    from repro.workloads.distributions import generate

    rng = np.random.default_rng(seed)
    values = generate(spec.distribution, spec.pages, seed=seed)
    side = np.zeros(SIDE_PAGES * VALUES_PER_PAGE, dtype=np.int64)
    # Built before the database exists, so the sort's temporaries do
    # not stack on the program's memory.
    model = SortedModel(values)
    width = int((DOMAIN_HI - DOMAIN_LO) * spec.width)
    query_rng = rng if spec.query_seed is None else np.random.default_rng(spec.query_seed)
    starts = range_starts(query_rng, width)

    setup_s = []
    for rep in range(SETUP_REPS):
        if rep:
            _tear_down(manager, server, client)
            del manager, db, server, client
            gc.collect()  # no torn-down database outlives its set-up
        began = time.perf_counter()
        manager, db, server, client = _set_up(values, side)
        setup_s.append(time.perf_counter() - began)
    del values  # the database holds the column, the model its own copy
    note(f"set up {SETUP_REPS} times, median {statistics.median(setup_s):.3f}s")
    ledger = db.cost.ledger

    reads: list[float] = []
    writes: list[float] = []
    answers: list[tuple[int, int, dict, float]] = []
    ledger_at_min_reads = None
    deadline = seconds + 120.0  # stays inside the run's time limit
    try:
        if tracer is not None:
            tracer.ledger = ledger
            tracer.phase = "run"
        # Read answers are checked after the measured phase, so the
        # model's work neither pauses the loop nor evicts the program's
        # caches; a write's old value is checked as it comes back.
        clock = RunClock()
        while (
            len(reads) < spec.min_reads
            or (not spec.count_bound and clock.elapsed() < seconds)
        ) and clock.elapsed() < deadline:
            lo = next(starts)
            hi = lo + width
            if tracer is not None:
                tracer.request = 2 * len(reads) + 1
            began = time.perf_counter()
            response = client.query("t", "v", lo, hi)
            reads.append(time.perf_counter() - began)
            if not response.ok:
                raise CheckFailed(f"read [{lo}, {hi}] failed: {response.error}")
            answers.append((lo, hi, response.data, response.sim_ns))

            row = int(rng.integers(0, side.size))
            value = int(rng.integers(DOMAIN_LO, DOMAIN_HI + 1))
            if tracer is not None:
                tracer.request += 1
            began = time.perf_counter()
            response = client.update("w", "x", row, value)
            writes.append(time.perf_counter() - began)
            if not response.ok or response.data["old_value"] != int(side[row]):
                raise CheckFailed(
                    f"write to w row {row}: {response.error or response.data}, "
                    f"model had {int(side[row])}"
                )
            side[row] = value
            if len(reads) == spec.min_reads:
                ledger_at_min_reads = ledger.snapshot()
        run_seconds = clock.elapsed()
        peak_mb = peak_rss_mb()  # before the checks add their own memory
        if len(reads) < spec.min_reads:
            raise CheckFailed(
                f"only {len(reads)} of {spec.min_reads} reads inside the time limit"
            )
        note(f"measured {len(reads)} reads and {len(writes)} writes in {run_seconds:.2f}s")
        if tracer is not None:
            tracer.phase = "final"
        parity = _check(spec, model, answers, ledger_at_min_reads, client, side)
        note("checked every answer against the model")
    finally:
        _tear_down(manager, server, client)

    check_tail(reads, 95, "reads")
    check_tail(writes, 95, "writes")
    ops = len(reads) + len(writes)
    metrics = {
        "ops_per_s": (ops / run_seconds, "1/s"),
        "read_p50_ms": (percentile_ms(reads, 50), "ms"),
        "read_p95_ms": (percentile_ms(reads, 95), "ms"),
        "write_p50_ms": (percentile_ms(writes, 50), "ms"),
        "write_p95_ms": (percentile_ms(writes, 95), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    sim_ms = sum(a[3] for a in answers[: spec.min_reads]) / spec.min_reads / 1e6
    return {
        "attempted": ops + 2,  # plus the commit and the side-table read
        "failed": 0,
        "metrics": metrics,
        "reads": len(reads),
        "ops": ops,
        "run_seconds": run_seconds,
        "layer": {
            "sim.ms_per_read": (sim_ms, "sim_ms"),
            "wal.durable_mb": (0.0, "MB"),
        },
        "fingerprint": parity,
    }


def _check(spec: ServedSpec, model: SortedModel, answers, ledger_snapshot, client, side) -> str:
    """Every answer against the model, plus the workload's property.

    Commits the side-table writes and reads the side table back over
    the wire.  Returns the parity fingerprint: the ledger totals after
    the first ``min_reads`` reads and a digest of those reads' answers.
    """
    pages = []
    for lo, hi, data, _ in answers:
        rowids, selected = model.select(lo, hi)
        expect(data, rowids, selected, f"read [{lo}, {hi}]")
        scanned = int(data["pages_scanned"])
        if spec.final_scan_share is None and scanned != spec.pages:
            raise CheckFailed(
                f"read [{lo}, {hi}] scanned {scanned} of {spec.pages} "
                "pages; uniform data qualifies every page"
            )
        pages.append(scanned)
    if spec.final_scan_share is not None:
        tail = float(np.mean(pages[-FINAL_STRETCH:]))
        if tail > spec.final_scan_share * spec.pages:
            raise CheckFailed(
                f"final-stretch reads scanned {tail:.0f} pages on average; "
                f"adapted views keep that under {spec.final_scan_share:.0%} "
                f"of {spec.pages}"
            )
    for response in (client.commit(), client.query("w", "x", DOMAIN_LO, DOMAIN_HI)):
        if not response.ok:
            raise CheckFailed(f"side table {response.op}: {response.error}")
    rowids = np.flatnonzero(side >= DOMAIN_LO)
    expect(response.data, rowids, side[rowids], "side table read")
    return fingerprint(
        ledger_snapshot, [data["checksum"] for _, _, data, _ in answers[: spec.min_reads]]
    )
