"""The ``durable-mixed`` workload: reads beside journaled writes.

In-process, through one :class:`DatabaseManager` session (no socket):
the run recovers a prepared durable directory (checkpoint plus log
tail), then repeats whole rounds of range reads, structured point
updates, inserts, SQL ``UPDATE`` statements, commits and a range
delete, each checked against the benchmark's own numpy model.  At the
end the log is synced and a copy of the directory is recovered the way
a crash would leave it (no ``close()``); every acknowledged write must
be in it.

Two faults of the program are kept as counted failures, each on inputs
that do not depend on the seed, so every round fails exactly
:data:`FAILED_PER_ROUND` operations (README, "Named faults"):

(a) SQL ``UPDATE`` bypasses the journal, so each statement is missing
    after recovery;
(b) the SQL engine drains a table's pending updates into its own view
    layer, so the structured layer misses a moved row: one probe read
    per round comes back short by exactly that row.
"""

from __future__ import annotations

import gc
import multiprocessing
import shutil
import statistics
import time
from pathlib import Path

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
)

#: Pages of the main table ``t`` (columns ``k`` = row id, ``v`` = sine).
PAGES = 4096
#: Trailing pages of ``t`` only SQL ``UPDATE`` statements touch; their
#: ``v`` values lie above the read domain and do not depend on the seed.
RESERVED_PAGES = 64
RESERVED_BASE = 200_000_000
#: Value an SQL ``UPDATE`` writes: this plus the statement's number.
SQL_VALUE_BASE = 300_000_000
#: Rows per SQL ``UPDATE`` (``WHERE k BETWEEN r AND r + 1``).
SQL_ROWS = 2

#: Read and delete widths as a share of the value domain.
READ_WIDTH = 0.005
DELETE_WIDTH = 0.0002
#: Reads visit this many ranges, one in each equal share of the domain,
#: in a seeded order that visits each once per block, so views pay off
#: between merges (each merge drops every partial view).  Where the
#: ranges sit does not depend on the seed: their page counts set the
#: cost of every realignment, which would otherwise swing by a third
#: from seed to seed.
HOT_RANGES = 32
HOT_SEED = 0

#: One round: SUBROUNDS x (READS x (read, UPDATES_PER_READ updates,
#: INSERTS_PER_READ inserts), one SQL UPDATE, one commit), then one
#: range delete (which merges the staged inserts) and the probe.
SUBROUNDS = 12
READS = 8
UPDATES_PER_READ = 1
INSERTS_PER_READ = 2
PROBE_OPS = 7
OPS_PER_ROUND = (
    SUBROUNDS * (READS * (1 + UPDATES_PER_READ + INSERTS_PER_READ) + 2)
    + 1
    + PROBE_OPS
)
#: Fault (a) once per sub-round, fault (b) once per round.
FAILED_PER_ROUND = SUBROUNDS + 1

#: Rounds every run makes even past ``--seconds`` (ten reads beyond
#: p95); ``sim.ms_per_read`` averages the reads of exactly these.
MIN_ROUNDS = 3

#: Write-ahead log policy, the same on both sides of any comparison.
FSYNC = "batch"

#: Recoveries of the prepared directory per run; ``setup_s`` is their
#: median.
SETUP_REPS = 7

#: The probe table for fault (b): 16 pages, p = 10 * row, no seed.
PROBE_PAGES = 16
PROBE_RANGE = (20_000, 20_999)  # rows 2000..2099, pages 3 and 4
PROBE_MOVED_ROW = 7000  # page 13; moved into PROBE_RANGE and back
PROBE_MOVED_VALUE = 20_500
PROBE_TOUCHED_ROW = 6000  # page 11; rewritten with its own value
PROBE_SQL_RANGE = (50_000, 50_999)  # rows 5000..5099, never written

#: Journaled writes in the prepared log tail, after the checkpoint.
TAIL_UPDATES = 256
TAIL_INSERTS = 300

#: Rows the model grows by when inserts fill it: 16 rounds' inserts.
MODEL_GROWTH = 16 * SUBROUNDS * READS * INSERTS_PER_READ


class Model:
    """What the database must hold: values, tombstones, merged rows.

    The live rows of each watched read range are kept as a set and
    moved on every write, so checking a hot read costs a sort of its
    rows rather than a pass over the column.
    """

    def __init__(self, values: np.ndarray) -> None:
        self.size = values.size
        self.k = np.arange(self.size, dtype=np.int64)
        self.v = values.astype(np.int64)
        self.dead = np.zeros(self.size, dtype=bool)
        #: Rows merged into the columns (the rest are staged inserts).
        self.merged = self.size
        self.reserved = (self.size - RESERVED_PAGES * VALUES_PER_PAGE, self.size)
        self.probe = np.arange(PROBE_PAGES * VALUES_PER_PAGE, dtype=np.int64) * 10
        self._watched: dict[tuple[int, int], set[int]] = {}

    def watch(self, lo: int, hi: int) -> None:
        v = self.v[: self.size]
        rows = np.flatnonzero((v >= lo) & (v <= hi) & ~self.dead[: self.size])
        self._watched[(lo, hi)] = set(rows.tolist())

    def _move(self, row: int, old: int | None, new: int | None) -> None:
        for (lo, hi), rows in self._watched.items():
            if old is not None and lo <= old <= hi:
                rows.discard(row)
            if new is not None and lo <= new <= hi:
                rows.add(row)

    def set(self, row: int, value: int) -> None:
        self._move(row, int(self.v[row]), value)
        self.v[row] = value

    def insert(self, value: int) -> int:
        row = self.size
        if row >= self.k.size:
            self.k, self.v, self.dead = (
                np.concatenate([a, np.zeros(MODEL_GROWTH, dtype=a.dtype)])
                for a in (self.k, self.v, self.dead)
            )
        self.k[row] = row
        self.v[row] = value
        self.size += 1
        self._move(row, None, value)
        return row

    def kill(self, rows: np.ndarray) -> None:
        self.dead[rows] = True
        for row in rows.tolist():
            self._move(row, int(self.v[row]), None)

    def select(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Live rows with a value in [lo, hi], and their values."""
        rows = self._watched.get((lo, hi))
        if rows is not None:
            rowids = np.fromiter(rows, dtype=np.int64, count=len(rows))
            rowids.sort()
        else:
            v = self.v[: self.size]
            rowids = np.flatnonzero((v >= lo) & (v <= hi) & ~self.dead[: self.size])
        return rowids, self.v[rowids]

    def update_row(self, rng: np.random.Generator) -> int:
        """A live, merged row outside the reserved block."""
        lo, hi = self.reserved
        while True:
            row = int(rng.integers(0, self.merged))
            if not self.dead[row] and not lo <= row < hi:
                return row


def _initial_values(seed: int) -> np.ndarray:
    from repro.workloads.distributions import sine

    values = sine(PAGES, seed=seed)
    reserved = RESERVED_PAGES * VALUES_PER_PAGE
    values[-reserved:] = RESERVED_BASE + np.arange(reserved)
    return values


def _inputs(seed: int):
    """Everything drawn from ``seed`` before the run.

    Returns the initial column, the model of what the prepared
    directory holds, the generator the run goes on drawing from, the
    write made before the checkpoint and the log tail's writes.
    """
    rng = np.random.default_rng(seed)
    values = _initial_values(seed)
    model = Model(values)
    row = model.update_row(rng)
    before_checkpoint = (row, int(model.v[row]))
    tail = []
    for _ in range(TAIL_INSERTS):
        value = int(rng.integers(DOMAIN_LO, DOMAIN_HI + 1))
        tail.append(("insert", model.insert(value), value))
    for _ in range(TAIL_UPDATES):
        row = model.update_row(rng)
        value = int(rng.integers(DOMAIN_LO, DOMAIN_HI + 1))
        model.set(row, value)
        tail.append(("update", row, value))
    model.merged = model.size  # the tail ends with a merge
    return values, model, rng, before_checkpoint, tail


def _prepare(seed: int, directory: Path, copies: list[Path]) -> None:
    """Write the prepared durable directory (checkpoint plus log tail)
    and copy it, as a crash would leave it, once per set-up."""
    from repro import AdaptiveDatabase
    from repro.wal import DurabilityConfig

    values, model, _, (row, value), tail = _inputs(seed)
    db = AdaptiveDatabase(
        backend="simulated",
        durable_dir=str(directory),
        durability=DurabilityConfig(fsync=FSYNC),
    )
    db.create_table("t", {"k": np.arange(values.size, dtype=np.int64), "v": values})
    db.create_table("probe", {"p": model.probe.copy()})
    db.query("probe", "p", *PROBE_RANGE)  # the view fault (b) reads through
    # One write before the checkpoint closes the segment holding the
    # bulky create records, so the checkpoint prunes it.
    db.update("t", "v", row, value)
    db.checkpoint()
    for kind, row, value in tail:
        if kind == "insert":
            db.insert("t", {"k": row, "v": value})
        else:
            db.update("t", "v", row, value)
    db.flush_all()  # realign, merge the tail inserts, sync the log
    for copy in copies:
        shutil.copytree(directory, copy)
    db.close()


def _dir_bytes(directory: Path) -> int:
    return sum(f.stat().st_size for f in directory.iterdir() if f.is_file())


def run_durable(seed: int, seconds: float, tracer, workdir: Path) -> dict:
    from repro import AdaptiveDatabase
    from repro.server import DatabaseManager, SessionOptions
    from repro.wal import DurabilityConfig

    values, model, rng, _, _ = _inputs(seed)
    del values  # the model holds its own copy
    copies = [workdir / f"recover-{rep}" for rep in range(SETUP_REPS)]
    # Prepared in a child process, so that its memory does not count
    # in this process's peak.
    child = multiprocessing.get_context("fork").Process(
        target=_prepare, args=(seed, workdir / "prepared", copies)
    )
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"preparing the durable directory exited {child.exitcode}")
    note("prepared the durable directory")

    durability = DurabilityConfig(fsync=FSYNC)
    setup_s = []
    db = None
    for copy in copies:
        if db is not None:
            db.close()
            db = None
            gc.collect()  # no closed database outlives its set-up
        began = time.perf_counter()
        db = AdaptiveDatabase.recover(str(copy), backend="simulated", durability=durability)
        setup_s.append(time.perf_counter() - began)
    live_dir = copies[-1]
    note(f"recovered {SETUP_REPS} copies, median {statistics.median(setup_s):.3f}s")
    _check_recovered(db, model, sql_writes=[], what="prepared directory")

    manager = DatabaseManager()
    manager.add_database("default", db)
    session = manager.open_session("default", SessionOptions(autocommit=False))
    if tracer is not None:
        tracer.ledger = db.cost.ledger
        tracer.phase = "run"

    read_width = int((DOMAIN_HI - DOMAIN_LO) * READ_WIDTH)
    delete_width = int((DOMAIN_HI - DOMAIN_LO) * DELETE_WIDTH)
    stratum = (DOMAIN_HI - DOMAIN_LO) // HOT_RANGES
    offsets = np.random.default_rng(HOT_SEED).integers(0, stratum - read_width, HOT_RANGES)
    hot = [DOMAIN_LO + i * stratum + int(offsets[i]) for i in range(HOT_RANGES)]
    hot_reads = _visits(hot, rng)
    for lo in hot:
        model.watch(lo, lo + read_width)
    reads: list[float] = []
    writes: list[float] = []
    sim_ns: list[float] = []
    sql_writes: list[int] = []  # first row of each SQL UPDATE
    checksums: list[str] = []
    probe_failures = 0
    staged_reads = 0
    rounds = ops = 0
    parity = None
    next_read_lo = None
    clock = RunClock()

    def timed(fn, *args):
        nonlocal ops
        ops += 1
        if tracer is not None:
            tracer.request = ops
        began = time.perf_counter()
        response = fn(*args)
        elapsed = time.perf_counter() - began
        if not response.ok:
            raise CheckFailed(f"{response.op} failed: {response.error}")
        return response, elapsed

    try:
        while clock.elapsed() < seconds or rounds < MIN_ROUNDS:
            if clock.elapsed() > seconds + 120.0:
                raise CheckFailed(f"only {rounds} of {MIN_ROUNDS} rounds in the time limit")
            for _ in range(SUBROUNDS):
                for _ in range(READS):
                    lo = next(hot_reads) if next_read_lo is None else next_read_lo
                    next_read_lo = None
                    hi = lo + read_width
                    response, elapsed = timed(session.query, "t", "v", lo, hi)
                    reads.append(elapsed)
                    with clock.paused():
                        rowids, selected = model.select(lo, hi)
                        expect(response.data, rowids, selected, f"read [{lo}, {hi}]")
                        staged_reads += bool(rowids.size and rowids[-1] >= model.merged)
                        if rounds < MIN_ROUNDS:
                            sim_ns.append(response.sim_ns)
                        checksums.append(response.data["checksum"])
                    for _ in range(UPDATES_PER_READ):
                        row = model.update_row(rng)
                        value = int(rng.integers(DOMAIN_LO, DOMAIN_HI + 1))
                        response, elapsed = timed(session.update, "t", "v", row, value)
                        writes.append(elapsed)
                        with clock.paused():
                            if response.data["old_value"] != int(model.v[row]):
                                raise CheckFailed(
                                    f"update of row {row}: old value "
                                    f"{response.data['old_value']}, model has {int(model.v[row])}"
                                )
                            model.set(row, value)
                    for _ in range(INSERTS_PER_READ):
                        value = int(rng.integers(DOMAIN_LO, DOMAIN_HI + 1))
                        row = model.size
                        ops += 1
                        if tracer is not None:
                            tracer.request = ops
                        began = time.perf_counter()
                        rowid = db.insert("t", {"k": row, "v": value})
                        writes.append(time.perf_counter() - began)
                        if rowid != row:
                            raise CheckFailed(f"insert got row id {rowid}, model expects {row}")
                        model.insert(value)
                statement = len(sql_writes)
                first = model.reserved[0] + SQL_ROWS * statement
                if first + SQL_ROWS > model.reserved[1]:
                    raise CheckFailed("reserved rows exhausted; lengthen the block")
                value = SQL_VALUE_BASE + statement
                response, _ = timed(
                    session.execute,
                    f"UPDATE t SET v = {value} WHERE k BETWEEN {first} AND {first + SQL_ROWS - 1}",
                )
                if response.message != f"{SQL_ROWS} rows updated":
                    raise CheckFailed(f"SQL UPDATE: {response.message!r}")
                for row in range(first, first + SQL_ROWS):
                    model.set(row, value)
                sql_writes.append(first)
                timed(session.commit)

            with clock.paused():
                target, dlo, rowids = _delete_range(model, hot, read_width, delete_width, rng)
            response, _ = timed(session.delete, "t", "v", dlo, dlo + delete_width)
            with clock.paused():
                if response.data["deleted"] != rowids.size:
                    raise CheckFailed(
                        f"delete [{dlo}, {dlo + delete_width}] removed "
                        f"{response.data['deleted']} rows, model has {rowids.size}"
                    )
                model.kill(rowids)
                model.merged = model.size  # a delete merges staged rows first
            next_read_lo = target  # the next read covers the deleted rows
            probe_failures += _probe_round(session, model, timed)
            rounds += 1
            if rounds == MIN_ROUNDS:
                parity = fingerprint(db.cost.ledger.snapshot(), checksums)
        run_seconds = clock.elapsed()
        peak_mb = peak_rss_mb()  # before the end-of-run checks and recovery
        if ops != rounds * OPS_PER_ROUND:
            raise CheckFailed(f"{ops} operations are not {rounds} whole rounds")
        if staged_reads == 0:
            raise CheckFailed("no read met a staged row; the overlay went unexercised")

        note(f"ran {rounds} rounds, {ops} operations, {run_seconds:.2f}s measured")
        if tracer is not None:
            tracer.phase = "final"
        db.flush_all()  # sync the log (and merge whatever is staged)
        model.merged = model.size
        durable_mb = _dir_bytes(live_dir) / 2**20
        crash_copy = workdir / "crash"
        shutil.copytree(live_dir, crash_copy)  # as a crash leaves it: no close()
    finally:
        session.close()
        manager.close()  # closes the live database
    del session, manager, db

    recovered = AdaptiveDatabase.recover(
        str(crash_copy), backend="simulated", durability=durability
    )
    try:
        lost = _check_recovered(recovered, model, sql_writes, "crash-style recovery")
    finally:
        recovered.close()
    note("checked the crash-style recovery")
    if lost + probe_failures != rounds * FAILED_PER_ROUND:
        raise CheckFailed(
            f"the named faults failed {lost} + {probe_failures} operations, not "
            f"{FAILED_PER_ROUND} per round: one behaves differently than described"
        )
    check_tail(reads, 95, "reads")
    check_tail(writes, 95, "writes")
    metrics = {
        "ops_per_s": (ops / run_seconds, "1/s"),
        "read_p50_ms": (percentile_ms(reads, 50), "ms"),
        "read_p95_ms": (percentile_ms(reads, 95), "ms"),
        "write_p50_ms": (percentile_ms(writes, 50), "ms"),
        "write_p95_ms": (percentile_ms(writes, 95), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return {
        "attempted": ops,
        "failed": lost + probe_failures,
        "metrics": metrics,
        "reads": len(reads),
        "ops": ops,
        "run_seconds": run_seconds,
        "layer": {
            "sim.ms_per_read": (sum(sim_ns) / len(sim_ns) / 1e6, "sim_ms"),
            "wal.durable_mb": (durable_mb, "MB"),
        },
        "fingerprint": parity,
    }


def _visits(ranges: list[int], rng):
    """Endless reads over ``ranges``: each once per block, seeded order."""
    while True:
        for i in rng.permutation(len(ranges)).tolist():
            yield ranges[i]


def _delete_range(model: Model, hot, read_width: int, width: int, rng):
    """A delete range inside a hot read range that holds live rows.

    Returns (hot range start, delete start, rows the delete removes);
    the next read covers that hot range, so it must skip them.
    """
    while True:
        target = hot[int(rng.integers(len(hot)))]
        lo = target + int(rng.integers(0, read_width - width))
        rowids, _ = model.select(lo, lo + width)
        if rowids.size:
            return target, lo, rowids


def _probe_round(session, model: Model, timed) -> int:
    """The fault (b) sequence; returns 1 when the probe read is short.

    A structured update moves row PROBE_MOVED_ROW into PROBE_RANGE; an
    SQL statement on the same column drains that pending update into
    the SQL engine's layer; a commit of another update then makes the
    structured layer forget the moved row's page, and the read through
    its view misses the row.  The row moves back at the end, so every
    round starts from the same state.
    """
    row, moved = PROBE_MOVED_ROW, PROBE_MOVED_VALUE
    original = int(model.probe[row])
    timed(session.update, "probe", "p", row, moved)
    model.probe[row] = moved
    lo, hi = PROBE_SQL_RANGE
    response, _ = timed(
        session.execute, f"SELECT COUNT(*) FROM probe WHERE p BETWEEN {lo} AND {hi}"
    )
    expected = int(np.count_nonzero((model.probe >= lo) & (model.probe <= hi)))
    if response.rows != [(expected,)]:
        raise CheckFailed(f"probe SQL count {response.rows}, model has {expected}")
    touched = PROBE_TOUCHED_ROW
    timed(session.update, "probe", "p", touched, int(model.probe[touched]))
    timed(session.commit)
    lo, hi = PROBE_RANGE
    response, _ = timed(session.query, "probe", "p", lo, hi)
    rowids = np.flatnonzero((model.probe >= lo) & (model.probe <= hi))
    failed = 0
    try:
        expect(response.data, rowids, model.probe[rowids], "probe read")
    except CheckFailed:
        short = rowids[rowids != row]
        expect(response.data, short, model.probe[short], "probe read (fault b)")
        failed = 1
    timed(session.update, "probe", "p", row, original)
    model.probe[row] = original
    timed(session.commit)
    return failed


def _check_recovered(db, model: Model, sql_writes, what: str) -> int:
    """Compare a recovered database with the model; count lost SQL writes.

    Every difference must be an SQL ``UPDATE`` that recovery lost
    (fault (a)): both of its rows hold the value they had before the
    statement, which is the only write they ever get.  Anything else
    raises.
    """
    from repro.vm.constants import MAX_VALUE, MIN_VALUE

    live = np.flatnonzero(~model.dead[: model.size])

    def column(name: str) -> np.ndarray:
        result = db.query("t", name, MIN_VALUE, MAX_VALUE)
        order = np.argsort(result.rowids)
        if not np.array_equal(result.rowids[order], live):
            raise CheckFailed(f"{what}: live rows of t.{name} differ from the model")
        return result.values[order]

    if not np.array_equal(column("k"), model.k[live]):
        raise CheckFailed(f"{what}: t.k differs from the model")
    got = column("v")
    wrong_rows = set(live[got != model.v[live]].tolist())
    lost = 0
    for first in sql_writes:
        rows = np.arange(first, first + SQL_ROWS)
        before = RESERVED_BASE + (rows - model.reserved[0])
        if set(rows.tolist()) <= wrong_rows and np.array_equal(
            got[np.searchsorted(live, rows)], before
        ):
            lost += 1
            wrong_rows -= set(rows.tolist())
    if wrong_rows:
        raise CheckFailed(
            f"{what}: {len(wrong_rows)} rows of t.v differ from the model "
            f"beyond the lost SQL updates (first: {sorted(wrong_rows)[:5]})"
        )
    probe = db.query("probe", "p", MIN_VALUE, MAX_VALUE)
    order = np.argsort(probe.rowids)
    if not np.array_equal(probe.values[order], model.probe):
        raise CheckFailed(f"{what}: the probe table differs from the model")
    return lost
