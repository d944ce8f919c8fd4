"""Pieces every workload shares: input generation, the run clock, stats.

Nothing here imports the program under test, so the numpy model and
the generators stay independent of the code they check.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import contextmanager

import numpy as np

#: Value domain of every generated column (the paper's [0, 100M]).
DOMAIN_LO = 0
DOMAIN_HI = 100_000_000

#: Values per 4 KiB page next to the 8-byte page id (see README).
VALUES_PER_PAGE = 511


def range_starts(rng: np.random.Generator, width: int):
    """Endless stream of range starts, stratified over the domain.

    The domain is cut into ``width``-wide slots; every block of reads
    visits each slot once, in a seeded order and at a seeded offset
    inside the slot.  Each seed therefore reads the same mix of dense
    and sparse value regions, which keeps run-to-run spread down
    without fixing the sequence itself.
    """
    slots = (DOMAIN_HI - DOMAIN_LO) // width
    last = DOMAIN_HI - width
    while True:
        for slot in rng.permutation(slots).tolist():
            yield min(DOMAIN_LO + slot * width + int(rng.integers(0, width)), last)


def digest(rowids: np.ndarray, values: np.ndarray) -> str:
    """Order-invariant digest of a (rowid, value) set.

    blake2b-128 over the rowid-sorted int64 rowids, then the values in
    the same order: the wire checksum's published construction, written
    here from the numpy selection so the check does not reuse the
    program's own code.
    """
    rowids = np.asarray(rowids, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    if rowids.size > 1 and np.any(rowids[1:] < rowids[:-1]):
        order = np.argsort(rowids, kind="stable")
        rowids, values = rowids[order], values[order]
    h = hashlib.blake2b(digest_size=16)
    h.update(rowids.tobytes())
    h.update(values.tobytes())
    return h.hexdigest()


def expect(data: dict, rowids: np.ndarray, values: np.ndarray, what: str) -> None:
    """Row count, value sum and digest of one answer against the model."""
    rows = int(rowids.size)
    total = int(values.sum()) if rows else 0
    if data["rows"] != rows or data["value_sum"] != total:
        raise CheckFailed(
            f"{what}: got {data['rows']} rows / sum {data['value_sum']}, "
            f"model has {rows} rows / sum {total}"
        )
    if data["checksum"] != digest(rowids, values):
        raise CheckFailed(f"{what}: digest differs from the model's")


def fingerprint(ledger_snapshot, checksums: list[str]) -> str:
    """Ledger totals plus answers, for the traced/untraced parity check."""
    lanes, counters = ledger_snapshot
    payload = json.dumps(
        {"lanes": lanes, "counters": counters, "answers": checksums}, sort_keys=True
    )
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


class RunClock:
    """Wall clock of the measured phase, minus the time spent checking.

    Result checks run between operations; :meth:`paused` keeps them
    out of both the run length and ``ops_per_s``.
    """

    def __init__(self) -> None:
        self._start = time.perf_counter()
        self._paused = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self._start - self._paused

    @contextmanager
    def paused(self):
        began = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - began


def percentile_ms(samples_s: list[float], q: float) -> float:
    """The ``q``-th percentile of wall samples (seconds), in ms."""
    return float(np.percentile(np.asarray(samples_s), q)) * 1e3


def check_tail(samples: list[float], q: float, what: str) -> None:
    """A percentile is reported only with ten samples beyond it."""
    beyond = len(samples) * (100.0 - q) / 100.0
    if beyond < 10:
        raise RuntimeError(
            f"{what}: {len(samples)} samples leave {beyond:.1f} beyond "
            f"p{q:g}; need at least 10"
        )


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_STARTED = time.perf_counter()


def note(message: str) -> None:
    """Progress line on stderr, stamped with seconds since start."""
    print(f"[{time.perf_counter() - _STARTED:7.2f}s] {message}", file=sys.stderr, flush=True)


class CheckFailed(RuntimeError):
    """A program output disagreed with the benchmark's own model."""
