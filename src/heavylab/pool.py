"""The replica pool: one thread per usable CPU, within one memory budget.

Both Monte Carlo engines -- `lpp.passage_times` and the spectral loop
`experiments._wigner_replicas` -- hand their replicas to `run`.  Replicas
are identified by their stream index; `run` cuts ``range(count)`` into
consecutive chunks and calls the engine's task once per chunk.  A task
draws from its own streams and writes only its own replicas' slots, so the
results do not depend on the chunking, the thread count or the scheduling.

A replica holds at most ``footprint`` cells (doubles) while it is
processed; an engine may count more than it holds, as the spectral loop
does to keep its large matrices serial (`matrixlab._pooled_cells`).  The
pool runs as many threads as the 2^22-cell budget (32 MB) holds one replica
for each, and at most one per usable CPU; chunks are sized so that all
threads' chunks together stay within the budget even if a task holds its
whole chunk at once, as the passage-time engine does.  With one thread,
the chunks run in order on the caller's thread and nothing else changes:
on a pool thread, the allocator serves a large replica's arrays from a
per-thread arena, and spectral-audit's peak RSS (its n = 1000 curve runs
on one thread) rose from 82 to 95-97 MB in most runs.  With more threads,
numpy's BLAS is pinned to one thread while the pool runs chunks
(`openblas.single_threaded`), so the threads do not oversubscribe the CPUs
with BLAS threads of their own.

The threads are made once per thread count and kept for the life of the
process, each with its allocator arena.  With fresh threads on every call,
a new thread could start before an old one had handed its arena back, get
a new arena, and leave the old one holding its freed chunk arrays: the
peak RSS of lpp-tail's two-call passes read 73 MB in most runs and 81 or
95 MB in others.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, as_completed, wait
from functools import cache

from . import openblas

# Cells held at once by all chunks in flight, 32 MB of doubles
_CELL_BUDGET = 2**22

# Threads at most: one per CPU this process may use
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:  # no affinity call on this platform
    _WORKERS = os.cpu_count() or 1

# The idle threads of each thread count used so far, made on first use by
# `_executor(workers)`; a forked child has none
_executor = cache(ThreadPoolExecutor)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_executor.cache_clear)


def plan(footprint: int) -> tuple[int, int]:
    """(threads, replicas per chunk) for replicas of ``footprint`` cells each."""
    footprint = max(1, footprint)
    workers = min(_WORKERS, max(1, _CELL_BUDGET // footprint))
    return workers, max(1, _CELL_BUDGET // (workers * footprint))


def run(task, count: int, footprint: int) -> None:
    """Call ``task(streams)`` for consecutive ranges of streams covering ``range(count)``.

    The chunks run on `plan(footprint)` threads.  Each holds ceil(count / k)
    replicas (the last one fewer), where k is the smallest multiple of the
    thread count that keeps chunks within `plan`'s size, so the threads get
    about equal shares.  If a task raises, chunks not yet started are
    cancelled and its exception reaches the caller.  A task must not call
    `run`: the threads it would wait for may all be running its callers.
    """
    workers, most = plan(footprint)
    rounds = max(1, -(-count // (workers * most)))  # chunks per thread
    per_chunk = max(1, -(-count // (workers * rounds)))
    chunks = [range(lo, min(lo + per_chunk, count)) for lo in range(0, count, per_chunk)]
    if workers == 1:
        for streams in chunks:
            task(streams)
        return
    executor = _executor(workers)
    with openblas.single_threaded():
        futures = [executor.submit(task, streams) for streams in chunks]
        try:
            for future in as_completed(futures):
                future.result()
        finally:
            for future in futures:
                future.cancel()
            wait(futures)  # no chunk outlives the call
