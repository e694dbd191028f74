"""Deterministic, fault-tolerant process-level parallelism for campaigns.

The CPI campaign, the design-space sweep, and the fault-injection
campaign are embarrassingly parallel: each task shares nothing with the
others, and every input is a frozen dataclass or pure function of the
seed.  This module is the one place that decides *whether* to fan out,
*how wide*, and *what happens when workers die*.  Every campaign obeys
the same two environment switches:

* ``REPRO_SERIAL=1`` — force in-process serial execution (useful under
  debuggers, coverage, and profilers, and the documented escape hatch
  when process pools are unavailable); ``0`` or empty means unset;
* ``REPRO_WORKERS=N`` — cap the pool size without touching call sites.

The entry point is :func:`resilient_map`, an order-preserving map
hardened for long campaigns: per-task timeouts, bounded retry with
exponential backoff when the pool dies, graceful degradation to
in-process serial execution as a last resort, and worker exceptions
re-raised with their original tracebacks
(:class:`~repro.errors.CampaignError`).  It preserves input order, so a
campaign produces byte-identical results at any worker count —
``tests/test_parallel.py`` and ``tests/test_resilience.py`` hold it to
that.

This module keeps nothing on disk.  A campaign that must survive
interruption runs through the campaign service instead
(``service=InProcessClient(CampaignService(store=path))``), whose sqlite
store dedups and resumes by task fingerprint (:mod:`repro.serve.store`).
"""

from __future__ import annotations

import os
import random
import time
import traceback
from collections.abc import Callable, Iterable, Sequence
from typing import TypeVar

from repro.errors import CampaignError

_T = TypeVar("_T")
_R = TypeVar("_R")


def retry_delay(
    base: float,
    attempt: int,
    cap: float | None = None,
    token: str = "",
    seed: int = 0,
) -> float:
    """Capped exponential backoff with *deterministic* seeded jitter.

    The jitter (up to +25% of the exponential delay) decorrelates
    retries that would otherwise stampede in lockstep, but is a pure
    function of ``(seed, token, attempt)`` — replaying a campaign
    replays the exact same sleep schedule, which keeps retry behaviour
    reproducible in tests and chaos runs.  ``attempt`` is 1-based.
    """
    rng = random.Random(f"{seed}:{token}:{attempt}")
    delay = base * (2 ** max(0, attempt - 1))
    delay *= 1.0 + rng.uniform(0.0, 0.25)
    if cap is not None:
        delay = min(delay, cap)
    return delay


def resolve_workers(workers: int | None = None) -> int:
    """Resolve an effective worker count (always at least 1).

    Precedence: ``REPRO_SERIAL`` (forces 1 unless ``0`` or empty) >
    explicit ``workers`` argument > ``REPRO_WORKERS`` >
    ``os.cpu_count()``.
    """
    if os.environ.get("REPRO_SERIAL", "0") not in ("", "0"):
        return 1
    if workers is None:
        env = os.environ.get("REPRO_WORKERS")
        if env:
            try:
                workers = int(env)
            except ValueError:
                workers = None
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


def _call_traced(fn, item):
    """Worker-side wrapper: capture the full traceback and the task's
    wall-clock across the pickle boundary (module level so it pickles).

    The timing rides back with every result so campaign profiling
    (:class:`repro.obs.campaign.CampaignProfile`) measures task cost
    inside the worker, unpolluted by pool scheduling; it is dropped on
    the floor when no profile is attached.
    """
    start = time.perf_counter()
    try:
        return (True, fn(item), time.perf_counter() - start)
    except Exception as exc:
        return (
            False,
            (type(exc).__name__, str(exc), traceback.format_exc()),
            time.perf_counter() - start,
        )


class WorkerTraceback(Exception):
    """Carrier for a worker process's original traceback text.

    Set as the ``__cause__`` of the :class:`~repro.errors.CampaignError`
    a failed task raises, so the worker-side traceback survives the
    pickle boundary *in the exception chain* (the same trick
    ``concurrent.futures`` uses with ``_RemoteTraceback``) — ``raise``
    displays the original frames under "direct cause" instead of
    flattening them into message text only.
    """

    def __init__(self, tb: str) -> None:
        self.tb = tb
        super().__init__(tb)

    def __str__(self) -> str:
        return f"\n{self.tb}"


def _raise_task_failure(index: int, failure) -> None:
    name, message, tb = failure[:3]
    raise CampaignError(
        f"campaign task {index} failed: {name}: {message}",
        worker_traceback=tb,
    ) from WorkerTraceback(tb)


def resilient_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    workers: int | None = None,
    *,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.25,
    profile=None,
) -> list[_R]:
    """Hardened order-preserving map for long campaigns.

    * ``timeout`` bounds the wait for any single task's result; a stall
      abandons the pool and counts as one retry.
    * Pool failures (a killed worker breaks the whole pool) retry up to
      ``retries`` times with exponential backoff, resubmitting only the
      tasks that have not produced results yet.
    * When retries are exhausted the remaining tasks degrade to
      in-process serial execution, so a campaign finishes even on a host
      where process pools are unreliable.
    * A task that *raises* is not retried — the exception is
      deterministic campaign input — and propagates as
      :class:`~repro.errors.CampaignError` carrying the worker's
      original traceback.
    * With ``profile`` (a :class:`repro.obs.campaign.CampaignProfile`),
      per-task wall-clock, worker utilization and retry/timeout counts
      are recorded — observation only, results are unchanged.

    Results are identical to ``[fn(x) for x in items]`` at any worker
    count, on any retry path.
    """
    work: Sequence[_T] = list(items)
    results: list = [None] * len(work)
    pending = list(range(len(work)))

    def record(index: int, value, seconds: float) -> None:
        results[index] = value
        if profile is not None:
            profile.task_done(index, None, seconds)

    count = min(resolve_workers(workers), len(pending))
    if profile is not None:
        profile.begin(total=len(work), workers=max(count, 1))
    try:
        if count > 1:
            pending = _pool_rounds(
                fn, work, pending, record, count, timeout, retries, backoff,
                profile,
            )
            if pending and profile is not None:
                profile.degraded_to_serial()
        # Serial path: first choice at one worker, last resort when the
        # pool kept dying.  Failures still carry a traceback for parity
        # with the pool path.
        for index in pending:
            ok, payload, seconds = _call_traced(fn, work[index])
            if not ok:
                _raise_task_failure(index, payload)
            record(index, payload, seconds)
    finally:
        if profile is not None:
            profile.finish()
    return results


def _pool_rounds(
    fn, work, pending, record, count, timeout, retries, backoff, profile=None
) -> list[int]:
    """Run pool attempts with bounded retry; returns indices still unrun."""
    from concurrent.futures import ProcessPoolExecutor, TimeoutError as PoolTimeout
    from concurrent.futures.process import BrokenProcessPool

    attempt = 0
    while pending:
        pool = ProcessPoolExecutor(max_workers=min(count, len(pending)))
        done: list[int] = []
        try:
            futures = [
                (index, pool.submit(_call_traced, fn, work[index]))
                for index in pending
            ]
            for index, future in futures:
                ok, payload, seconds = future.result(timeout=timeout)
                if not ok:
                    _raise_task_failure(index, payload)
                record(index, payload, seconds)
                done.append(index)
        except (BrokenProcessPool, PoolTimeout, OSError) as exc:
            if profile is not None:
                if isinstance(exc, PoolTimeout):
                    profile.timeout()
                profile.pool_retry()
            pending = [index for index in pending if index not in set(done)]
            attempt += 1
            if attempt > retries:
                return pending    # degrade to serial in the caller
            # Deterministic schedule: the same campaign retries sleep
            # the same jittered delays on every run (seeded by attempt).
            time.sleep(retry_delay(backoff, attempt, token="pool"))
            continue
        finally:
            # Never block on a wedged worker; lingering processes are
            # reaped by the OS when they finish or die.
            pool.shutdown(wait=False, cancel_futures=True)
        return []
    return []
