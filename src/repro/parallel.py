"""Deterministic, fault-tolerant process-level parallelism for campaigns.

The CPI campaign, the design-space sweep, the fault-injection campaign
and the fuzz run are embarrassingly parallel: each task shares nothing
with the others, and every input is JSON or a pure function of the
seed.  Each campaign maps its task kind (:mod:`repro.serve.tasks`)
through one client, and the default client,
:class:`repro.serve.tasks.LocalClient`, maps it with
:func:`resilient_map`.  This module is the one place that decides
*whether* to fan out, *how wide*, and *what happens when workers die*.
Every campaign obeys the same two environment switches:

* ``REPRO_SERIAL=1`` — force in-process serial execution (useful under
  debuggers, coverage, and profilers, and the documented escape hatch
  when process pools are unavailable); ``0`` or empty means unset;
* ``REPRO_WORKERS=N`` — cap the pool size without touching call sites.

The entry point is :func:`resilient_map`, an order-preserving map
hardened for long campaigns.  Above one worker it runs the tree's one
hardened pool, :class:`repro.serve.supervisor.Supervisor`, for the
duration of the call: per-task timeouts, crashed or hung workers
retried with deterministic exponential backoff (:func:`retry_delay`),
tasks that keep killing workers run in-process as a last resort, and
worker exceptions re-raised with their original tracebacks
(:class:`~repro.errors.CampaignError`).  It preserves input order, so a
campaign produces byte-identical results at any worker count —
``tests/test_parallel.py`` and ``tests/test_resilience.py`` hold it to
that.

This module keeps nothing on disk.  A campaign that must survive
interruption runs through the campaign service instead
(``service=InProcessClient(CampaignService(store=path))``), whose sqlite
store dedups and resumes by task fingerprint (:mod:`repro.serve.store`);
the tasks and their results are the same either way.
"""

from __future__ import annotations

import functools
import os
import random
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
    """Worker-side wrapper: capture the full traceback across the pickle
    boundary (module level so it pickles).

    :func:`resilient_map` looks it up on this module each call, so a
    wrapper installed here from outside also runs in the workers.
    """
    try:
        return (True, fn(item))
    except Exception as exc:
        return (False, (type(exc).__name__, str(exc), traceback.format_exc()))


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
) -> list[_R]:
    """Hardened order-preserving map for long campaigns.

    * At one worker every task runs in-process, in order.
    * Above one worker the tasks run on a
      :class:`~repro.serve.supervisor.Supervisor` pool that lives for
      this call only; every worker is joined before it returns or
      raises.
    * ``timeout`` bounds each task's run in a worker (``None``: no
      deadline); a task past it has its worker killed and is retried.
    * A crashed or hung worker is respawned and its task retried after
      a deterministic backoff.  A task that keeps killing workers is
      quarantined by the pool and then runs in-process, so a campaign
      finishes even on a host where worker processes are unreliable.
    * A task that *raises* is not retried — the exception is
      deterministic campaign input — and propagates as
      :class:`~repro.errors.CampaignError` carrying the worker's
      original traceback.

    Results are identical to ``[fn(x) for x in items]`` at any worker
    count, on any retry path.
    """
    work: Sequence[_T] = list(items)
    results: list = [None] * len(work)
    pending: Iterable[int] = range(len(work))
    count = min(resolve_workers(workers), len(work))
    if count > 1:
        pending = _supervised(fn, work, results, count, timeout)
    # Serial path: first choice at one worker, last resort for tasks
    # the pool quarantined.  Failures still carry a traceback for
    # parity with the pool path.
    for index in pending:
        ok, payload = _call_traced(fn, work[index])
        if not ok:
            _raise_task_failure(index, payload)
        results[index] = payload
    return results


def _supervised(fn, work, results, count, timeout) -> list[int]:
    """Run every task on a supervised pool, filling ``results``;
    returns the indices of the tasks the pool quarantined.

    A failed task raises once every task before it has finished, so the
    error is always the first failure in input order, as at one worker.
    """
    from repro.serve.supervisor import SupervisedTask, Supervisor, TaskOutcome

    run = functools.partial(_call_traced, fn)
    supervisor = Supervisor(workers=count, task_timeout=timeout)
    unresolved = set(range(len(work)))
    failures: dict[int, tuple] = {}
    quarantined: list[int] = []
    try:
        for index, item in enumerate(work):
            supervisor.submit(SupervisedTask(
                str(index), "map", item, str(index), run=run,
            ))
        while unresolved:
            for outcome in supervisor.poll():
                index = int(outcome.task.task_id)
                unresolved.discard(index)
                if outcome.status == TaskOutcome.QUARANTINED:
                    quarantined.append(index)
                elif outcome.status == TaskOutcome.FAILED:
                    # The result did not survive the pickle boundary.
                    failures[index] = outcome.error
                else:
                    ok, payload = outcome.result
                    if ok:
                        results[index] = payload
                    else:
                        failures[index] = payload
            if failures:
                first = min(failures)
                if first < min(unresolved, default=len(work)):
                    _raise_task_failure(first, failures[first])
            if unresolved:
                supervisor.wait()
    finally:
        supervisor.close()
    return sorted(quarantined)
