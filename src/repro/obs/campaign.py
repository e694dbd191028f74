"""Campaign profiling: where the wall-clock of a parallel campaign goes.

The CPI campaign, the design-space sweep, and the fault campaign all
fan out through :func:`repro.parallel.resilient_map`.  A
:class:`CampaignProfile` passed to any of them records, without
changing any result:

* per-task wall-clock (measured inside the worker, so pool scheduling
  does not pollute it);
* worker utilization — total task-busy seconds over ``elapsed x
  workers`` (1.0 means the pool never idled);
* resilience machinery activity: pool retries, timeouts, serial
  degradation, and results replayed from the campaign service's store.

Profiles accumulate across calls, so one profile handed to both phases
of :func:`repro.dse.sweep.sweep` reports the whole campaign.
"""

from __future__ import annotations

import time


class CampaignProfile:
    """Mutable profiling record for one (or more) campaign map calls."""

    def __init__(self, label: str = "campaign") -> None:
        self.label = label
        self.workers = 1
        self.planned_tasks = 0
        #: Per-task records: ``{"index", "key", "seconds"}``.
        self.tasks: list[dict] = []
        self.pool_retries = 0
        self.timeouts = 0
        self.checkpoint_hits = 0
        self.serial_fallback = False
        self.elapsed = 0.0
        self._started: float | None = None

    # -- hooks called by repro.parallel ---------------------------------

    def begin(self, total: int, workers: int) -> None:
        self.planned_tasks += total
        self.workers = max(self.workers, workers)
        self._started = time.perf_counter()

    def finish(self) -> None:
        if self._started is not None:
            self.elapsed += time.perf_counter() - self._started
            self._started = None

    def task_done(self, index: int, key: str | None, seconds: float) -> None:
        self.tasks.append({"index": index, "key": key, "seconds": seconds})

    def pool_retry(self) -> None:
        self.pool_retries += 1

    def timeout(self) -> None:
        self.timeouts += 1

    def checkpoint_hit(self) -> None:
        self.checkpoint_hits += 1

    def degraded_to_serial(self) -> None:
        self.serial_fallback = True

    # -- reporting -------------------------------------------------------

    @property
    def busy_seconds(self) -> float:
        return sum(task["seconds"] for task in self.tasks)

    @property
    def utilization(self) -> float | None:
        """Task-busy seconds over the pool's wall-clock capacity."""
        if self.elapsed <= 0.0 or not self.tasks:
            return None
        return self.busy_seconds / (self.elapsed * self.workers)

    def report(self) -> dict:
        """JSON-ready structured campaign report."""
        slowest = max(
            self.tasks, key=lambda task: task["seconds"], default=None
        )
        return {
            "label": self.label,
            "workers": self.workers,
            "planned_tasks": self.planned_tasks,
            "completed_tasks": len(self.tasks),
            "checkpoint_hits": self.checkpoint_hits,
            "elapsed_seconds": round(self.elapsed, 6),
            "busy_seconds": round(self.busy_seconds, 6),
            "worker_utilization": (
                None if self.utilization is None
                else round(self.utilization, 4)
            ),
            "pool_retries": self.pool_retries,
            "timeouts": self.timeouts,
            "serial_fallback": self.serial_fallback,
            "slowest_task": slowest,
            "tasks": list(self.tasks),
        }


def format_campaign_report(report: dict) -> str:
    """Human-readable rendering of :meth:`CampaignProfile.report`."""
    lines = [
        f"campaign {report['label']!r}: "
        f"{report['completed_tasks']}/{report['planned_tasks']} tasks "
        f"in {report['elapsed_seconds']:.2f}s on "
        f"{report['workers']} worker(s)"
    ]
    utilization = report["worker_utilization"]
    if utilization is not None:
        lines.append(
            f"  busy {report['busy_seconds']:.2f}s -> "
            f"worker utilization {utilization:.1%}"
        )
    if report["checkpoint_hits"]:
        lines.append(f"  resumed {report['checkpoint_hits']} from checkpoint")
    if report["pool_retries"] or report["timeouts"]:
        lines.append(
            f"  pool retries {report['pool_retries']}, "
            f"timeouts {report['timeouts']}"
        )
    if report["serial_fallback"]:
        lines.append("  (!) degraded to in-process serial execution")
    slowest = report["slowest_task"]
    if slowest is not None:
        label = slowest["key"] if slowest["key"] is not None else slowest["index"]
        lines.append(f"  slowest task: {label} ({slowest['seconds']:.2f}s)")
    return "\n".join(lines)
