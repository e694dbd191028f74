"""Average CPI per microarchitecture, measured by the cycle simulator.

CPI depends only on the microarchitecture (not on voltage or frequency),
so the design-space sweep needs one simulation campaign per config: all
ten Table 3 workloads, counters read from the designated worker PE,
averaged — exactly how Figure 5's stacks are built.  Results are cached
in memory, because a full 32-config campaign is the expensive part of
regenerating Figures 6-8.

The campaign is embarrassingly parallel across configs — nothing is
shared between two microarchitectures' simulations — so
:meth:`CpiTable.populate` fans the per-config work across a process
pool (see :mod:`repro.parallel` for the worker-count policy and the
``REPRO_SERIAL`` escape hatch).  Parallel and serial populations
produce identical tables: the per-config worker is a pure function of
``(config, scale, seed, params)``.

To keep results across runs, populate through the campaign service
with a file-backed store (``populate(configs,
service=InProcessClient(CampaignService(store=path)))``): each config's
task is keyed by a fingerprint over its config, scale, seed and every
architectural parameter, so results written at another scale or under
edited parameters are never mistaken for current ones.
"""

from __future__ import annotations

import dataclasses

from repro.parallel import resilient_map
from repro.params import ArchParams, DEFAULT_PARAMS
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import PipelinedPE
from repro.workloads.suite import WORKLOADS, run_workload


def _campaign(
    config: PipelineConfig, scale: int, seed: int, params: ArchParams
) -> tuple[float, dict[str, float]]:
    """Run all workloads under one config; workload-average (CPI, stack)."""

    def factory(name: str) -> PipelinedPE:
        return PipelinedPE(config, params, name=name)

    totals: dict[str, float] = {}
    cpi_sum = 0.0
    names = WORKLOADS()
    for workload in names:
        run = run_workload(
            workload, make_pe=factory, scale=scale, seed=seed, params=params,
        )
        counters = run.worker_counters
        counters.check_consistency()
        cpi_sum += counters.cpi
        for key, value in counters.stack().items():
            totals[key] = totals.get(key, 0.0) + value
    return (
        cpi_sum / len(names),
        {key: value / len(names) for key, value in totals.items()},
    )


def _simulate_config(
    task: tuple[PipelineConfig, int, int, ArchParams],
) -> tuple[str, float, dict[str, float]]:
    """Process-pool worker: one config's full campaign (module level so
    it pickles)."""
    config, scale, seed, params = task
    cpi, stack = _campaign(config, scale, seed, params)
    return config.name, cpi, stack


class CpiTable:
    """Lazily simulated, cached per-config CPI (and CPI stacks)."""

    def __init__(
        self,
        scale: int = 24,
        seed: int = 0,
        params: ArchParams = DEFAULT_PARAMS,
    ) -> None:
        self.scale = scale
        self.seed = seed
        self.params = params
        self._cpi: dict[str, float] = {}
        self._stacks: dict[str, dict[str, float]] = {}

    def populate(
        self,
        configs: list[PipelineConfig],
        workers: int | None = None,
        service=None,
    ) -> None:
        """Simulate every config not already in the table, in parallel.

        Results are identical to serial lazy evaluation (the worker is a
        pure function and results are merged in input order).  Killed
        workers are retried with the pool rebuilt, degrading to serial
        execution as a last resort.

        ``service`` (a :class:`repro.serve.client.InProcessClient` or
        :class:`~repro.serve.client.HttpClient`) routes the campaign
        through the supervised campaign service instead of a private
        process pool: identical results, but deduped against the
        service's durable store and supervised for worker crashes and
        hangs (``cpi-config`` task kind).  With a file-backed store, a
        rerun or an interrupted campaign executes only the configs the
        store does not already hold.
        """
        missing = [c for c in configs if c.name not in self._cpi]
        if not missing:
            return
        if service is not None:
            results = service.map("cpi-config", [
                {
                    "config": c.name,
                    "scale": self.scale,
                    "seed": self.seed,
                    "params": dataclasses.asdict(self.params),
                }
                for c in missing
            ])
        else:
            tasks = [(c, self.scale, self.seed, self.params) for c in missing]
            results = resilient_map(_simulate_config, tasks, workers)
        for name, cpi, stack in results:
            self._cpi[name] = cpi
            self._stacks[name] = stack

    def _simulate(self, config: PipelineConfig) -> None:
        cpi, stack = _campaign(config, self.scale, self.seed, self.params)
        self._cpi[config.name] = cpi
        self._stacks[config.name] = stack

    def cpi(self, config: PipelineConfig) -> float:
        """Workload-average worker CPI for one microarchitecture."""
        if config.name not in self._cpi:
            self._simulate(config)
        return self._cpi[config.name]

    def stack(self, config: PipelineConfig) -> dict[str, float]:
        """Workload-average CPI stack (the Figure 5 bar) for one config."""
        if config.name not in self._stacks:
            self._simulate(config)
        return self._stacks[config.name]
