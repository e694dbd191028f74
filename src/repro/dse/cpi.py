"""Average CPI per microarchitecture, measured by the cycle simulator.

CPI depends only on the microarchitecture (not on voltage or frequency),
so the design-space sweep needs one simulation campaign per config: all
ten Table 3 workloads, counters read from the designated worker PE,
averaged — exactly how Figure 5's stacks are built.  Results are cached
in memory, because a full 32-config campaign is the expensive part of
regenerating Figures 6-8.

The campaign is embarrassingly parallel across configs — nothing is
shared between two microarchitectures' simulations — so
:meth:`CpiTable.populate` maps one ``cpi-config`` task per config
(:mod:`repro.serve.tasks`) through a campaign client.  The default,
:class:`~repro.serve.tasks.LocalClient`, fans the tasks across a
supervised pool for the call (see :mod:`repro.parallel` for the
worker-count policy and the ``REPRO_SERIAL`` escape hatch).  Every
client and worker count produces the same table: each task is a pure
function of ``(config, scale, seed, params)``.

To keep results across runs, populate through the campaign service
with a file-backed store (``populate(configs,
service=InProcessClient(CampaignService(store=path)))``): each config's
task is keyed by a fingerprint over its config, scale, seed and every
architectural parameter, so results written at another scale or under
edited parameters are never mistaken for current ones.
"""

from __future__ import annotations

import dataclasses

from repro.params import ArchParams, DEFAULT_PARAMS
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import PipelinedPE
from repro.serve.tasks import DEFAULT_CLIENT
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

    def populate(self, configs: list[PipelineConfig],
                 service=DEFAULT_CLIENT) -> None:
        """Simulate every config not already in the table, in parallel.

        Results are identical to serial lazy evaluation (each task is a
        pure function and results are merged in input order).

        ``service`` is the campaign client the ``cpi-config`` tasks run
        through (default: a :class:`~repro.serve.tasks.LocalClient`, a
        supervised pool for this call).  An
        :class:`~repro.serve.client.InProcessClient` or
        :class:`~repro.serve.client.HttpClient` dedups the tasks
        against the service's durable store instead: with a file-backed
        store, a rerun or an interrupted campaign executes only the
        configs the store does not already hold.
        """
        missing = [c for c in configs if c.name not in self._cpi]
        if not missing:
            return
        results = service.map("cpi-config",
                              [self._payload(c) for c in missing])
        for name, cpi, stack in results:
            self._cpi[name] = cpi
            self._stacks[name] = stack

    def _payload(self, config: PipelineConfig) -> dict:
        payload = {
            "config": config.name,
            "scale": self.scale,
            "seed": self.seed,
            "params": dataclasses.asdict(self.params),
        }
        # The name does not carry the speculation depth; adding it only
        # when it is not the default keeps every other fingerprint as is.
        if config.speculative_depth != 1:
            payload["speculative_depth"] = config.speculative_depth
        return payload

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
