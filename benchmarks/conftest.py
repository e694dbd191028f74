"""Benchmark fixtures.

The CPI campaign (32 microarchitectures x 10 workloads on the
cycle-accurate simulator) backs Figures 5-8; it runs once per session at
a moderate workload scale through the campaign service, whose sqlite
store next to the benchmarks lets repeated runs skip straight to the
analysis.

``REPRO_BENCH_SCALE`` overrides the campaign scale (smaller for smoke
runs, larger for publication-grade numbers).  Stored results are keyed
by a fingerprint over each config's task (config, scale, seed and
architectural parameters), so results from different scales never
alias.
"""

from __future__ import annotations

import os

import pytest

from repro.dse.cpi import CpiTable
from repro.dse.sweep import sweep
from repro.pipeline.config import all_configs
from repro.serve import CampaignService, InProcessClient

BENCH_SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "24"))
_STORE = os.path.join(os.path.dirname(__file__), ".cpi_store.sqlite")


@pytest.fixture(scope="session")
def bench_scale() -> int:
    return BENCH_SCALE


@pytest.fixture(scope="session")
def cpi_table() -> CpiTable:
    table = CpiTable(scale=BENCH_SCALE)
    with CampaignService(store=_STORE) as service:
        table.populate(all_configs(), service=InProcessClient(service))
    return table


@pytest.fixture(scope="session")
def design_points(cpi_table):
    return sweep(cpi_table=cpi_table)
