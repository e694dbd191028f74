"""Shared fixtures: a session-scoped CPI table so the expensive cycle
simulation campaign runs at most once per test session."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.dse.cpi import CpiTable
from repro.params import DEFAULT_PARAMS

# Deterministic property tests for release CI; run with
# ``--hypothesis-profile=default`` locally to explore fresh examples.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def cpi_table() -> CpiTable:
    return CpiTable(scale=12)


@pytest.fixture()
def params():
    return DEFAULT_PARAMS
