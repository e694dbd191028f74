"""Worker-count policy and campaign parallelism determinism."""

import os

import pytest

from repro.dse.cpi import CpiTable
from repro.parallel import resolve_workers
from repro.pipeline.config import all_configs, config_by_name
from repro.serve.tasks import LocalClient


@pytest.fixture()
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_SERIAL", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


class TestResolveWorkers:
    def test_serial_env_forces_one(self, clean_env, monkeypatch):
        monkeypatch.setenv("REPRO_SERIAL", "1")
        assert resolve_workers(8) == 1

    def test_serial_env_zero_or_empty_means_unset(self, clean_env, monkeypatch):
        for value in ("0", ""):
            monkeypatch.setenv("REPRO_SERIAL", value)
            assert resolve_workers(3) == 3

    def test_explicit_argument_wins_over_workers_env(self, clean_env, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_workers_env_applies_when_unspecified(self, clean_env, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    def test_defaults_to_cpu_count(self, clean_env):
        assert resolve_workers() == max(1, os.cpu_count() or 1)

    def test_never_below_one(self, clean_env):
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1

    def test_garbage_workers_env_falls_through(self, clean_env, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        assert resolve_workers() == max(1, os.cpu_count() or 1)


class TestCpiTableParallelism:
    CONFIGS = all_configs()[:3]
    SCALE = 5

    def test_populate_matches_lazy_serial_evaluation(self, clean_env):
        lazy = CpiTable(scale=self.SCALE)
        for config in self.CONFIGS:
            lazy.cpi(config)
        pooled = CpiTable(scale=self.SCALE)
        pooled.populate(self.CONFIGS, service=LocalClient(2))
        assert pooled._cpi == lazy._cpi
        assert pooled._stacks == lazy._stacks

    def test_populate_keeps_the_speculation_depth(self, clean_env):
        # The paper-style name does not carry speculative_depth.
        deep = config_by_name("T|D|X1|X2 +P").with_options(
            speculative_depth=3)
        lazy = CpiTable(scale=4)
        pooled = CpiTable(scale=4)
        pooled.populate([deep], service=LocalClient(1))
        assert pooled.cpi(deep) == lazy.cpi(deep)
        assert lazy.cpi(deep) != CpiTable(scale=4).cpi(
            config_by_name("T|D|X1|X2 +P"))


class TestRetryDelay:
    def test_deterministic_for_same_inputs(self):
        from repro.parallel import retry_delay

        a = retry_delay(0.25, 2, cap=5.0, token="pool", seed=0)
        b = retry_delay(0.25, 2, cap=5.0, token="pool", seed=0)
        assert a == b

    def test_jitter_decorrelates_tokens_and_attempts(self):
        from repro.parallel import retry_delay

        base = retry_delay(0.25, 1, token="a")
        assert retry_delay(0.25, 1, token="b") != base
        assert retry_delay(0.25, 1, token="a", seed=1) != base
        assert retry_delay(0.25, 2, token="a") != base

    def test_exponential_growth_within_jitter_bounds(self):
        from repro.parallel import retry_delay

        for attempt in range(1, 6):
            delay = retry_delay(0.1, attempt, token="t")
            exponential = 0.1 * 2 ** (attempt - 1)
            assert exponential <= delay <= exponential * 1.25

    def test_cap_bounds_the_delay(self):
        from repro.parallel import retry_delay

        assert retry_delay(1.0, 10, cap=2.0, token="t") == 2.0


def _fails(item):   # module level: must pickle for the pool path
    raise ValueError(f"bad item {item}")


class TestWorkerTracebackChain:
    def test_serial_failure_chains_worker_traceback(self):
        from repro.errors import CampaignError
        from repro.parallel import WorkerTraceback, resilient_map

        with pytest.raises(CampaignError) as err:
            resilient_map(_fails, [7], workers=1)
        assert "ValueError" in str(err.value)
        assert "bad item 7" in str(err.value)
        cause = err.value.__cause__
        assert isinstance(cause, WorkerTraceback)
        assert "ValueError: bad item 7" in cause.tb

    def test_pool_failure_chains_worker_traceback(self, clean_env):
        from repro.errors import CampaignError
        from repro.parallel import WorkerTraceback, resilient_map

        with pytest.raises(CampaignError) as err:
            resilient_map(_fails, [1, 2, 3], workers=2)
        assert isinstance(err.value.__cause__, WorkerTraceback)
        assert err.value.worker_traceback
        assert "ValueError" in err.value.worker_traceback
