"""The resilience layer: fault injection, invariants, forensics, and the
hardened campaign machinery (``resilient_map``)."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.arch import FunctionalPE
from repro.arch.queue import QueueEntry, TaggedQueue
from repro.asm import assemble
from repro.errors import (
    CampaignError,
    DeadlockError,
    DivergenceError,
    InvariantViolation,
    SimulationError,
)
from repro.fabric import System
from repro.parallel import resilient_map
from repro.pipeline.config import config_by_name
from repro.pipeline.core import PipelinedPE
from repro.resilience import (
    DivergenceReport,
    FaultClass,
    FaultSpec,
    FaultTrial,
    InvariantChecker,
    check_divergence,
    fault_campaign,
    format_summary,
    inject,
    plan_faults,
    run_trial,
    summarize,
)
from repro.resilience.campaign import (
    CORRUPTED,
    DETECTED,
    HUNG,
    MASKED,
    NOT_APPLIED,
)
from repro.resilience.forensics import forensic_report, format_report
from repro.serve.tasks import LocalClient
from repro.workloads.suite import get_workload

OUTCOMES = {DETECTED, HUNG, CORRUPTED, MASKED, NOT_APPLIED}


# ---------------------------------------------------------------------------
# Process-pool worker functions (module level so they pickle)
# ---------------------------------------------------------------------------

def _double(x):
    return x * 2


def _boom(x):
    raise ValueError(f"bad input {x}")


def _nap(x):
    time.sleep(0.5)
    return x


def _kill_once(task):
    """SIGKILL the worker on the very first attempt, then behave."""
    value, flag_dir = task
    flag = os.path.join(flag_dir, "killed")
    if not os.path.exists(flag):
        open(flag, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def _kill_in_pool(task):
    """Die whenever running in a pool child; succeed only in-process."""
    value, main_pid = task
    if os.getpid() != main_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return value + 10


def _stall_once(task):
    """Stall far past the task timeout on the first attempt only."""
    value, flag_dir = task
    flag = os.path.join(flag_dir, f"stalled-{value}")
    if not os.path.exists(flag):
        open(flag, "w").close()
        time.sleep(5)
    return value + 1


def _trial_kill_once(task):
    """Run one campaign trial, SIGKILLing the first worker that tries."""
    trial, flag_dir = task
    flag = os.path.join(flag_dir, "killed")
    if not os.path.exists(flag):
        open(flag, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return run_trial(trial)


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------

def _pipelined_system(config_name: str, scale: int = 4, seed: int = 0):
    workload = get_workload("gcd")
    config = config_by_name(config_name)

    def factory(name):
        return PipelinedPE(config, workload.params, name=name)

    system = workload.build(factory, scale, seed)
    return system, system.pe(workload.worker_name), workload


def _deadlocked_pair() -> System:
    """Two PEs, each waiting forever on a token the other never sends."""
    system = System()
    source = """
    when %p == XXXXXXX0 with %i0.0:
        mov %r0, %i0; deq %i0; set %p = ZZZZZZZ1;
    when %p == XXXXXXX1:
        halt;
    """
    a = FunctionalPE(name="a")
    b = FunctionalPE(name="b")
    assemble(source).configure(a)
    assemble(source).configure(b)
    system.add_pe(a)
    system.add_pe(b)
    system.connect(a, 0, b, 0)
    system.connect(b, 0, a, 0)
    return system


# ---------------------------------------------------------------------------
# Fault planning and injection
# ---------------------------------------------------------------------------

class TestFaultInjection:
    def test_plans_are_deterministic(self):
        plan = plan_faults(FaultClass.REG_BIT_FLIP, 7, key="k", count=3)
        again = plan_faults(FaultClass.REG_BIT_FLIP, 7, key="k", count=3)
        assert plan == again
        assert plan != plan_faults(FaultClass.REG_BIT_FLIP, 7, key="j", count=3)

    def test_plans_respect_window(self):
        plan = plan_faults(FaultClass.QUEUE_DROP, 0, key="w",
                           count=16, window=(3, 9))
        assert all(3 <= spec.cycle <= 9 for spec in plan)

    def test_register_flip_lands(self):
        pe = FunctionalPE(name="x")
        assemble("""
        when %p == XXXXXXX0:
            mov %r1, $5;
        """).configure(pe)
        injector = inject(pe, [FaultSpec(FaultClass.REG_BIT_FLIP,
                                         cycle=1, index=0, bit=3)])
        for _ in range(3):
            pe.step()
        assert injector.applied
        assert pe.regs.read(0) == 1 << 3

    def test_predicate_flip_lands(self):
        pe = FunctionalPE(name="x")
        assemble("""
        when %p == XXXXXXX0:
            mov %r1, $5;
        """).configure(pe)
        inject(pe, [FaultSpec(FaultClass.PRED_BIT_FLIP,
                              cycle=1, index=2, bit=0)])
        pe.step()
        assert pe.preds.read_bit(2) == 1

    def test_queue_fault_against_empty_queues_does_not_land(self):
        pe = FunctionalPE(name="x")
        assemble("""
        when %p == XXXXXXX0:
            mov %r1, $5;
        """).configure(pe)
        injector = inject(pe, [FaultSpec(FaultClass.QUEUE_DROP, cycle=1)])
        pe.step()
        assert not injector.applied
        assert injector.log == [(injector.specs[0], False)]

    def test_forced_mispredict_is_architecturally_invisible(self):
        """Rollback completeness: inverting a +P prediction never changes
        the architectural result."""
        system, pe, workload = _pipelined_system("T|DX +P")
        injector = inject(pe, [FaultSpec(FaultClass.FORCE_MISPREDICT, cycle=2)])
        system.run()
        assert injector.applied
        workload.check(system, 4, 0)

    def test_forced_mispredict_excluded_from_accuracy(self):
        """Minimized repro: an injected inversion rolls back like a real
        misprediction but must not count as one — the genuine prediction
        stream here is perfectly predictable, so accuracy stays 1.0."""
        pe = PipelinedPE(config_by_name("T|DX +P"), name="forced")
        # eqz on nonzero inputs writes p1 := 0 forever; the two-bit
        # counter starts at weak-not, so every real prediction is correct.
        assemble("""
        when %p == XXXXXXX0 with %i0.0:
            eqz %p1, %i0; deq %i0;
        when %p == XXXXXXX0 with %i0.1:
            halt;
        """).configure(pe)
        backlog = [(5, 0), (5, 0), (5, 0), (5, 0), (0, 1)]
        injector = inject(pe, [FaultSpec(FaultClass.FORCE_MISPREDICT, cycle=2)])
        for _ in range(200):
            if pe.halted:
                break
            while backlog and not pe.inputs[0].is_full:
                value, tag = backlog.pop(0)
                pe.inputs[0].enqueue(value, tag)
            pe.step()
            pe.commit_queues()
        assert pe.halted and injector.applied
        assert pe.counters.forced_predictions == 1
        assert pe.predictor.forced == 1
        assert pe.counters.mispredictions == 0
        assert pe.counters.predictions > 0
        assert pe.counters.prediction_accuracy == 1.0
        assert pe.predictor.accuracy == 1.0

    def test_disarm(self):
        pe = FunctionalPE(name="x")
        injector = inject(pe, [FaultSpec(FaultClass.REG_BIT_FLIP, cycle=1)])
        assert pe.fault_hook is not None
        injector.disarm(pe)
        assert pe.fault_hook is None


class TestQueueMutators:
    def _loaded(self):
        queue = TaggedQueue(4, "q")
        queue.enqueue(1, tag=0)
        queue.enqueue(2, tag=1)
        queue.commit()
        return queue

    def test_tag_flip(self):
        queue = self._loaded()
        before = queue.version
        assert queue.inject_tag_flip(0, 1)
        assert queue.peek(0).tag == 2
        assert queue.peek(0).value == 1
        assert queue.version > before

    def test_value_flip(self):
        queue = self._loaded()
        assert queue.inject_value_flip(1, 4)
        assert queue.peek(1).value == 2 ^ (1 << 4)

    def test_drop(self):
        queue = self._loaded()
        assert queue.inject_drop(0)
        assert queue.occupancy == 1
        assert queue.peek(0).value == 2

    def test_duplicate(self):
        queue = self._loaded()
        assert queue.inject_duplicate(0)
        assert queue.occupancy == 3
        assert queue.peek(0).value == queue.peek(1).value == 1

    def test_duplicate_refused_when_full(self):
        queue = self._loaded()
        queue.enqueue(3)
        queue.enqueue(4)
        queue.commit()
        assert queue.is_full
        assert not queue.inject_duplicate(0)

    def test_mutators_refuse_empty_queue(self):
        queue = TaggedQueue(4, "q")
        assert not queue.inject_tag_flip(0, 0)
        assert not queue.inject_value_flip(0, 0)
        assert not queue.inject_drop(0)
        assert not queue.inject_duplicate(0)


# ---------------------------------------------------------------------------
# Invariant checking and forensics
# ---------------------------------------------------------------------------

class TestInvariantChecker:
    def test_clean_pe_passes(self):
        __, pe, __ = _pipelined_system("TD|X +Q")
        checker = InvariantChecker()
        checker.check_pe(pe)
        assert checker.checks == 1
        assert not checker.violations

    def test_corrupted_bookkeeping_is_caught(self):
        __, pe, __ = _pipelined_system("TD|X +Q")
        pe._queue_state.pending_enqs[0] = 99
        checker = InvariantChecker()
        with pytest.raises(InvariantViolation, match="pending_enqs"):
            checker.check_pe(pe, cycle=0)
        assert checker.violations

    def test_predicate_overflow_is_caught(self):
        __, pe, __ = _pipelined_system("TD|X +Q")
        pe.preds.state = 1 << pe.params.num_preds
        with pytest.raises(InvariantViolation, match="NPreds"):
            InvariantChecker().check_pe(pe)

    def test_queue_overflow_is_caught(self):
        __, pe, __ = _pipelined_system("TDX")
        queue = pe.inputs[0]
        for _ in range(queue.capacity + 1):    # bypass enqueue's guard
            queue._live.append(QueueEntry(0, 0))
        with pytest.raises(InvariantViolation, match="capacity"):
            InvariantChecker().check_pe(pe)

    def test_attached_checker_runs_every_cycle(self):
        system, __, workload = _pipelined_system("T|DX +P")
        checker = InvariantChecker()
        system.attach_invariant_checker(checker)
        system.run()
        assert checker.checks >= system.cycles
        assert not checker.violations
        workload.check(system, 4, 0)

    def test_violation_carries_pe_and_cycle(self):
        system, pe, __ = _pipelined_system("TD|X +Q")
        checker = InvariantChecker()
        system.attach_invariant_checker(checker)
        pe._queue_state.pending_enqs[0] = 99
        with pytest.raises(InvariantViolation) as info:
            system.run()
        assert info.value.pe_name == pe.name
        assert info.value.cycle is not None


class TestForensics:
    def test_deadlock_raises_structured_report(self):
        system = _deadlocked_pair()
        with pytest.raises(DeadlockError, match="deadlock") as info:
            system.run(stall_limit=50)
        report = info.value.report
        assert isinstance(report, dict)
        assert {pe["name"] for pe in report["pes"]} == {"a", "b"}
        assert report["cycle"] >= 50
        assert not report["all_halted"]

    def test_deadlock_error_is_a_simulation_error(self):
        system = _deadlocked_pair()
        with pytest.raises(SimulationError):
            system.run(stall_limit=50)

    def test_format_report_renders(self):
        system = _deadlocked_pair()
        try:
            system.run(stall_limit=50)
        except DeadlockError as exc:
            text = format_report(exc.report)
        assert text.startswith("forensic dump at cycle")
        assert "a (" in text and "b (" in text

    def test_report_includes_pipeline_state(self):
        system, __, __ = _pipelined_system("T|D|X1|X2 +P+Q")
        for _ in range(3):
            system.step()
        report = forensic_report(system)
        worker = next(pe for pe in report["pes"] if pe["name"] == "worker")
        assert worker["model"] == "pipelined"
        assert "pipeline" in worker and "speculations" in worker
        assert all("occupancy" in queue for queue in worker["inputs"])


# ---------------------------------------------------------------------------
# Divergence detection
# ---------------------------------------------------------------------------

class TestDivergence:
    def test_fast_path_matches_reference(self):
        report = check_divergence(config_by_name("T|DX +P"), "gcd", scale=4)
        assert not report.diverged
        report.raise_if_diverged()    # no-op when clean

    def test_divergence_raises(self):
        report = DivergenceReport(
            config="T|DX +P",
            workload="gcd",
            mismatches=["cycles: fast=10 reference=11"],
        )
        assert report.diverged
        with pytest.raises(DivergenceError, match="cycles"):
            report.raise_if_diverged()


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

CAMPAIGN_KWARGS = dict(
    configs=("TDX", "T|DX +P"),
    faults=(FaultClass.REG_BIT_FLIP, FaultClass.PRED_BIT_FLIP,
            FaultClass.QUEUE_DROP),
    workloads=("gcd",),
    trials=1,
    scale=4,
    seed=1,
    # Hung trials cost stall_limit extra cycles each; keep them cheap.
    stall_limit=500,
    max_cycles=60_000,
)

SMALL_CAMPAIGN_KWARGS = dict(
    CAMPAIGN_KWARGS,
    configs=("TDX",),
    faults=(FaultClass.REG_BIT_FLIP, FaultClass.QUEUE_DROP),
)


class TestFaultCampaign:
    def test_bit_identical_across_runs_and_worker_counts(self):
        serial = fault_campaign(service=LocalClient(1), **CAMPAIGN_KWARGS)
        rerun = fault_campaign(service=LocalClient(1), **CAMPAIGN_KWARGS)
        pooled = fault_campaign(service=LocalClient(2), **CAMPAIGN_KWARGS)
        assert serial == rerun
        assert serial == pooled
        assert len(serial) == 6
        assert all(result.outcome in OUTCOMES for result in serial)

    def test_killed_worker_retried_with_identical_results(self, tmp_path):
        tasks = [
            FaultTrial(config="T|DX +P", workload="gcd",
                       fault="reg-bit-flip", trial=i, scale=4, seed=0)
            for i in range(3)
        ]
        serial = [run_trial(trial) for trial in tasks]
        survived = resilient_map(
            _trial_kill_once,
            [(trial, str(tmp_path)) for trial in tasks],
            workers=2,
        )
        assert os.path.exists(tmp_path / "killed")    # a worker really died
        assert survived == serial

    def test_summary_covers_every_cell(self):
        results = fault_campaign(service=LocalClient(1), **SMALL_CAMPAIGN_KWARGS)
        summary = summarize(results)
        assert set(summary) == {
            (config, fault.value)
            for config in SMALL_CAMPAIGN_KWARGS["configs"]
            for fault in SMALL_CAMPAIGN_KWARGS["faults"]
        }
        text = format_summary(results)
        assert "reg-bit-flip" in text and "TDX" in text

    def test_trial_key_is_stable(self):
        trial = FaultTrial(config="TDX", workload="gcd",
                           fault="queue-drop", trial=3, scale=4, seed=0)
        assert trial.key == "TDX/gcd/queue-drop/t3"


# ---------------------------------------------------------------------------
# resilient_map
# ---------------------------------------------------------------------------

class TestResilientMap:
    def test_matches_serial_at_any_worker_count(self):
        items = list(range(8))
        expected = [_double(item) for item in items]
        assert resilient_map(_double, items, workers=1) == expected
        assert resilient_map(_double, items, workers=3) == expected

    def test_killed_worker_is_retried(self, tmp_path):
        items = [(value, str(tmp_path)) for value in range(4)]
        results = resilient_map(_kill_once, items, workers=2)
        assert results == [0, 2, 4, 6]

    def test_degrades_to_serial_when_pool_keeps_dying(self):
        items = [(value, os.getpid()) for value in range(3)]
        results = resilient_map(_kill_in_pool, items, workers=2)
        assert results == [10, 11, 12]

    def test_task_timeout_triggers_retry(self, tmp_path):
        items = [(value, str(tmp_path)) for value in range(2)]
        results = resilient_map(_stall_once, items, workers=2,
                                timeout=0.5)
        assert results == [1, 2]

    def test_worker_exception_carries_traceback(self):
        with pytest.raises(CampaignError) as info:
            resilient_map(_boom, list(range(4)), workers=2)
        assert "ValueError" in info.value.worker_traceback
        assert "_boom" in info.value.worker_traceback
        assert "bad input" in str(info.value)

    def test_map_blocks_instead_of_polling(self):
        # Warm up first so one-off imports do not count.  The parent
        # blocks on worker outboxes and sentinels: ~0.5% of wall time,
        # where a 1 ms sleep-poll loop burns 8-12%.
        resilient_map(_double, [0, 1], workers=2)
        cpu, wall = time.process_time(), time.perf_counter()
        assert resilient_map(_nap, list(range(8)), workers=2) == list(range(8))
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        assert cpu < 0.05 * wall

    def test_no_worker_outlives_the_map(self):
        assert resilient_map(_double, list(range(4)), workers=2) == [0, 2, 4, 6]
        assert multiprocessing.active_children() == []
        with pytest.raises(CampaignError):
            resilient_map(_boom, list(range(4)), workers=2)
        assert multiprocessing.active_children() == []

    def test_serial_exception_carries_traceback_too(self):
        with pytest.raises(CampaignError) as info:
            resilient_map(_boom, [1], workers=1)
        assert "ValueError" in info.value.worker_traceback
