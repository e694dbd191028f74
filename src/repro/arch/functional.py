"""Functional (architectural) simulator of one triggered PE.

This is the toolchain's "Functional Simulator" box (Figure 1) and the
architectural reference for every pipelined model: one triggered
instruction retires per cycle whenever any trigger matches.  It is also
the timing model of the single-cycle ``TDX`` baseline (Section 4), whose
CPI it reports directly.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from repro.arch.predicates import PredicateFile
from repro.arch.queue import TaggedQueue
from repro.arch.regfile import RegisterFile
from repro.arch.scheduler import ArchQueueView, Scheduler, TriggerKind
from repro.arch.scratchpad import Scratchpad
from repro.arch.trigger_cache import (
    DST_OUT,
    DST_PRED,
    DST_REG,
    IN,
    REG,
    CompiledDatapath,
    compile_datapaths,
    compile_program,
)
from repro.errors import SimulationError
from repro.isa.alu import alu_execute
from repro.isa.instruction import Instruction
from repro.params import ArchParams, DEFAULT_PARAMS


@dataclass
class FunctionalCounters:
    """Per-PE performance counters maintained by the functional model."""

    cycles: int = 0
    retired: int = 0
    none_triggered: int = 0
    predicate_writes: int = 0        # retired datapath writes to a predicate
    enqueues: int = 0
    dequeues: int = 0
    retired_by_op: Counter = field(default_factory=Counter)
    retired_by_slot: Counter = field(default_factory=Counter)

    @property
    def cpi(self) -> float:
        """Cycles per retired instruction."""
        if self.retired == 0:
            return float("inf")
        return self.cycles / self.retired

    @property
    def predicate_write_rate(self) -> float:
        """Fraction of retired instructions writing a predicate (Figure 4)."""
        if self.retired == 0:
            return 0.0
        return self.predicate_writes / self.retired

    def as_dict(self) -> dict:
        """JSON-ready view (Counters become plain dicts)."""
        return {
            "cycles": self.cycles,
            "retired": self.retired,
            "none_triggered": self.none_triggered,
            "predicate_writes": self.predicate_writes,
            "enqueues": self.enqueues,
            "dequeues": self.dequeues,
            "retired_by_op": dict(self.retired_by_op),
            "retired_by_slot": {
                str(slot): count
                for slot, count in self.retired_by_slot.items()
            },
        }


class FunctionalPE:
    """One processing element executing at one instruction per cycle."""

    def __init__(
        self,
        params: ArchParams = DEFAULT_PARAMS,
        name: str = "pe",
        has_scratchpad: bool = True,
        initial_predicates: int = 0,
    ) -> None:
        self.params = params
        self.name = name
        self.inputs = [
            TaggedQueue(params.queue_capacity, f"{name}.i{i}")
            for i in range(params.num_input_queues)
        ]
        self.outputs = [
            TaggedQueue(params.queue_capacity, f"{name}.o{i}")
            for i in range(params.num_output_queues)
        ]
        self.regs = RegisterFile(params)
        self.preds = PredicateFile(params, initial_predicates)
        self.scratchpad = Scratchpad(params) if has_scratchpad else None
        self.scheduler = Scheduler(params)
        self.instructions: list[Instruction] = []
        self.counters = FunctionalCounters()
        self.halted = False
        self._initial_predicates = initial_predicates
        # One architectural queue view per PE; it reads live queue state
        # through the (stable) input/output lists, so rebuilding it per
        # cycle was pure allocation churn.
        self._view = ArchQueueView(self.inputs, self.outputs)
        # Fast path: triggers compiled at load time plus a memoized
        # trigger decision keyed on predicate state and a queue-status
        # signature built from monotone queue version counters.
        self._compiled = None
        self._dp_meta: list[CompiledDatapath] = []
        self._decision_cache: dict[tuple, object] = {}
        self._sig_queues = self.inputs + self.outputs
        #: Resilience seam: called with this PE at the top of every live
        #: cycle (see :mod:`repro.resilience.faults`).  None costs one
        #: attribute test per cycle.
        self.fault_hook = None
        #: Observability seam: a :class:`repro.obs.events.Telemetry` sink
        #: receiving retire events, or ``None`` (one attribute test per
        #: cycle, like ``fault_hook``).
        self.telemetry = None
        #: Ring of the most recent (cycle, slot) fires, for forensic dumps.
        self.recent_fires: deque[tuple[int, int]] = deque(maxlen=8)

    # ------------------------------------------------------------------
    # Host interface (the userspace library's role)
    # ------------------------------------------------------------------

    def load_program(self, instructions: list[Instruction]) -> None:
        """Program the instruction memory (validates against parameters)."""
        if len(instructions) > self.params.num_instructions:
            raise SimulationError(
                f"{self.name}: program of {len(instructions)} instructions "
                f"exceeds NIns = {self.params.num_instructions}"
            )
        for ins in instructions:
            if ins.valid:
                ins.validate(self.params)
        self.instructions = list(instructions)
        self._compiled = compile_program(self.instructions)
        self._dp_meta = compile_datapaths(self.instructions, self.params)
        self._decision_cache.clear()

    def invalidate_schedule_cache(self) -> None:
        """Drop memoized trigger decisions (call after external rewiring).

        Queue-version signatures are only monotone for the queue objects
        the PE currently holds; swapping a queue object (as fabric wiring
        does) could otherwise let a stale signature alias a new state.
        """
        self._decision_cache.clear()
        self._sig_queues = self.inputs + self.outputs

    def reset(self) -> None:
        """Return all architectural state to its post-configuration value."""
        for queue in self.inputs:
            queue.reset()
        for queue in self.outputs:
            queue.reset()
        self.regs.reset()
        self.preds.reset(self._initial_predicates)
        if self.scratchpad is not None:
            self.scratchpad.reset()
        self.counters = FunctionalCounters()
        self.halted = False
        self._decision_cache.clear()
        self.recent_fires.clear()

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Advance one cycle; returns True when an instruction retired."""
        if self.halted:
            return False
        self.counters.cycles += 1
        if self.fault_hook is not None:
            self.fault_hook(self)
        if self.telemetry is not None:
            self.telemetry.now = self.counters.cycles
        signature = 0
        for queue in self._sig_queues:
            signature += queue.version
        key = (self.preds.state, signature)
        outcome = self._decision_cache.get(key)
        if outcome is None:
            outcome = self.scheduler.evaluate(
                self.instructions, self.preds.state, self._view,
                compiled=self._compiled,
            )
            if len(self._decision_cache) >= 1 << 16:
                self._decision_cache.clear()
            self._decision_cache[key] = outcome
        if outcome.kind is not TriggerKind.FIRED:
            self.counters.none_triggered += 1
            return False
        self._execute(outcome.index)
        return True

    def _execute(self, slot: int) -> None:
        meta = self._dp_meta[slot]

        # Operand read (queue sources peek at the head; dequeue is separate).
        operands = []
        for code, payload in meta.operand_plan:
            if code == REG:
                operands.append(self.regs.read(payload))
            elif code == IN:
                operands.append(self.inputs[payload].peek(0).value)
            else:   # LIT: an immediate (pre-masked) or an absent source
                operands.append(payload)

        # Issue-time atomic actions: predicate force-update and dequeues.
        self.preds.apply_update(meta.pred_update)
        for queue in meta.deq:
            self.inputs[queue].dequeue()
            self.counters.dequeues += 1

        semantics = meta.semantics
        if semantics is not None:
            params = self.params
            mask = params.word_mask
            result = semantics(
                operands[0] & mask, operands[1] & mask, params, mask,
                params.word_width, self.scratchpad,
            )
        else:
            result = alu_execute(meta.op, operands[0], operands[1],
                                 self.params, self.scratchpad)

        if result.store is not None:
            if self.scratchpad is None:
                raise SimulationError(f"{self.name}: store without a scratchpad")
            self.scratchpad.store(*result.store)

        dst_kind = meta.dst_kind
        if dst_kind == DST_REG:
            self.regs.write(meta.dst_index, result.value)
        elif dst_kind == DST_OUT:
            self.outputs[meta.dst_index].enqueue(result.value, meta.out_tag)
            self.counters.enqueues += 1
        elif dst_kind == DST_PRED:
            self.preds.write_bit(meta.dst_index, result.value & 1)
            self.counters.predicate_writes += 1

        if result.halt:
            self.halted = True

        self.counters.retired += 1
        self.counters.retired_by_op[meta.op.mnemonic] += 1
        self.counters.retired_by_slot[slot] += 1
        self.recent_fires.append((self.counters.cycles, slot))
        if self.telemetry is not None:
            # The functional model issues and retires in the same cycle,
            # so one retire event carries the whole story.
            self.telemetry.emit(
                "retire", self.name, slot=slot, op=meta.op.mnemonic
            )

    def snapshot_arch_state(self) -> tuple:
        """Canonical, hashable architectural state (the checker seam).

        Everything a future cycle's behavior can depend on, as one
        nested tuple: registers, the predicate vector, the non-zero
        scratchpad words, the halt flag, and every queue's live and
        staged contents.  Performance counters and forensic rings are
        *excluded* — they never feed back into execution, and including
        monotone counters would make every state unique, defeating the
        bounded model checker's frontier deduplication.  The inverse is
        :meth:`restore_arch_state`.
        """
        scratch = ()
        if self.scratchpad is not None:
            scratch = self.scratchpad.nonzero()
        return (
            self.regs.snapshot(),
            self.preds.state,
            scratch,
            self.halted,
            tuple(queue.arch_state() for queue in self.inputs),
            tuple(queue.arch_state() for queue in self.outputs),
        )

    def restore_arch_state(self, state: tuple) -> None:
        """Restore a :meth:`snapshot_arch_state` snapshot onto this PE.

        Counters and forensic rings are left untouched (they are not
        architectural); the memoized trigger-decision cache is dropped so
        a stale decision can never alias the restored queue state.
        """
        regs, preds, scratch, halted, inputs, outputs = state
        self.regs.restore(regs)
        self.preds.state = preds
        if self.scratchpad is not None:
            self.scratchpad.reset()
            for address, word in scratch:
                self.scratchpad.store(address, word)
        self.halted = halted
        for queue, enc in zip(self.inputs, inputs):
            queue.restore_arch(enc)
        for queue, enc in zip(self.outputs, outputs):
            queue.restore_arch(enc)
        self._decision_cache.clear()

    def snapshot_state(self) -> dict:
        """Structured architectural state for forensic dumps."""
        return {
            "name": self.name,
            "model": "functional",
            "halted": self.halted,
            "cycles": self.counters.cycles,
            "retired": self.counters.retired,
            "predicates": f"{self.preds.state:0{self.params.num_preds}b}",
            "registers": list(self.regs.snapshot()),
            "recent_fires": list(self.recent_fires),
            "inputs": [queue.snapshot() for queue in self.inputs],
            "outputs": [queue.snapshot() for queue in self.outputs],
        }

    def commit_queues(self) -> None:
        """Commit staged enqueues on queues this PE owns (single-PE runs).

        In a multi-PE :class:`~repro.fabric.system.System` the system
        commits each shared channel exactly once per cycle instead.
        """
        for queue in self.inputs:
            if queue._staged:
                queue.commit()
        for queue in self.outputs:
            if queue._staged:
                queue.commit()

    def run(self, max_cycles: int = 1_000_000) -> FunctionalCounters:
        """Run standalone until halt (single-PE convenience wrapper)."""
        for _ in range(max_cycles):
            if self.halted:
                break
            self.step()
            self.commit_queues()
        else:
            raise SimulationError(
                f"{self.name}: did not halt within {max_cycles} cycles"
            )
        return self.counters
