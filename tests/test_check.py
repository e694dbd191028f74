"""Tests for the bounded equivalence checker (``repro.analyze.check``)."""

import copy
import json
import os

import pytest

import repro.pipeline.queue_status as qs
from repro.analyze.check import (
    CheckBounds,
    check_case,
    check_program,
    checkable_workloads,
    checker_oracle,
    confirm_speculation_window,
)
from repro.analyze.encode import describe_pe_state, node_digest, roundtrips
from repro.analyze.lints import speculation_pairs
from repro.analyze.witness import Witness, replay_witness, schedule_step
from repro.analyze.crossval import crossval_case, stream_tag_sets
from repro.arch import FunctionalPE
from repro.asm.assembler import assemble
from repro.params import DEFAULT_PARAMS
from repro.pipeline import PipelinedPE, all_configs
from repro.verify.corpus import load_case, load_corpus
from repro.verify.generator import case_source, case_streams, generate_case
from repro.verify.shrinker import shrink_case

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

#: Small bounds shared by most tests: depth-1 queues keep every space
#: under a few thousand states.
BOUNDS = CheckBounds(queue_capacity=1, max_states=20_000)
BOUNDS2 = CheckBounds(queue_capacity=2, max_states=30_000)

ALL_CONFIGS = all_configs(include_padded=True)


def _corpus_case(name):
    for _, case in load_corpus(CORPUS_DIR):
        if case["name"] == name:
            return case
    raise AssertionError(f"corpus case {name!r} missing")


def _inject_effective_tag_bug(monkeypatch):
    """Revert the Section 5.3 fix: +Q tag inspection reads the physical
    position, ignoring in-flight dequeues and the visibility window."""
    def bugged(self, queue, position=0):
        q = self.inputs[queue]
        if position >= q.occupancy:
            return None
        return q.peek(position).tag
    monkeypatch.setattr(qs.EffectiveQueueView, "input_tag", bugged)


def _inject_conservative_suppression_bug(monkeypatch):
    """Conservative view loses its scheduled-dequeue suppression."""
    def bugged_tag(self, queue, position=0):
        q = self.inputs[queue]
        if position >= q.occupancy:
            return None
        return q.peek(position).tag
    monkeypatch.setattr(qs.ConservativeQueueView, "input_tag", bugged_tag)
    monkeypatch.setattr(qs.ConservativeQueueView, "input_count",
                        lambda self, queue: self.inputs[queue].occupancy)


class TestCanonicalState:
    """The snapshot/restore seam the whole checker stands on."""

    def test_functional_roundtrip_mid_run(self):
        case = _corpus_case("neck-tag-visibility")
        program = assemble(case_source(case, DEFAULT_PARAMS),
                           DEFAULT_PARAMS, name=case["name"])
        pe = FunctionalPE(DEFAULT_PARAMS, name="rt")
        program.configure(pe)
        for q, tokens in case_streams(case).items():
            for value, tag in tokens[:1]:
                pe.inputs[q].enqueue(value, tag)
        pe.commit_queues()
        pe.step()
        assert roundtrips(pe)

    def test_pipelined_roundtrip_every_config(self):
        case = _corpus_case("neck-tag-visibility")
        program = assemble(case_source(case, DEFAULT_PARAMS),
                           DEFAULT_PARAMS, name=case["name"])
        streams = case_streams(case)
        for config in ALL_CONFIGS:
            pe = PipelinedPE(config, DEFAULT_PARAMS, name="rt")
            program.configure(pe)
            for q, tokens in streams.items():
                for value, tag in tokens:
                    pe.inputs[q].enqueue(value, tag)
            pe.commit_queues()
            for _ in range(3):      # leave work genuinely in flight
                pe.step()
                pe.commit_queues()
            assert roundtrips(pe), config.name

    def test_restore_then_replay_is_deterministic(self):
        """Continuing from a restored snapshot matches the original
        run cycle for cycle — restore must be exact, not just
        fingerprint-equal."""
        case = _corpus_case("fuzz-125-min")
        program = assemble(case_source(case, DEFAULT_PARAMS),
                           DEFAULT_PARAMS, name=case["name"])
        streams = case_streams(case)
        config = next(c for c in ALL_CONFIGS if c.name == "T|D|X +P+Q")
        pe = PipelinedPE(config, DEFAULT_PARAMS, name="a")
        program.configure(pe)
        for q, tokens in streams.items():
            for value, tag in tokens:
                pe.inputs[q].enqueue(value, tag)
        pe.commit_queues()
        pe.step()
        pe.commit_queues()
        snap = pe.snapshot_arch_state()
        trace_a = []
        for _ in range(6):
            pe.step()
            pe.commit_queues()
            trace_a.append(pe.snapshot_arch_state())
        pe.restore_arch_state(snap)
        trace_b = []
        for _ in range(6):
            pe.step()
            pe.commit_queues()
            trace_b.append(pe.snapshot_arch_state())
        assert trace_a == trace_b

    def test_describe_and_digest(self):
        pe = FunctionalPE(DEFAULT_PARAMS, name="d")
        state = pe.snapshot_arch_state()
        view = describe_pe_state(state)
        assert view["halted"] is False and view["regs"] == [0] * 8
        digest = node_digest((state, (0,) * 4, ((),) * 4))
        assert len(digest) == 12 and digest == node_digest(
            (state, (0,) * 4, ((),) * 4))


def _reference_encoding(pe):
    """Uncached ``snapshot_arch_state``: every field read straight from
    the PE's storage, with no queue encoding cache and no scratchpad
    written-set, so a stale cache cannot agree with it by construction."""
    def queues(qs):
        return tuple(
            (tuple((e.value, e.tag) for e in q._live),
             tuple((e.value, e.tag) for e in q._staged))
            for q in qs)

    scratch = tuple((address, word)
                    for address, word in enumerate(pe.scratchpad._words)
                    if word)
    head = (tuple(pe.regs._regs), pe.preds.state, scratch, pe.halted)
    if isinstance(pe, FunctionalPE):
        return head + (queues(pe.inputs), queues(pe.outputs))
    seqs = sorted({e.seq for e in pe._pipe if e is not None}
                  | {s.owner_seq for s in pe._specs})
    rank = {seq: index for index, seq in enumerate(seqs)}
    pipe = tuple(
        None if e is None else (
            e.slot, rank[e.seq], e.captured, e.operands,
            None if e.result is None
            else (e.result.value, e.result.halt, e.result.store),
            e.result_ready, e.pred_committed)
        for e in pe._pipe)
    specs = tuple((rank[s.owner_seq], s.pred_index, s.predicted,
                   s.fallback, s.forced) for s in pe._specs)
    book = pe._queue_state
    return head + (
        pe._halt_pending, queues(pe.inputs), queues(pe.outputs),
        (tuple(book.pending_deqs), tuple(book.sched_deqs),
         tuple(book.pending_enqs)),
        pipe, specs,
        (tuple(pe.predictor.counters), pe.predictor.force_invert_next),
    )


class TestReferenceEncoding:
    """Snapshots come from caches (queue encodings, the scratchpad's
    written set), so a snapshot -> restore -> snapshot round trip can pass
    on a stale cache.  Compare against the uncached encoding instead, on
    every state a full exploration snapshots or restores."""

    CONFIGS = ("TDX", "T|D|X +Q", "TDX1|X2 +pad", "TD|X +P",
               "T|D|X1|X2 +P+Q")

    # alu-roundtrip-2 is the only corpus case that uses ssw/lsw;
    # fuzz-125-min keeps several queues busy across thousands of states.
    @pytest.mark.parametrize("name", ["alu-roundtrip-2", "fuzz-125-min"])
    def test_every_explored_state_matches_the_reference(self, monkeypatch,
                                                        name):
        seen = {"snapshots": 0, "restores": 0, "scratch": 0}

        def checked(cls):
            snapshot = cls.snapshot_arch_state
            restore = cls.restore_arch_state

            def snapshot_arch_state(pe):
                state = snapshot(pe)
                assert state == _reference_encoding(pe)
                seen["snapshots"] += 1
                seen["scratch"] += bool(state[2])
                return state

            def restore_arch_state(pe, state):
                restore(pe, state)
                assert _reference_encoding(pe) == state
                seen["restores"] += 1

            monkeypatch.setattr(cls, "snapshot_arch_state",
                                snapshot_arch_state)
            monkeypatch.setattr(cls, "restore_arch_state",
                                restore_arch_state)

        checked(FunctionalPE)
        checked(PipelinedPE)
        case = _corpus_case(name)
        configs = [c for c in ALL_CONFIGS if c.name in self.CONFIGS]
        assert len(configs) == len(self.CONFIGS)
        report = check_case(case, DEFAULT_PARAMS, configs=configs,
                            bounds=BOUNDS2)
        assert report.verdict == "proved"
        assert seen["restores"] > 0
        assert seen["snapshots"] > report.golden_states
        if name == "alu-roundtrip-2":
            assert seen["scratch"] > 0


class TestProofs:
    def test_known_equivalent_microprogram_proves(self):
        """A corpus case (already fuzz-clean) must prove outright on the
        full 48-configuration matrix."""
        report = check_case(_corpus_case("neck-tag-visibility"),
                            DEFAULT_PARAMS, bounds=BOUNDS2)
        assert report.verdict == "proved"
        assert len(report.configs) == 48
        assert all(c.verdict == "proved" for c in report.configs)
        assert report.states_total > 48     # actually explored something

    def test_workloads_prove(self):
        for name, program, streams, params in checkable_workloads():
            report = check_program(program, streams, params,
                                   bounds=BOUNDS, name=name)
            assert report.verdict == "proved", (name, report.detail)

    def test_depth_knob_changes_the_world(self):
        """Raising the queue-capacity bound grows the explored space —
        the knob is real, not decorative."""
        case = _corpus_case("neck-tag-visibility")
        shallow = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS)
        deep = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS2)
        assert shallow.verdict == deep.verdict == "proved"
        assert deep.states_total > shallow.states_total

    def test_state_budget_yields_inconclusive_not_false_proof(self):
        report = check_case(_corpus_case("neck-tag-visibility"),
                            DEFAULT_PARAMS,
                            bounds=CheckBounds(queue_capacity=2,
                                               max_states=5))
        assert report.verdict == "inconclusive"

    def test_stream_bound_refuses_not_checkable(self):
        case = copy.deepcopy(_corpus_case("neck-tag-visibility"))
        case["streams"]["1"] = [[1, 0]] * 40
        report = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS)
        assert report.verdict == "not-checkable"

    def test_deterministic_across_runs(self):
        case = _corpus_case("rotate-edges")
        a = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS)
        b = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS)
        assert a.as_dict() == b.as_dict()


class TestMutationWitnesses:
    """Deliberately broken models must yield replayable witnesses —
    mutation-testing the checker itself."""

    def test_effective_tag_bug_caught_and_replayed(self, monkeypatch):
        _inject_effective_tag_bug(monkeypatch)
        case = _corpus_case("neck-tag-visibility")
        report = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS2)
        assert report.verdict == "diverged"
        assert all("+Q" in c.config for c in report.divergences)
        for verdict in report.divergences:
            replay = replay_witness(case, verdict.witness)
            assert replay["reproduced"], verdict.config

    def test_conservative_suppression_bug_caught(self, monkeypatch):
        _inject_conservative_suppression_bug(monkeypatch)
        case = _corpus_case("neck-tag-visibility")
        report = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS)
        assert report.verdict == "diverged"
        assert all("+Q" not in c.config for c in report.divergences)
        replay = replay_witness(case, report.divergences[0].witness)
        assert replay["reproduced"]

    def test_checker_beats_fuzzer_on_occupancy(self, monkeypatch):
        """The historical neck-tag bug needed occupancy >= 3: the fuzzer
        found it only at capacity 4, but adversarial schedules build the
        occupancy at capacity 3 too."""
        _inject_effective_tag_bug(monkeypatch)
        report = check_case(_corpus_case("neck-tag-visibility"),
                            DEFAULT_PARAMS,
                            bounds=CheckBounds(queue_capacity=3,
                                               max_states=60_000))
        assert report.verdict == "diverged"

    def test_witness_json_roundtrip(self, monkeypatch):
        _inject_effective_tag_bug(monkeypatch)
        case = _corpus_case("neck-tag-visibility")
        report = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS2)
        witness = report.divergences[0].witness
        back = Witness.from_dict(json.loads(json.dumps(witness.as_dict())))
        assert back == witness
        assert replay_witness(case, back)["reproduced"]


class TestCrossValidation:
    """Bidirectional gate: fuzzer-visible divergences are checker-visible
    and checker witnesses reproduce through the fuzzer harness."""

    def test_agreement_on_clean_corpus(self):
        verdict = crossval_case(_corpus_case("rotate-edges"),
                                DEFAULT_PARAMS, bounds=BOUNDS)
        assert verdict["agreed"], verdict["problems"]
        assert verdict["checker_verdict"] == "proved"
        assert verdict["fuzzer_divergences"] == 0

    def test_agreement_on_injected_bug(self, monkeypatch):
        """With a real model bug injected, both tools must see it — and
        the witnesses must replay."""
        _inject_effective_tag_bug(monkeypatch)
        verdict = crossval_case(_corpus_case("neck-tag-visibility"),
                                DEFAULT_PARAMS, bounds=BOUNDS2)
        assert verdict["agreed"], verdict["problems"]
        assert verdict["checker_verdict"] == "diverged"
        assert verdict["fuzzer_divergences"] > 0

    def test_historical_divergence_seed_rediscovered(self, monkeypatch):
        """Fuzzer-found seed 125 (the tag-visibility detector) must be
        rediscoverable by the checker when the old bug is re-injected."""
        _inject_effective_tag_bug(monkeypatch)
        report = check_case(_corpus_case("fuzz-125-min"), DEFAULT_PARAMS,
                            bounds=CheckBounds(queue_capacity=3,
                                               max_states=80_000))
        assert report.verdict == "diverged"
        assert all("+Q" in c.config for c in report.divergences)


class TestWitnessShrinking:
    def test_shrinker_minimizes_checker_witness(self, monkeypatch):
        """shrink_case with the checker oracle minimizes a witness case
        and is idempotent on the result."""
        _inject_effective_tag_bug(monkeypatch)
        case = _corpus_case("neck-tag-visibility")
        oracle = checker_oracle(DEFAULT_PARAMS, bounds=BOUNDS2)
        assert oracle(case)
        small = shrink_case(copy.deepcopy(case), DEFAULT_PARAMS,
                            oracle=oracle, max_checks=200)
        assert small["name"].endswith("-min")
        assert len(small["entries"]) <= len(case["entries"])
        assert oracle(small)
        again = shrink_case(copy.deepcopy(small), DEFAULT_PARAMS,
                            oracle=oracle, max_checks=200)
        assert again == small
        # The minimal case still yields a replayable witness.
        report = check_case(small, DEFAULT_PARAMS, bounds=BOUNDS2)
        assert report.verdict == "diverged"
        assert replay_witness(small,
                              report.divergences[0].witness)["reproduced"]


class TestSpeculationWindowHardening:
    """The speculation-window lint is checker-backed: every forbidden
    cycle the checker observes must be flagged by the lint."""

    def test_observed_pairs_are_flagged(self):
        for seed in (3, 32, 55):
            case = generate_case(seed, DEFAULT_PARAMS)
            program = assemble(case_source(case, DEFAULT_PARAMS),
                               DEFAULT_PARAMS, name=case["name"])
            verdict = confirm_speculation_window(
                program, case_streams(case), DEFAULT_PARAMS, bounds=BOUNDS)
            assert verdict["verdict"] == "proved"
            assert verdict["observed"], seed  # the seeds actually forbid
            assert verdict["unflagged"] == [], (seed, verdict)

    def test_lint_catches_unwatched_side_effects(self):
        """Fail-on-pre-fix regression: the pre-fix lint only flagged
        dequeues *watching* the written bit, but the pipeline forbids
        every side-effecting issue during any speculation
        (``forbid = bool(self._specs)``).  Seed 3's observed pairs
        (5, 0) and (12, 0) don't watch the written bits at all."""
        case = generate_case(3, DEFAULT_PARAMS)
        program = assemble(case_source(case, DEFAULT_PARAMS),
                           DEFAULT_PARAMS, name=case["name"])
        tags = stream_tag_sets(case_streams(case),
                               DEFAULT_PARAMS.num_input_queues)
        pairs = speculation_pairs(program, DEFAULT_PARAMS, tags)
        assert (5, 0) in pairs and (12, 0) in pairs

    def test_lint_follows_window_drift(self):
        """Fail-on-pre-fix regression: seed 32's pair (3, 6) is only
        reachable after a pure issue moves the predicate state inside
        the window — the closure must follow it."""
        case = generate_case(32, DEFAULT_PARAMS)
        program = assemble(case_source(case, DEFAULT_PARAMS),
                           DEFAULT_PARAMS, name=case["name"])
        tags = stream_tag_sets(case_streams(case),
                               DEFAULT_PARAMS.num_input_queues)
        assert (3, 6) in speculation_pairs(program, DEFAULT_PARAMS, tags)


class TestCheckerCorpusProbes:
    """The two corpus cases added alongside the checker stay pinned to
    the behaviour that motivated them."""

    def test_speculation_forbidden_probe(self):
        """A minimal mispredicted window: slot 1's ``ult`` writes %p1
        (actual 1, predicted 0 by the weak-not-taken counter), and the
        mispredicted path's dequeue at slot 2 must be held — the
        checker observes the forbidden cycle, proves equivalence, and
        the hardened lint flags exactly the observed pair."""
        case = _corpus_case("speculation-forbidden")
        report = check_case(case, DEFAULT_PARAMS, bounds=BOUNDS)
        assert report.verdict == "proved"
        assert (1, 2) in report.forbidden_pairs
        program = assemble(case_source(case, DEFAULT_PARAMS),
                           DEFAULT_PARAMS, name=case["name"])
        verdict = confirm_speculation_window(
            program, case_streams(case), DEFAULT_PARAMS, bounds=BOUNDS)
        assert verdict["confirmed"] == [(1, 2)]
        assert verdict["unflagged"] == [] and verdict["unconfirmed"] == []

    def test_deep_tag_occupancy_probe(self):
        """Tag check at position 1 behind a pending dequeue, with
        enough stream tokens to fill three queue slots — proved at
        capacity 3 where the wrap actually happens."""
        case = _corpus_case("deep-tag-occupancy")
        report = check_case(
            case, DEFAULT_PARAMS,
            bounds=CheckBounds(queue_capacity=3, max_states=60_000))
        assert report.verdict == "proved"
        assert report.states_total > 0


class TestScheduleStep:
    def test_sparse_encoding(self):
        step = schedule_step((0, 2, 0, 0), (1, 0, 0, 0))
        assert step == {"deliver": {1: 2}, "drain": {0: 1}}
