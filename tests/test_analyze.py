"""Static analyzer: lint fixtures, fabric rules, cross-validation."""

import json
import re

import pytest

from repro.analyze import (
    Severity,
    analyze_program,
    analyze_system,
    explore,
    render_json,
    render_sarif,
    render_text,
    stream_tag_sets,
    unreachable_retirements,
)
from repro.analyze.__main__ import main as analyze_main
from repro.arch import FunctionalPE
from repro.asm import assemble
from repro.fabric.system import System
from repro.isa.opcodes import (
    ALU_OPS_1SRC,
    ALU_OPS_2SRC,
    BOOLEAN_OPS_2SRC,
    SIDE_EFFECTING_OPS,
    op_by_name,
)
from repro.params import DEFAULT_PARAMS as P
from repro.workloads.suite import WORKLOADS, get_workload


def rules(findings, minimum=Severity.NOTE):
    return [f.rule for f in findings if f.severity >= minimum]


# ----------------------------------------------------------------------
# Known-bad fixture programs: one per lint, asserting exact findings.
# ----------------------------------------------------------------------

UNREACHABLE = """
.start %p = 00000000
when %p == XXXXXX00:
    add %r0, %r0, $1; set %p = ZZZZZZ01;
when %p == XXXXXX01:
    halt;
when %p == XXXXXX10:
    nop;
"""

UNSATISFIABLE = """
.start %p = 00000001
when %p == XXXXXXX0:
    nop;
when %p == XXXXXXX1:
    halt;
"""

SHADOWED = """
when %p == XXXXXXXX with %i0.0:
    mov %r0, %i0; deq %i0;
when %p == XXXXXXXX with %i0.0:
    add %r1, %r1, %i0; deq %i0;
"""

OVERLAP = """
when %p == XXXXXXXX with %i0.0:
    add %r0, %r0, %i0; deq %i0;
when %p == XXXXXXXX:
    mov %r1, %i0; deq %i0;
"""

SPECULATION = """
.start %p = 00000000
when %p == XXXXXX00:
    ult %p1, %r0, %r1; set %p = ZZZZZZZ1;
when %p == XXXXXX11:
    mov %r2, %i0; deq %i0;
when %p == XXXXXX01:
    halt;
"""


class TestProgramLints:
    def test_unreachable_trigger(self):
        findings = analyze_program(assemble(UNREACHABLE), P)
        assert [(f.rule, f.severity, f.slot) for f in findings] == [
            ("unreachable-trigger", Severity.WARNING, 2)
        ]

    def test_unsatisfiable_and_redundant(self):
        findings = analyze_program(assemble(UNSATISFIABLE), P)
        assert [(f.rule, f.severity, f.slot) for f in findings] == [
            ("unsatisfiable-trigger", Severity.ERROR, 0),
            ("redundant-pred-literal", Severity.WARNING, 1),
        ]

    def test_shadowed_trigger(self):
        findings = analyze_program(assemble(SHADOWED), P)
        assert [(f.rule, f.severity, f.slot) for f in findings] == [
            ("trigger-shadowed", Severity.WARNING, 1)
        ]
        assert "slot 0" in findings[0].message

    def test_trigger_overlap(self):
        findings = analyze_program(assemble(OVERLAP), P)
        assert [(f.rule, f.severity, f.slot) for f in findings] == [
            ("trigger-overlap", Severity.WARNING, 1)
        ]
        assert "dequeue" in findings[0].message

    def test_speculation_window(self):
        findings = analyze_program(assemble(SPECULATION), P)
        assert [(f.rule, f.severity, f.slot) for f in findings] == [
            ("speculation-window", Severity.NOTE, 1)
        ]
        assert "slot 0" in findings[0].message

    def test_findings_carry_source_location(self):
        finding = analyze_program(assemble(UNREACHABLE), P)[0]
        assert finding.line == 7 and finding.column == 1
        assert finding.snippet.startswith("when %p == XXXXXX10")

    def test_tag_dispatch_idiom_is_clean(self):
        # The standard forwarder pair — same queue, different tags — must
        # not be reported as an overlap: the tag checks conflict.
        source = """
        when %p == XXXXXXXX with %i0.0:
            mov %o1.0, %i0; deq %i0;
        when %p == XXXXXXXX with %i0.1:
            mov %o1.1, %i0; deq %i0; set %p = ZZZZZZZ1;
        when %p == XXXXXXX1:
            halt;
        """
        assert analyze_program(assemble(source), P) == []


class TestAbstractInterpreter:
    def test_definite_fire_stops_priority_walk(self):
        # Slot 0 has no queue conditions: nothing below it can ever fire.
        source = """
        when %p == XXXXXXXX:
            nop;
        when %p == XXXXXXXX:
            halt;
        """
        program = assemble(source)
        reach = explore(program.instructions, 0, P)
        assert reach.reachable_slots == frozenset({0})

    def test_queue_conditioned_walk_continues(self):
        source = """
        when %p == XXXXXXXX with %i0.0:
            mov %o0.0, %i0; deq %i0;
        when %p == XXXXXXXX:
            halt;
        """
        program = assemble(source)
        reach = explore(program.instructions, 0, P)
        assert reach.reachable_slots == frozenset({0, 1})

    def test_predicate_write_forks_both_outcomes(self):
        source = """
        .start %p = 00000000
        when %p == XXXXXXX0 with %i0.0:
            ult %p1, %i0, %r0; set %p = ZZZZZZZ1;
        when %p == XXXXXX11:
            halt;
        when %p == XXXXXX01:
            halt;
        """
        program = assemble(source)
        reach = explore(program.instructions, 0, P)
        assert reach.reachable_slots == frozenset({0, 1, 2})

    def test_input_tag_knowledge_prunes(self):
        source = """
        when %p == XXXXXXXX with %i0.1:
            mov %r0, %i0; deq %i0;
        when %p == XXXXXXXX with %i0.0:
            halt;
        """
        program = assemble(source)
        tags = {0: frozenset({0})}
        reach = explore(program.instructions, 0, P, tags)
        assert reach.reachable_slots == frozenset({1})


# ----------------------------------------------------------------------
# Fabric-level rules.
# ----------------------------------------------------------------------

FORWARD = "when %p == XXXXXXXX:\n    mov %o0.0, %i0; deq %i0;"


def _two_pe_system(producer_src, consumer_src):
    system = System()
    producer = FunctionalPE(P, name="producer")
    consumer = FunctionalPE(P, name="consumer")
    system.add_pe(producer)
    system.add_pe(consumer)
    assemble(producer_src, P).configure(producer)
    assemble(consumer_src, P).configure(consumer)
    system.connect(producer, 0, consumer, 0)
    return system


class TestFabricAnalysis:
    def test_capacity_cycle_deadlock(self):
        system = _two_pe_system(FORWARD, FORWARD)
        system.connect(system.pe("consumer"), 0, system.pe("producer"), 0)
        findings = analyze_system(system)
        assert [(f.rule, f.severity) for f in findings] == [
            ("capacity-cycle", Severity.WARNING)
        ]
        assert "consumer" in findings[0].message
        assert "producer" in findings[0].message

    def test_tag_mismatch(self):
        system = _two_pe_system(
            "when %p == XXXXXXXX:\n    mov %o0.2, $5;",
            "when %p == XXXXXXXX with %i0.0:\n    mov %r0, %i0; deq %i0;",
        )
        findings = analyze_system(system)
        by_rule = {f.rule: f for f in findings}
        mismatch = by_rule["tag-mismatch"]
        assert mismatch.severity is Severity.WARNING
        assert mismatch.pe == "producer" and mismatch.slot == 0
        assert "tag 2" in mismatch.message
        # Wiring knowledge also proves the consumer's trigger dead: only
        # tag 2 ever arrives and it waits for tag 0.
        unreachable = by_rule["unreachable-trigger"]
        assert unreachable.pe == "consumer"

    def test_matched_tags_are_clean(self):
        system = _two_pe_system(
            "when %p == XXXXXXXX:\n    mov %o0.0, $5;",
            FORWARD,
        )
        assert analyze_system(system) == []

    def test_wiring_inventory(self):
        system = _two_pe_system(FORWARD, FORWARD)
        channels = {
            info.queue.name: info for info in system.wiring()
        }
        link = channels["producer.o0->consumer.i0"]
        assert link.producer == ("producer", 0)
        assert link.consumer == ("consumer", 0)
        assert link.port_producer is None and link.port_consumer is None


# ----------------------------------------------------------------------
# The acceptance bar: all ten workloads are warning-free, and every
# speculation note names a real data-dependent dequeue site.
# ----------------------------------------------------------------------

class TestWorkloadAudit:
    def test_all_workloads_clean(self):
        for name in WORKLOADS():
            workload = get_workload(name)
            system = workload.build(
                workload.default_pe_factory(), workload.default_scale, seed=0)
            findings = analyze_system(system, workload.params)
            actionable = [f for f in findings
                          if f.severity >= Severity.WARNING]
            assert actionable == [], (
                f"workload {name!r} has analyzer findings: "
                + "; ".join(f"{f.rule}@{f.location}" for f in actionable))
            for note in findings:
                assert note.rule == "speculation-window"


# ----------------------------------------------------------------------
# Analyzer <-> fuzzer cross-validation.
# ----------------------------------------------------------------------

class TestCrossValidation:
    def _check(self, case):
        from repro.errors import ReproError
        from repro.verify.generator import case_source, case_streams
        from repro.verify.harness import GOLDEN_WATCHDOG, _run_model

        try:
            program = assemble(case_source(case), P, name=case["name"])
        except ReproError:
            return            # shrunk cases may not assemble; nothing to claim
        streams = case_streams(case)
        pe = FunctionalPE(P, name=case["name"])
        program.configure(pe)
        if _run_model(pe, streams, GOLDEN_WATCHDOG) is None:
            return
        problems = unreachable_retirements(
            program, pe.counters, P,
            stream_tag_sets(streams, P.num_input_queues))
        assert problems == [], f"case {case['name']}: {problems}"

    def test_corpus(self):
        from pathlib import Path

        corpus = Path(__file__).parent / "corpus"
        cases = sorted(corpus.glob("*.json"))
        assert cases, "fuzz corpus is missing"
        for path in cases:
            self._check(json.loads(path.read_text()))

    def test_generated_cases(self):
        from repro.verify.generator import generate_case

        for seed in range(20):
            self._check(generate_case(seed))

    def test_harness_reports_analysis_kind(self):
        # The differential harness itself carries the cross-check; a
        # normal case must produce no 'analysis' divergences.
        from repro.verify.generator import generate_case
        from repro.verify.harness import check_case

        result = check_case(generate_case(3), P, ref_configs=0)
        assert [d for d in result["divergences"]
                if d["kind"] == "analysis"] == []


# ----------------------------------------------------------------------
# Emitters and CLI.
# ----------------------------------------------------------------------

class TestEmitters:
    def test_text(self):
        findings = analyze_program(assemble(OVERLAP), P)
        text = render_text(findings)
        assert "trigger-overlap" in text and "1 warning(s)" in text

    def test_json(self):
        findings = analyze_program(assemble(UNSATISFIABLE), P)
        payload = json.loads(render_json(findings))
        assert payload["counts"]["error"] == 1
        assert payload["findings"][0]["rule"] == "unsatisfiable-trigger"
        assert payload["findings"][0]["severity"] == "error"

    def test_sarif(self):
        findings = analyze_program(assemble(UNREACHABLE), P)
        log = json.loads(render_sarif(findings))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-analyze"
        result = run["results"][0]
        assert result["ruleId"] == "unreachable-trigger"
        assert result["level"] == "warning"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 7


def _assert_sarif_required_fields(log: dict) -> None:
    """The SARIF 2.1.0 required-field set a consumer may rely on:
    top-level version + runs, each run's tool.driver.name, and for each
    result a ruleId (declared in the driver's rules), a level, a
    message.text, and well-formed locations when present."""
    assert log["version"] == "2.1.0"
    assert isinstance(log["runs"], list) and log["runs"]
    for run in log["runs"]:
        driver = run["tool"]["driver"]
        assert driver["name"]
        declared = {rule["id"] for rule in driver["rules"]}
        assert isinstance(run["results"], list)
        for result in run["results"]:
            assert result["ruleId"] in declared
            assert result["level"] in ("note", "warning", "error")
            assert result["message"]["text"]
            for location in result.get("locations", []):
                physical = location.get("physicalLocation")
                if physical is not None:
                    assert physical["artifactLocation"]["uri"]
                    assert physical["region"]["startLine"] >= 1
                for logical in location.get("logicalLocations", []):
                    assert logical["name"]


class TestSarifRequiredFields:
    def test_lint_findings(self):
        findings = []
        for source in (UNREACHABLE, UNSATISFIABLE, SHADOWED, SPECULATION):
            findings += analyze_program(assemble(source), P)
        assert findings
        _assert_sarif_required_fields(json.loads(render_sarif(findings)))

    def test_perf_findings(self):
        from repro.analyze.perf import workload_analyzer

        analyzer, worker = workload_analyzer("gcd", scale=8)
        findings = analyzer.findings(worker)
        assert findings
        _assert_sarif_required_fields(json.loads(render_sarif(findings)))

    def test_empty_log_is_still_valid(self):
        _assert_sarif_required_fields(json.loads(render_sarif([])))


class TestFailOnThreshold:
    """--fail-on must compare via the explicit Severity order, not the
    labels' accidental string order ("error" < "note" < "warning")."""

    def _finding(self, severity):
        from repro.analyze import Finding

        return Finding(rule="r", severity=severity, message="m")

    def test_order_is_note_warning_error(self):
        assert Severity.NOTE < Severity.WARNING < Severity.ERROR

    def test_string_order_would_invert(self):
        # The regression this guards against: alphabetical label order
        # disagrees with the semantic order.
        assert sorted(s.label for s in Severity) != [
            s.label for s in sorted(Severity)]

    def test_threshold_matrix(self):
        from repro.analyze import fails_build

        note = [self._finding(Severity.NOTE)]
        warning = [self._finding(Severity.WARNING)]
        error = [self._finding(Severity.ERROR)]
        assert fails_build(note, "note")
        assert not fails_build(note, "warning")
        assert not fails_build(note, "error")
        assert fails_build(warning, "note")
        assert fails_build(warning, "warning")
        assert not fails_build(warning, "error")
        assert fails_build(error, "error")
        assert fails_build(note + error, "warning")

    def test_never_and_empty(self):
        from repro.analyze import fails_build

        assert not fails_build([self._finding(Severity.ERROR)], "never")
        assert not fails_build([], "note")

    def test_unknown_threshold_raises(self):
        from repro.analyze import fails_build

        with pytest.raises(ValueError):
            fails_build([], "fatal")

    def test_cli_note_threshold(self, tmp_path, capsys):
        # A NOTE finding fails --fail-on note but passes the default
        # warning threshold — wrong under string comparison, where
        # "note" > "warning" would make notes never fail.
        noisy = tmp_path / "spec.s"
        noisy.write_text(SPECULATION)
        assert analyze_main([str(noisy)]) == 0
        capsys.readouterr()
        assert analyze_main([str(noisy), "--fail-on", "note"]) == 1
        capsys.readouterr()


class TestCli:
    def test_lint_file_exit_status(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text(OVERLAP)
        assert analyze_main([str(bad)]) == 1
        assert "trigger-overlap" in capsys.readouterr().out
        assert analyze_main([str(bad), "--fail-on", "never"]) == 0
        capsys.readouterr()

    def test_clean_file_passes(self, tmp_path, capsys):
        good = tmp_path / "good.s"
        good.write_text("when %p == XXXXXXXX:\n    halt;")
        assert analyze_main([str(good)]) == 0
        capsys.readouterr()

    def test_sarif_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text(UNREACHABLE)
        assert analyze_main([str(bad), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"]

    def test_nothing_to_do_is_usage_error(self):
        with pytest.raises(SystemExit):
            analyze_main([])

    def test_perf_mode(self, capsys):
        assert analyze_main(["--perf", "--workloads", "gcd",
                             "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "partition-bound" in {f["rule"] for f in payload["findings"]}

    def test_check_line_reports_wall_and_states_per_second(self, capsys):
        assert analyze_main(["--check", "--workloads", "stream",
                             "--check-depth", "1"]) == 0
        err = capsys.readouterr().err
        assert re.search(r"check: workload stream: proved \(\d+ states, "
                         r"\d+\.\d\d s, [\d,]+ states/s\)", err), err

    def test_perf_excludes_other_modes(self):
        with pytest.raises(SystemExit):
            analyze_main(["--perf", "--check"])
        with pytest.raises(SystemExit):
            analyze_main(["--perf", "--fuzz", "1"])


# ----------------------------------------------------------------------
# The opcode effects table feeding the analyzer.
# ----------------------------------------------------------------------

class TestOpcodeEffects:
    def test_side_effecting_ops(self):
        assert set(SIDE_EFFECTING_OPS) == {"ssw", "halt"}
        assert op_by_name("ssw").effects.stores_scratchpad
        assert op_by_name("halt").effects.halts

    def test_boolean_results(self):
        assert op_by_name("ult").effects.boolean_result
        assert all(op_by_name(name).effects.boolean_result
                   for name in BOOLEAN_OPS_2SRC)
        assert not op_by_name("add").effects.boolean_result

    def test_alu_groups_exclude_scratchpad(self):
        for name in ALU_OPS_1SRC + ALU_OPS_2SRC:
            assert not op_by_name(name).effects.touches_scratchpad
        assert op_by_name("lsw").effects.loads_scratchpad
