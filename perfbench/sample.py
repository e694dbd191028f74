"""One benchmark sample: a single user operation in a fresh interpreter.

Usage: ``python3 perfbench/sample.py SPEC.json``, with ``src`` on
``PYTHONPATH``.  The spec names the operation and its inputs; the sample
runs it, checks its output, and writes a JSON result to ``spec["out"]``:
``ok`` and ``detail`` (the correctness gate), ``digest`` (a hash of the
output, compared across samples), ``pool_width`` and, when traced, the
layer aggregates of every process of the operation.

Operations:

* ``report`` -- ``full_report(scale)``; the printed report must equal
  the text of ``spec["expected"]`` after its two-line header.
* ``fuzz-jit`` -- ``fuzz_run(cases, seed, ref_configs=0, jit=True)``;
  no real divergence and no generator bug.
* ``check`` -- ``check_program`` on the checkable workloads and
  ``check_case`` on the named corpus cases; every verdict must be
  ``proved``, and a named case that is missing fails the sample.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys


def _report(spec: dict) -> tuple[bool, str, str]:
    from repro.eval import report

    printed = report.full_report(scale=spec["scale"]) + "\n"
    with open(spec["expected"], encoding="utf-8") as handle:
        _, _, expected = handle.read().partition("\n\n")
    ok = printed == expected
    detail = "" if ok else (
        f"report differs from {spec['expected']} "
        f"({len(printed)} vs {len(expected)} characters)")
    return ok, detail, printed


def _fuzz_jit(spec: dict) -> tuple[bool, str, str]:
    from repro.verify import runner

    results = runner.fuzz_run(spec["cases"], seed=spec["seed"],
                              ref_configs=0, jit=True)
    summary = runner.summarize_run(results)
    problems = summary["divergences"] + summary["generator_bugs"]
    ok = len(results) == spec["cases"] and not problems
    detail = "" if ok else json.dumps(summary)[:2000]
    return ok, detail, json.dumps(results, sort_keys=True)


def _check(spec: dict) -> tuple[bool, str, str]:
    from repro.analyze import check
    from repro.verify.corpus import load_case

    verdicts = []
    for name, program, streams, params in check.checkable_workloads():
        if spec["workloads"] is None or name in spec["workloads"]:
            report = check.check_program(program, streams, params, name=name)
            verdicts.append((name, report.verdict))
    for name in spec["cases"]:
        case = load_case(os.path.join(spec["corpus"], name))
        verdicts.append((name, check.check_case(case).verdict))
    failed = [f"{name}: {verdict}" for name, verdict in verdicts
              if verdict != "proved"]
    ok = bool(verdicts) and not failed
    # State counts are left out: a state-space reduction must still pass.
    return ok, "; ".join(failed), json.dumps(verdicts)


OPERATIONS = {"report": _report, "fuzz-jit": _fuzz_jit, "check": _check}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer(os.path.abspath("spool"))
        install(tracer, step=spec["op"] == "check")
    from repro.parallel import resolve_workers

    run = OPERATIONS[spec["op"]]
    if tracer is not None:
        run = tracer.wrap("op", run)
    try:
        ok, detail, output = run(spec)
    except Exception as exc:  # noqa: BLE001 -- run.py counts it failed
        import traceback

        ok, detail, output = False, traceback.format_exc(), repr(exc)
    result = {
        "ok": ok,
        "detail": detail,
        "digest": hashlib.sha256(output.encode("utf-8")).hexdigest(),
        "pool_width": resolve_workers(),
        "trace": tracer.merged() if tracer is not None else None,
    }
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
