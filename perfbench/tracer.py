"""Layer tracer for the benchmark's traced pass.

The tracer wraps the public entry point of each layer from outside the
program: nothing under ``src/`` knows it exists.  Every wrapped call is
timed, and the time its wrapped callees took is subtracted to give the
layer's self time.  Calls are aggregated per span name (calls, total
seconds, self seconds) instead of being kept one by one, because the
checker steps a pipeline hundreds of thousands of times per operation.

Pool workers are forked from the traced process, so they inherit the
wrappers.  A fork handler clears the inherited aggregates, and the
worker side of every pool task (``repro.parallel._call_traced``) writes
its process's aggregates to a file of its own in the spool directory
before the task's result is sent back.  The parent merges those files
once the operation has returned.

Wrappers must be installed before any pool forks, and each wrapped name
is replaced everywhere it is looked up: in the defining module and in
every loaded module that imported the function by name.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def load_layers() -> dict:
    """``layers.json``: the workloads and the layer table, the one list of
    metrics and spans that the benchmark reads."""
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as handle:
        return json.load(handle)


def layer_units(layers: dict) -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    return {name: unit for row in layers["layers"]
            for name, unit in row["metrics"].items()}


_TABLE = load_layers()
#: Layers with a ``<layer>.self_s`` metric; a span's layer is the part of
#: its name before the first dot.
LAYERS = tuple(name[:-len(".self_s")] for name in layer_units(_TABLE)
               if name.endswith(".self_s"))
#: Figures and tables whose ``render`` the report calls: the report's
#: ``eval.render.<exhibit>`` spans.
EXHIBITS = tuple(span[len("eval.render."):]
                 for span in _TABLE["workloads"]["report"]["fires"]
                 if span.startswith("eval.render."))


class Tracer:
    """Per-process span aggregates, with a spool for pool workers."""

    def __init__(self, spool: str) -> None:
        self.spool = spool
        self.role = "parent"
        self.token = ""
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.stack: list[float] = []

    def _reset_in_child(self) -> None:
        self.role = "worker"
        self.token = f"{os.getpid()}-{os.urandom(4).hex()}"
        self.stats = {}
        self.counts = {}
        self.stack = []

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, tally=None):
        """Return ``fn`` timed as span ``name``.

        ``tally(args, result, elapsed)`` runs after each call that
        returns, to add counts taken from the call's inputs or result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record = self.stats.get(name)
                if record is None:
                    record = self.stats[name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - child
            if tally is not None:
                tally(args, result, elapsed)
            return result

        return traced

    def flush(self) -> None:
        """Write this worker's aggregates to its spool file."""
        os.makedirs(self.spool, exist_ok=True)
        path = os.path.join(self.spool, f"{self.token}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump({"stats": self.stats, "counts": self.counts}, handle)
        os.replace(path + ".tmp", path)

    def merged(self) -> dict:
        """Parent aggregates plus every worker's spool file."""
        workers = []
        if os.path.isdir(self.spool):
            for name in sorted(os.listdir(self.spool)):
                if name.endswith(".json"):
                    with open(os.path.join(self.spool, name),
                              encoding="utf-8") as handle:
                        workers.append(json.load(handle))
        return {
            "parent": {"stats": self.stats, "counts": self.counts},
            "workers": workers,
        }


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every module global of the program that names ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapper


def _patch_function(tracer: Tracer, module, attr: str, span: str,
                    tally=None) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(span, original, tally))


def _patch_method(tracer: Tracer, cls, attr: str, span: str,
                  tally=None) -> None:
    setattr(cls, attr, tracer.wrap(span, vars(cls)[attr], tally))


def install(tracer: Tracer, step: bool) -> None:
    """Wrap every layer entry point of the table.

    ``step`` also wraps ``PipelinedPE.step``, which the checker calls once
    per explored transition; the table wraps it on ``check`` only, since
    the simulators call it once per simulated cycle.
    """
    # import_module, not ``from package import name``: several packages
    # re-export a function under the name of its module.
    (parallel, check, trigger_cache, assembler, cpi, pareto, sweep, report,
     system, cache, codegen, core, generator, harness, synthesis, suite) = (
        importlib.import_module(f"repro.{name}") for name in (
            "parallel", "analyze.check", "arch.trigger_cache",
            "asm.assembler", "dse.cpi", "dse.pareto", "dse.sweep",
            "eval.report", "fabric.system", "jit.cache", "jit.codegen",
            "pipeline.core", "verify.generator", "verify.harness",
            "vlsi.synthesis", "workloads.suite"))
    System, PipelinedPE = system.System, core.PipelinedPE

    def run_cycles(args, result, elapsed):
        tracer.count("fabric.run.cycles", result)

    def closed(args, result, elapsed):
        tracer.count("vlsi.closed", 1)

    def explored(args, result, elapsed):
        tracer.count("analyze.check.states", result.states_total)
        tracer.count("analyze.check.transitions",
                     sum(c.transitions for c in result.configs))

    def pool_capacity(args, result, elapsed):
        items = len(args[1]) if len(args) > 1 else 0
        workers = args[2] if len(args) > 2 else None
        width = min(parallel.resolve_workers(workers), items)
        tracer.count("parallel.capacity_s", elapsed * max(width, 1))

    _patch_method(tracer, System, "run", "fabric.run", run_cycles)
    _patch_method(tracer, PipelinedPE, "load_program", "pipeline.load_program")
    _patch_method(tracer, PipelinedPE, "snapshot_arch_state",
                  "pipeline.snapshot")
    _patch_method(tracer, PipelinedPE, "restore_arch_state",
                  "pipeline.restore")
    if step:
        _patch_method(tracer, PipelinedPE, "step", "pipeline.step")
    _patch_function(tracer, trigger_cache, "compile_program",
                    "arch.compile_program")
    _patch_function(tracer, cache, "get_compiled", "jit.get_compiled")
    _patch_function(tracer, codegen, "generate_source", "jit.codegen")
    # The cache calls the builtin; a module global of the same name
    # shadows it for that module only.
    cache.compile = tracer.wrap("jit.compile", builtins.compile)
    _patch_function(tracer, assembler, "assemble", "asm.assemble")
    for workload in suite._load_classes().values():
        _patch_method(tracer, workload, "build", "workloads.build")
    _patch_function(tracer, generator, "generate_case", "verify.generate_case")
    _patch_function(tracer, harness, "check_case", "verify.check_case")
    _patch_function(tracer, parallel, "resilient_map", "parallel.map",
                    pool_capacity)
    task = tracer.wrap("parallel.task", parallel._call_traced)

    @functools.wraps(task)
    def task_then_flush(fn, item):
        try:
            return task(fn, item)
        finally:
            if tracer.role == "worker":
                tracer.flush()

    parallel._call_traced = task_then_flush
    # ``_pool_rounds`` computes one backoff delay per pool retry.
    _patch_function(tracer, parallel, "retry_delay", "parallel.retry")
    _patch_method(tracer, cpi.CpiTable, "populate", "dse.populate")
    _patch_function(tracer, sweep, "close_grid", "dse.close_grid")
    _patch_function(tracer, synthesis, "synthesize", "vlsi.synthesize", closed)
    _patch_function(tracer, pareto, "pareto_frontier", "dse.pareto")
    for exhibit in EXHIBITS:
        _patch_function(tracer, getattr(report, exhibit), "render",
                        f"eval.render.{exhibit}")
    _patch_function(tracer, check, "check_program", "analyze.check", explored)
    os.register_at_fork(after_in_child=tracer._reset_in_child)


def _stat(stats: dict, name: str) -> list:
    return stats.get(name, [0, 0.0, 0.0])


def _combine(merged: dict) -> tuple[dict, dict]:
    stats: dict[str, list] = {}
    counts: dict[str, float] = {}
    for part in [merged["parent"], *merged["workers"]]:
        for name, (calls, total, own) in part["stats"].items():
            record = stats.setdefault(name, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += total
            record[2] += own
        for name, value in part["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return stats, counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(merged: dict, units: dict[str, str]) -> dict[str, float]:
    """The per-layer metrics of one traced operation, all of ``units``
    but ``trace.overhead`` (which takes an untraced sample too).

    ``merged`` is :meth:`Tracer.merged` with the root span ``op`` in the
    parent's stats.  A metric ``<span>.calls`` or ``<span>.s`` is that
    span's call count or total seconds unless computed below.
    """
    stats, counts = _combine(merged)

    def calls(name):
        return _stat(stats, name)[0]

    def seconds(name):
        return _stat(stats, name)[1]

    out: dict[str, float] = {}
    for name in units:
        span, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls(span)
        elif field == "s":
            out[name] = seconds(span)
    cycles = counts.get("fabric.run.cycles", 0)
    out["fabric.run.cycles"] = cycles
    out["fabric.cycles_per_s"] = _ratio(cycles, seconds("fabric.run"))

    lookups = calls("jit.get_compiled")
    misses = calls("jit.codegen")
    out["jit.misses"] = misses
    out["jit.hit_ratio"] = _ratio(lookups - misses, lookups)
    out["jit.compile_s"] = seconds("jit.compile")

    worker_tasks = [_stat(w["stats"], "parallel.task") for w in merged["workers"]]
    task_s = seconds("parallel.task")
    out["parallel.maps"] = calls("parallel.map")
    out["parallel.tasks"] = calls("parallel.task")
    out["parallel.task_s"] = task_s
    out["parallel.wait_s"] = _stat(merged["parent"]["stats"], "parallel.map")[2]
    out["parallel.utilization"] = _ratio(task_s,
                                         counts.get("parallel.capacity_s", 0))
    out["parallel.retries"] = calls("parallel.retry")

    out["vlsi.closed_ratio"] = _ratio(counts.get("vlsi.closed", 0),
                                      calls("vlsi.synthesize"))
    out["eval.render.s"] = sum(seconds(f"eval.render.{e}") for e in EXHIBITS)
    out["eval.table3.s"] = seconds("eval.render.table3")
    out["eval.figure4.s"] = seconds("eval.render.figure4")

    states = counts.get("analyze.check.states", 0)
    out["analyze.check.states"] = states
    out["analyze.check.transitions"] = counts.get("analyze.check.transitions", 0)
    out["analyze.check.states_per_s"] = _ratio(states, seconds("analyze.check"))

    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            own for name, (_, _, own) in stats.items()
            if name.split(".", 1)[0] == layer
        )
    # Time in no wrapped layer: the root's self time in the parent, and
    # the pool tasks' self time in the workers (where a task is the root).
    root = _stat(merged["parent"]["stats"], "op")
    out["unattributed.parent.share"] = _ratio(root[2], root[1])
    out["unattributed.workers.share"] = _ratio(
        sum(t[2] for t in worker_tasks), sum(t[1] for t in worker_tasks))
    unknown = set(out) ^ (set(units) - {"trace.overhead"})
    if unknown:
        raise ValueError("layers.json and the tracer disagree on "
                         + ", ".join(sorted(unknown)))
    return out


def fired(merged: dict) -> set[str]:
    """Span names called at least once, in any process."""
    stats, _ = _combine(merged)
    return {name for name, record in stats.items() if record[0]}
