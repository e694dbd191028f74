"""End-to-end benchmark: closed-loop batches of user operations.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report --seed 1 --seconds 10 --trace 0

Workloads (``perfbench/layers.json`` records why each was chosen and
which end-to-end metric each layer should move on it):

* ``report`` -- regenerate the paper's exhibits at scale 24 and compare
  them with ``EXHIBITS.txt`` byte for byte.  Takes no seed.
* ``fuzz-jit`` -- the jit differential fuzz gate over 12 generated cases
  starting at the seed.
* ``check`` -- the bounded equivalence checker on the checkable
  workloads and the eight ``tests/corpus`` cases named in
  ``CHECK_CASES``, in-process.  Takes no seed.

Each sample is one operation in a fresh interpreter, issued one after
another from this process (a closed loop with one client).  The pool
width is the program's own default.  Every sample runs in a state
directory that is its cwd, ``HOME``, ``TMPDIR``, ``XDG_CACHE_HOME`` and
``PYTHONPYCACHEPREFIX``.  A run first sets up ``SETUPS`` times, each on
an empty state directory (bytecode compilation included); ``setup_s`` is
the median.  The timed samples then reuse the last set-up's state until
``--seconds`` have passed.

This process is the child subreaper of every process a sample starts,
and reaps them all before it reads their CPU time and peak memory:
``cpu_s`` and ``peak_rss_mb`` cover the whole tree, pool workers
included.

With ``--trace 1`` the run alternates untraced and traced samples.  The
traced ones wrap each layer's entry point (``perfbench/tracer.py``) and
give the per-layer metrics, the unattributed share per process, and the
tracing overhead; a wrapper that the table assigns to the workload but
that never fires fails the run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every operation passed its gate.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

# Leave no __pycache__ in the checkout: the set-ups time bytecode compilation.
sys.dont_write_bytecode = True

from tracer import fired, layer_metrics, layer_units, load_layers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE = os.path.join(HERE, "sample.py")
STATE = os.path.join(ROOT, ".perfbench_state")

#: Set-ups (cold operations on empty state) per run; setup_s is their median.
SETUPS = 3
#: A sample that runs longer than this is killed and counted as failed.
SAMPLE_TIMEOUT = 60.0
#: No sample starts once a run has taken this long (the run must end
#: within 180 s).
RUN_BUDGET = 120.0

#: Environment variables that could switch the backend, the pool width or
#: where bytecode is cached; the sample environment drops them all.
STRIPPED_PREFIXES = ("REPRO_", "PYTHON")

PR_SET_CHILD_SUBREAPER = 36

#: The corpus cases ``check`` proves.  Named, not globbed, so that a case
#: added to ``tests/corpus`` later does not change the workload.
CHECK_CASES = ("alu-roundtrip-1.json", "alu-roundtrip-2.json",
               "compare-roundtrip.json", "deep-tag-occupancy.json",
               "fuzz-125-min.json", "neck-tag-visibility.json",
               "rotate-edges.json", "speculation-forbidden.json")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


def workload_spec(name: str, seed: int) -> dict:
    """The operation and inputs of one workload, at full size."""
    if name == "report":
        return {"op": "report", "scale": 24,
                "expected": os.path.join(ROOT, "EXHIBITS.txt")}
    if name == "fuzz-jit":
        return {"op": "fuzz-jit", "cases": 12, "seed": seed}
    if name == "check":
        return {"op": "check", "workloads": None,
                "corpus": os.path.join(ROOT, "tests", "corpus"),
                "cases": list(CHECK_CASES)}
    raise ValueError(f"unknown workload {name!r}")


def missing_sources() -> list[str]:
    """Checkout files the workloads need that are not there."""
    needed = [os.path.join("src", "repro", "__init__.py"), "EXHIBITS.txt",
              os.path.join("tests", "corpus")]
    return [path for path in needed
            if not os.path.exists(os.path.join(ROOT, path))]


def become_subreaper() -> None:
    """Make orphaned descendants re-parent to this process, not init."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        error = ctypes.get_errno()
        raise OSError(error, f"prctl(PR_SET_CHILD_SUBREAPER): "
                             f"{os.strerror(error)}")


def host() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg": [round(load, 2) for load in os.getloadavg()],
    }


def sample_env(state: str) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(STRIPPED_PREFIXES)}
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONPYCACHEPREFIX": os.path.join(state, "pycache"),
        "HOME": state,
        "TMPDIR": state,
        "XDG_CACHE_HOME": os.path.join(state, "cache"),
    })
    return env


class Sample:
    """One operation: its host cost, its gate, and its result file."""

    def __init__(self, wall: float, cpu: float, rss_mb: float,
                 result: dict | None, log: str) -> None:
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.result = result
        self.ok = result is not None and result["ok"]
        self.log = log


def _reap_tree(group: int, deadline: float) -> list:
    """Reap every remaining descendant; returns their resource usages.

    Orphaned pool workers re-parent here (we are their subreaper); any
    still alive at ``deadline`` are killed through the sample's process
    group.
    """
    usages = []
    while True:
        try:
            pid, _, usage = os.wait4(-1, os.WNOHANG)
        except ChildProcessError:
            return usages
        if pid:
            usages.append(usage)
            continue
        if time.monotonic() > deadline:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.005)


def run_sample(spec: dict, state: str, trace: bool, tag: str) -> Sample:
    """Run one operation in a fresh interpreter with ``state`` as its home."""
    os.makedirs(state, exist_ok=True)
    spool = os.path.join(state, "spool")
    shutil.rmtree(spool, ignore_errors=True)
    out = os.path.join(state, f"{tag}.result.json")
    spec_path = os.path.join(state, f"{tag}.spec.json")
    log = os.path.join(state, f"{tag}.log")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump({**spec, "trace": trace, "out": out}, handle)
    with open(log, "wb") as log_handle:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, SAMPLE, spec_path], cwd=state,
            env=sample_env(state), stdin=subprocess.DEVNULL,
            stdout=log_handle, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        watchdog = threading.Timer(
            SAMPLE_TIMEOUT, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    usages = [usage, *_reap_tree(proc.pid, time.monotonic() + 10.0)]
    cpu = sum(u.ru_utime + u.ru_stime for u in usages)
    rss_mb = max(u.ru_maxrss for u in usages) / 1024.0
    result = None
    if os.path.exists(out):
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        os.unlink(out)
    return Sample(wall, cpu, rss_mb, result, log)


def _upper(values: list[float]) -> str:
    """The highest percentile with ten samples beyond it, if any."""
    count = len(values)
    if count < 11:
        return f"none supported (n={count}); max {max(values):.4f}"
    percent = int(100 * (1 - 10 / count))
    cut = statistics.quantiles(values, n=100)[percent - 1]
    return f"p{percent} {cut:.4f} (n={count})"


class Run:
    """The samples of one benchmark run and their gates."""

    def __init__(self, spec: dict, seconds: float) -> None:
        self.spec = spec
        self.seconds = seconds
        self.root = os.path.join(STATE, f"run-{os.getpid()}")
        self.started = time.monotonic()
        self.samples: list[Sample] = []
        self.problems: list[str] = []

    def sample(self, state: str, trace: bool = False) -> Sample:
        tag = f"s{len(self.samples)}"
        sample = run_sample(self.spec, os.path.join(self.root, state), trace,
                            tag)
        self.samples.append(sample)
        if not sample.ok:
            detail = sample.result["detail"] if sample.result else "no result"
            self.problems.append(f"{tag}: {detail[-2000:]}")
            with open(sample.log, encoding="utf-8", errors="replace") as handle:
                self.problems.append(handle.read()[-2000:])
        return sample

    def set_up(self, count: int) -> list[Sample]:
        return [self.sample(f"setup{index}") for index in range(count)]

    def more(self, taken: int, window_start: float) -> bool:
        elapsed = time.monotonic() - self.started
        last = self.samples[-1].wall if self.samples else 0.0
        if taken and elapsed + last > RUN_BUDGET:
            return False
        return not taken or time.monotonic() - window_start < self.seconds

    def failed(self) -> int:
        """Samples that failed their gate or whose output digest differs."""
        digests = [s.result["digest"] for s in self.samples if s.ok]
        reference = digests[0] if digests else None
        count = 0
        for sample in self.samples:
            if not sample.ok or sample.result["digest"] != reference:
                count += 1
        if count and not self.problems:
            self.problems.append("output digest differs between samples")
        return count

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _median(samples: list[Sample], field: str) -> float:
    chosen = [s for s in samples if s.ok] or samples
    return statistics.median(getattr(s, field) for s in chosen)


def measure(spec: dict, seconds: float) -> tuple[dict, list[str]]:
    """Untraced run: set-up time, then timed samples; end-to-end metrics."""
    run = Run(spec, seconds)
    try:
        cold = run.set_up(SETUPS)
        warm: list[Sample] = []
        window = time.monotonic()
        while run.more(len(warm), window):
            warm.append(run.sample(f"setup{SETUPS - 1}"))
        failed = run.failed()
        metrics = {
            "wall_s": _median(warm, "wall"),
            "cpu_s": _median(warm, "cpu"),
            "peak_rss_mb": _median(warm, "rss_mb"),
            "setup_s": _median(cold, "wall"),
        }
        lines = [
            f"wall_s: median {metrics['wall_s']:.4f}, upper "
            + _upper([s.wall for s in warm]) + " ("
            + ", ".join(f"{s.wall:.3f}" for s in warm) + ")",
            f"cpu_s: median {metrics['cpu_s']:.4f} (n={len(warm)})",
            f"peak_rss_mb: median {metrics['peak_rss_mb']:.1f} "
            f"(n={len(warm)})",
            f"setup_s: median {metrics['setup_s']:.4f} "
            f"(n={len(cold)}: " + ", ".join(f"{s.wall:.3f}" for s in cold)
            + ")",
        ]
        return _result(run, failed, metrics, END_TO_END_UNITS), lines
    finally:
        run.close()


def measure_traced(spec: dict, seconds: float, fires: list[str],
                   units: dict[str, str]) -> tuple[dict, list[str]]:
    """Traced run: per-layer metrics, tracing overhead, unattributed share."""
    run = Run(spec, seconds)
    try:
        run.set_up(1)
        plain: list[Sample] = []
        traced: list[Sample] = []
        window = time.monotonic()
        while run.more(len(traced), window):
            plain.append(run.sample("setup0"))
            traced.append(run.sample("setup0", trace=True))
        failed = run.failed()
        layer_runs = [layer_metrics(s.result["trace"], units) for s in traced if s.ok]
        metrics = {
            name: statistics.median(m[name] for m in layer_runs)
            if layer_runs else 0.0
            for name in units if name != "trace.overhead"
        }
        # Pairs run back to back, so their ratio cancels drift between pairs.
        overhead = statistics.median(
            t.wall / p.wall for p, t in zip(plain, traced)) - 1.0
        metrics["trace.overhead"] = overhead
        walls = [s.wall for s in plain]
        spread = ((max(walls) - min(walls)) / statistics.median(walls)
                  if len(walls) > 1 else None)
        never = sorted({name for s in traced if s.ok
                        for name in fires if name not in fired(s.result["trace"])})
        if never:
            failed += 1
            run.problems.append("wrappers that never fired: " + ", ".join(never))
        if spread is None:
            resolved = "not resolved: one pair gives no untraced spread"
        elif abs(overhead) < spread:
            resolved = f"not resolved: below the untraced spread {spread:.1%}"
        else:
            resolved = f"above the untraced spread {spread:.1%}"
        lines = [
            f"tracing overhead {overhead:+.1%}, median traced/untraced wall_s "
            f"ratio over {len(traced)} pair{'s' * (len(traced) != 1)} "
            f"({resolved})",
            "unattributed share: parent "
            f"{metrics['unattributed.parent.share']:.1%}, workers "
            f"{metrics['unattributed.workers.share']:.1%}",
            "self time by layer (s): " + ", ".join(
                f"{name[:-7]} {metrics[name]:.3f}" for name in units
                if name.endswith(".self_s") and metrics[name]),
        ]
        return _result(run, failed, metrics, units), lines
    finally:
        run.close()


def _result(run: Run, failed: int, metrics: dict,
            units: dict[str, str]) -> dict:
    return {
        "correct": failed == 0,
        "attempted": len(run.samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "problems": run.problems,
        "pool_width": next((s.result["pool_width"] for s in run.samples
                            if s.result), None),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["report", "fuzz-jit", "check"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    missing = missing_sources()
    if missing:
        print(f"perfbench: not a checkout of the program; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    machine = host()
    if machine["cpu_count"] != machine["affinity_cpus"]:
        print(f"perfbench: refusing to run: os.cpu_count() is "
              f"{machine['cpu_count']} but {machine['affinity_cpus']} CPUs "
              "are usable, and the pool is sized from os.cpu_count()",
              file=sys.stderr)
        return 3
    become_subreaper()

    spec = workload_spec(args.workload, args.seed)
    layers = load_layers()
    if args.trace:
        result, lines = measure_traced(
            spec, args.seconds, layers["workloads"][args.workload]["fires"],
            layer_units(layers))
    else:
        result, lines = measure(spec, args.seconds)
    machine["loadavg_after"] = [round(load, 2) for load in os.getloadavg()]
    machine["pool_width"] = result.pop("pool_width")
    problems = result.pop("problems")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"host={json.dumps(machine)}")
    for line in lines:
        print(line)
    print(f"error_rate: {result['failed'] / max(result['attempted'], 1):.4f} "
          f"({result['failed']} of {result['attempted']} operations)")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
