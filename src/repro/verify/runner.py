"""Campaign driver: fan a batch of fuzz cases over worker processes.

The per-case check is pure (a seed fully determines the case and its
result), so a campaign maps one ``fuzz-case`` task per seed
(:mod:`repro.serve.tasks`) through a campaign client — byte-identical
results with every client at any worker count, with the supervised
pool's timeout/retry/serial-degradation hardening for free.
"""

from __future__ import annotations

from repro.serve.tasks import LocalClient
from repro.verify.harness import real_divergences

#: Seconds a case may run in a worker before the pool kills and retries it.
CASE_TIMEOUT = 120.0


def fuzz_run(count: int, seed: int = 0, ref_configs: int = 4,
             jit: bool = False,
             service=LocalClient(timeout=CASE_TIMEOUT)) -> list[dict]:
    """Check ``count`` generated cases; returns per-case result dicts.

    ``service`` is the campaign client the ``fuzz-case`` tasks run
    through.  The default, ``LocalClient(timeout=CASE_TIMEOUT)``, runs
    them on a supervised pool for this call and kills a case still
    running after 120 s.  A :mod:`repro.serve` service client instead
    dedups them against its durable store, so re-fuzzing an overlapping
    seed range only executes the new seeds.
    """
    return service.map("fuzz-case", [
        {"seed": seed + index, "ref_configs": ref_configs, "jit": jit}
        for index in range(count)
    ])


def summarize_run(results: list[dict]) -> dict:
    """Aggregate a campaign: totals plus the divergent cases."""
    divergent = [r for r in results if real_divergences(r)]
    generator_bugs = [
        r for r in results
        if any(d["kind"] in ("golden-timeout", "generator-invalid")
               for d in r["divergences"])
    ]
    return {
        "cases": len(results),
        "configs_checked": sum(r["configs_checked"] for r in results),
        "divergent_cases": [r["name"] for r in divergent],
        "divergences": [d for r in divergent for d in real_divergences(r)],
        "generator_bugs": [r["name"] for r in generator_bugs],
    }
