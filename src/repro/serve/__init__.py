"""``repro.serve`` — the supervised simulation-as-a-service tier.

One hardened execution tier for every campaign in the tree (CPI tables,
DSE sweeps, fault campaigns, fuzz runs):

* :mod:`~repro.serve.service` — the asyncio campaign service;
* :mod:`~repro.serve.supervisor` — health-checked worker pool with
  kill/respawn, deterministic backoff retries, poison-task quarantine,
  and serial degradation;
* :mod:`~repro.serve.admission` — bounded priority job queue, per-client
  rate limiting, load shedding;
* :mod:`~repro.serve.store` — durable content-fingerprint-keyed result
  store (sqlite): dedup, and resume of an interrupted campaign from
  its completed tasks;
* :mod:`~repro.serve.tasks` — the JSON-pure task-kind registry, and
  :class:`~repro.serve.tasks.LocalClient`, every campaign's default
  client (a supervised pool per call, nothing stored);
* :mod:`~repro.serve.http` / :mod:`~repro.serve.client` — local
  HTTP/JSON API and the in-process/HTTP clients;
* :mod:`~repro.serve.chaos` — misbehaving task kinds for supervisor
  tests and the kill -9 chaos gate.

``python -m repro.serve --smoke`` is the CI gate; ``--chaos`` is the
kill -9 resume demonstration; ``--serve`` runs the HTTP frontend.
"""

import importlib

from repro.serve import chaos as _chaos   # register chaos task kinds

del _chaos

#: Public name -> defining submodule.  Names load on first access, so
#: importing one submodule (``resilient_map`` imports only the
#: supervisor) does not pull in asyncio, sqlite3 and urllib with the
#: service, store and HTTP client.
_EXPORTS = {
    "AdmissionController": "admission",
    "AdmissionError": "admission",
    "CampaignService": "service",
    "HttpClient": "client",
    "InProcessClient": "client",
    "Job": "service",
    "LocalClient": "tasks",
    "ResultStore": "store",
    "SupervisedTask": "supervisor",
    "Supervisor": "supervisor",
    "TaskOutcome": "supervisor",
    "canonical_json": "store",
    "execute": "tasks",
    "execute_traced": "tasks",
    "register": "tasks",
    "registered_kinds": "tasks",
    "task_fingerprint": "store",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
