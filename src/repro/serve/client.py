"""Clients for the campaign service.

Every campaign client exposes the same one-call surface the in-tree
campaigns need — ``map(kind, payloads) -> ordered, decoded results`` —
and :meth:`repro.dse.cpi.CpiTable.populate`,
:func:`repro.dse.sweep.sweep`,
:func:`repro.resilience.campaign.fault_campaign`, and
:func:`repro.verify.runner.fuzz_run` make exactly one such call per
fan-out, through whichever client their ``service=`` names.  Results
and their order are the same with every client.

* :class:`repro.serve.tasks.LocalClient` — a supervised pool for one
  call, nothing stored; every campaign's default.  It lives beside the
  task registry, not here, so a default campaign never imports the
  service, its sqlite store or asyncio;
* :class:`InProcessClient` wraps a live :class:`CampaignService` in the
  same process (durable-store dedup and resume);
* :class:`HttpClient` speaks the :mod:`repro.serve.http` JSON API with
  nothing but ``urllib`` — suitable for a separate service process.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from repro.errors import CampaignError
from repro.serve.admission import AdmissionError
from repro.serve.service import CampaignService
from repro.serve.tasks import decode_result


class InProcessClient:
    """Synchronous facade over an in-process :class:`CampaignService`."""

    def __init__(self, service: CampaignService) -> None:
        self.service = service

    def map(self, kind: str, payloads: list, *, client: str = "local",
            priority: int = 0, timeout: float | None = None) -> list:
        """Run one campaign to completion; ordered, decoded results."""
        return self.service.run_job(
            kind, list(payloads), client=client, priority=priority,
            timeout=timeout,
        )

    def stats(self) -> dict:
        return self.service.stats()


class HttpClient:
    """Minimal JSON-over-HTTP client for a remote campaign service."""

    def __init__(self, base_url: str, *, client: str = "http",
                 poll_interval: float = 0.05) -> None:
        self.base_url = base_url.rstrip("/")
        self.client = client
        self.poll_interval = poll_interval

    # -- transport -------------------------------------------------------

    def _request(self, method: str, path: str, body: dict | None = None):
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30.0) as response:
                return response.status, json.loads(response.read() or b"{}")
        except urllib.error.HTTPError as exc:
            payload = exc.read()
            try:
                decoded = json.loads(payload or b"{}")
            except ValueError:
                decoded = {"error": payload.decode("utf-8", "replace")}
            return exc.code, decoded

    # -- API -------------------------------------------------------------

    def submit(self, kind: str, payloads: list, *, priority: int = 0) -> str:
        status, body = self._request("POST", "/jobs", {
            "kind": kind,
            "payloads": list(payloads),
            "priority": priority,
            "client": self.client,
        })
        if status in (429, 503):
            raise AdmissionError(
                body.get("error", "service shed the job"),
                reason=body.get("reason", "unknown"),
                retry_after=body.get("retry_after"),
            )
        if status != 202:
            raise CampaignError(
                f"job submission failed (HTTP {status}): {body}"
            )
        return body["job_id"]

    def status(self, job_id: str) -> dict:
        status, body = self._request("GET", f"/jobs/{job_id}")
        if status != 200:
            raise CampaignError(f"job {job_id} status failed "
                                f"(HTTP {status}): {body}")
        return body

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            body = self.status(job_id)
            if body["state"] in ("done", "failed"):
                return body
            if deadline is not None and time.monotonic() > deadline:
                raise CampaignError(
                    f"timed out waiting for job {job_id} "
                    f"({body['resolved']}/{body['total']} resolved)"
                )
            time.sleep(self.poll_interval)

    def results(self, job_id: str) -> list:
        status, body = self._request("GET", f"/jobs/{job_id}/results")
        if status != 200:
            raise CampaignError(
                f"job {job_id} failed (HTTP {status}): "
                f"{body.get('error', body)}"
            )
        return [
            decode_result(body["kind"], value) for value in body["results"]
        ]

    def map(self, kind: str, payloads: list, *, priority: int = 0,
            timeout: float | None = None) -> list:
        job_id = self.submit(kind, payloads, priority=priority)
        self.wait(job_id, timeout=timeout)
        return self.results(job_id)

    def stats(self) -> dict:
        status, body = self._request("GET", "/stats")
        if status != 200:
            raise CampaignError(f"stats failed (HTTP {status}): {body}")
        return body

    def metrics_text(self) -> str:
        """Raw Prometheus text exposition from ``GET /metrics``."""
        request = urllib.request.Request(self.base_url + "/metrics")
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.read().decode("utf-8")

    def events(self, job_id: str, timeout: float = 60.0):
        """Iterate a job's SSE frames (decoded JSON) until the stream
        closes on the terminal ``done``/``failed`` frame."""
        request = urllib.request.Request(
            self.base_url + f"/jobs/{job_id}/events"
        )
        with urllib.request.urlopen(request, timeout=timeout) as response:
            data: str | None = None
            for raw in response:
                line = raw.decode("utf-8").rstrip("\r\n")
                if not line:
                    if data is not None:
                        yield json.loads(data)
                    data = None
                elif line.startswith("data:"):
                    data = line[len("data:"):].strip()
                # "event:" names duplicate the frame's "event" field and
                # ":" comment lines (drop notices) carry no JSON.

    def healthy(self) -> bool:
        try:
            status, _body = self._request("GET", "/healthz")
        except (OSError, CampaignError):
            return False
        return status == 200
