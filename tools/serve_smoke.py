#!/usr/bin/env python
"""Solve-service lifecycle gate (``make serve-smoke``).

Boots the HTTP service on an ephemeral port with the provenance ledger,
the event bus and the access log pointed at throwaway directories, then
walks the whole wire contract once:

1. ``GET /healthz`` reports liveness and the pool shape (``inflight``,
   ``capacity``, ``workers``, ``queue_limit``, ``queue_depth``,
   ``uptime_s``);
2. one ``POST`` per solver endpoint (``/solve``, ``/double-oracle``,
   ``/fictitious-play``, ``/ranges``) answers 200 with a
   ``repro.serve/response/v1`` envelope and the correlation headers
   (``Date``, ``X-Request-Id``, ``traceparent``);
3. an invalid request is refused with a structured
   ``repro.serve/error/v1`` body and never reaches a worker;
4. ``GET /metrics`` exposes the ``repro_serve_*`` counters the requests
   just incremented, ``GET /slo`` the live burn-rate report;
5. every successful request left a ``serve.*`` ledger record;
6. **correlation**: one request's ``X-Request-Id`` matches the
   ``trace_id`` of its ledger record, its ``run.start``/``run.end``
   events and its access-log line — the end-to-end trace contract.

Deterministic, self-contained, a few seconds end to end.
"""

from __future__ import annotations

import json
import sys
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

GAME = {
    "vertices": [1, 2, 3, 4, 5, 6],
    "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]],
    "k": 2,
    "nu": 2,
}

ENDPOINT_PARAMS = {
    "solve": {"seed": 0},
    "double-oracle": {},
    "fictitious-play": {"rounds": 40},
    "ranges": {"side": "both"},
}


def post(base: str, path: str, body: bytes):
    request = urllib.request.Request(
        base + path, data=body, headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60.0) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def fetch(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=30.0) as resp:
        return resp.status, resp.read().decode()


def check(condition: bool, label: str) -> None:
    if not condition:
        raise AssertionError(label)
    print(f"  ok: {label}")


def main() -> int:
    from repro.obs import access as obs_access
    from repro.obs import events as obs_events
    from repro.obs import ledger as obs_ledger
    from repro.serve import ERROR_SCHEMA, RESPONSE_SCHEMA, ServeConfig, \
        running_service

    tmp_dir = Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    ledger_dir = tmp_dir / "ledger"
    events_dir = tmp_dir / "events"
    access_dir = tmp_dir / "access"
    obs_ledger.enable_ledger(ledger_dir)
    obs_events.enable_events(events_dir)
    obs_access.enable_access_log(access_dir)
    try:
        with running_service(ServeConfig(workers=2, queue_limit=4)) \
                as (service, base):
            print(f"service up at {base}")

            status, text = fetch(base, "/healthz")
            health = json.loads(text)
            check(status == 200 and health["status"] == "ok",
                  "healthz answers ok")
            check(health["capacity"] == service.pool.capacity,
                  "healthz reports pool capacity")
            check(health["workers"] == 2 and health["queue_limit"] == 4,
                  "healthz reports workers and queue_limit")
            check(health["queue_depth"] == 0,
                  "healthz reports an idle queue_depth")
            check(isinstance(health["uptime_s"], float)
                  and health["uptime_s"] >= 0.0,
                  "healthz reports uptime_s")

            trace_ids = {}
            for endpoint, params in ENDPOINT_PARAMS.items():
                body = json.dumps({"game": GAME, "params": params}).encode()
                status, payload, headers = post(base, f"/{endpoint}", body)
                check(status == 200, f"/{endpoint} answers 200")
                check(payload["schema"] == RESPONSE_SCHEMA,
                      f"/{endpoint} wraps the response envelope")
                trace_id = headers.get("X-Request-Id", "")
                check(len(trace_id) == 32
                      and all(c in "0123456789abcdef" for c in trace_id),
                      f"/{endpoint} echoes a 32-hex X-Request-Id")
                check(headers.get("traceparent", "").startswith(
                          f"00-{trace_id}-"),
                      f"/{endpoint} echoes a matching traceparent")
                check("Date" in headers, f"/{endpoint} carries a Date header")
                trace_ids[endpoint] = trace_id

            status, payload, headers = post(base, "/solve", b"{broken json")
            check(status == 400 and payload["schema"] == ERROR_SCHEMA,
                  "malformed JSON is a structured 400")
            check(payload["error"]["code"] == "invalid-json",
                  "error code is invalid-json")
            check(len(headers.get("X-Request-Id", "")) == 32,
                  "error responses carry X-Request-Id too")

            status, text = fetch(base, "/metrics")
            check(status == 200, "/metrics answers 200")
            check("repro_serve_requests_count" in text,
                  "metrics expose the request counter")
            check("repro_serve_errors_count" in text,
                  "metrics expose the error counter")

            status, text = fetch(base, "/slo")
            slo_doc = json.loads(text)
            check(status == 200
                  and slo_doc["schema"] == "repro.obs/slo-report/v1",
                  "/slo answers the slo-report document")
            check(any(r["requests"] > 0 for r in slo_doc["results"]),
                  "slo engine observed the requests")
    finally:
        obs_access.disable_access_log()
        obs_events.disable_events()
        obs_ledger.disable_ledger()

    records = obs_ledger.read_runs(directory=ledger_dir)
    entry_points = {record["entry_point"] for record in records}
    for endpoint in ENDPOINT_PARAMS:
        check(f"serve.{endpoint}" in entry_points,
              f"ledger recorded serve.{endpoint}")
    statuses = {record["entry_point"]: record.get("status")
                for record in records}
    check(all(statuses[f"serve.{e}"] == "ok" for e in ENDPOINT_PARAMS),
          "all serve records finished ok")

    # The correlation contract: the trace id the /solve response echoed
    # is the trace id of its ledger record, run events and access line.
    solve_trace = trace_ids["solve"]
    solve_records = [r for r in records
                     if r["entry_point"] == "serve.solve"]
    check(any(r.get("trace_id") == solve_trace for r in solve_records),
          "ledger record carries the response's trace id")
    events = obs_events.read_events(events_dir / obs_events.SINK_FILENAME)
    run_events = [e for e in events
                  if e.get("type") in ("run.start", "run.end")
                  and e.get("payload", {}).get("entry_point")
                  == "serve.solve"]
    check(len(run_events) >= 2 and all(
              e["payload"].get("trace_id") == solve_trace
              for e in run_events),
          "run.start/run.end events carry the response's trace id")
    access_lines = obs_access.read_access(access_dir)
    check(any(line.get("trace_id") == solve_trace
              and line.get("endpoint") == "/solve"
              and line.get("status") == 200
              for line in access_lines),
          "access log line carries the response's trace id")
    check(any(line.get("status") == 400
              and line.get("error_code") == "invalid-json"
              for line in access_lines),
          "access log recorded the rejected request")

    print("serve-smoke OK: endpoints, error contract, metrics, slo, "
          "ledger records and end-to-end trace correlation all verified")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except AssertionError as exc:
        print(f"serve-smoke FAILED: {exc}", file=sys.stderr)
        raise SystemExit(1)
