"""Tests for :mod:`repro.serve` — the HTTP solve service.

The happy paths ride a shared module-scoped service; the failure-mode
tests (saturation, timeout, shutdown) spin up dedicated services with
deliberately tiny pools and monkeypatched slow runners so the races are
deterministic.
"""

import json
import pathlib
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.cache as result_cache
import repro.equilibria.solve as solve_module
from repro.core.serialize import game_from_json, solve_result_to_json
from repro.equilibria import solve_game
from repro.obs import access as obs_access
from repro.obs import events as obs_events
from repro.obs import ledger as obs_ledger
from repro.obs import metrics
from repro.serve import (
    ENDPOINTS,
    ERROR_SCHEMA,
    RESPONSE_SCHEMA,
    RequestError,
    ServeConfig,
    WorkerPool,
    running_service,
)
from repro.serve.routes import EndpointSpec, prepare
from repro.solvers.double_oracle import (
    double_oracle,
    double_oracle_result_to_json,
)
from repro.solvers.fictitious_play import (
    fictitious_play,
    fictitious_play_result_to_json,
)

PATH_GAME = {
    "vertices": [1, 2, 3, 4],
    "edges": [[1, 2], [2, 3], [3, 4]],
    "k": 2,
    "nu": 1,
}

#: A weighted game (vertex weights 1-2): no served endpoint models weights.
WEIGHTED_GAME = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "cache"
     / "weighted_game_a.json").read_text(encoding="utf-8"))

#: C5 with k=1: k < rho=3 and no IS/VC partition, so the paper's
#: machinery (extensions disabled) finds no equilibrium.
CYCLE5_GAME = {
    "vertices": [0, 1, 2, 3, 4],
    "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]],
    "k": 1,
    "nu": 1,
}


def post_full(base, path, body: bytes, headers=None, timeout=30.0):
    """POST raw bytes; return (status, parsed JSON body, response headers)."""
    request = urllib.request.Request(
        base + path, data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


def post_raw(base, path, body: bytes, timeout=30.0):
    """POST raw bytes; return (status, parsed JSON body)."""
    status, document, _headers = post_full(base, path, body, timeout=timeout)
    return status, document


def post(base, path, document, timeout=30.0):
    return post_raw(base, path, json.dumps(document).encode(), timeout)


def get(base, path, timeout=30.0):
    try:
        with urllib.request.urlopen(base + path, timeout=timeout) as resp:
            return resp.status, resp.read().decode(), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), exc.headers


@pytest.fixture(scope="module")
def service():
    with running_service(ServeConfig(workers=2, queue_limit=4)) as pair:
        yield pair


class TestEndpoints:
    def test_solve(self, service):
        _svc, base = service
        status, body = post(base, "/solve", {"game": PATH_GAME})
        assert status == 200
        assert body["schema"] == RESPONSE_SCHEMA
        assert body["endpoint"] == "solve"
        assert body["cache_hit"] is False
        assert body["result"]["solve"]["kind"] == "pure"

    def test_solve_with_params(self, service):
        _svc, base = service
        status, body = post(base, "/solve", {
            "game": PATH_GAME,
            "params": {"seed": 3, "allow_extensions": False},
        })
        assert status == 200
        assert body["result"]["solve"]["kind"] == "pure"

    def test_double_oracle(self, service):
        _svc, base = service
        status, body = post(base, "/double-oracle", {
            "game": PATH_GAME, "params": {"max_iterations": 50},
        })
        assert status == 200
        assert body["result"]["certified_gap"] <= 1e-6
        assert body["result"]["value"] == pytest.approx(1.0)

    def test_fictitious_play(self, service):
        _svc, base = service
        status, body = post(base, "/fictitious-play", {
            "game": PATH_GAME, "params": {"rounds": 30},
        })
        assert status == 200
        assert body["result"]["rounds"] == 30
        assert body["result"]["lower_bound"] <= body["result"]["upper_bound"]

    def test_ranges_both_sides(self, service):
        _svc, base = service
        status, body = post(base, "/ranges", {"game": PATH_GAME})
        assert status == 200
        result = body["result"]
        assert set(result) == {"attacker", "defender"}
        # P4 with k=2 is fully covered: both cover edges are mandatory.
        assert result["defender"]["required"] == [[1, 2], [3, 4]]
        edge_keys = [key for key, _low, _high in result["defender"]["ranges"]]
        assert edge_keys == [[1, 2], [2, 3], [3, 4]]

    def test_ranges_single_side(self, service):
        _svc, base = service
        status, body = post(base, "/ranges", {
            "game": PATH_GAME, "params": {"side": "attacker"},
        })
        assert status == 200
        assert set(body["result"]) == {"attacker"}


class TestValidationErrors:
    def test_malformed_json(self, service):
        _svc, base = service
        status, body = post_raw(base, "/solve", b"{not json")
        assert status == 400
        assert body["schema"] == ERROR_SCHEMA
        assert body["error"]["code"] == "invalid-json"

    def test_non_object_body(self, service):
        _svc, base = service
        status, body = post_raw(base, "/solve", b"[1, 2, 3]")
        assert status == 400
        assert body["error"]["code"] == "invalid-request"

    def test_missing_game(self, service):
        _svc, base = service
        status, body = post(base, "/solve", {"params": {}})
        assert status == 400
        assert body["error"]["code"] == "invalid-request"

    def test_schema_invalid_game(self, service):
        _svc, base = service
        bad = dict(PATH_GAME, edges=[[1, 9]])  # 9 is not a vertex
        status, body = post(base, "/solve", {"game": bad})
        assert status == 400
        assert body["error"]["code"] == "invalid-game"

    @pytest.mark.parametrize(
        "endpoint", ["solve", "ranges", "double-oracle", "fictitious-play"])
    def test_weighted_game_rejected(self, service, endpoint):
        _svc, base = service
        status, body = post(base, f"/{endpoint}", {"game": WEIGHTED_GAME})
        assert status == 400
        assert body["error"]["code"] == "invalid-game"
        assert body["error"]["message"] == (
            f"the /{endpoint} endpoint takes unweighted games only")

    def test_unknown_param(self, service):
        _svc, base = service
        status, body = post(base, "/solve", {
            "game": PATH_GAME, "params": {"bogus": 1},
        })
        assert status == 400
        assert body["error"]["code"] == "invalid-params"
        assert "bogus" in body["error"]["message"]

    @pytest.mark.parametrize("params", [
        {"lazy_attacker": True},
        {"method": "greedy"},
    ], ids=["lazy-attacker", "greedy-method"])
    def test_removed_double_oracle_params_rejected(self, service, params):
        _svc, base = service
        status, body = post(base, "/double-oracle", {
            "game": PATH_GAME, "params": params,
        })
        assert status == 400
        assert body["error"]["code"] == "invalid-params"

    def test_param_type_error(self, service):
        _svc, base = service
        status, body = post(base, "/fictitious-play", {
            "game": PATH_GAME, "params": {"rounds": "many"},
        })
        assert status == 400
        assert body["error"]["code"] == "invalid-params"

    def test_degenerate_rounds_rejected_at_the_door(self, service):
        _svc, base = service
        status, body = post(base, "/fictitious-play", {
            "game": PATH_GAME, "params": {"rounds": 0},
        })
        assert status == 400
        assert body["error"]["code"] == "invalid-params"

    def test_ranges_tuple_limit_is_capped(self, service):
        """A served probe never enumerates more tuples than the library
        default allows: a larger ``tuple_limit`` is a 400, not a hang."""
        _svc, base = service
        per_code = metrics.counter("serve.errors.invalid-params.count")
        before = per_code.value
        status, body = post(base, "/ranges", {
            "game": PATH_GAME, "params": {"tuple_limit": 100_001},
        })
        assert status == 400
        assert body["error"]["code"] == "invalid-params"
        assert "tuple_limit" in body["error"]["message"]
        _wait_for(lambda: per_code.value >= before + 1,
                  "invalid-params per-code counter")

    def test_no_equilibrium_is_422(self, service):
        _svc, base = service
        status, body = post(base, "/solve", {
            "game": CYCLE5_GAME, "params": {"allow_extensions": False},
        })
        assert status == 422
        assert body["error"]["code"] == "no-equilibrium"
        assert "partition" in body["error"]["message"]

    def test_unknown_endpoint_404(self, service):
        _svc, base = service
        status, body = post(base, "/does-not-exist", {"game": PATH_GAME})
        assert status == 404
        assert body["error"]["code"] == "not-found"

    def test_wrong_method_405(self, service):
        _svc, base = service
        status, text, _headers = get(base, "/solve")
        assert status == 405
        assert json.loads(text)["error"]["code"] == "bad-method"

    def test_body_too_large_413(self):
        config = ServeConfig(workers=1, queue_limit=0, max_body_bytes=64)
        with running_service(config) as (_svc, base):
            status, body = post(base, "/solve", {"game": PATH_GAME})
            assert status == 413
            assert body["error"]["code"] == "body-too-large"


class TestOperationalEndpoints:
    def test_healthz(self, service):
        svc, base = service
        status, text, headers = get(base, "/healthz")
        assert status == 200
        payload = json.loads(text)
        assert payload["status"] == "ok"
        assert payload["capacity"] == svc.pool.capacity
        assert payload["inflight"] >= 0
        assert payload["workers"] == svc.pool.workers
        assert payload["queue_limit"] == svc.pool.queue_limit
        assert payload["queue_depth"] >= 0
        assert isinstance(payload["uptime_s"], float)
        assert payload["uptime_s"] >= 0.0

    def test_slo_endpoint(self, service):
        _svc, base = service
        post(base, "/solve", {"game": PATH_GAME})
        status, text, _headers = get(base, "/slo")
        assert status == 200
        payload = json.loads(text)
        assert payload["schema"] == "repro.obs/slo-report/v1"
        assert {r["name"] for r in payload["results"]} == {
            "availability", "latency"}

    def test_slo_rejects_post(self, service):
        _svc, base = service
        status, body = post(base, "/slo", {"game": PATH_GAME})
        assert status == 405
        assert body["error"]["code"] == "bad-method"

    def test_debug_events_buffer(self, service):
        _svc, base = service
        obs_events.enable_events(sink=False)
        try:
            post(base, "/solve", {"game": PATH_GAME})
            _wait_for(lambda: any(
                e["type"] == "run.end"
                and e["payload"]["entry_point"] == "serve.solve"
                for e in obs_events.recent()), "run.end event buffered")
            status, text, _headers = get(base, "/debug/events")
            payload = json.loads(text)
            assert status == 200
            assert payload["schema"] == obs_events.EVENT_SCHEMA
            assert payload["count"] == len(payload["events"]) > 0
            status, text, _headers = get(base, "/debug/events?n=1")
            assert json.loads(text)["count"] <= 1
        finally:
            obs_events.disable_events()

    def test_debug_events_bad_query(self, service):
        _svc, base = service
        for query in ("?n=x", "?n=-1"):
            status, text, _headers = get(base, f"/debug/events{query}")
            assert status == 400
            assert json.loads(text)["error"]["code"] == "bad-query"

    def test_metrics_prometheus(self, service):
        _svc, base = service
        post(base, "/solve", {"game": PATH_GAME})
        status, text, headers = get(base, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_serve_requests_count" in text
        assert "# TYPE" in text


class TestObservability:
    def test_request_writes_ledger_record(self, tmp_path, service):
        _svc, base = service
        obs_ledger.enable_ledger(tmp_path)
        try:
            status, _body = post(base, "/solve", {"game": PATH_GAME})
            assert status == 200
        finally:
            obs_ledger.disable_ledger()
        entry_points = [r["entry_point"] for r in obs_ledger.read_runs(
            directory=tmp_path)]
        assert "serve.solve" in entry_points
        # The library solver's own record nests inside the request's.
        assert "equilibria.solve" in entry_points

    def test_request_publishes_run_events(self, tmp_path, service):
        _svc, base = service
        obs_events.enable_events(tmp_path)
        try:
            status, _body = post(base, "/fictitious-play", {
                "game": PATH_GAME, "params": {"rounds": 5},
            })
            assert status == 200
        finally:
            obs_events.disable_events()
        events = obs_events.read_events(tmp_path / obs_events.SINK_FILENAME)
        starts = [e for e in events if e["type"] == "run.start"
                  and e["payload"]["entry_point"] == "serve.fictitious-play"]
        ends = [e for e in events if e["type"] == "run.end"
                and e["payload"]["entry_point"] == "serve.fictitious-play"]
        assert len(starts) == 1 and len(ends) == 1

    def test_cache_hit_served_inline(self, tmp_path, service):
        _svc, base = service
        result_cache.enable_cache(tmp_path)
        try:
            status1, body1 = post(base, "/solve", {"game": PATH_GAME})
            status2, body2 = post(base, "/solve", {"game": PATH_GAME})
        finally:
            result_cache.disable_cache()
        assert status1 == status2 == 200
        assert body1["cache_hit"] is False
        assert body2["cache_hit"] is True
        assert body1["result"] == body2["result"]

    def test_cache_key_respects_params(self, tmp_path, service):
        _svc, base = service
        result_cache.enable_cache(tmp_path)
        try:
            _s, body1 = post(base, "/fictitious-play", {
                "game": PATH_GAME, "params": {"rounds": 5},
            })
            _s, body2 = post(base, "/fictitious-play", {
                "game": PATH_GAME, "params": {"rounds": 6},
            })
        finally:
            result_cache.disable_cache()
        assert body1["cache_hit"] is False
        assert body2["cache_hit"] is False  # different params, different key


#: (endpoint, library call, non-default params) for every cached endpoint.
LIBRARY_CALLS = [
    ("solve", lambda game, **p: solve_result_to_json(solve_game(game, **p)),
     {"seed": 3, "allow_extensions": False}),
    ("double-oracle",
     lambda game, **p: double_oracle_result_to_json(double_oracle(game, **p)),
     {"tolerance": 1e-7, "max_iterations": 50, "method": "bnb"}),
    ("fictitious-play",
     lambda game, **p: fictitious_play_result_to_json(
         fictitious_play(game, **p)),
     {"rounds": 7, "method": "greedy", "tolerance": 0.5}),
]


def _cache_rows():
    store = result_cache.get_cache()
    with store._lock:
        return [row[0] for row in store._conn.execute(
            "SELECT payload FROM cache_entries")]


def _rewrite_cache_rows(payload):
    store = result_cache.get_cache()
    with store._lock:
        with store._conn:
            store._conn.execute("UPDATE cache_entries SET payload = ?",
                                (payload,))


class TestServedCacheClient:
    """The service answers through the library's own cached calls."""

    @pytest.mark.parametrize("endpoint, library, params", LIBRARY_CALLS,
                             ids=[c[0] for c in LIBRARY_CALLS])
    @pytest.mark.parametrize("defaults", [True, False],
                             ids=["defaults", "params"])
    def test_library_primed_entry_is_a_served_hit(
            self, tmp_path, service, endpoint, library, params, defaults):
        _svc, base = service
        params = {} if defaults else params
        game = game_from_json(json.dumps(PATH_GAME))
        result_cache.enable_cache(tmp_path)
        try:
            document = json.loads(library(game, **params))
            status, body = post(base, f"/{endpoint}",
                                {"game": PATH_GAME, "params": params})
        finally:
            result_cache.disable_cache()
        assert status == 200
        assert body["cache_hit"] is True
        assert body["result"] == document

    def test_unique_request_counts_one_miss(self, tmp_path, service):
        _svc, base = service
        misses = metrics.counter("cache.misses.count")
        result_cache.enable_cache(tmp_path)
        try:
            before = misses.value
            status, body = post(base, "/solve", {"game": PATH_GAME})
            after = misses.value
        finally:
            result_cache.disable_cache()
        assert status == 200 and body["cache_hit"] is False
        assert after == before + 1

    def test_one_fingerprint_probe_and_encode_per_request(
            self, tmp_path, monkeypatch):
        calls = {"fingerprint": 0, "probe": 0, "encode": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(result_cache, "game_sha256",
                            counted("fingerprint", result_cache.game_sha256))
        monkeypatch.setattr(result_cache.ResultCache, "probe",
                            counted("probe", result_cache.ResultCache.probe))
        monkeypatch.setattr(solve_module, "solve_result_to_json",
                            counted("encode", solve_result_to_json))
        body = json.dumps({"game": PATH_GAME}).encode()
        result_cache.enable_cache(tmp_path)
        try:
            miss = prepare("solve", body)
            assert miss.response is None
            cold = miss.run()
            assert calls == {"fingerprint": 1, "probe": 1, "encode": 1}
            hit = prepare("solve", body)
        finally:
            result_cache.disable_cache()
        assert calls == {"fingerprint": 2, "probe": 2, "encode": 1}
        assert hit.response == {**cold, "cache_hit": True}

    @pytest.mark.parametrize("defect", [
        pytest.param(lambda text: json.dumps({"format": "old-v0"}),
                     id="stale-format"),
        pytest.param(lambda text: text[:len(text) // 2], id="torn"),
    ])
    def test_bad_row_is_served_as_a_miss(self, tmp_path, service, defect):
        _svc, base = service
        errors = metrics.counter("cache.errors.count")
        result_cache.enable_cache(tmp_path)
        try:
            _s, cold = post(base, "/solve", {"game": PATH_GAME})
            (stored,) = _cache_rows()
            _rewrite_cache_rows(defect(stored))
            before = errors.value
            status, body = post(base, "/solve", {"game": PATH_GAME})
            assert errors.value == before + 1
            assert _cache_rows() == [stored]  # the bad row is rewritten
            _s, again = post(base, "/solve", {"game": PATH_GAME})
        finally:
            result_cache.disable_cache()
        assert status == 200
        assert body == cold  # a miss, with the correct result
        assert again["cache_hit"] is True
        assert again["result"] == cold["result"]


def _wait_for(condition, label, timeout=10.0):
    """Poll until ``condition()`` — the request epilogue (counters,
    access lines, events) runs after the response bytes are written, so
    client-side completion does not imply the sinks are stamped yet."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting: {label}"
        time.sleep(0.01)


VALID_TRACEPARENT = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"


def _assert_correlation_headers(headers):
    """Every response carries the correlation header triple."""
    trace_id = headers["X-Request-Id"]
    assert len(trace_id) == 32
    int(trace_id, 16)
    traceparent = headers["traceparent"]
    prefix, span_id, flags = (
        traceparent[:36], traceparent[36:52], traceparent[52:])
    assert prefix == f"00-{trace_id}-"
    assert len(span_id) == 16
    int(span_id, 16)
    assert flags == "-01"
    assert headers["Date"].endswith("GMT")
    return trace_id


class TestCorrelationHeaders:
    def test_success_response_headers(self, service):
        _svc, base = service
        status, _body, headers = post_full(
            base, "/solve", json.dumps({"game": PATH_GAME}).encode())
        assert status == 200
        _assert_correlation_headers(headers)

    def test_error_response_headers(self, service):
        _svc, base = service
        status, _body, headers = post_full(base, "/nope", b"{}")
        assert status == 404
        _assert_correlation_headers(headers)

    def test_fresh_trace_per_request(self, service):
        _svc, base = service
        body = json.dumps({"game": PATH_GAME}).encode()
        _s, _b, first = post_full(base, "/solve", body)
        _s, _b, second = post_full(base, "/solve", body)
        assert first["X-Request-Id"] != second["X-Request-Id"]

    def test_inbound_traceparent_honored(self, service):
        _svc, base = service
        status, _body, headers = post_full(
            base, "/solve", json.dumps({"game": PATH_GAME}).encode(),
            headers={"traceparent": VALID_TRACEPARENT})
        assert status == 200
        trace_id = _assert_correlation_headers(headers)
        assert trace_id == "4bf92f3577b34da6a3ce929d0e0e4736"
        # This hop's span id, not an echo of the client's parent id.
        assert headers["traceparent"] != VALID_TRACEPARENT

    def test_malformed_traceparent_mints_fresh(self, service):
        _svc, base = service
        for bogus in ("garbage", f"00-{'0' * 32}-{'0' * 16}-01"):
            status, _body, headers = post_full(
                base, "/solve", json.dumps({"game": PATH_GAME}).encode(),
                headers={"traceparent": bogus})
            assert status == 200
            trace_id = _assert_correlation_headers(headers)
            assert trace_id != "0" * 32


class TestEndToEndCorrelation:
    #: A trace id no other request in this module uses: the service is
    #: module-scoped, so an earlier request's epilogue can land after
    #: this test enables the sinks, and only the id tells them apart.
    TRACE_ID = "0af7651916cd43dd8448eb211c80319c"

    def test_one_trace_id_across_every_sink(self, tmp_path, service):
        """The acceptance loop: response header == ledger record ==
        run events == access line == span tree, for one request."""
        _svc, base = service
        access_dir, events_dir = tmp_path / "access", tmp_path / "events"
        events_file = events_dir / obs_events.SINK_FILENAME

        def mine(records):
            return [r for r in records if r.get("trace_id") == self.TRACE_ID
                    or r.get("payload", {}).get("trace_id") == self.TRACE_ID]

        obs_ledger.enable_ledger(tmp_path / "ledger")
        obs_events.enable_events(events_dir)
        obs_access.enable_access_log(access_dir)
        try:
            status, _body, headers = post_full(
                base, "/solve", json.dumps({"game": PATH_GAME}).encode(),
                headers={"traceparent":
                         f"00-{self.TRACE_ID}-b7ad6b7169203331-01"})
            assert status == 200
            trace_id = headers["X-Request-Id"]
            assert trace_id == self.TRACE_ID
            _wait_for(lambda: mine(obs_access.read_access(access_dir)),
                      "access line written")
        finally:
            obs_access.disable_access_log()
            obs_events.disable_events()
            obs_ledger.disable_ledger()

        records = [r for r in obs_ledger.read_runs(
            directory=tmp_path / "ledger")
            if r["entry_point"] == "serve.solve"]
        assert [r["trace_id"] for r in records] == [trace_id]
        # The span tree in the record carries the same identity.
        assert records[0]["spans"]
        assert all(s["trace_id"] == trace_id for s in records[0]["spans"])

        events = obs_events.read_events(events_file)
        run_events = [e for e in events if e["type"] in
                      ("run.start", "run.end")
                      and e["payload"]["entry_point"] == "serve.solve"]
        assert len(run_events) == 2
        assert all(e["payload"]["trace_id"] == trace_id for e in run_events)

        (line,) = mine(obs_access.read_access(access_dir))
        assert line["endpoint"] == "/solve"
        assert line["method"] == "POST"
        assert line["status"] == 200
        assert line["error_code"] is None

    def test_request_latency_histogram(self, service):
        _svc, base = service
        histogram = metrics.histogram("serve.request.seconds")
        before = histogram.count
        post(base, "/solve", {"game": PATH_GAME})
        _wait_for(lambda: histogram.count >= before + 1,
                  "serve.request.seconds observed")


class TestHttpErrorCounters:
    """Regression: responses raised as ``_HttpError`` (HTTP-level
    defects) used to skip the per-code ``serve.errors.<code>.count``
    counters that ``RequestError`` responses always bumped."""

    def test_bad_method_bumps_per_code_counter(self, service):
        _svc, base = service
        per_code = metrics.counter("serve.errors.bad-method.count")
        total = metrics.counter("serve.errors.count")
        before_code, before_total = per_code.value, total.value
        status, _text, _headers = get(base, "/solve")
        assert status == 405
        _wait_for(lambda: per_code.value >= before_code + 1,
                  "bad-method per-code counter")
        assert total.value >= before_total + 1

    def test_body_too_large_bumps_per_code_counter(self):
        per_code = metrics.counter("serve.errors.body-too-large.count")
        before = per_code.value
        config = ServeConfig(workers=1, queue_limit=0, max_body_bytes=64)
        with running_service(config) as (_svc, base):
            status, body = post(base, "/solve", {"game": PATH_GAME})
            assert status == 413
            assert body["error"]["code"] == "body-too-large"
            _wait_for(lambda: per_code.value >= before + 1,
                      "body-too-large per-code counter")


class TestReadRequestDefects:
    """Defects caught inside ``_read_request`` (before routing) still
    produce a correlated error response, bump their per-code counter and
    leave an access-log line."""

    def test_truncated_body(self, tmp_path, service):
        svc, base = service
        per_code = metrics.counter("serve.errors.truncated.count")
        before = per_code.value
        obs_access.enable_access_log(tmp_path)
        try:
            with socket.create_connection(
                    (svc.config.host, svc.port), timeout=10.0) as sock:
                sock.sendall(b"POST /solve HTTP/1.1\r\n"
                             b"Content-Length: 999\r\n\r\nshort")
                sock.shutdown(socket.SHUT_WR)
                response = b""
                while chunk := sock.recv(65536):
                    response += chunk
            assert response.startswith(b"HTTP/1.1 400 ")
            assert b"X-Request-Id: " in response
            assert b'"truncated"' in response
            _wait_for(lambda: obs_access.read_access(tmp_path),
                      "truncated access line")
        finally:
            obs_access.disable_access_log()
        assert per_code.value >= before + 1
        (line,) = obs_access.read_access(tmp_path)
        assert line["status"] == 400
        assert line["error_code"] == "truncated"
        assert line["trace_id"] is not None

    def test_oversized_body(self, tmp_path):
        per_code = metrics.counter("serve.errors.body-too-large.count")
        before = per_code.value
        config = ServeConfig(workers=1, queue_limit=0, max_body_bytes=64)
        obs_access.enable_access_log(tmp_path)
        try:
            with running_service(config) as (_svc, base):
                status, _body, headers = post_full(
                    base, "/solve", json.dumps({"game": PATH_GAME}).encode())
                assert status == 413
                trace_id = _assert_correlation_headers(headers)
                _wait_for(lambda: obs_access.read_access(tmp_path),
                          "oversized access line")
        finally:
            obs_access.disable_access_log()
        assert per_code.value >= before + 1
        (line,) = obs_access.read_access(tmp_path)
        assert line["status"] == 413
        assert line["error_code"] == "body-too-large"
        assert line["trace_id"] == trace_id


def _slow_spec(release: threading.Event) -> EndpointSpec:
    def runner(_game, _params):
        release.wait(timeout=30.0)
        return {"slept": True}
    return EndpointSpec(runner=runner)


class TestBackpressure:
    def test_saturation_returns_429(self, monkeypatch):
        release = threading.Event()
        monkeypatch.setitem(ENDPOINTS, "solve", _slow_spec(release))
        config = ServeConfig(workers=1, queue_limit=0)
        with running_service(config) as (svc, base):
            results = []
            first = threading.Thread(
                target=lambda: results.append(
                    post(base, "/solve", {"game": PATH_GAME})
                ),
            )
            first.start()
            try:
                deadline = time.monotonic() + 10.0
                while svc.pool.inflight < 1:
                    assert time.monotonic() < deadline, "worker never started"
                    time.sleep(0.01)
                status, body = post(base, "/solve", {"game": PATH_GAME})
                assert status == 429
                assert body["error"]["code"] == "saturated"
            finally:
                release.set()
                first.join(timeout=30.0)
            assert results and results[0][0] == 200

    def test_request_timeout_returns_504(self, monkeypatch):
        release = threading.Event()
        monkeypatch.setitem(ENDPOINTS, "solve", _slow_spec(release))
        config = ServeConfig(workers=1, queue_limit=0,
                             request_timeout_s=0.2)
        try:
            with running_service(config) as (_svc, base):
                status, body = post(base, "/solve", {"game": PATH_GAME})
                assert status == 504
                assert body["error"]["code"] == "timeout"
        finally:
            release.set()  # let the abandoned worker thread finish


class TestWorkerPool:
    def test_admission_accounting(self):
        release = threading.Event()
        pool = WorkerPool(workers=1, queue_limit=1)
        try:
            futures = [pool.submit(lambda: release.wait(timeout=30.0))
                       for _ in range(2)]
            assert pool.inflight == 2
            with pytest.raises(RequestError) as excinfo:
                pool.submit(lambda: None)
            assert excinfo.value.status == 429
            assert excinfo.value.code == "saturated"
            release.set()
            for future in futures:
                future.result(timeout=30.0)
            deadline = time.monotonic() + 10.0
            while pool.inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.inflight == 0
            # Slots freed: admission works again.
            pool.submit(lambda: None).result(timeout=30.0)
        finally:
            release.set()
            pool.close()

    def test_closed_pool_returns_503(self):
        pool = WorkerPool(workers=1, queue_limit=0)
        pool.close()
        with pytest.raises(RequestError) as excinfo:
            pool.submit(lambda: None)
        assert excinfo.value.status == 503
        assert excinfo.value.code == "shutting-down"

    def test_slot_released_on_worker_error(self):
        pool = WorkerPool(workers=1, queue_limit=0)
        try:
            def boom():
                raise RuntimeError("worker exploded")
            future = pool.submit(boom)
            with pytest.raises(RuntimeError):
                future.result(timeout=30.0)
            deadline = time.monotonic() + 10.0
            while pool.inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.inflight == 0
        finally:
            pool.close()

    def test_bad_config_rejected(self):
        with pytest.raises(RequestError):
            WorkerPool(workers=0)
        with pytest.raises(RequestError):
            WorkerPool(workers=1, queue_limit=-1)
