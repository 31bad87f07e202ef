"""Tests for the HTTP layer: in-process routing plus a live socket."""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.core.debugger import NonAnswerDebugger
from repro.obs.invariants import check_trace_file
from repro.service import (
    TERMINAL_EVENTS,
    ServiceApp,
    ServiceServer,
    SessionManager,
)
from repro.service.server import MAX_BODY_BYTES, MAX_HEAD_BYTES
from repro.workloads.queries import TABLE2_QUERIES

QUERY = "saffron scented candle"


def http_request(host, port, method, path, body=None):
    """One HTTP round-trip over a fresh connection: ``(status, raw body)``."""
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if payload is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def http_request_json(host, port, method, path, body=None):
    status, raw = http_request(host, port, method, path, body)
    assert status < 400, (method, path, status, raw)
    return json.loads(raw)


def stream_session_events(host, port, session_id):
    """One session's event log over chunked JSON-lines.

    The server ends the stream at the terminal event; ``http.client``
    undoes the chunked framing.
    """
    connection = http.client.HTTPConnection(host, port, timeout=300)
    try:
        connection.request("GET", f"/sessions/{session_id}/stream")
        response = connection.getresponse()
        assert response.status == 200, session_id
        return [json.loads(line) for line in response]
    finally:
        connection.close()


def poll_session_events(host, port, session_id):
    """One session's event log by long-polling until the terminal event."""
    records = []
    deadline = time.monotonic() + 120
    while not records or records[-1].get("name") not in TERMINAL_EVENTS:
        assert time.monotonic() < deadline, f"{session_id} never terminal"
        cursor = records[-1]["seq"] if records else -1
        path = f"/sessions/{session_id}/events?after={cursor}&wait=5"
        status, raw = http_request(host, port, "GET", path)
        assert status == 200, session_id
        records += [json.loads(line) for line in raw.splitlines() if line.strip()]
    return records


def replay(host, port, queries, use_stream):
    """Run each query to completion; per session ``(result, event names,
    executed spans)``."""
    follow = stream_session_events if use_stream else poll_session_events
    sessions = []
    for text in queries:
        session_id = http_request_json(
            host, port, "POST", "/sessions", {"query": text}
        )["session_id"]
        events = follow(host, port, session_id)
        result = http_request_json(
            host, port, "GET", f"/sessions/{session_id}/result"
        )
        executed = sum(
            1
            for record in events
            if record["kind"] == "span" and not record["cache_hit"]
        )
        names = {
            record["name"] for record in events if record["kind"] == "event"
        }
        sessions.append((result, names, executed))
    return sessions


@pytest.fixture
def app(products_db):
    debugger = NonAnswerDebugger(products_db, max_joins=2)
    manager = SessionManager(debugger, workers=2)
    yield ServiceApp(manager)
    manager.shutdown(drain=True)


def get_json(app, method, path, params=None, body=b""):
    response = app.handle(method, path, params or {}, body)
    return response.status, json.loads(response.body.decode("utf-8"))


def submit(app, document):
    return get_json(
        app, "POST", "/sessions", body=json.dumps(document).encode("utf-8")
    )


class TestRouting:
    def test_healthz(self, app):
        status, payload = get_json(app, "GET", "/healthz")
        assert (status, payload) == (200, {"status": "ok"})

    def test_unknown_route_404(self, app):
        status, payload = get_json(app, "GET", "/nope")
        assert status == 404
        assert "no route" in payload["error"]

    def test_unknown_session_404(self, app):
        status, payload = get_json(app, "GET", "/sessions/s99")
        assert status == 404
        assert "s99" in payload["error"]

    def test_submit_returns_links(self, app):
        status, payload = submit(app, {"query": QUERY})
        assert status == 202
        assert payload["session_id"] == "s1"
        assert payload["events"] == "/sessions/s1/events"
        assert payload["stream"] == "/sessions/s1/stream"

    def test_submit_requires_query(self, app):
        for document in ({}, {"query": ""}, {"query": 3}):
            status, payload = submit(app, document)
            assert status == 400, document
            assert "query" in payload["error"]

    def test_submit_validates_optionals(self, app):
        assert submit(app, {"query": QUERY, "strategy": 7})[0] == 400
        assert submit(app, {"query": QUERY, "max_queries": "x"})[0] == 400
        assert submit(app, {"query": QUERY, "max_queries": True})[0] == 400

    def test_malformed_json_400(self, app):
        response = app.handle("POST", "/sessions", {}, b"{not json")
        assert response.status == 400

    def test_submit_after_shutdown_503(self, app):
        app.manager.shutdown(drain=True)
        status, payload = submit(app, {"query": QUERY})
        assert status == 503

    def test_mutate_validates_body(self, app):
        bad = [
            {},
            {"relation": "Item", "inserts": "nope"},
            {"relation": "Item", "deletes": ["x"]},
            {"relation": "Item", "deletes": [True]},
        ]
        for document in bad:
            status, _ = get_json(
                app,
                "POST",
                "/mutate",
                body=json.dumps(document).encode("utf-8"),
            )
            assert status == 400, document


class TestSessionEndpoints:
    def finish(self, app, document=None):
        _, payload = submit(app, document or {"query": QUERY})
        session_id = payload["session_id"]
        handle = app.manager.get(session_id)
        assert handle.wait(30)
        return session_id

    def test_describe_and_list(self, app):
        session_id = self.finish(app)
        status, payload = get_json(app, "GET", f"/sessions/{session_id}")
        assert status == 200
        assert payload["state"] == "completed"
        status, listing = get_json(app, "GET", "/sessions")
        assert [row["session_id"] for row in listing["sessions"]] == [
            session_id
        ]

    def test_events_poll_with_cursor(self, app):
        session_id = self.finish(app)
        response = app.handle(
            "GET", f"/sessions/{session_id}/events", {"after": "-1"}, b""
        )
        assert response.status == 200
        assert response.headers["X-Repro-Terminal"] == "1"
        records = [
            json.loads(line)
            for line in response.body.decode("utf-8").splitlines()
        ]
        assert records[-1]["name"] == "session_completed"
        cursor = records[2]["seq"]
        rest = app.handle(
            "GET",
            f"/sessions/{session_id}/events",
            {"after": str(cursor)},
            b"",
        )
        remaining = rest.body.decode("utf-8").splitlines()
        assert len(remaining) == len(records) - 3

    def test_stream_yields_full_log(self, app):
        session_id = self.finish(app)
        response = app.handle(
            "GET", f"/sessions/{session_id}/stream", {}, b""
        )
        assert response.status == 200
        assert response.stream is not None
        records = [
            json.loads(chunk.decode("utf-8")) for chunk in response.stream
        ]
        assert records[0]["name"] == "session_submitted"
        assert records[-1]["name"] == "session_completed"
        seqs = [record["seq"] for record in records]
        assert seqs == list(range(len(seqs)))

    def test_result_carries_paper_outputs(self, app):
        session_id = self.finish(app)
        status, payload = get_json(
            app, "GET", f"/sessions/{session_id}/result"
        )
        assert status == 200
        assert payload["answers"]
        assert payload["non_answers"]
        assert all(row["mpans"] for row in payload["non_answers"])
        assert payload["signature"]

    def test_mpans_view(self, app):
        session_id = self.finish(app)
        status, payload = get_json(
            app, "GET", f"/sessions/{session_id}/mpans"
        )
        assert status == 200
        assert payload["non_answers"]

    def test_delete_cancels(self, app):
        _, payload = submit(app, {"query": QUERY})
        session_id = payload["session_id"]
        status, described = get_json(app, "DELETE", f"/sessions/{session_id}")
        assert status == 202
        app.manager.get(session_id).wait(30)
        assert app.manager.get(session_id).state in ("cancelled", "completed")

    def test_aborted_query_reports_missing_keywords(self, app):
        session_id = self.finish(app, {"query": "saffron sofa"})
        _, payload = get_json(app, "GET", f"/sessions/{session_id}/result")
        assert payload["aborted"] is True
        assert payload["missing_keywords"] == ["sofa"]

    def test_admin_stats(self, app):
        self.finish(app)
        status, payload = get_json(app, "GET", "/admin/stats")
        assert status == 200
        assert payload["sessions_submitted"] == 1
        assert payload["sessions_by_state"] == {"completed": 1}


class TestLiveServer:
    """The acceptance path: real sockets, warm server, phase3_skipped."""

    @pytest.mark.parametrize(
        ("dataset", "queries", "options"),
        [
            ("products_db", (QUERY,), {}),
            (
                "dblife_db",
                tuple(query.text for query in TABLE2_QUERIES),
                {"use_lattice": False, "backend": "memory"},
            ),
        ],
        ids=["products", "dblife-table2"],
    )
    def test_warm_replay_skips_phase3_over_http(
        self, request, tmp_path, dataset, queries, options
    ):
        debugger = NonAnswerDebugger(
            request.getfixturevalue(dataset),
            max_joins=2,
            cache_dir=str(tmp_path),
            **options,
        )
        manager = SessionManager(debugger, workers=2)
        server = ServiceServer(ServiceApp(manager))
        event_log = tmp_path / "events.jsonl"
        server.start()
        try:
            cold = replay(server.host, server.port, queries, use_stream=True)
            warm = replay(server.host, server.port, queries, use_stream=False)
        finally:
            server.stop()
            manager.shutdown(drain=True, export_path=str(event_log))

        states = {result["state"] for result, _, _ in cold + warm}
        assert states == {"completed"}
        signatures = [result.get("signature") for result, _, _ in cold]
        assert signatures == [result.get("signature") for result, _, _ in warm]
        assert sum(executed for _, _, executed in cold) > 0
        assert not any("phase3_skipped" in names for _, names, _ in cold)
        # The second pass hits the persisted status cache: every repeat
        # whose cold run classified a candidate network skips Phase 3
        # and executes zero backend queries, observed through HTTP.
        repeats = [
            names
            for signature, (_, names, _) in zip(signatures, warm)
            if signature and (signature[0] or signature[1])
        ]
        assert repeats
        assert all("phase3_skipped" in names for names in repeats)
        assert sum(
            result.get("queries_executed", 0) + executed
            for result, _, executed in warm
        ) == 0
        # The drained shutdown's combined log passes `repro trace check`.
        assert check_trace_file(str(event_log)) == []

    def test_http_errors_over_socket(self, products_db):
        debugger = NonAnswerDebugger(products_db, max_joins=2)
        manager = SessionManager(debugger, workers=2)
        server = ServiceServer(ServiceApp(manager))
        server.start()
        try:
            status, _ = http_request(
                server.host, server.port, "GET", "/sessions/s42"
            )
            assert status == 404
            status, body = http_request(
                server.host, server.port, "POST", "/sessions", {"query": ""}
            )
            assert status == 400
        finally:
            server.stop()
            manager.shutdown(drain=True)

    def test_ephemeral_ports_isolate_servers(self, products_db):
        debugger = NonAnswerDebugger(products_db, max_joins=2)
        manager = SessionManager(debugger, workers=2, close_debugger=True)
        first = ServiceServer(ServiceApp(manager))
        second = ServiceServer(ServiceApp(manager))
        first.start()
        second.start()
        try:
            assert first.port != second.port
            for server in (first, second):
                status, _ = http_request(
                    server.host, server.port, "GET", "/healthz"
                )
                assert status == 200
        finally:
            second.stop()
            first.stop()
            manager.shutdown(drain=True)


class GatedBackend:
    """Aliveness backend whose probes wait until the test opens ``gate``."""

    def __init__(self, inner, gate):
        self.inner = inner
        self.gate = gate

    def is_alive(self, query):
        self.gate.wait(120)
        return self.inner.is_alive(query)


def raw_exchange(host, port, payload):
    """Send raw bytes, return every byte the server answers before closing."""
    with socket.create_connection((host, port), timeout=30) as client:
        client.sendall(payload)
        received = b""
        while True:
            try:
                chunk = client.recv(65536)
            except ConnectionResetError:  # closed on an unread request
                break
            if not chunk:
                break
            received += chunk
    return received


class TestServerShell:
    """What the asyncio shell does before and around ``app.handle``."""

    #: More than any default executor's ``min(32, cpu_count + 4)`` threads.
    PARKED_STREAMS = 40

    @pytest.fixture
    def server(self, products_db):
        debugger = NonAnswerDebugger(products_db, max_joins=2)
        manager = SessionManager(debugger, workers=2)
        server = ServiceServer(ServiceApp(manager))
        server.start()
        yield server
        server.stop()
        manager.shutdown(drain=True)

    def test_parked_streams_leave_healthz_a_thread(self, products_db):
        gate = threading.Event()
        debugger = NonAnswerDebugger(products_db, max_joins=2)
        debugger.backend = GatedBackend(debugger.backend, gate)
        manager = SessionManager(debugger, workers=1)
        server = ServiceServer(ServiceApp(manager))
        server.start()
        streams = []
        try:
            session_ids = [
                http_request_json(
                    server.host, server.port, "POST", "/sessions", {"query": QUERY}
                )["session_id"]
                for _ in range(self.PARKED_STREAMS)
            ]
            responses = []
            for session_id in session_ids:
                connection = http.client.HTTPConnection(
                    server.host, server.port, timeout=30
                )
                streams.append(connection)
                connection.request("GET", f"/sessions/{session_id}/stream")
                response = connection.getresponse()
                assert response.status == 200
                # Every session waits on the gate (one probing, the rest
                # queued), so after its first record each stream's next
                # pull holds a handler thread.
                first = json.loads(response.readline())
                assert first["name"] == "session_submitted"
                responses.append(response)
            probe = http.client.HTTPConnection(server.host, server.port, timeout=2)
            started = time.monotonic()
            try:
                probe.request("GET", "/healthz")
                assert probe.getresponse().status == 200
            finally:
                probe.close()
            assert time.monotonic() - started < 2
            gate.set()
            for response in responses:
                records = [json.loads(line) for line in response]
                assert records[-1]["name"] == "session_completed"
        finally:
            gate.set()
            for connection in streams:
                connection.close()
            server.stop()
            manager.shutdown(drain=True)

    @pytest.mark.parametrize(
        ("head", "status"),
        [
            (b"POST /sessions HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
            (b"POST /sessions HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"GET /healthz\r\n\r\n", 400),
            (
                b"POST /sessions HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % (MAX_BODY_BYTES + 1),
                413,
            ),
            (
                b"GET /healthz HTTP/1.1\r\nX-Pad: %s\r\n\r\n"
                % (b"a" * MAX_HEAD_BYTES),
                431,
            ),
        ],
        ids=["length-abc", "length-negative", "request-line", "body-size", "head-size"],
    )
    def test_unservable_request_is_answered(self, server, head, status):
        answer = raw_exchange(server.host, server.port, head)
        assert answer.startswith(f"HTTP/1.1 {status} ".encode()), answer[:80]
        body = answer.split(b"\r\n\r\n", 1)[1]
        assert "error" in json.loads(body)
        # The shell is still serving afterwards.
        assert http_request(server.host, server.port, "GET", "/healthz")[0] == 200
