"""End-to-end HTTP: served answers must equal CLI answers, byte for byte.

The contract under test: ``GET /v1/jobs/{id}/result`` returns exactly
the document ``explain-all --json`` writes for the same batch on the
same cache (volatile timings normalized away, nothing else).  Plus the
tenancy edge (429 + ``Retry-After``, isolation between tenants) and
graceful drain.
"""

import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.cli import main as cli_main
from repro.farm.report import normalize_document
from repro.serve.server import ExplainHandler, ServeApp, _Server
from repro.serve.tenants import TenantBook, TenantPolicy

SCENARIOS = ["scenario1", "scenario2", "scenario3"]


class Client:
    def __init__(self, port: int) -> None:
        self.base = f"http://127.0.0.1:{port}"

    def post(self, path, payload, tenant="public"):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json", "X-Tenant": tenant},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                return resp.status, json.loads(resp.read()), dict(resp.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read()), dict(exc.headers)

    def get(self, path):
        try:
            with urllib.request.urlopen(self.base + path, timeout=60) as resp:
                return resp.status, resp.read(), dict(resp.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read(), dict(exc.headers)

    def submit(self, scenario, tenant="public", **extra):
        payload = {"schema": api.API_REQUEST_SCHEMA, "scenario": scenario, **extra}
        return self.post("/v1/jobs", payload, tenant=tenant)

    def wait(self, job_id, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            code, body, _ = self.get(f"/v1/jobs/{job_id}")
            assert code == 200, body
            status = json.loads(body)
            if status["state"] not in ("QUEUED", "RUNNING"):
                return status
            time.sleep(0.05)
        raise AssertionError(f"{job_id} never finished")


@pytest.fixture()
def server_factory():
    servers = []

    def boot(handler=ExplainHandler, **app_kwargs):
        app = ServeApp(**app_kwargs)
        server = _Server(("127.0.0.1", 0), handler, app)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, app))
        return app, Client(server.server_address[1])

    yield boot
    for server, app in servers:
        server.shutdown()
        server.server_close()
        app.drain(timeout=30.0)


def _fake_report(scenario):
    return api.BatchReport(
        scenario=scenario, workers=1, wall_s=0.0,
        results=(api.ExplainResult(job_id="J0", status="EXACT"),),
        document={"schema": "repro-farm-report/2", "scenario": scenario,
                  "counters": {}},
    )


class TestServedBytesEqualCliBytes:
    def test_scenarios_from_two_tenants(self, tmp_path, server_factory):
        cache_dir = str(tmp_path / "cache")
        reference = {}
        for scenario in SCENARIOS:
            json_path = str(tmp_path / f"{scenario}.json")
            # Cold run warms the cache; warm run captures the reference
            # document (fully cached, so deterministic up to timings).
            for _ in range(2):
                cli_main(
                    ["explain-all", scenario, "--cache-dir", cache_dir,
                     "--json", json_path],
                    out=io.StringIO(),
                )
            with open(json_path, "rb") as handle:
                reference[scenario] = json.load(handle)

        app, client = server_factory(cache_dir=cache_dir)
        submitted = []
        for index, scenario in enumerate(SCENARIOS):
            tenant = ("alice", "bob")[index % 2]
            code, body, _ = client.submit(scenario, tenant=tenant)
            assert code == 202, body
            submitted.append((scenario, body["id"]))
        for scenario, job_id in submitted:
            status = client.wait(job_id)
            assert status["state"] == "DONE", status
            code, raw, headers = client.get(f"/v1/jobs/{job_id}/result")
            assert code == 200
            served = json.loads(raw)
            assert normalize_document(served) == normalize_document(
                reference[scenario]
            ), f"served document for {scenario} diverged from explain-all"
            # Fully warm: every job served from the shared store.
            assert {row["status"] for row in served["jobs"]} == {"CACHED"}

    def test_event_stream_narrates_the_batch(self, tmp_path, server_factory):
        app, client = server_factory(cache_dir=str(tmp_path / "cache"))
        code, body, _ = client.submit("scenario1")
        assert code == 202
        job_id = body["id"]
        code, raw, headers = client.get(f"/v1/jobs/{job_id}/events")
        assert code == 200
        assert headers.get("Content-Type") == "application/x-ndjson"
        events = [json.loads(line) for line in raw.decode().splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "finished"
        assert kinds.count("settled") == 2
        assert [event["seq"] for event in events] == list(range(len(events)))


class TestTenancy:
    def test_rate_limited_tenant_gets_429_and_retry_after(self, server_factory):
        book = TenantBook({
            "limited": TenantPolicy(rate=0.02, burst=1),
            "default": TenantPolicy(),
        })
        app, client = server_factory(
            tenants=book,
            runner=lambda request, progress=None, stop=None: _fake_report(
                request.name
            ),
        )
        code, body, _ = client.submit(
            "scenario1", tenant="limited", no_cache=True
        )
        assert code == 202, body
        code, body, headers = client.submit(
            "scenario1", tenant="limited", no_cache=True
        )
        assert code == 429
        assert body["error"] == "rate limit exceeded"
        retry_after = int(headers["Retry-After"])
        assert retry_after >= 1
        # The other tenant is untouched by A's empty bucket: every
        # submission lands and completes.
        for _ in range(3):
            code, body, _ = client.submit(
                "scenario1", tenant="free", no_cache=True
            )
            assert code == 202
            assert client.wait(body["id"])["state"] == "DONE"

    def test_shaping_caps_are_applied_before_the_queue(self, server_factory):
        seen = {}

        def runner(request, progress=None, stop=None):
            seen["workers"] = request.workers
            seen["budget"] = request.budget
            return _fake_report(request.name)

        book = TenantBook({
            "default": TenantPolicy(max_workers=2, max_budget=500),
        })
        app, client = server_factory(tenants=book, runner=runner)
        code, body, _ = client.submit(
            "scenario1", no_cache=True, workers=16, budget=999_999
        )
        assert code == 202
        client.wait(body["id"])
        assert seen == {"workers": 2, "budget": 500}


class TestHttpEdges:
    def test_unknown_routes_and_jobs(self, server_factory):
        app, client = server_factory(
            runner=lambda request, progress=None, stop=None: _fake_report(
                request.name
            )
        )
        assert client.get("/nope")[0] == 404
        assert client.get("/v1/jobs/job-999999")[0] == 404
        assert client.get("/v1/jobs/job-999999/result")[0] == 404
        assert client.get("/v1/jobs/job-999999/events")[0] == 404
        code, body, _ = client.post("/v1/jobs", {"scenario": "not-a-scenario"})
        assert code == 202  # validation of the *name* happens at run time
        status = client.wait(body["id"]) if code == 202 else None

    def test_malformed_submissions(self, server_factory):
        app, client = server_factory(
            runner=lambda request, progress=None, stop=None: _fake_report(
                request.name
            )
        )
        code, body, _ = client.post("/v1/jobs", {"bogus": True})
        assert code == 400 and "unknown request keys" in body["error"]
        code, body, _ = client.post("/v1/jobs", {"schema": "wrong/1"})
        assert code == 400
        request = urllib.request.Request(
            client.base + "/v1/jobs", data=b"not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_result_conflict_before_terminal(self, server_factory):
        release = threading.Event()

        def runner(request, progress=None, stop=None):
            release.wait(30.0)
            return _fake_report(request.name)

        app, client = server_factory(runner=runner)
        code, body, _ = client.submit("scenario1", no_cache=True)
        job_id = body["id"]
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if json.loads(client.get(f"/v1/jobs/{job_id}")[1])["state"] == "RUNNING":
                break
            time.sleep(0.01)
        code, raw, _ = client.get(f"/v1/jobs/{job_id}/result")
        assert code == 409
        release.set()
        client.wait(job_id)
        assert client.get(f"/v1/jobs/{job_id}/result")[0] == 200

    def test_healthz_and_metrics(self, server_factory):
        app, client = server_factory(
            runner=lambda request, progress=None, stop=None: _fake_report(
                request.name
            )
        )
        code, raw, _ = client.get("/v1/healthz")
        health = json.loads(raw)
        assert code == 200 and health["ok"] is True
        code, body, _ = client.submit("scenario1", no_cache=True)
        client.wait(body["id"])
        code, raw, headers = client.get("/v1/metrics")
        assert code == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = raw.decode()
        assert "repro_serve_jobs_submitted 1" in text
        assert "# TYPE repro_serve_jobs_submitted counter" in text


class TestDrainOverHttp:
    def test_drain_marks_jobs_and_refuses_new_work(self, server_factory):
        started = threading.Event()

        def runner(request, progress=None, stop=None):
            started.set()
            stop.wait(30.0)
            return api.BatchReport(
                scenario=request.name, workers=1, wall_s=0.0,
                results=(), document={
                    "schema": "repro-farm-report/2",
                    "counters": {"farm.supervise.drained": 1},
                },
            )

        app, client = server_factory(runner=runner)
        code, running, _ = client.submit("scenario1", no_cache=True)
        code, queued, _ = client.submit("scenario2", no_cache=True)
        assert started.wait(10.0)
        assert app.drain(timeout=30.0)
        assert client.wait(running["id"])["state"] == "DRAINED"
        assert client.wait(queued["id"])["state"] == "DRAINED"
        code, body, _ = client.submit("scenario3", no_cache=True)
        assert code == 503


# -- the wire: one send per response, no Nagle -----------------------------


class _WriteLog:
    """Wraps a handler's ``wfile`` and records every ``write`` call."""

    def __init__(self, wfile, writes):
        self._wfile = wfile
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._wfile.write(data)

    def __getattr__(self, name):
        return getattr(self._wfile, name)


def _recording_handler():
    """An ``ExplainHandler`` subclass logging, per connection, the
    socket's ``TCP_NODELAY`` flag and every write it makes."""
    connections = []

    class Recording(ExplainHandler):
        def setup(self):
            super().setup()
            writes = []
            nodelay = self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
            connections.append({"nodelay": nodelay, "writes": writes})
            self.wfile = _WriteLog(self.wfile, writes)

    return Recording, connections


def _chunks(writes):
    """Decode chunked-transfer writes, asserting each is one whole chunk."""
    bodies = []
    for data in writes:
        size, _, rest = data.partition(b"\r\n")
        assert rest.endswith(b"\r\n"), data
        body = rest[:-2]
        assert int(size, 16) == len(body), data
        bodies.append(body)
    return bodies


class TestWire:
    def test_sockets_are_nagle_free_and_responses_take_one_write(
        self, server_factory
    ):
        handler, connections = _recording_handler()
        app, client = server_factory(
            handler=handler,
            runner=lambda request, progress=None, stop=None: _fake_report(
                request.name
            ),
        )
        code, raw, _ = client.get("/v1/healthz")
        assert code == 200
        code, body, _ = client.submit("scenario1", no_cache=True)
        assert code == 202
        client.wait(body["id"])
        code, raw, _ = client.get(f"/v1/jobs/{body['id']}/result")
        assert code == 200
        code, missing, _ = client.get("/v1/jobs/nope")
        assert code == 404
        assert connections
        assert all(conn["nodelay"] for conn in connections)
        # Every plain response -- 200, 202, 404, the status polls --
        # leaves as one write holding the head and the whole body.
        for conn in connections:
            assert len(conn["writes"]) == 1, conn["writes"]
            head, _, payload = conn["writes"][0].partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 ")
            length = [
                line for line in head.split(b"\r\n")
                if line.lower().startswith(b"content-length:")
            ]
            assert int(length[0].split(b":")[1]) == len(payload)

    def test_each_event_chunk_takes_one_write(self, server_factory):
        handler, connections = _recording_handler()
        app, client = server_factory(
            handler=handler,
            runner=lambda request, progress=None, stop=None: _fake_report(
                request.name
            ),
        )
        code, body, _ = client.submit("scenario1", no_cache=True)
        client.wait(body["id"])
        connections.clear()
        code, raw, _ = client.get(f"/v1/jobs/{body['id']}/events")
        assert code == 200
        (conn,) = connections
        head, *chunks, terminator = conn["writes"]
        assert head.startswith(b"HTTP/1.1 200") and head.endswith(b"\r\n\r\n")
        assert terminator == b"0\r\n\r\n"
        lines = [json.loads(chunk) for chunk in _chunks(chunks)]
        assert [event["event"] for event in lines][-1] == "finished"
        assert [event["seq"] for event in lines] == list(range(len(lines)))


class TestServerHeap:
    def test_retained_answers_stay_undecoded_text(self, tmp_path, server_factory):
        from repro.farm import StoredPayload

        app, client = server_factory(
            cache_dir=str(tmp_path / "cache"), fleet_workers=2
        )
        job_ids = []
        for _ in range(3):  # one cold batch, then warm ones
            code, body, _ = client.submit("scenario1")
            assert code == 202
            assert client.wait(body["id"])["state"] == "DONE"
            code, raw, _ = client.get(f"/v1/jobs/{body['id']}/result")
            assert code == 200
            job_ids.append(body["id"])
        statuses = []
        for job_id in job_ids:
            report = app.queue.get(job_id).report
            statuses.append({r.status for r in report.results})
            for result in report.results:
                assert isinstance(result.explanation, StoredPayload)
                assert result.explanation._decoded is None
        assert statuses == [{"EXACT"}, {"CACHED"}, {"CACHED"}]
