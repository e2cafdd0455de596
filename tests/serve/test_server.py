"""HTTP server behavior: endpoints, errors, load shedding, CLI serve."""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.core.ensemble import LSHEnsemble
from repro.minhash.generator import MinHashGenerator
from repro.persistence import save_ensemble
from repro.serve import QueryServer, start_in_thread
from repro.serve.router import RouterServer

NUM_PERM = 64
SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def corpus():
    domains = {"d%d" % i: {"v%d" % j for j in range(i, i + 20)}
               for i in range(40)}
    generator = MinHashGenerator(num_perm=NUM_PERM)
    return domains, generator.bulk(domains)


@pytest.fixture()
def index(corpus):
    domains, batch = corpus
    index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4, threshold=0.5)
    index.index((key, batch[j], len(domains[key]))
                for j, key in enumerate(batch.keys))
    return index


def _request(port, method, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        "http://127.0.0.1:%d%s" % (port, path), data=data, method=method,
        headers={} if data is None else
        {"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestEndpoints:
    def test_healthz(self, index):
        with start_in_thread(index) as handle:
            status, payload = _request(handle.port, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["keys"] == len(index)
        assert payload["mutation_epoch"] == 0
        assert payload["generation"] == 0

    def test_stats_surfaces_tiers_drift_cache_coalescer(self, index):
        with start_in_thread(index) as handle:
            index.insert("extra", index.get_signature("d0"), 20)
            index.remove("d1")
            _request(handle.port, "GET", "/healthz")
            status, payload = _request(handle.port, "GET", "/stats")
        assert status == 200
        assert payload["tiers"] == {"base": len(index) - 1, "delta": 1,
                                    "tombstones": 1}
        assert payload["mutation_epoch"] == 2
        assert 0.0 <= payload["drift"]["drift_score"] <= 1.0
        assert set(payload["cache"]) >= {"hits", "misses", "evictions"}
        assert set(payload["coalescer"]) >= {"requests_total",
                                             "batches_total", "shed_total"}
        assert payload["http"]["requests_total"] >= 1
        assert payload["http"]["inflight"] >= 1  # the /stats request
        latency = payload["http"]["latency"]
        assert latency["count"] >= 1
        assert latency["max_seconds"] >= latency["mean_seconds"] > 0

    def test_router_healthz_and_stats(self, corpus, index,
                                      in_process_cluster):
        domains, batch = corpus
        entries = [(key, batch[j], len(domains[key]))
                   for j, key in enumerate(batch.keys)]
        router, _ = in_process_cluster(
            entries, 2,
            lambda: LSHEnsemble(num_perm=NUM_PERM, num_partitions=4))
        with router, start_in_thread(router, RouterServer) as handle:
            status, health = _request(handle.port, "GET", "/healthz")
            _, stats = _request(handle.port, "GET", "/stats")
        assert status == 200
        assert health["index"] == "RouterIndex"
        assert health["keys"] == len(router) == len(index)
        assert health["shards"] == ["shard_000", "shard_001"]
        assert stats["router"]["keys_per_shard"] == {"shard_000": 20,
                                                     "shard_001": 20}


class TestHttpErrors:
    def test_unknown_route_404(self, index):
        with start_in_thread(index) as handle:
            status, payload = _request(handle.port, "GET", "/nope")
        assert status == 404

    def test_wrong_method_405(self, index):
        with start_in_thread(index) as handle:
            status, _ = _request(handle.port, "POST", "/healthz", {})
            status2, _ = _request(handle.port, "GET", "/query")
        assert status == 405 and status2 == 405

    @pytest.mark.parametrize("payload,fragment", [
        ({"queries": []}, "non-empty"),
        ({"queries": "nope"}, "non-empty"),
        ({"queries": [{"signature": [1, 2]}]}, "hash values"),
        ({"queries": [{"bogus": 1}]}, "signature"),
        ({"queries": [{"values": []}]}, "non-empty"),
        ({"queries": [{"values": ["a"]}], "threshold": 2.0}, "threshold"),
        ({"queries": [{"values": ["a"]}], "threshold": "x"}, "threshold"),
        ({"queries": [{"signature": [1] * NUM_PERM, "size": 0}]}, "size"),
        ({"queries": [{"signature": [1] * NUM_PERM, "seed": "x"}]},
         "seed"),
    ])
    def test_bad_requests_400(self, index, payload, fragment):
        with start_in_thread(index) as handle:
            status, body = _request(handle.port, "POST", "/query", payload)
        assert status == 400
        assert fragment in body["error"]

    def test_invalid_json_400(self, index):
        with start_in_thread(index) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port)
            conn.request("POST", "/query", "{not json",
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            conn.close()

    def test_top_k_requires_k(self, index):
        with start_in_thread(index) as handle:
            status, body = _request(handle.port, "POST", "/query_top_k",
                                    {"queries": [{"values": ["a"]}]})
        assert status == 400
        assert "k must be" in body["error"]

    @pytest.mark.parametrize("content_length", ["-5", "abc",
                                                str(10 ** 12)])
    def test_bad_content_length_400(self, index, content_length):
        import socket

        with start_in_thread(index) as handle:
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=10) as sock:
                sock.sendall(("POST /query HTTP/1.1\r\n"
                              "Content-Length: %s\r\n\r\n"
                              % content_length).encode())
                response = sock.recv(65536).decode()
        assert response.startswith("HTTP/1.1 400")

    def test_repeated_headers_hit_line_bound(self, index):
        import socket

        from repro.serve.server import MAX_HEADER_LINES

        with start_in_thread(index) as handle:
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                # Same header name repeated: the *line* bound must trip
                # even though the parsed dict holds one entry.
                sock.sendall(b"X-Flood: 1\r\n" * (MAX_HEADER_LINES + 2))
                sock.sendall(b"\r\n")
                response = sock.recv(65536).decode()
        assert response.startswith("HTTP/1.1 400")
        assert "too many headers" in response

    def test_unhashable_values_400(self, index):
        with start_in_thread(index) as handle:
            status, body = _request(handle.port, "POST", "/query",
                                    {"queries": [{"values": [["a"]]}]})
        assert status == 400
        assert "hashable" in body["error"]

    def test_values_hashing_uses_index_seed(self, corpus):
        """A values payload against an index built with a non-default
        seed must hash with that seed, not the factory default."""
        domains, _ = corpus
        generator = MinHashGenerator(num_perm=NUM_PERM, seed=7)
        batch = generator.bulk(domains)
        index = LSHEnsemble(num_perm=NUM_PERM, num_partitions=4,
                            threshold=0.5)
        index.index((key, batch[j], len(domains[key]))
                    for j, key in enumerate(batch.keys))
        with start_in_thread(index) as handle:
            status, body = _request(
                handle.port, "POST", "/query",
                {"queries": [{"values": sorted(domains["d3"])}],
                 "threshold": 0.9})
        assert status == 200
        assert "d3" in body["results"][0]

    def test_values_payloads_leave_no_per_value_state(self, index):
        """The server lives for weeks: a value a client sent once must
        not stay in its signature factory's value-hash cache."""
        with start_in_thread(index, cache_size=0) as handle:
            for i in range(200):
                status, _ = _request(
                    handle.port, "POST", "/query",
                    {"queries": [{"values": ["fresh%d_%d" % (i, j)
                                             for j in range(5)]}]})
                assert status == 200
            assert handle.server._factory.cache_size() == 0

    def test_request_query_cap(self, index):
        from repro.serve.server import MAX_QUERIES_PER_REQUEST

        queries = [{"values": ["a"]}] * (MAX_QUERIES_PER_REQUEST + 1)
        with start_in_thread(index) as handle:
            status, body = _request(handle.port, "POST", "/query",
                                    {"queries": queries})
        assert status == 400
        assert "too many queries" in body["error"]


class TestLoadShedding:
    def test_overload_returns_503_with_retry_after(self, index, corpus):
        domains, batch = corpus
        # A dispatch gate: the first batch parks the worker thread, so
        # every later query piles up in the pending count.
        gate = threading.Event()
        original = LSHEnsemble.query_batch

        def slow_query_batch(self, *args, **kwargs):
            gate.wait(timeout=30)
            return original(self, *args, **kwargs)

        payload = {"queries": [{"signature": [int(v) for v in
                                              batch.matrix[0]],
                                "size": 20}], "threshold": 0.5}
        statuses = []
        lock = threading.Lock()

        def fire(port):
            status, body = _request(port, "POST", "/query", payload)
            with lock:
                statuses.append((status, body))

        try:
            LSHEnsemble.query_batch = slow_query_batch
            with start_in_thread(index, max_batch=1, window_ms=0.0,
                                 cache_size=0, max_pending=2) as handle:
                threads = [threading.Thread(target=fire,
                                            args=(handle.port,))
                           for _ in range(6)]
                for thread in threads:
                    thread.start()
                    time.sleep(0.05)  # admit in a deterministic order
                gate.set()
                for thread in threads:
                    thread.join(timeout=30)
        finally:
            LSHEnsemble.query_batch = original
            gate.set()
        shed = [body for status, body in statuses if status == 503]
        served = [body for status, body in statuses if status == 200]
        assert len(shed) == 4 and len(served) == 2
        assert all(body["error"] == "overloaded" for body in shed)

    def test_retry_after_header_present(self, index):
        from repro.serve.coalescer import OverloadedError

        with start_in_thread(index) as handle:
            # Force the 503 path deterministically via a tiny monkeypatch
            # of the coalescer's submit.
            async def always_shed(group_key, payload):
                raise OverloadedError("full")

            handle.server.coalescer.submit = always_shed
            conn = http.client.HTTPConnection("127.0.0.1", handle.port)
            conn.request("POST", "/query",
                         json.dumps({"queries": [{"values": ["a"]}]}),
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 503
            # Idle queue: the drain estimate degenerates to the floor.
            assert response.getheader("Retry-After") == "1"
            conn.close()

    def test_retry_after_hint_tracks_queue_depth(self, index):
        """Regression: the 503 hint was hardcoded to 1s regardless of
        backlog; it must estimate the drain time from the pending
        queue and observed batch latency."""
        with start_in_thread(index) as handle:
            server = handle.server
            coalescer = server.coalescer
            assert server.retry_after_hint() == 1  # idle floor
            # Fabricate a deep backlog with known batch economics:
            # 512 pending / 64 per batch = 8 batches at 0.5s each,
            # plus the 2s window = 6s.
            coalescer._pending = 512
            coalescer.max_batch = 64
            coalescer.window_seconds = 2.0
            coalescer.batches_total = 4
            coalescer.batch_seconds_total = 2.0
            try:
                assert server.retry_after_hint() == 6
                # Deeper backlog => longer hint, monotonically.
                coalescer._pending = 2048
                assert server.retry_after_hint() == 18
            finally:
                coalescer._pending = 0
                coalescer.batches_total = 0
                coalescer.batch_seconds_total = 0.0

    def test_shed_response_carries_computed_hint(self, index):
        from repro.serve.coalescer import OverloadedError

        with start_in_thread(index) as handle:

            async def always_shed(group_key, payload):
                raise OverloadedError("full")

            server = handle.server
            server.coalescer.submit = always_shed
            server.coalescer._pending = 512
            server.coalescer.batches_total = 4
            server.coalescer.batch_seconds_total = 2.0
            server.coalescer.window_seconds = 2.0
            try:
                conn = http.client.HTTPConnection("127.0.0.1",
                                                  handle.port)
                conn.request(
                    "POST", "/query",
                    json.dumps({"queries": [{"values": ["a"]}]}),
                    {"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 503
                assert response.getheader("Retry-After") == "6"
                body = json.loads(response.read())
                assert body["retry_after"] == 6
                conn.close()
            finally:
                server.coalescer._pending = 0
                server.coalescer.batches_total = 0
                server.coalescer.batch_seconds_total = 0.0


class TestCliServe:
    def test_parser_accepts_serve(self):
        args = build_parser().parse_args(
            ["serve", "idx.lshe", "--port", "0", "--max-batch", "32",
             "--window-ms", "1.5", "--cache-size", "128",
             "--max-pending", "64", "--no-mmap"])
        assert args.command == "serve"
        assert args.max_batch == 32 and args.cache_size == 128

    def test_serve_subprocess_end_to_end(self, index, tmp_path):
        """`python -m repro.cli serve` binds, answers, and shuts down."""
        path = tmp_path / "index.lshe"
        save_ensemble(index, path)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(path),
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin",
                 "PYTHONUNBUFFERED": "1"})
        try:
            line = process.stdout.readline()
            assert "serving" in line, line
            port = int(line.rsplit(":", 1)[1].strip())
            deadline = time.monotonic() + 10
            while True:
                try:
                    status, payload = _request(port, "GET", "/healthz")
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            assert status == 200 and payload["keys"] == len(index)
            status, answer = _request(
                port, "POST", "/query",
                {"queries": [{"values": sorted({"v%d" % j
                                                for j in range(20)})}],
                 "threshold": 0.3})
            assert status == 200
            assert "d0" in answer["results"][0]
        finally:
            process.terminate()
            process.wait(timeout=10)


class TestServerLifecycle:
    def test_port_zero_picks_free_port(self, index):
        with start_in_thread(index, port=0) as handle:
            assert handle.port > 0
            status, _ = _request(handle.port, "GET", "/healthz")
            assert status == 200

    def test_two_servers_same_index(self, index):
        with start_in_thread(index) as first, \
                start_in_thread(index) as second:
            assert first.port != second.port
            for handle in (first, second):
                status, _ = _request(handle.port, "GET", "/healthz")
                assert status == 200

    def test_start_failure_surfaces(self, index):
        with start_in_thread(index) as handle:
            with pytest.raises(RuntimeError):
                # Binding the same port again must fail loudly.
                start_in_thread(index, port=handle.port)

    def test_query_server_rejects_after_close(self, index):
        import asyncio

        async def main():
            server = QueryServer(index)
            await server.start()
            await server.aclose()
            return server.port

        port = asyncio.run(main())
        with pytest.raises(OSError):
            _request(port, "GET", "/healthz")
