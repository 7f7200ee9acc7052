"""End-to-end contract of the asyncio edge: a real socket, byte parity.

One server over a 2-shard :class:`~repro.net.ShardManager` answers
every shardable algorithm with exactly the serial engine's pairs --
through HTTP, JSON and scatter-gather.  Around that headline: protocol
conformance (keep-alive, HTTP status mirroring, 400 on malformed
envelopes before the service is ever touched, 404/405), the auxiliary
endpoints, and graceful shutdown that drains in-flight queries instead
of abandoning them.
"""

import http.client
import json
import random
import threading

import pytest

from repro.core.api import CPQRequest, k_closest_pairs
from repro.net import NetClient, NetServer, ShardManager, tree_spec, wire
from repro.net.client import NetError
from repro.rtree.bulk import bulk_load
from repro.service import (
    CPQRequest as ServiceCPQ,
    KNNRequest,
    QueryService,
    RangeRequest,
)
from repro.storage.paged_file import PagedFile
from repro.storage.store import FilePageStore

ALGORITHMS = ("naive", "exh", "sim", "std", "heap")


def _file_tree(tmp_path, name, points):
    store = FilePageStore(str(tmp_path / name), page_size=1024)
    return bulk_load(points, file=PagedFile(store, page_size=1024))


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    """Trees on disk, 2-shard manager, service, listening server."""
    tmp = tmp_path_factory.mktemp("net-e2e")
    rng = random.Random(11)
    tree_p = _file_tree(
        tmp, "p.pages",
        [(rng.random(), rng.random()) for __ in range(200)],
    )
    tree_q = _file_tree(
        tmp, "q.pages",
        [(rng.random(), rng.random()) for __ in range(200)],
    )
    serial = {
        algorithm: k_closest_pairs(
            tree_p, tree_q,
            request=CPQRequest(k=8, algorithm=algorithm),
        )
        for algorithm in ALGORITHMS
    }
    manager = ShardManager(tree_spec(tree_p), tree_spec(tree_q),
                           shards=2)
    service = QueryService(
        workers=4, cpq_executor=manager.service_executor()
    )
    service.register_pair("default", manager.tree_p, manager.tree_q)
    server = NetServer(service, manager=manager).start_in_thread()
    yield server, serial
    server.close()


@pytest.fixture()
def client(stack):
    server, __ = stack
    with NetClient("127.0.0.1", server.port) as net_client:
        yield net_client


class TestByteParity:
    def test_all_algorithms_identical_to_serial(self, stack, client):
        __, serial = stack
        for algorithm in ALGORITHMS:
            response = client.query(ServiceCPQ(
                pair="default", k=8, algorithm=algorithm,
                use_cache=False,
            ))
            assert response.status == "ok", response.error
            # The whole point: pairs AND tie order survive the
            # socket, the JSON, and the scatter-gather.
            assert response.result.pairs == serial[algorithm].pairs
            net = response.result.stats.extra["net"]
            assert net["shards"] == 2
            assert response.partial is False

    def test_cache_round_trip(self, client):
        request = ServiceCPQ(pair="default", k=4, algorithm="heap")
        first = client.query(request)
        second = client.query(request)
        assert first.status == second.status == "ok"
        assert second.cached is True
        assert second.result.pairs == first.result.pairs

    def test_knn_and_range_over_wire(self, client):
        knn = client.query(KNNRequest(
            pair="default", point=(0.5, 0.5), k=3,
        ))
        assert knn.status == "ok"
        assert len(knn.result) == 3
        found = client.query(RangeRequest(
            pair="default", lo=(0.0, 0.0), hi=(1.0, 1.0),
        ))
        assert found.status == "ok"
        assert len(found.result) == 200


class TestProtocol:
    def _raw(self, server, method, path, body=b"", headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            conn.request(method, path, body=body,
                         headers=headers or {})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_healthz_reports_shards(self, stack, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["pairs"] == ["default"]
        assert len(health["shards"]) == 2
        assert all(shard["alive"] for shard in health["shards"])
        assert health["on_failure"] == "recover"

    def test_healthz_reports_generation_and_net_counters(self, client):
        health = client.healthz()
        # Staleness surface: which snapshot generation the shards are
        # pinned to, plus the self-healing counter block.
        assert health["generation"] == {"p": 0, "q": 0}
        net = health["net"]
        for key in ("retries", "hedges", "hedge_wins", "respawns",
                    "reloads", "frame_errors", "dedup_dropped"):
            assert net[key] >= 0

    def test_healthz_reports_wal_size(self, tmp_path):
        from repro.storage.wal import WriteAheadLog

        wal = WriteAheadLog(str(tmp_path / "h.wal"), sync_mode="none")
        wal.begin(0)
        wal.log_write(1, b"x" * 64)
        wal.commit(1, root_id=1, height=1, count=1)
        service = QueryService(workers=1, queue_size=4)
        server = NetServer(service, wal=wal).start_in_thread()
        try:
            with NetClient("127.0.0.1", server.port) as probe:
                health = probe.healthz()
            assert health["wal"]["size_bytes"] > 0
            assert health["wal"]["checkpoints"] == 0
            wal.checkpoint()
            with NetClient("127.0.0.1", server.port) as probe:
                health = probe.healthz()
            assert health["wal"]["size_bytes"] == 0
            assert health["wal"]["checkpoints"] == 1
        finally:
            server.close()
            wal.close()

    def test_stats_snapshot(self, client):
        client.query(ServiceCPQ(pair="default", k=2))
        stats = client.stats()
        assert stats["queries"]["submitted"] >= 1
        assert "resilience" in stats

    def test_unknown_pair_is_structured_error(self, client):
        response = client.query(ServiceCPQ(pair="nope", k=1))
        assert response.status == "error"
        assert "unknown pair" in response.error

    def test_wrong_version_is_400(self, stack, client):
        server, __ = stack
        status, payload = self._raw(
            server, "POST", "/v1/query",
            json.dumps({"v": 99}).encode(),
        )
        assert status == 400
        assert "version" in payload["error"]
        with pytest.raises(wire.WireError, match="version"):
            client._exchange("POST", "/v1/query",
                             json.dumps({"v": 99}).encode())

    def test_malformed_json_is_400(self, stack):
        server, __ = stack
        status, payload = self._raw(server, "POST", "/v1/query",
                                    b"{not json")
        assert status == 400
        assert "JSON" in payload["error"]

    def test_unknown_route_is_404(self, stack):
        server, __ = stack
        status, __payload = self._raw(server, "GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, stack):
        server, __ = stack
        status, __payload = self._raw(server, "GET", "/v1/query")
        assert status == 405
        status, __payload = self._raw(server, "POST", "/healthz")
        assert status == 405

    def test_http_status_mirrors_overload(self, tmp_path):
        # A saturated service sheds; the edge must answer 503 with the
        # structured envelope intact.
        tree = bulk_load([(0.0, 0.0), (1.0, 1.0)])
        service = QueryService(workers=1, shed_threshold=1)
        service.register_pair("default", tree, tree)
        server = NetServer(service).start_in_thread()
        try:
            # Saturate the queue from inside: the service executes
            # serially, so a burst through raw sockets races; instead
            # drive the threshold to zero head-room deterministically.
            service.shed_threshold = 0
            conn = http.client.HTTPConnection("127.0.0.1", server.port)
            conn.request(
                "POST", "/v1/query",
                wire.dumps_request(ServiceCPQ(pair="default", k=1)),
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            conn.close()
            assert response.status == 503
            assert payload["status"] == "overloaded"
        finally:
            server.close()


class TestGracefulShutdown:
    def test_close_drains_in_flight_queries(self, tmp_path):
        """Queries in flight when close() starts must resolve -- the
        listener stops, handlers finish, then the service drains."""
        store = FilePageStore(str(tmp_path / "slow.pages"),
                              page_size=1024)
        tree = bulk_load(
            [(float(i % 20), float(i // 20)) for i in range(200)],
            file=PagedFile(store, page_size=1024),
        )
        # Cold buffer + per-miss latency: every query takes real time.
        tree.file.buffer.resize(0)
        tree.file.read_latency = 0.002
        service = QueryService(workers=2)
        service.register_pair("default", tree, tree)
        server = NetServer(service).start_in_thread()
        results = []
        lock = threading.Lock()

        def one_query() -> None:
            with NetClient("127.0.0.1", server.port) as net_client:
                try:
                    response = net_client.query(ServiceCPQ(
                        pair="default", k=5, algorithm="heap",
                        use_cache=False,
                    ))
                    outcome = response.status
                except NetError as exc:  # pragma: no cover
                    outcome = f"transport: {exc}"
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=one_query)
                   for __ in range(4)]
        for thread in threads:
            thread.start()
        # Let every request reach the server before shutdown begins.
        import time
        time.sleep(0.3)
        server.close()
        for thread in threads:
            thread.join(30.0)
        assert results == ["ok"] * 4
        # The service is fully closed behind the server.
        rejected = service.submit(ServiceCPQ(pair="default", k=1))
        assert rejected.result().status == "rejected"


def _settled_ledger(port, manager=None, tries=25):
    """``/stats`` ``resilience.net``, ``/healthz`` ``net`` and (given a
    manager) its counters, read until no self-healing event lands
    between the reads; returns the last reading."""
    import time

    for __ in range(tries):
        with NetClient("127.0.0.1", port) as probe:
            stats_net = probe.stats()["resilience"].get("net")
            health_net = probe.healthz()["net"]
        counters = None if manager is None else dict(manager.counters)
        same = stats_net == health_net and (
            counters is None
            or {key: stats_net.get(key) for key in counters} == counters
        )
        if same:
            break
        time.sleep(0.2)
    return stats_net, health_net, counters


class TestOneLedger:
    """``/stats`` ``resilience.net`` is a view of the shard manager's
    counters: the same figures ``/healthz`` shows under ``net``."""

    def test_stack_under_kill_schedule(self, tmp_path):
        # Wired like perfbench/serve_http.py, plus the faulty wire.
        import time

        from repro.net.faults import SCHEDULES, FaultyShardTransport

        rng = random.Random(3)
        trees = [
            _file_tree(tmp_path, name,
                       [(rng.random(), rng.random()) for __ in range(300)])
            for name in ("p.pages", "q.pages")
        ]
        manager = ShardManager(
            tree_spec(trees[0]), tree_spec(trees[1]), shards=2,
            pair="default",
            transport=FaultyShardTransport(SCHEDULES["kill"]),
        )
        service = QueryService(workers=2, cache_size=0,
                               cpq_executor=manager.service_executor())
        service.register_pair("default", manager.tree_p, manager.tree_q)
        server = NetServer(service, manager=manager).start_in_thread()
        try:
            with NetClient("127.0.0.1", server.port) as net_client:
                for i in range(30):
                    response = net_client.query(ServiceCPQ(
                        pair="default", k=1 + i % 5, algorithm="heap",
                        use_cache=False,
                    ))
                    assert response.status == "ok", response.error
            deadline = time.monotonic() + 10.0
            while (manager.counters["respawns"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            stats_net, health_net, counters = _settled_ledger(
                server.port, manager
            )
        finally:
            server.close()
        assert stats_net == health_net
        assert {key: stats_net[key] for key in counters} == counters
        assert counters["respawns"] >= 1

    def test_serve_net_cli(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys

        from repro.datasets import UNIT_WORKSPACE, save_points, uniform_points

        paths = []
        for name, seed in (("p.npy", 1), ("q.npy", 2)):
            path = str(tmp_path / name)
            save_points(path, uniform_points(300, UNIT_WORKSPACE, seed=seed))
            paths.append(path)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-net", *paths,
             "--shards", "2", "--run-seconds", "120"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            port = json.loads(proc.stdout.readline())["port"]
            with NetClient("127.0.0.1", port) as net_client:
                for k in (1, 3, 5):
                    response = net_client.query(ServiceCPQ(
                        pair="default", k=k, algorithm="heap",
                        use_cache=False,
                    ))
                    assert response.status == "ok", response.error
            stats_net, health_net, __ = _settled_ledger(port)
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert stats_net == health_net
        assert {"retries", "hedges", "respawns", "probe_misses"} <= set(
            stats_net)

    def test_retry_of_deadline_abandoned_gather(self, tmp_path):
        # Every query job is lost on the wire, so each attempt times
        # out and is retried until the request deadline abandons the
        # gather.  The retries happened and belong in /stats.
        from repro.net.faults import ShardTransport
        from repro.net.retry import HedgePolicy, RetryPolicy

        class LoseQueries(ShardTransport):
            def send(self, shard, message):
                if message[0] != "query":
                    shard.inbox.put(message)

        rng = random.Random(4)
        trees = [
            _file_tree(tmp_path, name,
                       [(rng.random(), rng.random()) for __ in range(200)])
            for name in ("p.pages", "q.pages")
        ]
        manager = ShardManager(
            tree_spec(trees[0]), tree_spec(trees[1]), shards=2,
            transport=LoseQueries(), attempt_timeout_s=0.2,
            retry_policy=RetryPolicy(max_attempts=100, base_delay_s=0.01,
                                     max_delay_s=0.02),
            hedge_policy=HedgePolicy(enabled=False),
        )
        service = QueryService(workers=1, cache_size=0,
                               cpq_executor=manager.service_executor())
        service.register_pair("default", manager.tree_p, manager.tree_q)
        server = NetServer(service, manager=manager).start_in_thread()
        try:
            with NetClient("127.0.0.1", server.port) as net_client:
                response = net_client.query(ServiceCPQ(
                    pair="default", k=5, algorithm="heap",
                    use_cache=False, deadline_ms=1500,
                ))
                assert response.status == "deadline_exceeded"
            stats_net, health_net, counters = _settled_ledger(
                server.port, manager
            )
        finally:
            server.close()
        assert stats_net == health_net
        assert stats_net["retries"] == counters["retries"] >= 1
