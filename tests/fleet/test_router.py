"""Router tests: shard locality, pure forwarding, failover, fan-out, error relay.

These run real :class:`CertificationServer` backends over loopback TCP plus a
:class:`CertificationRouter`, the exact topology of the CI fleet smoke — and
one deliberately unfaithful backend (:class:`FlakyBackend`) that speaks just
enough protocol to die mid-stream on cue, making failover deterministic.
"""

import socket
import threading

import numpy as np
import pytest

from repro.api import SCHEMA_VERSION
from repro.fleet import CertificationRouter, HashRing, shard_key
from repro.fleet.router import _FAILOVERS
from repro.poisoning.models import RemovalPoisoningModel
from repro.service import (
    PROTOCOL_MINOR,
    PROTOCOL_VERSION,
    CertificationClient,
    CertificationServer,
    ProtocolError,
    RemoteError,
    wait_for_server,
)
from repro.service.protocol import dataset_to_wire, encode_frame, read_frame
from tests.conftest import well_separated_dataset

POINTS = np.array([[0.5], [11.0]])


def _failover_count() -> float:
    series = _FAILOVERS.snapshot().get("series", [])
    return sum(row["value"] for row in series)


@pytest.fixture
def fleet(tmp_path):
    """Two real TCP backends behind a router, all in-process.

    Health pings are an hour apart, so each backend's request count is
    exactly the traffic a test sends.
    """
    s1 = CertificationServer(tcp="127.0.0.1:0", cache_dir=tmp_path / "c1")
    s2 = CertificationServer(tcp="127.0.0.1:0", cache_dir=tmp_path / "c2")
    s1.start()
    s2.start()
    router = CertificationRouter(
        [s1.address, s2.address],
        tcp="127.0.0.1:0",
        health_interval=3600.0,
        request_timeout=120.0,
    )
    router.start()
    wait_for_server(router.address, timeout=30)
    try:
        yield router, s1, s2
    finally:
        router.close()
        s1.close()
        s2.close()


def _owner_and_sibling(s1, s2):
    """The fleet's two servers, ordered (shard owner, sibling) for the dataset."""
    key = shard_key(dataset_to_wire(well_separated_dataset()))
    owner = HashRing([s1.address, s2.address]).primary(key)
    return (s1, s2) if owner == s1.address else (s2, s1)


class TestRouting:
    def test_hello_identifies_router(self, fleet):
        router, s1, s2 = fleet
        with CertificationClient(router.address) as client:
            info = client.server_info
            assert info["role"] == "router"
            assert info["protocol"] == PROTOCOL_VERSION
            assert sorted(info["backends"]) == sorted([s1.address, s2.address])

    def test_protocol_1_hello_refused(self, fleet):
        router, _, _ = fleet
        with CertificationClient(router.address) as client:
            with pytest.raises(RemoteError, match="protocol 1"):
                client.call("hello", {"protocol": 1})

    def test_warm_rerun_hits_the_same_shard(self, fleet):
        """Acceptance: repeated requests for a dataset land on one backend."""
        router, s1, s2 = fleet
        dataset = well_separated_dataset()
        with CertificationClient(router.address, max_depth=1, domain="box") as client:
            cold = client.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
            assert cold.runtime_stats["learner_invocations"] > 0
            warm = client.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
            # Zero learner work is only possible if the second request
            # reached the same backend's warm verdict cache.
            assert warm.runtime_stats["learner_invocations"] == 0
            assert [r.status for r in warm.results] == [r.status for r in cold.results]

    def test_shard_owner_matches_ring_prediction(self, fleet):
        router, s1, s2 = fleet
        owner, sibling = _owner_and_sibling(s1, s2)
        dataset = well_separated_dataset()
        with CertificationClient(router.address, max_depth=1, domain="box") as client:
            client.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
        # The predicted owner's cache holds the verdicts; the sibling's is
        # empty (servers never exchange verdicts).
        assert owner.runtime.cache.stats()["verdicts"] == len(POINTS)
        assert sibling.runtime.cache.stats()["verdicts"] == 0

    def test_stream_through_router(self, fleet):
        router, _, _ = fleet
        dataset = well_separated_dataset()
        with CertificationClient(router.address, max_depth=1, domain="box") as client:
            results = list(
                client.certify_stream(dataset, POINTS, RemovalPoisoningModel(1))
            )
        assert [r.status.value for r in results] == ["robust", "robust"]

    def test_remote_error_relayed_without_failover(self, fleet):
        router, _, _ = fleet
        before = _failover_count()
        with CertificationClient(router.address, max_depth=1, domain="box") as client:
            with pytest.raises(RemoteError):
                client.call(
                    "certify",
                    {
                        "dataset": {"name": "no-such-dataset"},
                        "points": [[0.0]],
                        "model": {"family": "removal", "n": 1},
                        "engine": {},
                    },
                )
            # An application error is the backend *answering*, not dying:
            # the router must relay it, not burn through the ring.
            assert _failover_count() == before
            assert client.ping()["pong"] is True

    def test_fan_out_reaches_every_backend(self, fleet):
        router, s1, s2 = fleet
        with CertificationClient(router.address) as client:
            result = client.call("cache_stats", {})
        assert sorted(result["backends"]) == sorted([s1.address, s2.address])
        assert result["errors"] == {}

    def test_router_stats_lists_backends(self, fleet):
        router, s1, s2 = fleet
        with CertificationClient(router.address) as client:
            stats = client.call("stats", {})
        assert stats["backends"] == {s1.address: True, s2.address: True}


class TestPureForwarding:
    def test_owner_certifies_what_the_sibling_already_knows(self, fleet):
        """A verdict warm on the sibling is recomputed on the owner, equal."""
        router, s1, s2 = fleet
        owner, sibling = _owner_and_sibling(s1, s2)
        dataset = well_separated_dataset()
        with CertificationClient(sibling.address, max_depth=1, domain="box") as direct:
            expected = direct.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
        with CertificationClient(router.address, max_depth=1, domain="box") as client:
            routed = client.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
        assert routed.runtime_stats["learner_invocations"] > 0
        assert owner.runtime.cache.stats()["verdicts"] == len(POINTS)
        assert [r.status for r in routed.results] == [
            r.status for r in expected.results
        ]
        assert [r.certified_class for r in routed.results] == [
            r.certified_class for r in expected.results
        ]

    def test_one_backend_call_per_routed_request(self, fleet):
        """A routed certify or stream is one operation on the owner, none elsewhere."""
        router, s1, s2 = fleet
        owner, sibling = _owner_and_sibling(s1, s2)
        dataset = well_separated_dataset()
        model = RemovalPoisoningModel(1)

        def served():
            return owner.requests_served, sibling.requests_served

        with CertificationClient(router.address, max_depth=1, domain="box") as client:
            # Warm-up: opens the router's pooled connection to the owner,
            # whose handshake (``hello``) would otherwise count too.
            client.certify_batch(dataset, POINTS, model)
            before = served()
            client.certify_batch(dataset, np.array([[1.0], [10.0]]), model)
            after_certify = served()
            list(client.certify_stream(dataset, np.array([[2.0], [9.0]]), model))
            after_stream = served()
        assert after_certify == (before[0] + 1, before[1])
        assert after_stream == (after_certify[0] + 1, after_certify[1])

    @pytest.mark.parametrize("op", ["cache_probe", "cache_fetch", "cache_ingest"])
    def test_removed_cache_row_ops_are_unknown(self, fleet, op):
        router, server, _ = fleet
        for address in (router.address, server.address):
            with CertificationClient(address) as client:
                with pytest.raises(RemoteError, match="unknown operation") as info:
                    client.call(op, {})
            assert info.value.kind == "ProtocolError"


class FlakyBackend:
    """A protocol imposter that dies partway through a certify stream.

    Answers ``hello`` and ``ping`` faithfully, then serves ``die_after``
    pre-baked result frames of any ``certify_stream`` and drops the
    connection without an end frame — the deterministic stand-in for a
    backend crashing mid-request.
    """

    def __init__(self, results_wire, *, die_after: int = 1):
        self.results_wire = list(results_wire)
        self.die_after = die_after
        self.streams_served = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        host, port = self._listener.getsockname()
        self.address = f"{host}:{port}"
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def close(self):
        self._listener.close()

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn):
        reader = conn.makefile("rb")
        writer = conn.makefile("wb")

        def send(payload):
            writer.write(encode_frame(payload))
            writer.flush()

        try:
            while True:
                frame = read_frame(reader)
                if frame is None:
                    return
                op, fid = frame.get("op"), frame.get("id")
                if op == "hello":
                    send({"id": fid, "ok": True, "result": {
                        "protocol": PROTOCOL_VERSION,
                        "protocol_minor": PROTOCOL_MINOR,
                        "schema_version": SCHEMA_VERSION,
                        "server_version": "flaky",
                        "pid": 0,
                        "backend_id": self.address,
                    }})
                elif op == "ping":
                    send({"id": fid, "ok": True,
                          "result": {"pong": True, "uptime_seconds": 0.0}})
                elif op == "certify_stream":
                    self.streams_served += 1
                    for index in range(self.die_after):
                        send({"id": fid, "event": "result", "index": index,
                              "result": self.results_wire[index]})
                    conn.shutdown(socket.SHUT_RDWR)
                    return
                else:
                    send({"id": fid, "ok": False, "error": {
                        "type": "ProtocolError",
                        "message": f"flaky backend: unknown op {op!r}",
                    }})
        except (OSError, ProtocolError, ValueError):
            return
        finally:
            conn.close()


def _draw_shard_owner(tmp_path, key, draw, address_of):
    """Start a real backend and draw a node that owns ``key`` beside it.

    ``draw()`` binds one candidate on an ephemeral port; the ring layout
    depends on both ports.  When one of the real backend's vnodes sits just
    past ``key``, few candidate ports can claim the shard, and 64 draws can
    all lose (about 1 run in 80 with a single real port).  So after 64
    losing draws the real backend moves to a fresh port and the draw
    repeats.  Losing candidates stay bound until the draw ends, so the
    kernel cannot hand a losing port back.
    """
    for attempt in range(8):
        real = CertificationServer(
            tcp="127.0.0.1:0", cache_dir=tmp_path / f"real{attempt}"
        )
        real.start()
        drawn = []
        try:
            for _ in range(64):
                candidate = draw()
                drawn.append(candidate)
                address = address_of(candidate)
                if HashRing([address, real.address]).primary(key) == address:
                    drawn.pop()
                    return candidate, real
        finally:
            for reject in drawn:
                reject.close()
        real.close()
    raise AssertionError("could not place a drawn node as shard owner")


def _bound_port():
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    return probe


def _port_address(probe):
    return "127.0.0.1:%d" % probe.getsockname()[1]


class TestFailover:
    def test_mid_stream_death_fails_over_with_renumbered_indices(self, tmp_path):
        """Acceptance: a backend dying mid-batch still yields a full report."""
        dataset = well_separated_dataset()
        # Bake wire results for the flaky node to serve before dying: the
        # real verdicts for the same points, straight off a real server.
        seed = CertificationServer(tcp="127.0.0.1:0", cache_dir=tmp_path / "seed")
        seed.start()
        with CertificationClient(seed.address, max_depth=1, domain="box") as c:
            baked = [
                r.to_dict()
                for r in c.certify_stream(dataset, POINTS, RemovalPoisoningModel(1))
            ]
        seed.close()
        flaky, real = _draw_shard_owner(
            tmp_path,
            shard_key(dataset_to_wire(dataset)),
            lambda: FlakyBackend(baked, die_after=1),
            lambda candidate: candidate.address,
        )
        router = CertificationRouter(
            [flaky.address, real.address],
            tcp="127.0.0.1:0",
            request_timeout=120.0,
        )
        router.start()
        wait_for_server(router.address, timeout=30)
        before = _failover_count()
        try:
            with CertificationClient(
                router.address, max_depth=1, domain="box"
            ) as client:
                results = list(
                    client.certify_stream(dataset, POINTS, RemovalPoisoningModel(1))
                )
            # The flaky owner served point 0 then died; the real backend
            # finished point 1.  The client saw one gapless, in-order
            # stream with every verdict present and correct.
            assert flaky.streams_served == 1
            assert [r.status.value for r in results] == ["robust", "robust"]
            assert len(results) == len(POINTS)
            assert _failover_count() == before + 1
            # Only the unserved tail was re-certified on the survivor.
            assert real.runtime.cache.stats()["verdicts"] == 1
        finally:
            router.close()
            flaky.close()
            real.close()

    def test_dead_backend_skipped_after_first_failure(self, tmp_path):
        """After one observed death the router stops trying the corpse."""
        dataset = well_separated_dataset()
        # A port bound but never listening: every connect is refused.  Draw
        # until the dead port *owns* the dataset's shard, so the first
        # request deterministically hits the corpse and fails over (the
        # alternative layout would leave liveness to the health-probe race).
        # The owner stays bound for the whole test, so neither the router's
        # listener nor an outgoing connection can take its port.
        dead, real = _draw_shard_owner(
            tmp_path, shard_key(dataset_to_wire(dataset)), _bound_port, _port_address
        )
        dead_address = _port_address(dead)
        router = CertificationRouter(
            [dead_address, real.address],
            tcp="127.0.0.1:0",
            request_timeout=120.0,
        )
        router.start()
        wait_for_server(router.address, timeout=30)
        try:
            with CertificationClient(
                router.address, max_depth=1, domain="box"
            ) as client:
                report = client.certify_batch(
                    dataset, POINTS, RemovalPoisoningModel(1)
                )
                assert len(report.results) == len(POINTS)
                # The first request hit the dead owner, failed over once;
                # afterwards the dead node is marked down and skipped.
                stats = client.call("stats", {})
                assert stats["backends"][dead_address] is False
                assert stats["backends"][real.address] is True
        finally:
            router.close()
            real.close()
            dead.close()
