"""Tests for the Mercury-style RPC engine and fabric."""

import pytest

from repro.errors import AddressError, NetworkFailure, NoSuchRPCError, RPCError
from repro.mercury import (
    Address,
    Bulk,
    BulkOp,
    Engine,
    Fabric,
    InjectionFaultModel,
)


@pytest.fixture()
def fabric():
    return Fabric()


@pytest.fixture()
def server(fabric):
    return Engine(fabric, "sm://node0/server")


@pytest.fixture()
def client(fabric):
    return Engine(fabric, "sm://node1/client")


def assert_nested_rpc_answers(fabric, client):
    a = Engine(fabric, "sm://node2/a")
    b = Engine(fabric, "sm://node3/b")
    b.register("inner", lambda req: b"deep " + req.payload)

    def outer(req):
        handle = a.create_handle(b.address, "inner")
        resp = fabric.wait(handle.iforward(req.payload), timeout=5.0)
        return b"outer(" + resp + b")"

    a.register("outer", outer)
    handle = client.create_handle(a.address, "outer")
    assert handle.forward(b"x", timeout=5.0) == b"outer(deep x)"


class TestAddress:
    def test_parse_full(self):
        addr = Address.parse("ofi+gni://nid00012/hepnos-3")
        assert addr.protocol == "ofi+gni"
        assert addr.node == "nid00012"
        assert addr.instance == "hepnos-3"
        assert str(addr) == "ofi+gni://nid00012/hepnos-3"

    def test_parse_default_instance(self):
        addr = Address.parse("sm://node7")
        assert addr.instance == "0"

    @pytest.mark.parametrize("bad", ["", "node", "://x", "sm:/x", "sm://a b"])
    def test_parse_malformed(self, bad):
        with pytest.raises(AddressError):
            Address.parse(bad)

    def test_ordering_and_hash(self):
        a = Address.parse("sm://a/0")
        b = Address.parse("sm://b/0")
        assert a < b
        assert len({a, b, Address.parse("sm://a/0")}) == 2


class TestRPC:
    def test_echo(self, fabric, server, client):
        server.register("echo", lambda req: req.payload)
        handle = client.create_handle(server.address, "echo")
        assert handle.forward(b"hello") == b"hello"

    def test_explicit_respond(self, fabric, server, client):
        def handler(req):
            req.respond(req.payload.upper())

        server.register("upper", handler)
        handle = client.create_handle("sm://node0/server", "upper")
        assert handle.forward(b"abc") == b"ABC"

    def test_generator_handler(self, fabric, server, client):
        """A ULT runs once to completion: a handler that is a generator
        function returns a generator, which answers nothing."""
        def handler(req):
            yield
            return b"never-reached"

        server.register("gen", handler)
        with pytest.raises(RPCError, match="completed without responding"):
            client.create_handle(server.address, "gen").forward()

    def test_missing_rpc(self, fabric, server, client):
        handle = client.create_handle(server.address, "nope")
        with pytest.raises(NoSuchRPCError):
            handle.forward(b"")

    def test_unknown_address(self, fabric, client):
        handle = client.create_handle("sm://ghost/0", "echo")
        with pytest.raises(AddressError):
            handle.forward(b"")

    def test_handler_exception_propagates(self, fabric, server, client):
        def handler(req):
            raise ValueError("kaput")

        server.register("bad", handler)
        with pytest.raises(RPCError, match="kaput"):
            client.create_handle(server.address, "bad").forward()

    def test_handler_no_response_is_error(self, fabric, server, client):
        server.register("silent", lambda req: None)
        with pytest.raises(RPCError, match="without responding"):
            client.create_handle(server.address, "silent").forward()

    def test_double_respond_rejected(self, fabric, server, client):
        failures = []

        def handler(req):
            req.respond(b"one")
            try:
                req.respond(b"two")
            except RPCError as exc:
                failures.append(exc)

        server.register("dup", handler)
        assert client.create_handle(server.address, "dup").forward() == b"one"
        assert len(failures) == 1

    def test_provider_multiplexing(self, fabric, server, client):
        server.register("get", lambda req: b"provider-0", provider_id=0)
        server.register("get", lambda req: b"provider-1", provider_id=1)
        handle = client.create_handle(server.address, "get")
        assert handle.forward(provider_id=0) == b"provider-0"
        assert handle.forward(provider_id=1) == b"provider-1"
        with pytest.raises(NoSuchRPCError):
            handle.forward(provider_id=2)

    def test_duplicate_registration_rejected(self, server):
        server.register("x", lambda req: b"")
        with pytest.raises(RPCError):
            server.register("x", lambda req: b"")

    def test_none_handler_is_client_side_noop(self, server):
        server.register("client-only", None)
        assert not server.registered("client-only")

    def test_nested_rpc_from_handler(self, fabric, client):
        """Server A's handler forwards to server B and waits for the
        answer like any caller: on the inline runtime the wait drives
        the scheduler from inside A's ULT."""
        assert_nested_rpc_answers(fabric, client)

    def test_concurrent_iforwards(self, fabric, server, client):
        server.register("inc", lambda req: bytes([req.payload[0] + 1]))
        handle = client.create_handle(server.address, "inc")
        eventuals = [handle.iforward(bytes([i])) for i in range(10)]
        results = [fabric.wait(ev) for ev in eventuals]
        assert results == [bytes([i + 1]) for i in range(10)]

    def test_engine_finalize(self, fabric, server, client):
        server.register("echo", lambda req: req.payload)
        server.finalize()
        with pytest.raises(AddressError):
            client.create_handle("sm://node0/server", "echo").forward(b"")

    def test_duplicate_address_rejected(self, fabric, server):
        with pytest.raises(AddressError):
            Engine(fabric, "sm://node0/server", pool=server.pool)

    def test_lookup_validates(self, fabric, server, client):
        assert client.lookup("sm://node0/server") == server.address
        with pytest.raises(AddressError):
            client.lookup("sm://missing/0")


class TestBulk:
    def test_pull_from_client_region(self, fabric, server, client):
        """Typical store path: client exposes data, server pulls it."""
        received = {}

        def handler(req):
            import repro.serial as serial

            bulk_ref, size = serial.loads(req.payload)
            local = bytearray(size)
            local_bulk = server.expose(local)
            moved = req.bulk_transfer(BulkOp.PULL, bulk_ref, local_bulk)
            received["data"] = bytes(local)
            return str(moved).encode()

        server.register("store", handler)
        import repro.serial as serial

        payload = bytearray(b"event-payload-bytes")
        bulk = client.expose(payload, Bulk.READ_ONLY)
        resp = client.create_handle(server.address, "store").forward(
            serial.dumps((bulk, len(payload)))
        )
        assert resp == str(len(payload)).encode()
        assert received["data"] == b"event-payload-bytes"

    def test_push_to_client_region(self, fabric, server, client):
        def handler(req):
            import repro.serial as serial

            bulk_ref = serial.loads(req.payload)
            data = bytearray(b"loaded-product")
            req.bulk_transfer(BulkOp.PUSH, bulk_ref, server.expose(data),
                              size=len(data))
            return str(len(data)).encode()

        server.register("load", handler)
        import repro.serial as serial

        sink = bytearray(64)
        bulk = client.expose(sink, Bulk.WRITE_ONLY)
        resp = client.create_handle(server.address, "load").forward(
            serial.dumps(bulk)
        )
        assert sink[: int(resp)] == b"loaded-product"

    def test_mode_enforcement(self, fabric, server, client):
        def pull_handler(req):
            import repro.serial as serial

            bulk_ref = serial.loads(req.payload)
            req.bulk_transfer(BulkOp.PULL, bulk_ref,
                              server.expose(bytearray(8)))
            return b"ok"

        server.register("pull", pull_handler)
        import repro.serial as serial

        wo_bulk = client.expose(bytearray(8), Bulk.WRITE_ONLY)
        with pytest.raises(RPCError, match="not readable"):
            client.create_handle(server.address, "pull").forward(
                serial.dumps(wo_bulk)
            )

    def test_bounds_checks(self, client):
        bulk = client.expose(bytearray(8))
        with pytest.raises(ValueError):
            bulk.read(4, 8)
        with pytest.raises(ValueError):
            bulk.write(b"123456789", 0)

    def test_bulk_requires_bytearray(self, client):
        with pytest.raises(TypeError):
            client.expose(b"immutable")

    def test_bad_mode(self, client):
        with pytest.raises(ValueError):
            client.expose(bytearray(1), mode="x")


class TestStats:
    def test_rpc_accounting(self, fabric, server, client):
        server.register("echo", lambda req: req.payload)
        handle = client.create_handle(server.address, "echo")
        handle.forward(b"12345")
        assert fabric.stats.rpc_count == 1
        assert fabric.stats.rpc_bytes == 5
        assert fabric.stats.response_bytes == 5
        assert fabric.stats.total_bytes == 10
        assert fabric.stats.per_pair[("node1", "node0")] == 5

    def test_bulk_accounting(self, fabric, server, client):
        import repro.serial as serial

        def handler(req):
            bulk_ref, size = serial.loads(req.payload)
            req.bulk_transfer(BulkOp.PULL, bulk_ref,
                              server.expose(bytearray(size)))
            return b""

        server.register("store", handler)
        data = bytearray(1000)
        bulk = client.expose(data, Bulk.READ_ONLY)
        client.create_handle(server.address, "store").forward(
            serial.dumps((bulk, len(data)))
        )
        assert fabric.stats.bulk_transfers == 1
        assert fabric.stats.bulk_bytes == 1000

    def test_reset(self, fabric, server, client):
        server.register("echo", lambda req: req.payload)
        client.create_handle(server.address, "echo").forward(b"x")
        fabric.stats.reset()
        assert fabric.stats.rpc_count == 0
        assert fabric.stats.total_bytes == 0


class TestFaultInjection:
    def test_injection_model_drops_bursts(self):
        clock = [0.0]
        model = InjectionFaultModel(bytes_per_window=100, window_seconds=1.0,
                                    clock=lambda: clock[0])
        fabric = Fabric(fault_model=model)
        server = Engine(fabric, "sm://s/0")
        client = Engine(fabric, "sm://c/0")
        server.register("put", lambda req: b"")
        handle = client.create_handle(server.address, "put")
        handle.forward(b"x" * 60)
        with pytest.raises(NetworkFailure):
            handle.forward(b"x" * 60)  # exceeds 100B within the window
        assert fabric.stats.dropped == 1
        clock[0] += 2.0  # window expires; traffic flows again
        handle.forward(b"x" * 60)

    def test_injection_model_validates(self):
        with pytest.raises(ValueError):
            InjectionFaultModel(bytes_per_window=0)


class TestThreadedFabric:
    def test_threaded_echo(self):
        fabric = Fabric(threaded=True)
        server = Engine(fabric, "sm://node0/server")
        client = Engine(fabric, "sm://node1/client")
        server.register("echo", lambda req: req.payload)
        fabric.runtime.start()
        try:
            handle = client.create_handle(server.address, "echo")
            assert handle.forward(b"threaded") == b"threaded"
        finally:
            fabric.runtime.shutdown()

    def test_nested_rpc_from_handler_threaded(self):
        """The waiting handler blocks its own xstream; the inner RPC
        runs on the other engine's."""
        fabric = Fabric(threaded=True)
        client = Engine(fabric, "sm://node1/client")
        fabric.runtime.start()
        try:
            assert_nested_rpc_answers(fabric, client)
        finally:
            fabric.runtime.shutdown()

    def test_forward_timeout_then_late_response_is_discarded(self):
        """One timed block on the eventual (no 50 ms polling): the call
        gives up when told to, the answer that arrives afterwards reaches
        nobody, and the request is still write-once."""
        import time
        from repro.argobots import Eventual
        from repro.errors import RPCTimeout

        fabric = Fabric(threaded=True)
        server = Engine(fabric, "sm://node0/server")
        client = Engine(fabric, "sm://node1/client")
        release, answered, requests = Eventual(), Eventual(), []

        def never(req):
            requests.append(req)
            release.wait_blocking()
            req.respond(b"late")
            answered.set()

        server.register("never", never)
        fabric.runtime.start()
        try:
            handle = client.create_handle(server.address, "never")
            t0 = time.monotonic()
            with pytest.raises(RPCTimeout):
                handle.forward(b"?", timeout=0.05)
            waited = time.monotonic() - t0
            assert 0.05 <= waited < 0.2
            assert fabric.stats.timeouts == 1
            assert fabric.stats.failures["timeout"] == 1
            (request,) = requests
            assert not request.responded
            release.set()
            assert answered.wait_blocking(5.0)
            # The late answer was accepted and reached nobody; the
            # request stays write-once and the next call is unaffected.
            assert request.response.is_ready and fabric.stats.timeouts == 1
            with pytest.raises(RPCError, match="already responded"):
                request.respond(b"again")
            server.register("echo", lambda req: req.payload)
            echo = client.create_handle(server.address, "echo")
            assert echo.forward(b"next", timeout=1.0) == b"next"
        finally:
            fabric.runtime.shutdown()
