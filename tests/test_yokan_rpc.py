"""Tests for Yokan over RPC: provider + client, bulk batch paths."""

import dataclasses
import inspect
import re

import pytest

from repro.broker import RequestBroker, TenantRegistry, TenantSpec
from repro.errors import (
    CorruptionError,
    KeyNotFound,
    NoSuchRPCError,
    RPCError,
    ServiceBusy,
    YokanError,
)
from repro.faults import RETRYABLE_ERRORS, RetryPolicy
from repro.mercury import Bulk, Engine, Fabric, FaultModel
from repro.serial import dumps, register_type
from repro.yokan import (
    LSMBackend,
    MemoryBackend,
    YokanClient,
    YokanProvider,
    wire,
)
from repro.yokan import client as client_module
from repro.yokan.client import _unwrap, frame_put_multi
from repro.yokan.provider import RPC_NAMES


def make_world(broker=None):
    fabric = Fabric()
    server_engine = Engine(fabric, "sm://server/0")
    provider = YokanProvider(
        server_engine, provider_id=1,
        databases={"events": MemoryBackend(), "products": MemoryBackend()},
        broker=broker,
    )
    client_engine = Engine(fabric, "sm://client/0")
    client = YokanClient(client_engine)
    db = client.database_handle("sm://server/0", 1, "events")
    return fabric, provider, client, db


@pytest.fixture()
def world():
    return make_world()


class TestBasicOps:
    def test_put_get(self, world):
        _, _, _, db = world
        db.put(b"k", b"v")
        assert db.get(b"k") == b"v"

    def test_get_missing_raises(self, world):
        _, _, _, db = world
        with pytest.raises(KeyNotFound):
            db.get(b"missing")

    def test_exists_erase(self, world):
        _, _, _, db = world
        db.put(b"k", b"v")
        assert db.exists(b"k")
        db.erase(b"k")
        assert not db.exists(b"k")
        with pytest.raises(KeyNotFound):
            db.erase(b"k")

    def test_length(self, world):
        _, _, _, db = world
        for i in range(5):
            db.put(bytes([i]), b"v")
        assert len(db) == 5

    def test_unknown_database(self, world):
        _, _, client, _ = world
        bad = client.database_handle("sm://server/0", 1, "nope")
        with pytest.raises(YokanError, match="no database"):
            bad.put(b"k", b"v")

    def test_databases_isolated(self, world):
        _, _, client, db = world
        other = client.database_handle("sm://server/0", 1, "products")
        db.put(b"k", b"events-value")
        other.put(b"k", b"products-value")
        assert db.get(b"k") == b"events-value"
        assert other.get(b"k") == b"products-value"


class TestBatchOps:
    def test_put_multi_uses_bulk(self, world):
        fabric, _, _, db = world
        pairs = [(f"k{i:03d}".encode(), f"v{i}".encode()) for i in range(100)]
        before = fabric.stats.rpc_count
        count = db.put_multi(pairs)
        assert count == 100
        assert fabric.stats.rpc_count == before + 1  # one RPC for the batch
        assert fabric.stats.bulk_transfers >= 1
        assert db.get(b"k042") == b"v42"

    def test_put_multi_empty(self, world):
        _, _, _, db = world
        assert db.put_multi([]) == 0

    def test_get_multi(self, world):
        _, _, _, db = world
        db.put(b"a", b"1")
        db.put(b"c", b"3" * 100)
        assert db.get_multi([b"a", b"b", b"c"]) == [b"1", None, b"3" * 100]

    def test_get_multi_empty(self, world):
        _, _, _, db = world
        assert db.get_multi([]) == []

    def test_get_multi_retry_on_small_buffer(self, world):
        fabric, _, _, db = world
        big = bytes(50_000)
        db.put(b"big", big)
        # Force an undersized landing buffer: the server answers no item
        # and the capacity needed, and the second round trip succeeds.
        values = db.get_multi([b"big"], size_hint=16)
        assert values == [big]

    def test_large_batch_roundtrip(self, world):
        _, _, _, db = world
        pairs = [(f"{i:05d}".encode(), bytes([i % 256]) * 50) for i in range(1000)]
        db.put_multi(pairs)
        keys = [k for k, _ in pairs]
        values = db.get_multi(keys)
        assert values == [v for _, v in pairs]


class TestIteration:
    def test_list_keys(self, world):
        _, _, _, db = world
        for i in range(10):
            db.put(f"e{i}".encode(), b"v")
        db.put(b"x", b"v")
        assert db.list_keys(prefix=b"e") == [f"e{i}".encode() for i in range(10)]

    def test_list_keys_paged(self, world):
        _, _, _, db = world
        for i in range(25):
            db.put(f"{i:02d}".encode(), b"v")
        page = db.list_keys(limit=10)
        assert len(page) == 10
        page2 = db.list_keys(start_after=page[-1], limit=10)
        assert page2[0] == b"10"

    @pytest.mark.parametrize("kind", ["map", "lsm"])
    def test_list_keys_multi_concatenates_single_prefix_listings(
            self, kind, tmp_path):
        """A prefix-list request answers the keys of its prefixes in
        request order -- the first after ``start_after`` -- cut at
        ``limit`` wherever that falls, in one RPC."""
        backend = (MemoryBackend() if kind == "map" else LSMBackend(
            str(tmp_path / "lsm"), memtable_bytes=2048, compaction_trigger=3))
        fabric = Fabric()
        YokanProvider(Engine(fabric, "sm://server/0"), provider_id=1,
                      databases={"events": backend})
        db = YokanClient(Engine(fabric, "sm://client/0")).database_handle(
            "sm://server/0", 1, "events")
        # 64-byte values in batches of 8: the LSM flushes and compacts
        # tables on the way
        for p in (b"a", b"b", b"c", b"d"):
            for i in range(0, 40, 8):
                db.put_multi([(b"%s/%03d" % (p, j), b"v" * 64)
                              for j in range(i, i + 8)])
        prefixes = [b"c/", b"a/", b"x/", b"d/"]  # not in key order
        after = b"c/031"
        whole = (db.list_keys(b"c/", after) + db.list_keys(b"a/")
                 + db.list_keys(b"x/") + db.list_keys(b"d/"))
        assert len(whole) == 8 + 40 + 40
        for limit in (0, 5, 8, 9, 47, 48, 49, 88, 89, 500):
            fabric.stats.reset()
            got = db.list_keys_multi(prefixes, after, limit)
            assert fabric.stats.rpc_count == 1
            assert got == (whole[:limit] if limit else whole), limit
        assert db.list_keys_multi([b"a/", b"a/"], b"a/038") == (
            [b"a/039"] + db.list_keys(b"a/"))
        backend.close()

    def test_list_keys_takes_a_prefix_list(self, world):
        fabric, _, client, db = world
        db.put(b"ev1", b"v")
        handle = client.engine.create_handle("sm://server/0",
                                             "yokan.list_keys")
        old_form = wire.seal(wire.encode(("events", b"ev", b"", 5)))
        with pytest.raises(YokanError, match="key list of prefixes"):
            _unwrap(handle.forward(old_form, 1))

    def test_iter_keys_generator(self, world):
        _, _, _, db = world
        for i in range(57):
            db.put(f"k{i:03d}".encode(), b"v")
        keys = list(db.iter_keys(prefix=b"k", batch=10))
        assert len(keys) == 57
        assert keys == sorted(keys)


class TestManagement:
    def test_list_databases(self, world):
        _, _, client, _ = world
        assert client.list_databases("sm://server/0", 1) == ["events", "products"]

    def test_provider_close_closes_backends(self, world):
        _, provider, _, _ = world
        provider.close()
        assert all(db.closed for db in provider.databases.values())


class TestMultiProvider:
    def test_two_providers_one_engine(self):
        """The paper maps 16 providers per HEPnOS process, each to its pool."""
        fabric = Fabric()
        engine = Engine(fabric, "sm://server/0")
        xstreams = []
        for pid in range(4):
            pool = fabric.runtime.create_pool(f"provider-{pid}")
            xstreams.append(fabric.runtime.create_xstream(f"es-{pid}", [pool]))
            YokanProvider(engine, provider_id=pid, pool=pool,
                          databases={"db": MemoryBackend()})
        client_engine = Engine(fabric, "sm://client/0")
        client = YokanClient(client_engine)
        for pid in range(4):
            handle = client.database_handle("sm://server/0", pid, "db")
            handle.put(b"owner", str(pid).encode())
        for pid in range(4):
            handle = client.database_handle("sm://server/0", pid, "db")
            assert handle.get(b"owner") == str(pid).encode()
        # Each provider's pool ran its own put and get, on its xstream.
        assert [es.steps_executed for es in xstreams] == [2, 2, 2, 2]


class TestLargeValuePath:
    def test_large_put_uses_bulk(self, world):
        fabric, _, _, db = world
        big = bytes(range(256)) * 200  # 51200 B > threshold
        fabric.stats.reset()
        db.put(b"big", big)
        assert fabric.stats.bulk_transfers >= 1
        assert fabric.stats.rpc_bytes < len(big)  # payload held the
        # descriptor, not the value

    def test_large_get_round_trips(self, world):
        _, _, _, db = world
        big = b"\xab" * 100_000
        db.put(b"big", big)
        assert db.get(b"big") == big

    def test_small_get_single_rpc(self, world):
        fabric, _, _, db = world
        db.put(b"small", b"tiny-value")
        fabric.stats.reset()
        assert db.get(b"small") == b"tiny-value"
        assert fabric.stats.rpc_count == 1

    def test_large_get_two_rpcs_plus_bulk(self, world):
        fabric, _, _, db = world
        big = b"\xcd" * 50_000
        db.put(b"big", big)
        fabric.stats.reset()
        assert db.get(b"big") == big
        assert fabric.stats.rpc_count == 2  # probe + bulk fetch
        assert fabric.stats.bulk_bytes >= len(big)

    def test_threshold_boundary(self, world):
        _, _, _, db = world
        from repro.yokan.client import DatabaseHandle

        at = b"x" * DatabaseHandle.BULK_THRESHOLD
        above = b"y" * (DatabaseHandle.BULK_THRESHOLD + 1)
        db.put(b"at", at)
        db.put(b"above", above)
        assert db.get(b"at") == at
        assert db.get(b"above") == above

    def test_missing_large_key_raises(self, world):
        _, _, _, db = world
        with pytest.raises(KeyNotFound):
            db.get(b"never-stored")


# -- each bulk verb is defined once: blocking == non-blocking + wait ---------


@dataclasses.dataclass
class Hit:
    adc: float = 0.0
    n: int = 0


register_type(Hit, "yr.Hit")
SUFFIX = b"#hits"
PREFIXES = [b"ev%02d" % i for i in range(12)]
STORED = [(prefix + SUFFIX, dumps([Hit(i + 0.5 * j, i) for j in range(i % 4)]))
          for i, prefix in enumerate(PREFIXES) if i % 5]
FRESH = [(b"new%02d" % i, bytes([i]) * (40 * i)) for i in range(10)]


class CorruptNth(FaultModel):
    """Flips a bit of the ``nth`` payload on the wire.  The second is the
    bulk transfer of a bulk verb (request, bulk, response), and the
    response of one that carries its data inline."""

    def __init__(self, nth: int):
        self.nth, self.seen = nth, 0

    def corrupt(self, src, dst, payload):
        self.seen += 1
        if self.seen != self.nth:
            return None
        mutated = bytearray(payload)
        mutated[len(mutated) // 2] ^= 0x10
        return bytes(mutated)


def plain(answer):
    """``answer`` with every zero-copy view copied out, for ``==``."""
    if isinstance(answer, memoryview):
        return bytes(answer)
    if isinstance(answer, (list, tuple)):
        return [plain(item) for item in answer]
    return answer


#: verb -> (arguments, whether the last one is a landing-buffer size
#: hint, the same call on empty input)
BULK_VERBS = {
    "get_multi": (([k for k, _ in STORED] + [b"absent"],), True, ([],)),
    "load_prefix_packed": ((PREFIXES,), True, ([],)),
    "scan_columns": ((PREFIXES, SUFFIX, ["adc", "n"]), True,
                     ([], SUFFIX, ["adc", "n"])),
    "put_multi": ((FRESH,), False, ([],)),
    "replicate": ((FRESH, [STORED[0][0]]), False, ([], [])),
}


@pytest.mark.parametrize("condition", ["resize", "corrupt", "empty"])
@pytest.mark.parametrize("verb", sorted(BULK_VERBS))
def test_bulk_verb_blocking_equals_nonblocking(verb, condition):
    args, sized, empty = BULK_VERBS[verb]

    def run(form, condition=condition):
        """The verb's answer and what the database holds afterwards."""
        fabric = Fabric()
        provider = YokanProvider(Engine(fabric, "sm://server/0"),
                                 provider_id=1,
                                 databases={"events": MemoryBackend()})
        client = YokanClient(
            Engine(fabric, "sm://client/0"),
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0))
        db = client.database_handle("sm://server/0", 1, "events")
        db.put_multi(STORED)
        call = empty if condition == "empty" else args
        if sized and condition == "resize":
            call = call + (1,)      # a one-byte landing buffer: must resize
        if condition == "corrupt":
            fabric.fault_model = CorruptNth(2)
        fabric.stats.reset()
        if form == "blocking":
            answer = getattr(db, verb)(*call)
        else:
            answer = getattr(db, verb + "_nb")(*call).wait()
        stats = fabric.stats
        return (plain(answer), dict(provider.databases["events"].scan()),
                stats.rpc_count, stats.corrupted)

    blocking, stored, rpcs, corrupted = run("blocking")
    assert run("nonblocking") == (blocking, stored, rpcs, corrupted)
    if condition == "empty":
        assert rpcs == 0 and stored == dict(STORED)
    elif condition == "resize":
        assert rpcs == (2 if sized else 1)
    else:
        # The damaged transfer was re-issued, and the answer is the
        # fault-free one.
        assert (corrupted, rpcs) == (1, 2)
        clean = run("blocking", "clean")
        assert clean[1:] == (stored, 1, 0)
        if verb != "replicate":   # whose re-applied erase removes nothing
            assert clean[0] == blocking
    if verb in ("put_multi", "replicate") and condition != "empty":
        assert stored.items() >= dict(FRESH).items()


@pytest.mark.parametrize("verb", ["get_multi", "load_prefix_packed",
                                  "scan_columns"])
def test_an_undersized_landing_is_answered_in_part(verb, monkeypatch):
    """A landing buffer that holds some of the items asked gets those
    and the size the rest needs; the client asks again for the rest
    only, and the answer is the one a large enough buffer gets.  A
    column page is answered all or none: an undersized buffer gets no
    item and the whole page's exact size."""
    args, _sized, _empty = BULK_VERBS[verb]
    asked = len(args[0])
    pushed = []
    real = YokanProvider._push_back

    def spy(self, req, bulk, buffer, count, needed):
        pushed.append((len(buffer), count, needed))
        return real(self, req, bulk, buffer, count, needed)

    monkeypatch.setattr(YokanProvider, "_push_back", spy)

    def run(size_hint):
        fabric, _provider, _client, db = make_world()
        db.put_multi(STORED)
        pushed.clear()
        fabric.stats.reset()
        answer = plain(getattr(db, verb)(*args, size_hint))
        return answer, fabric.stats.rpc_count, list(pushed)

    whole, rpcs, answers = run(1 << 16)
    assert (rpcs, [count for _, count, _ in answers]) == (1, [asked])
    (size, _count, needed), = answers
    assert needed == 0
    part, rpcs, answers = run(size // 2)
    assert part == whole
    if verb == "scan_columns":
        assert (rpcs, answers) == (2, [(0, 0, size), (size, asked, 0)])
        return
    assert rpcs == len(answers) >= 2
    assert 0 < answers[0][1] < asked and answers[0][0] <= size // 2
    assert sum(count for _, count, _ in answers) == asked, (
        "an answered item was asked again")
    assert answers[-1][2] == 0


# -- the request path as a table ----------------------------------------------
# Every verb is served by one wrapper (open -> admit -> run -> close), so
# what a request comes back as may depend on the verb and on the request,
# never on which deployment -- and so which arm of the wrapper -- served it.

DEPLOYMENTS = ("no broker", "broker, untagged", "broker, tagged")


def deployment(kind: str, **spec_kwargs):
    """``(world, tenant prefix)`` of one of the three deployments."""
    broker = None
    if kind != "no broker":
        broker = RequestBroker(
            registry=TenantRegistry([TenantSpec("t", **spec_kwargs)]))
    prefix = wire.tenant_prefix("t") if kind == "broker, tagged" else b""
    world = make_world(broker)
    world[1].databases["events"].put_multi(STORED)
    return world, prefix


def request_body(engine: Engine, rpc_name: str, db: str, pins: list):
    """The fields of a well-formed request of every verb against
    database ``db``."""
    landing = engine.expose(bytearray(1 << 16), Bulk.READ_WRITE)
    pins.append(landing)
    put_multi = frame_put_multi(engine, db, [k for k, _ in FRESH],
                                [v for _, v in FRESH])
    pins.append(put_multi)
    return {
        "yokan.put": (db, b"k", b"v"),
        "yokan.put_multi": put_multi,
        "yokan.get": (db, STORED[0][0], 8192),
        "yokan.get_multi": (db, [STORED[0][0], b"absent"], landing, 1 << 16),
        "yokan.load_prefix_packed": (db, PREFIXES, landing, 1 << 16),
        "yokan.scan_columns": (db, PREFIXES, SUFFIX, [b"adc", b"n"], landing,
                               1 << 16),
        "yokan.exists": (db, STORED[0][0]),
        "yokan.erase": (db, STORED[1][0]),
        "yokan.erase_multi": (db, [STORED[2][0], b"absent"]),
        "yokan.length": (db,),
        "yokan.list_keys": (db, [b"ev"], b"", 5),
        "yokan.list_databases": (),
        "yokan.replicate": (db, [k for k, _ in FRESH[:2]],
                            [v for _, v in FRESH[:2]], [STORED[3][0]]),
        "yokan.sync": (False,),
    }[rpc_name]


#: requests malformed in a way only their verb's layout allows, each
#: made from its verb's well-formed request
MISFITS = {
    # one key more than values: refused, not paired short
    ("yokan.replicate", "unpaired"):
        lambda body: (body[0], body[1] + [b"one too many"], *body[2:]),
    ("yokan.scan_columns", "field not UTF-8"):
        lambda body: (*body[:3], [b"adc", b"\xff"], *body[4:]),
}


def flipped(data: bytes, at: int) -> bytes:
    mutated = bytearray(data)
    mutated[at] ^= 0x10
    return bytes(mutated)


def outcome(world, rpc_name: str, payload: bytes):
    """What the client's decoder makes of the answer to ``payload``."""
    client = world[2]
    handle = client.engine.create_handle("sm://server/0", rpc_name)
    try:
        return "ok", plain(_unwrap(handle.forward(payload, 1)))
    except Exception as exc:
        return "raised", type(exc)


REQUESTS = [(rpc_name, kind) for rpc_name in RPC_NAMES
            for kind in ("valid", "unknown database", "malformed",
                         "undecodable", "flipped")] + list(MISFITS)


@pytest.mark.parametrize("rpc_name,request_kind", REQUESTS,
                         ids=["-".join(request) for request in REQUESTS])
def test_every_verb_answers_alike_in_every_deployment(rpc_name, request_kind):
    outcomes = {}
    for kind in DEPLOYMENTS:
        world, prefix = deployment(kind)
        pins: list = []
        engine = world[2].engine
        if request_kind == "malformed":
            body = wire.encode((42,))
        elif request_kind == "undecodable":
            # CRC-valid, but its head names a kind the codec lacks
            body = b"\x02s!" + bytes(8)
        elif (rpc_name, request_kind) in MISFITS:
            body = wire.encode(MISFITS[rpc_name, request_kind](
                request_body(engine, rpc_name, "events", pins)))
        else:
            body = wire.encode(request_body(
                engine, rpc_name,
                "nope" if request_kind == "unknown database" else "events",
                pins))
        payload = prefix + wire.seal(body)
        if request_kind == "flipped":
            if prefix:  # a damaged tenant header never gets past *open*
                assert outcome(world, rpc_name, flipped(payload, 7)) == (
                    "raised", CorruptionError)
            payload = flipped(payload, -1)
        outcomes[kind] = outcome(world, rpc_name, payload)
        if request_kind in ("flipped", "unpaired"):
            events = world[1].databases["events"]
            assert events.get_multi(
                [k for k, _ in STORED]) == [v for _, v in STORED]
            assert not any(events.exists(k) for k, _ in FRESH)
        if kind == "broker, tagged":
            counters = world[1].broker.tenant_stats()["tenants"]["t"]
            assert counters["admitted"] == counters["completed"] > 0
    status, answer = outcomes["no broker"]
    assert all(other == (status, answer) for other in outcomes.values()), \
        outcomes
    if request_kind == "valid":
        assert status == "ok"
    elif request_kind == "flipped":
        assert answer is CorruptionError
    elif request_kind == "unknown database":
        assert answer is YokanError or rpc_name in (
            "yokan.list_databases", "yokan.sync")
    elif request_kind == "undecodable" or rpc_name != "yokan.list_databases":
        # The decode error's name travels; it is not a transport error.
        assert answer is YokanError


def test_a_shed_is_answered_before_the_handler_runs():
    world, prefix = deployment("broker, tagged", rate=1.0, burst=1.0)
    backend = world[1].databases["events"]
    first = prefix + wire.seal(wire.encode(("events", b"first", b"v")))
    assert outcome(world, "yokan.put", first) == ("ok", None)
    # Shed on the tenant header alone: the payload is not even intact.
    second = prefix + flipped(
        wire.seal(wire.encode(("events", b"second", b"v"))), -1)
    handle = world[2].engine.create_handle("sm://server/0", "yokan.put")
    with pytest.raises(ServiceBusy) as shed:
        _unwrap(handle.forward(second, 1))
    assert shed.value.retry_after_s > 0.0
    assert backend.exists(b"first") and not backend.exists(b"second")
    counters = world[1].broker.tenant_stats()["tenants"]["t"]
    assert (counters["admitted"], counters["completed"],
            counters["shed"]) == (1, 1, 1)


def test_the_slot_is_released_however_the_handler_ends(monkeypatch):
    world, prefix = deployment("broker, tagged")
    backend = world[1].databases["events"]
    payload = prefix + wire.seal(wire.encode(("events", b"absent", 8192)))
    assert outcome(world, "yokan.get", payload) == ("raised", KeyNotFound)

    def server_bug(key):
        raise RuntimeError("not one of the handled errors")

    monkeypatch.setattr(backend, "get", server_bug)
    # Outside the handled set the RPC itself fails, as without a broker.
    assert outcome(world, "yokan.get", payload) == ("raised", RPCError)
    counters = world[1].broker.tenant_stats()["tenants"]["t"]
    assert counters["admitted"] == counters["completed"] == 2
    assert world[1].broker.in_service == 0


# -- verbs cannot rot: handler <-> RPC_NAMES <-> sender ------------------------

REMOVED_VERBS = ("yokan.list_keyvals", "yokan.count_prefix",
                 "yokan.create_database")


def test_every_handler_has_a_sender_and_every_sender_a_handler(world):
    """What a provider registers, ``RPC_NAMES`` and the verb literals the
    client module sends are one set: a verb nobody sends, or one nobody
    serves, fails here."""
    _, provider, _, _ = world
    registered = {name for name, provider_id in provider.engine._registry
                  if provider_id == provider.provider_id}
    sent = set(re.findall(r'"(yokan\.[a-z_]+)"',
                          inspect.getsource(client_module)))
    assert len(set(RPC_NAMES)) == len(RPC_NAMES) == 14
    assert registered == set(RPC_NAMES) == sent


@pytest.mark.parametrize("rpc_name", REMOVED_VERBS)
def test_a_removed_verb_is_refused_not_hung(world, rpc_name):
    _, _, client, _ = world
    handle = client.engine.create_handle("sm://server/0", rpc_name)
    with pytest.raises(NoSuchRPCError) as refused:
        handle.forward(wire.seal(wire.encode(("events", b"ev", b"", 3))), 1,
                       timeout=5.0)
    assert not isinstance(refused.value, RETRYABLE_ERRORS)
