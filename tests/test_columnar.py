"""Differential tests for the columnar data plane (SoA + scan_columns).

The row-wise archive is the oracle throughout: transposed columns and
server-projected columns must equal the corresponding object fields
(the stored typed table's round trip is in ``test_ingest_columnar``);
and the vectorized Cut/Var selection must accept the *identical* event
set as the per-event fast path -- fault-free, under the chaos schedule,
and across a live 1 -> 4 shard rescale.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.chaos import (
    SINGLE_SHARD,
    STOCK_FAULTS,
    ChaosStage,
    build_schedule,
    chaos_client_policy,
)
from repro.errors import ProductNotFound
from repro.hepnos import (
    DataLoader,
    PEPOptions,
    WriteBatch,
    product_type_name,
    vector_of,
)
from repro.hepnos.column_block import ABSENT
from repro.hepnos.keys import product_key
from repro.nova import GeneratorConfig, generate_file_set, nue_candidate_cut
from repro.nova.cafana import Cut
from repro.serial import (
    columnar,
    dumps,
    loads,
    register_type,
    registered_type,
    serializable,
)
from repro.serial.compiled import column_plan, plan_table
from repro.serial.columnar import (
    column_from_block,
    pack_field_column,
    to_columns,
)
from repro.workflows import HEPnOSWorkflow
from repro.yokan import YokanProvider


# -- random schemas -----------------------------------------------------------

KIND_TYPES = {"float": float, "int": int, "bool": bool,
              "str": str, "bytes": bytes}
KIND_DEFAULTS = {"float": 0.0, "int": 0, "bool": False,
                 "str": "", "bytes": b""}
_I64 = (1 << 63) - 1

#: schema signature -> registered dataclass; ``register_type`` refuses
#: re-registration, so classes persist across hypothesis examples.
_SCHEMA_CLASSES = {}


def schema_class(spec):
    cls = _SCHEMA_CLASSES.get(spec)
    if cls is None:
        index = len(_SCHEMA_CLASSES)
        cls = dataclasses.make_dataclass(
            f"ColSchema{index}",
            [(name, KIND_TYPES[kind],
              dataclasses.field(default=KIND_DEFAULTS[kind]))
             for name, kind in spec],
        )
        register_type(cls, f"test.columnar.Schema{index}")
        _SCHEMA_CLASSES[spec] = cls
    return cls


def _values(kind):
    # Off-kind values (an int in a float column, a bool in an int
    # column) exercise the guard degradation to value lists.
    if kind == "float":
        return st.one_of(st.floats(width=64), st.integers(-3, 3))
    if kind == "int":
        return st.one_of(st.integers(min_value=-_I64, max_value=_I64),
                         st.booleans())
    if kind == "bool":
        return st.booleans()
    if kind == "str":
        return st.text(max_size=12)
    return st.binary(max_size=12)


_field_names = st.sampled_from(
    ["a", "b", "c", "d", "energy", "nhit", "flag", "tag"])

schemas = st.lists(
    st.tuples(_field_names, st.sampled_from(sorted(KIND_TYPES))),
    min_size=1, max_size=5, unique_by=lambda nk: nk[0],
).map(tuple)


@st.composite
def schema_and_objects(draw):
    spec = draw(schemas)
    cls = schema_class(spec)
    rows = draw(st.integers(min_value=1, max_value=8))
    objs = [cls(**{name: draw(_values(kind)) for name, kind in spec})
            for _ in range(rows)]
    return spec, objs


class TestColumnarRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(schema_and_objects())
    def test_projected_columns_equal_object_fields(self, case):
        spec, objs = case
        count, columns = to_columns(objs)
        assert count == len(objs)
        assert set(columns) == {name for name, _ in spec}
        for name, _kind in spec:
            col = columns[name]
            vals = col.tolist() if isinstance(col, np.ndarray) else col
            # dumps-compare: NaN-safe, and catches int/float confusion.
            assert dumps(vals) == dumps([getattr(o, name) for o in objs])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(schema_and_objects(), min_size=1, max_size=4))
    def test_wire_blocks_round_trip(self, cases):
        """pack_field_column + column_from_block over mixed tables; a
        list whose field is not a numeric column travels raw instead and
        decodes to the same objects."""
        # Force one shared schema so the tables concatenate.
        spec, _ = cases[0]
        cls = schema_class(spec)
        lists = [[cls(**{n: getattr(o, n, KIND_DEFAULTS[k]) for n, k in spec})
                  for o in objs] for _spec, objs in cases]
        tables = [to_columns(objs)[1] for objs in lists]
        values = [dumps(objs) for objs in lists]
        for name, _kind in spec:
            numeric = [isinstance(t[name], np.ndarray) for t in tables]
            statuses, (block,) = YokanProvider._project(values, [name])
            assert statuses == [len(objs) if ok else value for objs, value, ok
                                in zip(lists, values, numeric)]
            expected = [getattr(o, name) for objs, ok in zip(lists, numeric)
                        if ok for o in objs]
            assert block == pack_field_column(
                [t for t, ok in zip(tables, numeric) if ok], name)
            col = column_from_block(*block, len(expected))
            assert col.dtype.kind in "biuf"
            # dumps-compare: NaN-safe, and catches int/float confusion.
            assert dumps(col.tolist()) == dumps(expected)
            for objs, status, ok in zip(lists, statuses, numeric):
                if not ok:
                    assert dumps(loads(status)) == dumps(objs)

    def test_column_fields_matches_plan_order(self):
        spec = (("a", "float"), ("b", "int"), ("c", "str"))
        cls = schema_class(spec)
        assert [name for name, _kind in column_plan(cls)] == ["a", "b", "c"]

    def test_a_plan_asked_before_registration_counts_after(self):
        """Asking before ``register_type`` is a refusal for now, not for
        good: the class is planned, columnarizes and is written as a
        typed table once it is registered."""
        cls = dataclasses.make_dataclass(
            "LateRegistered", [("a", float, dataclasses.field(default=0.0)),
                               ("b", int, dataclasses.field(default=0))])
        assert column_plan(cls) is None
        assert to_columns([cls(1.0, 2)]) is None
        register_type(cls, "test.columnar.LateRegistered")
        assert [name for name, _kind in column_plan(cls)] == ["a", "b"]
        assert to_columns([cls(1.0, 2)])[0] == 1
        assert plan_table(cls, {"a": np.dtype("<f8"),
                                "b": np.dtype("<i8")}) is not None

    def test_unplanned_list_returns_none(self):
        assert to_columns([]) is None
        assert to_columns([object()]) is None
        spec = (("a", "float"),)
        cls = schema_class(spec)
        assert to_columns([cls(1.0), object()]) is None  # heterogeneous


# -- server-side projection ---------------------------------------------------


@serializable("test.columnar.Hit")
@dataclasses.dataclass
class Hit:
    e: float = 0.0
    n: int = 0
    good: bool = False
    tag: str = ""


class TestServerProjection:
    def _populate(self, datastore, events=12):
        ds = datastore.create_dataset("columnar/proj")
        subrun = ds.create_run(1).create_subrun(1)
        stored = {}
        for i in range(events):
            event = subrun.create_event(i)
            value = [Hit(e=float(i) + 0.5, n=i, good=(i % 3 == 0),
                         tag=f"t{i}") for _ in range(1 + i % 3)]
            event.store(value, label="hits")
            stored[event.key] = value
        return stored

    def test_projection_equals_object_fields(self, datastore):
        stored = self._populate(datastore)
        keys = sorted(stored)
        block = datastore.load_products_columnar(
            keys, vector_of(Hit), ["e", "n", "good"], label="hits")
        assert not block.raw and ABSENT not in block.present
        assert block.rows == sum(len(v) for v in stored.values())
        for i, key in enumerate(keys):
            lo, hi = block.event_rows(i)
            objs = stored[key]
            assert block.column("e")[lo:hi].tolist() == [o.e for o in objs]
            assert block.column("n")[lo:hi].tolist() == [o.n for o in objs]
            assert (block.column("good")[lo:hi].tolist()
                    == [o.good for o in objs])

    def test_missing_product_reported_absent(self, datastore):
        stored = self._populate(datastore, events=4)
        empty = datastore.create_dataset("columnar/none") \
            .create_run(1).create_subrun(1).create_event(0)
        keys = sorted(stored) + [empty.key]
        block = datastore.load_products_columnar(
            keys, vector_of(Hit), ["e"], label="hits")
        missing = [i for i, s in enumerate(block.present) if s is ABSENT]
        assert missing == [len(keys) - 1]

    def test_column_cache_counts_second_load(self, datastore):
        stored = self._populate(datastore)
        keys = sorted(stored)
        fields = ["e", "n"]
        datastore.load_products_columnar(
            keys, vector_of(Hit), fields, label="hits")
        hits0 = datastore.metrics.counter("hepnos.column_cache.hits").value
        block = datastore.load_products_columnar(
            keys, vector_of(Hit), fields, label="hits")
        hits1 = datastore.metrics.counter("hepnos.column_cache.hits").value
        assert hits1 - hits0 >= len(keys)
        assert block.rows == sum(len(v) for v in stored.values())

    def test_overwrite_drops_client_columns_and_server_projects_new_bytes(
            self, datastore):
        stored = self._populate(datastore, events=3)
        keys = sorted(stored)
        block = datastore.load_products_columnar(
            keys, vector_of(Hit), ["e"], label="hits")
        before = block.column("e").tolist()
        # Overwrite one product: the client column cache must drop its
        # columns, and the (stateless) server projects the new bytes.
        ds = datastore["columnar/proj"]
        event = ds[1][1][0]
        event.store([Hit(e=99.0)], label="hits")
        assert event.key == keys[0]
        block = datastore.load_products_columnar(
            keys, vector_of(Hit), ["e"], label="hits")
        after = block.column("e").tolist()
        assert after != before
        assert after[: block.event_rows(0)[1]] == [99.0]

    @pytest.mark.parametrize("reader", ["columns", "object"])
    def test_batched_overwrite_drops_what_a_load_cached_before_the_flush(
            self, datastore, reader):
        """A load between a batched store's append and its flush caches
        the old value; the acknowledged flush must drop it again."""
        from repro.hepnos import WriteBatch

        stored = self._populate(datastore, events=3)
        keys = sorted(stored)
        event = datastore["columnar/proj"][1][1][0]
        assert event.key == keys[0]

        def load():
            if reader == "object":
                return [hit.e for hit in event.load(vector_of(Hit),
                                                    label="hits")]
            block = datastore.load_products_columnar(
                keys, vector_of(Hit), ["e"], label="hits")
            return block.event_columns(0)["e"].tolist()

        batch = WriteBatch(datastore)
        event.store([Hit(e=99.0)], label="hits", batch=batch)
        assert load() == [0.5]     # v1, cached from the server
        batch.flush()
        assert load() == [99.0]
        assert load() == [99.0]    # and what that load cached is v2

    def test_projection_ships_fewer_bytes(self, datastore):
        """A 3-of-8 field projection must ship <= 25% of packed bytes."""
        ds = datastore.create_dataset("columnar/bytes")
        subrun = ds.create_run(1).create_subrun(1)
        keys = []
        from repro.nova.datamodel import SliceData as slc
        from repro.nova.generator import NovaGenerator
        gen = NovaGenerator()
        for i in range(16):
            event = subrun.create_event(i)
            event.store(gen.slices_for_event(1, 1, i), label="")
            keys.append(event.key)
        packed_bytes = 0
        for key in keys:
            for target in {datastore.placement.product_database_for(key)}:
                handle = datastore.handle_for_target(target)
                value = handle.get(product_key(
                    key, "", product_type_name(vector_of(slc))))
                packed_bytes += len(value)
        block = datastore.load_products_columnar(
            keys, vector_of(slc), ["nhit", "cal_e", "cvn_e"], label="")
        projected = sum(
            block.column(f).nbytes for f in ["nhit", "cal_e", "cvn_e"])
        assert not block.raw
        assert projected <= 0.25 * packed_bytes, (projected, packed_bytes)


# -- one column form ----------------------------------------------------------


@serializable("test.columnar.Wide")
@dataclasses.dataclass
class Wide:
    e: float = 0.0
    n: int = 0
    big: int = 0


@serializable("test.columnar.Tagged")
@dataclasses.dataclass
class Tagged:
    e: float = 0.0
    tag: str = ""


@serializable("test.columnar.Blip")
class Blip:
    """Row-encoded by its own ``serialize``: it has no field plan."""

    def __init__(self, e=0.0, n=0):
        self.e = e
        self.n = n

    def serialize(self, ar):
        self.e = ar.io(self.e)
        self.n = ar.io(self.n)


def _wide_table(rows) -> bytes:
    """The typed table value of ``Wide`` rows, ``big`` stored ``<u8``."""
    columns = {name: np.array([row[i] for row in rows], dtype=dtype)
               for i, (name, dtype) in enumerate(
                   (("e", "<f4"), ("n", "<i4"), ("big", "<u8")))}
    layout = plan_table(Wide, {k: v.dtype for k, v in columns.items()})
    return layout.value(layout.records(columns, np.arange(len(rows))),
                        0, len(rows))


def _block_result(block, cut) -> list:
    """Per event: does any record pass ``cut``, from a column block."""
    passed = (block.event_any(cut.mask(block.table)) if block.rows
              else np.zeros(len(block), dtype=bool))
    return [bool(passed[i]) or any(cut(o) for o in block.raw.get(i, ()))
            for i in range(len(block))]


def _object_result(event, cls, cut) -> bool:
    try:
        return any(cut(o) for o in event.load(vector_of(cls)))
    except ProductNotFound:
        return False


class TestOneColumnForm:
    """A projected column is a numeric array, on the wire, in the column
    cache and in the block; whatever cannot give one travels raw, and a
    declared cut's per-event result is the object path's."""

    def test_mixed_page_projects_numeric_columns_only(self, datastore,
                                                      sample):
        DataLoader(datastore, "columnar/oneform").ingest(sample.paths)
        ds = datastore["columnar/oneform"]
        empty = ds.create_run(10**6).create_subrun(0)
        events = list(ds.events()) + [empty.create_event(i) for i in range(3)]
        ingested = len(events) - 3
        with WriteBatch(datastore) as batch:
            for i, event in enumerate(events[:ingested]):
                rows = [(0.5 * j + i % 4, i + j, j) for j in range(1 + i % 3)]
                if i % 5 == 0:
                    rows[-1] = rows[-1][:2] + (2**63 + i,)  # past int64
                if i % 5 < 2:       # typed tables, as ingest writes them
                    datastore.store_encoded_products(
                        [event.key], vector_of(Wide), [_wide_table(rows)],
                        batch=batch)
                elif i % 5 == 2:    # a row-stored dataclass list
                    event.store([Wide(*row) for row in rows], batch=batch)
                elif i % 5 == 3:    # an off-kind n fails its guard
                    event.store([Wide(e, True, big) for e, _, big in rows],
                                batch=batch)
                if i % 2:
                    event.store([Blip(float(i), i)], batch=batch)
                if i % 3:
                    event.store([Tagged(float(i), "keep" if i % 2 else "no")],
                                batch=batch)
        keys = [event.key for event in events]
        e_cut = Cut("e>1", lambda s: s.e > 1.0,
                    lambda t: t["e"] > 1.0, columns=["e"])
        big_cut = Cut("odd big or n>3", lambda s: s.big % 2 == 1 or s.n > 3,
                      lambda t: (t["big"] % 2 == 1) | (t["n"] > 3),
                      columns=["big", "n"])
        tag_cut = Cut("keep", lambda s: s.tag == "keep",
                      lambda t: t["tag"] == "keep", columns=["tag", "e"])
        cases = [
            (registered_type("rec.slc"), nue_candidate_cut, set()),
            (Wide, e_cut, set()),
            (Wide, big_cut, {i for i in range(ingested) if i % 5 in (0, 3)}),
            (Tagged, e_cut, set()),
            (Tagged, tag_cut, {i for i in range(ingested) if i % 3}),
            (Blip, e_cut, {i for i in range(ingested) if i % 2}),
        ]
        blocks = []
        unpack = column_from_block

        def spy(dtype_str, payload, total_rows):
            blocks.append(dtype_str)
            return unpack(dtype_str, payload, total_rows)

        with mock.patch.object(columnar, "column_from_block", spy):
            for cls, cut, raw in cases:
                expected = [_object_result(event, cls, cut)
                            for event in events]
                assert any(expected) and not all(expected)
                # from the service, then from the column cache
                for _load in range(2):
                    block = datastore.load_products_columnar(
                        keys, vector_of(cls), sorted(cut.columns))
                    assert set(block.raw) == raw, (cls, cut)
                    assert _block_result(block, cut) == expected, (cls, cut)
                    assert all(array.dtype.kind in "biuf"
                               for array in block.arrays.values())
        assert blocks and all(np.dtype(d).kind in "biuf" for d in blocks)
        runs = [entry for key, entry in datastore._product_cache._entries
                .items() if isinstance(key, int)]
        assert runs and all(col.dtype.kind in "biuf" for run in runs
                            for col in run.columns.values())


# -- selection identity -------------------------------------------------------


def _ingest(datastore, paths, tag):
    workflow = HEPnOSWorkflow(
        datastore, f"columnar/{tag}",
        pep_options=PEPOptions(input_batch_size=64, dispatch_batch_size=8))
    workflow.ingest(paths, num_ranks=1)
    return workflow


def _select(datastore, tag, columnar, cut=nue_candidate_cut, ranks=2):
    workflow = HEPnOSWorkflow(
        datastore, f"columnar/{tag}", cut=cut,
        pep_options=PEPOptions(input_batch_size=64, dispatch_batch_size=8,
                               columnar_loads=columnar),
    )
    return workflow.select(num_ranks=ranks)


def _selection_bytes(result):
    return dumps(sorted(result.accepted_ids))


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    return generate_file_set(
        str(tmp_path_factory.mktemp("columnar-files")), num_files=2,
        mean_events_per_file=24,
        config=GeneratorConfig(signal_fraction=0.05, events_per_subrun=16,
                               subruns_per_run=4),
    )


class TestSelectionIdentity:
    def test_vectorized_matches_per_event(self, datastore, sample):
        _ingest(datastore, sample.paths, "ident")
        per_event = _select(datastore, "ident", columnar=False)
        vectorized = _select(datastore, "ident", columnar=True)
        assert per_event.accepted_ids  # the sample must select something
        assert _selection_bytes(vectorized) == _selection_bytes(per_event)
        assert vectorized.events_processed == per_event.events_processed
        assert vectorized.slices_examined == per_event.slices_examined

    def test_opaque_cut_falls_back_identically(self, datastore, sample):
        _ingest(datastore, sample.paths, "opaque")
        opaque = Cut("opaque", lambda s: s.nhit > 20 and s.cal_e > 1.0)
        assert opaque.columns is None
        per_event = _select(datastore, "opaque", columnar=False, cut=opaque)
        requested = _select(datastore, "opaque", columnar=True, cut=opaque)
        assert _selection_bytes(requested) == _selection_bytes(per_event)

    def test_identity_under_chaos(self, sample):
        """Vectorized selection under the stock fault schedule must
        accept the byte-identical event set of a quiet per-event run."""
        policy = chaos_client_policy()
        with ChaosStage(sample.paths, retry_policy=policy) as quiet:
            _ingest(quiet.datastore, sample.paths, "chaos")
            baseline = _select(quiet.datastore, "chaos", columnar=False)

        with ChaosStage(sample.paths, retry_policy=policy) as stage:
            _ingest(stage.datastore, sample.paths, "chaos")
            with stage.faults(build_schedule(
                    7, stage.servers,
                    **dict(STOCK_FAULTS, spike_window=(40, 44)))):
                chaos = _select(stage.datastore, "chaos", columnar=True)
        injected = stage.injected
        assert (injected["dropped"] + injected["corrupted"]
                + injected["delayed"]) > 0
        assert _selection_bytes(chaos) == _selection_bytes(baseline)

    def test_identity_across_live_rescale(self, sample):
        """1 -> 4 shard live grow mid-selection: the vectorized path's
        dual-read fan-out must keep the selection byte-identical."""
        with ChaosStage(sample.paths, layout=SINGLE_SHARD,
                        num_servers=1) as stage:
            datastore = stage.datastore
            _ingest(datastore, sample.paths, "rescale")
            baseline = _select(datastore, "rescale", columnar=False)
            with stage.live_grow(num_providers=3, event_databases=3,
                                 product_databases=3):
                during = _select(datastore, "rescale", columnar=True)
            assert datastore.connection.counts()["products"] == 4
            assert not datastore.placement.migrating
            after = _select(datastore, "rescale", columnar=True)
        assert _selection_bytes(during) == _selection_bytes(baseline)
        assert _selection_bytes(after) == _selection_bytes(baseline)
