"""Tests for the synthetic NOvA workload: generator, files, selection."""

import collections
import operator
import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nova import (
    BEAM,
    COSMIC,
    Cut,
    GeneratorConfig,
    NovaGenerator,
    Spectrum,
    Var,
    generate_file_set,
    kContainment,
    kNuePID,
    kQuality,
    nue_candidate_cut,
    read_nova_file,
    select_slices,
    write_nova_file,
)
from repro.nova.cafana import kCalE, kCVNe, kCVNmu, select_from_table
from repro.nova.datamodel import SLICE_COLUMNS, SliceData
from repro.nova.files import iter_file_events
from repro.nova.generator import table_to_slices
from repro.serial import dumps, loads


class TestGenerator:
    def test_deterministic(self):
        g1 = NovaGenerator(BEAM)
        g2 = NovaGenerator(BEAM)
        t1 = g1.subrun_table(1000, 3, range(10))
        t2 = g2.subrun_table(1000, 3, range(10))
        for name in t1:
            assert np.array_equal(t1[name], t2[name])

    def test_subset_consistency(self):
        """Requesting a subset of events yields identical rows."""
        g = NovaGenerator(BEAM)
        full = g.subrun_table(1000, 0, range(20))
        part = g.subrun_table(1000, 0, [5])
        mask = full["evt"] == 5
        for name, _ in SLICE_COLUMNS:
            assert np.array_equal(full[name][mask], part[name])

    def test_seed_changes_data(self):
        t1 = NovaGenerator(BEAM).subrun_table(1000, 0, range(5))
        t2 = NovaGenerator(GeneratorConfig(seed=999)).subrun_table(1000, 0, range(5))
        assert not np.array_equal(t1["cal_e"], t2["cal_e"])

    def test_slice_rate_near_configured_mean(self):
        g = NovaGenerator(BEAM)
        counts = []
        for subrun in range(10):
            table = g.subrun_table(1000, subrun, range(64))
            counts.extend(table["header_nslices"].tolist())
        mean = np.mean(counts)
        assert 3.5 < mean < 4.7  # configured 4.1

    def test_cosmic_profile_12x(self):
        beam = NovaGenerator(BEAM).subrun_table(1000, 0, range(32))
        cosmic = NovaGenerator(COSMIC).subrun_table(1000, 0, range(32))
        ratio = len(cosmic["run"]) / len(beam["run"])
        assert 8 < ratio < 16

    def test_every_event_has_a_slice(self):
        g = NovaGenerator(BEAM)
        table = g.subrun_table(1000, 0, range(64))
        assert set(table["evt"].tolist()) == set(range(64))

    def test_slice_ids_unique(self):
        g = NovaGenerator(BEAM)
        ids = []
        for subrun in range(3):
            ids.extend(g.subrun_table(1000, subrun, range(64))["slice_id"])
        assert len(set(ids)) == len(ids)

    def test_numbering_shape(self):
        cfg = GeneratorConfig(events_per_subrun=4, subruns_per_run=2)
        g = NovaGenerator(cfg)
        triples = list(g.event_numbering(10))
        assert triples[0] == (1000, 0, 0)
        assert triples[4] == (1000, 1, 0)
        assert triples[8] == (1001, 0, 0)

    def test_object_view_roundtrips_serialization(self):
        g = NovaGenerator(BEAM)
        slices = g.slices_for_event(1000, 0, 7)
        assert len(slices) >= 1
        assert all(isinstance(s, SliceData) for s in slices)
        assert loads(dumps(slices)) == slices

    def test_header(self):
        g = NovaGenerator(BEAM)
        header = g.header_for_event(1000, 0, 7)
        assert header.nslices == len(g.slices_for_event(1000, 0, 7))
        assert header.trigger == 0

    def test_dist_to_edge_consistent_with_vertex(self):
        table = NovaGenerator(BEAM).subrun_table(1000, 0, range(32))
        expected = np.minimum.reduce([
            780.0 - np.abs(table["vtx_x"]),
            780.0 - np.abs(table["vtx_y"]),
            table["vtx_z"],
            6000.0 - table["vtx_z"],
        ])
        assert np.allclose(table["dist_to_edge"], expected, atol=1e-3)


class TestSelection:
    @pytest.fixture(scope="class")
    def big_table(self):
        g = NovaGenerator(GeneratorConfig(signal_fraction=0.05))
        tables = [g.subrun_table(1000, s, range(64)) for s in range(8)]
        return {
            name: np.concatenate([t[name] for t in tables])
            for name in tables[0]
            if name != "header_nslices"
        }

    def test_signal_efficiency(self, big_table):
        mask = nue_candidate_cut.mask(big_table)
        signal = big_table["true_pdg"] == 12
        efficiency = mask[signal].mean()
        assert efficiency > 0.4, f"signal efficiency too low: {efficiency}"

    def test_background_rejection(self, big_table):
        mask = nue_candidate_cut.mask(big_table)
        background = big_table["true_pdg"] == 0
        leak = mask[background].mean()
        assert leak < 0.01, f"background leakage too high: {leak}"

    def test_object_and_columnar_agree(self, big_table):
        rows = range(500)
        slices = table_to_slices(big_table, rows)
        object_ids = set(select_slices(slices))
        columnar_ids = set(
            select_from_table(
                {k: v[:500] for k, v in big_table.items()}
            ).tolist()
        )
        assert object_ids == columnar_ids

    def test_cut_composition(self):
        s_pass = SliceData(nhit=100, ncontplanes=30, cal_e=2.0, cvn_e=0.9,
                           cvn_mu=0.1, remid=0.1, cosrej=0.1, dist_to_edge=200)
        s_fail = SliceData(nhit=5)
        assert nue_candidate_cut(s_pass)
        assert not nue_candidate_cut(s_fail)
        assert (~nue_candidate_cut)(s_fail)
        assert (kQuality | kContainment)(s_pass)

    def test_cut_mask_fallback_path(self, big_table):
        """A cut without a vectorized form still masks correctly."""
        slow = Cut("nhit>=30", lambda s: s.nhit >= 30)
        sub = {k: v[:200] for k, v in big_table.items()}
        assert np.array_equal(slow.mask(sub), sub["nhit"] >= 30)

    def test_individual_cuts_progressive(self, big_table):
        """Each additional cut can only shrink the selection."""
        n_all = len(big_table["slice_id"])
        n_q = kQuality.mask(big_table).sum()
        n_qc = (kQuality & kContainment).mask(big_table).sum()
        n_qcp = (kQuality & kContainment & kNuePID).mask(big_table).sum()
        n_full = nue_candidate_cut.mask(big_table).sum()
        assert n_all >= n_q >= n_qc >= n_qcp >= n_full > 0

    def test_var_comparisons(self):
        v = Var("cal_e")
        s = SliceData(cal_e=1.5)
        assert (v > 1.0)(s) and (v >= 1.5)(s) and (v < 2.0)(s) and (v <= 1.5)(s)

    def test_spectrum(self, big_table):
        spec = Spectrum(Var("cal_e"), bins=np.linspace(0, 5, 26))
        n = spec.fill_table(big_table)
        assert n == nue_candidate_cut.mask(big_table).sum()
        assert spec.integral <= n  # overflow values fall outside bins
        spec2 = Spectrum(Var("cal_e"), bins=np.linspace(0, 5, 26))
        spec2.fill_slices(table_to_slices(big_table, range(300)))
        assert spec2.entries >= 0

    def test_spectrum_validates_bins(self):
        with pytest.raises(ValueError):
            Spectrum(Var("cal_e"), bins=[1.0])
        with pytest.raises(ValueError):
            Spectrum(Var("cal_e"), bins=[2.0, 1.0])


class TestFiles:
    def test_write_read_roundtrip(self, tmp_path):
        g = NovaGenerator(BEAM)
        triples = list(g.event_numbering(20))
        path = str(tmp_path / "f.h5l")
        nslices = write_nova_file(path, g, triples)
        table = read_nova_file(path)
        assert len(table["run"]) == nslices
        assert set(zip(table["run"].tolist(), table["subrun"].tolist(),
                       table["evt"].tolist())) == {
            (r, s, e) for r, s, e in triples
        }

    def test_file_matches_generator(self, tmp_path):
        """File contents equal direct generation (ingest equivalence)."""
        g = NovaGenerator(BEAM)
        path = str(tmp_path / "f.h5l")
        write_nova_file(path, g, [(1000, 0, e) for e in range(10)])
        table = read_nova_file(path)
        direct = g.subrun_table(1000, 0, range(10))
        order_f = np.lexsort((table["evt"], table["slice_id"]))
        order_d = np.lexsort((direct["evt"], direct["slice_id"]))
        assert np.array_equal(table["slice_id"][order_f],
                              direct["slice_id"][order_d])
        assert np.allclose(table["cal_e"][order_f], direct["cal_e"][order_d])

    def test_iter_file_events(self, tmp_path):
        g = NovaGenerator(BEAM)
        path = str(tmp_path / "f.h5l")
        triples = [(1000, 0, e) for e in range(12)]
        write_nova_file(path, g, triples)
        seen = []
        for triple, rows in iter_file_events(path):
            seen.append(triple)
            assert len(rows["slice_id"]) >= 1
        assert seen == triples

    def test_header_table(self, tmp_path):
        g = NovaGenerator(BEAM)
        path = str(tmp_path / "f.h5l")
        write_nova_file(path, g, [(1000, 0, e) for e in range(5)])
        table = read_nova_file(path)
        assert len(table["hdr_run"]) == 5
        assert table["hdr_nslices"].sum() == len(table["run"])

    def test_generate_file_set(self, tmp_path):
        summary = generate_file_set(str(tmp_path / "files"), num_files=6,
                                    mean_events_per_file=16)
        assert summary.num_files == 6
        assert summary.total_events == sum(summary.events_per_file)
        assert summary.total_slices > summary.total_events  # >1 slice/event
        # Heavy-tailed sizes: not all files equal.
        assert len(set(summary.events_per_file)) > 1

    def test_file_set_no_event_overlap(self, tmp_path):
        summary = generate_file_set(str(tmp_path / "files"), num_files=4,
                                    mean_events_per_file=8)
        seen = set()
        for path in summary.paths:
            table = read_nova_file(path)
            triples = set(zip(table["run"].tolist(), table["subrun"].tolist(),
                              table["evt"].tolist()))
            assert not triples & seen
            seen |= triples
        assert len(seen) == summary.total_events

    def test_equal_size_mode(self, tmp_path):
        summary = generate_file_set(str(tmp_path / "files"), num_files=3,
                                    mean_events_per_file=8, size_spread=0.0)
        assert summary.events_per_file == [8, 8, 8]


class TestCompressedFiles:
    def test_compressed_file_roundtrip(self, tmp_path):
        g = NovaGenerator(BEAM)
        triples = [(1000, 0, e) for e in range(10)]
        plain = str(tmp_path / "plain.h5l")
        packed = str(tmp_path / "packed.h5l")
        write_nova_file(plain, g, triples)
        write_nova_file(packed, g, triples, compression="zlib")
        a = read_nova_file(plain)
        b = read_nova_file(packed)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_compression_shrinks_file(self, tmp_path):
        import os

        g = NovaGenerator(BEAM)
        triples = [(1000, 0, e) for e in range(40)]
        plain = str(tmp_path / "plain.h5l")
        packed = str(tmp_path / "packed.h5l")
        write_nova_file(plain, g, triples)
        write_nova_file(packed, g, triples, compression="zlib")
        assert os.path.getsize(packed) < os.path.getsize(plain)


class TestVarAlgebra:
    def test_arithmetic_object_mode(self):
        s = SliceData(cal_e=2.0, nhit=10)
        per_hit = Var("cal_e") / Var("nhit")
        assert per_hit(s) == pytest.approx(0.2)
        assert (Var("cal_e") + 1.0)(s) == 3.0
        assert (2.0 * Var("cal_e"))(s) == 4.0
        assert (Var("cal_e") - Var("cal_e"))(s) == 0.0
        assert (4.0 / Var("cal_e"))(s) == 2.0
        assert (1.0 - Var("cal_e"))(s) == -1.0

    def test_arithmetic_columnar_mode(self):
        table = {"cal_e": np.array([1.0, 2.0]), "nhit": np.array([4, 8])}
        per_hit = Var("cal_e") / Var("nhit")
        assert np.allclose(per_hit.column(table), [0.25, 0.25])

    def test_derived_var_in_cut(self):
        table = {"cal_e": np.array([1.0, 4.0]), "nhit": np.array([10, 10])}
        cut = (Var("cal_e") / Var("nhit")) > 0.2
        assert cut.mask(table).tolist() == [False, True]

    def test_derived_var_in_spectrum(self):
        always = Cut("true", lambda s: True, lambda t: np.ones(
            len(next(iter(t.values()))), dtype=bool))
        spec = Spectrum(Var("cal_e") * 2.0, bins=[0, 2, 4, 8], cut=always)
        spec.fill_table({"cal_e": np.array([0.5, 1.5, 3.0])})
        assert spec.counts.tolist() == [1.0, 1.0, 1.0]

    def test_name_composition(self):
        assert (Var("a") + Var("b")).name == "(a+b)"

    def test_comparing_two_vars_compares_their_values(self):
        cut = kCVNe > kCVNmu
        assert not cut(SliceData(cvn_e=0.1, cvn_mu=0.9))
        assert cut(SliceData(cvn_e=0.9, cvn_mu=0.1))
        table = {"cvn_e": np.array([0.1, 0.9]), "cvn_mu": np.array([0.9, 0.1])}
        assert cut.mask(table).tolist() == [False, True]
        assert cut.columns == {"cvn_e", "cvn_mu"}
        assert (kCVNe < kCVNmu).mask(table).tolist() == [True, False]
        assert (kCVNe <= kCVNmu).mask(table).tolist() == [True, False]
        assert (kCVNe >= kCVNmu).mask(table).tolist() == [False, True]


# -- compiled object-mode cuts against the closure tree ----------------------

BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}
#: symbol -> (operator, its mirror): Python evaluates ``constant < var``
#: as ``var > constant``
COMPARE = {">": (operator.gt, operator.lt), ">=": (operator.ge, operator.le),
           "<": (operator.lt, operator.gt), "<=": (operator.le, operator.ge)}
ATTRS = ("a", "b", "c")
EDGE_VALUES = [0.0, -0.0, 1.0, -2.5, 3.0, float("nan"), float("inf"),
               float("-inf"), 5e-324, 1e308]


class Leaves:
    """Opaque Var and Cut leaves that count their calls per leaf."""

    def __init__(self):
        self.calls = collections.Counter()

    def fn(self, kind: str, name: str):
        def leaf(s):
            self.calls[kind, name] += 1
            return getattr(s, name)

        return leaf


def reference(spec, leaves: Leaves):
    """The object-mode evaluator as a tree of closures, one per node,
    as the combinators built it before cuts were compiled."""
    kind = spec[0]
    if kind == "attr":
        return lambda s: getattr(s, spec[1])
    if kind == "const":
        return lambda s: spec[1]
    if kind in ("var", "cut"):
        return leaves.fn(kind, spec[1])
    if kind == "bin":
        op = BINARY[spec[1]]
        left, right = reference(spec[2], leaves), reference(spec[3], leaves)
        return lambda s: op(left(s), right(s))
    if kind == "cmp":
        op, mirrored = COMPARE[spec[1]]
        left, right = reference(spec[2], leaves), reference(spec[3], leaves)
        if spec[2][0] == "const":
            return lambda s: mirrored(right(s), left(s))
        return lambda s: op(left(s), right(s))
    if kind == "not":
        operand = reference(spec[1], leaves)
        return lambda s: not operand(s)
    left, right = reference(spec[1], leaves), reference(spec[2], leaves)
    if kind == "and":
        return lambda s: left(s) and right(s)
    return lambda s: left(s) or right(s)


def build(spec, leaves: Leaves):
    """The Var or Cut ``spec`` describes, built with the combinators."""
    kind = spec[0]
    if kind == "attr":
        return Var(spec[1])
    if kind == "const":
        return spec[1]
    if kind == "var":
        return Var("opaque", leaves.fn(kind, spec[1]))
    if kind == "cut":
        return Cut("opaque", leaves.fn(kind, spec[1]))
    if kind == "bin":
        return BINARY[spec[1]](build(spec[2], leaves), build(spec[3], leaves))
    if kind == "cmp":
        return COMPARE[spec[1]][0](build(spec[2], leaves),
                                   build(spec[3], leaves))
    if kind == "not":
        return ~build(spec[1], leaves)
    left, right = build(spec[1], leaves), build(spec[2], leaves)
    return left & right if kind == "and" else left | right


def outcome(fn, s, leaves: Leaves):
    """What ``fn(s)`` gives or raises, and the opaque leaves' calls on the
    way.  A float compares by its bits (so -0.0 is not 0.0), a NaN as any
    NaN: which operand's payload an arithmetic NaN carries differs
    between CPython's generic and specialised float paths."""
    leaves.calls.clear()
    try:
        value = fn(s)
        if type(value) is float:
            value = "nan" if value != value else struct.pack("<d", value)
    except ZeroDivisionError as exc:
        value = type(exc)
    return value, dict(leaves.calls)


_CONST = st.sampled_from(EDGE_VALUES).map(lambda v: ("const", v))
_VARS = st.recursive(
    st.tuples(st.sampled_from(["attr", "var"]), st.sampled_from(ATTRS)),
    lambda inner: st.one_of(
        st.tuples(st.just("bin"), st.sampled_from(sorted(BINARY)), inner,
                  inner),
        st.tuples(st.just("bin"), st.sampled_from(sorted(BINARY)), _CONST,
                  inner),
        st.tuples(st.just("bin"), st.sampled_from(sorted(BINARY)), inner,
                  _CONST)),
    max_leaves=5)
_CUTS = st.recursive(
    st.one_of(
        st.tuples(st.just("cmp"), st.sampled_from(sorted(COMPARE)), _VARS,
                  _VARS | _CONST),
        st.tuples(st.just("cmp"), st.sampled_from(sorted(COMPARE)), _CONST,
                  _VARS),
        st.tuples(st.just("cut"), st.sampled_from(ATTRS))),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["and", "or"]), inner, inner),
        st.tuples(st.just("not"), inner)),
    max_leaves=8)
_SLICES = st.builds(types.SimpleNamespace,
                    **{name: st.sampled_from(EDGE_VALUES) | st.floats()
                       for name in ATTRS})


class TestCompiledCuts:
    @settings(max_examples=300, deadline=None)
    @given(_CUTS, st.lists(_SLICES, min_size=1, max_size=4))
    def test_cut_matches_the_closure_tree(self, spec, slices):
        leaves = Leaves()
        cut, expected = build(spec, leaves), reference(spec, leaves)
        for s in slices:
            assert outcome(cut, s, leaves) == outcome(
                lambda s: bool(expected(s)), s, leaves)

    @settings(max_examples=300, deadline=None)
    @given(_VARS, st.lists(_SLICES, min_size=1, max_size=4))
    def test_var_matches_the_closure_tree(self, spec, slices):
        leaves = Leaves()
        var, expected = build(spec, leaves), reference(spec, leaves)
        for s in slices:
            assert outcome(var, s, leaves) == outcome(expected, s, leaves)

    def test_an_opaque_leafs_exception_propagates_unchanged(self):
        error = LookupError("opaque")

        def fails(s):
            raise error

        for cut in ((kCalE > 0) & Cut("opaque", fails),
                    (Var("v", fails) * 2.0) > 1.0):
            with pytest.raises(LookupError) as caught:
                cut(SliceData(cal_e=1.0))
            assert caught.value is error
        # short-circuited away, it is never called
        assert not ((kCalE > 5) & Cut("opaque", fails))(SliceData(cal_e=1.0))

    def test_a_non_identifier_name_is_read_with_getattr(self):
        s = types.SimpleNamespace(**{"my-field": 2.0, "class": 3.0,
                                     "ﬁ": 4.0, "fi": 5.0})
        assert ((Var("my-field") * 2.0) > 3.0)(s)
        assert (Var("class") + Var("my-field"))(s) == 5.0
        # source would read "ﬁ" (the fi ligature) as "fi" (NFKC)
        assert Var("ﬁ")(s) == 4.0
        table = {"my-field": np.array([1.0, 2.0])}
        assert (Var("my-field") > 1.5).mask(table).tolist() == [False, True]

    def test_constants_are_bound_not_spelled(self):
        """A constant whose repr is no expression is still the constant."""
        class Threshold(float):
            def __repr__(self):
                return "<threshold>"

        cut = kCalE > Threshold(1.0)
        assert cut(SliceData(cal_e=2.0)) and not cut(SliceData(cal_e=0.5))

    @pytest.mark.parametrize("shape", ["and", "or", "not", "var+"])
    def test_300_deep_chains(self, shape):
        """Deeper than the parser nests parentheses, in both modes."""
        leaves = Leaves()
        depth = 300
        if shape == "var+":
            spec = ("attr", "a")
            for _ in range(depth):
                spec = ("bin", "+", spec, ("const", 0.5))
        elif shape == "not":
            spec = ("cmp", ">", ("attr", "a"), ("const", 0.0))
            for _ in range(depth):
                spec = ("not", spec)
        else:
            spec = ("cmp", ">", ("attr", "a"), ("const", -1.0))
            for i in range(depth):
                spec = (shape, spec, ("cmp", "<", ("attr", "b"),
                                      ("const", float(i))))
        built, expected = build(spec, leaves), reference(spec, leaves)
        values = np.array([-2.0, 0.0, 0.5, 7.0, 150.0, 400.0])
        for a in values:
            for b in values:
                s = types.SimpleNamespace(a=float(a), b=float(b))
                assert built(s) == (expected(s) if shape == "var+"
                                    else bool(expected(s)))
        table = {"a": np.repeat(values, len(values)),
                 "b": np.tile(values, len(values))}
        if shape == "var+":
            assert np.array_equal(built.column(table), table["a"] + 150.0)
            return
        rows = [bool(expected(types.SimpleNamespace(a=a, b=b)))
                for a, b in zip(table["a"], table["b"])]
        assert built.mask(table).tolist() == rows

    def test_mask_is_the_columnar_form(self):
        table = {name: np.array([0.0, -0.0, 1.0, -2.5, float("nan"),
                                 float("inf")]) for name in ATTRS}
        table["b"] = table["b"][::-1].copy()
        cut = (((Var("a") + 1.0) * Var("b") > 0.5) | ~(Var("c") <= Var("a"))
               ) & (2.0 - Var("b") >= Var("c"))
        a, b, c = table["a"], table["b"], table["c"]
        with np.errstate(invalid="ignore"):
            expected = (((a + 1.0) * b > 0.5) | ~(c <= a)) & (2.0 - b >= c)
            assert cut.mask(table).tolist() == expected.tolist()
        assert cut.columns == {"a", "b", "c"}


class TestNumuSelection:
    def test_numu_and_nue_mostly_disjoint(self):
        from repro.nova import numu_candidate_cut

        g = NovaGenerator(GeneratorConfig(signal_fraction=0.05))
        table = g.subrun_table(1000, 0, range(64))
        nue = set(select_from_table(table, nue_candidate_cut).tolist())
        numu = set(select_from_table(table, numu_candidate_cut).tolist())
        assert not (nue & numu)  # PID cuts are mutually exclusive


class TestSpectrumExposure:
    def _spec(self, pot):
        always = Cut("true", lambda s: True, lambda t: np.ones(
            len(next(iter(t.values()))), dtype=bool))
        spec = Spectrum(Var("cal_e"), bins=[0, 1, 2], cut=always)
        spec.fill_table({"cal_e": np.array([0.5, 1.5])}, pot=pot)
        return spec

    def test_pot_accumulates(self):
        spec = self._spec(pot=2e20)
        assert spec.pot == 2e20

    def test_scaled_to_pot(self):
        spec = self._spec(pot=2e20)
        scaled = spec.scaled_to_pot(1e20)
        assert np.allclose(scaled.counts, spec.counts / 2)
        assert scaled.pot == 1e20

    def test_scale_requires_exposure(self):
        spec = self._spec(pot=0.0)
        with pytest.raises(ValueError):
            spec.scaled_to_pot(1e20)

    def test_addition(self):
        a = self._spec(pot=1e20)
        b = self._spec(pot=3e20)
        combined = a + b
        assert combined.pot == 4e20
        assert np.allclose(combined.counts, a.counts * 2)

    def test_addition_binning_mismatch(self):
        a = self._spec(pot=1e20)
        always = Cut("true", lambda s: True)
        b = Spectrum(Var("cal_e"), bins=[0, 5], cut=always)
        with pytest.raises(ValueError):
            a + b


#: every constant the candidate cuts compare a slice field with
THRESHOLDS = (30.0, 4.0, 0.5, 4.0, 50.0, 0.75, 0.45, 0.7)
_FIELD_VALUES = (st.sampled_from(
    [*THRESHOLDS, *(np.nextafter(t, np.inf) for t in THRESHOLDS),
     *(np.nextafter(t, -np.inf) for t in THRESHOLDS),
     float("nan"), float("inf"), float("-inf"), 0.0, -0.0])
    | st.floats())
_CUT_FIELDS = ("nhit", "ncontplanes", "cal_e", "cvn_e", "cvn_mu", "remid",
               "cosrej", "dist_to_edge")


def _deep_cut() -> Cut:
    """A cut nested past ``_MAX_DEPTH``: its inner part is compiled on
    its own and called from the outer expression."""
    from repro.nova.cafana import _MAX_DEPTH, kCosRej, kNHit

    cut = kCalE >= 0.5
    for i in range(_MAX_DEPTH + 8):
        cut = (cut | (kNHit >= 30.0 + i)) if i % 2 else (
            cut & ~(kCosRej > 0.45 + i / 100))
    return cut


def _passing_cuts() -> dict:
    from repro.nova import numu_candidate_cut

    return {
        "nue": nue_candidate_cut,
        "numu": numu_candidate_cut,
        "opaque": Cut("opaque", lambda s: s.cal_e > 0.5 and s.nhit != 30.0),
        "deep": _deep_cut(),
    }


class TestPassing:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(_passing_cuts())),
           st.lists(st.fixed_dictionaries(
               {name: _FIELD_VALUES for name in _CUT_FIELDS}), max_size=30))
    def test_passing_is_the_per_slice_cut(self, which, rows):
        cut = _passing_cuts()[which]
        slices = [SliceData(slice_id=i, **row) for i, row in enumerate(rows)]
        assert ([id(s) for s in cut.passing(slices)]
                == [id(s) for s in slices if cut(s)])

    def test_compiled_once_per_cut(self):
        cut = kCalE > 1.0
        assert cut.passing is cut.passing
        assert cut.passing(iter([SliceData(cal_e=2.0)])) == [
            SliceData(cal_e=2.0)]
        assert cut.passing([]) == []

    def test_consumers_select_through_passing(self):
        slices = table_to_slices(*_candidate_table())
        calls = []
        cut = Cut("counted", kCalE >= 1.0)
        passing = cut.passing
        cut.passing = lambda objects: (calls.append(1), passing(objects))[1]
        ids = select_slices(slices, cut)
        assert ids == [s.slice_id for s in slices if s.cal_e >= 1.0]
        spectrum = Spectrum(kCalE, [0.0, 2.0, 10.0], cut)
        assert spectrum.fill_slices(slices) == len(ids)
        assert calls == [1, 1]


def _candidate_table() -> tuple:
    g = NovaGenerator(GeneratorConfig(signal_fraction=0.2))
    table = g.subrun_table(1, 0, range(40))
    return table, range(len(table["slice_id"]))
