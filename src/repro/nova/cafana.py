"""CAFAna-style selection: Var/Cut combinators and the nu_e candidate cut.

CAFAna (the NOvA analysis framework the paper's application uses)
expresses selections as composable *cuts* over slice records.  Cuts here
work in two modes sharing one definition:

- object mode: ``cut(slice_data) -> bool`` for the HEPnOS workflow,
  which processes deserialized :class:`SliceData` objects;
- columnar mode: ``cut.mask(table) -> bool ndarray`` for the file-based
  workflow's vectorized scan over slice tables.

Cuts compose with ``&``, ``|`` and ``~``.  In object mode a composed
Var or Cut is one function: every Var and Cut carries its expression
(Python source over the slice ``s`` and the constants and callables it
binds by reference), and the first object-mode call compiles it, so a
whole selection costs one Python call per slice, not one per node --
and ``cut.passing(slices)``, the same expression compiled into a loop
over a list, one call per list.

Vars and Cuts additionally carry a ``columns`` declaration: the set of
table fields their columnar evaluation reads.  Plain attribute Vars
(``Var("cal_e")``) declare themselves, constants declare nothing, and
composition takes unions -- so a fully declared cut like
``nue_candidate_cut`` knows exactly which columns a server-side
projection must fetch.  A Var built from an opaque callable without an
explicit ``columns=`` argument propagates ``None`` ("unknown"), which
tells batch loaders to fall back to whole-object, per-event evaluation.
"""

from __future__ import annotations

import keyword
import operator
from functools import cached_property
from itertools import count
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

_UNSET = object()

#: a deeper expression is compiled on its own (the parser refuses deep parens)
_MAX_DEPTH = 32
_NAMES = count()
#: the body of :attr:`Cut.passing` around the cut's expression
_PASSING = """passed = []
    for s in objects:
        if {}:
            passed += (s,)
    return passed"""


class _Expr(NamedTuple):
    """An object-mode expression: Python source over the slice ``s``,
    the namespace its names resolve in, and its nesting depth."""

    src: str
    ns: dict
    depth: int = 0

    @staticmethod
    def bind(value, template: str = "{}") -> "_Expr":
        """``template`` around a fresh name bound to ``value``."""
        name = f"_{next(_NAMES)}"
        return _Expr(template.format(name), {name: value})

    def compile(self, body: str = "return {}", arg: str = "s") -> Callable:
        """``def _expr(arg)`` with ``body`` around the source."""
        exec(f"def _expr({arg}):\n    " + body.format(self.src),
             ns := dict(self.ns))
        return ns["_expr"]


def _attribute(name) -> _Expr:
    # ASCII only: source identifiers are NFKC-normalised, getattr's are not
    if (isinstance(name, str) and name.isascii() and name.isidentifier()
            and not keyword.iskeyword(name)):
        return _Expr("s." + name, {})
    return _Expr.bind(name, "getattr(s, {})")


def _compose(template: str, *operands: _Expr) -> _Expr:
    """``template`` over the operands' sources; an operand at the depth
    limit is compiled on its own and called."""
    operands = [e if e.depth < _MAX_DEPTH else _Expr.bind(e.compile(), "{}(s)")
                for e in operands]
    return _Expr(template.format(*(e.src for e in operands)),
                 {k: v for e in operands for k, v in e.ns.items()},
                 1 + max(e.depth for e in operands))


def _merge_columns(*parts) -> Optional[frozenset]:
    """Union of declarations; any unknown (None) poisons the result."""
    out: frozenset = frozenset()
    for part in parts:
        if part is None:
            return None
        out |= part
    return out


class Var:
    """A named quantity computed from a slice (or a table column).

    Vars compose arithmetically (``kCalE / kNHit``, ``kShwE * 1.02``),
    producing derived Vars usable in both object and columnar modes --
    CAFAna's Var algebra.
    """

    def __init__(self, name: str, fn: Callable = None,
                 cfn: Optional[Callable] = None,
                 columns: Optional[Iterable[str]] = _UNSET):
        self.name = name
        if fn is None:
            self._expr = _attribute(name)
        elif isinstance(fn, _Expr):
            self._expr = fn
        else:
            self._fn = fn
            self._expr = _Expr.bind(fn, "{}(s)")
        self._cfn = cfn
        if columns is _UNSET:
            # A plain attribute Var reads exactly its own column; an
            # opaque callable reads who-knows-what.
            columns = frozenset({name}) if fn is None else None
        #: table fields the columnar evaluation reads (None = unknown)
        self.columns: Optional[frozenset] = (
            None if columns is None else frozenset(columns)
        )

    @cached_property
    def _fn(self) -> Callable:
        """The expression compiled, on first object-mode use."""
        return self._expr.compile()

    def __call__(self, slice_data) -> float:
        return self._fn(slice_data)

    def column(self, table: dict) -> np.ndarray:
        if self._cfn is not None:
            return self._cfn(table)
        if self.name in table:
            return table[self.name]
        raise KeyError(f"table has no column {self.name!r}")

    # -- arithmetic composition ------------------------------------------------

    @staticmethod
    def _lift(value) -> "Var":
        if isinstance(value, Var):
            return value
        return Var(repr(value), _Expr.bind(value), lambda t: value,
                   columns=frozenset())

    def _binary(self, other, op, symbol: str, reflected: bool = False) -> "Var":
        other = Var._lift(other)
        left, right = (other, self) if reflected else (self, other)
        return Var(
            f"({left.name}{symbol}{right.name})",
            _compose("({} %s {})" % symbol, left._expr, right._expr),
            lambda t: op(left.column(t), right.column(t)),
            columns=_merge_columns(left.columns, right.columns),
        )

    def __add__(self, other) -> "Var":
        return self._binary(other, operator.add, "+")

    def __radd__(self, other) -> "Var":
        return self._binary(other, operator.add, "+", reflected=True)

    def __sub__(self, other) -> "Var":
        return self._binary(other, operator.sub, "-")

    def __rsub__(self, other) -> "Var":
        return self._binary(other, operator.sub, "-", reflected=True)

    def __mul__(self, other) -> "Var":
        return self._binary(other, operator.mul, "*")

    def __rmul__(self, other) -> "Var":
        return self._binary(other, operator.mul, "*", reflected=True)

    def __truediv__(self, other) -> "Var":
        return self._binary(other, operator.truediv, "/")

    def __rtruediv__(self, other) -> "Var":
        return self._binary(other, operator.truediv, "/", reflected=True)

    # Comparisons produce cuts; the right side is a constant or a Var.
    def _compare(self, other, op, symbol: str) -> "Cut":
        other = Var._lift(other)
        return Cut(f"{self.name}{symbol}{other.name}",
                   _compose("({} %s {})" % symbol, self._expr, other._expr),
                   lambda t: op(self.column(t), other.column(t)),
                   columns=_merge_columns(self.columns, other.columns))

    def __gt__(self, other) -> "Cut":
        return self._compare(other, operator.gt, ">")

    def __ge__(self, other) -> "Cut":
        return self._compare(other, operator.ge, ">=")

    def __lt__(self, other) -> "Cut":
        return self._compare(other, operator.lt, "<")

    def __le__(self, other) -> "Cut":
        return self._compare(other, operator.le, "<=")


class Cut:
    """A boolean selection over slices, composable with & | ~."""

    def __init__(self, name: str, fn: Callable, vfn: Optional[Callable] = None,
                 columns: Optional[Iterable[str]] = None):
        self.name = name
        if isinstance(fn, _Expr):
            self._expr = fn
        else:
            self._fn = fn
            self._expr = _Expr.bind(fn, "{}(s)")
        self._vfn = vfn
        #: table fields :meth:`mask` reads (None = unknown; such cuts
        #: cannot drive a server-side column projection)
        self.columns: Optional[frozenset] = (
            None if columns is None else frozenset(columns)
        )

    _fn = Var._fn   # the same lazily compiled expression

    def __call__(self, slice_data) -> bool:
        return bool(self._fn(slice_data))

    @cached_property
    def passing(self) -> Callable:
        """``passing(objects)``: the objects the cut accepts, in order --
        ``[s for s in objects if <expression>]``, compiled on first use.
        One Python call per list, none per object.  Written as a loop:
        before Python 3.12 a comprehension is a frame of its own."""
        return self._expr.compile(_PASSING, "objects")

    def mask(self, table: dict) -> np.ndarray:
        """Vectorized evaluation over a columnar slice table."""
        if self._vfn is not None:
            return np.asarray(self._vfn(table), dtype=bool)
        # Fallback: row-by-row via a lightweight attribute proxy.
        n = len(next(iter(table.values())))
        out = np.empty(n, dtype=bool)
        proxy = _RowProxy(table)
        for i in range(n):
            proxy._i = i
            out[i] = self._fn(proxy)
        return out

    def __and__(self, other: "Cut") -> "Cut":
        return Cut(
            f"({self.name} && {other.name})",
            _compose("({} and {})", self._expr, other._expr),
            (lambda t: self.mask(t) & other.mask(t)),
            columns=_merge_columns(self.columns, other.columns),
        )

    def __or__(self, other: "Cut") -> "Cut":
        return Cut(
            f"({self.name} || {other.name})",
            _compose("({} or {})", self._expr, other._expr),
            (lambda t: self.mask(t) | other.mask(t)),
            columns=_merge_columns(self.columns, other.columns),
        )

    def __invert__(self) -> "Cut":
        return Cut(
            f"!{self.name}",
            _compose("(not {})", self._expr),
            (lambda t: ~self.mask(t)),
            columns=self.columns,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cut({self.name})"


class _RowProxy:
    """Presents one table row with attribute access (cut fallback path)."""

    __slots__ = ("_table", "_i")

    def __init__(self, table: dict):
        self._table = table
        self._i = 0

    def __getattr__(self, name: str):
        try:
            return self._table[name][self._i]
        except KeyError:
            raise AttributeError(name) from None


# -- the electron-neutrino candidate selection ---------------------------------

kNHit = Var("nhit")
kNContPlanes = Var("ncontplanes")
kCalE = Var("cal_e")
kCVNe = Var("cvn_e")
kCVNmu = Var("cvn_mu")
kRemid = Var("remid")
kCosRej = Var("cosrej")
kDistToEdge = Var("dist_to_edge")

#: Basic reconstruction quality.
kQuality = (kNHit >= 30) & (kNContPlanes >= 4) & (kCalE >= 0.5) & (kCalE <= 4.0)

#: Fiducial containment of the candidate vertex.
kContainment = kDistToEdge >= 50.0

#: Electron-neutrino particle identification.
kNuePID = (kCVNe >= 0.75) & (kCVNmu <= 0.5) & (kRemid <= 0.5)

#: Cosmic-ray rejection.
kCosmicRej = kCosRej <= 0.45

#: The full candidate selection used by both workflows.
nue_candidate_cut = kQuality & kContainment & kNuePID & kCosmicRej

#: Muon-neutrino particle identification (the disappearance channel):
#: muon-like (high ReMId / CVN-mu), NOT electron-like.
kNumuPID = (kRemid >= 0.7) & (kCVNmu >= 0.5) & (kCVNe <= 0.5)

#: The numu candidate selection (quality + containment + muon PID).
numu_candidate_cut = kQuality & kContainment & kNumuPID & kCosmicRej


def select_slices(slices, cut: Cut = nue_candidate_cut) -> list[int]:
    """Object-mode selection: IDs of the accepted slices."""
    return [s.slice_id for s in cut.passing(slices)]


def select_from_table(table: dict, cut: Cut = nue_candidate_cut) -> np.ndarray:
    """Columnar-mode selection: accepted slice_ids from a table."""
    return table["slice_id"][cut.mask(table)]


class Spectrum:
    """A filled histogram of a Var over selected slices (CAFAna-style).

    Tracks accumulated exposure (protons-on-target) so spectra from
    different samples can be POT-normalized and combined, the way
    CAFAna compares data periods.
    """

    def __init__(self, var: Var, bins: Sequence[float],
                 cut: Cut = nue_candidate_cut):
        self.var = var
        self.cut = cut
        self.edges = np.asarray(bins, dtype=float)
        if len(self.edges) < 2 or np.any(np.diff(self.edges) <= 0):
            raise ValueError("bins must be increasing with >= 2 edges")
        self.counts = np.zeros(len(self.edges) - 1, dtype=float)
        self.entries = 0
        self.pot = 0.0

    def fill_slices(self, slices, weight: float = 1.0,
                    pot: float = 0.0) -> int:
        """Fill from objects; returns how many passed the cut."""
        values = [self.var(s) for s in self.cut.passing(slices)]
        if values:
            hist, _ = np.histogram(values, bins=self.edges)
            self.counts += weight * hist
        self.entries += len(values)
        self.pot += pot
        return len(values)

    def fill_table(self, table: dict, weight: float = 1.0,
                   pot: float = 0.0) -> int:
        mask = self.cut.mask(table)
        values = self.var.column(table)[mask]
        hist, _ = np.histogram(values, bins=self.edges)
        self.counts += weight * hist
        self.entries += int(mask.sum())
        self.pot += pot
        return int(mask.sum())

    @property
    def integral(self) -> float:
        return float(self.counts.sum())

    def scaled_to_pot(self, target_pot: float) -> "Spectrum":
        """A copy normalized to ``target_pot`` exposure."""
        if self.pot <= 0:
            raise ValueError("spectrum has no recorded exposure")
        out = Spectrum(self.var, self.edges, self.cut)
        out.counts = self.counts * (target_pot / self.pot)
        out.entries = self.entries
        out.pot = target_pot
        return out

    def __add__(self, other: "Spectrum") -> "Spectrum":
        """Combine two spectra of identical binning (exposures add)."""
        if not np.array_equal(self.edges, other.edges):
            raise ValueError("spectra have different binnings")
        out = Spectrum(self.var, self.edges, self.cut)
        out.counts = self.counts + other.counts
        out.entries = self.entries + other.entries
        out.pot = self.pot + other.pot
        return out
