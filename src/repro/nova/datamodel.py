"""The reconstructed-data model: slices and event headers.

A *slice* is a spatio-temporally clustered region of detector activity
-- a candidate neutrino interaction.  NOvA derives ~600 quantities per
slice; we carry the representative subset the candidate selection needs
(calorimetry, containment geometry, PID scores, cosmic rejection),
plus a truth label used only for validating the synthetic generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serial import register_type

#: The product label both workflows use for slice vectors.
SLICE_LABEL = "slices"


@dataclass
class SliceData:
    """One candidate interaction ("slice") and its physics quantities."""

    #: globally unique slice identifier (what the selection reports)
    slice_id: int = 0
    #: number of hits in the slice
    nhit: int = 0
    #: number of contiguous planes with activity
    ncontplanes: int = 0
    #: calorimetric energy [GeV]
    cal_e: float = 0.0
    #: leading-shower energy [GeV]
    shower_e: float = 0.0
    #: leading-shower length [cm]
    shower_len: float = 0.0
    #: CVN electron-neutrino classifier score [0, 1]
    cvn_e: float = 0.0
    #: CVN muon-neutrino classifier score [0, 1]
    cvn_mu: float = 0.0
    #: ReMId muon identification score [0, 1]
    remid: float = 0.0
    #: cosmic-rejection BDT score [0, 1]; larger = more cosmic-like
    cosrej: float = 0.0
    #: reconstructed vertex [cm]
    vtx_x: float = 0.0
    vtx_y: float = 0.0
    vtx_z: float = 0.0
    #: distance from the vertex to the nearest detector edge [cm]
    dist_to_edge: float = 0.0
    #: slice time within the trigger window [us]
    time: float = 0.0
    #: truth label (synthetic-data only): 12 = nu_e signal, 0 = background
    true_pdg: int = 0


@dataclass
class EventHeader:
    """Per-readout metadata (the ``rec.hdr`` table)."""

    run: int = 0
    subrun: int = 0
    event: int = 0
    #: beam spill protons-on-target
    pot: float = 0.0
    #: trigger type: 0 = beam (NuMI), 1 = cosmic
    trigger: int = 0
    #: number of slices in the readout
    nslices: int = 0


register_type(SliceData, "nova.SliceData")
register_type(EventHeader, "nova.EventHeader")

#: Columnar dtypes for the slice table (hdf5lite layout).
SLICE_COLUMNS = (
    ("slice_id", "<i8"),
    ("nhit", "<i4"),
    ("ncontplanes", "<i4"),
    ("cal_e", "<f4"),
    ("shower_e", "<f4"),
    ("shower_len", "<f4"),
    ("cvn_e", "<f4"),
    ("cvn_mu", "<f4"),
    ("remid", "<f4"),
    ("cosrej", "<f4"),
    ("vtx_x", "<f4"),
    ("vtx_y", "<f4"),
    ("vtx_z", "<f4"),
    ("dist_to_edge", "<f4"),
    ("time", "<f4"),
    ("true_pdg", "<i4"),
)
