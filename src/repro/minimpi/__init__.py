"""minimpi: an in-process MPI used by the HEPnOS client applications.

The paper's HEPnOS workflow is an embarrassingly-parallel MPI program
(section II-A): ranks load products, process them, and reduce results to
rank 0.  This module provides the needed MPI surface with ranks running
as OS threads inside one Python process:

- point-to-point ``send``/``recv`` (with ANY_SOURCE / ANY_TAG),
- collectives: ``barrier``, ``bcast``, ``gather``, ``reduce``,
  ``allreduce``,
- an :func:`mpirun` launcher.

Python's GIL serializes compute across ranks, so *wall-clock speedup*
is out of scope here -- correctness of the parallel decomposition is
what these primitives provide.  Scaling numbers come from
:mod:`repro.sim`.
"""

from repro.minimpi.comm import (
    ANY_SOURCE,
    ANY_TAG,
    MAX,
    MIN,
    PROD,
    SUM,
    Communicator,
    Wtime,
    mpirun,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "SUM",
    "MAX",
    "MIN",
    "PROD",
    "Communicator",
    "Wtime",
    "mpirun",
]
