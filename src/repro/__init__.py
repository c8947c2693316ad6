"""repro: a Python reproduction of HEPnOS (IPDPS 2023).

HEPnOS is a distributed data service for High Energy Physics analysis,
built from the Mochi suite of composable data-service components.  This
package reimplements the full stack in Python:

- :mod:`repro.utils`      -- sorted maps, consistent hashing, key codecs.
- :mod:`repro.serial`     -- Boost-style binary serialization archives.
- :mod:`repro.argobots`   -- run-to-completion user-level-thread runtime.
- :mod:`repro.mercury`    -- RPC engine with bulk (RDMA-like) transfers.
- :mod:`repro.margo`     -- glue binding RPC handlers to ULT pools.
- :mod:`repro.bedrock`    -- JSON-configured service bootstrapping.
- :mod:`repro.yokan`      -- key-value store component with multiple backends.
- :mod:`repro.broker`     -- multi-tenant admission control.
- :mod:`repro.hepnos`     -- the HEPnOS data model and client library.
- :mod:`repro.minimpi`    -- an in-process MPI used by the client workflows.
- :mod:`repro.hdf5lite`   -- hierarchical columnar files (HDF5 stand-in).
- :mod:`repro.nova`       -- synthetic NOvA-like workload and CAFAna-style cuts.
- :mod:`repro.workflows`  -- the traditional and HEPnOS-based workflows.
- :mod:`repro.sim`        -- discrete-event HPC platform simulator.
- :mod:`repro.perf`       -- performance models reproducing the paper's figures.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
