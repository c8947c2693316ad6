"""Exception hierarchy shared across the repro packages.

Every layer raises a subclass of :class:`ReproError` so that callers can
catch failures from the whole stack with a single ``except`` clause while
still being able to discriminate the failing layer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """An invalid or inconsistent service configuration was supplied."""


class SerializationError(ReproError):
    """A value could not be serialized or deserialized."""


class RPCError(ReproError):
    """A remote procedure call failed."""


class NoSuchRPCError(RPCError):
    """The target engine has no RPC registered under the requested name."""


class AddressError(RPCError):
    """An address could not be parsed or resolved."""


class NetworkFailure(RPCError):
    """The (simulated) fabric dropped the request.

    The paper reports run crashes caused by oversaturation of the Aries
    NIC injection bandwidth; the simulated fabric raises this error under
    the same condition when failure injection is enabled.
    """


class RPCTimeout(RPCError):
    """An RPC did not complete within its deadline.

    Raised by :meth:`repro.mercury.Fabric.wait` when a per-call timeout
    elapses, or when the inline scheduler stays idle past the fabric's
    idle budget while a response is outstanding.
    """


class OperationCancelled(RPCError):
    """A non-blocking operation was cancelled before it was dispatched.

    Raised when waiting on an
    :class:`~repro.yokan.OperationFuture` whose :meth:`cancel` succeeded
    while the operation was still queued behind an
    :class:`~repro.hepnos.AsyncEngine`'s in-flight window.
    """


class YokanError(ReproError):
    """A key-value database operation failed."""


class KeyNotFound(YokanError):
    """The requested key does not exist in the database."""


class DatabaseClosed(YokanError):
    """The database was used after being closed."""


class CorruptionError(YokanError):
    """Data failed checksum or format validation.

    Raised both for on-disk damage and for wire-level damage caught by
    the Yokan RPC envelope / bulk checksums (:mod:`repro.yokan.wire`).
    Wire corruption is retryable: every Yokan operation is idempotent.
    """


class HEPnOSError(ReproError):
    """An error in the HEPnOS data-model layer."""


class ContainerNotFound(HEPnOSError):
    """A dataset, run, subrun, or event does not exist."""


class ProductNotFound(HEPnOSError):
    """A product (label, type) pair does not exist in its container."""


class ShardMapStale(HEPnOSError):
    """The client's shard map advanced while an operation was in flight.

    Raised when a lookup misses *and* the datastore notices its
    placement epoch changed mid-operation (a live rescale began or
    committed).  Retryable: re-running the operation re-resolves every
    key under the new shard map, and all involved operations are
    idempotent.
    """


class ServiceBusy(ReproError):
    """The service shed this request under load (429-style).

    Raised by the request broker when a tenant exceeds its token-bucket
    rate limit or the server already has as many requests in service as
    the tenant's priority class may use.  Retryable: the request was
    rejected *before* any state changed.  ``retry_after_s``
    is the server-supplied backoff hint; :class:`~repro.faults.RetryPolicy`
    honors it instead of its own exponential schedule when present.
    """

    def __init__(self, message: str = "service busy",
                 retry_after_s: "float | None" = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class QuotaExceeded(ServiceBusy):
    """A tenant is unknown, has a bad token or is over its bytes quota.

    A :class:`ServiceBusy` specialization: the broker refused the
    request because its tenant is not in a closed registry, presented
    a bad quota token, or would go over its bytes-in-flight quota.
    Retryable -- earlier requests completing free the quota -- with the
    same ``retry_after_s`` hint semantics.
    """


class MPIError(ReproError):
    """An error in the in-process MPI substrate."""


class HDF5LiteError(ReproError):
    """An error reading or writing an hdf5lite file."""


class SimulationError(ReproError):
    """An error in the discrete-event simulation engine."""


#: The complete public hierarchy.  Every exception the repro packages
#: raise -- across ``yokan``, ``mercury``, ``faults``, ``hepnos``, the
#: simulator, and the tools -- is importable from here and derives from
#: :class:`ReproError`.
__all__ = [
    "ReproError",
    "ConfigError",
    "SerializationError",
    "RPCError",
    "NoSuchRPCError",
    "AddressError",
    "NetworkFailure",
    "RPCTimeout",
    "OperationCancelled",
    "YokanError",
    "KeyNotFound",
    "DatabaseClosed",
    "CorruptionError",
    "HEPnOSError",
    "ContainerNotFound",
    "ProductNotFound",
    "ShardMapStale",
    "ServiceBusy",
    "QuotaExceeded",
    "MPIError",
    "HDF5LiteError",
    "SimulationError",
]
