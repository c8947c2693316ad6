"""repro.faults: seeded chaos injection and the policies that survive it.

The paper's own evaluation hit real failures -- runs crashed when bursts
oversaturated the Aries NIC injection bandwidth (section IV-E).  This
package generalizes that one failure mode into a catalog:

- **fault models** (:mod:`repro.faults.models`) -- probabilistic drops,
  per-link partitions, injected latency, payload corruption -- plus the
  original :class:`~repro.mercury.InjectionFaultModel`;
- a **schedule** (:class:`FaultSchedule`) scripting fault windows and
  one-shot actions (provider crash/restart) deterministically from a
  single seed;
- the **tolerance side** (:class:`RetryPolicy`) -- exponential backoff
  with jitter and deadlines, consumed by the Yokan client, the
  asynchronous write batch, and the ParallelEventProcessor readers;
- a **chaos harness** (:func:`run_chaos`, loaded lazily): one
  :class:`ChaosStage` every fault scenario runs on, one table of
  scenarios, and one :class:`ChaosReport` whose ``ok`` says every
  scenario selected the byte-identical NOvA event set of the fault-free
  baseline.
"""

from repro.faults.models import (
    CorruptionFault,
    DropFault,
    FaultModel,
    InjectionFaultModel,
    LatencyFault,
    PartitionFault,
)
from repro.faults.retry import (
    RETRYABLE_ERRORS,
    RetryPolicy,
    default_client_policy,
)
from repro.faults.schedule import FaultSchedule, ScheduledFault

_LAZY = {
    # The chaos harness pulls in bedrock/nova/workflows; keep those out
    # of the import path of the clients that only need RetryPolicy.
    "ChaosReport": "repro.faults.chaos",
    "ChaosStage": "repro.faults.chaos",
    "run_chaos": "repro.faults.chaos",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


__all__ = [
    "CorruptionFault",
    "DropFault",
    "FaultModel",
    "FaultSchedule",
    "InjectionFaultModel",
    "LatencyFault",
    "PartitionFault",
    "RETRYABLE_ERRORS",
    "RetryPolicy",
    "ScheduledFault",
    "default_client_policy",
    "ChaosReport",
    "ChaosStage",
    "run_chaos",
]
