"""The fault-model catalog: pluggable transport failure modes.

Every model implements the :class:`repro.mercury.FaultModel` interface
(``should_drop`` / ``latency`` / ``corrupt``) and can be installed on a
:class:`~repro.mercury.Fabric` directly or composed into a
:class:`~repro.faults.FaultSchedule`.  All randomized models take a
``seed`` so a chaos run is reproducible from one number.

Node filters: ``src``/``dst`` restrict a model to traffic leaving or
entering one node (matched against ``Address.node``); ``None`` matches
everything.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Tuple

from repro.mercury.address import Address
from repro.mercury.fabric import FaultModel, InjectionFaultModel


class _FilteredFault(FaultModel):
    """Shared src/dst node filtering."""

    def __init__(self, src: Optional[str] = None, dst: Optional[str] = None):
        self.src = src
        self.dst = dst

    def _matches(self, src: Address, dst: Address) -> bool:
        if self.src is not None and src.node != self.src:
            return False
        if self.dst is not None and dst.node != self.dst:
            return False
        return True


class DropFault(_FilteredFault):
    """Drop each matching message independently with ``probability``."""

    def __init__(self, probability: float, seed: Optional[int] = None,
                 src: Optional[str] = None, dst: Optional[str] = None):
        super().__init__(src, dst)
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.probability = probability
        self._rng = random.Random(seed)

    def should_drop(self, src: Address, dst: Address, nbytes: int) -> bool:
        return (self._matches(src, dst)
                and self._rng.random() < self.probability)


class LatencyFault(_FilteredFault):
    """Inject ``delay`` seconds (+- ``jitter`` fraction) per message."""

    def __init__(self, delay: float, jitter: float = 0.0,
                 seed: Optional[int] = None, src: Optional[str] = None,
                 dst: Optional[str] = None):
        super().__init__(src, dst)
        if delay < 0:
            raise ValueError("delay must be non-negative")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.delay = delay
        self.jitter = jitter
        self._rng = random.Random(seed)

    def latency(self, src: Address, dst: Address, nbytes: int) -> float:
        if not self._matches(src, dst) or self.delay <= 0.0:
            return 0.0
        if not self.jitter:
            return self.delay
        return self.delay * (1.0 - self.jitter
                             + 2.0 * self.jitter * self._rng.random())


class CorruptionFault(_FilteredFault):
    """Flip one byte of each matching payload with ``probability``.

    The Yokan wire path checksums every RPC envelope and bulk buffer, so
    a flipped byte surfaces as :class:`~repro.errors.CorruptionError`
    (server- or client-side) instead of silently wrong data.
    """

    def __init__(self, probability: float, seed: Optional[int] = None,
                 src: Optional[str] = None, dst: Optional[str] = None):
        super().__init__(src, dst)
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.probability = probability
        self._rng = random.Random(seed)

    def corrupt(self, src: Address, dst: Address,
                payload: bytes) -> Optional[bytes]:
        if (not payload or not self._matches(src, dst)
                or self._rng.random() >= self.probability):
            return None
        index = self._rng.randrange(len(payload))
        mutated = bytearray(payload)
        mutated[index] ^= 1 + self._rng.randrange(255)  # never a no-op flip
        return bytes(mutated)


class PartitionFault(FaultModel):
    """Drop all traffic crossing a partition.

    Two forms:

    - ``PartitionFault(group_a={...}, group_b={...})`` severs every link
      between the two node groups (a classic network partition);
    - ``PartitionFault(links=[(a, b), ...])`` severs individual links
      (both directions).
    """

    def __init__(self, group_a: Iterable[str] = (),
                 group_b: Iterable[str] = (),
                 links: Iterable[Tuple[str, str]] = ()):
        self.group_a = frozenset(group_a)
        self.group_b = frozenset(group_b)
        self.links = frozenset(
            frozenset(pair) for pair in links
        )
        if not (self.group_a and self.group_b) and not self.links:
            raise ValueError(
                "a partition needs two node groups or explicit links"
            )

    def should_drop(self, src: Address, dst: Address, nbytes: int) -> bool:
        a, b = src.node, dst.node
        if frozenset((a, b)) in self.links:
            return True
        return ((a in self.group_a and b in self.group_b)
                or (a in self.group_b and b in self.group_a))


__all__ = [
    "CorruptionFault",
    "DropFault",
    "FaultModel",
    "InjectionFaultModel",
    "LatencyFault",
    "PartitionFault",
]
