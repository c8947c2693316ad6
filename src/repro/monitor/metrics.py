"""Metric primitives: counters, gauges, and their registry."""

from __future__ import annotations

import threading

from repro.errors import ReproError


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ReproError("counters only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A value that can move in both directions."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value


class MetricRegistry:
    """A named collection of metrics."""

    def __init__(self, name: str = "registry"):
        self.name = name
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), Gauge)

    def _get_or_create(self, name: str, factory, expected_type):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, expected_type):
                raise ReproError(
                    f"metric {name!r} already exists with kind "
                    f"{metric.kind!r}"
                )
            return metric

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str):
        return self._metrics[name]

    def names(self) -> list[str]:
        return sorted(self._metrics)
