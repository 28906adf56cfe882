"""Process-wide metrics registry: counters, gauges, histograms.

One `snapshot()` subsumes the per-subsystem stats dicts scattered
around the tree (`ReallocEngine.stats`, `WorkerStats`, coordinator
stats, store seal/merge counts): subsystems
either bump registry counters directly for rare events, or mirror their
existing hot-path attribute counters in via `set_stats(prefix, dict)`
at natural flush points (end of a scenario run, heartbeat ticks).

The registry is always on — metric updates are a dict lookup plus an
integer add, cheap enough to leave unconditional — but nothing reads it
unless asked, and none of its state feeds fingerprints.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional


class Counter:
    """Monotonic count of events."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins point-in-time value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming summary: count / sum / min / max (mean derived)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def summary(self) -> Dict[str, float]:
        out: Dict[str, float] = {"count": self.count, "sum": self.total}
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
            out["mean"] = self.total / self.count
        return out


class MetricsRegistry:
    """Named metric instruments behind one snapshot API."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter())
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge())
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name, Histogram())
        return h

    def set_stats(self, prefix: str, stats: Mapping[str, object]) -> None:
        """Mirror a subsystem stats dict into gauges under ``prefix.``.

        Non-numeric values (nested dicts, strings) are skipped.
        Booleans become 0/1.
        """
        for key, value in stats.items():
            if isinstance(value, bool):
                self.gauge(f"{prefix}.{key}").set(int(value))
            elif isinstance(value, (int, float)):
                self.gauge(f"{prefix}.{key}").set(value)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            return {
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {k: h.summary()
                               for k, h in self._histograms.items()},
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


REGISTRY = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-wide registry."""
    return REGISTRY
