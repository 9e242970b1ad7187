"""Counter/gauge metrics registry.

Deliberately small: a counter is a monotonically increasing integer
(cache hits, emulator runs, supervisor retries), a gauge is a
last-write-wins number (pool size, degradation flag).  Metric names
are dotted strings (``cache.hits``, ``supervisor.retries``); the
registry itself imposes no hierarchy — the names are the schema.

A registry is attached to every :class:`~repro.observability.tracing
.Tracer` and exported as the final record of the trace JSONL.  The
counters are *reconcilable by construction*: each instrumented
subsystem increments its counter at the same point it updates its own
bookkeeping (e.g. :class:`~repro.evaluation.cache.CacheStore`
increments ``cache.hits`` exactly where it increments ``self.hits``),
so the trace-invariant suite can assert exact equality between the
two.
"""

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Named integer counters and float gauges."""

    def __init__(self):
        self.counters = {}
        self.gauges = {}

    def add(self, name, value=1):
        """Increment counter *name* by *value* (default 1)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name, value):
        """Set gauge *name* to *value* (last write wins)."""
        self.gauges[name] = value

    def count(self, name, default=0):
        """Current value of counter *name*."""
        return self.counters.get(name, default)

    def snapshot(self):
        """JSON-ready ``{"counters": ..., "gauges": ...}`` with sorted
        keys (deterministic export)."""
        return {
            "counters": {name: self.counters[name]
                         for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name]
                       for name in sorted(self.gauges)},
        }
