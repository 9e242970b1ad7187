"""``repro serve`` — the fault-tolerant evaluation service.

A long-running asyncio HTTP/JSON service (stdlib only) that accepts
compile/evaluate/verify/analyze requests, batches them into the
profile → regions → cell task DAG via the parallel engine and the
supervisor, and streams results back.  Engineered for failure first:
per-request deadlines propagate into supervisor cell timeouts, a
bounded admission queue sheds load explicitly (429 + ``Retry-After``),
a circuit breaker degrades to an in-process engine after repeated
pool deaths, transient request failures retry with the
supervisor's deterministic backoff, and SIGTERM drains in-flight work
before exiting 0.  See ``docs/serve.md``.
"""

from repro.serve.service import (
    CircuitBreaker, EvaluationService, ServiceConfig, ServiceThread)

__all__ = [
    "CircuitBreaker",
    "EvaluationService",
    "ServiceConfig",
    "ServiceThread",
]
