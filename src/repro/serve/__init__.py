"""``repro serve`` — the fault-tolerant evaluation service.

A long-running asyncio HTTP/JSON service (stdlib only) that accepts
compile/evaluate/verify/analyze/query requests and answers each one,
in arrival order on one executor thread, through the profile →
regions → cell task DAG of the parallel engine and the supervisor.
Engineered for failure first: per-request deadlines propagate into
supervisor cell timeouts, a bound on the requests waiting behind the
one executing sheds load explicitly (429 + ``Retry-After``),
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
