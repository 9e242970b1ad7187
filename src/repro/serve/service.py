"""The evaluation service: admission, execution, failure management.

One asyncio loop owns the sockets; one executor thread owns the
evaluation engine (whose process pool does the heavy lifting).  That
executor's work queue is the only queue: each admitted request is one
executor job, run in arrival order.  The request path is engineered
for failure first:

* **bounded admission** — at most ``queue_limit`` requests wait behind
  the one executing; beyond that the service sheds load explicitly
  with 429 + ``Retry-After`` instead of buffering without bound.
* **deadline propagation** — each request carries a wall-clock budget
  (default :attr:`ServiceConfig.default_deadline`); the remaining
  budget is clamped onto the supervisor's per-cell watchdog
  (:meth:`SupervisorPolicy.clamped`) so a request with two seconds
  left never sits behind a five-minute cell timeout.  An expired
  budget is a 504, never a silent stall.
* **server-side retry** — transient failures (injected or real) retry
  up to :attr:`ServiceConfig.max_attempts` times with the supervisor's
  crc32-seeded deterministic backoff, bounded by the deadline.  A
  failed evaluation sweep is answered at once: the supervisor has
  already retried each of its failed tasks.
* **circuit breaker** — repeated pool deaths trip the breaker; while
  it is open, requests are served by an in-process ``jobs=1`` engine
  (results are byte-identical, responses are flagged ``degraded``).
  After a cooldown one probe request tests the pool again.
* **graceful drain** — SIGTERM/SIGINT stop the listener, let admitted
  requests finish (bounded by a grace period), cancel whatever has not
  started by then, close the engines, and exit 0.

Whole-request results are memoised in the shared content-addressed
store under the ``serve`` kind, which is what makes a repeated-query
workload (the memoing access pattern of the or-parallel papers) serve
from cache instead of recomputing.  On top of the store, a bounded
in-process *answer memo* (:data:`MEMO_ENTRIES`, least recently used
evicted first) keeps every clean 200 answer by its canonical spec, and
a repeat is answered from it on the loop: no executor job, no store
read.  The ``query`` op runs a goal
through the or-parallel search engine (:mod:`repro.interp.orparallel`)
on the service's evaluation engine, so its branch fan-out inherits the
same pool, supervisor policy and clamped deadlines as evaluation
cells; its answer-memo hit/miss counts surface per cache kind in
``/metrics`` (``cache.kinds``).
"""

import asyncio
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

from repro.evaluation.cache import open_store
from repro.evaluation.parallel import (
    EvaluationEngine, EvaluationError, memoised)
from repro.evaluation.supervisor import SupervisorPolicy
from repro.observability.metrics import MetricsRegistry
from repro.serve import http
from repro.serve.ops import (
    OPS, RequestError, canonical_json, compute_result, parse_request,
    request_label)
from repro.testing import faults

__all__ = ["CircuitBreaker", "EvaluationService", "MEMO_ENTRIES",
           "ServiceConfig", "ServiceThread"]

#: answers the in-process answer memo keeps (least recently used go)
MEMO_ENTRIES = 256


class ServiceConfig:
    """Tunable service parameters.

    ``repro serve`` sets nine of them from flags: host, port, jobs,
    cache_root (``--cache-dir``), queue_limit, default_deadline
    (``--deadline``), breaker_threshold, cell_timeout and
    max_attempts.  The other nine (max_deadline, retry_after,
    breaker_cooldown, pool_restarts, idle_timeout, drain_grace,
    backoff_base, backoff_cap, seed) keep their defaults there; only
    code that builds a ServiceConfig itself, such as the tests, sets
    them.
    """

    def __init__(self, host="127.0.0.1", port=0, jobs=1, cache_root=None,
                 queue_limit=64,
                 default_deadline=120.0, max_deadline=600.0,
                 max_attempts=3, retry_after=1.0,
                 breaker_threshold=2, breaker_cooldown=30.0,
                 cell_timeout=300.0, pool_restarts=2,
                 idle_timeout=30.0, drain_grace=60.0,
                 backoff_base=0.02, backoff_cap=0.5, seed=0):
        self.host = host
        self.port = port
        self.jobs = max(1, jobs)
        self.cache_root = cache_root
        self.queue_limit = max(1, queue_limit)
        self.default_deadline = default_deadline
        self.max_deadline = max_deadline
        self.max_attempts = max(1, max_attempts)
        self.retry_after = retry_after
        self.breaker_threshold = max(1, breaker_threshold)
        self.breaker_cooldown = breaker_cooldown
        self.cell_timeout = cell_timeout
        self.pool_restarts = max(0, pool_restarts)
        self.idle_timeout = idle_timeout
        self.drain_grace = drain_grace
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.seed = seed

    def policy(self):
        return SupervisorPolicy(
            max_attempts=self.max_attempts, deadline=self.cell_timeout,
            backoff_base=self.backoff_base, backoff_cap=self.backoff_cap,
            seed=self.seed, max_pool_restarts=self.pool_restarts)


class CircuitBreaker:
    """Closed → open → half-open breaker over the engine's process pool.

    ``record_failure`` counts pool deaths (restarts reported by the
    supervisor); at *threshold* the breaker opens and :meth:`allow`
    answers False until *cooldown* seconds pass, after which exactly
    one probe request is let through — its success closes the breaker,
    its failure re-opens it.  Driven from the single executor thread,
    so no locking is needed.
    """

    def __init__(self, threshold=2, cooldown=30.0, clock=time.monotonic):
        self.threshold = max(1, threshold)
        self.cooldown = cooldown
        self.clock = clock
        self.state = "closed"
        self.failures = 0
        self.trips = 0
        self.opened_at = None
        self._probing = False

    def allow(self):
        """True when the pool engine may be tried."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self.clock() - self.opened_at < self.cooldown:
                return False
            self.state = "half-open"
            self._probing = False
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self):
        self._probing = False
        self.failures = 0
        self.state = "closed"

    def record_failure(self, count=1):
        self._probing = False
        self.failures += count
        if self.state != "open" and self.failures >= self.threshold:
            self.state = "open"
            self.opened_at = self.clock()
            self.trips += 1

    def snapshot(self):
        return {"state": self.state, "failures": self.failures,
                "trips": self.trips}


class _Pending:
    """One admitted request, as the executor thread runs it."""

    __slots__ = ("spec", "label", "deadline")

    def __init__(self, spec, label, deadline):
        self.spec = spec
        self.label = label
        self.deadline = deadline


def _answer(result, attempts, cached, degraded):
    """The payload of a 200 response."""
    return {"ok": True, "result": result,
            "meta": {"attempts": attempts, "cached": cached,
                     "degraded": degraded}}


class EvaluationService:
    """The asyncio HTTP service wrapping one evaluation engine."""

    def __init__(self, config=None):
        self.config = config or ServiceConfig()
        faults.validate_environment()
        self.store = open_store(self.config.cache_root)
        self.engine = EvaluationEngine(jobs=self.config.jobs,
                                       store=self.store,
                                       policy=self.config.policy())
        self.metrics = MetricsRegistry()
        self.breaker = CircuitBreaker(self.config.breaker_threshold,
                                      self.config.breaker_cooldown)
        self.port = None
        self._fallback = None
        self._loop = None
        self._server = None
        self._done = None
        self._draining = False
        self._drain_started = False
        # Admitted, not yet answered (loop thread only); the one
        # request the executor is running (executor thread only).
        self._inflight = 0
        self._executing = 0
        # canonical spec -> result of a clean 200 (loop thread only)
        self._memo = OrderedDict()
        self._started = time.monotonic()
        self._writers = set()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve")

    # -- lifecycle ---------------------------------------------------------

    async def start(self):
        """Bind the listener; returns the port."""
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        self._server = await asyncio.start_server(
            self._client, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def wait_closed(self):
        await self._done.wait()

    def begin_drain(self):
        """Start a graceful drain (idempotent; loop thread only)."""
        if self._loop is None or self._drain_started:
            return
        self._drain_started = True
        self._loop.create_task(self._drain())

    def drain_threadsafe(self):
        """Schedule :meth:`begin_drain` from any thread."""
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self.begin_drain)
        except RuntimeError:
            pass                            # loop already closed: drained

    async def _drain(self):
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        grace = self.config.drain_grace
        deadline = None if grace is None \
            else time.monotonic() + grace
        while self._inflight:
            if deadline is not None and time.monotonic() >= deadline:
                break
            await asyncio.sleep(0.02)
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        # Nothing starts after the grace period; a request already
        # executing runs to completion before the engines close.
        self._executor.shutdown(wait=True, cancel_futures=True)
        self.engine.close()
        if self._fallback is not None:
            self._fallback.close()
        self._done.set()

    # -- connection handling -----------------------------------------------

    async def _client(self, reader, writer):
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await http.read_request(
                        reader, timeout=self.config.idle_timeout)
                except http.HttpError as error:
                    writer.write(http.response_bytes(
                        error.status, {"ok": False,
                                       "error": error.message},
                        keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                status, payload, headers = await self._handle(request)
                close = request.headers.get(
                    "connection", "").lower() == "close"
                writer.write(http.response_bytes(
                    status, payload, headers=headers,
                    keep_alive=not close))
                await writer.drain()
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                # Half-close first: a pool worker forked while this
                # connection was open holds a copy of its socket, so
                # close() alone sends no FIN and the client, reading
                # to EOF, waits out its timeout.
                if writer.can_write_eof():
                    writer.write_eof()
            except OSError:
                pass                        # the peer already went away
            try:
                writer.close()
            except Exception:
                pass

    async def _handle(self, request):
        """Route one request; returns ``(status, payload, headers)``."""
        path = request.path
        if request.method == "GET":
            if path == "/healthz":
                return 200, self._health(), None
            if path == "/readyz":
                ready = not self._draining
                return (200 if ready else 503), self._readiness(), None
            if path == "/metrics":
                return 200, self._metric_state(), None
            if path.startswith("/v1/"):
                return 405, {"ok": False,
                             "error": "use POST for operations"}, None
            return 404, {"ok": False, "error": "not found"}, None
        if request.method == "POST" and path.startswith("/v1/"):
            op = path[len("/v1/"):]
            if op not in OPS:
                return 404, {"ok": False,
                             "error": "unknown operation %r (expected "
                             "one of %s)" % (op, ", ".join(OPS))}, None
            return await self._admit(op, request)
        return 405, {"ok": False, "error": "method not allowed"}, None

    async def _admit(self, op, request):
        if self._draining:
            self.metrics.add("serve.rejected.draining")
            return 503, {"ok": False, "error": "draining"}, None
        admitted = time.monotonic()
        try:
            body = request.json()
            spec, deadline = parse_request(op, body)
        except (http.HttpError, RequestError) as error:
            self.metrics.add("serve.rejected.invalid")
            message = getattr(error, "message", None) or str(error)
            return 400, {"ok": False, "error": message}, None
        budget = min(deadline or self.config.default_deadline,
                     self.config.max_deadline)
        key = canonical_json(spec)
        if key in self._memo:
            return self._answer_from_memo(key, admitted + budget)
        if self._waiting() >= self.config.queue_limit:
            self.metrics.add("serve.shed")
            return 429, {"ok": False, "error": "admission queue full",
                         "retry_after": self.config.retry_after}, \
                {"Retry-After": "%g" % self.config.retry_after}
        pending = _Pending(spec, request_label(spec), admitted + budget)
        self.metrics.add("serve.requests")
        self._inflight += 1
        try:
            outcome = await self._loop.run_in_executor(
                self._executor, self._run, pending)
        finally:
            self._inflight -= 1
        payload = outcome["payload"]
        if outcome["status"] == 200:
            self._count_answer(payload["meta"]["cached"])
            if not payload["meta"]["degraded"]:
                self._remember(key, payload["result"])
        return outcome["status"], payload, outcome.get("headers")

    def _answer_from_memo(self, key, deadline):
        """A repeat of a clean 200: the answer a store hit would give,
        without the executor hop, the store read, its fault site or
        the breaker."""
        self._memo.move_to_end(key)
        self.metrics.add("serve.requests")
        if time.monotonic() >= deadline:
            outcome = self._deadline_exceeded(0)
            return outcome["status"], outcome["payload"], None
        self.metrics.add("serve.memo_hits")
        self._count_answer(True)
        return 200, _answer(self._memo[key], 1, True, False), None

    def _count_answer(self, cached):
        # Loop thread only: the registry is unlocked, so each of these
        # counters keeps one writer.
        self.metrics.add("serve.cache_hits" if cached
                         else "serve.computed")
        self.metrics.add("serve.ok")

    def _remember(self, key, result):
        self._memo[key] = result
        self._memo.move_to_end(key)
        if len(self._memo) > MEMO_ENTRIES:
            self._memo.popitem(last=False)

    def _waiting(self):
        """Admitted requests queued behind the one executing."""
        return self._inflight - self._executing

    # -- execution (executor thread from here down) ------------------------

    def _run(self, pending):
        self._executing = 1
        try:
            return self._run_one(pending)
        except Exception as error:
            self.metrics.add("serve.failed")
            return {"status": 500,
                    "payload": {"ok": False,
                                "error": "internal error: %s" % error}}
        finally:
            self._executing = 0

    def _engine_for(self, degraded):
        if not degraded:
            return self.engine
        if self._fallback is None:
            self._fallback = EvaluationEngine(
                jobs=1, store=self.store, policy=self.config.policy())
        return self._fallback

    def _run_one(self, pending):
        attempts = 0
        while True:
            attempts += 1
            now = time.monotonic()
            if now >= pending.deadline:
                return self._deadline_exceeded(attempts - 1)
            degraded = not self.breaker.allow()
            try:
                if faults.armed("serve.request") \
                        and faults.fire("serve.request") == "shed":
                    self.metrics.add("serve.shed")
                    return {"status": 429, "payload": {
                        "ok": False, "error": "shed by fault injection",
                        "retry_after": self.config.retry_after},
                        "headers": {"Retry-After": "%g"
                                    % self.config.retry_after}}
                payload, cached, pain, swept_degraded = \
                    self._compute(pending, degraded)
            except RequestError as error:
                self.metrics.add("serve.rejected.invalid")
                return {"status": 400, "payload": {
                    "ok": False, "error": str(error)}}
            except Exception as error:
                # A failed sweep is final: the supervisor has already
                # run each failed task max_attempts times.
                final = isinstance(error, EvaluationError)
                if final and time.monotonic() >= pending.deadline:
                    return self._deadline_exceeded(attempts)
                if final or attempts >= self.config.max_attempts:
                    self.metrics.add("serve.failed")
                    return {"status": 500, "payload": {
                        "ok": False, "error": str(error),
                        "meta": {"attempts": attempts}}}
                self.metrics.add("serve.retries")
                delay = self.engine.policy.backoff(pending.label,
                                                   attempts)
                time.sleep(max(0.0, min(
                    delay, pending.deadline - time.monotonic())))
                continue
            if not degraded:
                if pain:
                    self.breaker.record_failure(pain)
                    self.metrics.add("serve.breaker.failures", pain)
                else:
                    self.breaker.record_success()
            was_degraded = degraded or swept_degraded
            if was_degraded:
                self.metrics.add("serve.degraded")
            return {"status": 200, "payload": _answer(
                payload, attempts, cached, was_degraded)}

    def _deadline_exceeded(self, attempts):
        self.metrics.add("serve.deadline_exceeded")
        return {"status": 504, "payload": {
            "ok": False, "error": "deadline exceeded",
            "meta": {"attempts": attempts}}}

    def _compute(self, pending, degraded):
        """Run one spec; returns (payload, cached, pool_pain, swept)."""
        engine = self._engine_for(degraded)
        restarts_before = engine.report.pool_restarts
        degraded_before = engine.report.degraded
        remaining = max(0.1, pending.deadline - time.monotonic())
        computed = []

        def compute():
            computed.append(True)
            return compute_result(pending.spec, engine)

        with engine.policy.clamped(remaining):
            payload = memoised("serve", {"request": pending.spec},
                               compute, store=self.store)
        pain = engine.report.pool_restarts - restarts_before
        swept = engine.report.degraded and not degraded_before
        return payload, not computed, pain, swept

    # -- introspection (loop thread) ---------------------------------------

    def _health(self):
        return {
            "status": "ok",
            "draining": self._draining,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "requests": self.metrics.count("serve.requests"),
        }

    def _readiness(self):
        return {
            "ready": not self._draining,
            "draining": self._draining,
            "queue_depth": self._waiting(),
            "queue_limit": self.config.queue_limit,
            "inflight": self._inflight,
            "jobs": self.config.jobs,
            "breaker": self.breaker.snapshot(),
            "cache": self.store.counters(),
            "supervisor": self.engine.report.counts(),
        }

    def _metric_state(self):
        return {
            "counters": {name: self.metrics.counters[name]
                         for name in sorted(self.metrics.counters)},
            "cache": dict(self.store.counters(),
                          kinds=self.store.kind_stats()),
            "breaker": self.breaker.snapshot(),
            "queue_depth": self._waiting(),
            "inflight": self._inflight,
            "supervisor": self.engine.report.counts(),
            "uptime_s": round(time.monotonic() - self._started, 3),
        }


class ServiceThread:
    """Run an :class:`EvaluationService` on a private loop thread.

    The in-process harness used by the tests and the self-hosted load
    test: enter the context manager to get a bound, running service;
    exit drains it gracefully and joins the thread.
    """

    def __init__(self, config=None):
        self.config = config or ServiceConfig()
        self.service = None
        self._thread = None
        self._ready = threading.Event()
        self._error = None

    @property
    def port(self):
        return self.service.port

    def __enter__(self):
        self._thread = threading.Thread(target=self._main,
                                        name="repro-serve-loop",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=60.0):
            raise RuntimeError("service failed to start in time")
        if self._error is not None:
            raise self._error
        return self

    def _main(self):
        try:
            asyncio.run(self._amain())
        except BaseException as error:    # surfaced to the entering thread
            self._error = error
        finally:
            self._ready.set()

    async def _amain(self):
        self.service = EvaluationService(self.config)
        await self.service.start()
        self._ready.set()
        await self.service.wait_closed()

    def stop(self, timeout=300.0):
        if self.service is not None:
            self.service.drain_threadsafe()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __exit__(self, *exc_info):
        self.stop()
