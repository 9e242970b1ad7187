"""Fault-tolerant execution of evaluation task DAGs.

The parallel engine (:mod:`repro.evaluation.parallel`) plans a DAG of
profile/regions/cell nodes; this module runs those nodes so that the
sweep survives every failure mode the chaos suite can inject:

* **watchdog deadlines** — every pooled task has a wall-clock deadline
  (:attr:`SupervisorPolicy.deadline`), counted from when it gets a
  worker, not from its submission; a hung worker is detected, the
  pool is killed (``SIGKILL`` — a hung task cannot be cancelled
  cooperatively) and replaced, and the overdue task is retried;
* **bounded retry with deterministic backoff** — a failed task is
  retried up to :attr:`SupervisorPolicy.max_attempts` times with
  exponential backoff and *deterministic* jitter (seeded by task label,
  so two runs of one sweep sleep identically and tests are
  reproducible);
* **pool resurrection and graceful degradation** — a
  ``BrokenProcessPool`` (worker killed, fork failure) costs one pool
  restart; past :attr:`SupervisorPolicy.max_pool_restarts` the
  supervisor stops trusting pools and finishes the remaining nodes
  serially in-process (*degraded* mode — slower, but the sweep
  completes with identical numbers);
* **cooperative cancellation** — SIGINT/SIGTERM set a flag; the run
  loop stops submitting, kills the pool, leaves every already-finished
  artefact safely published in the cache (writes are atomic), marks the
  report interrupted and re-raises ``KeyboardInterrupt`` for the CLI to
  turn into exit code 130;
* **a structured report** — every node's outcome (ok / cached /
  retried / degraded / failed), attempt count and wall time is recorded
  in an :class:`EvaluationReport`, surfaced by ``repro evaluate`` /
  ``repro verify``.

The supervisor is deliberately engine-agnostic: it sees nodes with
``id``/``label``/``spec``/``deps`` and calls back into the engine for
``_finish``/``_fail``/pool management, so the map sweep of ``repro
verify`` reuses the same machinery as the evaluation DAG.
"""

import contextlib
import signal
import threading
import time
import traceback
import zlib
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool

from repro.observability import tracing as obs

__all__ = ["EvaluationReport", "Supervisor", "SupervisorPolicy"]


class SupervisorPolicy:
    """Tunable resilience parameters.

    *max_attempts* bounds executions per node (first try included).
    *deadline* is the per-task wall-clock budget in seconds for pooled
    execution, from when the task gets a worker (None disables the
    watchdog; in-process execution is never preempted).
    *backoff_base*/*backoff_cap* shape the
    exponential retry delay; *seed* makes the jitter deterministic.
    *max_pool_restarts* bounds pool resurrections before the
    supervisor degrades to serial in-process execution.
    """

    def __init__(self, max_attempts=3, deadline=300.0,
                 backoff_base=0.05, backoff_cap=2.0, seed=0,
                 max_pool_restarts=2, poll=0.1):
        self.max_attempts = max(1, max_attempts)
        self.deadline = deadline
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.seed = seed
        self.max_pool_restarts = max(0, max_pool_restarts)
        self.poll = poll

    @contextlib.contextmanager
    def clamped(self, deadline):
        """Temporarily cap the watchdog deadline at *deadline* seconds.

        The evaluation service propagates each request's remaining
        deadline into the per-cell timeouts this way: a request with
        2 s left must not sit behind a 300 s cell watchdog.  ``None``
        leaves the policy untouched; the previous deadline is restored
        on exit either way.
        """
        saved = self.deadline
        if deadline is not None:
            self.deadline = (deadline if saved is None
                             else min(saved, deadline))
        try:
            yield self
        finally:
            self.deadline = saved

    def backoff(self, label, attempt):
        """Delay before retry *attempt* (1-based) of the task *label*.

        Exponential in the attempt number, capped, with ±50% jitter
        derived from ``crc32(label) ^ seed ^ attempt`` — deterministic
        across runs and processes (no salted ``hash()``), yet spread
        across tasks so a failed fan-out does not retry in lockstep.
        """
        base = min(self.backoff_cap,
                   self.backoff_base * (2 ** max(0, attempt - 1)))
        mix = zlib.crc32(label.encode()) ^ (self.seed & 0xFFFFFFFF) \
            ^ (attempt * 0x9E3779B9)
        unit = ((mix * 2654435761) & 0xFFFFFFFF) / 0xFFFFFFFF
        return base * (0.5 + unit)


class EvaluationReport:
    """Structured outcome of one or more supervised sweeps.

    Per-task records carry ``label``, ``status`` (``ok`` / ``cached`` /
    ``retried`` / ``degraded`` / ``failed``), ``attempts`` and
    ``seconds``; run-level fields count pool restarts and record
    degradation/interruption.  ``repro evaluate --report PATH`` writes
    the JSON form.
    """

    STATUSES = ("ok", "cached", "retried", "degraded", "failed")

    def __init__(self):
        self.records = {}
        self.pool_restarts = 0
        self.degraded = False
        self.interrupted = None      # signal name once cancelled

    def record(self, task_id, label, status, attempts=1, seconds=0.0,
               detail=None):
        if status not in self.STATUSES:
            raise ValueError("unknown task status %r" % status)
        previous = self.records.get(task_id)
        if previous is not None and status == "cached":
            # A later cache hit on an already-reported node adds no
            # information; keep the computed outcome.
            return
        self.records[task_id] = {
            "label": label, "status": status,
            "attempts": attempts, "seconds": round(seconds, 6),
            "detail": detail,
        }

    def counts(self):
        totals = dict.fromkeys(self.STATUSES, 0)
        for record in self.records.values():
            totals[record["status"]] += 1
        return totals

    def by_status(self, status):
        return sorted(record["label"]
                      for record in self.records.values()
                      if record["status"] == status)

    def summary(self):
        counts = self.counts()
        parts = ["%d %s" % (counts[status], status)
                 for status in self.STATUSES if counts[status]]
        text = "supervisor: %d task(s): %s" % (
            len(self.records), ", ".join(parts) or "nothing ran")
        if self.pool_restarts:
            text += "; %d pool restart(s)" % self.pool_restarts
        if self.degraded:
            text += "; degraded to in-process execution"
        if self.interrupted:
            text += "; interrupted by %s" % self.interrupted
        return text

    def to_json(self):
        return {
            "tasks": [self.records[key]
                      for key in sorted(self.records)],
            "summary": self.counts(),
            "pool_restarts": self.pool_restarts,
            "degraded": self.degraded,
            "interrupted": self.interrupted,
        }


def kill_pool(pool):
    """Tear a ``ProcessPoolExecutor`` down *now*.

    A hung or crash-looping pool cannot be shut down cooperatively —
    ``shutdown`` waits for running tasks.  SIGKILL the workers first
    (reaching into ``_processes`` is unavoidable: the executor API has
    no kill), then release the executor's own resources.
    """
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.kill()
        except OSError:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


class _cooperative_signals:
    """Swap SIGINT/SIGTERM handlers for a flag-setting one.

    Outside the main thread (where ``signal.signal`` is illegal) this
    is a no-op and Python's default KeyboardInterrupt behaviour stays.
    """

    def __init__(self):
        self.received = None
        self._saved = {}

    def _handler(self, signum, frame):
        self.received = signal.Signals(signum).name

    def __enter__(self):
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._saved[signum] = signal.signal(signum,
                                                        self._handler)
                except (ValueError, OSError):
                    pass
        return self

    def __exit__(self, *exc_info):
        for signum, handler in self._saved.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass


class Supervisor:
    """Run a set of DAG nodes to completion under a resilience policy.

    *engine* provides ``_executor()`` / ``_abandon_pool()`` for pool
    management and ``_finish(node, payload)`` / ``_fail(node, detail,
    exception)`` for outcome recording (dependency cascade included).
    *worker* is the picklable pool entry point mapping ``node.spec`` to
    ``{"id", "payload"}`` or ``{"id", "error"}``; *inline* computes a
    payload in-process (serial and degraded modes).
    """

    def __init__(self, engine, policy, report, worker, inline):
        self.engine = engine
        self.policy = policy
        self.report = report
        self.worker = worker
        self.inline = inline
        self._signals = None
        self._spans = {}            # node id -> open task span

    # -- task spans --------------------------------------------------------
    #
    # One span per supervised node, named "task", covering every attempt
    # (retries, pool resubmissions and degraded re-execution included).
    # Its ``status``/``attempts`` attrs mirror the EvaluationReport
    # record exactly, which is what lets the trace-invariant suite
    # reconcile spans against the report.  Pooled tasks overlap, so
    # these are explicit open/close spans, not stacked ones.

    def _span_open(self, node):
        tracer = obs.active()
        if tracer is None or node.id in self._spans:
            return
        self._spans[node.id] = tracer.open(
            "task", label=node.label,
            kind=node.spec.get("kind", "map"))

    def _span_close(self, node, status, attempts):
        span = self._spans.pop(node.id, None)
        tracer = obs.active()
        if span is None or tracer is None:
            return
        span.set(status=status, attempts=attempts)
        tracer.close(span,
                     status="error" if status == "failed" else "ok")

    def _span_abandon(self):
        """Cancellation: close every still-open task span loudly."""
        tracer = obs.active()
        for span in self._spans.values():
            if tracer is not None:
                span.set(status="cancelled")
                tracer.close(span, status="error")
        self._spans.clear()

    # -- outcome recording -------------------------------------------------

    def _succeed(self, node, payload, attempts, started,
                 degraded=False):
        self.engine._finish(node, payload)
        status = "degraded" if degraded else (
            "retried" if attempts > 1 else "ok")
        self.report.record(node.id, node.label, status, attempts,
                           time.monotonic() - started)
        if attempts > 1:
            obs.add("supervisor.retries", attempts - 1)
        if degraded:
            obs.add("supervisor.degraded_tasks")
        self._span_close(node, status, attempts)

    def _give_up(self, node, detail, attempts, started, exception=None):
        self.engine._fail(node, detail, exception)
        self.report.record(node.id, node.label, "failed", attempts,
                           time.monotonic() - started,
                           detail=_last_line(detail))
        obs.add("supervisor.failed_tasks")
        if attempts > 1:
            obs.add("supervisor.retries", attempts - 1)
        self._span_close(node, "failed", attempts)

    # -- serial (jobs=1) and degraded execution ----------------------------

    def run_serial(self, pending, degraded=False):
        """Execute *pending* in-process, topologically, with retries.

        Used both for ``jobs=1`` engines and as the degraded fallback
        once pools are exhausted.  No watchdog: an in-process task
        cannot be preempted (documented limitation).
        """
        order = self.engine._topological(pending)
        for node in order:
            if self._cancelled():
                break
            if node.done:
                continue
            if any(dep.failed for dep in node.deps):
                continue        # _fail already cascaded to this node
            self._span_open(node)
            started = time.monotonic()
            attempts = 0
            while True:
                attempts += 1
                try:
                    payload = self.inline(node.spec)
                except Exception as exception:
                    if attempts >= self.policy.max_attempts:
                        self._give_up(node, traceback.format_exc(),
                                      attempts, started, exception)
                        break
                    self._sleep(self.policy.backoff(node.label,
                                                    attempts))
                    if self._cancelled():
                        break
                else:
                    self._succeed(node, payload, attempts, started,
                                  degraded=degraded)
                    break

    # -- pooled execution --------------------------------------------------

    def run_pooled(self, pending):
        waiting = dict(pending)          # id -> node, not yet running
        in_flight = {}                   # future -> (node, deadline or None)
        sleeping = []                    # (wake time, node) backoff queue
        attempts = dict.fromkeys(pending, 0)
        started = dict.fromkeys(pending, None)
        restarts = 0
        pool_broken = False
        degraded = False

        def ready(node):
            return all(dep.done and not dep.failed
                       for dep in node.deps)

        def retry_or_fail(node, detail):
            if attempts[node.id] >= self.policy.max_attempts:
                self._give_up(node, detail, attempts[node.id],
                              started[node.id])
                return
            wake = time.monotonic() + self.policy.backoff(
                node.label, attempts[node.id])
            sleeping.append((wake, node))

        while waiting or in_flight or sleeping:
            if self._cancelled():
                break
            now = time.monotonic()

            # Resurrect (or degrade) after a broken pool.
            if pool_broken:
                pool_broken = False
                restarts += 1
                self.report.pool_restarts += 1
                obs.add("supervisor.pool_restarts")
                self.engine._abandon_pool(kill=True)
                for future, (node, _) in list(in_flight.items()):
                    # Sibling futures of a broken pool all fail; their
                    # tasks did nothing wrong — resubmit at no attempt
                    # cost (pool health is bounded by restarts, not by
                    # per-task attempts).
                    attempts[node.id] -= 1
                    waiting[node.id] = node
                in_flight.clear()
                if restarts > self.policy.max_pool_restarts:
                    degraded = True
                    self.report.degraded = True

            if degraded:
                obs.add("supervisor.degradations")
                remaining = dict(waiting)
                remaining.update((node.id, node)
                                 for _, node in sleeping)
                waiting.clear()
                del sleeping[:]
                self.run_serial(remaining, degraded=True)
                continue

            # Wake backoff sleepers whose delay has elapsed.
            due = [entry for entry in sleeping if entry[0] <= now]
            if due:
                sleeping[:] = [entry for entry in sleeping
                               if entry[0] > now]
                for _, node in due:
                    waiting[node.id] = node

            # Drop nodes that finished elsewhere (dependency-failure
            # cascade, duplicate wake).
            for node_id in [node_id for node_id, node in waiting.items()
                            if node.done]:
                del waiting[node_id]

            # Submit every ready node.
            launch = sorted((node for node in waiting.values()
                             if ready(node)), key=lambda n: n.label)
            for node in launch:
                del waiting[node.id]
                attempts[node.id] += 1
                self._span_open(node)
                if started[node.id] is None:
                    started[node.id] = time.monotonic()
                try:
                    future = self.engine._executor().submit(
                        self.worker, node.spec)
                except BaseException:
                    # Pool creation/submission itself failed: treat as
                    # a broken pool (counts toward degradation).
                    waiting[node.id] = node
                    attempts[node.id] -= 1
                    pool_broken = True
                    break
                in_flight[future] = (node, None)

            if not in_flight:
                if sleeping and not waiting:
                    self._sleep(min(self.policy.poll, max(
                        0.0, min(wake for wake, _ in sleeping)
                        - time.monotonic())))
                elif not waiting:
                    break
                continue

            # Arm each deadline when its task gets a worker, not at
            # submit(): the pool runs tasks in submission order, so a
            # task has one once fewer than `jobs` earlier-submitted
            # tasks are unfinished.  Time spent queued is not its own.
            if self.policy.deadline is not None:
                now = time.monotonic()
                for future, (node, deadline) in \
                        list(in_flight.items())[:self.engine.jobs]:
                    if deadline is None:
                        in_flight[future] = (
                            node, now + self.policy.deadline)

            done, _ = wait(list(in_flight), timeout=self.policy.poll,
                           return_when=FIRST_COMPLETED)
            for future in done:
                node, _ = in_flight.pop(future)
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    waiting[node.id] = node
                    attempts[node.id] -= 1
                    continue
                except Exception:
                    retry_or_fail(node, traceback.format_exc())
                    continue
                if "error" in outcome:
                    retry_or_fail(node, outcome["error"])
                else:
                    self._succeed(node, outcome["payload"],
                                  attempts[node.id], started[node.id])

            # Watchdog: tasks past their deadline.  A hung worker can
            # only be stopped by killing the pool, which loses the
            # innocent in-flight siblings too — they are resubmitted
            # at no attempt cost.
            now = time.monotonic()
            overdue = [(future, node)
                       for future, (node, deadline) in in_flight.items()
                       if deadline is not None and now >= deadline]
            if overdue:
                obs.add("supervisor.watchdog_kills", len(overdue))
                for future, node in overdue:
                    del in_flight[future]
                    retry_or_fail(
                        node, "task %s exceeded its %.3gs deadline"
                        % (node.label, self.policy.deadline))
                pool_broken = True

        if self._cancelled():
            self.engine._abandon_pool(kill=True)
            self.report.interrupted = self._signals.received
            self._span_abandon()
            raise KeyboardInterrupt(self._signals.received)

    # -- entry point -------------------------------------------------------

    def run(self, pending):
        """Run *pending* (id -> node) to completion; the mode (serial
        vs pooled) follows the engine's job count."""
        if not pending:
            return
        with _cooperative_signals() as self._signals:
            try:
                if self.engine.jobs <= 1:
                    self.run_serial(pending)
                    if self._cancelled():
                        self.report.interrupted = \
                            self._signals.received
                        self._span_abandon()
                        raise KeyboardInterrupt(self._signals.received)
                else:
                    self.run_pooled(pending)
            finally:
                self._signals = None

    # -- helpers -----------------------------------------------------------

    def _cancelled(self):
        return self._signals is not None \
            and self._signals.received is not None

    def _sleep(self, duration):
        """Sleep in poll-sized slices so cancellation stays responsive."""
        end = time.monotonic() + duration
        while not self._cancelled():
            remaining = end - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(self.policy.poll, remaining))


def _last_line(text):
    if not text:
        return None
    lines = text.strip().splitlines()
    return lines[-1] if lines else None
