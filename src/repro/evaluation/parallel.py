"""Parallel evaluation engine with a content-addressed result cache.

The paper's evaluation is an embarrassingly parallel sweep: every
benchmark x machine-configuration x regioning cell of Tables 1-5 and
Figures 2-6 is independent.  This module decomposes one benchmark
evaluation into a small task DAG

    profile  (emulate the compiled program)
      -> regions  (cut it into basic blocks / superblocks, re-emulate)
        -> cell   (schedule every executed region for one machine
                   configuration and replay the profile)

and runs the DAGs of many benchmarks side by side on a
:class:`concurrent.futures.ProcessPoolExecutor`.  Every node's result is
memoised in a **content-addressed store**: the cache key is a hash of

* the compiled program's fingerprint (so editing a benchmark or the
  compiler invalidates exactly the programs whose code changed),
* the transform parameters (regioning kind; tail-duplication budget for
  trace regions — basic-block artefacts do not depend on the budget),
* the machine configuration's semantic fields (its display name is
  excluded, so two differently-named identical configs share cells), and
* a per-stage *code version* — a digest of the source files whose
  behaviour the artefact depends on.  Touching the scheduler invalidates
  only ``cell`` artefacts; profiles and region layouts survive.

Failures are contained per cell — and, since PR 4, *supervised*: every
task runs under the resilience layer in
:mod:`repro.evaluation.supervisor` (per-task deadlines with a watchdog,
bounded retry with deterministic backoff, pool resurrection after
``BrokenProcessPool``, graceful degradation to in-process execution,
cooperative SIGINT/SIGTERM cancellation).  A cell that still fails
after every retry marks its dependents failed, the rest of the sweep
completes, and the engine raises :class:`EvaluationError` naming every
failed cell; the per-cell outcomes are recorded in the engine's
:class:`~repro.evaluation.supervisor.EvaluationReport`.  With
``jobs=1`` the engine runs every task in-process (no pool), which
keeps ``pdb`` and coverage usable.

Cache artefact writes are crash-safe (temp file + fsync + atomic
rename via :mod:`repro.atomicio`) and serialised by per-key advisory
locks, so concurrent CLI runs sharing one cache directory never
clobber each other.  The store itself lives in
:mod:`repro.evaluation.cache` (:func:`~repro.evaluation.cache
.open_store`).  The deterministic fault-injection sites the chaos
suite drives (``parallel.task``, ``cache.read``, ``cache.write``) are
described in :mod:`repro.testing.faults`.
"""

import hashlib
import os
import traceback
from concurrent.futures import ProcessPoolExecutor

from repro.benchmarks.suite import (
    clear_front_end_memo, compile_benchmark, program_fingerprint,
    run_program_cached)
from repro.evaluation.cache import current_store, open_store, using_store
from repro.evaluation.supervisor import (
    EvaluationReport, Supervisor, SupervisorPolicy, kill_pool)
from repro.observability import tracing as obs
from repro.testing import faults

__all__ = [
    "EvaluationEngine",
    "EvaluationError",
    "EvaluationReport",
    "SupervisorPolicy",
    "artefact_key",
    "code_version",
    "config_signature",
    "configure",
    "memoised",
    "shared_engine",
]

_JOBS_ENV = "REPRO_JOBS"


# --------------------------------------------------------------------------
# Cache keys: config signatures and code versions.

def config_signature(config):
    """The semantic fields of a :class:`MachineConfig` as a JSON value.

    The display name is deliberately excluded: it does not affect any
    computed cycle count, so renaming a configuration (or giving the
    same parameters two names in different experiments) keeps the cache
    warm.
    """
    fields = {key: value for key, value in vars(config).items()
              if key != "name"}
    return fields


#: source files each artefact kind depends on, relative to the package
#: root.  A change to a file invalidates the kinds that list it — and
#: only those: editing the scheduler leaves profiles and region layouts
#: cached.
_PROFILE_FILES = (
    "emulator/machine.py",
    "intcode/runtime.py",
    "intcode/layout.py",
)
#: the compiled loop is an implementation detail with a bit-identical
#: output contract, so editing it invalidates only profile artefacts:
#: region layouts and cycle cells consume profile *data*, which both
#: loops produce identically.
_PROFILE_ONLY_FILES = _PROFILE_FILES + ("emulator/codegen.py",)
_REGION_FILES = _PROFILE_FILES + (
    "compaction/transform.py",
    "analysis/cfg.py",
    "evaluation/simulator.py",
)
_CELL_FILES = _REGION_FILES + (
    "compaction/scheduler.py",
    "compaction/machine_model.py",
    "analysis/dependence.py",
    "analysis/dataflow.py",
    "analysis/liveness.py",
    "evaluation/pipeline.py",
)
_COMPONENT_FILES = {
    "profile": _PROFILE_ONLY_FILES,
    # whole emulation results (run_program_cached): per-pc counts,
    # output and the producing loop of one compiled program
    "emulation": _PROFILE_ONLY_FILES,
    "regions": _REGION_FILES,
    "cell": _CELL_FILES,
    # experiment-level cells (see the callers in repro.experiments)
    "dataflow": _PROFILE_FILES + ("evaluation/dynamic.py",),
    "pressure": _CELL_FILES + ("compaction/regalloc.py",),
    "wam": _CELL_FILES,
    # the static dataflow-limit bound (repro.experiments.static_ilp)
    "static_ilp": _CELL_FILES,
    # whole-request results memoised by the evaluation service: they
    # wrap cell/verify/analyze outputs, so they depend on everything a
    # cell depends on plus the service's own result shaping
    "serve": _CELL_FILES + ("serve/ops.py",),
    # answer-memo entries of the or-parallel search engine: canonical
    # (predicate, call-pattern) fingerprints map to rendered answer
    # lists, so they depend on the whole term/reader/interpreter stack
    # that produces and replays those renderings
    "orparallel": ("interp/engine.py", "interp/orparallel.py",
                   "interp/database.py", "interp/unify.py",
                   "terms/term.py", "reader/lexer.py",
                   "reader/parser.py", "reader/operators.py"),
}

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_code_versions = {}


def code_version(kind):
    """Digest of the source files artefacts of *kind* depend on."""
    version = _code_versions.get(kind)
    if version is None:
        digest = hashlib.sha256()
        for relative in _COMPONENT_FILES[kind]:
            digest.update(relative.encode())
            path = os.path.join(_PACKAGE_ROOT, relative)
            try:
                with open(path, "rb") as handle:
                    digest.update(handle.read())
            except OSError:
                digest.update(b"<missing>")
        version = digest.hexdigest()[:16]
        _code_versions[kind] = version
    return version


def artefact_key(store, kind, components):
    """*store*'s key for a *kind* artefact of *components*, with the
    kind's :func:`code_version` appended."""
    return store.key(kind, dict(components, code=code_version(kind)))


# --------------------------------------------------------------------------
# Content-addressed memoisation (the store lives in evaluation.cache).

def memoised(kind, components, compute, store=None, use_cache=True):
    """Single-flight content-addressed memoisation.

    *components* identifies the inputs (fingerprints, parameters); the
    appropriate :func:`code_version` is appended automatically.  Safe
    to call from pool workers — without a *store* the
    :func:`~repro.evaluation.cache.current_store` is used, re-opened
    from the environment in each process.  *store* is current while
    *compute* runs, so nested lookups share its counters and locks.

    A cold key is computed under the key's inter-process lock: two
    workers racing the same key no longer both compute and both write.
    The loser of the race re-reads under the lock, finds the winner's
    entry, and the dodged duplicate compute is counted as
    ``cache.races``.
    """
    store = store or current_store()
    key = artefact_key(store, kind, components)
    payload = store.get(key) if use_cache else None
    if payload is not None:
        return payload
    with store.lock_for(key):
        if use_cache:
            payload = store.get(key)
            if payload is not None:
                store.races += 1
                obs.add("cache.races")
                return payload
        with using_store(store):
            payload = compute()
        store.put(key, payload)
    return payload


# --------------------------------------------------------------------------
# Worker-side task execution.  Module-level so the pool can pickle the
# entry point by reference.  The compiled program comes from the
# front-end memo (``compile_benchmark``); per-process memos let the
# cells of one benchmark assigned to the same worker share its profile
# and region sets.

_worker_profiles = {}
_worker_regions = {}


def _worker_init():
    """Pool initializer.  A forked worker inherits the coordinator's
    front-end memo; emptying it makes the worker compile each source
    itself, so the fingerprint check in :func:`_worker_program`
    compares two independent compiles."""
    faults.mark_worker()
    clear_front_end_memo()


def _worker_program(name, fingerprint):
    program = compile_benchmark(name)
    compiled = program_fingerprint(program)
    if compiled != fingerprint:
        raise RuntimeError(
            "benchmark %r compiled to fingerprint %s in the worker, "
            "expected %s — non-deterministic compilation?"
            % (name, compiled, fingerprint))
    entry = _worker_profiles.get(name)
    if entry is None or entry[0] != fingerprint:
        result = run_program_cached(program, name + "-")
        entry = (fingerprint, result)
        _worker_profiles[name] = entry
        _worker_regions.clear()
    return program, entry[1]


def _worker_region_set(name, fingerprint, regioning, budget):
    from repro.evaluation import pipeline
    key = (name, fingerprint, regioning, budget)
    region_set = _worker_regions.get(key)
    if region_set is None:
        program, result = _worker_program(name, fingerprint)
        if regioning == "bb":
            region_set = pipeline.basic_block_regions(program, result)
        else:
            region_set = pipeline.superblock_regions(
                program, result, budget, name + "-")
        _worker_regions[key] = region_set
    return region_set


def execute_task(spec):
    """Compute one DAG node's payload.  Raises on any failure."""
    faults.fire("parallel.task")
    kind = spec["kind"]
    name = spec["benchmark"]
    fingerprint = spec["fingerprint"]
    if kind == "profile":
        _program, result = _worker_program(name, fingerprint)
        return {"steps": result.steps, "status": result.status,
                "backend": result.backend}
    if kind == "regions":
        region_set = _worker_region_set(name, fingerprint,
                                        spec["regioning"], spec["budget"])
        mean_length, entries = region_set.stats()
        return {"mean_length": mean_length, "entries": entries}
    if kind == "cell":
        from repro.evaluation.pipeline import machine_cycles
        region_set = _worker_region_set(name, fingerprint,
                                        spec["regioning"], spec["budget"])
        return {"cycles": machine_cycles(region_set, spec["config"])}
    raise ValueError("unknown evaluation task kind %r" % kind)


def _pool_task(spec):
    """Pool entry point: exceptions become data (crash containment)."""
    try:
        return {"id": spec["id"], "payload": execute_task(spec)}
    except Exception:
        return {"id": spec["id"], "error": traceback.format_exc()}


def _map_pool_task(spec):
    """Pool entry point for :meth:`EvaluationEngine.map` items."""
    try:
        return {"id": spec["id"],
                "payload": spec["function"](spec["item"])}
    except Exception:
        return {"id": spec["id"], "error": traceback.format_exc()}


def _map_inline(spec):
    return spec["function"](spec["item"])


# --------------------------------------------------------------------------
# The engine.

class EvaluationError(RuntimeError):
    """One or more evaluation cells failed; the rest of the sweep ran.

    ``failures`` is a list of ``(cell label, detail)`` pairs, where the
    detail is the worker's traceback text (or a one-line reason for
    cells blocked by a failed dependency).
    """

    def __init__(self, failures):
        self.failures = list(failures)
        lines = []
        for label, detail in self.failures:
            summary = detail.strip().splitlines()[-1] if detail else "?"
            lines.append("%s: %s" % (label, summary))
        super().__init__("%d evaluation task(s) failed:\n  %s"
                         % (len(self.failures), "\n  ".join(lines)))


class _Node:
    __slots__ = ("id", "label", "spec", "key", "deps", "dependents",
                 "payload", "error", "exception", "done", "failed")

    def __init__(self, id, label, spec, key):
        self.id = id
        self.label = label
        self.spec = spec
        self.key = key
        self.deps = []
        self.dependents = []
        self.payload = None
        self.error = None
        self.exception = None
        self.done = False
        self.failed = False


class EvaluationEngine:
    """Run benchmark evaluations as a task DAG over a process pool.

    *jobs* is the worker count (default ``os.cpu_count()``); ``jobs=1``
    executes every task in the calling process.  *store* is the
    content-addressed :class:`~repro.evaluation.cache.CacheStore`
    (default: the shared cache directory, honouring
    ``REPRO_CACHE_DIR``).  *policy* is the
    :class:`~repro.evaluation.supervisor.SupervisorPolicy` governing
    deadlines, retries, backoff and pool resurrection; per-task
    outcomes accumulate in :attr:`report` for the engine's lifetime.
    """

    def __init__(self, jobs=None, store=None, policy=None):
        self.jobs = max(1, jobs if jobs is not None
                        else (os.cpu_count() or 1))
        self.store = store or open_store()
        self.policy = policy or SupervisorPolicy()
        self.report = EvaluationReport()
        self._pool = None

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        self._abandon_pool(kill=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _executor(self):
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_worker_init)
        return self._pool

    def _abandon_pool(self, kill=False):
        """Drop the current pool (a fresh one is created lazily)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            kill_pool(pool)
        else:
            pool.shutdown(wait=False, cancel_futures=True)

    def _supervisor(self, worker, inline):
        return Supervisor(self, self.policy, self.report, worker,
                          inline)

    # -- public API --------------------------------------------------------

    def evaluate(self, name, configs, tail_dup_budget=48):
        """Evaluate one benchmark under every config in *configs*.

        *configs* maps result keys to ``(MachineConfig, regioning)``
        pairs, regioning being ``"bb"`` or ``"trace"``.  Returns a
        :class:`~repro.evaluation.pipeline.BenchmarkEvaluation` with
        cycle counts and region statistics.
        """
        return self.evaluate_many([
            {"name": name, "configs": configs,
             "tail_dup_budget": tail_dup_budget},
        ])[0]

    def evaluate_many(self, requests):
        """Evaluate a batch of benchmark requests through one DAG.

        Each request is a dict with keys ``name``, ``configs`` and
        optionally ``tail_dup_budget`` (default 48).
        Nodes shared between requests (same program, same parameters,
        same configuration) are computed once.  Returns the matching
        list of :class:`BenchmarkEvaluation` objects; raises
        :class:`EvaluationError` after the sweep completes if any cell
        failed.
        """
        from repro.evaluation.pipeline import BenchmarkEvaluation

        nodes = {}
        plans = []
        failures = []

        with obs.span("engine.evaluate", requests=len(requests)) as sp:
            for request in requests:
                try:
                    plans.append(self._plan_request(nodes, request))
                except Exception:
                    failures.append(("request %r" % request.get("name"),
                                     traceback.format_exc()))
                    plans.append(None)
            sp.set(nodes=len(nodes))
            self._run_nodes(nodes)

        evaluations = []
        for request, plan in zip(requests, plans):
            if plan is None:
                evaluations.append(None)
                continue
            profile_node, region_nodes, cell_nodes = plan
            bad = [node for node in
                   [profile_node] + list(region_nodes.values())
                   + list(cell_nodes.values()) if node.failed]
            if bad:
                for node in bad:
                    entry = (node.label, node.error)
                    if entry not in failures:
                        failures.append(entry)
                evaluations.append(None)
                continue
            data = {
                "cycles": {key: node.payload["cycles"]
                           for key, node in cell_nodes.items()},
                "region_stats": {
                    regioning: {
                        "mean_length": node.payload["mean_length"],
                        "entries": node.payload["entries"]}
                    for regioning, node in region_nodes.items()},
                "steps": profile_node.payload["steps"],
                # Which emulator loop produced the profile artefact.
                "backend": profile_node.payload.get("backend",
                                                    "reference"),
            }
            evaluations.append(
                BenchmarkEvaluation(request["name"], data))

        if failures:
            error = EvaluationError(failures)
            first = next((node.exception for node in nodes.values()
                          if node.exception is not None), None)
            if first is not None:
                raise error from first
            raise error
        return evaluations

    def prewarm_profiles(self, names):
        """Emulate (and cache) the dynamic profiles of *names* in
        parallel; subsequent :func:`run_benchmark` calls are disk hits."""
        nodes = {}
        failures = []
        for name in names:
            try:
                self._add_profile_node(nodes, name)
            except Exception:
                failures.append(("profile %s" % name,
                                 traceback.format_exc()))
        self._run_nodes(nodes)
        failures.extend((node.label, node.error)
                        for node in nodes.values() if node.failed)
        if failures:
            raise EvaluationError(failures)

    def map(self, function, items):
        """Order-preserving map over the worker pool.

        *function* must be a picklable module-level callable.  With
        ``jobs=1`` (or a single item) this is a plain in-process loop,
        so exceptions propagate directly and ``pdb`` works.  Pooled
        items run under the supervisor — deadlines, bounded retry,
        pool resurrection — and any item that still fails surfaces as
        :class:`EvaluationError` after the rest completed.
        """
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            with using_store(self.store):
                return [function(item) for item in items]
        label = getattr(function, "__name__", "call").strip("_")
        nodes = {}
        order = []
        for index, item in enumerate(items):
            node_id = "map-%s-%d" % (label, index)
            node = _Node(node_id, "map/%s/%d" % (label, index),
                         {"id": node_id, "function": function,
                          "item": item}, None)
            nodes[node_id] = node
            order.append(node)
        with obs.span("engine.map", items=len(order), label=label), \
                using_store(self.store):
            self._supervisor(_map_pool_task, _map_inline).run(nodes)
        failures = [(node.label, node.error) for node in order
                    if node.failed]
        if failures:
            raise EvaluationError(failures)
        return [node.payload for node in order]

    # -- DAG construction --------------------------------------------------

    def _intern(self, nodes, kind, label, spec, components):
        key = artefact_key(self.store, kind, components)
        node = nodes.get(key)
        if node is None:
            node = _Node(key, label, dict(spec, id=key), key)
            nodes[key] = node
        return node

    def _add_profile_node(self, nodes, name):
        fingerprint = program_fingerprint(compile_benchmark(name))
        return self._intern(
            nodes, "profile", "%s/profile" % name,
            {"kind": "profile", "benchmark": name,
             "fingerprint": fingerprint},
            {"fingerprint": fingerprint})

    def _plan_request(self, nodes, request):
        name = request["name"]
        configs = request["configs"]
        budget = request.get("tail_dup_budget", 48)
        fingerprint = program_fingerprint(compile_benchmark(name))
        profile_node = self._add_profile_node(nodes, name)

        region_nodes = {}
        cell_nodes = {}
        for key in sorted(configs):
            config, regioning = configs[key]
            region_budget = None if regioning == "bb" else budget
            region_node = region_nodes.get(regioning)
            if region_node is None:
                region_node = self._intern(
                    nodes, "regions",
                    "%s/regions/%s" % (name, regioning),
                    {"kind": "regions", "benchmark": name,
                     "fingerprint": fingerprint, "regioning": regioning,
                     "budget": region_budget},
                    {"fingerprint": fingerprint, "regioning": regioning,
                     "budget": region_budget})
                _link(profile_node, region_node)
                region_nodes[regioning] = region_node
            cell_node = self._intern(
                nodes, "cell", "%s/cell/%s" % (name, config.name),
                {"kind": "cell", "benchmark": name,
                 "fingerprint": fingerprint, "regioning": regioning,
                 "budget": region_budget, "config": config},
                {"fingerprint": fingerprint, "regioning": regioning,
                 "budget": region_budget,
                 "config": config_signature(config)})
            _link(region_node, cell_node)
            cell_nodes[key] = cell_node
        return profile_node, region_nodes, cell_nodes

    # -- execution ---------------------------------------------------------

    def _precheck(self, nodes):
        """Serve every node the store can satisfy; return the rest."""
        pending = {}
        for node in nodes.values():
            if node.done:
                continue
            payload = self.store.get(node.key)
            if payload is not None:
                node.payload = payload
                node.done = True
                obs.add("engine.tasks.cached")
                self.report.record(node.id, node.label, "cached",
                                   attempts=0)
            else:
                pending[node.id] = node
        return pending

    def _finish(self, node, payload):
        node.payload = payload
        node.done = True
        if node.key is not None:
            self.store.put(node.key, payload)

    def _fail(self, node, detail, exception=None):
        node.failed = True
        node.done = True
        node.error = detail
        node.exception = exception
        for dependent in node.dependents:
            if not dependent.done:
                self._fail(dependent,
                           "blocked: dependency %s failed" % node.label)

    def _run_nodes(self, nodes):
        pending = self._precheck(nodes)
        if not pending:
            return
        # The supervisor picks serial (jobs=1) or pooled execution and
        # applies the resilience policy either way; _pool_task and
        # execute_task are resolved late so tests can monkeypatch them.
        with using_store(self.store):
            self._supervisor(_pool_task, execute_task).run(pending)

    def _topological(self, pending):
        order = []
        seen = set()

        def visit(node):
            if node.id in seen or node.id not in pending:
                return
            seen.add(node.id)
            for dep in node.deps:
                visit(dep)
            order.append(node)

        for node in sorted(pending.values(), key=lambda n: n.label):
            visit(node)
        return order


def _link(dependency, dependent):
    if dependency not in dependent.deps:
        dependent.deps.append(dependency)
        dependency.dependents.append(dependent)


# --------------------------------------------------------------------------
# The shared engine: library calls default to in-process execution (so
# plain API use never forks); the CLI and ``run_all`` configure a pool.

_shared = None


def _default_jobs():
    value = os.environ.get(_JOBS_ENV)
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            pass
    return 1


def shared_engine():
    """The process-wide engine (``REPRO_JOBS`` workers; default 1)."""
    global _shared
    if _shared is None:
        _shared = EvaluationEngine(jobs=_default_jobs())
    return _shared


def configure(jobs=None, store=None, policy=None):
    """Replace the shared engine (e.g. ``repro evaluate --jobs N``)."""
    global _shared
    if _shared is not None:
        _shared.close()
    _shared = EvaluationEngine(jobs=jobs, store=store, policy=policy)
    return _shared
