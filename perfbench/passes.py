"""One pass of a workload, run in a fresh interpreter.

``run.py`` starts ``python3 -c "import passes; ..." SPEC OUT`` for every
timed pass, so no in-process memo carries over from one pass to the
next (``experiments.data._evaluations``, the engine's fingerprint memo,
``parallel._worker_programs``, ``Program._codegen``).  SPEC is a JSON
file naming the pass and its inputs; the pass writes what it measured
to OUT.  The cache directory comes from ``REPRO_CACHE_DIR``, which the
caller points at a private directory.
"""

import contextlib
import json
import os
import threading
import time

import spans


def main(argv):
    spec_path, out_path = argv
    with open(spec_path) as handle:
        spec = json.load(handle)
    result = PASSES[spec["pass"]](spec)
    with open(out_path, "w") as handle:
        json.dump(result, handle)
    return 0


# --------------------------------------------------------------------------
# Peak memory of this process and its pool children.

def _children(pid):
    """Child pids of every thread of *pid* (a pool may fork its workers
    from a thread other than the main one)."""
    children = []
    try:
        threads = os.listdir("/proc/%d/task" % pid)
    except OSError:
        return children
    for thread in threads:
        try:
            path = "/proc/%d/task/%s/children" % (pid, thread)
            with open(path) as handle:
                children.extend(int(child)
                                for child in handle.read().split())
        except OSError:
            pass
    return children


def _resident_kb(pid):
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


#: seconds between two samples of the process tree's resident memory
RSS_INTERVAL = 0.2


class PeakRss:
    """Peak resident memory of this process plus its descendants.

    Every :data:`RSS_INTERVAL` the resident sets of the whole process
    tree are summed; the peak is the largest sum seen.
    """

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        total = 0
        pending = [os.getpid()]
        while pending:
            pid = pending.pop()
            total += _resident_kb(pid)
            pending.extend(_children(pid))
        self.peak_kb = max(self.peak_kb, total)

    def _run(self):
        while not self._stop.wait(RSS_INTERVAL):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()
        self._sample()

    def mb(self):
        return self.peak_kb / 1024.0


# --------------------------------------------------------------------------
# Tracing: spans around the layers' public functions plus layer counts.

class Tracing:
    """Installs the span wrappers and the counting observers."""

    def __init__(self):
        self.recorder = spans.Recorder()
        self.counts = {}
        self.programs = set()
        observers = self.recorder.observers
        observers["translate_module"] = self._translated
        observers["generate_source"] = self._generated
        observers["run_program"] = self._emulated
        observers["form_superblocks"] = self._transformed
        observers["schedule_region"] = self._scheduled
        observers["verify_evaluation"] = self._verified
        observers["CacheStore.get"] = self._got
        observers["CacheStore.put"] = self._put
        observers["or_solutions"] = self._searched

    def _add(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def _translated(self, args, kwargs, program):
        from repro.benchmarks.suite import program_fingerprint
        self._add("translate.calls")
        self._add("translate.icis", len(program.instructions))
        self.programs.add(program_fingerprint(program))

    def _generated(self, args, kwargs, result):
        self._add("codegen.source_bytes", len(result[0]))

    def _emulated(self, args, kwargs, result):
        from repro.emulator import resolve_backend
        requested = kwargs.get("backend", args[2] if len(args) > 2
                               else None)
        self._add("emulator.runs")
        self._add("emulator.steps", result.steps)
        if result.backend != resolve_backend(requested):
            self._add("emulator.fallbacks")

    def _transformed(self, args, kwargs, result):
        self._add("superblock.regions", len(result.regions))
        self._add("superblock.ops",
                  sum(region.size for region in result.regions))

    def _scheduled(self, args, kwargs, result):
        self._add("schedule.ops", len(args[0]))

    def _verified(self, args, kwargs, diagnostics):
        self._add("verify.findings", len(diagnostics))

    def _got(self, args, kwargs, payload):
        self._add("cache.gets")
        if payload is not None:
            self._add("cache.hits")

    def _put(self, args, kwargs, result):
        store, key = args[0], args[1]
        try:
            self._add("cache.bytes_written",
                      os.path.getsize(store.path(key)))
        except OSError:
            pass

    def _searched(self, args, kwargs, result):
        self._add("orparallel.queries")

    def __enter__(self):
        from repro.observability import tracing
        self._uninstall = spans.install(self.recorder)
        self._activation = tracing.activation(seed=0)
        self.tracer = self._activation.__enter__()
        return self

    def __exit__(self, *exc_info):
        self._activation.__exit__(*exc_info)
        self._uninstall()

    def request(self, name):
        """A benchmark span that starts a new request id."""
        recorder = self.recorder

        @contextlib.contextmanager
        def scope():
            span = recorder.open(name, "bench", new_request=True)
            try:
                yield
            finally:
                recorder.close(span)
        return scope()

    def summary(self, spans_path):
        span_records = self.recorder.to_json()
        with open(spans_path, "w") as handle:
            for record in span_records:
                handle.write(json.dumps(record) + "\n")
        metrics = self.tracer.metrics
        counts = dict(self.counts)
        for name in ("codegen.cache.hits", "codegen.cache.misses",
                     "orparallel.splits"):
            counts[name] = metrics.count(name)
        counts["programs"] = len(self.programs)
        return {"layers": spans.layer_self_times(span_records),
                "counts": counts, "spans": len(span_records)}


def _no_request(name):
    return contextlib.nullcontext()


def _engine_counts(report, error=None):
    """Task counts of an engine's report; *error* is the
    ``EvaluationError`` the pass caught, if any."""
    statuses = report.counts()
    failed = statuses["failed"]
    if error is not None:
        failed = max(failed, len(error.failures))
    return {"tasks": len(report.records), "cached": statuses["cached"],
            "retries": sum(max(0, record["attempts"] - 1)
                           for record in report.records.values()),
            "failed": failed}


def _cache_mb():
    total = 0
    for directory, _dirs, files in os.walk(os.environ["REPRO_CACHE_DIR"]):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    return total / 1e6


def _traced(spec):
    return Tracing() if spec.get("trace") else contextlib.nullcontext()


# --------------------------------------------------------------------------
# Set-up: a fresh interpreter until the workload could start measuring.

def warmup(spec):
    """Import what the passes use, byte-compiling it, and report the
    active emulator backend.  Untimed."""
    import repro.evaluation.pipeline        # noqa: F401
    import repro.serve.service              # noqa: F401
    from repro.emulator import resolve_backend
    return {"backend": resolve_backend(None)}


def setup_suite(spec):
    from repro.evaluation.parallel import configure
    from repro.experiments import data
    configure(jobs=spec["jobs"])
    data.master_configs()
    return {}


def setup_serve(spec):
    from repro.serve.service import ServiceConfig, ServiceThread
    with ServiceThread(ServiceConfig(jobs=1)) as thread:
        status = _get(thread.port, "/healthz")[0]
    return {"status": status}


# --------------------------------------------------------------------------
# suite: the 14 Table-1 programs under all 11 master configs.

def suite(spec):
    """A pass's ``texts`` are None when a cell failed for good; the
    engine counts say how many."""
    from repro import experiments
    from repro.evaluation.parallel import (
        EvaluationError, configure, shared_engine)
    tracing = _traced(spec)
    error = None
    with PeakRss() as rss, tracing:
        started = time.perf_counter()
        try:
            if spec.get("trace"):
                configure(jobs=spec["jobs"])
                texts = {}
                for name, module in experiments.ALL_EXPERIMENTS.items():
                    with tracing.request("render:" + name):
                        texts[name] = module.render()
            else:
                texts = experiments.run_all(jobs=spec["jobs"])
        except EvaluationError as caught:
            texts, error = None, caught
        wall = time.perf_counter() - started
        engine = shared_engine()
        engine.close()
    result = {"wall": wall, "texts": texts, "peak_rss_mb": rss.mb(),
              "cache_mb": _cache_mb(),
              "engine": _engine_counts(engine.report, error)}
    if spec.get("trace"):
        result["trace"] = tracing.summary(spec["spans"])
    return result


def suite_check(spec):
    """Each suite program's compiled output against the interpreter,
    and with *checker* the checker's findings under every master
    config (``findings`` is None without).  The profiles and schedules
    come from the cache of the passes before.

    On a 2-CPU x86 container the interpreter takes about 7 s of the
    pass (6 s of it ``tak``) and the checker about 5 s.  The untraced
    runs check the outputs only; the traced run also runs the checker,
    so that its layer is measured.
    """
    from repro.benchmarks.suite import (
        TABLE_BENCHMARKS, compile_benchmark, interpret_benchmark,
        run_program_cached)
    from repro.evaluation import pipeline
    from repro.experiments.data import master_configs
    configs = master_configs()
    tracing = _traced(spec)
    request = tracing.request if spec.get("trace") else _no_request
    pairs = {}
    findings = {} if spec.get("checker") else None
    with tracing:
        started = time.perf_counter()
        for name in TABLE_BENCHMARKS:
            with request("check:" + name):
                program = compile_benchmark(name)
                result = run_program_cached(program, name + "-")
                pairs[name] = {
                    "compiled": [result.succeeded, result.output],
                    "interpreted": list(interpret_benchmark(name))}
                if findings is not None:
                    # looked up at call time, where tracing wrapped it
                    findings[name] = len(pipeline.verify_evaluation(
                        program, result, configs, cache_hint=name + "-"))
        wall = time.perf_counter() - started
    result = {"wall": wall, "pairs": pairs, "findings": findings,
              "engine": {"tasks": 0, "cached": 0, "retries": 0,
                         "failed": 0}}
    if spec.get("trace"):
        result["trace"] = tracing.summary(spec["spans"])
    return result


# --------------------------------------------------------------------------
# serve-mixed: an in-process service under a closed loop of clients.

def _get(port, path):
    import http.client
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _closed_loop(port, sequence, clients):
    """Send *sequence* from *clients* keep-alive connections, each
    sending its next request only after the previous one completed."""
    import http.client
    lock = threading.Lock()
    cursor = iter(range(len(sequence)))
    raw = [None] * len(sequence)

    def client():
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=600)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                template = sequence[index]
                body = json.dumps(template["body"])
                started = time.perf_counter()
                try:
                    connection.request(
                        "POST", "/v1/" + template["op"], body,
                        {"Content-Type": "application/json"})
                    response = connection.getresponse()
                    data = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    connection.close()
                    status, data = 0, b""
                raw[index] = (status, time.perf_counter() - started,
                              data.decode("utf-8"))
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, raw


def request_key(template):
    """A request's identity: the canonical JSON of its parsed spec, as
    ``reference_results`` keys its references."""
    from repro.serve.ops import canonical_json, parse_request
    return canonical_json(parse_request(template["op"],
                                        dict(template["body"]))[0])


def _responses(sequence, raw):
    from repro.serve.ops import canonical_json
    responses = []
    for template, (status, latency, data) in zip(sequence, raw):
        response = {"key": request_key(template), "status": status,
                    "latency": latency, "result": None, "cached": None}
        if status == 200:
            payload = json.loads(data)
            response["result"] = canonical_json(payload["result"])
            response["cached"] = payload["meta"]["cached"]
        responses.append(response)
    return responses


def clients(spec):
    """The client side of a serve pass, in its own interpreter so the
    clients do not compete with the service for its interpreter lock."""
    wall, raw = _closed_loop(spec["port"], spec["sequence"],
                             spec["clients"])
    return {"wall": wall, "raw": raw}


def _drive(spec, port, name):
    """Run the sequence from a client interpreter; (wall, raw)."""
    import subprocess
    import sys
    spec_path = os.path.join(spec["work"], name + ".spec.json")
    out_path = os.path.join(spec["work"], name + ".out.json")
    with open(spec_path, "w") as handle:
        json.dump({"pass": "clients", "port": port,
                   "sequence": spec["sequence"],
                   "clients": spec["clients"]}, handle)
    subprocess.run(
        [sys.executable, "-c",
         "import sys, passes; sys.exit(passes.main(sys.argv[1:]))",
         spec_path, out_path], check=True, timeout=150)
    with open(out_path) as handle:
        result = json.load(handle)
    return result["wall"], result["raw"]


def serve(spec):
    from repro.serve.service import ServiceConfig, ServiceThread
    sequence = spec["sequence"]
    tracing = _traced(spec)
    with PeakRss() as rss, tracing:
        with ServiceThread(ServiceConfig(jobs=1)) as thread:
            mixed_wall, mixed = _drive(spec, thread.port, "mixed")
            replays = [_drive(spec, thread.port, "replay-%d" % number)
                       for number in range(spec["replays"])]
            _, metrics = _get(thread.port, "/metrics")
            report = thread.service.engine.report
    result = {"wall": mixed_wall,
              "warm_walls": [wall for wall, _raw in replays],
              "mixed": _responses(sequence, mixed),
              "warm": [response for _wall, raw in replays
                       for response in _responses(sequence, raw)],
              "counters": metrics["counters"], "peak_rss_mb": rss.mb(),
              "cache_mb": _cache_mb(), "engine": _engine_counts(report)}
    if spec.get("trace"):
        result["trace"] = tracing.summary(spec["spans"])
    return result


def serve_reference(spec):
    """References for the templates from the load test's own
    single-shot ``reference_results``, keyed by :func:`request_key`.

    Each template is computed on its own, so ``seconds`` times one
    direct ``compute_result`` per key.  With *fill* each result is
    also stored under the key the service's ``memoised("serve", ...)``
    looks up, which makes it a warm hit for the service.
    """
    from repro.evaluation.cache import open_store
    from repro.evaluation.parallel import code_version
    from repro.serve.loadtest import reference_results
    from repro.serve.ops import parse_request
    cache = os.environ["REPRO_CACHE_DIR"]
    store = open_store()
    references = {}
    seconds = {}
    for template in spec["templates"]:
        started = time.perf_counter()
        (key, text), = reference_results([template], cache).items()
        seconds[key] = time.perf_counter() - started
        references[key] = text
        if spec.get("fill"):
            # Stored after computing, not through memoised(): computing
            # an ``analyze`` result under the serve key's lock slot can
            # block on a second lock object for the same slot file (see
            # README.md).
            parsed, _deadline = parse_request(template["op"],
                                              dict(template["body"]))
            store.put(store.key("serve", {
                "request": parsed, "code": code_version("serve")}),
                json.loads(text))
    return {"references": references, "seconds": seconds}


PASSES = {
    "setup-suite": setup_suite,
    "setup-serve-mixed": setup_serve,
    "suite": suite,
    "suite-check": suite_check,
    "serve-mixed": serve,
    "clients": clients,
    "serve-reference": serve_reference,
    "warmup": warmup,
}
