"""Concurrent load generation and ``BENCH_serve.json``.

The load test is the service's proof of correctness under pressure,
not just a latency probe.  It first computes **reference results** for
every distinct request template in a clean environment (fault
injection suspended, a private cache directory, an in-process engine)
— exactly what a single-shot CLI run would produce — then fires
thousands of concurrent mixed requests at a live service and asserts
every 200 response is **byte-identical** to its reference under
canonical JSON encoding.  Shedding (429) is retried by the client
honouring ``Retry-After``; a wrong answer is terminal.

The resulting ``serve-load`` record (:mod:`repro.records` header)
holds p50/p99 latency, warm-cache hit rate, shed/retried/degraded
counts and the server's own metrics; ``repro serve --load-test``
publishes it only when :func:`validate_serve_bench` passes, and
``results/BENCH_serve.json`` pins the committed run.
"""

import asyncio
import json
import os
import tempfile
import time
import urllib.parse

from repro.evaluation.cache import open_store
from repro.evaluation.parallel import EvaluationEngine
from repro.serve.ops import canonical_json, compute_result, parse_request
from repro.serve.service import ServiceConfig, ServiceThread
from repro.records import check_header, header, require
from repro.testing import faults

__all__ = [
    "SERVE_BENCH_SCHEMA",
    "mixed_templates",
    "run_load_test",
    "validate_serve_bench",
]

SERVE_BENCH_SCHEMA = 2

SERVE_BENCH_KIND = "serve-load"

#: the circuit breaker's states (``repro.serve.service.CircuitBreaker``)
BREAKER_STATES = ("closed", "open", "half-open")

DEFAULT_BENCHMARKS = ("conc30", "divide10")
DEFAULT_CONFIGS = ("seq", "vliw3")


def mixed_templates(benchmarks=DEFAULT_BENCHMARKS,
                    configs=DEFAULT_CONFIGS):
    """The distinct request templates of the mixed workload.

    Four operations per benchmark.  Small on purpose: a *repeated*
    query mix is the memoing access pattern the cache must
    turn into warm hits (the acceptance bar is a ≥ 90% warm rate).
    """
    templates = []
    for benchmark in benchmarks:
        for op in ("compile", "evaluate", "verify", "analyze"):
            templates.append({
                "op": op,
                "body": {"benchmark": benchmark,
                         "configs": list(configs)},
            })
    return templates


def reference_results(templates, cache_root):
    """Canonical result text per template, as single-shot CLI runs.

    Computed with fault injection suspended and a private cache so the
    references are what a clean, non-concurrent run produces.
    """
    saved = {}
    for name in (faults.ENV_SPEC, faults.ENV_STATE, "REPRO_CACHE_DIR"):
        saved[name] = os.environ.pop(name, None)
    os.environ["REPRO_CACHE_DIR"] = cache_root
    try:
        engine = EvaluationEngine(jobs=1, store=open_store(cache_root))
        references = {}
        for template in templates:
            spec, _ = parse_request(template["op"], template["body"])
            references[canonical_json(spec)] = canonical_json(
                compute_result(spec, engine))
        engine.close()
        return references
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


# --------------------------------------------------------------------------
# The asyncio client.

async def _http_json(host, port, method, path, body=None, timeout=60.0):
    """One HTTP exchange; returns ``(status, headers, payload)``."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=timeout)
    try:
        data = b""
        if body is not None:
            data = json.dumps(body).encode("utf-8")
        head = ("%s %s HTTP/1.1\r\nHost: %s\r\n"
                "Content-Length: %d\r\nConnection: close\r\n\r\n"
                % (method, path, host, len(data))).encode("latin-1")
        writer.write(head + data)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), timeout=timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            name, value = line.split(":", 1)
            headers[name.strip().lower()] = value.strip()
    try:
        payload = json.loads(body_blob.decode("utf-8"))
    except ValueError:
        payload = None
    return status, headers, payload


async def _drive(host, port, sequence, concurrency, deadline_s=300.0):
    """Fire *sequence* with bounded concurrency; returns records."""
    semaphore = asyncio.Semaphore(concurrency)
    overall = time.monotonic() + deadline_s

    async def one(index, template):
        async with semaphore:
            started = time.monotonic()
            retries = 0
            sheds = 0
            while True:
                try:
                    status, headers, payload = await _http_json(
                        host, port, "POST",
                        "/v1/%s" % template["op"], template["body"])
                except (OSError, asyncio.TimeoutError):
                    status, headers, payload = 0, {}, None
                if status == 429 and time.monotonic() < overall:
                    sheds += 1
                    retries += 1
                    try:
                        pause = float(headers.get("retry-after", "1"))
                    except ValueError:
                        pause = 1.0
                    await asyncio.sleep(min(pause, 2.0))
                    continue
                if status in (0, 500) and retries < 3 \
                        and time.monotonic() < overall:
                    retries += 1
                    await asyncio.sleep(0.1)
                    continue
                break
            return {
                "index": index,
                "op": template["op"],
                "benchmark": template["body"]["benchmark"],
                "status": status,
                "latency_s": time.monotonic() - started,
                "client_retries": retries,
                "client_sheds": sheds,
                "payload": payload,
            }

    return await asyncio.gather(*[
        one(index, template)
        for index, template in enumerate(sequence)])


def _percentile(values, fraction):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[index]


# --------------------------------------------------------------------------
# Document assembly and validation.

def _assemble(records, references, templates, server_metrics, extras):
    ok_records = [r for r in records if r["status"] == 200]
    latencies = [r["latency_s"] * 1000.0 for r in ok_records]
    wrong = []
    for record in records:
        if record["status"] != 200 or record["payload"] is None:
            continue
        template = templates[record["index"] % len(templates)]
        spec, _ = parse_request(template["op"], template["body"])
        expected = references[canonical_json(spec)]
        actual = canonical_json(record["payload"].get("result"))
        if actual != expected:
            wrong.append({"index": record["index"],
                          "op": record["op"],
                          "benchmark": record["benchmark"]})
    outcomes = {"ok": len(ok_records), "shed": 0, "failed": 0,
                "deadline": 0, "unreachable": 0}
    for record in records:
        if record["status"] == 429:
            outcomes["shed"] += 1
        elif record["status"] == 504:
            outcomes["deadline"] += 1
        elif record["status"] == 0:
            outcomes["unreachable"] += 1
        elif record["status"] not in (0, 200):
            outcomes["failed"] += 1
    degraded = sum(1 for r in ok_records
                   if (r["payload"] or {}).get("meta", {})
                   .get("degraded"))
    cached = sum(1 for r in ok_records
                 if (r["payload"] or {}).get("meta", {}).get("cached"))
    warm_hit_rate = None
    server_counters = {}
    if server_metrics:
        server_counters = server_metrics.get("counters", {})
        # A memo hit is the store hit it replaced: a warm lookup.
        cache = server_metrics.get("cache", {})
        warm = cache.get("hits", 0) \
            + server_counters.get("serve.memo_hits", 0)
        lookups = warm + cache.get("misses", 0)
        if lookups:
            warm_hit_rate = warm / lookups
    document = header(SERVE_BENCH_KIND, SERVE_BENCH_SCHEMA)
    document.update({
        "requests": len(records),
        "unique_requests": len(templates),
        "faults": os.environ.get(faults.ENV_SPEC),
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50), 3),
            "p99": round(_percentile(latencies, 0.99), 3),
            "mean": round(sum(latencies) / len(latencies), 3)
            if latencies else 0.0,
            "max": round(max(latencies), 3) if latencies else 0.0,
        },
        "outcomes": outcomes,
        "responses": {
            "degraded": degraded,
            "cached": cached,
            "retried": sum(r["client_retries"] for r in records),
            "sheds_seen": sum(r["client_sheds"] for r in records),
        },
        "server": {
            "counters": server_counters,
            "cache": (server_metrics or {}).get("cache", {}),
            "breaker": (server_metrics or {}).get("breaker", {}),
            "supervisor": (server_metrics or {}).get("supervisor", {}),
        },
        "warm_hit_rate": (None if warm_hit_rate is None
                          else round(warm_hit_rate, 4)),
        "wrong_answers": len(wrong),
        "wrong_detail": wrong[:20],
    })
    document.update(extras)
    return document


def validate_serve_bench(document):
    """Schema problems of a BENCH_serve.json document (empty = valid)."""
    problems = []
    if not check_header(document, SERVE_BENCH_KIND, SERVE_BENCH_SCHEMA,
                        problems):
        return problems
    for field in ("requests", "unique_requests", "concurrency",
                  "wrong_answers"):
        value = document.get(field)
        require(problems, isinstance(value, int)
                and not isinstance(value, bool) and value >= 0,
                "%s missing or not a non-negative int" % field)
    latency = document.get("latency_ms")
    if require(problems, isinstance(latency, dict), "latency_ms missing"):
        for field in ("p50", "p99", "mean", "max"):
            value = latency.get(field)
            require(problems, isinstance(value, (int, float))
                    and not isinstance(value, bool) and value >= 0,
                    "latency_ms.%s missing or negative" % field)
        if all(isinstance(latency.get(k), (int, float))
               for k in ("p50", "p99")):
            require(problems, latency["p50"] <= latency["p99"],
                    "latency p50 exceeds p99")
    outcomes = document.get("outcomes")
    if require(problems, isinstance(outcomes, dict), "outcomes missing"):
        for field in ("ok", "shed", "failed", "deadline"):
            value = outcomes.get(field)
            require(problems, isinstance(value, int)
                    and not isinstance(value, bool) and value >= 0,
                    "outcomes.%s missing or not an int" % field)
        require(problems, outcomes.get("ok", 0) >= 1,
                "no successful requests")
    responses = document.get("responses")
    if require(problems, isinstance(responses, dict),
               "responses missing"):
        for field in ("degraded", "cached", "retried", "sheds_seen"):
            value = responses.get(field)
            require(problems, isinstance(value, int)
                    and not isinstance(value, bool) and value >= 0,
                    "responses.%s missing or not an int" % field)
    server = document.get("server")
    if require(problems, isinstance(server, dict), "server missing"):
        breaker = server.get("breaker")
        require(problems, isinstance(breaker, dict)
                and breaker.get("state") in BREAKER_STATES,
                "server.breaker.state is not one of %s"
                % ", ".join(BREAKER_STATES))
        require(problems, "breakers" not in server,
                "server.breakers is the retired per-backend map")
        cache = server.get("cache")
        require(problems, isinstance(cache, dict)
                and "shards" not in cache,
                "server.cache is not an object without 'shards'")
    rate = document.get("warm_hit_rate")
    require(problems, rate is None or (isinstance(rate, (int, float))
                                       and 0.0 <= rate <= 1.0),
            "warm_hit_rate out of [0, 1]")
    require(problems, document.get("wrong_answers") == 0,
            "wrong_answers != 0 — service returned a payload that "
            "differs from the single-shot reference")
    seconds = document.get("seconds")
    require(problems, isinstance(seconds, (int, float))
            and not isinstance(seconds, bool) and seconds >= 0,
            "seconds missing or negative")
    return problems


# --------------------------------------------------------------------------
# The orchestrator.

def run_load_test(requests=2000, concurrency=64, jobs=2, url=None,
                  benchmarks=DEFAULT_BENCHMARKS,
                  configs=DEFAULT_CONFIGS, queue_limit=None,
                  progress=None):
    """Run the full load test; returns the bench document.

    Self-hosted by default: a :class:`ServiceThread` with *jobs* pool
    workers and a fresh cache serves the run, so cold-compute,
    warm-hit, shedding and drain behaviour are all exercised in one
    process tree.  Pass *url* to drive an externally started service
    instead (CI's smoke job does both).  *queue_limit* defaults to
    :class:`ServiceConfig`'s, the one ``repro serve`` uses.
    """
    templates = mixed_templates(benchmarks, configs)
    sequence = [templates[index % len(templates)]
                for index in range(requests)]

    def note(text):
        if progress is not None:
            progress(text)

    with tempfile.TemporaryDirectory(prefix="repro-serve-ref-") \
            as reference_root:
        note("computing %d reference result(s) (faults suspended)"
             % len(templates))
        references = reference_results(templates, reference_root)

    started = time.monotonic()
    if url:
        parsed = urllib.parse.urlsplit(url)
        host = parsed.hostname or "127.0.0.1"
        port = parsed.port or 80
        note("driving %d request(s) at %s (concurrency %d)"
             % (requests, url, concurrency))
        records, server_metrics = asyncio.run(
            _drive_and_snapshot(host, port, sequence, concurrency))
        extras = {"concurrency": concurrency, "jobs": None,
                  "url": url, "benchmarks": list(benchmarks),
                  "seconds": round(time.monotonic() - started, 3)}
        return _assemble(records, references, templates,
                         server_metrics, extras)

    with tempfile.TemporaryDirectory(prefix="repro-serve-cache-") \
            as cache_root:
        saved_cache = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = cache_root
        try:
            limit = {} if queue_limit is None \
                else {"queue_limit": queue_limit}
            config = ServiceConfig(jobs=jobs, cache_root=cache_root,
                                   **limit)
            note("starting service: %d worker(s), queue limit %d"
                 % (jobs, config.queue_limit))
            with ServiceThread(config) as served:
                note("driving %d request(s) (concurrency %d)"
                     % (requests, concurrency))
                records, server_metrics = asyncio.run(
                    _drive_and_snapshot("127.0.0.1", served.port,
                                        sequence, concurrency))
        finally:
            if saved_cache is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = saved_cache
    extras = {"concurrency": concurrency, "jobs": jobs, "url": None,
              "benchmarks": list(benchmarks),
              "seconds": round(time.monotonic() - started, 3)}
    return _assemble(records, references, templates, server_metrics,
                     extras)


async def _drive_and_snapshot(host, port, sequence, concurrency):
    records = await _drive(host, port, sequence, concurrency)
    try:
        status, _, metrics = await _http_json(host, port, "GET",
                                              "/metrics")
        server_metrics = metrics if status == 200 else None
    except (OSError, asyncio.TimeoutError):
        server_metrics = None
    return records, server_metrics
