"""The evaluation service: request validation, admission, execution.

Drives a real :class:`ServiceThread` over HTTP (loopback) and pins the
robustness surface end to end: health/readiness, per-op results
byte-identical to direct computation, whole-request memoisation,
structured 4xx/5xx error mapping, deadline enforcement, queue-full
load shedding with ``Retry-After``, the circuit breaker state machine
(unit-tested with a fake clock), and graceful drain.
"""

import http.client
import json
import os
import shutil
import tempfile
import threading
import time

import pytest

from repro.evaluation.cache import CacheStore
from repro.evaluation.parallel import EvaluationEngine
from repro.serve import CircuitBreaker, ServiceConfig, ServiceThread
from repro.serve.ops import (
    canonical_json, compute_result, parse_request, request_label)
from repro.testing import faults

BENCH = "divide10"


def request(port, method, path, body=None, timeout=180):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        data = None if body is None else json.dumps(body)
        connection.request(method, path, body=data)
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, payload, dict(response.getheaders())
    finally:
        connection.close()


@pytest.fixture(scope="module")
def server():
    patcher = pytest.MonkeyPatch()
    tmp = tempfile.mkdtemp(prefix="repro-serve-test-")
    patcher.setenv("REPRO_CACHE_DIR", os.path.join(tmp, "suite"))
    patcher.delenv(faults.ENV_SPEC, raising=False)
    patcher.delenv(faults.ENV_STATE, raising=False)
    config = ServiceConfig(jobs=1, seed=7,
                           cache_root=os.path.join(tmp, "cas"),
                           queue_limit=16)
    try:
        with ServiceThread(config) as thread:
            yield thread
    finally:
        patcher.undo()
        shutil.rmtree(tmp, ignore_errors=True)


# --------------------------------------------------------------------------
# Health and readiness.

def test_healthz_reports_ok(server):
    status, payload, _ = request(server.port, "GET", "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["draining"] is False
    assert payload["uptime_s"] >= 0


def test_readyz_reports_queue_and_cache_state(server):
    status, payload, _ = request(server.port, "GET", "/readyz")
    assert status == 200
    assert payload["ready"] is True
    assert payload["queue_limit"] == 16
    assert "cache" in payload and "supervisor" in payload


# --------------------------------------------------------------------------
# Operations: served results must be byte-identical to direct
# computation, and repeats must come from the result cache.

def test_compile_evaluate_match_direct_computation(server, tmp_path):
    engine = EvaluationEngine(jobs=1,
                              store=CacheStore(str(tmp_path / "ref")))
    try:
        for op in ("compile", "evaluate"):
            body = {"benchmark": BENCH, "configs": ["seq"]}
            spec, _ = parse_request(op, body)
            expected = canonical_json(compute_result(spec, engine))
            status, payload, _ = request(server.port, "POST",
                                         "/v1/" + op, body)
            assert status == 200, payload
            assert payload["ok"] is True
            assert canonical_json(payload["result"]) == expected
    finally:
        engine.close()


def test_repeat_request_is_served_from_cache(server):
    body = {"benchmark": BENCH, "configs": ["seq"]}
    first = request(server.port, "POST", "/v1/evaluate", body)
    second = request(server.port, "POST", "/v1/evaluate", body)
    assert first[0] == second[0] == 200
    assert second[1]["meta"]["cached"] is True
    assert canonical_json(first[1]["result"]) \
        == canonical_json(second[1]["result"])


def test_spelling_variants_share_one_cache_entry(server):
    # Sorted/de-duplicated configs hash identically however spelt.
    noisy = {"benchmark": BENCH, "configs": ["seq", "seq"]}
    status, payload, _ = request(server.port, "POST", "/v1/evaluate",
                                 noisy)
    assert status == 200
    assert payload["meta"]["cached"] is True


# --------------------------------------------------------------------------
# The query op: or-parallel goal enumeration over HTTP.

def test_query_answers_match_the_sequential_oracle(server):
    from repro.benchmarks.suite import resolve_program
    from repro.interp.orparallel import sequential_answers
    status, payload, _ = request(server.port, "POST", "/v1/query",
                                 {"benchmark": BENCH})
    assert status == 200, payload
    result = payload["result"]
    oracle = sequential_answers(resolve_program(BENCH).source, "main",
                                limit=64)
    assert result["answers"] == oracle["answers"]
    assert result["output"] == oracle["output"]
    assert result["count"] == oracle["count"]
    assert result["truncated"] == oracle["truncated"]


def test_query_results_are_byte_identical_across_or_jobs(server):
    """``or_jobs`` shapes execution, never the payload: no provenance
    field may leak into the result."""
    results = {}
    for or_jobs in (1, 4):
        status, payload, _ = request(
            server.port, "POST", "/v1/query",
            {"benchmark": BENCH, "or_jobs": or_jobs})
        assert status == 200, payload
        results[or_jobs] = canonical_json(payload["result"])
        assert "mode" not in payload["result"]
        assert "branches" not in payload["result"]
    assert results[1] == results[4]


def test_repeat_query_is_served_from_cache(server):
    body = {"benchmark": BENCH, "goal": "main", "limit": 8}
    first = request(server.port, "POST", "/v1/query", body)
    second = request(server.port, "POST", "/v1/query", body)
    assert first[0] == second[0] == 200
    assert second[1]["meta"]["cached"] is True
    assert canonical_json(first[1]["result"]) \
        == canonical_json(second[1]["result"])


@pytest.mark.parametrize("body,fragment", [
    ({"benchmark": BENCH, "goal": "  "}, "'goal' must be"),
    ({"benchmark": BENCH, "limit": 0}, "'limit' must be"),
    ({"benchmark": BENCH, "limit": True}, "'limit' must be"),
    ({"benchmark": BENCH, "or_jobs": 0}, "'or_jobs' must be"),
    ({"benchmark": BENCH, "configs": ["seq"]}, "unknown request field"),
], ids=["goal", "limit", "bool-limit", "or-jobs", "configs"])
def test_invalid_query_requests_are_400(server, body, fragment):
    status, payload, _ = request(server.port, "POST", "/v1/query",
                                 body)
    assert status == 400
    assert fragment in payload["error"]


# --------------------------------------------------------------------------
# Error mapping.

@pytest.mark.parametrize("body,fragment", [
    ({"benchmark": "no-such-benchmark"}, "unknown benchmark"),
    ({"benchmark": BENCH, "configs": ["warp9"]},
     "unknown machine configuration"),
    ({"benchmark": BENCH, "configs": []}, "non-empty list"),
    ({"benchmark": BENCH, "tail_dup_budget": -1}, "non-negative"),
    ({"benchmark": BENCH, "deadline": 0}, "positive number"),
    ({"benchmark": BENCH, "frobnicate": 1}, "unknown request field"),
    ({}, "'benchmark' must be"),
], ids=["benchmark", "config", "empty-configs", "budget", "deadline",
        "field", "missing"])
def test_invalid_requests_are_400(server, body, fragment):
    status, payload, _ = request(server.port, "POST", "/v1/evaluate",
                                 body)
    assert status == 400
    assert payload["ok"] is False
    assert fragment in payload["error"]


def test_malformed_json_body_is_400(server):
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=60)
    try:
        connection.request("POST", "/v1/evaluate", body="{nope")
        response = connection.getresponse()
        payload = json.loads(response.read().decode())
    finally:
        connection.close()
    assert response.status == 400
    assert "invalid JSON" in payload["error"]


def test_unknown_paths_and_methods(server):
    assert request(server.port, "GET", "/nope")[0] == 404
    assert request(server.port, "POST", "/v1/transmogrify",
                   {"benchmark": BENCH})[0] == 404
    assert request(server.port, "GET", "/v1/evaluate")[0] == 405
    assert request(server.port, "POST", "/healthz", {})[0] == 405


def test_failed_sweep_is_answered_without_another_sweep(tmp_path,
                                                        monkeypatch):
    # The supervisor has already run each failed cell max_attempts (3)
    # times, so every cell evaluation fires the armed fault.  One sweep
    # leaves 3 fuse files; retrying the sweep in the service left 9.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    fuses = tmp_path / "fuses"
    config = ServiceConfig(jobs=1, cache_root=str(tmp_path / "cas"))
    with faults.injected("pipeline.cycles=error:1000", str(fuses)):
        with ServiceThread(config) as thread:
            status, payload, _ = request(
                thread.port, "POST", "/v1/evaluate",
                {"benchmark": BENCH, "configs": ["seq"]})
            metrics = request(thread.port, "GET", "/metrics")[1]
    assert status == 500, payload
    assert "pipeline.cycles" in payload["error"]
    assert payload["meta"]["attempts"] == 1
    assert len(os.listdir(fuses)) == 3
    assert "serve.retries" not in metrics["counters"]


def test_goal_that_does_not_parse_is_400_and_never_runs(tmp_path,
                                                        monkeypatch):
    # A goal the reader rejects can never succeed: it is refused when
    # the request is parsed, not retried on the executor thread.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    config = ServiceConfig(jobs=1, cache_root=str(tmp_path / "cas"))
    with ServiceThread(config) as thread:
        status, payload, _ = request(
            thread.port, "POST", "/v1/query",
            {"benchmark": "conc30", "goal": "foo("})
        metrics = request(thread.port, "GET", "/metrics")[1]
    assert status == 400, payload
    assert "'goal' does not parse" in payload["error"]
    counters = metrics["counters"]
    assert counters["serve.rejected.invalid"] == 1
    assert counters.get("serve.retries", 0) == 0
    assert "serve.failed" not in counters


def test_expired_deadline_is_504(server):
    body = {"benchmark": BENCH, "configs": ["seq"],
            "deadline": 1e-9}
    status, payload, _ = request(server.port, "POST", "/v1/evaluate",
                                 body)
    assert status == 504
    assert "deadline" in payload["error"]


def test_metrics_endpoint_exposes_counters(server):
    status, payload, _ = request(server.port, "GET", "/metrics")
    assert status == 200
    assert payload["counters"]["serve.ok"] >= 1
    assert payload["counters"]["serve.cache_hits"] >= 1
    assert "supervisor" in payload


# --------------------------------------------------------------------------
# Load shedding: a full admission queue answers 429 + Retry-After.

def test_queue_full_sheds_with_retry_after(tmp_path):
    config = ServiceConfig(jobs=1, queue_limit=1, retry_after=0.5,
                           cache_root=str(tmp_path / "cas"))
    statuses = []
    lock = threading.Lock()
    with faults.injected("serve.request=hang:1:1.5"):
        with ServiceThread(config) as thread:
            body = {"benchmark": BENCH, "configs": ["seq"]}

            def post():
                outcome = request(thread.port, "POST", "/v1/compile",
                                  body)
                with lock:
                    statuses.append(outcome)

            # First request occupies the executor (hang fault sleeps
            # inside it); one of the flood waits behind it, the other
            # five overflow the queue of 1.
            leader = threading.Thread(target=post)
            leader.start()
            time.sleep(0.4)
            flood = [threading.Thread(target=post) for _ in range(6)]
            for worker in flood:
                worker.start()
            for worker in [leader] + flood:
                worker.join(timeout=120)
    shed = [outcome for outcome in statuses if outcome[0] == 429]
    served = [outcome for outcome in statuses if outcome[0] == 200]
    assert len(shed) == 5, statuses
    assert len(served) == 2, statuses
    for _, payload, headers in shed:
        assert payload["error"] == "admission queue full"
        assert headers.get("Retry-After") == "0.5"


# --------------------------------------------------------------------------
# Graceful drain.

def test_drain_stops_listener_and_joins(tmp_path):
    config = ServiceConfig(jobs=1, cache_root=str(tmp_path / "cas"))
    thread = ServiceThread(config)
    with thread:
        port = thread.port
        assert request(port, "GET", "/healthz")[0] == 200
        thread.stop(timeout=120)
        assert not thread._thread.is_alive()
    with pytest.raises(OSError):
        request(port, "GET", "/healthz", timeout=5)


def _drain_behind_a_hanging_request(tmp_path, drain_grace):
    """Stop a service while one request hangs (1.5 s) in the executor
    and one waits behind it; returns the two clients' outcomes and
    how many requests started executing (one fuse file each)."""
    fuses = tmp_path / "fuses"
    config = ServiceConfig(jobs=1, drain_grace=drain_grace,
                           cache_root=str(tmp_path / "cas"))
    outcomes = []
    lock = threading.Lock()
    with faults.injected("serve.request=hang:2:1.5", str(fuses)):
        thread = ServiceThread(config)
        with thread:
            body = {"benchmark": BENCH, "configs": ["seq"]}

            def post():
                try:
                    outcome = request(thread.port, "POST",
                                      "/v1/compile", body)[0]
                except (OSError, http.client.HTTPException) as error:
                    outcome = type(error).__name__
                with lock:
                    outcomes.append(outcome)

            clients = [threading.Thread(target=post) for _ in range(2)]
            clients[0].start()
            time.sleep(0.4)                 # the first one hangs inside
            clients[1].start()
            for _ in range(100):
                ready = request(thread.port, "GET", "/readyz")[1]
                if ready["inflight"] == 2:
                    break
                time.sleep(0.01)
            assert ready["inflight"] == 2 and ready["queue_depth"] == 1
            thread.stop(timeout=120)
            assert not thread._thread.is_alive()
            for client in clients:
                client.join(timeout=120)
                assert not client.is_alive()
    return outcomes, len(os.listdir(fuses))


def test_drain_answers_the_executing_and_the_waiting_request(tmp_path):
    outcomes, started = _drain_behind_a_hanging_request(tmp_path, 60.0)
    assert outcomes == [200, 200]
    assert started == 2


def test_drain_starts_nothing_after_the_grace_period(tmp_path):
    # The waiting request is cancelled when the grace runs out, while
    # the first still hangs; the connections close unanswered.
    outcomes, started = _drain_behind_a_hanging_request(tmp_path, 0.2)
    assert 200 not in outcomes, outcomes
    assert started == 1


# --------------------------------------------------------------------------
# A cold analyze request shares the service's store: on an empty cache
# it once blocked on its own cache lock and never answered.

def test_cold_analyze_on_an_empty_cache_answers(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    with ServiceThread(ServiceConfig(jobs=1)) as thread:
        status, payload, _ = request(thread.port, "POST", "/v1/analyze",
                                     {"benchmark": "mu"}, timeout=120)
    assert status == 200, payload
    assert payload["meta"]["cached"] is False


# --------------------------------------------------------------------------
# Circuit breaker state machine (fake clock; no service needed).

class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_breaker_opens_at_threshold_and_recovers():
    clock = _Clock()
    breaker = CircuitBreaker(threshold=2, cooldown=10.0, clock=clock)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == "closed" and breaker.allow()
    breaker.record_failure()
    assert breaker.state == "open"
    assert breaker.trips == 1
    assert not breaker.allow()              # still cooling down
    clock.now = 10.0
    assert breaker.allow()                  # the half-open probe
    assert breaker.state == "half-open"
    assert not breaker.allow()              # exactly one probe
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.failures == 0
    assert breaker.allow()


def test_breaker_failed_probe_reopens():
    clock = _Clock()
    breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
    breaker.record_failure()
    assert breaker.state == "open"
    clock.now = 5.0
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == "open"
    assert breaker.trips == 2               # every open transition counts
    clock.now = 9.0
    assert not breaker.allow()              # cooldown restarted
    assert breaker.snapshot() == {"state": "open", "failures": 2,
                                  "trips": 2}


def test_breaker_multi_count_failure_trips_in_one_call():
    breaker = CircuitBreaker(threshold=3, cooldown=1.0, clock=_Clock())
    breaker.record_failure(3)
    assert breaker.state == "open"


# --------------------------------------------------------------------------
# Request canonicalisation (pure functions).

def test_parse_request_sorts_and_deduplicates_configs():
    spec, deadline = parse_request("evaluate", {
        "benchmark": BENCH, "configs": ["vliw3", "seq", "vliw3"],
        "deadline": 30})
    assert spec["configs"] == ["seq", "vliw3"]
    assert spec["tail_dup_budget"] == 48
    assert deadline == 30.0
    assert request_label(spec) == "serve/evaluate/%s" % BENCH


def test_canonical_json_is_stable_across_transport_roundtrip():
    # Int dict keys become strings in transit; the canonical encoding
    # must agree with its own round-tripped self (ordering included).
    value = {"blocks": {1: "a", 10: "b", 2: "c"}}
    encoded = canonical_json(value)
    assert canonical_json(json.loads(encoded)) == encoded
    assert encoded.index('"1"') < encoded.index('"10"') \
        < encoded.index('"2"')


# --------------------------------------------------------------------------
# Load-test scaffolding (pure pieces; the full run is chaos-marked).

def test_mixed_templates_cover_every_op_per_benchmark():
    from repro.serve.loadtest import mixed_templates
    templates = mixed_templates(("conc30",), ("seq",))
    assert [t["op"] for t in templates] \
        == ["compile", "evaluate", "verify", "analyze"]
    assert all(t["body"] == {"benchmark": "conc30",
                             "configs": ["seq"]} for t in templates)


def test_percentiles_pick_rank_from_sorted_values():
    from repro.serve.loadtest import _percentile
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert _percentile(values, 0.5) == 3.0
    assert _percentile(values, 0.99) == 5.0
    assert _percentile([], 0.5) == 0.0


def test_published_serve_bench_document_validates():
    from repro.serve.loadtest import validate_serve_bench
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "results", "BENCH_serve.json")
    document = json.load(open(path))
    assert validate_serve_bench(document) == []
    assert document["wrong_answers"] == 0
    assert document["requests"] >= 2000
    assert document["warm_hit_rate"] >= 0.9


def test_validate_serve_bench_reads_the_server_section():
    from repro.serve.loadtest import validate_serve_bench
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "results", "BENCH_serve.json")
    document = json.load(open(path))
    assert document["server"]["breaker"]["state"] == "closed"
    for tamper in (
            lambda server: server["breaker"].update(state="ajar"),
            lambda server: server.pop("breaker"),
            lambda server: server.update(
                breakers={"codegen": server["breaker"]}),
            lambda server: server["cache"].update(shards=8)):
        broken = json.loads(json.dumps(document))
        tamper(broken["server"])
        problems = validate_serve_bench(broken)
        assert len(problems) == 1 and "server" in problems[0], problems


def test_validate_serve_bench_rejects_wrong_answers():
    from repro.serve.loadtest import validate_serve_bench
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "results", "BENCH_serve.json")
    document = json.load(open(path))
    document["wrong_answers"] = 1
    problems = validate_serve_bench(document)
    assert any("wrong" in problem for problem in problems)
    assert validate_serve_bench({"schema": 99}) != []
