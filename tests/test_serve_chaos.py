"""Chaos suite for the evaluation service.

The acceptance bar of the serving layer, pinned as tests:

* a load test of thousands of concurrent mixed requests returns
  **zero wrong answers** — every response byte-identical to the
  single-shot reference computation — and a warm hit rate over 90%
  on the repeated-query workload;
* the same holds with ``serve.request`` and ``cache.read`` faults
  armed (transient failures retry, corruption quarantines and heals);
* SIGTERM during load drains in-flight requests and exits 0;
* SIGKILL of a pool worker mid-request trips the circuit breaker and
  the next request is still answered, degraded, by the in-process
  fallback engine.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.evaluation.cache import CacheStore
from repro.evaluation.parallel import EvaluationEngine
from repro.records import publish
from repro.serve import ServiceConfig, ServiceThread
from repro.serve.loadtest import (
    run_load_test, validate_serve_bench)
from repro.serve.ops import (
    canonical_json, compute_result, parse_request)
from repro.testing import faults

pytestmark = pytest.mark.chaos

BENCH = "divide10"


def _post(port, op, body, timeout=300):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        connection.request("POST", "/v1/" + op, body=json.dumps(body))
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        connection.close()


@pytest.fixture
def clean_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_SPEC, raising=False)
    monkeypatch.delenv(faults.ENV_STATE, raising=False)


# --------------------------------------------------------------------------
# The load test: thousands of concurrent mixed requests, zero wrong
# answers, >90% warm hit rate.

@pytest.mark.slow
def test_load_test_2000_requests_byte_identical(clean_faults,
                                                tmp_path):
    document = run_load_test(requests=2000, concurrency=64, jobs=2)
    problems = validate_serve_bench(document)
    assert problems == [], problems
    assert document["wrong_answers"] == 0, document["wrong_detail"]
    assert document["requests"] == 2000
    assert document["outcomes"]["ok"] >= 1
    assert document["outcomes"]["failed"] == 0
    assert document["outcomes"]["unreachable"] == 0
    assert document["warm_hit_rate"] >= 0.9
    path = str(tmp_path / "BENCH_serve.json")
    assert publish(document, path, validate_serve_bench) == []
    assert validate_serve_bench(json.load(open(path))) == []


def test_load_test_under_faults_stays_correct(clean_faults,
                                              monkeypatch, tmp_path):
    monkeypatch.setenv(
        faults.ENV_SPEC,
        "serve.request=error:3,serve.request=shed:2,"
        "cache.read=corrupt:2,cache.read=error:1")
    monkeypatch.setenv(faults.ENV_STATE, str(tmp_path / "fuses"))
    document = run_load_test(requests=200, concurrency=32, jobs=2)
    problems = validate_serve_bench(document)
    assert problems == [], problems
    assert document["wrong_answers"] == 0, document["wrong_detail"]
    assert document["faults"] == os.environ[faults.ENV_SPEC]
    counters = document["server"]["counters"]
    # The armed transient errors were retried server-side, and the
    # injected corruption was quarantined — none reached a client as
    # a wrong answer.
    assert counters.get("serve.retries", 0) >= 1
    assert document["server"]["cache"]["quarantined"] >= 1


def test_pooled_load_test_never_waits_out_the_client_timeout(
        clean_faults, monkeypatch):
    """The pool forks while the first wave's client sockets are open,
    so the workers hold copies of them; the service half-closes each
    connection, and a client reading to EOF gets its answer instead of
    waiting out its timeout and retrying."""
    import functools
    from repro.serve import loadtest

    monkeypatch.setattr(loadtest, "_http_json",
                        functools.partial(loadtest._http_json,
                                          timeout=5.0))
    document = run_load_test(requests=64, concurrency=16, jobs=2)
    assert document["wrong_answers"] == 0, document["wrong_detail"]
    assert document["responses"]["retried"] == 0
    assert document["outcomes"]["ok"] == 64


# --------------------------------------------------------------------------
# SIGTERM during load: graceful drain, exit 0.

def test_sigterm_during_inflight_request_drains_and_exits_zero(
        clean_faults, tmp_path):
    state = tmp_path / "fuses"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    # The in-flight request hangs 2s server-side, so SIGTERM lands
    # while it is executing; the drain must still answer it.
    env[faults.ENV_SPEC] = "serve.request=hang:1:2"
    env[faults.ENV_STATE] = str(state)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "1",
         "--cache-dir", str(tmp_path / "cas")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)
    try:
        line = process.stdout.readline()
        assert "listening on http://" in line, line
        port = int(line.rsplit(":", 1)[1].split()[0])
        outcome = {}

        def post():
            outcome["response"] = _post(
                port, "compile", {"benchmark": BENCH})

        client = threading.Thread(target=post)
        client.start()
        time.sleep(0.5)                    # request is now in flight
        process.send_signal(signal.SIGTERM)
        client.join(timeout=120)
        stdout, _ = process.communicate(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, stdout
    assert "drained after 1 request(s)" in stdout
    status, payload = outcome["response"]
    assert status == 200 and payload["ok"] is True


# --------------------------------------------------------------------------
# SIGKILL of a pool worker: breaker trips, service degrades, answers
# stay byte-identical.

def test_worker_sigkill_trips_breaker_and_degrades(clean_faults,
                                                   tmp_path):
    config = ServiceConfig(jobs=2, breaker_threshold=1,
                           breaker_cooldown=3600.0, pool_restarts=2,
                           cache_root=str(tmp_path / "cas"))
    with faults.injected("parallel.task=crash:1",
                         str(tmp_path / "fuses")):
        with ServiceThread(config) as thread:
            first = {"benchmark": BENCH, "configs": ["seq"]}
            status, payload = _post(thread.port, "evaluate", first)
            # The killed worker was restarted and the answer computed;
            # the pool death was recorded against the breaker.
            assert status == 200, payload
            assert payload["ok"] is True
            second = {"benchmark": BENCH, "configs": ["seq"],
                      "tail_dup_budget": 32}     # distinct cache key
            status, degraded = _post(thread.port, "evaluate", second)
            assert status == 200, degraded
            assert degraded["meta"]["degraded"] is True
            connection = http.client.HTTPConnection(
                "127.0.0.1", thread.port, timeout=60)
            try:
                connection.request("GET", "/metrics")
                metrics = json.loads(
                    connection.getresponse().read().decode())
            finally:
                connection.close()
    assert metrics["breaker"]["state"] == "open", metrics
    assert metrics["counters"]["serve.degraded"] >= 1
    # The degraded answer is byte-identical to a clean computation.
    engine = EvaluationEngine(jobs=1,
                              store=CacheStore(str(tmp_path / "ref")))
    try:
        spec, _ = parse_request("evaluate", second)
        expected = canonical_json(compute_result(spec, engine))
    finally:
        engine.close()
    assert canonical_json(degraded["result"]) == expected
