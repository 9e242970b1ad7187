"""The service's in-process answer memo.

A repeat of a clean 200 is answered on the event loop from the memo,
without an executor job or a store read.  These tests pin it as a
differential check against the store path: for every op the memo's
response is byte for byte the one a store hit gives, and both match
the load test's single-shot references.  Only clean 200 answers fill
it, its cap evicts the least recently used entry, and a draining
service answers a memoised key with 503 like any other.
"""

import contextlib
import http.client
import json
import threading
import time

import pytest

from repro.serve import ServiceConfig, ServiceThread, service
from repro.serve.loadtest import reference_results
from repro.serve.ops import RequestError, canonical_json, parse_request
from repro.testing import faults

BENCH = "divide10"

CASES = [
    ("compile", {"benchmark": BENCH}),
    ("evaluate", {"benchmark": BENCH, "configs": ["seq"]}),
    ("verify", {"benchmark": BENCH, "configs": ["seq"]}),
    ("analyze", {"benchmark": BENCH}),
    ("query", {"benchmark": BENCH, "or_jobs": 1}),
    ("query", {"benchmark": BENCH, "or_jobs": 2}),
]


def _post(connection, op, body):
    """One exchange on *connection*; returns ``(status, body bytes)``."""
    connection.request("POST", "/v1/" + op, body=json.dumps(body))
    response = connection.getresponse()
    return response.status, response.read()


def _exchange(port, method, path, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=180)
    try:
        if method == "GET":
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        return _post(connection, path, body)
    finally:
        connection.close()


def _counters(thread):
    status, data = _exchange(thread.port, "GET", "/metrics")
    assert status == 200
    return json.loads(data)["counters"]


def _memo_hits(thread):
    return _counters(thread).get("serve.memo_hits", 0)


@pytest.fixture
def hermetic(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv(faults.ENV_SPEC, raising=False)
    monkeypatch.delenv(faults.ENV_STATE, raising=False)
    return tmp_path


def test_memo_answer_is_byte_identical_to_the_store_answer(hermetic):
    templates = [{"op": op, "body": body} for op, body in CASES]
    references = reference_results(templates, str(hermetic / "ref"))
    config = ServiceConfig(jobs=1, cache_root=str(hermetic / "cas"))
    # One service computes every answer into the store ...
    with ServiceThread(config) as thread:
        for template in templates:
            status, data = _exchange(thread.port, "POST",
                                     template["op"], template["body"])
            assert status == 200, data
    # ... and a second, its memo empty, reads each from the store once
    # and answers the repeat from its memo.
    with ServiceThread(config) as thread:
        for template in templates:
            before = _counters(thread)
            first = _exchange(thread.port, "POST", template["op"],
                              template["body"])
            middle = _counters(thread)
            second = _exchange(thread.port, "POST", template["op"],
                               template["body"])
            after = _counters(thread)
            assert middle.get("serve.memo_hits", 0) \
                == before.get("serve.memo_hits", 0), template
            assert after["serve.memo_hits"] \
                == middle.get("serve.memo_hits", 0) + 1, template
            for name in ("serve.requests", "serve.ok",
                         "serve.cache_hits"):
                assert after[name] == middle[name] + 1, (template, name)
            assert first[0] == second[0] == 200, template
            assert first[1] == second[1], template
            payload = json.loads(first[1])
            assert payload["meta"] == {"attempts": 1, "cached": True,
                                       "degraded": False}
            spec, _ = parse_request(template["op"], template["body"])
            assert canonical_json(payload["result"]) \
                == references[canonical_json(spec)], template


def _breaker_open(thread):
    breaker = thread.service.breaker
    breaker.cooldown = 3600.0
    breaker.record_failure(breaker.threshold)


def _compute_fails_once(monkeypatch, error):
    real = service.compute_result
    calls = []

    def compute(spec, engine):
        calls.append(spec)
        if len(calls) == 1:
            raise error
        return real(spec, engine)

    monkeypatch.setattr(service, "compute_result", compute)


@pytest.mark.parametrize("kind", [
    "degraded", "400", "429", "500", "504"])
def test_only_clean_200_answers_fill_the_memo(hermetic, monkeypatch,
                                              kind):
    config = ServiceConfig(jobs=1, max_attempts=1,
                           cache_root=str(hermetic / "cas"))
    body = {"benchmark": BENCH, "configs": ["seq"]}
    first_body = dict(body, deadline=1e-9) if kind == "504" else body
    expected = {"degraded": 200, "400": 400, "429": 429, "500": 500,
                "504": 504}[kind]
    if kind == "400":
        _compute_fails_once(monkeypatch, RequestError("refused"))
    elif kind == "500":
        _compute_fails_once(monkeypatch, RuntimeError("broken"))
    with faults.injected("serve.request=shed:1") if kind == "429" \
            else contextlib.nullcontext():
        with ServiceThread(config) as thread:
            if kind == "degraded":
                _breaker_open(thread)
            status, data = _exchange(thread.port, "POST", "evaluate",
                                     first_body)
            assert status == expected, data
            if kind == "degraded":
                assert json.loads(data)["meta"]["degraded"] is True
                thread.service.breaker.record_success()
            # The next identical request runs on the executor ...
            computed = _counters(thread)
            status, data = _exchange(thread.port, "POST", "evaluate",
                                     body)
            assert status == 200, data
            assert json.loads(data)["meta"]["degraded"] is False
            counters = _counters(thread)
            assert counters.get("serve.memo_hits", 0) == 0
            assert counters.get("serve.cache_hits", 0) \
                + counters.get("serve.computed", 0) \
                == computed.get("serve.cache_hits", 0) \
                + computed.get("serve.computed", 0) + 1
            # ... and its clean answer fills the memo.
            status, _ = _exchange(thread.port, "POST", "evaluate", body)
            assert status == 200
            assert _memo_hits(thread) == 1


def test_memo_cap_evicts_the_least_recently_used(hermetic, monkeypatch):
    monkeypatch.setattr(service, "MEMO_ENTRIES", 2)
    config = ServiceConfig(jobs=1, cache_root=str(hermetic / "cas"))
    bodies = {name: {"benchmark": BENCH, "tail_dup_budget": budget}
              for name, budget in (("a", 1), ("b", 2), ("c", 3))}

    def compile_(name):
        status, _ = _exchange(thread.port, "POST", "compile",
                              bodies[name])
        assert status == 200

    with ServiceThread(config) as thread:
        compile_("a")
        compile_("b")
        compile_("a")                       # a memo hit: a is recent
        assert _memo_hits(thread) == 1
        compile_("c")                       # evicts b, the oldest use
        assert len(thread.service._memo) == 2
        compile_("a")
        compile_("c")
        assert _memo_hits(thread) == 3
        compile_("b")                       # back on the executor
        assert _memo_hits(thread) == 3
        compile_("b")
        assert _memo_hits(thread) == 4


def test_draining_service_answers_a_memo_key_with_503(hermetic):
    config = ServiceConfig(jobs=1, cache_root=str(hermetic / "cas"))
    body = {"benchmark": BENCH}
    thread = ServiceThread(config)
    with thread:
        keep = http.client.HTTPConnection("127.0.0.1", thread.port,
                                          timeout=180)
        try:
            assert _post(keep, "compile", body)[0] == 200
            assert _post(keep, "compile", body)[0] == 200
            assert _memo_hits(thread) == 1
            # A hanging request holds the drain open; the kept-alive
            # connection then asks for the memoised key.
            answers = []
            with faults.injected("serve.request=hang:1:2",
                                 str(hermetic / "fuses")):
                hanging = threading.Thread(target=lambda: answers.append(
                    _exchange(thread.port, "POST", "compile",
                              {"benchmark": "conc30"})[0]))
                hanging.start()
                for _ in range(200):
                    if thread.service._inflight:
                        break
                    time.sleep(0.01)
                thread.service.drain_threadsafe()
                for _ in range(200):
                    keep.request("GET", "/readyz")
                    response = keep.getresponse()
                    response.read()
                    if response.status == 503:
                        break
                    time.sleep(0.01)
                assert response.status == 503
                status, data = _post(keep, "compile", body)
                assert status == 503
                assert json.loads(data)["error"] == "draining"
                hanging.join(timeout=120)
        finally:
            keep.close()
        thread.stop(timeout=120)
    assert answers == [200]
    assert thread.service.metrics.count("serve.memo_hits") == 1
