"""Unit tests of the resilience layer itself: backoff determinism,
report semantics, pool teardown and cooperative signal handling.

The end-to-end behaviour (faults injected into real sweeps) lives in
``test_chaos.py``; this file pins the supervisor's building blocks.
"""

import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.evaluation import parallel
from repro.evaluation.parallel import EvaluationEngine
from repro.evaluation.supervisor import (
    EvaluationReport, SupervisorPolicy, _cooperative_signals, kill_pool)

pytestmark = pytest.mark.chaos


# --------------------------------------------------------------------------
# Backoff: exponential, capped, deterministically jittered.

def test_backoff_is_deterministic_across_policies():
    first = SupervisorPolicy(seed=1992)
    second = SupervisorPolicy(seed=1992)
    for attempt in (1, 2, 3, 7):
        assert first.backoff("conc30/cell/vliw3", attempt) \
            == second.backoff("conc30/cell/vliw3", attempt)


def test_backoff_depends_on_seed_label_and_attempt():
    policy = SupervisorPolicy(seed=1992)
    other_seed = SupervisorPolicy(seed=7)
    label = "conc30/cell/vliw3"
    assert policy.backoff(label, 1) != other_seed.backoff(label, 1)
    assert policy.backoff(label, 1) != policy.backoff("divide10/x", 1)
    assert policy.backoff(label, 1) != policy.backoff(label, 2)


def test_backoff_grows_exponentially_and_respects_the_cap():
    policy = SupervisorPolicy(backoff_base=0.1, backoff_cap=0.8, seed=3)
    label = "a/b"
    for attempt in range(1, 12):
        delay = policy.backoff(label, attempt)
        base = min(0.8, 0.1 * (2 ** (attempt - 1)))
        # Jitter is bounded: [0.5, 1.5] x the capped exponential base.
        assert 0.5 * base <= delay <= 1.5 * base


def test_policy_clamps_degenerate_parameters():
    policy = SupervisorPolicy(max_attempts=0, max_pool_restarts=-4)
    assert policy.max_attempts == 1
    assert policy.max_pool_restarts == 0


# --------------------------------------------------------------------------
# The report.

def test_report_counts_and_summary():
    report = EvaluationReport()
    report.record("a", "bench/profile", "ok")
    report.record("b", "bench/regions/bb", "cached", attempts=0)
    report.record("c", "bench/cell/seq", "retried", attempts=3,
                  seconds=1.25)
    assert report.counts()["ok"] == 1
    assert report.counts()["retried"] == 1
    assert report.by_status("cached") == ["bench/regions/bb"]
    text = report.summary()
    assert "3 task(s)" in text and "1 retried" in text
    assert "pool restart" not in text and "degraded" not in text


def test_report_rejects_unknown_status():
    with pytest.raises(ValueError):
        EvaluationReport().record("a", "x", "exploded")


def test_later_cache_hit_does_not_mask_a_computed_outcome():
    """Engines outlive one sweep; a node retried in sweep 1 and served
    from cache in sweep 2 keeps its informative 'retried' record."""
    report = EvaluationReport()
    report.record("a", "bench/profile", "retried", attempts=2)
    report.record("a", "bench/profile", "cached", attempts=0)
    assert report.records["a"]["status"] == "retried"
    # ...but a genuinely new outcome does replace the record.
    report.record("a", "bench/profile", "failed", attempts=3)
    assert report.records["a"]["status"] == "failed"


def test_report_json_shape():
    report = EvaluationReport()
    report.record("b", "two", "failed", attempts=3,
                  detail="RuntimeError: boom")
    report.record("a", "one", "ok")
    report.pool_restarts = 2
    report.degraded = True
    document = report.to_json()
    # Tasks sorted by id; run-level fields carried through.
    assert [task["label"] for task in document["tasks"]] == ["one", "two"]
    assert document["summary"]["failed"] == 1
    assert document["pool_restarts"] == 2
    assert document["degraded"] is True
    assert document["interrupted"] is None
    assert document["tasks"][1]["detail"] == "RuntimeError: boom"


def test_summary_mentions_restarts_degradation_and_interruption():
    report = EvaluationReport()
    report.pool_restarts = 1
    report.degraded = True
    report.interrupted = "SIGINT"
    text = report.summary()
    assert "1 pool restart(s)" in text
    assert "degraded to in-process execution" in text
    assert "interrupted by SIGINT" in text


# --------------------------------------------------------------------------
# Pool teardown and signal handling.

def _sleep_forever(unused):     # module-level: picklable
    time.sleep(600)


def test_kill_pool_reaps_a_hung_worker_quickly():
    pool = ProcessPoolExecutor(max_workers=1)
    future = pool.submit(_sleep_forever, None)
    deadline = time.monotonic() + 10.0
    while not pool._processes and time.monotonic() < deadline:
        time.sleep(0.02)
    processes = list(pool._processes.values())
    started = time.monotonic()
    kill_pool(pool)
    # The executor's own thread reaps the worker and fails its future.
    # join() returns at once when that thread reaps first (our waitpid
    # then fails with ECHILD), so wait for both on one 10 s bound.
    while (any(process.is_alive() for process in processes)
           or not future.done()) and time.monotonic() - started < 10.0:
        time.sleep(0.01)
    for process in processes:
        assert not process.is_alive()
    # Teardown is immediate — no waiting out the 600s sleep.
    assert time.monotonic() - started < 10.0
    assert future.done() or future.cancelled()


def test_cooperative_signals_catch_and_restore():
    previous = signal.getsignal(signal.SIGINT)
    with _cooperative_signals() as signals:
        assert signals.received is None
        os.kill(os.getpid(), signal.SIGINT)
        deadline = time.monotonic() + 5.0
        while signals.received is None \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert signals.received == "SIGINT"
    assert signal.getsignal(signal.SIGINT) is previous


# --------------------------------------------------------------------------
# The supervised map sweep (repro verify's execution path).

def _flaky_once(marker_path):   # module-level: picklable
    try:
        descriptor = os.open(marker_path, os.O_CREAT | os.O_EXCL)
    except FileExistsError:
        return "ok:" + os.path.basename(marker_path)
    os.close(descriptor)
    raise RuntimeError("first call fails by design")


def test_map_retries_transient_failures(tmp_path):
    policy = SupervisorPolicy(max_attempts=2, backoff_base=0.01,
                              backoff_cap=0.05, seed=1992, poll=0.02)
    items = [str(tmp_path / name) for name in ("a", "b")]
    with EvaluationEngine(jobs=2, policy=policy) as engine:
        results = engine.map(_flaky_once, items)
        report = engine.report
    assert results == ["ok:a", "ok:b"]
    counts = report.counts()
    assert counts["retried"] == 2 and counts["failed"] == 0


def test_map_surfaces_exhausted_items(tmp_path):
    policy = SupervisorPolicy(max_attempts=1, backoff_base=0.01,
                              backoff_cap=0.05, seed=1992, poll=0.02)
    items = [str(tmp_path / name) for name in ("a", "b")]
    with EvaluationEngine(jobs=2, policy=policy) as engine:
        with pytest.raises(parallel.EvaluationError) as caught:
            engine.map(_flaky_once, items)
    assert "first call fails by design" in str(caught.value)


def _nap(seconds):              # module-level: picklable
    time.sleep(seconds)
    return seconds


def test_map_deadline_counts_from_when_a_task_gets_a_worker():
    # Eight 0.4 s tasks on two workers: the last two wait 1.2 s in the
    # pool's queue and finish 1.6 s after submission, past the 1.5 s
    # deadline, though each runs 0.4 s.  The wait is not theirs.
    policy = SupervisorPolicy(deadline=1.5, max_attempts=1)
    with EvaluationEngine(jobs=2, policy=policy) as engine:
        results = engine.map(_nap, [0.4] * 8)
        report = engine.report
    assert results == [0.4] * 8
    assert report.counts()["failed"] == 0
    assert report.pool_restarts == 0
