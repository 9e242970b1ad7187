"""Chaos suite: injected faults at every registered site must not
change the numbers.

Every scenario arms :mod:`repro.testing.faults` at one (or many) of
the registered sites, runs ``evaluate_many`` under a test-tuned
:class:`SupervisorPolicy`, and asserts three things:

* the evaluation data is **identical** to a fault-free golden run;
* after a confirming fault-free warm pass, the cache artefacts are
  **byte-identical** to the golden run's;
* the :class:`EvaluationReport` *records* the recovery (retries, pool
  restarts, degradation) — resilience must be observable, not silent.

The fire ordinals are deterministic (fuse files under
``REPRO_FAULT_STATE``), and the supervisor's backoff jitter is seeded,
so this suite is reproducible; ``REPRO_CHAOS_SEED`` (CI pins 1992)
selects the jitter stream.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.atomicio import FileLock
from repro.compaction import sequential, vliw
from repro.evaluation import parallel
from repro.evaluation.cache import CacheStore
from repro.evaluation.parallel import EvaluationEngine
from repro.evaluation.supervisor import SupervisorPolicy
from repro.testing import faults
from tests.conftest import fresh_memos

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1992"))

BENCH = "conc30"


def _request():
    return {"name": BENCH,
            "configs": {"seq": (sequential(), "bb"),
                        "vliw3": (vliw(3), "trace")}}


def _policy(**overrides):
    values = dict(max_attempts=4, deadline=30.0, backoff_base=0.01,
                  backoff_cap=0.05, seed=SEED, max_pool_restarts=2,
                  poll=0.02)
    values.update(overrides)
    return SupervisorPolicy(**values)


#: the evaluation DAG's artefact kinds.  The ``emulation`` entries a
#: profile task looks up on its way are only rewritten when a profile
#: is recomputed, so a warm confirming pass cannot restore one a fault
#: destroyed: those are checked for integrity (``ALL_KINDS``), not
#: byte-compared against golden.
DAG_KINDS = ("cas-profile-", "cas-regions-", "cas-cell-")
ALL_KINDS = ("cas-",)


def _artefacts(root, kinds=DAG_KINDS):
    """{filename: bytes} of the *kinds* artefacts in *root*."""
    return {name: open(os.path.join(str(root), name), "rb").read()
            for name in sorted(os.listdir(str(root)))
            if name.startswith(kinds) and name.endswith(".json")}


def _evaluate(cache_root, jobs, policy):
    store = CacheStore(root=str(cache_root))
    with EvaluationEngine(jobs=jobs, store=store,
                          policy=policy) as engine:
        data = engine.evaluate_many([_request()])[0].data
        return data, engine.report, store


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """Fault-free evaluation: the numbers and artefact bytes every
    chaos scenario must reproduce exactly."""
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(root))
        patch.delenv(faults.ENV_SPEC, raising=False)
        patch.delenv(faults.ENV_STATE, raising=False)
        fresh_memos(patch)
        data, report, _ = _evaluate(root, jobs=1, policy=_policy())
    assert report.counts()["failed"] == 0
    return {"data": data, "artefacts": _artefacts(root)}


@pytest.fixture
def hermetic(monkeypatch):
    """Fresh per-process memos so no scenario inherits another's state."""
    fresh_memos(monkeypatch)


def _chaos(monkeypatch, tmp_path, spec, jobs=1, policy=None,
           warm_first=False):
    """Run the sweep with *spec* armed; returns (data, report, store,
    cache_root)."""
    cache = tmp_path / "cache"
    cache.mkdir(exist_ok=True)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    if warm_first:
        _evaluate(cache, jobs=1, policy=_policy())
    monkeypatch.setenv(faults.ENV_SPEC, spec)
    monkeypatch.setenv(faults.ENV_STATE, str(tmp_path / "fault-state"))
    try:
        data, report, store = _evaluate(cache, jobs,
                                        policy or _policy())
    finally:
        monkeypatch.delenv(faults.ENV_SPEC)
        monkeypatch.delenv(faults.ENV_STATE)
    return data, report, store, cache


def _confirm(cache, golden):
    """A fault-free warm pass over *cache* must serve golden bytes."""
    data, report, store = _evaluate(cache, jobs=1, policy=_policy())
    assert data == golden["data"]
    assert _artefacts(cache) == golden["artefacts"]
    return store


# --------------------------------------------------------------------------
# One scenario per fault kind/site.

def test_transient_task_errors_are_retried(monkeypatch, tmp_path,
                                           hermetic, golden):
    data, report, _, cache = _chaos(
        monkeypatch, tmp_path, "parallel.task=error:2", jobs=2)
    assert data == golden["data"]
    counts = report.counts()
    assert counts["retried"] >= 1 and counts["failed"] == 0
    _confirm(cache, golden)


def test_sigkilled_worker_is_survived(monkeypatch, tmp_path, hermetic,
                                      golden):
    """The crash kind is a literal ``kill -9`` of the worker process
    mid-task; the pool is resurrected and the sweep completes."""
    data, report, _, cache = _chaos(
        monkeypatch, tmp_path, "parallel.task=crash:1", jobs=2)
    assert data == golden["data"]
    assert report.pool_restarts >= 1
    assert report.counts()["failed"] == 0
    # Exactly one fuse fired: the kill count is deterministic.
    state = tmp_path / "fault-state"
    assert len(os.listdir(str(state))) == 1
    # The cache directory survived the kill in a cleanly readable
    # state: no torn artefacts, no stale lock.
    assert not [name for name in os.listdir(str(cache))
                if name.endswith(".tmp")]
    with FileLock(str(cache / ".lock"), timeout=1.0):
        pass
    _confirm(cache, golden)


def test_hung_worker_is_reaped_by_the_watchdog(monkeypatch, tmp_path,
                                               hermetic, golden):
    """A task sleeping far past its deadline is detected, its pool is
    killed, and the retry produces golden numbers."""
    data, report, _, cache = _chaos(
        monkeypatch, tmp_path, "parallel.task=hang:1:20", jobs=2,
        policy=_policy(deadline=1.0))
    assert data == golden["data"]
    counts = report.counts()
    assert report.pool_restarts >= 1
    assert counts["retried"] >= 1 and counts["failed"] == 0
    _confirm(cache, golden)


def test_cache_corruption_is_recomputed(monkeypatch, tmp_path,
                                        hermetic, golden):
    data, report, store, cache = _chaos(
        monkeypatch, tmp_path, "cache.read=corrupt:1", warm_first=True)
    assert data == golden["data"]
    assert store.corrupt == 1
    # The corrupted entry was repaired in place: bytes match golden
    # again without a confirming pass.
    assert _artefacts(cache) == golden["artefacts"]
    _confirm(cache, golden)


def test_torn_write_never_leaves_a_bad_artefact(monkeypatch, tmp_path,
                                                hermetic, golden):
    """A write 'crashed' between temp file and publish leaves no
    destination file at all — a later run recomputes it cleanly."""
    data, _, _, cache = _chaos(
        monkeypatch, tmp_path, "cache.write=torn:1")
    assert data == golden["data"]
    # Every artefact that was published parses and passes its checksum.
    store = CacheStore(root=str(cache))
    for name, content in _artefacts(cache, ALL_KINDS).items():
        entry = json.loads(content)
        assert store.get(entry["key"]) == entry["payload"]
    _confirm(cache, golden)


def test_emulator_step_limit_fault_is_retried(monkeypatch, tmp_path,
                                              hermetic, golden):
    data, report, _, cache = _chaos(
        monkeypatch, tmp_path, "emulator.run=step-limit:1")
    assert data == golden["data"]
    assert report.counts()["retried"] >= 1
    _confirm(cache, golden)


def test_pipeline_stage_faults_are_retried(monkeypatch, tmp_path,
                                           hermetic, golden):
    data, report, _, cache = _chaos(
        monkeypatch, tmp_path,
        "pipeline.superblock=error:1,pipeline.cycles=error:1")
    assert data == golden["data"]
    assert report.counts()["retried"] >= 2
    _confirm(cache, golden)


def test_crash_loop_degrades_to_serial_and_completes(
        monkeypatch, tmp_path, hermetic, golden):
    """Past the pool-restart budget the supervisor stops forking and
    finishes in-process; the numbers still match golden."""
    data, report, _, cache = _chaos(
        monkeypatch, tmp_path, "parallel.task=crash:3", jobs=2,
        policy=_policy(max_pool_restarts=1))
    assert data == golden["data"]
    assert report.degraded
    assert report.counts()["failed"] == 0
    assert report.counts()["degraded"] >= 1
    _confirm(cache, golden)


def test_every_site_at_once(monkeypatch, tmp_path, hermetic, golden):
    """The acceptance scenario: faults armed at every registered site
    across a cold pooled run and a warm corrupted run; both converge
    to golden bytes and the report shows the recoveries."""
    cold_spec = ",".join([
        "parallel.task=crash:1",
        "parallel.task=error:1",
        "pipeline.superblock=error:1",
        "pipeline.cycles=error:1",
        "emulator.run=step-limit:1",
        "cache.write=torn:1",
    ])
    data, report, _, cache = _chaos(
        monkeypatch, tmp_path, cold_spec, jobs=2)
    assert data == golden["data"]
    counts = report.counts()
    assert counts["failed"] == 0
    assert counts["retried"] >= 1
    assert report.pool_restarts >= 1

    # Warm phase: read-side corruption and a transient read error on
    # the surviving artefacts.
    warm_data, warm_report, warm_store, _ = _chaos(
        monkeypatch, tmp_path, "cache.read=corrupt:1,cache.read=error:1")
    assert warm_data == golden["data"]
    assert warm_store.corrupt == 1
    _confirm(cache, golden)


def test_exhausted_retries_still_fail_loudly(monkeypatch, tmp_path,
                                             hermetic, golden):
    """Resilience must not shade into silent wrongness: more faults
    than attempts fails the cell and names it."""
    with pytest.raises(parallel.EvaluationError) as caught:
        _chaos(monkeypatch, tmp_path, "parallel.task=error:20",
               policy=_policy(max_attempts=2))
    assert "injected transient fault" in str(caught.value)


# --------------------------------------------------------------------------
# SIGINT of the whole CLI (cooperative cancellation, exit code 130).

def _cli_env(tmp_path):
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cli-cache")
    return env


def test_cli_sigint_exits_130_and_leaves_cache_clean(tmp_path):
    env = _cli_env(tmp_path)
    # A 60s hang guarantees the run is still in flight when the signal
    # lands (the fuse file makes the hang fire exactly once).
    env[faults.ENV_SPEC] = "parallel.task=hang:1:60"
    env[faults.ENV_STATE] = str(tmp_path / "state")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "evaluate", "--jobs", "2",
         "--bench", BENCH],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    time.sleep(4.0)
    process.send_signal(signal.SIGINT)
    try:
        _, errors = process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        raise
    assert process.returncode == 130, errors
    assert "interrupted" in errors
    # CPython's process-pool atexit hook can race the post-SIGINT
    # teardown and dump an "Exception ignored in: ..." traceback on
    # stderr after repro's exit path has finished; that noise belongs
    # to the interpreter, not repro, so only repro's own line is
    # pinned here.
    own = [line for line in errors.strip().splitlines()
           if line and not line.startswith(
               (" ", "Exception ignored", "Traceback", "OSError"))]
    assert len(own) == 1, errors

    cache = tmp_path / "cli-cache"
    leftovers = [name for name in os.listdir(str(cache))
                 if name.endswith(".tmp")]
    assert not leftovers
    # The advisory lock died with the process.
    with FileLock(str(cache / ".lock"), timeout=1.0):
        pass
    # A fresh, fault-free run reads the partial cache cleanly.
    env.pop(faults.ENV_SPEC)
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "evaluate", "--jobs", "1",
         "--bench", BENCH],
        env=env, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert BENCH in completed.stdout


# --------------------------------------------------------------------------
# Or-parallel search under fire: stolen branches are killed, hung and
# failed, and the reassembled answers stay byte-identical to the clean
# sequential oracle (``orparallel.task`` fires before a branch does any
# work, so every recovery is a full branch retry).

#: four pure branches, enough stolen tasks for multi-shot fault specs
ORP_SOURCE = """
color(red). color(green). color(blue). color(white).
pair(X, Y) :- color(X), color(Y).
"""

ORP_GOAL = "pair(X, Y)"


def _orparallel_chaos(monkeypatch, tmp_path, spec, policy=None):
    """Run the or-parallel query with *spec* armed; (result, report)."""
    from repro.interp.orparallel import or_solutions
    monkeypatch.setenv(faults.ENV_SPEC, spec)
    monkeypatch.setenv(faults.ENV_STATE, str(tmp_path / "fault-state"))
    store = CacheStore(root=str(tmp_path / "orp-cache"))
    try:
        with EvaluationEngine(jobs=2, store=store,
                              policy=policy or _policy()) as engine:
            result = or_solutions(ORP_SOURCE, ORP_GOAL, engine=engine,
                                  use_memo=False)
            report = engine.report
    finally:
        monkeypatch.delenv(faults.ENV_SPEC)
        monkeypatch.delenv(faults.ENV_STATE)
    return result, report


@pytest.fixture(scope="module")
def orparallel_golden():
    """The clean sequential answer stream every faulted run must
    reproduce byte for byte."""
    from repro.interp.orparallel import sequential_answers
    return sequential_answers(ORP_SOURCE, ORP_GOAL)


def _assert_identical(result, golden):
    assert result["mode"] == "parallel"
    assert result["answers"] == golden["answers"]
    assert result["output"] == golden["output"]
    assert result["count"] == golden["count"]


def test_orparallel_branch_errors_are_retried(monkeypatch, tmp_path,
                                              hermetic,
                                              orparallel_golden):
    result, report = _orparallel_chaos(
        monkeypatch, tmp_path, "orparallel.task=error:2")
    _assert_identical(result, orparallel_golden)
    counts = report.counts()
    assert counts["retried"] >= 1 and counts["failed"] == 0


def test_orparallel_sigkilled_branch_is_survived(monkeypatch, tmp_path,
                                                 hermetic,
                                                 orparallel_golden):
    result, report = _orparallel_chaos(
        monkeypatch, tmp_path, "orparallel.task=crash:1")
    _assert_identical(result, orparallel_golden)
    assert report.pool_restarts >= 1
    assert report.counts()["failed"] == 0
    # Exactly one fuse fired: the kill ordinal is deterministic.
    assert len(os.listdir(str(tmp_path / "fault-state"))) == 1


def test_orparallel_hung_branch_is_reaped(monkeypatch, tmp_path,
                                          hermetic, orparallel_golden):
    result, report = _orparallel_chaos(
        monkeypatch, tmp_path, "orparallel.task=hang:1:20",
        policy=_policy(deadline=1.0))
    _assert_identical(result, orparallel_golden)
    counts = report.counts()
    assert report.pool_restarts >= 1
    assert counts["retried"] >= 1 and counts["failed"] == 0


def test_orparallel_exhausted_retries_fail_loudly(monkeypatch,
                                                  tmp_path, hermetic):
    with pytest.raises(parallel.EvaluationError) as caught:
        _orparallel_chaos(monkeypatch, tmp_path,
                          "orparallel.task=error:20",
                          policy=_policy(max_attempts=2))
    assert "injected transient fault" in str(caught.value)
