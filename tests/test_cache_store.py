"""The content-addressed cache store.

Pins the robustness contract of :mod:`repro.evaluation.cache`:
corruption quarantine, injected read faults, the
re-check-under-lock recovery path (a repaired entry must be served,
not deleted), size-budgeted LRU eviction, single-flight memoisation
(one compute per key under concurrency, races counted), and the
bounded put-lock wait that prevents cross-slot deadlock.
"""

import json
import os
import threading
import time

import pytest

from repro.evaluation.cache import CacheStore
from repro.evaluation import cache as cache_module
from repro.evaluation.parallel import memoised
from repro.testing import faults
from tests.conftest import fresh_memos


@pytest.fixture
def store(tmp_path):
    return CacheStore(str(tmp_path / "cache"))


# --------------------------------------------------------------------------
# Round trips.

def test_roundtrip_and_miss_counting(store):
    key = store.key("cell", {"a": 1})
    assert store.get(key) is None
    store.put(key, {"value": 41})
    assert store.get(key) == {"value": 41}
    assert store.stats() == {"hits": 1, "misses": 1, "corrupt": 0}


def test_key_is_sensitive_to_kind_and_components(store):
    base = store.key("cell", {"a": 1})
    assert store.key("profile", {"a": 1}) != base
    assert store.key("cell", {"a": 2}) != base
    assert store.key("cell", {"a": 1}) == base


# --------------------------------------------------------------------------
# Corruption: quarantine, and recovery under the lock.

def test_corrupt_entry_is_a_miss_then_recomputable(store):
    key = store.key("cell", {"a": 1})
    store.put(key, {"value": 1})
    faults.corrupt_file(store.path(key))
    assert store.get(key) is None
    assert store.corrupt == 1
    assert not os.path.exists(store.path(key))
    store.put(key, {"value": 2})
    assert store.get(key) == {"value": 2}


def test_sharded_corrupt_entry_is_quarantined_not_unlinked(store):
    key = store.key("cell", {"a": 1})
    store.put(key, {"value": 1})
    faults.corrupt_file(store.path(key))
    assert store.get(key) is None
    assert store.quarantined == 1
    assert not os.path.exists(store.path(key))
    names = os.listdir(os.path.join(store.root, "quarantine"))
    assert names == [os.path.basename(store.path(key))]


def test_recovery_recheck_serves_entry_repaired_under_lock(
        store, monkeypatch):
    # A reader sees damage, but by the time it holds the lock a
    # concurrent writer has repaired the entry: the re-check must
    # serve the repaired payload and *not* delete the fresh entry.
    key = store.key("cell", {"a": 1})
    store.put(key, {"value": 99})
    real_read = CacheStore._read
    calls = []

    def flaky_read(self, path):
        calls.append(path)
        if len(calls) == 1:
            raise cache_module._CorruptEntry("simulated first read")
        return real_read(self, path)

    monkeypatch.setattr(CacheStore, "_read", flaky_read)
    assert store.get(key) == {"value": 99}
    assert len(calls) == 2                  # optimistic + under-lock
    assert store.corrupt == 0
    assert store.hits == 1
    assert os.path.exists(store.path(key))


def test_checksum_mismatch_detected_not_just_bad_json(store):
    key = store.key("cell", {"a": 1})
    store.put(key, {"value": 1})
    # Valid JSON, wrong checksum: the payload was tampered with.
    entry = json.load(open(store.path(key)))
    entry["payload"] = {"value": 666}
    with open(store.path(key), "w") as handle:
        json.dump(entry, handle)
    assert store.get(key) is None
    assert store.corrupt == 1


def test_cache_shard_fault_corrupts_then_heals(store):
    key = store.key("cell", {"a": 1})
    store.put(key, {"value": 7})
    with faults.injected("cache.read=corrupt:1"):
        assert store.get(key) is None     # injected damage -> miss
        store.put(key, {"value": 7})      # recompute heals
        assert store.get(key) == {"value": 7}
    assert store.quarantined == 1


def test_cache_shard_error_fault_reads_as_miss(store):
    key = store.key("cell", {"a": 1})
    store.put(key, {"value": 7})
    with faults.injected("cache.read=error:1"):
        assert store.get(key) is None     # transient read error -> miss
        assert store.get(key) == {"value": 7}   # next read is fine
    assert store.stats() == {"hits": 1, "misses": 1, "corrupt": 0}
    assert os.path.exists(store.path(key))


# --------------------------------------------------------------------------
# LRU eviction under a byte budget.

def test_gc_evicts_oldest_entries_down_to_budget(store):
    keys = [store.key("cell", {"n": n}) for n in range(6)]
    for n, key in enumerate(keys):
        store.put(key, {"n": n, "pad": "x" * 64})
    now = time.time()
    for age, key in enumerate(reversed(keys)):
        os.utime(store.path(key), (now - age * 60, now - age * 60))
    # keys[0] is now the oldest, keys[5] the freshest.
    sizes = {key: os.stat(store.path(key)).st_size for key in keys}
    budget = sum(sizes[key] for key in keys[2:])
    summary = store.gc(budget)
    assert summary["removed"] == 2
    assert summary["kept"] == 4
    assert summary["kept_bytes"] <= budget
    assert store.evictions == 2
    survivors = [key for key in keys
                 if os.path.exists(store.path(key))]
    assert survivors == keys[2:]


def test_gc_purges_quarantine_even_within_budget(store):
    key = store.key("cell", {"a": 1})
    store.put(key, {"value": 1})
    faults.corrupt_file(store.path(key))
    assert store.get(key) is None
    assert store.usage()["quarantined_files"] == 1
    summary = store.gc(10 ** 9)
    assert summary["removed"] == 1          # the quarantined file
    assert store.usage()["quarantined_files"] == 0
    assert store.evictions == 0           # purge is not an eviction


def test_hit_refreshes_mtime_so_lru_spares_hot_entries(store):
    hot = store.key("cell", {"hot": True})
    cold = store.key("cell", {"cold": True})
    store.put(hot, {"pad": "x" * 64})
    store.put(cold, {"pad": "y" * 64})
    stale = time.time() - 3600
    os.utime(store.path(hot), (stale, stale))
    os.utime(store.path(cold), (stale + 1, stale + 1))
    assert store.get(hot) is not None       # hit refreshes mtime
    budget = os.stat(store.path(hot)).st_size
    store.gc(budget)
    assert os.path.exists(store.path(hot))
    assert not os.path.exists(store.path(cold))


def test_usage_reports_entries_and_bytes(store):
    assert store.usage()["entries"] == 0
    assert store.usage()["kinds"] == {}
    for n in range(3):
        store.put(store.key("cell", {"n": n}), {"n": n})
    store.put(store.key("static_ilp", {"n": 0}), {"n": 0})
    usage = store.usage()
    assert usage["entries"] == 4
    assert usage["bytes"] > 0
    assert sorted(usage["kinds"]) == ["cell", "static_ilp"]
    assert usage["kinds"]["cell"]["entries"] == 3
    assert usage["kinds"]["static_ilp"]["entries"] == 1
    assert sum(kind["bytes"] for kind in usage["kinds"].values()) \
        == usage["bytes"]


# --------------------------------------------------------------------------
# Single-flight memoisation.

def test_memoised_computes_once_then_serves_cached(store):
    calls = []

    def compute():
        calls.append(1)
        return {"answer": 42}

    first = memoised("cell", {"q": 1}, compute, store=store)
    second = memoised("cell", {"q": 1}, compute, store=store)
    assert first == second == {"answer": 42}
    assert len(calls) == 1


def test_memoised_use_cache_false_always_recomputes(store):
    calls = []

    def compute():
        calls.append(1)
        return {"answer": len(calls)}

    memoised("cell", {"q": 1}, compute, store=store)
    fresh = memoised("cell", {"q": 1}, compute, store=store,
                     use_cache=False)
    assert fresh == {"answer": 2}
    assert len(calls) == 2


def test_memoised_single_flight_across_stores(tmp_path):
    # Two threads, two store objects (as two processes would have),
    # one key: exactly one compute runs; the loser of the lock race
    # serves the winner's result and counts a race.
    root = str(tmp_path / "cache")
    first, second = CacheStore(root), CacheStore(root)
    entered = threading.Event()
    release = threading.Event()
    calls = []
    results = {}

    def slow_compute():
        calls.append("slow")
        entered.set()
        assert release.wait(timeout=10.0)
        return {"answer": 42}

    def fast_compute():
        calls.append("fast")
        return {"answer": 42}

    def leader():
        results["leader"] = memoised(
            "cell", {"q": 1}, slow_compute, store=first)

    thread = threading.Thread(target=leader)
    thread.start()
    assert entered.wait(timeout=10.0)
    # The leader is inside compute, holding the key lock.  A follower
    # misses, then blocks on the lock; once the leader publishes, the
    # follower's second look finds the entry without computing.
    follower = threading.Thread(target=lambda: results.update(
        follower=memoised("cell", {"q": 1}, fast_compute,
                          store=second)))
    follower.start()
    time.sleep(0.2)                 # let the follower reach the lock
    release.set()
    thread.join(timeout=10.0)
    follower.join(timeout=10.0)
    assert results["leader"] == results["follower"] == {"answer": 42}
    assert calls == ["slow"]        # single flight: one compute total
    assert second.races == 1


def test_put_under_held_foreign_lock_counts_contention(tmp_path):
    # A different *object* holds the slot lock (as another process
    # would): put must note contention, wait, and still publish once
    # the lock frees.
    root = str(tmp_path / "cache")
    writer, blocker = CacheStore(root), CacheStore(root)
    key = writer.key("cell", {"a": 1})
    foreign = blocker.lock_for(key)
    foreign.acquire()

    def release_soon():
        time.sleep(0.3)
        foreign.release()

    thread = threading.Thread(target=release_soon)
    thread.start()
    writer.put(key, {"value": 1})
    thread.join()
    assert writer.contention == 1
    assert writer.get(key) == {"value": 1}


def test_put_lock_timeout_falls_back_to_unlocked_write(
        tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "PUT_LOCK_TIMEOUT", 0.2)
    root = str(tmp_path / "cache")
    writer, blocker = CacheStore(root), CacheStore(root)
    key = writer.key("cell", {"a": 1})
    blocker.lock_for(key).acquire()        # never released: wedged peer
    try:
        started = time.monotonic()
        writer.put(key, {"value": 1})      # must not deadlock
        assert time.monotonic() - started < 5.0
        assert writer.get(key) == {"value": 1}
        assert writer.contention == 1
    finally:
        blocker.lock_for(key).release()


def test_lock_for_returns_same_object_per_slot(store):
    key = store.key("cell", {"a": 1})
    assert store.lock_for(key) is store.lock_for(key)


def test_counters_superset_of_stats(store):
    store.get(store.key("cell", {"a": 1}))
    counters = store.counters()
    stats = store.stats()
    assert set(stats) == {"hits", "misses", "corrupt"}
    for name, value in stats.items():
        assert counters[name] == value
    for name in ("quarantined", "evictions", "races", "contention"):
        assert name in counters


# --------------------------------------------------------------------------
# The or-parallel answer-memo table: entries must survive a reopen,
# corruption must quarantine-and-recompute, and the store's per-kind
# counters must reconcile with the trace counters.

ORP_SOURCE = """
color(red). color(green). color(blue).
pair(X, Y) :- color(X), color(Y).
"""


def _memo_engine(store):
    from repro.evaluation.parallel import EvaluationEngine
    from repro.evaluation.supervisor import SupervisorPolicy
    return EvaluationEngine(
        jobs=2, store=store,
        policy=SupervisorPolicy(max_attempts=2, deadline=60.0,
                                backoff_base=0.01, backoff_cap=0.05,
                                seed=1992, poll=0.02))


def _memo_entries(root):
    """Every persisted cache entry under *root*."""
    return sorted(os.path.join(str(root), name)
                  for name in os.listdir(str(root))
                  if name.startswith("cas-") and name.endswith(".json"))


def test_orparallel_memo_roundtrips_through_the_store(tmp_path):
    from repro.interp.orparallel import or_solutions
    root = tmp_path / "memo"
    store = CacheStore(str(root))
    with _memo_engine(store) as engine:
        cold = or_solutions(ORP_SOURCE, "pair(X, Y)", engine=engine)
        assert cold["mode"] == "parallel"
        # one entry for the whole call, none per branch
        assert len(_memo_entries(root)) == 1
        # A second store over the same directory (a later process)
        # serves the same bytes without recomputing.
        reopened = CacheStore(str(root))
        warm = or_solutions(ORP_SOURCE, "pair(X, Y)", engine=engine,
                            store=reopened)
        assert warm["mode"] == "memo"
        assert warm["answers"] == cold["answers"]
        assert warm["output"] == cold["output"]


def test_corrupt_orparallel_memo_is_quarantined_and_recomputed(
        tmp_path):
    from repro.interp.orparallel import or_solutions, sequential_answers
    root = tmp_path / "memo"
    store = CacheStore(str(root))
    with _memo_engine(store) as engine:
        cold = or_solutions(ORP_SOURCE, "pair(X, Y)", engine=engine)
        for path in _memo_entries(root):
            faults.corrupt_file(path)
        recomputed = or_solutions(ORP_SOURCE, "pair(X, Y)",
                                  engine=engine)
    # The damaged entries were misses, not answers: the query fell
    # through to a fresh parallel run with the oracle's answers...
    assert recomputed["mode"] == "parallel"
    oracle = sequential_answers(ORP_SOURCE, "pair(X, Y)")
    assert recomputed["answers"] == oracle["answers"]
    assert recomputed["output"] == oracle["output"]
    assert recomputed["answers"] == cold["answers"]
    # ...every damaged entry was quarantined for post-mortem, and the
    # recomputed entries are readable again.
    assert store.corrupt >= 1
    assert store.quarantined >= 1
    assert os.listdir(os.path.join(store.root, "quarantine"))
    assert len(_memo_entries(root)) == 1


def test_orparallel_kind_stats_reconcile_with_trace_counters(
        tmp_path, traced_run):
    from repro.interp.orparallel import MEMO_KIND, or_solutions
    store = CacheStore(str(tmp_path / "memo"))
    with _memo_engine(store) as engine:
        or_solutions(ORP_SOURCE, "pair(X, Y)", engine=engine)
        or_solutions(ORP_SOURCE, "pair(X, Y)", engine=engine)
    counters = traced_run.metrics.counters
    stats = store.kind_stats(MEMO_KIND)
    # Call scope: one traced miss then one traced hit.
    assert counters["orparallel.memo.misses"] == 1
    assert counters["orparallel.memo.hits"] == 1
    # The call scope is the only memo: no other memo counter exists.
    assert {name for name in counters if name.startswith("orparallel.")
            and "memo" in name} == {"orparallel.memo.misses",
                                    "orparallel.memo.hits"}
    # The store's per-kind ledger tells the same story: one hit (the
    # warm call) and the cold call's miss (the single-flight re-check
    # under the lock may add more misses, never hits).
    assert stats["hits"] == counters["orparallel.memo.hits"]
    assert stats["misses"] >= counters["orparallel.memo.misses"]
    assert store.corrupt == 0


# --------------------------------------------------------------------------
# The profile (``emulation``) kind lives in the store too.

def _non_lock_files(root):
    found = []
    for dirpath, _, names in os.walk(str(root)):
        found.extend(os.path.join(dirpath, name) for name in names
                     if not name.startswith(".lock"))
    return sorted(found)


def test_cold_evaluation_leaves_only_store_entries(tmp_path, monkeypatch):
    """Every byte a cold evaluation writes is a store entry: usage()
    accounts for all of it and gc(0) removes all of it."""
    from repro.compaction import sequential, vliw
    from repro.evaluation.parallel import EvaluationEngine
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    fresh_memos(monkeypatch)
    store = CacheStore(str(root))
    with EvaluationEngine(jobs=1, store=store) as engine:
        engine.evaluate("conc30", {"seq": (sequential(), "bb"),
                                   "vliw3": (vliw(3), "trace")})
    files = _non_lock_files(root)
    kinds = {os.path.basename(path).split("-")[1] for path in files}
    assert {"emulation", "profile", "regions", "cell"} <= kinds
    assert set(store.usage()["kinds"]) == kinds
    assert store.usage()["bytes"] \
        == sum(os.path.getsize(path) for path in files)
    assert store.usage()["entries"] == len(files)
    store.gc(0)
    assert _non_lock_files(root) == []
