"""Crash-safe IO and cache-lock contention.

Two whole evaluation runs sharing one cache directory must never
corrupt each other — that is the contract behind ``repro evaluate``
being safe to run from two shells (or CI shards) at once.  These tests
drive :mod:`repro.atomicio` directly and then race two full engines.
"""

import json
import os
import threading

import pytest

from repro.atomicio import (
    FileLock, LockTimeout, atomic_write_json, atomic_write_text)
from repro.compaction import sequential, vliw
from repro.evaluation.cache import CacheStore
from repro.evaluation.parallel import EvaluationEngine
from repro.evaluation.supervisor import SupervisorPolicy
from tests.conftest import fresh_memos

pytestmark = pytest.mark.chaos


# --------------------------------------------------------------------------
# atomic_write_text / atomic_write_json.

def test_atomic_write_publishes_exact_bytes(tmp_path):
    path = str(tmp_path / "out.txt")
    atomic_write_text(path, "hello\n")
    assert open(path).read() == "hello\n"
    # No temp droppings after a successful publish.
    assert os.listdir(str(tmp_path)) == ["out.txt"]


def test_atomic_write_replaces_without_a_torn_window(tmp_path):
    path = str(tmp_path / "out.json")
    atomic_write_json(path, {"value": 1})
    atomic_write_json(path, {"value": 2})
    assert json.load(open(path)) == {"value": 2}
    assert os.listdir(str(tmp_path)) == ["out.json"]


def test_atomic_write_failure_leaves_no_temp_file(tmp_path):
    missing = str(tmp_path / "no-such-dir" / "out.txt")
    with pytest.raises(OSError):
        atomic_write_text(missing, "x")
    assert os.listdir(str(tmp_path)) == []


def test_atomic_write_json_is_newline_terminated(tmp_path):
    path = str(tmp_path / "out.json")
    atomic_write_json(path, {"a": 1})
    assert open(path).read().endswith("\n")


# --------------------------------------------------------------------------
# FileLock.

def test_filelock_excludes_a_second_acquirer(tmp_path):
    path = str(tmp_path / ".lock")
    with FileLock(path) as held:
        assert held.held
        with pytest.raises(LockTimeout):
            FileLock(path, timeout=0.2, poll=0.02).acquire()
    # Released: a fresh acquirer succeeds immediately.
    second = FileLock(path, timeout=0.2, poll=0.02).acquire()
    second.release()
    assert not second.held


def test_filelock_file_is_never_deleted(tmp_path):
    path = str(tmp_path / ".lock")
    with FileLock(path):
        pass
    assert os.path.exists(path)


def test_filelock_serialises_threads(tmp_path):
    path = str(tmp_path / ".lock")
    active = [0]
    overlaps = []

    def worker():
        for _ in range(5):
            with FileLock(path):
                active[0] += 1
                overlaps.append(active[0])
                active[0] -= 1

    threads = [threading.Thread(target=worker) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # Mutual exclusion: never two holders inside the critical section.
    assert overlaps and max(overlaps) == 1


# --------------------------------------------------------------------------
# Two whole evaluation runs sharing one cache directory (satellite:
# the lock-contention acceptance test).

def _configs():
    return {"seq": (sequential(), "bb"), "vliw3": (vliw(3), "trace")}


def _policy():
    return SupervisorPolicy(max_attempts=2, deadline=60.0,
                            backoff_base=0.01, backoff_cap=0.05,
                            seed=1992, poll=0.02)


def _sweep(cache_root):
    store = CacheStore(root=str(cache_root))
    with EvaluationEngine(jobs=1, store=store,
                          policy=_policy()) as engine:
        return engine.evaluate_many(
            [{"name": "conc30", "configs": _configs()}])[0].data


def _artefacts(root):
    return {name: open(os.path.join(str(root), name), "rb").read()
            for name in sorted(os.listdir(str(root)))
            if name.startswith("cas-") and name.endswith(".json")}


def test_concurrent_engines_share_a_cache_without_damage(
        monkeypatch, tmp_path):
    """Two evaluate_many sweeps racing on one cold cache directory both
    finish, agree, and leave artefacts byte-identical to a solo run."""
    fresh_memos(monkeypatch)
    baseline_root = tmp_path / "baseline"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(baseline_root))
    baseline = _sweep(baseline_root)

    shared = tmp_path / "shared"
    shared.mkdir()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(shared))
    fresh_memos(monkeypatch)
    outcomes = [None, None]

    def race(slot):
        try:
            outcomes[slot] = ("ok", _sweep(shared))
        except BaseException as error:   # surfaced in the main thread
            outcomes[slot] = ("error", repr(error))

    threads = [threading.Thread(target=race, args=(slot,))
               for slot in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    assert outcomes[0] == ("ok", baseline), outcomes[0]
    assert outcomes[1] == ("ok", baseline), outcomes[1]
    assert _artefacts(shared) == _artefacts(baseline_root)
    # Every published artefact still round-trips its checksum.
    store = CacheStore(root=str(shared))
    for name, content in _artefacts(shared).items():
        entry = json.loads(content)
        assert store.get(entry["key"]) == entry["payload"]
    # No temp droppings, and the advisory lock is free.
    assert not [name for name in os.listdir(str(shared))
                if name.endswith(".tmp")]
    with FileLock(str(shared / ".lock"), timeout=1.0):
        pass
