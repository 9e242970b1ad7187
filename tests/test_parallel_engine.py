"""The parallel evaluation engine: determinism, content-addressed cache
invalidation, verify-upgrade semantics and failure containment.

Every test runs against a private cache directory (``REPRO_CACHE_DIR``),
so nothing here touches — or is warmed by — the user's shared cache.
"""

import copy
import json
import os

import pytest

from repro.benchmarks.programs import PROGRAMS, BenchmarkProgram
from repro.compaction import sequential, vliw
from repro.evaluation import parallel
from repro.evaluation.cache import CacheStore
from repro.evaluation.parallel import EvaluationEngine, EvaluationError
from tests.conftest import fresh_memos

BENCHMARKS = ["conc30", "divide10"]

#: one benchmark under these configs = profile + 2 region sets + 2 cells
NODES = 5

#: the DAG's own artefact kinds.  Tasks run in-process look up their
#: emulation results in the engine's store too, so the store's totals
#: also count those nested lookups.
DAG_KINDS = ("profile", "regions", "cell")


def _node_stats(store):
    """The store's hit/miss/corrupt counts over the DAG kinds only."""
    kinds = store.kind_stats()
    stats = {outcome: sum(kinds.get(kind, {}).get(outcome, 0)
                          for kind in DAG_KINDS)
             for outcome in ("hits", "misses")}
    stats["corrupt"] = store.corrupt
    return stats


def _configs():
    return {"seq": (sequential(), "bb"), "vliw3": (vliw(3), "trace")}


#: the report of the most recent _run engine (tests inspect outcomes)
_LAST_REPORT = [None]


def _fast_policy():
    """Resilience policy tuned for tests: quick backoff, few retries."""
    from repro.evaluation.supervisor import SupervisorPolicy
    return SupervisorPolicy(max_attempts=2, deadline=60.0,
                            backoff_base=0.01, backoff_cap=0.05,
                            seed=1992, poll=0.02)


def _run(monkeypatch, cache_root, jobs=1, benchmarks=("conc30",),
         configs=None, budget=48, verify=False):
    """One evaluate_many sweep against *cache_root*; (evaluations, store)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_root))
    # Hermetic runs: drop the per-process worker memos so in-process
    # execution (and forked workers) cannot reuse state from an earlier
    # test's sweep.
    fresh_memos(monkeypatch)
    store = CacheStore()
    with EvaluationEngine(jobs=jobs, store=store,
                          policy=_fast_policy()) as engine:
        _LAST_REPORT[0] = engine.report
        evaluations = engine.evaluate_many([
            {"name": name, "configs": configs or _configs(),
             "tail_dup_budget": budget, "verify": verify}
            for name in benchmarks])
    return evaluations, store


def _artefacts(root):
    """{filename: bytes} for every JSON artefact under *root*."""
    return {name: open(os.path.join(str(root), name), "rb").read()
            for name in sorted(os.listdir(str(root)))
            if name.endswith(".json")}


# --------------------------------------------------------------------------
# Determinism.

@pytest.mark.parametrize("name", BENCHMARKS)
def test_parallel_matches_sequential_artefacts(monkeypatch, tmp_path, name):
    """jobs=1 and jobs=4 produce byte-identical cache artefacts and
    identical evaluation data from cold caches."""
    serial, _ = _run(monkeypatch, tmp_path / "serial", jobs=1,
                     benchmarks=[name])
    pooled, _ = _run(monkeypatch, tmp_path / "pooled", jobs=4,
                     benchmarks=[name])
    assert serial[0].data == pooled[0].data
    assert _artefacts(tmp_path / "serial") == _artefacts(tmp_path / "pooled")


def test_warm_run_equals_cold_without_recomputation(monkeypatch, tmp_path):
    cold, _ = _run(monkeypatch, tmp_path, benchmarks=BENCHMARKS)

    def refuse(spec):
        raise AssertionError("warm run recomputed %r" % spec)

    monkeypatch.setattr(parallel, "execute_task", refuse)
    monkeypatch.setattr(parallel, "run_program_cached", refuse)
    warm, store = _run(monkeypatch, tmp_path, benchmarks=BENCHMARKS)
    assert [e.data for e in warm] == [e.data for e in cold]
    assert store.stats() == {"hits": 2 * NODES, "misses": 0, "corrupt": 0}


def test_cold_run_counts_every_node_as_a_miss(monkeypatch, tmp_path):
    _, store = _run(monkeypatch, tmp_path)
    assert _node_stats(store) == {"hits": 0, "misses": NODES,
                                  "corrupt": 0}
    # ...plus one emulation miss for the program and one for its
    # superblock transform, and nothing else.
    assert store.kind_stats() == {
        "profile": {"hits": 0, "misses": 1},
        "regions": {"hits": 0, "misses": 2},
        "cell": {"hits": 0, "misses": 2},
        "emulation": {"hits": 0, "misses": 2}}
    assert store.stats() == {"hits": 0, "misses": NODES + 2,
                             "corrupt": 0}


# --------------------------------------------------------------------------
# Cache invalidation: each input component misses exactly its dependents.

def test_tail_dup_budget_invalidates_only_trace_artefacts(
        monkeypatch, tmp_path):
    _run(monkeypatch, tmp_path, budget=48)
    _, store = _run(monkeypatch, tmp_path, budget=32)
    # profile, bb regions and the bb cell survive; the trace region set
    # and its cell are recomputed.
    assert _node_stats(store) == {"hits": 3, "misses": 2, "corrupt": 0}


def test_machine_config_mutation_invalidates_one_cell(
        monkeypatch, tmp_path):
    _run(monkeypatch, tmp_path)
    mutated = copy.deepcopy(vliw(3))
    mutated.mem_ports += 1
    configs = {"seq": (sequential(), "bb"), "vliw3": (mutated, "trace")}
    _, store = _run(monkeypatch, tmp_path, configs=configs)
    assert _node_stats(store) == {"hits": 4, "misses": 1, "corrupt": 0}


def test_program_fingerprint_mutation_invalidates_everything(
        monkeypatch, tmp_path):
    _run(monkeypatch, tmp_path)
    original = PROGRAMS["conc30"]
    monkeypatch.setitem(
        PROGRAMS, "conc30",
        BenchmarkProgram(original.name, original.description,
                         original.source
                         + "\nunused_cache_probe(cache_probe).\n",
                         in_table1=original.in_table1))
    _, store = _run(monkeypatch, tmp_path)
    assert _node_stats(store) == {"hits": 0, "misses": NODES,
                                  "corrupt": 0}


def test_config_rename_keeps_the_cache_warm(monkeypatch, tmp_path):
    """The display name is not part of the cell key."""
    _run(monkeypatch, tmp_path)
    configs = {"seq": (sequential(), "bb"),
               "renamed": (vliw(3, name="totally-different"), "trace")}
    _, store = _run(monkeypatch, tmp_path, configs=configs)
    assert store.stats() == {"hits": NODES, "misses": 0, "corrupt": 0}


def test_added_config_only_misses_its_own_cell(monkeypatch, tmp_path):
    _run(monkeypatch, tmp_path)
    configs = dict(_configs(), vliw2=(vliw(2), "trace"))
    _, store = _run(monkeypatch, tmp_path, configs=configs)
    assert _node_stats(store) == {"hits": NODES, "misses": 1,
                                  "corrupt": 0}


# --------------------------------------------------------------------------
# Corruption: damaged entries read as misses and are repaired.

def _damage(root, damage):
    """Apply *damage* to one cached cell entry; returns its filename."""
    victim = sorted(name for name in os.listdir(str(root))
                    if name.startswith("cas-cell-"))[0]
    damage(os.path.join(str(root), victim))
    return victim


def _overwrite_with_garbage(path):
    with open(path, "w") as handle:
        handle.write("{ not json")


def _truncate(path):
    content = open(path).read()
    with open(path, "w") as handle:
        handle.write(content[:len(content) // 2])


@pytest.mark.parametrize("damage", [_overwrite_with_garbage, _truncate],
                         ids=["garbage", "truncated"])
def test_corrupt_entry_is_recomputed_and_repaired(
        monkeypatch, tmp_path, damage):
    cold, _ = _run(monkeypatch, tmp_path)
    victim = _damage(tmp_path, damage)
    warm, store = _run(monkeypatch, tmp_path)
    assert _node_stats(store) == {"hits": NODES - 1, "misses": 1,
                                  "corrupt": 1}
    assert warm[0].data == cold[0].data
    # The damaged entry was rewritten and now round-trips cleanly.
    entry = json.load(open(os.path.join(str(tmp_path), victim)))
    assert CacheStore().get(entry["key"]) == entry["payload"]


def test_checksum_mismatch_is_detected(monkeypatch, tmp_path):
    """A silently edited payload fails its integrity check."""
    cold, _ = _run(monkeypatch, tmp_path)

    def tamper(path):
        entry = json.load(open(path))
        entry["payload"]["cycles"] += 1  # keep the stale sha256
        json.dump(entry, open(path, "w"))

    _damage(tmp_path, tamper)
    warm, store = _run(monkeypatch, tmp_path)
    assert store.corrupt == 1
    assert warm[0].data == cold[0].data


# --------------------------------------------------------------------------
# Verification status is part of the artefact, not a cache bypass.

def test_verify_upgrades_artefacts_in_place(monkeypatch, tmp_path):
    calls = []
    real = parallel.execute_task

    def counting(spec):
        calls.append(spec["kind"])
        return real(spec)

    monkeypatch.setattr(parallel, "execute_task", counting)
    _run(monkeypatch, tmp_path, verify=False)
    assert len(calls) == NODES
    # Unverified artefacts do not satisfy a verified request...
    _run(monkeypatch, tmp_path, verify=True)
    assert len(calls) == 2 * NODES
    # ...but verified artefacts satisfy both kinds of request.
    _run(monkeypatch, tmp_path, verify=True)
    _run(monkeypatch, tmp_path, verify=False)
    assert len(calls) == 2 * NODES


# --------------------------------------------------------------------------
# Failure containment.

def test_unknown_benchmark_does_not_sink_the_sweep(monkeypatch, tmp_path):
    with pytest.raises(EvaluationError) as caught:
        _run(monkeypatch, tmp_path,
             benchmarks=["conc30", "no_such_benchmark"])
    assert "no_such_benchmark" in str(caught.value)
    assert len(caught.value.failures) == 1
    # The healthy benchmark's artefacts were still computed and cached.
    _, store = _run(monkeypatch, tmp_path)
    assert store.stats() == {"hits": NODES, "misses": 0, "corrupt": 0}


def test_cell_failure_reports_the_cell_and_keeps_the_rest(
        monkeypatch, tmp_path):
    def broken_scheduler(region_set, config, verify=False):
        raise RuntimeError("synthetic scheduler failure")

    monkeypatch.setattr("repro.evaluation.pipeline.machine_cycles",
                        broken_scheduler)
    with pytest.raises(EvaluationError) as caught:
        _run(monkeypatch, tmp_path)
    failed = sorted(label for label, _ in caught.value.failures)
    assert len(failed) == 2 and all("/cell/" in label for label in failed)
    assert "synthetic scheduler failure" in caught.value.failures[0][1]
    # jobs=1 chains the first underlying exception for pdb post-mortems.
    assert isinstance(caught.value.__cause__, RuntimeError)
    monkeypatch.undo()
    # Profile and region artefacts survived the failed sweep.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    _, store = _run(monkeypatch, tmp_path)
    assert _node_stats(store) == {"hits": 3, "misses": 2, "corrupt": 0}


def _die(spec):  # module-level: must be picklable for the pool
    os._exit(13)


def test_worker_crash_is_survived_by_degradation(monkeypatch, tmp_path):
    """A crash-looping pool cannot sink the sweep: after the restart
    budget the supervisor degrades to in-process execution and the
    evaluation still completes with full results."""
    monkeypatch.setattr(parallel, "_pool_task", _die)
    evaluations, store = _run(monkeypatch, tmp_path, jobs=2)
    assert evaluations[0].data["cycles"]["seq"] > 0
    # Every pool attempt died, so every node ran in degraded mode and
    # the pool was restarted up to its budget (+1 for the final break).
    engine_report = _LAST_REPORT[0]
    assert engine_report.degraded
    assert engine_report.pool_restarts >= 1
    counts = engine_report.counts()
    assert counts["degraded"] == NODES and counts["failed"] == 0
    monkeypatch.undo()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    # The artefacts written under degradation serve a healthy engine.
    _, store = _run(monkeypatch, tmp_path, jobs=2)
    assert store.stats() == {"hits": NODES, "misses": 0, "corrupt": 0}
