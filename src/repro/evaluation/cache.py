"""The content-addressed artefact store.

The evaluation pipeline memoises every DAG node — profiles, region
layouts, cycle cells, experiment-level results — in one
content-addressed store of checksummed JSON entries:

:class:`CacheStore`
    Entry files are ``cas-<kind>-<keyhash>.json`` in one directory.
    Writers are serialised per *lock slot* (the key hash picks one of
    :data:`LOCK_SLOTS` advisory lock files), so unrelated keys rarely
    contend.  A confirmed-corrupt entry is moved into ``quarantine/``
    for post-mortem; :meth:`~CacheStore.gc` (``repro cache gc``)
    purges it and evicts least-recently-used entries down to a byte
    budget.

:func:`open_store`
    The engine, the CLI and the service all open their store through
    it.

:func:`current_store` / :func:`using_store`
    The engine and :func:`~repro.evaluation.parallel.memoised` make
    their store current while they compute, so nested profile lookups
    share its counters and re-entrant slot locks.

Robustness invariants:

* Reads are optimistic and lock-free.  A corrupt or checksum-mismatched
  entry is **re-checked under the key's lock** before it is
  quarantined: a concurrent writer may have repaired it between our
  read and our move, and moving the fresh entry aside would throw its
  work away.  The ``cache.read`` fault site injects on-disk damage
  (``corrupt``) and transient read errors (``error``); both read as a
  miss.
* Writes go through :func:`repro.atomicio.atomic_write_json` under the
  key's lock.  If the lock cannot be acquired within a bound the write
  proceeds unlocked — the atomic rename alone already guarantees
  readers never see a torn file, so a wedged peer cannot deadlock a
  writer (the bounded wait is counted as lock contention).
* Counters (hits/misses/corrupt plus quarantined/evictions/races/
  contention) are mirrored into the observability layer so a tracer or
  the service's ``/metrics`` endpoint can reconcile them.
"""

import contextlib
import hashlib
import json
import os
import threading
import time
import zlib

from repro.atomicio import FileLock, atomic_write_json
from repro.benchmarks.suite import cache_dir
from repro.observability import tracing as obs
from repro.testing import faults

__all__ = [
    "CACHE_SCHEMA",
    "CacheStore",
    "current_store",
    "open_store",
    "using_store",
]

#: bump to invalidate every cached artefact (layout/format changes)
CACHE_SCHEMA = 1

#: the store hashes keys onto this many advisory lock files
#: (``.lock-XX``) so unrelated keys do not serialise each other
LOCK_SLOTS = 16

#: how long a writer waits for the key's lock before falling back to
#: an unlocked (still atomic) publish — prevents cross-key deadlock
#: when two single-flight computes write each other's slots
PUT_LOCK_TIMEOUT = 10.0


def _canonical(value):
    """Deterministic JSON encoding used for every hashed key."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class _CorruptEntry(ValueError):
    """Internal: an entry failed decoding or checksum verification."""


class CacheStore:
    """Content-addressed JSON artefacts with integrity checking.

    Entries live as ``cas-<kind>-<keyhash>.json`` files wrapping the
    payload together with a checksum of its canonical encoding; a
    missing, truncated, corrupt or checksum-mismatched entry reads as
    a miss (and is quarantined *under the key's lock* — see
    :meth:`_recover`) so it is recomputed, never trusted.  Writes are
    crash-safe (:func:`repro.atomicio.atomic_write_json`: temp file +
    fsync + atomic rename) and serialised under the key's slot lock,
    so concurrent workers — or two whole CLI runs sharing the
    directory — can race on the same key without ever exposing a torn
    file.
    """

    def __init__(self, root=None):
        self._root = root
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.quarantined = 0
        self.evictions = 0
        self.races = 0
        self.contention = 0
        self._locks = {}
        self._kind_counts = {}

    @property
    def root(self):
        return self._root or cache_dir()

    # -- keys and paths ----------------------------------------------------

    def key(self, kind, components):
        payload = {"schema": CACHE_SCHEMA, "kind": kind,
                   "components": components}
        digest = hashlib.sha256(_canonical(payload).encode()).hexdigest()
        return "cas-%s-%s" % (kind, digest[:32])

    def path(self, key):
        return os.path.join(self.root, key + ".json")

    def lock_for(self, key):
        """The re-entrant :class:`FileLock` guarding *key*.

        One lock object is cached per lock file, so a caller holding
        the key's lock (single-flight ``memoised``) and the store's
        own :meth:`put` share the same re-entrant object instead of
        deadlocking on a second descriptor.
        """
        slot = zlib.crc32(key.encode()) % LOCK_SLOTS
        path = os.path.join(self.root, ".lock-%02x" % slot)
        lock = self._locks.get(path)
        if lock is None:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            lock = FileLock(path)
            self._locks[path] = lock
        return lock

    # -- reads -------------------------------------------------------------

    def get(self, key):
        """The payload stored under *key*, or None (a miss).

        An injected read error is a miss too: the caller recomputes,
        and the entry stays on disk for the next read."""
        path = self.path(key)
        try:
            if faults.armed("cache.read") and os.path.exists(path) \
                    and faults.fire("cache.read") == "corrupt":
                faults.corrupt_file(path)
            payload = self._read(path)
        except (FileNotFoundError, faults.InjectedFault):
            self.misses += 1
            obs.add("cache.misses")
            self._note_kind(key, "misses")
            return None
        except _CorruptEntry:
            payload = self._recover(key, path)
            if payload is None:
                self._note_kind(key, "misses")
                return None
        self.hits += 1
        obs.add("cache.hits")
        self._note_kind(key, "hits")
        self._touch(path)
        return payload

    def _note_kind(self, key, outcome):
        """Count *outcome* against the key's artefact kind.

        Keys are ``cas-<kind>-<hash>``, so the kind is recoverable from
        the key itself; the per-kind breakdown lets a caller report the
        answer-memo hit rate separately from pipeline artefacts sharing
        the same store (see :meth:`kind_stats`).
        """
        parts = key.split("-", 2)
        if len(parts) == 3 and parts[0] == "cas":
            counts = self._kind_counts.setdefault(
                parts[1], {"hits": 0, "misses": 0})
            counts[outcome] += 1

    def _read(self, path):
        """Decode and verify one entry file; raises on any damage."""
        with open(path) as handle:
            try:
                entry = json.load(handle)
                payload = entry["payload"]
                checksum = hashlib.sha256(
                    _canonical(payload).encode()).hexdigest()
                if entry["sha256"] != checksum:
                    raise ValueError("payload checksum mismatch")
            except (ValueError, KeyError, TypeError) as error:
                raise _CorruptEntry(str(error)) from error
        return payload

    def _recover(self, key, path):
        """Re-check a corrupt entry under the key's lock.

        Quarantining without the lock could move aside an entry a
        concurrent writer repaired between our read and our move;
        under the lock either the repaired payload is served or the
        damage is confirmed and the entry quarantined.
        """
        with self.lock_for(key):
            try:
                return self._read(path)
            except FileNotFoundError:
                self.misses += 1
                obs.add("cache.misses")
                return None
            except _CorruptEntry:
                self.corrupt += 1
                self.misses += 1
                obs.add("cache.corrupt")
                obs.add("cache.misses")
                self._quarantine(path)
                return None

    def _quarantine(self, path):
        """Move a confirmed-corrupt entry into ``quarantine/`` (holding
        the key's lock), or unlink it if the move fails."""
        directory = self._quarantine_dir()
        os.makedirs(directory, exist_ok=True)
        try:
            os.replace(path, os.path.join(directory,
                                          os.path.basename(path)))
        except OSError:
            with contextlib.suppress(OSError):
                os.remove(path)
            return
        self.quarantined += 1
        obs.add("cache.quarantined")

    def _touch(self, path):
        """Refresh the entry's mtime so LRU eviction sees the hit."""
        try:
            os.utime(path)
        except OSError:
            pass

    # -- writes ------------------------------------------------------------

    def put(self, key, payload):
        obs.add("cache.writes")
        path = self.path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {"key": key, "schema": CACHE_SCHEMA, "payload": payload,
                 "sha256": hashlib.sha256(
                     _canonical(payload).encode()).hexdigest()}
        lock = self.lock_for(key)
        acquired = self._acquire_bounded(lock, PUT_LOCK_TIMEOUT)
        try:
            atomic_write_json(path, entry)
        finally:
            if acquired:
                lock.release()

    def _acquire_bounded(self, lock, timeout):
        """Acquire *lock*, waiting at most *timeout* seconds.

        Returns False when the wait expires — the caller proceeds
        unlocked (atomic rename keeps that safe) rather than risking
        deadlock against a peer holding a different slot.  A failed
        first attempt counts as lock contention.
        """
        if lock.try_acquire():
            return True
        self.contention += 1
        obs.add("cache.lock.contention")
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            time.sleep(0.01)
            if lock.try_acquire():
                return True
        return False

    # -- maintenance -------------------------------------------------------

    def entries(self):
        """``(path, size, mtime)`` of every entry file, oldest first."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        found = []
        for name in names:
            if not (name.startswith("cas-") and name.endswith(".json")):
                continue
            path = os.path.join(self.root, name)
            try:
                status = os.stat(path)
            except OSError:
                continue
            found.append((path, status.st_size, status.st_mtime))
        found.sort(key=lambda item: (item[2], item[0]))
        return found

    def _quarantine_dir(self):
        return os.path.join(self.root, "quarantine")

    def _quarantine_files(self):
        directory = self._quarantine_dir()
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return []
        return [os.path.join(directory, name) for name in names]

    def usage(self):
        """Occupancy summary for ``repro cache stats``; ``kinds`` maps
        each artefact kind to its entry count and bytes."""
        entries = self.entries()
        kinds = {}
        for path, size, _ in entries:
            # cas-<kind>-<keyhash>.json
            kind = os.path.basename(path)[len("cas-"):].rsplit("-", 1)[0]
            occupancy = kinds.setdefault(kind, {"entries": 0, "bytes": 0})
            occupancy["entries"] += 1
            occupancy["bytes"] += size
        quarantine = self._quarantine_files()
        quarantine_bytes = 0
        for path in quarantine:
            try:
                quarantine_bytes += os.stat(path).st_size
            except OSError:
                pass
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "quarantined_files": len(quarantine),
            "quarantined_bytes": quarantine_bytes,
            "kinds": dict(sorted(kinds.items())),
        }

    def gc(self, budget_bytes):
        """Evict least-recently-used entries down to *budget_bytes*.

        Hits refresh an entry's mtime (:meth:`_touch`), so mtime order
        is recency order.  Quarantined files are always purged — they
        exist for post-mortem inspection, not as a growing liability.
        Returns a summary dict; evictions are counted on the store and
        mirrored to the ``cache.evictions`` metric.
        """
        removed = 0
        freed = 0
        for path in self._quarantine_files():
            try:
                freed += os.stat(path).st_size
                os.remove(path)
                removed += 1
            except OSError:
                pass
        entries = self.entries()
        total = sum(size for _, size, _ in entries)
        kept = list(entries)
        for path, size, _ in entries:
            if total <= budget_bytes:
                break
            key = os.path.basename(path)[:-len(".json")]
            with self.lock_for(key):
                try:
                    os.remove(path)
                except OSError:
                    continue
            total -= size
            freed += size
            removed += 1
            kept.pop(0)
            self.evictions += 1
            obs.add("cache.evictions")
        return {"removed": removed, "freed_bytes": freed,
                "kept": len(kept), "kept_bytes": total,
                "budget_bytes": budget_bytes}

    # -- introspection -----------------------------------------------------

    def stats(self):
        return {"hits": self.hits, "misses": self.misses,
                "corrupt": self.corrupt}

    def kind_stats(self, kind=None):
        """Hit/miss counts broken down by artefact kind.

        With *kind* given, that kind's ``{"hits": H, "misses": M}``
        (zeros when never looked up); otherwise the whole mapping."""
        if kind is not None:
            counts = self._kind_counts.get(kind, {"hits": 0,
                                                  "misses": 0})
            return dict(counts)
        return {name: dict(counts)
                for name, counts in sorted(self._kind_counts.items())}

    def counters(self):
        """Every robustness counter (superset of :meth:`stats`)."""
        counters = self.stats()
        counters.update({
            "quarantined": self.quarantined,
            "evictions": self.evictions,
            "races": self.races,
            "contention": self.contention,
        })
        return counters


class ShardedCacheStore(CacheStore):
    """Not a store layout: the benchmark's span table (``perfbench/
    spans.py``) looks this name up.  It defines no methods, so the
    benchmark wraps ``CacheStore.get`` once, not twice."""


def open_store(root=None):
    """The artefact store under *root* (default: :func:`cache_dir`)."""
    return CacheStore(root)


_current = threading.local()


@contextlib.contextmanager
def using_store(store):
    """Make *store* this thread's :func:`current_store` for the block."""
    stack = _current.__dict__.setdefault("stack", [])
    stack.append(store)
    try:
        yield store
    finally:
        stack.pop()


def current_store():
    """The innermost :func:`using_store` store of this thread, else a
    fresh :func:`open_store` (pool workers, plain library calls)."""
    stack = getattr(_current, "stack", None)
    return stack[-1] if stack else open_store()
