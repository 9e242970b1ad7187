"""Deterministic fault injection for the evaluation pipeline.

The chaos suite does not prove resilience by luck: every failure mode
the supervisor claims to survive — a worker killed with ``SIGKILL``, a
task hanging past its deadline, a corrupted cache artefact, a write
torn between temp file and publish, an emulator step-limit fault — can
be *armed* at a named site and fires on an exact, reproducible
invocation ordinal.

Arming is environment-driven so evaluation worker processes inherit it::

    REPRO_FAULT_INJECT="parallel.task=crash:1,cache.read=corrupt:1"
    REPRO_FAULT_STATE=/tmp/fuses     # cross-process fire accounting

Each armed spec is ``site=kind[:times[:param]]``: the first *times*
invocations of :func:`fire` at *site* trip the fault, later ones pass
through.  Determinism across a pool of workers comes from **fuse
files**: every firing claims an ``O_CREAT | O_EXCL`` file named after
the spec and the fire ordinal under ``REPRO_FAULT_STATE``, so exactly
*times* faults fire globally no matter how invocations interleave
across processes, and a resurrected pool does not re-fire spent
faults.  Without a state directory the accounting is per-process
(fine for ``jobs=1``).

Sites and the kinds each supports:

=====================  ============================================
``parallel.task``      ``error`` / ``crash`` / ``hang`` — worker-side
                       evaluation task entry
``cache.read``         ``corrupt`` / ``error`` — flip a byte of the
                       artefact on disk before the store reads it;
                       a transient read error (reads as a miss)
``cache.write``        ``torn`` — abandon an atomic write after the
                       temp file is written, before the publish rename
``pipeline.cycles``    ``error`` — schedule-and-replay of one cell
``pipeline.superblock``  ``error`` — the superblock transform
``emulator.run``       ``step-limit`` — emulation raises the step-limit
                       machine fault
``serve.request``      ``error`` / ``shed`` / ``hang`` — one request
                       inside the evaluation service (transient
                       failure, forced 429, slow execution)
``orparallel.task``    ``error`` / ``crash`` / ``hang`` — one stolen
                       branch of an or-parallel search
=====================  ============================================

``crash`` sends ``SIGKILL`` to the current process — but only inside a
pool worker (processes that ran :func:`mark_worker`); anywhere else it
raises :class:`InjectedFault` instead, so a misconfigured spec degrades
to an ordinary exception rather than killing the test harness or a
user's session.  ``hang`` sleeps *param* seconds (default 30) and then
continues, which is what the supervisor's deadline watchdog must
recover from.  ``error`` raises :class:`InjectedFault`, the model of a
transient failure.  The remaining kinds are site-specific: :func:`fire`
returns the kind string and the call site enacts it.
"""

import os
import signal
import time

ENV_SPEC = "REPRO_FAULT_INJECT"
ENV_STATE = "REPRO_FAULT_STATE"

#: site name -> the fault kinds that make sense there
SITES = {
    "parallel.task": ("error", "crash", "hang"),
    "cache.read": ("corrupt", "error"),
    "cache.write": ("torn",),
    "pipeline.cycles": ("error", "crash", "hang"),
    "pipeline.superblock": ("error", "crash", "hang"),
    "emulator.run": ("step-limit", "error"),
    "emulator.codegen.block": ("bail", "error"),
    # the evaluation service (repro serve): per-request transient
    # failures, forced load shedding, and slow-request hangs
    "serve.request": ("error", "shed", "hang"),
    # one stolen branch task of the or-parallel search engine
    # (repro.interp.orparallel): transient failure, worker SIGKILL,
    # a branch hanging past the supervisor's deadline
    "orparallel.task": ("error", "crash", "hang"),
}


class InjectedFault(RuntimeError):
    """A deliberately injected transient failure."""


class FaultSpec:
    """One armed fault: fire *kind* at *site* for the first *times*
    invocations.  *index* is the spec's position in the armed list
    (part of the fuse name, so two specs at one site keep separate
    accounting)."""

    __slots__ = ("site", "kind", "times", "param", "index")

    def __init__(self, site, kind, times=1, param=None, index=0):
        if site not in SITES:
            raise ValueError("unknown fault site %r (expected one of "
                             "%s)" % (site, ", ".join(sorted(SITES))))
        if kind not in SITES[site]:
            raise ValueError("fault kind %r not supported at site %r "
                             "(expected one of %s)"
                             % (kind, site, ", ".join(SITES[site])))
        if times < 1:
            raise ValueError("fault times must be >= 1, got %d" % times)
        self.site = site
        self.kind = kind
        self.times = times
        self.param = param
        self.index = index

    def __repr__(self):
        return "FaultSpec(%s=%s:%d%s)" % (
            self.site, self.kind, self.times,
            "" if self.param is None else ":%g" % self.param)


def parse_spec(text):
    """Parse a ``REPRO_FAULT_INJECT`` value into :class:`FaultSpec` s.

    Grammar: comma-separated ``site=kind[:times[:param]]`` items.
    Raises :class:`ValueError` on unknown sites/kinds or malformed
    counts — arming a fault that can never fire is itself a bug.
    """
    specs = []
    for index, item in enumerate(part.strip()
                                 for part in text.split(",")):
        if not item:
            continue
        try:
            site, rest = item.split("=", 1)
        except ValueError:
            raise ValueError("malformed fault spec %r (expected "
                             "site=kind[:times[:param]])" % item)
        pieces = rest.split(":")
        kind = pieces[0]
        times = int(pieces[1]) if len(pieces) > 1 else 1
        param = float(pieces[2]) if len(pieces) > 2 else None
        specs.append(FaultSpec(site.strip(), kind.strip(), times,
                               param, index=index))
    return specs


def known_sites_text():
    """One line per site: ``site: kind|kind|...`` (for error texts)."""
    return "\n".join("  %s: %s" % (site, " | ".join(SITES[site]))
                     for site in sorted(SITES))


def validate_environment(environ=None):
    """Eagerly validate the ``REPRO_FAULT_INJECT`` value, if any.

    A typo'd site or kind used to arm a fault that silently never
    fired; callers that honour injection (the CLI entry point, the
    evaluation service) validate at startup instead and fail fast.
    Returns the parsed specs (empty when nothing is armed); raises
    :class:`ValueError` naming every known site and kind otherwise.
    """
    text = (os.environ if environ is None else environ).get(ENV_SPEC)
    if not text:
        return []
    try:
        return parse_spec(text)
    except ValueError as error:
        raise ValueError(
            "invalid %s=%r: %s\nknown fault sites:\n%s"
            % (ENV_SPEC, text, error, known_sites_text())) from error


# --------------------------------------------------------------------------
# Worker marking: the 'crash' kind only kills marked processes.

_worker = False


def mark_worker():
    """Record that this process is an expendable pool worker (used as
    the ``ProcessPoolExecutor`` initializer)."""
    global _worker
    _worker = True


def in_worker():
    return _worker


# --------------------------------------------------------------------------
# Fire accounting.

_parsed = (None, None)      # (env string, parsed specs)
_local_counts = {}          # spec fuse key -> fires (no state dir)


def _active():
    """The armed specs, re-parsed whenever the env value changes."""
    global _parsed, _local_counts
    text = os.environ.get(ENV_SPEC)
    if not text:
        return None
    if _parsed[0] != text:
        _parsed = (text, parse_spec(text))
        _local_counts = {}
    return _parsed[1]


def armed(site):
    """True when any fault is armed at *site* (cheap hot-path guard;
    does not consume a fuse)."""
    specs = _active()
    if not specs:
        return False
    return any(spec.site == site for spec in specs)


def _claim(spec):
    """Claim the next free fuse of *spec*; False when all are spent."""
    state = os.environ.get(ENV_STATE)
    key = "fuse-%d-%s-%s" % (spec.index, spec.site, spec.kind)
    if not state:
        count = _local_counts.get(key, 0)
        if count >= spec.times:
            return False
        _local_counts[key] = count + 1
        return True
    os.makedirs(state, exist_ok=True)
    for ordinal in range(spec.times):
        path = os.path.join(state, "%s-%d" % (key, ordinal))
        try:
            descriptor = os.open(path, os.O_CREAT | os.O_EXCL
                                 | os.O_WRONLY)
        except FileExistsError:
            continue
        os.write(descriptor, str(os.getpid()).encode())
        os.close(descriptor)
        return True
    return False


def fire(site):
    """Trip the armed fault at *site*, if any fuse remains.

    Generic kinds are enacted here: ``error`` raises
    :class:`InjectedFault`, ``crash`` SIGKILLs a worker process (or
    raises outside one), ``hang`` sleeps and returns.  Site-specific
    kinds (``corrupt``, ``torn``, ``step-limit``) are returned as a
    string for the call site to enact.  Returns None when nothing
    fires.
    """
    specs = _active()
    if not specs:
        return None
    for spec in specs:
        if spec.site != site or not _claim(spec):
            continue
        if spec.kind == "error":
            raise InjectedFault("injected transient fault at %s" % site)
        if spec.kind == "crash":
            if in_worker():
                os.kill(os.getpid(), signal.SIGKILL)
            raise InjectedFault(
                "injected crash at %s outside a worker process "
                "(refusing to kill a non-worker)" % site)
        if spec.kind == "hang":
            time.sleep(30.0 if spec.param is None else spec.param)
            return None
        return spec.kind
    return None


def corrupt_file(path):
    """Deterministically damage *path*: flip the middle byte."""
    with open(path, "r+b") as handle:
        data = handle.read()
        if not data:
            return
        position = len(data) // 2
        handle.seek(position)
        handle.write(bytes([data[position] ^ 0xFF]))


class injected:
    """Context manager arming faults for a ``with`` block::

        with faults.injected("parallel.task=error:2", state_dir):
            ...

    Restores the previous environment on exit.  *state_dir* is the
    cross-process fuse directory (required for pool runs; optional for
    in-process ones).
    """

    def __init__(self, spec, state_dir=None):
        parse_spec(spec)                      # validate eagerly
        self.spec = spec
        self.state_dir = state_dir
        self._saved = {}

    def __enter__(self):
        for name, value in ((ENV_SPEC, self.spec),
                            (ENV_STATE, self.state_dir)):
            self._saved[name] = os.environ.get(name)
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        return self

    def __exit__(self, *exc_info):
        for name, value in self._saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
