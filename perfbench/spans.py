"""Span recording around calls into the program's layers.

The benchmark measures each layer from outside: it replaces the public
functions listed in :data:`LAYER_FUNCTIONS` with wrappers that record a
span (name, start, end, parent, request id) per call.  Nothing under
``src/`` is changed; the wrappers are installed by identity in every
loaded ``repro`` module, so ``from x import f`` bindings are covered
too.  Spans stay in memory and are written out when the run ends.
"""

import builtins
import importlib
import itertools
import sys
import threading
import time

#: (module, attribute, layer).  An attribute ``Class.method`` wraps a
#: method on the class.  The ``engine`` spans only give the tree its
#: structure: their self time (DAG planning, supervision, dispatch,
#: pickling, waiting) is what ``engine.unattributed_s`` reports.
LAYER_FUNCTIONS = (
    ("repro.reader.parser", "parse_program", "reader.parse"),
    ("repro.bam.compile", "compile_source", "bam.compile"),
    ("repro.intcode.translate", "translate_module", "intcode.translate"),
    ("repro.emulator.codegen", "codegen_code", "emulator.codegen"),
    ("repro.emulator.codegen", "generate_source", "emulator.codegen"),
    ("repro.emulator.machine", "run_program", "emulator.run"),
    ("repro.compaction.transform", "form_superblocks",
     "compaction.superblock"),
    ("repro.compaction.scheduler", "schedule_region",
     "compaction.schedule"),
    ("repro.evaluation.simulator", "replay_program", "simulator.replay"),
    ("repro.evaluation.pipeline", "verify_evaluation", "verify.check"),
    ("repro.evaluation.cache", "CacheStore.get", "cache.get"),
    ("repro.evaluation.cache", "ShardedCacheStore.get", "cache.get"),
    ("repro.evaluation.cache", "CacheStore.put", "cache.put"),
    ("repro.evaluation.parallel", "memoised", "engine"),
    ("repro.evaluation.parallel", "EvaluationEngine.evaluate_many",
     "engine"),
    ("repro.evaluation.parallel", "EvaluationEngine.map", "engine"),
    ("repro.interp.engine", "Engine.run_query", "interp.oracle"),
    ("repro.interp.orparallel", "or_solutions", "interp.orparallel"),
    ("repro.serve.ops", "parse_request", "serve.parse"),
    ("repro.serve.ops", "compute_result", "serve.compute"),
)

#: layer of the generated-code ``compile()`` the codegen backend calls
CODEGEN_COMPILE_LAYER = "emulator.codegen"

#: layers that are not pipeline stages: the engine's structure spans and
#: the benchmark's own per-request spans
STRUCTURE_LAYERS = ("engine", "bench")

#: share of the untraced wall time by which the stages' traced self
#: times may exceed it.  The wrappers' own cost lands inside the spans:
#: on a 2-CPU x86 container a traced suite pass runs about 7% slower,
#: and its stages' self times come to within 1% of the untraced wall.
#: The untraced and traced passes run one after the other, and the
#: host's speed drifts between them: one traced suite pass ran 7%
#: faster than the untraced one before it, i.e. some 14% of drift.
RECONCILE_TOLERANCE = 0.25


class Span:
    __slots__ = ("id", "name", "layer", "parent", "request", "start",
                 "end")

    def __init__(self, span_id, name, layer, parent, request, start):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.request = request
        self.start = start
        self.end = None

    def to_json(self):
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "parent": self.parent, "request": self.request,
                "start": self.start, "end": self.end}


class Recorder:
    """In-memory span store with a per-thread parent stack.

    A span opened with no open parent in its thread, or opened with
    *new_request*, starts a new request id; its descendants share it.
    *observers* map a wrapped function's name to ``callback(args,
    kwargs, result)``, called outside the timed interval, so counts
    are taken where the work happens.
    """

    def __init__(self):
        self.spans = []
        self.observers = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, layer, new_request=False):
        stack = self._stack()
        parent = stack[-1] if stack else None
        request = parent.request if parent and not new_request \
            else next(self._requests)
        span = Span(next(self._ids), name, layer,
                    parent.id if parent else None, request,
                    time.perf_counter())
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, function, name, layer):
        recorder = self

        def traced(*args, **kwargs):
            span = recorder.open(name, layer)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.close(span)
            observer = recorder.observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def to_json(self):
        return [span.to_json() for span in self.spans]


def install(recorder):
    """Wrap every function of :data:`LAYER_FUNCTIONS` wherever
    ``repro`` bound it.

    Returns an ``uninstall()`` callable restoring the originals.
    """
    undo = []
    for module_name, attribute, layer in LAYER_FUNCTIONS:
        module = importlib.import_module(module_name)
        owner_name, _, name = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__.get(name)
            if original is None:
                continue
            setattr(owner, name, recorder.wrap(original, attribute, layer))
            undo.append((owner, name, original))
            continue
        original = getattr(module, name)
        wrapper = recorder.wrap(original, attribute, layer)
        for loaded_name, loaded in list(sys.modules.items()):
            if not (loaded_name == "repro"
                    or loaded_name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    undo.append((loaded, key, original))

    original_compile = builtins.compile

    def compile_hook(source, filename, *args, **kwargs):
        if not str(filename).startswith("<codegen"):
            return original_compile(source, filename, *args, **kwargs)
        span = recorder.open("compile", CODEGEN_COMPILE_LAYER)
        try:
            return original_compile(source, filename, *args, **kwargs)
        finally:
            recorder.close(span)

    builtins.compile = compile_hook
    undo.append((builtins, "compile", original_compile))

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


def self_times(spans):
    """Span id -> self time: duration minus the time its direct
    children cover.  *spans* are in their :meth:`Span.to_json` form."""
    child_time = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(
                span["parent"], 0.0) + span["end"] - span["start"]
    return {span["id"]: span["end"] - span["start"]
            - child_time.get(span["id"], 0.0) for span in spans}


def layer_self_times(spans):
    """Layer -> summed self time of its spans."""
    selves = self_times(spans)
    totals = {}
    for span in spans:
        totals[span["layer"]] = totals.get(span["layer"], 0.0) \
            + selves[span["id"]]
    return totals


def stage_seconds(layer_totals):
    """Summed self time of the pipeline stages (structure spans
    excluded)."""
    return sum(seconds for layer, seconds in layer_totals.items()
               if layer not in STRUCTURE_LAYERS)


def unattributed(untraced_wall, layer_totals):
    """Untraced wall time not covered by any stage's self time:
    dispatch, pickling, waiting and the benchmark's own glue."""
    return untraced_wall - stage_seconds(layer_totals)


def reconciles(untraced_wall, layer_totals):
    """Whether the stages' traced self times fit in the untraced wall
    time, i.e. ``unattributed()`` is not below
    ``-RECONCILE_TOLERANCE * untraced_wall``.

    A miss means the layer times do not account for the wall time:
    spans double-count (overlapping threads, a wrapper counted twice)
    or tracing inflated the stages by more than the tolerance.
    """
    return unattributed(untraced_wall, layer_totals) \
        >= -RECONCILE_TOLERANCE * untraced_wall
