"""The ``serve`` code version covers every module behind an answer.

The service memoises whole answers under ``memoised("serve",
{"request": spec})``.  A request names a catalogue benchmark, not its
fingerprint, so an edit to any module that shapes an answer must change
``code_version("serve")``, or a persisted cache keeps serving the old
answer.  This test runs :func:`~repro.serve.ops.compute_result` once per
op on a cold cache in a fresh interpreter, traces every ``repro``
source file it executes, and requires each one to be in the ``serve``
file set or in the short list of infrastructure below.
"""

import json
import os
import subprocess
import sys

from repro.evaluation import parallel
from repro.testing import faults

#: executed on the way to an answer but never shaping it
INFRASTRUCTURE = {
    # observability: spans and counters
    "observability/tracing.py",
    # the cache store the answers are memoised in
    "evaluation/cache.py",
    "atomicio.py",
    # the supervisor that runs tasks, and its fault-injection sites
    "evaluation/supervisor.py",
    "testing/faults.py",
}

#: one request per op; query splits at or_jobs 2
REQUESTS = {
    "compile": {"benchmark": "nreverse"},
    "evaluate": {"benchmark": "nreverse", "configs": ["seq", "vliw3"]},
    "verify": {"benchmark": "nreverse", "configs": ["seq", "vliw3"]},
    "analyze": {"benchmark": "nreverse"},
    "query": {"benchmark": "nreverse", "goal": "main", "or_jobs": 2},
}

_TRACE_SCRIPT = r"""
import json, os, sys, threading
import repro
from repro.evaluation.cache import open_store
from repro.evaluation.parallel import EvaluationEngine
from repro.serve.ops import OPS, compute_result, parse_request

package = os.path.dirname(os.path.abspath(repro.__file__))
requests = json.loads(sys.argv[1])
assert sorted(requests) == sorted(OPS)
executed = {}
current = set()

def tracer(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename.startswith(package):
        current.add(os.path.relpath(filename, package))

engine = EvaluationEngine(jobs=1, store=open_store(sys.argv[2]))
for op, body in requests.items():
    spec, _ = parse_request(op, body)
    current.clear()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        compute_result(spec, engine)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    executed[op] = sorted(current)
engine.close()
print(json.dumps(executed))
"""


def _executed_files(cache_dir):
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir))
    for name in (faults.ENV_SPEC, faults.ENV_STATE):
        env.pop(name, None)
    completed = subprocess.run(
        [sys.executable, "-c", _TRACE_SCRIPT, json.dumps(REQUESTS),
         str(cache_dir)],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(completed.stdout.splitlines()[-1])


def test_serve_version_covers_every_module_behind_an_answer(tmp_path):
    executed = _executed_files(tmp_path / "cache")
    covered = set(parallel._COMPONENT_FILES["serve"]) | INFRASTRUCTURE
    missing = {op: sorted(set(files) - covered)
               for op, files in executed.items()}
    assert missing == {op: [] for op in REQUESTS}
    # the trace saw each op's own stack, not just the shared front end
    assert "analysis/driver.py" in executed["analyze"]
    assert "analysis/verify.py" in executed["verify"]
    assert "interp/orparallel.py" in executed["query"]
    assert "compaction/scheduler.py" in executed["evaluate"]


def test_serve_file_set_names_real_files():
    root = os.path.dirname(os.path.abspath(parallel.__file__))
    package = os.path.dirname(root)
    files = parallel._COMPONENT_FILES["serve"]
    assert len(files) == len(set(files))
    for relative in files + tuple(INFRASTRUCTURE):
        assert os.path.isfile(os.path.join(package, relative)), relative
