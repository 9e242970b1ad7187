"""The ``results/BENCH_*.json`` record format: one header, one
validator helper, one publisher.

Every perf record the CLI writes (``repro bench``, ``analyze --perf``,
``corpus``, ``query --sweep``, ``serve --load-test``) opens with the
same provenance header::

    {"schema": 4, "kind": "emulator-bench", "revision": "<commit>",
     "python": "3.11.7", "cpu_count": 2, ...body...}

``kind`` names the record, ``schema`` is that kind's layout version,
and ``cpu_count`` is what any wall-clock or parallel speed-up has to be
read against.  Each kind keeps its body validator next to the code
that builds the body; the validator starts with :func:`check_header`
and reports problems through :func:`require`.

:func:`publish` is the only way a record reaches disk: it serialises
the document, validates the re-loaded bytes and writes them atomically
only when there is no problem, so an invalid record is never
published.
"""

import json
import os
import platform
import subprocess

from repro.atomicio import atomic_write_text

__all__ = ["check_header", "git_revision", "header", "publish",
           "require"]


def git_revision():
    """The working tree's commit hash, or ``"unknown"`` outside git."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip()


def header(kind, schema):
    """The provenance header every record of *kind* starts with."""
    return {
        "schema": schema,
        "kind": kind,
        "revision": git_revision(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }


def require(problems, condition, message):
    """Append *message* to *problems* unless *condition*; returns
    *condition* so a check can guard the checks nested under it."""
    if not condition:
        problems.append(message)
    return condition


def check_header(document, kind, schema, problems):
    """Check the :func:`header` fields of *document*; returns whether
    it is an object at all (the body checks need one)."""
    if not require(problems, isinstance(document, dict),
                   "document is not an object"):
        return False
    require(problems, document.get("schema") == schema,
            "'schema' is not %d" % schema)
    require(problems, document.get("kind") == kind,
            "'kind' is not %r" % kind)
    for field in ("revision", "python"):
        require(problems, isinstance(document.get(field), str),
                "'%s' is not a string" % field)
    cpus = document.get("cpu_count")
    require(problems, isinstance(cpus, int) and not isinstance(cpus, bool)
            and cpus >= 1, "'cpu_count' is not a positive int")
    return True


def publish(document, path, validate):
    """Write *document* to *path* if its JSON passes *validate*.

    The document is serialised once (``indent=2, sort_keys=True``); the
    validator sees those bytes re-loaded, so what is checked is what is
    written.  Only a clean record is written, atomically, with its
    parent directory created.  Returns the problems (empty = written).
    """
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    problems = validate(json.loads(text))
    if problems:
        return problems
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    atomic_write_text(path, text)
    return []
