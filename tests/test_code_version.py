"""Every source file of the package is in the one code version.

Artefacts of every kind are keyed on
:func:`~repro.evaluation.parallel.code_version`, one digest of the
package's ``*.py`` files.  An edit to any of them must change it, or a
persisted cache keeps serving artefacts the old code computed.
"""

import shutil

from repro.evaluation import parallel
from repro.evaluation.cache import open_store

#: every artefact kind the package memoises
KINDS = ("profile", "emulation", "regions", "cell", "dataflow", "pressure",
         "wam", "static_ilp", "orparallel", "serve")


def _versions(monkeypatch):
    monkeypatch.setattr(parallel, "_source_digest", None)
    return {kind: parallel.code_version(kind) for kind in KINDS}


def test_every_source_file_changes_the_code_version(tmp_path, monkeypatch):
    package = tmp_path / "repro"
    shutil.copytree(parallel._PACKAGE_ROOT, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(parallel, "_PACKAGE_ROOT", str(package))
    sources = sorted(package.rglob("*.py"))
    assert len(sources) > 50
    before = _versions(monkeypatch)
    stale = []
    for path in sources:
        with open(path, "a") as handle:
            handle.write("\n# edited\n")
        after = _versions(monkeypatch)
        stale += [(path.relative_to(package).as_posix(), kind)
                  for kind in KINDS if after[kind] == before[kind]]
        before = after
    assert stale == []
    # a new module is source too; compiled bytecode is not
    (package / "evaluation" / "extra.py").write_text("EXTRA = 1\n")
    after = _versions(monkeypatch)
    assert [kind for kind in KINDS if after[kind] == before[kind]] == []
    bytecode = package / "evaluation" / "__pycache__"
    bytecode.mkdir()
    (bytecode / "extra.cpython-312.pyc").write_bytes(b"\0")
    assert _versions(monkeypatch) == after


def test_serve_key_carries_the_code_version(tmp_path):
    """``code_version("serve")`` is the ``code`` component of the key
    ``memoised("serve", ...)`` stores under, so a cache can be filled
    ahead of the service."""
    store = open_store(str(tmp_path))
    components = {"request": {"op": "compile", "benchmark": "nreverse"}}
    parallel.memoised("serve", components, lambda: {"answer": 1},
                      store=store)
    key = store.key("serve", dict(components,
                                  code=parallel.code_version("serve")))
    assert store.get(key) == {"answer": 1}
