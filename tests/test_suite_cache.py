"""Benchmark suite driver: fingerprinting and the ``emulation`` kind of
the artefact store (the profile cache)."""

import json
import os

from repro.benchmarks.suite import (
    program_fingerprint, run_program_cached, cache_dir)
from repro.bam import compile_source
from repro.emulator import machine
from repro.evaluation import parallel
from repro.intcode import translate_module
from repro.observability import tracing as observe


def program_for(source):
    return translate_module(compile_source(source))


SOURCE_A = "main :- X = 1, write(X), nl."
SOURCE_B = "main :- X = 2, write(X), nl."
# Same instructions, different atom names: only the symbol table differs.
SOURCE_FOO = "main :- write(foo), nl."
SOURCE_BAR = "main :- write(bar), nl."


def emulation_entries(root):
    return sorted(path for path in root.iterdir()
                  if path.name.startswith("cas-emulation-"))


def test_fingerprint_stable_across_recompiles():
    assert program_fingerprint(program_for(SOURCE_A)) == \
        program_fingerprint(program_for(SOURCE_A))


def test_fingerprint_distinguishes_programs():
    for left, right in ((SOURCE_A, SOURCE_B), (SOURCE_FOO, SOURCE_BAR)):
        assert program_fingerprint(program_for(left)) != \
            program_fingerprint(program_for(right)), (left, right)


def test_cached_output_follows_the_symbol_table(tmp_path, monkeypatch):
    """Programs differing only in an atom name never share a profile,
    whatever hint they are looked up under."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert run_program_cached(program_for(SOURCE_FOO), "prog-").output \
        == "foo\n"
    assert run_program_cached(program_for(SOURCE_BAR), "prog-").output \
        == "bar\n"


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    program = program_for(SOURCE_A)
    first = run_program_cached(program, "t-")
    files = emulation_entries(tmp_path)
    assert len(files) == 1
    # the hint only labels the span of a miss: it is not in the key
    with observe.activation(seed=0) as tracer:
        second = run_program_cached(program, "other-")
    assert tracer.metrics.count("emulator.runs") == 0
    assert second.output == first.output
    assert second.counts == first.counts
    assert emulation_entries(tmp_path) == files  # no new entries


def test_corrupt_cache_entry_recomputed(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    program = program_for(SOURCE_A)
    run_program_cached(program, "t-")
    [path] = emulation_entries(tmp_path)
    path.write_text("{not json")
    result = run_program_cached(program, "t-")
    assert result.output == "1\n"
    assert json.load(open(path))["payload"]["output"] == "1\n"


def test_profile_cache_records_backend(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(machine, "_COMPILE_STEPS_PER_ICI", 0)
    program = program_for(SOURCE_A)
    result = run_program_cached(program, "hello-")
    assert result.backend == "codegen"
    [path] = emulation_entries(tmp_path)
    assert json.load(open(path))["payload"]["backend"] == "codegen"
    # A warm read reports the backend that produced the artefact.
    cached = run_program_cached(program, "hello-")
    assert cached.backend == "codegen"
    assert cached.counts == result.counts


def test_one_emulation_entry_per_program(tmp_path, monkeypatch):
    """The key is the fingerprint alone: the loop that produced the
    profile is provenance in the payload, not a key component."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(machine, "_COMPILE_STEPS_PER_ICI", 0)
    program = program_for(SOURCE_A)
    first = run_program_cached(program, "hello-")
    second = run_program_cached(program, "hello-")
    assert (first.backend, second.backend) == ("codegen", "codegen")
    assert second.counts == machine.Emulator(program).run().counts
    assert len(emulation_entries(tmp_path)) == 1


def test_code_version_bump_recomputes(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    run_program_cached(program_for(SOURCE_A), "t-")
    monkeypatch.setitem(parallel._code_versions, "emulation", "edited")
    with observe.activation(seed=0) as tracer:
        result = run_program_cached(program_for(SOURCE_A), "t-")
    assert result.output == "1\n"
    assert tracer.metrics.count("emulator.runs") == 1
    assert len(emulation_entries(tmp_path)) == 2


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "sub"))
    path = cache_dir()
    assert path == str(tmp_path / "sub")
    assert os.path.isdir(path)
