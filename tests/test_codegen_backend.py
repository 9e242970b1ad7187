"""The codegen emulator backend: selection, bit-identical statistics,
profile-guided tiering, the ``codegen`` artefact kind, and the
reference fallback."""

import json
import os

import pytest

from repro.bam import compile_source
from repro.intcode import translate_module
from repro.emulator import (
    BACKENDS, CodegenEmulator, Emulator, EmulatorError, codegen_code,
    decode, resolve_backend, run_program)
from repro.emulator import codegen as codegen_mod
from repro.emulator.codegen import _TERMINATORS, basic_blocks
from repro.observability import tracing as observe


def compile_program(source, entry=("main", 0)):
    return translate_module(compile_source(source, entry))


HELLO = 'main :- write(hello), nl.'
LOOP = """
count(0).
count(N) :- N > 0, M is N - 1, count(M).
main :- count(200), write(done), nl.
"""
APPEND = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
main :- app([1,2,3], [4,5], R), write(R), nl.
"""


def assert_identical(program, **kwargs):
    reference = Emulator(program, **kwargs).run()
    compiled = CodegenEmulator(program, persist=False, **kwargs).run()
    assert compiled.status == reference.status
    assert compiled.steps == reference.steps
    assert compiled.output == reference.output
    assert compiled.counts == reference.counts
    assert compiled.taken == reference.taken
    return reference, compiled


# -- backend selection -----------------------------------------------------

def test_backend_order_prefers_codegen():
    assert BACKENDS == ("codegen", "reference")
    assert resolve_backend(None) == "codegen"


def test_resolve_explicit_backends():
    assert resolve_backend("reference") == "reference"
    assert resolve_backend("codegen") == "codegen"


def test_resolve_backend_rejects_unknown():
    with pytest.raises(ValueError, match="unknown emulator backend"):
        resolve_backend("nonesuch")


def test_backend_environment_variable(monkeypatch):
    monkeypatch.setenv("REPRO_EMULATOR_BACKEND", "reference")
    assert resolve_backend(None) == "reference"
    program = compile_program(HELLO)
    assert run_program(program).backend == "reference"


def test_backend_environment_variable_invalid(monkeypatch):
    monkeypatch.setenv("REPRO_EMULATOR_BACKEND", "nonesuch")
    with pytest.raises(ValueError):
        run_program(compile_program(HELLO))


def test_run_program_reports_backend():
    program = compile_program(HELLO)
    assert run_program(program, backend="reference").backend \
        == "reference"


def test_run_program_reports_codegen_backend():
    program = compile_program(HELLO)
    assert run_program(program, backend="codegen").backend == "codegen"


# -- program-level caches --------------------------------------------------

def test_decode_cached_on_program():
    program = compile_program(HELLO)
    assert program._decoded is None
    first = decode(program)
    assert program._decoded is not None
    assert decode(program) is first


def test_emulators_share_one_decode():
    program = compile_program(LOOP)
    Emulator(program)
    first = program._decoded
    CodegenEmulator(program, persist=False)
    assert program._decoded is first


# -- block structure -------------------------------------------------------

def test_basic_blocks_partition_the_program():
    program = compile_program(LOOP)
    spans = basic_blocks(program)
    assert any(start == 0 for start, _ in spans)
    previous_end = None
    covered = 0
    for start, end in spans:
        assert start < end
        if previous_end is not None:
            assert start == previous_end
        previous_end = end
        covered += end - start
    assert covered == len(program)


def test_blocks_have_at_most_one_terminator():
    program = compile_program(LOOP)
    code, _ = decode(program)
    for start, end in basic_blocks(program):
        interior = [pc for pc in range(start, end - 1)
                    if code[pc][0] in _TERMINATORS]
        assert interior == []


# -- identity with the reference loop --------------------------------------

def test_identical_on_simple_program():
    reference, compiled = assert_identical(compile_program(HELLO))
    assert compiled.backend == "codegen"
    assert reference.backend == "reference"


def test_identical_on_looping_program():
    assert_identical(compile_program(LOOP))


def test_identical_on_list_program():
    assert_identical(compile_program(APPEND))


def test_identical_on_failing_query():
    program = compile_program("p(1).\nmain :- p(2), write(yes), nl.")
    reference, _compiled = assert_identical(program)
    assert reference.status == 1


def test_branch_probabilities_match():
    program = compile_program(LOOP)
    reference, compiled = assert_identical(program)
    for pc in range(len(program)):
        assert compiled.branch_probability(pc) \
            == reference.branch_probability(pc)


def test_identical_across_repeated_runs():
    program = compile_program(LOOP)
    emulator = CodegenEmulator(program, persist=False)
    first = emulator.run()
    for _ in range(3):
        again = emulator.run()
        assert again.steps == first.steps
        assert again.output == first.output
        assert again.counts == first.counts
        assert again.taken == first.taken


def test_codegen_code_memoised_on_program():
    program = compile_program(HELLO)
    compiled = codegen_code(program, persist=False)
    assert codegen_code(program, persist=False) is compiled
    assert program._codegen is compiled


def test_generated_source_shape():
    program = compile_program(HELLO)
    source = codegen_mod.generate_source(program)[0]
    assert source.startswith("def _run(")
    assert "SPIN = range(limit + 1)" in source
    compiled = codegen_code(program, persist=False)
    assert compiled.tier == 1
    assert compiled.from_cache is False


# -- profile-guided tier 2 -------------------------------------------------

def test_tier2_recompile_stays_identical(monkeypatch):
    monkeypatch.setattr(codegen_mod, "_TIER2_STEPS", 1)
    program = compile_program(LOOP)
    reference = Emulator(program).run()
    emulator = CodegenEmulator(program, persist=False)
    assert emulator.compiled.tier == 1
    first = emulator.run()
    # the first clean run's replayed profile seeds a recompile...
    assert emulator.compiled.tier == 2
    second = emulator.run()
    for result in (first, second):
        assert result.status == reference.status
        assert result.steps == reference.steps
        assert result.output == reference.output
        assert result.counts == reference.counts
        assert result.taken == reference.taken


def test_tier2_counter(monkeypatch):
    monkeypatch.setattr(codegen_mod, "_TIER2_STEPS", 1)
    with observe.activation(seed=0) as tracer:
        CodegenEmulator(compile_program(LOOP), persist=False).run()
    assert tracer.metrics.count("codegen.tier2.compiles") == 1


# -- the reference fallback ------------------------------------------------

def test_step_limit_falls_back_to_exact_fault():
    program = compile_program(LOOP)
    baseline = Emulator(program).run()
    limit = baseline.steps // 2
    with pytest.raises(EmulatorError) as reference_error:
        Emulator(program, max_steps=limit).run()
    with pytest.raises(EmulatorError) as codegen_error:
        CodegenEmulator(program, max_steps=limit, persist=False).run()
    assert str(codegen_error.value) == str(reference_error.value)


def test_tight_step_limit_still_exact():
    program = compile_program(HELLO)
    with pytest.raises(EmulatorError) as codegen_error:
        CodegenEmulator(program, max_steps=1, persist=False).run()
    with pytest.raises(EmulatorError) as reference_error:
        Emulator(program, max_steps=1).run()
    assert str(codegen_error.value) == str(reference_error.value)


def test_exact_step_limit_does_not_fault():
    program = compile_program(LOOP)
    baseline = Emulator(program).run()
    result = CodegenEmulator(program, max_steps=baseline.steps,
                             persist=False).run()
    assert result.steps == baseline.steps
    assert result.backend == "codegen"


def test_declined_generation_runs_reference(monkeypatch):
    """A program the generator cannot express runs on the reference
    loop, field-for-field identical, and says so."""
    def decline(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(codegen_mod, "generate_source", decline)
    program = compile_program(LOOP)
    expected = Emulator(program).run()
    with observe.activation(seed=0) as tracer:
        result = CodegenEmulator(program, persist=False).run()
    assert result.backend == "reference"
    assert tracer.metrics.count("emulator.codegen.compile_declined") == 1
    for field in ("status", "steps", "output", "counts", "taken"):
        assert getattr(result, field) == getattr(expected, field), field


# -- the declined-generation route -----------------------------------------
# When the generator declines, CodegenEmulator runs the reference loop
# in its place; these hold that route to the same contract as the
# compiled path above.

@pytest.fixture
def declined(monkeypatch):
    """Make the generator decline; yields the list of its calls."""
    calls = []

    def decline(*args, **kwargs):
        calls.append(args)
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(codegen_mod, "generate_source", decline)
    return calls


def assert_declined_identical(program, **kwargs):
    reference = Emulator(program, **kwargs).run()
    fallback = CodegenEmulator(program, persist=False, **kwargs).run()
    assert fallback.backend == "reference"
    for field in ("status", "steps", "output", "counts", "taken"):
        assert getattr(fallback, field) == getattr(reference, field), field
    return reference, fallback


def test_declined_generation_identical_on_simple_program(declined):
    assert_declined_identical(compile_program(HELLO))


def test_declined_generation_identical_on_looping_program(declined):
    assert_declined_identical(compile_program(LOOP))


def test_declined_generation_identical_on_failing_query(declined):
    program = compile_program("p(1).\nmain :- p(2), write(yes), nl.")
    reference, _fallback = assert_declined_identical(program)
    assert reference.status == 1


def test_declined_generation_identical_across_repeated_runs(declined):
    program = compile_program(LOOP)
    emulator = CodegenEmulator(program, persist=False)
    first = emulator.run()
    again = emulator.run()
    assert again.steps == first.steps
    assert again.output == first.output
    assert again.counts == first.counts
    assert again.taken == first.taken


def test_declined_generation_memoised_on_program(declined):
    program = compile_program(HELLO)
    assert codegen_code(program, persist=False) is None
    assert codegen_code(program, persist=False) is None
    CodegenEmulator(program, persist=False).run()
    # the decline is remembered: the generator was asked only once
    assert len(declined) == 1


def test_declined_generation_step_limit_exact_fault(declined):
    program = compile_program(LOOP)
    limit = Emulator(program).run().steps // 2
    with pytest.raises(EmulatorError) as reference_error:
        Emulator(program, max_steps=limit).run()
    with pytest.raises(EmulatorError) as fallback_error:
        CodegenEmulator(program, max_steps=limit, persist=False).run()
    assert str(fallback_error.value) == str(reference_error.value)


def test_declined_generation_tight_step_limit_exact(declined):
    program = compile_program(HELLO)
    with pytest.raises(EmulatorError) as fallback_error:
        CodegenEmulator(program, max_steps=1, persist=False).run()
    with pytest.raises(EmulatorError) as reference_error:
        Emulator(program, max_steps=1).run()
    assert str(fallback_error.value) == str(reference_error.value)


def test_declined_generation_exact_step_limit_reports_reference(declined):
    program = compile_program(LOOP)
    baseline = Emulator(program).run()
    result = CodegenEmulator(program, max_steps=baseline.steps,
                             persist=False).run()
    assert result.steps == baseline.steps
    assert result.backend == "reference"


def test_generated_source_available_for_debugging():
    """The source is not persisted, but regenerating it on demand is
    deterministic and yields the module the backend runs."""
    program = compile_program(HELLO)
    source = codegen_mod.generate_source(program)[0]
    assert codegen_mod.generate_source(compile_program(HELLO))[0] == source
    namespace = {}
    exec(compile(source, "<debug>", "exec"), namespace)
    assert callable(namespace["_run"])


def test_fallback_increments_counter():
    program = compile_program(LOOP)
    baseline = Emulator(program).run()
    with observe.activation(seed=0) as tracer:
        with pytest.raises(EmulatorError):
            CodegenEmulator(program, max_steps=baseline.steps // 2,
                            persist=False).run()
    assert tracer.metrics.count("emulator.codegen.fallbacks") == 1


# -- the ``codegen`` artefact kind -----------------------------------------

def _codegen_artifacts(path):
    return sorted(name for name in os.listdir(path)
                  if name.startswith("cas-codegen-"))


def test_artifact_cache_cold_then_warm(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with observe.activation(seed=0) as tracer:
        cold = CodegenEmulator(compile_program(LOOP))
        first = cold.run()
    assert tracer.metrics.count("codegen.cache.misses") == 1
    # two writes: the tier-1 compile, then the tier-2 overwrite (LOOP
    # runs past _TIER2_STEPS, so the first clean run re-optimises)
    assert tracer.metrics.count("codegen.cache.writes") == 2
    assert cold.compiled.from_cache is False
    [name] = _codegen_artifacts(tmp_path)
    with open(tmp_path / name) as handle:
        assert "source" not in json.load(handle)["payload"]
    # a fresh Program (same fingerprint) is served from the store
    with observe.activation(seed=0) as tracer:
        warm = CodegenEmulator(compile_program(LOOP))
        second = warm.run()
    assert tracer.metrics.count("codegen.cache.hits") == 1
    assert tracer.metrics.count("codegen.cache.misses") == 0
    assert warm.compiled.from_cache is True
    assert warm.compiled.tier == 2
    assert second.steps == first.steps
    assert second.counts == first.counts
    assert second.taken == first.taken


def test_persist_false_writes_no_artifact(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    CodegenEmulator(compile_program(LOOP), persist=False).run()
    assert _codegen_artifacts(tmp_path) == []


def test_corrupt_artifact_recompiles(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    CodegenEmulator(compile_program(LOOP)).run()
    [name] = _codegen_artifacts(tmp_path)
    with open(tmp_path / name, "w") as handle:
        handle.write("{not json")
    with observe.activation(seed=0) as tracer:
        emulator = CodegenEmulator(compile_program(LOOP))
        result = emulator.run()
    assert tracer.metrics.count("codegen.cache.misses") == 1
    assert tracer.metrics.count("cache.corrupt") == 1
    assert emulator.compiled.from_cache is False
    assert result.backend == "codegen"
    assert_identical(compile_program(LOOP))


def test_edited_artifact_fails_checksum_and_is_never_run(tmp_path,
                                                         monkeypatch):
    """A payload edited into different but well-formed bytecode is
    caught by the entry checksum before anything is unmarshalled."""
    import base64
    import marshal
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    CodegenEmulator(compile_program(LOOP)).run()
    [name] = _codegen_artifacts(tmp_path)
    hostile = compile("raise SystemExit('executed an unverified entry')",
                      "<edited>", "exec")
    with open(tmp_path / name) as handle:
        entry = json.load(handle)
    # well-formed bytecode, but the entry keeps its old checksum
    entry["payload"]["code"] = base64.b64encode(
        marshal.dumps(hostile)).decode("ascii")
    with open(tmp_path / name, "w") as handle:
        json.dump(entry, handle)
    with observe.activation(seed=0) as tracer:
        emulator = CodegenEmulator(compile_program(LOOP))
        result = emulator.run()
    assert tracer.metrics.count("cache.corrupt") == 1
    assert tracer.metrics.count("codegen.cache.misses") == 1
    assert emulator.compiled.from_cache is False
    assert result.backend == "codegen"
    assert result.output == Emulator(compile_program(LOOP)).run().output


def test_tier2_overwrites_artifact(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(codegen_mod, "_TIER2_STEPS", 1)
    CodegenEmulator(compile_program(LOOP)).run()
    [name] = _codegen_artifacts(tmp_path)
    with open(tmp_path / name) as handle:
        assert json.load(handle)["payload"]["tier"] == 2
    # the next evaluation of this program loads the profiled build
    warm = CodegenEmulator(compile_program(LOOP))
    assert warm.compiled.from_cache is True
    assert warm.compiled.tier == 2
    assert_identical(compile_program(LOOP))
