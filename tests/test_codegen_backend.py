"""The codegen emulator loop: the step-budget hand-over from the
reference loop, bit-identical statistics, and the reference
fallback."""

import pytest

from repro.bam import compile_source
from repro.intcode import translate_module
from repro.emulator import (
    BACKENDS, CodegenEmulator, Emulator, EmulatorError, codegen_code,
    decode, resolve_backend, run_program)
from repro.emulator import codegen as codegen_mod
from repro.emulator import machine as machine_mod
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
    compiled = CodegenEmulator(program, **kwargs).run()
    assert compiled.status == reference.status
    assert compiled.steps == reference.steps
    assert compiled.output == reference.output
    assert compiled.counts == reference.counts
    assert compiled.taken == reference.taken
    return reference, compiled


# -- provenance ------------------------------------------------------------

def test_backend_order_prefers_codegen():
    assert BACKENDS == ("codegen", "reference")
    assert resolve_backend(None) == "codegen"


def test_run_program_reports_backend():
    program = compile_program(HELLO)
    assert Emulator(program).run().backend == "reference"


def test_run_program_reports_codegen_backend(monkeypatch):
    monkeypatch.setattr(machine_mod, "_COMPILE_STEPS_PER_ICI", 0)
    program = compile_program(HELLO)
    assert run_program(program).backend == "codegen"


# -- the step-budget hand-over ---------------------------------------------

def test_run_inside_budget_reports_reference():
    program = compile_program(LOOP)
    result = run_program(program)
    assert result.backend == "reference"
    assert program._codegen is None     # nothing was compiled


def test_run_past_budget_hands_over_to_codegen(monkeypatch):
    monkeypatch.setattr(machine_mod, "_COMPILE_STEPS_PER_ICI", 1)
    program = compile_program(LOOP)
    budget = len(program.instructions)
    expected = Emulator(program).run()
    assert expected.steps > budget
    result = run_program(program)
    assert result.backend == "codegen"
    for field in ("status", "steps", "output", "counts", "taken"):
        assert getattr(result, field) == getattr(expected, field), field


def test_step_limit_past_budget_is_the_exact_reference_fault(
        monkeypatch):
    monkeypatch.setattr(machine_mod, "_COMPILE_STEPS_PER_ICI", 1)
    program = compile_program(LOOP)
    budget = len(program.instructions)
    limit = Emulator(program).run().steps // 2
    assert limit > budget
    with pytest.raises(EmulatorError) as reference_error:
        Emulator(program, max_steps=limit).run()
    with pytest.raises(EmulatorError) as route_error:
        run_program(program, max_steps=limit)
    assert str(route_error.value) == str(reference_error.value)


@pytest.mark.parametrize("source, max_steps", [
    ("main :- X is 1 // 0, write(X).", 500_000_000),
    (LOOP, 100),
], ids=["division-by-zero", "step-limit-below-budget"])
def test_fault_inside_budget_never_compiles(monkeypatch, source,
                                            max_steps):
    """A division fault, or a step limit at or below the budget, is
    the reference loop's own fault: nothing is compiled."""
    def refuse(program):
        raise AssertionError("compiled a run that faulted in budget")

    monkeypatch.setattr(codegen_mod, "codegen_code", refuse)
    program = compile_program(source)
    with pytest.raises(EmulatorError) as reference_error:
        Emulator(program, max_steps=max_steps).run()
    with pytest.raises(EmulatorError) as route_error:
        run_program(program, max_steps=max_steps)
    assert str(route_error.value) == str(reference_error.value)


# -- the expected-steps hint -----------------------------------------------
# An advisory run length may send a run straight to the compiled loop;
# whatever it says, the result or fault is the reference loop's own.

FIELDS = ("status", "steps", "output", "counts", "taken")
DIVIDE = "main :- X is 1 // 0, write(X)."


def hints(steps):
    return (None, 0, steps, 10 * steps)


@pytest.mark.parametrize("name, per_ici", [
    ("LOOP", None), ("LOOP", 1), ("HELLO", None), ("HELLO", 1),
    ("tak", None),
], ids=["loop", "loop-small-budget", "hello", "hello-small-budget",
        "tak"])
def test_expected_steps_never_changes_the_result(monkeypatch, name,
                                                 per_ici):
    from repro.benchmarks.suite import compile_benchmark
    if per_ici is not None:
        monkeypatch.setattr(machine_mod, "_COMPILE_STEPS_PER_ICI", per_ici)
    program = compile_benchmark(name) if name == "tak" \
        else compile_program(globals()[name])
    budget = machine_mod._COMPILE_STEPS_PER_ICI * len(program.instructions)
    expected = Emulator(program).run()
    for hint in hints(expected.steps):
        result = run_program(program, expected_steps=hint)
        for field in FIELDS:
            assert getattr(result, field) == getattr(expected, field), \
                (hint, field)
        if (hint or 0) > budget:
            assert result.backend == "codegen", hint


@pytest.mark.parametrize("per_ici", [None, 1],
                         ids=["default-budget", "small-budget"])
@pytest.mark.parametrize("source, max_steps", [
    (DIVIDE, 500_000_000),
    (LOOP, 5_000),
], ids=["division-by-zero", "step-limit"])
def test_expected_steps_keeps_the_exact_fault(monkeypatch, per_ici,
                                              source, max_steps):
    if per_ici is not None:
        monkeypatch.setattr(machine_mod, "_COMPILE_STEPS_PER_ICI", per_ici)
    program = compile_program(source)
    budget = machine_mod._COMPILE_STEPS_PER_ICI * len(program.instructions)
    with pytest.raises(EmulatorError) as reference_error:
        Emulator(program, max_steps=max_steps).run()
    for hint in hints(1_000_000):
        with pytest.raises(EmulatorError) as route_error:
            run_program(program, max_steps=max_steps, expected_steps=hint)
        assert str(route_error.value) == str(reference_error.value), hint
    # a step limit inside the budget is the reference loop's, hint or not
    assert (program._codegen is None) == (max_steps <= budget)


def test_hinted_superblock_reemulation_runs_no_reference_steps(
        tmp_path, monkeypatch):
    """tak's profile discards at most its size-scaled budget; its cold
    superblock re-emulation, hinted with the profile's length, runs no
    reference-loop step at all."""
    from repro.benchmarks.suite import compile_benchmark
    from repro.evaluation.pipeline import superblock_regions
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    program = compile_benchmark("tak")
    with observe.activation(seed=0) as tracer:
        profile = run_program(program)
    [span] = tracer.find("emulator.run")
    assert profile.backend == "codegen"
    assert not span.attrs["hinted"]
    assert 0 < span.attrs["discarded_steps"] \
        <= machine_mod._COMPILE_STEPS_PER_ICI * len(program.instructions)
    assert tracer.metrics.count("emulator.discarded_steps") \
        == span.attrs["discarded_steps"]

    reference_runs = []
    original = Emulator.run

    def counting(self, *args, **kwargs):
        reference_runs.append(self.program)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Emulator, "run", counting)
    with observe.activation(seed=0) as tracer:
        superblock_regions(program, profile)
    [span] = tracer.find("emulator.run")
    assert span.attrs["hinted"] and span.attrs["backend"] == "codegen"
    assert span.attrs["discarded_steps"] == 0
    assert tracer.metrics.count("emulator.discarded_steps") == 0
    assert reference_runs == []


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
    CodegenEmulator(program)
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
    emulator = CodegenEmulator(program)
    first = emulator.run()
    for _ in range(3):
        again = emulator.run()
        assert again.steps == first.steps
        assert again.output == first.output
        assert again.counts == first.counts
        assert again.taken == first.taken


def test_codegen_code_memoised_on_program():
    program = compile_program(HELLO)
    compiled = codegen_code(program)
    assert codegen_code(program) is compiled
    assert program._codegen is compiled


def test_generated_source_shape():
    program = compile_program(HELLO)
    source = codegen_mod.generate_source(program)[0]
    assert source.startswith("def _run(")
    assert "SPIN = range(limit + 1)" in source
    assert callable(codegen_code(program).run)


# -- the reference fallback ------------------------------------------------

def test_step_limit_falls_back_to_exact_fault():
    program = compile_program(LOOP)
    baseline = Emulator(program).run()
    limit = baseline.steps // 2
    with pytest.raises(EmulatorError) as reference_error:
        Emulator(program, max_steps=limit).run()
    with pytest.raises(EmulatorError) as codegen_error:
        CodegenEmulator(program, max_steps=limit).run()
    assert str(codegen_error.value) == str(reference_error.value)


def test_tight_step_limit_still_exact():
    program = compile_program(HELLO)
    with pytest.raises(EmulatorError) as codegen_error:
        CodegenEmulator(program, max_steps=1).run()
    with pytest.raises(EmulatorError) as reference_error:
        Emulator(program, max_steps=1).run()
    assert str(codegen_error.value) == str(reference_error.value)


def test_exact_step_limit_does_not_fault():
    program = compile_program(LOOP)
    baseline = Emulator(program).run()
    result = CodegenEmulator(program, max_steps=baseline.steps).run()
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
        result = CodegenEmulator(program).run()
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
    fallback = CodegenEmulator(program, **kwargs).run()
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
    emulator = CodegenEmulator(program)
    first = emulator.run()
    again = emulator.run()
    assert again.steps == first.steps
    assert again.output == first.output
    assert again.counts == first.counts
    assert again.taken == first.taken


def test_declined_generation_memoised_on_program(declined):
    program = compile_program(HELLO)
    assert codegen_code(program) is None
    assert codegen_code(program) is None
    CodegenEmulator(program).run()
    # the decline is remembered: the generator was asked only once
    assert len(declined) == 1


def test_declined_generation_step_limit_exact_fault(declined):
    program = compile_program(LOOP)
    limit = Emulator(program).run().steps // 2
    with pytest.raises(EmulatorError) as reference_error:
        Emulator(program, max_steps=limit).run()
    with pytest.raises(EmulatorError) as fallback_error:
        CodegenEmulator(program, max_steps=limit).run()
    assert str(fallback_error.value) == str(reference_error.value)


def test_declined_generation_tight_step_limit_exact(declined):
    program = compile_program(HELLO)
    with pytest.raises(EmulatorError) as fallback_error:
        CodegenEmulator(program, max_steps=1).run()
    with pytest.raises(EmulatorError) as reference_error:
        Emulator(program, max_steps=1).run()
    assert str(fallback_error.value) == str(reference_error.value)


def test_declined_generation_exact_step_limit_reports_reference(declined):
    program = compile_program(LOOP)
    baseline = Emulator(program).run()
    result = CodegenEmulator(program, max_steps=baseline.steps).run()
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
            CodegenEmulator(program, max_steps=baseline.steps // 2).run()
    assert tracer.metrics.count("emulator.codegen.fallbacks") == 1
