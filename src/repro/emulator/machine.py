"""Sequential ICI emulator (the *reference* loop).

Executes a compiled :class:`~repro.intcode.program.Program` against the
shared data memory, collecting the statistics the back-end needs: per-
instruction execution counts (the paper's *Expect*) and per-branch taken
counts (from which branch *Probability* follows).  It also captures program
output so compiled code can be validated against the reference interpreter.

The emulator is a straight interpreter loop over pre-decoded instruction
tuples; correctness and statistics, not speed, are its contract.  The
fast path is the codegen loop in :mod:`repro.emulator.codegen` (the
whole program compiled to one Python function, registers as locals),
which must stay bit-identical to this loop.  :func:`run_program` runs
this loop first and compiles only programs that outlive a budget of
:data:`_COMPILE_STEPS_PER_ICI` steps per ICI, or that its caller
already expects to.
"""

from array import array

from repro.terms import tags, Atom, Int, Var, Struct, term_to_string
from repro.intcode import layout

BACKENDS = ("codegen", "reference")

#: reference-loop steps per ICI :func:`run_program` spends before it
#: compiles.  Compiling costs about 0.35 ms per ICI, so it grows with
#: code size, not run length, and only long runs win it back: from
#: cold, sendmore (1099 ICIs) breaks even near 1 M steps, about 1000
#: steps per ICI.  A run just past the budget pays for it twice, so the
#: budget sits at twice break-even.
_COMPILE_STEPS_PER_ICI = 2000

_STEP_LIMIT = "step limit exceeded (%d)"


def resolve_backend(backend=None):
    """*backend*, or ``codegen`` for None.

    Nothing in the package calls it: the frozen perf benchmark still
    does (warm-up provenance and its fallback-ratio observer), and
    ROADMAP item 4 removes it at the next benchmark change.
    """
    return backend or BACKENDS[0]

# Pre-decoded opcode numbers, ordered roughly by expected frequency.
_LD, _ST, _BTAG, _BNTAG, _MOV, _LEA, _LDI, _BEQ, _BNE, _JMP, _CALL, \
    _JMPR, _ADD, _SUB, _MUL, _DIV, _MOD, _AND, _OR, _XOR, _SLL, _SRA, \
    _BLTV, _BLEV, _BGTV, _BGEV, _MKTAG, _GETTAG, _ESC, _HALT = range(30)

_OPCODE = {
    "ld": _LD, "st": _ST, "btag": _BTAG, "bntag": _BNTAG, "mov": _MOV,
    "lea": _LEA, "ldi": _LDI, "beq": _BEQ, "bne": _BNE, "jmp": _JMP,
    "call": _CALL, "jmpr": _JMPR, "add": _ADD, "sub": _SUB, "mul": _MUL,
    "div": _DIV, "mod": _MOD, "and": _AND, "or": _OR, "xor": _XOR,
    "sll": _SLL, "sra": _SRA, "bltv": _BLTV, "blev": _BLEV,
    "bgtv": _BGTV, "bgev": _BGEV, "mktag": _MKTAG, "gettag": _GETTAG,
    "esc": _ESC, "halt": _HALT,
}

_ALU_BINARY = {_ADD, _SUB, _MUL, _DIV, _MOD, _AND, _OR, _XOR, _SLL, _SRA}
_CMP_BRANCH = {_BEQ, _BNE, _BLTV, _BLEV, _BGTV, _BGEV}


class EmulatorError(Exception):
    """Raised on machine faults (bad address, step limit, ...)."""


class EmulationResult:
    """Outcome of one program run."""

    def __init__(self, program, status, steps, output, counts, taken,
                 backend="reference"):
        self.program = program
        self.status = status        # halt code: 0 success, 1 query failure
        self.steps = steps
        self.output = output        # program output text
        self.counts = counts        # per-pc execution counts
        self.taken = taken          # per-pc branch-taken counts
        self.backend = backend      # emulator backend that produced this

    @property
    def succeeded(self):
        return self.status == 0

    def branch_probability(self, pc):
        """Probability that the branch at *pc* was taken."""
        if self.counts[pc] == 0:
            return 0.0
        return self.taken[pc] / self.counts[pc]


def decode(program):
    """Pre-decode a program into dense tuples and a register map.

    The decode is memoised on the :class:`Program` object: every consumer
    (the reference loop, the codegen backend and the dataflow limit in
    :mod:`repro.evaluation.dynamic`) shares one decode per program
    instead of re-walking the instruction list on each run.
    """
    cached = getattr(program, "_decoded", None)
    if cached is not None:
        return cached
    reg_index = {}

    def reg(name):
        if name is None:
            return None
        index = reg_index.get(name)
        if index is None:
            index = len(reg_index)
            reg_index[name] = index
        return index

    for name in layout.MACHINE_REGISTERS:
        reg(name)

    code = []
    labels = program.labels
    for instruction in program.instructions:
        op = _OPCODE[instruction.op]
        if op == _LD:
            code.append((op, reg(instruction.rd), reg(instruction.ra),
                         instruction.imm or 0))
        elif op == _ST:
            code.append((op, reg(instruction.ra), reg(instruction.rb),
                         instruction.imm or 0))
        elif op in _ALU_BINARY:
            code.append((op, reg(instruction.rd), reg(instruction.ra),
                         reg(instruction.rb)))
        elif op == _LEA:
            code.append((op, reg(instruction.rd), reg(instruction.ra),
                         instruction.imm or 0, instruction.tag))
        elif op == _MKTAG:
            code.append((op, reg(instruction.rd), reg(instruction.ra),
                         instruction.tag))
        elif op == _GETTAG:
            code.append((op, reg(instruction.rd), reg(instruction.ra)))
        elif op == _MOV:
            code.append((op, reg(instruction.rd), reg(instruction.ra)))
        elif op == _LDI:
            if instruction.label is not None:
                word = tags.pack(labels[instruction.label], tags.TCOD)
            else:
                word = instruction.imm
            code.append((op, reg(instruction.rd), word))
        elif op in (_BTAG, _BNTAG):
            code.append((op, reg(instruction.ra), instruction.tag,
                         labels[instruction.label]))
        elif op in _CMP_BRANCH:
            code.append((op, reg(instruction.ra), reg(instruction.rb),
                         labels[instruction.label]))
        elif op == _JMP:
            code.append((op, labels[instruction.label]))
        elif op == _CALL:
            code.append((op, reg(instruction.rd),
                         labels[instruction.label]))
        elif op == _JMPR:
            code.append((op, reg(instruction.ra)))
        elif op == _ESC:
            code.append((op, instruction.esc, reg(instruction.ra)))
        elif op == _HALT:
            code.append((op, instruction.imm or 0))
        else:
            raise EmulatorError("cannot decode %r" % (instruction,))
    program._decoded = (code, reg_index)
    return program._decoded


def initial_registers(program, reg_index):
    """The machine register file at program entry."""
    regs = [tags.pack(0, tags.TRAW)] * len(reg_index)
    for name, value in layout.MACHINE_REGISTERS.items():
        tag = tags.TCOD if name in ("CP", "RL") else tags.TRAW
        regs[reg_index[name]] = tags.pack(value, tag)
    return regs


def initial_memory(program):
    """The data memory at program entry (the functor-arity table)."""
    memory = {}
    symbols = program.symbols
    for index in range(symbols.functor_count):
        memory[layout.FTAB_BASE + index] = tags.pack(
            symbols.functor_arity(index), tags.TINT)
    return memory


class Emulator:
    """Runs an ICI program and gathers dynamic statistics."""

    def __init__(self, program, max_steps=500_000_000):
        self.program = program
        self.max_steps = max_steps
        self.code, self.reg_index = decode(program)

    def _initial_registers(self):
        return initial_registers(self.program, self.reg_index)

    def _initial_memory(self):
        return initial_memory(self.program)

    def run(self, collect_stats=True):
        code = self.code
        regs = self._initial_registers()
        # kept on the emulator: the data memory as the run left it
        self.memory = mem = self._initial_memory()
        # Flat signed-64 buffers: one contiguous allocation for the whole
        # run instead of a Python list of boxed ints per program point.
        counts = array("q", bytes(8 * len(code)))
        taken = array("q", bytes(8 * len(code)))
        output = []
        symbols = self.program.symbols

        pc = self.program.entry_pc
        steps = 0
        limit = self.max_steps
        status = None

        try:
            while True:
                ins = code[pc]
                counts[pc] += 1
                steps += 1
                if steps > limit:
                    raise EmulatorError(_STEP_LIMIT % limit)
                op = ins[0]
                if op == _LD:
                    regs[ins[1]] = mem[(regs[ins[2]] >> 4) + ins[3]]
                elif op == _ST:
                    mem[(regs[ins[2]] >> 4) + ins[3]] = regs[ins[1]]
                elif op == _BTAG:
                    if ((regs[ins[1]] >> 1) & 7) == ins[2]:
                        taken[pc] += 1
                        pc = ins[3]
                        continue
                elif op == _BNTAG:
                    if ((regs[ins[1]] >> 1) & 7) != ins[2]:
                        taken[pc] += 1
                        pc = ins[3]
                        continue
                elif op == _MOV:
                    regs[ins[1]] = regs[ins[2]]
                elif op == _LEA:
                    regs[ins[1]] = (((regs[ins[2]] >> 4) + ins[3]) << 4) \
                        | (ins[4] << 1)
                elif op == _LDI:
                    regs[ins[1]] = ins[2]
                elif op == _BEQ:
                    if regs[ins[1]] == regs[ins[2]]:
                        taken[pc] += 1
                        pc = ins[3]
                        continue
                elif op == _BNE:
                    if regs[ins[1]] != regs[ins[2]]:
                        taken[pc] += 1
                        pc = ins[3]
                        continue
                elif op == _JMP:
                    pc = ins[1]
                    continue
                elif op == _CALL:
                    regs[ins[1]] = ((pc + 1) << 4) | (tags.TCOD << 1)
                    pc = ins[2]
                    continue
                elif op == _JMPR:
                    pc = regs[ins[1]] >> 4
                    continue
                elif op == _BLTV:
                    if (regs[ins[1]] >> 4) < (regs[ins[2]] >> 4):
                        taken[pc] += 1
                        pc = ins[3]
                        continue
                elif op == _BLEV:
                    if (regs[ins[1]] >> 4) <= (regs[ins[2]] >> 4):
                        taken[pc] += 1
                        pc = ins[3]
                        continue
                elif op == _BGTV:
                    if (regs[ins[1]] >> 4) > (regs[ins[2]] >> 4):
                        taken[pc] += 1
                        pc = ins[3]
                        continue
                elif op == _BGEV:
                    if (regs[ins[1]] >> 4) >= (regs[ins[2]] >> 4):
                        taken[pc] += 1
                        pc = ins[3]
                        continue
                elif op == _ADD:
                    regs[ins[1]] = (((regs[ins[2]] >> 4)
                                     + (regs[ins[3]] >> 4)) << 4) | 4
                elif op == _SUB:
                    regs[ins[1]] = (((regs[ins[2]] >> 4)
                                     - (regs[ins[3]] >> 4)) << 4) | 4
                elif op == _MUL:
                    regs[ins[1]] = (((regs[ins[2]] >> 4)
                                     * (regs[ins[3]] >> 4)) << 4) | 4
                elif op == _DIV:
                    a = regs[ins[2]] >> 4
                    b = regs[ins[3]] >> 4
                    q = abs(a) // abs(b)
                    if (a < 0) != (b < 0):
                        q = -q
                    regs[ins[1]] = (q << 4) | 4
                elif op == _MOD:
                    a = regs[ins[2]] >> 4
                    b = regs[ins[3]] >> 4
                    q = abs(a) // abs(b)
                    if (a < 0) != (b < 0):
                        q = -q
                    regs[ins[1]] = ((a - q * b) << 4) | 4
                elif op == _AND:
                    regs[ins[1]] = (((regs[ins[2]] >> 4)
                                     & (regs[ins[3]] >> 4)) << 4) | 4
                elif op == _OR:
                    regs[ins[1]] = (((regs[ins[2]] >> 4)
                                     | (regs[ins[3]] >> 4)) << 4) | 4
                elif op == _XOR:
                    regs[ins[1]] = (((regs[ins[2]] >> 4)
                                     ^ (regs[ins[3]] >> 4)) << 4) | 4
                elif op == _SLL:
                    regs[ins[1]] = (((regs[ins[2]] >> 4)
                                     << (regs[ins[3]] >> 4)) << 4) | 4
                elif op == _SRA:
                    regs[ins[1]] = (((regs[ins[2]] >> 4)
                                     >> (regs[ins[3]] >> 4)) << 4) | 4
                elif op == _MKTAG:
                    regs[ins[1]] = (regs[ins[2]] & ~0b1110) | (ins[3] << 1)
                elif op == _GETTAG:
                    regs[ins[1]] = (((regs[ins[2]] >> 1) & 7) << 4) | 4
                elif op == _ESC:
                    if ins[1] == "write":
                        output.append(render_term(mem, symbols,
                                                  regs[ins[2]]))
                    elif ins[1] == "nl":
                        output.append("\n")
                    else:
                        raise EmulatorError("unknown escape %r" % ins[1])
                elif op == _HALT:
                    status = ins[1]
                    break
                else:
                    raise EmulatorError("bad opcode %d" % op)
                pc += 1
        except KeyError as exc:
            raise EmulatorError(
                "uninitialised memory read at pc=%d (%r): address %s"
                % (pc, self.program.instructions[pc], exc)) from exc
        except ZeroDivisionError as exc:
            raise EmulatorError(
                "division by zero at pc=%d (%r)"
                % (pc, self.program.instructions[pc])) from exc

        # The public result keeps plain lists (JSON-friendly, comparable).
        return EmulationResult(self.program, status, steps,
                               "".join(output), list(counts), list(taken))


def render_term(mem, symbols, word, depth=0):
    """Reconstruct a source-level term from tagged memory and render it."""
    return term_to_string(_reify(mem, symbols, word, set()))


def _reify(mem, symbols, word, seen, depth=0):
    if depth > 10_000:
        raise EmulatorError("term too deep to render")
    tag = (word >> 1) & 7
    value = word >> 4
    if tag == tags.TREF:
        target = mem.get(value, word)
        if target == word:
            return Var("_A%d" % value)
        return _reify(mem, symbols, target, seen, depth + 1)
    if tag == tags.TATM:
        return Atom(symbols.atom_name(value))
    if tag == tags.TINT:
        return Int(value)
    if tag == tags.TLST:
        head = _reify(mem, symbols, mem[value], seen, depth + 1)
        tail = _reify(mem, symbols, mem[value + 1], seen, depth + 1)
        return Struct(".", [head, tail])
    if tag == tags.TSTR:
        functor = mem[value]
        name, arity = symbols.functor_key(functor >> 4)
        args = [_reify(mem, symbols, mem[value + 1 + i], seen, depth + 1)
                for i in range(arity)]
        return Struct(name, args)
    return Atom("<%s>" % tags.describe(word))


def run_program(program, max_steps=500_000_000, *, expected_steps=None):
    """Emulate *program* and return the :class:`EmulationResult`.

    The reference loop runs first, for a budget of up to
    :data:`_COMPILE_STEPS_PER_ICI` steps per ICI of the program: a run
    that finishes (or faults) inside that budget is the answer.  Only a
    run that is still going at the budget restarts from the beginning
    on :class:`~repro.emulator.codegen.CodegenEmulator`, which itself
    falls back to the reference loop on anything it cannot handle
    exactly.  *expected_steps* is an advisory run length (say, of a
    program known to do the same work): past the budget, the compiled
    loop runs from the start and no reference prefix is thrown away.
    A wrong hint costs time, never a different result or fault.  Both
    loops produce bit-identical data, and ``result.backend`` names the
    loop that produced it.
    """
    from repro.testing import faults
    from repro.observability import tracing as observe
    if faults.armed("emulator.run") \
            and faults.fire("emulator.run") == "step-limit":
        raise EmulatorError("step limit exceeded (0) [injected at "
                            "emulator.run]")
    # run_program is the hottest instrumentation point (perf-bench
    # loops call it back to back), so it drives the tracer directly
    # instead of through the span context manager.
    tracer = observe.active()
    span = tracer.open("emulator.run") if tracer else None
    try:
        result, discarded, hinted = _emulate(program, max_steps,
                                             expected_steps)
    except BaseException as error:
        if tracer is not None:
            tracer.close(span, error=error)
        raise
    if tracer is not None:
        # the span records the loop that produced the result, the
        # reference steps thrown away before a restart, and whether the
        # hint chose the compiled loop
        tracer.close(span.set(steps=result.steps, status=result.status,
                              backend=result.backend,
                              discarded_steps=discarded, hinted=hinted))
        tracer.metrics.add("emulator.runs")
        tracer.metrics.add("emulator.steps", result.steps)
        tracer.metrics.add("emulator.discarded_steps", discarded)
    return result


def _emulate(program, max_steps, expected_steps):
    """Reference loop up to the compile budget, the compiled loop from
    the start for longer runs.  Returns ``(result, discarded reference
    steps, hinted)``."""
    budget = min(max_steps,
                 _COMPILE_STEPS_PER_ICI * len(program.instructions))
    hinted = max_steps > budget and (expected_steps or 0) > budget
    if not hinted:
        try:
            return Emulator(program, max_steps=budget).run(), 0, False
        except EmulatorError as error:
            if max_steps <= budget or str(error) != _STEP_LIMIT % budget:
                raise
    from repro.emulator.codegen import CodegenEmulator
    result = CodegenEmulator(program, max_steps=max_steps).run()
    return result, 0 if hinted else budget, hinted
