"""Codegen emulator backend: ICI compiled to one Python function.

The reference loop in :mod:`repro.emulator.machine` pays CPython's full
dispatch cost on every dynamic instruction: a tuple fetch, an opcode
comparison chain, a register-file list indexing per operand and
per-step statistics updates.  This backend removes all of them, the way
trace-scheduling compilers (and B-Prolog's instruction specialisation)
do: the whole program is emitted as the *source* of a single Python
function and run through :func:`compile`, with

* **machine registers as function locals** — every operand access is a
  ``LOAD_FAST``/``STORE_FAST`` instead of a list indexing;
* **trace straight-lining** — a dispatch arm inlines the control-flow
  tree below its entry block, following fall-through, ``jmp``,
  ``call`` and *both* sides of conditional branches (bounded code
  duplication, deeper along the statically likely direction —
  backward-taken/forward-not-taken, the paper's own branch heuristic);
* **call-return elimination** — the emitter tracks registers that
  provably hold a known code pointer (``call`` link stores, code-tagged
  ``ldi``), so a ``jmpr`` through one resolves statically and whole
  call/routine/return sequences become straight-line code;
* **value/tag caching and folding** — untagged operand values
  (``r >> 4``) and tag fields (``(r >> 1) & 7``) are computed once per
  trace and reused; a tag test whose operand tag is statically known
  (after ``lea``/``mktag``/``ldi``) folds away entirely, which deletes
  most switch-on-tag dispatch along built-structure paths;
* **loops as Python loops** — an arm whose entry block is its own
  back-edge target compiles to a real ``for`` loop over a shared
  ``range(limit + 1)``, so hot recursion/iteration spins without
  re-entering the dispatcher; every iteration of any loop executes at
  least one ICI step, so exhausting the range proves the step limit
  was exceeded (a bail to the exact reference fault) with no fuel
  counting on the hot path;
* **path-level statistics** — instead of per-block counters, each
  straight-line path through an arm bumps a single slot in a path
  counter array; a post-run replay expands path counts into the per-pc
  ``counts``/``taken`` arrays (each path's block and taken-edge lists
  are static), bit-identical to the reference loop;
* **a small trampoline** — inter-trace branches dispatch on a dense
  block id through a balanced comparison tree.

Compilation happens in-process, once per :class:`Program` (memoised on
it), and nothing is persisted: :func:`~repro.emulator.machine.run_program`
only reaches this backend for runs that outlive its step budget on the
reference loop (2000 steps per ICI) or that its caller expects to, and
a second evaluation of the same program is answered by the
``emulation`` store entry without running anything.

The backend is *semantics-complete or honest*: anything it cannot
compile becomes a bail-out, and any bail-out or machine fault at run
time (wild indirect jump, uninitialised memory read, division by zero,
step limit) falls back to one clean re-run — the reference loop
reproduces the exact result or the exact fault.  A program the
generator declines outright runs on the reference loop too.  Equality
with the reference loop is enforced by ``tests/test_fuzz_equivalence.py``.
"""

from repro.terms import tags
from repro.testing import faults
from repro.emulator.machine import (
    EmulationResult, Emulator, decode, initial_memory, initial_registers,
    render_term,
    _LD, _ST, _MOV, _LEA, _LDI, _JMP, _CALL, _JMPR, _ADD, _SUB, _MUL,
    _DIV, _MOD, _AND, _OR, _XOR, _SLL, _SRA, _BLTV, _BLEV, _BGTV, _BGEV,
    _BTAG, _BNTAG, _BEQ, _BNE, _MKTAG, _GETTAG, _ESC, _HALT)

__all__ = ["CodegenEmulator", "basic_blocks", "codegen_code",
           "generate_source"]

#: control transfers that terminate a basic block
_TERMINATORS = frozenset([
    _BTAG, _BNTAG, _BEQ, _BNE, _BLTV, _BLEV, _BGTV, _BGEV,
    _JMP, _CALL, _JMPR, _HALT])

#: conditional branches (the ops that contribute to ``taken``)
_CONDITIONAL = frozenset([
    _BTAG, _BNTAG, _BEQ, _BNE, _BLTV, _BLEV, _BGTV, _BGEV])

_CMP_OPERATOR = {_BEQ: "==", _BNE: "!=", _BLTV: "<", _BLEV: "<=",
                 _BGTV: ">", _BGEV: ">="}
_ALU_OPERATOR = {_ADD: "+", _SUB: "-", _MUL: "*", _AND: "&", _OR: "|",
                 _XOR: "^", _SLL: "<<", _SRA: ">>"}

#: how deep an arm inlines along its *primary* chain (fall-through,
#: ``jmp``, ``call``, resolved ``jmpr``, and the statically likely side
#: of each conditional: backward-taken / forward-not-taken)
_MAIN_DEPTH = 48

#: how deep the statically *unlikely* side of a conditional inlines
#: before handing the block id back to the dispatcher
_SIDE_DEPTH = 3

#: hard cap on inlined blocks per arm (bounds generated-code growth
#: even when side chains branch richly)
_ARM_CAP = 80

_TCOD_BITS = tags.TCOD << 1
_INT_BITS = tags.TINT << 1

#: the fault-injection site compiled into block prologues when armed
FAULT_SITE = "emulator.codegen.block"

#: rendering tokens for arm control transfers (resolved per arm: an arm
#: that loops is wrapped in ``while True`` and exits with ``break``; a
#: straight-line arm exits with the trampoline's ``continue``)
_EXIT = "\x00exit"
_LOOP = "\x00loop"

_ALU_FUNC = {
    op: {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
         "*": lambda a, b: a * b, "&": lambda a, b: a & b,
         "|": lambda a, b: a | b, "^": lambda a, b: a ^ b,
         "<<": lambda a, b: a << b, ">>": lambda a, b: a >> b}[symbol]
    for op, symbol in _ALU_OPERATOR.items()}

#: ALU ops computable directly on tagged words when both operand tag
#: nibbles are known (``(va ± vb) << 4 | 4`` is ``wa ± wb`` plus a
#: compile-time constant); value is the right operand's sign
_WORD_ALU_SIGN = {op: (1 if symbol == "+" else -1)
                  for op, symbol in _ALU_OPERATOR.items()
                  if symbol in ("+", "-")}

#: shift folds are range-guarded so compile-time folding can never
#: allocate a huge integer a real run would only build at run time
_SHIFT_OPS = {op for op, symbol in _ALU_OPERATOR.items()
              if symbol in ("<<", ">>")}


# --------------------------------------------------------------------------
# Basic blocks and static reachability.

class _Bailout(Exception):
    """Internal: the compiled run hit something only the reference loop
    handles exactly (step-limit edge, unsupported construct, wild jump).
    """


def basic_blocks(program):
    """The basic-block partition of *program*'s decoded code.

    Returns a list of ``(start, end)`` index pairs.  Leaders are the
    entry point, every label (all branch targets are labels, and any
    label may be reached indirectly through ``ldi``/``jmpr``), and the
    instruction after every control transfer (which covers ``call``
    return addresses).
    """
    code, _ = decode(program)
    n = len(code)
    leaders = {program.entry_pc}
    for index in program.labels.values():
        if index < n:
            leaders.add(index)
    for pc, ins in enumerate(code):
        if ins[0] in _TERMINATORS and pc + 1 < n:
            leaders.add(pc + 1)
    starts = sorted(leaders)
    return [(start, end) for start, end in
            zip(starts, starts[1:] + [n])]


def _reachable_indices(code, spans, entry_pc):
    """The block indices codegen must cover, or None for "all of them".

    Compiling every basic block makes the generated module proportional
    to *static* program size, which for one-shot programs (the fuzz
    suite, `repro run`) is dominated by never-called library predicates.
    This walks the static control flow instead: from the entry block,
    follow branch/jump/call targets, fall-throughs, call return sites,
    and every code address materialised by an `ldi` in reachable code
    (the only way a label reaches a register, hence the only possible
    `jmpr` targets — plus pc 0, where the initial CP/RL point).

    Unreached blocks get no dispatch arm; an indirect jump into one
    falls out of the dispatch tree to a bail-out and re-runs on the
    reference loop, so pruning can cost a fallback but never an
    incorrect result.  If reachable code manufactures code-tagged words
    out of thin air (`mktag`/`lea` with the TCOD tag), the analysis
    gives up and returns None.
    """
    index_of = {start: index for index, (start, _end) in enumerate(spans)}
    n = len(code)
    roots = [index_of[entry_pc]]
    if 0 in index_of:
        roots.append(index_of[0])
    reachable = set()
    work = list(roots)
    while work:
        index = work.pop()
        if index in reachable:
            continue
        reachable.add(index)
        start, end = spans[index]
        targets = []
        terminated = False
        for pc in range(start, end):
            ins = code[pc]
            op = ins[0]
            if op == _LDI:
                word = ins[2]
                if word >= 0 and word & 0b1110 == _TCOD_BITS \
                        and (word >> 4) in index_of:
                    targets.append(index_of[word >> 4])
            elif (op == _MKTAG and ins[3] == tags.TCOD) \
                    or (op == _LEA and ins[4] == tags.TCOD):
                return None
            elif op in _TERMINATORS:
                terminated = True
                if op == _JMP:
                    targets.append(index_of[ins[1]])
                elif op == _CALL:
                    targets.append(index_of[ins[2]])
                    if pc + 1 in index_of:
                        targets.append(index_of[pc + 1])
                elif op in _CONDITIONAL:
                    targets.append(index_of[ins[3]])
                    if end < n:
                        targets.append(index_of[end])
                break
        if not terminated and end < n:
            targets.append(index_of[end])
        work.extend(target for target in targets
                    if target not in reachable)
    return reachable


# --------------------------------------------------------------------------
# Source generation.

def _const(value):
    return "(%d)" % value if value < 0 else "%d" % value


class _Path:
    """Mutable per-trace emission state: the statically known register
    facts on this path plus the path's statistics record.  Forked at
    every runtime conditional (each side owns its copies)."""

    __slots__ = ("value", "tag", "nottag", "dirty", "blocks", "takens",
                 "seen")

    def __init__(self, value, tag, nottag, dirty, blocks, takens, seen):
        self.value = value      # reg -> untagged value: int | temp
        #                         name | offset expr ("v0 + 3")
        self.tag = tag          # reg -> tag *bits* (tag << 1, the
        #                         word's low nibble): int | temp name
        self.nottag = nottag    # reg -> set of tag bits excluded by
        #                         earlier not-taken/taken tag branches
        self.dirty = dirty      # regs whose machine word is *stale*:
        #                         value+tag facts are authoritative and
        #                         the pack is sunk to the first word
        #                         read or the end of the path
        self.blocks = blocks    # dense block ids crossed, in order
        self.takens = takens    # dense ids of conditionals exited taken
        self.seen = seen        # block indices on this path (cycle cut)

    def fork(self):
        return _Path(dict(self.value), dict(self.tag),
                     {reg: set(excluded)
                      for reg, excluded in self.nottag.items()},
                     set(self.dirty),
                     list(self.blocks), list(self.takens),
                     set(self.seen))

    def write(self, reg, value=None, tag=None):
        """Register *reg*'s word was assigned: retire or replace its
        facts (a written word is by definition not stale)."""
        if value is None:
            self.value.pop(reg, None)
        else:
            self.value[reg] = value
        if tag is None:
            self.tag.pop(reg, None)
        else:
            self.tag[reg] = tag
        self.nottag.pop(reg, None)
        self.dirty.discard(reg)

    def exclude_tag(self, reg, bits):
        """This path learned ``tagbits(reg) != bits``.  Seven
        exclusions pin the eighth tag exactly."""
        excluded = self.nottag.setdefault(reg, set())
        excluded.add(bits)
        if len(excluded) == 7:
            self.tag[reg] = next(b for b in range(0, 16, 2)
                                 if b not in excluded)


class _ArmCompiler:
    """Emits the dispatch-arm bodies of the generated function."""

    def __init__(self, code, spans, dense_of, index_of, fire=False):
        self.code = code
        self.n = len(code)
        self.spans = spans
        self.dense_of = dense_of    # block index -> dense dispatch id
        self.index_of = index_of    # start pc -> block index
        self.fire = fire
        self.paths = []             # path id -> (blocks, takens)
        # blocks ending in halt are never inlined into another arm:
        # halting happens once per run, dispatching to it is free
        self.halts = {index for index, (_s, end) in enumerate(spans)
                      if code[end - 1][0] == _HALT}

    # -- per-path value/tag bookkeeping ---------------------------------
    #
    # A cache entry is either a compile-time int (the fact itself) or
    # the name of a temp local currently holding the fact.  Before a
    # temp is *reassigned* (its register changed value), every other
    # entry aliasing that name must be retired — the old binding is
    # still correct until exactly that point.

    def _flush_reg(self, reg, path, depth, body):
        """Materialise a sunk register word from its recorded facts."""
        if reg not in path.dirty:
            return
        value, bits = path.value[reg], path.tag[reg]
        body.append((depth, self._pack(reg, self._expr(value), bits)))
        path.dirty.discard(reg)

    def _flush_all(self, path, depth, body):
        for reg in sorted(path.dirty):
            value, bits = path.value[reg], path.tag[reg]
            body.append((depth,
                         self._pack(reg, self._expr(value), bits)))
        path.dirty.clear()

    def _retire(self, name, path, depth, body):
        prefix = name + " "
        for cache in (path.value, path.tag):
            stale = [reg for reg, held in cache.items()
                     if held == name or (isinstance(held, str)
                                         and held.startswith(prefix))]
            for reg in stale:
                # a dirty register's only record of its word is this
                # fact — materialise it before the fact goes stale
                # (the emission point is just before the reassignment)
                self._flush_reg(reg, path, depth, body)
                if reg in cache:
                    del cache[reg]

    @staticmethod
    def _expr(fact):
        if isinstance(fact, int):
            return _const(fact)
        return "(%s)" % fact if " " in fact else fact

    def _value_of(self, reg, path, depth, body):
        """``r<reg> >> 4`` as a known int or a cached temp name."""
        known = path.value.get(reg)
        if known is not None:
            return known
        name = "v%d" % reg
        self._retire(name, path, depth, body)
        body.append((depth, "%s = r%d >> 4" % (name, reg)))
        path.value[reg] = name
        return name

    def _tag_of(self, reg, path, depth, body):
        """Tag *bits* of ``r<reg>`` (``tag << 1``) as a known int or a
        cached temp — one mask instead of shift-and-mask."""
        known = path.tag.get(reg)
        if known is not None:
            return known
        name = "g%d" % reg
        self._retire(name, path, depth, body)
        body.append((depth, "%s = r%d & 14" % (name, reg)))
        path.tag[reg] = name
        return name

    def _pack(self, rd, expr, bits):
        """``r<rd> = (expr << 4) | bits`` — the ``| 0`` of a reference
        tag (the most common built word) elides."""
        if bits:
            return "r%d = (%s << 4) | %d" % (rd, expr, bits)
        return "r%d = %s << 4" % (rd, expr)

    @staticmethod
    def _offset(expr, offset):
        """Fold a constant offset into a value expression (offset
        expressions are always of the shape ``name ± k``)."""
        parts = expr.split(" ")
        if len(parts) == 3:
            expr = parts[0]
            offset += int(parts[2]) if parts[1] == "+" \
                else -int(parts[2])
        if not offset:
            return expr
        if offset > 0:
            return "%s + %d" % (expr, offset)
        return "%s - %d" % (expr, -offset)

    def _address(self, reg, offset, path, depth, body):
        """``(r<reg> >> 4) + offset`` as ``(expression, known_int)``."""
        base = self._value_of(reg, path, depth, body)
        if isinstance(base, int):
            return _const(base + offset), base + offset
        return self._offset(base, offset), None

    # -- arm emission ---------------------------------------------------

    def emit_arm(self, entry_index):
        """One dispatch arm as (depth, text) lines, depth-relative to
        the arm's base.  Control transfers back to the entry block
        render as a loop ``continue``; every other exit ends the
        current path (one counter bump) and either dispatches or
        returns."""
        self.arm_entry = entry_index
        self.arm_nodes = 0
        self.has_loop = False
        body = []
        path = _Path({}, {}, {}, set(), [], [], {entry_index})
        budget = 0 if self.fire else _MAIN_DEPTH
        self._emit_block(entry_index, 0, path, budget, body)
        return body, self.has_loop

    def _end_path(self, path, depth, body):
        """Close the running trace: materialise every sunk register
        word, allocate the path id and bump it."""
        self._flush_all(path, depth, body)
        k = len(self.paths)
        self.paths.append((tuple(path.blocks), tuple(path.takens)))
        body.append((depth, "P[%d] += 1" % k))
        return k

    def _emit_block(self, index, depth, path, budget, body):
        code = self.code
        start, end = self.spans[index]
        self.arm_nodes += 1
        path.blocks.append(self.dense_of[index])
        if self.fire:
            body.append((depth, "FIRE()"))
        for position in range(start, end):
            ins = code[position]
            if ins[0] in _TERMINATORS:
                self._emit_terminator(index, position, ins, end, depth,
                                      path, budget, body)
                return
            self._emit_straightline(ins, depth, path, body)
        # fall-through into the next block, or off the end of the code
        # (which only the reference loop faults on exactly)
        if end < self.n:
            self._transfer(end, depth, path, budget, body)
        else:
            body.append((depth, "raise Bail"))

    def _transfer(self, pc, depth, path, budget, body):
        """Control moves to the block starting at *pc*: loop, inline or
        dispatch."""
        index = self.index_of[pc]
        if index == self.arm_entry:
            self.has_loop = True
            self._end_path(path, depth, body)
            body.append((depth, _LOOP))
            return
        # cycles are cut at one pass: unrolling them inline explodes
        # the path table (and with it source size and the per-run
        # replay) faster than it saves trampoline rounds
        if budget > 0 and self.arm_nodes < _ARM_CAP \
                and index not in path.seen \
                and index not in self.halts:
            path.seen.add(index)
            self._emit_block(index, depth, path, budget - 1, body)
            return
        body.append((depth, "block = %d" % self.dense_of[index]))
        self._end_path(path, depth, body)
        body.append((depth, _EXIT))

    def _emit_straightline(self, ins, depth, path, body):
        op = ins[0]
        if op == _LD:
            address, _known = self._address(ins[2], ins[3], path,
                                            depth, body)
            body.append((depth, "r%d = mem[%s]" % (ins[1], address)))
            path.write(ins[1])
        elif op == _ST:
            self._flush_reg(ins[1], path, depth, body)
            address, _known = self._address(ins[2], ins[3], path,
                                            depth, body)
            body.append((depth, "mem[%s] = r%d" % (address, ins[1])))
        elif op == _MOV:
            if ins[2] in path.dirty:
                # the source word is sunk: copy the facts, not the word
                path.write(ins[1], path.value[ins[2]],
                           path.tag[ins[2]])
                path.dirty.add(ins[1])
            else:
                body.append((depth, "r%d = r%d" % (ins[1], ins[2])))
                path.write(ins[1], path.value.get(ins[2]),
                           path.tag.get(ins[2]))
                if ins[2] in path.nottag:
                    path.nottag[ins[1]] = set(path.nottag[ins[2]])
        elif op == _LDI:
            body.append((depth, "r%d = %s" % (ins[1], _const(ins[2]))))
            path.write(ins[1], ins[2] >> 4, ins[2] & 14)
        elif op == _LEA:
            expr, known = self._address(ins[2], ins[3], path, depth,
                                        body)
            bits = ins[4] << 1
            if known is not None:
                body.append((depth, "r%d = %s"
                             % (ins[1], _const((known << 4) | bits))))
                path.write(ins[1], known, bits)
                return
            # no code at all: the new word is a pure fact, sunk until
            # something reads it (heap/stack-top bumps collapse into
            # constant offsets in later addresses and a single pack)
            path.write(ins[1], expr, bits)
            path.dirty.add(ins[1])
        elif op == _MKTAG:
            value = path.value.get(ins[2])
            if value is not None and ins[2] not in path.dirty:
                # the value field is known: build the word lazily too
                path.write(ins[1], value, ins[3] << 1)
                path.dirty.add(ins[1])
            elif ins[2] in path.dirty:
                path.write(ins[1], path.value[ins[2]], ins[3] << 1)
                path.dirty.add(ins[1])
            else:
                body.append((depth, "r%d = (r%d & -15) | %d"
                             % (ins[1], ins[2], ins[3] << 1)))
                # retagging preserves the value field
                path.write(ins[1], None, ins[3] << 1)
        elif op == _GETTAG:
            known = path.tag.get(ins[2])
            if isinstance(known, int):
                body.append((depth, "r%d = %d"
                             % (ins[1],
                                ((known >> 1) << 4) | _INT_BITS)))
                path.write(ins[1], known >> 1, _INT_BITS)
            else:
                bits = self._tag_of(ins[2], path, depth, body)
                body.append((depth, "r%d = (%s << 3) | %d"
                             % (ins[1], bits, _INT_BITS)))
                path.write(ins[1], None, _INT_BITS)
        elif op in _ALU_OPERATOR:
            self._emit_alu(ins, depth, path, body)
        elif op in (_DIV, _MOD):
            left = self._expr(self._value_of(ins[2], path, depth, body))
            right = self._expr(self._value_of(ins[3], path, depth,
                                              body))
            body.append((depth, "va = %s" % left))
            body.append((depth, "vb = %s" % right))
            body.append((depth, "vq = abs(va) // abs(vb)"))
            body.append((depth, "if (va < 0) != (vb < 0):"))
            body.append((depth + 1, "vq = -vq"))
            name = "v%d" % ins[1]
            self._retire(name, path, depth, body)
            if op == _DIV:
                body.append((depth, "%s = vq" % name))
            else:
                body.append((depth, "%s = va - vq * vb" % name))
            body.append((depth, "r%d = (%s << 4) | %d"
                         % (ins[1], name, _INT_BITS)))
            path.write(ins[1], name, _INT_BITS)
        elif op == _ESC:
            if ins[1] == "write" and ins[2] is not None:
                self._flush_reg(ins[2], path, depth, body)
                body.append((depth, "out_append(W(r%d))" % ins[2]))
            elif ins[1] == "nl":
                body.append((depth, 'out_append("\\n")'))
            else:
                body.append((depth, "raise Bail"))
        else:  # pragma: no cover - decode() admits no other opcode
            raise AssertionError("unreachable opcode %d" % op)

    def _emit_alu(self, ins, depth, path, body):
        """Integer ALU ops: constant-fold when both operand values are
        known; emit add/sub directly on tagged words when both operand
        tag bits are known (``(va+vb)<<4 | 4 == wa + wb + 4-ba-bb``, so
        one expression replaces shift/shift/op/pack); classic
        shift-and-pack otherwise."""
        op, rd = ins[0], ins[1]
        va = path.value.get(ins[2])
        vb = path.value.get(ins[3])
        if isinstance(va, int) and isinstance(vb, int) \
                and (op not in _SHIFT_OPS or 0 <= vb <= 64):
            folded = _ALU_FUNC[op](va, vb)
            body.append((depth, "r%d = %s"
                         % (rd, _const((folded << 4) | _INT_BITS))))
            path.write(rd, folded, _INT_BITS)
            return
        if op in _WORD_ALU_SIGN and ins[2] not in path.dirty \
                and ins[3] not in path.dirty:
            ba = va if isinstance(va, int) else path.tag.get(ins[2])
            bb = vb if isinstance(vb, int) else path.tag.get(ins[3])
            if isinstance(ba, int) and isinstance(bb, int):
                sign = _WORD_ALU_SIGN[op]
                constant = _INT_BITS
                terms = []
                if isinstance(va, int):
                    constant += va << 4
                else:
                    terms.append("r%d" % ins[2])
                    constant -= ba
                if isinstance(vb, int):
                    constant += sign * (vb << 4)
                else:
                    terms.append("%sr%d" % ("- " if sign < 0 else "+ ",
                                            ins[3]))
                    constant -= sign * bb
                expr = " ".join(terms).lstrip("+ ")
                if constant > 0:
                    expr += " + %d" % constant
                elif constant < 0:
                    expr += " - %d" % -constant
                body.append((depth, "r%d = %s" % (rd, expr)))
                path.write(rd, None, _INT_BITS)
                return
        left = self._expr(self._value_of(ins[2], path, depth, body))
        right = self._expr(self._value_of(ins[3], path, depth, body))
        name = "v%d" % rd
        self._retire(name, path, depth, body)
        body.append((depth, "%s = %s %s %s"
                     % (name, left, _ALU_OPERATOR[op], right)))
        body.append((depth, "r%d = (%s << 4) | %d"
                     % (rd, name, _INT_BITS)))
        path.write(rd, name, _INT_BITS)

    def _emit_terminator(self, index, position, ins, end, depth, path,
                         budget, body):
        op = ins[0]
        if op == _JMP:
            self._transfer(ins[1], depth, path, budget, body)
            return
        if op == _CALL:
            link = ((position + 1) << 4) | _TCOD_BITS
            body.append((depth, "r%d = %d" % (ins[1], link)))
            path.write(ins[1], position + 1, _TCOD_BITS)
            self._transfer(ins[2], depth, path, budget, body)
            return
        if op == _JMPR:
            # return through a link register whose value this path just
            # stored: resolve the indirect jump statically
            known = path.value.get(ins[1])
            if isinstance(known, int) and known in self.index_of:
                self._transfer(known, depth, path, budget, body)
                return
            value = self._expr(self._value_of(ins[1], path, depth,
                                              body))
            body.append((depth, "block = J[%s]" % value))
            self._end_path(path, depth, body)
            body.append((depth, _EXIT))
            return
        if op == _HALT:
            # the run is over: close the path and return the halt code
            # (the path counters live in the caller's array; the exact
            # step-limit check happens during replay, where the caller
            # computes the true step count anyway)
            self._end_path(path, depth, body)
            body.append((depth, "return %d" % ins[1]))
            return
        # -- conditional branches ---------------------------------------
        test = self._branch_test(ins, path, depth, body)
        if test is True or test is False:
            # statically decided (tag known after lea/mktag/ldi):
            # no runtime branch at all, the path record absorbs it
            if test:
                path.takens.append(self.dense_of[index])
                self._transfer(ins[3], depth, path, budget, body)
            elif end < self.n:
                self._transfer(end, depth, path, budget, body)
            else:
                body.append((depth, "raise Bail"))
            return
        # runtime branch: inline deeper along the likely side, by the
        # paper's static heuristic (backward-taken / forward-not-taken)
        taken_primary = ins[3] <= position
        taken_budget = budget - 1 if taken_primary \
            else min(budget - 1, _SIDE_DEPTH)
        fall_budget = budget - 1 if not taken_primary \
            else min(budget - 1, _SIDE_DEPTH)
        body.append((depth, "if %s:" % test))
        taken = path.fork()
        taken.takens.append(self.dense_of[index])
        # each side of a tag test narrows what it knows about the tag,
        # so later tests in a switch-on-tag chain fold away
        if op == _BTAG:
            taken.tag[ins[1]] = ins[2] << 1
            path.exclude_tag(ins[1], ins[2] << 1)
        elif op == _BNTAG:
            taken.exclude_tag(ins[1], ins[2] << 1)
            path.tag[ins[1]] = ins[2] << 1
        self._transfer(ins[3], depth + 1, taken, taken_budget, body)
        if end < self.n:
            self._transfer(end, depth, path, fall_budget, body)
        else:
            body.append((depth, "raise Bail"))

    def _compare_operand(self, reg, path, depth, body):
        """An expression whose value is ``value(r<reg>) << 4`` — the
        scale cancels in comparisons, so a register with known tag bits
        compares at word level without any shift."""
        known = path.value.get(reg)
        if isinstance(known, int):
            return _const(known << 4)
        bits = path.tag.get(reg)
        if isinstance(bits, int) and known is None:
            return "r%d - %d" % (reg, bits) if bits else "r%d" % reg
        value = self._value_of(reg, path, depth, body)
        return "(%s << 4)" % value if isinstance(value, str) \
            else _const(value << 4)

    def _branch_test(self, ins, path, depth, body):
        """The branch condition as a Python expression — or True/False
        when it folds at compile time."""
        op = ins[0]
        if op in (_BTAG, _BNTAG):
            bits = ins[2] << 1
            known = path.tag.get(ins[1])
            if isinstance(known, int):
                return (known == bits) if op == _BTAG \
                    else (known != bits)
            if bits in path.nottag.get(ins[1], ()):
                return op == _BNTAG
            # tests rarely re-read the raw extract (the branch sides
            # learn the tag as a fact), so fusing the mask into the
            # compare beats materialising a temp first
            tag = known if isinstance(known, str) \
                else "(r%d & 14)" % ins[1]
            return "%s %s %d" % (tag, "==" if op == _BTAG else "!=",
                                 bits)
        if op in (_BEQ, _BNE):
            self._flush_reg(ins[1], path, depth, body)
            self._flush_reg(ins[2], path, depth, body)
            return "r%d %s r%d" % (ins[1], _CMP_OPERATOR[op], ins[2])
        left = self._compare_operand(ins[1], path, depth, body)
        right = self._compare_operand(ins[2], path, depth, body)
        return "%s %s %s" % (left, _CMP_OPERATOR[op], right)


def _render_arm(lines, body, has_loop, depth):
    """Render an arm's (relative_depth, text) body at *depth*.  A
    looping arm wraps in a bounded ``for`` over SPIN (``range(limit +
    1)`` — every iteration executes at least one step, so exhausting
    it proves the step limit is blown and the ``else`` clause bails
    honestly); transfers render as ``break``/``continue``."""
    if has_loop:
        lines.append("    " * depth + "for _ in SPIN:")
        inner = depth + 1
        exit_token, loop_token = "break", "continue"
    else:
        inner = depth
        exit_token, loop_token = "continue", None
    for relative, text in body:
        if text is _EXIT:
            text = exit_token
        elif text is _LOOP:
            text = loop_token
        lines.append("    " * (inner + relative) + text)
    if has_loop:
        lines.append("    " * depth + "else:")
        lines.append("    " * (depth + 1) + "raise Bail")
        # the only other way out of the arm loop is `break`: hand the
        # new block id back to the trampoline
        lines.append("    " * depth + "continue")


def generate_source(program, fire=False):
    """The generated module source + dispatch metadata for *program*.

    Returns ``(source, blocks, jump, entry_dense, paths)`` where
    *blocks* is the dense-id-ordered list of ``(start, end, cond_pc)``
    triples, *jump* maps a pc to a dense block id (or -1),
    *entry_dense* is baked into the function as the initial dispatch
    id, and *paths* is the path table — per path id, the tuple of
    dense block ids it crosses and the dense ids of conditionals it
    exits taken (the post-run statistics replay).  With *fire* the
    ``emulator.codegen.block`` fault hook is compiled into every block
    prologue and inlining is disabled (chaos runs only — never
    memoised).
    """
    code, reg_index = decode(program)
    spans = basic_blocks(program)
    reachable = _reachable_indices(code, spans, program.entry_pc)
    if reachable is None:
        compiled = list(range(len(spans)))
    else:
        compiled = sorted(reachable)
    dense_of = {index: dense for dense, index in enumerate(compiled)}
    index_of = {start: index
                for index, (start, _end) in enumerate(spans)}
    blocks = []
    for index in compiled:
        start, end = spans[index]
        cond = end - 1 if code[end - 1][0] in _CONDITIONAL else -1
        blocks.append((start, end, cond))
    jump = [-1] * len(code)
    for dense, (start, _end, _cond) in enumerate(blocks):
        jump[start] = dense
    entry_dense = dense_of[index_of[program.entry_pc]]

    lines = ["def _run(regs, mem, out_append, W, P, L, limit, J, "
             "Bail, FIRE=None):"]
    for reg in range(len(reg_index)):
        lines.append("    r%d = regs[%d]" % (reg, reg))
    lines.append("    block = %d" % entry_dense)
    # every trampoline iteration (and every arm-loop iteration)
    # executes at least one instruction, so range(limit + 1) bounds
    # both: exhaustion proves the step limit is blown, and the exact
    # zip-sum check at every halt catches runs that finish past it
    lines.append("    SPIN = range(limit + 1)")
    lines.append("    for _ in SPIN:")
    compiler = _ArmCompiler(code, spans, dense_of, index_of, fire=fire)

    def emit_dispatch(lo, hi, depth):
        # a balanced comparison tree over dense ids [lo, hi); an id
        # matching no leaf (the J table's -1 sentinel, a pruned block)
        # falls out of the tree to the trampoline's final `raise Bail`
        if lo + 1 == hi:
            lines.append("    " * depth + "if block == %d:" % lo)
            body, has_loop = compiler.emit_arm(compiled[lo])
            _render_arm(lines, body, has_loop, depth + 1)
            return
        mid = (lo + hi + 1) // 2
        lines.append("    " * depth + "if block < %d:" % mid)
        emit_dispatch(lo, mid, depth + 1)
        lines.append("    " * depth + "else:")
        emit_dispatch(mid, hi, depth + 1)

    emit_dispatch(0, len(blocks), 2)
    lines.append("        raise Bail")
    lines.append("    raise Bail")
    return ("\n".join(lines) + "\n", blocks, jump, entry_dense,
            compiler.paths)


# --------------------------------------------------------------------------
# Compilation.

class _CodegenCode:
    """One program's compiled codegen backend (memoised on the Program)."""

    __slots__ = ("run", "blocks", "jump", "n", "paths", "lengths", "fire",
                 "pcs")

    def __init__(self, run, blocks, jump, n, paths, fire):
        self.run = run          # the generated _run function
        self.blocks = blocks    # per dense id: (start, end, cond_pc)
        self.jump = jump        # pc -> dense id (or -1): jmpr table
        self.n = n              # program length in instructions
        self.paths = paths      # path id -> (dense blocks, dense takens)
        self.fire = fire        # compiled with the fault hook armed
        # lazily flattened (pcs, taken_pcs) per path, for the replay
        self.pcs = [None] * len(paths)
        self.lengths = tuple(
            sum(blocks[dense][1] - blocks[dense][0]
                for dense in path_blocks)
            for path_blocks, _takens in paths)


#: sentinel memoising "the generator declined" on the Program
_DECLINED = object()


def codegen_code(program):
    """Compile *program* for the codegen backend, or None when the
    generator declines (the reference loop then runs instead).

    Memoised on the Program.  A compile under an armed
    ``emulator.codegen.block`` fault is not memoised — the hook must
    not leak into clean runs.
    """
    from repro.observability import tracing as observe
    fire = faults.armed(FAULT_SITE)
    cached = getattr(program, "_codegen", None)
    if cached is not None and not fire:
        return cached if cached is not _DECLINED else None
    with observe.span("codegen.compile", fire=fire) as span:
        compiled = _compile(program, fire, span)
    if not fire:
        program._codegen = compiled if compiled is not None \
            else _DECLINED
    return compiled


def _compile(program, fire, span):
    from repro.observability import tracing as observe
    try:
        source, blocks, jump, _entry, paths = generate_source(
            program, fire=fire)
        namespace = {}
        exec(compile(source, "<codegen:%s>" % program.entry, "exec"),
             namespace)
    except (SyntaxError, RecursionError, MemoryError, ValueError):
        # a program shape the generator cannot express (e.g. dispatch
        # nesting past the parser limit): decline, run the reference
        observe.add("emulator.codegen.compile_declined")
        span.set(declined=True)
        return None
    span.set(blocks=len(blocks))
    return _CodegenCode(namespace["_run"], blocks, jump,
                        len(decode(program)[0]), paths, fire)


# --------------------------------------------------------------------------
# Execution.

class CodegenEmulator:
    """Drop-in twin of :class:`~repro.emulator.machine.Emulator` running
    the compiled-function backend."""

    def __init__(self, program, max_steps=500_000_000):
        self.program = program
        self.max_steps = max_steps
        self.code, self.reg_index = decode(program)
        self.compiled = codegen_code(program)

    def _fallback(self):
        """Re-run on the reference loop (deterministic programs: exact
        same result, or the exact same fault with its precise pc)."""
        from repro.observability import tracing as observe
        observe.add("emulator.codegen.fallbacks")
        emulator = Emulator(self.program, max_steps=self.max_steps)
        result = emulator.run()
        self.memory = emulator.memory
        return result

    def run(self):
        compiled = self.compiled
        if compiled is None:
            return self._fallback()
        program = self.program
        regs = initial_registers(program, self.reg_index)
        # kept on the emulator: the data memory as the run left it
        self.memory = mem = initial_memory(program)
        P = [0] * len(compiled.paths)
        out = []
        symbols = program.symbols

        def write_term(word):
            return render_term(mem, symbols, word)

        hook = _fire_hook if compiled.fire else None
        try:
            status = compiled.run(regs, mem, out.append, write_term,
                                  P, compiled.lengths, self.max_steps,
                                  compiled.jump, _Bailout, hook)
        except (_Bailout, KeyError, ZeroDivisionError, IndexError,
                TypeError):
            return self._fallback()

        # replay: expand path counts into the per-pc statistics (each
        # path's block and taken-edge lists are static; the flattened
        # pc lists are memoised on the compiled code)
        blocks = compiled.blocks
        pcs = compiled.pcs
        steps = 0
        counts = [0] * compiled.n
        taken = [0] * compiled.n
        for k, count in enumerate(P):
            if not count:
                continue
            flat = pcs[k]
            if flat is None:
                path_blocks, takens = compiled.paths[k]
                flat = pcs[k] = (
                    tuple(pc for dense in path_blocks
                          for pc in range(*blocks[dense][:2])),
                    tuple(blocks[dense][2] for dense in takens))
            path_pcs, taken_pcs = flat
            steps += count * len(path_pcs)
            for pc in path_pcs:
                counts[pc] += count
            for pc in taken_pcs:
                taken[pc] += count
        if steps > self.max_steps:
            # ran to completion but past the limit: the reference loop
            # would have faulted mid-run, so reproduce that exactly
            return self._fallback()
        return EmulationResult(program, status, steps, "".join(out),
                               counts, taken, backend="codegen")


def _fire_hook():
    """The compiled-in fault site: ``bail`` forces the exact-fallback
    path from inside a compiled block; ``error`` raises InjectedFault
    (enacted by :func:`faults.fire` itself)."""
    if faults.fire(FAULT_SITE) == "bail":
        raise _Bailout
