"""Independent schedule verifier ("the checker", part 2).

The trace-scheduling result chain (Tables 1/3, Figure 6) is only as good
as the legality of the code motion behind it: speculation must respect
off-live sets (section 4.3), stores must never float above branches, the
shared memory port must never be oversubscribed (section 4.1's shared-
memory hypothesis), and compensation code at trace side entrances must
restore sequential semantics (section 3.1's bookkeeping).  This module
re-derives every one of those constraints *from first principles* — its
own read/write/memory/off-live computations, sharing nothing with
:func:`repro.analysis.dependence.build_dag` or the scheduler — and checks
them against the artefacts the compiler actually produced:

* :func:`check_schedule` — cycle-accurate dependence and resource
  legality of one :class:`~repro.compaction.scheduler.Schedule`;
* :func:`check_transform` — a control-flow bisimulation between the
  original program and its superblock-transformed layout (every path,
  including every off-trace exit through compensation code, must replay
  the same instruction sequence);
* :func:`check_regions` — region-table sanity: contiguous cover and the
  single-entry property (no label resolves into a region interior);
* :func:`check_allocation` — no two simultaneously-live values share a
  physical register in a register binding.

All checkers return lists of :class:`~repro.analysis.lint.Diagnostic`
and never raise.  :func:`repro.evaluation.pipeline.verify_evaluation`
runs all of them over one compiled and profiled program; it is what
``repro verify``, the service's ``verify`` op and the corpus sweep call.
"""

from repro.analysis.lint import (
    Diagnostic, _leaders_and_entries, _abi_registers)
from repro.intcode.ici import (
    OP_CLASS, BRANCH_OPS, CONTROL_OPS, MEM, ALU, MOVE, CTRL)

__all__ = [
    "check_schedule",
    "check_pruned_edges",
    "check_transform",
    "check_regions",
    "check_allocation",
    "NameLiveness",
    "off_live_names",
]


# -- independent memory-bank classification ---------------------------------

#: area-pointer register -> data area, re-derived from the layout contract
#: (repro.intcode.layout): every area pointer provably stays inside its
#: 1M-word region, all other base registers are computed term addresses.
_AREA_POINTERS = {
    "H": "heap", "HB": "heap",
    "E": "env", "ES": "env", "K_ENVB": "env",
    "B": "choice", "BT": "choice", "B0": "choice",
    "TR": "trail",
    "PD": "pdl", "K_PDLB": "pdl",
}


def _bank(instruction):
    base = instruction.ra if instruction.op == "ld" else instruction.rb
    return _AREA_POINTERS.get(base)


def _banks_conflict(a, b):
    """Two memory operations may touch the same word unless both base
    registers are pointers into provably distinct data areas."""
    if a is None or b is None:
        return True
    return a == b


class _RegionIndependence:
    """Checker-side must-not-alias proof for one region's memory
    references, re-derived from scratch (it shares nothing with
    :class:`repro.analysis.dataflow.RegionMemoryFacts`, which the
    scheduler consumes).

    Two references provably touch different words when their base
    registers are area pointers into distinct data areas, or when they
    carry the *same base value* — the same register version, tracked
    through region-local ``mov`` copies — at different immediate
    offsets."""

    def __init__(self, instructions):
        self.instructions = instructions
        self._value = {}          # position -> (root, version) of the base
        self._offset = {}
        self._area = {}           # position -> data area name or None
        generation = {}
        alias_of = {}             # copy register -> (root, version)
        for pos, instruction in enumerate(instructions):
            if instruction.op in ("ld", "st"):
                base = instruction.ra if instruction.op == "ld" \
                    else instruction.rb
                self._value[pos] = alias_of.get(
                    base, (base, generation.get(base, 0)))
                self._offset[pos] = instruction.imm or 0
                self._area[pos] = _AREA_POINTERS.get(base)
            written = instruction.writes()
            for name in written:
                generation[name] = generation.get(name, 0) + 1
                alias_of.pop(name, None)
            if written:
                stale = [copy for copy, (root, _v) in alias_of.items()
                         if root in written]
                for copy in stale:
                    del alias_of[copy]
            if instruction.op == "mov" and instruction.rd is not None:
                source = instruction.ra
                value = alias_of.get(
                    source, (source, generation.get(source, 0)))
                if value[0] != instruction.rd:
                    alias_of[instruction.rd] = value

    def independent(self, i, j):
        """Do the memory operations at positions *i*, *j* provably
        touch different words?"""
        if i not in self._value or j not in self._value:
            return False
        area_i, area_j = self._area[i], self._area[j]
        if area_i is not None and area_j is not None \
                and area_i != area_j:
            return True
        return self._value[i] == self._value[j] \
            and self._offset[i] != self._offset[j]


def _dead_positions(instructions, off_live, live_out):
    """Region positions whose register write is provably dead, with the
    checker's name-set vocabulary (the mirror of
    :func:`repro.analysis.dataflow.region_dead_writes`, independently
    re-derived).

    ``off_live`` maps branch positions to the *names* live on the
    branch's off-trace path; ``live_out`` is the set of names live at
    the region's fall-through end.  ``live_out=None`` means unknown —
    nothing is provably dead.  A region exit with an unknown
    continuation (``jmp``/``jmpr``/``call``, or a branch missing from
    ``off_live``) makes every name live at that point."""
    if live_out is None:
        return frozenset()
    off_live = off_live or {}
    universe = set(live_out)
    for names in off_live.values():
        if names:
            universe |= set(names)
    for instruction in instructions:
        universe.update(instruction.reads())
        universe.update(instruction.writes())

    dead = set()
    live = set(live_out)
    for index in range(len(instructions) - 1, -1, -1):
        instruction = instructions[index]
        op = instruction.op
        if op in CONTROL_OPS:
            if op == "halt":
                live = set()
            elif op in BRANCH_OPS:
                names = off_live.get(index)
                live = set(universe) if names is None else (live | names)
            else:
                live = set(universe)
        else:
            written = instruction.writes()
            if written and op not in ("st", "esc") \
                    and not any(name in live for name in written):
                dead.add(index)
            live.difference_update(written)
        live.update(instruction.reads())
    return frozenset(dead)


# -- schedule legality -------------------------------------------------------

def _schedule_shape(instructions, schedule, stage, region):
    diags = []
    cycles = schedule.cycles
    if len(cycles) != len(instructions):
        diags.append(Diagnostic(
            stage, "schedule-shape",
            "schedule covers %d ops, region has %d"
            % (len(cycles), len(instructions)), region=region))
        return diags
    for pos, cycle in enumerate(cycles):
        if not isinstance(cycle, int) or cycle < 0:
            diags.append(Diagnostic(
                stage, "schedule-shape",
                "op has no legal issue cycle (%r)" % (cycle,),
                pos=pos, region=region))
    if not diags and cycles \
            and schedule.length != max(cycles) + 1:
        diags.append(Diagnostic(
            stage, "schedule-shape",
            "schedule length %d != last issue cycle + 1 (%d)"
            % (schedule.length, max(cycles) + 1), region=region))
    return diags


def _dependence_diagnostics(instructions, schedule, config, off_live,
                            stage, region, live_out=None):
    """Re-derive every ordering constraint pairwise and check it
    cycle-accurately against the issue cycles."""
    diags = []
    cycles = schedule.cycles
    units = schedule.units
    penalty = config.inter_unit_penalty
    bbl = config.branch_branch_latency
    speculation = config.speculation
    n = len(instructions)

    # Under analysis_prune the scheduler may legally drop the ordering
    # of a proven-independent memory pair and the WAW edge into a dead
    # write; the checker re-proves both facts from first principles
    # before accepting the corresponding reorderings.
    if getattr(config, "analysis_prune", False):
        independence = _RegionIndependence(instructions)
        dead = _dead_positions(instructions, off_live, live_out)
    else:
        independence = None
        dead = frozenset()

    def bad(rule, pos, message):
        diags.append(Diagnostic(stage, rule, message, pos=pos,
                                region=region))

    last_writer = {}

    for j in range(n):
        ins_j = instructions[j]
        op_j = ins_j.op
        is_control_j = op_j in CONTROL_OPS
        writes_j = ins_j.writes()
        reads_j = ins_j.reads()

        # RAW: j must start after its operands are produced (and pay the
        # transfer penalty when the producer sits on another unit).
        for name in reads_j:
            i = last_writer.get(name)
            if i is None:
                continue
            need = cycles[i] + config.duration(instructions[i].op)
            if penalty and units is not None and units[i] != units[j]:
                need += penalty
                rule = "inter-unit-latency"
            else:
                rule = "raw-latency"
            if cycles[j] < need:
                bad(rule, j,
                    "%r issues at cycle %d but its operand %s is "
                    "produced by op %d (%r) at cycle %d + latency"
                    % (ins_j, cycles[j], name, i, instructions[i],
                       cycles[i]))

        for i in range(j):
            ins_i = instructions[i]
            op_i = ins_i.op
            # WAR / WAW on every register.
            for name in writes_j:
                if name in ins_i.reads() and cycles[j] < cycles[i]:
                    bad("war-order", j,
                        "%r overwrites %s at cycle %d before op %d (%r) "
                        "reads it at cycle %d"
                        % (ins_j, name, cycles[j], i, ins_i, cycles[i]))
                if name in ins_i.writes() and cycles[j] < cycles[i] + 1 \
                        and j not in dead:
                    bad("waw-order", j,
                        "%r rewrites %s at cycle %d, not after op %d "
                        "(%r) at cycle %d"
                        % (ins_j, name, cycles[j], i, ins_i, cycles[i]))
            # Memory ordering: no disambiguation across conflicting areas.
            if op_j in ("ld", "st") and op_i in ("ld", "st") \
                    and not (op_i == "ld" and op_j == "ld"):
                use_banks = config.bank_disambiguation
                conflict = _banks_conflict(_bank(ins_i), _bank(ins_j)) \
                    if use_banks else True
                if conflict and independence is not None \
                        and independence.independent(i, j):
                    conflict = False
                if conflict:
                    need = cycles[i] if (op_i == "ld") else cycles[i] + 1
                    rule = "store-load-order" if op_i == "ld" \
                        else "mem-order"
                    if cycles[j] < need:
                        bad(rule, j,
                            "%r at cycle %d reorders against op %d (%r) "
                            "at cycle %d on possibly-aliasing memory"
                            % (ins_j, cycles[j], i, ins_i, cycles[i]))
            # Host escapes stay strictly ordered (observable output).
            if op_j == "esc" and op_i == "esc" \
                    and cycles[j] < cycles[i] + 1:
                bad("esc-order", j,
                    "%r at cycle %d not after earlier escape op %d "
                    "at cycle %d" % (ins_j, cycles[j], i, cycles[i]))

            if op_i in CONTROL_OPS:
                if is_control_j:
                    # Branch order is preserved; single-way machines
                    # serialise consecutive branches.
                    need = cycles[i] + (bbl if op_j in BRANCH_OPS else 0)
                    if cycles[j] < need:
                        bad("branch-order", j,
                            "control op %r at cycle %d issues before "
                            "earlier control op %d (%r) at cycle %d"
                            % (ins_j, cycles[j], i, ins_i, cycles[i]))
                else:
                    # Upward code motion past a control transfer.
                    if cycles[j] <= cycles[i]:
                        if op_j == "st":
                            bad("store-speculated", j,
                                "store %r at cycle %d floats above "
                                "control op %d (%r) at cycle %d: memory "
                                "is visible off-trace"
                                % (ins_j, cycles[j], i, ins_i, cycles[i]))
                        elif op_j == "esc":
                            bad("escape-speculated", j,
                                "escape %r at cycle %d floats above "
                                "control op %d (%r) at cycle %d: output "
                                "is visible off-trace"
                                % (ins_j, cycles[j], i, ins_i, cycles[i]))
                        elif not speculation and writes_j:
                            bad("off-live-speculated", j,
                                "%r at cycle %d moves above control op "
                                "%d (%r) at cycle %d, but this machine "
                                "model forbids speculation"
                                % (ins_j, cycles[j], i, ins_i, cycles[i]))
                        elif writes_j and off_live is not None:
                            live = off_live.get(i)
                            if live:
                                hot = [name for name in writes_j
                                       if name in live]
                                if hot:
                                    bad("off-live-speculated", j,
                                        "%r at cycle %d speculates above "
                                        "branch op %d (%r) at cycle %d "
                                        "but defines %s, live on the "
                                        "off-trace path"
                                        % (ins_j, cycles[j], i, ins_i,
                                           cycles[i], ", ".join(hot)))
            elif is_control_j and cycles[j] < cycles[i]:
                # Everything preceding a control transfer must have
                # issued when the transfer leaves the region.
                bad("issue-order", j,
                    "control op %r at cycle %d issues before earlier "
                    "op %d (%r) at cycle %d: the off-trace exit would "
                    "see an incomplete past"
                    % (ins_j, cycles[j], i, ins_i, cycles[i]))

        for name in writes_j:
            last_writer[name] = j
    return diags


def _resource_diagnostics(instructions, schedule, config, stage, region):
    """Per-cycle resource usage against the machine model, re-derived
    from the raw configuration parameters (not slots_feasible)."""
    diags = []
    cycles = schedule.cycles
    units = schedule.units
    by_cycle = {}
    for pos, cycle in enumerate(cycles):
        by_cycle.setdefault(cycle, []).append(pos)

    def bad(rule, pos, message):
        diags.append(Diagnostic(stage, rule, message, pos=pos,
                                region=region))

    mem_limit = min(config.mem_ports, config.n_units)
    ctrl_limit = config.n_units if config.multiway else 1
    for cycle, positions in sorted(by_cycle.items()):
        counts = {MEM: 0, ALU: 0, MOVE: 0, CTRL: 0}
        unit_class = {}
        for pos in positions:
            op = instructions[pos].op
            counts[OP_CLASS[op]] += 1
            if config.inter_unit_penalty and units is not None:
                unit = units[pos]
                if not 0 <= unit < config.n_units:
                    bad("unit-conflict", pos,
                        "op bound to unit %d outside the %d-unit machine"
                        % (unit, config.n_units))
                key = (unit, OP_CLASS[op])
                if key in unit_class:
                    bad("unit-conflict", pos,
                        "cycle %d issues two %s operations on unit %d "
                        "(ops %d and %d)" % (cycle, OP_CLASS[op], unit,
                                             unit_class[key], pos))
                unit_class[key] = pos
        anchor = positions[0]
        if counts[MEM] > mem_limit:
            bad("mem-port", anchor,
                "cycle %d issues %d memory operations; the shared "
                "memory sustains %d per cycle"
                % (cycle, counts[MEM], mem_limit))
        if counts[ALU] > config.n_units:
            bad("slot-class", anchor,
                "cycle %d issues %d ALU operations on %d units"
                % (cycle, counts[ALU], config.n_units))
        if counts[MOVE] > config.n_units:
            bad("slot-class", anchor,
                "cycle %d issues %d moves on %d units"
                % (cycle, counts[MOVE], config.n_units))
        if counts[CTRL] > ctrl_limit:
            bad("slot-class", anchor,
                "cycle %d issues %d control operations; limit %d%s"
                % (cycle, counts[CTRL], ctrl_limit,
                   "" if config.multiway else " (no multiway branches)"))
        total = sum(counts.values())
        if config.issue_width is not None and total > config.issue_width:
            bad("issue-width", anchor,
                "cycle %d issues %d operations; issue width is %d"
                % (cycle, total, config.issue_width))
        if config.formats == "prototype" \
                and counts[CTRL] + max(counts[ALU], counts[MOVE]) \
                > config.n_units:
            bad("format", anchor,
                "cycle %d mix (mem=%d alu=%d move=%d ctrl=%d) does not "
                "fit %d two-format instruction words"
                % (cycle, counts[MEM], counts[ALU], counts[MOVE],
                   counts[CTRL], config.n_units))
    return diags


def check_schedule(instructions, schedule, config, off_live=None,
                   region=None, stage="schedule", live_out=None):
    """Validate one region's :class:`Schedule` against *config*.

    ``off_live`` maps region positions of conditional branches to the
    *set of register names* live on the branch's off-trace path (see
    :func:`off_live_names`); ``None`` disables the off-live rule (legal
    only for single-exit regions or non-speculating models, which are
    checked structurally regardless).  ``live_out`` is the set of names
    live at the region's fall-through end; it is only consulted under
    ``config.analysis_prune``, where it anchors the dead-write proof
    that relaxes the WAW rule.
    """
    diags = _schedule_shape(instructions, schedule, stage, region)
    if diags:
        return diags
    diags.extend(_dependence_diagnostics(instructions, schedule, config,
                                         off_live, stage, region,
                                         live_out=live_out))
    diags.extend(_resource_diagnostics(instructions, schedule, config,
                                       stage, region))
    return diags


def check_pruned_edges(instructions, pruned, off_live=None, live_out=None,
                       region=None, stage="schedule"):
    """Re-prove every dependence edge the scheduler's analysis oracle
    removed (see ``pruned`` in
    :func:`repro.analysis.dependence.build_dag`).

    Each entry must be a ``(kind, pred, index)`` tuple with
    ``pred < index`` inside the region.  A ``"mem"`` edge is accepted
    only when the checker's own :class:`_RegionIndependence` proves the
    pair touches different words; a ``"waw"`` edge only when the
    checker's own :func:`_dead_positions` proves the overwritten result
    is dead.  Anything else is a diagnostic — the analyzer is never
    trusted.
    """
    diags = []
    n = len(instructions)
    independence = _RegionIndependence(instructions)
    dead = _dead_positions(instructions, off_live, live_out)

    def bad(rule, pos, message):
        diags.append(Diagnostic(stage, rule, message, pos=pos,
                                region=region))

    for entry in pruned:
        if not (isinstance(entry, tuple) and len(entry) == 3):
            bad("pruned-shape", None,
                "malformed pruned-edge record %r" % (entry,))
            continue
        kind, i, j = entry
        if not (isinstance(i, int) and isinstance(j, int)
                and 0 <= i < j < n):
            bad("pruned-shape", None,
                "pruned %s edge (%r, %r) outside region of %d ops"
                % (kind, i, j, n))
            continue
        ins_i, ins_j = instructions[i], instructions[j]
        if kind == "mem":
            if ins_i.op not in ("ld", "st") or ins_j.op not in ("ld", "st"):
                bad("pruned-shape", j,
                    "pruned mem edge %d->%d joins non-memory ops "
                    "%r / %r" % (i, j, ins_i, ins_j))
            elif not independence.independent(i, j):
                bad("pruned-mem", j,
                    "pruned memory edge %d->%d (%r / %r) is not "
                    "provably independent" % (i, j, ins_i, ins_j))
        elif kind == "waw":
            if not (set(ins_i.writes()) & set(ins_j.writes())):
                bad("pruned-shape", j,
                    "pruned waw edge %d->%d joins ops with no common "
                    "destination: %r / %r" % (i, j, ins_i, ins_j))
            elif j not in dead:
                bad("pruned-waw", j,
                    "pruned WAW edge %d->%d but the write of %r is not "
                    "provably dead" % (i, j, ins_j))
        else:
            bad("pruned-shape", j,
                "unknown pruned-edge kind %r" % (kind,))
    return diags


# -- independent liveness / off-live sets ------------------------------------

class NameLiveness:
    """Backward register liveness over an ICI program, re-derived with
    plain name sets (independent of the bitmask implementation in
    :mod:`repro.analysis.liveness`, which the scheduler consumes)."""

    def __init__(self, program):
        self.program = program
        instructions = program.instructions
        n = len(instructions)
        leaders, _indirect, _returns = _leaders_and_entries(program)
        self.block_start = leaders
        ends = {}
        for index, start in enumerate(leaders):
            ends[start] = leaders[index + 1] if index + 1 < len(leaders) \
                else n
        self._ends = ends
        abi = set(_abi_registers())

        succs = {}
        terminator_out = {}
        call_return = {}
        for start in leaders:
            end = ends[start]
            terminator = instructions[end - 1]
            op = terminator.op
            out = []
            if op in BRANCH_OPS:
                out.append(program.labels.get(terminator.label))
                if end < n:
                    out.append(end)
            elif op == "jmp":
                out.append(program.labels.get(terminator.label))
            elif op in ("call", "jmpr"):
                pass
            elif op != "halt" and end < n:
                out.append(end)
            succs[start] = [s for s in out if s is not None and s < n]
            if op in ("call", "jmpr"):
                terminator_out[start] = set(abi)
                if op == "call" and end < n:
                    call_return[start] = end
            else:
                terminator_out[start] = set()

        gen = {}
        kill = {}
        for start in leaders:
            g = set()
            k = set()
            for pc in range(start, ends[start]):
                instruction = instructions[pc]
                for name in instruction.reads():
                    if name not in k:
                        g.add(name)
                for name in instruction.writes():
                    k.add(name)
            gen[start] = g
            kill[start] = k

        live_in = {start: set() for start in leaders}
        live_out = {start: set(terminator_out[start])
                    for start in leaders}
        changed = True
        while changed:
            changed = False
            for start in reversed(leaders):
                out = set(terminator_out[start])
                for succ in succs[start]:
                    out |= live_in[succ]
                ret = call_return.get(start)
                if ret is not None:
                    # Values live at the return point survive the call in
                    # caller registers (runtime-routine contract).
                    out |= live_in[ret]
                new_in = gen[start] | (out - kill[start])
                if out != live_out[start] or new_in != live_in[start]:
                    live_out[start] = out
                    live_in[start] = new_in
                    changed = True
        self.live_in = live_in
        self.abi = abi

    def live_in_at(self, pc):
        """Register names live on entry to the block starting at *pc*."""
        return self.live_in.get(pc, self.abi)


def off_live_names(program, region_start, region_end, liveness=None):
    """Per-position off-trace live sets for a region's conditional
    branches: position -> set of names live at the branch's taken
    target (the off-trace direction after superblock layout)."""
    liveness = liveness or NameLiveness(program)
    masks = {}
    for position in range(region_end - region_start):
        instruction = program.instructions[region_start + position]
        if instruction.op in BRANCH_OPS:
            target = program.labels.get(instruction.label)
            if target is None:
                masks[position] = liveness.abi
            else:
                masks[position] = liveness.live_in_at(target)
    return masks


# -- trace-transform equivalence ---------------------------------------------

_INVERSE = {
    "btag": "bntag", "bntag": "btag",
    "beq": "bne", "bne": "beq",
    "bltv": "bgev", "bgev": "bltv",
    "blev": "bgtv", "bgtv": "blev",
}

_MAX_TRANSFORM_DIAGS = 20


def _resolve_jumps(program, pc):
    """Follow unconditional direct jumps to the first effective
    instruction (the transform inserts/deletes these freely)."""
    seen = set()
    while 0 <= pc < len(program.instructions):
        instruction = program.instructions[pc]
        if instruction.op != "jmp":
            return pc
        if pc in seen:
            return pc          # diagnosed as a jump cycle by the caller
        seen.add(pc)
        target = program.labels.get(instruction.label)
        if target is None:
            return pc
        pc = target
    return pc


def _same_payload(a, b):
    """Non-control operands equal (labels compared by the caller)."""
    return (a.op == b.op and a.rd == b.rd and a.ra == b.ra
            and a.rb == b.rb and a.imm == b.imm and a.tag == b.tag
            and a.esc == b.esc)


def check_transform(original, transformed, stage="transform"):
    """Bisimulation between *original* and its transformed layout.

    Walks both programs in lock step from every corresponding entry
    point.  Tail duplication maps one original pc to several new pcs;
    each pair must execute the same instruction (modulo branch inversion
    and redundant-jump insertion/deletion), and successors must stay in
    correspondence — including every off-trace exit, which is exactly
    the compensation-code obligation of trace scheduling.
    """
    diags = []
    seen = set()
    work = [(original.entry_pc, transformed.entry_pc)]

    def fail(rule, old_pc, new_pc, message):
        diags.append(Diagnostic(
            stage, rule,
            "original pc %d / transformed pc %d: %s"
            % (old_pc, new_pc, message), pos=new_pc))

    def push(old_pc, new_pc):
        pair = (_resolve_jumps(original, old_pc),
                _resolve_jumps(transformed, new_pc))
        if pair not in seen:
            seen.add(pair)
            work.append(pair)

    seen.add((_resolve_jumps(original, original.entry_pc),
              _resolve_jumps(transformed, transformed.entry_pc)))
    while work and len(diags) < _MAX_TRANSFORM_DIAGS:
        old_pc, new_pc = work.pop()
        old_pc = _resolve_jumps(original, old_pc)
        new_pc = _resolve_jumps(transformed, new_pc)
        if old_pc >= len(original.instructions) \
                or new_pc >= len(transformed.instructions):
            if (old_pc >= len(original.instructions)) \
                    != (new_pc >= len(transformed.instructions)):
                fail("path-divergence", old_pc, new_pc,
                     "one side falls off the end of its program")
            continue
        old = original.instructions[old_pc]
        new = transformed.instructions[new_pc]

        if old.op == "jmp" or new.op == "jmp":
            fail("jump-cycle", old_pc, new_pc,
                 "unresolvable unconditional-jump cycle")
            continue

        if old.op in BRANCH_OPS:
            old_taken = original.labels.get(old.label)
            old_fall = old_pc + 1
            if new.op == old.op:
                new_taken = transformed.labels.get(new.label)
                new_fall = new_pc + 1
            elif new.op == _INVERSE.get(old.op):
                new_taken = new_pc + 1
                new_fall = transformed.labels.get(new.label)
            else:
                fail("path-divergence", old_pc, new_pc,
                     "branch %r does not correspond to %r" % (old, new))
                continue
            if (old.ra, old.rb, old.tag) != (new.ra, new.rb, new.tag):
                fail("path-divergence", old_pc, new_pc,
                     "branch operands differ: %r vs %r" % (old, new))
                continue
            if old_taken is None or new_taken is None \
                    or new_fall is None:
                fail("path-divergence", old_pc, new_pc,
                     "branch target does not resolve")
                continue
            push(old_taken, new_taken)
            push(old_fall, new_fall)
        elif old.op == "call":
            if new.op != "call" or old.rd != new.rd:
                fail("path-divergence", old_pc, new_pc,
                     "%r does not correspond to %r" % (old, new))
                continue
            old_target = original.labels.get(old.label)
            new_target = transformed.labels.get(new.label)
            if old_target is None or new_target is None:
                fail("path-divergence", old_pc, new_pc,
                     "call target does not resolve")
                continue
            push(old_target, new_target)
            # The link register names pc+1 in each layout; the return
            # paths must correspond from there.
            push(old_pc + 1, new_pc + 1)
        elif old.op in ("jmpr", "halt", "esc"):
            if old.op != new.op or old.ra != new.ra \
                    or old.imm != new.imm or old.esc != new.esc:
                fail("path-divergence", old_pc, new_pc,
                     "%r does not correspond to %r" % (old, new))
                continue
            if old.op == "esc":
                push(old_pc + 1, new_pc + 1)
        else:
            if not _same_payload(old, new):
                fail("path-divergence", old_pc, new_pc,
                     "%r does not correspond to %r" % (old, new))
                continue
            if (old.label is None) != (new.label is None):
                fail("path-divergence", old_pc, new_pc,
                     "code-address operand dropped: %r vs %r"
                     % (old, new))
                continue
            if old.label is not None:
                old_target = original.labels.get(old.label)
                new_target = transformed.labels.get(new.label)
                if old_target is None or new_target is None:
                    fail("path-divergence", old_pc, new_pc,
                         "code-address label does not resolve")
                    continue
                # Materialised code addresses (retry points) must lead
                # to corresponding code when eventually jumped to.
                push(old_target, new_target)
            push(old_pc + 1, new_pc + 1)
    return diags


def check_regions(program, regions, stage="transform"):
    """Region-table sanity: the regions tile the program contiguously
    and every label lands on a region head (single-entry property)."""
    diags = []
    ordered = sorted(regions, key=lambda r: r.start)
    expected = 0
    for region in ordered:
        if region.start != expected:
            diags.append(Diagnostic(
                stage, "region-cover",
                "region [%d,%d) does not tile the program (expected "
                "start %d)" % (region.start, region.end, expected),
                region=(region.start, region.end)))
        if region.end <= region.start:
            diags.append(Diagnostic(
                stage, "region-cover",
                "empty region [%d,%d)" % (region.start, region.end),
                region=(region.start, region.end)))
        expected = region.end
    if ordered and expected != len(program.instructions):
        diags.append(Diagnostic(
            stage, "region-cover",
            "regions end at %d, program has %d instructions"
            % (expected, len(program.instructions))))

    heads = {region.start for region in regions}
    for name, target in program.labels.items():
        if target < len(program.instructions) and target not in heads:
            diags.append(Diagnostic(
                stage, "side-entrance",
                "label %r resolves to pc %d inside a region interior: "
                "the region is no longer single-entry" % (name, target),
                pos=target))
    return diags


# -- register allocation -----------------------------------------------------

def _is_bank_resident(name):
    """Interface registers with cross-region lifetimes (re-derived from
    the calling convention, mirroring the ABI set)."""
    if name in _abi_registers():
        return True
    return name[:1] == "a" and name[1:].isdigit()


def _live_ranges(instructions, schedule):
    """Independent live intervals of region-local values: definition
    cycle (plus pipeline occupancy) to last read."""
    first = {}
    last = {}
    for pos, instruction in enumerate(instructions):
        cycle = schedule.cycles[pos]
        for name in instruction.reads():
            if _is_bank_resident(name):
                continue
            if name not in first:
                first[name] = 0       # live-in local
            last[name] = max(last.get(name, 0), cycle)
        for name in instruction.writes():
            if _is_bank_resident(name):
                continue
            if name not in first or cycle < first[name]:
                first[name] = cycle
            busy = cycle + schedule.config.duration(instruction.op) - 1
            last[name] = max(last.get(name, busy), busy)
    return {name: (first[name], max(last.get(name, first[name]),
                                    first[name]))
            for name in first}


def check_allocation(instructions, schedule, allocation, region=None,
                     stage="regalloc"):
    """No two simultaneously-live values may share a physical register.

    ``allocation`` is a :class:`repro.compaction.regalloc.Allocation`:
    pinned physical indices for interface registers, an assignment for
    the locals it kept in the bank, and a spill list.
    """
    diags = []

    def bad(rule, message):
        diags.append(Diagnostic(stage, rule, message, region=region))

    ranges = _live_ranges(instructions, schedule)
    bank = allocation.bank_size

    pinned = {}
    for name, phys in allocation.reserved.items():
        if not 0 <= phys < bank:
            bad("phys-out-of-bank",
                "interface register %s pinned to r%d outside the "
                "%d-register bank" % (name, phys, bank))
        if phys in pinned:
            bad("phys-overlap",
                "interface registers %s and %s share physical register "
                "r%d" % (pinned[phys], name, phys))
        pinned[phys] = name

    placed = []
    for name, phys in allocation.assignment.items():
        if name in allocation.spilled:
            bad("phys-overlap",
                "register %s is both bank-allocated and spilled" % name)
        if not 0 <= phys < bank:
            bad("phys-out-of-bank",
                "%s allocated to r%d outside the %d-register bank"
                % (name, phys, bank))
            continue
        if phys in pinned:
            bad("phys-overlap",
                "local %s allocated to r%d, which is pinned to "
                "interface register %s" % (name, phys, pinned[phys]))
        span = ranges.get(name)
        if span is None:
            continue
        placed.append((name, phys, span))

    placed.sort(key=lambda item: item[2])
    for index, (name, phys, span) in enumerate(placed):
        for other, other_phys, other_span in placed[index + 1:]:
            if other_span[0] > span[1]:
                break
            if phys == other_phys:
                bad("phys-overlap",
                    "%s (cycles [%d,%d]) and %s (cycles [%d,%d]) are "
                    "simultaneously live in physical register r%d"
                    % (name, span[0], span[1], other, other_span[0],
                       other_span[1], phys))

    for name in ranges:
        if name not in allocation.assignment \
                and name not in allocation.spilled:
            bad("unallocated",
                "live value %s has neither a bank slot nor a spill"
                % name)
    return diags
