"""Static dataflow facts over the ICI control-flow graph.

The paper's central question is *how much instruction-level parallelism
Prolog code exposes* — a dataflow property.  This module supplies the
static half of that measurement:

* :func:`reachable_blocks` / :func:`unreachable_blocks` — blocks some
  static or indirect entry path reaches, and the rest;
* :func:`dead_writes` — register writes whose value is never observed,
  read off the production liveness
  (:class:`~repro.analysis.liveness.Liveness`, the solver the
  superblock transform and the optimiser use);
* :class:`RegionMemoryFacts` — memory-reference disambiguation for one
  scheduling region: must/may-alias classification of every load/store
  pair from static bank membership and base+offset reasoning;
* :func:`region_dead_writes` — the scheduler's region-local dead-write
  facts, in its bitmask vocabulary;
* :func:`dataflow_limit_cycles` / :func:`region_dependence_height` —
  the **static ILP bound**: per-region dependence height under
  unbounded resources, replayed through the dynamic profile to a
  whole-program dataflow-limit speedup (the number the achieved
  schedules are measured against in ``results/table_static_ilp.txt``).

``repro analyze`` runs each of these under an observability span
(``analyze.<pass>``), so ``repro analyze --perf`` can budget analysis
cost like any hot path.
"""

from repro.analysis.dependence import build_dag, memory_bank
from repro.analysis.liveness import Liveness
from repro.intcode.ici import BRANCH_OPS, CONTROL_OPS
from repro.observability import tracing as observe

__all__ = [
    "RegionMemoryFacts",
    "dataflow_limit_cycles",
    "dead_writes",
    "reachable_blocks",
    "region_dead_writes",
    "region_dependence_height",
    "unreachable_blocks",
]


# --------------------------------------------------------------------------
# Reachability and dead code.

def reachable_blocks(cfg):
    """Start pcs of blocks some entry path reaches: the forward closure
    of the static successor edges from the program entry and every
    indirect entry point (``ldi``-materialised labels, call targets,
    call return points)."""
    seen = set()
    work = [pc for pc in cfg.indirect_entries if pc in cfg.block_at]
    while work:
        start = work.pop()
        if start in seen:
            continue
        seen.add(start)
        for succ in cfg.block_at[start].succs:
            if succ not in seen:
                work.append(succ)
    return seen


def unreachable_blocks(cfg):
    """Blocks no static or indirect entry path reaches, as a sorted
    list of ``(start, end)`` pairs."""
    reachable = reachable_blocks(cfg)
    return sorted((block.start, block.end) for block in cfg.blocks
                  if block.start not in reachable)


#: operations whose only effect is their register result — a write
#: nobody observes makes the whole instruction dead
_EFFECT_FREE = frozenset(
    ["add", "sub", "mul", "div", "mod", "and", "or", "xor", "sll",
     "sra", "lea", "mktag", "gettag", "mov", "ldi", "ld"])


def dead_writes(cfg):
    """Instruction pcs whose register result is never observed.

    A write is dead when the register is not live immediately after the
    instruction under :class:`~repro.analysis.liveness.Liveness`: no
    later read on any path, not in the ABI set at an indirect transfer,
    and not live at a ``call``'s return point (runtime routines such as
    ``$unify`` preserve the caller's temporaries, so a value read after
    the call returns is live across it).  Only effect-free operations
    are reported (a dead ``st`` does not exist; a dead ``ld`` still
    reads memory, which is side-effect-free in this machine).
    Unreachable blocks are skipped: everything there is trivially dead
    and is reported as unreachable instead.
    """
    liveness = Liveness(cfg)
    reg_ids = liveness.reg_ids
    reachable = reachable_blocks(cfg)
    instructions = cfg.program.instructions
    dead = []
    for block in cfg.blocks:
        if block.start not in reachable:
            continue
        live = liveness.live_out[block.start]
        for pc in range(block.end - 1, block.start - 1, -1):
            instruction = instructions[pc]
            written = 0
            for name in instruction.writes():
                written |= 1 << reg_ids[name]
            if written and instruction.op in _EFFECT_FREE \
                    and not written & live:
                dead.append(pc)
            live &= ~written
            for name in instruction.reads():
                live |= 1 << reg_ids[name]
    return sorted(dead)


# --------------------------------------------------------------------------
# Memory-reference disambiguation.

class RegionMemoryFacts:
    """Must/may-alias classification of one region's memory references.

    Two references are **independent** (must-not-alias) when the
    analysis can prove they touch different words:

    * their base registers are pointers into *statically distinct data
      areas* (heap / environments / choice points / trail — the bank
      classification of section 6), or
    * they share the *same base value* — same base register with no
      intervening redefinition, or region-local copies of one root —
      and their immediate offsets differ (distinct words of one area).

    Same base value at the *same* offset is a must-alias: the pair
    really is ordered.  Everything else is a may-alias and stays
    conservatively ordered, exactly the stance of section 4.1.
    """

    def __init__(self, instructions):
        self.instructions = instructions
        self._base = {}         # position -> (root name, version) | None
        self._offset = {}       # position -> immediate offset
        self._bank = {}         # position -> bank name or "?"
        version = {}
        copies = {}             # name -> (root name, version at copy)
        for index, instruction in enumerate(instructions):
            if instruction.op in ("ld", "st"):
                base = instruction.ra if instruction.op == "ld" \
                    else instruction.rb
                root = copies.get(base, (base, version.get(base, 0)))
                self._base[index] = root
                self._offset[index] = instruction.imm or 0
                self._bank[index] = memory_bank(instruction)
            for name in instruction.writes():
                version[name] = version.get(name, 0) + 1
                copies.pop(name, None)
                for copy_name, (root, _v) in list(copies.items()):
                    if root == name:
                        del copies[copy_name]
            if instruction.op == "mov":
                source = instruction.ra
                root = copies.get(source,
                                  (source, version.get(source, 0)))
                if root[0] != instruction.rd:
                    copies[instruction.rd] = root

    def classify(self, i, j):
        """``"must"`` (same word), ``"independent"`` (different words)
        or ``"may"`` for the memory operations at positions *i*, *j*."""
        bank_i, bank_j = self._bank[i], self._bank[j]
        if bank_i != "?" and bank_j != "?" and bank_i != bank_j:
            return "independent"
        if self._base[i] == self._base[j]:
            if self._offset[i] == self._offset[j]:
                return "must"
            return "independent"
        return "may"

    def independent(self, i, j):
        return self.classify(i, j) == "independent"

    def pair_census(self):
        """{classification: count} over every load/store pair that is
        not a load/load pair (those never conflict)."""
        positions = sorted(self._base)
        census = {"must": 0, "independent": 0, "may": 0}
        for a in range(len(positions)):
            for b in range(a + 1, len(positions)):
                i, j = positions[a], positions[b]
                if self.instructions[i].op == "ld" \
                        and self.instructions[j].op == "ld":
                    continue
                census[self.classify(i, j)] += 1
        return census


def region_dead_writes(instructions, live_out_mask, off_live=None,
                       reg_mask=None):
    """Region positions whose register write is provably dead, using
    the scheduler's bitmask vocabulary.

    A write at position *p* is dead when its register is not read at
    any later position of the region, is not live at the region's
    fall-through end (*live_out_mask*), and is not live on the
    off-trace path of any branch after *p* (*off_live*, the same
    per-position masks the scheduler's speculation rule uses).  Control
    operations and stores/escapes are never candidates; a region exit
    whose continuation liveness is unknown (``jmp``/``jmpr``/``call``
    without a mask) makes everything before it conservatively live.
    """
    if reg_mask is None or live_out_mask is None:
        return frozenset()
    off_live = off_live or {}
    dead = set()
    live = live_out_mask
    for index in range(len(instructions) - 1, -1, -1):
        instruction = instructions[index]
        op = instruction.op
        if op in CONTROL_OPS:
            if op == "halt":
                live = 0
            elif op in BRANCH_OPS:
                mask = off_live.get(index)
                live = -1 if mask is None else (live | mask)
            else:
                live = -1    # unknown continuation: everything live
        else:
            write_mask = 0
            for name in instruction.writes():
                write_mask |= reg_mask(name)
            if write_mask and op not in ("st", "esc") \
                    and not (write_mask & live):
                dead.add(index)
            live &= ~write_mask
        for name in instruction.reads():
            live |= reg_mask(name)
    return frozenset(dead)


# --------------------------------------------------------------------------
# The static ILP bound.

def region_dependence_height(instructions, config, facts=None):
    """ASAP issue cycles of a region under unbounded resources.

    This is the region's *dataflow limit*: every operation issues as
    soon as its predecessors in the dependence DAG allow, with no slot,
    port, format or issue-width constraint.  The branch-order rule is
    kept (the region model requires exits in order); memory references
    are disambiguated with *facts* (defaults to the region's own
    :class:`RegionMemoryFacts`), because the bound should charge only
    true dependences, not the compiler's conservatism.

    Returns a :class:`~repro.compaction.scheduler.Schedule` whose
    cycles are the ASAP times, so the standard timing replay can price
    region exits identically to an achieved schedule.
    """
    from repro.compaction.scheduler import Schedule
    if not instructions:
        return Schedule(instructions, [], config)
    durations = [config.duration(i.op) for i in instructions]
    if facts is None:
        facts = RegionMemoryFacts(instructions)
    dag = build_dag(instructions, durations, None, None,
                    branch_branch_latency=0, independence=facts)
    asap = [0] * len(instructions)
    for index in range(len(instructions)):
        earliest = 0
        for pred, latency in dag.preds[index]:
            ready = asap[pred] + latency
            if ready > earliest:
                earliest = ready
        asap[index] = earliest
    return Schedule(instructions, asap, config)


def dataflow_limit_cycles(region_set, config):
    """Whole-program cycles at the dataflow limit: every executed
    region replayed through its ASAP schedule."""
    from repro.evaluation.simulator import replay_program
    with observe.span("analyze.ilp_bound", config=config.name) as sp:
        program = region_set.program
        regions = []
        schedules = []
        for region in region_set.regions:
            if region_set.counts[region.start] == 0:
                continue
            instructions = program.instructions[region.start:region.end]
            schedules.append(region_dependence_height(instructions,
                                                      config))
            regions.append(region)
        cycles = replay_program(program, regions, schedules,
                                region_set.counts, region_set.taken)
        sp.set(regions=len(regions), cycles=cycles)
        return cycles
