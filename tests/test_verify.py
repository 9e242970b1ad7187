"""Independent schedule verifier: clean artefacts verify clean, and
seeded miscompiles — corrupted schedules, dropped/retargeted code after
the transform, aliased registers in a binding — are detected with the
right structured diagnostic."""

from repro.analysis import (
    check_schedule, check_pruned_edges, check_transform, check_regions,
    check_allocation, off_live_names, format_diagnostics)
from repro.bam import compile_source
from repro.compaction import MachineConfig, Region, schedule_region
from repro.compaction.scheduler import Schedule
from repro.compaction.transform import form_superblocks
from repro.compaction.regalloc import Allocation, region_pressure
from repro.emulator import Emulator
from repro.intcode import translate_module
from repro.intcode.ici import Ici
from repro.intcode.program import Program

SOURCE = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
main :- app([1,2], [3], X), write(X), nl.
"""


def cfg(**kw):
    defaults = dict(n_units=4, mem_ports=1, mem_latency=2, ctrl_latency=2,
                    alu_latency=1, move_latency=1)
    defaults.update(kw)
    return MachineConfig("test", **defaults)


def rules(diagnostics):
    return {d.rule for d in diagnostics}


def assert_clean(diagnostics):
    assert diagnostics == [], format_diagnostics(diagnostics)


# -- schedule legality: dependence rules -------------------------------------

STRAIGHT_LINE = [
    Ici("ld", rd="r1", ra="H", imm=0),
    Ici("add", rd="r2", ra="r1", rb="a0"),
    Ici("st", ra="r2", rb="E", imm=1),
    Ici("jmp", label="next"),
]


def test_scheduler_output_verifies_clean():
    config = cfg()
    schedule = schedule_region(STRAIGHT_LINE, config)
    assert_clean(check_schedule(STRAIGHT_LINE, schedule, config))


def test_corrupted_cycle_breaks_raw_latency():
    config = cfg()
    schedule = schedule_region(STRAIGHT_LINE, config)
    cycles = list(schedule.cycles)
    cycles[1] = cycles[0]            # consumer issued with its producer
    bad = Schedule(STRAIGHT_LINE, cycles, config)
    diags = check_schedule(STRAIGHT_LINE, bad, config)
    assert "raw-latency" in rules(diags)
    finding = next(d for d in diags if d.rule == "raw-latency")
    assert finding.pos == 1 and finding.stage == "schedule"


def test_war_violation():
    instructions = [
        Ici("add", rd="r2", ra="r1", rb="a0"),
        Ici("ldi", rd="r1", imm=7),
    ]
    diags = check_schedule(instructions,
                           Schedule(instructions, [2, 0], cfg()), cfg())
    assert "war-order" in rules(diags)


def test_waw_violation():
    instructions = [
        Ici("ldi", rd="r1", imm=1),
        Ici("ldi", rd="r1", imm=2),
    ]
    diags = check_schedule(instructions,
                           Schedule(instructions, [0, 0], cfg()), cfg())
    assert "waw-order" in rules(diags)


def test_store_store_memory_order():
    instructions = [
        Ici("st", ra="a0", rb="H", imm=0),
        Ici("st", ra="a1", rb="H", imm=1),
    ]
    config = cfg(mem_ports=2)
    diags = check_schedule(instructions,
                           Schedule(instructions, [0, 0], config), config)
    assert "mem-order" in rules(diags)


def test_store_hoisted_above_branch():
    instructions = [
        Ici("btag", ra="a0", tag=0, label="off"),
        Ici("st", ra="a1", rb="H", imm=0),
    ]
    diags = check_schedule(instructions,
                           Schedule(instructions, [1, 0], cfg()), cfg())
    assert "store-speculated" in rules(diags)


def test_escape_hoisted_above_branch():
    instructions = [
        Ici("btag", ra="a0", tag=0, label="off"),
        Ici("esc", esc="write", ra="a1"),
    ]
    diags = check_schedule(instructions,
                           Schedule(instructions, [0, 0], cfg()), cfg())
    assert "escape-speculated" in rules(diags)


def test_off_live_speculation_detected():
    instructions = [
        Ici("btag", ra="a0", tag=0, label="off"),
        Ici("ldi", rd="x", imm=1),
    ]
    schedule = Schedule(instructions, [0, 0], cfg())
    hot = check_schedule(instructions, schedule, cfg(),
                         off_live={0: {"x"}})
    cold = check_schedule(instructions, schedule, cfg(),
                          off_live={0: set()})
    assert "off-live-speculated" in rules(hot)
    assert_clean(cold)


def test_no_speculation_model_pins_all_writes():
    config = cfg(speculation=False)
    instructions = [
        Ici("btag", ra="a0", tag=0, label="off"),
        Ici("ldi", rd="x", imm=1),
    ]
    diags = check_schedule(instructions,
                           Schedule(instructions, [0, 0], config), config)
    assert "off-live-speculated" in rules(diags)


def test_issue_order_rule():
    instructions = [
        Ici("add", rd="x", ra="a0", rb="a1"),
        Ici("jmp", label="next"),
    ]
    diags = check_schedule(instructions,
                           Schedule(instructions, [2, 0], cfg()), cfg())
    assert "issue-order" in rules(diags)


def test_single_way_machine_serialises_branches():
    config = cfg(multiway=False)
    instructions = [
        Ici("btag", ra="a0", tag=0, label="A"),
        Ici("btag", ra="a1", tag=0, label="B"),
    ]
    diags = check_schedule(instructions,
                           Schedule(instructions, [0, 0], config), config)
    assert "branch-order" in rules(diags)


def test_escape_order_preserved():
    instructions = [
        Ici("esc", esc="write", ra="a0"),
        Ici("esc", esc="nl"),
    ]
    diags = check_schedule(instructions,
                           Schedule(instructions, [0, 0], cfg()), cfg())
    assert "esc-order" in rules(diags)


def test_inter_unit_penalty_checked():
    config = cfg(inter_unit_penalty=1)
    instructions = [
        Ici("ldi", rd="x", imm=1),
        Ici("add", rd="y", ra="x", rb="a0"),
    ]
    bad = Schedule(instructions, [0, 1], config, units=[0, 1])
    ok = Schedule(instructions, [0, 1], config, units=[0, 0])
    assert "inter-unit-latency" in rules(
        check_schedule(instructions, bad, config))
    assert_clean(check_schedule(instructions, ok, config))


# -- schedule legality: resource rules ---------------------------------------

def test_memory_port_oversubscribed():
    instructions = [
        Ici("ld", rd="r1", ra="H", imm=0),
        Ici("ld", rd="r2", ra="E", imm=0),
    ]
    diags = check_schedule(instructions,
                           Schedule(instructions, [0, 0], cfg()), cfg())
    assert "mem-port" in rules(diags)


def test_alu_slots_limited_by_units():
    config = cfg(n_units=1)
    instructions = [
        Ici("add", rd="x", ra="a0", rb="a1"),
        Ici("sub", rd="y", ra="a0", rb="a1"),
    ]
    diags = check_schedule(instructions,
                           Schedule(instructions, [0, 0], config), config)
    assert "slot-class" in rules(diags)


def test_issue_width_limit():
    config = cfg(issue_width=1)
    instructions = [
        Ici("add", rd="x", ra="a0", rb="a1"),
        Ici("mov", rd="y", ra="a0"),
    ]
    diags = check_schedule(instructions,
                           Schedule(instructions, [0, 0], config), config)
    assert "issue-width" in rules(diags)


def test_prototype_format_constraint():
    config = cfg(n_units=2, formats="prototype")
    instructions = [
        Ici("add", rd="x", ra="a0", rb="a1"),
        Ici("sub", rd="y", ra="a0", rb="a1"),
        Ici("jmp", label="next"),
    ]
    diags = check_schedule(instructions,
                           Schedule(instructions, [0, 0, 0], config),
                           config)
    assert "format" in rules(diags)


def test_unit_double_booking():
    config = cfg(inter_unit_penalty=1)
    instructions = [
        Ici("add", rd="x", ra="a0", rb="a1"),
        Ici("sub", rd="y", ra="a0", rb="a1"),
    ]
    bad = Schedule(instructions, [0, 0], config, units=[0, 0])
    diags = check_schedule(instructions, bad, config)
    assert "unit-conflict" in rules(diags)


def test_schedule_shape_mismatch():
    instructions = [Ici("ldi", rd="x", imm=1), Ici("halt")]
    short = Schedule(instructions, [0], cfg())
    short.instructions = instructions
    diags = check_schedule(instructions, short, cfg())
    assert rules(diags) == {"schedule-shape"}


# -- transform equivalence ---------------------------------------------------

def _transformed(source=SOURCE, budget=48):
    program = translate_module(compile_source(source))
    baseline = Emulator(program, max_steps=2_000_000).run()
    transform = form_superblocks(program, baseline.counts, baseline.taken,
                                 tail_dup_budget=budget)
    return program, transform


def _copy_program(program):
    instructions = [Ici(i.op, i.rd, i.ra, i.rb, i.imm, i.tag, i.label,
                        i.esc) for i in program.instructions]
    return Program(instructions, dict(program.labels), program.symbols,
                   entry=program.entry)


def _first_reachable_payload(program):
    """pc of the first non-control op on the fall-through walk from the
    entry point (certainly visited by the bisimulation)."""
    pc = program.entry_pc
    while True:
        instruction = program.instructions[pc]
        if instruction.op == "jmp":
            pc = program.labels[instruction.label]
        elif instruction.is_branch:
            pc += 1
        elif instruction.op == "call":
            pc = program.labels[instruction.label]
        elif instruction.is_control:
            raise AssertionError("no payload op reachable")
        else:
            return pc


def test_transform_verifies_clean():
    program, transform = _transformed()
    assert_clean(check_transform(program, transform.program))
    assert_clean(check_regions(transform.program, transform.regions))


def test_corrupted_payload_detected():
    program, transform = _transformed()
    mutant = _copy_program(transform.program)
    victim = _first_reachable_payload(mutant)
    mutant.instructions[victim] = Ici("mov", rd="r999", ra="a0")
    diags = check_transform(program, mutant)
    assert "path-divergence" in rules(diags)


def test_dropped_instruction_detected():
    program, transform = _transformed()
    mutant = _copy_program(transform.program)
    victim = _first_reachable_payload(mutant)
    del mutant.instructions[victim]
    mutant.labels = {name: (pc - 1 if pc > victim else pc)
                     for name, pc in mutant.labels.items()}
    diags = check_transform(program, mutant)
    assert "path-divergence" in rules(diags)


def test_retargeted_branch_detected():
    # Point an off-trace exit somewhere that executes different code:
    # exactly the "compensation block dropped" failure mode.
    program, transform = _transformed()
    mutant = _copy_program(transform.program)
    for pc, instruction in enumerate(mutant.instructions):
        if not instruction.is_branch:
            continue
        old_target = mutant.labels[instruction.label]
        for name, target in mutant.labels.items():
            if name == instruction.label:
                continue
            same = (mutant.instructions[target].op
                    == mutant.instructions[old_target].op) \
                if target < len(mutant.instructions) else True
            if not same:
                mutant.instructions[pc] = Ici(
                    instruction.op, ra=instruction.ra,
                    rb=instruction.rb, tag=instruction.tag, label=name)
                diags = check_transform(program, mutant)
                assert "path-divergence" in rules(diags)
                return
    raise AssertionError("no retargetable branch found")


def test_region_cover_gap_detected():
    program = translate_module(compile_source(SOURCE))
    regions = [Region(0, 2), Region(3, len(program))]
    diags = check_regions(program, regions)
    assert "region-cover" in rules(diags)


def test_side_entrance_detected():
    program, transform = _transformed()
    heads = {region.start for region in transform.regions}
    interior = next(pc for pc in range(len(transform.program))
                    if pc not in heads)
    mutant = _copy_program(transform.program)
    mutant.labels["$sneak"] = interior
    diags = check_regions(mutant, transform.regions)
    assert "side-entrance" in rules(diags)


# -- off-live sets ----------------------------------------------------------

def test_off_live_names_at_branch_target():
    program = Program([
        Ici("ldi", rd="r1", imm=1),
        Ici("btag", ra="a0", tag=0, label="L"),
        Ici("ldi", rd="r2", imm=2),
        Ici("jmp", label="End"),
        Ici("add", rd="r3", ra="r1", rb="a0"),
        Ici("halt"),
    ], {"$start": 0, "L": 4, "End": 5}, None)
    masks = off_live_names(program, 0, 4)
    assert set(masks) == {1}
    assert "r1" in masks[1]
    assert "r2" not in masks[1]


# -- register allocation -----------------------------------------------------

ALLOC_REGION = [
    Ici("ldi", rd="x", imm=1),
    Ici("ldi", rd="y", imm=2),
    Ici("add", rd="z", ra="x", rb="y"),
    Ici("jmp", label="next"),
]


def _alloc_schedule():
    config = cfg()
    return Schedule(ALLOC_REGION, [0, 1, 2, 3], config)


def test_linear_scan_binding_verifies_clean():
    schedule = _alloc_schedule()
    allocation = region_pressure(ALLOC_REGION, schedule).allocate(16)
    assert_clean(check_allocation(ALLOC_REGION, schedule, allocation))


def test_aliased_registers_detected():
    schedule = _alloc_schedule()
    allocation = Allocation({"x": 1, "y": 1, "z": 2}, set(), {}, 16)
    diags = check_allocation(ALLOC_REGION, schedule, allocation)
    assert rules(diags) == {"phys-overlap"}
    assert "simultaneously live" in diags[0].message


def test_local_clashing_with_pinned_interface_register():
    schedule = _alloc_schedule()
    allocation = Allocation({"x": 0, "y": 1, "z": 2}, set(), {"H": 0}, 16)
    diags = check_allocation(ALLOC_REGION, schedule, allocation)
    assert "phys-overlap" in rules(diags)
    assert any("pinned" in d.message for d in diags)


def test_out_of_bank_assignment_detected():
    schedule = _alloc_schedule()
    allocation = Allocation({"x": 17, "y": 1, "z": 2}, set(), {}, 16)
    diags = check_allocation(ALLOC_REGION, schedule, allocation)
    assert "phys-out-of-bank" in rules(diags)


def test_unallocated_value_detected():
    schedule = _alloc_schedule()
    allocation = Allocation({"x": 0, "z": 2}, set(), {}, 16)
    diags = check_allocation(ALLOC_REGION, schedule, allocation)
    assert "unallocated" in rules(diags)
    assert any("y" in d.message for d in diags)


def test_spilled_and_allocated_is_contradictory():
    schedule = _alloc_schedule()
    allocation = Allocation({"x": 0, "y": 1, "z": 2}, {"x"}, {}, 16)
    diags = check_allocation(ALLOC_REGION, schedule, allocation)
    assert "phys-overlap" in rules(diags)




# -- pruned dependence edges: the analyzer is never trusted ------------------

def test_pruned_mem_edge_accepted_when_provably_independent():
    ops = [Ici("st", ra="r1", rb="E", imm=0),
           Ici("st", ra="r2", rb="E", imm=1)]
    assert_clean(check_pruned_edges(ops, [("mem", 0, 1)]))


def test_pruned_mem_edge_rejected_when_possibly_aliasing():
    ops = [Ici("st", ra="r1", rb="r9", imm=0),
           Ici("ld", rd="r2", ra="r8", imm=0)]
    diags = check_pruned_edges(ops, [("mem", 0, 1)])
    assert rules(diags) == {"pruned-mem"}


def test_pruned_mem_edge_rejected_after_base_redefinition():
    ops = [Ici("st", ra="r1", rb="r9", imm=0),
           Ici("add", rd="r9", ra="r9", rb="r1"),
           Ici("ld", rd="r2", ra="r9", imm=1)]
    diags = check_pruned_edges(ops, [("mem", 0, 2)])
    assert rules(diags) == {"pruned-mem"}


def test_pruned_waw_edge_needs_a_dead_write_proof():
    ops = [Ici("mov", rd="r1", ra="a0"),
           Ici("mov", rd="r1", ra="a1")]
    # Without liveness the checker cannot prove death: reject.
    diags = check_pruned_edges(ops, [("waw", 0, 1)])
    assert rules(diags) == {"pruned-waw"}
    # r1 dead at exit (and no later read): accept.
    assert_clean(check_pruned_edges(ops, [("waw", 0, 1)],
                                    live_out=set()))
    # r1 live out: the later write is observed — reject again.
    diags = check_pruned_edges(ops, [("waw", 0, 1)],
                               live_out={"r1"})
    assert rules(diags) == {"pruned-waw"}


def test_pruned_edge_shape_violations():
    ops = [Ici("mov", rd="r1", ra="a0"),
           Ici("add", rd="r2", ra="r1", rb="a0")]
    diags = check_pruned_edges(ops, [
        ("mem", 0, 1),            # not memory ops
        ("waw", 0, 1),            # no common destination
        ("raw", 0, 1),            # unknown kind
        ("mem", 1, 0),            # not i < j
        "nonsense",               # not a tuple
    ])
    assert rules(diags) == {"pruned-shape"}
    assert len(diags) == 5


def test_checker_keeps_memory_order_strict_without_prune_flag():
    # Same base, different offsets: a plain config must still flag the
    # reorder — the relaxation is tied to config.analysis_prune.
    ops = [Ici("st", ra="r1", rb="E", imm=0),
           Ici("st", ra="r2", rb="E", imm=1)]
    config = cfg()
    swapped = Schedule(ops, [1, 0], config)
    diags = check_schedule(ops, swapped, config)
    assert "mem-order" in rules(diags)
    relaxed = cfg(analysis_prune=True)
    swapped = Schedule(ops, [1, 0], relaxed)
    assert_clean(check_schedule(ops, swapped, relaxed))


def test_scheduler_prunes_verify_clean_end_to_end():
    # Schedule with the analysis oracle on and re-prove every claim.
    ops = [Ici("st", ra="r1", rb="E", imm=0),
           Ici("st", ra="r2", rb="E", imm=1),
           Ici("ld", rd="r3", ra="H", imm=0),
           Ici("jmp", label="next")]
    config = cfg(analysis_prune=True)
    pruned = []
    schedule = schedule_region(ops, config, pruned=pruned)
    assert pruned, "oracle found nothing to prune"
    assert_clean(check_schedule(ops, schedule, config))
    assert_clean(check_pruned_edges(ops, pruned))
