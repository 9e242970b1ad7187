"""Intermediate Code Instructions (ICI).

The paper's Intermediate Code is "composed of simple instructions directly
expressing primitive hardware functionalities": a load/store register
machine with direct and immediate addressing only, tagged-data support and
branch-on-tag (section 3.1, 4.5).  ICIs name *virtual* registers — they
"contain no information about register allocation or hardware units" — so
the register namespace is unbounded and renaming is free.

Operation classes (one slot of each per unit per cycle, Fig. 5):

======  ==========================================================
class   operations
======  ==========================================================
MEM     ``ld``, ``st``
ALU     ``add sub mul div mod and or xor sll sra lea mktag gettag esc``
MOVE    ``mov``, ``ldi``
CTRL    ``btag bntag beq bne bltv blev bgtv bgev jmp jmpr call halt``
======  ==========================================================

Latencies are a property of the machine model, not of the ICI.
"""

# -- operation classes -------------------------------------------------------

MEM = "mem"
ALU = "alu"
MOVE = "move"
CTRL = "ctrl"

OP_CLASS = {
    "ld": MEM, "st": MEM,
    "add": ALU, "sub": ALU, "mul": ALU, "div": ALU, "mod": ALU,
    "and": ALU, "or": ALU, "xor": ALU, "sll": ALU, "sra": ALU,
    "lea": ALU, "mktag": ALU, "gettag": ALU, "esc": ALU,
    "mov": MOVE, "ldi": MOVE,
    "btag": CTRL, "bntag": CTRL,
    "beq": CTRL, "bne": CTRL,
    "bltv": CTRL, "blev": CTRL, "bgtv": CTRL, "bgev": CTRL,
    "jmp": CTRL, "jmpr": CTRL, "call": CTRL, "halt": CTRL,
}

#: the operation classes in Figure 5's order
OP_CLASSES = (MEM, ALU, MOVE, CTRL)


def instruction_mix(program, counts):
    """Executed fraction of each operation class (Fig. 5) of *program*,
    *counts* being its per-pc execution counts (all 0.0 when nothing
    ran)."""
    totals = dict.fromkeys(OP_CLASSES, 0)
    for pc, count in enumerate(counts):
        if count:
            totals[OP_CLASS[program.instructions[pc].op]] += count
    executed = sum(totals.values())
    if executed == 0:
        return dict.fromkeys(OP_CLASSES, 0.0)
    return {cls: total / executed for cls, total in totals.items()}


BRANCH_OPS = frozenset(
    ["btag", "bntag", "beq", "bne", "bltv", "blev", "bgtv", "bgev"])
JUMP_OPS = frozenset(["jmp", "jmpr", "call", "halt"])
CONTROL_OPS = BRANCH_OPS | JUMP_OPS


class Ici:
    """One Intermediate Code Instruction.

    Fields (unused ones are ``None``):

    * ``op``     — opcode mnemonic
    * ``rd``     — destination register name
    * ``ra, rb`` — source register names
    * ``imm``    — integer immediate (offset, tagged word, or tag value)
    * ``tag``    — tag immediate for ``lea``/``mktag``/``btag``/``bntag``
    * ``label``  — branch/call target label
    * ``esc``    — escape service name for ``esc``

    Semantics summary (``V(x)`` = value field, ``W(x)`` = whole word):

    * ``ld rd, ra, imm``   — ``rd = MEM[V(ra) + imm]``
    * ``st ra, rb, imm``   — ``MEM[V(rb) + imm] = W(ra)``
    * ALU binary ops       — ``rd = pack(V(ra) op V(rb or imm), TINT)``
    * ``lea rd, ra, imm, tag`` — ``rd = pack(V(ra) + imm, tag)``
    * ``mktag rd, ra, tag``    — retag a word
    * ``gettag rd, ra``        — ``rd = pack(tag(ra), TINT)``
    * ``mov rd, ra``       — copy word; ``ldi rd, imm`` — load tagged word
    * ``btag ra, tag, L``  — branch if ``tag(ra) == tag`` (`bntag`: !=)
    * ``beq/bne ra, rb, L``    — whole-word compare and branch
    * ``bltv/blev/bgtv/bgev ra, rb, L`` — value-field signed compare
    * ``jmp L`` / ``jmpr ra``  — direct / register-indirect jump
    * ``call L`` (rd=link) — ``rd = pack(return_pc, TCOD)``; jump to L
    * ``esc name, ra``     — host escape (program output)
    """

    __slots__ = ("op", "rd", "ra", "rb", "imm", "tag", "label", "esc")

    def __init__(self, op, rd=None, ra=None, rb=None, imm=None, tag=None,
                 label=None, esc=None):
        if op not in OP_CLASS:
            raise ValueError("unknown ICI opcode %r" % op)
        self.op = op
        self.rd = rd
        self.ra = ra
        self.rb = rb
        self.imm = imm
        self.tag = tag
        self.label = label
        self.esc = esc

    @property
    def op_class(self):
        return OP_CLASS[self.op]

    @property
    def is_branch(self):
        """Conditional branch (two successors)."""
        return self.op in BRANCH_OPS

    @property
    def is_control(self):
        return self.op in CONTROL_OPS

    def reads(self):
        """Register names this instruction reads."""
        regs = []
        if self.ra is not None:
            regs.append(self.ra)
        if self.rb is not None:
            regs.append(self.rb)
        # A store reads its data register, which we keep in ra, and its
        # base in rb; a call reads nothing; jmpr reads ra.
        return regs

    def writes(self):
        """Register names this instruction writes."""
        return [self.rd] if self.rd is not None else []

    def __repr__(self):
        parts = [self.op]
        for attr in ("rd", "ra", "rb"):
            value = getattr(self, attr)
            if value is not None:
                parts.append(str(value))
        if self.imm is not None:
            parts.append("#%d" % self.imm)
        if self.tag is not None:
            parts.append("t%d" % self.tag)
        if self.label is not None:
            parts.append("@" + str(self.label))
        if self.esc is not None:
            parts.append("<%s>" % self.esc)
        return " ".join(parts)
