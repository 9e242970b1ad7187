"""ICI program container and code builder.

A :class:`Program` is a flat list of :class:`~repro.intcode.ici.Ici` with a
label map; the :class:`Builder` provides the emission interface used by the
compiler back-end and the hand-written runtime library.
"""

from repro.intcode.ici import Ici
from repro.terms import tags


class Program:
    """A complete ICI program: instructions, labels, symbols, entry point."""

    def __init__(self, instructions, labels, symbols, entry="$start",
                 comments=None):
        self.instructions = instructions
        self.labels = labels          # label name -> instruction index
        self.symbols = symbols        # SymbolTable
        self.entry = entry
        self.comments = comments or {}  # instruction index -> str
        # Caches filled lazily by later layers: the pre-decoded
        # instruction tuples (repro.emulator.machine.decode), the
        # compiled function (repro.emulator.codegen) and the content
        # hash (repro.benchmarks.suite.program_fingerprint).  Programs
        # are immutable once built, so all three live for the object's
        # lifetime.
        self._decoded = None
        self._codegen = None
        self._fingerprint = None

    def __len__(self):
        return len(self.instructions)

    @property
    def entry_pc(self):
        return self.labels[self.entry]

    def listing(self, start=0, end=None):
        """Assembly-style listing for debugging and documentation."""
        lines = []
        end = len(self.instructions) if end is None else end
        index_to_labels = {}
        for name, index in self.labels.items():
            index_to_labels.setdefault(index, []).append(name)
        for index in range(start, end):
            for name in sorted(index_to_labels.get(index, [])):
                lines.append("%s:" % name)
            comment = self.comments.get(index)
            suffix = ("    ; " + comment) if comment else ""
            lines.append("    %4d  %s%s"
                         % (index, repr(self.instructions[index]), suffix))
        return "\n".join(lines)


class Builder:
    """Incremental ICI emitter with fresh-name generation.

    Register-name conventions produced here:

    * ``a0, a1, ...`` — argument registers
    * ``r<N>``        — fresh temporaries (one assignment site each, which
      is the paper's "variable renaming" that removes false dependencies)
    * machine registers: ``H`` (heap top), ``E`` (environment frame),
      ``ES`` (environment stack top), ``B`` (newest choice point),
      ``BT`` (choice-point stack top), ``TR`` (trail top), ``PD``
      (push-down list top, used by the general unifier), ``HB`` (heap
      backtrack watermark), ``CP`` (continuation), ``RL`` (runtime-routine
      link register).
    """

    def __init__(self, symbols):
        self.symbols = symbols
        self.instructions = []
        self.labels = {}
        self.comments = {}
        self._next_reg = 0
        self._next_label = 0

    # -- names ----------------------------------------------------------

    def fresh_reg(self):
        self._next_reg += 1
        return "r%d" % self._next_reg

    def fresh_label(self, hint="L"):
        self._next_label += 1
        return "%s_%d" % (hint, self._next_label)

    def label(self, name):
        """Attach *name* to the next emitted instruction."""
        if name in self.labels:
            raise ValueError("duplicate label %r" % name)
        self.labels[name] = len(self.instructions)

    def comment(self, text):
        index = len(self.instructions)
        if index in self.comments:
            self.comments[index] += "; " + text
        else:
            self.comments[index] = text

    # -- emission -------------------------------------------------------

    def emit(self, op, **kwargs):
        instruction = Ici(op, **kwargs)
        self.instructions.append(instruction)
        return instruction

    # Convenience wrappers, one per opcode family.

    def ld(self, rd, base, off=0):
        self.emit("ld", rd=rd, ra=base, imm=off)

    def st(self, rs, base, off=0):
        self.emit("st", ra=rs, rb=base, imm=off)

    def alu(self, op, rd, ra, rb=None, imm=None):
        self.emit(op, rd=rd, ra=ra, rb=rb, imm=imm)

    def lea(self, rd, base, off, tag):
        self.emit("lea", rd=rd, ra=base, imm=off, tag=tag)

    def mktag(self, rd, rs, tag):
        self.emit("mktag", rd=rd, ra=rs, tag=tag)

    def mov(self, rd, rs):
        self.emit("mov", rd=rd, ra=rs)

    def ldi(self, rd, word):
        self.emit("ldi", rd=rd, imm=word)

    def ldi_atom(self, rd, name):
        self.ldi(rd, tags.pack(self.symbols.atom(name), tags.TATM))

    def ldi_int(self, rd, value):
        self.ldi(rd, tags.pack(value, tags.TINT))

    def ldi_functor(self, rd, name, arity):
        self.ldi(rd, tags.pack(self.symbols.functor(name, arity), tags.TFUN))

    def ldi_code(self, rd, label):
        """Load the code address of *label* (resolved at load time)."""
        self.emit("ldi", rd=rd, label=label)

    def btag(self, rs, tag, label):
        self.emit("btag", ra=rs, tag=tag, label=label)

    def bntag(self, rs, tag, label):
        self.emit("bntag", ra=rs, tag=tag, label=label)

    def branch(self, op, ra, rb, label):
        self.emit(op, ra=ra, rb=rb, label=label)

    def jmp(self, label):
        self.emit("jmp", label=label)

    def jmpr(self, rs):
        self.emit("jmpr", ra=rs)

    def call(self, label, link="CP"):
        self.emit("call", rd=link, label=label)

    def halt(self, code=0):
        self.emit("halt", imm=code)

    def esc(self, service, rs=None):
        self.emit("esc", esc=service, ra=rs)

    # -- finish ----------------------------------------------------------

    def finish(self, entry="$start"):
        for instruction in self.instructions:
            if instruction.label is not None \
                    and instruction.label not in self.labels:
                raise ValueError("undefined label %r in %r"
                                 % (instruction.label, instruction))
        if entry not in self.labels:
            raise ValueError("entry label %r missing" % entry)
        return Program(self.instructions, dict(self.labels), self.symbols,
                       entry, dict(self.comments))
