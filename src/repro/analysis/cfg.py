"""Control-flow graph over ICI programs.

Blocks end at every control operation; conditional branches have a taken
edge and a fall-through edge.  ``call`` and ``jmpr`` (indirect jumps:
continuations, retry addresses, runtime-routine returns) terminate a block
with no static successors — traces never cross them, exactly as classical
trace scheduling treats procedure boundaries.

The CFG also records *indirect entry points*: labels whose address is
materialised by ``ldi`` (retry addresses), return points after ``call``,
and the program entry.  Code layout transformations must keep these blocks
addressable, so they are always region heads.
"""

from repro.intcode.ici import BRANCH_OPS


class BasicBlock:
    """A maximal straight-line code sequence ``[start, end)``."""

    __slots__ = ("index", "start", "end", "succs")

    def __init__(self, index, start, end, succs):
        self.index = index
        self.start = start
        self.end = end
        self.succs = succs      # list of successor start pcs

    @property
    def size(self):
        return self.end - self.start

    def __repr__(self):
        return "BasicBlock(%d, [%d,%d), succs=%r)" % (
            self.index, self.start, self.end, self.succs)


class Cfg:
    """The control-flow graph of an ICI program."""

    def __init__(self, program):
        self.program = program
        self.blocks = []
        self.block_at = {}        # start pc -> BasicBlock
        self.block_of_pc = []     # pc -> block index
        self.preds = {}           # start pc -> list of predecessor start pcs
        self.indirect_entries = set()
        self._build()

    def _build(self):
        program = self.program
        instructions = program.instructions
        n = len(instructions)

        leaders = {0, program.entry_pc}
        self.indirect_entries.add(program.entry_pc)
        for pc, instruction in enumerate(instructions):
            op = instruction.op
            if op in BRANCH_OPS:
                leaders.add(program.labels[instruction.label])
                if pc + 1 < n:
                    leaders.add(pc + 1)
            elif op == "jmp":
                leaders.add(program.labels[instruction.label])
                if pc + 1 < n:
                    leaders.add(pc + 1)
            elif op == "call":
                leaders.add(program.labels[instruction.label])
                if pc + 1 < n:
                    leaders.add(pc + 1)
                    self.indirect_entries.add(pc + 1)
                self.indirect_entries.add(program.labels[instruction.label])
            elif op in ("jmpr", "halt"):
                if pc + 1 < n:
                    leaders.add(pc + 1)
            elif op == "ldi" and instruction.label is not None:
                target = program.labels[instruction.label]
                leaders.add(target)
                self.indirect_entries.add(target)

        starts = sorted(leaders)
        self.block_of_pc = [0] * n
        for index, start in enumerate(starts):
            end = starts[index + 1] if index + 1 < len(starts) else n
            terminator = instructions[end - 1]
            succs = []
            op = terminator.op
            if op in BRANCH_OPS:
                succs.append(program.labels[terminator.label])
                if end < n:
                    succs.append(end)
            elif op == "jmp":
                succs.append(program.labels[terminator.label])
            elif op in ("call", "jmpr", "halt"):
                pass
            else:
                # Straight-line fall-through into the next block.
                if end < n:
                    succs.append(end)
            block = BasicBlock(index, start, end, succs)
            self.blocks.append(block)
            self.block_at[start] = block
            for pc in range(start, end):
                self.block_of_pc[pc] = index

        for block in self.blocks:
            for succ in block.succs:
                self.preds.setdefault(succ, []).append(block.start)

    def predecessors(self, block):
        return self.preds.get(block.start, [])

    def dynamic_block_stats(self, counts):
        """(weighted mean size, executed blocks) — the paper's basic-block
        length statistic, weighted by execution frequency."""
        total_ops = 0
        total_entries = 0
        for block in self.blocks:
            entries = counts[block.start]
            if entries:
                total_entries += entries
                total_ops += entries * block.size
        if total_entries == 0:
            return 0.0, 0
        return total_ops / total_entries, total_entries
