"""Term descriptors used by the BAM intermediate representation.

The BAM compiler resolves every source variable to a *location* (an
argument-passing temporary or a permanent environment slot) and marks each
occurrence as first or subsequent.  The resulting descriptor trees drive
the read/write-mode expansion in :mod:`repro.intcode.translate` without
any further source-level analysis.
"""


class VarLoc:
    """Where a clause variable lives: a temporary or an environment slot."""

    __slots__ = ("kind", "index", "name")

    TEMP = "temp"
    PERM = "perm"

    def __init__(self, kind, index, name):
        self.kind = kind
        self.index = index
        self.name = name  # source name, for listings

    @property
    def is_perm(self):
        return self.kind == VarLoc.PERM

    def __repr__(self):
        prefix = "Y" if self.kind == VarLoc.PERM else "T"
        return "%s%d(%s)" % (prefix, self.index, self.name)


class Desc:
    """Base class of descriptor nodes."""

    __slots__ = ()


class DAtom(Desc):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "DAtom(%r)" % self.name


class DInt(Desc):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return "DInt(%d)" % self.value


class DVar(Desc):
    """An occurrence of a clause variable.

    ``first`` is True at the variable's earliest occurrence in the
    clause's left-to-right linearisation — the occurrence that *defines*
    the location.
    """

    __slots__ = ("loc", "first")

    def __init__(self, loc, first):
        self.loc = loc
        self.first = first

    def __repr__(self):
        return "DVar(%r, first=%s)" % (self.loc, self.first)


class DList(Desc):
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail

    def __repr__(self):
        return "DList(%r, %r)" % (self.head, self.tail)


class DStruct(Desc):
    __slots__ = ("name", "args")

    def __init__(self, name, args):
        self.name = name
        self.args = args

    @property
    def arity(self):
        return len(self.args)

    def __repr__(self):
        return "DStruct(%r, %r)" % (self.name, self.args)
