"""Operator-precedence Prolog parser.

Reads clause-at-a-time from a token stream produced by
:mod:`repro.reader.lexer`, building :mod:`repro.terms` trees.  Variables
with the same name inside one clause share a single :class:`~repro.terms.Var`
object; ``_`` is always fresh.
"""

from repro.reader.lexer import tokenize
from repro.reader import operators
from repro.terms import Atom, Int, Var, Struct, make_list, NIL


class ParseError(Exception):
    """Raised on syntactically invalid input."""

    def __init__(self, message, token=None):
        if token is not None:
            near = "end of input" if token.kind == "eof" \
                else "near %r" % (token.value,)
            message = "%s at line %d (%s)" % (message, token.line, near)
        super().__init__(message)


class _ClauseParser:
    """Parses one clause (up to the terminating full stop)."""

    def __init__(self, tokens, pos):
        self.tokens = tokens
        self.pos = pos
        self.varmap = {}

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_punct(self, value):
        token = self.next()
        if not (token.kind == "punct" and token.value == value):
            raise ParseError("expected %r" % value, token)

    def var(self, name):
        if name == "_":
            return Var("_")
        if name not in self.varmap:
            self.varmap[name] = Var(name)
        return self.varmap[name]

    # -- expression parsing ---------------------------------------------

    def parse(self, max_priority):
        """Parse a term whose priority does not exceed *max_priority*."""
        left, left_priority = self.parse_primary(max_priority)
        return self.parse_infix(left, left_priority, max_priority)

    def parse_infix(self, left, left_priority, max_priority):
        while True:
            token = self.peek()
            if token.kind != "atom":
                return left
            name = token.value
            if name == "|":
                name = ";"  # '|' as an infix alias for disjunction
            entry = operators.infix(name)
            if entry is None:
                return left
            priority, left_max, right_max = entry
            if priority > max_priority or left_priority > left_max:
                return left
            self.next()
            right = self.parse(right_max)
            left = Struct(name, [left, right])
            left_priority = priority

    def parse_primary(self, max_priority):
        """Parse a primary term; returns (term, priority)."""
        token = self.next()

        if token.kind == "int":
            return Int(token.value), 0

        if token.kind == "var":
            return self.var(token.value), 0

        if token.kind == "string":
            return make_list([Int(ord(c)) for c in token.value]), 0

        if token.kind == "punct":
            if token.value == "(":
                term = self.parse(1200)
                self.expect_punct(")")
                return term, 0
            if token.value == "[":
                return self.parse_list(), 0
            if token.value == "{":
                nxt = self.peek()
                if nxt.kind == "punct" and nxt.value == "}":
                    self.next()
                    return Atom("{}"), 0
                inner = self.parse(1200)
                self.expect_punct("}")
                return Struct("{}", [inner]), 0
            raise ParseError("unexpected punctuation", token)

        if token.kind == "atom":
            name = token.value
            nxt = self.peek()
            # Functor application: no layout between atom and '('.
            if (nxt.kind == "punct" and nxt.value == "("
                    and not nxt.layout_before):
                self.next()
                args = [self.parse(999)]
                while True:
                    sep = self.next()
                    if sep.kind == "atom" and sep.value == ",":
                        args.append(self.parse(999))
                        continue
                    if sep.kind == "punct" and sep.value == ")":
                        break
                    raise ParseError("expected ',' or ')'", sep)
                return Struct(name, args), 0
            # Negative number literal.
            if name == "-" and nxt.kind == "int" and not nxt.layout_before:
                self.next()
                return Int(-nxt.value), 0
            # Prefix operator.
            entry = operators.prefix(name)
            if entry is not None and self._starts_term(nxt):
                priority, arg_max = entry
                if priority <= max_priority:
                    arg = self.parse(arg_max)
                    return Struct(name, [arg]), priority
            return Atom(name), 0

        raise ParseError("unexpected token", token)

    def _starts_term(self, token):
        """Can *token* begin a term (so a prefix op applies)?"""
        if token.kind in ("int", "var", "string"):
            return True
        if token.kind == "punct":
            return token.value in "([{"
        if token.kind == "atom":
            # An atom that is purely an infix operator does not start a term.
            if token.value in (",", "|", ")"):
                return False
            if (operators.infix(token.value)
                    and not operators.prefix(token.value)
                    and token.value not in ("[", "(")):
                return False
            return True
        return False

    def parse_list(self):
        token = self.peek()
        if token.kind == "punct" and token.value == "]":
            self.next()
            return NIL
        items = [self.parse(999)]
        while True:
            token = self.next()
            if token.kind == "atom" and token.value == ",":
                items.append(self.parse(999))
                continue
            if token.kind == "atom" and token.value == "|":
                tail = self.parse(999)
                self.expect_punct("]")
                return make_list(items, tail)
            if token.kind == "punct" and token.value == "]":
                return make_list(items)
            raise ParseError("expected ',', '|' or ']'", token)


def parse_program(text):
    """Parse *text* into a list of clause terms.

    Each returned term is either a fact (head term), a rule
    ``':-'(Head, Body)``, or a directive ``':-'(Goal)``.
    """
    tokens = tokenize(text)
    clauses = []
    pos = 0
    while tokens[pos].kind != "eof":
        parser = _ClauseParser(tokens, pos)
        term = parser.parse(1200)
        token = parser.next()
        if token.kind != "end":
            raise ParseError("expected '.' ending a clause", token)
        clauses.append(term)
        pos = parser.pos
    return clauses


def parse_term(text):
    """Parse a single term (no trailing full stop required)."""
    tokens = tokenize(text)
    parser = _ClauseParser(tokens, 0)
    term = parser.parse(1200)
    token = parser.peek()
    if token.kind not in ("end", "eof"):
        raise ParseError("trailing input after term", token)
    return term
