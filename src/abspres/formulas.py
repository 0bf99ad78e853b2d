"""Formula ASTs and the formula / transformer-expression parser.

Grammar (precedence ! > & > |, unary temporal operators bind like !):

    phi ::= ident
          | "!" phi | phi "&" phi | phi "|" phi
          | "EX" phi | "AX" phi
          | ("EU" | "AU" | "ER" | "AR") "(" phi "," phi ")"
          | "EF" "[" int "," int "]" phi
          | ident "(" [phi {"," phi}] ")"
          | "(" phi ")"

``ident "(" ")"`` applies a 0-ary operator (a constant), as its repr writes
it; the application counts as one operator of depth.

Transformer-expression bodies (operator definitions, completeness inputs)
reuse the same grammar extended with "#k" argument placeholders and the
"pre"/"post"/"pre~"/"post~" transformer keywords.
"""

from __future__ import annotations

import re
from typing import Union

from .errors import FormulaSyntaxError
from .lattice import StateSet, _set_field, _Value


class Atom(_Value):
    _fields = ("name",)
    name: str

    def __init__(self, name: str):
        _set_field(self, "name", name)

    def __repr__(self) -> str:
        return self.name


class Arg(_Value):
    """Placeholder #k (1-based) inside an operator definition."""

    _fields = ("index",)
    index: int

    def __init__(self, index: int):
        _set_field(self, "index", index)

    def __repr__(self) -> str:
        return f"#{self.index}"


class Const(_Value):
    """A fixed set; used for atom interpretations in completeness checks."""

    _fields = ("value",)
    value: StateSet

    def __init__(self, value: StateSet):
        _set_field(self, "value", value)

    def __repr__(self) -> str:
        return repr(self.value)


class App(_Value):
    _fields = ("op", "args")
    op: str
    args: tuple["Node", ...]

    def __init__(self, op: str, args: tuple["Node", ...]):
        _set_field(self, "op", op)
        _set_field(self, "args", args)

    def __repr__(self) -> str:
        if self.op == "not":
            return f"!{self.args[0]!r}"
        if self.op in ("and", "or"):
            glue = " & " if self.op == "and" else " | "
            return "(" + glue.join(repr(a) for a in self.args) + ")"
        # prefix style only where the grammar accepts it; custom operators
        # print in call style so that reprs stay parseable
        if self.op in UNARY_KEYWORDS or EF_PATTERN.match(self.op):
            inner = self.args[0]
            if isinstance(inner, (Atom, Arg, Const)):
                return f"{self.op} {inner!r}"
            return f"{self.op} ({inner!r})"
        return f"{self.op}({', '.join(repr(a) for a in self.args)})"


Node = Union[Atom, Arg, Const, App]
Formula = Node

BINARY_KEYWORDS = ("EU", "AU", "ER", "AR")
UNARY_KEYWORDS = ("EX", "AX", "pre", "post", "pre~", "post~")
EF_PATTERN = re.compile(r"^EF\[(\d+),(\d+)\]$")

# Deepest formula tree the parser accepts, counted in operators.  The text
# may nest twice as deep (a parenthesised group or an operand each open a
# level), which is what repr writes for a tree of this depth.  Both bounds
# keep parsing and the recursive walks of a parsed tree (evaluation,
# max_placeholder, repr) well inside Python's default recursion limit.
MAX_DEPTH = 50

_TOKEN = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*~?)|(?P<int>\d+)|(?P<arg>#\d+)"
    r"|(?P<punct>[!&|(),\[\]]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            # name the character no token starts with, not the blanks before it
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise FormulaSyntaxError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


def _shown(kind, val) -> str:
    """A token as a message names it; ``peek`` gives kind None at the end."""
    return "end of formula" if kind is None else repr(val)


class _Parser:
    """Recursive descent; each level returns a (node, tree depth) pair."""

    def __init__(self, text: str, allow_placeholders: bool):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.allow_placeholders = allow_placeholders
        self.open = 0  # text levels open at the current token

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.take()
        if val != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {_shown(kind, val)}", pos)

    def nested(self, level, pos: int):
        """Parse with ``level`` one text level further down; the count is
        checked before the recursion goes deeper."""
        self.open += 1
        if self.open > 2 * MAX_DEPTH:
            raise FormulaSyntaxError(f"formula text nested deeper than {2 * MAX_DEPTH} levels", pos)
        item = level()
        self.open -= 1
        return item

    def app(self, op: str, items, pos: int):
        depth = 1 + max((d for _, d in items), default=0)
        if depth > MAX_DEPTH:
            raise FormulaSyntaxError(f"formula deeper than {MAX_DEPTH} operators", pos)
        return App(op, tuple(node for node, _ in items)), depth

    def parse(self) -> Node:
        node, _ = self.or_level()
        kind, val, pos = self.peek()
        if kind is not None:
            raise FormulaSyntaxError(f"trailing input {val!r}", pos)
        return node

    def or_level(self):
        item = self.and_level()
        while self.peek()[1] == "|":
            pos = self.take()[2]
            item = self.app("or", (item, self.and_level()), pos)
        return item

    def and_level(self):
        item = self.unary_level()
        while self.peek()[1] == "&":
            pos = self.take()[2]
            item = self.app("and", (item, self.unary_level()), pos)
        return item

    def unary_level(self):
        kind, val, pos = self.peek()
        if val == "!" or (kind == "ident" and val in UNARY_KEYWORDS):
            self.take()
            op = "not" if val == "!" else val
        elif kind == "ident" and val == "EF":
            self.take()
            self.expect("[")
            lo = self.int_token()
            self.expect(",")
            hi = self.int_token()
            self.expect("]")
            if lo > hi:
                raise FormulaSyntaxError(f"empty bound range [{lo},{hi}]", pos)
            op = f"EF[{lo},{hi}]"
        else:
            return self.primary()
        return self.app(op, (self.nested(self.unary_level, pos),), pos)

    def int_token(self) -> int:
        kind, val, pos = self.take()
        if kind != "int":
            raise FormulaSyntaxError(f"expected an integer, found {_shown(kind, val)}", pos)
        return int(val)

    def primary(self):
        kind, val, pos = self.take()
        if val == "(":
            item = self.nested(self.or_level, pos)
            self.expect(")")
            return item
        if kind == "arg":
            if not self.allow_placeholders:
                raise FormulaSyntaxError("argument placeholders are not allowed here", pos)
            index = int(val[1:])
            if index < 1:
                raise FormulaSyntaxError("placeholder indices are 1-based", pos)
            return Arg(index), 0
        if kind == "ident":
            if val in BINARY_KEYWORDS:
                self.expect("(")
                left = self.nested(self.or_level, pos)
                self.expect(",")
                right = self.nested(self.or_level, pos)
                self.expect(")")
                return self.app(val, (left, right), pos)
            if self.peek()[1] == "(":
                self.take()
                if self.peek()[1] == ")":
                    self.take()
                    return self.app(val, (), pos)
                args = [self.nested(self.or_level, pos)]
                while self.peek()[1] == ",":
                    self.take()
                    args.append(self.nested(self.or_level, pos))
                self.expect(")")
                return self.app(val, args, pos)
            return Atom(val), 0
        if kind is None:
            raise FormulaSyntaxError("unexpected end of formula", pos)
        raise FormulaSyntaxError(f"unexpected token {val!r}", pos)


def parse_formula(text: str) -> Formula:
    """Parse a state formula; atoms are resolved later against a language."""
    return _Parser(text, allow_placeholders=False).parse()


def parse_transformer(text: str) -> Node:
    """Parse an operator body; "#k" refers to the k-th operator argument."""
    return _Parser(text, allow_placeholders=True).parse()


def max_placeholder(node: Node) -> int:
    if isinstance(node, Arg):
        return node.index
    if isinstance(node, App):
        return max((max_placeholder(a) for a in node.args), default=0)
    return 0
