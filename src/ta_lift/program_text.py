"""Parser and renderer for accelerator programs written as C macro calls.

The accepted subset mirrors what the instruction macros look like in C:

    // comments
    static uint32_t NAME = EXPR;
    config_ex(WEIGHT_STATIONARY, NO_ACTIVATION, true, false);
    mvin(buf + EXPR, EXPR, cols, rows);
    for (int i = 0; i < 12; i += 4) { ... }
    if (i == 0) { ... } else { ... }

Expressions are integers over decimal/hex literals, previously declared
symbols, `sizeof(float)` (= `ELEMENT_BYTES`), and the operators  + - * | <<  with C
precedence; a `<<` or `*` whose result reaches 2**64 in magnitude is a
syntax error, raised before the value is computed.  Loops must have
compile-time-constant bounds and are fully unrolled at parse time, at most
`_UNROLL_LIMIT` body iterations per loop and in total; `if`
conditions may compare loop variables and constants.  DRAM operands are
`buffer` or `buffer + EXPR` where the offset counts 4-byte elements.  A
`void test(...) { ... }` wrapper is tolerated and stripped.  Program text
is ASCII; any other character outside a comment is a syntax error.
Blocks, `for`, `if`, the wrapper, and parentheses in expressions and
conditions nest at most `_MAX_NESTING` levels deep.

Programs in the golden emitter's and `render_program`'s format are plain
throughout, so `parse_program` reads text with one regex match per line for
as long as each line is plain: blank, a comment, a `static uint32_t NAME =
OPERAND;` declaration or a call whose operands are each a name, a decimal
or hex literal, or `atom + atom`.  The match captures each operand's atoms,
and a reader compiled per mnemonic from `INSTRUCTIONS` turns them into the
instruction.  At the first line it does not accept, or that the token parser
would read otherwise or refuse, it hands the rest of the text, with the
symbols and instructions so far, to the tokenizer and the token parser, so
every error and its line are theirs.  Text in the prompt examples' format (a
`void test(...) {` wrapper, `sizeof`, `<<`, `|` or `*`) has no plain first
line and goes to the token parser whole.

What a plain line reads as depends only on the line, the buffer table and
the symbols declared before it.  The samples of one prompt repeat most of
each other's lines, so a caller may pass `parse_program` a line memo that
it keeps over texts parsed against one buffer table: a tree with one node
per sequence of declarations, in which each row read under a node is held
with what it read as.  A row held under the current node is not matched
again.  Without a memo each text starts from a fresh root.
"""

from __future__ import annotations

import operator
import re
import string
import sys
from functools import cache
from typing import Callable, Iterable

from .isa import (
    BY_MNEMONIC,
    ELEMENT_BYTES,
    INSTRUCTIONS,
    LOCAL_ADDR_MAX,
    Activation,
    Dataflow,
    DramRef,
    Instruction,
    InstructionSpec,
    Program,
    spec_of,
)

_UNROLL_LIMIT = 200_000
# The parser is recursive descent, at most five Python frames per level.
_MAX_NESTING = 100
_INT_LIMIT = 1 << 64


class ProgramSyntaxError(ValueError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class UnknownFunctionError(ProgramSyntaxError):
    def __init__(self, line: int, name: str):
        super().__init__(line, f"unknown function '{name}'")
        self.name = name


class UnboundSymbolError(ProgramSyntaxError):
    def __init__(self, line: int, name: str):
        super().__init__(line, f"unbound symbol '{name}'")
        self.name = name


class NonConstantLoopBoundError(ProgramSyntaxError):
    """A loop bound, step or unrolled size the parser refuses."""


_PUNCT = (
    "<<=",  # never valid here but keeps << and <= from colliding
    "<<",
    "+=",
    "-=",
    "++",
    "--",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "(",
    ")",
    "{",
    "}",
    ";",
    ",",
    "+",
    "-",
    "*",
    "|",
    "<",
    ">",
    "=",
)

# Tokens are strings: a name, a number, a punct, or "" for the end of input.
# `_tokenize` returns them with a parallel list of line numbers.
_Tokens = tuple[list[str], list[int]]

# One word per token of a comment-free line, and one for each other character
# that is not a space, which `_check_line` reports.
_WORD = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*|0[xX][0-9a-fA-F]*|[0-9]+|"
    + "|".join(re.escape(p) for p in _PUNCT)
    + r"|[^ \t\r]"
)
# Every word of a line with no match here, and no longer than the shortest
# digit limit Python may apply to int(), is a well-formed token.
_SUSPECT = re.compile(r"[^A-Za-z0-9_ \t\r<>=+\-|(){};,*]|0[xX](?![0-9a-fA-F])")
_SHORT_LINE = sys.int_info.str_digits_check_threshold
_ONE_CHAR_TOKENS = frozenset(string.ascii_letters + string.digits + "_(){};,+-*|<>=")


def _check_line(words: list[str], line: int) -> None:
    """Raise at the first word that is not a token."""
    for word in words:
        if word[0] in string.digits:
            if len(word) == 2 and word[1] in "xX":
                raise ProgramSyntaxError(line, f"hex literal '{word}' has no digits")
            limit = sys.get_int_max_str_digits()
            if limit and len(word) > limit and word.isdigit():
                raise ProgramSyntaxError(line, f"integer literal has more than {limit} digits")
        elif len(word) == 1 and word not in _ONE_CHAR_TOKENS:
            raise ProgramSyntaxError(line, f"unexpected character {word!r}")


def _tokenize(text: str, first: int = 1) -> _Tokens:
    """Split ASCII program text into tokens; any other character is a syntax error.

    Each line is cut at its first `//`, which no token contains.  Lines are
    numbered from `first`.  The token list ends with "" on the last line.
    """
    toks: list[str] = []
    lines: list[int] = []
    number = first - 1
    for number, line in enumerate(text.split("\n"), first):
        cut = line.find("//")
        if cut >= 0:
            line = line[:cut]
        words = _WORD.findall(line)
        if len(line) > _SHORT_LINE or _SUSPECT.search(line):
            _check_line(words, number)
        toks += words
        lines += [number] * len(words)
    toks.append("")
    lines.append(number)
    return toks, lines


def _number(tok: str) -> int:
    return int(tok, 16) if tok[1:2] in ("x", "X") else int(tok)


_DATAFLOWS = {d.value: d for d in Dataflow}
_ACTIVATIONS = {a.value: a for a in Activation}
# The words each operand kind reads as values.  A dataflow or an activation is one word; a flag is one of its
# words or, as every other operand is, an expression.
_WORDS = {"dataflow": _DATAFLOWS, "activation": _ACTIVATIONS, "flag": {"true": True, "false": False}}
_KEYWORDS = {"static", "uint32_t", "int", "for", "if", "else", "void", "sizeof", "float", "true", "false"}

# Binary operators by precedence, all left-associative, as in C.
_BINARY = {"|": 1, "<<": 2, "+": 3, "-": 3, "*": 4}
_COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class _Parser:
    def __init__(self, toks: list[str], lines: list[int], buffers: dict[str, tuple[int, int]]):
        self.toks = toks
        self.lines = lines
        self.pos = 0
        self.buffers = dict(buffers)
        self.symbols: dict[str, int] = {}
        self.scopes: list[dict[str, int]] = []
        self.out: list[Instruction] = []
        self.depth = 0
        # Loop-body iterations over the whole parse, loops in skipped statements included.
        self.iterations = 0

    # -- token helpers ------------------------------------------------------
    # The end token "" matches no expected text, so a parse that goes on never
    # moves past it.

    def next(self) -> str:
        """The current token; the position moves on unless it is the end."""
        tok = self.toks[self.pos]
        if tok:
            self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.toks[self.pos]
        if tok != text:
            raise self.error(f"expected '{text}', found '{tok or 'end of input'}'")
        self.pos += 1

    def error(self, reason: str, pos: int | None = None) -> ProgramSyntaxError:
        """A syntax error at the line of token `pos`, the current one by default."""
        return ProgramSyntaxError(self.lines[self.pos if pos is None else pos], reason)

    def enter(self) -> None:
        """Open one nesting level; the caller closes it with `self.depth -= 1`."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise self.error(f"nesting deeper than {_MAX_NESTING} levels")

    # -- name resolution ----------------------------------------------------

    def lookup(self, name: str, pos: int) -> int:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        if name in self.symbols:
            return self.symbols[name]
        raise UnboundSymbolError(self.lines[pos], name)

    # -- expressions --------------------------------------------------------

    def parse_expr(self, floor: int = 1) -> int:
        """An operand, then every binary operator of precedence `floor` or more (precedence climbing)."""
        toks = self.toks
        pos = self.pos
        tok = toks[pos]
        negate = False
        while tok == "-":
            negate = not negate
            pos += 1
            tok = toks[pos]
        self.pos = pos + 1
        if tok[:1].isdigit():
            value = _number(tok)
        elif tok == "(":
            self.enter()
            value = self.parse_expr()
            self.expect(")")
            self.depth -= 1
        elif tok == "sizeof":
            self.expect("(")
            self.expect("float")
            self.expect(")")
            value = ELEMENT_BYTES
        elif tok.isidentifier():
            value = self.lookup(tok, pos)
        else:
            raise self.error(f"expected an expression, found '{tok or 'end of input'}'", pos)
        if negate:
            value = -value
        while True:
            op = toks[self.pos]
            precedence = _BINARY.get(op, 0)
            if precedence < floor:
                return value
            at = self.pos
            self.pos += 1
            rhs = self.parse_expr(precedence + 1)
            if op == "+":
                value += rhs
            elif op == "-":
                value -= rhs
            elif op == "|":
                value |= rhs
            elif op == "*":
                # Nonzero factors of a and b bits multiply to at least 2**(a+b-2),
                # so only products of at most 65 bits are computed.
                if value and rhs and value.bit_length() + rhs.bit_length() > 65 or abs(value * rhs) >= _INT_LIMIT:
                    raise self.error("'*' result reaches 2**64 in magnitude", at)
                value *= rhs
            else:
                if rhs < 0:
                    raise self.error(f"negative shift count {rhs}", at)
                if value and value.bit_length() + rhs > 64:
                    raise self.error("'<<' result reaches 2**64 in magnitude", at)
                value <<= rhs

    # -- conditions for if() ------------------------------------------------

    def parse_cond(self) -> bool:
        v = self._cond_and()
        while self.toks[self.pos] == "||":
            self.pos += 1
            rhs = self._cond_and()
            v = v or rhs
        return v

    def _cond_and(self) -> bool:
        v = self._cond_atom()
        while self.toks[self.pos] == "&&":
            self.pos += 1
            rhs = self._cond_atom()
            v = v and rhs
        return v

    def _cond_atom(self) -> bool:
        # A parenthesized condition is ambiguous with a parenthesized integer
        # expression; try the condition reading first.
        if self.toks[self.pos] == "(":
            save = self.pos, self.depth
            self.pos += 1
            self.enter()
            try:
                v = self.parse_cond()
                self.expect(")")
                self.depth -= 1
                return v
            except ProgramSyntaxError:
                self.pos, self.depth = save
        lhs = self.parse_expr()
        op = self.toks[self.pos]
        if op not in _COMPARE:
            raise self.error(f"expected a comparison operator, found '{op}'")
        self.pos += 1
        return _COMPARE[op](lhs, self.parse_expr())

    # -- operand helpers ----------------------------------------------------

    def parse_dram_ref(self) -> DramRef:
        at = self.pos
        name = self.toks[at]
        if not name.isidentifier():
            raise self.error("DRAM operand must start with a buffer name")
        if name not in self.buffers:
            # A declared symbol is not a buffer; anything else is unbound.
            if name in self.symbols or any(name in scope for scope in self.scopes):
                raise self.error(f"'{name}' is not a declared buffer")
            raise UnboundSymbolError(self.lines[at], name)
        self.pos += 1
        offset = 0
        sign = self.toks[self.pos]
        if sign == "+" or sign == "-":
            self.pos += 1
            offset = self.parse_expr() if sign == "+" else -self.parse_expr()
        if offset < 0:
            raise self.error(f"negative DRAM offset {offset} for buffer '{name}'", at)
        return DramRef(name, offset)

    # -- statements ---------------------------------------------------------

    def parse_program_body(self) -> None:
        while self.toks[self.pos]:
            self.parse_statement()

    def parse_statement(self) -> None:
        tok = self.toks[self.pos]
        if tok in ("{", "void", "for", "if"):
            self.enter()
            if tok == "{":
                self._parse_block()
            elif tok == "void":
                self._parse_function_wrapper()
            elif tok == "for":
                self._parse_for()
            else:
                self._parse_if()
            self.depth -= 1
        elif tok == ";":
            self.pos += 1
        elif tok == "static" or tok == "uint32_t":
            self._parse_declaration()
        elif tok.isidentifier() and self.toks[self.pos + 1] == "(":
            self._parse_call()
        else:
            raise self.error(f"unexpected token '{tok or 'end of input'}'")

    def _parse_block(self) -> None:
        at = self.pos
        self.expect("{")
        while self.toks[self.pos] != "}":
            if not self.toks[self.pos]:
                raise self.error("unterminated block", at)
            self.parse_statement()
        self.pos += 1

    def _parse_function_wrapper(self) -> None:
        self.expect("void")
        at = self.pos
        if not self.next().isidentifier():
            raise self.error("expected a function name after 'void'", at)
        self.expect("(")
        depth = 1
        while depth:
            tok = self.next()
            if not tok:
                raise self.error("unterminated parameter list", at)
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
        self.parse_statement()  # the function body block

    def _parse_declaration(self) -> None:
        if self.toks[self.pos] == "static":
            self.pos += 1
        self.expect("uint32_t")
        at = self.pos
        name = self.next()
        if not name.isidentifier():
            raise self.error("expected a name in declaration", at)
        if name in self.buffers:
            raise self.error(f"'{name}' is already a buffer name", at)
        self.expect("=")
        value = self.parse_expr()
        self.expect(";")
        self.symbols[name] = value

    def _word(self, want: str, reason: str) -> None:
        """Consume the current token, which must be `want`, or raise `reason`."""
        if self.toks[self.pos] != want:
            raise self.error(reason)
        self.pos += 1

    def _parse_for(self) -> None:
        # The one place a scoped name is bound, always as `NAME =` in the header.
        kw = self.pos
        self.expect("for")
        self.expect("(")
        if self.toks[self.pos] in ("int", "uint32_t"):
            self.pos += 1
        at = self.pos
        var = self.next()
        if not var.isidentifier():
            raise self.error("expected a loop variable name", at)
        self.expect("=")
        start = self.parse_expr()
        self.expect(";")
        self._word(var, f"loop condition must test '{var}'")
        cmp = self.toks[self.pos]
        if cmp not in ("<", "<="):
            raise NonConstantLoopBoundError(self.lines[self.pos], f"unsupported loop comparison '{cmp}'")
        self.pos += 1
        bound = self.parse_expr()
        if cmp == "<=":
            bound += 1
        self.expect(";")
        self._word(var, f"loop step must update '{var}'")
        at = self.pos
        update = self.next()
        if update == "++":
            step = 1
        elif update == "+=":
            step = self.parse_expr()
        elif update == "=":
            self._word(var, f"loop step must update '{var}'")
            self.expect("+")
            step = self.parse_expr()
        else:
            raise self.error(f"unsupported loop step '{update}'", at)
        if step <= 0:
            raise NonConstantLoopBoundError(self.lines[kw], f"loop step must be positive, got {step}")
        if bound - start > _UNROLL_LIMIT * step:
            raise NonConstantLoopBoundError(self.lines[kw], "loop unrolls to too many iterations")
        self.expect(")")
        body_start = self.pos
        value = start
        while value < bound:
            self.iterations += 1
            if self.iterations > _UNROLL_LIMIT:
                raise NonConstantLoopBoundError(self.lines[kw], "loops unroll to too many iterations in total")
            self.pos = body_start
            self.scopes.append({var: value})
            self.parse_statement()
            self.scopes.pop()
            value += step
            if len(self.out) > _UNROLL_LIMIT:
                raise NonConstantLoopBoundError(self.lines[kw], "program unrolls to too many instructions")
        if start >= bound:
            # Still need to skip over the (never-executed) body.
            self.scopes.append({var: start})
            self._skip_statement()
            self.scopes.pop()

    def _skip_statement(self) -> None:
        # Consume one statement's tokens without emitting instructions.
        before = len(self.out)
        self.parse_statement()
        del self.out[before:]

    def _parse_if(self) -> None:
        self.expect("if")
        self.expect("(")
        taken = self.parse_cond()
        self.expect(")")
        if taken:
            self.parse_statement()
        else:
            self._skip_statement()
        if self.toks[self.pos] == "else":
            self.pos += 1
            if taken:
                self._skip_statement()
            else:
                self.parse_statement()

    def _parse_call(self) -> None:
        at = self.pos
        name = self.toks[at]
        spec = BY_MNEMONIC.get(name)
        if spec is None:
            raise UnknownFunctionError(self.lines[at], name)
        self.pos += 2  # the name and its '('
        starts: list[int] = []
        values = _resolve(spec.operands, (self._raw_operand(kind, starts) for _, kind in spec.operands))
        if isinstance(values, str):
            raise self.error(values, starts[-1])
        self.expect(")")
        self.expect(";")
        self.out.append(spec.build(*values))

    def _raw_operand(self, kind: str, starts: list[int]) -> object:
        """The next operand as `_resolve` takes it, after a comma unless first; `starts` gets its first token."""
        if starts:
            self.expect(",")
        starts.append(self.pos)
        if kind == "dram":
            return self.parse_dram_ref()
        if kind in _WORDS and (kind != "flag" or self.toks[self.pos] in _WORDS[kind]):
            return self.next()
        return self.parse_expr()


def _resolve(operands: tuple[tuple[str, str], ...], raws: Iterable[object]) -> list[object] | str:
    """The values of a call's (field, kind) `operands` from raw ones, or why the first that fails is refused.

    A raw operand is a DramRef, a word or an integer.  Raws after a refused one are not read.
    """
    values = []
    for (_, kind), raw in zip(operands, raws):
        if raw.__class__ is str:
            if raw not in _WORDS[kind]:
                return f"unknown {kind} '{raw}'"
            raw = _WORDS[kind][raw]
        elif kind == "local":
            if raw < 0 or raw > LOCAL_ADDR_MAX:
                return f"local address {raw:#x} outside 32-bit range"
        elif kind == "flag":
            raw = bool(raw)
        elif raw.__class__ is int and raw < 0 and kind != "channel":
            return f"{kind} must be non-negative, got {raw}"
        values.append(raw)
    return values


# A line that holds one plain statement, or none: a `static uint32_t` declaration
# of one operand or a call of at most one operand more than any mnemonic takes,
# each operand an atom or `atom + atom`, then perhaps a comment.  The groups are the
# declared name, its (head, tail) atoms, the mnemonic and each call operand's (head,
# tail).  No two runs of blanks are adjacent, so a failed match is linear in time.
_S = "[ \t\r]*"
_ATOM = "[A-Za-z0-9_]+"
_OPERAND = rf"({_ATOM})(?:{_S}\+{_S}({_ATOM}))?"
_OPERANDS = _OPERAND
for _ in range(max(len(spec.operands) for spec in INSTRUCTIONS)):
    _OPERANDS = rf"{_OPERAND}(?:{_S},{_S}{_OPERANDS})?"
_PLAIN_LINE = re.compile(
    rf"{_S}(?:(?:static[ \t\r]+uint32_t[ \t\r]+([A-Za-z_][A-Za-z0-9_]*){_S}={_S}{_OPERAND}"
    rf"|({_ATOM}){_S}\({_S}(?:{_OPERANDS}{_S})?\)){_S};{_S})?(?://.*)?"
)
_NUMBER = re.compile(r"[0-9]+|0[xX][0-9a-fA-F]+")


class _Atoms(dict):
    """Atom to the value `_Parser.parse_expr` reads for it alone: the declared names, and numbers as they are met.

    None for any other atom, which `_Parser` would not read as a value, and 0 for a missing one ("").
    """

    def __missing__(self, atom: str) -> int | None:
        if not _NUMBER.fullmatch(atom):
            return None
        value = self[atom] = _number(atom)
        return value


# How a reader reads each operand kind from its head and tail atoms `{h}` and `{t}`: its value `{v}` (an
# atom that reads as None makes a sum raise TypeError), what refuses it and the argument.  Other kinds are counts.
_SUM = "atoms[{h}] + atoms[{t}]"
_READ_OPERAND = {
    "dram": ("atoms[{t}]", "{v} is None or {h} not in buffers", "DramRef({h}, {v})"),
    "local": (_SUM, f"not 0 <= {{v}} <= {LOCAL_ADDR_MAX}", "{v}"),
    "flag": (f"FLAGS[{{h}}] if {{h}} in FLAGS else bool({_SUM})", "{t} and {h} in FLAGS", "{v}"),
    "dataflow": ("DATAFLOWS.get({h})", "{v} is None or {t}", "{v}"),
    "activation": ("ACTIVATIONS.get({h})", "{v} is None or {t}", "{v}"),
    "channel": (_SUM, "", "{v}"),
}
_READ_COUNT = (_SUM, "{v} < 0", "{v}")
_compile = cache(compile)  # mnemonics with the same operand kinds share one compiled reader


def _reader(spec: InstructionSpec) -> Callable[[tuple[str, ...], _Atoms, dict], Instruction | None]:
    """One function for the whole call, compiled from the entry's operand kinds.

    It takes `_PLAIN_LINE`'s groups, "" for each missing one, and never raises: it returns None where `_Parser`
    must read the line, such as for an unknown word, an unbound name or a wrong operand count."""
    count = len(spec.operands)
    # An operand past the last one the mnemonic takes, or a missing last one, refuses the line.
    values, refusals, args = [], [f"g[{4 + 2 * count}]"] + [f"not g[{2 + 2 * count}]"] * bool(count), []
    for i, (_, kind) in enumerate(spec.operands):
        value, refusal, arg = (part.format(h=f"g[{4 + 2 * i}]", t=f"g[{5 + 2 * i}]", v=f"v{i}")
                               for part in _READ_OPERAND.get(kind, _READ_COUNT))
        values.append(f"v{i} = {value}")
        refusals += [refusal] * bool(refusal)
        args.append(arg)
    source = (f"def read(g, atoms, buffers):\n try: {'; '.join(values) or 'pass'}\n except TypeError: return None\n"
              f" if {' or '.join(refusals)}: return None\n return build({', '.join(args)})")
    names = {"build": spec.build, "DramRef": DramRef, "FLAGS": _WORDS["flag"],
             "DATAFLOWS": _DATAFLOWS, "ACTIVATIONS": _ACTIVATIONS}
    exec(_compile(source, "<reader>", "exec"), names)
    return names["read"]


_READERS = {spec.mnemonic: _reader(spec) for spec in INSTRUCTIONS}


# What a row the matcher has read, other than a call or a declaration, stands for.
_BLANK = "blank"  # a blank or comment row
_REFUSED = "refused"  # a row left to `_Parser`

# A line memo is a tree of dicts.  A node stands for one symbol table; it maps each row read
# under that table to what it reads as (an instruction, `_BLANK`, `_REFUSED` or, for a
# declaration, its `(name, value)`), and each `(name, value)` declared under it to the node
# of the table the declaration gives.
def _take_plain_lines(rows: list[str], buffers: dict[str, tuple[int, int]], symbols: dict[str, int],
                      out: list[Instruction], atoms: _Atoms | None = None, memo: dict | None = None) -> int:
    """Parse the leading plain lines into `symbols` and `out`, as `_Parser` would; the number of lines taken.

    The lines may read the names already in `symbols`.  Stops, without
    raising, at the first line that is not plain or that `_Parser` might read
    otherwise or refuse, and leaves that line to it.  A line longer than the
    shortest digit limit Python may apply to int() is left to it too, so
    every number taken here converts.

    A row costs one match, and a call row one call of its mnemonic's reader,
    unless `memo` already holds it under the current symbol table.  `memo` is
    the node of the table `symbols` holds on entry; each declaration moves to
    the child node of its `(name, value)`, so texts that declare the same
    names with the same values in the same order share nodes, and a
    declaration costs O(1).  Without `memo` the root is a fresh dict, so
    within one text a row is read once between two declarations.  One memo
    may be shared only by parses against one buffer table, since a row's
    reading depends on it.

    `atoms`, when given, must hold `symbols` and is kept up to date with
    them; calls over the rows of one text that share it convert each number
    once.
    """
    if atoms is None:
        atoms = _Atoms({**symbols, "": 0})
    node = {} if memo is None else memo
    for number, row in enumerate(rows):
        read = node.get(row)
        if read is None:
            read = _REFUSED
            match = len(row) <= _SHORT_LINE and _PLAIN_LINE.fullmatch(row)
            if match:
                groups = match.groups("")
                name, head, tail, mnemonic = groups[:4]
                if name:
                    value, extra = atoms[head], atoms[tail]
                    if not (name in buffers or name in _KEYWORDS or value is None or extra is None):
                        read = (name, value + extra)
                elif not mnemonic:
                    read = _BLANK
                else:
                    reader = _READERS.get(mnemonic)
                    read = reader and reader(groups, atoms, buffers) or _REFUSED
            node[row] = read
        if read.__class__ is tuple:
            name, value = read
            symbols[name] = atoms[name] = value
            node = node.setdefault(read, {})
        elif read is _REFUSED:
            return number
        elif read is not _BLANK:
            out.append(read)
    return len(rows)


def parse_program(text: str, buffers: dict[str, tuple[int, int]], memo: dict | None = None) -> Program:
    """Parse program text into a Program.

    `buffers` maps the kernel's DRAM buffer names to (rows, cols); a DRAM
    operand must name one of them, and any other name is unbound.  `memo`,
    when given, is a line memo (`_take_plain_lines`) kept by the caller over
    texts parsed against the same `buffers`, such as the samples of one
    prompt: each row it holds is not matched again.
    """
    symbols: dict[str, int] = {}
    out: list[Instruction] = []
    rows = text.split("\n")
    taken = _take_plain_lines(rows, buffers, symbols, out, memo=memo)
    if taken:
        text = "\n".join(rows[taken:])
    parser = _Parser(*_tokenize(text, taken + 1), buffers)
    parser.symbols, parser.out = symbols, out
    parser.parse_program_body()
    return Program(tuple(parser.out), parser.buffers, parser.symbols)


# -- rendering ---------------------------------------------------------------


def _render_dram(ref: DramRef) -> str:
    if ref.offset:
        return f"{ref.buffer} + {ref.offset}"
    return ref.buffer


# How each operand kind is written, as an f-string field over `ins`; any
# other kind is an integer.
_OPERAND_TEXT = {
    "dram": "{_render_dram(ins.%s)}",
    "local": "{ins.%s:#x}",
    "flag": "{'true' if ins.%s else 'false'}",
    "dataflow": "{ins.%s.value}",
    "activation": "{ins.%s.value}",
}


def _renderer(spec: InstructionSpec) -> Callable[[Instruction], str]:
    """One f-string for the whole call, compiled from the entry's operand kinds."""
    fields = ", ".join(_OPERAND_TEXT.get(kind, "{ins.%s}") % name for name, kind in spec.operands)
    return eval(f'lambda ins: f"{spec.mnemonic}({fields});"', {"_render_dram": _render_dram})


_RENDERERS = {spec: _renderer(spec) for spec in INSTRUCTIONS}


def render_instruction(ins: Instruction) -> str:
    return _RENDERERS[spec_of(ins)](ins)


def render_program(p: Program) -> str:
    """Render a Program to text that parses back to an equal Program."""
    lines = [f"static uint32_t {name} = {value:#x};" for name, value in p.symbols.items()]
    lines.extend(render_instruction(ins) for ins in p.instructions)
    return "\n".join(lines) + ("\n" if lines else "")
