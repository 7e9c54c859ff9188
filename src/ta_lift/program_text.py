"""Parser and renderer for accelerator programs written as C macro calls.

The accepted subset mirrors what the instruction macros look like in C:

    // comments
    static uint32_t NAME = EXPR;
    config_ex(WEIGHT_STATIONARY, NO_ACTIVATION, true, false);
    mvin(buf + EXPR, EXPR, cols, rows);
    for (int i = 0; i < 12; i += 4) { ... }
    if (i == 0) { ... } else { ... }

Expressions are integers over decimal/hex literals, previously declared
symbols, `sizeof(float)` (= 4), and the operators  + - * | <<  with C
precedence.  Loops must have compile-time-constant bounds and are fully
unrolled at parse time; `if` conditions may compare loop variables and
constants.  DRAM operands are `buffer` or `buffer + EXPR` where the offset
counts 4-byte elements.  A `void test(...) { ... }` wrapper is tolerated
and stripped.  Program text is ASCII; any other character outside a
comment is a syntax error.  Blocks, `for`, `if`, the wrapper, and
parentheses in expressions and conditions nest at most `_MAX_NESTING`
levels deep.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass

from .isa import (
    SENTINEL,
    Activation,
    ComputeAccumulated,
    ComputePreloaded,
    ConfigEx,
    ConfigLd,
    ConfigSt,
    Dataflow,
    DramRef,
    Fence,
    Instruction,
    LocalAddr,
    Mvin,
    Mvout,
    Preload,
    PreloadZeros,
    Program,
)

_UNROLL_LIMIT = 200_000
# The parser is recursive descent, one to seven Python frames per level.
_MAX_NESTING = 100


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
    def __init__(self, line: int, reason: str):
        super().__init__(line, reason)


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


@dataclass(slots=True)
class _Tok:
    kind: str  # "ident" | "num" | "punct" | "eof"
    text: str
    value: int | None
    line: int


# One alternative per token class, tried in order; `bad` catches every other
# character, so the scan covers the whole text.
_TOKEN = re.compile(
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<space>[ \t\r\n]+)"
    r"|(?P<punct>" + "|".join(re.escape(p) for p in _PUNCT) + ")"
    r"|(?P<hex>0[xX][0-9a-fA-F]*)"
    r"|(?P<dec>[0-9]+)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str, starts: list[int] | None = None) -> list[_Tok]:
    """Split ASCII program text into tokens; any other character is a syntax error.

    When `starts` is given, the offset of each token but `eof` is appended to it.
    """
    toks: list[_Tok] = []
    line = 1
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        word = m.group()
        if kind == "ident" or kind == "punct":
            tok = _Tok(kind, word, None, line)
        elif kind == "space":
            line += word.count("\n")
            continue
        elif kind == "dec":
            tok = _Tok("num", word, int(word), line)
        elif kind == "hex":
            if len(word) == 2:
                raise ProgramSyntaxError(line, f"hex literal '{word}' has no digits")
            tok = _Tok("num", word, int(word, 16), line)
        elif kind == "comment":
            continue
        else:
            raise ProgramSyntaxError(line, f"unexpected character {word!r}")
        toks.append(tok)
        if starts is not None:
            starts.append(m.start())
    toks.append(_Tok("eof", "", None, line))
    return toks


# What must precede a '-' for it to join into a longer punct ("-" + "-" is "--").
_MINUS_JOINS = tuple(p[:-1] for p in _PUNCT if len(p) > 1 and p.endswith("-"))


def _tokenize_slots(text: str, offsets: list[int]) -> tuple[list[_Tok], list[int]] | None:
    """Tokenize `text`, which holds a `0` placeholder at each offset, and find each placeholder's token.

    A placeholder has a slot when it is a token of its own and no '-' put
    before it would join the punct in front of it; then any integer that
    `_fill_slots` puts there tokenizes exactly as it would in the text.
    None when the text does not tokenize or some placeholder has no slot:
    it sits in a comment, is joined to a neighbour (`x0`, `00`, `0x4`) or
    follows a '-'.
    """
    starts: list[int] = []
    try:
        toks = _tokenize(text, starts)
    except ProgramSyntaxError:
        return None
    slots: list[int] = []
    for offset in offsets:
        slot = bisect_left(starts, offset)
        if slot == len(starts) or starts[slot] != offset or toks[slot].text != "0":
            return None
        if text.endswith(_MINUS_JOINS, 0, offset):
            return None
        slots.append(slot)
    return toks, slots


def _fill_slots(toks: list[_Tok], slots: list[int], values: tuple[int, ...] | list[int]) -> list[_Tok]:
    """A copy of `toks` with each slot's token replaced by its value.

    A negative value becomes the two tokens '-' and its magnitude, as its text would tokenize.
    """
    filled: list[_Tok] = []
    last = 0
    for slot, value in zip(slots, values):
        filled += toks[last:slot]
        line = toks[slot].line
        if value < 0:
            filled.append(_Tok("punct", "-", None, line))
        filled.append(_Tok("num", str(abs(value)), abs(value), line))
        last = slot + 1
    filled += toks[last:]
    return filled


_INSTRUCTION_NAMES = {
    "config_ex",
    "config_ld",
    "config_st",
    "mvin",
    "mvin2",
    "mvin3",
    "preload",
    "preload_zeros",
    "compute_preloaded",
    "compute_accumulated",
    "mvout",
    "fence",
}

_DATAFLOWS = {d.value: d for d in Dataflow}
_ACTIVATIONS = {a.value: a for a in Activation}
_KEYWORDS = {"static", "uint32_t", "int", "for", "if", "else", "void", "sizeof", "float", "true", "false"}


class _Parser:
    def __init__(self, toks: list[_Tok], buffers: dict[str, tuple[int, int]] | None):
        self.toks = toks
        self.pos = 0
        self.infer_buffers = buffers is None
        self.buffers: dict[str, tuple[int, int]] = dict(buffers) if buffers else {}
        self.symbols: dict[str, int] = {}
        self.scopes: list[dict[str, int]] = []
        self.out: list[Instruction] = []
        self.depth = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise ProgramSyntaxError(t.line, f"expected '{text}', found '{t.text or 'end of input'}'")
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def enter(self) -> None:
        """Open one nesting level; the caller closes it with `self.depth -= 1`."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ProgramSyntaxError(self.peek().line, f"nesting deeper than {_MAX_NESTING} levels")

    # -- name resolution ----------------------------------------------------

    def lookup(self, name: str, line: int) -> int:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        if name in self.symbols:
            return self.symbols[name]
        raise UnboundSymbolError(line, name)

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> int:
        return self._bitor()

    def _bitor(self) -> int:
        v = self._shift()
        while self.at("|"):
            self.next()
            v |= self._shift()
        return v

    def _shift(self) -> int:
        v = self._additive()
        while self.at("<<"):
            line = self.next().line
            count = self._additive()
            if count < 0:
                raise ProgramSyntaxError(line, f"negative shift count {count}")
            v <<= count
        return v

    def _additive(self) -> int:
        v = self._term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self._term()
            v = v + rhs if op == "+" else v - rhs
        return v

    def _term(self) -> int:
        v = self._unary()
        while self.at("*"):
            self.next()
            v *= self._unary()
        return v

    def _unary(self) -> int:
        negate = False
        while self.at("-"):
            self.next()
            negate = not negate
        v = self._atom()
        return -v if negate else v

    def _atom(self) -> int:
        t = self.next()
        if t.kind == "num":
            assert t.value is not None
            return t.value
        if t.text == "(":
            self.enter()
            v = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return v
        if t.text == "sizeof":
            self.expect("(")
            self.expect("float")
            self.expect(")")
            return 4
        if t.kind == "ident":
            return self.lookup(t.text, t.line)
        raise ProgramSyntaxError(t.line, f"expected an expression, found '{t.text or 'end of input'}'")

    # -- conditions for if() ------------------------------------------------

    def parse_cond(self) -> bool:
        v = self._cond_and()
        while self.at("||"):
            self.next()
            rhs = self._cond_and()
            v = v or rhs
        return v

    def _cond_and(self) -> bool:
        v = self._cond_atom()
        while self.at("&&"):
            self.next()
            rhs = self._cond_atom()
            v = v and rhs
        return v

    def _cond_atom(self) -> bool:
        # A parenthesized condition is ambiguous with a parenthesized integer
        # expression; try the condition reading first.
        if self.at("("):
            save = self.pos, self.depth
            self.next()
            self.enter()
            try:
                v = self.parse_cond()
                self.expect(")")
                self.depth -= 1
                return v
            except ProgramSyntaxError:
                self.pos, self.depth = save
        lhs = self.parse_expr()
        t = self.next()
        if t.text not in ("==", "!=", "<", "<=", ">", ">="):
            raise ProgramSyntaxError(t.line, f"expected a comparison operator, found '{t.text}'")
        rhs = self.parse_expr()
        return {
            "==": lhs == rhs,
            "!=": lhs != rhs,
            "<": lhs < rhs,
            "<=": lhs <= rhs,
            ">": lhs > rhs,
            ">=": lhs >= rhs,
        }[t.text]

    # -- operand helpers ----------------------------------------------------

    def parse_dram_ref(self) -> DramRef:
        t = self.peek()
        if t.kind != "ident":
            raise ProgramSyntaxError(t.line, "DRAM operand must start with a buffer name")
        name = t.text
        # A table buffer stays a buffer where a loop variable of its name is in
        # scope, while inference refuses the name there.  Loop variables are
        # the only scoped names (see _parse_for), so text that parses against
        # a table parses with inference too unless a `for` binds a table name.
        known = name in self.buffers
        if not known and self.infer_buffers and name not in self.symbols and not self._in_scope(name):
            self.buffers[name] = (0, 0)
            known = True
        if not known:
            # A declared symbol is not a buffer; anything else is unbound.
            if name in self.symbols or self._in_scope(name):
                raise ProgramSyntaxError(t.line, f"'{name}' is not a declared buffer")
            raise UnboundSymbolError(t.line, name)
        self.next()
        offset = 0
        if self.at("+"):
            self.next()
            offset = self.parse_expr()
        elif self.at("-"):
            self.next()
            offset = -self.parse_expr()
        if offset < 0:
            raise ProgramSyntaxError(t.line, f"negative DRAM offset {offset} for buffer '{name}'")
        return DramRef(name, offset)

    def _in_scope(self, name: str) -> bool:
        return any(name in s for s in self.scopes)

    def parse_local_addr(self) -> LocalAddr:
        line = self.peek().line
        v = self.parse_expr()
        if v < 0 or v > 0xFFFFFFFF:
            raise ProgramSyntaxError(line, f"local address {v:#x} outside 32-bit range")
        return LocalAddr(v)

    def _flag_arg(self) -> bool:
        t = self.peek()
        if t.text == "true":
            self.next()
            return True
        if t.text == "false":
            self.next()
            return False
        return bool(self.parse_expr())

    def _nonneg(self, what: str) -> int:
        line = self.peek().line
        v = self.parse_expr()
        if v < 0:
            raise ProgramSyntaxError(line, f"{what} must be non-negative, got {v}")
        return v

    # -- statements ---------------------------------------------------------

    def parse_program_body(self) -> None:
        while self.peek().kind != "eof":
            self.parse_statement()

    def parse_statement(self) -> None:
        t = self.peek()
        if t.text in ("{", "void", "for", "if"):
            self.enter()
            if t.text == "{":
                self._parse_block()
            elif t.text == "void":
                self._parse_function_wrapper()
            elif t.text == "for":
                self._parse_for()
            else:
                self._parse_if()
            self.depth -= 1
            return
        if t.text == ";":
            self.next()
            return
        if t.text in ("static", "uint32_t"):
            self._parse_declaration()
            return
        if t.kind == "ident" and self.peek(1).text == "(":
            self._parse_call()
            return
        raise ProgramSyntaxError(t.line, f"unexpected token '{t.text or 'end of input'}'")

    def _parse_block(self) -> None:
        t = self.expect("{")
        while not self.at("}"):
            if self.peek().kind == "eof":
                raise ProgramSyntaxError(t.line, "unterminated block")
            self.parse_statement()
        self.next()

    def _parse_function_wrapper(self) -> None:
        self.expect("void")
        t = self.next()
        if t.kind != "ident":
            raise ProgramSyntaxError(t.line, "expected a function name after 'void'")
        self.expect("(")
        depth = 1
        while depth:
            tok = self.next()
            if tok.kind == "eof":
                raise ProgramSyntaxError(t.line, "unterminated parameter list")
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                depth -= 1
        self.parse_statement()  # the function body block

    def _parse_declaration(self) -> None:
        if self.at("static"):
            self.next()
        self.expect("uint32_t")
        t = self.next()
        if t.kind != "ident":
            raise ProgramSyntaxError(t.line, "expected a name in declaration")
        if t.text in self.buffers:
            raise ProgramSyntaxError(t.line, f"'{t.text}' is already a buffer name")
        self.expect("=")
        value = self.parse_expr()
        self.expect(";")
        self.symbols[t.text] = value

    def _parse_for(self) -> None:
        # The one place a scoped name is bound, always as `NAME =` in the header.
        kw = self.expect("for")
        self.expect("(")
        if self.at("int") or self.at("uint32_t"):
            self.next()
        name_tok = self.next()
        if name_tok.kind != "ident":
            raise ProgramSyntaxError(name_tok.line, "expected a loop variable name")
        var = name_tok.text
        self.expect("=")
        start = self.parse_expr()
        self.expect(";")
        cond_var = self.next()
        if cond_var.text != var:
            raise ProgramSyntaxError(cond_var.line, f"loop condition must test '{var}'")
        cmp_tok = self.next()
        if cmp_tok.text not in ("<", "<="):
            raise NonConstantLoopBoundError(cmp_tok.line, f"unsupported loop comparison '{cmp_tok.text}'")
        bound = self.parse_expr()
        if cmp_tok.text == "<=":
            bound += 1
        self.expect(";")
        step_var = self.next()
        if step_var.text != var:
            raise ProgramSyntaxError(step_var.line, f"loop step must update '{var}'")
        t = self.next()
        if t.text == "++":
            step = 1
        elif t.text == "+=":
            step = self.parse_expr()
        elif t.text == "=":
            again = self.next()
            if again.text != var:
                raise ProgramSyntaxError(again.line, f"loop step must update '{var}'")
            self.expect("+")
            step = self.parse_expr()
        else:
            raise ProgramSyntaxError(t.line, f"unsupported loop step '{t.text}'")
        if step <= 0:
            raise NonConstantLoopBoundError(kw.line, f"loop step must be positive, got {step}")
        if (bound - start) > 0 and (bound - start) / step > _UNROLL_LIMIT:
            raise NonConstantLoopBoundError(kw.line, "loop unrolls to too many iterations")
        self.expect(")")
        body_start = self.pos
        value = start
        iterations = 0
        while value < bound:
            self.pos = body_start
            self.scopes.append({var: value})
            self.parse_statement()
            self.scopes.pop()
            value += step
            iterations += 1
            if len(self.out) > _UNROLL_LIMIT:
                raise NonConstantLoopBoundError(kw.line, "program unrolls to too many instructions")
        if iterations == 0:
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
        if self.at("else"):
            self.next()
            if taken:
                self._skip_statement()
            else:
                self.parse_statement()

    def _parse_call(self) -> None:
        name_tok = self.next()
        name = name_tok.text
        if name not in _INSTRUCTION_NAMES:
            raise UnknownFunctionError(name_tok.line, name)
        self.expect("(")
        ins = self._build_instruction(name, name_tok.line)
        self.expect(")")
        self.expect(";")
        self.out.append(ins)

    def _comma(self) -> None:
        self.expect(",")

    def _build_instruction(self, name: str, line: int) -> Instruction:
        if name == "fence":
            return Fence()
        if name == "config_ex":
            t = self.next()
            if t.text not in _DATAFLOWS:
                raise ProgramSyntaxError(t.line, f"unknown dataflow '{t.text}'")
            dataflow = _DATAFLOWS[t.text]
            self._comma()
            t = self.next()
            if t.text not in _ACTIVATIONS:
                raise ProgramSyntaxError(t.line, f"unknown activation '{t.text}'")
            act = _ACTIVATIONS[t.text]
            self._comma()
            a_t = self._flag_arg()
            self._comma()
            b_t = self._flag_arg()
            return ConfigEx(dataflow, act, a_t, b_t)
        if name == "config_ld":
            stride = self._nonneg("stride")
            self._comma()
            channel = self.parse_expr()
            return ConfigLd(stride, channel)
        if name == "config_st":
            return ConfigSt(self._nonneg("stride"))
        if name in ("mvin", "mvin2", "mvin3"):
            channel = {"mvin": 0, "mvin2": 1, "mvin3": 2}[name]
            dram = self.parse_dram_ref()
            self._comma()
            local = self.parse_local_addr()
            self._comma()
            cols = self._nonneg("cols")
            self._comma()
            rows = self._nonneg("rows")
            return Mvin(channel, dram, local, cols, rows)
        if name == "preload":
            b = self.parse_local_addr()
            self._comma()
            c = self.parse_local_addr()
            self._comma()
            b_cols = self._nonneg("B_cols")
            self._comma()
            b_rows = self._nonneg("B_rows")
            self._comma()
            c_cols = self._nonneg("C_cols")
            self._comma()
            c_rows = self._nonneg("C_rows")
            return Preload(b, c, b_cols, b_rows, c_cols, c_rows)
        if name == "preload_zeros":
            return PreloadZeros(self.parse_local_addr())
        if name in ("compute_preloaded", "compute_accumulated"):
            a = self.parse_local_addr()
            self._comma()
            d = self.parse_local_addr()
            self._comma()
            a_cols = self._nonneg("A_cols")
            self._comma()
            a_rows = self._nonneg("A_rows")
            self._comma()
            d_cols = self._nonneg("D_cols")
            self._comma()
            d_rows = self._nonneg("D_rows")
            cls = ComputePreloaded if name == "compute_preloaded" else ComputeAccumulated
            return cls(a, d, a_cols, a_rows, d_cols, d_rows)
        if name == "mvout":
            dram = self.parse_dram_ref()
            self._comma()
            local = self.parse_local_addr()
            self._comma()
            cols = self._nonneg("cols")
            self._comma()
            rows = self._nonneg("rows")
            return Mvout(dram, local, cols, rows)
        raise UnknownFunctionError(line, name)


def parse_program(source: str | list[_Tok], buffers: dict[str, tuple[int, int]] | None = None) -> Program:
    """Parse program text, or the tokens `_tokenize` made of it, into a Program.

    A token list is only read, so one list can be parsed many times.

    `buffers` maps declared DRAM buffer names to (rows, cols).  Passing None
    switches on buffer inference: any fresh identifier in a DRAM operand
    position is accepted with an unknown shape.  That mode exists for probing
    whether free-form text looks like a program; real verification always
    supplies the kernel's buffer table.
    """
    parser = _Parser(_tokenize(source) if isinstance(source, str) else source, buffers)
    parser.parse_program_body()
    return Program(tuple(parser.out), parser.buffers, parser.symbols)


# -- rendering ---------------------------------------------------------------


def _render_dram(ref: DramRef) -> str:
    if ref.offset:
        return f"{ref.buffer} + {ref.offset}"
    return ref.buffer


def _render_local(addr: LocalAddr) -> str:
    return f"{addr.raw:#x}"


def render_instruction(ins: Instruction) -> str:
    if isinstance(ins, ConfigEx):
        flags = f"{'true' if ins.a_transpose else 'false'}, {'true' if ins.b_transpose else 'false'}"
        return f"config_ex({ins.dataflow.value}, {ins.act.value}, {flags});"
    if isinstance(ins, ConfigLd):
        return f"config_ld({ins.stride_bytes}, {ins.channel});"
    if isinstance(ins, ConfigSt):
        return f"config_st({ins.stride_bytes});"
    if isinstance(ins, Mvin):
        name = ("mvin", "mvin2", "mvin3")[ins.channel]
        return f"{name}({_render_dram(ins.dram)}, {_render_local(ins.local)}, {ins.cols}, {ins.rows});"
    if isinstance(ins, Preload):
        return (
            f"preload({_render_local(ins.b)}, {_render_local(ins.c)}, "
            f"{ins.b_cols}, {ins.b_rows}, {ins.c_cols}, {ins.c_rows});"
        )
    if isinstance(ins, PreloadZeros):
        return f"preload_zeros({_render_local(ins.c)});"
    if isinstance(ins, (ComputePreloaded, ComputeAccumulated)):
        name = "compute_preloaded" if isinstance(ins, ComputePreloaded) else "compute_accumulated"
        return (
            f"{name}({_render_local(ins.a)}, {_render_local(ins.d)}, "
            f"{ins.a_cols}, {ins.a_rows}, {ins.d_cols}, {ins.d_rows});"
        )
    if isinstance(ins, Mvout):
        return f"mvout({_render_dram(ins.dram)}, {_render_local(ins.local)}, {ins.cols}, {ins.rows});"
    if isinstance(ins, Fence):
        return "fence();"
    raise TypeError(f"not an instruction: {ins!r}")


def render_program(p: Program) -> str:
    """Render a Program to text that parses back to an equal Program."""
    lines = [f"static uint32_t {name} = {value:#x};" for name, value in p.symbols.items()]
    lines.extend(render_instruction(ins) for ins in p.instructions)
    return "\n".join(lines) + ("\n" if lines else "")
