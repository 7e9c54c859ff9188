"""Parsing and rendering of the C-macro program subset."""

from __future__ import annotations

import re
import statistics
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ta_lift.fixtures import KERNELS, golden_program, kernel
from ta_lift.isa import (
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
from ta_lift.program_text import (
    NonConstantLoopBoundError,
    ProgramSyntaxError,
    UnboundSymbolError,
    UnknownFunctionError,
    _fill_slots,
    _number,
    _tokenize,
    _tokenize_slots,
    parse_program,
    render_program,
)

BUFFERS = {"Bdyn": (12, 4), "p": (12, 1), "B_p": (4, 1)}


def test_config_st_sizeof_folds() -> None:
    p = parse_program("config_st(1 * sizeof(float));", {})
    assert p.instructions == (ConfigSt(4),)


def test_mvin_with_symbolic_local_address() -> None:
    text = """
    static uint32_t Bdyn_sp_addr = 0;
    config_ld(4 * sizeof(float), 0);
    mvin(Bdyn, Bdyn_sp_addr, 12, 4);
    """
    p = parse_program(text, BUFFERS)
    assert p.instructions[1] == Mvin(0, DramRef("Bdyn", 0), LocalAddr(0), 12, 4)
    assert p.symbols == {"Bdyn_sp_addr": 0}


def test_dram_offset_counts_elements() -> None:
    p = parse_program("config_ld(4, 1); mvin2(p + 0x4, 16, 1, 4);", BUFFERS)
    ins = p.instructions[1]
    assert isinstance(ins, Mvin)
    assert ins.channel == 1
    assert ins.dram == DramRef("p", 4)


def test_comments_are_stripped() -> None:
    text = "// stage weights\nconfig_st(4); // one column out\n"
    p = parse_program(text, {})
    assert p.instructions == (ConfigSt(4),)


def test_for_loop_unrolls() -> None:
    p = parse_program("for (int i = 0; i < 2; i++) { fence(); }", {})
    assert p.instructions == (Fence(), Fence())


def test_nested_loop_and_if_unroll() -> None:
    text = """
    for (int i = 0; i < 8; i += 4) {
        if (i == 0) {
            config_st(4);
        } else {
            fence();
        }
    }
    """
    p = parse_program(text, {})
    assert p.instructions == (ConfigSt(4), Fence())


def test_loop_variable_feeds_operands() -> None:
    text = """
    for (int i = 0; i < 12; i += 4) {
        mvin(Bdyn, i, 4, 4);
    }
    """
    p = parse_program("config_ld(16, 0);" + text, BUFFERS)
    locals_used = [ins.local.raw for ins in p.instructions[1:]]
    assert locals_used == [0, 4, 8]


def test_function_wrapper_is_stripped() -> None:
    text = """
    void test(float *Bdyn, float *p, float *B_p) {
        config_st(4);
        fence();
    }
    """
    p = parse_program(text, BUFFERS)
    assert p.instructions == (ConfigSt(4), Fence())


def test_config_ex_enums() -> None:
    p = parse_program("config_ex(WEIGHT_STATIONARY, NO_ACTIVATION, true, false);", {})
    assert p.instructions == (ConfigEx(Dataflow.WEIGHT_STATIONARY, Activation.NONE, True, False),)


def test_output_stationary_parses() -> None:
    p = parse_program("config_ex(OUTPUT_STATIONARY, LAYERNORM, false, false);", {})
    ins = p.instructions[0]
    assert isinstance(ins, ConfigEx)
    assert ins.dataflow is Dataflow.OUTPUT_STATIONARY
    assert ins.act is Activation.LAYERNORM


def test_shift_and_or_precedence() -> None:
    text = "static uint32_t acc = 1 << 31;\npreload(0, acc | 1 << 30, 1, 4, 1, 4);"
    p = parse_program(text, {})
    ins = p.instructions[0]
    assert isinstance(ins, Preload)
    assert ins.c.raw == 0xC0000000


def test_unknown_function_rejected() -> None:
    with pytest.raises(UnknownFunctionError):
        parse_program("mvin4(p, 0, 1, 4);", BUFFERS)


def test_unbound_symbol_rejected() -> None:
    with pytest.raises(UnboundSymbolError):
        parse_program("config_st(stride);", {})


def test_unknown_buffer_rejected() -> None:
    with pytest.raises(ProgramSyntaxError):
        parse_program("config_ld(4, 0); mvin(q, 0, 1, 4);", BUFFERS)


def test_nesting_limit() -> None:
    assert parse_program("config_st(" + "(" * 100 + "4" + ")" * 100 + ");", {}).instructions == (ConfigSt(4),)
    with pytest.raises(ProgramSyntaxError, match="nesting deeper than 100 levels"):
        parse_program("config_st(" + "(" * 101 + "4" + ")" * 101 + ");", {})
    assert parse_program("{" * 100 + "fence();" + "}" * 100, {}).instructions == (Fence(),)
    with pytest.raises(ProgramSyntaxError, match="nesting deeper than 100 levels"):
        parse_program("{" * 101 + "fence();" + "}" * 101, {})
    with pytest.raises(ProgramSyntaxError, match="nesting deeper than 100 levels"):
        parse_program("for (int i = 0; i < 1; i++) " * 101 + "fence();", {})
    # A chain of unary minus signs is a loop, not a nesting.
    assert parse_program("config_st(" + "- " * 5000 + "4);", {}).instructions == (ConfigSt(4),)


def test_runaway_loop_rejected() -> None:
    with pytest.raises(NonConstantLoopBoundError):
        parse_program("for (int i = 0; i < 10000000; i++) { fence(); }", {})


def test_zero_trip_loop_emits_nothing() -> None:
    p = parse_program("for (int i = 0; i < 0; i++) { fence(); }\nconfig_st(4);", {})
    assert p.instructions == (ConfigSt(4),)


def test_buffer_inference_mode() -> None:
    p = parse_program("config_ld(4, 0); mvin(mystery, 0, 1, 4);", None)
    assert "mystery" in p.buffers


def test_render_round_trip_structured() -> None:
    text = """
    static uint32_t Bdyn_sp_addr = 0;
    static uint32_t p_sp_addr = 12;
    static uint32_t B_p_acc_addr = 1 << 31;
    config_ex(WEIGHT_STATIONARY, NO_ACTIVATION, true, false);
    config_st(1 * sizeof(float));
    config_ld(4 * sizeof(float), 0);
    config_ld(1 * sizeof(float), 1);
    mvin(Bdyn, Bdyn_sp_addr, 12, 4);
    mvin2(p + 0x0, p_sp_addr, 1, 4);
    mvin2(p + 0x4, p_sp_addr + 4, 1, 4);
    preload(p_sp_addr, B_p_acc_addr, 1, 4, 1, 4);
    compute_preloaded(Bdyn_sp_addr, 0xffffffff, 4, 4, 1, 4);
    preload(p_sp_addr + 4, B_p_acc_addr | 1 << 30, 1, 4, 1, 4);
    compute_preloaded(Bdyn_sp_addr + 4, 0xffffffff, 4, 4, 1, 4);
    mvout(B_p, B_p_acc_addr, 1, 4);
    fence();
    """
    p = parse_program(text, BUFFERS)
    rendered = render_program(p)
    again = parse_program(rendered, BUFFERS)
    assert again == p


def test_render_high_bit_address_reparses() -> None:
    p = parse_program("preload_zeros(0x80000000);", {})
    again = parse_program(render_program(p), {})
    assert again.instructions == p.instructions


# -- tokenizer -------------------------------------------------------------------


def _kind(tok: str) -> str:
    """A token's kind as the parser reads it from the text."""
    if not tok:
        return "eof"
    if tok.isidentifier():
        return "ident"
    return "num" if tok[0].isdigit() else "punct"


def _spelled(tokens: tuple[list[str], list[int]]) -> list[tuple[str, str, int | None, int]]:
    toks, lines = tokens
    assert len(toks) == len(lines)
    return [(_kind(t), t, _number(t) if _kind(t) == "num" else None, line) for t, line in zip(toks, lines)]


def test_tokens_carry_kind_value_and_line() -> None:
    assert _spelled(_tokenize("mvin2(p+0X1f, 007,\n\t12);// done <<=\nx<<=y_1")) == [
        ("ident", "mvin2", None, 1),
        ("punct", "(", None, 1),
        ("ident", "p", None, 1),
        ("punct", "+", None, 1),
        ("num", "0X1f", 31, 1),
        ("punct", ",", None, 1),
        ("num", "007", 7, 1),
        ("punct", ",", None, 1),
        ("num", "12", 12, 2),
        ("punct", ")", None, 2),
        ("punct", ";", None, 2),
        ("ident", "x", None, 3),
        ("punct", "<<=", None, 3),
        ("ident", "y_1", None, 3),
        ("eof", "", None, 3),
    ]


@pytest.mark.parametrize("text", ["0x", "12 \u00b2", "\u0663", "caf\u00e9", "a / b", "\f"])
def test_tokenizer_rejects_anything_outside_the_ascii_grammar(text: str) -> None:
    with pytest.raises(ProgramSyntaxError):
        _tokenize(text)


def test_negative_shift_count_rejected() -> None:
    with pytest.raises(ProgramSyntaxError, match="negative shift"):
        parse_program("config_st(1 << (2 - 3));", {})


_TOKEN_CHARS = list("ab_xXfF0912 \t\r\n/+-*|<>=!&(){};,.#") + ["\u00b2", "\u00e9", "\u0663"]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet=st.sampled_from(_TOKEN_CHARS), max_size=30))
def test_tokens_spell_the_text_without_spaces_and_comments(text: str) -> None:
    try:
        toks, lines = _tokenize(text)
    except ProgramSyntaxError:
        return
    assert [_kind(t) for t in toks].index("eof") == len(toks) - 1 == len(lines) - 1
    assert all(a <= b for a, b in zip(lines, lines[1:]))
    assert lines[-1] == text.count("\n") + 1
    spelled = "".join(toks)
    assert spelled.isascii()
    assert spelled == re.sub(r"//[^\n]*|[ \t\r\n]", "", text)


@pytest.mark.parametrize("text", ["f(x0);", "f(00);", "f(0x4);", "f(a-0);", "f(a--0);", "f(1); // 0", "f(0\u00e9);"])
def test_placeholder_that_is_not_a_token_of_its_own_has_no_slot(text: str) -> None:
    assert _tokenize_slots(text, [text.index("0")]) is None


def test_placeholders_are_filled_in_place() -> None:
    text = "f(0, a - 0,\n 0);"
    toks, lines, slots = _tokenize_slots(text, [2, 9, 13])
    assert _spelled(_fill_slots(toks, lines, slots, [12, -3, 0])) == _spelled(_tokenize("f(12, a - -3,\n 0);"))
    assert _spelled((toks, lines)) == _spelled(_tokenize(text))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.text(alphabet=st.sampled_from(_TOKEN_CHARS), max_size=8), min_size=2, max_size=4),
    st.lists(st.integers(-300, 300), min_size=3, max_size=3),
)
def test_filled_slots_tokenize_like_the_filled_text(pieces: list[str], values: list[int]) -> None:
    offsets, at = [], -1
    for piece in pieces[:-1]:
        at += len(piece) + 1
        offsets.append(at)
    found = _tokenize_slots("0".join(pieces), offsets)
    if found is None:
        return
    filled = pieces[0] + "".join(str(v) + piece for v, piece in zip(values, pieces[1:]))
    assert _spelled(_fill_slots(*found, values)) == _spelled(_tokenize(filled))


# -- integer range -----------------------------------------------------------------


SQUARING_CHAIN = "static uint32_t A0 = 3;\n" + "".join(
    f"static uint32_t A{i + 1} = A{i} * A{i};\n" for i in range(10)
)


@pytest.mark.parametrize(
    "text,line,reason",
    [
        ("config_st(4);\nconfig_st(1 << 100000);", 2, "'<<' result reaches 2**64 in magnitude"),
        ("config_st(1 << 64);", 1, "'<<' result reaches 2**64 in magnitude"),
        ("config_st(-3\n << 63);", 2, "'<<' result reaches 2**64 in magnitude"),
        ("config_st(0x100000000 * 0x100000000);", 1, "'*' result reaches 2**64 in magnitude"),
        ("config_st(3 * 0x5555555555555556);", 1, "'*' result reaches 2**64 in magnitude"),
        ("config_st(-1 * 0x10000000000000000);", 1, "'*' result reaches 2**64 in magnitude"),
        # 3**64 is the first square past 2**64, declared on line 7.
        (SQUARING_CHAIN + "config_st(A10);", 7, "'*' result reaches 2**64 in magnitude"),
        ("fence();\nconfig_st(" + "9" * 5000 + ");", 2, "integer literal has more than 4300 digits"),
    ],
)
def test_integers_reaching_2_64_are_syntax_errors(text: str, line: int, reason: str) -> None:
    with pytest.raises(ProgramSyntaxError) as err:
        parse_program(text, {})
    assert (err.value.line, err.value.reason) == (line, reason)


def test_integers_below_2_64_still_parse() -> None:
    text = (
        "static uint32_t a = 1 << 63;\n"
        "static uint32_t b = -1 << 63;\n"
        "static uint32_t c = 0 << 100000;\n"
        "static uint32_t d = 0xffffffff * 0xffffffff;\n"
        "static uint32_t e = 0 * 0x10000000000000000;\n"
        "static uint32_t f = 0x10000000000000000 + 1;\n"
        "static uint32_t g = -(1 << 62) * 3 + 1;\n"
    )
    assert parse_program(text, {}).symbols == {
        "a": 2**63,
        "b": -(2**63),
        "c": 0,
        "d": (2**32 - 1) ** 2,
        "e": 0,
        "f": 2**64 + 1,
        "g": 1 - 3 * 2**62,
    }


def test_mm1_parses_within_budget() -> None:
    text, buffers = golden_program("mm1"), kernel("mm1").buffer_shapes()
    seconds = []
    for _ in range(5):
        start = time.perf_counter()
        parse_program(text, buffers)
        seconds.append(time.perf_counter() - start)
    assert statistics.median(seconds) < 0.025


# -- the front end before the one-pass rewrite, kept as the reference ---------------
# A regex scan into `_RefTok` objects and a recursive descent with one method
# per precedence level.  It computes integers without bound, so a guard stops
# it before a shift builds an integer of more than `_REF_GUARD_BITS` bits,
# where `1 << 0xffffffff` would take 512 MB.

_REF_UNROLL_LIMIT = 200_000
_REF_MAX_NESTING = 100
_REF_GUARD_BITS = 1 << 16


class ReferenceUnbounded(Exception):
    """The reference would compute an integer far past 2**64 at this line."""

    def __init__(self, line: int):
        super().__init__(f"line {line}")
        self.line = line


_REF_PUNCT = (
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
class _RefTok:
    kind: str  # "ident" | "num" | "punct" | "eof"
    text: str
    value: int | None
    line: int


# One alternative per token class, tried in order; `bad` catches every other
# character, so the scan covers the whole text.
_REF_TOKEN = re.compile(
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<space>[ \t\r\n]+)"
    r"|(?P<punct>" + "|".join(re.escape(p) for p in _REF_PUNCT) + ")"
    r"|(?P<hex>0[xX][0-9a-fA-F]*)"
    r"|(?P<dec>[0-9]+)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _ref_tokenize(text: str) -> list[_RefTok]:
    toks: list[_RefTok] = []
    line = 1
    for m in _REF_TOKEN.finditer(text):
        kind = m.lastgroup
        word = m.group()
        if kind == "ident" or kind == "punct":
            tok = _RefTok(kind, word, None, line)
        elif kind == "space":
            line += word.count("\n")
            continue
        elif kind == "dec":
            tok = _RefTok("num", word, int(word), line)
        elif kind == "hex":
            if len(word) == 2:
                raise ProgramSyntaxError(line, f"hex literal '{word}' has no digits")
            tok = _RefTok("num", word, int(word, 16), line)
        elif kind == "comment":
            continue
        else:
            raise ProgramSyntaxError(line, f"unexpected character {word!r}")
        toks.append(tok)
    toks.append(_RefTok("eof", "", None, line))
    return toks


_REF_INSTRUCTION_NAMES = {
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

_REF_DATAFLOWS = {d.value: d for d in Dataflow}
_REF_ACTIVATIONS = {a.value: a for a in Activation}


class _RefParser:
    def __init__(self, toks: list[_RefTok], buffers: dict[str, tuple[int, int]] | None):
        self.toks = toks
        self.pos = 0
        self.infer_buffers = buffers is None
        self.buffers: dict[str, tuple[int, int]] = dict(buffers) if buffers else {}
        self.symbols: dict[str, int] = {}
        self.scopes: list[dict[str, int]] = []
        self.out: list[Instruction] = []
        self.depth = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> _RefTok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _RefTok:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, text: str) -> _RefTok:
        t = self.next()
        if t.text != text:
            raise ProgramSyntaxError(t.line, f"expected '{text}', found '{t.text or 'end of input'}'")
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def enter(self) -> None:
        """Open one nesting level; the caller closes it with `self.depth -= 1`."""
        self.depth += 1
        if self.depth > _REF_MAX_NESTING:
            raise ProgramSyntaxError(self.peek().line, f"nesting deeper than {_REF_MAX_NESTING} levels")

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
            if v and v.bit_length() + count > _REF_GUARD_BITS:  # the one line not in the original
                raise ReferenceUnbounded(line)
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
        if (bound - start) > 0 and (bound - start) / step > _REF_UNROLL_LIMIT:
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
            if len(self.out) > _REF_UNROLL_LIMIT:
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
        if name not in _REF_INSTRUCTION_NAMES:
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
            if t.text not in _REF_DATAFLOWS:
                raise ProgramSyntaxError(t.line, f"unknown dataflow '{t.text}'")
            dataflow = _REF_DATAFLOWS[t.text]
            self._comma()
            t = self.next()
            if t.text not in _REF_ACTIVATIONS:
                raise ProgramSyntaxError(t.line, f"unknown activation '{t.text}'")
            act = _REF_ACTIVATIONS[t.text]
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


def _ref_parse(source: str | list[_RefTok], buffers: dict[str, tuple[int, int]] | None = None) -> Program:
    """Parse program text, or the tokens `_ref_tokenize` made of it, into a Program.

    A token list is only read, so one list can be parsed many times.

    `buffers` maps declared DRAM buffer names to (rows, cols).  Passing None
    switches on buffer inference: any fresh identifier in a DRAM operand
    position is accepted with an unknown shape.  That mode exists for probing
    whether free-form text looks like a program; real verification always
    supplies the kernel's buffer table.
    """
    parser = _RefParser(_ref_tokenize(source) if isinstance(source, str) else source, buffers)
    parser.parse_program_body()
    return Program(tuple(parser.out), parser.buffers, parser.symbols)


# -- the front end against the reference -------------------------------------------


def _outcome(parse, text: str, buffers):
    try:
        program = parse(text, buffers)
    except Exception as err:  # the reference's bare ValueError included
        return "error", type(err), getattr(err, "line", None), str(err)
    return "program", program.instructions, list(program.buffers.items()), list(program.symbols.items())


def assert_same_as_reference(text: str, buffers) -> None:
    """Both parses give an equal program or the same error, but for the integer range.

    An integer that reaches 2**64 through '<<' or '*' is a syntax error at or
    before any line the reference fails at, and a decimal literal too long
    for int() is a syntax error where the reference raised a bare ValueError.
    """
    new = _outcome(parse_program, text, buffers)
    old = _outcome(_ref_parse, text, buffers)
    if new == old:
        return
    kind, error, line, message = new
    assert kind == "error" and error is ProgramSyntaxError, (new, old)
    if "integer literal has more than" in message:
        assert old[1] is ValueError, (new, old)
    else:
        assert "reaches 2**64 in magnitude" in message, (new, old)
        assert old[0] == "program" or old[2] is None or old[2] >= line, (new, old)
        assert old[1] is not ReferenceUnbounded or old[2] == line, (new, old)


def _reference_tokens(text: str):
    try:
        return [(t.kind, t.text, t.value, t.line) for t in _ref_tokenize(text)]
    except ValueError as err:
        return type(err), str(err)


def _new_tokens(text: str):
    try:
        return _spelled(_tokenize(text))
    except ValueError as err:
        return type(err), str(err)


def assert_tokens_as_reference(text: str) -> None:
    new, old = _new_tokens(text), _reference_tokens(text)
    if new != old:
        assert "integer literal has more than" in new[1] and old[0] is ValueError, (new, old)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet=st.sampled_from(_TOKEN_CHARS), max_size=40))
def test_tokens_match_the_reference_on_random_text(text: str) -> None:
    assert_tokens_as_reference(text)


_BUFFER_NAMES = ("A", "B", "Bdyn", "p")
_INTS = st.one_of(st.integers(0, 64), st.integers(-(2**70), 2**70))
_LOCALS = st.builds(LocalAddr, st.integers(0, 0xFFFFFFFF))
_DRAMS = st.builds(DramRef, st.sampled_from(_BUFFER_NAMES), _INTS)
_INSTRUCTIONS = st.one_of(
    st.builds(ConfigEx, st.sampled_from(Dataflow), st.sampled_from(Activation), st.booleans(), st.booleans()),
    st.builds(ConfigLd, _INTS, _INTS),
    st.builds(ConfigSt, _INTS),
    st.builds(Mvin, st.integers(0, 2), _DRAMS, _LOCALS, _INTS, _INTS),
    st.builds(Preload, _LOCALS, _LOCALS, _INTS, _INTS, _INTS, _INTS),
    st.builds(PreloadZeros, _LOCALS),
    st.builds(ComputePreloaded, _LOCALS, _LOCALS, _INTS, _INTS, _INTS, _INTS),
    st.builds(ComputeAccumulated, _LOCALS, _LOCALS, _INTS, _INTS, _INTS, _INTS),
    st.builds(Mvout, _DRAMS, _LOCALS, _INTS, _INTS),
    st.just(Fence()),
)
# Symbol names may be keywords, instruction or buffer names, which both parsers refuse.
_SYMBOLS = st.dictionaries(
    st.one_of(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True), st.sampled_from(("for", "mvin", "p"))),
    _INTS,
    max_size=4,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_SYMBOLS, st.lists(_INSTRUCTIONS, max_size=12))
def test_rendered_random_programs_parse_as_the_reference(symbols: dict[str, int], instructions: list[Instruction]) -> None:
    text = render_program(Program(tuple(instructions), {}, symbols))
    for buffers in ({name: (4, 4) for name in _BUFFER_NAMES}, None):
        assert_same_as_reference(text, buffers)
    assert_tokens_as_reference(text)


# Words of integer expressions; each stream is parsed as a declaration, an
# operand and a condition, with newlines between some words.
_EXPR_WORDS = ("1", "3", "0", "0x10", "007", "a", "b", "q", "sizeof", "(", ")", "float", "-", "+", "*", "<<", "|",
               "==", "<", "&&", "||", ",", "\n")


_OPERANDS = ("1", "3", "0x10", "a", "b", "-2", "- -a", "(a + 1)", "(1 << 3 | 1)", "sizeof(float)")
_OPERATORS = ("+", "-", "*", "<<", "|")
# Well-formed expressions: operands and binary operators in turn.
_EXPRESSIONS = st.builds(
    lambda first, rest: " ".join([first, *(word for pair in rest for word in pair)]),
    st.sampled_from(_OPERANDS),
    st.lists(st.tuples(st.sampled_from(_OPERATORS), st.sampled_from(_OPERANDS)), max_size=5),
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.one_of(_EXPRESSIONS, st.lists(st.sampled_from(_EXPR_WORDS), max_size=14).map(" ".join)))
def test_expression_streams_parse_as_the_reference(expr: str) -> None:
    prelude = "static uint32_t a = 5;\nstatic uint32_t b = 0xc;\n"
    for text in (
        prelude + f"static uint32_t x = {expr};",
        prelude + f"mvout(p + {expr}, {expr}, 1, 1);",
        prelude + f"if ({expr}) fence(); else config_st({expr});",
        prelude + f"for (int q = 0; q < 3; q += {expr}) config_st(q);",
    ):
        assert_same_as_reference(text, {"p": (4, 4)})


@pytest.mark.parametrize(
    "text",
    [
        "{\nfence();",
        "{ fence();\n",
        "void f(\n",
        "void\n(",
        "void f(int (a), b) fence();",
        "static\nuint32_t\n;",
        "static uint32_t x = 1;\nstatic uint32_t x = x + 1;\nconfig_st(x);",
        "uint32_t p = 1;",
        "for (int i = 0;\n i < 2; i++)",
        "for (int i = 0; i < 2;\n j++) fence();",
        "for (int i = 0; i\n > 2; i++) fence();",
        "for (int i = 0; i < 2; i = j + 1) fence();",
        "for (int i = 0; i < 2; i -=\n 1) fence();",
        "for (int i = 4; i <= 2; i += 0) fence();",
        "for (i = 0; i < 3; i += 2) { for (j = i; j < 3; j++) if (j == i) config_st(j); }",
        "for (int i = 0; i < 1 << 20; i++) fence();",
        "if ((1 == 1)\n",
        "if ((1) + 2 == 3 && (2 < 1 || (1 <= 1))) fence(); else\n",
        "if (1 << 2 + 3 == 32) config_st(1); else fence();",
        "if (1",
        "if ((2)",
        "mvout(p - \n 4, 0, 1, 1);",
        "mvout(q, 0, 1, 1);",
        "mvin(p + 1, -\n1, 1, 1);",
        "preload(0, 0x100000000, 1, 1, 1, 1);",
        "config_ld(4, -1); config_st(-\n 4);",
        "config_ex(WEIGHT_STATIONARY, RELU, 1 + 1, false);",
        "config_ex(\nSIDEWAYS, RELU, true, false);",
        "config_ex(WEIGHT_STATIONARY,\n NONE, true, false);",
        "fence(1);",
        "fence()\n",
        "mvin3(p, 0, 1);",
        "mvin4(p, 0, 1, 1);",
        "static uint32_t s = sizeof(int);",
        "static uint32_t s = sizeof float;",
        "x = 1;",
        ";;;",
        "",
    ],
)
def test_edge_cases_parse_as_the_reference(text: str) -> None:
    for buffers in ({"p": (4, 4)}, None):
        assert_same_as_reference(text, buffers)
    assert_tokens_as_reference(text)


# Loops, conditions, the wrapper, comments and scoping, which the goldens lack.
STRUCTURED = (
    """
    // stage the weights: é & ! / are fine in a comment
    void test(float *Bdyn, float (*p), float *B_p) {
        static uint32_t base = 1 << 4 | 3;
        static uint32_t acc = 1 << 31;
        config_ex(OUTPUT_STATIONARY, RELU, true, 0);
        config_ld(sizeof(float) * 4, 2);
        for (int i = 0; i <= 8; i = i + 4) {
            for (uint32_t j = 0; j < 2; j++) {
                if ((i == 0 || j != 1) && i < 8) {
                    mvin(Bdyn + i * 4, base + j, 4, 4);
                } else {
                    mvout(p + -(-i), acc | j << 30, 1, 4);
                }
            }
        }
        for (int k = 4; k < 4; k += 1) { fence(); }
        for (int p = 0; p < 2; p++) { mvin3(B_p, p, 1, 1); mvout(p, 0x10, 1, 1); }
        { ; preload_zeros(acc); }
        compute_accumulated(0, 0xffffffff, 4, 4, 1, 4);
    }
    """,
    """
    static uint32_t Bdyn_sp_addr = 0;
    static uint32_t p_sp_addr = 12;
    static uint32_t B_p_acc_addr = 1 << 31;
    config_ex(WEIGHT_STATIONARY, NO_ACTIVATION, true, false);
    config_st(1 * sizeof(float));
    config_ld(4 * sizeof(float), 0);
    mvin(Bdyn, Bdyn_sp_addr, 12, 4);
    mvin2(p + 0x4, p_sp_addr + 4, 1, 4);
    preload(p_sp_addr, B_p_acc_addr, 1, 4, 1, 4);
    compute_preloaded(Bdyn_sp_addr, 0xffffffff, 4, 4, 1, 4);
    if (p_sp_addr >= 12) { mvout(B_p, B_p_acc_addr, 1, 4); } else fence();
    """,
)
_STRAY = ("\u00e9", "\u0663", "!", "&", "/", "\f", "0x", "//", "(", "{", "-", "<<", "*", "9" * 20)
_SOURCES = [(golden_program(name), kernel(name).buffer_shapes()) for name in KERNELS]
_SOURCES += [(text, {"Bdyn": (12, 4), "p": (12, 1), "B_p": (4, 1)}) for text in STRUCTURED]


@st.composite
def garbled_sources(draw) -> tuple[str, dict[str, tuple[int, int]]]:
    """A golden or structured program with tokens deleted, duplicated or swapped, cut short, or stray text put in."""
    text, buffers = draw(st.sampled_from(_SOURCES))
    rng = draw(st.randoms(use_true_random=False))  # positions spread evenly, not drawn to the ends
    for _ in range(draw(st.integers(1, 3))):
        spans = [m.span() for m in re.finditer(r"\w+|<<|\S", text)]
        edit = draw(st.sampled_from(("delete", "duplicate", "swap", "truncate", "insert")))
        if edit == "truncate" or not spans:
            text = text[: rng.randint(0, len(text))]
            continue
        if edit == "insert":
            at = rng.randint(0, len(text))
            text = text[:at] + draw(st.sampled_from(_STRAY)) + text[at:]
            continue
        start, end = rng.choice(spans)
        if edit == "delete":
            text = text[:start] + text[end:]
        elif edit == "duplicate":
            text = text[:end] + draw(st.sampled_from(("", " "))) + text[start:end] + text[end:]
        else:
            (a, b), (c, d) = sorted([(start, end), rng.choice(spans)])
            if b <= c:
                text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    return text, buffers


def test_structured_sources_parse() -> None:
    for text, buffers in _SOURCES[-len(STRUCTURED) :]:
        assert parse_program(text, buffers).instructions
        assert_same_as_reference(text, buffers)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(garbled_sources())
def test_garbled_programs_parse_as_the_reference(source: tuple[str, dict[str, tuple[int, int]]]) -> None:
    text, buffers = source
    assert_same_as_reference(text, buffers)
    assert_same_as_reference(text, None)
    assert_tokens_as_reference(text)
