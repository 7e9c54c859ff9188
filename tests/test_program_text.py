"""Parsing and rendering of the C-macro program subset."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ta_lift.isa import (
    Activation,
    ConfigEx,
    ConfigLd,
    ConfigSt,
    Dataflow,
    DramRef,
    Fence,
    LocalAddr,
    Mvin,
    Mvout,
    Preload,
)
from ta_lift.program_text import (
    NonConstantLoopBoundError,
    ProgramSyntaxError,
    UnboundSymbolError,
    UnknownFunctionError,
    _fill_slots,
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


def test_tokens_carry_kind_value_and_line() -> None:
    toks = _tokenize("mvin2(p+0X1f, 007,\n\t12);// done <<=\nx<<=y_1")
    assert [(t.kind, t.text, t.value, t.line) for t in toks] == [
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
        toks = _tokenize(text)
    except ProgramSyntaxError:
        return
    assert toks[-1].kind == "eof"
    assert all(a.line <= b.line for a, b in zip(toks, toks[1:]))
    assert toks[-1].line == text.count("\n") + 1
    spelled = "".join(t.text for t in toks)
    assert spelled.isascii()
    assert spelled == re.sub(r"//[^\n]*|[ \t\r\n]", "", text)


def _spelled(toks):
    return [(t.kind, t.text, t.value, t.line) for t in toks]


@pytest.mark.parametrize("text", ["f(x0);", "f(00);", "f(0x4);", "f(a-0);", "f(a--0);", "f(1); // 0", "f(0\u00e9);"])
def test_placeholder_that_is_not_a_token_of_its_own_has_no_slot(text: str) -> None:
    assert _tokenize_slots(text, [text.index("0")]) is None


def test_placeholders_are_filled_in_place() -> None:
    text = "f(0, a - 0,\n 0);"
    toks, slots = _tokenize_slots(text, [2, 9, 13])
    assert _spelled(_fill_slots(toks, slots, [12, -3, 0])) == _spelled(_tokenize("f(12, a - -3,\n 0);"))
    assert _spelled(toks) == _spelled(_tokenize(text))


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
