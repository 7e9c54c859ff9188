"""Hole extraction, fill enumeration, and the end-to-end repair flow."""

import functools
import itertools
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import golden_program
from test_acceptance import _LITERAL, constant_argument_spans, criterion_5_holes, punch_holes
from test_case_axis import machine_state, make_cases
from test_program_text import _STRAY

import ta_lift
import ta_lift.isa as isa
import ta_lift.kernels as kernels
import ta_lift.machine as machine
import ta_lift.program_text as program_text
import ta_lift.repair as repair_module
from ta_lift.fixtures import kernel
from ta_lift.gateway import GenerationParams, ReplayBackend
from ta_lift.isa import LOCAL_ADDR_MAX, ExecError, spec_of
from ta_lift.kernels import ParseFailure, generate_testcases, machine_for_cases, verify_source
from ta_lift.program_text import ProgramSyntaxError, parse_program
from ta_lift.prompts import (
    EmptyConstantSet,
    build_repair_fill_prompt,
    build_repair_mark_prompt,
)
from ta_lift.repair import (
    DEFAULT_CONSTANT_SET,
    MARKER,
    Aborted,
    Exhausted,
    FillEnumerator,
    HoleTemplate,
    NoHolesFound,
    Repaired,
    extract_holes,
    fill_verdicts,
    repair,
)

GOLDEN = golden_program("gv2")
SPEC = kernel("gv2")
CASES = generate_testcases(SPEC, seed=29, count=3)


def perturbed(old: str, new: str) -> str:
    assert GOLDEN.count(old) == 1
    return GOLDEN.replace(old, new)


# -- hole extraction -----------------------------------------------------------


def test_marker_holes_in_textual_order():
    template = extract_holes("mvin(A, <CONST>, 4, <CONST>);\nconfig_st(<CONST>);")
    assert [h.id for h in template.holes] == ["h0", "h1", "h2"]
    assert template.holes[0].line == 1
    assert template.holes[2].line == 2
    assert template.holes[0].column < template.holes[1].column


def test_unchanged_code_has_no_holes():
    with pytest.raises(NoHolesFound):
        extract_holes(GOLDEN, original=GOLDEN)


def test_introduced_declaration_is_a_named_hole():
    original = "config_st(4);\nfence();"
    marked = "static uint32_t K = 4;\nconfig_st(K);\nfence();"
    template = extract_holes(marked, original)
    (hole,) = template.holes
    assert hole.id == "K" and hole.name == "K"
    assert hole.line == 1


def test_declaration_already_in_original_is_not_a_hole():
    original = "static uint32_t K = 4;\nconfig_st(K);\nfence();"
    with pytest.raises(NoHolesFound):
        extract_holes(original, original)


def test_named_holes_need_the_original():
    marked = "static uint32_t K = 4;\nconfig_st(K);\nfence();"
    with pytest.raises(NoHolesFound):
        extract_holes(marked)


def test_markers_and_named_holes_interleave_by_position():
    original = "config_st(4);\nconfig_ld(48, 0);\nfence();"
    marked = "config_st(<CONST>);\nstatic uint32_t S = 48;\nconfig_ld(S, 0);\nfence();"
    template = extract_holes(marked, original)
    assert [h.id for h in template.holes] == ["h0", "S"]


def test_each_declaration_gets_its_own_id():
    original = "config_st(4);\nconfig_ld(48, 0);\nfence();"
    marked = ("config_st(<CONST>);\nstatic uint32_t S = 4;\nconfig_st(S);\n"
              "static uint32_t S = 48;\nstatic uint32_t h0 = 0;\nconfig_ld(S, h0);\nfence();")
    template = extract_holes(marked, original)
    assert [h.id for h in template.holes] == ["h0", "S", "S#1", "h0#1"]
    assert [h.name for h in template.holes] == [None, "S", "S", "h0"]
    fills = list(FillEnumerator(template, [0, 4], SPEC.buffer_shapes()))
    assert len(fills) == 16
    for fill in fills:
        assert parse_program(fill.code, SPEC.buffer_shapes()) == fill.program


def test_substitute_fills_every_hole():
    original = "config_st(4);\nconfig_ld(48, 0);\nfence();"
    marked = "config_st(<CONST>);\nstatic uint32_t S = 48;\nconfig_ld(S, 0);\nfence();"
    template = extract_holes(marked, original)
    filled = template.substitute({"h0": 4, "S": 12})
    assert filled == "config_st(4);\nstatic uint32_t S = 12;\nconfig_ld(S, 0);\nfence();"


# -- fill enumeration ----------------------------------------------------------


def test_single_hole_two_constants():
    template = extract_holes("config_st(<CONST>);\nfence();")
    fills = list(FillEnumerator(template, [0, 1], SPEC.buffer_shapes()))
    assert [f.assignment for f in fills] == [(("h0", 0),), (("h0", 1),)]
    assert [f.code.splitlines()[0] for f in fills] == ["config_st(0);", "config_st(1);"]


def test_two_holes_default_set_is_25_candidates():
    template = extract_holes("config_st(<CONST>);\nconfig_ld(<CONST>, 0);\nfence();")
    fills = list(FillEnumerator(template, [0, 1, 3, 4, 12], SPEC.buffer_shapes()))
    assert len(fills) == 25
    assert fills[0].assignment == (("h0", 0), ("h1", 0))
    assert fills[1].assignment == (("h0", 0), ("h1", 1))
    assert fills[5].assignment == (("h0", 1), ("h1", 0))
    assert fills[-1].assignment == (("h0", 12), ("h1", 12))


def test_cap_truncates_product():
    marked = "\n".join("config_st(<CONST>);" for _ in range(5)) + "\nfence();"
    template = extract_holes(marked)
    enumerator = FillEnumerator(template, [0, 1, 3, 4, 12], SPEC.buffer_shapes(), cap=100)
    fills = list(enumerator)
    assert len(fills) == 100
    assert enumerator.capped
    assert enumerator.total == 3125


def test_unparseable_fills_are_skipped_and_counted():
    template = extract_holes("mvout(B_p, 0x80000000, 1, <CONST>);\nfence();")
    enumerator = FillEnumerator(template, [-1, 4], kernel("gv1").buffer_shapes())
    fills = list(enumerator)
    assert [f.assignment for f in fills] == [(("h0", 4),)]
    assert enumerator.skipped == 1
    assert not enumerator.capped


def test_empty_constant_set_rejected():
    template = extract_holes("config_st(<CONST>);")
    with pytest.raises(EmptyConstantSet):
        FillEnumerator(template, [], SPEC.buffer_shapes())


# -- repair flow ---------------------------------------------------------------


def test_already_passing_candidate_repairs_immediately():
    result = repair(GOLDEN, SPEC, CASES, mode="enumerate")
    assert result.outcome == Repaired(program=GOLDEN, assignment=())
    assert result.stats.candidates_tried == 0


def test_enumerate_repairs_premarked_candidate():
    candidate = perturbed("config_st(4);", "config_st(<CONST>);")
    result = repair(candidate, SPEC, CASES, mode="enumerate")
    assert isinstance(result.outcome, Repaired)
    assert result.outcome.program == GOLDEN
    assert result.outcome.assignment == (("h0", 4),)
    assert result.stats.candidates_tried == 4


def test_enumerate_with_manual_marking():
    candidate = perturbed("config_st(4);", "config_st(3);")
    marked = perturbed("config_st(4);", "config_st(<CONST>);")
    result = repair(candidate, SPEC, CASES, mode="enumerate", marked=marked)
    assert isinstance(result.outcome, Repaired)
    assert result.outcome.program == GOLDEN


def test_missing_value_exhausts_constant_set():
    candidate = perturbed("config_ld(48, 0);", "config_ld(<CONST>, 0);")
    result = repair(candidate, SPEC, CASES, mode="enumerate")
    assert result.outcome == Exhausted(tried=5)


def test_too_many_holes_aborts_enumeration():
    candidate = "\n".join("config_st(<CONST>);" for _ in range(6)) + "\nfence();"
    result = repair(candidate, SPEC, CASES, mode="enumerate")
    assert isinstance(result.outcome, Aborted)
    assert "enumeration limit" in result.outcome.reason


def test_marking_without_backend_aborts():
    candidate = perturbed("config_st(4);", "config_st(3);")
    result = repair(candidate, SPEC, CASES, mode="enumerate")
    assert isinstance(result.outcome, Aborted)
    assert "backend" in result.outcome.reason


def test_llm_mode_marks_and_fills():
    candidate = perturbed("config_st(4);", "config_st(3);")
    marked = perturbed("config_st(4);", "config_st(<CONST>);")
    params = GenerationParams(n_samples=1)
    backend = ReplayBackend(
        {
            build_repair_mark_prompt(candidate).fingerprint: [f"```\n{marked}\n```"],
            build_repair_fill_prompt(marked, (0, 1, 3, 4, 12)).fingerprint: [
                f"```\n{GOLDEN}\n```"
            ],
        }
    )
    result = repair(candidate, SPEC, CASES, mode="llm", backend=backend, params=params)
    assert isinstance(result.outcome, Repaired)
    assert result.outcome.program == GOLDEN.rstrip("\n")
    assert result.outcome.assignment == (("h0", 4),)
    assert result.stats.candidates_tried == 1


def test_llm_then_enumerate_falls_back():
    candidate = perturbed("config_st(4);", "config_st(3);")
    marked = perturbed("config_st(4);", "config_st(<CONST>);")
    params = GenerationParams(n_samples=1)
    bad_fill = perturbed("config_st(4);", "config_st(12);")
    backend = ReplayBackend(
        {
            build_repair_mark_prompt(candidate).fingerprint: [f"```\n{marked}\n```"],
            build_repair_fill_prompt(marked, (0, 1, 3, 4, 12)).fingerprint: [
                f"```\n{bad_fill}\n```"
            ],
        }
    )
    result = repair(
        candidate, SPEC, CASES, mode="llm_then_enumerate", backend=backend, params=params
    )
    assert isinstance(result.outcome, Repaired)
    assert result.outcome.program == GOLDEN.rstrip("\n")
    assert result.stats.candidates_tried == 5


def test_llm_mode_without_backend_aborts():
    candidate = perturbed("config_st(4);", "config_st(<CONST>);")
    result = repair(candidate, SPEC, CASES, mode="llm")
    assert isinstance(result.outcome, Aborted)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        repair(GOLDEN, SPEC, CASES, mode="anneal")


# -- parse-once enumeration against the text loop ------------------------------


def reference_repair(template, spec, cases, constants):
    """The fill loop over text: substitute, skip fills that do not parse, verify the rest."""
    ids = [hole.id for hole in template.holes]
    tried = skipped = 0
    for combo in itertools.product(dict.fromkeys(constants), repeat=len(ids)):
        code = template.substitute(dict(zip(ids, combo)))
        try:
            parse_program(code, spec.buffer_shapes())
        except ProgramSyntaxError:
            skipped += 1
            continue
        tried += 1
        if verify_source(code, spec, cases).passed:
            return Repaired(program=code, assignment=tuple(zip(ids, combo))), tried
    return Exhausted(tried=tried + skipped), tried + skipped


def assert_fills_match_their_text(template, spec, constants):
    """Each fill is skipped exactly when `verify_source` gives its text a ParseFailure; else it is that
    text's parse, and repair's verdict on it is the one `verify_source` gives its text, field for field."""
    buffers = spec.buffer_shapes()
    cases = cases_for(spec.name)
    enumerator = FillEnumerator(template, constants, buffers)
    yielded = {fill.index: (fill, verdict) for fill, verdict in fill_verdicts(enumerator, spec, cases)}
    ids = [hole.id for hole in template.holes]
    for index, combo in enumerate(itertools.product(enumerator.constants, repeat=len(ids))):
        code = template.substitute(dict(zip(ids, combo)))
        try:
            parsed = parse_program(code, buffers)  # the parse verify_source runs first
        except ProgramSyntaxError:
            assert index not in yielded, code
            # With no cases, verify_source stops after its parse.
            assert isinstance(verify_source(code, spec, []).failure, ParseFailure), code
            continue
        assert index in yielded, code
        fill, verdict = yielded[index]
        assert fill.code == code
        assert fill.program == parsed, code
        assert verdict == verify_source(code, spec, cases), code
    assert enumerator.skipped == enumerator.total - len(yielded)
    return enumerator


@functools.cache
def cases_for(name):
    return generate_testcases(kernel(name), seed=11, count=3)


def assert_matches_reference(candidate, name, constants, marked=None, slotted=None):
    """Repair by enumeration agrees with the text loop; `slotted` is the path the template must take."""
    spec, cases = kernel(name), cases_for(name)
    result = repair(candidate, spec, cases, constants=constants, mode="enumerate", marked=marked)
    template = extract_holes(candidate) if marked is None else extract_holes(marked, candidate)
    outcome, tried = reference_repair(template, spec, cases, constants)
    assert result.outcome == outcome
    assert result.stats.candidates_tried == tried
    enumerator = assert_fills_match_their_text(template, spec, constants)
    if slotted is not None:
        assert enumerator.slotted == slotted


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_parse_once_repair_matches_text_loop(data):
    name = data.draw(st.sampled_from(("gv1", "gv2", "gv3", "gv4", "mm3")))
    golden = golden_program(name)
    spans = data.draw(st.lists(st.sampled_from(constant_argument_spans(golden)), min_size=1, max_size=3, unique=True))
    negative = data.draw(st.integers(-16, -1))
    others = data.draw(st.lists(st.sampled_from((0, 1, 3, 4, 12, 16, 48)), min_size=1, max_size=3, unique=True))
    constants = tuple(data.draw(st.permutations([negative, *others])))
    assert_matches_reference(punch_holes(golden, spans), name, constants, slotted=True)


def test_named_hole_matches_text_loop():
    candidate = perturbed("mvin(Pinf + 52, Pinf_sp + 16, 4, 4);", "mvin(Pinf + 52, Pinf_sp + 16, 3, 4);")
    marked = "static uint32_t COLS = 3;\n" + candidate.replace("Pinf_sp + 16, 3, 4)", "Pinf_sp + 16, COLS, 4)")
    assert_matches_reference(candidate, "gv2", (-1, 3, 4), marked=marked, slotted=True)


def test_named_hole_feeding_another_declaration_matches_text_loop():
    candidate = perturbed("mvin(Pinf + 52, Pinf_sp + 16, 4, 4);", "mvin(Pinf + 52, Pinf_sp + 16, 3, 4);")
    marked = "static uint32_t COLS = 3;\nstatic uint32_t WIDE = COLS + 0;\n" + candidate.replace(
        "Pinf_sp + 16, 3, 4)", "Pinf_sp + 16, WIDE, COLS)")
    assert_matches_reference(candidate, "gv2", (-1, 3, 4), marked=marked, slotted=True)


def test_dram_offset_hole_matches_text_loop():
    candidate = perturbed("mvin(Pinf + 52,", "mvin(Pinf + <CONST>,")
    assert_matches_reference(candidate, "gv2", (-4, 48, 52), slotted=True)


@pytest.mark.parametrize(
    "old, new, constants",
    [
        # A declaration a hole reaches, read by operand arithmetic (`x_sp + 4`, ...).
        ("static uint32_t x_sp = 36;", "static uint32_t x_sp = <CONST>;", (-4, 0, 36, 2**32)),
        # One declaration a hole reaches feeds another.
        ("static uint32_t x_sp = 36;", "static uint32_t OFF = <CONST>;\nstatic uint32_t x_sp = OFF + 32;",
         (-40, 0, 4, 2**32)),
        # A chain of declarations: every reader down the chain is re-read.
        ("static uint32_t x_sp = 36;",
         "static uint32_t A = <CONST>;\nstatic uint32_t B = A + 4;\nstatic uint32_t x_sp = B + 28;", (-40, 0, 4, 8)),
        # A declaration on the first row that many later rows read.
        ("static uint32_t Pinf_sp = 0;", "static uint32_t Pinf_sp = <CONST>;", (-4, 0, 4, 2**32)),
        # A declaration that no row reads.
        ("static uint32_t NONE = 0xffffffff;",
         "static uint32_t NONE = 0xffffffff;\nstatic uint32_t UNREAD = <CONST>;", (-4, 0, 2**32)),
        # Two holes on one row.
        ("mvin2(x + 4, x_sp + 4, 1, 4);", "mvin2(x + <CONST>, x_sp + <CONST>, 1, 4);", (-4, 0, 4)),
        # A negative count, and a local address at 2**32.
        ("config_st(4);", "config_st(<CONST>);", (-4, 4, 2**32)),
        ("mvin2(x + 4, x_sp + 4, 1, 4);", "mvin2(x + 4, x_sp + <CONST>, 1, 4);", (2**32, -4, 4)),
    ],
)
def test_slotted_holes_match_text_loop(old, new, constants):
    assert_matches_reference(perturbed(old, new), "gv2", constants, slotted=True)


@pytest.mark.parametrize(
    "old, new, constants",
    [
        # A hole in a declaration that a later declaration of the same name hides.
        ("static uint32_t x_sp = 36;",
         "static uint32_t x_sp = <CONST>;\nconfig_st(x_sp);\nstatic uint32_t x_sp = 36;", (-4, 4, 36)),
        # A hole row that reads a name declared again after it.
        ("config_st(4);", "static uint32_t Y = x_sp + <CONST>;\nconfig_st(Y);\nstatic uint32_t x_sp = 8;", (-4, 0, 4)),
        # '<<' and '*' results reaching 2**64, and a negative shift count.
        ("Pinf_sp + 16, 4, 4);", "Pinf_sp + (1 << <CONST>), 4, 4);", (-1, 64, 63, 4)),
        ("mvin(Pinf + 52,", "mvin(Pinf + 13 * <CONST>,", (2**60, -1, 4)),
        # Operands in a not-taken branch and in a zero-trip loop body emit nothing, but still raise.
        ("fence();", "if (0 == 1) { config_st(<CONST>); } else { fence(); }", (-1, 0, 4)),
        ("fence();", "for (int i = 0; i < 0; i++) { mvin(Pinf, Pinf_sp + i + <CONST>, 4, 4); }\nfence();",
         (2**32, 0, -4)),
        # An operand in a loop body, read in every iteration.
        ("config_st(4);", "for (int i = 0; i < 3; i++) { config_st(<CONST> + i - i); }", (-4, 0, 4)),
    ],
)
def test_holes_off_plain_rows_match_text_loop(old, new, constants):
    # A redeclared name, or a row the line matcher does not take: every fill is parsed whole.
    assert_matches_reference(perturbed(old, new), "gv2", constants, slotted=False)


@pytest.mark.parametrize(
    "old, new, constants",
    [
        # Loop bounds, a loop step and an `if` condition change which instructions exist.
        ("config_st(4);", "for (int i = 0; i < <CONST>; i++) { config_st(4); }", (0, 1, 2)),
        ("config_st(4);", "for (int i = 0; i < 8; i += <CONST>) { config_st(4); }", (-1, 0, 4, 8)),
        ("config_st(4);", "if (<CONST> == 1) { config_st(4); } else { config_st(12); }", (0, 1, -1)),
        # A declaration a hole reaches, read by a loop bound.
        ("config_st(4);", "static uint32_t N = <CONST>;\nfor (int i = 0; i < N; i++) { config_st(4); }", (0, 1, 3)),
        # A hole where a buffer name belongs.
        ("mvin(Pinf + 52,", "mvin(<CONST> + 52,", (0, 4)),
    ],
)
def test_holes_that_steer_the_parse_match_text_loop(old, new, constants):
    assert_matches_reference(perturbed(old, new), "gv2", constants, slotted=False)


@pytest.mark.parametrize(
    "marked, slotted",
    [
        ("config_st(-<CONST>);", False),
        ("config_st(0<CONST>);", False),
        ("config_st(<CONST>x4);", False),
        ("config_st(<CONST><CONST>);", True),
        ("config_st(4); // was <CONST>", True),
        ("config_st(0x<CONST>);", False),
        # A hole in a declared name: each fill declares another name.
        ("static uint32_t N<CONST> = 4;\nconfig_st(4);", False),
    ],
)
def test_holes_glued_to_their_neighbours_match_text_loop(marked, slotted):
    # A hole that touches a name character of the template, or a row the matcher refuses with a 0 in
    # the hole, sends every fill to a whole parse.
    assert_matches_reference(perturbed("config_st(4);", marked), "gv2", (-4, 0, 4, 12), slotted=slotted)


def test_loop_variable_shadowing_a_buffer_matches_text_loop():
    # Against the buffer table `mvin2(x, ...)` loads buffer x even where the loop variable x is in scope.
    loop = "for (int x = 0; x < <CONST>; x++) { mvin2(x, x_sp, 1, 4); }"
    assert_matches_reference(perturbed("mvin2(x, x_sp, 1, 4);", loop), "gv2", (0, 1), slotted=False)


@pytest.mark.parametrize(
    "old, new, constants",
    [
        # A loop variable named like a buffer: the buffer table still decides.
        ("config_st(4);", "for (int x = 0; x < 1; x++) { config_st(<CONST>); }", (-4, 0, 4)),
        ("mvin2(x, x_sp, 1, 4);", "for (int x = 0; x < 1; x++) { mvin2(x, x_sp, 1, <CONST>); }", (-1, 0, 4)),
        ("mvin2(x, x_sp, 1, 4);", "for (int x = 0; x < 1; x++) { mvin2(x + <CONST>, x_sp, 1, 4); }", (-1, 0, 4)),
    ],
)
def test_loop_binding_a_buffer_name_matches_text_loop(old, new, constants):
    assert_matches_reference(perturbed(old, new), "gv2", constants, slotted=False)


# -- slotted fills against a parse of their text -------------------------------

ALL_GOLDENS = ("gv1", "gv2", "gv3", "gv4", "mm1", "mm2", "mm3", "mm4", "mm5", "mm6", "mm7")
_OPERAND_LITERAL = re.compile(r"(?<![\w.])(0[xX][0-9a-fA-F]+|\d+)(?![\w.])")


@functools.cache
def operand_literal_spans(name):
    """Spans of every integer literal inside an instruction's operands, `X_sp + N` offsets included."""
    return _literal_spans(name, declarations=False)


@functools.cache
def initializer_spans(name):
    """Spans of the integer literals that initialize the golden's `static uint32_t` declarations."""
    return _literal_spans(name, declarations=True)


def _literal_spans(name, declarations):
    spans, offset = [], 0
    for line in golden_program(name).splitlines(keepends=True):
        if line.rstrip().endswith(";") and line.lstrip().startswith("static") == declarations:
            start = line.index("=" if declarations else "(")
            spans += [(offset + m.start(1), offset + m.end(1)) for m in _OPERAND_LITERAL.finditer(line, start)]
        offset += len(line)
    return spans


def fill_constants(data):
    """A negative, 0, a constant past 32 bits and a small one, in a drawn order."""
    negative = data.draw(st.integers(-2**33, -1))
    large = data.draw(st.integers(2**32, 2**40))
    other = data.draw(st.sampled_from((1, 3, 4, 12, 16, 48)))
    return tuple(data.draw(st.permutations([negative, 0, large, other])))


@pytest.mark.parametrize("name", ALL_GOLDENS)
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_slotted_fills_equal_a_parse_of_their_text(name, data):
    golden = golden_program(name)
    spans = data.draw(st.lists(st.sampled_from(operand_literal_spans(name)), max_size=2, unique=True))
    spans += data.draw(st.lists(st.sampled_from(initializer_spans(name)), min_size=0 if spans else 1, max_size=1))
    template = extract_holes(punch_holes(golden, spans))
    assert assert_fills_match_their_text(template, kernel(name), fill_constants(data)).slotted


# What the edits put in: the garbled programs' stray text, name characters and separators.
_GARBLE = _STRAY + ("x", "_", "4", " ", ",", ";", "\n")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_garbled_hole_rows_fill_as_their_text(data):
    name = data.draw(st.sampled_from(("gv1", "gv2", "gv3", "gv4", "mm3")))
    spans = data.draw(st.lists(st.sampled_from(operand_literal_spans(name) + initializer_spans(name)),
                               min_size=1, max_size=2, unique=True))
    rows = punch_holes(golden_program(name), spans).split("\n")
    rng = data.draw(st.randoms(use_true_random=False))
    for _ in range(data.draw(st.integers(1, 3))):
        # A hole row or a row next to one; edits stay between the markers.
        holes = [r for r, row in enumerate(rows) if MARKER in row]
        at = min(max(rng.choice(holes) + rng.randint(-1, 1), 0), len(rows) - 1)
        edit = data.draw(st.sampled_from(("insert", "delete", "duplicate")))
        if edit == "duplicate":
            rows.insert(at + rng.randint(0, 1), rows[at].replace(MARKER, str(rng.choice((0, 4, 36)))))
            continue
        parts = rows[at].split(MARKER)
        part = rng.randrange(len(parts))
        cut = rng.choice((0, len(parts[part]), rng.randint(0, len(parts[part]))))
        head, tail = parts[part][:cut], parts[part][cut:]
        parts[part] = head + data.draw(st.sampled_from(_GARBLE)) + tail if edit == "insert" else head[:-1] + tail
        rows[at] = MARKER.join(parts)
    assert_fills_match_their_text(extract_holes("\n".join(rows)), kernel(name), fill_constants(data))


# -- every fill of the benchmark's and criterion 5's templates -----------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ALL_GOLDENS)
def test_criterion_5_fills_match_their_text(name):
    for hole_kernel, spans, _ in criterion_5_holes():
        if hole_kernel == name:
            template = extract_holes(punch_holes(golden_program(name), spans))
            assert assert_fills_match_their_text(template, kernel(name), DEFAULT_CONSTANT_SET).slotted


@pytest.mark.parametrize("seed", range(4))
def test_repair_workload_fills_match_their_text(seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for job in workloads.build_repair(ta_lift, seed, tmp_path).jobs:
        text = Path(job.argv[job.argv.index("--program") + 1]).read_text()
        spec = kernel(job.argv[job.argv.index("--kernel") + 1])
        assert assert_fills_match_their_text(extract_holes(text), spec, DEFAULT_CONSTANT_SET).slotted


# A load before any load stride is set: a runtime error in the prefix shared by every fill.
_EARLY_MVIN = ("config_ld(48, 0);", "mvin(Pinf, Pinf_sp, 4, 4);\nconfig_ld(48, 0);")
# An instruction that fails validation (5 rows on a 4-wide machine), and a hole before it.
_LATE_INVALID = ("mvin(Pinf + 8, Pinf_sp + 8, 4, 4);", "mvin(Pinf + 8, Pinf_sp + 8, 4, 5);")
_LATER_HOLE = ("mvin(Pinf + 4, Pinf_sp + 4, 4, 4);", "mvin(Pinf + 4, Pinf_sp + 4, 4, <CONST>);")
_NEXT_INVALID = ("mvin2(x + 4, x_sp + 4, 1, 4);", "mvin2(x + 4, x_sp + 4, 1, 5);")  # right after the later hole


def edited(*edits):
    text = GOLDEN
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize(
    "edits, prefix_error",
    [
        # Fills that validate fail where the prefix fails; the others fail validation at the hole.
        ((_EARLY_MVIN, _LATER_HOLE), True),
        # Validation decides first: an invalid instruction after the hole outranks the prefix's error.
        ((_EARLY_MVIN, _LATER_HOLE, _LATE_INVALID), False),
        ((_EARLY_MVIN, _LATER_HOLE, _NEXT_INVALID), False),
        ((_LATER_HOLE, _LATE_INVALID), False),
    ],
)
def test_fill_verdicts_keep_validation_before_the_shared_prefix(edits, prefix_error):
    template = extract_holes(edited(*edits))
    enumerator = assert_fills_match_their_text(template, SPEC, (-1, 0, 4, 5))
    assert enumerator.slotted
    hole = enumerator.rebuilt[0]
    # The fills' verdicts equal these (-1 does not parse); check that each takes the branch it is meant to.
    for value in (0, 4, 5):
        failure = verify_source(template.substitute({"h0": value}), SPEC, cases_for("gv2")).failure
        in_prefix = value == 4 and prefix_error
        assert failure.index < hole if in_prefix else failure.index >= hole
        assert failure.kind == ("unsupported" if in_prefix else "rows_exceed_dim")


def test_fill_parsed_whole_is_verified_whole(monkeypatch):
    calls = []
    for method in ("verify", "verify_fills"):
        real = getattr(kernels.Verifier, method)

        def recording(self, arg, real=real, method=method):
            calls.append((method, len(arg) if method == "verify_fills" else arg))
            return real(self, arg)

        monkeypatch.setattr(kernels.Verifier, method, recording)
    template = extract_holes(perturbed("mvin2(x + 4, x_sp + 4, 1, 4);", "mvin2(x + 4, x_sp + <CONST>, 1, 4);"))
    enumerator = FillEnumerator(template, (-4, 4, 2**32), SPEC.buffer_shapes())
    fills = [(fill.assignment, fill.from_rows, fill.program) for fill, _ in fill_verdicts(enumerator, SPEC, CASES)]
    # `x_sp + -4` parses, but the line matcher does not take it.
    assert [fill[:2] for fill in fills] == [((("h0", -4),), False), ((("h0", 4),), True)]
    # The batch verifies its one row-path fill; the fill parsed whole is verified whole when it is reached.
    assert calls == [("verify_fills", 1), ("verify", fills[0][2])]
    assert_fills_match_their_text(template, SPEC, (-4, 4, 2**32))


def test_a_local_address_hole_out_of_range_never_reaches_the_machine(monkeypatch):
    ran = []
    real = kernels.step

    def recording(instructions, cfg, sizes, state, start=0, stop=None):
        ran.extend(instructions[start:stop])
        return real(instructions, cfg, sizes, state, start, stop)

    monkeypatch.setattr(kernels, "step", recording)
    template = extract_holes(perturbed("mvin2(x + 4, x_sp + 4, 1, 4);", "mvin2(x + 4, <CONST>, 1, 4);"))
    enumerator = FillEnumerator(template, (4294967296, -1, 40), SPEC.buffer_shapes())
    assert [fill.assignment for fill, _ in fill_verdicts(enumerator, SPEC, CASES)] == [(("h0", 40),)]
    assert (enumerator.attempted, enumerator.skipped) == (3, 2)
    for value, shown in ((4294967296, "0x100000000"), (-1, "-0x1")):
        with pytest.raises(ProgramSyntaxError, match=f"^line 15: local address {shown} outside 32-bit range$"):
            parse_program(template.substitute({"h0": value}), SPEC.buffer_shapes())
    local = [getattr(ins, name) for ins in ran for name, kind in spec_of(ins).operands if kind == "local"]
    assert local and all(0 <= value <= LOCAL_ADDR_MAX for value in local)


# -- work per fill -------------------------------------------------------------


@pytest.mark.parametrize("marked, tried", [("config_st(<CONST>);\nconfig_ld(48, 0);", 4),
                                           ("config_st(<CONST>);\nconfig_ld(<CONST>, 0);", 24)])
def test_cases_are_stacked_once_per_repair_call(monkeypatch, marked, tried):
    stacked = []
    real = kernels._stack_cases
    monkeypatch.setattr(kernels, "_stack_cases", lambda *args: stacked.append(args) or real(*args))
    candidate = perturbed("config_st(4);\nconfig_ld(48, 0);", marked)
    result = repair(candidate, SPEC, CASES, constants=(0, 1, 3, 4, 12, 48), mode="enumerate")
    assert isinstance(result.outcome, Repaired) and result.stats.candidates_tried == tried
    assert len(stacked) == 1


def test_a_fill_with_a_static_error_joins_no_batch(monkeypatch):
    groups = []
    real = kernels.Verifier._run_group
    monkeypatch.setattr(kernels.Verifier, "_run_group",
                        lambda self, runs, fills: groups.append(fills) or real(self, runs, fills))
    template = extract_holes(perturbed("compute_preloaded(Pinf_sp + 4, NONE, 4, 4, 1, 4);",
                                       "compute_preloaded(Pinf_sp + 4, NONE, <CONST>, 4, 1, 4);"))
    enumerator = FillEnumerator(template, (1, 2, 3, 4), SPEC.buffer_shapes())
    seen = [(fill.assignment, getattr(verdict.failure, "kind", None), fill.program.instructions)
            for fill, verdict in fill_verdicts(enumerator, SPEC, CASES)]
    # A is 4x1, 4x2 or 4x3 but the weights are 4x1 deep: refused before any machine runs.
    mismatch = [((("h0", value),), "dimension_mismatch") for value in (1, 2, 3)]
    assert [fill[:2] for fill in seen] == mismatch + [((("h0", 4),), None)]
    # The one group holds the rebuilt ops of the fill that runs, and of no other.
    verifier = kernels.Verifier(SPEC, CASES, None, enumerator.program, enumerator.rebuilt)
    assert groups == [[verifier._fill_check(seen[3][2])[1]]]


def test_fills_validate_only_their_rebuilt_instructions(monkeypatch):
    validated, stepped = [], []
    real_validate, real_step = kernels.first_invalid, kernels.step

    def validating(indexed, dim, max_block_len):
        indexed = list(indexed)
        validated.append([index for index, _ in indexed])
        return real_validate(indexed, dim, max_block_len)

    def stepping(instructions, cfg, sizes, state, start=0, stop=None):
        if stop == start + 1 and start in (1, 2):  # a fill's own step, outside template runs
            stepped.append(start)
        return real_step(instructions, cfg, sizes, state, start, stop)

    monkeypatch.setattr(kernels, "first_invalid", validating)
    monkeypatch.setattr(kernels, "step", stepping)
    template = extract_holes(perturbed("config_st(4);\nconfig_ld(48, 0);", "config_st(<CONST>);\nconfig_ld(<CONST>, 0);"))
    enumerator = FillEnumerator(template, (0, 4, 48), SPEC.buffer_shapes())
    assert len(list(fill_verdicts(enumerator, SPEC, CASES))) == 9
    count = len(enumerator.program.instructions)
    assert enumerator.rebuilt == (1, 2)
    # The template's other instructions are validated once: those before the first hole by stepping them, the
    # rest by validation alone.  The fills step only their two rebuilt ones, each once per scan state it starts
    # from: three stores, then three loads after each.
    assert [indices for indices in validated if indices] == [[index for index in range(3, count)]]
    assert stepped == [1, 2, 2, 2] * 3


def test_template_read_converts_each_literal_once(monkeypatch):
    converted = []
    real = program_text._Atoms.__missing__
    monkeypatch.setattr(program_text._Atoms, "__missing__", lambda self, atom: converted.append(atom) or real(self, atom))
    golden = golden_program("mm1")
    spans = operand_literal_spans("mm1")
    template = extract_holes(punch_holes(golden, [spans[len(spans) // 2]]))
    assert FillEnumerator(template, DEFAULT_CONSTANT_SET, kernel("mm1").buffer_shapes()).slotted
    literals = [atom for atom in converted if program_text._NUMBER.fullmatch(atom)]
    assert literals and len(literals) == len(set(literals))


# -- fills verified in batches -------------------------------------------------


def assert_batches_match_solo_runs(template, spec, constants, cases, sizes):
    """Verify the row-path fills of `template` in consecutive batches of the given `sizes`, in turn.

    Each verdict equals `verify_source` of the fill's text, field for field.  Each fill that the
    static checks accept is grouped as `verify_fills` groups it, and its slice of its group's
    machine (fill axis first) holds what a run of the fill alone leaves.  Returns the groups.
    """
    enumerator = FillEnumerator(template, constants, spec.buffer_shapes())
    assert enumerator.slotted
    fills = [fill for fill in enumerator if fill.from_rows]
    verifier = kernels.Verifier(spec, cases, None, enumerator.program, enumerator.rebuilt)
    sizes, start = itertools.cycle(sizes), 0
    while start < len(fills):
        batch = fills[start : start + next(sizes)]
        for fill, verdict in zip(batch, verifier.verify_fills([fill.program for fill in batch]), strict=True):
            assert verdict == verify_source(fill.code, spec, cases), fill.code
        start += len(batch)
    groups = {}
    for fill in fills:
        checked = verifier._fill_check(fill.program.instructions)
        if not isinstance(checked, ExecError):
            runs, ops = checked
            groups.setdefault(tuple(map(id, runs)), (runs, []))[1].append((fill, ops))
    for runs, members in groups.values():
        parts = machine.slices(verifier._run_group(runs, [ops for _, ops in members]))
        for part, (fill, _) in zip(parts, members, strict=True):
            solo = machine_for_cases(spec, cases)
            machine.execute(solo, fill.program)
            assert machine_state(part) == machine_state(solo), fill.code
    return [[fill for fill, _ in members] for _, members in groups.values()]


_BATCH_GOLDENS = ("gv1", "gv2", "gv3", "gv4", "mm2", "mm3", "mm4", "mm5", "mm7")
_KEEP_WEIGHTS = "0xffffffff"


@st.composite
def batch_templates(draw):
    """(spec, template, constants): a golden with 1-3 holes on literals of drawn instruction kinds.

    Its `config_ex` flags are written 0 and 1, so they can be holes.  Drawn rewrites turn a
    preload after the first into one that keeps the latched weights, a compute into an
    accumulating one, or a preload into a `preload_zeros`."""
    name = draw(st.sampled_from(_BATCH_GOLDENS))
    rng = draw(st.randoms(use_true_random=False))  # spreads the choices better than sampled_from
    rows = golden_program(name).replace(", false", ", 0").replace(", true", ", 1").split("\n")
    preloads = [r for r, row in enumerate(rows) if row.startswith("preload(")]
    for rewrite in ("accumulate", "keep", "zeros"):  # in this order, zeros may take a kept row
        if rng.random() < 0.3:
            at = rng.choice(preloads[1:] if rewrite == "keep" else preloads)
            if rewrite == "accumulate":
                rows[at + 1] = rows[at + 1].replace("compute_preloaded(", "compute_accumulated(")
            elif rewrite == "keep":
                rows[at] = f"preload({_KEEP_WEIGHTS}, " + rows[at].split(", ", 1)[1]
            else:
                rows[at] = f"preload_zeros({rows[at].split(', ')[1]});"
    by_kind, offset = {}, 0
    for row in rows:
        if not row.startswith("static") and "(" in row:
            spans = [(offset + m.start(1), offset + m.end(1)) for m in _LITERAL.finditer(row, row.index("("))]
            by_kind.setdefault(row[: row.index("(")], []).extend(spans)
        offset += len(row) + 1
    kinds = rng.sample(sorted(kind for kind, found in by_kind.items() if found), draw(st.integers(1, 3)))
    text, spans = "\n".join(rows), sorted({rng.choice(by_kind[kind]) for kind in kinds})
    # The punched values, so that some fills run, and one or two others.
    constants = [int(text[begin:end]) for begin, end in spans]
    constants += draw(st.lists(st.sampled_from((0, 1, 2, 3, 4, 12, 16, 48, 2**32 - 1)), min_size=1,
                               max_size=2 if len(spans) == 1 else 1))
    return kernel(name), extract_holes(punch_holes(text, spans)), tuple(dict.fromkeys(constants))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(batch_templates(), st.data())
def test_batched_fills_match_their_text_and_solo_runs(template, data):
    spec, template, constants = template
    cases = make_cases(spec, data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2**32 - 1)))
    assert_batches_match_solo_runs(template, spec, constants, cases,
                                   data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))


@pytest.mark.parametrize(
    "edits, constants, groups, row_moves",
    [
        # Load strides 48, 16, 0 and 4 start the template's runs from four scan states; 6 is refused.
        ((("config_ld(48, 0);", "config_ld(<CONST>, 0);"),), (48, 6, 16, 0, 4), 4, True),
        # Transpose flags: each pair is its own scan state, and some refuse the compute's shapes.
        ((("config_ex(WEIGHT_STATIONARY, NO_ACTIVATION, false, false);",
           "config_ex(WEIGHT_STATIONARY, NO_ACTIVATION, <CONST>, <CONST>);"),), (0, 1), 2, False),
        # Preload sizes change the latched shapes: (1, 1), (3, 3) and (4, 4) run, the other pairs are refused.
        ((("preload(x_sp + 4, Pinf_x_sum, 1, 4, 1, 4);", "preload(x_sp + 4, Pinf_x_sum, <CONST>, 4, <CONST>, 4);"),),
         (1, 3, 4), 3, False),
        # Rebuilt preloads latch different weights, and the next preload keeps them.
        ((("preload(x_sp + 4, Pinf_x_sum, 1, 4, 1, 4);", "preload(x_sp + <CONST>, Pinf_x_sum, 1, 4, 1, 4);"),
          ("preload(x_sp + 8, Pinf_x_sum, 1, 4, 1, 4);", f"preload({_KEEP_WEIGHTS}, Pinf_x_sum, 1, 4, 1, 4);")),
         (4, 0, 8, 1), 1, False),
        # A rebuilt preload that keeps the weights latched before it, among ones that latch their own.
        ((("preload(x_sp + 4, Pinf_x_sum, 1, 4, 1, 4);", "preload(<CONST>, Pinf_x_sum, 1, 4, 1, 4);"),),
         (2**32 - 1, 40, 36, 2**32 - 1), 1, False),
        # Moves that go row by row in rebuilt positions: 2 or 3 columns of a one-column buffer.
        ((("mvout(Pinf_x, Pinf_x_acc, 1, 4);", "mvout(Pinf_x, Pinf_x_acc, <CONST>, 4);"),
          ("mvin2(x + 4, x_sp + 4, 1, 4);", "mvin2(x + 4, x_sp + 4, <CONST>, 4);")), (1, 2, 3), 1, True),
        # Rows 5 and 0 fail validation between fills that run.
        ((("mvin(Pinf + 4, Pinf_sp + 4, 4, 4);", "mvin(Pinf + 4, Pinf_sp + 4, 4, <CONST>);"),), (4, 5, 3, 0, 1), 1,
         False),
    ],
)
def test_batched_fills_of_chosen_templates_match_their_text_and_solo_runs(monkeypatch, edits, constants, groups,
                                                                           row_moves):
    moved = []
    real = isa._row_moves
    monkeypatch.setattr(isa, "_row_moves", lambda ins, *rest: moved.append(ins) or real(ins, *rest))
    cases = make_cases(SPEC, 3, seed=5)
    found = assert_batches_match_solo_runs(extract_holes(edited(*edits)), SPEC, constants, cases, (3, 1, 5))
    assert len(found) == groups
    assert bool(moved) == row_moves


@pytest.mark.parametrize("winner", [0, 2, 3, None])
def test_a_winner_leaves_at_most_its_batch_enumerated(monkeypatch, winner):
    """Winners at the first fill, the last fill of a batch and the first of the next, and none at all."""
    wrong = [0, 8, 12, 3, 16, 20]  # 3 is not a multiple of 4: refused before anything runs
    constants = wrong + [24] if winner is None else wrong[:winner] + [4] + wrong[winner:]
    monkeypatch.setattr(kernels, "BATCH_BYTES", 3 * kernels.Verifier(SPEC, cases_for("gv2")).fill_bytes)
    candidate = perturbed("config_st(4);", "config_st(<CONST>);")
    assert_matches_reference(candidate, "gv2", constants, slotted=True)
    sizes = []
    real = kernels.Verifier.verify_fills
    monkeypatch.setattr(kernels.Verifier, "verify_fills", lambda self, fills: sizes.append(len(fills)) or real(self, fills))
    enumerator = FillEnumerator(extract_holes(candidate), constants, SPEC.buffer_shapes())
    verdicts = fill_verdicts(enumerator, SPEC, cases_for("gv2"))
    passed = next((fill.index for fill, verdict in verdicts if verdict.passed), None)
    assert passed == winner
    # The winner's batch is enumerated in full, and nothing past it.
    attempted = len(constants) if winner is None else 3 * (winner // 3 + 1)
    assert (enumerator.attempted, enumerator.skipped) == (attempted, 0)
    assert sizes == [3, 3, 1][: len(sizes)] and sum(sizes) == attempted


def test_a_batch_of_fills_stays_within_the_byte_budget():
    cases = generate_testcases(SPEC, seed=3, count=40)
    template = extract_holes(perturbed("mvin(Pinf + 4, Pinf_sp + 4, 4, 4);", "mvin(Pinf + 4, Pinf_sp + 4, 4, <CONST>);"))
    enumerator = FillEnumerator(template, (4,), SPEC.buffer_shapes())
    verifier = kernels.Verifier(SPEC, cases, None, enumerator.program, enumerator.rebuilt)
    assert verifier.batch > 1
    runs, ops = verifier._fill_check(next(iter(enumerator)).program.instructions)
    group = verifier._run_group(runs, [ops] * verifier.batch)
    stacked = sum(arr.nbytes for arr in (*group.dram.values(), group.spad, group.acc))
    assert stacked == verifier.batch * verifier.fill_bytes <= kernels.BATCH_BYTES


def test_a_fill_over_the_byte_budget_runs_as_a_batch_of_one(monkeypatch):
    monkeypatch.setattr(kernels, "BATCH_BYTES", kernels.Verifier(SPEC, CASES).fill_bytes - 1)
    groups = []
    real = kernels.Verifier._run_group
    monkeypatch.setattr(kernels.Verifier, "_run_group",
                        lambda self, runs, fills: groups.append(len(fills)) or real(self, runs, fills))
    template = extract_holes(perturbed("config_st(4);\nconfig_ld(48, 0);", "config_st(<CONST>);\nconfig_ld(<CONST>, 0);"))
    result = repair(template.code, SPEC, CASES, constants=(0, 4, 48), mode="enumerate")
    assert result.outcome == Repaired(program=GOLDEN, assignment=(("h0", 4), ("h1", 48)))
    assert groups and set(groups) == {1}
    assert_fills_match_their_text(template, SPEC, (0, 4, 48))


def test_the_seed_1_repair_workload_runs_under_a_third_of_the_instructions(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    ran = []
    real = kernels.run
    monkeypatch.setattr(kernels, "run", lambda m, ops: ran.append(len(ops)) or real(m, ops))
    tried = []
    for job in workloads.build_repair(ta_lift, 1, tmp_path).jobs:
        argv = dict(zip(job.argv[1::2], job.argv[2::2]))
        spec = kernel(argv["--kernel"])
        cases = generate_testcases(spec, int(argv["--seed"]), int(argv["--n"]))
        result = repair(Path(argv["--program"]).read_text(), spec, cases, mode="enumerate")
        tried.append(result.stats.candidates_tried)
    assert tried == [4] * 11 + [94, 94, 119, 119]
    # With a snapshot copy per fill, each fill ran every instruction after its first hole: 6 528 in all.
    assert sum(ran) <= 2_100


def test_the_seed_1_repair_workload_steps_each_instruction_once_per_run_start(tmp_path, monkeypatch):
    """Each instruction is stepped at most once per scan state its run starts from: a template run once per
    state it is reached in (it is cached with its ops), a rebuilt instruction once per cached run it follows.
    Replays stay within the instructions run before the step pass, 2 055 per pass."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    stepped, kept, replayed = Counter(), [], []
    real_step, real_run = kernels.step, kernels.run

    def counting(instructions, cfg, sizes, state, start=0, stop=None):
        kept.append(instructions)  # no stepped instruction is freed, so none leaves its id to another
        key = (start, state.key())
        stepped.update((index, id(instructions[index]), key) for index in range(start, stop))
        return real_step(instructions, cfg, sizes, state, start, stop)

    monkeypatch.setattr(kernels, "step", counting)
    monkeypatch.setattr(kernels, "run", lambda m, ops: replayed.append(len(ops)) or real_run(m, ops))
    for job in workloads.build_repair(ta_lift, 1, tmp_path).jobs:
        argv = dict(zip(job.argv[1::2], job.argv[2::2]))
        spec = kernel(argv["--kernel"])
        cases = generate_testcases(spec, int(argv["--seed"]), int(argv["--n"]))
        repair(Path(argv["--program"]).read_text(), spec, cases, mode="enumerate")
    assert stepped and max(stepped.values()) == 1
    assert sum(replayed) <= 2_100


# -- parses per template -------------------------------------------------------


def count_parses(monkeypatch):
    """The buffer table of every call to `repair.parse_program`, in order."""
    buffer_tables = []
    real = repair_module.parse_program

    def counting(text, buffers):
        buffer_tables.append(buffers)
        return real(text, buffers)

    monkeypatch.setattr(repair_module, "parse_program", counting)
    return buffer_tables


@pytest.mark.parametrize(
    "marked, tried",
    [
        ("config_st(<CONST>);\nconfig_ld(48, 0);", 4),
        # (4, 48) is the 24th pair of (0, 1, 3, 4, 12, 48) in product order.
        ("config_st(<CONST>);\nconfig_ld(<CONST>, 0);", 24),
    ],
)
def test_slotted_template_parses_no_fill(monkeypatch, marked, tried):
    buffer_tables = count_parses(monkeypatch)
    candidate = perturbed("config_st(4);\nconfig_ld(48, 0);", marked)
    result = repair(candidate, SPEC, CASES, constants=(0, 1, 3, 4, 12, 48), mode="enumerate")
    assert isinstance(result.outcome, Repaired)
    assert result.stats.candidates_tried == tried
    assert buffer_tables == []


def test_loop_bound_hole_template_parses_each_fill(monkeypatch):
    buffer_tables = count_parses(monkeypatch)
    loop = "for (int i = 0; i < <CONST>; i++) { config_st(4); }"
    result = repair(perturbed("config_st(4);", loop), SPEC, CASES, constants=(0, 1), mode="enumerate")
    assert result.outcome == Repaired(program=GOLDEN.replace("config_st(4);", loop.replace("<CONST>", "1")),
                                      assignment=(("h0", 1),))
    assert result.stats.candidates_tried == 2
    # The line matcher does not take the loop row, so each fill is parsed whole.
    assert buffer_tables == [SPEC.buffer_shapes()] * 2


def test_fill_parses_whole_only_where_the_matcher_refuses_a_row(monkeypatch):
    buffer_tables = count_parses(monkeypatch)
    template = extract_holes(perturbed("mvin2(x + 4, x_sp + 4, 1, 4);", "mvin2(x + 4, x_sp + <CONST>, 1, 4);"))
    enumerator = FillEnumerator(template, (-4, 4, 2**32), SPEC.buffer_shapes())
    # The matcher takes `x_sp + 4` but neither `x_sp + -4`, which parses, nor `x_sp + 4294967296`, which does not.
    assert [fill.code for fill in enumerator] == [template.substitute({"h0": v}) for v in (-4, 4)]
    assert enumerator.slotted and (enumerator.attempted, enumerator.skipped) == (3, 1)
    assert buffer_tables == [SPEC.buffer_shapes()] * 2


# -- rows re-read per fill -----------------------------------------------------


def count_row_reads(monkeypatch):
    """The row of every call to `repair._take_plain_lines`, in order."""
    rows = []
    real = repair_module._take_plain_lines

    def counting(lines, buffers, symbols, out, atoms=None):
        rows.extend(lines)
        return real(lines, buffers, symbols, out, atoms)

    monkeypatch.setattr(repair_module, "_take_plain_lines", counting)
    return rows


def test_hole_rows_are_read_once_per_text(monkeypatch):
    rows = count_row_reads(monkeypatch)
    constants = (0, 1, 3, 4, 12, 48)
    template = extract_holes(perturbed("config_st(4);\nconfig_ld(48, 0);", "config_st(<CONST>);\nconfig_ld(<CONST>, 0);"))
    enumerator = FillEnumerator(template, constants, SPEC.buffer_shapes())
    template_reads = len(rows)
    assert template_reads == len(GOLDEN.split("\n")) and enumerator.slotted  # the template is read row by row
    assert len(list(enumerator)) == 36
    fill_rows = rows[template_reads:]
    assert sorted(fill_rows) == sorted([f"config_st({v});" for v in constants] + [f"config_ld({v}, 0);" for v in constants])


def test_rows_reading_a_reached_name_are_read_every_fill(monkeypatch):
    rows = count_row_reads(monkeypatch)
    marked = "static uint32_t A = <CONST>;\nstatic uint32_t x_sp = A + 36;"
    template = extract_holes(perturbed("static uint32_t x_sp = 36;", marked))
    enumerator = FillEnumerator(template, (0, 4, 8), SPEC.buffer_shapes())
    template_reads = len(rows)
    assert len(list(enumerator)) == 3 and enumerator.slotted
    fill_rows = rows[template_reads:]
    # Its text is the same in every fill, but the value of `A` is not.
    assert fill_rows.count("static uint32_t x_sp = A + 36;") == 3
    assert fill_rows.count("mvin2(x, x_sp, 1, 4);") == 3
    assert [row for row in fill_rows if row.startswith("static uint32_t A")] == [
        "static uint32_t A = 0;", "static uint32_t A = 4;", "static uint32_t A = 8;"]
    # Rows that read no name a hole reaches are not re-read.
    assert "config_st(4);" not in fill_rows
