"""Hole extraction, fill enumeration, and the end-to-end repair flow."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import constant_argument_spans, punch_holes

import ta_lift.repair as repair_module
from ta_lift.fixtures import golden_program, kernel
from ta_lift.gateway import GenerationParams, ReplayBackend
from ta_lift.kernels import generate_testcases, verify_source
from ta_lift.program_text import ProgramSyntaxError, parse_program
from ta_lift.prompts import (
    EmptyConstantSet,
    build_repair_fill_prompt,
    build_repair_mark_prompt,
)
from ta_lift.repair import (
    Aborted,
    Exhausted,
    HoleTemplate,
    NoHolesFound,
    Repaired,
    enumerate_fills,
    extract_holes,
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
    fills = list(enumerate_fills(template, [0, 4], SPEC.buffer_shapes()))
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
    fills = list(enumerate_fills(template, [0, 1], SPEC.buffer_shapes()))
    assert [f.assignment for f in fills] == [(("h0", 0),), (("h0", 1),)]
    assert [f.code.splitlines()[0] for f in fills] == ["config_st(0);", "config_st(1);"]


def test_two_holes_default_set_is_25_candidates():
    template = extract_holes("config_st(<CONST>);\nconfig_ld(<CONST>, 0);\nfence();")
    fills = list(enumerate_fills(template, [0, 1, 3, 4, 12], SPEC.buffer_shapes()))
    assert len(fills) == 25
    assert fills[0].assignment == (("h0", 0), ("h1", 0))
    assert fills[1].assignment == (("h0", 0), ("h1", 1))
    assert fills[5].assignment == (("h0", 1), ("h1", 0))
    assert fills[-1].assignment == (("h0", 12), ("h1", 12))


def test_cap_truncates_product():
    marked = "\n".join("config_st(<CONST>);" for _ in range(5)) + "\nfence();"
    template = extract_holes(marked)
    enumerator = enumerate_fills(template, [0, 1, 3, 4, 12], SPEC.buffer_shapes(), cap=100)
    fills = list(enumerator)
    assert len(fills) == 100
    assert enumerator.capped
    assert enumerator.total == 3125


def test_unparseable_fills_are_skipped_and_counted():
    template = extract_holes("mvout(C, 0x80000000, 1, <CONST>);\nfence();")
    enumerator = enumerate_fills(template, [-1, 4], SPEC.buffer_shapes())
    fills = list(enumerator)
    assert [f.assignment for f in fills] == [(("h0", 4),)]
    assert enumerator.skipped == 1
    assert not enumerator.capped


def test_empty_constant_set_rejected():
    template = extract_holes("config_st(<CONST>);")
    with pytest.raises(EmptyConstantSet):
        enumerate_fills(template, [], SPEC.buffer_shapes())


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
            parse_program(code, None)
        except ProgramSyntaxError:
            skipped += 1
            continue
        tried += 1
        if verify_source(code, spec, cases).passed:
            return Repaired(program=code, assignment=tuple(zip(ids, combo))), tried
    return Exhausted(tried=tried + skipped), tried + skipped


@functools.cache
def cases_for(name):
    return generate_testcases(kernel(name), seed=11, count=3)


def assert_matches_reference(candidate, name, constants, marked=None):
    spec, cases = kernel(name), cases_for(name)
    result = repair(candidate, spec, cases, constants=constants, mode="enumerate", marked=marked)
    template = extract_holes(candidate) if marked is None else extract_holes(marked, candidate)
    outcome, tried = reference_repair(template, spec, cases, constants)
    assert result.outcome == outcome
    assert result.stats.candidates_tried == tried


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_parse_once_repair_matches_text_loop(data):
    name = data.draw(st.sampled_from(("gv1", "gv2", "gv3", "gv4", "mm3")))
    golden = golden_program(name)
    spans = data.draw(st.lists(st.sampled_from(constant_argument_spans(golden)), min_size=1, max_size=3, unique=True))
    negative = data.draw(st.integers(-16, -1))
    others = data.draw(st.lists(st.sampled_from((0, 1, 3, 4, 12, 16, 48)), min_size=1, max_size=3, unique=True))
    constants = tuple(data.draw(st.permutations([negative, *others])))
    assert_matches_reference(punch_holes(golden, spans), name, constants)


def test_named_hole_matches_text_loop():
    candidate = perturbed("mvin(Pinf + 52, Pinf_sp + 16, 4, 4);", "mvin(Pinf + 52, Pinf_sp + 16, 3, 4);")
    marked = "static uint32_t COLS = 3;\n" + candidate.replace("Pinf_sp + 16, 3, 4)", "Pinf_sp + 16, COLS, 4)")
    assert_matches_reference(candidate, "gv2", (-1, 3, 4), marked=marked)


def test_dram_offset_hole_matches_text_loop():
    candidate = perturbed("mvin(Pinf + 52,", "mvin(Pinf + <CONST>,")
    assert_matches_reference(candidate, "gv2", (-4, 48, 52))


@pytest.mark.parametrize(
    "marked",
    [
        "config_st(-<CONST>);",
        "config_st(0<CONST>);",
        "config_st(<CONST>x4);",
        "config_st(<CONST><CONST>);",
        "config_st(4); // was <CONST>",
        "config_st(0x<CONST>);",
    ],
)
def test_holes_glued_to_their_neighbours_match_text_loop(marked):
    # Each of these fills tokenizes differently from a lone integer token.
    assert_matches_reference(perturbed("config_st(4);", marked), "gv2", (-4, 0, 4, 12))


def test_loop_variable_shadowing_a_buffer_matches_text_loop():
    # Against the buffer table `mvin2(x, ...)` loads buffer x; with inferred
    # buffers the loop variable x makes the fill unparseable, so it is skipped.
    loop = "for (int x = 0; x < <CONST>; x++) { mvin2(x, x_sp, 1, 4); }"
    assert_matches_reference(perturbed("mvin2(x, x_sp, 1, 4);", loop), "gv2", (0, 1))


def test_enumeration_parses_each_fill_once(monkeypatch):
    buffer_tables = []
    real = repair_module.parse_program

    def counting(source, buffers=None):
        buffer_tables.append(buffers)
        return real(source, buffers)

    monkeypatch.setattr(repair_module, "parse_program", counting)
    result = repair(perturbed("config_st(4);", "config_st(<CONST>);"), SPEC, CASES, mode="enumerate")
    assert result.stats.candidates_tried == 4
    assert buffer_tables == [SPEC.buffer_shapes()] * 4
