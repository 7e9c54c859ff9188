"""Schedule commands: line lookup, the five rewrites, sessions, and prompts."""

import json

import pytest

from ta_lift.gateway import ReplayBackend
from ta_lift.loopir import (
    Const,
    Loop,
    Read,
    Var,
    check_equivalence,
    locality_cost,
    parse_kernel,
    reduce_extents,
    render_kernel,
)
from ta_lift.schedule import (
    AmbiguousLine,
    CommandError,
    IllegalRewrite,
    LineNotFound,
    NonDivisibleTile,
    ScheduleCommand,
    ScheduleSession,
    apply_schedule_command,
    build_schedule_prompt,
    extend_prompt,
    feedback_applied,
    feedback_error,
    find_line,
    parse_apply_command,
    run_llm_session,
)

DOITGEN = """\
def doitgen(A: f32[64, 64, 64] @ DRAM, C4: f32[64, 64] @ DRAM,
            sum: f32[64] @ DRAM):
    for r in seq(0, 64):
        for q in seq(0, 64):
            for p in seq(0, 64):
                sum[p] = 0.0
                for s in seq(0, 64):
                    sum[p] += A[r, q, s] * C4[s, p]
            for p in seq(0, 64):
                A[r, q, p] = sum[p]
"""

TILED_COPYBACK = """\
def doitgen(A: f32[64, 64, 64] @ DRAM, C4: f32[64, 64] @ DRAM,
            sum: f32[64] @ DRAM):
    for r in seq(0, 64):
        for q in seq(0, 64):
            for p in seq(0, 64):
                sum[p] = 0.0
                for s in seq(0, 64):
                    sum[p] += A[r, q, s] * C4[s, p]
            for p_outer in seq(0, 4):
                for p_inner in seq(0, 16):
                    A[r, q, p_inner + 16 * p_outer] = sum[p_inner + 16 * p_outer]
"""

REORDER_ERROR = (
    "argument 1, 'nested_loops' to reorder_loops: expected the body of the outer "
    "loop to be a single loop, but it was a "
    "def doitgen(A: f32[64, 64, 64] @ DRAM, C4: f32[64, 64] @ DRAM,\n"
    "            sum: f32[64] @ DRAM):\n"
    "    for r in seq(0, 64):\n"
    "        for q in seq(0, 64):\n"
    "            ...\n"
    "            for p in seq(0, 64):\n"
    "                A[r, q, p] = sum[p]  # <-- NODE"
)

BASE_COST = float(1 + 64 + 64**2 + 64**3 + 64**3 + 64**4 + 64**2 + 64**3 + 4 * 64**4)

TILE_COPYBACK = ScheduleCommand(
    "tile",
    {"line": "for p in seq(0, 64): #1", "tile_size": 16,
     "outer_name": "p_outer", "inner_name": "p_inner"},
)


def command(optimization: str, **arguments) -> ScheduleCommand:
    return ScheduleCommand(optimization, arguments)


# -- APPLY parsing --------------------------------------------------------------


def test_parse_apply_command_coerces_tile_size():
    reply = ('Tiling now.\n\nAPPLY: {"optimization": "tile", "arguments": '
             '{"line": "for p in seq(0, 64): #1", "tile_size": "16", '
             '"outer_name": "p_outer", "inner_name": "p_inner"}}')
    cmd = parse_apply_command(reply)
    assert cmd == TILE_COPYBACK
    assert isinstance(cmd.arguments["tile_size"], int)


def test_parse_apply_command_takes_last_apply_line():
    reply = ('APPLY: {"optimization": "unroll", "arguments": {"line": "x"}}\n'
             'On second thought:\n'
             'APPLY: {"optimization": "reorder", "arguments": {"line": "for r in seq(0, 64):"}}')
    assert parse_apply_command(reply).optimization == "reorder"


@pytest.mark.parametrize(
    "reply",
    [
        "no command here",
        "APPLY: not json",
        'APPLY: ["optimization", "tile"]',
        'APPLY: {"optimization": "vectorize", "arguments": {"line": "x"}}',
        'APPLY: {"optimization": "tile", "arguments": {"line": "x", "tile_size": "4"}}',
        'APPLY: {"optimization": "tile", "arguments": {"line": "x", "tile_size": "big", '
        '"outer_name": "a", "inner_name": "b"}}',
        'APPLY: {"optimization": "reorder", "arguments": {"line": 7}}',
        'APPLY: {"optimization": "fission", "arguments": {"line": "x", "location": "middle"}}',
        'APPLY: {"optimization": "fuse", "arguments": {"line1": "x", "line2": "y", "extra": "z"}}',
        'APPLY: {"optimization": "tile", "arguments": {"line": "x", "tile_size": ' + "7" * 5000 + "}}",
        "APPLY: " + "[" * 100_000,
    ],
)
def test_parse_apply_command_rejects(reply):
    with pytest.raises(CommandError):
        parse_apply_command(reply)


# -- line lookup ----------------------------------------------------------------


def test_find_line_by_occurrence():
    nest = parse_kernel(DOITGEN)
    path0, stmt0 = find_line(nest, "for p in seq(0, 64): #0")
    path1, stmt1 = find_line(nest, "for p in seq(0, 64): #1")
    assert path0 == (0, 0, 0)
    assert path1 == (0, 0, 1)
    assert isinstance(stmt0, Loop) and isinstance(stmt1, Loop)
    assert len(stmt1.body) == 1


def test_find_line_is_whitespace_insensitive():
    nest = parse_kernel(DOITGEN)
    path, _ = find_line(nest, "  for  p in   seq(0, 64): #1")
    assert path == (0, 0, 1)


def test_find_line_errors():
    nest = parse_kernel(DOITGEN)
    with pytest.raises(AmbiguousLine):
        find_line(nest, "for p in seq(0, 64):")
    with pytest.raises(LineNotFound):
        find_line(nest, "for z in seq(0, 64):")
    with pytest.raises(LineNotFound):
        find_line(nest, "for p in seq(0, 64): #2")


# -- the five rewrites ----------------------------------------------------------


def test_reorder_error_message_quotes_the_node():
    nest = parse_kernel(DOITGEN)
    with pytest.raises(IllegalRewrite) as caught:
        apply_schedule_command(nest, command("reorder", line="for p in seq(0, 64): #1"))
    assert str(caught.value) == REORDER_ERROR


def test_reorder_swaps_perfectly_nested_loops():
    nest = parse_kernel(DOITGEN)
    swapped = apply_schedule_command(nest, command("reorder", line="for r in seq(0, 64):"))
    lines = render_kernel(swapped).splitlines()
    assert lines[2] == "    for q in seq(0, 64):"
    assert lines[3] == "        for r in seq(0, 64):"
    verdict = check_equivalence(reduce_extents(nest), reduce_extents(swapped))
    assert verdict.passed


def test_reorder_rejects_leaf_target():
    nest = parse_kernel(DOITGEN)
    with pytest.raises(IllegalRewrite, match="not a loop"):
        apply_schedule_command(nest, command("reorder", line="sum[p] = 0.0"))


def test_tile_matches_expected_rendering():
    nest = parse_kernel(DOITGEN)
    tiled = apply_schedule_command(nest, TILE_COPYBACK)
    assert render_kernel(tiled) == TILED_COPYBACK
    reduced = reduce_extents(nest)
    tiled_reduced = apply_schedule_command(
        reduced, command("tile", line="for p in seq(0, 8): #1", tile_size=4,
                         outer_name="p_outer", inner_name="p_inner"))
    assert check_equivalence(reduced, tiled_reduced).passed


def test_tile_rejects_non_divisible_size():
    nest = parse_kernel(DOITGEN)
    with pytest.raises(NonDivisibleTile, match="64 is not divisible by tile size 7"):
        apply_schedule_command(
            nest,
            command("tile", line="for p in seq(0, 64): #1", tile_size=7,
                    outer_name="po", inner_name="pi"),
        )


def test_tile_rejects_names_in_use():
    nest = parse_kernel(DOITGEN)
    with pytest.raises(IllegalRewrite, match="already in use"):
        apply_schedule_command(
            nest,
            command("tile", line="for p in seq(0, 64): #0", tile_size=16,
                    outer_name="s", inner_name="pi"),
        )
    with pytest.raises(IllegalRewrite, match="distinct names"):
        apply_schedule_command(
            nest,
            command("tile", line="for p in seq(0, 64): #1", tile_size=16,
                    outer_name="pk", inner_name="pk"),
        )


def test_unroll_full_inner_loop():
    nest = parse_kernel(DOITGEN)
    unrolled = apply_schedule_command(nest, command("unroll", line="for s in seq(0, 64):"))
    lines = [line.strip() for line in render_kernel(unrolled).splitlines()]
    assert "sum[p] += A[r, q, 0] * C4[0, p]" in lines
    assert "sum[p] += A[r, q, 63] * C4[63, p]" in lines
    assert "for s in seq(0, 64):" not in lines
    assert lines.index("sum[p] += A[r, q, 0] * C4[0, p]") < lines.index(
        "sum[p] += A[r, q, 1] * C4[1, p]"
    )


def test_unroll_after_tiling_keeps_offset_form():
    tiled = apply_schedule_command(parse_kernel(DOITGEN), TILE_COPYBACK)
    unrolled = apply_schedule_command(tiled, command("unroll", line="for p_inner in seq(0, 16):"))
    lines = [line.strip() for line in render_kernel(unrolled).splitlines()]
    assert lines[-16] == "A[r, q, 16 * p_outer] = sum[16 * p_outer]"
    assert lines[-15] == "A[r, q, 1 + 16 * p_outer] = sum[1 + 16 * p_outer]"
    assert lines[-1] == "A[r, q, 15 + 16 * p_outer] = sum[15 + 16 * p_outer]"


def test_unroll_missing_line():
    tiled = apply_schedule_command(parse_kernel(DOITGEN), TILE_COPYBACK)
    with pytest.raises(LineNotFound):
        apply_schedule_command(tiled, command("unroll", line="for s_outer in seq(0, 4):"))


def test_tile_then_unroll_equals_plain_unroll():
    text = ("def g(A: f32[8] @ DRAM, B: f32[8] @ DRAM):\n"
            "    for i in seq(0, 8):\n"
            "        B[i] = A[i]\n")
    nest = parse_kernel(text)
    staged = apply_schedule_command(
        nest, command("tile", line="for i in seq(0, 8):", tile_size=4,
                      outer_name="i_outer", inner_name="i_inner"))
    staged = apply_schedule_command(staged, command("unroll", line="for i_outer in seq(0, 2):"))
    staged = apply_schedule_command(staged, command("unroll", line="for i_inner in seq(0, 4): #0"))
    staged = apply_schedule_command(staged, command("unroll", line="for i_inner in seq(0, 4):"))
    direct = apply_schedule_command(nest, command("unroll", line="for i in seq(0, 8):"))
    assert staged == direct


def test_fission_splits_zeroing_from_accumulation():
    nest = parse_kernel(DOITGEN)
    split = apply_schedule_command(nest, command("fission", line="sum[p] = 0.0", location="after"))
    (r,) = split.body
    (q,) = r.body
    assert len(q.body) == 3
    zero_loop, acc_loop, copyback = q.body
    assert [type(s) for s in zero_loop.body] == [type(s) for s in copyback.body]
    assert isinstance(acc_loop.body[0], Loop)
    verdict = check_equivalence(reduce_extents(nest), reduce_extents(split))
    assert verdict.passed


def test_fission_rejects_reordered_accesses():
    text = ("def t(A: f32[8] @ DRAM, B: f32[8] @ DRAM, C: f32[8] @ DRAM):\n"
            "    for i in seq(0, 8):\n"
            "        B[i] = A[i]\n"
            "        C[i] = B[7 - i]\n")
    with pytest.raises(IllegalRewrite, match="'B'"):
        apply_schedule_command(parse_kernel(text), command("fission", line="B[i] = A[i]",
                                                           location="after"))


def test_fission_rejects_empty_segments():
    nest = parse_kernel(DOITGEN)
    with pytest.raises(IllegalRewrite, match="empty loop"):
        apply_schedule_command(nest, command("fission", line="sum[p] = 0.0", location="before"))


def test_fission_requires_enclosing_loop():
    nest = parse_kernel("def f(A: f32[1] @ DRAM):\n    A[0] = 0.0\n")
    with pytest.raises(IllegalRewrite, match="inside a loop"):
        apply_schedule_command(nest, command("fission", line="A[0] = 0.0", location="after"))


def test_fuse_merges_adjacent_loops():
    text = ("def t(A: f32[8] @ DRAM, B: f32[8] @ DRAM, C: f32[8] @ DRAM):\n"
            "    for i in seq(0, 8):\n"
            "        B[i] = A[i]\n"
            "    for j in seq(0, 8):\n"
            "        C[j] = A[j]\n")
    nest = parse_kernel(text)
    fused = apply_schedule_command(
        nest, command("fuse", line1="for i in seq(0, 8):", line2="for j in seq(0, 8):"))
    (loop,) = fused.body
    assert loop.var == "i"
    assert len(loop.body) == 2
    assert loop.body[1].indices == (Var("i"),)
    verdict = check_equivalence(reduce_extents(nest), reduce_extents(fused))
    assert verdict.passed


def test_fuse_rejects_inplace_dependence():
    nest = parse_kernel(DOITGEN)
    with pytest.raises(IllegalRewrite, match="'A'"):
        apply_schedule_command(
            nest, command("fuse", line1="for p in seq(0, 64): #0", line2="for p in seq(0, 64): #1"))


def test_fuse_rejects_non_siblings_and_bound_mismatch():
    nest = parse_kernel(DOITGEN)
    with pytest.raises(IllegalRewrite, match="siblings"):
        apply_schedule_command(
            nest, command("fuse", line1="for r in seq(0, 64):", line2="for q in seq(0, 64):"))
    text = ("def t(A: f32[8] @ DRAM, B: f32[8] @ DRAM):\n"
            "    for i in seq(0, 8):\n"
            "        B[i] = A[i]\n"
            "    for j in seq(0, 4):\n"
            "        B[j] = A[j]\n")
    with pytest.raises(IllegalRewrite, match="different bounds"):
        apply_schedule_command(
            parse_kernel(text),
            command("fuse", line1="for i in seq(0, 8):", line2="for j in seq(0, 4):"))


def test_rejected_rewrites_leave_kernel_unchanged():
    nest = parse_kernel(DOITGEN)
    session = ScheduleSession(nest)
    before_full, before_reduced = session.full, session.reduced
    ok, message = session.apply(command("reorder", line="for p in seq(0, 64): #1"))
    assert not ok
    assert session.full == before_full
    assert session.reduced == before_reduced
    assert message == REORDER_ERROR


# -- cost deltas under rewrites -------------------------------------------------


def test_tile_cost_delta_adds_inner_headers():
    nest = parse_kernel(DOITGEN)
    tiled = apply_schedule_command(nest, TILE_COPYBACK)
    # The split copyback keeps every leaf execution and the outer header
    # count, and adds one inner header per outer iteration: 64^2 * 4.
    assert locality_cost(tiled) - locality_cost(nest) == float(64**2 * 4)


def test_unroll_cost_delta_removes_headers_only():
    nest = parse_kernel(DOITGEN)
    tiled = apply_schedule_command(
        nest, command("tile", line="for s in seq(0, 64):", tile_size=16,
                      outer_name="s_outer", inner_name="s_inner"))
    assert locality_cost(tiled) - locality_cost(nest) == float(64**3 * 4)
    unrolled = apply_schedule_command(tiled, command("unroll", line="for s_outer in seq(0, 4):"))
    # Unrolling deletes the s_outer headers; the strided-access penalty is
    # unchanged because every copy still walks C4 by its leading dimension.
    assert locality_cost(tiled) - locality_cost(unrolled) == float(64**3)


# -- sessions -------------------------------------------------------------------


def session_transcript() -> ScheduleSession:
    session = ScheduleSession(parse_kernel(DOITGEN))
    session.apply(command("reorder", line="for p in seq(0, 64): #1"))
    session.apply(TILE_COPYBACK)
    session.apply(command("unroll", line="for s_outer in seq(0, 4):"))
    return session


def test_session_transcript_records_commands_in_order():
    session = session_transcript()
    transcript = session.transcript()
    assert [entry["result"] for entry in transcript] == [
        REORDER_ERROR,
        "ok",
        "no line matching 'for s_outer in seq(0, 4):'",
    ]
    assert [entry["cost"] for entry in transcript] == [
        BASE_COST,
        BASE_COST + 64**2 * 4,
        BASE_COST + 64**2 * 4,
    ]
    assert transcript[1]["command"] == TILE_COPYBACK.as_payload()
    assert render_kernel(session.full) == TILED_COPYBACK


def test_session_transcript_json_round_trips():
    session = session_transcript()
    text = session.transcript_json()
    assert json.loads(text) == session.transcript()
    assert text == session_transcript().transcript_json()


def test_session_clamps_tile_sizes_on_the_reduced_clone():
    session = ScheduleSession(parse_kernel(DOITGEN))
    ok, _ = session.apply(TILE_COPYBACK)
    assert ok
    reduced = render_kernel(session.reduced)
    assert "for p_outer in seq(0, 1):" in reduced
    assert "for p_inner in seq(0, 8):" in reduced
    assert render_kernel(session.full) == TILED_COPYBACK


def test_session_equivalence_gate_catches_unsound_fission():
    text = ("def t(A: f32[8] @ DRAM, B: f32[1] @ DRAM, C: f32[8] @ DRAM):\n"
            "    for i in seq(0, 8):\n"
            "        B[0] = A[i]\n"
            "        C[i] = B[0]\n")
    session = ScheduleSession(parse_kernel(text))
    ok, message = session.apply(command("fission", line="B[0] = A[i]", location="after"))
    assert not ok
    assert "changed the kernel's results" in message
    assert session.full == parse_kernel(text)
    assert session.records[-1].result == message


def test_session_refuses_a_rewrite_whose_index_rounds_out_of_bounds():
    # Unrolling folds 3 * 0.99999997 into one constant, which f32 rounds to 3.0.
    text = "def t(A: f32[3] @ DRAM):\n    for i in seq(3, 4):\n        A[i * 0.99999997] = 1.0\n"
    session = ScheduleSession(parse_kernel(text))
    ok, message = session.apply(command("unroll", line="for i in seq(3, 4):"))
    assert not ok
    assert message == "A index 0 spans [3.0, 3.0] outside [0, 2]"
    assert session.full == parse_kernel(text)
    assert session.records[-1].result == message


# -- prompts and the replay loop ------------------------------------------------


def test_build_schedule_prompt_contents():
    nest = parse_kernel(DOITGEN)
    prompt = build_schedule_prompt(nest)
    assert prompt.system == ("You are an expert performance engineer with experience "
                             "in optimizing numerical linear algebra kernels.")
    assert DOITGEN.rstrip("\n") in prompt.user
    assert f"Currently I get a locality cost of {int(BASE_COST)} (lower is better)." in prompt.user
    assert "<KERNEL>" not in prompt.user and "<COST>" not in prompt.user
    assert 'APPLY: {"optimization": "optimization name"' in prompt.user
    assert "`for i in seq(0, 32): #0`" in prompt.user
    for name in ("tile", "fuse", "reorder", "fission", "unroll"):
        assert f'"optimization": "{name}"' in prompt.user
    assert prompt.fingerprint == build_schedule_prompt(nest).fingerprint
    assert prompt.fingerprint != build_schedule_prompt(reduce_extents(nest)).fingerprint


def test_feedback_wording():
    tiled = apply_schedule_command(parse_kernel(DOITGEN), TILE_COPYBACK)
    cost = locality_cost(tiled)
    applied = feedback_applied(tiled, cost)
    assert applied == (
        "I have applied the optimization. The new kernel code is as follows:\n\n"
        + TILED_COPYBACK
        + f"\nThe new code achieves a locality cost of {int(cost)}. "
        "Please give me another optimization to apply, using the same format as before."
    )
    assert feedback_error("boom") == (
        "An error occurred while applying the optimization:\nboom\n"
        "Please fix the error and try again."
    )


def test_run_llm_session_replays_scripted_turns():
    nest = parse_kernel(DOITGEN)
    prompt1 = build_schedule_prompt(nest)
    reply1 = "Let me think about the loop order first."
    feedback1 = feedback_error("no APPLY: command found in the reply")
    prompt2 = extend_prompt(prompt1, reply1, feedback1)
    reply2 = ('Tiling the copy-back loop.\n\n'
              'APPLY: {"optimization": "tile", "arguments": '
              '{"line": "for p in seq(0, 64): #1", "tile_size": "16", '
              '"outer_name": "p_outer", "inner_name": "p_inner"}}')
    backend = ReplayBackend({
        prompt1.fingerprint: [reply1],
        prompt2.fingerprint: [reply2],
    })
    session = run_llm_session(nest, backend, max_steps=2)
    transcript = session.transcript()
    assert len(transcript) == 2
    assert transcript[0]["command"] is None
    assert transcript[0]["result"] == "no APPLY: command found in the reply"
    assert transcript[1]["result"] == "ok"
    assert transcript[1]["cost"] == BASE_COST + 64**2 * 4
    assert render_kernel(session.full) == TILED_COPYBACK
