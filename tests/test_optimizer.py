import hashlib
import random
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import golden_program, naive_program
from ta_lift import kernels, optimizer
from ta_lift.costs import program_cost
from ta_lift.fixtures import KERNELS, kernel
from ta_lift.gateway import ReplayBackend
from ta_lift.isa import (
    ACC_BIT,
    ACCUMULATE_BIT,
    ROW_MASK,
    SENTINEL,
    Activation,
    ComputePreloaded,
    ConfigEx,
    ConfigLd,
    ConfigSt,
    Dataflow,
    DramRef,
    ExecError,
    Mvin,
    Mvout,
    Preload,
    PreloadZeros,
    Program,
    ScanState,
    Space,
    memory_sizes,
    op_effects,
    spec_of,
    step,
)
from ta_lift.kernels import generate_testcases, verify_program
from ta_lift.machine import MachineConfig
from ta_lift.optimizer import (
    Block,
    OrderingPlan,
    PeepholeContext,
    PlanParseError,
    analyze_dependences,
    dedup_mvins,
    optimize_program,
    parse_plan,
    peephole_block,
    search_reorder,
    segment_blocks,
    reassemble,
)
from ta_lift.program_text import parse_program, render_program
from ta_lift.prompts import build_block_optimize_prompt, build_reorder_prompt
from test_case_axis import workloads
from test_instruction_table import one_field_mutations


_PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def parsed_golden(name):
    spec = kernel(name)
    return spec, parse_program(golden_program(name), spec.buffer_shapes())


def cases_for(spec, count=3):
    return generate_testcases(spec, seed=7, count=count)


def duplicate_line(text: str, needle: str) -> str:
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.strip() == needle)
    return "\n".join(lines[: at + 1] + [lines[at]] + lines[at + 1 :]) + "\n"


# -- segmentation ----------------------------------------------------------


def test_gv1_segments_into_prelude_plus_three_blocks():
    _, program = parsed_golden("gv1")
    blocks = segment_blocks(program)
    assert len(blocks) == 4
    assert all(isinstance(i, (ConfigEx, ConfigLd, ConfigSt)) for i in blocks[0].instructions)
    for block in blocks[1:]:
        kinds = [type(i).__name__ for i in block.instructions]
        assert kinds.count("Preload") == 1
        assert kinds.count("ComputePreloaded") == 1
        assert kinds[0] == "Mvin"


def test_partition_property_on_every_golden():
    for name in sorted(KERNELS):
        _, program = parsed_golden(name)
        blocks = segment_blocks(program)
        flat = tuple(i for b in blocks for i in b.instructions)
        assert flat == program.instructions
        assert [b.id for b in blocks] == list(range(len(blocks)))


def test_reassembly_in_original_order_is_byte_identical():
    for name in sorted(KERNELS):
        _, program = parsed_golden(name)
        blocks = segment_blocks(program)
        again = reassemble(blocks, tuple(range(len(blocks))), program)
        assert render_program(again) == render_program(program)


def test_config_only_program_is_one_prelude_block():
    program = parse_program("config_ex(WEIGHT_STATIONARY, NO_ACTIVATION, false, false);\nconfig_st(4);", {})
    blocks = segment_blocks(program)
    assert len(blocks) == 1
    assert len(blocks[0].instructions) == 2


def test_empty_program_has_no_blocks():
    assert segment_blocks(Program(())) == []


def test_mvout_stays_with_its_compute_block():
    _, program = parsed_golden("gv3")
    blocks = segment_blocks(program)
    for block in blocks[1:]:
        kinds = [type(i).__name__ for i in block.instructions]
        assert kinds.count("Mvout") == 1
        assert kinds.index("Mvout") > kinds.index("ComputePreloaded")


# -- dependences -----------------------------------------------------------

ACC = 1 << 31
_BUFFERS = {"x": (8, 4), "out": (4, 4), "other": (4, 4)}


def dependences(*groups, buffers=_BUFFERS):
    """The edges between blocks of the instruction groups, stepped in order from a fresh scan state."""
    cfg = MachineConfig()
    ops = step(tuple(ins for group in groups for ins in group), cfg, memory_sizes(cfg, buffers))
    blocks, at = [], 0
    for n, group in enumerate(groups):
        blocks.append(Block(n, tuple(group), tuple(ops[at : at + len(group)])))
        at += len(group)
    return analyze_dependences(blocks, buffers)


def test_disjoint_blocks_have_no_edge():
    config = (ConfigLd(16, 0), ConfigSt(16))  # each block's own: written before it is read
    a = (*config, Mvin(0, DramRef("x", 0), ACC, 4, 4), Mvout(DramRef("out", 0), ACC, 4, 4))
    b = (*config, Mvin(0, DramRef("x", 16), ACC | 8, 4, 4), Mvout(DramRef("other", 0), ACC | 8, 4, 4))
    assert dependences(a, b) == frozenset()


def test_read_after_write_makes_edge():
    a = (ConfigLd(32, 0), Mvin(0, DramRef("x", 0), 0, 8, 4))  # scratchpad rows 0..8
    b = (Preload(4, ACC, 4, 2, 4, 4),)  # reads rows 4..6
    assert (0, 1) in dependences(a, b, buffers={"x": (4, 8)})


def test_write_after_read_makes_edge():
    a = (ConfigLd(16, 0), Preload(0, ACC, 4, 4, 4, 4))  # reads scratchpad rows 0..4
    b = (Mvin(0, DramRef("x", 0), 0, 4, 4),)  # overwrites them
    assert dependences(a, b) == frozenset({(0, 1)})


def test_accumulation_chain_is_totally_ordered():
    _, program = parsed_golden("gv2")
    blocks = segment_blocks(program)
    edges = analyze_dependences(blocks, program.buffers)
    # Rounds summing into one accumulator column must keep their order.
    groups = {}
    for block in blocks[1:]:
        target = next(i.c & ROW_MASK for i in block.instructions if isinstance(i, Preload))
        groups.setdefault(target, []).append(block.id)
    assert len(groups) == 3
    for members in groups.values():
        assert len(members) == 3
        for earlier, later in zip(members, members[1:]):
            assert (earlier, later) in edges


def test_register_use_pins_reader_between_writers():
    writer1 = (Preload(0, ACC, 4, 4, 4, 4),)
    reader = (ComputePreloaded(8, SENTINEL, 4, 4, 4, 4),)  # reads the latch
    writer2 = (Preload(0, ACC | 4, 4, 4, 4, 4),)
    edges = dependences(writer1, reader, writer2)
    assert (0, 1) in edges and (1, 2) in edges and (0, 2) in edges


def test_private_register_writes_do_not_serialize():
    writer1 = (Preload(0, ACC, 4, 4, 4, 4),)
    writer2 = (Preload(4, ACC | 4, 4, 4, 4, 4),)
    assert dependences(writer1, writer2) == frozenset()


# -- segmentation and dependences against the first-written oracle --------------


def _overlaps(xs, ys):
    return any(x[0] == y[0] and x[1] < y[2] and y[1] < x[2] for x in xs for y in ys)


def _oracle(program: Program) -> tuple[list[int], frozenset[tuple[int, int]]]:
    """Block sizes and edges as the optimizer first computed them.

    Cuts come from each mvin's first consumer anywhere later in the program;
    then every block's effects are aggregated in a second pass, and every
    pair of blocks is tested.
    """
    instructions = program.instructions
    cfg = MachineConfig()
    effects = [op_effects(op, program.buffers) for op in step(instructions, cfg, memory_sizes(cfg, program.buffers))]
    registers = [spec_of(ins).registers(ins) for ins in instructions]

    def first_consumer(index):
        writes = effects[index][1]
        later = (at for at in range(index + 1, len(instructions)) if _overlaps(writes, effects[at][0]))
        return next(later, len(instructions))

    cuts = []
    for index, ins in enumerate(instructions):
        if isinstance(ins, (Preload, PreloadZeros)):
            start = index
            while start > 0 and isinstance(instructions[start - 1], Mvin) and first_consumer(start - 1) >= index:
                start -= 1
            if not cuts or start > cuts[-1]:
                cuts.append(start)
    bounds = sorted({0, *cuts, len(instructions)})

    blocks = []
    for a, b in zip(bounds, bounds[1:]):
        reads, writes, exposed, written = [], [], [], []
        for at in range(a, b):
            reads += effects[at][0]
            writes += effects[at][1]
            reg_reads, reg_writes = registers[at]
            exposed += [reg for reg in reg_reads if reg not in written and reg not in exposed]
            written += [reg for reg in reg_writes if reg not in written]
        blocks.append((reads, writes, exposed, written))

    edges = set()
    for i, (a_reads, a_writes, _, _) in enumerate(blocks):
        for j in range(i + 1, len(blocks)):
            b_reads, b_writes = blocks[j][:2]
            if _overlaps(a_writes, b_reads) or _overlaps(a_reads, b_writes) or _overlaps(a_writes, b_writes):
                edges.add((i, j))
    for reg in {reg for block in blocks for reg in block[2]}:
        writers = [i for i, block in enumerate(blocks) if reg in block[3]]
        for earlier, later in zip(writers, writers[1:]):
            edges.add((earlier, later))
        for reader in (i for i, block in enumerate(blocks) if reg in block[2]):
            before = [w for w in writers if w < reader]
            if before:
                edges.add((before[-1], reader))
            edges.update((reader, w) for w in writers if w > reader)
    return [b - a for a, b in zip(bounds, bounds[1:])], frozenset(edges)


def _assert_matches_oracle(program: Program) -> None:
    blocks = segment_blocks(program)
    assert tuple(i for b in blocks for i in b.instructions) == program.instructions
    assert [b.id for b in blocks] == list(range(len(blocks)))
    assert ([len(b.instructions) for b in blocks], analyze_dependences(blocks, program.buffers)) == _oracle(program)


def test_mvin_read_by_a_later_mvin_of_the_run_stays_before_the_cut():
    accumulate = ACC | 1 << 30
    program = Program(
        (
            ConfigLd(16, 0),
            Mvin(0, DramRef("x", 0), ACC, 4, 4),
            Mvin(0, DramRef("y", 0), accumulate, 4, 4),  # reads the rows the mvin above wrote
            Mvin(0, DramRef("w", 0), 0, 4, 4),
            Preload(0, ACC | 4, 4, 4, 4, 4),
        ),
        {"x": (4, 4), "y": (4, 4), "w": (4, 4)},
    )
    assert [len(b.instructions) for b in segment_blocks(program)] == [2, 3]
    _assert_matches_oracle(program)


@pytest.fixture(scope="module")
def naive_programs():
    """Each kernel's naive program, as the benchmark's optimize workload writes it."""
    return {
        name: (kernel(name), parse_program(naive_program(golden_program(name)), kernel(name).buffer_shapes()))
        for name in sorted(KERNELS)
    }


def test_goldens_and_naive_programs_match_the_oracle(naive_programs):
    for name in sorted(KERNELS):
        _assert_matches_oracle(parsed_golden(name)[1])
        _assert_matches_oracle(naive_programs[name][1])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 10))
def test_synthetic_programs_match_the_oracle(seed, n):
    _assert_matches_oracle(_synthetic_program(seed, n))


def _counting_steps(monkeypatch) -> list[int]:
    """The length of each program `optimizer` or `kernels` steps from here on, in order."""
    stepped = []

    def counted(instructions, *rest):
        stepped.append(len(instructions))
        return step(instructions, *rest)

    monkeypatch.setattr(optimizer, "step", counted)
    monkeypatch.setattr(kernels, "step", counted)
    return stepped


def test_rules_mode_steps_each_naive_program_twice(naive_programs, monkeypatch):
    """The input's one step serves its gate, segmentation and the peephole walk; the candidate's gate steps it."""
    stepped = _counting_steps(monkeypatch)
    for spec, program in naive_programs.values():
        stepped.clear()
        result = optimize_program(program, spec, cases_for(spec, count=2), mode="rules")
        assert stepped == [len(program.instructions), len(result.program.instructions)], spec.name


def test_llm_then_rules_steps_an_accepted_block_rewrite_once(monkeypatch):
    spec, program = parsed_golden("gv1")
    blocks = segment_blocks(program)
    lines = blocks[1].text().splitlines()
    swapped = "\n".join([lines[1], lines[0], *lines[2:]])  # its two mvins load other rows, so either order verifies
    texts = [swapped if block.id == 1 else block.text() for block in blocks]
    backend = ReplayBackend()
    for block, text in zip(blocks, texts):
        backend.add(build_block_optimize_prompt(block.text()).fingerprint,
                    [f"```\n{text}\n```" if block.id == 1 else "no change"])
    backend.add(build_reorder_prompt(texts).fingerprint, ["Block 0, Block 1, Block 2, Block 3"])
    stepped = _counting_steps(monkeypatch)
    result = optimize_program(program, spec, cases_for(spec), mode="llm_then_rules", backend=backend)
    assert Block(0, result.program.instructions).text() == "\n".join(texts)
    assert result.plan.provenance == "llm"
    # The input; the rewrite, once for its gate and its blocks; the peephole's candidate; the plan's
    # concatenation, to dedup it, and the deduped program.
    assert stepped == [len(program.instructions)] * 5


def test_a_program_checked_against_another_table_is_refused_with_a_value_error():
    """The input is stepped against the spec's table, so a table mismatch is the gate's refusal, not a lookup's."""
    spec, program = parsed_golden("gv1")
    smaller = replace(spec, name="gv1-small", k=8)  # gv1's names, with too few rows of Bdyn and p for its program
    larger = replace(spec, name="gv1-large", i=8)  # rows its program never writes
    for other in (kernel("mm2"), smaller, larger):
        with pytest.raises(ValueError, match="already verifies"):
            optimize_program(program, other, cases_for(other))


def test_a_program_parsed_against_another_table_optimizes_over_the_specs(naive_programs):
    """A program that verifies is optimized over the buffer table its gate stepped it against, not its own."""
    for name in ("gv1", "mm1"):
        spec, program = naive_programs[name]
        tiny = parse_program(render_program(program), dict.fromkeys(spec.buffer_shapes(), (1, 1)))
        assert tiny.instructions == program.instructions
        cases = cases_for(spec, count=2)
        ours = optimize_program(program, spec, cases)
        for other in (tiny, Program(program.instructions)):  # the kernel's names with other shapes; no table
            theirs = optimize_program(other, spec, cases)
            assert (theirs.program.instructions, theirs.after, theirs.plan) == (
                ours.program.instructions, ours.after, ours.plan), name


# Per naive program: instructions removed, the modeled cost after, and the sha256 of the rendered result.
_RULES_OUTPUTS = {
    "gv1": (0, 106.0, "f2d84ee669d912ff30570a08830bc92329341260550b6ed82924323a68eeedaa"),
    "gv2": (6, 278.0, "486402ccf039c9ea4029d58cf9c6822185bb6579d4de344e1e4b7ace4473f157"),
    "gv3": (2, 106.0, "f06471e4a6c1ee176116bf92cf66f4e4acd0863f8e8925d15d014f7c4fc04ec7"),
    "gv4": (6, 278.0, "4b7141e0a1607070fee05c7cd1ca5b41b74b9c6c9ab0b7cfbe861198ae3a96b5"),
    "mm1": (378, 4730.0, "861b1bd491a4962bfbd9ece65dd9b3461787fd92e0f52e6a738d07c3091f11c9"),
    "mm2": (12, 504.0, "c6a5b26498bf5387484fd61f017ff4411447ae840ca2a1f8dec64c4aa51a39a3"),
    "mm3": (6, 402.0, "238a59b251049f76b19c17d139f46d3325744844f60ab62b230e11f676133d42"),
    "mm4": (6, 350.0, "682410a7d85044cb43a9f1367b07fb402e2404ddebc2c797e2d928357a1a124c"),
    "mm5": (36, 734.0, "7e624e625f0bdd752bd85a0536c9606a478a8f4bbeb3fd6ecb7429424693ad39"),
    "mm6": (126, 2346.0, "8694828757a3a7cf6e4164a787045c7a5ee3d997184cd686f6e2f767add53d6b"),
    "mm7": (18, 938.0, "8e41baf703e82b7331d9934c70a515696556e65303c8b66415930813142d7884"),
}


def test_rules_mode_outputs_on_the_naive_programs_are_pinned(naive_programs):
    """Any changed optimizer decision on the benchmark's programs changes one of these."""
    assert set(_RULES_OUTPUTS) == set(naive_programs)
    for name, (spec, program) in naive_programs.items():
        result = optimize_program(program, spec, cases_for(spec, count=2), mode="rules")
        removed = len(program.instructions) - len(result.program.instructions)
        digest = hashlib.sha256(render_program(result.program).encode()).hexdigest()
        assert (removed, result.after.total, digest) == _RULES_OUTPUTS[name], name


# -- peephole --------------------------------------------------------------


def test_duplicate_preload_dropped_and_survivor_kept():
    spec, program = parsed_golden("gv1")
    doubled = duplicate_line(golden_program("gv1"), "preload(p_sp, B_p_acc, 1, 4, 1, 4);")
    parsed = parse_program(doubled, spec.buffer_shapes())
    assert verify_program(parsed, spec, cases_for(spec)).passed
    ctx = PeepholeContext(buffers=parsed.buffers)
    kept = []
    for block in segment_blocks(parsed):
        kept.extend(peephole_block(block, ctx).instructions)
    preloads = [i for i in kept if isinstance(i, Preload)]
    assert len(preloads) == len([i for i in program.instructions if isinstance(i, Preload)])


def test_duplicate_mvin_dropped():
    spec, program = parsed_golden("gv1")
    doubled = duplicate_line(golden_program("gv1"), "mvin(Bdyn, Bdyn_sp, 4, 4);")
    parsed = parse_program(doubled, spec.buffer_shapes())
    ctx = PeepholeContext(buffers=parsed.buffers)
    kept = []
    for block in segment_blocks(parsed):
        kept.extend(peephole_block(block, ctx).instructions)
    assert len(kept) == len(program.instructions)


_MVIN_BUFFERS = {"x": (4, 4), "y": (4, 4)}


def both_mvin_walks(instructions):
    """The program-wide dedup and the peephole walk share one mvin rule; a config_ld goes first, so they step."""
    block = segment_blocks(Program((ConfigLd(16, 0), *instructions), _MVIN_BUFFERS))[0]
    deduped = dedup_mvins(block.instructions, block.ops, _MVIN_BUFFERS)
    walked = peephole_block(block, PeepholeContext(buffers=_MVIN_BUFFERS)).instructions
    return deduped[1:], walked[1:]


def test_mvin_not_dropped_after_destination_overwritten():
    spad = 0
    load = Mvin(0, DramRef("x", 0), spad, 4, 4)
    clobber = Mvin(0, DramRef("y", 0), spad, 4, 4)
    for out in both_mvin_walks((load, clobber, load)):
        assert out == (load, clobber, load)
    for out in both_mvin_walks((load, load, clobber)):
        assert out == (load, clobber)


def test_accumulating_mvins_never_deduped():
    acc = (1 << 31) | (1 << 30)
    load = Mvin(0, DramRef("x", 0), acc, 4, 4)
    for out in both_mvin_walks((load, load)):
        assert out == (load, load)


def test_shared_weights_rewritten_to_keep():
    spec, program = parsed_golden("gv3")
    result = optimize_program(program, spec, cases_for(spec))
    preloads = [i for i in result.program.instructions if isinstance(i, Preload)]
    assert [p.b == SENTINEL for p in preloads] == [False, True, True]
    assert result.after.total == result.before.total
    assert verify_program(result.program, spec, cases_for(spec)).passed


def test_peephole_never_removes_computes():
    for name in ("gv1", "gv3", "mm4"):
        spec, program = parsed_golden(name)
        result = optimize_program(program, spec, cases_for(spec))
        before = sum(1 for i in program.instructions if isinstance(i, ComputePreloaded))
        after = sum(1 for i in result.program.instructions if isinstance(i, ComputePreloaded))
        assert before == after


# -- the remembered-mvin index against the scan it replaced ------------------------


class ScanContext(PeepholeContext):
    """The first-written `admit`: every memory write tests every remembered mvin."""

    def admit(self, ins, op):
        reads, writes = op_effects(op, self.buffers)
        key = None
        if isinstance(ins, Mvin) and not (ins.local & ACC_BIT and ins.local & ACCUMULATE_BIT):
            key = op
            if key in self.seen_mvins:
                return False
        if isinstance(ins, ConfigEx):
            self.weights_clean = False
        if writes:
            for seen in [seen for seen, spans in self.seen_mvins.items() if _overlaps(writes, spans)]:
                del self.seen_mvins[seen]
            if _overlaps(writes, self.weights):
                self.weights_clean = False
        if key is not None:
            self.seen_mvins[key] = (*reads, *writes)
        return True


def _expected_cells(ctx: PeepholeContext) -> dict:
    """The index rebuilt from the remembered mvins: DIM-row tiles, or None for DRAM."""
    cells = {}
    for key, spans in ctx.seen_mvins.items():
        for space, start, end in spans:
            local = isinstance(space, Space)
            for tile in range(start // ctx.dim, (end - 1) // ctx.dim + 1) if local else [None]:
                cells.setdefault(space, {}).setdefault(tile, set()).add(key)
    return cells


def _filed(cells: dict) -> dict:
    """The index without the cells it has emptied."""
    return {space: filed for space, tiles in cells.items() if (filed := {t: keys for t, keys in tiles.items() if keys})}


def _context_state(ctx: PeepholeContext) -> tuple:
    return ctx.seen_mvins, ctx.weights, ctx.weights_clean, ctx.last_preload


def stepped_prefix(instructions, buffers, cfg: MachineConfig) -> tuple[tuple, list]:
    """The instructions `isa.step` accepts before its first refusal, and their ops: all the optimizer sees."""
    state, sizes, ops = ScanState(), memory_sizes(cfg, buffers), []
    for ins in instructions:
        try:
            ops += step((ins,), cfg, sizes, state)
        except ExecError:
            break
    return tuple(instructions[: len(ops)]), ops


def assert_index_agrees_with_scan(instructions, buffers, cfg: MachineConfig = MachineConfig()) -> list[bool]:
    """Walk both contexts one instruction at a time, as `peephole_block` does, and
    `dedup_mvins` over the whole prefix that steps; returns which instructions the walk kept.

    Preloads take `peephole_block`'s own rules through one-instruction blocks.
    """
    prefix, ops = stepped_prefix(instructions, buffers, cfg)
    index, scan = PeepholeContext(dim=cfg.dim, buffers=buffers), ScanContext(dim=cfg.dim, buffers=buffers)
    kept = []
    for ins, op in zip(prefix, ops):
        want = peephole_block(Block(0, (ins,), (op,)), scan).instructions
        assert peephole_block(Block(0, (ins,), (op,)), index).instructions == want, ins
        assert _context_state(index) == _context_state(scan), ins
        assert _filed(index.cells) == _expected_cells(index), ins
        kept.append(bool(want))
    scan = ScanContext(dim=cfg.dim, buffers=buffers)
    assert dedup_mvins(prefix, ops, buffers, cfg.dim) == tuple(ins for ins, op in zip(prefix, ops) if scan.admit(ins, op))
    return kept


def test_index_agrees_with_the_scan_on_goldens_and_naive_programs(naive_programs):
    for name in sorted(KERNELS):
        for program in (parsed_golden(name)[1], naive_programs[name][1]):
            kept = assert_index_agrees_with_scan(program.instructions, program.buffers)
            assert len(kept) == len(program.instructions)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 10))
def test_index_agrees_with_the_scan_on_synthetic_programs(seed, n):
    program = _synthetic_program(seed, n)
    assert len(assert_index_agrees_with_scan(program.instructions, program.buffers)) == len(program.instructions)


@_PROPERTY
@given(workloads())
def test_index_agrees_with_the_scan_on_random_workloads(workload):
    program, spec, _ = workload
    assert_index_agrees_with_scan(program.instructions, spec.buffer_shapes())


@_PROPERTY
@given(one_field_mutations())
def test_index_agrees_with_the_scan_on_one_field_mutations(mutation):
    program, dim, max_block_len = mutation
    assert_index_agrees_with_scan(program.instructions, program.buffers, MachineConfig(dim=dim, max_block_len=max_block_len))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([Space.SCRATCHPAD, Space.ACCUMULATOR, "x"]),
    st.integers(0, 80), st.integers(1, 20), st.integers(0, 80), st.integers(1, 20),
    st.sampled_from([1, 2, 4, 16]),
)
@example(Space.SCRATCHPAD, 7, 2, 8, 4, 4)  # rows 7..9 and 8..12 meet in tile 2
def test_overlapping_intervals_share_a_cell(space, a, a_rows, c, c_rows, dim):
    """Overlap means a tile in common, or None on one side."""
    ctx = PeepholeContext(dim=dim)
    x, y = (space, a, a + a_rows), (space, c, c + c_rows)
    if _overlaps([x], [y]):
        tx, ty = set(ctx.tiles(x)), set(ctx.tiles(y))
        assert tx & ty or None in tx | ty


_X, _Y = DramRef("x", 0), DramRef("y", 0)
_LOAD = Mvin(0, _X, 0, 4, 4)


@pytest.mark.parametrize(
    "instructions, kept",
    [
        pytest.param(  # rows 0..12 on three tiles; row 9 is in the last, row 12 past it
            (ConfigLd(48, 0), Mvin(0, _X, 0, 12, 4), Mvin(0, _Y, 12, 4, 1),
             Mvin(0, _X, 0, 12, 4), Mvin(0, _Y, 9, 4, 1), Mvin(0, _X, 0, 12, 4)),
            [True, True, True, False, True, True],
            id="destination-over-several-tiles",
        ),
        pytest.param(  # as wide as a move can be: rows 0..16 on four tiles; row 12 is in the last
            (ConfigLd(64, 0), Mvin(0, _X, 0, 16, 4), Mvin(0, _Y, 200, 4, 4),
             Mvin(0, _X, 0, 16, 4), Mvin(0, _Y, 12, 4, 1), Mvin(0, _X, 0, 16, 4)),
            [True, True, True, False, True, True],
            id="oversized-destination",
        ),
        pytest.param(
            (ConfigLd(16, 0), ConfigSt(16), _LOAD, Mvout(_Y, ACC, 4, 4), _LOAD,
             Mvout(DramRef("x", 12), ACC, 4, 4), _LOAD),
            [True, True, True, True, False, True, True],
            id="mvout-onto-a-buffer-an-mvin-read",
        ),
        pytest.param(
            (ConfigLd(16, 0), Mvin(0, _Y, ACC | 4, 4, 4), _LOAD,
             Preload(0, ACC, 4, 4, 4, 4),
             ComputePreloaded(0, SENTINEL, 4, 4, 4, 4), Mvin(0, _Y, ACC | 4, 4, 4),
             Preload(0, ACC | 4, 4, 4, 4, 4),
             ComputePreloaded(0, SENTINEL, 4, 4, 4, 4), Mvin(0, _Y, ACC | 4, 4, 4)),
            [True, True, True, True, True, False, True, True, True],
            id="accumulator-mvin-overwritten-by-a-compute",
        ),
        pytest.param(
            (ConfigLd(16, 0), _LOAD, ConfigLd(32, 0), _LOAD, ConfigLd(32, 0), _LOAD, ConfigLd(16, 0), _LOAD),
            [True, True, True, True, True, False, True, True],
            id="stride-change-between-equal-mvins",
        ),
        pytest.param(  # a write to the DRAM buffer named spad leaves the scratchpad rows alone
            (ConfigLd(16, 0), ConfigSt(16), _LOAD, Mvout(DramRef("spad", 0), ACC, 4, 4), _LOAD,
             Mvout(DramRef("acc", 0), ACC, 4, 4), _LOAD),
            [True, True, True, True, False, True, False],
            id="buffers-named-like-local-memories",
        ),
    ],
)
def test_index_hard_cases(instructions, kept):
    buffers = {"x": (4, 16), "y": (4, 16), "spad": (4, 16), "acc": (4, 16)}
    assert assert_index_agrees_with_scan(instructions, buffers) == kept


def test_rules_mode_peephole_tests_only_the_mvins_a_write_can_reach(naive_programs, monkeypatch):
    """The scan tested every remembered mvin on every write: 67 762 overlap tests here."""
    blocks = [segment_blocks(program) for _, program in naive_programs.values()]
    calls = []
    monkeypatch.setattr(optimizer, "_overlap", lambda a, b: calls.append(1) or _overlaps([a], [b]))
    for (_, program), program_blocks in zip(naive_programs.values(), blocks):
        ctx = PeepholeContext(buffers=program.buffers)
        for block in program_blocks:
            peephole_block(block, ctx)
    assert 0 < len(calls) <= 5000


# -- ordering ----------------------------------------------------------------

@cache
def golden_setup(name):
    spec, program = parsed_golden(name)
    blocks = segment_blocks(program)
    return spec, program, blocks, analyze_dependences(blocks, program.buffers), cases_for(spec)


def _synthetic_program(seed: int, n: int = 6) -> Program:
    """Blocks with randomized loads, some sharing a dram tile."""
    rng = random.Random(seed)
    prelude = (
        ConfigEx(Dataflow.WEIGHT_STATIONARY, Activation.NONE, False, False),
        ConfigSt(16),
        ConfigLd(16, 0),
    )
    slices = [prelude]
    for b in range(1, n):
        offset = rng.choice([0, 0, 16, 32])
        row = 4 * b
        slices.append(
            (
                Mvin(0, DramRef("w", offset), row, 4, 4),
                Preload(row, (1 << 31) | row, 4, 4, 4, 4),
                ComputePreloaded(0, SENTINEL, 4, 4, 4, 4),
                Mvout(DramRef("out", 64 * b), (1 << 31) | row, 4, 4),
            )
        )
    return Program(tuple(i for s in slices for i in s), {"w": (16, 16), "out": (64, 16)})


def random_topological_order(n, edges, rng):
    waiting = [0] * n
    successors = [[] for _ in range(n)]
    for i, j in edges:
        waiting[j] += 1
        successors[i].append(j)
    ready = [b for b in range(n) if waiting[b] == 0]
    order = []
    while ready:
        block = ready.pop(rng.randrange(len(ready)))
        order.append(block)
        for later in successors[block]:
            waiting[later] -= 1
            if waiting[later] == 0:
                ready.append(later)
    assert len(order) == n
    return tuple(order)


@_PROPERTY
@given(
    source=st.one_of(
        st.sampled_from(sorted(KERNELS)),
        st.tuples(st.integers(0, 10_000), st.integers(1, 10)),
    )
)
def test_random_programs_ordering_respects_edges(source):
    """Every edge runs forward, so the fallback (identity) plan respects them all."""
    program = golden_setup(source)[1] if isinstance(source, str) else _synthetic_program(*source)
    blocks = segment_blocks(program)
    plan = search_reorder(blocks)
    assert plan == OrderingPlan(tuple(range(len(blocks))), "search")
    assert all(i < j for i, j in analyze_dependences(blocks, program.buffers))


@_PROPERTY
@given(name=st.sampled_from(sorted(KERNELS)), rng=st.randoms(use_true_random=False))
def test_already_optimal_golden_keeps_identity_order(name, rng):
    """Any order the edges allow verifies, and none beats a golden's own order."""
    spec, program, blocks, edges, cases = golden_setup(name)
    order = random_topological_order(len(blocks), edges, rng)
    candidate = reassemble(blocks, order, program, dedup=True)
    assert verify_program(candidate, spec, cases).passed
    assert program_cost(candidate).total >= program_cost(program).total


# -- plan parsing ------------------------------------------------------------


def test_parse_plan_reads_block_labels():
    assert parse_plan("Put Block 2 first, then Block 0, then Block 1.", 3) == (2, 0, 1)


def test_parse_plan_reads_bare_numbers():
    assert parse_plan("2, 0, 1", 3) == (2, 0, 1)


def test_parse_plan_rejects_non_permutations():
    with pytest.raises(PlanParseError):
        parse_plan("Block 0, Block 0, Block 1", 3)
    with pytest.raises(PlanParseError):
        parse_plan("Block 0, Block 1", 3)
    with pytest.raises(PlanParseError):  # past int()'s 4300-digit limit
        parse_plan("Block " + "7" * 5000, 3)


# -- the pipeline ------------------------------------------------------------


def test_injected_redundancy_strictly_reduced():
    spec, _ = parsed_golden("gv1")
    text = duplicate_line(golden_program("gv1"), "mvin(Bdyn, Bdyn_sp, 4, 4);")
    text = duplicate_line(text, "preload(p_sp, B_p_acc, 1, 4, 1, 4);")
    program = parse_program(text, spec.buffer_shapes())
    cases = cases_for(spec)
    assert verify_program(program, spec, cases).passed
    result = optimize_program(program, spec, cases)
    assert result.after.total < result.before.total
    assert verify_program(result.program, spec, cases).passed
    assert render_program(result.program) == render_program(parsed_golden("gv1")[1])


def test_already_optimal_program_unchanged():
    spec, program = parsed_golden("gv1")
    result = optimize_program(program, spec, cases_for(spec))
    assert render_program(result.program) == render_program(program)
    assert result.after.total == result.before.total
    assert result.plan.permutation == tuple(range(4))


def test_unverified_input_rejected():
    spec, program = parsed_golden("gv1")
    wrong = kernel("mm2")
    with pytest.raises(ValueError):
        optimize_program(program, wrong, cases_for(wrong))


def test_unknown_mode_rejected():
    spec, program = parsed_golden("gv1")
    with pytest.raises(ValueError):
        optimize_program(program, spec, cases_for(spec), mode="aggressive")


def test_llm_plan_violating_edges_falls_back_to_search(monkeypatch):
    verified = []
    monkeypatch.setattr(
        optimizer, "verify_program", lambda p, *rest, **kw: verified.append(p) or verify_program(p, *rest, **kw)
    )
    spec, program = parsed_golden("gv1")
    blocks = segment_blocks(program)
    backend = ReplayBackend()
    for block in blocks:
        backend.add(build_block_optimize_prompt(block.text()).fingerprint, ["no change"])
    backend.add(
        build_reorder_prompt([b.text() for b in blocks]).fingerprint,
        ["Block 1, Block 2, Block 3, Block 0"],
    )
    result = optimize_program(program, spec, cases_for(spec), mode="llm", backend=backend)
    assert result.plan.provenance == "search"
    assert render_program(result.program) == render_program(program)
    # The edges refuse the plan before it is simulated: only the input and
    # the identity order with its mvin dedup are verified.
    assert len(verified) == 2


def test_llm_plan_that_does_not_step_falls_back_to_search(monkeypatch):
    verified = []
    monkeypatch.setattr(
        optimizer, "verify_program", lambda p, *rest, **kw: verified.append(p) or verify_program(p, *rest, **kw)
    )
    monkeypatch.setattr(optimizer, "analyze_dependences", lambda *args: frozenset())  # so the plan is tried
    spec, program = parsed_golden("gv1")
    blocks = segment_blocks(program)
    backend = ReplayBackend()
    for block in blocks:
        backend.add(build_block_optimize_prompt(block.text()).fingerprint, ["no change"])
    # Block 1's mvins run before the prelude configures their load channel.
    backend.add(build_reorder_prompt([b.text() for b in blocks]).fingerprint, ["Block 1, Block 0, Block 2, Block 3"])
    result = optimize_program(program, spec, cases_for(spec), mode="llm", backend=backend)
    assert result.plan.provenance == "search"
    assert render_program(result.program) == render_program(program)
    # The step refuses the plan before it is simulated: only the input and
    # the identity order with its mvin dedup are verified.
    assert len(verified) == 2


def test_llm_plan_with_an_unreadable_number_falls_back_to_search():
    spec, program = parsed_golden("gv1")
    blocks = segment_blocks(program)
    backend = ReplayBackend()
    for block in blocks:
        backend.add(build_block_optimize_prompt(block.text()).fingerprint, ["no change"])
    backend.add(build_reorder_prompt([b.text() for b in blocks]).fingerprint, ["Block " + "7" * 5000])
    result = optimize_program(program, spec, cases_for(spec), mode="llm", backend=backend)
    assert result.plan.provenance == "search"
    assert render_program(result.program) == render_program(program)


def test_llm_identity_plan_accepted():
    spec, program = parsed_golden("gv1")
    blocks = segment_blocks(program)
    backend = ReplayBackend()
    for block in blocks:
        backend.add(build_block_optimize_prompt(block.text()).fingerprint, ["no change"])
    backend.add(
        build_reorder_prompt([b.text() for b in blocks]).fingerprint,
        ["Block 0, Block 1, Block 2, Block 3"],
    )
    result = optimize_program(program, spec, cases_for(spec), mode="llm", backend=backend)
    assert result.plan.provenance == "llm"
    assert result.plan.permutation == (0, 1, 2, 3)
    assert render_program(result.program) == render_program(program)


def test_llm_block_rewrite_gated_by_verification():
    spec, program = parsed_golden("gv1")
    blocks = segment_blocks(program)
    backend = ReplayBackend()
    # A rewrite that deletes a whole compute round: parses, but changes results.
    backend.add(build_block_optimize_prompt(blocks[1].text()).fingerprint, ["```\nfence();\n```"])
    for block in (blocks[0], blocks[2], blocks[3]):
        backend.add(build_block_optimize_prompt(block.text()).fingerprint, ["no change"])
    backend.add(
        build_reorder_prompt([b.text() for b in blocks]).fingerprint,
        ["Block 0, Block 1, Block 2, Block 3"],
    )
    result = optimize_program(program, spec, cases_for(spec), mode="llm", backend=backend)
    assert render_program(result.program) == render_program(program)


def test_cost_never_increases_across_goldens():
    for name in sorted(KERNELS):
        spec, program = parsed_golden(name)
        cases = cases_for(spec, count=2)
        result = optimize_program(program, spec, cases)
        assert result.after.total <= result.before.total
        assert verify_program(result.program, spec, cases).passed
