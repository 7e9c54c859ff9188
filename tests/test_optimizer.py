import random
from functools import cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import golden_program, naive_program
from ta_lift import optimizer
from ta_lift.costs import program_cost
from ta_lift.fixtures import KERNELS, kernel
from ta_lift.gateway import ReplayBackend
from ta_lift.isa import (
    ACC_BIT,
    ACCUMULATE_BIT,
    MAX_BLOCK_LEN_DEFAULT,
    ROW_MASK,
    SENTINEL,
    Activation,
    ComputePreloaded,
    ConfigEx,
    ConfigLd,
    ConfigSt,
    Dataflow,
    DramRef,
    Mvin,
    Mvout,
    Preload,
    PreloadZeros,
    Program,
    ScanState,
    footprint,
    stride_elems,
)
from ta_lift.kernels import generate_testcases, verify_program
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


def test_disjoint_blocks_have_no_edge():
    a = Block(0, (Mvin(0, DramRef("x", 0), ACC, 4, 4), Mvout(DramRef("out", 0), ACC, 4, 4)))
    b = Block(
        1, (Mvin(0, DramRef("x", 16), ACC | 8, 4, 4), Mvout(DramRef("other", 0), ACC | 8, 4, 4))
    )
    assert analyze_dependences([a, b]) == frozenset()


def test_read_after_write_makes_edge():
    a = Block(0, (Mvin(0, DramRef("x", 0), 0, 8, 4),))  # scratchpad rows 0..8
    b = Block(1, (Preload(4, ACC, 4, 2, 4, 4),))  # reads rows 4..6
    assert (0, 1) in analyze_dependences([a, b])


def test_write_after_read_makes_edge():
    a = Block(0, (Preload(0, ACC, 4, 4, 4, 4),))  # reads scratchpad rows 0..4
    b = Block(1, (Mvin(0, DramRef("x", 0), 0, 4, 4),))  # overwrites them
    assert analyze_dependences([a, b]) == frozenset({(0, 1)})


def test_accumulation_chain_is_totally_ordered():
    _, program = parsed_golden("gv2")
    blocks = segment_blocks(program)
    edges = analyze_dependences(blocks)
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
    writer1 = Block(0, (Preload(0, ACC, 4, 4, 4, 4),))
    reader = Block(1, (ComputePreloaded(8, SENTINEL, 4, 4, 4, 4),))  # reads the latch
    writer2 = Block(2, (Preload(0, ACC | 4, 4, 4, 4, 4),))
    edges = analyze_dependences([writer1, reader, writer2])
    assert (0, 1) in edges and (1, 2) in edges and (0, 2) in edges


def test_private_register_writes_do_not_serialize():
    writer1 = Block(0, (Preload(0, ACC, 4, 4, 4, 4),))
    writer2 = Block(1, (Preload(4, ACC | 4, 4, 4, 4, 4),))
    assert analyze_dependences([writer1, writer2]) == frozenset()


# -- segmentation and dependences against the first-written oracle --------------


def _memory(intervals):
    return [iv for iv in intervals if not iv[0].startswith("reg:")]


def _overlaps(xs, ys):
    return any(x[0] == y[0] and x[1] < y[2] and y[1] < x[2] for x in xs for y in ys)


def _oracle(program: Program) -> tuple[list[int], frozenset[tuple[int, int]]]:
    """Block sizes and edges as the optimizer first computed them.

    Cuts come from each mvin's first consumer anywhere later in the program;
    then every block's footprint is aggregated in a second scan, and every
    pair of blocks is tested.
    """
    instructions = program.instructions
    state = ScanState()
    effects = [footprint(ins, state, 4) for ins in instructions]

    def first_consumer(index):
        writes = _memory(effects[index][1])
        later = (at for at in range(index + 1, len(instructions)) if _overlaps(writes, _memory(effects[at][0])))
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
    slices = [instructions[a:b] for a, b in zip(bounds, bounds[1:])]

    state = ScanState()
    blocks = []
    for block in slices:
        reads, writes, exposed, written = [], [], [], []
        for ins in block:
            r, w = footprint(ins, state, 4)
            for iv in r:
                reg = iv[0][4:] if iv[0].startswith("reg:") else None
                if reg is None:
                    reads.append(iv)
                elif reg not in written and reg not in exposed:
                    exposed.append(reg)
            for iv in w:
                reg = iv[0][4:] if iv[0].startswith("reg:") else None
                if reg is None:
                    writes.append(iv)
                elif reg not in written:
                    written.append(reg)
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
    return [len(s) for s in slices], frozenset(edges)


def _assert_matches_oracle(program: Program) -> None:
    blocks = segment_blocks(program)
    assert tuple(i for b in blocks for i in b.instructions) == program.instructions
    assert [b.id for b in blocks] == list(range(len(blocks)))
    assert ([len(b.instructions) for b in blocks], analyze_dependences(blocks)) == _oracle(program)


def test_mvin_read_by_a_later_mvin_of_the_run_stays_before_the_cut():
    accumulate = ACC | 1 << 30
    program = Program(
        (
            ConfigLd(16, 0),
            Mvin(0, DramRef("x", 0), ACC, 4, 4),
            Mvin(0, DramRef("y", 0), accumulate, 4, 4),  # reads the rows the mvin above wrote
            Mvin(0, DramRef("w", 0), 0, 4, 4),
            Preload(0, ACC | 4, 4, 4, 4, 4),
        )
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


def test_rules_mode_scans_each_footprint_at_most_twice(naive_programs, monkeypatch):
    """Once to segment, once for the peephole walk; block footprints are not built."""
    calls = []
    monkeypatch.setattr(optimizer, "footprint", lambda *args: calls.append(1) or footprint(*args))
    for spec, program in naive_programs.values():
        calls.clear()
        optimize_program(program, spec, cases_for(spec, count=2), mode="rules")
        assert len(calls) <= 2 * len(program.instructions), spec.name


# -- peephole --------------------------------------------------------------


def test_duplicate_preload_dropped_and_survivor_kept():
    spec, program = parsed_golden("gv1")
    doubled = duplicate_line(golden_program("gv1"), "preload(p_sp, B_p_acc, 1, 4, 1, 4);")
    parsed = parse_program(doubled, spec.buffer_shapes())
    assert verify_program(parsed, spec, cases_for(spec)).passed
    ctx = PeepholeContext()
    kept = []
    for block in segment_blocks(parsed):
        kept.extend(peephole_block(block, ctx).instructions)
    preloads = [i for i in kept if isinstance(i, Preload)]
    assert len(preloads) == len([i for i in program.instructions if isinstance(i, Preload)])


def test_duplicate_mvin_dropped():
    spec, program = parsed_golden("gv1")
    doubled = duplicate_line(golden_program("gv1"), "mvin(Bdyn, Bdyn_sp, 4, 4);")
    parsed = parse_program(doubled, spec.buffer_shapes())
    ctx = PeepholeContext()
    kept = []
    for block in segment_blocks(parsed):
        kept.extend(peephole_block(block, ctx).instructions)
    assert len(kept) == len(program.instructions)


def both_mvin_walks(instructions):
    """The program-wide dedup and the peephole walk share one mvin rule."""
    block = segment_blocks(Program(instructions))[0]
    return dedup_mvins(instructions), peephole_block(block, PeepholeContext()).instructions


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

    def admit(self, ins):
        reads, writes = footprint(ins, self.state, self.dim)
        key = None
        if isinstance(ins, Mvin) and not (ins.local & ACC_BIT and ins.local & ACCUMULATE_BIT):
            key = (ins, stride_elems(self.state.ld_strides.get(ins.channel)), (*_memory(reads), *writes))
            if key in self.seen_mvins:
                return False
        if isinstance(ins, ConfigEx):
            self.weights_clean = False
        mem = tuple(_memory(writes))
        if mem:
            self.seen_mvins -= {seen for seen in self.seen_mvins if _overlaps(mem, seen[-1])}
            if _overlaps(mem, self.weights):
                self.weights_clean = False
        if key is not None:
            self.seen_mvins.add(key)
        return True


def _expected_cells(ctx: PeepholeContext) -> dict:
    """The index rebuilt from the remembered mvins: DIM-row tiles, or None for DRAM and wide spans."""
    cells = {}
    for key in ctx.seen_mvins:
        for space, start, end in key[-1]:
            low, high = min(start, end - 1), max(start, end - 1)
            wide = space.startswith("dram:") or high - low >= ctx.dim * MAX_BLOCK_LEN_DEFAULT
            for tile in [None] if wide else range(low // ctx.dim, high // ctx.dim + 1):
                cells.setdefault(space, {}).setdefault(tile, set()).add(key)
    return cells


def _filed(cells: dict) -> dict:
    """The index without the cells it has emptied."""
    return {space: filed for space, tiles in cells.items() if (filed := {t: keys for t, keys in tiles.items() if keys})}


def _context_state(ctx: PeepholeContext) -> tuple:
    return ctx.seen_mvins, ctx.weights, ctx.weights_clean, ctx.last_preload, ctx.state


def assert_index_agrees_with_scan(instructions, dim: int = 4) -> list[bool]:
    """Walk both contexts one instruction at a time, as `peephole_block` does, and
    `dedup_mvins` over the whole program; returns which instructions the walk kept.

    Preloads take `peephole_block`'s own rules through one-instruction blocks.
    An instruction without a table entry ends the walk: both must raise on it.
    """
    index, scan = PeepholeContext(dim=dim), ScanContext(dim=dim)
    kept = []
    for ins in instructions:
        try:
            want = peephole_block(Block(0, (ins,)), scan).instructions
        except KeyError:  # no table entry: an unknown type or load channel
            with pytest.raises(KeyError):
                peephole_block(Block(0, (ins,)), index)
            break
        assert peephole_block(Block(0, (ins,)), index).instructions == want, ins
        assert _context_state(index) == _context_state(scan), ins
        assert _filed(index.cells) == _expected_cells(index), ins
        kept.append(bool(want))
    else:
        scan = ScanContext(dim=dim)
        assert dedup_mvins(tuple(instructions), dim) == tuple(ins for ins in instructions if scan.admit(ins))
    return kept


def test_index_agrees_with_the_scan_on_goldens_and_naive_programs(naive_programs):
    for name in sorted(KERNELS):
        for program in (parsed_golden(name)[1], naive_programs[name][1]):
            kept = assert_index_agrees_with_scan(program.instructions)
            assert len(kept) == len(program.instructions)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 10))
def test_index_agrees_with_the_scan_on_synthetic_programs(seed, n):
    assert_index_agrees_with_scan(_synthetic_program(seed, n).instructions)


@_PROPERTY
@given(workloads())
def test_index_agrees_with_the_scan_on_random_workloads(workload):
    assert_index_agrees_with_scan(workload[0].instructions)


@_PROPERTY
@given(one_field_mutations())
def test_index_agrees_with_the_scan_on_one_field_mutations(mutation):
    program, dim, _ = mutation
    assert_index_agrees_with_scan(program.instructions, dim)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["spad", "acc", "dram:x"]),
    st.integers(-40, 40), st.integers(-8, 20), st.integers(-40, 40), st.integers(-8, 20),
    st.sampled_from([1, 2, 4, 16]),
)
@example("spad", 5, -3, 0, 10, 4)  # rows 5 down to 2 overlap rows 0..10
def test_overlapping_intervals_share_a_cell(space, a, a_rows, c, c_rows, dim):
    """Inverted and empty intervals included: overlap means a tile in common, or None on one side."""
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
        pytest.param(  # unset, then not whole elements: the source spans all of x
            (_LOAD, _LOAD, ConfigLd(6, 0), Mvin(0, _X, 16, 4, 4), ConfigSt(16),
             Mvout(DramRef("x", 400), ACC, 4, 4), _LOAD, Mvin(0, _X, 16, 4, 4)),
            [True, False, True, True, True, True, True, True],
            id="mvin-under-unknown-pitch",
        ),
        pytest.param(  # the accumulator write has no latched rows, so it spans the accumulator
            (ConfigLd(16, 0), Mvin(0, _X, ACC | 64, 4, 4), _LOAD,
             ComputePreloaded(0, SENTINEL, 4, 4, 4, 4),
             Mvin(0, _X, ACC | 64, 4, 4), _LOAD),
            [True, True, True, True, True, False],
            id="compute-before-any-preload",
        ),
        pytest.param(  # rows 0..12 on three tiles; row 9 is in the last, row 12 past it
            (ConfigLd(48, 0), Mvin(0, _X, 0, 12, 4), Mvin(0, _Y, 12, 4, 1),
             Mvin(0, _X, 0, 12, 4), Mvin(0, _Y, 9, 4, 1), Mvin(0, _X, 0, 12, 4)),
            [True, True, True, False, True, True],
            id="destination-over-several-tiles",
        ),
        pytest.param(  # wider than any move: rows 0..100, filed under None
            (ConfigLd(400, 0), Mvin(0, _X, 0, 100, 4), Mvin(0, _Y, 200, 4, 4),
             Mvin(0, _X, 0, 100, 4), Mvin(0, _Y, 40, 4, 1), Mvin(0, _X, 0, 100, 4)),
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
    ],
)
def test_index_hard_cases(instructions, kept):
    assert assert_index_agrees_with_scan(instructions) == kept


def test_rules_mode_peephole_tests_only_the_mvins_a_write_can_reach(naive_programs, monkeypatch):
    """The scan tested every remembered mvin on every write: 67 762 overlap tests here."""
    blocks = [segment_blocks(program) for _, program in naive_programs.values()]
    calls = []
    monkeypatch.setattr(optimizer, "_overlap", lambda a, b: calls.append(1) or _overlaps([a], [b]))
    for program_blocks in blocks:
        ctx = PeepholeContext()
        for block in program_blocks:
            peephole_block(block, ctx)
    assert 0 < len(calls) <= 5000


# -- ordering ----------------------------------------------------------------

@cache
def golden_setup(name):
    spec, program = parsed_golden(name)
    blocks = segment_blocks(program)
    return spec, program, blocks, analyze_dependences(blocks), cases_for(spec)


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
    blocks = golden_setup(source)[2] if isinstance(source, str) else segment_blocks(_synthetic_program(*source))
    plan = search_reorder(blocks)
    assert plan == OrderingPlan(tuple(range(len(blocks))), "search")
    assert all(i < j for i, j in analyze_dependences(blocks))


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
        optimizer, "verify_program", lambda p, *rest: verified.append(p) or verify_program(p, *rest)
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
