"""The instruction table against its users: the parser, the validator, the machine and the benchmark.

The validation oracle keeps the hand-written per-type checks that
`validate_program` had before it was derived from the table, and checks
that both agree on the goldens, the benchmark's naive programs, random
workloads and programs with one field mutated.

The footprint differential steps a batched machine one instruction at a
time.  Before each replay it copies the machine and fills everything in the
copy that the op's effects (`op_effects`) do not read with random data.
Both machines then replay the op: nothing outside its writes may change,
and every element either run wrote must be equal in both.  So the effects
read off each op cover what replaying it really reads and writes, and each
of their spans lies inside its memory.  Registers (the config registers and
the latched weights) are not covered: the copy keeps them as they are.  A
step refused on a bound has no op; refusals are pinned against the oracle
executors in `test_executors.py`.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import golden_program, naive_program
from ta_lift import machine, repair
from ta_lift.fixtures import KERNELS, kernel
from ta_lift.isa import (
    ACC_BIT,
    INSTRUCTIONS,
    SENTINEL,
    Activation,
    ComputeAccumulated,
    ComputePreloaded,
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
    Space,
    Span,
    ValidationError,
    memory_sizes,
    op_effects,
    spec_of,
    step,
    validate_program,
)
from ta_lift.kernels import generate_testcases, machine_for_cases
from ta_lift.machine import ExecError, Machine, execute, run
from ta_lift.program_text import parse_program, render_instruction
from test_case_axis import _GOLDEN_PROGRAMS, workloads

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_instruction_kinds_are_the_table_mnemonics(monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    assert tracing.INSTRUCTION_KINDS == tuple(spec.mnemonic for spec in INSTRUCTIONS)


def test_every_table_entry_has_an_executor_and_a_reserved_name() -> None:
    for spec in INSTRUCTIONS:
        assert spec.type in machine._REPLAYS, spec.mnemonic
        assert spec.mnemonic in repair._RESERVED


_SAMPLE_OPERANDS = {
    "dram": DramRef("A", 1),
    "local": 4,
    "flag": True,
    "dataflow": Dataflow.WEIGHT_STATIONARY,
    "activation": Activation.RELU,
}


def test_each_entry_names_every_field_and_round_trips_through_text() -> None:
    for spec in INSTRUCTIONS:
        named = [name for name, _ in spec.operands]
        fixed = [] if spec.channel is None else ["channel"]
        assert [f.name for f in dataclasses.fields(spec.type)] == fixed + named, spec.mnemonic
        ins = spec.build(*(_SAMPLE_OPERANDS.get(kind, 3) for _, kind in spec.operands))
        assert spec_of(ins) is spec
        assert parse_program(render_instruction(ins), {"A": (4, 4)}).instructions == (ins,)


def test_records_of_different_mnemonics_differ_on_the_same_operands() -> None:
    ops = (0, SENTINEL, 4, 4, 4, 4)
    preloaded, accumulated = ComputePreloaded(*ops), ComputeAccumulated(*ops)
    assert preloaded != accumulated
    assert len({preloaded, accumulated}) == 2
    assert {preloaded, accumulated} == {ComputePreloaded(*ops), ComputeAccumulated(*ops)}


# -- validation derived from the table ------------------------------------------------------


def old_violations(p: Program, dim: int = 4, max_block_len: int = 4):
    """The hand-written validator's rules, in its order: it raised the first of these.

    Yields (index, kind, field, value, allowed) for every rule each instruction
    breaks.  An unknown instruction type was the machine's check, not the
    validator's; it is yielded here because `validate_program` now owns it.
    """
    for idx, ins in enumerate(p.instructions):
        if isinstance(ins, Mvin):
            if ins.channel not in (0, 1, 2):
                yield idx, "unsupported", "channel", str(ins.channel), "0..2"
            if ins.rows < 1 or ins.rows > dim:
                yield idx, "rows_exceed_dim", "rows", str(ins.rows), f"1..{dim}"
            if ins.cols < 1 or ins.cols > dim * max_block_len:
                yield idx, "block_too_wide", "cols", str(ins.cols), f"1..{dim * max_block_len}"
        elif isinstance(ins, Mvout):
            if ins.rows < 1 or ins.rows > dim:
                yield idx, "rows_exceed_dim", "rows", str(ins.rows), f"1..{dim}"
            if ins.cols < 1 or ins.cols > dim * max_block_len:
                yield idx, "block_too_wide", "cols", str(ins.cols), f"1..{dim * max_block_len}"
            if not ins.local & ACC_BIT:
                yield idx, "wrong_address_space", "local", f"{ins.local:#x}", "accumulator"
        elif isinstance(ins, Preload):
            for label in ("b_cols", "b_rows", "c_cols", "c_rows"):
                v = getattr(ins, label)
                if v < 1 or v > dim:
                    yield idx, "dimension_mismatch", label, str(v), f"1..{dim}"
            if ins.b != SENTINEL and ins.b & ACC_BIT:
                yield idx, "wrong_address_space", "b", f"{ins.b:#x}", "scratchpad"
            if not ins.c & ACC_BIT:
                yield idx, "wrong_address_space", "c", f"{ins.c:#x}", "accumulator"
        elif isinstance(ins, PreloadZeros):
            if not ins.c & ACC_BIT:
                yield idx, "wrong_address_space", "c", f"{ins.c:#x}", "accumulator"
        elif isinstance(ins, (ComputePreloaded, ComputeAccumulated)):
            for label in ("a_cols", "a_rows", "d_cols", "d_rows"):
                v = getattr(ins, label)
                if v < 1 or v > dim:
                    yield idx, "dimension_mismatch", label, str(v), f"1..{dim}"
            if ins.a & ACC_BIT:
                yield idx, "wrong_address_space", "a", f"{ins.a:#x}", "scratchpad"
            if ins.d != SENTINEL and ins.d & ACC_BIT:
                yield idx, "wrong_address_space", "d", f"{ins.d:#x}", "scratchpad"
        elif isinstance(ins, ConfigLd):
            if ins.channel not in (0, 1, 2):
                yield idx, "unsupported", "channel", str(ins.channel), "0..2"
            if ins.stride_bytes < 0:
                yield idx, "unsupported", "stride_bytes", str(ins.stride_bytes), "at least 0"
        elif isinstance(ins, ConfigSt):
            if ins.stride_bytes < 0:
                yield idx, "unsupported", "stride_bytes", str(ins.stride_bytes), "at least 0"
        elif type(ins) not in machine._REPLAYS:
            yield idx, "unsupported", "type", type(ins).__name__, "unknown"


def assert_validation_agrees(program: Program, dim: int = 4, max_block_len: int = 4) -> None:
    """Same pass or fail and index as the old rules; a kind the instruction breaks;
    a message that names the mnemonic, the field, the value and what is allowed."""
    violations = list(old_violations(program, dim, max_block_len))
    try:
        validate_program(program, dim, max_block_len)
    except ValidationError as err:
        assert violations, err
        assert err.index == violations[0][0], (err, violations[0])
        broken = [v for v in violations if v[0] == err.index]
        ins = program.instructions[err.index]
        if broken[0][2] == "type":
            assert err.kind == "unsupported" and type(ins).__name__ in err.detail
            return
        mnemonic = next(spec.mnemonic for spec in INSTRUCTIONS if spec.type is type(ins))
        assert err.detail.startswith(mnemonic + " "), err
        assert any(
            kind == err.kind and f" {name} {value} must " in err.detail and allowed in err.detail
            for _, kind, name, value, allowed in broken
        ), (err, broken)
    else:
        assert not violations, violations[0]


class Unknown:
    """An instruction type the table does not declare."""


def _naive_programs() -> dict[str, Program]:
    """Each kernel's naive program, as the benchmark's optimize workload writes it."""
    return {
        name: parse_program(naive_program(golden_program(name)), kernel(name).buffer_shapes())
        for name in sorted(KERNELS)
    }


_NAIVE_PROGRAMS = _naive_programs()
_PROGRAMS = [*(_GOLDEN_PROGRAMS[name] for name in sorted(KERNELS)), *_NAIVE_PROGRAMS.values()]
_MACHINE_SHAPES = ((4, 4), (8, 2), (2, 1), (1, 16))  # (dim, max_block_len)
_EDGE_COUNTS = (-4, -1, 0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 2**31)
_EDGE_ADDRESSES = (0, 4, 1 << 29, 1 << 31, (1 << 31) | (1 << 30) | 3, (1 << 31) | (1 << 29), SENTINEL - 1, SENTINEL)


def _edge_values(ins, name: str) -> tuple:
    """Values to put in a field, by its operand kind in the table: for a local address,
    addresses in both memories, with each flag and the sentinel; for any other
    integer, counts around every bound."""
    if (name, "local") in spec_of(ins).operands:
        return _EDGE_ADDRESSES
    value = getattr(ins, name)
    if isinstance(value, bool) or not isinstance(value, int):
        return ()
    return _EDGE_COUNTS


def test_validation_agrees_on_goldens_and_naive_programs() -> None:
    for program in _PROGRAMS:
        for dim, max_block_len in _MACHINE_SHAPES:
            assert_validation_agrees(program, dim, max_block_len)


def test_validation_agrees_on_every_one_field_mutation_of_each_mnemonic() -> None:
    samples = {}
    for program in _PROGRAMS:
        for ins in program.instructions:
            samples.setdefault(spec_of(ins).mnemonic, ins)
    for spec in INSTRUCTIONS:
        samples.setdefault(spec.mnemonic, spec.build(*(_SAMPLE_OPERANDS.get(kind, 3) for _, kind in spec.operands)))
    assert set(samples) == {spec.mnemonic for spec in INSTRUCTIONS}
    for ins in samples.values():
        for field in dataclasses.fields(ins):
            for value in _edge_values(ins, field.name):
                mutated = dataclasses.replace(ins, **{field.name: value})
                for dim, max_block_len in _MACHINE_SHAPES:
                    assert_validation_agrees(Program((ins, mutated, ins)), dim, max_block_len)


def test_validation_messages_name_the_rule() -> None:
    def detail(*instructions) -> str:
        try:
            validate_program(Program(instructions))
        except ValidationError as err:
            return str(err)
        return "valid"

    spad, acc = 0, ACC_BIT
    mvin = Mvin(1, DramRef("A"), spad, 4, 4)
    assert detail(dataclasses.replace(mvin, rows=5)) == "instruction 0: rows_exceed_dim: mvin rows 5 must be in 1..4"
    assert detail(mvin, dataclasses.replace(mvin, cols=17)) == (
        "instruction 1: block_too_wide: mvin cols 17 must be in 1..16"
    )
    assert detail(dataclasses.replace(mvin, channel=3)) == "instruction 0: unsupported: mvin channel 3 must be in 0..2"
    assert detail(ConfigLd(-4, 0)) == "instruction 0: unsupported: config_ld stride_bytes -4 must be at least 0"
    assert detail(ConfigSt(-4)) == "instruction 0: unsupported: config_st stride_bytes -4 must be at least 0"
    assert detail(Mvout(DramRef("C"), spad, 4, 4)) == (
        "instruction 0: wrong_address_space: mvout local 0x0 must address the accumulator"
    )
    keep = Preload(SENTINEL, acc, 4, 4, 4, 4)
    assert detail(keep) == "valid"
    assert detail(dataclasses.replace(keep, b=acc)) == (
        "instruction 0: wrong_address_space: preload b 0x80000000 must address the scratchpad or be the sentinel"
    )
    no_bias = ComputePreloaded(spad, SENTINEL, 4, 4, 4, 4)
    assert detail(no_bias) == "valid"
    assert detail(dataclasses.replace(no_bias, a=SENTINEL)) == (
        "instruction 0: wrong_address_space: compute_preloaded a 0xffffffff must address the scratchpad"
    )
    assert detail(dataclasses.replace(no_bias, d_rows=0)) == (
        "instruction 0: dimension_mismatch: compute_preloaded d_rows 0 must be in 1..4"
    )
    assert detail(mvin, Unknown()) == "instruction 1: unsupported: unknown instruction type Unknown"


def test_execute_reports_an_unknown_instruction_before_running_anything() -> None:
    spec = kernel("gv1")
    program = _GOLDEN_PROGRAMS["gv1"]
    m = machine_for_cases(spec, generate_testcases(spec, seed=0, count=1))
    before = {name: arr.copy() for name, arr in m.dram.items()}
    try:
        execute(m, Program(program.instructions + (Unknown(),)))
    except ExecError as err:
        assert (err.index, err.kind) == (len(program.instructions), "unsupported")
    else:
        raise AssertionError("an unknown instruction ran")
    assert all(np.array_equal(m.dram[name], arr) for name, arr in before.items())


@st.composite
def one_field_mutations(draw):
    """(program, dim, max_block_len): a golden or naive program with one field of one
    instruction set to an edge value, or one instruction replaced by an unknown type."""
    program = draw(st.sampled_from(_PROGRAMS))
    instructions = list(program.instructions)
    at = draw(st.integers(0, len(instructions) - 1))
    ins = instructions[at]
    choices = [(f.name, v) for f in dataclasses.fields(ins) for v in _edge_values(ins, f.name)]
    if choices and draw(st.integers(0, 9)):
        name, value = draw(st.sampled_from(choices))
        instructions[at] = dataclasses.replace(ins, **{name: value})
    else:
        instructions[at] = Unknown()
    dim, max_block_len = draw(st.sampled_from(_MACHINE_SHAPES))
    return Program(tuple(instructions), program.buffers, program.symbols), dim, max_block_len


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(one_field_mutations())
def test_validation_agrees_on_one_field_mutations(mutation) -> None:
    assert_validation_agrees(*mutation)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workloads(), st.sampled_from(_MACHINE_SHAPES))
def test_validation_agrees_on_random_workloads(workload, shape) -> None:
    assert_validation_agrees(workload[0], *shape)


# -- the footprint differential ------------------------------------------------------------


def _shapes(m: Machine) -> dict[str, tuple[int, int]]:
    return {name: arr.shape[-2:] for name, arr in m.dram.items()}


def _memories(m: Machine) -> dict[Space | str, np.ndarray]:
    """Each memory, by its span space, with its rows or elements on the last axis but one."""
    views = {Space.SCRATCHPAD: m.spad, Space.ACCUMULATOR: m.acc}
    for name, arr in m.dram.items():
        views[name] = arr.reshape(arr.shape[:-2] + (-1, 1))
    return views


def _masks(m: Machine, spans: list[Span]) -> dict[Space | str, np.ndarray]:
    """Per memory, which rows or elements the spans cover."""
    masks = {space: np.zeros(memory.shape[-2], bool) for space, memory in _memories(m).items()}
    for space, start, end in spans:
        masks[space][start:end] = True
    return masks


def _twin(m: Machine, reads: dict[Space | str, np.ndarray], noise: dict[Space | str, np.ndarray]) -> Machine:
    """A copy of `m` with random data wherever the op's reads do not reach."""
    twin = dataclasses.replace(
        m,
        dram={name: arr.copy() for name, arr in m.dram.items()},
        spad=m.spad.copy(),
        acc=m.acc.copy(),
    )
    for space, memory in _memories(twin).items():
        np.copyto(memory, noise[space], where=~reads[space][:, None])
    return twin


def _inside(m: Machine, span: Span) -> bool:
    space, start, end = span
    return 0 <= start < end <= _memories(m)[space].shape[-2]


def _step(m: Machine, state: ScanState, ins, noise: dict[Space | str, np.ndarray]) -> bool:
    """Step one instruction from `state` and replay its op on `m` and on a randomized twin; False once it fails."""
    try:
        ops = step((ins,), m.config, memory_sizes(m.config, _shapes(m)), state)
    except ExecError:  # a ValidationError too: a refused step has no op
        return False
    reads, writes = op_effects(ops[0], _shapes(m))
    assert all(_inside(m, span) for span in reads + writes), ins
    read_masks = _masks(m, reads)
    write_masks = _masks(m, writes)
    twin = _twin(m, read_masks, noise)
    before = {space: memory.copy() for space, memory in _memories(m).items()}
    twin_before = {space: memory.copy() for space, memory in _memories(twin).items()}
    run(m, ops)
    run(twin, ops)
    after, twin_after = _memories(m), _memories(twin)
    for space, memory in after.items():
        wrote = (memory != before[space]) | (twin_after[space] != twin_before[space])
        rows = wrote.any(axis=tuple(range(wrote.ndim - 2)) + (-1,))
        assert not (rows & ~write_masks[space]).any(), (ins, space, np.flatnonzero(rows & ~write_masks[space]))
        assert np.array_equal(memory[wrote], twin_after[space][wrote]), (ins, space)
    return True


def _run_differential(m: Machine, program: Program) -> int:
    """Walk the program until a step refuses; the number of instructions walked."""
    rng = np.random.default_rng(0)
    noise = {space: rng.uniform(-8, 8, memory.shape).astype(np.float32) for space, memory in _memories(m).items()}
    state = ScanState()
    for walked, ins in enumerate(program.instructions):
        if not _step(m, state, ins, noise):
            return walked
    return len(program.instructions)


def test_declared_footprints_cover_every_golden() -> None:
    for name in KERNELS:
        spec = kernel(name)
        m = machine_for_cases(spec, generate_testcases(spec, seed=5, count=2))
        assert _run_differential(m, _GOLDEN_PROGRAMS[name]) == len(_GOLDEN_PROGRAMS[name].instructions), name


def test_declared_footprints_cover_every_naive_program() -> None:
    for name, program in _NAIVE_PROGRAMS.items():
        spec = kernel(name)
        m = machine_for_cases(spec, generate_testcases(spec, seed=5, count=2))
        assert _run_differential(m, program) == len(program.instructions), name


def _gv1_with_first_mvin_on_channel(channel: int) -> Program:
    program = _GOLDEN_PROGRAMS["gv1"]
    at = next(at for at, ins in enumerate(program.instructions) if isinstance(ins, Mvin))
    instructions = list(program.instructions)
    instructions[at] = dataclasses.replace(instructions[at], channel=channel)
    return dataclasses.replace(program, instructions=tuple(instructions))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workloads())
@example((_gv1_with_first_mvin_on_channel(-5), kernel("gv1"), generate_testcases(kernel("gv1"), seed=0, count=2)))
def test_declared_footprints_cover_random_and_mutated_programs(workload) -> None:
    program, spec, cases = workload
    _run_differential(machine_for_cases(spec, cases[:2]), program)
