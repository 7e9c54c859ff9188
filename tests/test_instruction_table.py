"""The instruction table against its users: the parser, the machine and the benchmark.

The footprint differential steps a batched machine one instruction at a
time.  Before each step it copies the machine and fills everything in the
copy that the instruction's declared reads do not cover with random data.
Both machines then run the instruction: nothing outside the declared
writes may change, and every element either run wrote must be equal in
both.  So the declared memory footprints cover what each instruction really
reads and writes.  Registers (the config registers and the latched weights)
are not covered: the copy keeps them as they are.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings

from ta_lift import machine, repair
from ta_lift.fixtures import KERNELS, kernel
from ta_lift.isa import (
    INSTRUCTIONS,
    Activation,
    Dataflow,
    DramRef,
    Interval,
    LocalAddr,
    Mvin,
    Program,
    ScanState,
    ValidationError,
    footprint,
    spec_of,
    validate_program,
)
from ta_lift.kernels import generate_testcases, machine_for_cases
from ta_lift.machine import ExecError, Machine, execute
from ta_lift.program_text import parse_program, render_instruction
from test_case_axis import _GOLDEN_PROGRAMS, workloads

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_instruction_kinds_are_the_table_mnemonics(monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    assert tracing.INSTRUCTION_KINDS == tuple(spec.mnemonic for spec in INSTRUCTIONS)


def test_every_table_entry_has_an_executor_and_a_reserved_name() -> None:
    for spec in INSTRUCTIONS:
        assert spec.type in machine._EXECUTORS, spec.mnemonic
        assert spec.mnemonic in repair._RESERVED


_SAMPLE_OPERANDS = {
    "dram": DramRef("A", 1),
    "local": LocalAddr(4),
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


# -- the footprint differential ------------------------------------------------------------


def _masks(m: Machine, intervals: list[Interval]) -> dict[str, np.ndarray]:
    """Per memory (spad, acc and each DRAM buffer), which rows or elements the intervals cover."""
    masks = {"spad": np.zeros(m.spad.shape[-2], bool), "acc": np.zeros(m.acc.shape[-2], bool)}
    for name, arr in m.dram.items():
        masks[f"dram:{name}"] = np.zeros(arr.shape[-2] * arr.shape[-1], bool)
    for space, start, end in intervals:
        if space in masks:
            masks[space][max(start, 0) : max(end, 0)] = True
    return masks


def _memories(m: Machine) -> dict[str, np.ndarray]:
    """Each memory with its rows or elements on the last axis but one."""
    views = {"spad": m.spad, "acc": m.acc}
    for name, arr in m.dram.items():
        views[f"dram:{name}"] = arr.reshape(arr.shape[:-2] + (-1, 1))
    return views


def _twin(m: Machine, reads: dict[str, np.ndarray], noise: dict[str, np.ndarray]) -> Machine:
    """A copy of `m` with random data wherever the declared reads do not reach."""
    twin = dataclasses.replace(
        m,
        dram={name: arr.copy() for name, arr in m.dram.items()},
        spad=m.spad.copy(),
        acc=m.acc.copy(),
        regs=dataclasses.replace(m.regs),
        ld_strides=dict(m.ld_strides),
    )
    for space, memory in _memories(twin).items():
        np.copyto(memory, noise[space], where=~reads[space][:, None])
    return twin


def _step(m: Machine, state: ScanState, ins, noise: dict[str, np.ndarray]) -> bool:
    """Run one instruction on `m` and on a randomized twin; False once it fails."""
    single = Program((ins,))
    try:
        validate_program(single, m.config.dim, m.config.max_block_len)  # an invalid one has no footprint
    except ValidationError:
        return False
    reads, writes = footprint(ins, state, m.config.dim)
    read_masks = _masks(m, reads)
    write_masks = _masks(m, writes)
    twin = _twin(m, read_masks, noise)
    before = {space: memory.copy() for space, memory in _memories(m).items()}
    twin_before = {space: memory.copy() for space, memory in _memories(twin).items()}
    try:
        execute(m, single)
    except ExecError:
        return False
    execute(twin, single)
    after, twin_after = _memories(m), _memories(twin)
    for space, memory in after.items():
        wrote = (memory != before[space]) | (twin_after[space] != twin_before[space])
        rows = wrote.any(axis=tuple(range(wrote.ndim - 2)) + (-1,))
        assert not (rows & ~write_masks[space]).any(), (ins, space, np.flatnonzero(rows & ~write_masks[space]))
        assert np.array_equal(memory[wrote], twin_after[space][wrote]), (ins, space)
    return True


def _run_differential(m: Machine, program: Program) -> None:
    rng = np.random.default_rng(0)
    noise = {space: rng.uniform(-8, 8, memory.shape).astype(np.float32) for space, memory in _memories(m).items()}
    state = ScanState()
    for ins in program.instructions:
        if not _step(m, state, ins, noise):
            break


def test_declared_footprints_cover_every_golden() -> None:
    for name in KERNELS:
        spec = kernel(name)
        m = machine_for_cases(spec, generate_testcases(spec, seed=5, count=2))
        _run_differential(m, _GOLDEN_PROGRAMS[name])


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
