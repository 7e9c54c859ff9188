"""The machine's executors and the static check pass against the per-row executors they replaced.

A move whose rows are rows of its buffer (the pitch is the buffer's row
length and the block lies inside the buffer) now copies each DIM-wide tile
with one slice; every other move still goes row by row.  The executors
check nothing: `isa.check_execution` finds every execution error before a
run.  The oracle below keeps the earlier executors, checks and all,
verbatim.  For each step, each random workload and each one-field
mutation, validation, then the pass from the machine's `scan_state`, then
`run` must raise the same `ExecError` (index, kind and message) as
validation, then the oracle's executors, or none and leave the same bytes
in every array.  Whatever prefix of them validation and the pass accept,
`run` runs without raising.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import golden_program, naive_program
from ta_lift import machine
from ta_lift.fixtures import KERNELS, kernel
from ta_lift.isa import (
    ACC_BIT,
    ACCUMULATE_BIT,
    ELEMENT_BYTES,
    FULL_WIDTH_BIT,
    LOAD_CHANNELS,
    ROW_MASK,
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
    Mvin,
    Mvout,
    Preload,
    PreloadZeros,
    Space,
    ValidationError,
    check_execution,
    spec_of,
    validate_instructions,
)
from ta_lift.kernels import generate_testcases, machine_for_cases
from ta_lift.machine import (ExecError, Machine, MachineConfig, _Latched, create_machine, repeat, run, scan_state,
                             slices)
from ta_lift.program_text import parse_program
from test_case_axis import workloads
from test_instruction_table import one_field_mutations

# -- the oracle: the executors before the tile path, verbatim -----------------------


def _stride_elems(m: Machine, idx: int, stride_bytes: int | None, what: str) -> int:
    if stride_bytes is None:
        raise ExecError(idx, "unsupported", f"{what} stride used before being configured")
    if stride_bytes % ELEMENT_BYTES != 0:
        raise ExecError(idx, "unsupported", f"{what} stride {stride_bytes} is not a multiple of {ELEMENT_BYTES}")
    return stride_bytes // ELEMENT_BYTES


def _check_local_rows(m: Machine, idx: int, space: Space, row: int, nrows: int) -> None:
    limit = m.config.acc_rows if space is Space.ACCUMULATOR else m.config.spad_rows
    kind = "acc_out_of_range" if space is Space.ACCUMULATOR else "spad_out_of_range"
    if row < 0 or row + nrows > limit:
        raise ExecError(idx, kind, f"rows [{row}, {row + nrows}) exceed {limit}")


def _dram_flat(m: Machine, idx: int, buffer: str) -> np.ndarray:
    """The buffer as one row of elements per case: a writable view."""
    if buffer not in m.dram:
        raise ExecError(idx, "dram_out_of_range", f"unknown buffer '{buffer}'")
    arr = m.dram[buffer]
    return arr.reshape(arr.shape[:-2] + (-1,))


def _exec_config_ex(m: Machine, idx: int, ins: ConfigEx) -> None:
    m.regs = ins


def _exec_config_ld(m: Machine, idx: int, ins: ConfigLd) -> None:
    m.ld_strides[ins.channel] = ins.stride_bytes


def _exec_config_st(m: Machine, idx: int, ins: ConfigSt) -> None:
    m.st_stride = ins.stride_bytes


def _exec_fence(m: Machine, idx: int, ins: Fence) -> None:
    pass  # sequential semantics: nothing outstanding to wait on


def _exec_mvin(m: Machine, idx: int, ins: Mvin) -> None:
    dim = m.config.dim
    pitch = _stride_elems(m, idx, m.ld_strides.get(ins.channel), f"load channel {ins.channel}")
    flat = _dram_flat(m, idx, ins.dram.buffer)
    size = flat.shape[-1]
    space = Space.ACCUMULATOR if ins.local & ACC_BIT else Space.SCRATCHPAD
    mem = m.acc if space is Space.ACCUMULATOR else m.spad
    tiles = (ins.cols + dim - 1) // dim
    base_row = ins.local & ROW_MASK
    _check_local_rows(m, idx, space, base_row, (tiles - 1) * dim + ins.rows)
    accumulate = space is Space.ACCUMULATOR and bool(ins.local & ACCUMULATE_BIT)
    for t in range(tiles):
        width = min(dim, ins.cols - t * dim)
        for r in range(ins.rows):
            src = ins.dram.offset + r * pitch + t * dim
            if src < 0 or src + width > size:
                raise ExecError(
                    idx,
                    "dram_out_of_range",
                    f"read [{src}, {src + width}) exceeds buffer '{ins.dram.buffer}' of {size} elements",
                )
            dst = base_row + t * dim + r
            if accumulate:
                mem[..., dst, :width] += flat[..., src : src + width]
            else:
                mem[..., dst, :width] = flat[..., src : src + width]


def _exec_preload(m: Machine, idx: int, ins: Preload) -> None:
    if ins.b != SENTINEL:
        _check_local_rows(m, idx, Space.SCRATCHPAD, ins.b & ROW_MASK, ins.b_rows)
        block = m.spad[..., (ins.b & ROW_MASK) : (ins.b & ROW_MASK) + ins.b_rows, : ins.b_cols].copy()
        weights = block.swapaxes(-1, -2).copy() if m.regs.b_transpose else block
    else:
        if m.latched is None:
            raise ExecError(idx, "compute_before_preload", "keep-weights preload with no previously latched weights")
        weights = m.latched.weights
    m.latched = _Latched(
        weights=weights,
        c_row=ins.c & ROW_MASK,
        c_accumulate=bool(ins.c & ACCUMULATE_BIT),
        c_cols=ins.c_cols,
        c_rows=ins.c_rows,
    )


def _exec_preload_zeros(m: Machine, idx: int, ins: PreloadZeros) -> None:
    dim = m.config.dim
    m.latched = _Latched(
        weights=np.zeros(m.spad.shape[:-2] + (dim, dim), dtype=np.float32),
        c_row=ins.c & ROW_MASK,
        c_accumulate=bool(ins.c & ACCUMULATE_BIT),
        c_cols=dim,
        c_rows=dim,
    )


def _exec_compute(m: Machine, idx: int, ins: ComputePreloaded | ComputeAccumulated) -> None:
    if m.regs.dataflow is not Dataflow.WEIGHT_STATIONARY:
        raise ExecError(idx, "unsupported", f"dataflow {m.regs.dataflow.value} is parse-only")
    if m.regs.act not in (Activation.NONE, Activation.RELU):
        raise ExecError(idx, "unsupported", f"activation {m.regs.act.value} is parse-only")
    lat = m.latched
    if lat is None:
        raise ExecError(idx, "compute_before_preload", "compute issued before any preload")
    _check_local_rows(m, idx, Space.SCRATCHPAD, ins.a & ROW_MASK, ins.a_rows)
    a_raw = m.spad[..., (ins.a & ROW_MASK) : (ins.a & ROW_MASK) + ins.a_rows, : ins.a_cols]
    a_eff = a_raw.swapaxes(-1, -2) if m.regs.a_transpose else a_raw
    a_rows, a_cols = a_eff.shape[-2:]
    w_rows, w_cols = lat.weights.shape[-2:]
    if a_cols != w_rows:
        raise ExecError(
            idx,
            "dimension_mismatch",
            f"A is {a_rows}x{a_cols} but weights are {w_rows}x{w_cols}",
        )
    if (a_rows, w_cols) != (lat.c_rows, lat.c_cols):
        raise ExecError(
            idx,
            "dimension_mismatch",
            f"result is {a_rows}x{w_cols} but the preload latched {lat.c_rows}x{lat.c_cols}",
        )
    product = a_eff.astype(np.float32) @ lat.weights
    if ins.d == SENTINEL:
        biased = product
    else:
        _check_local_rows(m, idx, Space.SCRATCHPAD, ins.d & ROW_MASK, ins.d_rows)
        if (ins.d_rows, ins.d_cols) != (lat.c_rows, lat.c_cols):
            raise ExecError(
                idx,
                "dimension_mismatch",
                f"bias is {ins.d_rows}x{ins.d_cols} but the result is {lat.c_rows}x{lat.c_cols}",
            )
        biased = product + m.spad[..., (ins.d & ROW_MASK) : (ins.d & ROW_MASK) + ins.d_rows, : ins.d_cols]
    _check_local_rows(m, idx, Space.ACCUMULATOR, lat.c_row, lat.c_rows)
    dst = m.acc[..., lat.c_row : lat.c_row + lat.c_rows, : lat.c_cols]
    accumulate = lat.c_accumulate or isinstance(ins, ComputeAccumulated)
    if accumulate:
        dst += biased
    else:
        dst[...] = biased


def _exec_mvout(m: Machine, idx: int, ins: Mvout) -> None:
    dim = m.config.dim
    pitch = _stride_elems(m, idx, m.st_stride, "store")
    if m.regs.act not in (Activation.NONE, Activation.RELU) and not ins.local & FULL_WIDTH_BIT:
        raise ExecError(idx, "unsupported", f"activation {m.regs.act.value} is parse-only")
    flat = _dram_flat(m, idx, ins.dram.buffer)
    size = flat.shape[-1]
    tiles = (ins.cols + dim - 1) // dim
    base_row = ins.local & ROW_MASK
    _check_local_rows(m, idx, Space.ACCUMULATOR, base_row, (tiles - 1) * dim + ins.rows)
    apply_relu = m.regs.act is Activation.RELU and not ins.local & FULL_WIDTH_BIT
    for t in range(tiles):
        width = min(dim, ins.cols - t * dim)
        for r in range(ins.rows):
            src_row = base_row + t * dim + r
            values = m.acc[..., src_row, :width]
            if apply_relu:
                values = np.maximum(values, np.float32(0.0))
            dst = ins.dram.offset + r * pitch + t * dim
            if dst < 0 or dst + width > size:
                raise ExecError(
                    idx,
                    "dram_out_of_range",
                    f"write [{dst}, {dst + width}) exceeds buffer '{ins.dram.buffer}' of {size} elements",
                )
            flat[..., dst : dst + width] = values



OLD_EXECUTORS = {
    ConfigEx: _exec_config_ex,
    ConfigLd: _exec_config_ld,
    ConfigSt: _exec_config_st,
    Mvin: _exec_mvin,
    Preload: _exec_preload,
    PreloadZeros: _exec_preload_zeros,
    ComputePreloaded: _exec_compute,
    ComputeAccumulated: _exec_compute,
    Mvout: _exec_mvout,
    Fence: _exec_fence,
}


# -- running both --------------------------------------------------------------------


def validation_error(m: Machine, instructions) -> tuple | None:
    """The first instruction validation refuses on the machine's configuration, or None.

    `steps` also unsets a stride with a config of stride None, which no text
    parses to; validation refuses it with a TypeError.
    """
    for idx, ins in enumerate(instructions):
        try:
            validate_instructions([(idx, ins)], m.config.dim, m.config.max_block_len)
        except ValidationError as err:
            return err.index, err.kind, err.detail
        except TypeError as err:
            return idx, "TypeError", str(err)
    return None


def static_error(m: Machine, instructions) -> tuple | None:
    """What validation, then the pass from the machine's registers and latch, refuses first: or None."""
    error = validation_error(m, instructions)
    if error is None:
        try:
            check_execution(instructions, m.config, {name: arr.shape[-2:] for name, arr in m.dram.items()},
                            scan_state(m))
        except ExecError as err:
            return err.index, err.kind, err.detail
    return error


def outcome(m: Machine, instructions) -> tuple | None:
    """Validate, check, then run on the tree's machine: the error refused, or None."""
    error = static_error(m, instructions)
    if error is None:
        run(m, instructions)
    return error


def oracle_outcome(m: Machine, instructions) -> tuple | None:
    """Validate, then run the oracle's executors: the error they stop at, or None."""
    error = validation_error(m, instructions)
    if error is not None:
        return error
    for idx, ins in enumerate(instructions):
        try:
            OLD_EXECUTORS[type(ins)](m, idx, ins)
        except ExecError as err:
            return err.index, err.kind, err.detail
    return None


def state(m: Machine) -> tuple:
    """Every array and register an executor can change, as bytes and values."""
    latched = m.latched
    if latched is not None:
        latched = (latched.weights.shape, latched.weights.tobytes(), latched.c_row, latched.c_accumulate,
                   latched.c_cols, latched.c_rows)
    dram = {name: (arr.shape, arr.tobytes()) for name, arr in m.dram.items()}
    return dram, m.spad.tobytes(), m.acc.tobytes(), m.regs, dict(m.ld_strides), m.st_stride, latched


def copied(m: Machine) -> Machine:
    """An independent copy of `m`: the one slice of `m` repeated once."""
    return slices(repeat(m, 1))[0]


def assert_same_as_oracle(m: Machine, instructions) -> None:
    """The tree on `m` and the oracle on a copy: the same error and `m` untouched, or no error and the same state."""
    old, before = copied(m), state(m)
    expected = oracle_outcome(old, instructions)
    assert outcome(m, instructions) == expected
    assert state(m) == (before if expected is not None else state(old))


def assert_accepted_prefix_runs(m: Machine, instructions) -> None:
    """The longest prefix validation and the pass accept: `run` raises nothing on it and leaves the oracle's bytes."""
    stop = len(instructions)
    while (error := static_error(m, instructions[:stop])) is not None:
        stop = error[0]
    old = copied(m)
    assert oracle_outcome(old, instructions[:stop]) is None
    run(m, instructions, 0, stop)
    assert state(m) == state(old)


# -- single steps on random machines -------------------------------------------------

_FLAGS = (0, ACC_BIT, ACC_BIT | ACCUMULATE_BIT, ACC_BIT | FULL_WIDTH_BIT, ACC_BIT | ACCUMULATE_BIT | FULL_WIDTH_BIT,
          ACCUMULATE_BIT, FULL_WIDTH_BIT)
_ACTIVATIONS = (Activation.NONE, Activation.RELU) * 3 + (Activation.LAYERNORM, Activation.IGELU, Activation.SOFTMAX)


@st.composite
def local_rows(draw, limit: int, nrows: int) -> int:
    """A first row for `nrows` rows: at either end of a memory of `limit` rows, one past its end, or anywhere in it."""
    anywhere = draw(st.integers(0, max(0, limit - nrows)))
    return max(0, draw(st.sampled_from((0, limit - nrows, limit - nrows + 1, anywhere))))


@st.composite
def strides(draw, row_bytes: tuple[int, ...]) -> int | None:
    """A configured stride: mostly a buffer's row length, a short one (under a tile's
    width, zero too) or another whole number of elements; sometimes unset or not whole elements."""
    choice = draw(st.integers(0, 15))
    if choice == 0:
        return None
    if choice == 1:
        return draw(st.integers(0, 24)) * ELEMENT_BYTES + draw(st.integers(1, 3))
    if choice < 9:
        return draw(st.sampled_from(row_bytes))
    return draw(st.integers(0, 3 if choice < 12 else 24)) * ELEMENT_BYTES


@st.composite
def moves(draw, kind: type, cfg: MachineConfig, shapes: dict[str, tuple[int, int]]):
    buffer = draw(st.sampled_from((*shapes,) * 4 + ("missing",)))
    rows_, cols_ = shapes.get(buffer, (3, 3))
    r0, c0 = draw(st.sampled_from((-1, rows_, *range(rows_)))), draw(st.sampled_from((0, cols_ - 1, *range(cols_))))
    offset = draw(st.one_of(st.just(r0 * cols_ + c0), st.integers(-4, rows_ * cols_ + 4)))
    widest = cfg.dim * cfg.max_block_len
    # A block that ends at its row's end, or any width.
    cols = draw(st.sampled_from((min(widest, max(1, cols_ - c0)), draw(st.integers(1, widest)))))
    rows = draw(st.integers(1, cfg.dim))
    flags = draw(st.sampled_from(_FLAGS))
    limit = cfg.acc_rows if flags & ACC_BIT or kind is Mvout else cfg.spad_rows
    row = draw(local_rows(limit, ((cols + cfg.dim - 1) // cfg.dim - 1) * cfg.dim + rows))
    if kind is Mvout:
        return Mvout(DramRef(buffer, offset), flags | row, cols, rows)
    channel = draw(st.sampled_from((*LOAD_CHANNELS,) * 3 + (max(LOAD_CHANNELS) + 1,)))
    return Mvin(channel, DramRef(buffer, offset), flags | row, cols, rows)


@st.composite
def matrix_steps(draw, kind: type, cfg: MachineConfig):
    dim = cfg.dim
    counts = [draw(st.integers(1, dim)) for _ in range(4)]
    if kind is PreloadZeros:
        return PreloadZeros(draw(st.sampled_from(_FLAGS)) | draw(local_rows(cfg.acc_rows, dim)))
    if kind is Preload:
        b = draw(st.one_of(st.just(SENTINEL), local_rows(cfg.spad_rows, counts[1])))
        c = draw(st.sampled_from(_FLAGS)) | ACC_BIT | draw(local_rows(cfg.acc_rows, counts[3]))
        return Preload(b, c, *counts)
    a = draw(st.sampled_from(_FLAGS)) | draw(local_rows(cfg.spad_rows, counts[1]))
    d = draw(st.one_of(st.just(SENTINEL), local_rows(cfg.spad_rows, counts[3])))
    return kind(a, d, *counts)


@st.composite
def steps(draw):
    """(machine, instructions): a random batched machine with random registers and latch,
    and one to four mvin, mvout, preload or compute steps, a move perhaps after its stride."""
    dim = draw(st.sampled_from((1, 2, 4)))
    cfg = MachineConfig(dim=dim, spad_rows=draw(st.integers(dim, 4 * dim + 2)),
                        acc_rows=draw(st.integers(dim, 4 * dim + 2)), max_block_len=draw(st.integers(1, 4)))
    names = ("A", "B")[: draw(st.integers(1, 2))]
    shapes = {name: (draw(st.integers(1, 8)), draw(st.integers(1, 20))) for name in names}
    batch = draw(st.sampled_from(((), (2,), (1, 2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    contents = {name: rng.standard_normal(batch + shape).astype(np.float32) for name, shape in shapes.items()}
    m = create_machine(cfg, shapes, contents)
    m.spad[...] = rng.standard_normal(m.spad.shape)
    m.acc[...] = rng.standard_normal(m.acc.shape)
    dataflow = draw(st.sampled_from((Dataflow.WEIGHT_STATIONARY,) * 3 + (Dataflow.OUTPUT_STATIONARY,)))
    m.regs = ConfigEx(dataflow, draw(st.sampled_from(_ACTIVATIONS)), draw(st.booleans()), draw(st.booleans()))
    row_bytes = tuple(cols * ELEMENT_BYTES for _, cols in shapes.values())
    m.ld_strides = {channel: draw(strides(row_bytes)) for channel in LOAD_CHANNELS}
    m.st_stride = draw(strides(row_bytes))
    if draw(st.booleans()):
        w_rows, w_cols = draw(st.integers(1, dim)), draw(st.integers(1, dim))
        weights = rng.standard_normal(batch + (w_rows, w_cols)).astype(np.float32)
        c_rows = draw(st.integers(1, dim))
        m.latched = _Latched(weights, draw(local_rows(cfg.acc_rows, c_rows)), draw(st.booleans()), w_cols, c_rows)
    instructions = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from((Mvin, Mvin, Mvout, Mvout, Preload, PreloadZeros, ComputePreloaded,
                                     ComputeAccumulated)))
        if kind not in (Mvin, Mvout):
            instructions.append(draw(matrix_steps(kind, cfg)))
            continue
        move = draw(moves(kind, cfg, shapes))
        if draw(st.booleans()):  # first set the stride, likely to the row length of the move's buffer
            stride = draw(strides((shapes.get(move.dram.buffer, (1, 1))[1] * ELEMENT_BYTES,)))
            instructions.append(ConfigSt(stride) if kind is Mvout else ConfigLd(stride, move.channel))
        instructions.append(move)
    return m, instructions


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps())
def test_steps_match_the_oracle(step) -> None:
    assert_same_as_oracle(*step)


def valid_form(step):
    """The step with what validation refuses moved in range: each local address into the memory its
    operand must address, each load channel to 0 and each stride config of None to 0.  Most such steps
    reach the pass."""
    m, instructions = step
    fixed = []
    for ins in instructions:
        if isinstance(ins, (Mvin, ConfigLd)) and ins.channel not in LOAD_CHANNELS:
            ins = dataclasses.replace(ins, channel=0)
        if isinstance(ins, (ConfigLd, ConfigSt)) and ins.stride_bytes is None:
            ins = dataclasses.replace(ins, stride_bytes=0)
        for name, space, sentinel_ok in spec_of(ins).spaces:
            raw = getattr(ins, name)
            if not (sentinel_ok and raw == SENTINEL):
                raw = raw | ACC_BIT if space is Space.ACCUMULATOR else raw & ~ACC_BIT
                ins = dataclasses.replace(ins, **{name: raw})
        fixed.append(ins)
    return m, fixed


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps().map(valid_form))
def test_valid_steps_match_the_oracle(step) -> None:
    assert_same_as_oracle(*step)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workloads())
def test_random_workloads_match_the_oracle(workload) -> None:
    program, spec, cases = workload
    assert_same_as_oracle(machine_for_cases(spec, cases), program.instructions)


def mutation_machine(mutation, seed: int) -> tuple[Machine, tuple]:
    """A two-case machine for a one-field mutation's program, shaped as it asks."""
    program, dim, max_block_len = mutation
    rng = np.random.default_rng(seed)
    contents = {name: rng.standard_normal((2,) + shape).astype(np.float32) for name, shape in program.buffers.items()}
    m = create_machine(MachineConfig(dim=dim, max_block_len=max_block_len), program.buffers, contents)
    return m, program.instructions


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(one_field_mutations(), st.integers(0, 2**32 - 1))
def test_one_field_mutations_match_the_oracle(mutation, seed) -> None:
    """Counts out of range, wrong memories and unknown types stop at validation on both sides."""
    assert_same_as_oracle(*mutation_machine(mutation, seed))


_RELU = ConfigEx(Dataflow.WEIGHT_STATIONARY, Activation.RELU, False, False)
EDGE_MOVES = {  # on a 6 x 8 buffer A
    "load wraps a row": (ConfigLd(32, 0), Mvin(0, DramRef("A", 6), 0, 4, 2)),
    "store wraps a row": (ConfigSt(32), Mvout(DramRef("A", 5), ACC_BIT, 8, 3)),
    "store rows overlap": (ConfigSt(4), Mvout(DramRef("A", 3), ACC_BIT, 4, 4)),
    "relu store rows overlap": (_RELU, ConfigSt(8), Mvout(DramRef("A", 0), ACC_BIT, 8, 4)),
    "accumulating load, pitch 0": (ConfigLd(0, 1), Mvin(1, DramRef("A", 9), ACC_BIT | ACCUMULATE_BIT, 4, 4)),
    "load to the buffer's last element": (ConfigLd(32, 2), Mvin(2, DramRef("A", 20), 1020, 4, 4)),
    "store one row past the buffer": (ConfigSt(32), Mvout(DramRef("A", 24), ACC_BIT, 8, 4)),
    "load before the buffer": (ConfigLd(32, 0), Mvin(0, DramRef("A", -1), 0, 4, 2)),
    "load with twice the row length": (ConfigLd(64, 0), Mvin(0, DramRef("A", 0), 0, 8, 3)),
}


def edge_machine() -> Machine:
    rng = np.random.default_rng(7)
    m = create_machine(MachineConfig(), {"A": (6, 8)}, {"A": rng.standard_normal((2, 6, 8)).astype(np.float32)})
    m.acc[...] = rng.standard_normal(m.acc.shape)
    return m


@pytest.mark.parametrize("instructions", EDGE_MOVES.values(), ids=EDGE_MOVES)
def test_edge_moves_match_the_oracle(instructions) -> None:
    assert_same_as_oracle(edge_machine(), instructions)


def _ex(dataflow=Dataflow.WEIGHT_STATIONARY, act=Activation.NONE, a_transpose=False, b_transpose=False) -> ConfigEx:
    return ConfigEx(dataflow, act, a_transpose, b_transpose)


_LATCH_4X4 = Preload(0, ACC_BIT, 4, 4, 4, 4)
_COMPUTE = ComputePreloaded(0, SENTINEL, 4, 4, 4, 4)
EDGE_CHECKS = {  # name: (the kind the first error has, or None; instructions on a 6 x 8 buffer A)
    "compute before any preload": ("compute_before_preload", (_COMPUTE,)),
    "keep-weights preload with nothing latched": ("compute_before_preload", (Preload(SENTINEL, ACC_BIT, 4, 4, 4, 4),)),
    "keep-weights preload after a preload": (None, (_LATCH_4X4, Preload(SENTINEL, ACC_BIT | 4, 4, 4, 4, 4), _COMPUTE)),
    "parse-only dataflow": ("unsupported", (_ex(Dataflow.OUTPUT_STATIONARY), _LATCH_4X4, _COMPUTE)),
    "parse-only activation at a compute": ("unsupported", (_ex(act=Activation.SOFTMAX), _LATCH_4X4, _COMPUTE)),
    "parse-only activation at a store": ("unsupported", (_ex(act=Activation.LAYERNORM), ConfigSt(32),
                                                         Mvout(DramRef("A", 0), ACC_BIT, 8, 4))),
    "full-width store under a parse-only activation": (None, (_ex(act=Activation.IGELU), ConfigSt(32),
                                                              Mvout(DramRef("A", 0), ACC_BIT | FULL_WIDTH_BIT, 8, 4))),
    "store stride before the activation": ("unsupported", (_ex(act=Activation.LAYERNORM),
                                                           Mvout(DramRef("A", 0), ACC_BIT, 8, 4))),
    "A rows past the scratchpad before a mismatch": ("spad_out_of_range", (
        _LATCH_4X4, ComputePreloaded(1022, SENTINEL, 3, 4, 4, 4))),
    "A deeper than the weights": ("dimension_mismatch", (Preload(0, ACC_BIT, 4, 2, 4, 4), _COMPUTE)),
    "result wider than the latched block": ("dimension_mismatch", (Preload(0, ACC_BIT, 4, 4, 2, 4), _COMPUTE)),
    "transposed A and B that fit": (None, (_ex(a_transpose=True, b_transpose=True), Preload(0, ACC_BIT, 3, 4, 4, 4),
                                           ComputeAccumulated(4, SENTINEL, 4, 3, 4, 4))),
    "transposed B that does not fit": ("dimension_mismatch", (_ex(b_transpose=True), Preload(0, ACC_BIT, 3, 4, 4, 4),
                                                              _COMPUTE)),
    "bias rows past the scratchpad before a bias mismatch": ("spad_out_of_range", (
        _LATCH_4X4, ComputePreloaded(0, 1022, 4, 4, 3, 4))),
    "bias narrower than the result": ("dimension_mismatch", (_LATCH_4X4, ComputePreloaded(0, 8, 4, 4, 3, 4))),
    "result rows past the accumulator": ("acc_out_of_range", (Preload(0, ACC_BIT | 254, 4, 4, 4, 4), _COMPUTE)),
    "zeros latched past the accumulator": ("acc_out_of_range", (PreloadZeros(ACC_BIT | 253), _COMPUTE)),
    "weights past the scratchpad": ("spad_out_of_range", (Preload(1021, ACC_BIT, 4, 4, 4, 4),)),
    "load stride not whole elements": ("unsupported", (ConfigLd(6, 0), Mvin(0, DramRef("A", 0), 0, 4, 4))),
    "load stride set on another channel": ("unsupported", (ConfigLd(32, 0), Mvin(2, DramRef("A", 0), 0, 4, 4))),
    "unknown buffer before the local rows": ("dram_out_of_range", (ConfigLd(32, 0),
                                                                   Mvin(0, DramRef("B", 0), 1022, 4, 4))),
    "local rows before the DRAM rows": ("spad_out_of_range", (ConfigLd(32, 0), Mvin(0, DramRef("A", 40), 1022, 4, 4))),
    "accumulator load past its rows": ("acc_out_of_range", (ConfigLd(32, 0),
                                                            Mvin(0, DramRef("A", 0), ACC_BIT | 254, 4, 4))),
    "wide load spans its tiles' rows": ("spad_out_of_range", (ConfigLd(32, 0), Mvin(0, DramRef("A", 0), 1012, 16, 4))),
    "wide store ending at the buffer's end": (None, (ConfigSt(64), Mvout(DramRef("A", 0), ACC_BIT, 16, 3))),
}


@pytest.mark.parametrize("kind, instructions", EDGE_CHECKS.values(), ids=EDGE_CHECKS)
def test_edge_checks_match_the_oracle(kind, instructions) -> None:
    m = edge_machine()
    assert (static_error(m, instructions) or (None, None))[1] == kind
    assert_same_as_oracle(m, instructions)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(
    steps(),
    workloads().map(lambda workload: (machine_for_cases(workload[1], workload[2]), workload[0].instructions)),
    st.builds(mutation_machine, one_field_mutations(), st.integers(0, 2**32 - 1)),
    st.sampled_from([*EDGE_MOVES.values(), *(instructions for _, instructions in EDGE_CHECKS.values())]).map(
        lambda instructions: (edge_machine(), instructions)),
))
def test_run_raises_nothing_on_what_validation_and_the_pass_accept(machine_and_instructions) -> None:
    assert_accepted_prefix_runs(*machine_and_instructions)


# -- which path a move takes -------------------------------------------------------------


def count_row_moves(monkeypatch) -> list:
    """Wrap the row-by-row helper: each move that goes row by row appends itself to the returned list."""
    entered: list = []
    row_moves = machine._row_moves

    def counted(ins, *args):
        entered.append(ins)
        return row_moves(ins, *args)

    monkeypatch.setattr(machine, "_row_moves", counted)
    return entered


def test_every_move_of_the_goldens_and_naive_programs_takes_the_tile_path(monkeypatch) -> None:
    entered = count_row_moves(monkeypatch)
    moves_run = 0
    for name in sorted(KERNELS):
        spec = kernel(name)
        for text in (golden_program(name), naive_program(golden_program(name))):
            program = parse_program(text, spec.buffer_shapes())
            machine.execute(machine_for_cases(spec, generate_testcases(spec, seed=1, count=5)), program)
            moves_run += sum(isinstance(ins, (Mvin, Mvout)) for ins in program.instructions)
    assert (len(entered), moves_run) == (0, 1380)


def _stored(monkeypatch, stride_bytes: int, offset: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Store three accumulator rows, four wide, into an 8-element buffer with the given stride;
    also whether the store, and nothing else, went row by row."""
    entered = count_row_moves(monkeypatch)
    m = create_machine(MachineConfig(), {"y": (1, 8)})
    m.acc[:3] = np.arange(12, dtype=np.float32).reshape(3, 4) + 1
    store = Mvout(DramRef("y", offset), ACC_BIT, 4, 3)
    machine.run(m, (ConfigSt(stride_bytes), store))
    return m.dram["y"][0], m.acc[:3], entered == [store]


def test_overlapping_store_rows_go_row_by_row_and_the_last_row_wins(monkeypatch) -> None:
    y, acc, by_rows = _stored(monkeypatch, ELEMENT_BYTES, 1)  # pitch 1 < width 4
    assert by_rows
    assert y.tolist() == [0, acc[0, 0], acc[1, 0], *acc[2], 0]


def test_a_store_with_pitch_zero_goes_row_by_row_and_leaves_the_last_row(monkeypatch) -> None:
    y, acc, by_rows = _stored(monkeypatch, 0, 2)
    assert by_rows
    assert y.tolist() == [0, 0, *acc[2], 0, 0]
