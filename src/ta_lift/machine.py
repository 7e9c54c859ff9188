"""Functional simulator for the accelerator.

State is a set of named 2-D float32 DRAM buffers, a scratchpad and an
accumulator (both row-addressed, DIM elements wide), configuration
registers, and the latched weights/output-address pair left by the most
recent preload.  Execution is sequential; every error carries the index of
the offending instruction.

A machine may hold a batch of cases: every array of data state (DRAM
buffers, scratchpad, accumulator, latched weights) then carries the case
axes in front, and each instruction runs once for all cases.  Every check
depends only on the program and the configuration, never on the data, so a
batched run fails exactly where each of its cases would fail alone.

A move whose rows are rows of its DRAM buffer (the pitch is the buffer's
row length and the block lies inside the buffer) copies each DIM-wide tile
with one 2-D slice.  Every other move goes row by row and checks each row
before it moves, so a wrapped or overlapping block fails at the same row.
Executors test the bits of local addresses, plain ints, as `isa` lays them out.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .isa import (
    ACC_BIT,
    ACCUMULATE_BIT,
    DIM_DEFAULT,
    ELEMENT_BYTES,
    FULL_WIDTH_BIT,
    LOAD_CHANNELS,
    MAX_BLOCK_LEN_DEFAULT,
    ROW_MASK,
    SENTINEL,
    Activation,
    ComputeAccumulated,
    ComputePreloaded,
    ConfigEx,
    ConfigLd,
    ConfigSt,
    Dataflow,
    Fence,
    Instruction,
    Mvin,
    Mvout,
    Preload,
    PreloadZeros,
    Program,
    ValidationError,
    validate_program,
)


class ConfigInvalid(ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


class ExecError(Exception):
    """Execution failure at a specific instruction."""

    def __init__(self, index: int, kind: str, message: str):
        super().__init__(f"instruction {index}: {kind}: {message}")
        self.index = index
        self.kind = kind
        self.detail = message


@dataclass(frozen=True)
class MachineConfig:
    dim: int = DIM_DEFAULT
    spad_rows: int = 1024
    acc_rows: int = 256
    max_block_len: int = MAX_BLOCK_LEN_DEFAULT

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigInvalid(f"dim must be at least 1, got {self.dim}")
        if self.spad_rows < self.dim or self.acc_rows < self.dim:
            raise ConfigInvalid("local memories must hold at least one full tile of rows")
        if self.max_block_len < 1:
            raise ConfigInvalid("max_block_len must be at least 1")


@dataclass
class _Latched:
    weights: np.ndarray  # post-transpose W block, behind the case axes
    c_row: int
    c_accumulate: bool
    c_cols: int
    c_rows: int


@dataclass
class Machine:
    config: MachineConfig
    dram: dict[str, np.ndarray]
    spad: np.ndarray
    acc: np.ndarray
    regs: ConfigEx = ConfigEx(Dataflow.WEIGHT_STATIONARY, Activation.NONE, False, False)  # the last config_ex
    ld_strides: dict[int, int | None] = field(default_factory=lambda: dict.fromkeys(LOAD_CHANNELS))
    st_stride: int | None = None
    latched: _Latched | None = None

    def copy(self) -> Machine:
        """An independent copy: the two machines share no array and no stride table."""
        latched = self.latched
        if latched is not None:
            latched = replace(latched, weights=latched.weights.copy())
        return Machine(
            self.config,
            {name: arr.copy() for name, arr in self.dram.items()},
            self.spad.copy(),
            self.acc.copy(),
            self.regs,
            dict(self.ld_strides),
            self.st_stride,
            latched,
        )


def create_machine(
    cfg: MachineConfig | None,
    shapes: dict[str, tuple[int, int]],
    contents: dict[str, np.ndarray] | None = None,
) -> Machine:
    """Build a machine with the given DRAM buffers.

    Buffers named in `shapes` but absent from `contents` start zeroed.  Each
    content array is a (rows, cols) matrix with the same leading case axes
    as every other content array; those axes become the machine's batch
    shape, which is empty for plain matrices.
    """
    cfg = cfg or MachineConfig()
    contents = contents or {}
    for name in contents:
        if name not in shapes:
            raise ShapeMismatch(f"contents given for undeclared buffer '{name}'")
    arrays: dict[str, np.ndarray] = {}
    batch: tuple[int, ...] | None = None
    for name, (rows, cols) in shapes.items():
        if rows < 1 or cols < 1:
            raise ShapeMismatch(f"buffer '{name}' has degenerate shape ({rows}, {cols})")
        if name in contents:
            arr = np.array(contents[name], dtype=np.float32)
            if arr.shape[-2:] != (rows, cols):
                raise ShapeMismatch(f"buffer '{name}' expects shape ({rows}, {cols}), got {arr.shape}")
            if batch is not None and arr.shape[:-2] != batch:
                raise ShapeMismatch(f"buffer '{name}' has case shape {arr.shape[:-2]} but earlier contents have {batch}")
            batch = arr.shape[:-2]
            arrays[name] = arr
    batch = batch or ()
    dram = {
        name: arrays[name] if name in arrays else np.zeros(batch + shape, dtype=np.float32)
        for name, shape in shapes.items()
    }
    spad = np.zeros(batch + (cfg.spad_rows, cfg.dim), dtype=np.float32)
    acc = np.zeros(batch + (cfg.acc_rows, cfg.dim), dtype=np.float32)
    return Machine(cfg, dram, spad, acc)


def _stride_elems(m: Machine, idx: int, stride_bytes: int | None, what: str) -> int:
    if stride_bytes is None:
        raise ExecError(idx, "unsupported", f"{what} stride used before being configured")
    if stride_bytes % ELEMENT_BYTES != 0:
        raise ExecError(idx, "unsupported", f"{what} stride {stride_bytes} is not a multiple of {ELEMENT_BYTES}")
    return stride_bytes // ELEMENT_BYTES


def _rows_error(idx: int, acc_bit: int, row: int, nrows: int, limit: int) -> ExecError:
    kind = "acc_out_of_range" if acc_bit else "spad_out_of_range"
    return ExecError(idx, kind, f"rows [{row}, {row + nrows}) exceed {limit}")


def _dram(m: Machine, idx: int, buffer: str) -> np.ndarray:
    arr = m.dram.get(buffer)
    if arr is None:
        raise ExecError(idx, "dram_out_of_range", f"unknown buffer '{buffer}'")
    return arr


def _tile_origin(arr: np.ndarray, offset: int, pitch: int, cols: int, rows: int) -> tuple[int, int] | None:
    """The (row, column) a move starts at when each of its rows lies inside one row
    of the buffer, so each tile is a 2-D slice; None when it must go row by row."""
    buf_rows, buf_cols = arr.shape[-2:]
    r0, c0 = divmod(offset, buf_cols)
    if pitch == buf_cols and offset >= 0 and c0 + cols <= buf_cols and 0 < rows <= buf_rows - r0:
        return r0, c0
    return None


def _row_moves(
    idx: int, ins: Mvin | Mvout, pitch: int, size: int, dim: int, verb: str
) -> Iterator[tuple[int, int, int]]:
    """A move one row at a time, in order: (local row, first DRAM element, width),
    each checked against the buffer's `size` elements before it is given."""
    base_row = ins.local & ROW_MASK
    for t in range((ins.cols + dim - 1) // dim):
        width = min(dim, ins.cols - t * dim)
        for r in range(ins.rows):
            start = ins.dram.offset + r * pitch + t * dim
            if start < 0 or start + width > size:
                message = f"{verb} [{start}, {start + width}) exceeds buffer '{ins.dram.buffer}' of {size} elements"
                raise ExecError(idx, "dram_out_of_range", message)
            yield base_row + t * dim + r, start, width


def _exec_config_ex(m: Machine, idx: int, ins: ConfigEx) -> None:
    m.regs = ins


def _exec_config_ld(m: Machine, idx: int, ins: ConfigLd) -> None:
    m.ld_strides[ins.channel] = ins.stride_bytes


def _exec_config_st(m: Machine, idx: int, ins: ConfigSt) -> None:
    m.st_stride = ins.stride_bytes


def _exec_fence(m: Machine, idx: int, ins: Fence) -> None:
    pass  # sequential semantics: nothing outstanding to wait on


def _exec_mvin(m: Machine, idx: int, ins: Mvin) -> None:
    dim, cols, rows, raw = m.config.dim, ins.cols, ins.rows, ins.local
    pitch = _stride_elems(m, idx, m.ld_strides.get(ins.channel), f"load channel {ins.channel}")
    arr = _dram(m, idx, ins.dram.buffer)
    row, to_acc = raw & ROW_MASK, raw & ACC_BIT
    limit = m.config.acc_rows if to_acc else m.config.spad_rows
    nrows = ((cols + dim - 1) // dim - 1) * dim + rows
    if row + nrows > limit:
        raise _rows_error(idx, to_acc, row, nrows, limit)
    mem = m.acc if to_acc else m.spad
    accumulate = to_acc and raw & ACCUMULATE_BIT
    origin = _tile_origin(arr, ins.dram.offset, pitch, cols, rows)
    if origin is None:
        flat = arr.reshape(arr.shape[:-2] + (-1,))
        for dst, src, width in _row_moves(idx, ins, pitch, flat.shape[-1], dim, "read"):
            if accumulate:
                mem[..., dst, :width] += flat[..., src : src + width]
            else:
                mem[..., dst, :width] = flat[..., src : src + width]
        return
    r0, c0 = origin
    for t in range(0, cols, dim):  # a tile's first column, and its first local row past `row`
        width = min(dim, cols - t)
        tile = arr[..., r0 : r0 + rows, c0 + t : c0 + t + width]
        if accumulate:
            mem[..., row + t : row + t + rows, :width] += tile
        else:
            mem[..., row + t : row + t + rows, :width] = tile


def _exec_preload(m: Machine, idx: int, ins: Preload) -> None:
    b = ins.b
    if b != SENTINEL:
        row, limit = b & ROW_MASK, m.config.spad_rows
        if row + ins.b_rows > limit:
            raise _rows_error(idx, 0, row, ins.b_rows, limit)
        block = m.spad[..., row : row + ins.b_rows, : ins.b_cols]
        weights = block.swapaxes(-1, -2).copy() if m.regs.b_transpose else block.copy()
    else:
        if m.latched is None:
            raise ExecError(idx, "compute_before_preload", "keep-weights preload with no previously latched weights")
        weights = m.latched.weights
    c = ins.c
    m.latched = _Latched(weights, c & ROW_MASK, bool(c & ACCUMULATE_BIT), ins.c_cols, ins.c_rows)


def _exec_preload_zeros(m: Machine, idx: int, ins: PreloadZeros) -> None:
    dim, c = m.config.dim, ins.c
    weights = np.zeros(m.spad.shape[:-2] + (dim, dim), dtype=np.float32)
    m.latched = _Latched(weights, c & ROW_MASK, bool(c & ACCUMULATE_BIT), dim, dim)


def _exec_compute(m: Machine, idx: int, ins: ComputePreloaded | ComputeAccumulated) -> None:
    regs = m.regs
    if regs.dataflow is not Dataflow.WEIGHT_STATIONARY:
        raise ExecError(idx, "unsupported", f"dataflow {regs.dataflow.value} is parse-only")
    if regs.act is not Activation.NONE and regs.act is not Activation.RELU:
        raise ExecError(idx, "unsupported", f"activation {regs.act.value} is parse-only")
    lat = m.latched
    if lat is None:
        raise ExecError(idx, "compute_before_preload", "compute issued before any preload")
    spad_rows = m.config.spad_rows
    row = ins.a & ROW_MASK
    if row + ins.a_rows > spad_rows:
        raise _rows_error(idx, 0, row, ins.a_rows, spad_rows)
    a_raw = m.spad[..., row : row + ins.a_rows, : ins.a_cols]
    a_eff = a_raw.swapaxes(-1, -2) if regs.a_transpose else a_raw
    a_rows, a_cols = a_eff.shape[-2:]
    w_rows, w_cols = lat.weights.shape[-2:]
    if a_cols != w_rows:
        raise ExecError(idx, "dimension_mismatch", f"A is {a_rows}x{a_cols} but weights are {w_rows}x{w_cols}")
    if a_rows != lat.c_rows or w_cols != lat.c_cols:
        message = f"result is {a_rows}x{w_cols} but the preload latched {lat.c_rows}x{lat.c_cols}"
        raise ExecError(idx, "dimension_mismatch", message)
    # Kept although spad is float32: matmul on the view takes another loop and can differ in the last bit.
    product = a_eff.astype(np.float32) @ lat.weights
    d = ins.d
    if d == SENTINEL:
        biased = product
    else:
        row = d & ROW_MASK
        if row + ins.d_rows > spad_rows:
            raise _rows_error(idx, 0, row, ins.d_rows, spad_rows)
        if ins.d_rows != lat.c_rows or ins.d_cols != lat.c_cols:
            message = f"bias is {ins.d_rows}x{ins.d_cols} but the result is {lat.c_rows}x{lat.c_cols}"
            raise ExecError(idx, "dimension_mismatch", message)
        biased = product + m.spad[..., row : row + ins.d_rows, : ins.d_cols]
    row, acc_rows = lat.c_row, m.config.acc_rows
    if row + lat.c_rows > acc_rows:
        raise _rows_error(idx, ACC_BIT, row, lat.c_rows, acc_rows)
    if lat.c_accumulate or type(ins) is ComputeAccumulated:
        m.acc[..., row : row + lat.c_rows, : lat.c_cols] += biased
    else:
        m.acc[..., row : row + lat.c_rows, : lat.c_cols] = biased


def _exec_mvout(m: Machine, idx: int, ins: Mvout) -> None:
    dim, cols, rows, raw, act = m.config.dim, ins.cols, ins.rows, ins.local, m.regs.act
    pitch = _stride_elems(m, idx, m.st_stride, "store")
    if act is not Activation.NONE and act is not Activation.RELU and not raw & FULL_WIDTH_BIT:
        raise ExecError(idx, "unsupported", f"activation {act.value} is parse-only")
    arr = _dram(m, idx, ins.dram.buffer)
    row, limit = raw & ROW_MASK, m.config.acc_rows
    nrows = ((cols + dim - 1) // dim - 1) * dim + rows
    if row + nrows > limit:
        raise _rows_error(idx, ACC_BIT, row, nrows, limit)
    relu = act is Activation.RELU and not raw & FULL_WIDTH_BIT
    origin = _tile_origin(arr, ins.dram.offset, pitch, cols, rows)
    if origin is None:  # rows that overlap (pitch < width) are written in order: the last one wins
        flat = arr.reshape(arr.shape[:-2] + (-1,))
        for src, dst, width in _row_moves(idx, ins, pitch, flat.shape[-1], dim, "write"):
            values = m.acc[..., src, :width]
            flat[..., dst : dst + width] = np.maximum(values, np.float32(0.0)) if relu else values
        return
    r0, c0 = origin
    for t in range(0, cols, dim):  # a tile's first column, and its first accumulator row past `row`
        width = min(dim, cols - t)
        tile = m.acc[..., row + t : row + t + rows, :width]
        if relu:
            np.maximum(tile, np.float32(0.0), out=arr[..., r0 : r0 + rows, c0 + t : c0 + t + width])
        else:
            arr[..., r0 : r0 + rows, c0 + t : c0 + t + width] = tile


_EXECUTORS = {
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


def run(m: Machine, instructions: tuple[Instruction, ...], start: int = 0, stop: int | None = None) -> None:
    """Run `instructions[start:stop]` on every case at once, without validating them.

    Each keeps its index in the whole sequence, so an `ExecError` names the
    same instruction as a run from the start would.
    """
    for idx, ins in enumerate(instructions[start:stop], start):
        _EXECUTORS[type(ins)](m, idx, ins)


def execute(m: Machine, p: Program) -> Machine:
    """Validate a program, then run it to completion on every case at once, mutating and returning the machine."""
    try:
        validate_program(p, dim=m.config.dim, max_block_len=m.config.max_block_len)
    except ValidationError as e:
        raise ExecError(e.index, e.kind, e.detail) from None
    run(m, p.instructions)
    return m


def read_output(m: Machine, buffer: str) -> np.ndarray:
    """Return a copy of a DRAM buffer: a (rows, cols) matrix behind the case axes."""
    if buffer not in m.dram:
        raise ShapeMismatch(f"unknown buffer '{buffer}'")
    return m.dram[buffer].copy()
