"""Functional simulator for the accelerator.

State is a set of named 2-D float32 DRAM buffers, a scratchpad and an
accumulator (both row-addressed, DIM elements wide), configuration
registers, and the latched weights/output-address pair left by the most
recent preload.  Execution is sequential.

The executors only move data.  Every execution error depends only on the
program, the configuration and the buffer shapes, never on the data, so
`isa.check_execution` finds it before anything runs; `execute` validates,
checks, then runs, and `run` checks nothing.

A machine may hold a batch of cases: every array of data state (DRAM
buffers, scratchpad, accumulator, latched weights) then carries the case
axes in front, and each instruction runs once for all cases.  `repeat`
puts copies of a machine on a new leading axis; `slices` gives one machine
per index of that axis over views of its arrays, so that instructions which
differ per index run on their own slice, and `join` takes the slices'
registers and latched weights back.

A move whose rows are rows of its DRAM buffer (the pitch is the buffer's
row length and the block lies inside the buffer) copies each DIM-wide tile
with one 2-D slice.  Every other move goes row by row, in order, so of
overlapping rows the last one wins.  Executors test the bits of local
addresses, plain ints, as `isa` lays them out.
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
    RESET_EX,
    ROW_MASK,
    SENTINEL,
    Activation,
    ComputeAccumulated,
    ComputePreloaded,
    ConfigEx,
    ConfigLd,
    ConfigSt,
    ExecError,  # machine.ExecError, as callers catch it
    Fence,
    Instruction,
    Mvin,
    Mvout,
    Preload,
    PreloadZeros,
    Program,
    ScanState,
    check_execution,
    validate_program,
)


class ConfigInvalid(ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


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
    regs: ConfigEx = RESET_EX  # the last config_ex
    ld_strides: dict[int, int | None] = field(default_factory=lambda: dict.fromkeys(LOAD_CHANNELS))
    st_stride: int | None = None
    latched: _Latched | None = None


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


def _tile_origin(arr: np.ndarray, offset: int, pitch: int, cols: int) -> tuple[int, int] | None:
    """The (row, column) a checked move starts at when each of its rows lies inside one
    row of the buffer, so each tile is a 2-D slice; None when it must go row by row."""
    buf_cols = arr.shape[-1]
    r0, c0 = divmod(offset, buf_cols)
    return (r0, c0) if pitch == buf_cols and c0 + cols <= buf_cols else None


def _row_moves(ins: Mvin | Mvout, pitch: int, dim: int) -> Iterator[tuple[int, int, int]]:
    """A move one row at a time, in order: (local row, first DRAM element, width)."""
    base_row = ins.local & ROW_MASK
    for t in range((ins.cols + dim - 1) // dim):
        width = min(dim, ins.cols - t * dim)
        for r in range(ins.rows):
            yield base_row + t * dim + r, ins.dram.offset + r * pitch + t * dim, width


def _exec_config_ex(m: Machine, ins: ConfigEx) -> None:
    m.regs = ins


def _exec_config_ld(m: Machine, ins: ConfigLd) -> None:
    m.ld_strides[ins.channel] = ins.stride_bytes


def _exec_config_st(m: Machine, ins: ConfigSt) -> None:
    m.st_stride = ins.stride_bytes


def _exec_fence(m: Machine, ins: Fence) -> None:
    pass  # sequential semantics: nothing outstanding to wait on


def _exec_mvin(m: Machine, ins: Mvin) -> None:
    dim, cols, rows, raw = m.config.dim, ins.cols, ins.rows, ins.local
    pitch = m.ld_strides[ins.channel] // ELEMENT_BYTES
    arr = m.dram[ins.dram.buffer]
    row, to_acc = raw & ROW_MASK, raw & ACC_BIT
    mem = m.acc if to_acc else m.spad
    accumulate = to_acc and raw & ACCUMULATE_BIT
    origin = _tile_origin(arr, ins.dram.offset, pitch, cols)
    if origin is None:
        flat = arr.reshape(arr.shape[:-2] + (-1,))
        for dst, src, width in _row_moves(ins, pitch, dim):
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


def _exec_preload(m: Machine, ins: Preload) -> None:
    b = ins.b
    if b == SENTINEL:
        weights = m.latched.weights
    else:
        row = b & ROW_MASK
        block = m.spad[..., row : row + ins.b_rows, : ins.b_cols]
        weights = block.swapaxes(-1, -2).copy() if m.regs.b_transpose else block.copy()
    c = ins.c
    m.latched = _Latched(weights, c & ROW_MASK, bool(c & ACCUMULATE_BIT), ins.c_cols, ins.c_rows)


def _exec_preload_zeros(m: Machine, ins: PreloadZeros) -> None:
    dim, c = m.config.dim, ins.c
    weights = np.zeros(m.spad.shape[:-2] + (dim, dim), dtype=np.float32)
    m.latched = _Latched(weights, c & ROW_MASK, bool(c & ACCUMULATE_BIT), dim, dim)


def _exec_compute(m: Machine, ins: ComputePreloaded | ComputeAccumulated) -> None:
    lat, row = m.latched, ins.a & ROW_MASK
    a_raw = m.spad[..., row : row + ins.a_rows, : ins.a_cols]
    a_eff = a_raw.swapaxes(-1, -2) if m.regs.a_transpose else a_raw
    # Kept although spad is float32: matmul on the view takes another loop and can differ in the last bit.
    product = a_eff.astype(np.float32) @ lat.weights
    d = ins.d
    if d != SENTINEL:
        row = d & ROW_MASK
        product = product + m.spad[..., row : row + ins.d_rows, : ins.d_cols]
    row = lat.c_row
    if lat.c_accumulate or type(ins) is ComputeAccumulated:
        m.acc[..., row : row + lat.c_rows, : lat.c_cols] += product
    else:
        m.acc[..., row : row + lat.c_rows, : lat.c_cols] = product


def _exec_mvout(m: Machine, ins: Mvout) -> None:
    dim, cols, rows, raw, act = m.config.dim, ins.cols, ins.rows, ins.local, m.regs.act
    pitch = m.st_stride // ELEMENT_BYTES
    arr = m.dram[ins.dram.buffer]
    row = raw & ROW_MASK
    relu = act is Activation.RELU and not raw & FULL_WIDTH_BIT
    origin = _tile_origin(arr, ins.dram.offset, pitch, cols)
    if origin is None:  # rows that overlap (pitch < width) are written in order: the last one wins
        flat = arr.reshape(arr.shape[:-2] + (-1,))
        for src, dst, width in _row_moves(ins, pitch, dim):
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


def repeat(m: Machine, count: int) -> Machine:
    """`count` copies of `m` on a new leading batch axis, with `m`'s registers.

    Each array is one new C-contiguous array, so each [index] slice of it is contiguous too.
    """

    def stacked(arr: np.ndarray) -> np.ndarray:
        return np.repeat(arr[np.newaxis], count, axis=0)

    lat = m.latched
    return Machine(m.config, {name: stacked(arr) for name, arr in m.dram.items()}, stacked(m.spad), stacked(m.acc),
                   m.regs, dict(m.ld_strides), m.st_stride, lat and replace(lat, weights=stacked(lat.weights)))


def slices(m: Machine) -> list[Machine]:
    """One machine per index of `m`'s leading batch axis, made of views of its [index] slices.

    A move run on one writes through to `m`: every slice is contiguous (`repeat`), and a
    reshape of a contiguous slice is a view.  Each has its own copy of `m`'s registers.
    """
    lat = m.latched
    return [
        Machine(m.config, {name: arr[index] for name, arr in m.dram.items()}, m.spad[index], m.acc[index], m.regs,
                dict(m.ld_strides), m.st_stride,
                lat and _Latched(lat.weights[index], lat.c_row, lat.c_accumulate, lat.c_cols, lat.c_rows))
        for index in range(len(m.spad))
    ]


def join(m: Machine, parts: list[Machine]) -> None:
    """Take back the registers of `slices(m)` after each ran from the same scan state to the same one.

    Their registers then agree, and so does their latch but for its weights.  Those are
    stacked into `m`'s latch unless every part still holds its own slice of it.
    """
    first = parts[0]
    m.regs, m.ld_strides, m.st_stride = first.regs, first.ld_strides, first.st_stride
    if first.latched is not None:
        weights = m.latched and m.latched.weights  # an array of its own: a part's slice of it has it as its base
        if weights is None or any(part.latched.weights.base is not weights for part in parts):
            weights = np.stack([part.latched.weights for part in parts])
        m.latched = replace(first.latched, weights=weights)


def run(m: Machine, instructions: tuple[Instruction, ...], start: int = 0, stop: int | None = None) -> None:
    """Run `instructions[start:stop]` on every case at once, checking nothing.

    They must pass `validate_program` and then `check_execution` from the
    machine's `scan_state`; a run of such instructions raises nothing.
    """
    for ins in instructions[start:stop]:
        _EXECUTORS[type(ins)](m, ins)


def scan_state(m: Machine) -> ScanState:
    """The scan state of `m`'s registers and latch, which `check_execution` starts from."""
    lat = m.latched
    if lat is None:
        return ScanState(dict(m.ld_strides), m.st_stride, ex=m.regs)
    latch, result = (lat.c_row, lat.c_rows, lat.c_accumulate), (lat.c_rows, lat.c_cols)
    return ScanState(dict(m.ld_strides), m.st_stride, latch, m.regs, lat.weights.shape[-2:], result)


def execute(m: Machine, p: Program) -> Machine:
    """Validate, check (`check_execution`), then run a program on every case at once; return the machine.

    A `ValidationError` is an `ExecError` too.  A refused program leaves the machine untouched.
    """
    validate_program(p, dim=m.config.dim, max_block_len=m.config.max_block_len)
    check_execution(p.instructions, m.config, {name: arr.shape[-2:] for name, arr in m.dram.items()}, scan_state(m))
    run(m, p.instructions)
    return m


def read_output(m: Machine, buffer: str) -> np.ndarray:
    """Return a copy of a DRAM buffer: a (rows, cols) matrix behind the case axes."""
    if buffer not in m.dram:
        raise ShapeMismatch(f"unknown buffer '{buffer}'")
    return m.dram[buffer].copy()
