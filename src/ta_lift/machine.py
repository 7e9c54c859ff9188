"""Functional simulator for the accelerator.

State is a set of named 2-D float32 DRAM buffers, a scratchpad and an
accumulator (both row-addressed, DIM elements wide), configuration
registers, and the latched weights/output-address pair left by the most
recent preload.  Execution is sequential.

Every execution error depends only on the program, the configuration and
the buffer shapes, never on the data.  So `isa.step` finds it before
anything runs, and hands back each instruction's replay op: the tile
slices, local rows, latch and matmul operands it proved in range.  `run`
only replays ops: slice copies, `+=`, matmuls and `np.maximum`.
`execute` steps a program from the machine's scan state, then replays it.

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
overlapping rows the last one wins (`isa._moves`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .isa import (
    DIM_DEFAULT,
    LOAD_CHANNELS,
    MAX_BLOCK_LEN_DEFAULT,
    RESET_EX,
    ComputeAccumulated,
    ComputePreloaded,
    ConfigEx,
    ConfigLd,
    ConfigSt,
    ExecError,  # machine.ExecError, as callers catch it
    Fence,
    Mvin,
    Mvout,
    Preload,
    PreloadZeros,
    Program,
    ScanState,
    memory_sizes,
    step,
    validate_program,  # machine.validate_program, as perfbench/tracing.py wraps it
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


def _replay_register(m: Machine, op: tuple) -> None:  # config_ex and config_st
    setattr(m, op[1], op[2])


def _replay_config_ld(m: Machine, op: tuple) -> None:
    m.ld_strides[op[1]] = op[2]


def _buffer(m: Machine, name: str, flat: bool) -> np.ndarray:
    """A DRAM buffer, or a view of it as one row of elements when `flat`."""
    arr = m.dram[name]
    return arr.reshape(arr.shape[:-2] + (1, -1)) if flat else arr


def _replay_mvin(m: Machine, op: tuple) -> None:
    _, to_acc, accumulate, buffer, (rows, flat, blocks) = op
    mem, src = m.acc if to_acc else m.spad, _buffer(m, buffer, flat)
    for local, r, c, width in blocks:
        if accumulate:
            block = mem[..., local : local + rows, :width]
            block += src[..., r : r + rows, c : c + width]
        else:
            mem[..., local : local + rows, :width] = src[..., r : r + rows, c : c + width]


def _replay_mvout(m: Machine, op: tuple) -> None:
    _, buffer, relu, (rows, flat, blocks) = op
    acc, dst = m.acc, _buffer(m, buffer, flat)
    for local, r, c, width in blocks:
        tile = acc[..., local : local + rows, :width]
        if relu:
            np.maximum(tile, np.float32(0.0), out=dst[..., r : r + rows, c : c + width])
        else:
            dst[..., r : r + rows, c : c + width] = tile


def _replay_preload(m: Machine, op: tuple) -> None:
    _, b, b_rows, b_cols, transpose, c_row, c_accumulate, c_cols, c_rows = op
    if b is None:
        weights = m.latched.weights
    else:
        block = m.spad[..., b : b + b_rows, :b_cols]
        weights = block.swapaxes(-1, -2).copy() if transpose else block.copy()
    m.latched = _Latched(weights, c_row, c_accumulate, c_cols, c_rows)


def _replay_preload_zeros(m: Machine, op: tuple) -> None:
    _, c_row, c_accumulate, dim = op
    m.latched = _Latched(np.zeros(m.spad.shape[:-2] + (dim, dim), dtype=np.float32), c_row, c_accumulate, dim, dim)


def _replay_compute(m: Machine, op: tuple) -> None:
    _, a, a_end, a_cols, transpose, d, d_rows, d_cols, c, c_end, c_cols, accumulate = op
    a_raw = m.spad[..., a:a_end, :a_cols]
    # Kept although spad is float32: matmul on the view takes another loop and can differ in the last bit.
    product = (a_raw.swapaxes(-1, -2) if transpose else a_raw).astype(np.float32) @ m.latched.weights
    if d is not None:
        product = product + m.spad[..., d : d + d_rows, :d_cols]
    if accumulate:
        block = m.acc[..., c:c_end, :c_cols]
        block += product
    else:
        m.acc[..., c:c_end, :c_cols] = product


_REPLAYS = {
    ConfigEx: _replay_register,
    ConfigLd: _replay_config_ld,
    ConfigSt: _replay_register,
    Mvin: _replay_mvin,
    Preload: _replay_preload,
    PreloadZeros: _replay_preload_zeros,
    ComputePreloaded: _replay_compute,
    ComputeAccumulated: _replay_compute,
    Mvout: _replay_mvout,
    Fence: lambda m, op: None,  # sequential semantics: nothing outstanding to wait on
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


def run(m: Machine, ops: list[tuple]) -> None:
    """Replay the ops of checked instructions (`isa.step`) on every case at once, checking nothing.

    The step pass must have taken them from the machine's `scan_state`; a replay of its ops raises nothing.
    """
    replays = _REPLAYS
    for op in ops:
        replays[op[0]](m, op)


def scan_state(m: Machine) -> ScanState:
    """The scan state of `m`'s registers and latch, which a step pass over it starts from."""
    lat = m.latched
    if lat is None:
        return ScanState(dict(m.ld_strides), m.st_stride, ex=m.regs)
    latch, result = (lat.c_row, lat.c_rows, lat.c_accumulate), (lat.c_rows, lat.c_cols)
    return ScanState(dict(m.ld_strides), m.st_stride, latch, m.regs, lat.weights.shape[-2:], result)


def execute(m: Machine, p: Program) -> Machine:
    """Step (`isa.step`) a program from the machine's scan state, then replay it on every case at once.

    A `ValidationError` is an `ExecError` too.  A refused program leaves the machine untouched.
    """
    sizes = memory_sizes(m.config, {name: arr.shape[-2:] for name, arr in m.dram.items()})
    run(m, step(p.instructions, m.config, sizes, scan_state(m)))
    return m


def read_output(m: Machine, buffer: str) -> np.ndarray:
    """Return a copy of a DRAM buffer: a (rows, cols) matrix behind the case axes."""
    if buffer not in m.dram:
        raise ShapeMismatch(f"unknown buffer '{buffer}'")
    return m.dram[buffer].copy()
