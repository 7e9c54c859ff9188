"""Functional simulator for the accelerator.

A machine holds data only: a set of named 2-D float32 DRAM buffers, a
scratchpad and an accumulator (both row-addressed, DIM elements wide) and
the weights latched by the most recent preload.  The configuration
registers, the strides and the latch's output rows live in the scan state
of `isa.step` alone.  Execution is sequential.

Every execution error depends only on the program, the configuration and
the buffer shapes, never on the data.  So `isa.step` finds it before
anything runs, and hands back each instruction's replay op: the tile
slices, local rows and matmul operands it proved in range.  `run` only
replays ops: slice copies, `+=`, matmuls and `np.maximum`; a config op
replays as nothing, as a fence does.  `execute` steps a program from a
fresh scan state, then replays it.

A machine may hold a batch of cases: every array (DRAM buffers,
scratchpad, accumulator, latched weights) then carries the case axes in
front, and each instruction runs once for all cases.  `repeat` puts copies
of a machine on a new leading axis; `slices` gives one machine per index
of that axis over views of its arrays, so that instructions which differ
per index run on their own slice, and `join` takes back the weights the
slices latched.

A move whose rows are rows of its DRAM buffer (the pitch is the buffer's
row length and the block lies inside the buffer) copies each DIM-wide tile
with one 2-D slice.  Every other move goes row by row, in order, so of
overlapping rows the last one wins (`isa._moves`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .isa import (
    DIM_DEFAULT,
    MAX_BLOCK_LEN_DEFAULT,
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
class Machine:
    config: MachineConfig
    dram: dict[str, np.ndarray]
    spad: np.ndarray
    acc: np.ndarray
    weights: np.ndarray | None = None  # the latched post-transpose W block, behind the case axes


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
    _, b, b_rows, b_cols, transpose = op
    if b is not None:  # else it keeps the latched weights
        block = m.spad[..., b : b + b_rows, :b_cols]
        m.weights = block.swapaxes(-1, -2).copy() if transpose else block.copy()


def _replay_preload_zeros(m: Machine, op: tuple) -> None:
    m.weights = np.zeros(m.spad.shape[:-2] + (op[1], op[1]), dtype=np.float32)


def _replay_nothing(m: Machine, op: tuple) -> None:
    pass  # a config op moves only the scan state; a fence has nothing outstanding to wait on


def _replay_compute(m: Machine, op: tuple) -> None:
    _, a, a_end, a_cols, transpose, d, d_rows, d_cols, c, c_end, c_cols, accumulate = op
    a_raw = m.spad[..., a:a_end, :a_cols]
    # Kept although spad is float32: matmul on the view takes another loop and can differ in the last bit.
    product = (a_raw.swapaxes(-1, -2) if transpose else a_raw).astype(np.float32) @ m.weights
    if d is not None:
        product = product + m.spad[..., d : d + d_rows, :d_cols]
    if accumulate:
        block = m.acc[..., c:c_end, :c_cols]
        block += product
    else:
        m.acc[..., c:c_end, :c_cols] = product


_REPLAYS = {
    ConfigEx: _replay_nothing,
    ConfigLd: _replay_nothing,
    ConfigSt: _replay_nothing,
    Mvin: _replay_mvin,
    Preload: _replay_preload,
    PreloadZeros: _replay_preload_zeros,
    ComputePreloaded: _replay_compute,
    ComputeAccumulated: _replay_compute,
    Mvout: _replay_mvout,
    Fence: _replay_nothing,
}


def repeat(m: Machine, count: int) -> Machine:
    """`count` copies of `m` on a new leading batch axis.

    Each array is one new C-contiguous array, so each [index] slice of it is contiguous too.
    """

    def stacked(arr: np.ndarray) -> np.ndarray:
        return np.repeat(arr[np.newaxis], count, axis=0)

    return Machine(m.config, {name: stacked(arr) for name, arr in m.dram.items()}, stacked(m.spad), stacked(m.acc),
                   None if m.weights is None else stacked(m.weights))


def slices(m: Machine) -> list[Machine]:
    """One machine per index of `m`'s leading batch axis, made of views of its [index] slices.

    A move run on one writes through to `m`: every slice is contiguous (`repeat`), and a
    reshape of a contiguous slice is a view.
    """
    return [
        Machine(m.config, {name: arr[index] for name, arr in m.dram.items()}, m.spad[index], m.acc[index],
                None if m.weights is None else m.weights[index])
        for index in range(len(m.spad))
    ]


def join(m: Machine, parts: list[Machine]) -> None:
    """Take back the weights latched by `slices(m)` after each ran from the same scan state to the same one.

    Then all of them hold weights or none does.  The weights are stacked into `m` when a part
    latched its own, rather than holding its slice of `m`'s.
    """
    weights = m.weights  # an array of its own: a part's slice of it has it as its base
    if parts[0].weights is not None and (weights is None or any(part.weights.base is not weights for part in parts)):
        m.weights = np.stack([part.weights for part in parts])


def run(m: Machine, ops: list[tuple]) -> None:
    """Replay the ops of checked instructions (`isa.step`) on every case at once, checking nothing.

    The ops must come from a step pass that started in the scan state the machine was left in; a replay of
    them raises nothing.
    """
    replays = _REPLAYS
    for op in ops:
        replays[op[0]](m, op)


def execute(m: Machine, p: Program) -> Machine:
    """Step (`isa.step`) a program from a fresh scan state, then replay it on every case at once.

    A `ValidationError` is an `ExecError` too.  A refused program leaves the machine untouched.
    """
    sizes = memory_sizes(m.config, {name: arr.shape[-2:] for name, arr in m.dram.items()})
    run(m, step(p.instructions, m.config, sizes))
    return m


def read_output(m: Machine, buffer: str) -> np.ndarray:
    """Return a copy of a DRAM buffer: a (rows, cols) matrix behind the case axes."""
    if buffer not in m.dram:
        raise ShapeMismatch(f"unknown buffer '{buffer}'")
    return m.dram[buffer].copy()
