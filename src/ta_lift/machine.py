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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .isa import (
    DIM_DEFAULT,
    ELEMENT_BYTES,
    LOAD_CHANNELS,
    MAX_BLOCK_LEN_DEFAULT,
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
    Space,
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
    space = ins.local.space
    mem = m.acc if space is Space.ACCUMULATOR else m.spad
    tiles = (ins.cols + dim - 1) // dim
    base_row = ins.local.row
    _check_local_rows(m, idx, space, base_row, (tiles - 1) * dim + ins.rows)
    accumulate = space is Space.ACCUMULATOR and ins.local.accumulate
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
    if not ins.b.is_sentinel:
        _check_local_rows(m, idx, Space.SCRATCHPAD, ins.b.row, ins.b_rows)
        block = m.spad[..., ins.b.row : ins.b.row + ins.b_rows, : ins.b_cols].copy()
        weights = block.swapaxes(-1, -2).copy() if m.regs.b_transpose else block
    else:
        if m.latched is None:
            raise ExecError(idx, "compute_before_preload", "keep-weights preload with no previously latched weights")
        weights = m.latched.weights
    m.latched = _Latched(
        weights=weights,
        c_row=ins.c.row,
        c_accumulate=ins.c.accumulate,
        c_cols=ins.c_cols,
        c_rows=ins.c_rows,
    )


def _exec_preload_zeros(m: Machine, idx: int, ins: PreloadZeros) -> None:
    dim = m.config.dim
    m.latched = _Latched(
        weights=np.zeros(m.spad.shape[:-2] + (dim, dim), dtype=np.float32),
        c_row=ins.c.row,
        c_accumulate=ins.c.accumulate,
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
    _check_local_rows(m, idx, Space.SCRATCHPAD, ins.a.row, ins.a_rows)
    a_raw = m.spad[..., ins.a.row : ins.a.row + ins.a_rows, : ins.a_cols]
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
    if ins.d.is_sentinel:
        biased = product
    else:
        _check_local_rows(m, idx, Space.SCRATCHPAD, ins.d.row, ins.d_rows)
        if (ins.d_rows, ins.d_cols) != (lat.c_rows, lat.c_cols):
            raise ExecError(
                idx,
                "dimension_mismatch",
                f"bias is {ins.d_rows}x{ins.d_cols} but the result is {lat.c_rows}x{lat.c_cols}",
            )
        biased = product + m.spad[..., ins.d.row : ins.d.row + ins.d_rows, : ins.d_cols]
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
    if m.regs.act not in (Activation.NONE, Activation.RELU) and not ins.local.full_width:
        raise ExecError(idx, "unsupported", f"activation {m.regs.act.value} is parse-only")
    flat = _dram_flat(m, idx, ins.dram.buffer)
    size = flat.shape[-1]
    tiles = (ins.cols + dim - 1) // dim
    base_row = ins.local.row
    _check_local_rows(m, idx, Space.ACCUMULATOR, base_row, (tiles - 1) * dim + ins.rows)
    apply_relu = m.regs.act is Activation.RELU and not ins.local.full_width
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
