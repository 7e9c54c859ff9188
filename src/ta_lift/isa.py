"""Instruction set for an idealized weight-stationary systolic-array accelerator.

The accelerator owns two row-addressed local memories: a scratchpad and an
accumulator.  Each row holds DIM 32-bit float elements.  Local addresses are
32-bit words with flag bits in the top three positions:

    bit 31  target/source is the accumulator (0 = scratchpad)
    bit 30  accumulate-on-write (accumulator writes only; 0 = overwrite)
    bit 29  read-full-width (accumulator reads only; skips activation)
    bits 28..0  row index

The value 0xffffffff is reserved as a sentinel: as a preload weight operand
it means "keep the previously latched weights", as a compute bias operand it
means "no bias".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

DIM_DEFAULT = 4
SENTINEL = 0xFFFFFFFF

_ACC_BIT = 1 << 31
_ACCUMULATE_BIT = 1 << 30
_FULL_WIDTH_BIT = 1 << 29
_ROW_MASK = (1 << 29) - 1


class Space(Enum):
    SCRATCHPAD = "scratchpad"
    ACCUMULATOR = "accumulator"


class Dataflow(Enum):
    WEIGHT_STATIONARY = "WEIGHT_STATIONARY"
    OUTPUT_STATIONARY = "OUTPUT_STATIONARY"


class Activation(Enum):
    NONE = "NO_ACTIVATION"
    RELU = "RELU"
    LAYERNORM = "LAYERNORM"
    IGELU = "IGELU"
    SOFTMAX = "SOFTMAX"


class AddressError(ValueError):
    """Raised for local addresses that cannot be encoded in 32 bits."""


def encode_local_addr(space: Space, accumulate: bool, full_width: bool, row: int) -> int:
    """Pack a local address into its raw 32-bit form."""
    if row < 0 or row > _ROW_MASK:
        raise AddressError(f"row {row} outside 29-bit range")
    raw = row
    if space is Space.ACCUMULATOR:
        raw |= _ACC_BIT
    if accumulate:
        raw |= _ACCUMULATE_BIT
    if full_width:
        raw |= _FULL_WIDTH_BIT
    return raw


@dataclass(frozen=True)
class LocalAddr:
    """A raw 32-bit local address; flag bits are exposed as properties."""

    raw: int

    def __post_init__(self) -> None:
        if self.raw < 0 or self.raw > 0xFFFFFFFF:
            raise AddressError(f"local address {self.raw:#x} outside 32-bit range")

    @staticmethod
    def make(space: Space, row: int, accumulate: bool = False, full_width: bool = False) -> "LocalAddr":
        return LocalAddr(encode_local_addr(space, accumulate, full_width, row))

    @property
    def space(self) -> Space:
        return Space.ACCUMULATOR if self.raw & _ACC_BIT else Space.SCRATCHPAD

    @property
    def accumulate(self) -> bool:
        return bool(self.raw & _ACCUMULATE_BIT)

    @property
    def full_width(self) -> bool:
        return bool(self.raw & _FULL_WIDTH_BIT)

    @property
    def row(self) -> int:
        return self.raw & _ROW_MASK

    @property
    def is_sentinel(self) -> bool:
        return self.raw == SENTINEL


@dataclass(frozen=True)
class DramRef:
    """A DRAM operand: a named buffer plus an element offset (4-byte units)."""

    buffer: str
    offset: int = 0


@dataclass(frozen=True)
class ConfigEx:
    dataflow: Dataflow
    act: Activation
    a_transpose: bool
    b_transpose: bool


@dataclass(frozen=True)
class ConfigLd:
    stride_bytes: int
    channel: int


@dataclass(frozen=True)
class ConfigSt:
    stride_bytes: int


@dataclass(frozen=True)
class Mvin:
    channel: int
    dram: DramRef
    local: LocalAddr
    cols: int
    rows: int


@dataclass(frozen=True)
class Preload:
    b: LocalAddr
    c: LocalAddr
    b_cols: int
    b_rows: int
    c_cols: int
    c_rows: int


@dataclass(frozen=True)
class PreloadZeros:
    c: LocalAddr


@dataclass(frozen=True)
class ComputePreloaded:
    a: LocalAddr
    d: LocalAddr
    a_cols: int
    a_rows: int
    d_cols: int
    d_rows: int


@dataclass(frozen=True)
class ComputeAccumulated:
    a: LocalAddr
    d: LocalAddr
    a_cols: int
    a_rows: int
    d_cols: int
    d_rows: int


@dataclass(frozen=True)
class Mvout:
    dram: DramRef
    local: LocalAddr
    cols: int
    rows: int


@dataclass(frozen=True)
class Fence:
    pass


Instruction = (
    ConfigEx
    | ConfigLd
    | ConfigSt
    | Mvin
    | Preload
    | PreloadZeros
    | ComputePreloaded
    | ComputeAccumulated
    | Mvout
    | Fence
)


@dataclass
class Program:
    """A parsed program: instructions plus the symbols and buffers it was parsed with."""

    instructions: tuple[Instruction, ...]
    buffers: dict[str, tuple[int, int]] = field(default_factory=dict)
    symbols: dict[str, int] = field(default_factory=dict)


class ValidationError(ValueError):
    """A structurally invalid instruction, with its index in the program."""

    def __init__(self, index: int, kind: str, message: str):
        super().__init__(f"instruction {index}: {kind}: {message}")
        self.index = index
        self.kind = kind
        self.detail = message


def validate_program(p: Program, dim: int = DIM_DEFAULT, max_block_len: int = 4) -> None:
    """Check per-instruction structural constraints (sizes and address spaces).

    Memory bounds and stateful rules (preload-before-compute, stride setup)
    are the simulator's job; this covers everything checkable per instruction.
    """
    for idx, ins in enumerate(p.instructions):
        if isinstance(ins, Mvin):
            if ins.rows < 1 or ins.rows > dim:
                raise ValidationError(idx, "rows_exceed_dim", f"mvin rows {ins.rows} not in 1..{dim}")
            if ins.cols < 1 or ins.cols > dim * max_block_len:
                raise ValidationError(idx, "block_too_wide", f"mvin cols {ins.cols} not in 1..{dim * max_block_len}")
        elif isinstance(ins, Mvout):
            if ins.rows < 1 or ins.rows > dim:
                raise ValidationError(idx, "rows_exceed_dim", f"mvout rows {ins.rows} not in 1..{dim}")
            if ins.cols < 1 or ins.cols > dim * max_block_len:
                raise ValidationError(idx, "block_too_wide", f"mvout cols {ins.cols} not in 1..{dim * max_block_len}")
            if ins.local.space is not Space.ACCUMULATOR:
                raise ValidationError(idx, "wrong_address_space", "mvout must read the accumulator")
        elif isinstance(ins, Preload):
            for label, v in (("b_cols", ins.b_cols), ("b_rows", ins.b_rows), ("c_cols", ins.c_cols), ("c_rows", ins.c_rows)):
                if v < 1 or v > dim:
                    raise ValidationError(idx, "dimension_mismatch", f"preload {label}={v} not in 1..{dim}")
            if not ins.b.is_sentinel and ins.b.space is not Space.SCRATCHPAD:
                raise ValidationError(idx, "wrong_address_space", "preload weights must come from the scratchpad")
            if ins.c.space is not Space.ACCUMULATOR:
                raise ValidationError(idx, "wrong_address_space", "preload output must target the accumulator")
        elif isinstance(ins, PreloadZeros):
            if ins.c.space is not Space.ACCUMULATOR:
                raise ValidationError(idx, "wrong_address_space", "preload_zeros output must target the accumulator")
        elif isinstance(ins, (ComputePreloaded, ComputeAccumulated)):
            for label, v in (("a_cols", ins.a_cols), ("a_rows", ins.a_rows), ("d_cols", ins.d_cols), ("d_rows", ins.d_rows)):
                if v < 1 or v > dim:
                    raise ValidationError(idx, "dimension_mismatch", f"compute {label}={v} not in 1..{dim}")
            if ins.a.space is not Space.SCRATCHPAD:
                raise ValidationError(idx, "wrong_address_space", "compute operand A must live in the scratchpad")
            if not ins.d.is_sentinel and ins.d.space is not Space.SCRATCHPAD:
                raise ValidationError(idx, "wrong_address_space", "compute bias must live in the scratchpad")
        elif isinstance(ins, ConfigLd):
            if ins.channel not in (0, 1, 2):
                raise ValidationError(idx, "unsupported", f"config_ld channel {ins.channel} not in 0..2")
            if ins.stride_bytes < 0:
                raise ValidationError(idx, "unsupported", "config_ld stride must be non-negative")
        elif isinstance(ins, ConfigSt):
            if ins.stride_bytes < 0:
                raise ValidationError(idx, "unsupported", "config_st stride must be non-negative")
