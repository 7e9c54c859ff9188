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

`INSTRUCTIONS` declares each mnemonic once: its constructor, its operands in
text order, the memory its local operands must address, its footprint, the
DRAM bytes it moves and its cost terms.  The parser, the renderer,
`validate_program`, the cost model and the optimizer's footprints all read
that table; `spec_of` finds an instruction's entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache, partial
from math import inf
from operator import attrgetter
from typing import Callable, Iterable

DIM_DEFAULT = 4
MAX_BLOCK_LEN_DEFAULT = 4  # an mvin or mvout moves at most this many DIM-wide tiles
SENTINEL = 0xFFFFFFFF
ELEMENT_BYTES = 4

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


# -- footprints ----------------------------------------------------------------

# A span of state that an instruction reads or writes: (space, start, end),
# end exclusive.  Memory spaces are "spad" and "acc" (rows) and
# "dram:<buffer>" (elements); the registers "reg:ex", "reg:ld0".."reg:ld2",
# "reg:st" and "reg:latch" are one slot wide.
Interval = tuple[str, int, int]
Effects = tuple[list[Interval], list[Interval]]  # (reads, writes)

_FAR = 1 << 40
_EX: Interval = ("reg:ex", 0, 1)
_ST: Interval = ("reg:st", 0, 1)
_LATCH: Interval = ("reg:latch", 0, 1)


@dataclass
class ScanState:
    """Configuration and latch state carried across a left-to-right scan."""

    ld_strides: dict[int, int | None] = field(default_factory=lambda: dict.fromkeys(LOAD_CHANNELS))
    st_stride: int | None = None
    latch: tuple[int, int, bool] | None = None  # (c_row, c_rows, c_accumulate)


def stride_elems(stride_bytes: int | None) -> int | None:
    """A configured stride in elements; None when unset or not whole elements."""
    if stride_bytes is None or stride_bytes % ELEMENT_BYTES != 0:
        return None
    return stride_bytes // ELEMENT_BYTES


def _local_interval(local: LocalAddr, cols: int, rows: int, dim: int) -> Interval:
    tiles = (cols + dim - 1) // dim
    space = "acc" if local.space is Space.ACCUMULATOR else "spad"
    return (space, local.row, local.row + (tiles - 1) * dim + rows)


def _dram_interval(ref: DramRef, cols: int, rows: int, pitch: int | None) -> Interval:
    if pitch is None:
        return (f"dram:{ref.buffer}", 0, _FAR)
    return (f"dram:{ref.buffer}", ref.offset, ref.offset + (rows - 1) * pitch + cols)


# A footprint function gives an instruction's reads and writes, given the
# scan state and DIM, and moves the state past the instruction.


def _no_footprint(ins: Instruction, state: ScanState, dim: int) -> Effects:
    return [], []


def _config_ex_footprint(ins: ConfigEx, state: ScanState, dim: int) -> Effects:
    return [], [_EX]


def _config_ld_footprint(ins: ConfigLd, state: ScanState, dim: int) -> Effects:
    state.ld_strides[ins.channel] = ins.stride_bytes
    return [], [(f"reg:ld{ins.channel}", 0, 1)]


def _config_st_footprint(ins: ConfigSt, state: ScanState, dim: int) -> Effects:
    state.st_stride = ins.stride_bytes
    return [], [_ST]


def _mvin_footprint(ins: Mvin, state: ScanState, dim: int) -> Effects:
    dest = _local_interval(ins.local, ins.cols, ins.rows, dim)
    pitch = stride_elems(state.ld_strides.get(ins.channel))
    reads = [(f"reg:ld{ins.channel}", 0, 1), _dram_interval(ins.dram, ins.cols, ins.rows, pitch)]
    if ins.local.space is Space.ACCUMULATOR and ins.local.accumulate:
        reads.append(dest)
    return reads, [dest]


def _preload_footprint(ins: Preload, state: ScanState, dim: int) -> Effects:
    state.latch = (ins.c.row, ins.c_rows, ins.c.accumulate)
    if ins.b.is_sentinel:
        return [_LATCH], [_LATCH]
    return [_EX, ("spad", ins.b.row, ins.b.row + ins.b_rows)], [_LATCH]


def _preload_zeros_footprint(ins: PreloadZeros, state: ScanState, dim: int) -> Effects:
    state.latch = (ins.c.row, dim, ins.c.accumulate)
    return [], [_LATCH]


def _compute_footprint(
    ins: ComputePreloaded | ComputeAccumulated, state: ScanState, dim: int, accumulated: bool = False
) -> Effects:
    reads = [_LATCH, _EX, ("spad", ins.a.row, ins.a.row + ins.a_rows)]
    if not ins.d.is_sentinel:
        reads.append(("spad", ins.d.row, ins.d.row + ins.d_rows))
    if state.latch is None:
        target, accumulated = ("acc", 0, _FAR), True
    else:
        row, nrows, acc_bit = state.latch
        target, accumulated = ("acc", row, row + nrows), acc_bit or accumulated
    if accumulated:
        reads.append(target)
    return reads, [target]


def _mvout_footprint(ins: Mvout, state: ScanState, dim: int) -> Effects:
    reads = [_ST, _EX, _local_interval(ins.local, ins.cols, ins.rows, dim)]
    return reads, [_dram_interval(ins.dram, ins.cols, ins.rows, stride_elems(state.st_stride))]


# -- the instruction table -------------------------------------------------------------


def _moved_bytes(ins: Mvin | Mvout) -> int:
    return ELEMENT_BYTES * ins.cols * ins.rows


def _nothing(ins: Instruction) -> int:
    return 0


@dataclass(eq=False)
class InstructionSpec:
    """One mnemonic: how it is written, what it touches and what it costs.

    `operands` lists (field, operand kind) pairs in text order.  A kind is
    `dram`, `local` (a local address), `flag`, `dataflow`, `activation`,
    `channel` (any integer) or the name of a count that must be
    non-negative, which parser messages quote and `validate_program` bounds.
    Cost terms: one issue, `bytes_in` + `bytes_out` DRAM bytes moved,
    `fills` pipeline fills and `rows_fed` rows fed through the array.
    """

    mnemonic: str
    type: type
    operands: tuple[tuple[str, str], ...]
    footprint: Callable[[Instruction, ScanState, int], Effects] = _no_footprint
    bytes_in: Callable[[Instruction], int] = _nothing
    bytes_out: Callable[[Instruction], int] = _nothing
    fills: int = 0
    rows_fed: Callable[[Instruction], int] = _nothing
    channel: int | None = None  # the load channel that an mvin mnemonic fixes
    spaces: tuple[tuple[str, Space, bool], ...] = ()  # (local operand, its memory, whether the sentinel may stand)

    def __post_init__(self) -> None:
        # The constructor, taking the operands in text order.
        self.build: Callable[..., Instruction] = self.type if self.channel is None else partial(self.type, self.channel)


_MOVE = (("dram", "dram"), ("local", "local"), ("cols", "cols"), ("rows", "rows"))
_COMPUTE = (("a", "local"), ("d", "local"), ("a_cols", "A_cols"), ("a_rows", "A_rows"),
            ("d_cols", "D_cols"), ("d_rows", "D_rows"))
_PRELOAD = (("b", "local"), ("c", "local"), ("b_cols", "B_cols"), ("b_rows", "B_rows"),
            ("c_cols", "C_cols"), ("c_rows", "C_rows"))
_CONFIG_EX = (("dataflow", "dataflow"), ("act", "activation"), ("a_transpose", "flag"), ("b_transpose", "flag"))
_WEIGHTS = ("b", Space.SCRATCHPAD, True)
_OUTPUT = ("c", Space.ACCUMULATOR, False)
_COMPUTE_SPACES = (("a", Space.SCRATCHPAD, False), ("d", Space.SCRATCHPAD, True))

INSTRUCTIONS: tuple[InstructionSpec, ...] = (
    InstructionSpec("config_ex", ConfigEx, _CONFIG_EX, _config_ex_footprint),
    InstructionSpec("config_ld", ConfigLd, (("stride_bytes", "stride"), ("channel", "channel")), _config_ld_footprint),
    InstructionSpec("config_st", ConfigSt, (("stride_bytes", "stride"),), _config_st_footprint),
    InstructionSpec("mvin", Mvin, _MOVE, _mvin_footprint, bytes_in=_moved_bytes, channel=0),
    InstructionSpec("mvin2", Mvin, _MOVE, _mvin_footprint, bytes_in=_moved_bytes, channel=1),
    InstructionSpec("mvin3", Mvin, _MOVE, _mvin_footprint, bytes_in=_moved_bytes, channel=2),
    InstructionSpec("preload", Preload, _PRELOAD, _preload_footprint, fills=1, spaces=(_WEIGHTS, _OUTPUT)),
    InstructionSpec("preload_zeros", PreloadZeros, (("c", "local"),), _preload_zeros_footprint, fills=1,
                    spaces=(_OUTPUT,)),
    InstructionSpec("compute_preloaded", ComputePreloaded, _COMPUTE, _compute_footprint,
                    rows_fed=attrgetter("a_rows"), spaces=_COMPUTE_SPACES),
    InstructionSpec("compute_accumulated", ComputeAccumulated, _COMPUTE, partial(_compute_footprint, accumulated=True),
                    rows_fed=attrgetter("a_rows"), spaces=_COMPUTE_SPACES),
    InstructionSpec("mvout", Mvout, _MOVE, _mvout_footprint, bytes_out=_moved_bytes,
                    spaces=(("local", Space.ACCUMULATOR, False),)),
    InstructionSpec("fence", Fence, ()),
)

BY_MNEMONIC: dict[str, InstructionSpec] = {spec.mnemonic: spec for spec in INSTRUCTIONS}
_BY_TYPE = {spec.type: spec for spec in INSTRUCTIONS if spec.channel is None}
_MVIN_BY_CHANNEL = {spec.channel: spec for spec in INSTRUCTIONS if spec.channel is not None}
LOAD_CHANNELS: tuple[int, ...] = tuple(_MVIN_BY_CHANNEL)


def spec_of(ins: Instruction) -> InstructionSpec:
    """An instruction's table entry: by type, and by load channel for an mvin."""
    kind = type(ins)
    return _MVIN_BY_CHANNEL[ins.channel] if kind is Mvin else _BY_TYPE[kind]


def footprint(ins: Instruction, state: ScanState, dim: int) -> Effects:
    """What an instruction reads and writes; the scan state moves past it."""
    return spec_of(ins).footprint(ins, state, dim)


# -- validation ------------------------------------------------------------------


@cache
def _rules(dim: int, max_block_len: int) -> dict[type, tuple[str, tuple, tuple]]:
    """Per type: the mnemonic messages name, the bounded fields and the address spaces.

    Bounds come by operand kind; the first mvin entry also bounds the channel the others fix.
    """
    extent = ("dimension_mismatch", 1, dim)
    limits = {
        "rows": ("rows_exceed_dim", 1, dim),
        "cols": ("block_too_wide", 1, dim * max_block_len),
        **dict.fromkeys(("A_cols", "A_rows", "B_cols", "B_rows", "C_cols", "C_rows", "D_cols", "D_rows"), extent),
        "stride": ("unsupported", 0, inf),
        "channel": ("unsupported", min(LOAD_CHANNELS), max(LOAD_CHANNELS)),
    }
    rules: dict[type, tuple[str, tuple, tuple]] = {}
    for spec in INSTRUCTIONS:
        fields = spec.operands if spec.channel is None else (("channel", "channel"),) + spec.operands
        bounds = tuple((name,) + limits[kind] for name, kind in fields if kind in limits)
        rules.setdefault(spec.type, (spec.mnemonic, bounds, spec.spaces))
    return rules


def validate_program(p: Program, dim: int = DIM_DEFAULT, max_block_len: int = MAX_BLOCK_LEN_DEFAULT) -> None:
    """Check each instruction's type, operand bounds and address spaces against the table.

    Memory bounds and stateful rules (preload-before-compute, stride setup) are the simulator's job.
    """
    validate_instructions(enumerate(p.instructions), dim, max_block_len)


def validate_instructions(indexed: Iterable[tuple[int, Instruction]], dim: int = DIM_DEFAULT,
                          max_block_len: int = MAX_BLOCK_LEN_DEFAULT) -> None:
    """`validate_program` over (index, instruction) pairs: raise for the first pair that fails.

    Each instruction is checked on its own, so a program's first invalid
    instruction is the lowest-indexed failure over any split of its indices.
    """
    rules = _rules(dim, max_block_len)
    for idx, ins in indexed:
        rule = rules.get(type(ins))
        if rule is None:
            raise ValidationError(idx, "unsupported", f"unknown instruction type {type(ins).__name__}")
        mnemonic, bounds, spaces = rule
        for name, kind, lo, hi in bounds:
            value = getattr(ins, name)
            if not lo <= value <= hi:
                allowed = f"in {lo}..{hi}" if hi < inf else f"at least {lo}"
                raise ValidationError(idx, kind, f"{mnemonic} {name} {value} must be {allowed}")
        for name, space, sentinel_ok in spaces:
            addr = getattr(ins, name)
            if addr.space is not space and not (sentinel_ok and addr.is_sentinel):
                allowed = f"the {space.value}" + (" or be the sentinel" if sentinel_ok else "")
                message = f"{mnemonic} {name} {addr.raw:#x} must address {allowed}"
                raise ValidationError(idx, "wrong_address_space", message)
