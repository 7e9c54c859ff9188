"""Instruction set for an idealized weight-stationary systolic-array accelerator.

The accelerator owns two row-addressed local memories: a scratchpad and an
accumulator.  Each row holds DIM 32-bit float elements.  A local address is
a plain int, a 32-bit word with flag bits in the top three positions:

    bit 31  target/source is the accumulator (0 = scratchpad)
    bit 30  accumulate-on-write (accumulator writes only; 0 = overwrite)
    bit 29  read-full-width (accumulator reads only; skips activation)
    bits 28..0  row index

`ACC_BIT`, `ACCUMULATE_BIT`, `FULL_WIDTH_BIT` and `ROW_MASK` define that
layout once; every reader of an address tests its bits with them.  The
value 0xffffffff is reserved as a sentinel: as a preload weight operand it
means "keep the previously latched weights", as a compute bias operand it
means "no bias".  The parser refuses a local address outside 0..0xffffffff.

`INSTRUCTIONS` declares each mnemonic once: its constructor, its operands in
text order, the memory its local operands must address, its footprint, the
DRAM bytes it moves and its cost terms.  Each instruction record is a
frozen dataclass generated from its operand list, so its fields are the
operands' fields in text order (an mvin's load channel first).  The parser,
the renderer, `validate_program`, the cost model and the optimizer's
footprints all read that table; `spec_of` finds an instruction's entry.
`check_execution` scans a valid program once, before it runs, and raises
the first `ExecError` the machine would meet, with its index, kind and
message; its bounds are the footprints' intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, make_dataclass
from enum import Enum
from functools import cache, partial
from math import inf
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:
    from .machine import MachineConfig

DIM_DEFAULT = 4
MAX_BLOCK_LEN_DEFAULT = 4  # an mvin or mvout moves at most this many DIM-wide tiles
SENTINEL = 0xFFFFFFFF
LOCAL_ADDR_MAX = 0xFFFFFFFF  # local addresses are 32-bit words
ELEMENT_BYTES = 4

ACC_BIT = 1 << 31
ACCUMULATE_BIT = 1 << 30
FULL_WIDTH_BIT = 1 << 29
ROW_MASK = (1 << 29) - 1


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
    if row < 0 or row > ROW_MASK:
        raise AddressError(f"row {row} outside 29-bit range")
    raw = row
    if space is Space.ACCUMULATOR:
        raw |= ACC_BIT
    if accumulate:
        raw |= ACCUMULATE_BIT
    if full_width:
        raw |= FULL_WIDTH_BIT
    return raw


@dataclass(frozen=True)
class DramRef:
    """A DRAM operand: a named buffer plus an element offset (4-byte units)."""

    buffer: str
    offset: int = 0


def _record(name: str, fields: tuple[tuple[str, str], ...]) -> type:
    """A frozen record class with one field per (field, operand kind) pair, in order."""
    names = [field_name for field_name, _ in fields]
    return make_dataclass(name, names, frozen=True, namespace={"__module__": __name__})


# Each mnemonic's operands as (field, operand kind) pairs in text order; see `InstructionSpec`.
_CONFIG_EX = (("dataflow", "dataflow"), ("act", "activation"), ("a_transpose", "flag"), ("b_transpose", "flag"))
_CONFIG_LD = (("stride_bytes", "stride"), ("channel", "channel"))
_CONFIG_ST = (("stride_bytes", "stride"),)
_MOVE = (("dram", "dram"), ("local", "local"), ("cols", "cols"), ("rows", "rows"))
_PRELOAD = (("b", "local"), ("c", "local"), ("b_cols", "B_cols"), ("b_rows", "B_rows"),
            ("c_cols", "C_cols"), ("c_rows", "C_rows"))
_PRELOAD_ZEROS = (("c", "local"),)
_COMPUTE = (("a", "local"), ("d", "local"), ("a_cols", "A_cols"), ("a_rows", "A_rows"),
            ("d_cols", "D_cols"), ("d_rows", "D_rows"))
_LOAD_CHANNEL = (("channel", "channel"),)  # the field an mvin mnemonic fixes, ahead of its operands

ConfigEx = _record("ConfigEx", _CONFIG_EX)
ConfigLd = _record("ConfigLd", _CONFIG_LD)
ConfigSt = _record("ConfigSt", _CONFIG_ST)
Mvin = _record("Mvin", _LOAD_CHANNEL + _MOVE)
Preload = _record("Preload", _PRELOAD)
PreloadZeros = _record("PreloadZeros", _PRELOAD_ZEROS)
ComputePreloaded = _record("ComputePreloaded", _COMPUTE)
ComputeAccumulated = _record("ComputeAccumulated", _COMPUTE)
Mvout = _record("Mvout", _MOVE)
Fence = _record("Fence", ())

RESET_EX = ConfigEx(Dataflow.WEIGHT_STATIONARY, Activation.NONE, False, False)  # config_ex before any is issued


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


class ExecError(Exception):
    """An instruction that cannot execute, with its index in the program (`check_execution`)."""

    def __init__(self, index: int, kind: str, message: str):
        super().__init__(f"instruction {index}: {kind}: {message}")
        self.index = index
        self.kind = kind
        self.detail = message


class ValidationError(ExecError, ValueError):
    """A structurally invalid instruction, with its index in the program."""


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
    ex: ConfigEx = RESET_EX  # the last config_ex
    weights: tuple[int, int] | None = None  # the latched weights' (rows, cols)
    result: tuple[int, int] | None = None  # the latched result block's (rows, cols)

    def copy(self) -> ScanState:
        return ScanState(dict(self.ld_strides), self.st_stride, self.latch, self.ex, self.weights, self.result)

    def key(self) -> tuple:
        """The state as a hashable value: equal keys, equal states."""
        return tuple(self.ld_strides.values()), self.st_stride, self.latch, self.ex, self.weights, self.result


def stride_elems(stride_bytes: int | None) -> int | None:
    """A configured stride in elements; None when unset or not whole elements."""
    if stride_bytes is None or stride_bytes % ELEMENT_BYTES != 0:
        return None
    return stride_bytes // ELEMENT_BYTES


def _local_interval(local: int, cols: int, rows: int, dim: int) -> Interval:
    tiles = (cols + dim - 1) // dim
    row = local & ROW_MASK
    return ("acc" if local & ACC_BIT else "spad", row, row + (tiles - 1) * dim + rows)


def _dram_interval(ref: DramRef, cols: int, rows: int, pitch: int | None) -> Interval:
    if pitch is None:
        return (f"dram:{ref.buffer}", 0, _FAR)
    return (f"dram:{ref.buffer}", ref.offset, ref.offset + (rows - 1) * pitch + cols)


# A footprint function gives an instruction's reads and writes, given the
# scan state and DIM, and moves the state past the instruction.


def _no_footprint(ins: Instruction, state: ScanState, dim: int) -> Effects:
    return [], []


def _config_ex_footprint(ins: ConfigEx, state: ScanState, dim: int) -> Effects:
    state.ex = ins
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
    if ins.local & ACC_BIT and ins.local & ACCUMULATE_BIT:
        reads.append(dest)
    return reads, [dest]


def _preload_footprint(ins: Preload, state: ScanState, dim: int) -> Effects:
    state.latch = (ins.c & ROW_MASK, ins.c_rows, bool(ins.c & ACCUMULATE_BIT))
    state.result = (ins.c_rows, ins.c_cols)
    if ins.b == SENTINEL:  # the latched weights stay
        return [_LATCH], [_LATCH]
    state.weights = (ins.b_cols, ins.b_rows) if state.ex.b_transpose else (ins.b_rows, ins.b_cols)
    row = ins.b & ROW_MASK
    return [_EX, ("spad", row, row + ins.b_rows)], [_LATCH]


def _preload_zeros_footprint(ins: PreloadZeros, state: ScanState, dim: int) -> Effects:
    state.latch = (ins.c & ROW_MASK, dim, bool(ins.c & ACCUMULATE_BIT))
    state.weights = state.result = (dim, dim)
    return [], [_LATCH]


def _compute_footprint(
    ins: ComputePreloaded | ComputeAccumulated, state: ScanState, dim: int, accumulated: bool = False
) -> Effects:
    row = ins.a & ROW_MASK
    reads = [_LATCH, _EX, ("spad", row, row + ins.a_rows)]
    if ins.d != SENTINEL:
        row = ins.d & ROW_MASK
        reads.append(("spad", row, row + ins.d_rows))
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


# -- execution checks ------------------------------------------------------------

# A check raises the `ExecError` running an instruction raises, from its
# footprint, the scan state past it and each memory's size by interval space.

_RUNNABLE_ACTIVATIONS = (Activation.NONE, Activation.RELU)


def _check_rows(idx: int, interval: Interval, sizes: dict[str, int]) -> None:
    space, start, end = interval
    if end > sizes[space]:
        raise ExecError(idx, f"{space}_out_of_range", f"rows [{start}, {end}) exceed {sizes[space]}")


def _check_move(idx: int, ins: Mvin | Mvout, state: ScanState, effects: Effects, sizes: dict[str, int],
                dim: int) -> None:
    """The stride (and an mvout's activation), the buffer, the local rows, then each DRAM row in moving order."""
    (reads, writes), load = effects, type(ins) is Mvin
    stride, what = (state.ld_strides[ins.channel], f"load channel {ins.channel}") if load else (state.st_stride, "store")
    pitch = stride_elems(stride)
    if pitch is None:
        problem = "used before being configured" if stride is None else f"{stride} is not a multiple of {ELEMENT_BYTES}"
        raise ExecError(idx, "unsupported", f"{what} stride {problem}")
    if not load and state.ex.act not in _RUNNABLE_ACTIVATIONS and not ins.local & FULL_WIDTH_BIT:
        raise ExecError(idx, "unsupported", f"activation {state.ex.act.value} is parse-only")
    (space, lo, hi), local = (reads[1], writes[0]) if load else (writes[0], reads[2])
    size = sizes.get(space)
    if size is None:
        raise ExecError(idx, "dram_out_of_range", f"unknown buffer '{ins.dram.buffer}'")
    _check_rows(idx, local, sizes)
    if lo >= 0 and hi <= size:
        return
    for t in range(0, ins.cols, dim):  # a tile's first column
        width = min(dim, ins.cols - t)
        for r in range(ins.rows):
            start = ins.dram.offset + r * pitch + t
            if start < 0 or start + width > size:
                verb = "read" if load else "write"
                message = f"{verb} [{start}, {start + width}) exceeds buffer '{ins.dram.buffer}' of {size} elements"
                raise ExecError(idx, "dram_out_of_range", message)


def _check_preload(idx: int, ins: Preload, state: ScanState, effects: Effects, sizes: dict[str, int], dim: int) -> None:
    if ins.b != SENTINEL:
        _check_rows(idx, effects[0][1], sizes)
    elif state.weights is None:  # a keep-weights preload latches no weights of its own
        raise ExecError(idx, "compute_before_preload", "keep-weights preload with no previously latched weights")


def _check_compute(idx: int, ins: ComputePreloaded | ComputeAccumulated, state: ScanState, effects: Effects,
                   sizes: dict[str, int], dim: int) -> None:
    ex, (reads, (target,)) = state.ex, effects
    if ex.dataflow is not Dataflow.WEIGHT_STATIONARY:
        raise ExecError(idx, "unsupported", f"dataflow {ex.dataflow.value} is parse-only")
    if ex.act not in _RUNNABLE_ACTIVATIONS:
        raise ExecError(idx, "unsupported", f"activation {ex.act.value} is parse-only")
    if state.latch is None:
        raise ExecError(idx, "compute_before_preload", "compute issued before any preload")
    _check_rows(idx, reads[2], sizes)
    a_rows, a_cols = (ins.a_cols, ins.a_rows) if ex.a_transpose else (ins.a_rows, ins.a_cols)
    (w_rows, w_cols), (c_rows, c_cols) = state.weights, state.result
    if a_cols != w_rows:
        raise ExecError(idx, "dimension_mismatch", f"A is {a_rows}x{a_cols} but weights are {w_rows}x{w_cols}")
    if (a_rows, w_cols) != state.result:
        message = f"result is {a_rows}x{w_cols} but the preload latched {c_rows}x{c_cols}"
        raise ExecError(idx, "dimension_mismatch", message)
    if ins.d != SENTINEL:
        _check_rows(idx, reads[3], sizes)
        if (ins.d_rows, ins.d_cols) != state.result:
            message = f"bias is {ins.d_rows}x{ins.d_cols} but the result is {c_rows}x{c_cols}"
            raise ExecError(idx, "dimension_mismatch", message)
    _check_rows(idx, target, sizes)


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
    `check` raises what running it would raise (`check_execution`).  Cost
    terms: one issue, `bytes_in` + `bytes_out` DRAM bytes moved, `fills`
    pipeline fills and `rows_fed` rows fed through the array.
    """

    mnemonic: str
    type: type
    operands: tuple[tuple[str, str], ...]
    footprint: Callable[[Instruction, ScanState, int], Effects] = _no_footprint
    check: Callable[[int, Instruction, ScanState, Effects, dict[str, int], int], None] = lambda *_: None
    bytes_in: Callable[[Instruction], int] = _nothing
    bytes_out: Callable[[Instruction], int] = _nothing
    fills: int = 0
    rows_fed: Callable[[Instruction], int] = _nothing
    channel: int | None = None  # the load channel that an mvin mnemonic fixes
    spaces: tuple[tuple[str, Space, bool], ...] = ()  # (local operand, its memory, whether the sentinel may stand)

    def __post_init__(self) -> None:
        # The constructor, taking the operands in text order.
        self.build: Callable[..., Instruction] = self.type if self.channel is None else partial(self.type, self.channel)


_WEIGHTS = ("b", Space.SCRATCHPAD, True)
_OUTPUT = ("c", Space.ACCUMULATOR, False)
_COMPUTE_SPACES = (("a", Space.SCRATCHPAD, False), ("d", Space.SCRATCHPAD, True))

INSTRUCTIONS: tuple[InstructionSpec, ...] = (
    InstructionSpec("config_ex", ConfigEx, _CONFIG_EX, _config_ex_footprint),
    InstructionSpec("config_ld", ConfigLd, _CONFIG_LD, _config_ld_footprint),
    InstructionSpec("config_st", ConfigSt, _CONFIG_ST, _config_st_footprint),
    InstructionSpec("mvin", Mvin, _MOVE, _mvin_footprint, _check_move, bytes_in=_moved_bytes, channel=0),
    InstructionSpec("mvin2", Mvin, _MOVE, _mvin_footprint, _check_move, bytes_in=_moved_bytes, channel=1),
    InstructionSpec("mvin3", Mvin, _MOVE, _mvin_footprint, _check_move, bytes_in=_moved_bytes, channel=2),
    InstructionSpec("preload", Preload, _PRELOAD, _preload_footprint, _check_preload, fills=1,
                    spaces=(_WEIGHTS, _OUTPUT)),
    InstructionSpec("preload_zeros", PreloadZeros, _PRELOAD_ZEROS, _preload_zeros_footprint, fills=1,
                    spaces=(_OUTPUT,)),
    InstructionSpec("compute_preloaded", ComputePreloaded, _COMPUTE, _compute_footprint, _check_compute,
                    rows_fed=attrgetter("a_rows"), spaces=_COMPUTE_SPACES),
    InstructionSpec("compute_accumulated", ComputeAccumulated, _COMPUTE, partial(_compute_footprint, accumulated=True),
                    _check_compute, rows_fed=attrgetter("a_rows"), spaces=_COMPUTE_SPACES),
    InstructionSpec("mvout", Mvout, _MOVE, _mvout_footprint, _check_move, bytes_out=_moved_bytes,
                    spaces=(("local", Space.ACCUMULATOR, False),)),
    InstructionSpec("fence", Fence, ()),
)

BY_MNEMONIC: dict[str, InstructionSpec] = {spec.mnemonic: spec for spec in INSTRUCTIONS}
_BY_TYPE = {spec.type: spec for spec in INSTRUCTIONS if spec.channel is None}
_MVIN_BY_CHANNEL = {spec.channel: spec for spec in INSTRUCTIONS if spec.channel is not None}
LOAD_CHANNELS: tuple[int, ...] = tuple(_MVIN_BY_CHANNEL)
_SCANS = {spec.type: (spec.footprint, spec.check) for spec in INSTRUCTIONS}  # the mvin entries share both


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
    Each address field carries the accumulator bit its memory needs.
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
        fields = spec.operands if spec.channel is None else _LOAD_CHANNEL + spec.operands
        bounds = tuple((name,) + limits[kind] for name, kind in fields if kind in limits)
        spaces = tuple((name, ACC_BIT if space is Space.ACCUMULATOR else 0, space, sentinel_ok)
                       for name, space, sentinel_ok in spec.spaces)
        rules.setdefault(spec.type, (spec.mnemonic, bounds, spaces))
    return rules


def validate_program(p: Program, dim: int = DIM_DEFAULT, max_block_len: int = MAX_BLOCK_LEN_DEFAULT) -> None:
    """Check each instruction's type, operand bounds and address spaces against the table.

    Memory bounds and stateful rules (preload-before-compute, stride setup) are `check_execution`'s job.
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
        for name, bit, space, sentinel_ok in spaces:
            raw = getattr(ins, name)
            if raw & ACC_BIT != bit and not (sentinel_ok and raw == SENTINEL):
                allowed = f"the {space.value}" + (" or be the sentinel" if sentinel_ok else "")
                message = f"{mnemonic} {name} {raw:#x} must address {allowed}"
                raise ValidationError(idx, "wrong_address_space", message)


# -- the execution check pass ------------------------------------------------------


def check_execution(instructions: Sequence[Instruction], cfg: MachineConfig, buffers: dict[str, tuple[int, int]],
                    state: ScanState | None = None, start: int = 0, stop: int | None = None) -> ScanState:
    """Raise the `ExecError` that running `instructions[start:stop]` from `state` raises; else the state past them.

    The instructions must be valid (`validate_instructions`).  `state`, fresh
    by default, moves with the scan.  No check reads data: only the program,
    `cfg`'s `dim`, `spad_rows` and `acc_rows` and each buffer's (rows, cols),
    so a run of what this pass accepts raises nothing.  Bounds are checked
    on the footprints' intervals.
    """
    state = ScanState() if state is None else state
    dim = cfg.dim
    sizes = {"spad": cfg.spad_rows, "acc": cfg.acc_rows}
    sizes.update((f"dram:{name}", rows * cols) for name, (rows, cols) in buffers.items())
    for idx, ins in enumerate(instructions[start:stop], start):
        footprint, check = _SCANS[type(ins)]
        check(idx, ins, state, footprint(ins, state, dim), sizes, dim)
    return state
