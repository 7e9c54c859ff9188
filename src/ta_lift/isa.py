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

`INSTRUCTIONS` declares each mnemonic once: its constructor, its operands
in text order, the memory its local operands must address, its effects
(local rows and DRAM elements it checks, and rules, in checking order),
how it moves the scan state, its replay op, the registers it reads and
writes and its cost terms.  Each instruction record is a frozen dataclass
generated from its operand list, so its fields are the operands' fields
in text order (an mvin's load channel first).  The parser, the renderer
and the cost model read that table; `spec_of` finds an instruction's
entry.  One straight-line validator and one step per mnemonic are
compiled from it for each (DIM, block length).  `step` runs a program's
steps once, before it runs: each validates its instruction, raises the
`ExecError` the machine would meet, moves the scan state and returns the
op `machine.run` replays.  The scan state is the only copy of the
configuration registers, the strides and the latch's output rows: a config
op is its type alone, and a preload op is its weight block alone.
Validation wins: past an execution error the rest is only validated, and
a later invalid instruction is raised instead.  `op_effects` reads the
memory an op touches off the op, for the optimizer.
"""

from __future__ import annotations

import re
from collections import defaultdict
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
_COMPUTE_OPERANDS = (("a", "local"), ("d", "local"), ("a_cols", "A_cols"), ("a_rows", "A_rows"),
                     ("d_cols", "D_cols"), ("d_rows", "D_rows"))
_LOAD_CHANNEL = (("channel", "channel"),)  # the field an mvin mnemonic fixes, ahead of its operands

ConfigEx = _record("ConfigEx", _CONFIG_EX)
ConfigLd = _record("ConfigLd", _CONFIG_LD)
ConfigSt = _record("ConfigSt", _CONFIG_ST)
Mvin = _record("Mvin", _LOAD_CHANNEL + _MOVE)
Preload = _record("Preload", _PRELOAD)
PreloadZeros = _record("PreloadZeros", _PRELOAD_ZEROS)
ComputePreloaded = _record("ComputePreloaded", _COMPUTE_OPERANDS)
ComputeAccumulated = _record("ComputeAccumulated", _COMPUTE_OPERANDS)
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
    """An instruction that cannot execute, with its index in the program (`step`)."""

    def __init__(self, index: int, kind: str, message: str):
        super().__init__(f"instruction {index}: {kind}: {message}")
        self.index = index
        self.kind = kind
        self.detail = message


class ValidationError(ExecError, ValueError):
    """A structurally invalid instruction, with its index in the program."""


# -- the scan state ------------------------------------------------------------------


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


# -- effects -------------------------------------------------------------------------

# Each entry declares its effects once, in the order its step checks them, as Python source over its operands
# (bound to their field names), the scan state `st`, `dim` and the names its `bind` sets.  An effect is its
# step's lines.


def _when(condition: str, lines: list[str]) -> list[str]:
    return lines if condition == "True" else [f"if {condition}:", *(f"    {line}" for line in lines)]


def _rows(name: str, space: str, first_row: str, count: str, when: str = "True") -> list[str]:
    """Local rows [first, first + count) when `when` holds, in `space`: "spad", "acc" or the local operand whose
    bit picks one.  The step binds `<name>_first` and `<name>_end`, and refuses rows past that memory."""
    memory, size = (repr(space), f"{space}_rows") if space in ("spad", "acc") else (
        f"('acc' if {space} & ACC_BIT else 'spad')", f"(acc_rows if {space} & ACC_BIT else spad_rows)")
    first, end = f"{name}_first", f"{name}_end"
    return _when(when, [f"{first} = {first_row}", f"{end} = {first} + {count}",
                        f"if {end} > {size}: raise _out_of_range(i, {memory}, {first}, {end}, {size})"])


def _dram(verb: str) -> list[str]:
    """A move's `rows` rows of `cols` elements, `pitch` apart from `dram`.  The step follows the rules that bind
    `pitch` and `buf`, and refuses the first row that leaves the buffer."""
    end = "dram.offset + (rows - 1) * pitch + cols"
    return [f"if dram.offset < 0 or {end} > buf[0]: raise _dram_error(i, {verb!r}, ins, pitch, buf[0], dim)"]


def _let(source: str) -> list[str]:
    """Names that the rules and the op read."""
    return [source]


def _rule(broken: str, kind: str, message: str) -> list[str]:
    """An execution rule: the step raises ExecError(`kind`, `message`) when `broken` holds."""
    return [f"if {broken}: raise ExecError(i, {kind!r}, {message})"]


def _out_of_range(idx: int, space: str, start: int, end: int, size: int) -> ExecError:
    return ExecError(idx, f"{space}_out_of_range", f"rows [{start}, {end}) exceed {size}")


def _dram_error(idx: int, verb: str, ins: Mvin | Mvout, pitch: int, size: int, dim: int) -> ExecError:
    """The error of a move's first row, in moving order, that leaves its buffer of `size` elements."""
    offset, cols = ins.dram.offset, ins.cols
    for t in range(0, cols, dim):  # a tile's first column
        width = min(dim, cols - t)
        for r in range(ins.rows):
            start = offset + r * pitch + t
            if start < 0 or start + width > size:
                message = f"{verb} [{start}, {start + width}) exceeds buffer '{ins.dram.buffer}' of {size} elements"
                return ExecError(idx, "dram_out_of_range", message)
    raise AssertionError("a move inside its buffer")


def _moves(ins: Mvin | Mvout, first: int, pitch: int, buf_cols: int, dim: int) -> tuple[int, bool, tuple]:
    """A checked move as (rows, flat, blocks), each block (first local row, buffer row, buffer column, width).

    A move whose rows are rows of its buffer (the pitch is the buffer's row length and the block lies inside
    the buffer) moves each DIM-wide tile as one block of `rows` rows.  Every other goes row by row, in order,
    over the buffer read as one row of elements (flat), so of overlapping rows the last one wins.
    """
    cols, (r0, c0) = ins.cols, divmod(ins.dram.offset, buf_cols)
    if pitch != buf_cols or c0 + cols > buf_cols:
        return 1, True, _row_moves(ins, first, pitch, dim)
    if cols <= dim:  # one tile
        return ins.rows, False, ((first, r0, c0, cols),)
    return ins.rows, False, tuple([(first + t, r0, c0 + t, min(dim, cols - t)) for t in range(0, cols, dim)])


def _row_moves(ins: Mvin | Mvout, first: int, pitch: int, dim: int) -> tuple:
    """A move one row at a time, in order, as blocks of one row over the buffer's elements."""
    offset, cols = ins.dram.offset, ins.cols
    return tuple([(first + t + r, 0, offset + r * pitch + t, min(dim, cols - t))
                  for t in range(0, cols, dim) for r in range(ins.rows)])


# -- the instruction table -------------------------------------------------------------

_RUNNABLE_ACTIVATIONS = (Activation.NONE, Activation.RELU)
_TILE_ROWS = "((cols + dim - 1) // dim - 1) * dim + rows"  # the local rows a move's DIM-wide tiles span
_BUFFER = _rule("(buf := buffers.get(dram.buffer)) is None", "dram_out_of_range", "f\"unknown buffer '{dram.buffer}'\"")
_MOVE_BLOCK = "_moves(ins, local_first, pitch, buf[1], dim)"
_UNSET = f"('used before being configured' if stride is None else f'{{stride}} is not a multiple of {ELEMENT_BYTES}')"
_LOAD = (
    _rule("pitch is None", "unsupported", f"f'load channel {{channel}} stride ' + {_UNSET}"),
    _BUFFER,
    _rows("local", "local", "local & ROW_MASK", _TILE_ROWS),
    _dram("read"),
)
_STORE = (
    _let("ex = st.ex"),
    _rule("pitch is None", "unsupported", f"'store stride ' + {_UNSET}"),
    _rule("ex.act not in _RUNNABLE_ACTIVATIONS and not local & FULL_WIDTH_BIT", "unsupported",
          "f'activation {ex.act.value} is parse-only'"),
    _BUFFER,
    _rows("local", "local", "local & ROW_MASK", _TILE_ROWS),
    _dram("write"),
)
_LATCH_PRELOAD = (
    _rows("b", "spad", "b & ROW_MASK", "b_rows", when="b != SENTINEL"),
    _rule("b == SENTINEL and st.weights is None", "compute_before_preload",
          "'keep-weights preload with no previously latched weights'"),
)
_COMPUTE = (  # a compute accumulates into the latched rows when `accumulates` holds
    _let("ex = st.ex"),
    _rule("ex.dataflow is not Dataflow.WEIGHT_STATIONARY", "unsupported",
          "f'dataflow {ex.dataflow.value} is parse-only'"),
    _rule("ex.act not in _RUNNABLE_ACTIVATIONS", "unsupported", "f'activation {ex.act.value} is parse-only'"),
    _rule("st.latch is None", "compute_before_preload", "'compute issued before any preload'"),
    _rows("a", "spad", "a & ROW_MASK", "a_rows"),
    _let("a_out, a_in = (a_cols, a_rows) if ex.a_transpose else (a_rows, a_cols)"),
    _rule("a_in != st.weights[0]", "dimension_mismatch",
          "f'A is {a_out}x{a_in} but weights are {st.weights[0]}x{st.weights[1]}'"),
    _rule("(a_out, st.weights[1]) != st.result", "dimension_mismatch",
          "f'result is {a_out}x{st.weights[1]} but the preload latched {st.result[0]}x{st.result[1]}'"),
    _rows("d", "spad", "d & ROW_MASK", "d_rows", when="d != SENTINEL"),
    _rule("d != SENTINEL and (d_rows, d_cols) != st.result", "dimension_mismatch",
          "f'bias is {d_rows}x{d_cols} but the result is {st.result[0]}x{st.result[1]}'"),
    _rows("c", "acc", "c_row", "c_rows"),
)
_MOVE_BIND = "stride = {}\npitch = stride_elems(stride)"
_COMPUTE_BIND = "c_row, c_rows, c_acc = st.latch or (0, 0, True)\naccumulates = {}"
_COMPUTE_OP = ("a_first, a_end, a_cols, ex.a_transpose, None if d == SENTINEL else d_first, d_rows, d_cols, "
               "c_first, c_end, st.result[1], accumulates")


def _moved_bytes(ins: Mvin | Mvout) -> int:
    return ELEMENT_BYTES * ins.cols * ins.rows


def _nothing(ins: Instruction) -> int:
    return 0


@dataclass(eq=False)
class InstructionSpec:
    """One mnemonic: how it is written, what it touches, how it is checked and what it costs.

    `operands` lists (field, operand kind) pairs in text order.  A kind is
    `dram`, `local` (a local address), `flag`, `dataflow`, `activation`,
    `channel` (any integer) or the name of a count that must be
    non-negative, which parser messages quote and validation bounds.
    `effects`, `bind`, `moves` (past the instruction) and `op` (its replay
    op's fields after its type) are source; see "effects" above.
    `registers` gives the registers (`ex`, `st`, `ld<channel>`, `latch`) it
    reads and writes, from its operands alone.  Cost terms: one issue,
    `bytes_in` + `bytes_out` DRAM bytes moved, `fills` pipeline fills and
    `rows_fed` rows fed through the array.
    """

    mnemonic: str
    type: type
    operands: tuple[tuple[str, str], ...]
    effects: tuple[list[str], ...] = ()
    bind: str = ""
    moves: str = ""
    op: str = ""
    bytes_in: Callable[[Instruction], int] = _nothing
    bytes_out: Callable[[Instruction], int] = _nothing
    fills: int = 0
    rows_fed: Callable[[Instruction], int] = _nothing
    registers: Callable[[Instruction], tuple[tuple[str, ...], tuple[str, ...]]] = lambda ins: ((), ())
    channel: int | None = None  # the load channel that an mvin mnemonic fixes
    spaces: tuple[tuple[str, Space, bool], ...] = ()  # (local operand, its memory, whether the sentinel may stand)

    def __post_init__(self) -> None:
        # The constructor, taking the operands in text order.
        self.build: Callable[..., Instruction] = self.type if self.channel is None else partial(self.type, self.channel)


_WEIGHTS = ("b", Space.SCRATCHPAD, True)
_OUTPUT = ("c", Space.ACCUMULATOR, False)
_COMPUTE_SPACES = (("a", Space.SCRATCHPAD, False), ("d", Space.SCRATCHPAD, True))
_LATCH = "st.latch = (c & ROW_MASK, {}, bool(c & ACCUMULATE_BIT))\n"

INSTRUCTIONS: tuple[InstructionSpec, ...] = (
    InstructionSpec("config_ex", ConfigEx, _CONFIG_EX, moves="st.ex = ins", registers=lambda ins: ((), ("ex",))),
    InstructionSpec("config_ld", ConfigLd, _CONFIG_LD, moves="st.ld_strides[channel] = stride_bytes",
                    registers=lambda ins: ((), (f"ld{ins.channel}",))),
    InstructionSpec("config_st", ConfigSt, _CONFIG_ST, moves="st.st_stride = stride_bytes",
                    registers=lambda ins: ((), ("st",))),
    *(InstructionSpec(mnemonic, Mvin, _MOVE, _LOAD, _MOVE_BIND.format("st.ld_strides.get(channel)"),
                      op=f"local & ACC_BIT, local & ACC_BIT and local & ACCUMULATE_BIT, dram.buffer, {_MOVE_BLOCK}",
                      bytes_in=_moved_bytes, registers=lambda ins: ((f"ld{ins.channel}",), ()), channel=channel)
      for channel, mnemonic in enumerate(("mvin", "mvin2", "mvin3"))),
    InstructionSpec("preload", Preload, _PRELOAD, _LATCH_PRELOAD,
                    moves=_LATCH.format("c_rows") + "st.result = (c_rows, c_cols)\nif b != SENTINEL:\n"
                    "    st.weights = (b_cols, b_rows) if st.ex.b_transpose else (b_rows, b_cols)",
                    op="None if b == SENTINEL else b_first, b_rows, b_cols, st.ex.b_transpose",
                    fills=1, registers=lambda ins: (("latch",) if ins.b == SENTINEL else ("ex",), ("latch",)),
                    spaces=(_WEIGHTS, _OUTPUT)),
    InstructionSpec("preload_zeros", PreloadZeros, _PRELOAD_ZEROS,
                    moves=_LATCH.format("dim") + "st.weights = st.result = (dim, dim)", op="dim",
                    fills=1, registers=lambda ins: ((), ("latch",)), spaces=(_OUTPUT,)),
    *(InstructionSpec(mnemonic, kind, _COMPUTE_OPERANDS, _COMPUTE, _COMPUTE_BIND.format(accumulates), op=_COMPUTE_OP,
                      rows_fed=attrgetter("a_rows"), registers=lambda ins: (("latch", "ex"), ()),
                      spaces=_COMPUTE_SPACES)
      for mnemonic, kind, accumulates in (("compute_preloaded", ComputePreloaded, "c_acc"),
                                          ("compute_accumulated", ComputeAccumulated, "True"))),
    InstructionSpec("mvout", Mvout, _MOVE, _STORE, _MOVE_BIND.format("st.st_stride"),
                    op=f"dram.buffer, ex.act is Activation.RELU and not local & FULL_WIDTH_BIT, {_MOVE_BLOCK}",
                    bytes_out=_moved_bytes, registers=lambda ins: (("st", "ex"), ()),
                    spaces=(("local", Space.ACCUMULATOR, False),)),
    InstructionSpec("fence", Fence, ()),
)

BY_MNEMONIC: dict[str, InstructionSpec] = {spec.mnemonic: spec for spec in INSTRUCTIONS}
_BY_TYPE = {spec.type: spec for spec in INSTRUCTIONS if spec.channel is None}
_MVIN_BY_CHANNEL = {spec.channel: spec for spec in INSTRUCTIONS if spec.channel is not None}
LOAD_CHANNELS: tuple[int, ...] = tuple(_MVIN_BY_CHANNEL)
_FIRST_OF_TYPE = {spec.type: spec for spec in reversed(INSTRUCTIONS)}  # the mvin entries share the first one's code


def spec_of(ins: Instruction) -> InstructionSpec:
    """An instruction's table entry: by type, and by load channel for an mvin."""
    kind = type(ins)
    return _MVIN_BY_CHANNEL[ins.channel] if kind is Mvin else _BY_TYPE[kind]


# -- the memory an op touches ----------------------------------------------------------

Span = tuple[Space | str, int, int]  # (space, first, end), end exclusive: rows of a `Space`, or elements of a buffer


def _move_spans(local: Space, buffer: str, cols: int, move: tuple) -> tuple[Span, Span]:
    """A move's local rows and DRAM elements: the hulls of its blocks (`_moves`), which run in moving order, so
    the first starts both and the last ends both.  A block starts at element r * cols + c (a flat one at c)."""
    rows, _, blocks = move
    (first, r, c, _), (last, r_last, c_last, width) = blocks[0], blocks[-1]
    return (local, first, last + rows), (buffer, r * cols + c, (r_last + rows - 1) * cols + c_last + width)


def op_effects(op: tuple, buffers: dict[str, tuple[int, int]]) -> tuple[list[Span], list[Span]]:
    """The memory an op (`step`) reads and writes, as (reads, writes) lists of spans.

    A span's space is a `Space` for local rows and a buffer's name for its
    elements, so no buffer name aliases a local memory; `buffers` holds the
    (rows, cols) shapes the op was stepped against.  An accumulating load or
    compute reads the rows it writes; a keep-weights preload reads none.
    """
    kind = op[0]
    if kind is Mvin:
        _, to_acc, accumulate, buffer, move = op
        local, dram = _move_spans(Space.ACCUMULATOR if to_acc else Space.SCRATCHPAD, buffer, buffers[buffer][1], move)
        return ([local, dram] if accumulate else [dram]), [local]
    if kind is Preload:
        return ([] if op[1] is None else [(Space.SCRATCHPAD, op[1], op[1] + op[2])]), []
    if kind is ComputePreloaded or kind is ComputeAccumulated:
        _, a, a_end, _, _, d, d_rows, _, c, c_end, _, accumulate = op
        output, bias = (Space.ACCUMULATOR, c, c_end), [] if d is None else [(Space.SCRATCHPAD, d, d + d_rows)]
        return [(Space.SCRATCHPAD, a, a_end), *bias, *([output] if accumulate else [])], [output]
    if kind is Mvout:
        _, buffer, _, move = op
        local, dram = _move_spans(Space.ACCUMULATOR, buffer, buffers[buffer][1], move)
        return [local], [dram]
    return [], []


# -- compiled steps ------------------------------------------------------------------


def _refuse(idx: int, ins: Instruction, *_) -> None:  # the validator and step of a type the table lacks
    raise ValidationError(idx, "unsupported", f"unknown instruction type {type(ins).__name__}")


def _validation(spec: InstructionSpec, dim: int, max_block_len: int) -> list[str]:
    """Lines that raise the first ValidationError of the operands' bounds, by kind, then address spaces.

    The first mvin entry also bounds the channel the others fix."""
    extent = ("dimension_mismatch", 1, dim)
    limits = {
        "rows": ("rows_exceed_dim", 1, dim),
        "cols": ("block_too_wide", 1, dim * max_block_len),
        **dict.fromkeys(("A_cols", "A_rows", "B_cols", "B_rows", "C_cols", "C_rows", "D_cols", "D_rows"), extent),
        "stride": ("unsupported", 0, inf),
        "channel": ("unsupported", min(LOAD_CHANNELS), max(LOAD_CHANNELS)),
    }
    fields = spec.operands if spec.channel is None else _LOAD_CHANNEL + spec.operands
    lines = []
    for name, kind in fields:
        if kind in limits:
            error, lo, hi = limits[kind]
            test, allowed = (f"{lo} <= {name} <= {hi}", f"in {lo}..{hi}") if hi < inf else (f"{lo} <= {name}",
                                                                                           f"at least {lo}")
            message = f"f'{spec.mnemonic} {name} {{{name}}} must be {allowed}'"
            lines.append(f"if not {test}: raise ValidationError(i, {error!r}, {message})")
    for name, space, sentinel_ok in spec.spaces:
        test = f"{name} & ACC_BIT != {ACC_BIT if space is Space.ACCUMULATOR else 0}"
        allowed = f"the {space.value}" + (" or be the sentinel" if sentinel_ok else "")
        message = f"f'{spec.mnemonic} {name} {{{name}:#x}} must address {allowed}'"
        lines.append(f"if {test}{f' and {name} != SENTINEL' * sentinel_ok}: "
                     f"raise ValidationError(i, 'wrong_address_space', {message})")
    return lines


def _define(signature: str, spec: InstructionSpec, lines: list[str]) -> Callable:
    """A function compiled from its signature and body lines, over this module's names; it first binds
    each operand of `spec` that the body reads to its field name."""
    fields = spec.operands if spec.channel is None else _LOAD_CHANNEL + spec.operands
    lines = [f"{name} = ins.{name}" for name, _ in fields if re.search(rf"\b{name}\b", "\n".join(lines))] + lines
    scope: dict[str, Callable] = {}
    exec(compile("".join([f"def {signature}:\n", *(f"    {line}\n" for line in lines)]), "<isa>", "exec"),
         globals(), scope)
    return scope.popitem()[1]


@cache
def _compiled(dim: int, max_block_len: int) -> tuple[dict[type, Callable], dict[type, Callable]]:
    """Per type: a validator that raises its first `ValidationError`, and its step (`step`)."""
    validators, steps = defaultdict(lambda: _refuse), defaultdict(lambda: _refuse)
    for kind, spec in _FIRST_OF_TYPE.items():
        validators[kind] = _define("validate(i, ins)", spec, _validation(spec, dim, max_block_len) + ["pass"])
        steps[kind] = _define(f"step(i, ins, st, spad_rows, acc_rows, buffers, dim={dim})", spec,
                              _validation(spec, dim, max_block_len) + spec.bind.splitlines()
                              + [line for lines in spec.effects for line in lines] + spec.moves.splitlines()
                              + [f"return ({kind.__name__}, {spec.op})"])
    return validators, steps


# -- validation and the step pass --------------------------------------------------


def first_invalid(indexed: Iterable[tuple[int, Instruction]], dim: int = DIM_DEFAULT,
                  max_block_len: int = MAX_BLOCK_LEN_DEFAULT) -> ValidationError | None:
    """The `ValidationError` of the first (index, instruction) pair that fails validation, or None.

    Each instruction's type, operand bounds and address spaces are checked on
    their own, so a program's first invalid one is the same over any split.
    """
    validators = _compiled(dim, max_block_len)[0]
    try:
        for idx, ins in indexed:
            validators[type(ins)](idx, ins)
    except ValidationError as error:
        return error.with_traceback(None)
    return None


def validate_program(p: Program, dim: int = DIM_DEFAULT, max_block_len: int = MAX_BLOCK_LEN_DEFAULT) -> None:
    """Raise the program's first `ValidationError`; memory bounds and stateful rules are `step`'s."""
    error = first_invalid(enumerate(p.instructions), dim, max_block_len)
    if error is not None:
        raise error


def memory_sizes(cfg: MachineConfig, buffers: dict[str, tuple[int, int]]) -> tuple[int, int, dict]:
    """What the step pass checks against: (scratchpad rows, accumulator rows, {buffer: (elements, cols)})."""
    return cfg.spad_rows, cfg.acc_rows, {name: (rows * cols, cols) for name, (rows, cols) in buffers.items()}


def step(instructions: Sequence[Instruction], cfg: MachineConfig, sizes: tuple, state: ScanState | None = None,
         start: int = 0, stop: int | None = None) -> list[tuple]:
    """Validate and check `instructions[start:stop]` from `state` in one pass; their replay ops (`machine.run`).

    `state`, fresh by default, moves past them.  Bounds are checked against
    `sizes` (`memory_sizes`).  Each op is the instruction's type, then the
    tiles, local rows, weight block and matmul operands its step proved in range.
    No step reads data, so a replay of the ops raises nothing.
    """
    state = ScanState() if state is None else state
    by_type = _compiled(cfg.dim, cfg.max_block_len)[1]
    spad_rows, acc_rows, buffers = sizes
    ops: list[tuple] = []
    try:
        for idx, ins in enumerate(instructions[start:stop], start):
            ops.append(by_type[type(ins)](idx, ins, state, spad_rows, acc_rows, buffers))
    except ValidationError:
        raise
    except ExecError as error:
        later = enumerate(instructions[error.index + 1 : stop], error.index + 1)
        raise first_invalid(later, cfg.dim, cfg.max_block_len) or error
    return ops
