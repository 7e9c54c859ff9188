"""Shipped kernel fixtures and the golden tiled-program emitter.

The registry holds four matrix-vector kernels (control-law updates on a
12-state, 4-input vehicle model) and seven matrix-matrix kernels (value
and gain recursions over 12- and 36-dimensional states).  Two of the
matrix-matrix kernels double as in-context prompt examples; the matvec
`gv1` doubles as the single-shot prompt example.

Every kernel carries a golden program produced by `emit_golden_program`, a
straightforward output-stationary-loop tiler for the weight-stationary
ISA: operands are staged block by block (one mvin per 4x4 block, never a
wide multi-tile mvin), each output tile is built by a preload/compute
chain that accumulates across the shared dimension with the
accumulate-on-write address bit, and finished tiles are stored out once.
"""

from __future__ import annotations

from .isa import ACC_BIT, ACCUMULATE_BIT, ELEMENT_BYTES, SENTINEL
from .kernels import KernelSpec
from .machine import MachineConfig


def _specs() -> list[KernelSpec]:
    return [
        KernelSpec(
            name="gv1",
            op="matmul",
            i=4,
            k=12,
            j=1,
            transpose_a=True,
            a="Bdyn",
            b="p",
            c="B_p",
            description="input-gradient update: 4x12 Bdyn, transposed, times 12x1 vector p",
        ),
        KernelSpec(
            name="gv2",
            op="matmul",
            i=12,
            k=12,
            j=1,
            a="Pinf",
            b="x",
            c="Pinf_x",
            description="cost-to-go application: 12x12 Pinf times 12x1 state x",
        ),
        KernelSpec(
            name="gv3",
            op="matmul",
            i=12,
            k=4,
            j=1,
            a="Bd",
            b="u",
            c="Bd_u",
            description="input injection: 12x4 Bd times 4x1 input u",
        ),
        KernelSpec(
            name="gv4",
            op="matmul",
            i=12,
            k=12,
            j=1,
            transpose_a=True,
            a="Phi",
            b="g",
            c="Phi_g",
            description="adjoint step: 12x12 Phi, transposed, times 12x1 gradient g",
        ),
        KernelSpec(
            name="mm1",
            op="matmul",
            i=36,
            k=36,
            j=12,
            a="Ad",
            b="Pd",
            c="AP",
            description="36x36 dynamics times 36x12 cost block",
        ),
        KernelSpec(
            name="mm2",
            op="matmul_bias",
            i=12,
            k=4,
            j=12,
            transpose_a=True,
            sub=True,
            a="BPA",
            b="Kt",
            d="Q",
            c="APBK_Q",
            description="gain correction: 12x4 BPA, transposed, times 4x12 Kt, minus 12x12 bias Q",
        ),
        KernelSpec(
            name="mm3",
            op="matmul_bias",
            i=12,
            k=12,
            j=4,
            transpose_a=True,
            a="PA",
            b="Bm",
            d="Rm",
            c="PAB_R",
            description="12x12 PA, transposed, times 12x4 Bm, plus 12x4 bias Rm",
        ),
        KernelSpec(
            name="mm4",
            op="matmul",
            i=4,
            k=12,
            j=12,
            a="Bq",
            b="Pq",
            c="BP",
            description="4x12 Bq times 12x12 Pq",
        ),
        KernelSpec(
            name="mm5",
            op="matmul",
            i=12,
            k=12,
            j=12,
            transpose_b=True,
            a="Pm",
            b="Am",
            c="PAt",
            description="12x12 Pm times 12x12 Am, transposed",
        ),
        KernelSpec(
            name="mm6",
            op="matmul_bias",
            i=36,
            k=12,
            j=12,
            a="Gd",
            b="Pe",
            d="Qe",
            c="GP_Q",
            description="36x12 Gd times 12x12 Pe, plus 36x12 bias Qe",
        ),
        KernelSpec(
            name="mm7",
            op="matmul",
            i=12,
            k=36,
            j=4,
            transpose_a=True,
            a="Hd",
            b="Ld",
            c="HL",
            description="12x36 Hd, transposed, times 36x4 Ld",
        ),
    ]


KERNELS: dict[str, KernelSpec] = {spec.name: spec for spec in _specs()}


def kernel(name: str) -> KernelSpec:
    if name not in KERNELS:
        raise KeyError(f"unknown kernel '{name}'; known: {', '.join(KERNELS)}")
    return KERNELS[name]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class _Layout:
    """Block layout of one DRAM matrix staged into a local memory region."""

    def __init__(self, rows: int, cols: int, base: int, dim: int):
        self.rows = rows
        self.cols = cols
        self.base = base
        self.dim = dim
        self.row_tiles = _ceil_div(rows, dim)
        self.col_tiles = _ceil_div(cols, dim)

    @property
    def total_rows(self) -> int:
        return self.row_tiles * self.col_tiles * self.dim

    def block(self, rt: int, ct: int) -> tuple[int, int, int, int]:
        """Return (local_row, dram_offset, width, height) of block (rt, ct)."""
        local = self.base + (rt * self.col_tiles + ct) * self.dim
        offset = (rt * self.dim) * self.cols + ct * self.dim
        width = min(self.dim, self.cols - ct * self.dim)
        height = min(self.dim, self.rows - rt * self.dim)
        return local, offset, width, height


def _operand(base_symbol: str, offset: int) -> str:
    return base_symbol if offset == 0 else f"{base_symbol} + {offset}"


def emit_golden_program(spec: KernelSpec, cfg: MachineConfig | None = None) -> str:
    """Emit a correct straight-line program for a kernel spec."""
    cfg = cfg or MachineConfig()
    dim = cfg.dim

    a_layout = _Layout(*spec.a_shape, base=0, dim=dim)
    b_layout = _Layout(*spec.b_shape, base=a_layout.total_rows, dim=dim)
    d_layout = None
    spad_used = b_layout.base + b_layout.total_rows
    if spec.d is not None:
        d_layout = _Layout(spec.i, spec.j, base=spad_used, dim=dim)
        spad_used += d_layout.total_rows
    if spad_used > cfg.spad_rows:
        raise ValueError(f"kernel '{spec.name}' needs {spad_used} scratchpad rows, have {cfg.spad_rows}")

    i_tiles = _ceil_div(spec.i, dim)
    j_tiles = _ceil_div(spec.j, dim)
    k_tiles = _ceil_div(spec.k, dim)
    if i_tiles * j_tiles * dim > cfg.acc_rows:
        raise ValueError(f"kernel '{spec.name}' needs {i_tiles * j_tiles * dim} accumulator rows, have {cfg.acc_rows}")

    a_sp = f"{spec.a}_sp"
    b_sp = f"{spec.b}_sp"
    d_sp = f"{spec.d}_sp" if spec.d is not None else None
    c_acc = f"{spec.c}_acc"
    c_sum = f"{spec.c}_sum"

    lines = [
        f"static uint32_t {a_sp} = {a_layout.base};",
        f"static uint32_t {b_sp} = {b_layout.base};",
    ]
    if d_layout is not None:
        lines.append(f"static uint32_t {d_sp} = {d_layout.base};")
    lines.append(f"static uint32_t {c_acc} = {ACC_BIT:#x};")
    lines.append(f"static uint32_t {c_sum} = {ACC_BIT | ACCUMULATE_BIT:#x};")
    lines.append(f"static uint32_t NONE = {SENTINEL:#x};")

    a_flag = "true" if spec.transpose_a else "false"
    b_flag = "true" if spec.transpose_b else "false"
    lines.append(f"config_ex(WEIGHT_STATIONARY, NO_ACTIVATION, {a_flag}, {b_flag});")
    lines.append(f"config_st({spec.j * ELEMENT_BYTES});")
    lines.append(f"config_ld({spec.a_shape[1] * ELEMENT_BYTES}, 0);")
    lines.append(f"config_ld({spec.b_shape[1] * ELEMENT_BYTES}, 1);")
    if d_layout is not None:
        lines.append(f"config_ld({spec.j * ELEMENT_BYTES}, 2);")

    staged: set[tuple[str, int, int]] = set()

    def stage(tag: str, mnemonic: str, symbol: str, layout: _Layout, rt: int, ct: int) -> tuple[int, int, int]:
        local, offset, width, height = layout.block(rt, ct)
        if (tag, rt, ct) not in staged:
            staged.add((tag, rt, ct))
            dram = _operand({"a": spec.a, "b": spec.b, "d": spec.d}[tag], offset)
            lines.append(f"{mnemonic}({dram}, {_operand(symbol, local - layout.base)}, {width}, {height});")
        return local - layout.base, width, height

    for it in range(i_tiles):
        i_blk = min(dim, spec.i - it * dim)
        for jt in range(j_tiles):
            j_blk = min(dim, spec.j - jt * dim)
            c_tile = (it * j_tiles + jt) * dim
            for kt in range(k_tiles):
                a_rt, a_ct = (kt, it) if spec.transpose_a else (it, kt)
                b_rt, b_ct = (jt, kt) if spec.transpose_b else (kt, jt)
                a_off, a_w, a_h = stage("a", "mvin", a_sp, a_layout, a_rt, a_ct)
                b_off, b_w, b_h = stage("b", "mvin2", b_sp, b_layout, b_rt, b_ct)
                d_arg = "NONE"
                if d_layout is not None and kt == 0:
                    assert d_sp is not None
                    d_off, _, _ = stage("d", "mvin3", d_sp, d_layout, it, jt)
                    d_arg = _operand(d_sp, d_off)
                c_symbol = c_acc if kt == 0 else c_sum
                lines.append(
                    f"preload({_operand(b_sp, b_off)}, {_operand(c_symbol, c_tile)}, "
                    f"{b_w}, {b_h}, {j_blk}, {i_blk});"
                )
                lines.append(
                    f"compute_preloaded({_operand(a_sp, a_off)}, {d_arg}, "
                    f"{a_w}, {a_h}, {j_blk}, {i_blk});"
                )
            c_offset = (it * dim) * spec.j + jt * dim
            lines.append(f"mvout({_operand(spec.c, c_offset)}, {_operand(c_acc, c_tile)}, {j_blk}, {i_blk});")
    lines.append("fence();")
    return "\n".join(lines) + "\n"
