"""Static cost model over accelerator programs.

Every instruction pays a fixed issue cost. Data movers additionally pay per
byte transferred, preloads pay the array fill latency, and computes pay per
row fed through the array. The totals are deliberately simple: they are a
ranking signal for the optimizer, not a timing model.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .isa import INSTRUCTIONS, Instruction, InstructionSpec, Mvin, Program, spec_of


# Weights of the per-instruction cost terms.
ISSUE = 1.0
BYTE_COST = 0.25
PIPELINE_FILL = 4.0
ROW_COST = 1.0


def instruction_kind(ins: Instruction) -> str:
    """The macro name an instruction renders as."""
    return spec_of(ins).mnemonic


def _price(spec: InstructionSpec) -> Callable[[Instruction], tuple[str, float, int, int]]:
    """An entry's price function: an instruction's kind, cost, and DRAM bytes moved in and out.

    It is built once from the entry's declared terms; the weights are read
    at each call.
    """
    kind, fills, bytes_in, bytes_out, rows_fed = spec.mnemonic, spec.fills, spec.bytes_in, spec.bytes_out, spec.rows_fed

    def price(ins: Instruction) -> tuple[str, float, int, int]:
        moved_in, moved_out = bytes_in(ins), bytes_out(ins)
        cost = ISSUE + BYTE_COST * (moved_in + moved_out) + PIPELINE_FILL * fills + ROW_COST * rows_fed(ins)
        return kind, cost, moved_in, moved_out

    return price


# The price column: one price function per table entry, found as `spec_of` finds the entry.
_PRICES = {spec.type: _price(spec) for spec in INSTRUCTIONS if spec.channel is None}
_MVIN_PRICES = {spec.channel: _price(spec) for spec in INSTRUCTIONS if spec.channel is not None}


@dataclass(frozen=True)
class CostReport:
    """Cost totals for one program, split by instruction kind."""

    total: float
    breakdown: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    dram_bytes_in: int = 0
    dram_bytes_out: int = 0


def program_cost(program: Program) -> CostReport:
    breakdown: dict[str, float] = {}
    counts: dict[str, int] = {}
    bytes_in = 0
    bytes_out = 0
    total = 0.0
    for ins in program.instructions:
        price = _MVIN_PRICES[ins.channel] if type(ins) is Mvin else _PRICES[type(ins)]
        kind, cost, moved_in, moved_out = price(ins)
        breakdown[kind] = breakdown.get(kind, 0.0) + cost
        counts[kind] = counts.get(kind, 0) + 1
        total += cost
        bytes_in += moved_in
        bytes_out += moved_out
    return CostReport(
        total=total,
        breakdown=breakdown,
        counts=counts,
        dram_bytes_in=bytes_in,
        dram_bytes_out=bytes_out,
    )


def render_feedback(before: CostReport, after: CostReport) -> str:
    """Human-readable summary of how a rewrite changed the cost picture."""
    lines = []
    for kind in sorted(set(before.counts) | set(after.counts)):
        took = before.counts.get(kind, 0)
        now = after.counts.get(kind, 0)
        if took != now:
            lines.append(f"{kind}: {took} -> {now}")
    lines.append(f"bytes in: {before.dram_bytes_in} -> {after.dram_bytes_in}")
    lines.append(f"bytes out: {before.dram_bytes_out} -> {after.dram_bytes_out}")
    lines.append(f"cost: {before.total:g} -> {after.total:g}")
    lines.append(f"\N{GREEK CAPITAL LETTER DELTA}total: {after.total - before.total:+g}")
    return "\n".join(lines) + "\n"
