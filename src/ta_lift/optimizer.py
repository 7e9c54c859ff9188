"""Block-level program optimization: segment, rewrite, order, verify.

A verified program is cut into contiguous blocks: a prelude of leading
configuration instructions, then one block per preload with the mvins that
feed it, its computes, and the mvouts its computes produce.  Blocks are
rewritten by peephole rules or by a model.  The rules keep the block order;
only a model may propose another, and its plan must respect the dependence
edges.  Every candidate must re-verify in the simulator before it replaces
its input.  A change that fails verification or raises the modeled cost is
discarded, so the pipeline never regresses a program.

Each instruction's footprint comes from its entry in the instruction table
(`isa.INSTRUCTIONS`), given the configuration and latch state of a
left-to-right scan.  Segmentation scans them once; a block is only its
slice of instructions.  Block footprints are built only where a model's
plan is checked, by `analyze_dependences`.  Memory footprints (scratchpad
rows, accumulator rows, DRAM element intervals) conflict by interval
overlap.  Register state (the config registers and the weight latch) is
treated as privatizable: a block that writes a register before reading it
breaks the dependence chain, so ordinary blocks that each begin with their
own preload do not serialize on the latch.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from .costs import CostReport, program_cost
from .gateway import Backend, GenerationParams
from .isa import (
    DIM_DEFAULT,
    SENTINEL,
    ConfigEx,
    Instruction,
    Interval,
    LocalAddr,
    Mvin,
    Preload,
    PreloadZeros,
    Program,
    ScanState,
    Space,
    footprint,
    stride_elems,
)
from .kernels import KernelSpec, TestCase, verify_program
from .machine import MachineConfig
from .program_text import ProgramSyntaxError, parse_program, render_instruction
from .prompts import build_block_optimize_prompt, build_reorder_prompt


class PlanParseError(ValueError):
    """A reordering reply could not be read as a permutation of blocks."""


def _overlap(a: Interval, b: Interval) -> bool:
    return a[0] == b[0] and a[1] < b[2] and b[1] < a[2]


def _any_overlap(xs: Sequence[Interval], ys: Sequence[Interval]) -> bool:
    return any(_overlap(x, y) for x in xs for y in ys)


@dataclass(frozen=True)
class Block:
    id: int
    instructions: tuple[Instruction, ...]

    def text(self) -> str:
        return "\n".join(render_instruction(ins) for ins in self.instructions)


def _memory_only(intervals: list[Interval]) -> list[Interval]:
    return [iv for iv in intervals if not iv[0].startswith("reg:")]


def segment_blocks(p: Program, cfg: MachineConfig | None = None) -> list[Block]:
    """Cut a program into a prelude plus one block per preload.

    Cuts never move instructions: each mvin of the run directly before a
    preload joins the new block exactly when its first consumer (the first
    later instruction reading the rows it wrote) sits at or past that
    preload.  Walking the run backwards, that means no later mvin of the
    run reads its rows.
    """
    cfg = cfg or MachineConfig()
    instructions = tuple(p.instructions)
    state = ScanState()
    effects = [footprint(ins, state, cfg.dim) for ins in instructions]
    cuts: list[int] = []
    for index, ins in enumerate(instructions):
        if not isinstance(ins, (Preload, PreloadZeros)):
            continue
        start, later_reads = index, []
        while start > 0 and isinstance(instructions[start - 1], Mvin):
            reads, writes = effects[start - 1]
            if _any_overlap(writes, later_reads):
                break
            start -= 1
            later_reads += reads
        cuts.append(start)
    bounds = sorted({0, *cuts, len(instructions)})
    return [Block(n, instructions[a:b]) for n, (a, b) in enumerate(zip(bounds, bounds[1:]))]


def _registers(intervals: list[Interval]) -> set[str]:
    return {iv[0][4:] for iv in intervals if iv[0].startswith("reg:")}


def analyze_dependences(blocks: list[Block], cfg: MachineConfig | None = None) -> frozenset[tuple[int, int]]:
    """Pairwise block conflicts; every edge (i, j) means i stays before j.

    One scan in block order gives each block its memory reads and writes,
    the registers it reads before writing them (exposed) and the registers
    it writes.
    """
    cfg = cfg or MachineConfig()
    state = ScanState()
    scanned = []
    for block in blocks:
        reads: list[Interval] = []
        writes: list[Interval] = []
        exposed: set[str] = set()
        written: set[str] = set()
        for ins in block.instructions:
            r, w = footprint(ins, state, cfg.dim)
            exposed |= _registers(r) - written
            written |= _registers(w)
            reads += _memory_only(r)
            writes += _memory_only(w)
        scanned.append((block.id, reads, writes, exposed, written))

    edges: set[tuple[int, int]] = set()
    for i, (a, a_reads, a_writes, _, _) in enumerate(scanned):
        for b, b_reads, b_writes, _, _ in scanned[i + 1 :]:
            if (
                _any_overlap(a_writes, b_reads)
                or _any_overlap(a_reads, b_writes)
                or _any_overlap(a_writes, b_writes)
            ):
                edges.add((a, b))

    for reg in set().union(*(exposed for *_, exposed, _ in scanned)):
        writers = [b for b, *_, written in scanned if reg in written]
        readers = [b for b, *_, exposed, _ in scanned if reg in exposed]
        for earlier, later in zip(writers, writers[1:]):
            edges.add((earlier, later))
        for reader in readers:
            before = [w for w in writers if w < reader]
            if before:
                edges.add((before[-1], reader))
            for writer in writers:
                if writer > reader:
                    edges.add((reader, writer))
    return frozenset(edges)


# -- peephole rewrites ---------------------------------------------------------


@dataclass
class PeepholeContext:
    """Cross-block state for the rewrite walk, in original block order."""

    dim: int = DIM_DEFAULT
    state: ScanState = field(default_factory=ScanState)
    last_preload: Preload | PreloadZeros | None = None
    weights: tuple[Interval, ...] = ()  # the memory the last preload latched from
    weights_clean: bool = False
    seen_mvins: set[tuple] = field(default_factory=set)

    def admit(self, ins: Instruction) -> bool:
        """Walk past one instruction other than a preload.

        Returns False, and changes nothing, for an mvin that reloads a tile
        still in place: same source, destination and stride, and neither
        overwritten since.  Accumulating mvins are always kept.
        """
        reads, writes = footprint(ins, self.state, self.dim)  # an mvin leaves the state as it is
        key = None
        if isinstance(ins, Mvin) and not (ins.local.space is Space.ACCUMULATOR and ins.local.accumulate):
            key = (ins, stride_elems(self.state.ld_strides.get(ins.channel)), (*_memory_only(reads), *writes))
            if key in self.seen_mvins:
                return False
        if isinstance(ins, ConfigEx):
            self.weights_clean = False  # a transpose change would alter relatched weights
        mem = tuple(_memory_only(writes))
        if mem:
            self.seen_mvins -= {seen for seen in self.seen_mvins if _any_overlap(mem, seen[-1])}
            if _any_overlap(mem, self.weights):
                self.weights_clean = False
        if key is not None:
            self.seen_mvins.add(key)
        return True


def peephole_block(block: Block, ctx: PeepholeContext) -> Block:
    """Drop redundant preloads and mvins inside one block.

    The context carries what survived earlier blocks, so duplicate loads
    spanning block boundaries are caught when blocks are walked in order.
    Compute instructions are never touched.
    """
    kept: list[Instruction] = []
    for ins in block.instructions:
        if not isinstance(ins, (Preload, PreloadZeros)):
            if ctx.admit(ins):
                kept.append(ins)
            continue
        previous = ctx.last_preload
        reads, _ = footprint(ins, ctx.state, ctx.dim)
        if ins == previous and ctx.weights_clean:
            continue
        rewritten = ins
        if (
            isinstance(ins, Preload)
            and isinstance(previous, Preload)
            and not ins.b.is_sentinel
            and not previous.b.is_sentinel
            and ins.b == previous.b
            and (ins.b_cols, ins.b_rows) == (previous.b_cols, previous.b_rows)
            and ctx.weights_clean
        ):
            rewritten = replace(ins, b=LocalAddr(SENTINEL))
        ctx.last_preload = ins
        ctx.weights = tuple(_memory_only(reads))
        ctx.weights_clean = True
        kept.append(rewritten)
    return replace(block, instructions=tuple(kept))


def dedup_mvins(instructions: tuple[Instruction, ...], dim: int = DIM_DEFAULT) -> tuple[Instruction, ...]:
    """Program-wide duplicate-mvin elimination with write invalidation."""
    ctx = PeepholeContext(dim=dim)
    return tuple(ins for ins in instructions if ctx.admit(ins))


# -- ordering ------------------------------------------------------------------


@dataclass(frozen=True)
class OrderingPlan:
    permutation: tuple[int, ...]
    provenance: str


def _respects(order: tuple[int, ...], edges: frozenset[tuple[int, int]]) -> bool:
    position = {block_id: pos for pos, block_id in enumerate(order)}
    return all(position[i] < position[j] for i, j in edges)


def search_reorder(blocks: list[Block]) -> OrderingPlan:
    """The fallback plan: keep the blocks in program order.

    Every dependence edge runs from a lower block id to a higher one, so
    this order respects them all.
    """
    return OrderingPlan(tuple(range(len(blocks))), provenance="search")


def parse_plan(reply: str, n_blocks: int) -> tuple[int, ...]:
    """Read a reordering reply as a permutation of block ids."""
    runs = re.findall(r"[Bb]lock\s*#?\s*(\d+)", reply) or re.findall(r"\d+", reply)
    try:
        candidates = [int(run) for run in runs]
    except ValueError:  # past int()'s digit limit, so no block id
        raise PlanParseError(f"expected block ids 0..{n_blocks - 1}, found a number too long to read") from None
    if len(candidates) != n_blocks or sorted(candidates) != list(range(n_blocks)):
        raise PlanParseError(
            f"expected a permutation of blocks 0..{n_blocks - 1}, found {candidates}"
        )
    return tuple(candidates)


def reassemble(
    blocks: list[Block],
    permutation: tuple[int, ...],
    base: Program,
    dedup: bool = False,
    cfg: MachineConfig | None = None,
) -> Program:
    """Concatenate blocks in the given order into a new Program."""
    cfg = cfg or MachineConfig()
    by_id = {b.id: b for b in blocks}
    instructions: list[Instruction] = []
    for block_id in permutation:
        instructions.extend(by_id[block_id].instructions)
    out = tuple(instructions)
    if dedup:
        out = dedup_mvins(out, cfg.dim)
    return Program(out, dict(base.buffers), dict(base.symbols))


# -- the pipeline --------------------------------------------------------------


@dataclass
class OptimizeResult:
    program: Program
    before: CostReport
    after: CostReport
    plan: OrderingPlan


def _llm_block_rewrite(
    block: Block,
    backend: Backend,
    params: GenerationParams,
    base: Program,
) -> tuple[Instruction, ...] | None:
    from .harness import extract_code

    if not block.instructions:
        return None
    prompt = build_block_optimize_prompt(block.text())
    completions = backend.complete(prompt, params)
    code = extract_code(completions[0].text)
    if code is None:
        return None
    try:
        parsed = parse_program(code, dict(base.buffers))
    except ProgramSyntaxError:
        return None
    return parsed.instructions


def optimize_program(
    p: Program,
    spec: KernelSpec,
    cases: list[TestCase],
    mode: str = "rules",
    backend: Backend | None = None,
    params: GenerationParams | None = None,
    cfg: MachineConfig | None = None,
) -> OptimizeResult:
    """Optimize a verified program; every stage is gated by verification."""
    if mode not in ("rules", "llm", "llm_then_rules"):
        raise ValueError(f"unknown optimize mode '{mode}'")
    cfg = cfg or MachineConfig()
    if not verify_program(p, spec, cases, cfg).passed:
        raise ValueError("optimize_program expects a program that already verifies")
    before = program_cost(p)

    blocks = segment_blocks(p, cfg)
    if not blocks:
        return OptimizeResult(p, before, before, search_reorder(blocks))
    identity = tuple(range(len(blocks)))

    def verified(candidate: Program) -> bool:
        return verify_program(candidate, spec, cases, cfg).passed

    # Stage 1: per-block rewrites, each gated by whole-program verification.
    llm_params = params or GenerationParams(n_samples=1)
    if mode in ("llm", "llm_then_rules") and backend is not None:
        for block in blocks:
            rewritten = _llm_block_rewrite(block, backend, llm_params, p)
            if rewritten is None or rewritten == block.instructions:
                continue
            trial = list(blocks)
            trial[block.id] = Block(block.id, rewritten)
            candidate = reassemble(trial, identity, p)
            if verified(candidate) and program_cost(candidate).total <= before.total:
                blocks = trial
    if mode in ("rules", "llm_then_rules"):
        ctx = PeepholeContext(dim=cfg.dim)
        candidate_blocks = [peephole_block(block, ctx) for block in blocks]
        candidate = reassemble(candidate_blocks, identity, p)
        if verified(candidate):
            blocks = candidate_blocks

    # Stage 2: ordering.  The rules keep the block order, which the stage
    # above has verified.  Only a model's plan is checked against the
    # dependence edges, then re-verified after a program-wide mvin dedup.
    plan = search_reorder(blocks)
    final = reassemble(blocks, plan.permutation, p)
    if mode != "rules" and backend is not None:
        reply = backend.complete(build_reorder_prompt([block.text() for block in blocks]), llm_params)[0].text
        try:
            permutation = parse_plan(reply, len(blocks))
        except PlanParseError:
            permutation = None
        if permutation is not None and _respects(permutation, analyze_dependences(blocks, cfg)):
            candidate = reassemble(blocks, permutation, p, dedup=True, cfg=cfg)
            if verified(candidate):
                final, plan = candidate, OrderingPlan(permutation, provenance="llm")
    if mode == "llm" and plan.provenance == "search":
        # No peephole ran, so the dedup walk may still drop loads.
        candidate = reassemble(blocks, plan.permutation, p, dedup=True, cfg=cfg)
        if verified(candidate):
            final = candidate
    after = program_cost(final)
    if after.total > before.total:
        final, after, plan = p, before, search_reorder(blocks)
    return OptimizeResult(program=final, before=before, after=after, plan=plan)
