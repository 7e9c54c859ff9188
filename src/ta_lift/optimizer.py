"""Block-level program optimization: segment, rewrite, order, verify.

A verified program is cut into contiguous blocks: a prelude of leading
configuration instructions, then one block per preload with the mvins that
feed it, its computes, and the mvouts its computes produce.  Blocks are
rewritten by peephole rules or by a model.  The rules keep the block order;
only a model may propose another, and its plan must respect the dependence
edges.  Every candidate must re-verify in the simulator before it replaces
its input.  A change that fails verification or raises the modeled cost is
discarded, so the pipeline never regresses a program.

The program is stepped once (`isa.step`), and each block carries its
instructions' replay ops.  `isa.op_effects` reads each op's memory spans
(scratchpad rows, accumulator rows, DRAM element intervals) off the rows
and tiles its step proved; spans conflict by overlap.  Block spans are
gathered only where a model's plan is checked, by `analyze_dependences`.
Registers (the config registers and the weight latch) come from each
table entry's operands and are treated as privatizable: a block that
writes a register before reading it breaks the dependence chain, so
ordinary blocks that each begin with their own preload do not serialize
on the latch.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import accumulate

from .costs import CostReport, program_cost
from .gateway import Backend, GenerationParams
from .isa import (
    ACC_BIT,
    ACCUMULATE_BIT,
    DIM_DEFAULT,
    SENTINEL,
    ConfigEx,
    ExecError,
    Instruction,
    Mvin,
    Preload,
    PreloadZeros,
    Program,
    Space,
    Span,
    memory_sizes,
    op_effects,
    spec_of,
    step,
)
from .kernels import KernelSpec, TestCase, verify_program
from .machine import MachineConfig
from .program_text import ProgramSyntaxError, parse_program, render_instruction
from .prompts import build_block_optimize_prompt, build_reorder_prompt


class PlanParseError(ValueError):
    """A reordering reply could not be read as a permutation of blocks."""


def _overlap(a: Span, b: Span) -> bool:
    return a[0] == b[0] and a[1] < b[2] and b[1] < a[2]


def _any_overlap(xs: Sequence[Span], ys: Sequence[Span]) -> bool:
    return any(_overlap(x, y) for x in xs for y in ys)


@dataclass(frozen=True)
class Block:
    id: int
    instructions: tuple[Instruction, ...]
    ops: tuple[tuple, ...] = ()  # each instruction's replay op (`isa.step`), in order

    def text(self) -> str:
        return "\n".join(render_instruction(ins) for ins in self.instructions)


def _sliced(blocks: list[Block], ops: Sequence[tuple]) -> list[Block]:
    """The blocks with their slices of `ops`, the ops of all their instructions in block order."""
    ends = accumulate(len(block.instructions) for block in blocks)
    return [replace(block, ops=tuple(ops[end - len(block.instructions) : end])) for block, end in zip(blocks, ends)]


def segment_blocks(p: Program, cfg: MachineConfig | None = None) -> list[Block]:
    """Cut a program, stepped once against its buffers, into a prelude plus one block per preload.

    Cuts never move instructions: each mvin of the run directly before a
    preload joins the new block exactly when its first consumer (the first
    later instruction reading the rows it wrote) sits at or past that
    preload.  Walking the run backwards, that means no later mvin of the
    run reads its rows.
    """
    cfg = cfg or MachineConfig()
    instructions = tuple(p.instructions)
    ops = tuple(step(instructions, cfg, memory_sizes(cfg, p.buffers)))
    cuts: list[int] = []
    for index, ins in enumerate(instructions):
        if not isinstance(ins, (Preload, PreloadZeros)):
            continue
        start, later_reads = index, []
        while start > 0 and isinstance(instructions[start - 1], Mvin):
            reads, writes = op_effects(ops[start - 1], p.buffers)
            if _any_overlap(writes, later_reads):
                break
            start -= 1
            later_reads += reads
        cuts.append(start)
    bounds = sorted({0, *cuts, len(instructions)})
    return [Block(n, instructions[a:b], ops[a:b]) for n, (a, b) in enumerate(zip(bounds, bounds[1:]))]


def analyze_dependences(blocks: list[Block], buffers: dict[str, tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Pairwise block conflicts; every edge (i, j) means i stays before j.

    One pass in block order gives each block its memory reads and writes
    (its ops' spans over `buffers`, the shapes they were stepped against),
    the registers it reads before writing them (exposed) and the registers
    it writes.
    """
    scanned = []
    for block in blocks:
        reads, writes, exposed, written = [], [], set(), set()
        for ins, op in zip(block.instructions, block.ops, strict=True):
            reg_reads, reg_writes = spec_of(ins).registers(ins)
            exposed.update(reg for reg in reg_reads if reg not in written)
            written.update(reg_writes)
            r, w = op_effects(op, buffers)
            reads += r
            writes += w
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
    """Cross-block state for the rewrite walk, in original block order.

    `buffers` holds the shapes the walked ops were stepped against.
    `seen_mvins` maps each mvin still in place, keyed by its op, to its
    memory spans.  `cells` files each of them under every cell its spans
    cover: per space, the DIM-row tiles of a scratchpad or accumulator span,
    and the tile None for a DRAM span.  A write tests only the mvins filed
    under the tiles it covers and under None; a DRAM write tests its whole
    buffer.
    """

    dim: int = DIM_DEFAULT
    buffers: dict[str, tuple[int, int]] = field(default_factory=dict)
    last_preload: Preload | PreloadZeros | None = None
    weights: tuple[Span, ...] = ()  # the memory the last preload latched from
    weights_clean: bool = False
    seen_mvins: dict[tuple, tuple[Span, ...]] = field(default_factory=dict)
    cells: dict[Space | str, dict[int | None, set[tuple]]] = field(default_factory=dict)  # space -> tile -> keys

    def tiles(self, span: Span) -> Sequence[int | None]:
        """The DIM-row tiles a span of local rows covers; (None,) for a span of DRAM elements."""
        space, first, end = span
        return range(first // self.dim, (end - 1) // self.dim + 1) if isinstance(space, Space) else (None,)

    def admit(self, ins: Instruction, op: tuple) -> bool:
        """Walk past one instruction other than a preload, given its op.

        Returns False, and changes nothing, for an mvin that reloads a tile
        still in place: the same op (source tiles and destination rows), and
        neither overwritten since.  Accumulating mvins are always kept.
        """
        reads, writes = op_effects(op, self.buffers)
        key = None
        if isinstance(ins, Mvin) and not (ins.local & ACC_BIT and ins.local & ACCUMULATE_BIT):
            key = op
            if key in self.seen_mvins:
                return False
        if isinstance(ins, ConfigEx):
            self.weights_clean = False  # a transpose change would alter relatched weights
        for write in writes:
            self._forget_overlapping(write)
        if _any_overlap(writes, self.weights):
            self.weights_clean = False
        if key is not None:
            spans = self.seen_mvins[key] = (*reads, *writes)
            for span in spans:
                for tile in self.tiles(span):
                    self.cells.setdefault(span[0], {}).setdefault(tile, set()).add(key)
        return True

    def _forget_overlapping(self, write: Span) -> None:
        """Drop every remembered mvin whose memory the write overlaps, from the map and from every cell."""
        by_tile = self.cells.get(write[0], {})
        tiles = self.tiles(write)
        near = by_tile.values() if tiles[0] is None else [by_tile[t] for t in (*tiles, None) if t in by_tile]
        victims = [seen for seen in set().union(*near) if any(_overlap(write, span) for span in self.seen_mvins[seen])]
        for victim in victims:
            for span in self.seen_mvins.pop(victim):
                for tile in self.tiles(span):
                    self.cells[span[0]][tile].remove(victim)


def peephole_block(block: Block, ctx: PeepholeContext) -> Block:
    """Drop redundant preloads and mvins inside one block.

    The context carries what survived earlier blocks, so duplicate loads
    spanning block boundaries are caught when blocks are walked in order.
    Compute instructions are never touched.
    """
    kept: list[tuple[Instruction, tuple]] = []  # (instruction, op) pairs
    for ins, op in zip(block.instructions, block.ops, strict=True):
        if not isinstance(ins, (Preload, PreloadZeros)):
            if ctx.admit(ins, op):
                kept.append((ins, op))
            continue
        previous = ctx.last_preload
        if ins == previous and ctx.weights_clean:
            continue
        ctx.last_preload = ins
        ctx.weights = tuple(op_effects(op, ctx.buffers)[0])
        if (
            isinstance(ins, Preload)
            and isinstance(previous, Preload)
            and ins.b != SENTINEL
            and previous.b != SENTINEL
            and ins.b == previous.b
            and (ins.b_cols, ins.b_rows) == (previous.b_cols, previous.b_rows)
            and ctx.weights_clean
        ):
            ins, op = replace(ins, b=SENTINEL), (Preload, None, *op[2:])  # a keep-weights preload's op
        ctx.weights_clean = True
        kept.append((ins, op))
    return replace(block, instructions=tuple(ins for ins, _ in kept), ops=tuple(op for _, op in kept))


def dedup_mvins(instructions: tuple[Instruction, ...], ops: Sequence[tuple], buffers: dict[str, tuple[int, int]],
                dim: int = DIM_DEFAULT) -> tuple[Instruction, ...]:
    """Program-wide duplicate-mvin elimination with write invalidation, given the program's ops."""
    ctx = PeepholeContext(dim=dim, buffers=buffers)
    return tuple(ins for ins, op in zip(instructions, ops, strict=True) if ctx.admit(ins, op))


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
    """Concatenate blocks in the given order into a new Program.

    With `dedup` the concatenation is stepped against `base`'s buffers
    first, and its `ExecError` raised when it does not step.
    """
    cfg = cfg or MachineConfig()
    by_id = {b.id: b for b in blocks}
    instructions: list[Instruction] = []
    for block_id in permutation:
        instructions.extend(by_id[block_id].instructions)
    out = tuple(instructions)
    if dedup:
        out = dedup_mvins(out, step(out, cfg, memory_sizes(cfg, base.buffers)), base.buffers, cfg.dim)
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
    buffers: dict[str, tuple[int, int]],
) -> tuple[Instruction, ...] | None:
    from .harness import extract_code

    if not block.instructions:
        return None
    prompt = build_block_optimize_prompt(block.text())
    completions = backend.complete(prompt, params)
    code = extract_code(completions[0].text, buffers)
    if code is None:
        return None
    try:
        parsed = parse_program(code, buffers)
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

    def deduped(permutation: tuple[int, ...]) -> Program | None:  # the blocks reordered and deduped, if that verifies
        try:
            candidate = reassemble(blocks, permutation, p, dedup=True, cfg=cfg)
        except ExecError:  # it does not step, so it would not verify
            return None
        return candidate if verified(candidate) else None

    # Stage 1: per-block rewrites, each gated by whole-program verification.
    llm_params = params or GenerationParams(n_samples=1)
    if mode in ("llm", "llm_then_rules") and backend is not None:
        buffers = spec.buffer_shapes()
        for block in blocks:
            rewritten = _llm_block_rewrite(block, backend, llm_params, buffers)
            if rewritten is None or rewritten == block.instructions:
                continue
            trial = list(blocks)
            trial[block.id] = Block(block.id, rewritten)
            candidate = reassemble(trial, identity, p)
            if verified(candidate) and program_cost(candidate).total <= before.total:
                blocks = _sliced(trial, step(candidate.instructions, cfg, memory_sizes(cfg, p.buffers)))  # it verified
    if mode in ("rules", "llm_then_rules"):
        ctx = PeepholeContext(dim=cfg.dim, buffers=p.buffers)
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
        if permutation is not None and _respects(permutation, analyze_dependences(blocks, p.buffers)):
            candidate = deduped(permutation)
            if candidate is not None:
                final, plan = candidate, OrderingPlan(permutation, provenance="llm")
    if mode == "llm" and plan.provenance == "search":
        # No peephole ran, so the dedup walk may still drop loads.
        final = deduped(plan.permutation) or final
    after = program_cost(final)
    if after.total > before.total:
        final, after, plan = p, before, search_reorder(blocks)
    return OptimizeResult(program=final, before=before, after=after, plan=plan)
