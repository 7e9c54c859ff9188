"""Block-level program optimization: segment, rewrite, reorder, verify.

A verified program is cut into contiguous blocks: a prelude of leading
configuration instructions, then one block per preload with the mvins that
feed it, its computes, and the mvouts its computes produce.  Blocks are
rewritten by peephole rules or by a model, orderings are searched or
proposed by a model, and every candidate must re-verify in the simulator
before it replaces its input.  A change that fails verification or raises
the modeled cost is discarded, so the pipeline never regresses a program.

Footprints drive the dependence analysis.  Memory footprints (scratchpad
rows, accumulator rows, DRAM element intervals) conflict by interval
overlap.  Register state (the config registers and the weight latch) is
treated as privatizable: a block that writes a register before reading it
breaks the dependence chain, so ordinary blocks that each begin with their
own preload do not serialize on the latch.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, replace

from .costs import CostParams, CostReport, instruction_cost, program_cost
from .gateway import Backend, GenerationParams
from .isa import (
    SENTINEL,
    ComputeAccumulated,
    ComputePreloaded,
    ConfigEx,
    ConfigLd,
    ConfigSt,
    Fence,
    Instruction,
    LocalAddr,
    Mvin,
    Mvout,
    Preload,
    PreloadZeros,
    Program,
    Space,
)
from .kernels import KernelSpec, TestCase, verify_program
from .machine import MachineConfig
from .program_text import ProgramSyntaxError, parse_program, render_instruction
from .prompts import build_block_optimize_prompt, build_reorder_prompt

_FAR = 1 << 40
_CONFIG_REGS = ("ex", "ld0", "ld1", "ld2", "st")


class CyclicDependence(ValueError):
    """The dependence edges admit no ordering."""


class PlanParseError(ValueError):
    """A reordering reply could not be read as a permutation of blocks."""


Interval = tuple[str, int, int]


@dataclass
class _ScanState:
    """Configuration and latch state carried across a left-to-right scan."""

    ld_strides: dict[int, int | None] = field(default_factory=lambda: {0: None, 1: None, 2: None})
    st_stride: int | None = None
    a_transpose: bool = False
    b_transpose: bool = False
    latch: tuple[int, int, bool] | None = None  # (c_row, c_rows, c_accumulate)


def _local_interval(local: LocalAddr, cols: int, rows: int, dim: int) -> Interval:
    tiles = (cols + dim - 1) // dim
    space = "acc" if local.space is Space.ACCUMULATOR else "spad"
    return (space, local.row, local.row + (tiles - 1) * dim + rows)


def _dram_interval(buffer: str, offset: int, cols: int, rows: int, pitch: int | None) -> Interval:
    if pitch is None:
        return (f"dram:{buffer}", 0, _FAR)
    return (f"dram:{buffer}", offset, offset + (rows - 1) * pitch + cols)


def _elems(stride_bytes: int | None) -> int | None:
    if stride_bytes is None or stride_bytes % 4 != 0:
        return None
    return stride_bytes // 4


def _effects(ins: Instruction, state: _ScanState, dim: int) -> tuple[list[Interval], list[Interval]]:
    """Reads and writes of one instruction, then update the scan state."""
    reads: list[Interval] = []
    writes: list[Interval] = []
    if isinstance(ins, ConfigEx):
        writes.append(("reg:ex", 0, 1))
        state.a_transpose = ins.a_transpose
        state.b_transpose = ins.b_transpose
    elif isinstance(ins, ConfigLd):
        writes.append((f"reg:ld{ins.channel}", 0, 1))
        state.ld_strides[ins.channel] = ins.stride_bytes
    elif isinstance(ins, ConfigSt):
        writes.append(("reg:st", 0, 1))
        state.st_stride = ins.stride_bytes
    elif isinstance(ins, Mvin):
        reads.append((f"reg:ld{ins.channel}", 0, 1))
        pitch = _elems(state.ld_strides.get(ins.channel))
        reads.append(_dram_interval(ins.dram.buffer, ins.dram.offset, ins.cols, ins.rows, pitch))
        dest = _local_interval(ins.local, ins.cols, ins.rows, dim)
        writes.append(dest)
        if ins.local.space is Space.ACCUMULATOR and ins.local.accumulate:
            reads.append(dest)
    elif isinstance(ins, Preload):
        writes.append(("reg:latch", 0, 1))
        if ins.b.is_sentinel:
            reads.append(("reg:latch", 0, 1))
        else:
            reads.append(("reg:ex", 0, 1))
            reads.append(("spad", ins.b.row, ins.b.row + ins.b_rows))
        state.latch = (ins.c.row, ins.c_rows, ins.c.accumulate)
    elif isinstance(ins, PreloadZeros):
        writes.append(("reg:latch", 0, 1))
        state.latch = (ins.c.row, dim, ins.c.accumulate)
    elif isinstance(ins, (ComputePreloaded, ComputeAccumulated)):
        reads.append(("reg:latch", 0, 1))
        reads.append(("reg:ex", 0, 1))
        reads.append(("spad", ins.a.row, ins.a.row + ins.a_rows))
        if not ins.d.is_sentinel:
            reads.append(("spad", ins.d.row, ins.d.row + ins.d_rows))
        if state.latch is None:
            target: Interval = ("acc", 0, _FAR)
            accumulate = True
        else:
            row, nrows, acc_bit = state.latch
            target = ("acc", row, row + nrows)
            accumulate = acc_bit or isinstance(ins, ComputeAccumulated)
        writes.append(target)
        if accumulate:
            reads.append(target)
    elif isinstance(ins, Mvout):
        reads.append(("reg:st", 0, 1))
        reads.append(("reg:ex", 0, 1))
        reads.append(_local_interval(ins.local, ins.cols, ins.rows, dim))
        writes.append(
            _dram_interval(ins.dram.buffer, ins.dram.offset, ins.cols, ins.rows, _elems(state.st_stride))
        )
    elif isinstance(ins, Fence):
        pass
    return reads, writes


def _overlap(a: Interval, b: Interval) -> bool:
    return a[0] == b[0] and a[1] < b[2] and b[1] < a[2]


def _any_overlap(xs: tuple[Interval, ...], ys: tuple[Interval, ...]) -> bool:
    return any(_overlap(x, y) for x in xs for y in ys)


@dataclass(frozen=True)
class Block:
    id: int
    instructions: tuple[Instruction, ...]
    reads: tuple[Interval, ...]
    writes: tuple[Interval, ...]
    exposed_regs: tuple[str, ...]
    written_regs: tuple[str, ...]

    def text(self) -> str:
        return "\n".join(render_instruction(ins) for ins in self.instructions)


def _memory_only(intervals: list[Interval]) -> list[Interval]:
    return [iv for iv in intervals if not iv[0].startswith("reg:")]


def _make_blocks(slices: list[tuple[Instruction, ...]], dim: int) -> list[Block]:
    """Build blocks (with footprints) from already-chosen contiguous slices."""
    state = _ScanState()
    blocks: list[Block] = []
    for block_id, instructions in enumerate(slices):
        reads: list[Interval] = []
        writes: list[Interval] = []
        exposed: list[str] = []
        written: list[str] = []
        for ins in instructions:
            r, w = _effects(ins, state, dim)
            for iv in r:
                if iv[0].startswith("reg:"):
                    reg = iv[0][4:]
                    if reg not in written and reg not in exposed:
                        exposed.append(reg)
                else:
                    reads.append(iv)
            for iv in w:
                if iv[0].startswith("reg:"):
                    reg = iv[0][4:]
                    if reg not in written:
                        written.append(reg)
                else:
                    writes.append(iv)
        blocks.append(
            Block(
                id=block_id,
                instructions=tuple(instructions),
                reads=tuple(reads),
                writes=tuple(writes),
                exposed_regs=tuple(exposed),
                written_regs=tuple(written),
            )
        )
    return blocks


def segment_blocks(p: Program, cfg: MachineConfig | None = None) -> list[Block]:
    """Cut a program into a prelude plus one block per preload.

    Cuts never move instructions: each mvin run directly before a preload
    joins the new block exactly when its first consumer (the first later
    instruction reading the rows it wrote) sits at or past that preload.
    """
    cfg = cfg or MachineConfig()
    instructions = list(p.instructions)
    if not instructions:
        return []

    state = _ScanState()
    per_ins: list[tuple[list[Interval], list[Interval]]] = []
    for ins in instructions:
        per_ins.append(_effects(ins, state, cfg.dim))

    def first_consumer(index: int) -> int:
        mem_writes = tuple(_memory_only(per_ins[index][1]))
        for later in range(index + 1, len(instructions)):
            mem_reads = tuple(_memory_only(per_ins[later][0]))
            if _any_overlap(mem_writes, mem_reads):
                return later
        return len(instructions)

    cuts: list[int] = []
    for index, ins in enumerate(instructions):
        if not isinstance(ins, (Preload, PreloadZeros)):
            continue
        start = index
        back = index - 1
        while back >= 0 and isinstance(instructions[back], Mvin):
            if first_consumer(back) >= index:
                start = back
                back -= 1
            else:
                break
        if not cuts or start > cuts[-1]:
            cuts.append(start)

    if cuts and cuts[0] == 0:
        slices = []
    elif cuts:
        slices = [tuple(instructions[: cuts[0]])]
    else:
        slices = [tuple(instructions)]
    for n, cut in enumerate(cuts):
        end = cuts[n + 1] if n + 1 < len(cuts) else len(instructions)
        slices.append(tuple(instructions[cut:end]))
    return _make_blocks(slices, cfg.dim)


def analyze_dependences(blocks: list[Block]) -> frozenset[tuple[int, int]]:
    """Pairwise block conflicts; every edge (i, j) means i stays before j."""
    edges: set[tuple[int, int]] = set()
    for i, a in enumerate(blocks):
        for b in blocks[i + 1 :]:
            if (
                _any_overlap(a.writes, b.reads)
                or _any_overlap(a.reads, b.writes)
                or _any_overlap(a.writes, b.writes)
            ):
                edges.add((a.id, b.id))

    for reg in _CONFIG_REGS + ("latch",):
        writers = [b.id for b in blocks if reg in b.written_regs]
        exposed = [b.id for b in blocks if reg in b.exposed_regs]
        if not exposed:
            continue
        for earlier, later in zip(writers, writers[1:]):
            edges.add((earlier, later))
        for reader in exposed:
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

    dim: int = 4
    state: _ScanState = field(default_factory=_ScanState)
    last_preload: Preload | PreloadZeros | None = None
    weights_clean: bool = False
    seen_mvins: dict[tuple, int] = field(default_factory=dict)

    def _invalidate_writes(self, writes: list[Interval]) -> None:
        mem = _memory_only(writes)
        if not mem:
            return
        stale = [key for key, _ in self.seen_mvins.items() if _any_overlap(tuple(mem), key[-1])]
        for key in stale:
            del self.seen_mvins[key]

    def _weights_interval(self) -> Interval | None:
        pre = self.last_preload
        if isinstance(pre, Preload) and not pre.b.is_sentinel:
            space = "acc" if pre.b.space is Space.ACCUMULATOR else "spad"
            return (space, pre.b.row, pre.b.row + pre.b_rows)
        return None


def _mvin_key(ins: Mvin, state: _ScanState, dim: int) -> tuple:
    dest = _local_interval(ins.local, ins.cols, ins.rows, dim)
    pitch = _elems(state.ld_strides.get(ins.channel))
    src = _dram_interval(ins.dram.buffer, ins.dram.offset, ins.cols, ins.rows, pitch)
    return (
        ins.channel,
        ins.dram.buffer,
        ins.dram.offset,
        ins.local.raw,
        ins.cols,
        ins.rows,
        pitch,
        (src, dest),
    )


def peephole_block(block: Block, ctx: PeepholeContext) -> Block:
    """Drop redundant preloads and mvins inside one block.

    The context carries what survived earlier blocks, so duplicate loads
    spanning block boundaries are caught when blocks are walked in order.
    Compute instructions are never touched.
    """
    kept: list[Instruction] = []
    for ins in block.instructions:
        if isinstance(ins, Mvin):
            accumulating = ins.local.space is Space.ACCUMULATOR and ins.local.accumulate
            key = _mvin_key(ins, ctx.state, ctx.dim)
            if not accumulating and key in ctx.seen_mvins:
                continue
            reads, writes = _effects(ins, ctx.state, ctx.dim)
            ctx._invalidate_writes(writes)
            weights = ctx._weights_interval()
            if weights is not None and _any_overlap(tuple(_memory_only(writes)), (weights,)):
                ctx.weights_clean = False
            if not accumulating:
                ctx.seen_mvins[key] = 0
            kept.append(ins)
            continue
        if isinstance(ins, (Preload, PreloadZeros)):
            previous = ctx.last_preload
            same = (
                previous is not None
                and type(ins) is type(previous)
                and ins == previous
                and ctx.weights_clean
            )
            if same:
                _effects(ins, ctx.state, ctx.dim)
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
            _effects(ins, ctx.state, ctx.dim)
            ctx.last_preload = ins
            ctx.weights_clean = True
            kept.append(rewritten)
            continue
        if isinstance(ins, ConfigEx):
            ctx.weights_clean = False  # a transpose change would alter relatched weights
        reads, writes = _effects(ins, ctx.state, ctx.dim)
        ctx._invalidate_writes(writes)
        weights = ctx._weights_interval()
        if weights is not None and _any_overlap(tuple(_memory_only(writes)), (weights,)):
            ctx.weights_clean = False
        kept.append(ins)
    return Block(
        id=block.id,
        instructions=tuple(kept),
        reads=block.reads,
        writes=block.writes,
        exposed_regs=block.exposed_regs,
        written_regs=block.written_regs,
    )


def dedup_mvins(instructions: tuple[Instruction, ...], dim: int = 4) -> tuple[Instruction, ...]:
    """Program-wide duplicate-mvin elimination with write invalidation."""
    ctx = PeepholeContext(dim=dim)
    kept: list[Instruction] = []
    for ins in instructions:
        if isinstance(ins, Mvin):
            accumulating = ins.local.space is Space.ACCUMULATOR and ins.local.accumulate
            key = _mvin_key(ins, ctx.state, dim)
            if not accumulating and key in ctx.seen_mvins:
                continue
            _, writes = _effects(ins, ctx.state, dim)
            ctx._invalidate_writes(writes)
            if not accumulating:
                ctx.seen_mvins[key] = 0
            kept.append(ins)
            continue
        _, writes = _effects(ins, ctx.state, dim)
        ctx._invalidate_writes(writes)
        kept.append(ins)
    return tuple(kept)


# -- ordering ------------------------------------------------------------------


@dataclass(frozen=True)
class OrderingPlan:
    permutation: tuple[int, ...]
    provenance: str


def _respects(order: tuple[int, ...], edges: frozenset[tuple[int, int]]) -> bool:
    position = {block_id: pos for pos, block_id in enumerate(order)}
    return all(position[i] < position[j] for i, j in edges)


def _block_profiles(
    blocks: list[Block], params: CostParams, dim: int
) -> tuple[list[list[tuple]], float, bool]:
    """Per-block walk entries for the ordering objective.

    Cost is position-independent per instruction, so the objective reduces
    to a fixed total minus whatever the cross-block mvin dedup saves.  The
    profiles carry just enough state to replay that dedup quickly: stride
    updates, mvin keys and intervals, and memory writes that invalidate
    earlier loads.  Compute targets come from the block's own preload, so
    they are resolvable without global state.
    """
    profiles: list[list[tuple]] = []
    fixed_total = 0.0
    key_counts: dict[tuple, int] = {}
    for block in blocks:
        latch: tuple[int, int] | None = None
        entries: list[tuple] = []
        for ins in block.instructions:
            cost = instruction_cost(ins, params)
            fixed_total += cost
            if isinstance(ins, ConfigLd):
                entries.append(("ld", ins.channel, ins.stride_bytes))
            elif isinstance(ins, ConfigSt):
                entries.append(("st", ins.stride_bytes))
            elif isinstance(ins, Mvin):
                accumulating = ins.local.space is Space.ACCUMULATOR and ins.local.accumulate
                dest = _local_interval(ins.local, ins.cols, ins.rows, dim)
                static_key = (ins.channel, ins.dram.buffer, ins.dram.offset, ins.local.raw, ins.cols, ins.rows)
                if not accumulating:
                    key_counts[static_key] = key_counts.get(static_key, 0) + 1
                entries.append(("mvin", cost, accumulating, static_key, ins.rows, ins.cols, dest))
            elif isinstance(ins, Preload):
                latch = (ins.c.row, ins.c_rows)
            elif isinstance(ins, PreloadZeros):
                latch = (ins.c.row, dim)
            elif isinstance(ins, (ComputePreloaded, ComputeAccumulated)):
                target = ("acc", latch[0], latch[0] + latch[1]) if latch else ("acc", 0, _FAR)
                entries.append(("write", target))
            elif isinstance(ins, Mvout):
                entries.append(("mvout", ins.dram.buffer, ins.dram.offset, ins.cols, ins.rows))
        profiles.append(entries)
    any_duplicates = any(count > 1 for count in key_counts.values())
    return profiles, fixed_total, any_duplicates


def _dedup_savings(profiles: list[list[tuple]], order: tuple[int, ...]) -> float:
    ld: dict[int, int | None] = {0: None, 1: None, 2: None}
    st: int | None = None
    seen: dict[tuple, tuple[Interval, Interval]] = {}
    buckets: dict[str, set[tuple]] = {}
    saved = 0.0

    def invalidate(interval: Interval) -> None:
        bucket = buckets.get(interval[0])
        if not bucket:
            return
        stale = [key for key in bucket if key in seen and (
            _overlap(interval, seen[key][0]) or _overlap(interval, seen[key][1]))]
        for key in stale:
            src, dest = seen.pop(key)
            buckets[src[0]].discard(key)
            buckets[dest[0]].discard(key)

    for block_id in order:
        for entry in profiles[block_id]:
            tag = entry[0]
            if tag == "ld":
                ld[entry[1]] = entry[2]
            elif tag == "st":
                st = entry[2]
            elif tag == "mvin":
                _, cost, accumulating, static_key, rows, cols, dest = entry
                pitch = _elems(ld[static_key[0]])
                key = static_key + (pitch,)
                if not accumulating and key in seen:
                    saved += cost
                    continue
                buffer, offset = static_key[1], static_key[2]
                if pitch is None:
                    src: Interval = (f"dram:{buffer}", 0, _FAR)
                else:
                    src = (f"dram:{buffer}", offset, offset + (rows - 1) * pitch + cols)
                invalidate(dest)
                if not accumulating:
                    seen[key] = (src, dest)
                    buckets.setdefault(src[0], set()).add(key)
                    buckets.setdefault(dest[0], set()).add(key)
            elif tag == "write":
                invalidate(entry[1])
            else:
                _, buffer, offset, cols, rows = entry
                pitch = _elems(st)
                if pitch is None:
                    invalidate((f"dram:{buffer}", 0, _FAR))
                else:
                    invalidate((f"dram:{buffer}", offset, offset + (rows - 1) * pitch + cols))
    return saved


def _check_acyclic(n: int, edges: frozenset[tuple[int, int]]) -> None:
    pending = {i: 0 for i in range(n)}
    for _, j in edges:
        pending[j] += 1
    ready = [i for i, deg in pending.items() if deg == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for i, j in edges:
            if i == node:
                pending[j] -= 1
                if pending[j] == 0:
                    ready.append(j)
    if seen != n:
        raise CyclicDependence(f"dependence edges contain a cycle over {n} blocks")


def search_reorder(
    blocks: list[Block],
    edges: frozenset[tuple[int, int]],
    params: CostParams | None = None,
    cfg: MachineConfig | None = None,
    exhaustive_limit: int = 8,
) -> OrderingPlan:
    """Find a dependence-respecting order minimizing modeled cost.

    Small programs get an exhaustive sweep over topological orders with a
    lexicographic tie-break; larger ones get deterministic greedy
    best-insertion in block-id order, placing each block as late as ties
    allow so an already-optimal program keeps its original order.
    """
    params = params or CostParams()
    cfg = cfg or MachineConfig()
    n = len(blocks)
    if n == 0:
        return OrderingPlan(permutation=(), provenance="search")
    _check_acyclic(n, edges)
    identity = tuple(range(n))

    profiles, _, any_duplicates = _block_profiles(blocks, params, cfg.dim)
    if not any_duplicates:
        return OrderingPlan(permutation=identity, provenance="search")

    if n <= exhaustive_limit:
        best: tuple[float, tuple[int, ...]] | None = None
        for perm in itertools.permutations(range(n)):
            if not _respects(perm, edges):
                continue
            cost = -_dedup_savings(profiles, perm)
            if best is None or cost < best[0]:
                best = (cost, perm)
        assert best is not None  # the identity order always respects the edges
        return OrderingPlan(permutation=best[1], provenance="search")

    order: list[int] = []
    for block_id in range(n):
        predecessors = {i for i, j in edges if j == block_id}
        lowest = 0
        for pos, placed in enumerate(order):
            if placed in predecessors:
                lowest = pos + 1
        best_pos, best_cost = len(order), None
        for pos in range(len(order), lowest - 1, -1):
            candidate = tuple(order[:pos] + [block_id] + order[pos:])
            cost = -_dedup_savings(profiles, candidate)
            if best_cost is None or cost < best_cost:
                best_cost, best_pos = cost, pos
        order.insert(best_pos, block_id)
    return OrderingPlan(permutation=tuple(order), provenance="search")


def parse_plan(reply: str, n_blocks: int) -> tuple[int, ...]:
    """Read a reordering reply as a permutation of block ids."""
    labeled = [int(m) for m in re.findall(r"[Bb]lock\s*#?\s*(\d+)", reply)]
    candidates = labeled if labeled else [int(m) for m in re.findall(r"\d+", reply)]
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
    cost_params: CostParams | None = None,
    cfg: MachineConfig | None = None,
) -> OptimizeResult:
    """Optimize a verified program; every stage is gated by verification."""
    if mode not in ("rules", "llm", "llm_then_rules"):
        raise ValueError(f"unknown optimize mode '{mode}'")
    cost_params = cost_params or CostParams()
    cfg = cfg or MachineConfig()
    if not verify_program(p, spec, cases, cfg).passed:
        raise ValueError("optimize_program expects a program that already verifies")
    before = program_cost(p, cost_params)

    blocks = segment_blocks(p, cfg)
    if not blocks:
        return OptimizeResult(p, before, before, OrderingPlan((), "search"))
    identity = tuple(range(len(blocks)))

    def verified(candidate: Program) -> bool:
        return verify_program(candidate, spec, cases, cfg).passed

    # Stage 1: per-block rewrites, each gated by whole-program verification.
    llm_params = params or GenerationParams(n_samples=1)
    if mode in ("llm", "llm_then_rules") and backend is not None:
        slices = [block.instructions for block in blocks]
        for position, block in enumerate(blocks):
            rewritten = _llm_block_rewrite(block, backend, llm_params, p)
            if rewritten is None or rewritten == block.instructions:
                continue
            trial = list(slices)
            trial[position] = rewritten
            candidate = reassemble(_make_blocks(trial, cfg.dim), identity, p)
            if verified(candidate) and program_cost(candidate, cost_params).total <= before.total:
                slices = trial
        blocks = _make_blocks(slices, cfg.dim)
    if mode in ("rules", "llm_then_rules"):
        ctx = PeepholeContext(dim=cfg.dim)
        slices = [peephole_block(block, ctx).instructions for block in blocks]
        candidate_blocks = _make_blocks(slices, cfg.dim)
        candidate = reassemble(candidate_blocks, identity, p)
        if verified(candidate):
            blocks = candidate_blocks

    # Stage 2: ordering.
    edges = analyze_dependences(blocks)
    plan: OrderingPlan | None = None
    if mode in ("llm", "llm_then_rules") and backend is not None:
        try:
            reply = backend.complete(
                build_reorder_prompt([block.text() for block in blocks]), llm_params
            )[0].text
            permutation = parse_plan(reply, len(blocks))
            if _respects(permutation, edges):
                candidate = reassemble(blocks, permutation, p, dedup=True, cfg=cfg)
                if verified(candidate):
                    plan = OrderingPlan(permutation, provenance="llm")
        except PlanParseError:
            plan = None
    if plan is None:
        plan = search_reorder(blocks, edges, cost_params, cfg)

    final = reassemble(blocks, plan.permutation, p, dedup=True, cfg=cfg)
    if not verified(final):
        final, plan = p, OrderingPlan(identity, provenance="search")
    after = program_cost(final, cost_params)
    if after.total > before.total:
        final, after, plan = p, before, OrderingPlan(identity, provenance="search")
    return OptimizeResult(program=final, before=before, after=after, plan=plan)
