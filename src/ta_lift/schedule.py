"""Interactive loop scheduling driven by APPLY commands.

A scheduling session holds a kernel plus a reduced-extent clone.  Commands
name source lines on the full kernel, resolve to structural paths, and are
applied to both copies.  Each accepted rewrite must leave the reduced clone
bit-equivalent to its predecessor on randomized inputs, which keeps the
check cheap while still catching dependence violations the conservative
legality rules let through.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .gateway import Backend, GenerationParams
from .loopir import (
    Accumulate,
    Assign,
    BoundsError,
    Const,
    Expr,
    KernelSyntaxError,
    Loop,
    LoopNest,
    Read,
    Statement,
    Var,
    check_bounds,
    check_equivalence,
    free_vars,
    locality_cost,
    plus,
    reduce_extents,
    render_header,
    render_kernel,
    render_line,
    substitute_stmt,
    times,
    _walk,
)
from .prompts import Prompt, _asset, _make_prompt


class LineNotFound(ValueError):
    """No statement renders as the requested line."""


class AmbiguousLine(ValueError):
    """Several statements render as the requested line and no occurrence was given."""


class IllegalRewrite(ValueError):
    """The rewrite is structurally inapplicable or unsafe."""


class NonDivisibleTile(IllegalRewrite):
    """The tile size does not divide the loop extent."""


class CommandError(ValueError):
    """An APPLY command could not be parsed or validated."""


OPTIMIZATIONS = ("tile", "fuse", "reorder", "fission", "unroll")

_ARGUMENT_NAMES = {
    "tile": frozenset({"line", "tile_size", "outer_name", "inner_name"}),
    "fuse": frozenset({"line1", "line2"}),
    "reorder": frozenset({"line"}),
    "fission": frozenset({"line", "location"}),
    "unroll": frozenset({"line"}),
}

_UNROLL_LIMIT = 1024


@dataclass(frozen=True)
class ScheduleCommand:
    optimization: str
    arguments: dict[str, str | int]

    def as_payload(self) -> dict:
        return {"optimization": self.optimization, "arguments": dict(self.arguments)}


# -- line lookup ---------------------------------------------------------------

Path = tuple[int, ...]

_OCCURRENCE = re.compile(r"\s#(\d+)\s*$")


def _normalize(line: str) -> str:
    return " ".join(line.split())


def _walk_statements(stmts: tuple[Statement, ...], prefix: Path):
    for i, stmt in enumerate(stmts):
        path = prefix + (i,)
        yield path, stmt
        if isinstance(stmt, Loop):
            yield from _walk_statements(stmt.body, path)


def find_line(nest: LoopNest, line: str) -> tuple[Path, Statement]:
    """Locate the statement whose source text matches `line`.

    A ` #N` suffix picks the N-th occurrence (0-indexed) in textual order.
    """
    occurrence = None
    m = _OCCURRENCE.search(line)
    if m is not None:
        occurrence = int(m.group(1))
        line = line[: m.start()]
    wanted = _normalize(line)
    matches = [
        (path, stmt)
        for path, stmt in _walk_statements(nest.body, ())
        if _normalize(render_line(stmt)) == wanted
    ]
    if not matches:
        raise LineNotFound(f"no line matching '{wanted}'")
    if occurrence is not None:
        if occurrence >= len(matches):
            raise LineNotFound(
                f"line '{wanted}' has {len(matches)} occurrences, no occurrence #{occurrence}"
            )
        return matches[occurrence]
    if len(matches) > 1:
        raise AmbiguousLine(
            f"line '{wanted}' appears {len(matches)} times, add ' #N' to disambiguate"
        )
    return matches[0]


def _node_at(nest: LoopNest, path: Path) -> Statement:
    stmts: tuple[Statement, ...] = nest.body
    node: Statement | None = None
    for index in path:
        node = stmts[index]
        stmts = node.body if isinstance(node, Loop) else ()
    assert node is not None
    return node


def _splice(nest: LoopNest, path: Path, replacement: tuple[Statement, ...]) -> LoopNest:
    def rebuild(stmts: tuple[Statement, ...], depth: int) -> tuple[Statement, ...]:
        index = path[depth]
        out = list(stmts)
        if depth == len(path) - 1:
            out[index : index + 1] = list(replacement)
        else:
            loop = out[index]
            assert isinstance(loop, Loop)
            out[index] = Loop(loop.var, loop.lo, loop.hi, rebuild(loop.body, depth + 1))
        return tuple(out)

    return LoopNest(nest.name, nest.arrays, rebuild(nest.body, 0))


def _names_in(stmts: tuple[Statement, ...]) -> set[str]:
    names: set[str] = set()
    for _, stmt in _walk_statements(stmts, ()):
        if isinstance(stmt, Loop):
            names.add(stmt.var)
            continue
        for index in stmt.indices:
            names |= free_vars(index)
        names |= free_vars(stmt.rhs)
    return names


def _collect_accesses(
    stmts: tuple[Statement, ...],
) -> tuple[list[tuple[str, tuple[Expr, ...]]], list[tuple[str, tuple[Expr, ...]]]]:
    """All (array, indices) pairs, split into writes and reads."""
    writes: list[tuple[str, tuple[Expr, ...]]] = []
    reads: list[tuple[str, tuple[Expr, ...]]] = []
    for _, stmt in _walk_statements(stmts, ()):
        if isinstance(stmt, Loop):
            continue
        writes.append((stmt.array, stmt.indices))
        if isinstance(stmt, Accumulate):
            reads.append((stmt.array, stmt.indices))
        for node in _walk(stmt.rhs):
            if isinstance(node, Read):
                reads.append((node.array, node.indices))
    return writes, reads


def _indices_depend_on(indices: tuple[Expr, ...], var: str) -> bool:
    return any(var in free_vars(index) for index in indices)


def _cross_conflict(
    seg1: tuple[Statement, ...], seg2: tuple[Statement, ...], var: str
) -> str | None:
    """Array whose accesses would be reordered across the segments, if any."""
    writes1, reads1 = _collect_accesses(seg1)
    writes2, reads2 = _collect_accesses(seg2)
    for writes, accesses in ((writes1, writes2 + reads2), (writes2, writes1 + reads1)):
        for array_w, idx_w in writes:
            for array_a, idx_a in accesses:
                if array_w != array_a or idx_w == idx_a:
                    continue
                if _indices_depend_on(idx_w, var) or _indices_depend_on(idx_a, var):
                    return array_w
    return None


# -- the five rewrites ---------------------------------------------------------


def tile_at(nest: LoopNest, path: Path, size: int, outer: str, inner: str) -> LoopNest:
    node = _node_at(nest, path)
    if not isinstance(node, Loop):
        raise IllegalRewrite(f"tile target is not a loop: '{render_line(node)}'")
    if size <= 0:
        raise IllegalRewrite(f"tile size must be positive, got {size}")
    extent = node.hi - node.lo
    if extent % size != 0:
        raise NonDivisibleTile(f"loop extent {extent} is not divisible by tile size {size}")
    taken = _names_in(node.body) | {node.var}
    for name in (outer, inner):
        if name in taken:
            raise IllegalRewrite(f"loop name '{name}' is already in use")
    if outer == inner:
        raise IllegalRewrite("outer and inner tile loops need distinct names")
    replacement = plus(Const(node.lo), plus(Var(inner), times(Const(size), Var(outer))))
    body = tuple(substitute_stmt(s, node.var, replacement) for s in node.body)
    tiled = Loop(outer, 0, extent // size, (Loop(inner, 0, size, body),))
    return _splice(nest, path, (tiled,))


def _reorder_snippet(nest: LoopNest, path: Path) -> str:
    """The offending region, rendered with the loop body marked."""
    lines = render_header(nest)
    depth = 1
    for prefix_len in range(1, len(path)):
        ancestor = _node_at(nest, path[:prefix_len])
        lines.append("    " * depth + render_line(ancestor))
        depth += 1
    if path[-1] > 0:
        lines.append("    " * depth + "...")
    target = _node_at(nest, path)
    lines.append("    " * depth + render_line(target))
    if isinstance(target, Loop):
        for j, stmt in enumerate(target.body):
            rendered = "    " * (depth + 1) + render_line(stmt)
            if j == 0:
                rendered += "  # <-- NODE"
            lines.append(rendered)
    return "\n".join(lines)


def reorder_at(nest: LoopNest, path: Path) -> LoopNest:
    node = _node_at(nest, path)
    if not isinstance(node, Loop):
        raise IllegalRewrite(f"reorder target is not a loop: '{render_line(node)}'")
    if len(node.body) != 1 or not isinstance(node.body[0], Loop):
        raise IllegalRewrite(
            "argument 1, 'nested_loops' to reorder_loops: expected the body of the "
            "outer loop to be a single loop, but it was a " + _reorder_snippet(nest, path)
        )
    inner = node.body[0]
    swapped = Loop(inner.var, inner.lo, inner.hi, (Loop(node.var, node.lo, node.hi, inner.body),))
    return _splice(nest, path, (swapped,))


def unroll_at(nest: LoopNest, path: Path) -> LoopNest:
    node = _node_at(nest, path)
    if not isinstance(node, Loop):
        raise IllegalRewrite(f"unroll target is not a loop: '{render_line(node)}'")
    extent = node.hi - node.lo
    if extent > _UNROLL_LIMIT:
        raise IllegalRewrite(f"unrolling {extent} iterations exceeds the limit of {_UNROLL_LIMIT}")
    replacement = tuple(
        substitute_stmt(stmt, node.var, Const(node.lo + i))
        for i in range(extent)
        for stmt in node.body
    )
    return _splice(nest, path, replacement)


def fission_at(nest: LoopNest, path: Path, location: str) -> LoopNest:
    if location not in ("before", "after"):
        raise IllegalRewrite(f"fission location must be 'before' or 'after', got '{location}'")
    if len(path) < 2:
        raise IllegalRewrite("fission target must be inside a loop")
    parent = _node_at(nest, path[:-1])
    assert isinstance(parent, Loop)
    split = path[-1] + (1 if location == "after" else 0)
    if split == 0 or split == len(parent.body):
        raise IllegalRewrite("fission would create an empty loop")
    seg1, seg2 = parent.body[:split], parent.body[split:]
    conflict = _cross_conflict(seg1, seg2, parent.var)
    if conflict is not None:
        raise IllegalRewrite(f"fission would reorder accesses to '{conflict}' across the split")
    halves = (
        Loop(parent.var, parent.lo, parent.hi, seg1),
        Loop(parent.var, parent.lo, parent.hi, seg2),
    )
    return _splice(nest, path[:-1], halves)


def fuse_at(nest: LoopNest, path1: Path, path2: Path) -> LoopNest:
    if path1[:-1] != path2[:-1]:
        raise IllegalRewrite("fuse targets must be siblings in the same loop body")
    if path1[-1] > path2[-1]:
        path1, path2 = path2, path1
    if path2[-1] != path1[-1] + 1:
        raise IllegalRewrite("fuse targets must be adjacent loops")
    first = _node_at(nest, path1)
    second = _node_at(nest, path2)
    if not isinstance(first, Loop) or not isinstance(second, Loop):
        raise IllegalRewrite("fuse targets must both be loops")
    if (first.lo, first.hi) != (second.lo, second.hi):
        raise IllegalRewrite(
            f"fuse targets have different bounds: seq({first.lo}, {first.hi}) "
            f"vs seq({second.lo}, {second.hi})"
        )
    if first.var != second.var:
        if first.var in _names_in(second.body):
            raise IllegalRewrite(f"renaming '{second.var}' to '{first.var}' would capture a name")
        renamed = tuple(substitute_stmt(s, second.var, Var(first.var)) for s in second.body)
    else:
        renamed = second.body
    conflict = _cross_conflict(first.body, renamed, first.var)
    if conflict is not None:
        raise IllegalRewrite(f"fusing would reorder accesses to '{conflict}'")
    fused = Loop(first.var, first.lo, first.hi, first.body + renamed)
    trimmed = _splice(nest, path2, ())
    return _splice(trimmed, path1, (fused,))


# -- command application -------------------------------------------------------


def _resolve_paths(nest: LoopNest, command: ScheduleCommand) -> tuple[Path, ...]:
    args = command.arguments
    if command.optimization == "fuse":
        return (find_line(nest, str(args["line1"]))[0], find_line(nest, str(args["line2"]))[0])
    return (find_line(nest, str(args["line"]))[0],)


def _apply_at(
    nest: LoopNest, command: ScheduleCommand, paths: tuple[Path, ...], clamp_tiles: bool = False
) -> LoopNest:
    args = command.arguments
    op = command.optimization
    try:
        if op == "tile":
            size = int(args["tile_size"])
            if clamp_tiles:
                node = _node_at(nest, paths[0])
                if isinstance(node, Loop):
                    extent = node.hi - node.lo
                    size = min(size, extent)
                    while extent % size != 0:
                        size -= 1
            result = tile_at(nest, paths[0], size, str(args["outer_name"]), str(args["inner_name"]))
        elif op == "reorder":
            result = reorder_at(nest, paths[0])
        elif op == "unroll":
            result = unroll_at(nest, paths[0])
        elif op == "fission":
            result = fission_at(nest, paths[0], str(args["location"]))
        elif op == "fuse":
            result = fuse_at(nest, paths[0], paths[1])
        else:
            raise CommandError(f"unknown optimization '{op}'")
    except IndexError:
        raise IllegalRewrite(
            "the verification clone has diverged structurally, rejecting conservatively"
        ) from None
    check_bounds(result)
    return result


def apply_schedule_command(nest: LoopNest, command: ScheduleCommand) -> LoopNest:
    """Apply one command to a kernel, raising a typed error when it cannot."""
    return _apply_at(nest, command, _resolve_paths(nest, command))


# -- APPLY parsing -------------------------------------------------------------


def parse_apply_command(text: str) -> ScheduleCommand:
    """Extract and validate the trailing APPLY command of a model reply."""
    apply_lines = [line.strip() for line in text.splitlines() if line.strip().startswith("APPLY:")]
    if not apply_lines:
        raise CommandError("no APPLY: command found in the reply")
    payload = apply_lines[-1][len("APPLY:") :].strip()
    try:
        data = json.loads(payload)
    except (ValueError, RecursionError) as err:  # also a number past int()'s digit limit, or deep nesting
        raise CommandError(f"invalid JSON after APPLY: ({err})") from None
    if not isinstance(data, dict) or "optimization" not in data or "arguments" not in data:
        raise CommandError("APPLY payload must carry 'optimization' and 'arguments'")
    name = data["optimization"]
    if name not in OPTIMIZATIONS:
        raise CommandError(f"unknown optimization '{name}'")
    arguments = data["arguments"]
    if not isinstance(arguments, dict):
        raise CommandError("'arguments' must be an object")
    expected = _ARGUMENT_NAMES[name]
    if set(arguments) != expected:
        raise CommandError(
            f"'{name}' expects arguments {sorted(expected)}, got {sorted(arguments)}"
        )
    normalized: dict[str, str | int] = {}
    for key, value in arguments.items():
        if key == "tile_size":
            try:
                normalized[key] = int(str(value))
            except ValueError:
                raise CommandError(f"tile_size must be an integer, got '{value}'") from None
            continue
        if not isinstance(value, str):
            raise CommandError(f"argument '{key}' must be a string")
        normalized[key] = value.strip() if key == "location" else value
    if name == "fission" and normalized["location"] not in ("before", "after"):
        raise CommandError(f"fission location must be 'before' or 'after', got '{normalized['location']}'")
    return ScheduleCommand(name, normalized)


# -- sessions ------------------------------------------------------------------

_REWRITE_ERRORS = (
    LineNotFound,
    AmbiguousLine,
    IllegalRewrite,
    BoundsError,
    KernelSyntaxError,
)


@dataclass
class SessionRecord:
    command: dict | None
    result: str
    cost: float


@dataclass
class ScheduleSession:
    """Parallel full and reduced kernel states plus an ordered transcript."""

    full: LoopNest
    reduced_limit: int = 8
    trials: int = 5
    seed: int = 0
    penalty: float = 4.0
    reduced: LoopNest = field(init=False)
    records: list[SessionRecord] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self.reduced = reduce_extents(self.full, self.reduced_limit)

    @property
    def cost(self) -> float:
        return locality_cost(self.full, self.penalty)

    def apply(self, command: ScheduleCommand) -> tuple[bool, str]:
        """Apply one command to both states, gated on reduced equivalence."""
        try:
            paths = _resolve_paths(self.full, command)
            new_full = _apply_at(self.full, command, paths)
            new_reduced = _apply_at(self.reduced, command, paths, clamp_tiles=True)
            verdict = check_equivalence(self.reduced, new_reduced, self.trials, self.seed)
            if not verdict.passed:
                raise IllegalRewrite(
                    f"the rewrite changed the kernel's results on randomized inputs "
                    f"({verdict.detail})"
                )
        except _REWRITE_ERRORS as err:
            self.records.append(SessionRecord(command.as_payload(), str(err), self.cost))
            return False, str(err)
        self.full = new_full
        self.reduced = new_reduced
        self.records.append(SessionRecord(command.as_payload(), "ok", self.cost))
        return True, "ok"

    def note_parse_failure(self, message: str) -> None:
        self.records.append(SessionRecord(None, message, self.cost))

    def transcript(self) -> list[dict]:
        return [
            {"command": r.command, "result": r.result, "cost": r.cost} for r in self.records
        ]

    def transcript_json(self) -> str:
        return json.dumps(self.transcript(), indent=2) + "\n"


# -- prompting -----------------------------------------------------------------

_KERNEL_MARK = "<KERNEL>"
_COST_MARK = "<COST>"

_APPLIED_TEMPLATE = (
    "I have applied the optimization. The new kernel code is as follows:\n"
    "\n"
    "{kernel}\n"
    "The new code achieves a locality cost of {cost}. Please give me another "
    "optimization to apply, using the same format as before."
)

_ERROR_TEMPLATE = (
    "An error occurred while applying the optimization:\n"
    "{error}\n"
    "Please fix the error and try again."
)


def format_cost(cost: float) -> str:
    return str(int(cost)) if float(cost).is_integer() else str(cost)


def schedule_system_text() -> str:
    return _asset("schedule_system.txt").strip("\n")


def schedule_task_text() -> str:
    return _asset("schedule_task.txt").strip("\n")


def build_schedule_prompt(nest: LoopNest, cost: float | None = None, penalty: float = 4.0) -> Prompt:
    if cost is None:
        cost = locality_cost(nest, penalty)
    task = schedule_task_text()
    task = task.replace(_KERNEL_MARK, render_kernel(nest).rstrip("\n"))
    task = task.replace(_COST_MARK, format_cost(cost))
    return _make_prompt([("system", schedule_system_text()), ("user", task)])


def feedback_applied(nest: LoopNest, cost: float) -> str:
    return _APPLIED_TEMPLATE.format(kernel=render_kernel(nest), cost=format_cost(cost))


def feedback_error(message: str) -> str:
    return _ERROR_TEMPLATE.format(error=message)


def extend_prompt(prompt: Prompt, reply: str, feedback: str) -> Prompt:
    """The conversation grown by one assistant reply and one user feedback turn."""
    return _make_prompt(list(prompt.messages) + [("assistant", reply), ("user", feedback)])


def run_llm_session(
    nest: LoopNest,
    backend: Backend,
    params: GenerationParams | None = None,
    max_steps: int = 8,
    reduced_limit: int = 8,
    trials: int = 5,
    seed: int = 0,
    penalty: float = 4.0,
) -> ScheduleSession:
    """Drive a multi-turn scheduling conversation against a backend.

    Each turn sends the running conversation, parses the trailing APPLY
    command, applies it through the session gate, and folds the resulting
    feedback message back into the next prompt.
    """
    session = ScheduleSession(nest, reduced_limit=reduced_limit, trials=trials, seed=seed, penalty=penalty)
    generation = params or GenerationParams(n_samples=1)
    prompt = build_schedule_prompt(nest, session.cost, penalty)
    for _ in range(max_steps):
        completions = backend.complete(prompt, generation)
        if not completions:
            break
        reply = completions[0].text
        try:
            command = parse_apply_command(reply)
        except CommandError as err:
            session.note_parse_failure(str(err))
            feedback = feedback_error(str(err))
        else:
            ok, message = session.apply(command)
            feedback = (
                feedback_applied(session.full, session.cost) if ok else feedback_error(message)
            )
        prompt = extend_prompt(prompt, reply, feedback)
    return session
