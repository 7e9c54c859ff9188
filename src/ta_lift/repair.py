"""Constant repair: mark suspect constants as holes, fill, verify.

A near-miss candidate often differs from a working program only in a few
magic numbers (strides, tile counts, address offsets).  The flow here has
two steps.  First the candidate's uncertain constants are marked, either
by a model or by hand: each suspect site becomes a `<CONST>` token, or a
fresh `uint32_t` declaration whose initializer is the suspect value.
Second the holes are filled, either by asking the model or by enumerating
assignments from a small constant set, and every filled program runs
through the simulator until one verifies.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterator

from . import kernels
from .gateway import Backend, GenerationParams
from .harness import _FENCE, extract_code
from .isa import BY_MNEMONIC, Program
from .kernels import KernelSpec, TestCase, verify_source
from .machine import MachineConfig
from .program_text import (
    _ACTIVATIONS,
    _DATAFLOWS,
    _KEYWORDS,
    ProgramSyntaxError,
    _fill_slots,
    _tokenize,
    _tokenize_slots,
    parse_program,
)
from .prompts import EmptyConstantSet, build_repair_fill_prompt, build_repair_mark_prompt

MARKER = "<CONST>"
DEFAULT_CONSTANT_SET: tuple[int, ...] = (0, 1, 3, 4, 12)
DEFAULT_CAP = 10_000
DEFAULT_MAX_HOLES = 5

_RESERVED = set(BY_MNEMONIC) | _KEYWORDS | set(_DATAFLOWS) | set(_ACTIVATIONS)

_DECL = re.compile(r"^[ \t]*(?:static[ \t]+)?uint32_t[ \t]+(\w+)[ \t]*=[ \t]*(-?\d+)[ \t]*;", re.M)


class NoHolesFound(ValueError):
    """The marked code contains no repairable sites."""


@dataclass(frozen=True)
class Hole:
    """A repairable site; `start`/`end` delimit its text (a marker or an initializer) in the code."""

    id: str
    line: int
    column: int
    start: int
    end: int
    name: str | None = None


@dataclass(frozen=True)
class HoleTemplate:
    code: str
    holes: tuple[Hole, ...]
    origin: str = ""

    def pieces(self) -> list[str]:
        """The code around the holes: one more piece than there are holes."""
        pieces, last = [], 0
        for hole in self.holes:
            pieces.append(self.code[last : hole.start])
            last = hole.end
        pieces.append(self.code[last:])
        return pieces

    def substitute(self, values: dict[str, int]) -> str:
        """Fill every hole; `values` maps hole id to an integer."""
        pieces = self.pieces()
        return pieces[0] + "".join(str(values[hole.id]) + piece for hole, piece in zip(self.holes, pieces[1:]))


def _position(text: str, offset: int) -> tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    column = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return line, column


def extract_holes(marked_code: str, original: str | None = None, origin: str = "") -> HoleTemplate:
    """Locate every hole in marked code, in textual order.

    `<CONST>` tokens always count.  When the original candidate is given,
    any fresh integer-initialized `uint32_t` declaration (a name the
    original never mentions) counts as a named hole as well.

    Ids are unique: markers are `h0`, `h1`, ...; a named hole's id is its
    name, or `name#N` when that id is already taken (the name is declared
    again, or it is also a marker id).
    """
    found: list[tuple[int, Hole]] = []
    ids: set[str] = set()
    for marker_index, match in enumerate(re.finditer(re.escape(MARKER), marked_code)):
        line, column = _position(marked_code, match.start())
        hole = Hole(id=f"h{marker_index}", line=line, column=column, start=match.start(), end=match.end())
        found.append((match.start(), hole))
        ids.add(hole.id)
    if original is not None:
        for match in _DECL.finditer(marked_code):
            name = match.group(1)
            if name in _RESERVED:
                continue
            if re.search(rf"\b{re.escape(name)}\b", original):
                continue
            hole_id, again = name, 0
            while hole_id in ids:
                again += 1
                hole_id = f"{name}#{again}"
            ids.add(hole_id)
            line, column = _position(marked_code, match.start(2))
            hole = Hole(id=hole_id, line=line, column=column, start=match.start(2), end=match.end(2), name=name)
            found.append((match.start(2), hole))
    found.sort(key=lambda pair: pair[0])
    if not found:
        raise NoHolesFound("no <CONST> markers and no introduced constant declarations")
    return HoleTemplate(code=marked_code, holes=tuple(hole for _, hole in found), origin=origin)


@dataclass(frozen=True)
class FillCandidate:
    """One enumerated fill; its text is rendered only when `code` is read.

    `program` is the fill parsed against the enumerator's buffer table, or
    None when only the parse with inferred buffers accepts it.
    """

    template: HoleTemplate = field(repr=False)
    assignment: tuple[tuple[str, int], ...]
    index: int
    program: Program | None = field(repr=False)

    @property
    def code(self) -> str:
        return self.template.substitute(dict(self.assignment))


class FillEnumerator:
    """Iterates the Cartesian product of constants over holes, up to a cap.

    The template is tokenized once with a `0` in every hole; each fill puts
    its integers into a copy of those tokens and is parsed once, against
    `buffers` as verification does.  Templates whose holes are not tokens
    of their own (see `_tokenize_slots`) are re-tokenized for every fill.

    After iteration, `capped` says whether the product was truncated,
    `attempted` counts enumerated fills and `skipped` counts fills that do
    not parse even with inferred buffers.
    """

    def __init__(
        self,
        template: HoleTemplate,
        constants: list[int] | tuple[int, ...],
        buffers: dict[str, tuple[int, int]],
        cap: int = DEFAULT_CAP,
    ):
        distinct = tuple(dict.fromkeys(constants))
        if not distinct:
            raise EmptyConstantSet("cannot enumerate fills from an empty constant set")
        self.template = template
        self.constants = distinct
        self.buffers = buffers
        self.cap = cap
        self.capped = False
        self.attempted = 0
        self.skipped = 0
        self.total = len(distinct) ** len(template.holes)
        pieces = template.pieces()
        offsets, at = [], -1
        for piece in pieces[:-1]:
            at += len(piece) + 1
            offsets.append(at)
        self._slots = _tokenize_slots("0".join(pieces), offsets)
        # A fill that the table accepts is refused by inference only where a
        # `for` binds a table name (see program_text's parse_dram_ref); only
        # then, or without slots, is the inferred parse run on such fills.
        toks = self._slots[0] if self._slots else []
        self._infer_always = self._slots is None or any(a in buffers and b == "=" for a, b in zip(toks, toks[1:]))

    def _parse(self, values: tuple[int, ...]) -> Program | None:
        """The fill parsed against the buffer table, None if only the inferred parse accepts it.

        Raises ProgramSyntaxError when the fill does not parse even with
        inferred buffers.
        """
        if self._slots is None:
            ids = [hole.id for hole in self.template.holes]
            tokens = _tokenize(self.template.substitute(dict(zip(ids, values))))
        else:
            tokens = _fill_slots(*self._slots, values)
        try:
            program = parse_program(tokens, self.buffers)
        except ProgramSyntaxError:
            program = None
        if program is None or self._infer_always:
            parse_program(tokens, None)
        return program

    def __iter__(self) -> Iterator[FillCandidate]:
        ids = [hole.id for hole in self.template.holes]
        for index, combo in enumerate(itertools.product(self.constants, repeat=len(ids))):
            if index >= self.cap:
                self.capped = True
                return
            self.attempted += 1
            try:
                program = self._parse(combo)
            except ProgramSyntaxError:
                self.skipped += 1
                continue
            yield FillCandidate(self.template, tuple(zip(ids, combo)), index, program)


def enumerate_fills(
    template: HoleTemplate,
    constants: list[int] | tuple[int, ...],
    buffers: dict[str, tuple[int, int]],
    cap: int = DEFAULT_CAP,
) -> FillEnumerator:
    return FillEnumerator(template, constants, buffers, cap)


@dataclass(frozen=True)
class Repaired:
    program: str
    assignment: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Exhausted:
    tried: int


@dataclass(frozen=True)
class Aborted:
    reason: str


@dataclass
class RepairStats:
    candidates_tried: int = 0


@dataclass
class RepairResult:
    outcome: Repaired | Exhausted | Aborted
    stats: RepairStats = field(default_factory=RepairStats)


def _match_assignment(template: HoleTemplate, filled: str) -> tuple[tuple[str, int], ...]:
    """Best-effort recovery of hole values from an externally filled program.

    Matches the filled text against the template's pieces with an integer
    between each pair; the i-th matched integer belongs to the i-th hole.
    An empty tuple means the filled text strayed from the template's shape.
    """
    pieces = template.pieces()
    pieces[0] = pieces[0].lstrip()
    pieces[-1] = pieces[-1].rstrip()
    match = re.fullmatch(r"(-?\d+)".join(re.escape(piece) for piece in pieces), filled.strip())
    if match is None:
        return ()
    return tuple((hole.id, int(value)) for hole, value in zip(template.holes, match.groups()))


def repair(
    candidate: str,
    spec: KernelSpec,
    cases: list[TestCase],
    constants: tuple[int, ...] = DEFAULT_CONSTANT_SET,
    mode: str = "llm_then_enumerate",
    backend: Backend | None = None,
    params: GenerationParams | None = None,
    cap: int = DEFAULT_CAP,
    max_holes: int = DEFAULT_MAX_HOLES,
    marked: str | None = None,
    cfg: MachineConfig | None = None,
) -> RepairResult:
    """Drive the mark-then-fill flow until a candidate verifies.

    `marked` supplies hand-marked code so enumeration runs without any
    backend; a candidate that already contains `<CONST>` is treated the
    same way.  The first verified fill wins.
    """
    if mode not in ("llm", "enumerate", "llm_then_enumerate"):
        raise ValueError(f"unknown repair mode '{mode}'")
    stats = RepairStats()
    if MARKER not in candidate and verify_source(candidate, spec, cases, cfg).passed:
        return RepairResult(Repaired(program=candidate, assignment=()), stats)

    original: str | None = candidate
    if MARKER in candidate:
        marked_text = candidate
        original = None
    elif marked is not None:
        marked_text = marked
    else:
        if backend is None:
            return RepairResult(
                Aborted("marking holes needs a backend, a pre-marked candidate, or `marked`"), stats
            )
        mark_prompt = build_repair_mark_prompt(candidate)
        reply = backend.complete(mark_prompt, params or GenerationParams(n_samples=1))[0].text
        marked_text = _marked_from_reply(reply)

    try:
        template = extract_holes(marked_text, original, origin=spec.name)
    except NoHolesFound:
        return RepairResult(Aborted("the marked candidate contains no holes"), stats)

    if mode in ("llm", "llm_then_enumerate") and backend is not None:
        fill_prompt = build_repair_fill_prompt(template.code, constants)
        for completion in backend.complete(fill_prompt, params or GenerationParams(n_samples=1)):
            code = extract_code(completion.text)
            if code is None:
                continue
            stats.candidates_tried += 1
            if verify_source(code, spec, cases, cfg).passed:
                return RepairResult(
                    Repaired(program=code, assignment=_match_assignment(template, code)), stats
                )
        if mode == "llm":
            return RepairResult(Exhausted(tried=stats.candidates_tried), stats)
    elif mode == "llm":
        return RepairResult(Aborted("llm fill mode needs a backend"), stats)

    if len(template.holes) > max_holes:
        return RepairResult(
            Aborted(f"{len(template.holes)} holes exceed the enumeration limit of {max_holes}"), stats
        )
    enumerator = enumerate_fills(template, constants, spec.buffer_shapes(), cap)
    for fill in enumerator:
        stats.candidates_tried += 1
        # Looked up on the module, so a wrapper put on kernels.verify_program sees every fill.
        if fill.program is not None and kernels.verify_program(fill.program, spec, cases, cfg).passed:
            return RepairResult(Repaired(program=fill.code, assignment=fill.assignment), stats)
    stats.candidates_tried += enumerator.skipped
    return RepairResult(Exhausted(tried=stats.candidates_tried), stats)


def _marked_from_reply(reply: str) -> str:
    """The marking reply is code, fenced or bare; fences win when present."""
    fenced = _FENCE.findall(reply)
    if fenced:
        return max(fenced, key=len).rstrip("\n")
    return reply
