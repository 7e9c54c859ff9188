"""Constant repair: mark suspect constants as holes, fill, verify.

A near-miss candidate often differs from a working program only in a few
magic numbers (strides, tile counts, address offsets).  The flow here has
two steps.  First the candidate's uncertain constants are marked, either
by a model or by hand: each suspect site becomes a `<CONST>` token, or a
fresh `uint32_t` declaration whose initializer is the suspect value.
Second the holes are filled, either by asking the model or by enumerating
assignments from a small constant set, and every filled program runs
through the simulator until one verifies.  Enumeration reads the template
once with the line matcher of `program_text`; a fill re-reads only the
rows its holes reach and rebuilds only their instructions, and falls back
to a whole parse where the matcher refuses a row (see `FillEnumerator`).
One `kernels.Verifier` checks every fill of a repair call against cases
stacked once.  Fills read this way are verified in batches: each validates
and checks only its rebuilt instructions, and the fills that pass run
together from the machine state that the template's instructions before
the first rebuilt one leave, with a fill axis in front of the case axis, so
the template's instructions between holes run once per batch and each
fill's rebuilt instructions run on its own slice.  A fill parsed whole is
validated and run whole (see `fill_verdicts`).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterator

from . import kernels
from .gateway import Backend, GenerationParams
from .harness import _FENCE, extract_code
from .isa import BY_MNEMONIC, Instruction, Program
from .kernels import KernelSpec, TestCase, Verdict, verify_source
from .machine import MachineConfig
from .program_text import (
    _ACTIVATIONS,
    _DATAFLOWS,
    _KEYWORDS,
    _PLAIN_LINE,
    ProgramSyntaxError,
    _Atoms,
    _take_plain_lines,
    parse_program,
)
from .prompts import EmptyConstantSet, build_repair_fill_prompt, build_repair_mark_prompt

MARKER = "<CONST>"
DEFAULT_CONSTANT_SET: tuple[int, ...] = (0, 1, 3, 4, 12)
DEFAULT_CAP = 10_000
MAX_HOLES = 5

_RESERVED = set(BY_MNEMONIC) | _KEYWORDS | set(_DATAFLOWS) | set(_ACTIVATIONS)

_NAME = re.compile(r"[A-Za-z0-9_]+")
_DECL = re.compile(r"^[ \t]*(?:static[ \t]+)?uint32_t[ \t]+(\w+)[ \t]*=[ \t]*(-?\d+)[ \t]*;", re.M)
_DECLARED = re.compile(r"^[ \t\r]*static[ \t\r]+uint32_t[ \t\r]+([A-Za-z_][A-Za-z0-9_]*)", re.M)


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

    `program` is the fill parsed against the enumerator's buffer table.
    `from_rows` says whether it was read by the row path, so that it equals
    the enumerator's `program` except at the indices in its `rebuilt`.
    """

    template: HoleTemplate = field(repr=False)
    assignment: tuple[tuple[str, int], ...]
    index: int
    program: Program = field(repr=False)
    from_rows: bool

    @property
    def code(self) -> str:
        return self.template.substitute(dict(self.assignment))


class FillEnumerator:
    """Iterates the Cartesian product of constants over holes, up to a cap.

    A template takes the row path when three things hold: the line matcher
    of `program_text` takes every row with a `0` in each hole, no hole
    touches a letter, digit or `_` of the template, so every fill reads the
    same names, and no name is declared twice.  Then the template is read
    once against `buffers`, as verification does, into `program`.  The rows
    a hole reaches are the rows that hold a hole and, in row order, every
    row that reads a name declared on a row already reached; `rebuilt`
    holds the indices of their instructions, in ascending order.  A fill
    re-reads only those rows, with its values in place, and replaces their
    instructions and symbols in a copy of `program`.  A re-read row that
    reads no name a hole reaches is read once per text.  `slotted` says
    whether a template takes the row path.

    A fill with a re-read row that the matcher refuses, and every fill of a
    template that fails one of the three conditions, is parsed whole.
    Either way a fill equals the parse of its text, and it is skipped
    exactly when that parse fails, which is when `verify_source` on its
    text gives a `ParseFailure`.

    After iteration, `capped` says whether the product was truncated,
    `attempted` counts enumerated fills and `skipped` counts fills that do
    not parse.
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
        # Each row a hole reaches: its pieces around its holes, their numbers, its
        # instruction index, its declared name, and whether it is read once per text.
        self._rows: list[tuple[list[str], list[int], int | None, str | None, bool]] = []
        self._by_text: dict[str, Instruction | int | None] = {}  # what each row text read once gives
        self.program: Program | None = None
        self.rebuilt: tuple[int, ...] = ()
        self.slotted = self._read_template(template.pieces())

    def _read_template(self, pieces: list[str]) -> bool:
        """Read the template and keep the rows its holes reach; False if it fails a condition.

        Each run of rows that hold no hole and read no reached name is read in
        one call, and all calls share one table of atoms.
        """
        if _NAME.search("".join(before[-1:] + after[:1] for before, after in zip(pieces, pieces[1:]))):
            return False
        rows: list[tuple[list[str], list[int]]] = []
        texts, numbers = [""], []
        for number, piece in enumerate(pieces):
            if number:
                texts.append("")
                numbers.append(number - 1)
            first, *others = piece.split("\n")
            texts[-1] += first
            for other in others:
                rows.append((texts, numbers))
                texts, numbers = [other], []
        rows.append((texts, numbers))
        symbols: dict[str, int] = {}
        out: list[Instruction] = []
        atoms = _Atoms({"": 0})
        reached: set[str] = set()
        plain: list[str] = []  # the rows since the last one a hole reaches
        for texts, numbers in rows:
            row = "0".join(texts)
            reads = reached and reached.intersection(_NAME.findall(row.partition("//")[0]))
            if not (numbers or reads):
                plain.append(row)
                continue
            if _take_plain_lines(plain, self.buffers, symbols, out, atoms) < len(plain):
                return False
            plain = []
            index = len(out)
            if not _take_plain_lines([row], self.buffers, symbols, out, atoms):
                return False
            name = _PLAIN_LINE.fullmatch(row)[1]
            self._rows.append((texts, numbers, index if len(out) > index else None, name, not reads))
            if name is not None:
                reached.add(name)
        if _take_plain_lines(plain, self.buffers, symbols, out, atoms) < len(plain):
            return False
        # A name declared twice is read with two values.  Every declaration holds "static", so
        # the declarations need counting only where that word is met more often than names are.
        text = "0".join(pieces)
        if text.count("static") != len(symbols) and len(_DECLARED.findall(text)) != len(symbols):
            return False
        self.program = Program(tuple(out), dict(self.buffers), symbols)
        self.rebuilt = tuple(index for _, _, index, _, _ in self._rows if index is not None)
        return True

    def _parse(self, values: tuple[int, ...]) -> tuple[Program, bool]:
        """The fill parsed against the buffer table, and whether the row path read it.

        Raises ProgramSyntaxError where its text would.
        """
        if self.slotted:
            instructions = list(self.program.instructions)
            symbols = dict(self.program.symbols)
            for texts, numbers, index, name, once in self._rows:
                row = texts[0] + "".join(str(values[n]) + text for n, text in zip(numbers, texts[1:]))
                if once and row in self._by_text:
                    value = self._by_text[row]
                else:
                    out: list[Instruction] = []
                    if not _take_plain_lines([row], self.buffers, symbols, out):
                        break
                    value = out[0] if out else symbols.get(name)
                    if once:
                        self._by_text[row] = value
                if index is not None:
                    instructions[index] = value
                elif name is not None:
                    symbols[name] = value
            else:
                return Program(tuple(instructions), dict(self.buffers), symbols), True
        ids = [hole.id for hole in self.template.holes]
        return parse_program(self.template.substitute(dict(zip(ids, values))), self.buffers), False

    def __iter__(self) -> Iterator[FillCandidate]:
        ids = [hole.id for hole in self.template.holes]
        for index, combo in enumerate(itertools.product(self.constants, repeat=len(ids))):
            if index >= self.cap:
                self.capped = True
                return
            self.attempted += 1
            try:
                program, from_rows = self._parse(combo)
            except ProgramSyntaxError:
                self.skipped += 1
                continue
            yield FillCandidate(self.template, tuple(zip(ids, combo)), index, program, from_rows)


def fill_verdicts(
    enumerator: FillEnumerator, spec: KernelSpec, cases: list[TestCase], cfg: MachineConfig | None = None
) -> Iterator[tuple[FillCandidate, Verdict]]:
    """Each fill that parses, in order, with the verdict `verify_source` gives its text.

    One `kernels.Verifier` serves every fill.  Fills are taken from the
    enumerator one batch at a time, as many as `Verifier.batch` allows (one
    when the template does not take the row path).  The batch's row-path
    fills are verified together (`Verifier.verify_fills`); a fill parsed
    whole is verified whole when it is reached.  So a caller that stops at
    a fill leaves at most one batch past it parsed, checked and run, and
    the enumerator's counters count that batch too.
    """
    verifier = kernels.Verifier(spec, cases, cfg, enumerator.program, enumerator.rebuilt)
    fills, size = iter(enumerator), verifier.batch if enumerator.slotted else 1
    while batch := list(itertools.islice(fills, size)):
        verdicts = iter(verifier.verify_fills([fill.program for fill in batch if fill.from_rows]))
        for fill in batch:
            yield fill, next(verdicts) if fill.from_rows else verifier.verify(fill.program)


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

    buffers = spec.buffer_shapes()
    if mode in ("llm", "llm_then_enumerate") and backend is not None:
        fill_prompt = build_repair_fill_prompt(template.code, constants)
        for completion in backend.complete(fill_prompt, params or GenerationParams(n_samples=1)):
            code = extract_code(completion.text, buffers)
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

    if len(template.holes) > MAX_HOLES:
        return RepairResult(
            Aborted(f"{len(template.holes)} holes exceed the enumeration limit of {MAX_HOLES}"), stats
        )
    enumerator = FillEnumerator(template, constants, buffers)
    for fill, verdict in fill_verdicts(enumerator, spec, cases, cfg):
        stats.candidates_tried += 1
        if verdict.passed:
            return RepairResult(Repaired(program=fill.code, assignment=fill.assignment), stats)
    stats.candidates_tried += enumerator.skipped
    return RepairResult(Exhausted(tried=stats.candidates_tried), stats)


def _marked_from_reply(reply: str) -> str:
    """The marking reply is code, fenced or bare; fences win when present."""
    fenced = _FENCE.findall(reply)
    if fenced:
        return max(fenced, key=len).rstrip("\n")
    return reply
