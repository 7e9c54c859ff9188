"""Kernel specifications, reference semantics, and program verification.

A KernelSpec describes one tiled-matmul call: result C (i x j) equals
A_eff (i x k) times B_eff (k x j), optionally plus or minus a bias D
(i x j).  Transpose flags describe how operands are laid out in DRAM:
a transposed operand is stored as the transpose of its logical shape.

The accelerator's compute path can only *add* a bias block, matching the
instruction set's `P = A*W + D`.  Subtracting kernels are therefore bound
with the bias buffer negated when a machine is prepared, standing in for
the negative load-scale factor real hardware would use.

Verification steps a program once (`isa.step`): each instruction is
validated and checked, and hands back its replay op.  Only then is a
machine built, and it only replays the ops.  One comparison reports every
verdict: a program's cases are compared as one fill of a batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .isa import (ELEMENT_BYTES, ExecError, Instruction, Program, ScanState, ValidationError, first_invalid,
                  memory_sizes, step)
# Verification runs programs with `run`; `execute` stays importable here because
# perfbench/tracing.py wraps `kernels.execute`.
from .machine import Machine, MachineConfig, ShapeMismatch, create_machine, execute, join, repeat, run, slices
from .program_text import ProgramSyntaxError, parse_program

REL_TOLERANCE = 1e-4
ABS_TOLERANCE = 1e-7
BATCH_BYTES = 1 << 21  # the machine state one batch of fills may stack (`Verifier.batch`); see README


@dataclass(frozen=True)
class BufferDecl:
    rows: int
    cols: int
    role: str  # "input" | "output" | "bias"


@dataclass(frozen=True)
class KernelSpec:
    name: str
    op: str  # "matmul" | "matmul_bias"
    i: int
    k: int
    j: int
    transpose_a: bool = False
    transpose_b: bool = False
    sub: bool = False
    a: str = "A"
    b: str = "B"
    d: str | None = None
    c: str = "C"
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in ("matmul", "matmul_bias"):
            raise ValueError(f"unknown op '{self.op}'")
        if min(self.i, self.k, self.j) < 1:
            raise ValueError("dimensions must be positive")
        if self.op == "matmul_bias" and self.d is None:
            raise ValueError("matmul_bias requires a bias buffer name")
        if self.op == "matmul" and (self.d is not None or self.sub):
            raise ValueError("plain matmul takes no bias")

    @property
    def a_shape(self) -> tuple[int, int]:
        return (self.k, self.i) if self.transpose_a else (self.i, self.k)

    @property
    def b_shape(self) -> tuple[int, int]:
        return (self.j, self.k) if self.transpose_b else (self.k, self.j)

    def buffer_table(self) -> dict[str, BufferDecl]:
        table = {
            self.a: BufferDecl(*self.a_shape, "input"),
            self.b: BufferDecl(*self.b_shape, "input"),
        }
        if self.d is not None:
            table[self.d] = BufferDecl(self.i, self.j, "bias")
        table[self.c] = BufferDecl(self.i, self.j, "output")
        return table

    def buffer_shapes(self) -> dict[str, tuple[int, int]]:
        return {name: (decl.rows, decl.cols) for name, decl in self.buffer_table().items()}


def _check_shape(name: str, arr: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float32)
    if arr.shape != shape:
        raise ShapeMismatch(f"operand '{name}' expects shape {shape}, got {arr.shape}")
    return arr


def reference_matmul(
    a: np.ndarray,
    b: np.ndarray,
    i: int,
    k: int,
    j: int,
    transpose_a: bool = False,
    transpose_b: bool = False,
) -> np.ndarray:
    """C[i][j] = sum_k A_eff[i][k] * B_eff[k][j], in float32."""
    a = _check_shape("A", a, (k, i) if transpose_a else (i, k))
    b = _check_shape("B", b, (j, k) if transpose_b else (k, j))
    a_eff = a.T if transpose_a else a
    b_eff = b.T if transpose_b else b
    return (a_eff @ b_eff).astype(np.float32)


def reference_matmul_bias(
    a: np.ndarray,
    b: np.ndarray,
    d: np.ndarray,
    i: int,
    k: int,
    j: int,
    transpose_a: bool = False,
    transpose_b: bool = False,
    sub: bool = False,
) -> np.ndarray:
    """Matmul with a bias added, or subtracted when `sub` is set."""
    d = _check_shape("D", d, (i, j))
    product = reference_matmul(a, b, i, k, j, transpose_a, transpose_b)
    return (product - d if sub else product + d).astype(np.float32)


def evaluate_reference(spec: KernelSpec, inputs: dict[str, np.ndarray]) -> np.ndarray:
    if spec.op == "matmul":
        return reference_matmul(
            inputs[spec.a], inputs[spec.b], spec.i, spec.k, spec.j, spec.transpose_a, spec.transpose_b
        )
    assert spec.d is not None
    return reference_matmul_bias(
        inputs[spec.a],
        inputs[spec.b],
        inputs[spec.d],
        spec.i,
        spec.k,
        spec.j,
        spec.transpose_a,
        spec.transpose_b,
        spec.sub,
    )


@dataclass
class TestCase:
    inputs: dict[str, np.ndarray]
    expected: np.ndarray
    seed: int


def generate_testcases(spec: KernelSpec, seed: int, count: int = 5) -> list[TestCase]:
    """Draw `count` cases with integer-valued float32 entries in [-8, 8].

    Small integer data keeps float32 arithmetic exact, so verification can
    compare bit-for-bit.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for index in range(count):
        inputs = {}
        for name, decl in spec.buffer_table().items():
            if decl.role == "output":
                continue
            values = rng.integers(-8, 9, size=(decl.rows, decl.cols))
            inputs[name] = values.astype(np.float32)
        cases.append(TestCase(inputs=inputs, expected=evaluate_reference(spec, inputs), seed=seed + index))
    return cases


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class ParseFailure:
    message: str


@dataclass(frozen=True)
class ExecFailure:
    index: int
    kind: str
    message: str


@dataclass(frozen=True)
class WrongResult:
    position: tuple[int, int]
    got: float
    want: float


@dataclass
class CaseOutcome:
    index: int
    passed: bool
    failure: ExecFailure | WrongResult | None = None


@dataclass
class Verdict:
    passed: bool
    failure: ParseFailure | ExecFailure | WrongResult | None = None
    cases: list[CaseOutcome] = field(default_factory=list)


def _stack_cases(spec: KernelSpec, cases: list[TestCase]) -> dict[str, np.ndarray]:
    """The cases' inputs, case axis first, as a machine's DRAM contents.

    Bias buffers are negated for subtracting kernels; see the module
    docstring.
    """
    contents = {name: np.stack([case.inputs[name] for case in cases]) for name in cases[0].inputs}
    if spec.sub and spec.d is not None and spec.d in contents:
        contents[spec.d] = -contents[spec.d]
    return contents


def machine_for_cases(spec: KernelSpec, cases: list[TestCase], cfg: MachineConfig | None = None) -> Machine:
    """Bind the cases' inputs into one fresh machine, case axis first."""
    return create_machine(cfg, spec.buffer_shapes(), _stack_cases(spec, cases))


def _tolerance(spec: KernelSpec, case: TestCase) -> np.ndarray | None:
    """Per-element bound on |got - want|, or None to compare exactly.

    Integer-valued data keeps float32 arithmetic exact.  Otherwise the bound
    scales with each element's sum of |a*b| (plus |d|), not with its value:
    a correct element that is a cancelling sum keeps the rounding error of
    its terms, which can exceed any fraction of the small result.
    """
    if all(np.array_equal(arr, np.trunc(arr)) for arr in case.inputs.values()):
        return None
    magnitudes = {name: np.abs(arr) for name, arr in case.inputs.items()}
    return ABS_TOLERANCE + REL_TOLERANCE * evaluate_reference(replace(spec, sub=False), magnitudes)


class Verifier:
    """Verifies programs against one case set, whose inputs are stacked at most once.

    `verify` gives `verify_program`'s verdict.  It steps the program once
    (`isa.step`), so a program it refuses stacks nothing and builds no machine;
    an accepted one replays its ops on a fresh machine holding the stacked
    inputs, and its output is compared as a batch of one fill (`_report`).
    Memory sizes, the expected outputs and each case's tolerance are
    computed once.

    Given a `template` and the ascending indices `rebuilt` of the
    instructions its fills may change, `verify_fills` gives each of a batch
    of fills the verdict `verify` would.  The template's other instructions
    are validated once.  Each run of template instructions around the
    rebuilt ones is stepped once per scan state it starts from, and its ops
    are cached with that state; a fill steps only its rebuilt instructions.
    Validation still decides first: an invalid instruction after the
    rebuilt ones outranks an execution error before them.  A fill refused
    there runs nothing.  The others are grouped by the template runs they
    replay, and each group runs on one machine: the snapshot that the
    template's instructions before the first rebuilt one leave, taken once,
    repeated onto a fill axis in front of the case axis.  Each fill's
    rebuilt ops replay on its own slice of it, and each template run
    between them replays once for the group.  `batch` fills of `fill_bytes`
    each hold at most `BATCH_BYTES` of machine state, or one fill does when
    it alone holds more.
    """

    def __init__(
        self,
        spec: KernelSpec,
        cases: list[TestCase],
        cfg: MachineConfig | None = None,
        template: Program | None = None,
        rebuilt: tuple[int, ...] = (),
    ):
        self.spec = spec
        self.cases = cases
        self.cfg = cfg or MachineConfig()
        self.template = template
        self.rebuilt = rebuilt
        self._buffers = spec.buffer_shapes()
        self._sizes = memory_sizes(self.cfg, self._buffers)
        self._inputs: dict[str, np.ndarray] | None = None
        # (first index, scan state key) -> a stepped template run: its ops and the state past it, or its error
        self._runs: dict[tuple, tuple[list, ScanState] | ExecError] = {}
        self._ends: dict[tuple, ScanState] = {}  # (stop, scan state key) -> the one state object runs end in there
        self._links: dict[tuple[int, int], tuple] = {}  # (id of a run's end state, id of a rebuilt instruction) -> link
        self._snapshot: Machine | None = None  # after the template's instructions before the first rebuilt one
        self._expected: np.ndarray | None = None  # the cases' expected outputs, case axis first
        self._tolerances: list[np.ndarray | None] = []  # each case's (`_tolerance`), set with `_expected`
        # A fill's machine state: its cases' scratchpads, accumulators and DRAM buffers (one case when there are none).
        cells = (self.cfg.spad_rows + self.cfg.acc_rows) * self.cfg.dim + sum(r * c for r, c in self._buffers.values())
        self.fill_bytes = max(1, len(cases)) * cells * ELEMENT_BYTES
        self.batch = max(1, BATCH_BYTES // self.fill_bytes)
        # Positions [lo, hi) in `rebuilt` of each run of consecutive indices; template run `hi` follows it.
        breaks = [k for k in range(1, len(rebuilt)) if rebuilt[k] != rebuilt[k - 1] + 1]
        self._segments = list(zip([0] + breaks, breaks + [len(rebuilt)])) if rebuilt else []
        if template is not None:  # run stops by first index; the first invalid other instruction, else the first run
            self._stops = dict(zip((0, *(index + 1 for index in rebuilt)), (*rebuilt, len(template.instructions))))
            first, changed = self._entry(template.instructions, ScanState(), 0), set(rebuilt)  # it validates its run
            later = ((i, ins) for i, ins in enumerate(template.instructions) if i > self._stops[0] and i not in changed)
            invalid = first_invalid(later, self.cfg.dim, self.cfg.max_block_len)
            self._first = first if isinstance(first, ValidationError) else invalid or first

    def verify(self, p: Program) -> Verdict:
        """`verify_program`'s verdict on `p`."""
        if not self.cases:
            return Verdict(passed=True)
        ops = self._step(p.instructions, ScanState(), 0)
        if isinstance(ops, ExecError):
            return _failed(ops)
        machine = self._fresh()
        run(machine, ops)
        return self._report(machine.dram[self.spec.c][np.newaxis])[0]

    def verify_fills(self, fills: list[Program]) -> list[Verdict]:
        """`verify`'s verdict on each of `fills`, programs that equal the template except at `rebuilt`."""
        if not self.cases:
            return [Verdict(passed=True) for _ in fills]
        verdicts: list[Verdict | None] = [None] * len(fills)
        groups: dict[tuple, tuple[list, dict[int, list]]] = {}  # template runs -> (them, {position: rebuilt ops})
        for position, fill in enumerate(fills):
            checked = self._fill_check(fill.instructions)
            if isinstance(checked, ExecError):
                verdicts[position] = _failed(checked)
                continue
            groups.setdefault(tuple(map(id, checked[0])), (checked[0], {}))[1][position] = checked[1]
        for runs, members in groups.values():
            machine = self._run_group(runs, list(members.values()))
            for position, verdict in zip(members, self._report(machine.dram[self.spec.c])):
                verdicts[position] = verdict
        return verdicts

    def _step(self, instructions: tuple[Instruction, ...], state: ScanState, start: int,
              stop: int | None = None) -> list | ExecError:
        """`isa.step` of `instructions[start:stop]` from `state`, which moves past them: their ops, or the error."""
        return _caught(step, instructions, self.cfg, self._sizes, state, start, stop)

    def _fill_check(self, instructions: tuple[Instruction, ...]) -> tuple[list, list] | ExecError:
        """A fill's first static error; or else the template runs it replays and the ops of its rebuilt instructions.

        Each run of template instructions around the rebuilt ones is stepped once per scan state it starts
        from, and a fill replays those cached entries.  A rebuilt instruction is stepped once per scan state
        too: the link from an entry's end state through it holds its op or error, and the entry it leads to.
        """
        entry = self._first
        runs, ops = [entry], []
        for index in self.rebuilt:
            if isinstance(entry, ExecError):
                break
            ins = instructions[index]
            link = self._links.get((id(entry[1]), id(ins)))
            if link is None:  # the link holds `ins`, so no other object takes its id
                state = entry[1].copy()
                op = self._step(instructions, state, index, index + 1)
                after = op if isinstance(op, ExecError) else self._entry(instructions, state, index + 1)
                link = self._links[id(entry[1]), id(ins)] = (ins, op, after)
            _, op, entry = link
            if not isinstance(entry, ExecError):
                ops += op
                runs.append(entry)
        if not isinstance(entry, ExecError):
            return runs, ops
        before = isinstance(entry, ValidationError)
        if before and entry is not self._first:  # a step's: every instruction before it was stepped, so is valid
            return entry
        # Validation decides first: a rebuilt instruction that fails it before the template's invalid one, or after
        # this execution error, wins.
        rest = ((i, instructions[i]) for i in self.rebuilt if (i < entry.index if before else i > entry.index))
        return first_invalid(rest, self.cfg.dim, self.cfg.max_block_len) or entry

    def _entry(self, instructions: tuple[Instruction, ...], state: ScanState, begin: int) -> tuple | ExecError:
        """The template run from `begin` and `state`, stepped on a miss: its ops and `state` moved, or its error."""
        key = (begin, state.key())
        entry = self._runs.get(key)
        if entry is None:
            stop = self._stops[begin]
            ops = self._step(instructions, state, begin, stop)
            entry = self._runs[key] = ops if isinstance(ops, ExecError) else (
                ops, self._ends.setdefault((stop, state.key()), state))  # runs that end alike share their links
        return entry

    def _run_group(self, runs: list[tuple[list, ScanState]], fills: list[list]) -> Machine:
        """Replay the template `runs` and each fill's rebuilt ops (`_fill_check`) on one machine, fill axis first."""
        if self._snapshot is None:
            self._snapshot = self._fresh()
            run(self._snapshot, runs[0][0])
        machine = repeat(self._snapshot, len(fills))
        for lo, hi in self._segments:
            parts = slices(machine)
            for part, ops in zip(parts, fills):
                run(part, ops[lo:hi])
            join(machine, parts)
            run(machine, runs[hi][0])
        return machine

    def _fresh(self) -> Machine:
        """A new machine holding the cases' inputs, which are stacked on the first call."""
        if self._inputs is None:
            self._inputs = _stack_cases(self.spec, self.cases)
        return create_machine(self.cfg, self._buffers, self._inputs)

    def _report(self, outputs: np.ndarray) -> list[Verdict]:
        """For each fill of `outputs` (fill axis, case axis, rows, cols), its cases in order up to the first that
        fails, from one comparison."""
        if self._expected is None:
            self._expected = np.stack([case.expected for case in self.cases])
            self._tolerances = [_tolerance(self.spec, case) for case in self.cases]
        mismatch = outputs != self._expected
        for index, (case, tolerance) in enumerate(zip(self.cases, self._tolerances)):
            if tolerance is not None:
                mismatch[:, index] &= ~(np.abs(outputs[:, index] - case.expected) <= tolerance)
        failing = mismatch.any(axis=(-2, -1))  # (fill, case)
        first = failing.argmax(axis=1)  # each fill's first failing case, or 0
        fills = np.arange(len(outputs))
        cols = outputs.shape[-1]
        at = mismatch[fills, first].reshape(len(fills), -1).argmax(axis=1)  # its first wrong element, row-major
        got = outputs[fills, first].reshape(len(fills), -1)[fills, at]
        verdicts = []
        for fails, index, flat, value in zip(failing.any(axis=1).tolist(), first.tolist(), at.tolist(), got.tolist()):
            cases = [CaseOutcome(index=i, passed=True) for i in range(index if fails else len(self.cases))]
            if not fails:
                verdicts.append(Verdict(passed=True, cases=cases))
                continue
            r, c = divmod(flat, cols)
            failure = WrongResult((r, c), value, float(self.cases[index].expected[r, c]))
            cases.append(CaseOutcome(index=index, passed=False, failure=failure))
            verdicts.append(Verdict(passed=False, failure=failure, cases=cases))
        return verdicts


def _caught(check, *args):
    """What `check(*args)` returns, or the `ExecError` it raises (a `ValidationError` is one too)."""
    try:
        return check(*args)
    except ExecError as e:
        return e.with_traceback(None)


def _failed(error: ExecError) -> Verdict:
    """The verdict of a program that fails at `error` on every case alike: reported once, as case 0's."""
    failure = ExecFailure(error.index, error.kind, error.detail)
    return Verdict(passed=False, failure=failure, cases=[CaseOutcome(index=0, passed=False, failure=failure)])


def verify_program(p: Program, spec: KernelSpec, cases: list[TestCase], cfg: MachineConfig | None = None) -> Verdict:
    """Step the program, replay it on all cases at once, then report them in order up to the first that fails.

    Execution errors depend only on the program, so one fails every case
    alike and is reported as case 0's.
    """
    return Verifier(spec, cases, cfg).verify(p)


def verify_source(text: str, spec: KernelSpec, cases: list[TestCase], cfg: MachineConfig | None = None,
                  memo: dict | None = None) -> Verdict:
    """Parse program text against the spec's buffer table, then verify.

    `memo` is a line memo shared by texts parsed against this spec's buffer table (`parse_program`).
    """
    try:
        program = parse_program(text, spec.buffer_shapes(), memo)
    except ProgramSyntaxError as e:
        return Verdict(passed=False, failure=ParseFailure(str(e)))
    return verify_program(program, spec, cases, cfg)
