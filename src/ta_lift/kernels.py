"""Kernel specifications, reference semantics, and program verification.

A KernelSpec describes one tiled-matmul call: result C (i x j) equals
A_eff (i x k) times B_eff (k x j), optionally plus or minus a bias D
(i x j).  Transpose flags describe how operands are laid out in DRAM:
a transposed operand is stored as the transpose of its logical shape.

The accelerator's compute path can only *add* a bias block, matching the
instruction set's `P = A*W + D`.  Subtracting kernels are therefore bound
with the bias buffer negated when a machine is prepared, standing in for
the negative load-scale factor real hardware would use.

Verification validates a program and checks it with `isa.check_execution`
before it builds a machine, so the machine only moves data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .isa import ExecError, Instruction, Program, ScanState, ValidationError, check_execution, validate_instructions
# Verification runs programs with `run`; `execute` stays importable here because
# perfbench/tracing.py wraps `kernels.execute`.
from .machine import Machine, MachineConfig, ShapeMismatch, create_machine, execute, read_output, run
from .program_text import ProgramSyntaxError, parse_program

REL_TOLERANCE = 1e-4
ABS_TOLERANCE = 1e-7


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


def _compare(got: np.ndarray, want: np.ndarray, tolerance: np.ndarray | None) -> tuple[int, int] | None:
    mismatch = got != want
    if tolerance is not None:
        mismatch &= ~(np.abs(got - want) <= tolerance)
    if not mismatch.any():
        return None
    r, c = np.argwhere(mismatch)[0]
    return int(r), int(c)


class Verifier:
    """Verifies programs against one case set, whose inputs are stacked at most once.

    `verify` gives `verify_program`'s verdict.  It validates, then checks
    (`check_execution`), so a program either refuses stacks nothing and
    builds no machine; an accepted one runs on a fresh machine holding the
    stacked inputs, and each case's tolerance is computed once.

    Given a `template` and the ascending indices `rebuilt` of the
    instructions its fills may change, `verify_fill` gives a fill the
    verdict `verify` would.  The template's other instructions are
    validated once, and a fill validates only its rebuilt ones.  The check
    pass takes each rebuilt instruction, and each run of template
    instructions around them once per scan state it starts from.  A fill
    both accept runs from its first rebuilt instruction on a copy of a
    snapshot that the instructions before it leave, taken once.  Validation
    still decides first: an invalid instruction after the rebuilt ones
    outranks an execution error before them.
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
        self._inputs: dict[str, np.ndarray] | None = None
        self._tolerances: dict[int, np.ndarray | None] = {}
        self._start = 0
        self._invalid: ValidationError | None = None
        self._runs: dict[tuple, ScanState | ExecError] = {}  # (first index, scan state key) -> a checked template run
        self._snapshot: Machine | None = None  # after the template's instructions before `_start`
        if template is not None:
            self._start = rebuilt[0] if rebuilt else len(template.instructions)
            changed = set(rebuilt)
            self._invalid = self._first_invalid(
                (index, ins) for index, ins in enumerate(template.instructions) if index not in changed
            )

    def verify(self, p: Program) -> Verdict:
        """`verify_program`'s verdict on `p`."""
        if not self.cases:
            return Verdict(passed=True)
        checked = self._first_invalid(enumerate(p.instructions)) or self._check(p.instructions, ScanState(), 0)
        if not isinstance(checked, ScanState):
            return _failed(checked)
        return self._finish(self._fresh(), p.instructions, 0)

    def verify_fill(self, p: Program) -> Verdict:
        """`verify`'s verdict on `p`, a fill that equals the template except at `rebuilt`."""
        if not self.cases:
            return Verdict(passed=True)
        instructions = p.instructions
        invalid = self._first_invalid((index, instructions[index]) for index in self.rebuilt)
        if self._invalid is not None and (invalid is None or self._invalid.index < invalid.index):
            invalid = self._invalid
        error = invalid or self._fill_error(instructions)
        if error is not None:
            return _failed(error)
        if self._snapshot is None:
            self._snapshot = self._fresh()
            run(self._snapshot, self.template.instructions, 0, self._start)
        return self._finish(self._snapshot.copy(), instructions, self._start)

    def _first_invalid(self, indexed) -> ValidationError | None:
        return _caught(validate_instructions, indexed, self.cfg.dim, self.cfg.max_block_len)

    def _check(self, instructions: tuple[Instruction, ...], state: ScanState, start: int,
               stop: int | None = None) -> ScanState | ExecError:
        """`check_execution` of `instructions[start:stop]` from `state`: the state past them, or the error."""
        return _caught(check_execution, instructions, self.cfg, self._buffers, state, start, stop)

    def _fill_error(self, instructions: tuple[Instruction, ...]) -> ExecError | None:
        """`check_execution`'s error for a valid fill, if any.  Each rebuilt instruction is checked on its own,
        and each run of template instructions around them once per scan state it starts from."""
        state, begin = ScanState(), 0
        for end in (*self.rebuilt, len(instructions)):
            key = (begin, state.key())
            if key not in self._runs:
                self._runs[key] = self._check(instructions, state, begin, end)
            state = self._runs[key]
            if end < len(instructions) and isinstance(state, ScanState):
                state = self._check(instructions, state.copy(), end, end + 1)
            if isinstance(state, ExecError):
                return state
            begin = end + 1
        return None

    def _fresh(self) -> Machine:
        """A new machine holding the cases' inputs, which are stacked on the first call."""
        if self._inputs is None:
            self._inputs = _stack_cases(self.spec, self.cases)
        return create_machine(self.cfg, self._buffers, self._inputs)

    def _finish(self, machine: Machine, instructions: tuple[Instruction, ...], start: int) -> Verdict:
        """Run `instructions` from `start` on `machine`, then report the cases in order up to the first that fails."""
        run(machine, instructions, start)
        verdict = Verdict(passed=True)
        outputs = read_output(machine, self.spec.c)
        for index, (case, got) in enumerate(zip(self.cases, outputs)):
            if index not in self._tolerances:
                self._tolerances[index] = _tolerance(self.spec, case)
            position = _compare(got, case.expected, self._tolerances[index])
            if position is None:
                verdict.cases.append(CaseOutcome(index=index, passed=True))
                continue
            r, c = position
            verdict.passed = False
            verdict.failure = WrongResult(position, float(got[r, c]), float(case.expected[r, c]))
            verdict.cases.append(CaseOutcome(index=index, passed=False, failure=verdict.failure))
            break
        return verdict


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
    """Validate, run all cases in one batched execution, then report them in order up to the first that fails.

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
