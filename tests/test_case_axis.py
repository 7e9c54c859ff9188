"""Batched verification against the one-machine-per-case loop it replaced.

`verify_program` binds all cases into one machine with a leading case axis
and executes the program once.  The oracle below is the per-case loop:
one 2-D machine per case, run in order until the first case that fails.
"""

from __future__ import annotations

import dataclasses
import itertools
from enum import Enum

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import golden_program
import ta_lift.kernels as kernels
from ta_lift.fixtures import KERNELS, emit_golden_program, kernel
from ta_lift.isa import (
    ConfigLd,
    ConfigSt,
    DramRef,
    Mvin,
    Mvout,
    Program,
    ScanState,
    ValidationError,
    memory_sizes,
    spec_of,
    step,
    validate_program,
)
from ta_lift.kernels import (
    ABS_TOLERANCE,
    REL_TOLERANCE,
    CaseOutcome,
    ExecFailure,
    KernelSpec,
    TestCase as Case,
    Verdict,
    WrongResult,
    _tolerance,
    evaluate_reference,
    generate_testcases,
    machine_for_cases,
    verify_program,
)
from ta_lift.machine import (ExecError, MachineConfig, ShapeMismatch, create_machine, execute, join, read_output,
                             repeat, run, slices)
from ta_lift.program_text import parse_program

# -- the oracle: one machine per case ------------------------------------------------


def _compare(got: np.ndarray, want: np.ndarray, tolerance: np.ndarray | None) -> tuple[int, int] | None:
    mismatch = got != want
    if tolerance is not None:
        mismatch &= ~(np.abs(got - want) <= tolerance)
    if not mismatch.any():
        return None
    r, c = np.argwhere(mismatch)[0]
    return int(r), int(c)


def oracle_machine(spec: KernelSpec, case: Case, cfg: MachineConfig | None = None):
    contents = dict(case.inputs)
    if spec.sub and spec.d is not None and spec.d in contents:
        contents[spec.d] = -contents[spec.d]
    return create_machine(cfg, spec.buffer_shapes(), contents)


def oracle_case(p: Program, spec: KernelSpec, case: Case, cfg: MachineConfig) -> CaseOutcome:
    machine = oracle_machine(spec, case, cfg)
    try:
        execute(machine, p)
    except ExecError as e:
        return CaseOutcome(index=0, passed=False, failure=ExecFailure(e.index, e.kind, e.detail))
    got = read_output(machine, spec.c)
    position = _compare(got, case.expected, _tolerance(spec, case))
    if position is None:
        return CaseOutcome(index=0, passed=True)
    r, c = position
    return CaseOutcome(index=0, passed=False, failure=WrongResult(position, float(got[r, c]), float(case.expected[r, c])))


def oracle_verify(p: Program, spec: KernelSpec, cases: list[Case], cfg: MachineConfig | None = None) -> Verdict:
    cfg = cfg or MachineConfig()
    verdict = Verdict(passed=True)
    for index, case in enumerate(cases):
        outcome = oracle_case(p, spec, case, cfg)
        outcome.index = index
        verdict.cases.append(outcome)
        if not outcome.passed:
            verdict.passed = False
            verdict.failure = outcome.failure
            break
    return verdict


# -- programs and cases ----------------------------------------------------------------


def _perturbed(value, local: bool, data):
    """One constant of an instruction operand changed, or None if it has none.

    A local address (`local`) moves by a few rows or flips one flag bit, and stays a 32-bit word."""
    if local:
        raw = data.draw(
            st.sampled_from([value - 4, value - 1, value + 1, value + 4,
                             value ^ (1 << 31), value ^ (1 << 30), value ^ (1 << 29)])
        )
        return raw if 0 <= raw <= 0xFFFFFFFF else None
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + data.draw(st.sampled_from([-5, -4, -1, 1, 3, 4]))
    if isinstance(value, Enum):
        return data.draw(st.sampled_from([member for member in type(value) if member is not value]))
    if isinstance(value, DramRef):
        return dataclasses.replace(value, offset=value.offset + data.draw(st.sampled_from([-4, -1, 1, 4, 64])))
    return None


def mutate(program: Program, data) -> Program:
    """The program as is, or with one constant perturbed, one instruction deleted
    or duplicated, or one stride configuration dropped."""
    ins = list(program.instructions)
    how = data.draw(st.sampled_from(["none", "perturb", "delete", "duplicate", "unset_stride"]))
    if how == "perturb":
        at = data.draw(st.integers(0, len(ins) - 1))
        fields = [f.name for f in dataclasses.fields(ins[at])]
        if fields:
            name = data.draw(st.sampled_from(fields))
            value = _perturbed(getattr(ins[at], name), (name, "local") in spec_of(ins[at]).operands, data)
            if value is not None:
                ins[at] = dataclasses.replace(ins[at], **{name: value})
    elif how == "delete":
        del ins[data.draw(st.integers(0, len(ins) - 1))]
    elif how == "duplicate":
        at = data.draw(st.integers(0, len(ins) - 1))
        ins.insert(at, ins[at])
    elif how == "unset_stride":
        strides = [i for i, one in enumerate(ins) if isinstance(one, (ConfigLd, ConfigSt))]
        del ins[data.draw(st.sampled_from(strides))]
    return Program(tuple(ins), program.buffers, program.symbols)


def make_cases(spec: KernelSpec, count: int, seed: int) -> list[Case]:
    """`count` cases, each with integer data or with non-integer float data."""
    rng = np.random.default_rng(seed)
    cases = []
    for index in range(count):
        integer = rng.random() < 0.5
        inputs = {}
        for name, decl in spec.buffer_table().items():
            if decl.role == "output":
                continue
            if integer:
                values = rng.integers(-8, 9, size=(decl.rows, decl.cols)).astype(np.float32)
            else:
                values = rng.uniform(-8, 8, size=(decl.rows, decl.cols)).astype(np.float32)
            inputs[name] = values
        cases.append(Case(inputs=inputs, expected=evaluate_reference(spec, inputs), seed=seed + index))
    return cases


random_specs = st.builds(
    lambda op, i, k, j, ta, tb, sub: KernelSpec(
        name="rnd", op=op, i=i, k=k, j=j, transpose_a=ta, transpose_b=tb,
        sub=sub and op == "matmul_bias", d="D" if op == "matmul_bias" else None,
    ),
    st.sampled_from(["matmul", "matmul_bias"]),
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(1, 9),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)

_GOLDEN_PROGRAMS = {name: parse_program(golden_program(name), kernel(name).buffer_shapes()) for name in KERNELS}


@st.composite
def workloads(draw):
    """(program, spec, cases): a golden or a random kernel, mutated, with 1-20 cases."""
    data = draw(st.data())
    name = draw(st.sampled_from([*KERNELS, "random"]))
    if name == "random":
        spec = draw(random_specs)
        program = parse_program(emit_golden_program(spec), spec.buffer_shapes())
    else:
        spec, program = kernel(name), _GOLDEN_PROGRAMS[name]
    program = mutate(program, data)
    cases = make_cases(spec, draw(st.integers(1, 20)), draw(st.integers(0, 2**32 - 1)))
    return program, spec, cases


_SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# -- the differentials ---------------------------------------------------------------------


@_SETTINGS
@given(workloads())
def test_batched_verdict_equals_the_per_case_loop(workload) -> None:
    program, spec, cases = workload
    assert verify_program(program, spec, cases) == oracle_verify(program, spec, cases)


@_SETTINGS
@given(workloads())
def test_batched_machine_state_equals_single_case_runs(workload) -> None:
    program, spec, cases = workload
    batched = machine_for_cases(spec, cases)
    try:
        execute(batched, program)
    except ExecError as err:
        batched_error = (err.index, err.kind, err.detail, str(err))
    else:
        batched_error = None
    for index, case in enumerate(cases):
        single = oracle_machine(spec, case)
        try:
            execute(single, program)
        except ExecError as err:
            assert batched_error == (err.index, err.kind, err.detail, str(err))
            continue
        assert batched_error is None
        assert batched.dram.keys() == single.dram.keys()
        for name, arr in single.dram.items():
            assert batched.dram[name][index].tobytes() == arr.tobytes(), name
        assert batched.spad[index].tobytes() == single.spad.tobytes()
        assert batched.acc[index].tobytes() == single.acc.tobytes()


def machine_state(m) -> tuple:
    """Everything a replay can change, as comparable values."""
    weights = None if m.weights is None else (m.weights.shape, m.weights.tobytes())
    dram = {name: (arr.shape, arr.tobytes()) for name, arr in m.dram.items()}
    return dram, m.spad.tobytes(), m.acc.tobytes(), weights


def arrays_of(m) -> list[np.ndarray]:
    return [*m.dram.values(), m.spad, m.acc] + ([m.weights] if m.weights is not None else [])


def run_or_error(m, instructions, start, stop, state: ScanState):
    """Step `instructions[start:stop]` from `state`, moving it past them, then replay them if the pass accepts:
    the (index, kind) of the error it raises, or None."""
    try:
        ops = step(instructions[:stop], m.config,
                   memory_sizes(m.config, {name: arr.shape[-2:] for name, arr in m.dram.items()}), state, start)
    except ExecError as err:
        return err.index, err.kind
    run(m, ops)
    return None


@_SETTINGS
@given(workloads(), st.data())
def test_a_run_split_at_a_repeated_snapshot_equals_one_run(workload, data) -> None:
    """A prefix runs once; the snapshot it leaves is repeated onto a new leading axis; the next
    instruction runs on each slice (`slices`), and the rest once on the whole (`join`).  The scan
    state past the split run is the one past the whole run."""
    program, spec, cases = workload
    try:
        validate_program(program)  # only valid programs are run
    except ValidationError:
        return
    instructions = program.instructions
    whole, whole_state = machine_for_cases(spec, cases), ScanState()
    whole_error = run_or_error(whole, instructions, 0, None, whole_state)
    split = data.draw(st.integers(0, len(instructions)))
    snapshot, state = machine_for_cases(spec, cases), ScanState()
    prefix_error = run_or_error(snapshot, instructions, 0, split, state)
    if prefix_error is not None:
        assert prefix_error == whole_error
        assert machine_state(snapshot) == machine_state(whole)  # neither ran
        return
    before = machine_state(snapshot)
    try:
        rest = step(instructions, snapshot.config, memory_sizes(snapshot.config, spec.buffer_shapes()), state, split)
    except ExecError as err:
        assert (err.index, err.kind) == whole_error
        return
    assert whole_error is None
    assert state.key() == whole_state.key()
    group = repeat(snapshot, 2)
    parts = slices(group)
    assert [machine_state(part) for part in parts] == [before] * 2
    for one, other in itertools.combinations((snapshot, *parts), 2):
        assert not any(np.shares_memory(a, b) for a in arrays_of(one) for b in arrays_of(other))
    for part in parts:
        run(part, rest[:1])
    join(group, parts)
    run(group, rest[1:])
    # Each slice holds the whole run's state, and nothing wrote through to the snapshot.
    assert [machine_state(part) for part in slices(group)] == [machine_state(whole)] * 2
    assert machine_state(snapshot) == before


def test_an_invalid_program_is_refused_before_a_case_machine_is_built(monkeypatch) -> None:
    spec = kernel("mm1")
    golden = _GOLDEN_PROGRAMS["mm1"].instructions
    at = len(golden) // 2
    mvin = next(index for index in range(at, len(golden)) if isinstance(golden[index], Mvin))
    program = Program(golden[:mvin] + (dataclasses.replace(golden[mvin], rows=5),) + golden[mvin + 1:],
                      spec.buffer_shapes(), {})
    cases = make_cases(spec, 3, seed=7)
    # The verdict verification gave when it stacked the case machine and let `execute` validate.
    with pytest.raises(ExecError) as err:
        execute(machine_for_cases(spec, cases), program)
    failure = ExecFailure(err.value.index, err.value.kind, err.value.detail)
    assert err.value.index == mvin
    built = []
    for name in ("_stack_cases", "create_machine", "machine_for_cases"):
        monkeypatch.setattr(kernels, name, lambda *args, name=name: built.append(name))
    assert verify_program(program, spec, cases) == Verdict(
        passed=False, failure=failure, cases=[CaseOutcome(index=0, passed=False, failure=failure)])
    assert built == []


def test_an_invalid_instruction_outranks_an_earlier_execution_error() -> None:
    """One-shot path: the step pass meets the execution error at i first, then validates the rest and reports
    the invalid instruction at j > i instead, and the machine runs nothing."""
    spec, golden = kernel("mm1"), _GOLDEN_PROGRAMS["mm1"].instructions
    mvins = [index for index, ins in enumerate(golden) if isinstance(ins, Mvin)]
    i, j = mvins[1], mvins[-1]
    instructions = list(golden)
    instructions[i] = dataclasses.replace(golden[i], dram=DramRef(golden[i].dram.buffer, 10**6))  # dram_out_of_range
    instructions[j] = dataclasses.replace(golden[j], rows=5)  # rows_exceed_dim
    program = Program(tuple(instructions), spec.buffer_shapes(), {})
    with pytest.raises(ExecError) as before_j:  # the prefix up to j alone fails at i
        execute(machine_for_cases(spec, make_cases(spec, 2, seed=3)), Program(program.instructions[:j]))
    assert (before_j.value.index, before_j.value.kind) == (i, "dram_out_of_range")
    machine = machine_for_cases(spec, make_cases(spec, 2, seed=3))
    untouched = machine_state(machine)
    with pytest.raises(ValidationError) as err:
        execute(machine, program)
    assert (err.value.index, err.value.kind, err.value.detail) == (j, "rows_exceed_dim", "mvin rows 5 must be in 1..4")
    assert machine_state(machine) == untouched
    failure = ExecFailure(j, "rows_exceed_dim", "mvin rows 5 must be in 1..4")
    assert verify_program(program, spec, make_cases(spec, 2, seed=3)) == Verdict(
        passed=False, failure=failure, cases=[CaseOutcome(index=0, passed=False, failure=failure)])


def test_every_golden_verifies_in_one_batched_run() -> None:
    for name in KERNELS:
        spec = kernel(name)
        cases = generate_testcases(spec, seed=17, count=6)
        verdict = verify_program(_GOLDEN_PROGRAMS[name], spec, cases)
        assert verdict == oracle_verify(_GOLDEN_PROGRAMS[name], spec, cases)
        assert verdict.passed and len(verdict.cases) == 6


def test_cancelling_sum_passes_within_the_scaled_tolerance() -> None:
    # Seed 17 draws non-integer data for case 0; its element (2, 10) is a
    # sum of terms that cancel to about -0.0293, off by 5e-6 in float32.
    spec = kernel("mm5")
    cases = make_cases(spec, 5, seed=17)
    verdict = verify_program(_GOLDEN_PROGRAMS["mm5"], spec, cases)
    assert verdict.passed and len(verdict.cases) == 5
    assert verdict == oracle_verify(_GOLDEN_PROGRAMS["mm5"], spec, cases)


def test_an_element_off_by_more_than_the_scaled_bound_fails() -> None:
    spec = kernel("mm5")
    case = make_cases(spec, 5, seed=17)[0]
    bound = _tolerance(spec, case)
    magnitude = np.abs(case.inputs[spec.a]).astype(np.float64) @ np.abs(case.inputs[spec.b]).T  # B is stored transposed
    np.testing.assert_allclose(bound, ABS_TOLERANCE + REL_TOLERANCE * magnitude, rtol=1e-5)
    for factor, passes in ((0.5, True), (2.0, False)):
        expected = case.expected.copy()
        expected[2, 10] += np.float32(factor * bound[2, 10])
        off = dataclasses.replace(case, expected=expected)
        verdict = verify_program(_GOLDEN_PROGRAMS["mm5"], spec, [off])
        assert verdict.passed is passes, factor
        if not passes:
            assert verdict.failure.position == (2, 10)


def test_integer_cases_compare_exactly() -> None:
    spec = kernel("mm5")
    case = generate_testcases(spec, seed=17, count=1)[0]
    assert _tolerance(spec, case) is None
    expected = case.expected.copy()
    expected[0, 0] += np.float32(1e-3)
    verdict = verify_program(_GOLDEN_PROGRAMS["mm5"], spec, [dataclasses.replace(case, expected=expected)])
    assert verdict.failure.position == (0, 0)


def test_no_cases_is_a_pass_without_running() -> None:
    spec = kernel("gv1")
    broken = Program((ConfigSt(3),), spec.buffer_shapes(), {})
    assert verify_program(broken, spec, []) == Verdict(passed=True)


def test_execution_error_is_reported_once_as_case_zero() -> None:
    spec = kernel("mm1")
    kept = tuple(ins for ins in _GOLDEN_PROGRAMS["mm1"].instructions if not isinstance(ins, ConfigSt))
    verdict = verify_program(Program(kept, spec.buffer_shapes(), {}), spec, make_cases(spec, 5, seed=3))
    assert not verdict.passed
    first_store = next(at for at, ins in enumerate(kept) if isinstance(ins, Mvout))
    assert verdict.failure == ExecFailure(first_store, "unsupported", "store stride used before being configured")
    assert verdict.cases == [CaseOutcome(index=0, passed=False, failure=verdict.failure)]


# -- the case axis in create_machine ----------------------------------------------------------------


def test_batch_shape_comes_from_contents() -> None:
    a = np.zeros((3, 2, 4), dtype=np.float32)
    m = create_machine(MachineConfig(), {"A": (2, 4), "C": (2, 2)}, {"A": a})
    assert m.dram["A"].shape == (3, 2, 4)
    assert m.dram["C"].shape == (3, 2, 2)
    assert m.spad.shape == (3, 1024, 4)
    assert m.acc.shape == (3, 256, 4)
    plain = create_machine(MachineConfig(), {"A": (2, 4), "C": (2, 2)}, {"A": a[0]})
    assert plain.dram["C"].shape == (2, 2)
    assert plain.spad.shape == (1024, 4)


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [((3, 2, 4), (2, 4, 2)), ((3, 2, 4), (4, 2)), ((2, 4), (1, 4, 2)), ((2, 3, 2, 4), (3, 2, 4, 2))],
)
def test_mismatched_batch_shapes_are_a_shape_mismatch(a_shape, b_shape) -> None:
    contents = {"A": np.zeros(a_shape, dtype=np.float32), "B": np.zeros(b_shape, dtype=np.float32)}
    with pytest.raises(ShapeMismatch, match="case shape"):
        create_machine(MachineConfig(), {"A": (2, 4), "B": (4, 2)}, contents)


_SMALL = {"A": (4, 4), "y": (4, 4)}


@pytest.mark.parametrize(
    "text",
    [
        "config_ld(16, 0); mvin(A + 4, 0, 4, 4);",
        "config_ld(12, 0); mvin(A + 6, 0, 3, 4);",
        "config_st(16); mvout(y + 8, 0x80000000, 4, 4);",
        "config_st(24); mvout(y + 1, 0x80000000, 4, 3);",
        "config_ld(16, 0); mvin(A, 1022, 4, 4);",
        "config_st(6); mvout(y, 0x80000000, 4, 4);",
        "config_ex(OUTPUT_STATIONARY, NO_ACTIVATION, false, false); preload_zeros(0x80000000);"
        "compute_preloaded(0, 0xffffffff, 4, 4, 4, 4);",
    ],
)
def test_batched_execution_errors_match_single_case_runs(text) -> None:
    program = parse_program(text, _SMALL)
    data = np.arange(3 * 16, dtype=np.float32).reshape(3, 4, 4) / 7
    with pytest.raises(ExecError) as batched:
        execute(create_machine(MachineConfig(), _SMALL, {"A": data}), program)
    for case in data:
        with pytest.raises(ExecError) as single:
            execute(create_machine(MachineConfig(), _SMALL, {"A": case}), program)
        assert str(batched.value) == str(single.value)
        assert (batched.value.index, batched.value.kind) == (single.value.index, single.value.kind)


def test_batched_state_matches_on_overlapping_stores_relu_and_accumulating_loads() -> None:
    # A store pitch below the width makes rows overwrite each other in order;
    # an accumulator mvin with bit 30 adds to what is there.
    text = """
    config_ex(WEIGHT_STATIONARY, RELU, true, true);
    config_ld(16, 0);
    config_st(8);
    mvin(A, 0, 4, 4);
    mvin(A, 0x80000000, 4, 4);
    mvin(A + 1, 0xc0000000, 3, 3);
    preload(0, 0xc0000000, 4, 4, 4, 4);
    compute_accumulated(0, 0, 4, 4, 4, 4);
    mvout(y + 2, 0x80000000, 4, 3);
    mvout(y + 9, 0xa0000000, 2, 2);
    """
    program = parse_program(text, _SMALL)
    rng = np.random.default_rng(5)
    data = rng.uniform(-4, 4, size=(4, 4, 4)).astype(np.float32)
    batched = execute(create_machine(MachineConfig(), _SMALL, {"A": data}), program)
    for index, case in enumerate(data):
        single = execute(create_machine(MachineConfig(), _SMALL, {"A": case}), program)
        for name in _SMALL:
            assert batched.dram[name][index].tobytes() == single.dram[name].tobytes()
        assert batched.spad[index].tobytes() == single.spad.tobytes()
        assert batched.acc[index].tobytes() == single.acc.tobytes()
