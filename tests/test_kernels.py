"""Kernel descriptions, reference semantics, and verification plumbing."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import golden_program, naive_program
from ta_lift.isa import Mvin, Program, memory_sizes, step
from ta_lift.kernels import (
    KernelSpec,
    ParseFailure,
    WrongResult,
    evaluate_reference,
    generate_testcases,
    reference_matmul,
    reference_matmul_bias,
    verify_program,
    verify_source,
)
from ta_lift.fixtures import KERNELS, kernel
from ta_lift.machine import MachineConfig
from ta_lift.program_text import parse_program


def naive_product(a, b, i_dim: int, k_dim: int, j_dim: int, ta: bool, tb: bool):
    """Triple loop written without numpy so the vectorized path has a cross-check."""
    out = [[0.0] * j_dim for _ in range(i_dim)]
    for i in range(i_dim):
        for j in range(j_dim):
            acc = 0.0
            for k in range(k_dim):
                lhs = a[k][i] if ta else a[i][k]
                rhs = b[j][k] if tb else b[k][j]
                acc += float(lhs) * float(rhs)
            out[i][j] = acc
    return out


@pytest.mark.parametrize("ta,tb", [(False, False), (True, False), (False, True), (True, True)])
def test_reference_matches_naive_loops(ta: bool, tb: bool) -> None:
    rng = np.random.default_rng(20)
    i_dim, k_dim, j_dim = 3, 5, 2
    a = rng.integers(-8, 9, size=(k_dim, i_dim) if ta else (i_dim, k_dim)).astype(np.float32)
    b = rng.integers(-8, 9, size=(j_dim, k_dim) if tb else (k_dim, j_dim)).astype(np.float32)
    got = reference_matmul(a, b, i_dim, k_dim, j_dim, ta, tb)
    want = np.array(naive_product(a.tolist(), b.tolist(), i_dim, k_dim, j_dim, ta, tb), dtype=np.float32)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("sub", [False, True])
def test_bias_reference(sub: bool) -> None:
    rng = np.random.default_rng(21)
    a = rng.integers(-8, 9, size=(3, 4)).astype(np.float32)
    b = rng.integers(-8, 9, size=(4, 2)).astype(np.float32)
    d = rng.integers(-8, 9, size=(3, 2)).astype(np.float32)
    got = reference_matmul_bias(a, b, d, 3, 4, 2, False, False, sub)
    base = np.array(naive_product(a.tolist(), b.tolist(), 3, 4, 2, False, False), dtype=np.float32)
    want = base - d if sub else base + d
    assert np.array_equal(got, want)


def test_spec_buffer_shapes_follow_transposes() -> None:
    spec = KernelSpec(name="t", op="matmul", i=6, k=3, j=2, transpose_a=True)
    assert spec.a_shape == (3, 6)
    assert spec.b_shape == (3, 2)
    assert spec.buffer_shapes()[spec.c] == (6, 2)
    spec2 = KernelSpec(name="t2", op="matmul", i=6, k=3, j=2, transpose_b=True)
    assert spec2.a_shape == (6, 3)
    assert spec2.b_shape == (2, 3)


def test_generate_testcases_shapes_and_range() -> None:
    spec = kernel("gv1")
    cases = generate_testcases(spec, seed=7, count=5)
    assert len(cases) == 5
    for case in cases:
        for name, decl in spec.buffer_table().items():
            if decl.role == "output":
                continue
            arr = case.inputs[name]
            assert arr.shape == (decl.rows, decl.cols)
            assert arr.dtype == np.float32
            assert float(arr.min()) >= -8 and float(arr.max()) <= 8
            assert np.array_equal(arr, np.trunc(arr))
        assert np.array_equal(case.expected, evaluate_reference(spec, case.inputs))
    flat = [tuple(c.inputs[spec.a].ravel().tolist()) for c in cases]
    assert len(set(flat)) == len(flat)


def test_generate_testcases_deterministic() -> None:
    spec = kernel("mm5")
    first = generate_testcases(spec, seed=11, count=3)
    second = generate_testcases(spec, seed=11, count=3)
    for one, two in zip(first, second):
        for key in one.inputs:
            assert np.array_equal(one.inputs[key], two.inputs[key])


def test_verify_program_accepts_golden() -> None:
    spec = kernel("gv1")
    verdict = verify_source(golden_program("gv1"), spec, generate_testcases(spec, seed=3))
    assert verdict.passed
    assert verdict.failure is None
    assert all(case.passed for case in verdict.cases)


def test_verify_source_flags_parse_failure() -> None:
    spec = kernel("gv1")
    verdict = verify_source("mvin(A, 0, 4;", spec, generate_testcases(spec, seed=3, count=1))
    assert not verdict.passed
    assert isinstance(verdict.failure, ParseFailure)


def test_verify_catches_wrong_result() -> None:
    spec = kernel("gv1")
    cases = generate_testcases(spec, seed=3, count=2)
    # A program that computes nothing and stores an all-zero tile instead.
    text = f"""
    config_ex(WEIGHT_STATIONARY, NO_ACTIVATION, true, false);
    config_st(4);
    preload_zeros(0x80000000);
    mvout({spec.c}, 0x80000000, 1, 4);
    """
    verdict = verify_source(text, spec, cases)
    assert not verdict.passed
    assert isinstance(verdict.failure, WrongResult)
    assert verdict.failure.position is not None


def test_sub_bias_kernel_verifies() -> None:
    spec = kernel("mm2")
    assert spec.sub
    verdict = verify_source(golden_program("mm2"), spec, generate_testcases(spec, seed=5))
    assert verdict.passed


def test_verify_program_object_entry_point() -> None:
    from ta_lift.program_text import parse_program

    spec = kernel("gv2")
    program = parse_program(golden_program("gv2"), spec.buffer_shapes())
    verdict = verify_program(program, spec, generate_testcases(spec, seed=9, count=2))
    assert verdict.passed


def _perturbed(program: Program, golden: Program) -> Program:
    """The program with each copy of the golden's first mvin of two or more columns cut by one: a tile column is
    never loaded."""
    site = next(ins for ins in golden.instructions if isinstance(ins, Mvin) and ins.cols >= 2)
    cut = dataclasses.replace(site, cols=site.cols - 1)
    return dataclasses.replace(program, instructions=tuple(cut if ins == site else ins for ins in program.instructions))


def test_handed_ops_give_the_verdict_of_stepping() -> None:
    """With the ops of its step against the spec's table, a program gets the verdict it gets without them."""
    cfg = MachineConfig()
    for name in sorted(KERNELS):
        spec = kernel(name)
        golden = parse_program(golden_program(name), spec.buffer_shapes())
        naive = parse_program(naive_program(golden_program(name)), spec.buffer_shapes())
        cases = generate_testcases(spec, seed=4, count=3)
        wrong = _perturbed(golden, golden), _perturbed(naive, golden)
        for program, passes in ((golden, True), (naive, True), (wrong[0], False), (wrong[1], False)):
            ops = step(program.instructions, cfg, memory_sizes(cfg, spec.buffer_shapes()))
            verdict = verify_program(program, spec, cases, cfg, ops=ops)
            assert verdict == verify_program(program, spec, cases, cfg), name
            assert verdict.passed is passes and (passes or isinstance(verdict.failure, WrongResult)), name


def test_handed_ops_of_another_count_are_refused() -> None:
    spec, cfg = kernel("gv1"), MachineConfig()
    program = parse_program(golden_program("gv1"), spec.buffer_shapes())
    ops = step(program.instructions, cfg, memory_sizes(cfg, spec.buffer_shapes()))
    for cases in (generate_testcases(spec, seed=4, count=2), []):
        for wrong in (ops[:-1], ops + ops[-1:]):
            with pytest.raises(ValueError, match="ops handed"):
                verify_program(program, spec, cases, cfg, ops=wrong)
