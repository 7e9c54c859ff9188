"""Loop nest IR: parsing, rendering, interpretation, and the cost proxy."""

import ast
import itertools
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ta_lift import loopir
from ta_lift.loopir import (
    _LOOPS_PER_FUNCTION,
    P,
    Accumulate,
    ArrayDecl,
    Assign,
    BinOp,
    BoundsError,
    Const,
    EquivalenceVerdict,
    KernelSyntaxError,
    Loop,
    LoopNest,
    NestingTooDeep,
    NonConstantBound,
    Read,
    ShapeMismatch,
    SignatureMismatch,
    Statement,
    Var,
    check_bounds,
    check_equivalence,
    interpret,
    locality_cost,
    parse_kernel,
    plus,
    reduce_extents,
    render_expr,
    render_kernel,
    render_line,
    substitute_stmt,
    times,
    _Compiler,
)
from ta_lift.schedule import (
    IllegalRewrite,
    _splice,
    _walk_statements,
    fission_at,
    fuse_at,
    reorder_at,
    tile_at,
    unroll_at,
)

DOITGEN = """\
def doitgen(A: f32[64, 64, 64] @ DRAM, C4: f32[64, 64] @ DRAM,
            sum: f32[64] @ DRAM):
    for r in seq(0, 64):
        for q in seq(0, 64):
            for p in seq(0, 64):
                sum[p] = 0.0
                for s in seq(0, 64):
                    sum[p] += A[r, q, s] * C4[s, p]
            for p in seq(0, 64):
                A[r, q, p] = sum[p]
"""


def small_doitgen() -> LoopNest:
    return reduce_extents(parse_kernel(DOITGEN), 8)


def test_parse_doitgen_structure():
    nest = parse_kernel(DOITGEN)
    assert nest.name == "doitgen"
    assert nest.arrays == (
        ArrayDecl("A", (64, 64, 64)),
        ArrayDecl("C4", (64, 64)),
        ArrayDecl("sum", (64,)),
    )
    (r,) = nest.body
    (q,) = r.body
    assert (r.var, q.var) == ("r", "q")
    compute, copyback = q.body
    assert isinstance(compute, Loop) and compute.var == "p"
    zero, s_loop = compute.body
    assert isinstance(zero, Assign) and zero.rhs == Const(0.0)
    (acc,) = s_loop.body
    assert isinstance(acc, Accumulate)
    assert acc.rhs == BinOp("*", Read("A", (Var("r"), Var("q"), Var("s"))),
                            Read("C4", (Var("s"), Var("p"))))
    assert isinstance(copyback, Loop) and len(copyback.body) == 1
    assert isinstance(copyback.body[0], Assign)


def test_render_round_trip():
    nest = parse_kernel(DOITGEN)
    text = render_kernel(nest)
    assert text == DOITGEN
    assert parse_kernel(text) == nest


def test_render_wraps_long_headers():
    nest = parse_kernel(DOITGEN)
    header = render_kernel(nest).splitlines()[:2]
    assert header[0] == "def doitgen(A: f32[64, 64, 64] @ DRAM, C4: f32[64, 64] @ DRAM,"
    assert header[1] == "            sum: f32[64] @ DRAM):"
    short = parse_kernel("def copy(A: f32[4] @ DRAM, B: f32[4] @ DRAM):\n"
                         "    for i in seq(0, 4):\n"
                         "        B[i] = A[i]\n")
    assert render_kernel(short).splitlines()[0] == "def copy(A: f32[4] @ DRAM, B: f32[4] @ DRAM):"
    assert parse_kernel(render_kernel(short)) == short


BIG = "3" + "0" * 38 + ".0"  # 3e38, an integer in f32


@pytest.mark.parametrize(
    "text,error",
    [
        ("for i in seq(0, 4):\n    A[i] = 0.0\n", KernelSyntaxError),
        ("def f(A: f32[4] @ DRAM):\n    for i in seq(0, n):\n        A[i] = 0.0\n", NonConstantBound),
        ("def f(A: f32[m] @ DRAM):\n    for i in seq(0, 4):\n        A[i] = 0.0\n", NonConstantBound),
        ("def f(A: f32[4] @ DRAM):\n   A[0] = 0.0\n", KernelSyntaxError),
        ("def f(A: f32[4] @ DRAM):\n    for i in seq(0, 4):\n", KernelSyntaxError),
        ("def f(A: f32[4] @ DRAM):\n    x = 0.0\n", KernelSyntaxError),
        ("def f(A: f32[4] @ DRAM):\n    A[A[0]] = 0.0\n", KernelSyntaxError),
        ("def f(A: f32[4] @ DRAM):\n    for i in seq(0, 4):\n        A[i + 1] = 0.0\n", BoundsError),
        ("def f(A: f32[4] @ DRAM):\n    for i in seq(0, 4):\n        A[i, 0] = 0.0\n", BoundsError),
        # 0.99999999999 is 1.0 in f32, so the index is 2.
        ("def f(A: f32[2] @ DRAM):\n    A[0.99999999999 * 2] = 0.0\n", BoundsError),
        # An index constant must be an integer in f32.
        pytest.param("def f(A: f32[2] @ DRAM, B: f32[2] @ DRAM):\n"
                     "    for i in seq(0, 2):\n        B[i * 1.5] = A[i] + 1.0\n", BoundsError,
                     id="float-index-truncates"),
        pytest.param("def deep(A: f32[4] @ DRAM, B: f32[2] @ DRAM):\n    for v0 in seq(0, 2):\n"
                     "        B[v0 * 1.5] = A[v0 + 16777216 - 16777216] + 0.1\n", BoundsError, id="float-index"),
        pytest.param("def f(A: f32[3, 2] @ DRAM, B: f32[3, 2] @ DRAM):\n"
                     "    for i in seq(0, 2):\n"
                     "        for j in seq(0, 2):\n"
                     "            for k in seq(0, 2):\n"
                     "                B[i * 1.5, j] += A[i * 1.5, k] * A[j + 0.5, k]\n", BoundsError,
                     id="float-index-rows"),
        # A literal must be finite in f32; more digits than 4300 never reach int().
        pytest.param("def f(A: f32[4] @ DRAM):\n    A[0] = " + "1" + "0" * 39 + ".0\n", KernelSyntaxError,
                     id="1e39-literal"),
        pytest.param("def f(A: f32[4] @ DRAM):\n    A[0] = A[1] * " + "1" * 40 + "\n", KernelSyntaxError,
                     id="40-digit-literal"),
        pytest.param("def f(A: f32[4] @ DRAM):\n    A[0] = " + "9" * 5000 + "\n", KernelSyntaxError,
                     id="5000-digit-literal"),
    ],
)
def test_parse_rejects_malformed_kernels(text, error):
    with pytest.raises(error):
        parse_kernel(text)


def test_float_index_bounds_are_checked_in_f32():
    # An index constant is its f32 value: 0.99999999999 is 1.0, so this index is 2, and
    # 0.99999997 is 0.99999994, not an integer, so that index is refused, naming the constant.
    nest = parse_kernel("def f(A: f32[3] @ DRAM):\n    A[0.99999999999 * 2] = 1.0\n")
    assert interpret(nest, {"A": np.zeros(3, np.int64)})["A"].tolist() == [0, 0, 1]
    with pytest.raises(BoundsError, match="^index constant 0.99999997 is not an integer in f32$"):
        parse_kernel("def f(A: f32[3] @ DRAM):\n    for i in seq(3, 4):\n        A[i * 0.99999997] = 1.0\n")


def test_a_literal_past_f32s_range_is_refused_naming_the_limit():
    with pytest.raises(KernelSyntaxError, match=r"^literal 9{20}\.\.\. is not finite in f32, whose largest value is about 3\.4e38$"):
        parse_kernel("def f(A: f32[4] @ DRAM):\n    A[0] = " + "9" * 5000 + "\n")
    # f32's largest value, and leading zeros past int()'s digit limit, are read.
    largest = str((2**24 - 1) * 2**104)
    assert parse_kernel(f"def f(A: f32[1] @ DRAM):\n    A[0] = {largest}\n").body[0].rhs == Const(int(largest))
    assert parse_kernel("def f(A: f32[1] @ DRAM):\n    A[0] = " + "0" * 5000 + "7\n").body[0].rhs == Const(7)


def test_an_integer_literal_rounds_once_to_f32():
    # 2**54 + 2**30 + 1 rounds to 24 bits as 2**54 + 2**31; rounded to a double first, it would be 2**54.
    nest = parse_kernel("def f(A: f32[2] @ DRAM):\n    A[18014399583223809 - 18014400656965632] = 1.0\n")
    assert interpret(nest, {"A": np.zeros(2, np.int64)})["A"].tolist() == [1, 0]
    value = parse_kernel("def f(A: f32[3] @ DRAM):\n    for i in seq(0, 3):\n        A[i] = A[i] * 18014399583223809\n")
    assert check_equivalence(value, scaled(2**54 + 2**31))
    assert not check_equivalence(value, scaled(2**54))
    # One below the overflow midpoint 2**128 - 2**103 is f32's largest value; the midpoint and past it are refused.
    below = 340282356779733661637539395458142568447
    assert below == 2**128 - 2**103 - 1
    largest = parse_kernel(f"def f(A: f32[3] @ DRAM):\n    for i in seq(0, 3):\n        A[i] = A[i] * {below}\n")
    assert check_equivalence(largest, scaled((2**24 - 1) * 2**104))
    for literal in (2**128 - 2**103, 2**128 - 1, 2**128):
        with pytest.raises(KernelSyntaxError, match=f"^literal {str(literal)[:20]}\\.\\.\\. is not finite in f32"):
            parse_kernel(f"def f(A: f32[1] @ DRAM):\n    A[0] = {literal}\n")


def test_index_arithmetic_is_exact_at_any_magnitude():
    # 3e38 + 3e38 overflows f32, but an index is exact in ints: this one is 0.
    nest = parse_kernel(f"def f(A: f32[4] @ DRAM):\n    A[{BIG} + {BIG} - {BIG} - {BIG}] = 1.0\n")
    assert interpret(nest, {"A": np.zeros(4, np.int64)})["A"].tolist() == [1, 0, 0, 0]


def test_expression_rendering():
    assert render_expr(plus(Var("p_inner"), times(Const(16), Var("p_outer")))) == "p_inner + 16 * p_outer"
    assert render_expr(plus(Const(1), times(Const(16), Var("p_outer")))) == "1 + 16 * p_outer"
    assert render_expr(plus(Const(0), times(Const(16), Var("p_outer")))) == "16 * p_outer"
    assert render_expr(times(Const(16), Const(0))) == "0"
    assert render_expr(Const(0.0)) == "0.0"
    assert render_expr(BinOp("*", BinOp("+", Var("a"), Var("b")), Var("c"))) == "(a + b) * c"
    # Right operands the parser would group differently, and floats `str` writes with an exponent.
    assert render_expr(BinOp("-", Var("a"), BinOp("+", Var("b"), Var("c")))) == "a - (b + c)"
    assert render_expr(BinOp("+", Var("a"), BinOp("-", Var("b"), Var("c")))) == "a + (b - c)"
    assert render_expr(BinOp("*", Var("a"), BinOp("*", Var("b"), Var("c")))) == "a * (b * c)"
    assert render_expr(BinOp("-", BinOp("+", Var("a"), Var("b")), BinOp("*", Var("b"), Var("c")))) == "a + b - b * c"
    assert render_expr(Const(1e20)) == "100000000000000000000.0"
    assert render_expr(Const(-1e-05)) == "-0.00001"
    for text in ("a - (b + c)", "a * (b * c) - (d - e)", "100000000000000000000.0 * 0.00001"):
        assert render_expr(loopir.parse_expr(text)) == text


def test_constants_fold_only_to_their_exact_f32_result():
    # 3 * 16777217 is 3 * 16777216 in f32, which f32 holds; 3 * f32(0.9) is not an f32 value.
    assert times(Const(3), Const(16777217)) == Const(50331648)
    assert times(Const(3), Const(0.9)) == BinOp("*", Const(3), Const(0.9))
    assert times(Const(3), Const(0.3)) == Const(0.9000000357627869)
    assert plus(Const(16777216), Const(1)) == BinOp("+", Const(16777216), Const(1))
    assert plus(Const(1.0), Const(2.0)) == Const(3.0) and type(plus(Const(1), Const(2)).value) is int
    assert plus(Const(0.1), Const(0.2)) == BinOp("+", Const(0.1), Const(0.2))
    assert loopir.substitute(BinOp("-", Var("i"), Const(1)), "i", Const(16777217)) == Const(16777215)
    assert loopir.substitute(BinOp("-", Var("i"), Const(0.5)), "i", Const(16777215)) == (
        BinOp("-", Const(16777215), Const(0.5))
    )
    # 1e38 * 1e38 is past f32's range.
    assert times(Const(1e38), Const(1e38)) == BinOp("*", Const(1e38), Const(1e38))


@pytest.mark.parametrize("value", [0, 7, -7, 2**24, 2**24 + 1, -(2**24) - 1, 2**30 + 3, 3 * 2**48 + 5, -(10**60) + 1])
def test_an_integer_expression_is_exact(value):
    expr = loopir.integer(value)
    assert loopir._index_range(expr, {}) == (value, value)
    assert loopir.parse_expr(render_expr(expr)) == expr
    assert (expr == Const(value)) if abs(value) <= 2**24 else (type(expr) is BinOp)


def test_substitute_respects_shadowing():
    inner = Loop("i", 0, 2, (Assign("A", (Var("i"),), Const(0.0)),))
    replaced = substitute_stmt(inner, "i", Const(1))
    assert replaced == inner


def doitgen_oracle(a, c4, sum0):
    """Plain python loops over ints mod P, written independently."""
    a = a.astype(object).copy()
    out = sum0.astype(object).copy()
    n = a.shape[0]
    for r in range(n):
        for q in range(n):
            for p in range(n):
                acc = 0
                for s in range(n):
                    acc = (acc + a[r, q, s] * c4[s, p]) % P
                out[p] = acc
            for p in range(n):
                a[r, q, p] = out[p]
    return a, out


def test_interpret_matches_loop_oracle():
    nest = small_doitgen()
    rng = np.random.default_rng(11)
    inputs = {
        "A": rng.integers(0, P, size=(8, 8, 8)),
        "C4": rng.integers(0, P, size=(8, 8)),
        "sum": np.zeros(8, dtype=np.int64),
    }
    result = interpret(nest, inputs)
    expected_a, expected_sum = doitgen_oracle(inputs["A"], inputs["C4"], inputs["sum"])
    assert result["A"].tolist() == expected_a.tolist()
    assert result["sum"].tolist() == expected_sum.tolist()
    assert np.array_equal(result["C4"], inputs["C4"])


def test_interpret_identity_projection_keeps_input():
    nest = small_doitgen()
    rng = np.random.default_rng(3)
    a = rng.integers(0, P, size=(8, 8, 8))
    result = interpret(nest, {"A": a, "C4": np.eye(8, dtype=np.int64),
                              "sum": np.zeros(8, dtype=np.int64)})
    assert np.array_equal(result["A"], a)
    assert np.array_equal(result["sum"], a[7, 7, :])


def test_interpret_does_not_alias_inputs():
    nest = small_doitgen()
    a = np.ones((8, 8, 8), dtype=np.int64)
    result = interpret(nest, {"A": a, "C4": np.eye(8, dtype=np.int64) * 2,
                              "sum": np.zeros(8, dtype=np.int64)})
    assert np.array_equal(a, np.ones((8, 8, 8), dtype=np.int64))
    assert np.array_equal(result["A"], a * 2)


def test_interpret_shape_mismatch():
    nest = small_doitgen()
    good = {"A": np.zeros((8, 8, 8), dtype=np.int64),
            "C4": np.zeros((8, 8), dtype=np.int64),
            "sum": np.zeros(8, dtype=np.int64)}
    with pytest.raises(ShapeMismatch):
        interpret(nest, {**good, "C4": np.zeros((8, 4), dtype=np.int64)})
    with pytest.raises(ShapeMismatch):
        interpret(nest, {"A": good["A"], "C4": good["C4"]})
    with pytest.raises(ShapeMismatch):
        interpret(nest, {**good, "extra": np.zeros(1, dtype=np.int64)})
    with pytest.raises(ShapeMismatch, match="holds float32, expected integers"):
        interpret(nest, {**good, "sum": np.zeros(8, dtype=np.float32)})


def test_check_equivalence_accepts_self():
    nest = small_doitgen()
    verdict = check_equivalence(nest, nest, seed=0)
    assert verdict.passed
    assert verdict.trials_run == 1  # every nest runs one exact trial
    assert bool(verdict)


def test_check_equivalence_flags_changed_results():
    nest = small_doitgen()
    (r,) = nest.body
    (q,) = r.body
    compute, copyback = q.body
    poisoned_compute = Loop(compute.var, compute.lo, compute.hi,
                            (Assign("sum", (Var("p"),), Const(1.0)),) + compute.body[1:])
    poisoned = LoopNest(nest.name, nest.arrays,
                        (Loop("r", 0, 8, (Loop("q", 0, 8, (poisoned_compute, copyback)),)),))
    verdict = check_equivalence(nest, poisoned, seed=0)
    assert not verdict.passed
    assert verdict.trials_run == 1
    assert "differs" in verdict.detail


def test_check_equivalence_signature_mismatch():
    nest = small_doitgen()
    other = LoopNest(nest.name, (ArrayDecl("A", (4, 4, 4)),) + nest.arrays[1:], nest.body)
    with pytest.raises(SignatureMismatch):
        check_equivalence(nest, other)


def f32_gate(k1: LoopNest, k2: LoopNest, trials: int = 5, seed: int = 0) -> bool:
    """The deleted gate's f32 trials on integers in [-4, 4], kept as the oracle of the exact trial."""
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        for _ in range(trials):
            inputs = {a.name: rng.integers(-4, 5, size=a.extents).astype(np.float32) for a in k1.arrays}
            out1, out2 = walk_interpret(k1, inputs), walk_interpret(k2, inputs)
            if not all(np.array_equal(out1[name], out2[name], equal_nan=True) for name in out1):
                return False
    return True


def test_the_exact_gate_refuses_a_difference_that_vanishes_on_small_integers():
    # (A[0] + 4)(A[0] + 3)...(A[0] - 4) is 0 wherever A[0] is an integer in [-4, 4].
    term = " * ".join(f"(A[0] + {-k})" if k < 0 else f"(A[0] - {k})" for k in range(-4, 5))
    header = "def f(A: f32[2] @ DRAM, B: f32[1] @ DRAM):\n"
    plain = parse_kernel(header + "    B[0] = A[1]\n")
    thin = parse_kernel(header + f"    B[0] = A[1] + {term}\n")
    assert f32_gate(plain, thin)
    assert check_equivalence(plain, thin) == check_equivalence(thin, plain, seed=3) == (
        EquivalenceVerdict(False, 1, "trial 0: array 'B' differs")
    )


def test_the_exact_gate_refuses_a_multiple_of_the_largest_prime_below_2_to_the_30():
    # A[0] * 1073741824 - A[0] * 35 is A[0] * P, which is 0 over GF(P) but not over the drawn primes.
    header = "def f(A: f32[1] @ DRAM):\n"
    times_p = parse_kernel(header + "    A[0] = A[0] * 1073741824 - A[0] * 35\n")
    zero = parse_kernel(header + "    A[0] = 0.0\n")
    assert interpret(times_p, {"A": np.array([5])})["A"].tolist() == [0]
    for seed in range(20):
        assert check_equivalence(times_p, zero, seed=seed) == EquivalenceVerdict(False, 1, "trial 0: array 'A' differs")


def scaled(*factors) -> LoopNest:
    """`A[i] = A[i] * f0 * f1 ...` for each i."""
    rhs = Read("A", (Var("i"),))
    for factor in factors:
        rhs = BinOp("*", rhs, Const(factor))
    return LoopNest("f", (ArrayDecl("A", (3,)),), (Loop("i", 0, 3, (Assign("A", (Var("i"),), rhs),)),))


@pytest.mark.parametrize("constant", [0.5, 1e-40, 3.0, -0.0, 16777217, 1e20])
def test_every_finite_constant_takes_the_exact_trial(constant):
    assert check_equivalence(scaled(constant), scaled(constant)) == EquivalenceVerdict(True, 1)


def test_a_constant_runs_as_the_residue_of_its_f32_value():
    # 0.5 is the inverse of 2 mod p, so 4 * 0.5 is 2; 16777217 is 16777216 in f32.
    assert check_equivalence(scaled(2), scaled(4, 0.5)) == check_equivalence(scaled(4, 0.5), scaled(2)) == (
        EquivalenceVerdict(True, 1)
    )
    assert check_equivalence(scaled(16777216), scaled(16777217))
    assert check_equivalence(scaled(0.3, 3.0), scaled(0.9000000357627869))  # 3 * f32(0.3), an f32 value
    assert not check_equivalence(scaled(2), scaled(4, 0.50000006))
    assert not check_equivalence(scaled(0.3, 3.0), scaled(0.9))


def test_each_nest_compiles_once_to_the_function_its_trials_run(monkeypatch):
    compiled = []
    real = loopir._compile
    monkeypatch.setattr(loopir, "_compile", lambda nest, p: compiled.append((id(nest), p)) or real(nest, p))
    integral, half = small_doitgen(), scaled(0.5)
    for _ in range(2):
        assert check_equivalence(integral, integral) and check_equivalence(half, half)
    (_, prime), _ = compiled
    assert compiled == [(id(integral), prime), (id(half), prime)]
    # Another seed draws another prime, and each nest compiles once for it.
    assert check_equivalence(half, half, seed=1)
    assert len(compiled) == 3 and compiled[2][0] == id(half) and compiled[2][1] != prime


def test_the_seed_draws_the_first_prime_at_or_above_a_uniform_draw():
    def prime(n):
        return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))

    nest = scaled(0.5)
    for seed in range(40):
        assert check_equivalence(nest, nest, seed=seed)
        draw = int(np.random.default_rng(seed).integers(2**29, P + 1))
        p = list(nest._programs)[-1]
        assert draw <= p <= P and prime(p) and not any(prime(n) for n in range(draw, p))
    assert len(nest._programs) == 40


def test_the_exact_interpretation():
    # Constants are the residues of their f32 values, loop variables are
    # themselves, every store is reduced mod P, and indices are exact.
    nest = parse_kernel("def f(A: f32[3] @ DRAM, B: f32[2] @ DRAM):\n"
                        "    for i in seq(16777217, 16777218):\n"
                        "        A[0] = A[0] * 16777217 + i\n"
                        "        A[i - 16777216] = A[i - 16777216] * 0.75\n"
                        "    for j in seq(0, 2):\n"
                        "        B[j] += A[2 * j] - 3\n")
    out = interpret(nest, {"A": np.array([P - 1, 5, 7]), "B": np.array([P - 1, 10**12])})
    assert out["A"].dtype == out["B"].dtype == np.int64
    a0 = ((P - 1) * 16777216 + 16777217) % P
    a1 = 5 * 3 * pow(4, -1, P) % P
    assert out["A"].tolist() == [a0, a1, 7]
    assert out["B"].tolist() == [(P - 1 + a0 - 3) % P, (10**12 + 7 - 3) % P]
    # Over another prime, the same nest.
    small = interpret(nest, {"A": np.array([6, 5, 7]), "B": np.array([0, 0])}, 11)["A"].tolist()
    assert small == [(6 * 16777216 + 16777217) % 11, 5 * 3 * pow(4, -1, 11) % 11, 7]


def test_repeated_squaring_gets_a_verdict_quickly():
    # Degree 2**512 in A[0]: reduced at each store, the ints stay one digit.
    text = ("def f(A: f32[2] @ DRAM):\n    for i in seq(0, 8):\n        for j in seq(0, 8):\n"
            "            for k in seq(0, 8):\n                A[0] = A[0] * A[0]\n")
    squares = parse_kernel(text)
    start = time.perf_counter()
    assert interpret(squares, {"A": np.array([3, 5])})["A"].tolist() == [pow(3, 2**512, P), 5]
    assert check_equivalence(squares, parse_kernel(text))
    assert not check_equivalence(squares, parse_kernel(text.replace("A[0] * A[0]", "A[0] * A[0] + A[1]")))
    assert time.perf_counter() - start < 0.5


# Overflows f32 to infinity, and infinity minus infinity is NaN, unless A[1] is 0.
HUGE = BinOp("*", BinOp("*", Read("A", (Const(1),)), Const(1e20)), Const(1e20))


@pytest.mark.parametrize("factor", [1], ids=["exact-trial"])
def test_a_nest_with_nan_outputs_is_equivalent_to_itself(factor):
    # What f32 made NaN is exactly 0, and the gate prints no overflow warnings.
    nest = LoopNest("f", (ArrayDecl("A", (2,)),),
                    (Assign("A", (Const(0),), times(BinOp("-", HUGE, HUGE), Const(factor))),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert interpret(nest, {"A": np.ones(2, np.int64)})["A"].tolist() == [0, 1]
        assert check_equivalence(nest, nest) == EquivalenceVerdict(True, 1)


def test_the_f32_trials_print_no_warnings():
    # A nest whose f32 run would overflow to infinity: the exact trial that
    # replaced the f32 trials runs it over GF(p) without a warning.
    nest = LoopNest("f", (ArrayDecl("A", (2,)),), (Assign("A", (Const(0),), BinOp("-", HUGE, Const(0.5))),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_equivalence(nest, nest) == EquivalenceVerdict(True, 1)


def test_reduce_extents_rewrites_shapes_and_bounds():
    nest = parse_kernel(DOITGEN)
    reduced = reduce_extents(nest, 8)
    assert reduced.arrays == (
        ArrayDecl("A", (8, 8, 8)),
        ArrayDecl("C4", (8, 8)),
        ArrayDecl("sum", (8,)),
    )
    text = render_kernel(reduced)
    assert "seq(0, 64)" not in text
    assert text.count("seq(0, 8)") == 5
    already_small = parse_kernel("def f(A: f32[4] @ DRAM):\n    for i in seq(0, 4):\n        A[i] = 0.0\n")
    assert reduce_extents(already_small, 8) == already_small


def test_locality_cost_baseline_matches_hand_count():
    # Statement executions, counted level by level: the r header runs once,
    # q headers 64 times, each p header 64^2 times, the s header 64^3 times,
    # the zeroing and copyback leaves 64^3 times each, the accumulate 64^4.
    statements = 1 + 64 + 64**2 + 64**3 + 64**3 + 64**4 + 64**2 + 64**3
    # One access walks with a non-unit stride: the second operand of the
    # accumulate indexes its leading dimension with the innermost loop
    # variable, a stride of 64 in row-major layout.
    penalized = 64**4
    nest = parse_kernel(DOITGEN)
    assert locality_cost(nest) == float(statements + 4 * penalized)


def test_locality_cost_reduced_matches_hand_count():
    statements = 1 + 8 + 8**2 + 8**3 + 8**3 + 8**4 + 8**2 + 8**3
    penalized = 8**4
    assert locality_cost(small_doitgen()) == float(statements + 4 * penalized)


def test_locality_cost_empty_kernel_is_zero():
    empty = LoopNest("f", (ArrayDecl("A", (4,)),), ())
    assert locality_cost(empty) == 0.0


def test_locality_cost_penalizes_strided_access_only():
    text = ("def t(A: f32[8, 8] @ DRAM, B: f32[8, 8] @ DRAM):\n"
            "    for i in seq(0, 8):\n"
            "        for j in seq(0, 8):\n"
            "            B[i, j] = A[j, i]\n")
    nest = parse_kernel(text)
    # Headers 1 + 8, leaves 64; only the transposed read is strided.
    assert locality_cost(nest) == float(1 + 8 + 64 + 4 * 64)
    unit = parse_kernel(text.replace("A[j, i]", "A[i, j]"))
    assert locality_cost(unit) == float(1 + 8 + 64)


def test_locality_cost_constant_indices_carry_no_penalty():
    text = ("def t(A: f32[8] @ DRAM, B: f32[8] @ DRAM):\n"
            "    for i in seq(0, 8):\n"
            "        B[0] = A[3]\n")
    assert locality_cost(parse_kernel(text)) == float(1 + 8)


def test_render_line_shapes():
    nest = parse_kernel(DOITGEN)
    (r,) = nest.body
    assert render_line(r) == "for r in seq(0, 64):"
    zero = r.body[0].body[0].body[0]
    assert render_line(zero) == "sum[p] = 0.0"


# -- the compiled interpreter against the tree walker it replaced ---------------


def walk_interpret(nest: LoopNest, inputs: dict[str, np.ndarray], p: int | None = None) -> dict[str, np.ndarray]:
    """The tree-walking interpreter `interpret` replaced, kept as the oracle.

    With `p` it runs over GF(p) as `interpret` does: a constant is its f32
    value n / 2**k, as n times the inverse of 2**k mod p, in a value and
    exactly in an index; a loop variable is its int; each store is reduced
    mod p.  Without `p` it runs as the deleted f32 interpreter did: every
    value and index in `np.float32`, indices truncated with `int()`, the
    oracle of the f32 trials in `f32_gate`.  A loop that shadows a name gives
    the outer binding back when it ends, as `interpret` scopes variables
    lexically.
    """
    exact = p is not None
    arrays = {a.name: np.asarray(inputs[a.name], dtype=np.int64 if exact else np.float32).copy() for a in nest.arrays}

    def constant(value):
        f32 = Fraction(float(np.float32(value)))
        return f32.numerator * pow(f32.denominator, -1, p) % p

    def evaluate(expr, env, index=False):
        if isinstance(expr, Const):
            if not exact:
                return np.float32(expr.value)
            if index:
                f32 = Fraction(float(np.float32(expr.value)))
                assert f32.denominator == 1
                return int(f32)
            return constant(expr.value)
        if isinstance(expr, Var):
            return env[expr.name] if exact else np.float32(env[expr.name])
        if isinstance(expr, Read):
            value = arrays[expr.array][place(expr.indices, env)]
            return int(value) if exact else value
        left = evaluate(expr.left, env, index)
        right = evaluate(expr.right, env, index)
        value = left + right if expr.op == "+" else left - right if expr.op == "-" else left * right
        return value if exact else np.float32(value)

    def place(indices, env):
        return tuple(evaluate(i, env, True) if exact else int(evaluate(i, env)) for i in indices)

    def run(stmts, env):
        for stmt in stmts:
            if isinstance(stmt, Loop):
                outer = env.get(stmt.var)
                for i in range(stmt.lo, stmt.hi):
                    env[stmt.var] = i
                    run(stmt.body, env)
                if outer is None:
                    del env[stmt.var]
                else:
                    env[stmt.var] = outer
                continue
            spot = place(stmt.indices, env)
            value = evaluate(stmt.rhs, env)
            if isinstance(stmt, Accumulate):
                value = int(arrays[stmt.array][spot]) + value if exact else arrays[stmt.array][spot] + value
            arrays[stmt.array][spot] = value % p if exact else np.float32(value)

    run(nest.body, {})
    return arrays


def random_inputs(nest: LoopNest, seed: int) -> dict[str, np.ndarray]:
    """Residues uniform in [0, P), with arbitrary ints of up to 40 bits of either sign mixed in."""
    rng = np.random.default_rng(seed)
    inputs = {}
    for a in nest.arrays:
        wide = rng.integers(-2**40, 2**40, size=a.extents)
        inputs[a.name] = np.where(rng.random(a.extents) < 0.2, wide, rng.integers(0, P, size=a.extents))
    return inputs


def assert_same_as_walker(nest: LoopNest, inputs: dict[str, np.ndarray]) -> None:
    """The compiled nest and the walker over GF(P) agree exactly; a failure shows the generated source."""
    expected = walk_interpret(nest, inputs, P)
    got = interpret(nest, inputs)
    assert set(got) == set(expected)
    for name in expected:
        assert got[name].dtype == np.int64 and got[name].shape == expected[name].shape
        assert got[name].tobytes() == expected[name].tobytes(), (
            f"array '{name}' differs from the walker's; the generated source:\n{_Compiler(nest, P).source}"
        )


# Names the generated code must not capture: Python keywords and builtins,
# the module's own globals, and the generated names themselves.
ODD_NAMES = ("range", "lambda", "int", "np", "f32", "P", "k0", "a0", "i0", "t1", "c0", "x", "y")
VALUE_CONSTANTS = (0.0, -0.0, 1, -1, 2, 0.5, -2.75, 3.0000001, 1e-40, 123456789.0, 16777217)


@st.composite
def random_nests(draw) -> LoopNest:
    names = draw(st.lists(st.sampled_from(ODD_NAMES), min_size=1, max_size=3, unique=True))
    arrays = tuple(
        ArrayDecl(name, tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))) for name in names
    )
    extents = {a.name: a.extents for a in arrays}

    def index(extent: int, scope: dict[str, tuple[int, int]]):
        fitting = [v for v, (lo, hi) in scope.items() if hi - lo < extent]
        kind = draw(st.sampled_from(("const", "float", "var", "reversed") if fitting else ("const", "float")))
        if kind == "const":
            return Const(draw(st.integers(0, extent - 1)))
        if kind == "float":  # an integer in f32
            return Const(float(draw(st.integers(0, extent - 1))))
        var = draw(st.sampled_from(fitting))
        lo, hi = scope[var]
        shifted = BinOp("-", Var(var), Const(lo)) if lo else Var(var)
        return BinOp("-", Const(hi - lo), shifted) if kind == "reversed" else shifted

    def read(scope):
        name = draw(st.sampled_from(names))
        return Read(name, tuple(index(e, scope) for e in extents[name]))

    def expr(scope, depth):
        leaves = ["const", "read"] + (["var"] if scope else [])
        kind = draw(st.sampled_from(leaves + (["op"] * 2 if depth else [])))
        if kind == "const":
            return Const(draw(st.sampled_from(VALUE_CONSTANTS)))
        if kind == "var":
            return Var(draw(st.sampled_from(sorted(scope))))
        if kind == "read":
            return read(scope)
        op = draw(st.sampled_from("+-*"))
        return BinOp(op, expr(scope, depth - 1), expr(scope, depth - 1))

    def block(scope, depth) -> tuple[Statement, ...]:
        stmts = []
        for _ in range(draw(st.integers(1, 3))):
            if depth and draw(st.booleans()):
                var = draw(st.sampled_from(ODD_NAMES))  # may shadow an outer loop
                lo = draw(st.integers(0, 2))
                hi = lo + draw(st.integers(1, 3))
                stmts.append(Loop(var, lo, hi, block({**scope, var: (lo, hi - 1)}, depth - 1)))
                continue
            target = read(scope)
            kind = draw(st.sampled_from((Assign, Accumulate)))
            stmts.append(kind(target.array, target.indices, expr(scope, 3)))
        return tuple(stmts)

    nest = LoopNest("random", arrays, block({}, 3))
    check_bounds(nest)
    return nest


# Nests in the random test's alphabet that reach every transformation of
# the compiled code on every run: rows bound outside the loops that use them,
# a compound index bound outside its loop, an accumulator and a read-only
# element in locals, and a loop that shadows a name a row was bound under.
HOISTED = parse_kernel(
    "def random(np: f32[3, 4] @ DRAM, int: f32[4] @ DRAM, y: f32[2, 2] @ DRAM):\n"
    "    for range in seq(0, 3):\n"
    "        for lambda in seq(0, 2):\n"
    "            for x in seq(0, 4):\n"
    "                int[lambda * 2 + 1] += np[range, x] * y[lambda, 1] - np[2 - range, x]\n"
    "            np[range, lambda * 2 + 1] = np[range, lambda] - int[lambda]\n"
)
SHADOWED = parse_kernel(
    "def random(np: f32[3, 3, 2] @ DRAM):\n"
    "    for range in seq(0, 3):\n"
    "        for lambda in seq(0, 3):\n"
    "            np[range, lambda, 0] += np[range, lambda, 1] * 0.5\n"
    "        for range in seq(1, 3):\n"
    "            for lambda in seq(0, 2):\n"
    "                np[range, lambda, 1] += np[range, 2, 0] - np[range - 1, lambda, 1]\n"
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(random_nests(), st.integers(0, 2**32 - 1))
@example(HOISTED, 7)
@example(SHADOWED, 8)
def test_interpret_matches_walker_on_random_nests(nest, seed):
    assert_same_as_walker(nest, random_inputs(nest, seed))


def small_doitgen_at(extent: int) -> LoopNest:
    return reduce_extents(parse_kernel(DOITGEN), extent)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_interpret_matches_walker_on_rewritten_doitgen(data):
    nest = small_doitgen_at(4)
    for step in range(data.draw(st.integers(1, 4))):
        paths = [path for path, _ in _walk_statements(nest.body, ())]
        path = data.draw(st.sampled_from(paths))
        op = data.draw(st.sampled_from(("tile", "reorder", "fission", "unroll", "fuse")))
        try:
            if op == "tile":
                size = data.draw(st.sampled_from((1, 2, 4)))
                nest = tile_at(nest, path, size, f"range{step}", f"lambda{step}")
            elif op == "reorder":
                nest = reorder_at(nest, path)
            elif op == "fission":
                nest = fission_at(nest, path, data.draw(st.sampled_from(("before", "after"))))
            elif op == "unroll":
                nest = unroll_at(nest, path)
            else:
                nest = fuse_at(nest, path, path[:-1] + (path[-1] + 1,))
            check_bounds(nest)
        except (IllegalRewrite, BoundsError, IndexError):
            continue
    assert_same_as_walker(nest, random_inputs(nest, data.draw(st.integers(0, 2**32 - 1))))


GATE_KERNELS = (
    small_doitgen_at(4),
    parse_kernel("def mm(A: f32[4, 4] @ DRAM, B: f32[4, 4] @ DRAM, C: f32[4, 4] @ DRAM):\n"
                 "    for i in seq(0, 4):\n"
                 "        for j in seq(0, 4):\n"
                 "            C[i, j] = 0.0\n"
                 "            for k in seq(0, 4):\n"
                 "                C[i, j] += A[i, k] * B[k, j]\n"),
    parse_kernel("def t(A: f32[4] @ DRAM, B: f32[1] @ DRAM, C: f32[4] @ DRAM):\n"
                 "    for i in seq(0, 4):\n"
                 "        B[0] = A[i]\n"
                 "        C[i] = B[0]\n"),
    parse_kernel("def scan(A: f32[5] @ DRAM, B: f32[2, 4] @ DRAM):\n"
                 "    for t in seq(0, 2):\n"
                 "        for i in seq(1, 5):\n"
                 "            A[i] = A[i - 1] * B[t, i - 1] - 2\n"),
)
POISONS = {
    "plus one": lambda stmt: type(stmt)(stmt.array, stmt.indices, plus(stmt.rhs, Const(1))),
    "double": lambda stmt: type(stmt)(stmt.array, stmt.indices, times(stmt.rhs, Const(2))),
    "square": lambda stmt: type(stmt)(stmt.array, stmt.indices, BinOp("*", stmt.rhs, stmt.rhs)),
    "flip": lambda stmt: (Assign if type(stmt) is Accumulate else Accumulate)(stmt.array, stmt.indices, stmt.rhs),
}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_the_exact_gate_agrees_with_the_f32_trials_on_rewrites(data):
    original = nest = data.draw(st.sampled_from(GATE_KERNELS))
    for step in range(data.draw(st.integers(1, 4))):
        paths = [path for path, _ in _walk_statements(nest.body, ())]
        path = data.draw(st.sampled_from(paths))
        op = data.draw(st.sampled_from(("tile", "reorder", "fission", "unroll", "fuse", "poison", "poison")))
        try:
            if op == "tile":
                nest = tile_at(nest, path, data.draw(st.sampled_from((1, 2, 4))), f"o{step}", f"n{step}")
            elif op == "reorder":
                nest = reorder_at(nest, path)
            elif op == "fission":
                nest = fission_at(nest, path, data.draw(st.sampled_from(("before", "after"))))
            elif op == "unroll":
                nest = unroll_at(nest, path)
            elif op == "fuse":
                nest = fuse_at(nest, path, path[:-1] + (path[-1] + 1,))
            else:
                leaves = [(path, stmt) for path, stmt in _walk_statements(nest.body, ()) if type(stmt) is not Loop]
                path, stmt = data.draw(st.sampled_from(leaves))
                nest = _splice(nest, path, (POISONS[data.draw(st.sampled_from(sorted(POISONS)))](stmt),))
            check_bounds(nest)
        except (IllegalRewrite, BoundsError, IndexError):
            continue
    seed = data.draw(st.integers(0, 2**32 - 1))
    verdict = check_equivalence(original, nest, seed=seed)
    assert verdict.trials_run == 1
    assert verdict.passed == f32_gate(original, nest, seed=seed), render_kernel(nest)


# f32 values that fractional constants and folding meet, and ints and floats at 2**24 and past it.
LEGAL_CONSTANTS = (0.3, 0.9, 1.1, 2.3, 0.123, 0.5, -2.75, 1e-05, 3, -1, 16777217, 16777217.0, 2**24 + 3,
                   2.0**25, 1e20)
LOOP_STARTS = (0, 1, 2**24 - 1, 2**24 + 1, 2**30 + 3)


@st.composite
def legal_nests(draw) -> LoopNest:
    """Nests that every sequence of the five rewrites keeps equivalent over GF(p).

    Each statement writes an array of its own and reads only `B`.  An
    assignment's indices are its enclosing loops' variables, so it writes
    each element once; an accumulation may add to one element many times,
    in any order, as exact sums commute.
    """
    arrays = [ArrayDecl("B", (3, 3))]
    loops = itertools.count()

    def shifted(var, lo):
        return BinOp("-", Var(var), loopir.integer(lo)) if lo else Var(var)

    def index(scope):
        if scope and draw(st.booleans()):
            var = draw(st.sampled_from(sorted(scope)))
            return shifted(var, scope[var][0])
        return Const(draw(st.integers(0, 2)))

    def expr(scope, depth):
        kind = draw(st.sampled_from(("const", "read", "var", "op", "op") if depth else ("const", "read", "var")))
        if kind == "const":
            return Const(draw(st.sampled_from(LEGAL_CONSTANTS)))
        if kind == "var" and scope:
            return Var(draw(st.sampled_from(sorted(scope))))
        if kind in ("read", "var"):
            return Read("B", (index(scope), index(scope)))
        return BinOp(draw(st.sampled_from("+-*")), expr(scope, depth - 1), expr(scope, depth - 1))

    def block(scope, depth) -> tuple[Statement, ...]:
        stmts = []
        for _ in range(draw(st.integers(1, 2))):
            if depth and draw(st.booleans()):
                var = f"v{next(loops)}"
                lo = draw(st.sampled_from(LOOP_STARTS))
                hi = lo + draw(st.integers(1, 3))
                stmts.append(Loop(var, lo, hi, block({**scope, var: (lo, hi)}, depth - 1)))
                continue
            name = f"O{len(arrays) - 1}"
            if draw(st.booleans()):
                enclosing = sorted(scope, key=lambda v: int(v[1:]))
                arrays.append(ArrayDecl(name, tuple(scope[v][1] - scope[v][0] for v in enclosing) or (1,)))
                indices = tuple(shifted(v, scope[v][0]) for v in enclosing) or (Const(0),)
                stmts.append(Assign(name, indices, expr(scope, 2)))
            else:
                arrays.append(ArrayDecl(name, (3,)))
                stmts.append(Accumulate(name, (index(scope),), expr(scope, 2)))
        return tuple(stmts)

    body = block({}, 3)
    nest = LoopNest("legal", tuple(arrays), body)
    check_bounds(nest)
    return nest


def unroll_form(constant: str) -> LoopNest:
    return parse_kernel("def f(A: f32[8] @ DRAM, B: f32[8] @ DRAM):\n"
                        f"    for i in seq(0, 8):\n        A[i] = B[i] + i * {constant}\n")


REWRITES = st.lists(
    st.tuples(st.sampled_from(("tile", "reorder", "fission", "unroll", "fuse")), st.integers(0, 99),
              st.sampled_from((1, 2, 3)), st.sampled_from(("before", "after"))),
    min_size=1, max_size=4,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(legal_nests(), REWRITES, st.integers(0, 2**32 - 1))
@example(unroll_form("16777217"), [("unroll", 0, 1, "after")], 0)
@example(unroll_form("0.3"), [("unroll", 0, 1, "after")], 0)
@example(unroll_form("0.9"), [("unroll", 0, 1, "after")], 0)
@example(unroll_form("1.1"), [("unroll", 0, 1, "after")], 0)
@example(unroll_form("2.3"), [("unroll", 0, 1, "after")], 0)
@example(unroll_form("0.123"), [("unroll", 0, 1, "after")], 0)
@example(parse_kernel("def f(A: f32[2] @ DRAM, B: f32[1] @ DRAM):\n"
                      "    for i in seq(16777217, 16777219):\n        A[i - 16777216 - 1] = B[0] + i\n"),
         [("tile", 0, 2, "after"), ("unroll", 1, 1, "after"), ("unroll", 0, 1, "after")], 0)
def test_legal_rewrite_sequences_pass_the_gate_and_render_back(nest, steps, seed):
    original = nest
    for step, (op, pick, size, location) in enumerate(steps):
        paths = [path for path, _ in _walk_statements(nest.body, ())]
        path = paths[pick % len(paths)]
        try:
            if op == "tile":
                candidate = tile_at(nest, path, size, f"o{step}", f"n{step}")
            elif op == "reorder":
                candidate = reorder_at(nest, path)
            elif op == "fission":
                candidate = fission_at(nest, path, location)
            elif op == "unroll":
                candidate = unroll_at(nest, path)
            else:
                candidate = fuse_at(nest, path, path[:-1] + (path[-1] + 1,))
            check_bounds(candidate)
        except (IllegalRewrite, BoundsError, IndexError):
            continue
        nest = candidate
    assert check_equivalence(original, nest, seed=seed), render_kernel(nest)
    assert parse_kernel(render_kernel(nest)) == nest


def deep_nest(loops: int, body: str) -> str:
    """`body` inside `loops` nested loops; `v0` and `v1` take two values, the rest one."""
    lines = ["def deep(A: f32[4] @ DRAM, B: f32[2] @ DRAM):"]
    lines += ["    " * (d + 1) + f"for v{d} in seq(0, {2 if d < 2 else 1}):" for d in range(loops)]
    return "\n".join(lines + ["    " * (loops + 1) + body]) + "\n"


def deep_rows(loops: int) -> str:
    """Rows of A bound in the first function and used by the loops moved to later ones.

    `v0`, `v1` and the innermost loop take two values, the rest one.
    """
    last = loops - 1
    lines = ["def deep(A: f32[2, 2, 4] @ DRAM, B: f32[2, 2] @ DRAM):"]
    lines += ["    " * (d + 1) + f"for v{d} in seq(0, {2 if d < 2 or d == last else 1}):" for d in range(loops)]
    lines += ["    " * (loops + 1) + f"B[v0, v1] += A[v1, v0, v{last} + v2] * A[v0, v1, v{last}]",
              "    " * (loops + 1) + f"A[v0, v1, v{last} + 2] = B[v1, v0] - B[v0, v1]"]
    return "\n".join(lines) + "\n"


DEEP_INDEX = "i" + " + 0" * 60


@pytest.mark.parametrize(
    "text",
    [
        deep_nest(25, "A[v1 + v24] += A[v1] * B[v0]"),  # more loops than CPython nests in one function
        deep_nest(400, "A[v399 + v1] += A[v0] - 1.5"),
        deep_nest(1, "A[v0] = " + " + ".join(["A[v0]"] * 900)),  # no generated expression nests
        "def range(lambda: f32[3] @ DRAM, int: f32[3] @ DRAM, 9x: f32[1] @ DRAM):\n"
        "    for np in seq(0, 3):\n"
        "        for 1x in seq(0, 1):\n"
        "            int[np] += lambda[np] * int[2 - np]\n",
        # Loop variables are ints: i - j is 1, although 16777217 is 16777216 in f32.
        "def f(A: f32[2] @ DRAM):\n"
        "    for i in seq(16777217, 16777218):\n"
        "        for j in seq(16777216, 16777217):\n"
        "            A[i - j] = i - j\n",
        # The accumulator's array is also read at an index that names its element once.
        "def f(sum: f32[4] @ DRAM, C4: f32[4, 4] @ DRAM):\n"
        "    for p in seq(0, 4):\n"
        "        for s in seq(0, 4):\n"
        "            sum[p] += sum[s] * C4[s, p]\n",
        # A[i], A[i + 0] and A[2 - 1] name one element for i = 1, by different expressions.
        "def f(A: f32[4] @ DRAM, B: f32[4] @ DRAM):\n"
        "    for i in seq(0, 4):\n"
        "        for j in seq(0, 3):\n"
        "            A[i] += A[i + 0] * B[j]\n"
        "            A[2 - 1] += B[j]\n",
        # The inner i shadows the i of the rows A[i] and A[i, j] bound outside it.
        "def f(A: f32[3, 3, 2] @ DRAM):\n"
        "    for i in seq(0, 3):\n"
        "        for j in seq(0, 3):\n"
        "            A[i, j, 0] += A[i, j, 1] * 2.0\n"
        "        for i in seq(1, 3):\n"
        "            for j in seq(0, 3):\n"
        "                A[i, j, 1] += A[i, j, 0] - A[i - 1, j, 0]\n",
        deep_rows(_LOOPS_PER_FUNCTION + 4),
        # An index and a value past the inlining depth, in a row prefix and an element held across a loop.
        "def f(A: f32[2, 2] @ DRAM):\n"
        "    for i in seq(0, 2):\n"
        "        for j in seq(0, 2):\n"
        f"            A[{DEEP_INDEX}, j] += A[{DEEP_INDEX}, 1] * " + " * ".join(["A[j, 0]"] * 60) + "\n"
        f"            A[{DEEP_INDEX}, 0] += A[{DEEP_INDEX}, 0] * 0.5\n",
        # -0.0 stored through a local, and multiplied there.
        "def f(A: f32[2] @ DRAM, B: f32[3] @ DRAM):\n"
        "    for i in seq(0, 2):\n"
        "        for j in seq(0, 3):\n"
        "            A[i] = -0.0\n"
        "            A[i] = A[i] * B[j]\n",
    ],
    ids=["25-deep", "400-deep", "900-terms", "odd-names", "large-loop-values",
         "accumulator-also-read", "one-element-two-names", "shadowed-row", "rows-past-a-function",
         "past-the-inlining-depth", "negative-zero-local"],
)
def test_interpret_matches_walker_on_hard_nests(text):
    nest = parse_kernel(text)
    assert_same_as_walker(nest, random_inputs(nest, 5))


def test_negative_zero_is_stored_through_a_local():
    nest = parse_kernel("def f(A: f32[2] @ DRAM, B: f32[3] @ DRAM):\n"
                        "    for i in seq(0, 2):\n"
                        "        for j in seq(0, 3):\n"
                        "            A[i] = -0.0\n"
                        "            A[i] = A[i] * B[j]\n")
    assert "s0 = (s0 * a1[i1]) % P" in _Compiler(nest, P).source
    assert interpret(nest, {"A": np.ones(2, np.int64), "B": np.full(3, 2, np.int64)})["A"].tolist() == [0, 0]


def innermost_loops(source: str) -> list[ast.For]:
    """The `for` loops of generated source that hold no loop, in source order."""
    loops = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.For)]
    innermost = [loop for loop in loops if not any(isinstance(n, ast.For) for s in loop.body for n in ast.walk(s))]
    return sorted(innermost, key=lambda loop: loop.lineno)


def test_doitgen_reduction_loop_is_one_statement_of_arithmetic():
    source = _Compiler(small_doitgen(), P).source
    s_loop = innermost_loops(source)[0]  # `for s`: the first innermost loop
    assert len(s_loop.body) == 1, source
    (statement,) = s_loop.body
    s = s_loop.target.id
    # Every subscript reads the loop variable: rows of A that do not
    # depend on s are bound outside the loop.
    for node in ast.walk(statement):
        if isinstance(node, ast.Subscript):
            assert s in {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}, ast.unparse(node)
    # sum is a2: the element sum[p] lives in a local for the whole loop.
    names = {node.id for node in ast.walk(statement) if isinstance(node, ast.Name)}
    assert "a2" not in names, source


def test_a_moved_loop_binds_its_rows_at_the_top_of_its_function():
    source = _Compiler(parse_kernel(deep_rows(_LOOPS_PER_FUNCTION + 4)), P).source
    k1 = next(node for node in ast.parse(source).body if node.name == "k1")
    assert not any(arg.arg.startswith(("r", "x", "s")) for arg in k1.args.args), source
    first_loop = next(k for k, stmt in enumerate(k1.body) if isinstance(stmt, ast.For))
    assert first_loop == 6 and all(stmt.targets[0].id.startswith("r") for stmt in k1.body[:first_loop]), source
    assert not any(isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id.startswith("r")
                   for loop in k1.body[first_loop:] for node in ast.walk(loop)), source


def test_an_empty_loop_is_refused():
    nest = LoopNest("f", (ArrayDecl("A", (2,)),), (Loop("i", 1, 1, (Assign("A", (Var("i"),), Const(1.0)),)),))
    with pytest.raises(BoundsError, match="empty range"):
        interpret(nest, {"A": np.zeros(2, np.int64)})


def test_inputs_of_every_shape_convert_to_lists_and_back():
    nest = parse_kernel("def f(A: f32[2, 3, 4] @ DRAM, Z: f32[2, 0] @ DRAM, V: f32[5] @ DRAM):\n"
                        "    for i in seq(0, 2):\n"
                        "        V[i] += A[i, 2, 3] - A[1 - i, 0, 1]\n")
    inputs = random_inputs(nest, 9)
    inputs["A"] = np.asfortranarray(inputs["A"])  # not C-contiguous
    assert_same_as_walker(nest, inputs)
    assert interpret(nest, inputs)["Z"].shape == (2, 0)


def test_check_equivalence_on_reduced_doitgen_is_fast():
    nest = small_doitgen()
    start = time.perf_counter()
    assert check_equivalence(nest, small_doitgen())
    # The tree walker took about 0.5 s here; the compiled nests take about 0.01 s.
    assert time.perf_counter() - start < 0.25


# -- depth limits ----------------------------------------------------------------


def test_loop_depth_limit():
    nest = parse_kernel(deep_nest(900, "A[0] = 1.0"))
    assert interpret(nest, {"A": np.zeros(4, np.int64), "B": np.zeros(2, np.int64)})["A"][0] == 1
    with pytest.raises(NestingTooDeep, match="nest 901 deep"):
        parse_kernel(deep_nest(901, "A[0] = 1.0"))


def test_expression_depth_limit():
    # One loop plus 899 operators is exactly the limit.
    parse_kernel(deep_nest(1, "A[0] = " + " + ".join(["A[0]"] * 900)))
    for terms in (901, 3000):
        with pytest.raises(NestingTooDeep, match="more than 900"):
            parse_kernel(deep_nest(1, "A[0] = " + " + ".join(["A[0]"] * terms)))
    with pytest.raises(NestingTooDeep, match="nested parentheses"):
        parse_kernel(deep_nest(1, "A[0] = " + "(" * 5000 + "1.0" + ")" * 5000))
    # Unary minus signs are counted in a loop, and fold into a constant.
    assert parse_kernel(deep_nest(1, "A[0] = " + "- " * 5000 + "1.0")).body[0].body[0].rhs == Const(1.0)


def test_rewrite_past_the_depth_limit_is_refused():
    nest = parse_kernel(deep_nest(1, "A[v0] = " + " + ".join(["A[0]"] * 899) + " + v0"))
    with pytest.raises(NestingTooDeep):
        check_bounds(tile_at(nest, (0,), 1, "outer", "inner"))
