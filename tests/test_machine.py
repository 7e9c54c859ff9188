"""Simulator semantics: data movement, compute, activations, errors."""

from __future__ import annotations

import numpy as np
import pytest

from ta_lift.costs import program_cost
from ta_lift.machine import ExecError, MachineConfig, ConfigInvalid, ShapeMismatch, create_machine, execute, read_output
from ta_lift.program_text import parse_program


def run(text: str, shapes: dict[str, tuple[int, int]], contents: dict[str, np.ndarray], cfg: MachineConfig | None = None):
    machine = create_machine(cfg or MachineConfig(), shapes, contents)
    execute(machine, parse_program(text, shapes))
    return machine


def test_wide_mvin_splits_into_column_tiles() -> None:
    data = np.arange(16, dtype=np.float32).reshape(2, 8)
    m = run("config_ld(32, 0); mvin(A, 0, 8, 2);", {"A": (2, 8)}, {"A": data})
    assert m.spad[0].tolist() == [0, 1, 2, 3]
    assert m.spad[1].tolist() == [8, 9, 10, 11]
    assert m.spad[4].tolist() == [4, 5, 6, 7]
    assert m.spad[5].tolist() == [12, 13, 14, 15]


def test_mvin_partial_columns_leave_rest_unchanged() -> None:
    data = np.full((2, 2), 9, dtype=np.float32)
    m = run("config_ld(8, 0); mvin(A, 0, 2, 2);", {"A": (2, 2)}, {"A": data})
    assert m.spad[0].tolist() == [9, 9, 0, 0]
    assert m.spad[2].tolist() == [0, 0, 0, 0]


def test_stride_walks_dram_rows() -> None:
    data = np.arange(12, dtype=np.float32).reshape(3, 4)
    m = run("config_ld(16, 0); mvin(A + 4, 0, 4, 2);", {"A": (3, 4)}, {"A": data})
    assert m.spad[0].tolist() == [4, 5, 6, 7]
    assert m.spad[1].tolist() == [8, 9, 10, 11]


MATVEC = """
config_ex(WEIGHT_STATIONARY, NO_ACTIVATION, false, false);
config_st(4);
config_ld(16, 0);
config_ld(4, 1);
mvin(A, 0, 4, 4);
mvin2(x, 4, 1, 4);
preload(4, 0x80000000, 1, 4, 1, 4);
compute_preloaded(0, 0xffffffff, 4, 4, 1, 4);
mvout(y, 0x80000000, 1, 4);
fence();
"""


def _matvec_shapes() -> dict[str, tuple[int, int]]:
    return {"A": (4, 4), "x": (4, 1), "y": (4, 1)}


def test_single_tile_matvec() -> None:
    rng = np.random.default_rng(1)
    a = rng.integers(-8, 9, size=(4, 4)).astype(np.float32)
    x = rng.integers(-8, 9, size=(4, 1)).astype(np.float32)
    m = run(MATVEC, _matvec_shapes(), {"A": a, "x": x})
    assert np.array_equal(read_output(m, "y"), a @ x)


def test_accumulate_bit_adds_to_prior_tile() -> None:
    text = """
    config_ex(WEIGHT_STATIONARY, NO_ACTIVATION, false, false);
    config_st(4);
    config_ld(16, 0);
    config_ld(4, 1);
    mvin(A, 0, 4, 4);
    mvin2(x, 4, 1, 4);
    preload(4, 0x80000000, 1, 4, 1, 4);
    compute_preloaded(0, 0xffffffff, 4, 4, 1, 4);
    preload(4, 0xc0000000, 1, 4, 1, 4);
    compute_preloaded(0, 0xffffffff, 4, 4, 1, 4);
    mvout(y, 0x80000000, 1, 4);
    """
    rng = np.random.default_rng(2)
    a = rng.integers(-8, 9, size=(4, 4)).astype(np.float32)
    x = rng.integers(-8, 9, size=(4, 1)).astype(np.float32)
    m = run(text, _matvec_shapes(), {"A": a, "x": x})
    assert np.array_equal(read_output(m, "y"), 2 * (a @ x))


def test_a_transpose_flag() -> None:
    text = MATVEC.replace("false, false", "true, false")
    rng = np.random.default_rng(3)
    a = rng.integers(-8, 9, size=(4, 4)).astype(np.float32)
    x = rng.integers(-8, 9, size=(4, 1)).astype(np.float32)
    m = run(text, _matvec_shapes(), {"A": a, "x": x})
    assert np.array_equal(read_output(m, "y"), a.T @ x)


def test_b_transpose_applies_at_preload() -> None:
    text = """
    config_ex(WEIGHT_STATIONARY, NO_ACTIVATION, false, true);
    config_st(16);
    config_ld(16, 0);
    config_ld(16, 1);
    mvin(A, 0, 4, 4);
    mvin2(B, 4, 4, 4);
    preload(4, 0x80000000, 4, 4, 4, 4);
    compute_preloaded(0, 0xffffffff, 4, 4, 4, 4);
    mvout(C, 0x80000000, 4, 4);
    """
    shapes = {"A": (4, 4), "B": (4, 4), "C": (4, 4)}
    rng = np.random.default_rng(4)
    a = rng.integers(-8, 9, size=(4, 4)).astype(np.float32)
    b = rng.integers(-8, 9, size=(4, 4)).astype(np.float32)
    m = run(text, shapes, {"A": a, "B": b})
    assert np.array_equal(read_output(m, "C"), a @ b.T)


def test_preload_zeros_gives_zero_tile() -> None:
    text = """
    config_ex(WEIGHT_STATIONARY, NO_ACTIVATION, false, false);
    config_st(16);
    config_ld(16, 0);
    mvin(A, 0, 4, 4);
    preload_zeros(0x80000000);
    compute_preloaded(0, 0xffffffff, 4, 4, 4, 4);
    mvout(C, 0x80000000, 4, 4);
    """
    shapes = {"A": (4, 4), "C": (4, 4)}
    a = np.full((4, 4), 5, dtype=np.float32)
    m = run(text, shapes, {"A": a, "C": np.full((4, 4), 7, dtype=np.float32)})
    assert np.array_equal(read_output(m, "C"), np.zeros((4, 4), dtype=np.float32))


def test_compute_accumulated_always_adds() -> None:
    text = """
    config_ex(WEIGHT_STATIONARY, NO_ACTIVATION, false, false);
    config_st(4);
    config_ld(16, 0);
    config_ld(4, 1);
    mvin(A, 0, 4, 4);
    mvin2(x, 4, 1, 4);
    preload(4, 0x80000000, 1, 4, 1, 4);
    compute_preloaded(0, 0xffffffff, 4, 4, 1, 4);
    compute_accumulated(0, 0xffffffff, 4, 4, 1, 4);
    mvout(y, 0x80000000, 1, 4);
    """
    rng = np.random.default_rng(5)
    a = rng.integers(-8, 9, size=(4, 4)).astype(np.float32)
    x = rng.integers(-8, 9, size=(4, 1)).astype(np.float32)
    m = run(text, _matvec_shapes(), {"A": a, "x": x})
    assert np.array_equal(read_output(m, "y"), 2 * (a @ x))


def test_bias_block_is_added() -> None:
    text = """
    config_ex(WEIGHT_STATIONARY, NO_ACTIVATION, false, false);
    config_st(4);
    config_ld(16, 0);
    config_ld(4, 1);
    config_ld(4, 2);
    mvin(A, 0, 4, 4);
    mvin2(x, 4, 1, 4);
    mvin3(d, 8, 1, 4);
    preload(4, 0x80000000, 1, 4, 1, 4);
    compute_preloaded(0, 8, 4, 4, 1, 4);
    mvout(y, 0x80000000, 1, 4);
    """
    shapes = {"A": (4, 4), "x": (4, 1), "d": (4, 1), "y": (4, 1)}
    rng = np.random.default_rng(6)
    a = rng.integers(-8, 9, size=(4, 4)).astype(np.float32)
    x = rng.integers(-8, 9, size=(4, 1)).astype(np.float32)
    d = rng.integers(-8, 9, size=(4, 1)).astype(np.float32)
    m = run(text, shapes, {"A": a, "x": x, "d": d})
    assert np.array_equal(read_output(m, "y"), a @ x + d)


def test_relu_applies_on_mvout_only() -> None:
    base = """
    config_ex(WEIGHT_STATIONARY, RELU, false, false);
    config_st(4);
    config_ld(16, 0);
    config_ld(4, 1);
    mvin(A, 0, 4, 4);
    mvin2(x, 4, 1, 4);
    preload(4, 0x80000000, 1, 4, 1, 4);
    compute_preloaded(0, 0xffffffff, 4, 4, 1, 4);
    """
    a = -np.eye(4, dtype=np.float32)
    x = np.arange(1, 5, dtype=np.float32).reshape(4, 1)
    m = run(base + "mvout(y, 0x80000000, 1, 4);", _matvec_shapes(), {"A": a, "x": x})
    assert np.array_equal(read_output(m, "y"), np.zeros((4, 1), dtype=np.float32))
    # bit 29 reads the accumulator raw, skipping the activation
    m = run(base + "mvout(y, 0xa0000000, 1, 4);", _matvec_shapes(), {"A": a, "x": x})
    assert np.array_equal(read_output(m, "y"), -x)


def test_mvin_to_accumulator_honors_accumulate_bit() -> None:
    text = """
    config_ld(16, 0);
    mvin(A, 0x80000000, 4, 2);
    mvin(A, 0xc0000000, 4, 2);
    """
    data = np.arange(8, dtype=np.float32).reshape(2, 4)
    m = run(text, {"A": (2, 4)}, {"A": data})
    assert np.array_equal(m.acc[0:2], 2 * data)


def test_wide_mvout_writes_column_tiles() -> None:
    # Stage an 2x8 pattern into the accumulator (two tiles), then store it.
    text = """
    config_ld(32, 0);
    config_st(32);
    mvin(A, 0x80000000, 8, 2);
    mvout(B, 0x80000000, 8, 2);
    """
    data = np.arange(16, dtype=np.float32).reshape(2, 8)
    m = run(text, {"A": (2, 8), "B": (2, 8)}, {"A": data})
    assert np.array_equal(read_output(m, "B"), data)


def test_fence_is_a_no_op_for_final_state() -> None:
    rng = np.random.default_rng(8)
    a = rng.integers(-8, 9, size=(4, 4)).astype(np.float32)
    x = rng.integers(-8, 9, size=(4, 1)).astype(np.float32)
    lines = [ln for ln in MATVEC.strip().splitlines()]
    with_fences = "fence();\n" + "\nfence();\n".join(lines)
    plain = run(MATVEC, _matvec_shapes(), {"A": a, "x": x})
    fenced = run(with_fences, _matvec_shapes(), {"A": a, "x": x})
    assert np.array_equal(read_output(plain, "y"), read_output(fenced, "y"))


def test_memory_isolation_only_outputs_change() -> None:
    rng = np.random.default_rng(9)
    a = rng.integers(-8, 9, size=(4, 4)).astype(np.float32)
    x = rng.integers(-8, 9, size=(4, 1)).astype(np.float32)
    m = run(MATVEC, _matvec_shapes(), {"A": a, "x": x})
    assert np.array_equal(read_output(m, "A"), a)
    assert np.array_equal(read_output(m, "x"), x)


def test_determinism_same_machine_same_result() -> None:
    rng = np.random.default_rng(10)
    a = rng.integers(-8, 9, size=(4, 4)).astype(np.float32)
    x = rng.integers(-8, 9, size=(4, 1)).astype(np.float32)
    first = run(MATVEC, _matvec_shapes(), {"A": a, "x": x})
    second = run(MATVEC, _matvec_shapes(), {"A": a, "x": x})
    assert np.array_equal(read_output(first, "y"), read_output(second, "y"))


def test_moved_byte_counters() -> None:
    report = program_cost(parse_program(MATVEC, _matvec_shapes()))
    assert report.dram_bytes_in == 4 * (4 * 4 + 1 * 4)
    assert report.dram_bytes_out == 4 * (1 * 4)


# -- error surfaces ------------------------------------------------------------


def _expect_exec_error(text: str, shapes: dict[str, tuple[int, int]], kind: str, index: int) -> None:
    machine = create_machine(MachineConfig(), shapes, {})
    with pytest.raises(ExecError) as err:
        execute(machine, parse_program(text, shapes))
    assert err.value.kind == kind
    assert err.value.index == index


def test_compute_before_preload() -> None:
    _expect_exec_error("compute_preloaded(0, 0xffffffff, 4, 4, 4, 4);", {}, "compute_before_preload", 0)


def test_keep_without_prior_weights() -> None:
    _expect_exec_error("preload(0xffffffff, 0x80000000, 4, 4, 4, 4);", {}, "compute_before_preload", 0)


def test_rows_exceed_dim_reports_index() -> None:
    _expect_exec_error("config_ld(16, 0); mvin(A, 0, 4, 5);", {"A": (8, 4)}, "rows_exceed_dim", 1)


def test_spad_out_of_range() -> None:
    _expect_exec_error("config_ld(16, 0); mvin(A, 1022, 4, 4);", {"A": (8, 4)}, "spad_out_of_range", 1)


def test_acc_out_of_range() -> None:
    _expect_exec_error("config_ld(16, 0); mvin(A, 0x800000fe, 4, 4);", {"A": (8, 4)}, "acc_out_of_range", 1)


def test_dram_out_of_range() -> None:
    _expect_exec_error("config_ld(16, 0); mvin(A + 30, 0, 4, 4);", {"A": (8, 4)}, "dram_out_of_range", 1)


def test_mvin_without_stride_config() -> None:
    _expect_exec_error("mvin(A, 0, 4, 4);", {"A": (8, 4)}, "unsupported", 0)


def test_output_stationary_rejected_at_compute() -> None:
    text = """
    config_ex(OUTPUT_STATIONARY, NO_ACTIVATION, false, false);
    preload_zeros(0x80000000);
    compute_preloaded(0, 0xffffffff, 4, 4, 4, 4);
    """
    _expect_exec_error(text, {}, "unsupported", 2)


def test_exotic_activation_rejected_at_compute() -> None:
    text = """
    config_ex(WEIGHT_STATIONARY, SOFTMAX, false, false);
    config_st(16);
    preload_zeros(0x80000000);
    compute_preloaded(0, 0xffffffff, 4, 4, 4, 4);
    mvout(C, 0x80000000, 4, 4);
    """
    _expect_exec_error(text, {"C": (4, 4)}, "unsupported", 3)


def test_inner_dimension_mismatch() -> None:
    text = """
    config_ld(16, 0);
    mvin(A, 0, 4, 4);
    preload(0, 0x80000000, 4, 3, 4, 4);
    compute_preloaded(0, 0xffffffff, 4, 4, 4, 4);
    """
    _expect_exec_error(text, {"A": (8, 4)}, "dimension_mismatch", 3)


def test_config_invalid_when_memories_too_small() -> None:
    with pytest.raises(ConfigInvalid):
        MachineConfig(dim=4, spad_rows=2)


def test_shape_mismatch_on_bad_contents() -> None:
    with pytest.raises(ShapeMismatch):
        create_machine(MachineConfig(), {"A": (2, 2)}, {"A": np.zeros((3, 3), dtype=np.float32)})
