"""Golden program emitter and the bundled kernel registry."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import golden_program
from ta_lift.fixtures import (
    KERNELS,
    emit_golden_program,
    kernel,
)
from ta_lift.isa import (
    ACC_BIT,
    ACCUMULATE_BIT,
    ROW_MASK,
    SENTINEL,
    ComputePreloaded,
    Fence,
    Mvin,
    Mvout,
    Preload,
    Program,
    validate_program,
)
from ta_lift.kernels import generate_testcases, verify_source
from ta_lift.program_text import parse_program, render_program


def parsed_golden(name: str) -> Program:
    spec = kernel(name)
    return parse_program(golden_program(name), spec.buffer_shapes())


def test_registry_has_eleven_kernels() -> None:
    assert len(KERNELS) == 11


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_golden_program_verifies(name: str) -> None:
    spec = kernel(name)
    validate_program(parsed_golden(name))
    cases = generate_testcases(spec, seed=17, count=3)
    verdict = verify_source(golden_program(name), spec, cases)
    assert verdict.passed, f"{name}: {verdict.failure}"


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_golden_round_trips_through_text(name: str) -> None:
    program = parsed_golden(name)
    again = parse_program(render_program(program), program.buffers)
    assert again.instructions == program.instructions


def test_gv1_structure_matches_blocked_matvec() -> None:
    """The 12x4-stored transposed matvec tiles into three K blocks on one output tile."""
    program = parsed_golden("gv1")
    mvin_a = [ins for ins in program.instructions if isinstance(ins, Mvin) and ins.channel == 0]
    mvin_b = [ins for ins in program.instructions if isinstance(ins, Mvin) and ins.channel == 1]
    preloads = [ins for ins in program.instructions if isinstance(ins, Preload)]
    computes = [ins for ins in program.instructions if isinstance(ins, ComputePreloaded)]
    mvouts = [ins for ins in program.instructions if isinstance(ins, Mvout)]
    assert len(mvin_a) == 3 and len(mvin_b) == 3
    assert len(preloads) == 3 and len(computes) == 3
    assert len(mvouts) == 1
    assert isinstance(program.instructions[-1], Fence)
    # First chunk starts a fresh tile, later chunks set the add-on-write bit.
    assert not preloads[0].c & ACCUMULATE_BIT
    assert preloads[1].c & ACCUMULATE_BIT and preloads[2].c & ACCUMULATE_BIT
    for pre in preloads:
        assert (pre.c_cols, pre.c_rows) == (1, 4)
        assert (pre.b_cols, pre.b_rows) == (1, 4)
    for comp in computes:
        assert (comp.a_cols, comp.a_rows) == (4, 4)
        assert comp.d == SENTINEL


def test_wide_kernel_emits_multiple_output_tiles() -> None:
    program = parsed_golden("mm1")
    mvouts = [ins for ins in program.instructions if isinstance(ins, Mvout)]
    spec = kernel("mm1")
    assert len(mvouts) == (spec.i // 4) * (spec.j // 4)


def test_bias_kernel_stages_bias_once_per_output_tile() -> None:
    spec = kernel("mm3")
    program = parsed_golden("mm3")
    bias_loads = [ins for ins in program.instructions if isinstance(ins, Mvin) and ins.channel == 2]
    assert len(bias_loads) == (spec.i // 4) * (spec.j // 4)
    computes = [ins for ins in program.instructions if isinstance(ins, ComputePreloaded)]
    with_bias = [c for c in computes if c.d != SENTINEL]
    assert len(with_bias) == len(bias_loads)


def test_emitter_rejects_oversized_kernels() -> None:
    from ta_lift.kernels import KernelSpec
    from ta_lift.machine import MachineConfig

    huge = KernelSpec(name="huge", op="matmul", i=4, k=4000, j=4)
    with pytest.raises(ValueError):
        emit_golden_program(huge, MachineConfig(spad_rows=64))


def test_all_goldens_fit_default_machine() -> None:
    from ta_lift.machine import MachineConfig

    cfg = MachineConfig()
    for name in KERNELS:
        program = parsed_golden(name)
        for ins in program.instructions:
            if isinstance(ins, Mvin) and not ins.local & ACC_BIT:
                assert (ins.local & ROW_MASK) + ins.rows <= cfg.spad_rows
