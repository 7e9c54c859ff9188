"""Cost model oracles: per-instruction terms, program totals and feedback text."""

from __future__ import annotations

from conftest import golden_program
from ta_lift import costs
from ta_lift.costs import CostReport, program_cost, render_feedback
from ta_lift.fixtures import kernel
from ta_lift.isa import (
    ACC_BIT,
    ComputePreloaded,
    ConfigEx,
    DramRef,
    Fence,
    Mvin,
    Mvout,
    Preload,
    PreloadZeros,
    Program,
)
from ta_lift.program_text import parse_program


def spad(row: int) -> int:
    return row


def acc(row: int) -> int:
    return ACC_BIT | row


def instruction_cost(ins) -> float:
    return program_cost(Program((ins,))).total


def test_mvin_cost_counts_bytes() -> None:
    ins = Mvin(channel=0, dram=DramRef("A"), local=spad(0), cols=12, rows=4)
    assert instruction_cost(ins) == 49.0


def test_mvout_cost_counts_bytes() -> None:
    ins = Mvout(dram=DramRef("C"), local=acc(0), cols=4, rows=4)
    assert instruction_cost(ins) == 17.0


def test_preload_pays_pipeline_fill() -> None:
    pre = Preload(b=spad(0), c=acc(0), b_cols=4, b_rows=4, c_cols=4, c_rows=4)
    assert instruction_cost(pre) == 5.0
    assert instruction_cost(PreloadZeros(c=acc(0))) == 5.0


def test_compute_pays_per_row() -> None:
    comp = ComputePreloaded(a=spad(0), d=0xFFFFFFFF, a_cols=4, a_rows=3, d_cols=4, d_rows=4)
    assert instruction_cost(comp) == 4.0


def test_plain_instructions_pay_issue_only() -> None:
    from ta_lift.isa import Activation, Dataflow

    assert instruction_cost(Fence()) == 1.0
    cfg = ConfigEx(Dataflow.WEIGHT_STATIONARY, Activation.NONE, False, False)
    assert instruction_cost(cfg) == 1.0


def test_params_scale_terms(monkeypatch) -> None:
    monkeypatch.setattr(costs, "ISSUE", 2.0)
    monkeypatch.setattr(costs, "BYTE_COST", 0.5)
    monkeypatch.setattr(costs, "PIPELINE_FILL", 10.0)
    monkeypatch.setattr(costs, "ROW_COST", 3.0)
    ins = Mvin(channel=0, dram=DramRef("A"), local=spad(0), cols=2, rows=2)
    assert instruction_cost(ins) == 2.0 + 0.5 * 4 * 2 * 2
    pre = PreloadZeros(c=acc(0))
    assert instruction_cost(pre) == 12.0
    comp = ComputePreloaded(a=spad(0), d=0xFFFFFFFF, a_cols=4, a_rows=3, d_cols=4, d_rows=4)
    assert instruction_cost(comp) == 2.0 + 3.0 * 3


def test_program_cost_totals_and_counts() -> None:
    spec = kernel("gv1")
    program = parse_program(golden_program("gv1"), spec.buffer_shapes())
    report = program_cost(program)
    assert report.counts["mvin"] == 3
    assert report.counts["mvin2"] == 3
    assert report.counts["preload"] == 3
    assert report.counts["compute_preloaded"] == 3
    assert report.counts["mvout"] == 1
    assert report.counts["fence"] == 1
    # 4 configs + 3 mvin(4x4)=17 each + 3 mvin2(1x4)=5 each + 3 preload=5 each
    # + 3 compute(4 rows)=5 each + mvout(1x4)=5 + fence=1
    assert report.total == 4 + 3 * 17 + 3 * 5 + 3 * 5 + 3 * 5 + 5 + 1
    assert report.total == sum(report.breakdown.values())


def test_feedback_reports_zero_delta_for_same_report() -> None:
    spec = kernel("gv1")
    program = parse_program(golden_program("gv1"), spec.buffer_shapes())
    report = program_cost(program)
    text = render_feedback(report, report)
    assert "Δtotal: +0" in text


def test_feedback_reports_signed_delta_and_count_changes() -> None:
    before = CostReport(total=100.0, counts={"mvin": 6, "fence": 1}, dram_bytes_in=96, dram_bytes_out=16)
    after = CostReport(total=66.0, counts={"mvin": 4, "fence": 1}, dram_bytes_in=64, dram_bytes_out=16)
    text = render_feedback(before, after)
    assert "mvin: 6 -> 4" in text
    assert "fence" not in text.splitlines()[0]
    assert "Δtotal: -34" in text
    assert "bytes in: 96 -> 64" in text
