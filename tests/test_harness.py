"""pass@k math, code extraction, and end-to-end replay experiments."""

import csv
import io
import itertools
import json
import re
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fenced, golden_program

from ta_lift import harness
from ta_lift.fixtures import kernel
from ta_lift.gateway import GenerationParams, ReplayBackend
from ta_lift.kernels import ParseFailure, generate_testcases, verify_source
from ta_lift.harness import (
    Ablation,
    ConfigError,
    DomainError,
    ExperimentConfig,
    ExperimentReport,
    ExperimentRow,
    extract_code,
    fenced_blocks,
    pass_at_k,
    render_report,
    run_experiment,
)
from ta_lift.prompts import build_translation_prompt


# -- pass@k against exhaustive subset enumeration ----------------------------


def enumerated_pass_rate(n: int, c: int, k: int) -> Fraction:
    """Fraction of k-subsets of n samples that contain a passing one.

    Written independently of the estimator: literally enumerate subsets and
    count.  Samples 0..c-1 are the passing ones.
    """
    hits = 0
    for subset in itertools.combinations(range(n), k):
        if any(index < c for index in subset):
            hits += 1
    return Fraction(hits, comb(n, k))


def test_pass_at_k_matches_enumeration_up_to_n_12():
    for n in range(1, 13):
        for c in range(0, n + 1):
            for k in range(1, n + 1):
                want = enumerated_pass_rate(n, c, k)
                got = pass_at_k(n, c, k)
                assert abs(got - float(want)) <= 1e-12, (n, c, k)


def test_pass_at_k_boundaries():
    assert pass_at_k(1, 1, 1) == 1.0
    assert pass_at_k(50, 0, 50) == 0.0
    assert abs(pass_at_k(4, 2, 2) - 5 / 6) <= 1e-12
    assert pass_at_k(2, 1, 1) == 0.5
    assert pass_at_k(10, 8, 5) == 1.0


def test_pass_at_k_monotonic():
    for k in range(1, 50):
        assert pass_at_k(50, 7, k + 1) >= pass_at_k(50, 7, k)
    for c in range(0, 50):
        assert pass_at_k(50, c + 1, 10) >= pass_at_k(50, c, 10)
    assert pass_at_k(50, 1, 50) == 1.0
    assert pass_at_k(50, 0, 50) == 0.0


def test_pass_at_k_domain_errors():
    with pytest.raises(DomainError):
        pass_at_k(4, 5, 1)
    with pytest.raises(DomainError):
        pass_at_k(4, -1, 1)
    with pytest.raises(DomainError):
        pass_at_k(4, 2, 0)
    with pytest.raises(DomainError):
        pass_at_k(4, 2, 5)


# -- code extraction -----------------------------------------------------------

GV1_BUFFERS = kernel("gv1").buffer_shapes()


def test_extract_single_fenced_block():
    assert extract_code("```\nfence();\n```", GV1_BUFFERS) == "fence();"


def test_extract_block_with_language_tag():
    assert extract_code("Sure:\n```c\nfence();\nfence();\n```\nenjoy", GV1_BUFFERS) == "fence();\nfence();"


def test_extract_prefers_larger_block():
    text = "```\nfence();\n```\nbut really\n```\nfence();\nfence();\nfence();\n```"
    assert extract_code(text, GV1_BUFFERS) == "fence();\nfence();\nfence();"


def test_extract_prose_returns_none():
    assert extract_code("I am unable to produce accelerator code.", GV1_BUFFERS) is None


def test_extract_bare_program_passes_through():
    for text in ("config_st(16);\nfence();", "config_ld(16, 0);\nmvin(Bdyn + 4, 0, 1, 4);"):
        assert extract_code(text, GV1_BUFFERS) == text


def test_extract_bare_reply_naming_another_buffer_is_not_code():
    # `mystery` is no buffer of gv1, so the reply does not parse against the kernel's table.
    assert extract_code("config_ld(16, 0);\nmvin(mystery, 0, 1, 4);", GV1_BUFFERS) is None


# The fence regex `fenced_blocks` replaced, kept as the reference.  It is
# quadratic on a run of backticks.
OLD_FENCE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet="`\nc ", max_size=40))
@example("```")
@example("```\n```")
@example("````\nx````\n``")
@example("```c\nfence();\n```\nprose ```\n")
@example("``` ```\n``` ```\n```")
def test_fenced_blocks_match_the_old_regex(text):
    assert fenced_blocks(text) == OLD_FENCE.findall(text)


def test_fenced_blocks_match_the_old_regex_on_every_evaluate_reply(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import worker
    import workloads

    modules = worker.Modules()
    replies = 0
    for seed in range(3):
        work = tmp_path / str(seed)
        work.mkdir()
        workloads.build_evaluate(modules, seed, work)
        for texts in json.loads((work / "fixtures.json").read_text()).values():
            for text in texts:
                assert fenced_blocks(text) == OLD_FENCE.findall(text)
                replies += 1
    assert replies == 3 * 22 * 5


def test_fenced_blocks_read_a_megabyte_of_backticks_quickly():
    start = time.perf_counter()
    assert fenced_blocks("`" * 2**20) == []
    assert fenced_blocks("```\n" + "`" * 2**20) == [""]
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "text",
    [
        "mvin(A, 0x, 4, 4);",
        "mvin(A, \u00b2, 4, 4);",
        "config_st(1 << -1);",
        "static uint32_t x = " + "(" * 5000 + "1" + ")" * 5000 + ";\n" + golden_program("mm1"),
        "{" * 5000 + "}" * 5000 + "\n" + golden_program("mm1"),
        "if (" + "(" * 5000 + "1 == 1" + ")" * 5000 + ") { fence(); }\n" + golden_program("mm1"),
        "config_st(1 << 100000);\n" + golden_program("mm1"),
        "static uint32_t A0 = 0xffff;\n"
        + "".join(f"static uint32_t A{i + 1} = A{i} * A{i};\n" for i in range(10))
        + golden_program("mm1"),
        "config_st(" + "9" * 5000 + ");\n" + golden_program("mm1"),
        "for (int i = 0; i < 0x" + "f" * 300 + "; i++) fence();",
    ],
    ids=["hex-without-digits", "non-ascii-digit", "negative-shift", "deep-parens", "deep-braces",
         "deep-condition", "huge-shift", "squaring-chain", "long-literal", "long-hex-loop-bound"],
)
def test_garbled_literal_is_a_parse_failure(text):
    spec = kernel("mm1")
    verdict = verify_source(text, spec, generate_testcases(spec, seed=3, count=1))
    assert isinstance(verdict.failure, ParseFailure)
    assert extract_code(text, spec.buffer_shapes()) is None


# -- experiments over the replay backend --------------------------------------


def two_kernel_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        kernels=("gv2", "mm2"),
        ablations=(Ablation(label="one-shot", shots=1),),
        params=GenerationParams(n_samples=2),
        k_values=(1, 2),
        seed=11,
        testcases_per_kernel=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def replay_for(config: ExperimentConfig, texts_for_kernel) -> ReplayBackend:
    backend = ReplayBackend()
    for ablation in config.ablations:
        for name in config.kernels:
            if name in ablation.excluded_kernels():
                continue
            prompt = build_translation_prompt(ablation.prompt_spec(kernel(name)))
            backend.add(prompt.fingerprint, texts_for_kernel(name))
    return backend


def test_all_golden_samples_give_pass_1():
    config = two_kernel_config()
    backend = replay_for(config, lambda name: [golden_program(name)] * 2)
    report = run_experiment(config, backend)
    (row,) = report.rows
    assert row.n_total == 4 and row.c_total == 4
    assert dict(row.pass_at) == {1: 1.0, 2: 1.0}


def test_half_passing_fixtures_give_pass_1_of_a_half():
    config = two_kernel_config()
    backend = replay_for(
        config,
        lambda name: ["I am unable to produce accelerator code.", golden_program(name)],
    )
    report = run_experiment(config, backend)
    (row,) = report.rows
    assert row.n_total == 4 and row.c_total == 2
    assert dict(row.pass_at)[1] == pytest.approx(0.5, abs=1e-12)
    assert dict(row.pass_at)[2] == pytest.approx(5 / 6, abs=1e-12)


def test_macro_aggregation_is_switchable():
    config = two_kernel_config(aggregate="macro")
    backend = replay_for(
        config,
        lambda name: ["I am unable to produce accelerator code.", golden_program(name)],
    )
    report = run_experiment(config, backend)
    (row,) = report.rows
    assert dict(row.pass_at)[1] == pytest.approx(0.5, abs=1e-12)
    assert dict(row.pass_at)[2] == pytest.approx(1.0, abs=1e-12)


def test_fenced_golden_samples_pass():
    config = two_kernel_config()
    backend = replay_for(
        config,
        lambda name: [f"Here is the program:\n```c\n{golden_program(name)}\n```\nDone."] * 2,
    )
    report = run_experiment(config, backend)
    assert report.rows[0].c_total == 4


def test_example_kernel_excluded_from_its_row():
    config = two_kernel_config(kernels=("gv1", "gv2"))
    backend = replay_for(config, lambda name: [golden_program(name)] * 2)
    report = run_experiment(config, backend)
    (row,) = report.rows
    assert row.excluded == ("gv1",)
    assert [name for name, _, _ in row.kernel_counts] == ["gv2"]
    assert "gv1" in render_report(report)
    assert "in-context example" in render_report(report)


def test_zero_shot_row_excludes_nothing():
    config = two_kernel_config(
        kernels=("gv1", "gv2"),
        ablations=(Ablation(label="zero-shot", shots=0),),
    )
    backend = replay_for(config, lambda name: [golden_program(name)] * 2)
    report = run_experiment(config, backend)
    assert report.rows[0].excluded == ()
    assert report.rows[0].n_total == 4


def test_replay_experiment_is_byte_deterministic():
    config = two_kernel_config()
    backend = replay_for(
        config,
        lambda name: ["not a program", golden_program(name)],
    )
    first = render_report(run_experiment(config, backend), format="table")
    second = render_report(run_experiment(config, backend), format="table")
    assert first == second
    assert render_report(run_experiment(config, backend), format="csv") == render_report(
        run_experiment(config, backend), format="csv"
    )


def test_records_are_persisted(tmp_path):
    config = two_kernel_config()
    backend = replay_for(config, lambda name: ["nope", golden_program(name)])
    report = run_experiment(config, backend, records_dir=tmp_path)
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == len(report.records) == 4
    doc = json.loads(files[0].read_text())
    assert set(doc) == {"kernel", "fingerprint", "index", "raw_text", "code", "passed", "failure"}
    assert {json.loads(f.read_text())["passed"] for f in files} == {True, False}


def test_config_validation():
    with pytest.raises(ConfigError):
        run_experiment(two_kernel_config(kernels=()), ReplayBackend())
    with pytest.raises(ConfigError):
        run_experiment(two_kernel_config(k_values=(3,)), ReplayBackend())
    with pytest.raises(ConfigError):
        run_experiment(two_kernel_config(aggregate="median"), ReplayBackend())
    with pytest.raises(ConfigError):
        run_experiment(
            two_kernel_config(
                ablations=(Ablation(label="dup"), Ablation(label="dup", shots=0))
            ),
            ReplayBackend(),
        )
    with pytest.raises(ConfigError, match="unknown kernel 'gv9'"):
        run_experiment(two_kernel_config(kernels=("gv2", "gv9")), ReplayBackend())


# -- one line memo per cell ----------------------------------------------------


def test_samples_of_a_cell_share_one_line_memo_and_no_two_cells_share_one(monkeypatch):
    config = two_kernel_config(
        ablations=(Ablation(label="one-shot", shots=1), Ablation(label="zero-shot", shots=0)),
        params=GenerationParams(n_samples=3),
    )
    backend = replay_for(config, lambda name: [golden_program(name), fenced(golden_program(name)), "no code"])
    verified = []
    real_verify = harness.verify_source

    def verify(text, spec, cases, cfg=None, memo=None):
        verified.append(memo)
        return real_verify(text, spec, cases, cfg, memo)

    monkeypatch.setattr(harness, "verify_source", verify)
    report = run_experiment(config, backend)
    assert [row.c_total for row in report.rows] == [4, 4]
    # Cells run one after another: 2 ablations x 2 kernels, each with 2 replies holding code.
    cells = [verified[at:at + 2] for at in range(0, 8, 2)]
    assert len(verified) == 8
    for memos in cells:
        assert isinstance(memos[0], dict) and memos[1] is memos[0]
    assert len({id(memos[0]) for memos in cells}) == 4


# -- report rendering ----------------------------------------------------------


def fixture_report() -> ExperimentReport:
    rows = (
        ExperimentRow(
            label="zero-shot",
            kernel_counts=(("gv2", 50, 1),),
            excluded=(),
            n_total=50,
            c_total=1,
            pass_at=((1, 0.0033), (10, 0.0333), (50, 0.167)),
        ),
        ExperimentRow(
            label="one-shot",
            kernel_counts=(("gv2", 50, 50),),
            excluded=(),
            n_total=50,
            c_total=50,
            pass_at=((1, 1.0), (10, 1.0), (50, 1.0)),
        ),
    )
    metadata = (("seed", "0"), ("model", "m"), ("temperature", "0.8"), ("n", "50"))
    return ExperimentReport(rows=rows, k_values=(1, 10, 50), metadata=metadata)


def test_table_layout_and_percentages():
    text = render_report(fixture_report(), format="table")
    lines = text.splitlines()
    header = lines[1]
    assert header.split() == ["config", "n", "c", "pass@1", "pass@10", "pass@50"]
    assert "0.33%" in text and "3.33%" in text and "16.70%" in text
    assert text.count("100.00%") == 3
    zero_line = next(line for line in lines if line.startswith("zero-shot"))
    one_line = next(line for line in lines if line.startswith("one-shot"))
    assert lines.index(zero_line) < lines.index(one_line)


def test_csv_roundtrip():
    text = render_report(fixture_report(), format="csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["config", "n", "c", "pass@1", "pass@10", "pass@50"]
    assert rows[1] == ["zero-shot", "50", "1", "0.33%", "3.33%", "16.70%"]
    assert rows[2][3:] == ["100.00%", "100.00%", "100.00%"]


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_report(fixture_report(), format="html")
