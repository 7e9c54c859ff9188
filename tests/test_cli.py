"""Exit codes, output files, and replay determinism of the ta-lift command."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import eval_bundle, fenced, schedule_bundle, translation_prompt, write_json
from ta_lift.cli import dispatch
from ta_lift.fixtures import golden_program
from ta_lift.gateway import ReplayBackend


def golden_file(directory: Path, name: str = "gv1") -> Path:
    path = directory / f"{name}.txt"
    path.write_text(golden_program(name))
    return path


# -- argument handling ---------------------------------------------------------


def test_help_exits_clean(capsys):
    assert dispatch(["--help"]) == 0
    assert "ta-lift" in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys):
    assert dispatch([]) == 2


def test_unknown_flag_prints_usage(capsys):
    assert dispatch(["verify", "--wat"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_kernel_is_usage_error(tmp_path, capsys):
    program = golden_file(tmp_path)
    assert dispatch(["verify", "--program", str(program), "--kernel", "nope"]) == 2
    assert "unknown kernel 'nope'" in capsys.readouterr().err


def test_missing_program_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    assert dispatch(["verify", "--program", str(missing), "--kernel", "gv1"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_replay_backend_requires_fixtures(capsys):
    assert dispatch(["translate", "--kernel", "gv1", "--backend", "replay"]) == 2
    assert "--fixtures" in capsys.readouterr().err


@pytest.mark.parametrize("payload", ['["not", "a", "dict"]', '{"fp": "not a list"}', "{broken"])
def test_malformed_fixtures_file_is_usage_error(tmp_path, payload, capsys):
    fixtures = tmp_path / "fixtures.json"
    fixtures.write_text(payload)
    code = dispatch(["translate", "--kernel", "gv1", "--backend", "replay",
                     "--fixtures", str(fixtures)])
    assert code == 2


_CASE_COMMANDS = {
    "simulate": ["simulate", "--program", "{fence}", "--kernel", "gv2"],
    "verify": ["verify", "--program", "{fence}", "--kernel", "gv2"],
    "translate": ["translate", "--kernel", "gv2", "--backend", "replay", "--fixtures", "{fixtures}"],
    "repair": ["repair", "--program", "{fence}", "--kernel", "gv2", "--mode", "enumerate"],
    "optimize": ["optimize", "--program", "{fence}", "--kernel", "gv2", "--mode", "rules"],
}


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", sorted(_CASE_COMMANDS))
def test_fewer_than_one_case_is_a_usage_error(tmp_path, capsys, command, value):
    # With no cases, a program that is only a fence would verify, be "repaired" or accept any rewrite.
    fence = tmp_path / "fence.txt"
    fence.write_text("fence();\n")
    fixtures = write_json(tmp_path / "fixtures.json", {translation_prompt("gv2").fingerprint: [fenced("fence();")]})
    argv = [arg.format(fence=fence, fixtures=fixtures) for arg in _CASE_COMMANDS[command]]
    out = tmp_path / "out"
    assert dispatch(argv + ["--n", value, "--out", str(out)]) == 2
    assert "argument --n: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(_CASE_COMMANDS))
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    argv = [arg.format(fence="fence.txt", fixtures="fixtures.json") for arg in _CASE_COMMANDS[command]]
    assert dispatch(argv + ["--seed", "-1"]) == 2
    assert "argument --seed: must be at least 0" in capsys.readouterr().err


# -- verify and simulate ---------------------------------------------------------


def test_verify_golden_program_passes(tmp_path):
    program = golden_file(tmp_path)
    out = tmp_path / "out"
    code = dispatch(["verify", "--program", str(program), "--kernel", "gv1",
                     "--n", "5", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "verify_gv1.json").read_text())
    assert report["passed"] is True
    assert [case["passed"] for case in report["cases"]] == [True] * 5


def test_verify_flags_truncated_program(tmp_path, capsys):
    lines = golden_program("gv1").splitlines()
    program = tmp_path / "half.txt"
    program.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    code = dispatch(["verify", "--program", str(program), "--kernel", "gv1", "--n", "5"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_unparsable_program_fails(tmp_path, capsys):
    program = tmp_path / "junk.txt"
    program.write_text("this is not a program\n")
    assert dispatch(["verify", "--program", str(program), "--kernel", "gv1"]) == 1
    assert "parse error" in capsys.readouterr().out


def test_simulate_is_deterministic(tmp_path):
    program = golden_file(tmp_path)
    payloads = []
    for rerun in ("a", "b"):
        out = tmp_path / rerun
        code = dispatch(["simulate", "--program", str(program), "--kernel", "gv1",
                         "--n", "2", "--out", str(out)])
        assert code == 0
        payloads.append((out / "simulate_gv1.json").read_bytes())
    assert payloads[0] == payloads[1]
    assert len(json.loads(payloads[0])["cases"]) == 2


# -- translate -------------------------------------------------------------------


def test_translate_verifies_samples_in_order(tmp_path, capsys):
    fixtures = write_json(tmp_path / "fx.json", {
        translation_prompt("gv1").fingerprint: [
            fenced("not a program"),
            fenced(golden_program("gv1")),
        ],
    })
    out = tmp_path / "out"
    code = dispatch(["translate", "--kernel", "gv1", "--backend", "replay",
                     "--fixtures", str(fixtures), "--n", "2",
                     "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "sample 0: fail" in stdout
    assert "sample 1: pass" in stdout
    summary = json.loads((out / "translate_gv1.json").read_text())
    assert (summary["n"], summary["c"]) == (2, 1)
    code = dispatch(["verify", "--program", str(out / "translated_gv1.txt"),
                     "--kernel", "gv1", "--n", "3"])
    assert code == 0


def test_translate_exits_one_when_nothing_passes(tmp_path):
    fixtures = write_json(tmp_path / "fx.json", {
        translation_prompt("gv1").fingerprint: [fenced("not a program")],
    })
    code = dispatch(["translate", "--kernel", "gv1", "--backend", "replay",
                     "--fixtures", str(fixtures), "--n", "1"])
    assert code == 1


# -- evaluate --------------------------------------------------------------------


def test_evaluate_replay_is_byte_identical(tmp_path):
    config, fixtures = eval_bundle(tmp_path)
    snapshots = []
    for rerun in ("e1", "e2"):
        out = tmp_path / rerun
        code = dispatch(["evaluate", "--config", str(config), "--backend", "replay",
                         "--fixtures", str(fixtures), "--out", str(out)])
        assert code == 0
        records = sorted((out / "records").iterdir())
        snapshots.append((
            (out / "report.txt").read_bytes(),
            (out / "report.csv").read_bytes(),
            [record.name for record in records],
            [record.read_bytes() for record in records],
        ))
    assert snapshots[0] == snapshots[1]
    assert b"50.00%" in snapshots[0][0]


def test_evaluate_missing_fixture_names_fingerprint(tmp_path, capsys):
    config, _ = eval_bundle(tmp_path)
    empty = write_json(tmp_path / "empty.json", {})
    code = dispatch(["evaluate", "--config", str(config), "--backend", "replay",
                     "--fixtures", str(empty)])
    assert code == 3
    err = capsys.readouterr().err
    assert "no replay fixture for prompt" in err
    assert translation_prompt("mm1").fingerprint[:12] in err


def test_evaluate_rejects_bad_config(tmp_path, capsys):
    _, fixtures = eval_bundle(tmp_path)
    config = write_json(tmp_path / "broken_config.json", {"ablations": []})
    code = dispatch(["evaluate", "--config", str(config), "--backend", "replay",
                     "--fixtures", str(fixtures)])
    assert code == 2
    assert "bad experiment config" in capsys.readouterr().err


_MALFORMED_CONFIGS = {
    "unknown kernel": {"kernels": ["gv9"]},
    "kernels as a string": {"kernels": "gv1"},
    "nested kernel list": {"kernels": [["gv1"]]},
    "negative shots": {"ablations": [{"label": "base", "shots": -1}]},
    "more shots than examples": {"ablations": [{"label": "base", "shots": 5}]},
    "unknown example": {"ablations": [{"label": "base", "examples": ["matvec", "nope"]}]},
    "unhashable label": {"ablations": [{"label": ["base"]}]},
    "string k": {"k_values": ["1"]},
    "string seed": {"seed": "x"},
    "negative seed": {"seed": -1},
    "string testcases": {"testcases": "5"},
    "zero testcases": {"testcases": 0},
    "negative testcases": {"testcases": -1},
    "numeric model": {"model": 5},
    "numeric date": {"date": 20240101},
}


@pytest.mark.parametrize("change", _MALFORMED_CONFIGS.values(), ids=_MALFORMED_CONFIGS.keys())
def test_evaluate_rejects_malformed_config_before_any_backend_call(tmp_path, capsys, monkeypatch, change):
    config, fixtures = eval_bundle(tmp_path)
    write_json(config, {**json.loads(config.read_text()), **change})

    def unreachable(*args, **kwargs):
        raise AssertionError("the backend was called")

    monkeypatch.setattr(ReplayBackend, "complete", unreachable)
    code = dispatch(["evaluate", "--config", str(config), "--backend", "replay",
                     "--fixtures", str(fixtures), "--out", str(tmp_path / "out")])
    assert code == 2
    assert [line for line in capsys.readouterr().err.splitlines() if line.startswith("usage error: ")]


def test_evaluate_k_override_changes_columns(tmp_path, capsys):
    config, fixtures = eval_bundle(tmp_path)
    out = tmp_path / "out"
    code = dispatch(["evaluate", "--config", str(config), "--backend", "replay",
                     "--fixtures", str(fixtures), "--k", "2", "--out", str(out)])
    assert code == 0
    text = (out / "report.txt").read_text()
    assert "pass@2" in text
    assert "pass@1" not in text


# -- repair ----------------------------------------------------------------------


def test_repair_fills_one_hole(tmp_path):
    holed = golden_program("gv1").replace("config_st(4);", "config_st(<CONST>);", 1)
    assert "<CONST>" in holed
    program = tmp_path / "holed.txt"
    program.write_text(holed)
    out = tmp_path / "out"
    code = dispatch(["repair", "--program", str(program), "--kernel", "gv1",
                     "--mode", "enumerate", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "repair_gv1.json").read_text())
    assert summary["outcome"] == "repaired"
    assert summary["assignment"] == [["h0", 4]]
    code = dispatch(["verify", "--program", str(out / "repaired_gv1.txt"),
                     "--kernel", "gv1", "--n", "3"])
    assert code == 0


def test_repair_exhausts_bad_constants(tmp_path, capsys):
    holed = golden_program("gv1").replace("config_st(4);", "config_st(<CONST>);", 1)
    program = tmp_path / "holed.txt"
    program.write_text(holed)
    out = tmp_path / "out"
    code = dispatch(["repair", "--program", str(program), "--kernel", "gv1",
                     "--mode", "enumerate", "--constants", "7,9", "--out", str(out)])
    assert code == 1
    summary = json.loads((out / "repair_gv1.json").read_text())
    assert summary["outcome"] == "exhausted"
    assert summary["tried"] == 2


# -- optimize --------------------------------------------------------------------


def test_optimize_rules_preserves_verified_program(tmp_path):
    program = golden_file(tmp_path, "mm1")
    out = tmp_path / "out"
    code = dispatch(["optimize", "--program", str(program), "--kernel", "mm1",
                     "--mode", "rules", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "optimize_mm1.json").read_text())
    assert summary["after"] <= summary["before"]
    code = dispatch(["verify", "--program", str(out / "optimized_mm1.txt"),
                     "--kernel", "mm1", "--n", "3"])
    assert code == 0


def test_optimize_llm_mode_requires_backend(tmp_path, capsys):
    program = golden_file(tmp_path, "mm1")
    code = dispatch(["optimize", "--program", str(program), "--kernel", "mm1",
                     "--mode", "llm"])
    assert code == 2
    assert "requires --backend" in capsys.readouterr().err


# -- schedule --------------------------------------------------------------------


def test_schedule_replay_session_is_deterministic(tmp_path, capsys):
    kernel_file, fixtures = schedule_bundle(tmp_path)
    snapshots = []
    for rerun in ("s1", "s2"):
        out = tmp_path / rerun
        code = dispatch(["schedule", "--program", str(kernel_file), "--backend", "replay",
                         "--fixtures", str(fixtures), "--n", "2", "--out", str(out)])
        assert code == 0
        snapshots.append((out / "schedule_transcript.json").read_bytes()
                         + (out / "scheduled_kernel.txt").read_bytes())
    assert snapshots[0] == snapshots[1]
    scheduled = (tmp_path / "s1" / "scheduled_kernel.txt").read_text()
    assert "for p_outer in seq(0, 4):" in scheduled
    transcript = json.loads((tmp_path / "s1" / "schedule_transcript.json").read_text())
    assert len(transcript) == 2
    assert transcript[0]["result"] == "ok"


def test_schedule_replay_miss_exits_three(tmp_path, capsys):
    kernel_file, fixtures = schedule_bundle(tmp_path)
    code = dispatch(["schedule", "--program", str(kernel_file), "--backend", "replay",
                     "--fixtures", str(fixtures), "--n", "4"])
    assert code == 3
    assert "no replay fixture for prompt" in capsys.readouterr().err


def test_schedule_rejects_malformed_kernel(tmp_path, capsys):
    kernel_file = tmp_path / "bad.k"
    kernel_file.write_text("def broken(:\n    pass\n")
    fixtures = write_json(tmp_path / "fx.json", {})
    code = dispatch(["schedule", "--program", str(kernel_file), "--backend", "replay",
                     "--fixtures", str(fixtures)])
    assert code == 1
    assert "kernel error" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text",
    [
        "def deep(A: f32[4] @ DRAM):\n    A[0] = " + " + ".join(["A[0]"] * 3000) + "\n",
        "def deep(A: f32[4] @ DRAM):\n"
        + "".join("    " * (d + 1) + f"for v{d} in seq(0, 1):\n" for d in range(1000))
        + "    " * 1001 + "A[0] = 1.0\n",
    ],
    ids=["3000-term-sum", "1000-deep-loops"],
)
def test_schedule_rejects_too_deep_kernel(tmp_path, capsys, text):
    kernel_file = tmp_path / "deep.k"
    kernel_file.write_text(text)
    fixtures = write_json(tmp_path / "fx.json", {})
    code = dispatch(["schedule", "--program", str(kernel_file), "--backend", "replay",
                     "--fixtures", str(fixtures)])
    assert code == 1
    assert "kernel error: loops and operators nest" in capsys.readouterr().out


# -- console entry point ---------------------------------------------------------


def test_entry_point_help_via_subprocess():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.argv = ['ta-lift', '--help']; from ta_lift.cli import main; main()"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "ta-lift" in result.stdout


@pytest.mark.parametrize("module", ["ta_lift.cli", "ta_lift"])
def test_module_entry_points_run_the_cli(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", module, "verify", "--kernel", "nope"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 2, result.stderr
