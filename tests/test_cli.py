"""Exit codes, output files, and replay determinism of the ta-lift command."""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import ta_lift.cli as cli
from conftest import eval_bundle, fenced, golden_program, schedule_bundle, translation_prompt, write_json
from ta_lift.cli import dispatch
from ta_lift.gateway import GenerationParams, ReplayBackend, store_completion
from ta_lift.repair import DEFAULT_CONSTANT_SET


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


def _not_utf8(directory: Path) -> Path:
    path = directory / "not_utf8.txt"
    path.write_bytes(b"fence();\n\xff\xfe\n")
    return path


def _non_string_samples(fixtures: Path) -> Path:
    """The fixtures file rewritten so every prompt's samples are an integer and a null."""
    return write_json(fixtures, {fingerprint: [1, None] for fingerprint in json.loads(fixtures.read_text())})


_MALFORMED_INPUTS = {
    "simulate-program": lambda d: ["simulate", "--program", _not_utf8(d), "--kernel", "gv1"],
    "verify-program": lambda d: ["verify", "--program", _not_utf8(d), "--kernel", "gv1"],
    "repair-program": lambda d: ["repair", "--program", _not_utf8(d), "--kernel", "gv1"],
    "optimize-program": lambda d: ["optimize", "--program", _not_utf8(d), "--kernel", "gv1"],
    "schedule-program": lambda d: ["schedule", "--program", _not_utf8(d), "--backend", "replay",
                                   "--fixtures", schedule_bundle(d)[1]],
    "evaluate-config": lambda d: ["evaluate", "--config", _not_utf8(d), "--backend", "replay",
                                  "--fixtures", eval_bundle(d)[1]],
    "translate-fixtures": lambda d: ["translate", "--kernel", "gv1", "--backend", "replay",
                                     "--fixtures", _not_utf8(d)],
    "translate-samples": lambda d: ["translate", "--kernel", "gv1", "--backend", "replay", "--fixtures",
                                    write_json(d / "fx.json", {translation_prompt("gv1").fingerprint: [1, None]})],
    "evaluate-samples": lambda d: ["evaluate", "--config", eval_bundle(d)[0], "--backend", "replay",
                                   "--fixtures", _non_string_samples(eval_bundle(d)[1])],
    "schedule-samples": lambda d: ["schedule", "--program", schedule_bundle(d)[0], "--backend", "replay",
                                   "--fixtures", _non_string_samples(schedule_bundle(d)[1])],
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_INPUTS))
def test_malformed_input_file_is_a_usage_error(tmp_path, capsys, case):
    # A file that is not UTF-8, or replay samples that are not strings, must not end in a traceback.
    argv = [str(arg) for arg in _MALFORMED_INPUTS[case](tmp_path)]
    assert dispatch(argv) == 2
    assert "usage error" in capsys.readouterr().err


_MALFORMED_RECORDS = {
    "non-string": b'{"completions": [1]}',
    "not-json": b"{broken",
    "list": b"[]",
    "no-completions": b"{}",
    "empty-completions": b'{"completions": []}',
    "string-completions": b'{"completions": "text"}',
    "not-utf8": b"\xff\xfe",
    "deeply-nested": b"[" * 100000,
    "directory": None,  # a directory where the record file should be
}


@pytest.mark.parametrize("record", list(_MALFORMED_RECORDS.values()), ids=list(_MALFORMED_RECORDS))
def test_malformed_cache_record_is_a_backend_error(tmp_path, capsys, record):
    params = GenerationParams(n_samples=1)
    path = store_completion(tmp_path, translation_prompt("gv1"), params, 0, fenced(golden_program("gv1")))
    if record is None:
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(record)
    assert dispatch(["translate", "--kernel", "gv1", "--backend", "replay", "--cache", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("backend error: ") and str(path) in err


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("base", ["http://127.0.0.1:{port}/v1", "127.0.0.1:{port}/v1"],
                         ids=["closed-port", "no-scheme"])
def test_unreachable_http_endpoint_is_a_backend_error(monkeypatch, capsys, base):
    monkeypatch.setenv("TA_LIFT_API_BASE", base.format(port=_closed_port()))
    assert dispatch(["translate", "--kernel", "mm1", "--backend", "http"]) == 3
    assert capsys.readouterr().err.startswith("backend error: ")


def test_malformed_http_reply_is_a_backend_error(monkeypatch, capsys, loopback_server):
    loopback_server.replies["/v1/chat/completions"] = (200, b'{"choices": [{"message": null}]}', 0)
    monkeypatch.setenv("TA_LIFT_API_BASE", f"http://127.0.0.1:{loopback_server.server_port}/v1")
    assert dispatch(["translate", "--kernel", "mm1", "--backend", "http", "--n", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("backend error: ") and "'message'" in err


def test_consecutive_dispatches_see_their_own_defaults(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen = []
    for name in ("verify", "repair", "schedule"):
        monkeypatch.setitem(cli._HANDLERS, name, lambda ns: seen.append(ns) or 0)
    assert dispatch(["verify", "--program", "p", "--kernel", "gv1", "--seed", "3", "--n", "7"]) == 0
    assert dispatch(["repair", "--program", "p", "--kernel", "gv1"]) == 0
    assert dispatch(["verify", "--program", "p", "--kernel", "gv1"]) == 0
    assert dispatch(["schedule", "--program", "p"]) == 0
    assert [(ns.subcommand, ns.seed, ns.n) for ns in seen] == [
        ("verify", 3, 7), ("repair", 0, 5), ("verify", 0, 20), ("schedule", 0, 4)]
    assert (seen[1].mode, seen[1].backend, seen[1].constants) == ("enumerate", None, DEFAULT_CONSTANT_SET)
    assert seen[3].backend == "replay"
    assert not hasattr(seen[2], "mode")


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


@pytest.mark.parametrize("value", ["0", "-1"])
def test_fewer_than_one_schedule_step_is_a_usage_error(tmp_path, capsys, value):
    # With no steps the session would make no backend call and still exit 0.
    kernel_file, fixtures = schedule_bundle(tmp_path)
    out = tmp_path / "out"
    assert dispatch(["schedule", "--program", str(kernel_file), "--backend", "replay",
                     "--fixtures", str(fixtures), "--n", value, "--out", str(out)]) == 2
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


def test_simulate_refuses_an_invalid_program_before_building_cases(tmp_path, capsys, monkeypatch):
    program = tmp_path / "mm1.txt"
    calls = []
    for name in ("generate_testcases", "machine_for_cases"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    refused = [
        # Invalid: validation refuses it.
        (("mvin(Ad, Ad_sp, 4, 4);", "mvin(Ad, Ad_sp, 4, 5);"),
         "instruction 4: rows_exceed_dim: mvin rows 5 must be in 1..4"),
        # Valid, but its first mvout has no store stride: the execution check pass refuses it.
        (("config_st(48);\n", ""), "instruction 39: unsupported: store stride used before being configured"),
    ]
    for (old, new), message in refused:
        program.write_text(golden_program("mm1").replace(old, new, 1))
        assert dispatch(["simulate", "--program", str(program), "--kernel", "mm1", "--n", "3"]) == 1
        assert capsys.readouterr().out == f"case 0: execution failed: {message}\n"
    assert calls == []


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


def _child_env() -> dict[str, str]:
    """The environment for a child interpreter, with this checkout's `src` on its PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_entry_point_help_via_subprocess():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.argv = ['ta-lift', '--help']; from ta_lift.cli import main; main()"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert result.returncode == 0
    assert "ta-lift" in result.stdout


@pytest.mark.parametrize("module", ["ta_lift.cli", "ta_lift"])
def test_module_entry_points_run_the_cli(module):
    result = subprocess.run(
        [sys.executable, "-m", module, "verify", "--kernel", "nope"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert result.returncode == 2, result.stderr
