"""The ta-lift command line: one binary, seven subcommands.

Every subcommand runs against the replay backend for hermetic experiments,
prints a human-readable summary to stdout, and drops structured results
with stable filenames into the --out directory when one is given.  Exit
codes: 0 success, 1 verification or repair failure, 2 usage error, 3
backend error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .costs import render_feedback
from .fixtures import KERNELS, kernel
from .gateway import (
    Backend,
    BackendError,
    BackendTimeout,
    CacheBackend,
    GenerationParams,
    HttpBackend,
    ReplayBackend,
    ReplayMiss,
)
from .harness import (
    Ablation,
    ConfigError,
    ExperimentConfig,
    extract_code,
    render_report,
    run_experiment,
)
from .isa import ValidationError, validate_program
from .kernels import KernelSpec, Verdict, generate_testcases, machine_for_cases, verify_program, verify_source
from .loopir import BoundsError, KernelSyntaxError, locality_cost, parse_kernel, render_kernel
from .machine import ExecError, execute, read_output
from .optimizer import optimize_program
from .program_text import ProgramSyntaxError, parse_program, render_program
from .prompts import ExamplesPosition, SourceStyle, build_translation_prompt
from .repair import Aborted, DEFAULT_CONSTANT_SET, Exhausted, Repaired, repair
from .schedule import run_llm_session

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BACKEND = 3


class UsageError(ValueError):
    """Bad invocation detected after argparse: wrong paths, names, combinations."""


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got '{text}'") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ta-lift",
        description="Translate, verify, repair, optimize, and schedule accelerator kernels.",
    )
    commands = parser.add_subparsers(dest="subcommand", required=True)

    def backend_flags(sub: argparse.ArgumentParser, default: str | None = "replay") -> None:
        sub.add_argument("--backend", choices=("http", "replay"), default=default,
                         help="completion backend (replay needs --fixtures or --cache)")
        sub.add_argument("--fixtures", help="JSON file mapping prompt fingerprints to sample texts")
        sub.add_argument("--cache", help="completion cache directory")

    simulate = commands.add_parser("simulate", help="run a program on random testcases")
    simulate.add_argument("--program", required=True, help="program text file")
    simulate.add_argument("--kernel", required=True, help="kernel name")
    simulate.add_argument("--seed", type=_at_least(0), default=0)
    simulate.add_argument("--n", type=_at_least(1), default=3, help="number of testcases")
    simulate.add_argument("--out", help="output directory")

    verify = commands.add_parser("verify", help="check a program against the reference semantics")
    verify.add_argument("--program", required=True, help="program text file")
    verify.add_argument("--kernel", required=True, help="kernel name")
    verify.add_argument("--seed", type=_at_least(0), default=0)
    verify.add_argument("--n", type=_at_least(1), default=20, help="number of testcases")
    verify.add_argument("--out", help="output directory")

    translate = commands.add_parser("translate", help="sample translations and verify them")
    translate.add_argument("--kernel", required=True, help="kernel name")
    translate.add_argument("--seed", type=_at_least(0), default=0)
    translate.add_argument("--n", type=_at_least(1), default=1, help="samples to request")
    translate.add_argument("--out", help="output directory")
    backend_flags(translate)

    evaluate = commands.add_parser("evaluate", help="run a pass@k experiment from a config file")
    evaluate.add_argument("--config", required=True, help="experiment config JSON")
    evaluate.add_argument("--seed", type=_at_least(0), default=None, help="override the config seed")
    evaluate.add_argument("--n", type=int, default=None, help="override samples per prompt")
    evaluate.add_argument("--k", type=_csv_ints, default=None, help="override k values, comma-separated")
    evaluate.add_argument("--out", help="output directory")
    backend_flags(evaluate)

    repair_cmd = commands.add_parser("repair", help="fill constant holes until verification passes")
    repair_cmd.add_argument("--program", required=True, help="candidate program file, may contain <CONST>")
    repair_cmd.add_argument("--kernel", required=True, help="kernel name")
    repair_cmd.add_argument("--constants", type=_csv_ints, default=DEFAULT_CONSTANT_SET,
                            help="comma-separated fill constants")
    repair_cmd.add_argument("--mode", choices=("llm", "enumerate", "llm_then_enumerate"),
                            default="enumerate")
    repair_cmd.add_argument("--seed", type=_at_least(0), default=0)
    repair_cmd.add_argument("--n", type=_at_least(1), default=5, help="number of testcases")
    repair_cmd.add_argument("--out", help="output directory")
    backend_flags(repair_cmd, default=None)

    optimize = commands.add_parser("optimize", help="reduce modeled cost, preserving behavior")
    optimize.add_argument("--program", required=True, help="program text file")
    optimize.add_argument("--kernel", required=True, help="kernel name")
    optimize.add_argument("--mode", choices=("rules", "llm", "llm_then_rules"), default="rules")
    optimize.add_argument("--seed", type=_at_least(0), default=0)
    optimize.add_argument("--n", type=_at_least(1), default=5, help="number of testcases")
    optimize.add_argument("--out", help="output directory")
    backend_flags(optimize, default=None)

    schedule = commands.add_parser("schedule", help="drive an interactive loop-scheduling session")
    schedule.add_argument("--program", required=True, help="loop-nest kernel file")
    schedule.add_argument("--seed", type=_at_least(0), default=0)
    schedule.add_argument("--n", type=_at_least(1), default=4, help="maximum conversation steps")
    schedule.add_argument("--out", help="output directory")
    backend_flags(schedule)

    return parser


# -- shared plumbing -------------------------------------------------------------


def _require_kernel(name: str) -> KernelSpec:
    if name not in KERNELS:
        known = ", ".join(sorted(KERNELS))
        raise UsageError(f"unknown kernel '{name}' (known: {known})")
    return kernel(name)


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"no such file: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise UsageError(f"{path} is not UTF-8 text: {err}") from None


def _make_backend(ns: argparse.Namespace) -> Backend:
    name = getattr(ns, "backend", None)
    if name is None:
        raise UsageError("this mode needs --backend (http or replay)")
    fixtures = getattr(ns, "fixtures", None)
    cache = getattr(ns, "cache", None)
    if name == "replay":
        if fixtures is None and cache is None:
            raise UsageError("--backend replay requires --fixtures (or --cache) with recorded samples")
        mapping = None
        if fixtures is not None:
            try:
                mapping = json.loads(_read_text(fixtures))
            except json.JSONDecodeError as err:
                raise UsageError(f"fixtures file is not valid JSON: {err}") from None
            if not isinstance(mapping, dict) or not all(
                isinstance(k, str) and isinstance(v, list) and all(isinstance(s, str) for s in v)
                for k, v in mapping.items()
            ):
                raise UsageError("fixtures file must map fingerprints to lists of sample texts")
        return ReplayBackend(mapping, directory=cache)
    backend: Backend = HttpBackend()
    if cache is not None:
        backend = CacheBackend(backend, cache)
    return backend


def _out_dir(ns: argparse.Namespace) -> Path | None:
    out = getattr(ns, "out", None)
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")


def _failure_text(failure: object) -> str | None:
    if failure is None:
        return None
    name = type(failure).__name__
    message = getattr(failure, "message", None)
    if message is not None:
        return f"{name}: {message}"
    position = getattr(failure, "position", None)
    if position is not None:
        return f"{name}: at {position} got {failure.got:g}, want {failure.want:g}"
    return f"{name}: {failure}"


def _parse_or_fail(text: str, spec: KernelSpec):
    try:
        return parse_program(text, spec.buffer_shapes())
    except ProgramSyntaxError as err:
        print(f"parse error: {err}")
        return None


# -- subcommands -----------------------------------------------------------------


def cmd_simulate(ns: argparse.Namespace) -> int:
    spec = _require_kernel(ns.kernel)
    program = _parse_or_fail(_read_text(ns.program), spec)
    if program is None:
        return EXIT_FAIL
    try:
        # Validate before the cases are built; execution errors depend only
        # on the program, so the first case hits them.
        validate_program(program)
        machine = machine_for_cases(spec, generate_testcases(spec, ns.seed, ns.n))
        execute(machine, program)
    except (ValidationError, ExecError) as err:
        print(f"case 0: execution failed: {err}")
        return EXIT_FAIL
    results = read_output(machine, spec.c)
    outputs = []
    for index, result in enumerate(results):
        outputs.append({"index": index, "output": result.tolist()})
        print(f"case {index}: {spec.c} shape {result.shape[0]}x{result.shape[1]} "
              f"checksum {float(result.sum()):.6g}")
    out = _out_dir(ns)
    if out is not None:
        _write_json(out / f"simulate_{spec.name}.json",
                    {"kernel": spec.name, "seed": ns.seed, "cases": outputs})
    return EXIT_OK


def cmd_verify(ns: argparse.Namespace) -> int:
    spec = _require_kernel(ns.kernel)
    program = _parse_or_fail(_read_text(ns.program), spec)
    if program is None:
        return EXIT_FAIL
    cases = generate_testcases(spec, ns.seed, ns.n)
    verdict = verify_program(program, spec, cases)
    for outcome in verdict.cases:
        status = "pass" if outcome.passed else f"fail ({_failure_text(outcome.failure)})"
        print(f"case {outcome.index}: {status}")
    print(f"{'PASS' if verdict.passed else 'FAIL'} ({len(verdict.cases)} of {len(cases)} cases run)")
    out = _out_dir(ns)
    if out is not None:
        _write_json(out / f"verify_{spec.name}.json", {
            "kernel": spec.name,
            "seed": ns.seed,
            "passed": verdict.passed,
            "cases": [
                {"index": o.index, "passed": o.passed, "failure": _failure_text(o.failure)}
                for o in verdict.cases
            ],
        })
    return EXIT_OK if verdict.passed else EXIT_FAIL


def cmd_translate(ns: argparse.Namespace) -> int:
    spec = _require_kernel(ns.kernel)
    backend = _make_backend(ns)
    prompt = build_translation_prompt(Ablation(label="default").prompt_spec(spec))
    completions = backend.complete(prompt, GenerationParams(n_samples=ns.n))
    cases = generate_testcases(spec, ns.seed, 5)

    results = []
    for completion in completions:
        code = extract_code(completion.text, spec.buffer_shapes())
        results.append((code, Verdict(passed=False) if code is None else verify_source(code, spec, cases)))
    passing = [code for code, verdict in results if verdict.passed]
    for index, (code, verdict) in enumerate(results):
        if verdict.passed:
            status = "pass"
        elif code is None:
            status = "fail (no code block)"
        else:
            status = f"fail ({_failure_text(verdict.failure)})"
        print(f"sample {index}: {status}")
    print(f"{len(passing)} of {len(results)} samples verified")
    out = _out_dir(ns)
    if out is not None:
        if passing:
            (out / f"translated_{spec.name}.txt").write_text(passing[0])
        _write_json(out / f"translate_{spec.name}.json", {
            "kernel": spec.name,
            "fingerprint": prompt.fingerprint,
            "n": len(results),
            "c": len(passing),
        })
    return EXIT_OK if passing else EXIT_FAIL


def _experiment_from_config(data: dict, ns: argparse.Namespace) -> ExperimentConfig:
    try:
        ablations = []
        for entry in data["ablations"]:
            fields: dict = {"label": entry["label"]}
            for name in ("shots", "nl_annotated", "include_isa"):
                if name in entry:
                    fields[name] = entry[name]
            if "source_style" in entry:
                fields["source_style"] = SourceStyle(entry["source_style"])
            if "examples_position" in entry:
                fields["examples_position"] = ExamplesPosition(entry["examples_position"])
            if "examples" in entry:
                fields["examples"] = tuple(entry["examples"])
            ablations.append(Ablation(**fields))
        params = GenerationParams(
            model=data.get("model", "gpt-4-turbo"),
            temperature=data.get("temperature", 0.8),
            n_samples=ns.n if ns.n is not None else data.get("n_samples", 50),
            max_tokens=data.get("max_tokens", 2048),
        )
        if not isinstance(data["kernels"], list):
            raise TypeError("kernels must be a list of kernel names")
        return ExperimentConfig(
            kernels=tuple(data["kernels"]),
            ablations=tuple(ablations),
            params=params,
            k_values=tuple(ns.k) if ns.k is not None else tuple(data.get("k_values", (1, 10, 50))),
            seed=ns.seed if ns.seed is not None else data.get("seed", 0),
            testcases_per_kernel=data.get("testcases", 5),
            aggregate=data.get("aggregate", "micro"),
            date=data.get("date", ""),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise UsageError(f"bad experiment config: {err}") from None


def cmd_evaluate(ns: argparse.Namespace) -> int:
    try:
        data = json.loads(_read_text(ns.config))
    except json.JSONDecodeError as err:
        raise UsageError(f"config file is not valid JSON: {err}") from None
    config = _experiment_from_config(data, ns)
    backend = _make_backend(ns)
    out = _out_dir(ns)
    try:
        report = run_experiment(config, backend, records_dir=None if out is None else out / "records")
    except ConfigError as err:
        raise UsageError(str(err)) from None
    table = render_report(report, format="table")
    print(table, end="")
    if out is not None:
        (out / "report.txt").write_text(table)
        (out / "report.csv").write_text(render_report(report, format="csv"))
    return EXIT_OK


def cmd_repair(ns: argparse.Namespace) -> int:
    spec = _require_kernel(ns.kernel)
    candidate = _read_text(ns.program)
    backend = None
    if ns.backend is not None:
        backend = _make_backend(ns)
    if ns.mode == "llm" and backend is None:
        raise UsageError("--mode llm requires --backend")
    cases = generate_testcases(spec, ns.seed, ns.n)
    result = repair(candidate, spec, cases, constants=tuple(ns.constants),
                    mode=ns.mode, backend=backend)
    outcome = result.outcome
    out = _out_dir(ns)
    payload: dict = {"kernel": spec.name, "tried": result.stats.candidates_tried}
    if isinstance(outcome, Repaired):
        print(f"repaired after {result.stats.candidates_tried} candidates")
        for hole, value in outcome.assignment:
            print(f"  {hole} = {value}")
        payload.update({"outcome": "repaired",
                        "assignment": [[hole, value] for hole, value in outcome.assignment]})
        if out is not None:
            (out / f"repaired_{spec.name}.txt").write_text(outcome.program)
            _write_json(out / f"repair_{spec.name}.json", payload)
        return EXIT_OK
    if isinstance(outcome, Exhausted):
        print(f"no fill verified after {outcome.tried} candidates")
        payload["outcome"] = "exhausted"
    else:
        print(f"repair aborted: {outcome.reason}")
        payload.update({"outcome": "aborted", "reason": outcome.reason})
    if out is not None:
        _write_json(out / f"repair_{spec.name}.json", payload)
    return EXIT_FAIL


def cmd_optimize(ns: argparse.Namespace) -> int:
    spec = _require_kernel(ns.kernel)
    program = _parse_or_fail(_read_text(ns.program), spec)
    if program is None:
        return EXIT_FAIL
    backend = None
    if ns.mode in ("llm", "llm_then_rules"):
        if ns.backend is None:
            raise UsageError(f"--mode {ns.mode} requires --backend")
        backend = _make_backend(ns)
    cases = generate_testcases(spec, ns.seed, ns.n)
    try:
        result = optimize_program(program, spec, cases, mode=ns.mode, backend=backend)
    except ValueError as err:
        print(f"optimize failed: {err}")
        return EXIT_FAIL
    print(f"cost {result.before.total:g} -> {result.after.total:g} "
          f"(plan: {result.plan.provenance})")
    print(render_feedback(result.before, result.after).rstrip("\n"))
    out = _out_dir(ns)
    if out is not None:
        (out / f"optimized_{spec.name}.txt").write_text(render_program(result.program))
        identity = tuple(range(len(result.plan.permutation)))
        _write_json(out / f"optimize_{spec.name}.json", {
            "kernel": spec.name,
            "mode": ns.mode,
            "before": result.before.total,
            "after": result.after.total,
            "blocks": len(result.plan.permutation),
            "reordered": result.plan.permutation != identity,
            "provenance": result.plan.provenance,
        })
    return EXIT_OK


def cmd_schedule(ns: argparse.Namespace) -> int:
    text = _read_text(ns.program)
    try:
        nest = parse_kernel(text)
    except (KernelSyntaxError, BoundsError) as err:
        print(f"kernel error: {err}")
        return EXIT_FAIL
    backend = _make_backend(ns)
    session = run_llm_session(nest, backend, max_steps=ns.n, seed=ns.seed)
    for step, record in enumerate(session.records):
        name = record.command["optimization"] if record.command else "(unparsable)"
        status = "ok" if record.result == "ok" else f"error: {record.result.splitlines()[0]}"
        print(f"step {step}: {name} {status} (cost {record.cost:g})")
    print(f"final locality cost {locality_cost(session.full):g}")
    out = _out_dir(ns)
    if out is not None:
        (out / "schedule_transcript.json").write_text(session.transcript_json())
        (out / "scheduled_kernel.txt").write_text(render_kernel(session.full))
    return EXIT_OK


_HANDLERS = {
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "translate": cmd_translate,
    "evaluate": cmd_evaluate,
    "repair": cmd_repair,
    "optimize": cmd_optimize,
    "schedule": cmd_schedule,
}


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return _HANDLERS[ns.subcommand](ns)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ReplayMiss as err:
        print(f"backend error: {err}", file=sys.stderr)
        return EXIT_BACKEND
    except (BackendError, BackendTimeout) as err:
        print(f"backend error: {err}", file=sys.stderr)
        return EXIT_BACKEND


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
