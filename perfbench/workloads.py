"""The four benchmark workloads: inputs from a seed, CLI jobs and known answers.

Each workload builds its input files from the benchmark seed, then lists
jobs.  A job is the argument list a user would type after ``ta-lift``, plus
a check that reads the job's ``--out`` directory and compares it with an
answer fixed when the input was built: the expected verdict of each seeded
completion, the hole values punched out of a golden program, the script of
accepted and refused schedule commands.  A check returns a list of problems
(empty when the job agrees with its known answer) and the job's counts.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

MATVEC = ("gv1", "gv2", "gv3", "gv4")
MATMAT = ("mm1", "mm2", "mm3", "mm4", "mm5", "mm6", "mm7")
ALL_KERNELS = MATVEC + MATMAT
HELD_OUT = 7919  # offset of the case seed used by the checks, never given to a job
HELD_OUT_CASES = 5


@dataclass
class Job:
    name: str
    argv: list[str]
    out: Path
    check: Callable[[int, Path], tuple[list[str], dict]]


@dataclass
class Workload:
    jobs: list[Job]
    min_passes: int


# -- program text helpers --------------------------------------------------------

_CALL = re.compile(r"^(\w+)\((.*)\);$")
_LITERAL = re.compile(r"(?<![\w.])(\d+)(?![\w.])")


@dataclass(frozen=True)
class Literal:
    mnemonic: str
    line: int
    arg: int
    start: int
    end: int
    value: int


def call_args(line: str) -> list[str]:
    match = _CALL.match(line.strip())
    return [part.strip() for part in match.group(2).split(",")] if match else []


def literal_args(text: str) -> list[Literal]:
    """Every decimal literal that appears inside an instruction argument."""
    found = []
    offset = 0
    for index, line in enumerate(text.splitlines(keepends=True)):
        match = _CALL.match(line.rstrip("\n"))
        if match:
            at = offset + match.start(2)
            for arg_index, arg in enumerate(match.group(2).split(",")):
                for lit in _LITERAL.finditer(arg):
                    found.append(Literal(match.group(1), index, arg_index,
                                         at + lit.start(1), at + lit.end(1), int(lit.group(1))))
                at += len(arg) + 1
        offset += len(line)
    return found


def punch(text: str, holes: list[Literal]) -> str:
    for hole in sorted(holes, key=lambda h: h.start, reverse=True):
        text = text[: hole.start] + "<CONST>" + text[hole.end :]
    return text


def naive_program(golden: str) -> str:
    """The golden program with every operand tile's mvin re-issued before each use.

    Each preload is preceded by the mvins of the A tile its compute reads,
    the B tile it latches and, for bias kernels, the D tile.  Reloading the
    same data to the same rows changes no result, so the program verifies.
    """
    lines = golden.splitlines()
    loads = {call_args(line)[1]: line for line in lines if line.startswith("mvin")}
    out = []
    for at, line in enumerate(lines):
        if line.startswith("mvin"):
            continue
        if line.startswith("preload("):
            compute = call_args(lines[at + 1])
            out.append(loads[compute[0]])
            out.append(loads[call_args(line)[0]])
            if compute[1] != "NONE":
                out.append(loads[compute[1]])
        out.append(line)
    return "\n".join(out) + "\n"


def _read_json(path: Path):
    return json.loads(path.read_text())


def _exit_problem(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}, expected 0"]


# -- evaluate ----------------------------------------------------------------------

EVAL_SAMPLES = 5
EVAL_K = (1, 2, 5)
ABLATIONS = (
    # (config entry, kernels excluded because the prompt shows their golden program)
    ({"label": "one_shot"}, ("gv1",)),
    ({"label": "zero_shot_code", "shots": 0, "include_isa": False, "source_style": "code_only"}, ()),
)
PROSE = (
    "I am not able to translate this kernel without the accelerator manual.",
    "The kernel multiplies two matrices; the accelerator program depends on the tile layout.",
    "Sorry, this mapping needs more detail about the scratchpad before I can write it.",
)


def _fenced(code: str) -> str:
    return "Here is the accelerator program.\n\n```c\n" + code + "```\n"


def _perturbed(golden: str, rng: random.Random) -> str:
    """One mvin's width cut by one: a tile column is never loaded, so results differ."""
    sites = [lit for lit in literal_args(golden)
             if lit.mnemonic.startswith("mvin") and lit.arg == 2 and lit.value >= 2]
    site = rng.choice(sites)
    return golden[: site.start] + str(site.value - 1) + golden[site.end :]


def _truncated(golden: str, rng: random.Random) -> str:
    """The program cut just after an argument separator in its second half: a syntax error."""
    lines = golden.splitlines()
    cuts = [i for i in range(len(lines) // 2, len(lines)) if "," in lines[i] and _CALL.match(lines[i])]
    at = rng.choice(cuts)
    line = lines[at]
    return "\n".join(lines[:at] + [line[: line.index(",") + 1]]) + "\n"


def _pass_at_k(n: int, c: int, k: int) -> Fraction:
    return 1 - Fraction(comb(n - c, k), comb(n, k))


def build_evaluate(m, seed: int, work: Path) -> Workload:
    rng = random.Random(f"evaluate:{seed}")
    fixtures: dict[str, list[str]] = {}
    expected: dict[str, list[tuple[bool, str | None]]] = {}
    texts: dict[str, list[str]] = {}
    for name in ALL_KERNELS:
        spec = m.fixtures.kernel(name)
        golden = m.fixtures.emit_golden_program(spec)
        samples = [
            (_fenced(golden), (True, None)),
            (_fenced(naive_program(golden)), (True, None)),
            (_fenced(_perturbed(golden, rng)), (False, "WrongResult")),
            (_fenced(_truncated(golden, rng)), (False, "ParseFailure")),
            (rng.choice(PROSE), (False, "no code")),
        ]
        rng.shuffle(samples)
        texts[name] = [text for text, _ in samples]
        expected[name] = [answer for _, answer in samples]

    jobs = []
    for entry, excluded in ABLATIONS:
        fields = {key: value for key, value in entry.items() if key != "source_style"}
        if "source_style" in entry:
            fields["source_style"] = m.prompts.SourceStyle(entry["source_style"])
        ablation = m.harness.Ablation(**fields)
        for name in ALL_KERNELS:
            prompt = m.prompts.build_translation_prompt(ablation.prompt_spec(m.fixtures.kernel(name)))
            fixtures[prompt.fingerprint] = texts[name]
            config = {
                "kernels": [name],
                "ablations": [entry],
                "n_samples": EVAL_SAMPLES,
                "k_values": list(EVAL_K),
                "testcases": 5,
                "seed": seed,
            }
            tag = f"{entry['label']}_{name}"
            config_path = work / f"experiment_{tag}.json"
            config_path.write_text(json.dumps(config, indent=2) + "\n")
            out = work / "out" / tag
            skipped = name in excluded
            jobs.append(Job(
                name=f"evaluate/{tag}",
                argv=["evaluate", "--config", str(config_path), "--backend", "replay",
                      "--fixtures", str(work / "fixtures.json"), "--out", str(out)],
                out=out,
                check=_evaluate_check(entry["label"], expected[name], skipped),
            ))
    (work / "fixtures.json").write_text(json.dumps(fixtures, indent=2) + "\n")
    return Workload(jobs, min_passes=5)


def _evaluate_check(label: str, expected: list[tuple[bool, str | None]], skipped: bool):
    def check(code: int, out: Path) -> tuple[list[str], dict]:
        problems = _exit_problem(code)
        if problems:
            return problems, {}
        n = 0 if skipped else len(expected)
        c = 0 if skipped else sum(1 for passed, _ in expected if passed)
        header, row = (out / "report.csv").read_text().splitlines()[:2]
        cells = dict(zip(header.split(","), row.split(",")))
        if cells.get("config") != label or (cells.get("n"), cells.get("c")) != (str(n), str(c)):
            problems.append(f"report row {row!r}, expected {label} with n={n} c={c}")
        for k in EVAL_K:
            want = 0.0 if skipped else float(_pass_at_k(n, c, k))
            got = float(cells.get(f"pass@{k}", "nan%").rstrip("%")) / 100.0
            if not abs(got - want) <= 0.00005:
                problems.append(f"pass@{k} = {got}, expected {want}")
        records = sorted((out / "records").iterdir()) if (out / "records").exists() else []
        if len(records) != n:
            problems.append(f"{len(records)} candidate records, expected {n}")
        for path in records:
            doc = _read_json(path)
            passed, failure = expected[doc["index"]]
            if doc["passed"] != passed:
                problems.append(f"sample {doc['index']}: passed={doc['passed']}, expected {passed}")
            elif failure == "no code" and doc["code"] is not None:
                problems.append(f"sample {doc['index']}: prose yielded code")
            elif failure not in (None, "no code") and not str(doc["failure"]).startswith(failure):
                problems.append(f"sample {doc['index']}: failure {doc['failure']!r}, expected {failure}")
        return problems, {"candidates": n, "verified": c}

    return check


# -- repair --------------------------------------------------------------------------

REPAIR_SPREAD = ("gv3", "mm4")
REPAIR_DEEP = ("gv4", "mm3")


def _pick(rng: random.Random, literals: list[Literal], **where) -> Literal:
    matching = [lit for lit in literals
                if all(getattr(lit, key) in values for key, values in where.items())]
    return rng.choice(matching)


def build_repair(m, seed: int, work: Path) -> Workload:
    """Golden programs with one or three <CONST> holes at seeded sites.

    Holes are drawn from fixed (instruction, argument, value) classes and
    only the tile they sit in is seeded, so every seed enumerates about the
    same number of fills.  Single holes take a tile size 4 from an A-tile
    mvin (found at the fourth fill); spread triples take a tile size 4 from
    an mvin, a preload and a compute; deep triples take the scratchpad
    offset 12, the value the fill order reaches last, from an mvin and then
    two tile sizes 4 from later mvins, so the true fill is the 119th.
    """
    rng = random.Random(f"repair:{seed}")
    sets: list[tuple[str, str, list[Literal]]] = []
    goldens = {name: m.fixtures.emit_golden_program(m.fixtures.kernel(name)) for name in ALL_KERNELS}
    for name in ALL_KERNELS:
        lits = literal_args(goldens[name])
        sets.append(("single", name, [_pick(rng, lits, mnemonic={"mvin"}, arg={2, 3}, value={4})]))
    for name in REPAIR_SPREAD:
        lits = literal_args(goldens[name])
        sets.append(("spread", name, [
            _pick(rng, lits, mnemonic={"mvin", "mvin2"}, arg={2, 3}, value={4}),
            _pick(rng, lits, mnemonic={"preload"}, arg={2, 3}, value={4}),
            _pick(rng, lits, mnemonic={"compute_preloaded"}, arg={2, 3}, value={4}),
        ]))
    for name in REPAIR_DEEP:
        lits = literal_args(goldens[name])
        first = _pick(rng, lits, mnemonic={"mvin", "mvin2"}, arg={1}, value={12})
        later = [lit for lit in lits if lit.line > first.line]
        holes = [first] + rng.sample(
            [lit for lit in later if lit.mnemonic.startswith("mvin") and lit.arg in (2, 3) and lit.value == 4], 2)
        sets.append(("deep", name, holes))

    jobs = []
    heldout = {}
    for kind, name, holes in sets:
        if name not in heldout:
            spec = m.fixtures.kernel(name)
            heldout[name] = (spec, m.kernels.generate_testcases(spec, seed + HELD_OUT, HELD_OUT_CASES))
        tag = f"{kind}_{name}"
        program = work / f"holed_{tag}.txt"
        program.write_text(punch(goldens[name], holes))
        out = work / "out" / tag
        punched = [hole.value for hole in sorted(holes, key=lambda h: h.start)]
        jobs.append(Job(
            name=f"repair/{tag}",
            argv=["repair", "--program", str(program), "--kernel", name, "--mode", "enumerate",
                  "--seed", str(seed), "--n", "3", "--out", str(out)],
            out=out,
            check=_repair_check(m, name, heldout[name], punched),
        ))
    return Workload(jobs, min_passes=3)


def _repair_check(m, name, heldout, punched):
    spec, cases = heldout

    def check(code: int, out: Path) -> tuple[list[str], dict]:
        problems = _exit_problem(code)
        if problems:
            return problems, {}
        doc = _read_json(out / f"repair_{name}.json")
        if doc.get("outcome") != "repaired":
            return [f"outcome {doc.get('outcome')}, expected repaired"], {}
        verdict = m.kernels.verify_source((out / f"repaired_{name}.txt").read_text(), spec, cases)
        if not verdict.passed:
            problems.append(f"repaired program fails the held-out cases: {verdict.failure}")
        values = [value for _, value in doc["assignment"]]
        return problems, {"tried": doc["tried"], "exact": int(values == punched)}

    return check


# -- optimize ------------------------------------------------------------------------


def build_optimize(m, seed: int, work: Path) -> Workload:
    jobs = []
    for name in ALL_KERNELS:
        spec = m.fixtures.kernel(name)
        golden = m.fixtures.emit_golden_program(spec)
        golden_cost = m.costs.program_cost(m.program_text.parse_program(golden, spec.buffer_shapes())).total
        cases = m.kernels.generate_testcases(spec, seed + HELD_OUT, HELD_OUT_CASES)
        program = work / f"naive_{name}.txt"
        program.write_text(naive_program(golden))
        out = work / "out" / name
        jobs.append(Job(
            name=f"optimize/{name}",
            argv=["optimize", "--program", str(program), "--kernel", name, "--mode", "rules",
                  "--seed", str(seed), "--out", str(out)],
            out=out,
            check=_optimize_check(m, spec, cases, golden_cost),
        ))
    return Workload(jobs, min_passes=10)


def _optimize_check(m, spec, cases, golden_cost):
    def check(code: int, out: Path) -> tuple[list[str], dict]:
        problems = _exit_problem(code)
        if problems:
            return problems, {}
        doc = _read_json(out / f"optimize_{spec.name}.json")
        text = (out / f"optimized_{spec.name}.txt").read_text()
        verdict = m.kernels.verify_source(text, spec, cases)
        if not verdict.passed:
            problems.append(f"optimized program fails the held-out cases: {verdict.failure}")
            return problems, {}
        cost = m.costs.program_cost(m.program_text.parse_program(text, spec.buffer_shapes())).total
        if cost != doc["after"]:
            problems.append(f"reported cost {doc['after']}, recomputed {cost}")
        if cost > golden_cost:
            problems.append(f"cost {cost} exceeds the golden program's {golden_cost}")
        return problems, {"modeled_cost": cost}

    return check


# -- schedule ------------------------------------------------------------------------

DOITGEN_HEADER = (
    "def doitgen(A: f32[64, 64, 64] @ DRAM, C4: f32[64, 64] @ DRAM,\n"
    "            sum: f32[64] @ DRAM):\n"
)
_INIT = "sum[p] = 0.0"
_MAC = "sum[p] += A[r, q, s] * C4[s, p]"
_COPY = "A[r, q, p] = sum[p]"


def _doitgen(outer=("r", "q"), compute=None, copy=None) -> str:
    """doitgen rendered with its two p loops replaced by the given statement lists.

    Each list holds (depth, text) pairs, depth counted from the q loop's body.
    """
    compute = compute or [(0, "for p in seq(0, 64):"), (1, _INIT), (1, "for s in seq(0, 64):"), (2, _MAC)]
    copy = copy or [(0, "for p in seq(0, 64):"), (1, _COPY)]
    lines = [f"    for {outer[0]} in seq(0, 64):", f"        for {outer[1]} in seq(0, 64):"]
    lines += ["            " + "    " * depth + text for depth, text in compute + copy]
    return DOITGEN_HEADER + "\n".join(lines) + "\n"


def _apply(optimization: str, **arguments) -> str:
    payload = json.dumps({"optimization": optimization, "arguments": arguments})
    return f"Next I will try a {optimization}.\n\nAPPLY: {payload}"


def _schedule_scripts(rng: random.Random) -> list[tuple[str, list[tuple[str, bool]], str]]:
    """(name, [(reply, accepted)], expected final kernel) for each session."""
    size = rng.choice((2, 4, 8, 16, 32))
    outer, inner = rng.choice((("p_outer", "p_inner"), ("po", "pi"), ("pt", "pq")))
    index = f"{inner} + {size} * {outer}"
    tiled = _doitgen(copy=[(0, f"for {outer} in seq(0, {64 // size}):"),
                           (1, f"for {inner} in seq(0, {size}):"),
                           (2, f"A[r, q, {index}] = sum[{index}]")])
    size2 = rng.choice((2, 4, 8, 16, 32))
    outer2, inner2 = rng.choice((("p_outer", "p_inner"), ("po", "pi"), ("pt", "pq")))
    index2 = f"{inner2} + {size2} * {outer2}"
    tiled_compute = _doitgen(compute=[(0, f"for {outer2} in seq(0, {64 // size2}):"),
                                      (1, f"for {inner2} in seq(0, {size2}):"),
                                      (2, f"sum[{index2}] = 0.0"), (2, "for s in seq(0, 64):"),
                                      (3, f"sum[{index2}] += A[r, q, s] * C4[s, {index2}]")])
    unrolled = _doitgen(compute=[(0, "for p in seq(0, 64):"), (1, _INIT)]
                        + [(1, f"sum[p] += A[r, q, {s}] * C4[{s}, p]") for s in range(64)])
    fissioned = _doitgen(compute=[(0, "for p in seq(0, 64):"), (1, _INIT),
                                  (0, "for p in seq(0, 64):"), (1, "for s in seq(0, 64):"), (2, _MAC)])
    unparsable = rng.choice((
        'APPLY: {"optimization": "fission", "arguments": {"line": "sum[p] = 0.0"',
        'APPLY: {"optimization": "vectorize", "arguments": {"line": "for s in seq(0, 64):"}}',
        "The kernel already looks fine to me, so I would stop here.",
    ))
    fission = rng.choice((
        _apply("fission", line=_INIT, location="after"),
        _apply("fission", line="for s in seq(0, 64):", location="before"),
    ))
    return [
        ("tile", [
            (_apply("tile", line="for p in seq(0, 64): #1", tile_size=rng.choice((3, 5, 6, 7, 9, 10, 12, 24)),
                    outer_name=outer, inner_name=inner), False),
            (_apply("tile", line="for p in seq(0, 64): #1", tile_size=size,
                    outer_name=outer, inner_name=inner), True),
        ], tiled),
        ("reorder", [
            (_apply("reorder", line=rng.choice(("for p in seq(0, 64): #0", "for p in seq(0, 64): #1"))), False),
            (_apply("reorder", line="for r in seq(0, 64):"), True),
        ], _doitgen(outer=("q", "r"))),
        ("fission", [(unparsable, False), (fission, True)], fissioned),
        ("unroll", [
            (_apply("unroll", line=rng.choice((_INIT, "for t in seq(0, 64):"))), False),
            (_apply("unroll", line="for s in seq(0, 64):"), True),
        ], unrolled),
        ("fuse", [
            (_apply("fuse", line1="for p in seq(0, 64): #0", line2="for p in seq(0, 64): #1"), False),
            (_apply("tile", line="for p in seq(0, 64): #0", tile_size=size2,
                    outer_name=outer2, inner_name=inner2), True),
        ], tiled_compute),
    ]


def build_schedule(m, seed: int, work: Path) -> Workload:
    """Replay sessions on doitgen; each refuses one command, then accepts one rewrite.

    The replay fixtures are keyed by the fingerprint of each turn's prompt,
    which embeds the kernel and the feedback of the turns before it, so they
    are built by replaying the script through the schedule module's rewrite
    and prompt functions, as a recording would be.
    """
    rng = random.Random(f"schedule:{seed}")
    s = m.schedule
    kernel_file = work / "doitgen.k"
    kernel_file.write_text(_doitgen())
    jobs = []
    for name, turns, final in _schedule_scripts(rng):
        nest = m.loopir.parse_kernel(_doitgen())
        prompt = s.build_schedule_prompt(nest)
        fixtures = {}
        for reply, _ in turns:
            fixtures[prompt.fingerprint] = [reply]
            try:
                nest = s.apply_schedule_command(nest, s.parse_apply_command(reply))
            except ValueError as err:
                feedback = s.feedback_error(str(err))
            else:
                feedback = s.feedback_applied(nest, m.loopir.locality_cost(nest))
            prompt = s.extend_prompt(prompt, reply, feedback)
        fixture_file = work / f"schedule_{name}.json"
        fixture_file.write_text(json.dumps(fixtures, indent=2) + "\n")
        out = work / "out" / name
        jobs.append(Job(
            name=f"schedule/{name}",
            argv=["schedule", "--program", str(kernel_file), "--backend", "replay",
                  "--fixtures", str(fixture_file), "--n", str(len(turns)), "--seed", str(seed),
                  "--out", str(out)],
            out=out,
            check=_schedule_check([accepted for _, accepted in turns], final),
        ))
    return Workload(jobs, min_passes=7)


def _schedule_check(accepted: list[bool], final: str):
    def check(code: int, out: Path) -> tuple[list[str], dict]:
        problems = _exit_problem(code)
        if problems:
            return problems, {}
        results = [record["result"] == "ok" for record in _read_json(out / "schedule_transcript.json")]
        if results != accepted:
            problems.append(f"accept/refuse sequence {results}, expected {accepted}")
        if (out / "scheduled_kernel.txt").read_text() != final:
            problems.append("final kernel text differs from the script's")
        return problems, {"accepted": sum(results), "refused": len(results) - sum(results)}

    return check


BUILDERS = {
    "evaluate": build_evaluate,
    "repair": build_repair,
    "optimize": build_optimize,
    "schedule": build_schedule,
}
