"""ta-lift benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Every job goes through ``ta_lift.cli.dispatch`` with the arguments a user
would type, one job at a time from one process.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics from a run
that alternates untraced and traced passes.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
line before it, and ``.perfbench/result-<workload>-s<seed>-t<trace>.json``,
hold the details: the machine, the tail percentile and its sample count,
the error fraction and any problems found.  Spans of a traced run are
written to ``.perfbench/spans-<workload>-s<seed>.jsonl``.  See README.md in
this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT = ROOT / ".perfbench"
WORKLOADS = ("evaluate", "repair", "optimize", "schedule")
SETUP_SAMPLES = 5  # set-up is timed in this many fresh processes; the median is reported
DEADLINE_S = 170.0  # a run ends within three minutes, even if a worker hangs
# Job latencies are scaled to the host speed at which worker.probe() takes
# this long, about its usual time on a 2-CPU Intel Xeon host under Python
# 3.11 and numpy 2.4.
# Unscaled figures are kept in the details.
REFERENCE_PROBE_S = 0.002

# Compiled bytecode goes under .perfbench, so the benchmark leaves the source tree as it was.
sys.pycache_prefix = str(OUTPUT / "pycache")
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Metrics counted rather than timed; they must repeat exactly for one seed.
EXACT = ("repair.candidates_tried", "optimizer.modeled_cost", "machine.instr_executed",
         "program_text.parse_calls", "loopir.interpret_calls")


def machine_info(seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, or 'unknown' when it has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- running workers -------------------------------------------------------------


# Workers import ta_lift from cached bytecode, as an installed copy does, kept under .perfbench.
WORKER_ENV = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
WORKER_ENV["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix


def run_worker(workload: str, seed: int, seconds: float, trace: int, mode: str,
               deadline: float, tag: str, min_passes: int | None = None) -> dict:
    work = OUTPUT / f"work-{workload}-s{seed}-{os.getpid()}-{tag}"
    result_file = OUTPUT / f"worker-{workload}-s{seed}-{os.getpid()}-{tag}.json"
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--mode", mode, "--work", str(work), "--result", str(result_file)]
    if min_passes is not None:
        command += ["--min-passes", str(min_passes)]
    started = time.monotonic()
    command += ["--started", repr(started)]
    try:
        subprocess.run(command, cwd=ROOT, stdout=sys.stderr, check=True, env=WORKER_ENV,
                       timeout=max(1.0, deadline - started))
        return json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        result_file.unlink(missing_ok=True)


# -- metrics ---------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    position = p / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(jobs: int, min_passes: int) -> float:
    """The tail percentile: high, with ten samples beyond it, and in the middle of a job.

    Every job runs once per pass, so the sorted latencies of a run fall into
    bands of one job each (jobs differ in cost far more than runs of one job
    do).  The percentile is the middle of the highest band that still leaves
    ten samples beyond it in a run of `min_passes` passes.  Placing it
    mid-band keeps it off the step between two jobs, and fixing it by the
    minimum pass count keeps it the same in every run of a workload.
    """
    beyond = math.ceil(10.0 / min_passes - 0.5) + 0.5  # bands above the percentile
    return 100.0 * max(0.5, 1.0 - beyond / jobs)


def scaled(run: dict, traced: bool) -> list[tuple[int, float, float]]:
    """(job, latency, latency at the reference speed) of each untraced or traced job run."""
    return [(job, latency, latency * REFERENCE_PROBE_S / probe)
            for _, job, latency, was_traced, _, probe in run["runs"] if was_traced == traced]


def pass_wall(samples: list[float], jobs: list[int]) -> float:
    """One pass over the jobs: the sum of each job's median latency."""
    by_job = defaultdict(list)
    for job, value in zip(jobs, samples):
        by_job[job].append(value)
    return sum(statistics.median(v) for v in by_job.values())


def end_to_end(run: dict, setup_samples: list[tuple[float, float]]) -> tuple[dict, dict]:
    samples = scaled(run, traced=False)
    jobs = [job for job, _, _ in samples]
    p = tail_percentile(len(run["jobs"]), run["min_passes"])
    stats = {}
    for kind, column in (("scaled", 2), ("raw", 1)):
        values = [sample[column] for sample in samples]
        stats[kind] = {
            "wall_s": pass_wall(values, jobs),
            "job_p50_ms": statistics.median(values) * 1000.0,
            "job_tail_ms": percentile(values, p) * 1000.0,
        }
    metrics = dict(stats["scaled"])
    metrics["setup_s"] = statistics.median(scaled_setup for _, scaled_setup in setup_samples)
    metrics["peak_rss_mb"] = run["peak_rss_mb"]
    medians = defaultdict(list)
    for job, latency, _ in samples:
        medians[run["jobs"][job]].append(latency * 1000.0)
    details = {"tail_percentile": p, "job_samples": len(samples), "jobs_per_pass": len(run["jobs"]),
               "passes": run["passes"], "setup_samples_s_unscaled": [raw for raw, _ in setup_samples],
               "probe_median_s": statistics.median(r[5] for r in run["runs"]),
               "unscaled": stats["raw"],
               "job_median_ms_unscaled": {name: statistics.median(v) for name, v in medians.items()}}
    return metrics, details


def answer_metrics(run: dict) -> dict:
    answers = list(run["answers"].values())
    tried = sum(a.get("tried", 0) for a in answers)
    repaired = sum(1 for a in answers if "tried" in a)
    return {
        "repair.candidates_tried": tried,
        "repair.hit_ratio": repaired / tried if tried else 0.0,
        "repair.exact_fill_frac": sum(a.get("exact", 0) for a in answers) / repaired if repaired else 0.0,
        "optimizer.modeled_cost": sum(a.get("modeled_cost", 0.0) for a in answers),
        "schedule.accepted": sum(a.get("accepted", 0) for a in answers),
        "schedule.refused": sum(a.get("refused", 0) for a in answers),
    }


def layer_metrics(totals: dict) -> dict:
    def get(name, key):
        return totals.get(name, {}).get(key, 0.0)

    metrics = {
        "cli.self_s": get("cli.dispatch", "self_s"),
        "program_text.parse_calls": get("program_text.parse", "calls"),
        "program_text.parse_s": get("program_text.parse", "s"),
        "program_text.instr_parsed": get("program_text.parse", "instr"),
        "machine.execute_calls": get("machine.execute", "calls"),
        "machine.execute_s": get("machine.execute", "s"),
        "machine.instr_executed": get("machine.execute", "instr"),
        "kernels.verify_calls": get("kernels.verify", "calls"),
        "kernels.verify_s": get("kernels.verify", "s"),
        "kernels.cases_run": get("kernels.verify", "cases"),
        "kernels.self_s": get("kernels.verify", "self_s"),
        "kernels.job_testcases_s": get("kernels.testcases", "s"),
        "repair.self_s": get("repair.repair", "self_s") + get("repair.verify", "self_s"),
        "repair.verify_s": get("repair.verify", "s"),
        "harness.self_s": get("harness.run", "self_s") + get("harness.verify", "self_s"),
        "harness.extract_s": get("harness.extract", "s"),
        "gateway.complete_calls": get("gateway.complete", "calls"),
        "gateway.complete_s": get("gateway.complete", "s"),
        "prompts.build_calls": get("prompts.build", "calls"),
        "prompts.build_s": get("prompts.build", "s"),
        "optimizer.self_s": get("optimizer.optimize", "self_s"),
        "optimizer.instr_removed": get("optimizer.optimize", "removed"),
        "costs.program_cost_s": get("costs.program_cost", "s"),
        "loopir.interpret_calls": get("loopir.interpret", "calls"),
        "loopir.interpret_s": get("loopir.interpret", "s"),
        "loopir.equivalence_s": get("loopir.equivalence", "s"),
        "loopir.locality_cost_s": get("loopir.locality_cost", "s"),
        "schedule.apply_s": get("schedule.apply", "s"),
        "schedule.self_s": get("schedule.session", "self_s") + get("schedule.apply", "self_s"),
    }
    for stage in ("segment", "dependences", "peephole", "search_reorder", "reassemble", "verify_gate"):
        metrics[f"optimizer.{stage}_s"] = get(f"optimizer.{stage}", "s")
    for kind in tracing.INSTRUCTION_KINDS:
        metrics[f"machine.instr.{kind}"] = get("machine.execute", kind)
    return metrics


def per_layer(run: dict, problems: list[str]) -> dict:
    spans_by_phase = defaultdict(list)
    for doc in run["spans"]:
        span = tracing.Span(doc["id"], doc["name"], doc["parent"], doc["job"], doc["phase"])
        span.start, span.end, span.counts = doc["start"], doc["end"], doc["counts"]
        spans_by_phase[doc["phase"]].append(span)
    setup = tracing.layer_totals(spans_by_phase.pop("setup", []))
    passes = [layer_metrics(tracing.layer_totals(spans)) for _, spans in sorted(spans_by_phase.items())]
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    for name in metrics:
        if not name.endswith("_s") and len({p[name] for p in passes}) > 1:
            problems.append(f"{name} differs between traced passes: {[p[name] for p in passes]}")
    metrics["fixtures.emit_s"] = setup.get("fixtures.emit", {}).get("s", 0.0)
    metrics["kernels.testcases_s"] = setup.get("kernels.testcases", {}).get("s", 0.0)
    metrics.update(answer_metrics(run))

    walls = {}
    for traced in (False, True):
        samples = scaled(run, traced)
        walls[traced] = pass_wall([value for _, _, value in samples], [job for job, _, _ in samples])
    metrics["trace.untraced_wall_s"] = walls[False]
    metrics["trace.traced_wall_s"] = walls[True]
    metrics["trace.overhead_s"] = walls[True] - walls[False]
    return metrics


def per_layer_units() -> dict:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in config["per_layer"]}


# -- commands --------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: int) -> int:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not trace:
        for sample in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(workload, seed, seconds, 0, "setup", deadline, f"setup{sample}"))
    run = run_worker(workload, seed, seconds, trace, "run", deadline, "run")
    setups.append(run)
    setup_samples = [(s["setup_s"], s["setup_s"] * REFERENCE_PROBE_S / s["setup_probe_s"]) for s in setups]

    problems = list(run["problems"])
    attempted = len(run["runs"])
    failed = sum(1 for r in run["runs"] if not r[4])
    details = {"workload": workload, "trace": trace, "machine": machine_info(seed),
               "numpy": run.get("numpy"), "attempted": attempted, "failed": failed,
               "error_frac": failed / attempted, "answers": run["answers"]}
    if trace:
        values = per_layer(run, problems)
        units = per_layer_units()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        with open(OUTPUT / f"spans-{workload}-s{seed}.jsonl", "w") as handle:
            for doc in run["spans"]:
                handle.write(json.dumps(doc) + "\n")
    else:
        values, extra = end_to_end(run, setup_samples)
        details.update(extra)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    details["problems"] = problems
    correct = not problems and failed == 0
    (OUTPUT / f"result-{workload}-s{seed}-t{trace}.json").write_text(
        json.dumps({"details": details, "metrics": metrics}, indent=2) + "\n")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def smoke(seed: int) -> int:
    """Every workload once with tracing, twice with one seed; counts must repeat exactly."""
    ok = True
    for workload in WORKLOADS:
        counts = []
        for attempt in range(2):
            deadline = time.monotonic() + DEADLINE_S
            run = run_worker(workload, seed, 0, 1, "run", deadline, f"smoke{attempt}", min_passes=2)
            problems = list(run["problems"])
            values = per_layer(run, problems)
            failed = sum(1 for r in run["runs"] if not r[4])
            if problems or failed:
                ok = False
                print(f"{workload}: {failed} failed jobs, problems: {problems}")
            counts.append({name: values[name] for name in EXACT})
        repeat = counts[0] == counts[1]
        ok = ok and repeat
        print(f"{workload}: {'ok' if repeat else 'COUNTS DIFFER'} {counts[0]}"
              + ("" if repeat else f" vs {counts[1]}"))
    print("smoke: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly, twice, and check its counts repeat")
    args = parser.parse_args()
    if not (ROOT / "src" / "ta_lift" / "cli.py").is_file():
        print(f"no ta_lift sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    OUTPUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return measure(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
