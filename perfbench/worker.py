"""One benchmark process: set up a workload, then run its jobs in a closed loop.

Started by run.py, never by hand.  In ``--mode setup`` it stops once the
inputs are built and reports only the set-up time; in ``--mode run`` it then
runs passes over the workload's jobs, one job at a time, until the time is
up, and writes every latency, check result and (traced) span to a JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("cli", "costs", "fixtures", "gateway", "harness", "kernels", "loopir",
           "machine", "optimizer", "program_text", "prompts", "repair", "schedule")


class Modules:
    """The ta_lift modules, looked up by attribute so the tracer's patches apply."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"ta_lift.{name}"))


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_job(m: Modules, job: workloads.Job) -> tuple[float, int | None, str]:
    """Latency, exit code (None when dispatch raised) and captured output of one job."""
    shutil.rmtree(job.out, ignore_errors=True)
    captured = io.StringIO()
    code = None
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        try:
            code = m.cli.dispatch(job.argv)
        except Exception:  # a job that raises is counted as failed, not fatal
            elapsed = time.perf_counter() - start
            return elapsed, None, captured.getvalue() + traceback.format_exc()
        elapsed = time.perf_counter() - start
    return elapsed, code, captured.getvalue()


def probe() -> float:
    """Seconds taken by a fixed piece of work: the host's speed right now.

    A shared host can run all code a third slower, or faster, for seconds
    to minutes at a time.  Probing before and after every job lets run.py
    scale each latency to one reference speed.  The probe does the kinds of
    work the program's layers do, dictionary, tuple and string operations
    and numpy scalar arithmetic, so that it slows down as they do; it runs
    no ta_lift code, so a change to the program does not move it.
    """
    np = sys.modules["numpy"]
    start = time.perf_counter()
    counts: dict = {}
    for i in range(3000):
        key = ("k", i % 97)
        counts[key] = counts.get(key, 0) + len(str(i))
    value = np.float32(0.0)
    cells = np.zeros((8, 8), dtype=np.float32)
    for i in range(750):
        value = np.float32(value + np.float32(i % 5) * np.float32(0.5))
        cells[i % 8, i % 7] = value
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--min-passes", type=int, default=None)
    parser.add_argument("--started", type=float, required=True, help="time.monotonic() at launch")
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    m = Modules()
    tracer = tracing.Tracer(m)
    if args.trace:
        tracer.install()
        tracer.enabled = True
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec = workloads.BUILDERS[args.workload](m, args.seed, work)
        setup_s = time.monotonic() - args.started
        tracer.enabled = False
        tracer.uninstall()
        result: dict = {"setup_s": setup_s, "setup_probe_s": statistics.median(probe() for _ in range(3))}
        if args.mode == "run":
            result.update(measure(m, tracer, spec, args))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["numpy"] = sys.modules["numpy"].__version__
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result))
    return 0


def measure(m: Modules, tracer: tracing.Tracer, spec: workloads.Workload, args) -> dict:
    """Closed loop: passes over every job until `seconds` is spent and enough passes ran.

    With tracing on, passes alternate untraced and traced, so both sides of
    the overhead comparison see the same machine state.
    """
    min_passes = args.min_passes or spec.min_passes
    if args.trace:
        min_passes = max(min_passes, 2)
    runs = []  # (pass, job index, latency, traced, ok, probe seconds around the job)
    answers: dict[int, tuple[str, dict]] = {}
    problems: list[str] = []
    started = time.perf_counter()
    pass_index = 0
    last_pass = 0.0
    while pass_index < min_passes or time.perf_counter() - started + last_pass <= args.seconds:
        traced = bool(args.trace) and pass_index % 2 == 1
        pass_start = time.perf_counter()
        if traced:
            tracer.install()
        gauge = probe()
        for index, job in enumerate(spec.jobs):
            tracer.job, tracer.phase, tracer.enabled = index, pass_index, traced
            latency, code, output = run_job(m, job)
            tracer.enabled = False
            after = probe()
            probe_s = (gauge + after) / 2.0
            gauge = after
            ok = code is not None
            if not ok:
                problems.append(f"{job.name}: raised\n{output[-2000:]}")
            else:
                seen = digest(job.out)
                if index not in answers or answers[index][0] != seen:
                    try:
                        found, answer = job.check(code, job.out)
                    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
                        found, answer = [f"unreadable output: {err!r}"], {}
                    if found:
                        ok = False
                        problems.extend(f"{job.name}: {p}" for p in found)
                        problems.append(f"{job.name} output:\n{output[-2000:]}")
                    else:
                        answers[index] = (seen, answer)
            runs.append((pass_index, index, latency, traced, ok, probe_s))
        if traced:
            tracer.uninstall()
        last_pass = time.perf_counter() - pass_start
        pass_index += 1
    result = {
        "jobs": [job.name for job in spec.jobs],
        "runs": runs,
        "answers": {spec.jobs[i].name: answer for i, (_, answer) in sorted(answers.items())},
        "problems": problems[:50],
        "passes": pass_index,
        "min_passes": min_passes,
    }
    if args.trace:
        result["spans"] = [span.document() for span in tracer.spans]
    return result


if __name__ == "__main__":
    sys.exit(main())
