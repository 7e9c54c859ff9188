"""The benchmark's tracer must find every program attribute it wraps.

`perfbench/tracing.py` times layers by replacing module attributes such as
`optimizer.search_reorder` with wrappers, and reads a few more, such as
`machine.ExecError`, as they are.  A rename in `src/` that drops one of
them breaks traced and smoke benchmark runs, so install the tracer here
over the same modules the benchmark worker loads, then take it out, check
the names it only reads, and run the smoke benchmark itself.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_existing_attributes_and_restores_them(monkeypatch) -> None:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import worker

    tracer = tracing.Tracer(worker.Modules())
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
    names = {attr for _, attr, _ in patched}
    assert {"search_reorder", "analyze_dependences", "peephole_block", "verify_program"} <= names
    patched_at = {(owner.__name__, attr) for owner, attr, _ in patched}
    assert {("ta_lift.kernels", "execute"), ("ta_lift.cli", "execute"),
            ("ta_lift.machine", "validate_program")} <= patched_at


def test_tracer_reads_existing_attributes() -> None:
    """Names the tracer reads without wrapping them: a rename would fail only inside a traced run."""
    from ta_lift import costs, machine

    assert issubclass(machine.ExecError, Exception)
    assert callable(costs.instruction_kind)


def test_the_smoke_benchmark_passes() -> None:
    """`perfbench/run.py --smoke` runs every workload twice, traced, and checks their answers and counts.

    A renamed attribute that the tracer wraps, or a workload check that no
    longer holds, fails here rather than in a benchmark run.  The benchmark
    writes only under `.perfbench/` at the repository root.
    """
    result = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--smoke"], cwd=PERFBENCH.parent,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "smoke: pass" in result.stdout.splitlines()
