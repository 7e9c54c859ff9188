"""The benchmark's tracer must find every program attribute it wraps.

`perfbench/tracing.py` times layers by replacing module attributes such as
`optimizer.search_reorder` with wrappers.  A rename in `src/` that drops
one of them breaks traced and smoke benchmark runs, so install the tracer
here over the same modules the benchmark worker loads, then take it out.
"""

from __future__ import annotations

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
