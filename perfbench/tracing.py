"""In-memory spans around the calls into each ta_lift layer.

The tracer records a span at every layer boundary by replacing the module
attributes that callers look up (``kernels.parse_program``,
``repair.verify_source``, ``loopir.interpret``, ...) with timing wrappers.
No source file of the program is edited, and `Tracer.uninstall` puts every
original attribute back, so untraced passes run the unmodified program.

A span records its name, start, end, parent span, job and pass.  Calls made
from the harness's worker threads have no span of their own thread open, so
their parent is the innermost span open on the main thread, which is blocked
in the thread pool at that moment.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

INSTRUCTION_KINDS = (
    "config_ex",
    "config_ld",
    "config_st",
    "mvin",
    "mvin2",
    "mvin3",
    "preload",
    "preload_zeros",
    "compute_preloaded",
    "compute_accumulated",
    "mvout",
    "fence",
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "job", "phase", "counts")

    def __init__(self, span_id, name, parent, job, phase):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.job = job
        self.phase = phase
        self.start = 0.0
        self.end = 0.0
        self.counts = None

    def document(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "job": self.job,
            "phase": self.phase,
            "counts": self.counts,
        }


class Tracer:
    """Records spans while `enabled`; `job` and `phase` label each span."""

    def __init__(self, modules):
        self.m = modules
        self.spans: list[Span] = []
        self.enabled = False
        self.job = None
        self.phase = "setup"
        self._ids = itertools.count()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._kinds: dict[int, tuple[object, Counter]] = {}

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None):
        """`fn` wrapped in a span; `count(args, result, error)` gives the span's counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1].id
            elif tracer._main_stack:
                parent = tracer._main_stack[-1].id
            else:
                parent = None
            span = Span(next(tracer._ids), name, parent, tracer.job, tracer.phase)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.end = time.perf_counter()
                stack.pop()
                if count is not None:
                    span.counts = count(args, None, err)
                tracer.spans.append(span)
                raise
            span.end = time.perf_counter()
            stack.pop()
            if count is not None:
                span.counts = count(args, result, None)
            tracer.spans.append(span)
            return result

        return traced

    # -- counters --------------------------------------------------------------

    def _parsed(self, args, result, error):
        return {"instr": 0 if result is None else len(result.instructions)}

    def _kind_counts(self, program) -> Counter:
        cached = self._kinds.get(id(program))
        if cached is None or cached[0] is not program:
            kinds = Counter(self.m.costs.instruction_kind(ins) for ins in program.instructions)
            cached = self._kinds[id(program)] = (program, kinds)
        return cached[1]

    def _executed(self, args, result, error):
        program = args[1]
        if error is None:
            kinds = self._kind_counts(program)
        elif getattr(self._local, "invalid", False) or not isinstance(error, self.m.machine.ExecError):
            kinds = Counter()
        else:
            # The failing instruction was dispatched; everything after it was not.
            prefix = program.instructions[: error.index + 1]
            kinds = Counter(self.m.costs.instruction_kind(ins) for ins in prefix)
        counts = {"instr": sum(kinds.values())}
        counts.update(kinds)
        return counts

    def _validated(self, fn):
        tracer = self

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            tracer._local.invalid = True
            fn(*args, **kwargs)
            tracer._local.invalid = False

        return checked

    def _cases(self, args, result, error):
        return {"cases": 0 if result is None else len(result.cases)}

    def _removed(self, args, result, error):
        if result is None:
            return {"removed": 0}
        return {"removed": len(args[0].instructions) - len(result.program.instructions)}

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Replace the looked-up attributes of every traced layer with span wrappers."""
        m = self.m
        plan = [
            # (owner, attribute, span names from outer to inner, counter)
            (m.kernels, "parse_program", ("program_text.parse",), self._parsed),
            (m.repair, "parse_program", ("program_text.parse",), self._parsed),
            (m.harness, "parse_program", ("program_text.parse",), self._parsed),
            (m.optimizer, "parse_program", ("program_text.parse",), self._parsed),
            (m.cli, "parse_program", ("program_text.parse",), self._parsed),
            (m.kernels, "execute", ("machine.execute",), self._executed),
            (m.cli, "execute", ("machine.execute",), self._executed),
            (m.kernels, "verify_program", ("kernels.verify",), self._cases),
            (m.cli, "verify_program", ("kernels.verify",), self._cases),
            (m.optimizer, "verify_program", ("optimizer.verify_gate", "kernels.verify"), self._cases),
            (m.kernels, "generate_testcases", ("kernels.testcases",), None),
            (m.harness, "generate_testcases", ("kernels.testcases",), None),
            (m.cli, "generate_testcases", ("kernels.testcases",), None),
            (m.fixtures, "emit_golden_program", ("fixtures.emit",), None),
            (m.cli, "run_experiment", ("harness.run",), None),
            (m.harness, "build_translation_prompt", ("prompts.build",), None),
            (m.harness, "extract_code", ("harness.extract",), None),
            (m.harness, "verify_source", ("harness.verify",), None),
            (m.gateway.ReplayBackend, "complete", ("gateway.complete",), None),
            (m.cli, "repair", ("repair.repair",), None),
            (m.repair, "verify_source", ("repair.verify",), None),
            (m.cli, "optimize_program", ("optimizer.optimize",), self._removed),
            (m.optimizer, "segment_blocks", ("optimizer.segment",), None),
            (m.optimizer, "analyze_dependences", ("optimizer.dependences",), None),
            (m.optimizer, "peephole_block", ("optimizer.peephole",), None),
            (m.optimizer, "search_reorder", ("optimizer.search_reorder",), None),
            (m.optimizer, "reassemble", ("optimizer.reassemble",), None),
            (m.optimizer, "program_cost", ("costs.program_cost",), None),
            (m.cli, "run_llm_session", ("schedule.session",), None),
            (m.schedule.ScheduleSession, "apply", ("schedule.apply",), None),
            (m.schedule, "check_equivalence", ("loopir.equivalence",), None),
            (m.loopir, "interpret", ("loopir.interpret",), None),
            (m.schedule, "locality_cost", ("loopir.locality_cost",), None),
            (m.cli, "locality_cost", ("loopir.locality_cost",), None),
            (m.cli, "dispatch", ("cli.dispatch",), None),
        ]
        for owner, attr, names, count in plan:
            fn = getattr(owner, attr)
            for depth, name in enumerate(reversed(names)):
                fn = self.wrap(name, fn, count if depth == 0 else None)
            self._patch(owner, attr, fn)
        self._patch(m.machine, "validate_program", self._validated(m.machine.validate_program))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._kinds.clear()


# -- analysis --------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.end - span.start - covered
    return result


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds, self seconds and summed counters."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        entry = totals[span.name]
        entry["calls"] += 1
        entry["s"] += span.end - span.start
        entry["self_s"] += own[span.id]
        for key, value in (span.counts or {}).items():
            entry[key] += value
    return totals
