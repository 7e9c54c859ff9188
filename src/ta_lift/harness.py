"""Translation experiments: sample, extract, verify, report pass@k.

The harness wires the other modules together: it builds a prompt per
(kernel, ablation) pair, draws completions from a backend, extracts
candidate programs, verifies each one in the simulator, and aggregates
pass@k over the pooled sample counts.  Kernels whose golden programs are
embedded in the prompt as in-context examples are excluded from the rows
that use them, so no configuration is graded on its own worked example.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .fixtures import KERNELS, kernel
from .gateway import Backend, GenerationParams
from .kernels import KernelSpec, Verdict, generate_testcases, verify_source
from .program_text import ProgramSyntaxError, parse_program
from .prompts import (
    DEFAULT_EXAMPLE_ORDER,
    EXAMPLE_NAMES,
    ExamplesPosition,
    PromptSpec,
    SourceStyle,
    build_translation_prompt,
)


class DomainError(ValueError):
    """pass_at_k called outside its domain."""


class ConfigError(ValueError):
    """Experiment configuration is inconsistent."""


# Which kernel each in-context example asset was emitted from.  A row that
# shows a kernel its own golden program would not measure translation.
EXAMPLE_SOURCE_KERNELS: dict[str, str] = {
    "matvec": "gv1",
    "matmat": "mm4",
    "matmat_bias": "mm3",
}


def fenced_blocks(text: str) -> list[str]:
    """The bodies of the fenced code blocks of `text`, left to right.

    A block opens at a fence of three backticks, skips the rest of that
    line and closes at the next fence.  The scan ends at an opener with no
    newline or no closing fence after it, as no later opener could close
    either.  The text is read left to right once, so a long run of
    backticks costs linear time.
    """
    blocks = []
    start = text.find("```")
    while start >= 0:
        body = text.find("\n", start + 3) + 1
        end = text.find("```", body) if body else -1
        if end < 0:
            break
        blocks.append(text[body:end])
        start = text.find("```", end + 3)
    return blocks


def extract_code(completion_text: str, buffers: dict[str, tuple[int, int]]) -> str | None:
    """Pull the candidate program out of a completion.

    Replies usually wrap code in fenced blocks; the largest block wins.
    A bare reply is accepted whole if it already parses against `buffers`,
    the buffer table of the kernel it was written for.
    """
    blocks = fenced_blocks(completion_text)
    if blocks:
        best = max(blocks, key=len)
        return best.rstrip("\n")
    try:
        parse_program(completion_text, buffers)
    except ProgramSyntaxError:
        return None
    return completion_text


def pass_at_k(n: int, c: int, k: int) -> float:
    """Unbiased estimator: 1 minus the chance that k draws all miss."""
    if not 0 <= c <= n:
        raise DomainError(f"need 0 <= c <= n, got c={c}, n={n}")
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    if c > n - k:
        return 1.0
    missing = 1.0
    for i in range(k):
        missing *= (n - c - i) / (n - i)
    return 1.0 - missing


@dataclass(frozen=True)
class Ablation:
    """One prompt configuration, labeled for the report row."""

    label: str
    shots: int = 1
    nl_annotated: bool = True
    include_isa: bool = True
    source_style: SourceStyle = SourceStyle.BOTH
    examples_position: ExamplesPosition = ExamplesPosition.AFTER_INSTRUCTIONS
    examples: tuple[str, ...] = DEFAULT_EXAMPLE_ORDER

    def prompt_spec(self, spec: KernelSpec) -> PromptSpec:
        return PromptSpec(
            kernel=spec,
            shots=self.shots,
            nl_annotated=self.nl_annotated,
            include_isa=self.include_isa,
            source_style=self.source_style,
            examples_position=self.examples_position,
            examples=self.examples,
        )

    def excluded_kernels(self) -> tuple[str, ...]:
        used = self.examples[: self.shots]
        return tuple(EXAMPLE_SOURCE_KERNELS[name] for name in used if name in EXAMPLE_SOURCE_KERNELS)


@dataclass(frozen=True)
class ExperimentConfig:
    kernels: tuple[str, ...]
    ablations: tuple[Ablation, ...]
    params: GenerationParams = GenerationParams()
    k_values: tuple[int, ...] = (1, 10, 50)
    seed: int = 0
    testcases_per_kernel: int = 5
    aggregate: str = "micro"
    date: str = ""


@dataclass(frozen=True)
class CandidateRecord:
    kernel: str
    fingerprint: str
    index: int
    raw_text: str
    code: str | None
    verdict: Verdict

    def to_document(self) -> dict:
        failure = self.verdict.failure
        return {
            "kernel": self.kernel,
            "fingerprint": self.fingerprint,
            "index": self.index,
            "raw_text": self.raw_text,
            "code": self.code,
            "passed": self.verdict.passed,
            "failure": None if failure is None else f"{type(failure).__name__}: {failure}",
        }


@dataclass(frozen=True)
class ExperimentRow:
    label: str
    kernel_counts: tuple[tuple[str, int, int], ...]
    excluded: tuple[str, ...]
    n_total: int
    c_total: int
    pass_at: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ExperimentRow, ...]
    k_values: tuple[int, ...]
    metadata: tuple[tuple[str, str], ...]
    records: tuple[CandidateRecord, ...] = field(repr=False, default=())


def _verify_candidate(
    spec: KernelSpec, fingerprint: str, index: int, raw: str, cases, memo: dict
) -> CandidateRecord:
    code = extract_code(raw, spec.buffer_shapes())
    if code is None:
        verdict = Verdict(passed=False)
    else:
        verdict = verify_source(code, spec, cases, memo=memo)
    return CandidateRecord(
        kernel=spec.name,
        fingerprint=fingerprint,
        index=index,
        raw_text=raw,
        code=code,
        verdict=verdict,
    )


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate(config: ExperimentConfig) -> None:
    """Reject every inconsistent or mistyped setting before any prompt is sent."""
    if not config.kernels:
        raise ConfigError("no kernels configured")
    if not config.ablations:
        raise ConfigError("no ablations configured")
    labels = [a.label for a in config.ablations]
    if not all(isinstance(label, str) for label in labels) or len(set(labels)) != len(labels):
        raise ConfigError("ablation labels must be unique strings")
    for name, value in (("model", config.params.model), ("date", config.date)):
        if not isinstance(value, str):
            raise ConfigError(f"{name} {value!r} is not a string")
    for name in config.kernels:
        if not isinstance(name, str) or name not in KERNELS:
            raise ConfigError(f"unknown kernel {name!r}")
    for ablation in config.ablations:
        unknown = [name for name in ablation.examples if name not in EXAMPLE_NAMES]
        if unknown:
            raise ConfigError(f"ablation '{ablation.label}': unknown example {unknown[0]!r}")
        if not _is_int(ablation.shots) or not 0 <= ablation.shots <= len(ablation.examples):
            allowed = f"0..{len(ablation.examples)}"
            raise ConfigError(f"ablation '{ablation.label}': shots {ablation.shots!r} not in {allowed}")
    if not _is_int(config.params.n_samples):
        raise ConfigError(f"n_samples {config.params.n_samples!r} is not an integer")
    for k in config.k_values:
        if not _is_int(k) or not 1 <= k <= config.params.n_samples:
            raise ConfigError(f"k={k!r} out of range for n={config.params.n_samples}")
    if not _is_int(config.seed) or config.seed < 0:
        raise ConfigError(f"seed {config.seed!r} is not a non-negative integer")
    if not _is_int(config.testcases_per_kernel) or config.testcases_per_kernel < 1:
        raise ConfigError(f"testcases {config.testcases_per_kernel!r} is not a positive integer")
    if config.aggregate not in ("micro", "macro"):
        raise ConfigError(f"unknown aggregate mode '{config.aggregate}'")


def _row_pass_rates(
    config: ExperimentConfig, counts: list[tuple[str, int, int]]
) -> tuple[tuple[int, float], ...]:
    values = []
    for k in config.k_values:
        if not counts:
            values.append((k, 0.0))
        elif config.aggregate == "micro":
            n_total = sum(n for _, n, _ in counts)
            c_total = sum(c for _, _, c in counts)
            values.append((k, pass_at_k(n_total, c_total, k)))
        else:
            per = [pass_at_k(n, c, k) for _, n, c in counts]
            values.append((k, sum(per) / len(per)))
    return tuple(values)


def run_experiment(
    config: ExperimentConfig, backend: Backend, records_dir: str | Path | None = None
) -> ExperimentReport:
    """Execute every (ablation, kernel) cell and aggregate pass@k per row."""
    _validate(config)
    rows: list[ExperimentRow] = []
    all_records: list[CandidateRecord] = []
    for ablation in config.ablations:
        excluded = tuple(name for name in ablation.excluded_kernels() if name in config.kernels)
        counts: list[tuple[str, int, int]] = []
        for name in config.kernels:
            if name in excluded:
                continue
            spec = kernel(name)
            prompt = build_translation_prompt(ablation.prompt_spec(spec))
            completions = backend.complete(prompt, config.params)
            cases = generate_testcases(spec, config.seed, config.testcases_per_kernel)
            # The samples of one prompt repeat most of each other's lines: one line
            # memo per cell reads each distinct line once, and goes when the cell ends.
            memo: dict = {}
            records = [
                _verify_candidate(spec, prompt.fingerprint, index, completion.text, cases, memo)
                for index, completion in enumerate(completions)
            ]
            all_records.extend(records)
            c = sum(1 for r in records if r.verdict.passed)
            counts.append((name, len(records), c))
        rows.append(
            ExperimentRow(
                label=ablation.label,
                kernel_counts=tuple(counts),
                excluded=excluded,
                n_total=sum(n for _, n, _ in counts),
                c_total=sum(c for _, _, c in counts),
                pass_at=_row_pass_rates(config, counts),
            )
        )
    metadata = (
        ("seed", str(config.seed)),
        ("model", config.params.model),
        ("temperature", repr(config.params.temperature)),
        ("n", str(config.params.n_samples)),
        ("aggregate", config.aggregate),
        ("date", config.date),
    )
    report = ExperimentReport(
        rows=tuple(rows),
        k_values=config.k_values,
        metadata=metadata,
        records=tuple(all_records),
    )
    if records_dir is not None:
        persist_records(report, records_dir)
    return report


def persist_records(report: ExperimentReport, records_dir: str | Path) -> None:
    root = Path(records_dir)
    root.mkdir(parents=True, exist_ok=True)
    for record in report.records:
        path = root / f"{record.kernel}_{record.fingerprint[:12]}_{record.index:03d}.json"
        path.write_text(json.dumps(record.to_document(), indent=2, ensure_ascii=False) + "\n")


def _percent(value: float) -> str:
    return f"{100.0 * value:.2f}%"


def render_report(report: ExperimentReport, format: str = "table") -> str:
    """Render rows as a fixed-width table or as CSV, percentages throughout."""
    if format == "csv":
        header = ["config", "n", "c"] + [f"pass@{k}" for k in report.k_values]
        lines = [",".join(header)]
        for row in report.rows:
            cells = [row.label, str(row.n_total), str(row.c_total)]
            cells += [_percent(v) for _, v in row.pass_at]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    if format != "table":
        raise ValueError(f"unknown report format '{format}'")

    headers = ["config", "n", "c"] + [f"pass@{k}" for k in report.k_values]
    body = []
    for row in report.rows:
        cells = [row.label, str(row.n_total), str(row.c_total)]
        cells += [_percent(v) for _, v in row.pass_at]
        body.append(cells)
    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(k + ": " + v for k, v in report.metadata if v != "")]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip())
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for cells in body:
        lines.append("  ".join(cells[i].ljust(widths[i]) for i in range(len(cells))).rstrip())
    for row in report.rows:
        if row.excluded:
            lines.append(f"note: {row.label} excludes {', '.join(row.excluded)} (in-context example)")
    return "\n".join(lines) + "\n"
