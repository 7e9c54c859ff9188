"""Deterministic prompt assembly for every task the toolkit sends to a model.

Five prompt families are built here: kernel translation (with its ablation
axes), single-block optimization, whole-program block reordering, and the
two repair steps (mark constants, then fill them). Templates and in-context
examples live under ``assets/`` as plain text; builders only concatenate,
so equal inputs always produce byte-identical prompts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources

from .kernels import KernelSpec

PROMPT_BUDGET_BYTES = 32 * 1024


class SourceStyle(Enum):
    NL_ONLY = "nl_only"
    CODE_ONLY = "code_only"
    BOTH = "both"


class ExamplesPosition(Enum):
    BEFORE_INSTRUCTIONS = "before_instructions"
    AFTER_INSTRUCTIONS = "after_instructions"


class MissingExample(Exception):
    """Raised when a prompt asks for more in-context examples than exist."""


class EmptyConstantSet(Exception):
    """Raised when the fill-constants prompt is given nothing to choose from."""


DEFAULT_HEURISTICS: tuple[str, ...] = (
    "moving data ahead of time helps",
    "do not remove any compute instruction unless it can merged or replaced by another instruction",
    "do not remove any preload instruction unless B_spad_addr and C_spad_addr are the same as the previous preload instruction",
    "number of mvin rows <= 4",
)

# In-context examples in the order they are drawn for 1-shot and 2-shot
# prompts. The two-shot pair is the matrix-vector example plus the
# matrix-matrix example with a transpose and a bias.
DEFAULT_EXAMPLE_ORDER: tuple[str, ...] = ("matvec", "matmat_bias")
EXAMPLE_NAMES: tuple[str, ...] = ("matvec", "matmat", "matmat_bias")

_ISA_HEADER = "The set of available functions for the Gemmini accelerator are as follows."
_SOURCE_HEADER = "Below we describe the functions present in the input code."


def _asset(relative: str) -> str:
    return (resources.files("ta_lift") / "assets" / relative).read_text()


def isa_text() -> str:
    return _asset("isa.txt").strip("\n")


def instruction_text(name: str) -> str:
    return _asset(f"instructions/{name}.txt").strip("\n")


def example_text(name: str, annotated: bool = True) -> str:
    if name not in EXAMPLE_NAMES:
        raise MissingExample(f"no in-context example named '{name}'")
    variant = "annotated" if annotated else "stripped"
    return _asset(f"examples/{name}_{variant}.txt").strip("\n")


def strip_comments(text: str) -> str:
    """Drop `//` commentary: inline comments are cut, comment lines vanish."""
    out = []
    for line in text.splitlines():
        if "//" in line:
            head = line.split("//", 1)[0].rstrip()
            if head:
                out.append(head)
        else:
            out.append(line.rstrip())
    stripped = "\n".join(out)
    if text.endswith("\n"):
        stripped += "\n"
    return stripped


@dataclass(frozen=True)
class Prompt:
    """An ordered chat transcript plus a content fingerprint."""

    messages: tuple[tuple[str, str], ...]
    fingerprint: str

    @property
    def system(self) -> str:
        return "\n\n".join(text for role, text in self.messages if role == "system")

    @property
    def user(self) -> str:
        return "\n\n".join(text for role, text in self.messages if role == "user")

    @property
    def text(self) -> str:
        return "\n\n".join(text for _, text in self.messages)


def _make_prompt(messages: list[tuple[str, str]]) -> Prompt:
    canon = json.dumps([[role, text] for role, text in messages], ensure_ascii=False)
    digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    return Prompt(messages=tuple(messages), fingerprint=digest)


@dataclass(frozen=True)
class PromptSpec:
    """Everything that determines a translation prompt's bytes."""

    kernel: KernelSpec
    shots: int = 1
    nl_annotated: bool = True
    include_isa: bool = True
    source_style: SourceStyle = SourceStyle.BOTH
    examples_position: ExamplesPosition = ExamplesPosition.AFTER_INSTRUCTIONS
    examples: tuple[str, ...] = DEFAULT_EXAMPLE_ORDER

    def __post_init__(self) -> None:
        if self.shots < 0:
            raise ValueError("shots must be non-negative")
        if self.shots > len(self.examples):
            raise MissingExample(f"{self.shots} shots requested, {len(self.examples)} examples available")


def describe_kernel(spec: KernelSpec) -> str:
    """One-sentence problem statement in the house style of the examples."""
    shape_word = "vector" if spec.j == 1 else "matrix"
    a_part = f"{spec.i}x{spec.k} matrix {spec.a}, {'transposed' if spec.transpose_a else 'not transposed'}"
    b_part = f"{spec.k}x{spec.j} {shape_word} {spec.b}, {'transposed' if spec.transpose_b else 'not transposed'}"
    text = f"Multiplication of {a_part}, and {b_part}"
    if spec.op == "matmul_bias":
        text += f", {'minus' if spec.sub else 'plus'} {spec.i}x{spec.j} bias matrix {spec.d}"
    if spec.j == 1:
        text += ". The matrix and vector are both stored in dram."
    else:
        text += ". The matrices are all stored in DRAM."
    text += f" The result is stored in the {spec.i}x{spec.j} {shape_word} {spec.c}."
    return text


def render_test_function(spec: KernelSpec) -> str:
    """The `test` body the model is asked to rewrite."""
    if spec.op == "matmul_bias":
        args = f"{spec.a}, {spec.b}, {spec.d}, {spec.c}"
        call = (
            f"tiled_matmul_outer_eigen_bias({args}, {spec.i}, {spec.k}, {spec.j}, "
            f"{str(spec.transpose_a).lower()}, {str(spec.transpose_b).lower()}, {str(spec.sub).lower()})"
        )
    else:
        args = f"{spec.a}, {spec.b}, {spec.c}"
        call = (
            f"tiled_matmul_outer_eigen({args}, {spec.i}, {spec.k}, {spec.j}, "
            f"{str(spec.transpose_a).lower()}, {str(spec.transpose_b).lower()})"
        )
    return f"#test function\n// {describe_kernel(spec)}\nvoid test({args}) {{\n    {call};\n}}"


def _final_instruction(shots: int) -> str:
    if shots == 0:
        return "Write the low level code for the `test` function."
    if shots == 1:
        return (
            "Example 1 is a simple example which should only be used for style inspiration. "
            "Write the low level code for Example 2."
        )
    head = ", ".join(str(n) for n in range(1, shots)) + f" and {shots}"
    return (
        f"Examples {head} are simple examples which should only be used for style inspiration. "
        f"Write the low level code for Example {shots + 1}."
    )


def _source_section(style: SourceStyle) -> str:
    bodies = []
    if style in (SourceStyle.CODE_ONLY, SourceStyle.BOTH):
        bodies.append("```\n" + _asset("source_code.txt").strip("\n") + "\n```")
    if style in (SourceStyle.NL_ONLY, SourceStyle.BOTH):
        bodies.append("```\n" + _asset("source_nl.txt").strip("\n") + "\n```")
    return _SOURCE_HEADER + "\n\n" + "\n\n".join(bodies)


def build_translation_prompt(spec: PromptSpec) -> Prompt:
    if spec.shots == 0 and not spec.nl_annotated:
        # With no examples there is nothing to strip; canonicalize so the
        # fingerprint does not depend on the irrelevant flag.
        spec = replace(spec, nl_annotated=True)

    system = instruction_text("translate") + "\n" + _final_instruction(spec.shots)

    example_block = ""
    if spec.shots > 0:
        rendered = [
            f"Example {idx + 1}:\n{example_text(name, annotated=spec.nl_annotated)}"
            for idx, name in enumerate(spec.examples[: spec.shots])
        ]
        example_block = "\n\n".join(rendered)

    target_label = f"Example {spec.shots + 1}:\n" if spec.shots > 0 else ""
    target_block = target_label + render_test_function(spec.kernel)

    sections: list[str] = []
    if spec.examples_position is ExamplesPosition.BEFORE_INSTRUCTIONS and example_block:
        sections.append(example_block)
    if spec.include_isa:
        sections.append(_ISA_HEADER + "\n\n" + isa_text())
    sections.append(_source_section(spec.source_style))
    if spec.examples_position is ExamplesPosition.AFTER_INSTRUCTIONS and example_block:
        sections.append(example_block)
    sections.append(target_block)

    return _make_prompt([("system", system), ("user", "\n\n".join(sections))])


def build_block_optimize_prompt(block_text: str, heuristics: tuple[str, ...] = DEFAULT_HEURISTICS) -> Prompt:
    system = instruction_text("optimize")
    if heuristics:
        numbered = "\n".join(f"{n}. {line}" for n, line in enumerate(heuristics, start=1))
        system += "\n// heuristics:\n" + numbered
    user = isa_text() + "\n\n" + block_text.strip("\n")
    return _make_prompt([("system", system), ("user", user)])


def build_reorder_prompt(blocks: list[str] | tuple[str, ...]) -> Prompt:
    if not blocks:
        raise ValueError("at least one block is required")
    system = instruction_text("reorder")
    labeled = "\n\n".join(f"Block {idx}:\n{block.strip()}" for idx, block in enumerate(blocks))
    user = isa_text() + "\n\n" + labeled
    return _make_prompt([("system", system), ("user", user)])


def build_repair_mark_prompt(candidate_code: str) -> Prompt:
    if not candidate_code.strip():
        raise ValueError("candidate code is empty")
    return _make_prompt([("system", instruction_text("repair_mark")), ("user", candidate_code.strip("\n"))])


def format_constant_set(constants: tuple[int, ...] | list[int]) -> str:
    return "{" + ", ".join(str(c) for c in constants) + "}"


def build_repair_fill_prompt(candidate_code: str, constants: tuple[int, ...] | list[int]) -> Prompt:
    if not candidate_code.strip():
        raise ValueError("candidate code is empty")
    if not constants:
        raise EmptyConstantSet("the fill prompt needs at least one constant option")
    system = instruction_text("repair_fill").replace("{constants}", format_constant_set(constants))
    return _make_prompt([("system", system), ("user", candidate_code.strip("\n"))])
