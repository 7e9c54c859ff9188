"""Prompt assembly: determinism, ablation structure, and the byte budget."""

from __future__ import annotations

import hashlib

import pytest

from conftest import golden_program
from ta_lift import prompts
from ta_lift.fixtures import kernel, KERNELS
from ta_lift.kernels import generate_testcases, verify_source
from ta_lift.prompts import (
    DEFAULT_HEURISTICS,
    EmptyConstantSet,
    ExamplesPosition,
    MissingExample,
    Prompt,
    PromptSpec,
    PROMPT_BUDGET_BYTES,
    SourceStyle,
    build_block_optimize_prompt,
    build_reorder_prompt,
    build_repair_fill_prompt,
    build_repair_mark_prompt,
    build_translation_prompt,
    describe_kernel,
    example_text,
    isa_text,
    render_test_function,
    strip_comments,
)


def spec_for(name: str, **kwargs) -> PromptSpec:
    return PromptSpec(kernel=kernel(name), **kwargs)


def test_fingerprint_deterministic_across_calls() -> None:
    one = build_translation_prompt(spec_for("gv2"))
    two = build_translation_prompt(spec_for("gv2"))
    assert one.fingerprint == two.fingerprint
    assert one.messages == two.messages
    other = build_translation_prompt(spec_for("gv3"))
    assert other.fingerprint != one.fingerprint


def test_zero_shot_has_isa_but_no_example() -> None:
    prompt = build_translation_prompt(spec_for("gv2", shots=0))
    assert "config_ex" in prompt.text
    assert "Example 1:" not in prompt.text
    assert "// rewritten program" not in prompt.text
    assert "Write the low level code for the `test` function." in prompt.system


def test_one_shot_embeds_example_verbatim() -> None:
    prompt = build_translation_prompt(spec_for("gv2", shots=1))
    assert example_text("matvec", annotated=True) in prompt.user
    assert "tiled_matmul_outer_eigen(Pinf, x, Pinf_x, 12, 12, 1, false, false);" in prompt.user
    assert "Write the low level code for Example 2." in prompt.system


def test_two_shot_order_and_labels() -> None:
    prompt = build_translation_prompt(spec_for("gv2", shots=2))
    user = prompt.user
    first = user.index("Example 1:")
    second = user.index("Example 2:")
    third = user.index("Example 3:")
    assert first < second < third
    assert "Bdyn" in user[first:second]
    assert "PAB_R" in user[second:third]
    assert "Write the low level code for Example 3." in prompt.system


def test_no_isa_prompt_is_strict_line_subsequence() -> None:
    with_isa = build_translation_prompt(spec_for("gv2", shots=1, include_isa=True))
    without = build_translation_prompt(spec_for("gv2", shots=1, include_isa=False))
    full = with_isa.text.splitlines()
    trimmed = without.text.splitlines()
    assert len(trimmed) < len(full)
    it = iter(full)
    assert all(line in it for line in trimmed)
    # The ISA block itself is gone; the in-context example still shows usage.
    assert "#define config_ex" not in without.user
    assert "The set of available functions" not in without.user


def test_nl_annotation_flag_strips_example_comments() -> None:
    annotated = build_translation_prompt(spec_for("gv2", shots=1, nl_annotated=True))
    plain = build_translation_prompt(spec_for("gv2", shots=1, nl_annotated=False))
    assert example_text("matvec", annotated=False) in plain.user
    assert "// preload p as matrix B" in annotated.user
    assert "// preload p as matrix B" not in plain.user


@pytest.mark.parametrize("name", ["matvec", "matmat", "matmat_bias"])
def test_stripped_asset_matches_strip_comments(name: str) -> None:
    assert example_text(name, annotated=False) == strip_comments(example_text(name, annotated=True))


# The comment-free examples as they were stored before they were derived from the annotated ones: sha256 of the text.
_STRIPPED_SHA256 = {
    "matvec": "baeaabdcd129d2edd4f0208dcf22b617ecf4575b2279c59b36f1c3a851102072",
    "matmat": "758b553802bec2104204bf12d025f52c9af780a45f7bedebf1b1f5a2a9d1b72d",
    "matmat_bias": "07aadfad0e243f92d65565a173ce6457099b763cd4a55768d1b84c024b88ce06",
}


@pytest.mark.parametrize("name", sorted(_STRIPPED_SHA256))
def test_stripped_example_bytes_are_pinned(name: str) -> None:
    digest = hashlib.sha256(example_text(name, annotated=False).encode("utf-8")).hexdigest()
    assert digest == _STRIPPED_SHA256[name]


# Fingerprints of the comment-free translation prompts at 1 and 2 shots; replay fixtures are keyed by them.
_PLAIN_FINGERPRINTS = {
    "gv1": ("dbdad424fc9ab70cefeba6358c28bfd9604a7a9d72650994b984d027c7a0d06a",
            "7f3b19bf8bcf4a3924c72440645407763d28532437cb600777c6e8e4ef2a8598"),
    "gv2": ("df36a63b0b81a163fa577e00ecfca7f75867edd47c4f3e95fd2477e9a4138229",
            "057f3e4d488b0c240a4804e9dae55af89af53eaac517758e43995e1a98d992b5"),
    "gv3": ("f39931e5465ba6398649321a89a513f4520a913a9a2e2d0a4ee8c32ef8637222",
            "ad511af3eddbeaa092ccca884f826c30e34570cc7b479c45c41bc86a60f2094e"),
    "gv4": ("4fc174ae0f3613c40f22a54137f112198aa60f2ad962eb9ab6155cacf0f58e69",
            "aa5dbfd346b98ee0a66dd3a9b580924b12983af41405c0f0d3dc5ee85550eace"),
    "mm1": ("6601324b8bb3bdbff21a43f05127c2868f88f41fed7dc18e732267f87bc4c6b6",
            "beb8ef6826b39c8fd971bb50421a2534693f08daa9f21c6a8a2efccea1c2feae"),
    "mm2": ("c0adf32dc131205e6745bdf2344dd7e859e7a5e41bd083f5577424c28558848f",
            "4cbdf85bc2141c7fa404df236050292f44e4e88771d108e4df3ccb4e383b6fb5"),
    "mm3": ("6ecf22766ac1f09664a215ed7ae96bf48e0bbb6f9c1f3913efdcdbae548c1423",
            "bc8bf222c772860bad13e32f769f272fe6959ddb64eb2729225890e3b410be24"),
    "mm4": ("0d91e87791173c78d6bfb209a924ad4ea8af835f45f343f615de2c63f29c70e3",
            "972ccf26e7bfdd9d9eceee934c2a77bc54dbd63f98c7653c4a6e6049f23eb137"),
    "mm5": ("86dbb432afcb4090c6cc9c43427dd7b22b14b443335e6867737e7cd2f791d10c",
            "def9d1c79acd27e8e4b33547c14471b62b22312d881353af15db91c7e07a6ef7"),
    "mm6": ("00aa429820af20decc3b8fe90ddd6664e2dc89fcdca16f9a16e8412a886f519c",
            "e80eb799beac9c65fdd4e8837d7363702f5c3f3c9711c3a35d09cdbbffd42fe0"),
    "mm7": ("0a669aacb1fab9df254f455d2fee62388b782aa7928838bea863328a025be8a8",
            "3874e51a52d6f5890993b2d04cf5fae0b8955c083233a6584326ee8eaa8b73d6"),
}


def test_plain_translation_fingerprints_are_pinned() -> None:
    assert sorted(_PLAIN_FINGERPRINTS) == sorted(KERNELS)
    for name, pinned in _PLAIN_FINGERPRINTS.items():
        found = tuple(build_translation_prompt(spec_for(name, shots=shots, nl_annotated=False)).fingerprint
                      for shots in (1, 2))
        assert found == pinned, name


def test_assets_are_read_once(monkeypatch) -> None:
    prompts._asset.cache_clear()
    files = prompts.resources.files
    reads = []
    monkeypatch.setattr(prompts.resources, "files", lambda package: reads.append(package) or files(package))
    spec = spec_for("mm1", shots=2, nl_annotated=False)
    first = build_translation_prompt(spec)
    assert len(reads) == 6  # the instructions, the ISA, two sources and two examples
    assert build_translation_prompt(spec) == first
    assert len(reads) == prompts._asset.cache_info().currsize == 6


def test_nl_flag_is_irrelevant_at_zero_shots() -> None:
    a = build_translation_prompt(spec_for("gv2", shots=0, nl_annotated=True))
    b = build_translation_prompt(spec_for("gv2", shots=0, nl_annotated=False))
    assert a.fingerprint == b.fingerprint


def test_examples_position_flips_section_order() -> None:
    after = build_translation_prompt(spec_for("gv2", shots=1))
    before = build_translation_prompt(
        spec_for("gv2", shots=1, examples_position=ExamplesPosition.BEFORE_INSTRUCTIONS)
    )
    assert after.fingerprint != before.fingerprint
    assert before.user.startswith("Example 1:")
    assert after.user.startswith("The set of available functions")
    assert sorted(after.user.splitlines()) == sorted(before.user.splitlines())


def test_source_styles() -> None:
    nl = build_translation_prompt(spec_for("gv2", shots=0, source_style=SourceStyle.NL_ONLY))
    code = build_translation_prompt(spec_for("gv2", shots=0, source_style=SourceStyle.CODE_ONLY))
    both = build_translation_prompt(spec_for("gv2", shots=0, source_style=SourceStyle.BOTH))
    assert "tiled_matmul_outer_eigen performs a matrix multiplication" in nl.user
    assert "for (int i_ctr = 0; i_ctr < i; i_ctr++)" not in nl.user
    assert "for (int i_ctr = 0; i_ctr < i; i_ctr++)" in code.user
    assert "tiled_matmul_outer_eigen performs a matrix multiplication" not in code.user
    assert "for (int i_ctr = 0; i_ctr < i; i_ctr++)" in both.user
    assert "tiled_matmul_outer_eigen performs a matrix multiplication" in both.user


def test_too_many_shots() -> None:
    with pytest.raises(MissingExample):
        spec_for("gv2", shots=3)


def test_describe_kernel_matches_house_style() -> None:
    text = describe_kernel(kernel("mm2"))
    assert text == (
        "Multiplication of 12x4 matrix BPA, transposed, and 4x12 matrix Kt, not transposed, "
        "minus 12x12 bias matrix Q. The matrices are all stored in DRAM. "
        "The result is stored in the 12x12 matrix APBK_Q."
    )


def test_render_test_function_shapes() -> None:
    body = render_test_function(kernel("mm2"))
    assert "void test(BPA, Kt, Q, APBK_Q) {" in body
    assert "tiled_matmul_outer_eigen_bias(BPA, Kt, Q, APBK_Q, 12, 4, 12, true, false, true);" in body
    gv = render_test_function(kernel("gv1"))
    assert "tiled_matmul_outer_eigen(Bdyn, p, B_p, 4, 12, 1, true, false);" in gv


def test_optimize_prompt_contains_all_heuristics() -> None:
    prompt = build_block_optimize_prompt("mvin(A, 0, 4, 4);")
    for n, line in enumerate(DEFAULT_HEURISTICS, start=1):
        assert f"{n}. {line}" in prompt.system
    assert "mvin(A, 0, 4, 4);" in prompt.user
    assert "config_ex" in prompt.user


def test_optimize_prompt_without_heuristics() -> None:
    prompt = build_block_optimize_prompt("fence();", heuristics=())
    assert "// heuristics:" not in prompt.system
    assert prompt.fingerprint == build_block_optimize_prompt("fence();", heuristics=()).fingerprint


def test_reorder_prompt_labels_blocks() -> None:
    prompt = build_reorder_prompt(["fence();", "mvout(C, 0x80000000, 4, 4);", "fence();"])
    assert "Block 0:" in prompt.user
    assert "Block 1:" in prompt.user
    assert "Block 2:" in prompt.user
    assert "Return the plan as a list of blocks." in prompt.system
    with pytest.raises(ValueError):
        build_reorder_prompt([])


def test_repair_prompts() -> None:
    mark = build_repair_mark_prompt("mvin(A, <CONST>, 4, 4);")
    fill = build_repair_fill_prompt("mvin(A, <CONST>, 4, 4);", [0, 1, 3, 4, 12])
    assert "<CONST>" in mark.system
    assert "{0, 1, 3, 4, 12}" in fill.system
    single = build_repair_fill_prompt("x", [7])
    assert "{7}" in single.system
    with pytest.raises(EmptyConstantSet):
        build_repair_fill_prompt("x", [])
    with pytest.raises(ValueError):
        build_repair_mark_prompt("   ")


def test_curated_examples_verify_in_the_simulator() -> None:
    """The two matrix-matrix examples we wrote ourselves must actually work."""
    for example_name, kernel_name in (("matmat", "mm4"), ("matmat_bias", "mm3")):
        spec = kernel(kernel_name)
        text = example_text(example_name, annotated=True)
        code = text.split("```")[1]
        verdict = verify_source(code, spec, generate_testcases(spec, seed=23, count=2))
        assert verdict.passed, f"{example_name}: {verdict.failure}"


def _rough_blocks(program_text: str) -> list[str]:
    chunks: list[list[str]] = [[]]
    for line in program_text.splitlines():
        if line.startswith("preload") and chunks[-1]:
            chunks.append([])
        chunks[-1].append(line)
    return ["\n".join(chunk) for chunk in chunks]


def size_bytes(prompt) -> int:
    return sum(len(text.encode("utf-8")) for _, text in prompt.messages)


def test_every_family_fits_the_byte_budget() -> None:
    for name in sorted(KERNELS):
        for shots in (0, 1, 2):
            for position in ExamplesPosition:
                prompt = build_translation_prompt(
                    spec_for(name, shots=shots, examples_position=position)
                )
                assert size_bytes(prompt) <= PROMPT_BUDGET_BYTES, (name, shots)
    for name in sorted(KERNELS):
        blocks = _rough_blocks(golden_program(name))
        # Single-block optimize prompts must fit for every block of every
        # bundled program. Reorder prompts carry the whole program, and the
        # planning flow only ships with small programs (about ten blocks),
        # so the budget is asserted for those.
        for block in blocks:
            assert size_bytes(build_block_optimize_prompt(block)) <= PROMPT_BUDGET_BYTES, name
        if len(blocks) <= 12:
            reorder = build_reorder_prompt(blocks)
            assert size_bytes(reorder) <= PROMPT_BUDGET_BYTES, name
