"""Local address encoding and structural validation."""

from __future__ import annotations

import random

import pytest

from ta_lift.isa import (
    ACC_BIT,
    ACCUMULATE_BIT,
    FULL_WIDTH_BIT,
    ROW_MASK,
    SENTINEL,
    AddressError,
    Program,
    Space,
    ValidationError,
    encode_local_addr,
    validate_program,
)
from ta_lift.program_text import parse_program


def test_encode_scratchpad_row() -> None:
    assert encode_local_addr(Space.SCRATCHPAD, False, False, 12) == 0x0000000C


def test_encode_accumulator_accumulate() -> None:
    assert encode_local_addr(Space.ACCUMULATOR, True, False, 0) == 0xC0000000


def test_encode_accumulator_full_width() -> None:
    assert encode_local_addr(Space.ACCUMULATOR, False, True, 5) == 0xA0000005


def test_decode_fields() -> None:
    addr = 0x80000004
    assert addr & ACC_BIT
    assert not addr & ACCUMULATE_BIT
    assert not addr & FULL_WIDTH_BIT
    assert addr & ROW_MASK == 4


def test_sentinel_value() -> None:
    assert SENTINEL == 0xFFFFFFFF
    assert 0xC0000000 != SENTINEL


def test_row_out_of_range_rejected() -> None:
    with pytest.raises(AddressError):
        encode_local_addr(Space.SCRATCHPAD, False, False, 1 << 29)
    with pytest.raises(AddressError):
        encode_local_addr(Space.SCRATCHPAD, False, False, -1)


def test_encode_decode_round_trip() -> None:
    rng = random.Random(7)
    for _ in range(500):
        space = rng.choice([Space.SCRATCHPAD, Space.ACCUMULATOR])
        accumulate = rng.random() < 0.5
        full = rng.random() < 0.5
        row = rng.randrange(1 << 29)
        addr = encode_local_addr(space, accumulate, full, row)
        decoded = (
            Space.ACCUMULATOR if addr & ACC_BIT else Space.SCRATCHPAD,
            bool(addr & ACCUMULATE_BIT),
            bool(addr & FULL_WIDTH_BIT),
            addr & ROW_MASK,
        )
        assert decoded == (space, accumulate, full, row)


def _program(text: str, buffers: dict[str, tuple[int, int]]) -> Program:
    return parse_program(text, buffers)


def test_validate_rejects_tall_mvin() -> None:
    p = _program("config_ld(16, 0); mvin(A, 0, 4, 5);", {"A": (8, 4)})
    with pytest.raises(ValidationError) as err:
        validate_program(p)
    assert err.value.kind == "rows_exceed_dim"
    assert err.value.index == 1


def test_validate_rejects_wide_mvin() -> None:
    p = _program("mvin(A, 0, 17, 4);", {"A": (8, 24)})
    with pytest.raises(ValidationError) as err:
        validate_program(p)
    assert err.value.kind == "block_too_wide"


def test_validate_rejects_mvout_from_scratchpad() -> None:
    p = _program("mvout(A, 12, 4, 4);", {"A": (8, 8)})
    with pytest.raises(ValidationError) as err:
        validate_program(p)
    assert err.value.kind == "wrong_address_space"


def test_validate_rejects_preload_from_accumulator() -> None:
    p = _program("preload(0x80000000, 0x80000000, 4, 4, 4, 4);", {})
    with pytest.raises(ValidationError) as err:
        validate_program(p)
    assert err.value.kind == "wrong_address_space"


def test_validate_accepts_keep_sentinel_weights() -> None:
    p = _program("preload(0xffffffff, 0x80000000, 4, 4, 4, 4);", {})
    validate_program(p)


def test_validate_rejects_oversized_compute_extent() -> None:
    p = _program("compute_preloaded(0, 0xffffffff, 5, 4, 4, 4);", {})
    with pytest.raises(ValidationError) as err:
        validate_program(p)
    assert err.value.kind == "dimension_mismatch"
