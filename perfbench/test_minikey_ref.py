"""Hand-worked cases for the reference parser.

    python3 -m pytest perfbench/test_minikey_ref.py

Each expected value is counted edge by edge in perfbench/README.md.
"""

import pytest

from minikey_ref import DEPTHS, HAND_WORKED, reference_trace


@pytest.mark.parametrize("name,data,budget,expected", HAND_WORKED,
                         ids=[case[0] for case in HAND_WORKED])
def test_hand_worked(name, data, budget, expected):
    assert reference_trace(data, budget) == expected


def test_depth_flags():
    crash = dict((c[0], c[3]) for c in HAND_WORKED)["planted crash"]
    assert DEPTHS[crash.depth] == "record"
    assert crash.past_magic and not crash.to_checksum
    assert not reference_trace(b"ABCDEFG").past_magic
    assert reference_trace(b"MKEY\x01\x00\x00\x00").to_checksum


def test_budget_edge():
    # 16 edges fit a budget of exactly 16; one fewer is a hang.
    assert reference_trace(b"MKEY\x01\x05\x00", 16).outcome == "ok"
    assert reference_trace(b"MKEY\x01\x05\x00", 15).outcome == "hang"
    assert reference_trace(b"MKEY\x01\x05\x00", 15).length == 15
