"""Unit tests for the bucketed edge-pair coverage map."""

from ganfuzz.coverage import MAP_SIZE, CoverageMap, _BUCKET_BIT, bucket_index, edge_cell
from ganfuzz.targets import Trace

from oracles import brute_bucket_index, trace_of


def _trace_with_count(count: int) -> Trace:
    """A trace whose only cell is 5, hit exactly `count` times."""
    return Trace({5: count})


def test_bucket_index_matches_brute_force_0_to_300():
    for count in range(0, 301):
        assert bucket_index(count) == brute_bucket_index(count), f"count {count}"


def test_lut_matches_brute_force():
    assert _BUCKET_BIT[0] == 0
    for count in range(1, len(_BUCKET_BIT)):
        assert _BUCKET_BIT[count] == 1 << brute_bucket_index(count)
    # Counts past the table share its last bucket.
    assert brute_bucket_index(len(_BUCKET_BIT) - 1) == brute_bucket_index(10**6)


def test_counts_past_the_table_land_in_the_top_bucket():
    cov = CoverageMap()
    assert cov.update(_trace_with_count(5000))
    assert cov.cells[5] == 1 << 7
    assert not cov.update(_trace_with_count(128))


def test_empty_map_any_trace_novel():
    assert CoverageMap().update(trace_of([1, 2, 3]))


def test_replay_not_novel():
    cov = CoverageMap()
    trace = trace_of([1, 2, 3, 1])
    assert cov.update(trace)
    assert not cov.copy().update(trace)
    assert not cov.update(trace)


def test_empty_trace_never_novel():
    assert not CoverageMap().update(Trace({}))


def test_bucket_transitions():
    # 5 hits after 3 hits: bucket 4-7 is new. 3 after 2: bucket 3 is new.
    # 6 after 5: both land in 4-7, not novel.
    for prior, later, expect in ((3, 5, True), (2, 3, True), (5, 6, False)):
        cov = CoverageMap()
        cov.update(_trace_with_count(prior))
        assert cov.copy().update(_trace_with_count(later)) is expect


def test_update_ors_the_bucket_bit_into_the_cell():
    cov = CoverageMap()
    cov.update(_trace_with_count(3))
    cov.update(_trace_with_count(9))
    assert cov.cells[5] == (1 << 2) | (1 << 4)
    assert int(cov.cells.astype(bool).sum()) == 1


def test_cell_indexing_is_xor_of_consecutive_edges():
    for prev, cur in ((0, 3), (3, 9), (9, 9), (29, 0), (1234, 4321)):
        assert edge_cell(prev, cur) == prev ^ cur
    cov = CoverageMap()
    cov.update(trace_of([3, 9]))
    assert cov.cells[3] != 0  # (0, 3) pair
    assert cov.cells[3 ^ 9] != 0  # (3, 9) pair
    assert int(cov.cells.astype(bool).sum()) == 2


def test_large_edge_ids_wrap_into_map():
    assert edge_cell(0, MAP_SIZE + 7) == 7
    assert edge_cell(MAP_SIZE + 3, 2 * MAP_SIZE + 5) == 3 ^ 5
    assert all(0 <= edge_cell(p, c) < MAP_SIZE
               for p in (0, 1, MAP_SIZE - 1, MAP_SIZE, 3 * MAP_SIZE + 11)
               for c in (0, 2, MAP_SIZE - 2, MAP_SIZE + 1, 7 * MAP_SIZE))


def test_merge_unions_bits():
    a, b = CoverageMap(), CoverageMap()
    a.update(trace_of([1]))
    b.update(trace_of([2]))
    a.merge(b)
    assert not a.copy().update(trace_of([1]))
    assert not a.copy().update(trace_of([2]))


def test_copy_is_independent():
    a = CoverageMap()
    a.update(trace_of([1]))
    b = a.copy()
    b.update(trace_of([2]))
    assert a.copy().update(trace_of([2]))
