"""Tests of the benchmark's own arithmetic. Run with: python3 -m pytest bench"""

import pytest

import metrics as M
from metrics import Span


def test_tail_percentile_needs_ten_samples_beyond():
    assert M.tail_percentile(100) == 90.0
    assert M.tail_percentile(99) == 75.0
    assert M.tail_percentile(200) == 95.0
    assert M.tail_percentile(1000) == 99.0
    assert M.tail_percentile(999) == 95.0
    assert M.tail_percentile(10_000) == 99.9
    assert M.tail_percentile(19) is None
    assert M.tail_percentile(20) == 50.0


def test_beyond_counts_samples_above_the_rank():
    assert M.beyond(90, 100) == 10
    assert M.beyond(90, 101) == 10
    assert M.beyond(99.9, 1000) == 1
    assert M.beyond(50, 1) == 0


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert M.percentile(values, 50) == 50
    assert M.percentile(values, 90) == 90
    assert M.percentile(values, 100) == 100
    assert M.percentile([7.0], 90) == 7.0


def test_self_time_subtracts_nested_children_once():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("child", 1.0, 6.0, 0, 1),
        Span("grandchild", 2.0, 5.0, 1, 1),
    ]
    assert M.self_times(spans) == pytest.approx([5.0, 2.0, 3.0])


def test_self_time_with_siblings_and_overlap():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 3.0, 0, 1),
        Span("b", 4.0, 7.0, 0, 1),
        Span("c", 6.0, 8.0, 0, 1),  # overlaps b: the union counts, not the sum
        Span("other", 20.0, 21.0, None, 2),
    ]
    assert M.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 2.0, 1.0])


def test_self_times_of_a_tree_sum_to_its_roots():
    spans = [
        Span("main", 0.0, 10.0, None, 1),
        Span("train", 1.0, 9.0, 0, 1),
        Span("iter", 2.0, 4.0, 1, 1),
        Span("grad", 2.5, 3.5, 2, 1),
        Span("iter", 5.0, 8.0, 1, 1),
    ]
    assert sum(M.self_times(spans)) == pytest.approx(10.0)


def test_decode_cache_hits():
    cache = {(0, 1, 3): "row"}
    assert M.is_cache_hit(cache, (0, 1, 3))
    assert M.is_cache_hit(cache, [3, 1, 0])
    assert not M.is_cache_hit(cache, (0, 1, 2))
    assert not M.is_cache_hit({}, (0, 1, 3))
    assert not M.is_cache_hit(None, (0, 1, 3))


def test_partition_setup_rounds_output():
    # main 0..20; run A: rounds at 2, 4, 5, ends 7; run B: round at 9, ends 12.
    part = M.partition(0.0, 20.0, [2.0, 4.0, 5.0, 9.0], [7.0, 12.0])
    assert part.setup == pytest.approx(2.0 + 2.0)
    assert part.rounds == pytest.approx([2.0, 1.0, 2.0, 3.0])
    assert part.output == pytest.approx(8.0)
    assert part.total == pytest.approx(20.0)


def test_partition_without_rounds_is_all_setup():
    part = M.partition(1.0, 4.0, [], [])
    assert (part.setup, part.rounds, part.output) == (pytest.approx(3.0), [], 0.0)


def test_partition_of_an_unfinished_run_ends_its_last_round_at_exit():
    part = M.partition(0.0, 10.0, [1.0, 3.0], [])
    assert part.setup == pytest.approx(1.0)
    assert part.rounds == pytest.approx([2.0, 7.0])
    assert part.output == 0.0


def test_noise_floor_takes_each_segment_fastest_repetition():
    first = [M.Partition(1.0, [2.0, 5.0], 0.5), M.Partition(0.2, [1.0], 0.0)]
    second = [M.Partition(1.5, [3.0, 4.0], 0.25), M.Partition(0.1, [2.0], 0.0)]
    floor = M.noise_floor([first, second])
    assert floor.setup == pytest.approx(1.0 + 0.1)
    assert floor.rounds == pytest.approx([2.0, 4.0, 1.0])
    assert floor.output == pytest.approx(0.25)
    assert floor.total == pytest.approx(1.1 + 7.0 + 0.25)
    assert M.noise_floor([first]).total == pytest.approx(sum(p.total for p in first))


def test_noise_floor_pools_invocations_of_one_group():
    # Two passes of two invocations doing the same work on other data.
    first = [M.Partition(1.0, [4.0, 6.0], 0.5), M.Partition(2.0, [3.0, 9.0], 0.5)]
    second = [M.Partition(3.0, [5.0, 1.0], 0.25), M.Partition(4.0, [8.0, 7.0], 1.0)]
    floor = M.noise_floor([first, second], groups=["verify", "verify"])
    assert floor.setup == pytest.approx(2 * 1.0)
    assert floor.rounds == pytest.approx([3.0, 1.0, 3.0, 1.0])
    assert floor.output == pytest.approx(2 * 0.25)


def test_noise_floor_needs_repetitions_of_one_shape():
    with pytest.raises(ValueError):
        M.noise_floor([[M.Partition(0.0, [1.0], 0.0)], [M.Partition(0.0, [1.0, 1.0], 0.0)]])
    with pytest.raises(ValueError):
        M.noise_floor([[M.Partition(0.0, [1.0], 0.0), M.Partition(0.0, [], 0.0)]], groups=[1, 1])


def test_run_fail_share_counts_only_simulate_and_compare():
    invocations = [("compare", True), ("simulate", False), ("verify", False), ("build", True)]
    assert M.run_fail_share(invocations) == pytest.approx(0.5)
    assert M.run_fail_share([("verify", True)]) is None


def test_span_fail_share_pools_codes():
    assert M.span_fail_share([(2, 10_626), (0, 10_626), (0, 2024)]) == pytest.approx(2 / 23_276)
    assert M.span_fail_share([(0, 10)]) == 0.0
    assert M.span_fail_share([]) is None
