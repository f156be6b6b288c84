from dataclasses import replace

import pytest

from shardsim import (
    CollectiveCall,
    collective_time,
    frontier,
    group_channel,
)

ZERO_LAT = replace(frontier(2), intra_node_latency=0.0, inter_node_latency=0.0)


class TestCollectiveTime:
    def test_singleton_group_is_free(self):
        assert collective_time(CollectiveCall("all-reduce", 5e9, range(3, 4)), ZERO_LAT) == 0.0

    def test_all_gather_two_ranks(self):
        # (1/2) * 1e9 / 50e9 = 0.01 s
        t = collective_time(CollectiveCall("all-gather", 1e9, range(2)), ZERO_LAT)
        assert t == pytest.approx(0.01, rel=1e-12)

    def test_all_reduce_intra_node_eight(self):
        # 2 * (7/8) * 12.268e9 / 50e9 = 0.42938 s
        call = CollectiveCall("all-reduce", 12.268e9, range(8))
        assert collective_time(call, ZERO_LAT) == pytest.approx(0.42938, rel=1e-9)

    def test_gather_plus_scatter_equals_reduce(self):
        for group in (range(4), range(16)):
            ag = collective_time(CollectiveCall("all-gather", 3e9, group), frontier(2))
            rs = collective_time(CollectiveCall("reduce-scatter", 3e9, group), frontier(2))
            ar = collective_time(CollectiveCall("all-reduce", 3e9, group), frontier(2))
            assert ag + rs == pytest.approx(ar, rel=1e-12)

    def test_monotone_in_payload_and_group(self):
        spec = frontier(4)
        times_s = [collective_time(CollectiveCall("all-gather", s, range(8)), spec)
                   for s in (1e6, 1e7, 1e8, 1e9)]
        assert times_s == sorted(times_s)
        times_n = [collective_time(CollectiveCall("all-gather", 1e9, range(n)), spec)
                   for n in (2, 4, 8)]
        assert times_n == sorted(times_n)

    def test_non_ascending_or_empty_group_rejected(self):
        for group in (range(3, 0, -1), range(0), range(4, 4)):
            with pytest.raises(ValueError):
                CollectiveCall("all-gather", 1e9, group)

    def test_rank_tuples_rejected(self):
        with pytest.raises(ValueError):
            CollectiveCall("all-gather", 1e9, (0, 1))

    def test_latency_scale(self):
        call = CollectiveCall("all-gather", 1e9, range(8))
        base = collective_time(call, frontier(1), latency_scale=1.0)
        scaled = collective_time(call, frontier(1), latency_scale=3.0)
        # The added time is exactly the extra latency term.
        assert scaled - base == pytest.approx(2 * 7 * 2e-6, rel=1e-9)

    def test_inter_node_groups_never_get_intra_bandwidth(self):
        spec = frontier(4)
        for group in [range(0, 16, 8), range(0, 32, 8), range(16)]:
            bandwidth, latency = group_channel(group, spec)
            assert bandwidth == min(spec.intra_node_bw,
                                    spec.inter_node_bw / spec.gpus_per_node)
            assert latency == spec.inter_node_latency

    def test_zero_bytes_cost_nothing(self):
        assert collective_time(CollectiveCall("all-reduce", 0, range(2)), frontier(1)) == 0.0
