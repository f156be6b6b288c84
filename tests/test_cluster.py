import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardsim import (
    ClusterSpec,
    ConfigError,
    TopologyError,
    build_groups,
    frontier,
)
from shardsim.collectives import group_nodes


class TestClusterSpec:
    def test_frontier_preset(self):
        spec = frontier(4)
        assert spec.num_nodes == 4
        assert spec.gpus_per_node == 8
        assert spec.world_size == 32
        assert spec.hbm_bytes_per_gpu == 64 * 1024**3
        assert spec.intra_node_bw == 50e9
        assert spec.inter_node_bw == 100e9

    def test_validation(self):
        with pytest.raises(ConfigError):
            ClusterSpec(num_nodes=0, peak_flops_per_gpu=1e12)
        with pytest.raises(ConfigError):
            ClusterSpec(num_nodes=1, peak_flops_per_gpu=-1)
        with pytest.raises(ConfigError):
            ClusterSpec(num_nodes=1, peak_flops_per_gpu=1e12,
                        compute_efficiency=1.5)

    def test_effective_flops_must_not_underflow(self):
        with pytest.raises(ConfigError, match="^peak_flops_per_gpu times "):
            ClusterSpec(num_nodes=1, peak_flops_per_gpu=5e-324)
        assert ClusterSpec(num_nodes=1, peak_flops_per_gpu=5e-324,
                           compute_efficiency=1.0).effective_flops_per_gpu > 0

    def test_effective_flops(self):
        spec = ClusterSpec(num_nodes=1, peak_flops_per_gpu=100e12,
                           compute_efficiency=0.5)
        assert spec.effective_flops_per_gpu == 50e12


class TestBuildGroups:
    def test_single_node_pairs(self):
        groups = build_groups(frontier(1), 2)
        shard = [groups.shard_group_of(r) for r in range(0, 8, 2)]
        assert [tuple(g) for g in shard] == [(0, 1), (2, 3), (4, 5), (6, 7)]
        replica = [groups.replica_group_of(k) for k in range(2)]
        assert all(len(g) == 4 for g in replica)
        assert tuple(groups.replica_group_of(0)) == (0, 2, 4, 6)

    def test_two_nodes_full_node_groups(self):
        groups = build_groups(frontier(2), 8)
        assert tuple(groups.shard_group_of(0)) == tuple(range(8))
        assert tuple(groups.shard_group_of(8)) == tuple(range(8, 16))
        replica = [groups.replica_group_of(k) for k in range(8)]
        assert all(len(g) == 2 for g in replica)
        assert tuple(groups.replica_group_of(3)) == (3, 11)

    def test_degenerate_group_of_one(self):
        groups = build_groups(frontier(2), 1)
        assert [tuple(groups.shard_group_of(r)) for r in range(16)] == \
            [(r,) for r in range(16)]
        assert tuple(groups.replica_group_of(0)) == tuple(range(16))

    def test_double_partition(self):
        spec = frontier(4)
        for g in (1, 2, 4, 8, 16, 32):
            groups = build_groups(spec, g)
            shard_members = [r for base in range(0, 32, g)
                             for r in groups.shard_group_of(base)]
            replica_members = [r for k in range(g)
                               for r in groups.replica_group_of(k)]
            assert sorted(shard_members) == list(range(32))
            assert sorted(replica_members) == list(range(32))

    def test_groups_never_straddle_nodes_when_small(self):
        spec = frontier(4)
        for g in (2, 4, 8):
            groups = build_groups(spec, g)
            for rank in range(spec.world_size):
                group = groups.shard_group_of(rank)
                assert len({r // spec.gpus_per_node for r in group}) == 1

    def test_deterministic(self):
        assert build_groups(frontier(8), 4) == build_groups(frontier(8), 4)

    def test_invalid_sizes(self):
        with pytest.raises(TopologyError):
            build_groups(frontier(1), 3)   # 3 does not divide 8
        with pytest.raises(TopologyError):
            build_groups(frontier(1), 16)  # larger than world
        with pytest.raises(TopologyError):
            build_groups(frontier(2), 0)


class TestGroupArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((1, 2, 4, 8, 16)), st.integers(1, 8))
    def test_node_span_and_partitions(self, per_node, nodes):
        spec = ClusterSpec(num_nodes=nodes, peak_flops_per_gpu=1e12,
                           gpus_per_node=per_node)
        world = spec.world_size
        for g in range(1, world + 1):
            if world % g or (g <= per_node and per_node % g):
                with pytest.raises(TopologyError):
                    build_groups(spec, g)
                continue
            groups = build_groups(spec, g)
            for family in (groups.shard_group_of, groups.replica_group_of):
                owner = {}
                for rank in range(world):
                    group = family(rank)
                    assert rank in group
                    assert group_nodes(group, spec) == \
                        len({x // per_node for x in group})
                    for member in group:
                        assert owner.setdefault(member, group) == group
                # Every rank lies in exactly one group of the family.
                assert sorted(owner) == list(range(world))

    def test_rank_out_of_range(self):
        with pytest.raises(TopologyError):
            group_nodes(range(0, 16, 8), frontier(1))
        with pytest.raises(TopologyError):
            group_nodes(range(-1, 1), frontier(1))
