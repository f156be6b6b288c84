"""Hierarchical machine model: nodes, GPUs, and process groups.

A rank is one GPU.  Ranks are numbered node-major, so rank r lives on node
r // gpus_per_node.  Inter-node bandwidth is a per-node injection limit shared
by all of the node's GPUs; link latencies are calibration parameters with
documented defaults rather than measured facts.  A process group is a rank
range (first rank, stride, size): shard groups are contiguous, replica groups
strided, and neither is ever expanded into a rank list here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, TopologyError, check_field_types

GiB = 1024**3


@dataclass(frozen=True)
class ClusterSpec:
    num_nodes: int
    peak_flops_per_gpu: float
    gpus_per_node: int = 8
    hbm_bytes_per_gpu: int = 64 * GiB
    intra_node_bw: float = 50e9        # bytes/s per GPU-GPU link
    inter_node_bw: float = 100e9       # bytes/s injection limit per node
    intra_node_latency: float = 2e-6   # seconds
    inter_node_latency: float = 10e-6  # seconds
    compute_efficiency: float = 0.45   # calibratable fraction of peak

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.num_nodes < 1 or self.gpus_per_node < 1:
            raise ConfigError("num_nodes and gpus_per_node must be >= 1")
        if self.hbm_bytes_per_gpu < 1:
            raise ConfigError("hbm_bytes_per_gpu must be >= 1")
        for name in ("peak_flops_per_gpu", "intra_node_bw", "inter_node_bw"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if self.intra_node_latency < 0 or self.inter_node_latency < 0:
            raise ConfigError("latencies must be >= 0")
        if not 0 < self.compute_efficiency <= 1:
            raise ConfigError("compute_efficiency must lie in (0, 1]")
        if self.effective_flops_per_gpu == 0:
            raise ConfigError("peak_flops_per_gpu times compute_efficiency "
                              "must not underflow to 0")

    @property
    def world_size(self) -> int:
        return self.num_nodes * self.gpus_per_node

    @property
    def effective_flops_per_gpu(self) -> float:
        return self.peak_flops_per_gpu * self.compute_efficiency


def frontier(num_nodes: int = 1) -> ClusterSpec:
    """Preset for one MI250X-based partition: 8 GCD ranks per node with 64 GiB
    HBM each, 50 GB/s intra-node links, a 100 GB/s NIC per node, and a
    191.5 TFLOP/s bf16 peak per rank."""
    return ClusterSpec(num_nodes=num_nodes, peak_flops_per_gpu=191.5e12)


CLUSTER_PRESETS = {"frontier": frontier}


@dataclass(frozen=True)
class ProcessGroups:
    """A double partition of all ranks.

    Shard groups are contiguous rank ranges of size g; replica group k holds
    the k-th member of every shard group, i.e. the range k, k+g, k+2g, ...
    Every rank appears in exactly one group of each family.
    """

    world_size: int
    shard_group_size: int

    def shard_group_of(self, rank: int) -> range:
        first = rank - rank % self.shard_group_size
        return range(first, first + self.shard_group_size)

    def replica_group_of(self, rank: int) -> range:
        return range(rank % self.shard_group_size, self.world_size,
                     self.shard_group_size)


def build_groups(spec: ClusterSpec, shard_group_size: int) -> ProcessGroups:
    """Describe the shard and replica groups for a given shard-group size.

    Shard groups never straddle a node boundary when they fit inside one
    (g <= gpus_per_node requires gpus_per_node % g == 0).
    """
    g = shard_group_size
    world = spec.world_size
    if g < 1:
        raise TopologyError(f"shard group size must be >= 1, got {g}")
    if world % g:
        raise TopologyError(
            f"shard group size {g} does not divide world size {world}")
    if g <= spec.gpus_per_node and spec.gpus_per_node % g:
        raise TopologyError(
            f"shard group size {g} does not divide gpus_per_node "
            f"{spec.gpus_per_node}, so groups would straddle nodes")
    return ProcessGroups(world_size=world, shard_group_size=g)
