"""Alpha-beta ring cost model for all-gather, reduce-scatter, and all-reduce.

For a ring over N ranks moving a full payload of S bytes at bottleneck
bandwidth B with per-step latency alpha:

    all-gather / reduce-scatter:  (N-1) * alpha + ((N-1)/N) * S / B
    all-reduce:                   2 * (N-1) * alpha + 2 * ((N-1)/N) * S / B

`ring_terms` is the one place this formula lives; `collective_time` and the
engine's compiled schedules both take their terms from it.  `bytes` is always
the full (unsharded) payload.  A group is a rank range (first rank, stride,
size), so the number of nodes it spans is arithmetic on gpus_per_node.  The
bottleneck bandwidth of a group that spans nodes is min(intra link,
inter_node_bw / gpus_per_node): the NIC is a per-node injection limit and the
model conservatively assumes every GPU of a node competes for it (sibling
groups of a double partition do run their collectives simultaneously).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .cluster import ClusterSpec
from .errors import TopologyError

ALL_GATHER = "all-gather"
REDUCE_SCATTER = "reduce-scatter"
ALL_REDUCE = "all-reduce"
_KINDS = (ALL_GATHER, REDUCE_SCATTER, ALL_REDUCE)
# The largest finite float: a larger int would not convert when priced.
FLOAT_MAX = sys.float_info.max


def check_payload(kind: str, nbytes: float) -> None:
    """Raise `ValueError` unless `kind` is a collective kind and `nbytes` is
    a finite number >= 0."""
    if kind not in _KINDS:
        raise ValueError(f"unknown collective kind {kind!r}")
    if not 0 <= nbytes <= FLOAT_MAX:
        raise ValueError(
            f"payload bytes must be a finite number >= 0, got {nbytes!r}")


def check_collective(kind: str, nbytes: float, group: range) -> None:
    """Raise `ValueError` unless `check_payload` passes and `group` is a
    non-empty ascending rank range."""
    check_payload(kind, nbytes)
    if not isinstance(group, range) or not group or group.step < 1:
        raise ValueError(
            "collective group must be a non-empty ascending rank range")


@dataclass(frozen=True)
class CollectiveCall:
    kind: str
    bytes: float
    group: range

    def __post_init__(self) -> None:
        check_collective(self.kind, self.bytes, self.group)


def group_nodes(group: range, cluster: ClusterSpec) -> int:
    """Number of nodes an ascending rank range spans, with range validation.

    Members closer than a node apart leave no node out between the first and
    the last; members a node or more apart each sit on their own node.
    """
    if group[0] < 0 or group[-1] >= cluster.world_size:
        raise TopologyError(
            f"group {group} out of range for world size {cluster.world_size}")
    per_node = cluster.gpus_per_node
    if group.step >= per_node:
        return len(group)
    return group[-1] // per_node - group[0] // per_node + 1


def group_channel(group: range, cluster: ClusterSpec) -> tuple[float, float]:
    """(bottleneck bandwidth, per-step latency) for a ring over `group`."""
    if group_nodes(group, cluster) == 1:
        return cluster.intra_node_bw, cluster.intra_node_latency
    shared = cluster.inter_node_bw / cluster.gpus_per_node
    return min(cluster.intra_node_bw, shared), cluster.inter_node_latency


def ring_terms(kind: str, nbytes: float, size: int,
               channel: tuple[float, float]) -> tuple[float, float]:
    """(bandwidth seconds, latency seconds at scale 1) of one ring collective
    over `size` ranks on `channel`; both zero for singletons or no payload."""
    if size == 1 or nbytes == 0:
        return 0.0, 0.0
    bandwidth, alpha = channel
    doubled = 2 if kind == ALL_REDUCE else 1
    return (doubled * (size - 1) / size * nbytes / bandwidth,
            doubled * (size - 1) * alpha)


def collective_time(call: CollectiveCall, cluster: ClusterSpec,
                    latency_scale: float = 1.0) -> float:
    """Seconds for one collective; zero for singleton groups or empty payloads."""
    wire, latency = ring_terms(call.kind, call.bytes, len(call.group),
                               group_channel(call.group, cluster))
    return wire + latency * latency_scale
