"""shardsim: plan and simulate sharded data-parallel ViT training on GPU clusters.

The package computes exact parameter/FLOP/memory footprints for ViT and MAE
workloads, models a hierarchical cluster and its collectives with alpha-beta
costs, builds the collective+compute schedule of one training step under a
sharding strategy and prefetch policy, and simulates weak-scaling throughput
deterministically, with a two-parameter calibration against measured points.
"""

from .arch import (
    CHECKPOINTED,
    FULL_CACHE,
    ActivationEstimate,
    FlopProfile,
    MAEConfig,
    NOMINAL_PARAMS_M,
    PRESETS,
    ParamBreakdown,
    ViTConfig,
    activation_bytes,
    block_forward_flops,
    block_params,
    flops,
    get_model,
    param_count,
    reference_report,
    token_count,
)
from .cluster import (
    CLUSTER_PRESETS,
    ClusterSpec,
    GiB,
    ProcessGroups,
    build_groups,
    frontier,
)
from .collectives import (
    ALL_GATHER,
    ALL_REDUCE,
    REDUCE_SCATTER,
    CollectiveCall,
    collective_time,
    group_channel,
)
from .engine import (
    CalibratedParams,
    Event,
    EventTrace,
    IoModel,
    Scenario,
    StepMetrics,
    SweepRow,
    SweepTable,
    calibrate,
    prepare_scenario,
    run_scenario,
    simulate_step,
    sweep,
)
from .errors import ConfigError, TopologyError
from .sharding import (
    MemoryBreakdown,
    PrefetchPolicy,
    ShardingPlan,
    StepSchedule,
    Strategy,
    StrategyKind,
    Task,
    Unit,
    build_units,
    make_plan,
    memory_footprint,
    step_schedule,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
