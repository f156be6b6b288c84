"""Command-line front end: config ingestion, subcommands, report emission.

Subcommands: params, memory, schedule, simulate, sweep, calibrate.  Inputs are
flags or a JSON run config (``--config``); outputs go to stdout or ``--output``
(relative paths resolve against ``$SHARDSIM_OUTPUT_DIR`` when set).  Exactly
one source may define the model and the cluster.  All validation failures name
the offending field and exit nonzero.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

from .arch import CHECKPOINTED, FULL_CACHE, MAEConfig, ViTConfig, \
    get_model, param_count, reference_report
from .cluster import CLUSTER_PRESETS, ClusterSpec, GiB
from .engine import IoModel, Scenario, calibrate, prepare_scenario, \
    run_scenario, sweep
from .errors import ConfigError, TopologyError
from .sharding import PREFETCH_MODES, PrefetchPolicy, Strategy

ENV_OUTPUT_DIR = "SHARDSIM_OUTPUT_DIR"

FORMATS = ("pretty-table", "json", "csv")

# Every run field: the JSON types a run config may give it (the `properties`
# of docs/runconfig.schema.json; a JSON integer is also a number), its flag,
# and the flag's other `add_argument` options.  The flag's dest is the field.
CONFIG_FIELDS = {
    "model": (("string", "object"), "--model",
              {"help": "model preset, e.g. vit-3b or mae-3b"}),
    "strategy": (("string",), "--strategy",
                 {"help": "no-shard|full|grad-op|hybridN|ddp"}),
    "cluster": (("string", "object"), "--cluster",
                {"help": "cluster preset (frontier) or config"}),
    "nodes": (("integer",), "--nodes", {"help": "node count"}),
    "local_batch": (("integer",), "--local-batch", {"type": int}),
    "prefetch": (("string",), "--prefetch", {"choices": PREFETCH_MODES}),
    "limit_all_gathers": (("boolean",), "--no-limit-all-gathers",
                          {"action": "store_const", "const": False}),
    "max_inflight": (("integer",), "--max-inflight", {"type": int}),
    "strategies": (("string",), "--strategies",
                   {"help": "comma-separated strategy list"}),
    "io_rate": (("number",), "--io-rate",
                {"type": float, "help": "input images/second per rank"}),
    "efficiency": (("number",), "--efficiency", {"type": float}),
    "latency_scale": (("number",), "--latency-scale", {"type": float}),
    "activation_model": (("string",), "--activation-model",
                         {"choices": (CHECKPOINTED, FULL_CACHE)}),
    "observations": (("string",), "--observations",
                     {"help": "JSON file of measured ips points"}),
}

# The fields that describe one scenario, and the three that tune its
# simulation.
_RUN = ("model", "strategy", "cluster", "nodes", "local_batch", "prefetch",
        "limit_all_gathers", "max_inflight")
_TUNING = ("io_rate", "efficiency", "latency_scale")

# Every field an entry of a calibrate observations file may set.
OBSERVATION_FIELDS = ("model", "strategy", "nodes", "local_batch",
                      "measured_ips")


class CLIError(Exception):
    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


def _load_json(path: str, field: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise CLIError(field, f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CLIError(field, f"malformed JSON in {path}: {exc}")


def _merge_config(args: argparse.Namespace) -> dict:
    config = {}
    if getattr(args, "config", None):
        config = _load_json(args.config, "config")
        if not isinstance(config, dict):
            raise CLIError("config", "run config must be a JSON object")
        for key, value in config.items():
            if key not in CONFIG_FIELDS:
                raise CLIError("config", f"unknown field {key!r}")
            kind = _json_type(value)
            allowed, _, options = CONFIG_FIELDS[key]
            if kind == "integer" and "number" in allowed:
                kind = "number"
            if kind not in allowed \
                    or value not in options.get("choices", (value,)):
                raise CLIError(key, f"invalid value {value!r}")
    return config


def _json_type(value) -> str:
    """The JSON type of a value `json.load` returned."""
    if isinstance(value, bool):     # before int: bool is an int subclass
        return "boolean"
    for kind, types in (("integer", int), ("number", float), ("string", str),
                        ("object", dict), ("array", list)):
        if isinstance(value, types):
            return kind
    return "null"


def _typed(field: str, value, parse):
    if parse is None:
        return value
    try:
        return parse(value)
    except (TypeError, ValueError):
        raise CLIError(field, f"invalid value {value!r}")


def _pick(args: argparse.Namespace, config: dict, field: str, default=None,
          parse=None):
    """Flag wins over config; both set and conflicting is an error.

    `parse` types both sources before they are compared (a flag may arrive as
    text, a config value as a number); a value it rejects names the field.
    """
    flag = getattr(args, field, None)
    if flag is not None:
        flag = _typed(field, flag, parse)
    if field not in config:
        return default if flag is None else flag
    value = _typed(field, config[field], parse)
    if flag is not None and value != flag:
        raise CLIError(field, "specified both on the command line and in --config")
    return value if flag is None else flag


def _count(value) -> int:
    """An integer count that must be >= 1 (nodes, local batch)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"count must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"count must be >= 1, got {value}")
    return value


def _pick_list(args, config, field: str, parse=str) -> list:
    """A comma-separated list field: its non-blank items, each stripped and
    typed by `parse`; a list with no item left names its field."""
    items = _pick(args, config, field, parse=lambda value: [
        parse(item.strip()) for item in str(value).split(",") if item.strip()])
    if not items:
        raise CLIError(field, "a comma-separated list of at least one item "
                              "is required")
    return items


def _resolve_model(value, field: str = "model"):
    if value is None:
        raise CLIError(field, "a model preset name or inline config is required")
    if isinstance(value, str):
        try:
            return get_model(value)
        except ConfigError as exc:
            raise CLIError(field, str(exc))
    if isinstance(value, dict):
        try:
            fields = dict(value)
            if "encoder" in fields:
                encoder = ViTConfig(**fields.pop("encoder"))
                return MAEConfig(encoder=encoder, **fields)
            return ViTConfig(**fields)
        except (ConfigError, TypeError) as exc:
            raise CLIError(field, f"invalid inline model config: {exc}")
    raise CLIError(field, "must be a preset name or an inline object")


def _resolve_cluster(value, nodes: int, field: str = "cluster") -> ClusterSpec:
    if value is None:
        value = "frontier"
    if isinstance(value, str):
        preset = CLUSTER_PRESETS.get(value.lower())
        if preset is None:
            raise CLIError(field, f"unknown cluster preset {value!r}")
        try:
            return preset(nodes)
        except ConfigError as exc:
            raise CLIError("nodes", str(exc))
    if isinstance(value, dict):
        try:
            return ClusterSpec(num_nodes=nodes, **value)
        except (ConfigError, TypeError) as exc:
            raise CLIError(field, f"invalid inline cluster spec: {exc}")
    raise CLIError(field, "must be a preset name or an inline object")


def _resolve_strategy(value, field: str = "strategy") -> Strategy:
    if value is None:
        raise CLIError(field, "a sharding strategy is required")
    try:
        return Strategy.parse(value)
    except ConfigError as exc:
        raise CLIError(field, str(exc))


def _resolve_policy(args, config) -> PrefetchPolicy:
    mode = _pick(args, config, "prefetch", PrefetchPolicy.mode)
    limit = _pick(args, config, "limit_all_gathers",
                  PrefetchPolicy.limit_all_gathers)
    inflight = _pick(args, config, "max_inflight", PrefetchPolicy.max_inflight)
    try:
        return PrefetchPolicy(mode=mode, limit_all_gathers=limit,
                              max_inflight=inflight)
    except ConfigError as exc:
        raise CLIError("max_inflight", str(exc))


def _tuning(args, config, cluster: ClusterSpec) -> tuple[ClusterSpec, dict]:
    """The cluster at the requested fraction of peak, and the `io` and
    `latency_scale` keywords of `run_scenario` and `sweep` that the run sets;
    an unset one keeps the library's default."""
    keywords = {}
    for field in _TUNING:
        value = _pick(args, config, field, parse=float)
        if value is None:
            continue
        try:
            if field == "io_rate":
                keywords["io"] = IoModel(images_per_second_per_rank=value)
            elif field == "efficiency":
                cluster = replace(cluster, compute_efficiency=value)
            else:
                keywords[field] = value
        except ConfigError as exc:
            raise CLIError(field, str(exc))
    return cluster, keywords


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(ENV_OUTPUT_DIR)
    if base and not os.path.isabs(output):
        output = os.path.join(base, output)
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(text)


def _gib(value: int | float) -> str:
    return f"{value / GiB:.2f}"


def _kv_table(rows: list[tuple[str, str]]) -> str:
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _format_kv(rows: list[tuple[str, str]], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(dict(rows), indent=2)
    if fmt == "csv":
        return "\n".join(f"{k},{v}" for k, v in rows) + "\n"
    return _kv_table(rows)


def _cmd_params(args) -> str:
    config = _merge_config(args)
    model_name = _pick(args, config, "model")
    breakdown = param_count(_resolve_model(model_name))
    rows = [(name, str(count)) for name, count in breakdown.components().items()
            if count]
    rows.append(("per_block", str(breakdown.per_block)))
    rows.append(("grand_total", str(breakdown.grand_total)))
    if isinstance(model_name, str):
        for entry in reference_report():
            if entry["model"] == model_name.lower():
                rows.append(("nominal_total", str(int(entry["nominal"]))))
                rows.append(("relative_deviation",
                             f"{entry['relative_deviation']:+.4f}"))
    return _format_kv(rows, args.format)


def _scenario_from(args, config) -> tuple[Scenario, ClusterSpec]:
    """The one scenario builder of `memory`, `schedule` and `simulate`."""
    model = _resolve_model(_pick(args, config, "model"))
    strategy = _resolve_strategy(_pick(args, config, "strategy"))
    nodes = _pick(args, config, "nodes", 1, parse=lambda n: _count(int(n)))
    cluster = _resolve_cluster(_pick(args, config, "cluster"), nodes)
    batch = _pick(args, config, "local_batch", Scenario.local_batch,
                  parse=_count)
    policy = _resolve_policy(args, config)
    scenario = Scenario(model=model, strategy=strategy, nodes=nodes,
                        local_batch=batch, policy=policy)
    return scenario, cluster


def _cmd_memory(args) -> str:
    config = _merge_config(args)
    scenario, cluster = _scenario_from(args, config)
    activation_model = _pick(args, config, "activation_model", CHECKPOINTED)
    try:
        _, memory, _ = prepare_scenario(scenario, cluster, activation_model)
    except TopologyError as exc:
        raise CLIError("strategy", str(exc))
    near_capacity = memory.total_bytes > 0.8 * memory.hbm_bytes
    rows = [
        ("params_gib", _gib(memory.params_bytes)),
        ("grads_gib", _gib(memory.grads_bytes)),
        ("optimizer_gib", _gib(memory.optimizer_bytes)),
        ("activations_gib", _gib(memory.activations_bytes)),
        ("gathered_peak_gib", _gib(memory.gathered_peak_bytes)),
        ("total_gib", _gib(memory.total_bytes)),
        ("hbm_gib", _gib(memory.hbm_bytes)),
        ("feasible", "yes" if memory.feasible else "no"),
        ("near_capacity", "yes" if near_capacity else "no"),
    ]
    return _format_kv(rows, args.format)


def _cmd_schedule(args) -> str:
    config = _merge_config(args)
    scenario, cluster = _scenario_from(args, config)
    try:
        schedule, _, _ = prepare_scenario(scenario, cluster)
    except TopologyError as exc:
        raise CLIError("strategy", str(exc))
    return schedule.to_json(indent=2)


def _cmd_simulate(args) -> str:
    config = _merge_config(args)
    scenario, cluster = _scenario_from(args, config)
    cluster, tuning = _tuning(args, config, cluster)
    try:
        metrics = run_scenario(scenario, cluster, **tuning)
    except TopologyError as exc:
        raise CLIError("strategy", str(exc))
    rows = [
        ("step_seconds", f"{metrics.step_seconds:.6f}"),
        ("images_per_second", f"{metrics.images_per_second:.1f}"),
        ("comm_seconds_exposed", f"{metrics.comm_seconds_exposed:.6f}"),
        ("comm_fraction", f"{metrics.comm_fraction:.4f}"),
        ("compute_seconds", f"{metrics.compute_seconds:.6f}"),
        ("io_seconds", f"{metrics.io_seconds:.6f}"),
        ("peak_gib", _gib(metrics.peak_memory.total_bytes)),
        ("feasible", "yes" if metrics.feasible else "no"),
    ]
    return _format_kv(rows, args.format)


def _cmd_sweep(args) -> str:
    config = _merge_config(args)
    if isinstance(config.get("model"), dict):
        raise CLIError("model", "sweep takes comma-separated preset names, "
                                "not an inline model config")
    models = _pick_list(args, config, "model")
    for name in models:
        _resolve_model(name)
    strategies = _pick_list(args, config, "strategies",
                            lambda s: _resolve_strategy(s, "strategies"))
    node_counts = _pick_list(args, config, "nodes", lambda n: _count(int(n)))
    cluster, tuning = _tuning(
        args, config, _resolve_cluster(_pick(args, config, "cluster"), 1))
    batch = _pick(args, config, "local_batch", Scenario.local_batch,
                  parse=_count)
    policy = _resolve_policy(args, config)
    table = sweep(models, strategies, node_counts, cluster, policy=policy,
                  local_batch=batch, **tuning)
    if args.format != "pretty-table":
        return table.to_json(indent=2) if args.format == "json" \
            else table.to_csv()
    # Pad each CSV cell to its column's width (a negative one left-aligns);
    # a title wider than its column keeps its first word.
    widths = (-10, -9, 6, 12, 12, 9, 9, 8)
    rows = [line.split(",") for line in table.to_csv().splitlines()]
    rows[0] = [title if len(title) <= abs(width) else title.split("_")[0]
               for title, width in zip(rows[0], widths)]
    return "\n".join(" ".join("%*s" % pad for pad in zip(widths, row))
                      for row in rows)


def _cmd_calibrate(args) -> str:
    config = _merge_config(args)
    obs_path = _pick(args, config, "observations")
    if not obs_path:
        raise CLIError("observations", "an observations JSON file is required")
    payload = _load_json(obs_path, "observations")
    if not isinstance(payload, list) or not payload:
        raise CLIError("observations", "expected a non-empty JSON list")
    cluster = _resolve_cluster(_pick(args, config, "cluster"), 1)
    observations = []
    for i, entry in enumerate(payload):
        field = f"observations[{i}]"
        if not isinstance(entry, dict) or "measured_ips" not in entry:
            raise CLIError(field, "each entry needs scenario fields and measured_ips")
        for key in entry:
            if key not in OBSERVATION_FIELDS:
                raise CLIError(field, f"unknown field {key!r}")
        try:
            scenario = Scenario(
                model=_resolve_model(entry["model"], field),
                strategy=Strategy.parse(entry["strategy"]),
                nodes=_count(entry["nodes"]),
                local_batch=_count(entry.get("local_batch",
                                             Scenario.local_batch)),
            )
            measured = entry["measured_ips"]
            if _json_type(measured) not in ("integer", "number"):
                raise TypeError(
                    f"measured ips must be a number, got {measured!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise CLIError(field, str(exc))
        observations.append((scenario, measured))
    return json.dumps(vars(calibrate(observations, cluster)), indent=2)


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it refuses an argument it does not declare under
    its own usage, which lists the flags it does take."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: flags are refused unless spelled out,
    and each command takes only the fields it reads."""
    parser = argparse.ArgumentParser(
        prog="shardsim",
        description="Plan and simulate sharded data-parallel ViT training steps.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    sweep_run = tuple(f for f in _RUN if f != "strategy")
    for command, func, text, formats, fields in (
            ("params", _cmd_params, "parameter breakdown for a model",
             FORMATS, ("model",)),
            ("memory", _cmd_memory, "per-rank memory under a strategy",
             FORMATS, _RUN + ("activation_model",)),
            ("schedule", _cmd_schedule, "task-graph dump as JSON",
             ("json",), _RUN),
            ("simulate", _cmd_simulate, "single-scenario step metrics",
             FORMATS, _RUN + _TUNING),
            ("sweep", _cmd_sweep, "weak-scaling sweep table",
             FORMATS, sweep_run + ("strategies",) + _TUNING),
            ("calibrate", _cmd_calibrate, "fit efficiency/latency to data",
             ("json",), ("observations", "cluster"))):
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        p.add_argument("--config", help="JSON run config supplying defaults")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", help="write the report to this path")
        for field in fields:
            _, flag, options = CONFIG_FIELDS[field]
            p.add_argument(flag, dest=field, **options)
        p.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = args.func(args)
        _emit(text, args.output)
        return 0
    except (CLIError, ConfigError, TopologyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
